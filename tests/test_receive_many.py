"""``feed``, the one checked reception loop of both decoders, and the
reception contract every code family shares, tested here once on each.

A batch must leave a decoder exactly where the same pairs fed one at a
time through ``receive`` leave it, stop after the reception that ends
the decode without drawing another pair, and check each pair before
that pair changes any state.  Decoders of one code share its per-code
constants and must not alter them.
"""

import gc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from turbobec import (RscSpec, Status, build_regular_staircase,
                      make_pr_interleaver, make_turbo_spec)

from conftest import rng_for

BUILDERS = {
    "turbo75": lambda seed: make_turbo_spec(
        RscSpec(0o7, 0o5, 3), 64, make_pr_interleaver(64, seed)),
    "turbo1315": lambda seed: make_turbo_spec(
        RscSpec(0o13, 0o15, 4), 64, make_pr_interleaver(64, seed),
        rate=Fraction(1, 2)),
    "ldpc": lambda seed: build_regular_staircase(64, Fraction(1, 3), seed),
    "ldpc-r12": lambda seed: build_regular_staircase(64, Fraction(1, 2), seed),
}


def snapshot(dec):
    """Everything a reception can change: the masks, or the peeled values
    and each check's unknown count and accumulator, first."""
    state = ([list(c) for c in dec.masks] if hasattr(dec, "masks")
             else (list(dec.values), list(dec._unknown), list(dec._acc)))
    return (state, dec.determined_bits(), dec.known_count(),
            bytes(dec._received), dec.outcome().status)


def take(dec, indices, values):
    """Feeds the pairs to ``dec``; the last r it yielded, 0 for none."""
    r = 0
    for r in dec.feed(zip(indices, values)):
        pass
    return r


def instance(build, rng, flips):
    """A code, a word with ``flips`` symbols flipped, and an arrival order."""
    code = build(int(rng.integers(0, 1 << 16)))
    cw = code.encode(rng.integers(0, 2, code.K, dtype=np.uint8))
    for i in rng.choice(code.N, flips, replace=False):
        cw[i] ^= 1
    return code, cw.tolist(), rng.permutation(code.N).tolist()


@pytest.mark.parametrize("family", BUILDERS)
def test_batches_match_a_receive_loop(family):
    rng = rng_for(90, list(BUILDERS).index(family))
    ends = set()
    for trial in range(24):
        code, cw, order = instance(BUILDERS[family], rng, flips=trial % 3)
        one = code.start_decoder()
        count = 0
        for idx in order:
            count += 1
            if one.receive(idx, cw[idx]).status is not Status.IN_PROGRESS:
                break

        cuts = sorted(rng.choice(code.N + 1, 4).tolist())
        batch = code.start_decoder()
        taken = 0
        for lo, hi in zip([0, *cuts], [*cuts, code.N]):
            chunk = order[lo:hi]
            got = take(batch, chunk, [cw[i] for i in chunk])
            taken += got
            if batch.outcome().status is not Status.IN_PROGRESS:
                break
            assert got == len(chunk)
        assert taken == count
        assert snapshot(batch) == snapshot(one)
        ends.add(one.outcome().status)
    assert ends == {Status.SUCCESS, Status.CONTRADICTION}


@pytest.mark.parametrize("family", BUILDERS)
def test_values_reach_the_decoder_as_plain_ints(family):
    # Any value equal to 0 or 1 is taken, and the decoder gets it as
    # the int 0 or 1: a numpy scalar fed on into peeling would turn its
    # ops into numpy ints, and a float or a Fraction would break them.
    rng = rng_for(90, 9, list(BUILDERS).index(family))
    for flips in (0, 1):
        code, cw, order = instance(BUILDERS[family], rng, flips)
        plain = code.start_decoder()
        take(plain, order, [cw[i] for i in order])
        for kind in (bool, np.uint8, np.int64, float, Fraction):
            dec = code.start_decoder()
            take(dec, order, [kind(cw[i]) for i in order])
            assert snapshot(dec) == snapshot(plain)
            kept = dec.determined_bits() + getattr(dec, "values", [])
            assert all(type(v) is int for v in kept if v is not None)


@pytest.mark.parametrize("family", BUILDERS)
@pytest.mark.parametrize("bad, message", [
    ((-1, 0), "index -1 out of range"),
    (("N", 0), "index {N} out of range"),
    ((10**6, 0), "index 1000000 out of range"),
    ((None, 2), "value 2 is not 0 or 1"),
    ((None, None), "was already received"),
], ids=["negative", "n", "too-big", "value", "duplicate"])
def test_bad_pair_mid_batch_raises_after_the_pairs_before_it(
        family, bad, message):
    code, cw, order = instance(BUILDERS[family], rng_for(91), flips=0)
    good = order[:5]
    index, value = bad
    if index == "N":
        index = code.N
    if index is None:
        index = order[5] if value is not None else good[2]
    if value is None:
        value = cw[index]
    indices = [*good, index, *order[6:9]]
    values = [cw[i] for i in good] + [value] + [cw[i] for i in order[6:9]]

    expect = code.start_decoder()
    for idx in good:
        expect.receive(idx, cw[idx])
    dec = code.start_decoder()
    with pytest.raises(ValueError, match=message.format(N=code.N)):
        take(dec, indices, values)
    assert snapshot(dec) == snapshot(expect)
    # The decoder stays usable: the rest of the word still decodes.  Both
    # encoders are one-to-one, so the bits it determined are the word's.
    rest = order[5:]
    assert take(dec, rest, [cw[i] for i in rest]) <= len(rest)
    assert dec.outcome().status is Status.SUCCESS
    assert code.encode(dec.determined_bits()).tolist() == cw


@pytest.mark.parametrize("family", BUILDERS)
@pytest.mark.parametrize("flips", [0, 2], ids=["success", "corrupted"])
def test_feed_never_draws_past_the_end(family, flips):
    rng = rng_for(92, list(BUILDERS).index(family), flips)
    for _ in range(8):
        code, cw, order = instance(BUILDERS[family], rng, flips)
        one = code.start_decoder()
        for r_stop, idx in enumerate(order, start=1):
            if one.receive(idx, cw[idx]).status is not Status.IN_PROGRESS:
                break
        drawn = 0

        def pairs():
            nonlocal drawn
            for idx in order:
                assert drawn < r_stop, "drew a pair after the decode ended"
                drawn += 1
                yield idx, cw[idx]

        dec = code.start_decoder()
        assert list(dec.feed(pairs())) == list(range(1, r_stop + 1))
        assert drawn == r_stop
        assert snapshot(dec) == snapshot(one)


def receive_loop(code, cw, order):
    """The snapshot after each reception, from r = 1, of a decoder fed
    ``order`` one ``receive`` at a time until the decode ends."""
    dec = code.start_decoder()
    states = []
    for idx in order:
        dec.receive(idx, cw[idx])
        states.append(snapshot(dec))
        if dec.outcome().status is not Status.IN_PROGRESS:
            return states
    raise AssertionError("the whole word did not end the decode")


@pytest.mark.parametrize("family", BUILDERS)
@pytest.mark.parametrize("flips", [0, 2], ids=["success", "corrupted"])
def test_known_count_at_every_yield(family, flips):
    # ``decode`` prints known_count() and ``run_trial(trace=...)`` records
    # it at each yield, so it must be settled there, not only at the end.
    rng = rng_for(93, list(BUILDERS).index(family), flips)
    for _ in range(8):
        code, cw, order = instance(BUILDERS[family], rng, flips)
        expect = [state[2] for state in receive_loop(code, cw, order)]
        dec = code.start_decoder()
        before = dec.determined_bits()
        assert before == [None] * code.K and dec.known_count() == 0
        got = []
        for _ in dec.feed((idx, cw[idx]) for idx in order):
            bits = dec.determined_bits()
            assert dec.known_count() == len(bits) - bits.count(None)
            # A determined bit stays determined, with the same value.
            assert all(a is None or a == b for a, b in zip(before, bits))
            before = bits
            got.append(dec.known_count())
        assert got == expect
        assert flips or got[-1] == code.K


@pytest.mark.parametrize("family", BUILDERS)
@pytest.mark.parametrize("flips", [0, 2], ids=["success", "corrupted"])
def test_abandoned_feed_leaves_a_consistent_decoder(family, flips):
    rng = rng_for(94, list(BUILDERS).index(family), flips)
    for _ in range(4):
        code, cw, order = instance(BUILDERS[family], rng, flips)
        states = receive_loop(code, cw, order)
        r_stop = len(states)
        stops = {1, r_stop - 1, *rng.integers(1, r_stop, 3).tolist()}
        for r in sorted(stops):
            dec = code.start_decoder()
            feed = dec.feed((idx, cw[idx]) for idx in order)
            for got in feed:
                if got == r:
                    break
            assert snapshot(dec) == states[r - 1]
            feed.close()
            assert snapshot(dec) == states[r - 1]
            # A second feed takes the rest of the word from where the
            # first one stopped.
            rest = order[r:]
            assert r + take(dec, rest, [cw[i] for i in rest]) == r_stop
            assert snapshot(dec) == states[-1]


@pytest.mark.parametrize("family", BUILDERS)
@pytest.mark.parametrize("flips", [0, 2], ids=["success", "corrupted"])
def test_receive_between_the_yields_of_a_feed(family, flips):
    # A suspended feed resumes from the decoder's state, not from the
    # count it held when it yielded, so a reception in between is
    # neither lost nor undone.
    rng = rng_for(96, list(BUILDERS).index(family), flips)
    for _ in range(4):
        code, cw, order = instance(BUILDERS[family], rng, flips)
        states = receive_loop(code, cw, order)
        dec = code.start_decoder()
        feed = dec.feed((idx, cw[idx]) for idx in order[::2])
        done = 0
        for r in feed:
            done += 1
            assert r == (done + 1) // 2
            assert snapshot(dec) == states[done - 1]
            if done < len(states):
                dec.receive(order[done], cw[order[done]])
                done += 1
                assert snapshot(dec) == states[done - 1]
        assert done == len(states)


@pytest.mark.parametrize("family", BUILDERS)
def test_a_decoder_is_freed_without_the_cycle_collector(family):
    # A feed lives in its caller's frame only: a decoder that kept its own
    # generator would form a cycle, and campaigns would hold dead decoders
    # until the cycle collector ran, raising their peak memory.
    code, cw, order = instance(BUILDERS[family], rng_for(95), flips=0)
    gc.disable()
    try:
        dec = code.start_decoder()
        dec.receive(order[0], cw[order[0]])
        feed = dec.feed((idx, cw[idx]) for idx in order[1:])
        next(feed)
        gone = weakref.ref(dec)
        del dec, feed
        assert gone() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("family", BUILDERS)
def test_interleaved_decoders_match_sequential(family):
    # Decoders of one code share its per-code constants and none alters
    # them: two fed in turns give the statuses and bits that decoders
    # started one after another, on a second copy of the code, give.
    rng = rng_for(97, list(BUILDERS).index(family))
    code = BUILDERS[family](9)
    words = [code.encode(rng.integers(0, 2, code.K, dtype=np.uint8)).tolist()
             for _ in range(2)]
    orders = [rng.permutation(code.N).tolist() for _ in range(2)]

    def step(dec, cw, idx):
        return dec.receive(idx, cw[idx]), dec.determined_bits()

    sequential = BUILDERS[family](9)
    alone = []
    for cw, order in zip(words, orders):
        dec = sequential.start_decoder()
        alone.append([step(dec, cw, idx) for idx in order])
    decs = [code.start_decoder(), code.start_decoder()]
    together = [[], []]
    for pair in zip(*orders):
        for j in (0, 1):
            together[j].append(step(decs[j], words[j], pair[j]))
    assert together == alone
    assert all(trace[-1][0].status is Status.SUCCESS for trace in together)


@pytest.mark.parametrize("family", BUILDERS)
def test_outcome_is_shared_not_rebuilt(family):
    dec = BUILDERS[family](3).start_decoder()
    assert dec.outcome() is dec.outcome()
    assert dec.outcome().status is Status.IN_PROGRESS
