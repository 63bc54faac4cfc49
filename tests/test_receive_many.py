"""``feed``, the one checked reception loop of both decoders.

A batch must leave a decoder exactly where the same pairs fed one at a
time through ``receive`` leave it, stop after the reception that ends
the decode without drawing another pair, and check each pair before
that pair changes any state.
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
}


def snapshot(dec):
    """Everything a reception can change, masks or peeled values first."""
    state = ([list(c) for c in dec.masks] if hasattr(dec, "masks")
             else list(dec.values))
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
@pytest.mark.parametrize("bad, message", [
    ((-1, 0), "index -1 out of range"),
    ((10**6, 0), "index 1000000 out of range"),
    ((None, 2), "value 2 is not 0 or 1"),
    ((None, None), "was already received"),
], ids=["negative", "too-big", "value", "duplicate"])
def test_bad_pair_mid_batch_raises_after_the_pairs_before_it(
        family, bad, message):
    code, cw, order = instance(BUILDERS[family], rng_for(91), flips=0)
    good = order[:5]
    index, value = bad
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
    with pytest.raises(ValueError, match=message):
        take(dec, indices, values)
    assert snapshot(dec) == snapshot(expect)
    # The decoder stays usable: the rest of the word still decodes.
    rest = order[5:]
    assert take(dec, rest, [cw[i] for i in rest]) <= len(rest)
    assert dec.outcome().status is Status.SUCCESS


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
        got = []
        for _ in dec.feed((idx, cw[idx]) for idx in order):
            bits = dec.determined_bits()
            assert dec.known_count() == len(bits) - bits.count(None)
            got.append(dec.known_count())
        assert got == expect


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
def test_outcome_is_shared_not_rebuilt(family):
    dec = BUILDERS[family](3).start_decoder()
    assert dec.outcome() is dec.outcome()
    assert dec.outcome().status is Status.IN_PROGRESS
