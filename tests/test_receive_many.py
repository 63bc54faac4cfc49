"""``receive_many``, the one checked reception loop of both decoders.

A batch must leave a decoder exactly where the same pairs fed one at a
time through ``receive`` leave it, stop after the reception that ends
the decode, and check each pair before that pair changes any state.
"""

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
            got = batch.receive_many(chunk, [cw[i] for i in chunk])
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
        dec.receive_many(indices, values)
    assert snapshot(dec) == snapshot(expect)
    # The decoder stays usable: the rest of the word still decodes.
    rest = order[5:]
    assert dec.receive_many(rest, [cw[i] for i in rest]) <= len(rest)
    assert dec.outcome().status is Status.SUCCESS


@pytest.mark.parametrize("family", BUILDERS)
def test_mismatched_lengths_change_nothing(family):
    code = BUILDERS[family](3)
    dec = code.start_decoder()
    before = snapshot(dec)
    with pytest.raises(ValueError, match="2 symbol indices but 1 values"):
        dec.receive_many([0, 1], [0])
    assert snapshot(dec) == before


@pytest.mark.parametrize("family", BUILDERS)
def test_outcome_is_shared_not_rebuilt(family):
    dec = BUILDERS[family](3).start_decoder()
    assert dec.outcome() is dec.outcome()
    assert dec.outcome().status is Status.IN_PROGRESS
