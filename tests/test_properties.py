"""Property tests of the trellis closure and of LDPC peeling against
the conftest oracles.

Codes are drawn at random: feedback and forward polynomials at
constraint lengths 2..5, information lengths up to 6 for one trellis
and up to 64 for the turbo properties, with a random interleaver and
puncture pattern; regular and
irregular staircase codes with K up to 16 at rates 1/3, 1/2 and 2/3.
Examples are derandomised, so every run checks the same cases.
"""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from turbobec import (Interleaver, LookupMasks, PunctureMap, RscSpec,
                      Status, TransitionTable, TurboCodeSpec, boundary_masks,
                      build_irregular_staircase, build_regular_staircase,
                      identity_interleaver, make_turbo_spec)
from turbobec.turbo import PARITY1, SYSTEMATIC

from conftest import (RegisterOracle, enumerate_codeword_paths, peel_oracle,
                      trellis_fixpoint)

SETTINGS = settings(derandomize=True, deadline=None, database=None,
                    max_examples=100)


@st.composite
def rsc_codes(draw):
    """(fb, fw, L, table) for a constituent code the library accepts."""
    length = draw(st.integers(2, 5))
    fb = draw(st.integers(1, (1 << length) - 1))
    fw = draw(st.integers(1, (1 << length) - 1))
    try:
        table = TransitionTable(RscSpec(fb, fw, length))
    except ValueError:
        assume(False)
    return fb, fw, length, table


def path_masks(paths, table, n_steps):
    """Per-step union of the transitions of ``paths``, as ``table``'s
    step masks."""
    masks = [0] * n_steps
    for _, _, states in paths:
        for t in range(n_steps):
            masks[t] |= table.arc_bit(states[t], states[t + 1])
    return masks


@SETTINGS
@given(code=rsc_codes(), k=st.integers(1, 6))
def test_boundary_masks_are_the_terminated_paths(code, k):
    fb, fw, length, table = code
    paths = enumerate_codeword_paths(RegisterOracle(fb, fw, length), k)
    masks = boundary_masks(table, k)
    assert masks == path_masks(paths, table, k + length - 1)
    info = LookupMasks(table).info
    for t in range(k):
        assert masks[t] & ~info[0] and masks[t] & ~info[1], f"bit {t} forced"


@SETTINGS
@given(code=rsc_codes(), k=st.integers(1, 6), data=st.data())
def test_single_trellis_closure_is_exact(code, k, data):
    fb, fw, length, table = code
    paths = enumerate_codeword_paths(RegisterOracle(fb, fw, length), k)
    truth = paths[data.draw(st.integers(0, len(paths) - 1), label="truth")]
    positions = data.draw(st.sets(st.tuples(st.integers(0, k - 1),
                                            st.integers(0, 1))),
                          label="received")
    received = [(t, pos, truth[1][t][pos]) for t, pos in positions]

    # Identity interleaver: the second trellis forces no information
    # bit, so chain 0 is the closure of one terminated trellis.
    spec = make_turbo_spec(table.spec, k, identity_interleaver(k))
    dec = spec.start_decoder()
    for t, pos, b in received:
        dec.receive(spec.layout.index(((SYSTEMATIC, PARITY1)[pos], t)), b)

    survivors = [p for p in paths
                 if all(p[1][t][pos] == b for t, pos, b in received)]
    assert dec.masks[0] == path_masks(survivors, table, k + length - 1)
    for t in range(k):
        agreed = {info[t] for info, _, _ in survivors}
        expect = agreed.pop() if len(agreed) == 1 else None
        assert dec.determined_bits()[t] == expect, f"bit {t}"
    assert not dec.contradiction


@st.composite
def turbo_codes(draw):
    fb, fw, length, _ = draw(rsc_codes())
    period = draw(st.integers(1, 4))
    k = period * draw(st.integers(1, 64 // period))
    patterns = st.lists(st.booleans(), min_size=period, max_size=period)
    puncture = PunctureMap(tuple(draw(patterns)), tuple(draw(patterns)))
    pi = tuple(draw(st.permutations(range(k))))
    # Built directly: a drawn pattern gives whatever rate it gives.
    return TurboCodeSpec(RscSpec(fb, fw, length), k,
                         Interleaver(pi, kind="drawn"), puncture)


def feed(dec, indices, cw):
    """Receives ``indices`` through the decoder's ``feed``, which stops
    early when the decode succeeds; the rest follow, as receptions after
    success are legal."""
    while indices:
        taken = 0
        for taken in dec.feed((i, int(cw[i])) for i in indices):
            pass
        assert 1 <= taken <= len(indices)
        assert taken == len(indices) or not dec.unknown
        indices = indices[taken:]


@SETTINGS
@given(spec=turbo_codes(), data=st.data())
def test_turbo_closure_is_order_independent_and_sound(spec, data):
    info = data.draw(st.lists(st.integers(0, 1), min_size=spec.K,
                              max_size=spec.K), label="info")
    cw = spec.encode(info)
    order = data.draw(st.permutations(range(spec.N)), label="order")
    subset = order[:data.draw(st.integers(0, spec.N), label="received")]

    finals = []
    for _ in range(3):
        dec = spec.start_decoder()
        shuffled = data.draw(st.permutations(subset), label="shuffle")
        cuts = sorted(data.draw(st.lists(st.integers(0, len(subset)),
                                         max_size=4), label="cuts"))
        for lo, hi in zip([0, *cuts], [*cuts, len(subset)]):
            feed(dec, shuffled[lo:hi], cw)
            # A determined bit never changes, so checking at the end of
            # each batch catches a wrong one from any reception in it.
            assert all(b is None or b == u
                       for b, u in zip(dec.determined_bits(), info))
        finals.append((dec.masks, dec.determined_bits()))
    assert all(f == finals[0] for f in finals)
    oracle = RegisterOracle(spec.rsc.feedback_poly, spec.rsc.forward_poly,
                            spec.rsc.constraint_length)
    received = {spec.layout[idx]: int(cw[idx]) for idx in subset}
    assert finals[0] == trellis_fixpoint(oracle, spec.interleaver.pi, received,
                                         spec.table.arc_bit)

    feed(dec, order[len(subset):], cw)
    assert dec.outcome().status is Status.SUCCESS
    assert dec.determined_bits() == info


@st.composite
def staircase_codes(draw):
    """A regular or irregular staircase code, K <= 16."""
    rate = draw(st.sampled_from([Fraction(1, 3), Fraction(1, 2),
                                 Fraction(2, 3)]))
    step = rate.numerator  # K / rate must be a whole length
    k = step * draw(st.integers(1, 16 // step))
    m = int(k / rate) - k
    seed = draw(st.integers(0, 1 << 16))
    if draw(st.booleans()):
        weight = draw(st.integers(1, min(4, k, m)))
        return build_regular_staircase(k, rate, seed, column_weight=weight)
    degrees = draw(st.lists(st.integers(1, min(6, m)), min_size=1,
                            max_size=3, unique=True))
    shares = draw(st.lists(st.integers(1, 8), min_size=len(degrees),
                           max_size=len(degrees)))
    law = {d: s / sum(shares) for d, s in zip(degrees, shares)}
    return build_irregular_staircase(k, rate, law, seed)


@SETTINGS
@given(code=staircase_codes(), data=st.data())
def test_peeling_matches_oracle_in_any_order(code, data):
    info = data.draw(st.lists(st.integers(0, 1), min_size=code.K,
                              max_size=code.K), label="info")
    cw = code.encode(info)
    order = data.draw(st.permutations(range(code.N)), label="order")
    subset = order[:data.draw(st.integers(0, code.N), label="received")]
    expect = peel_oracle(code, {v: int(cw[v]) for v in subset})

    for _ in range(3):
        dec = code.start_decoder()
        for v in data.draw(st.permutations(subset), label="shuffle"):
            dec.receive(v, int(cw[v]))
        known = {v: b for v, b in enumerate(dec.values) if b is not None}
        assert known == expect
        assert not dec.contradiction
