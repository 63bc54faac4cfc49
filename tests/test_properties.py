"""Property tests of the trellis closure against the conftest oracles.

Codes are drawn at random: feedback and forward polynomials at
constraint lengths 2..5, information lengths up to 6, and for the turbo
properties a random interleaver and puncture pattern.  Examples are
derandomised, so every run checks the same cases.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from turbobec import (Interleaver, LookupMasks, PunctureMap,
                      RscErasureDecoder, RscSpec, Status, TransitionTable,
                      boundary_masks, make_turbo_spec)

from conftest import RegisterOracle, enumerate_codeword_paths

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


def path_masks(paths, n_states, n_steps):
    """Per-step union of the transitions of ``paths``."""
    masks = [0] * n_steps
    for _, _, states in paths:
        for t in range(n_steps):
            masks[t] |= 1 << (states[t] * n_states + states[t + 1])
    return masks


@SETTINGS
@given(code=rsc_codes(), k=st.integers(1, 6))
def test_boundary_masks_are_the_terminated_paths(code, k):
    fb, fw, length, table = code
    paths = enumerate_codeword_paths(RegisterOracle(fb, fw, length), k)
    masks = boundary_masks(table, k)
    assert masks == path_masks(paths, table.n_states, k + length - 1)
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

    dec = RscErasureDecoder(table, k)
    for t, pos, b in received:
        if pos == 0:
            dec.receive_info(t, b)
        else:
            dec.receive_parity(t, b)

    survivors = [p for p in paths
                 if all(p[1][t][pos] == b for t, pos, b in received)]
    assert dec.step_masks == path_masks(survivors, table.n_states,
                                        k + length - 1)
    for t in range(k):
        agreed = {info[t] for info, _, _ in survivors}
        expect = agreed.pop() if len(agreed) == 1 else None
        assert dec.determined_bits()[t] == expect, f"bit {t}"
    assert not dec.contradiction


@st.composite
def turbo_codes(draw):
    fb, fw, length, _ = draw(rsc_codes())
    period = draw(st.integers(1, 4))
    k = period * draw(st.integers(1, 6 // period))
    patterns = st.lists(st.booleans(), min_size=period, max_size=period)
    puncture = PunctureMap(period, tuple(draw(patterns)), tuple(draw(patterns)))
    pi = tuple(draw(st.permutations(range(k))))
    return make_turbo_spec(RscSpec(fb, fw, length), k,
                           Interleaver(pi, kind="drawn"), puncture=puncture)


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
        for idx in data.draw(st.permutations(subset), label="shuffle"):
            dec.receive(idx, int(cw[idx]))
            assert all(b is None or b == u
                       for b, u in zip(dec.determined_bits(), info))
        finals.append((dec.masks, dec.determined_bits()))
    assert all(f == finals[0] for f in finals)

    for idx in order[len(subset):]:
        dec.receive(idx, int(cw[idx]))
    assert dec.outcome().status is Status.SUCCESS
    assert dec.determined_bits() == info
