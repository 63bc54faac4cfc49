from fractions import Fraction

import numpy as np
import pytest

from turbobec import (LookupMasks, RscSpec, Status, TransitionTable,
                      boundary_masks, format_mask, identity_interleaver,
                      make_pr_interleaver, make_turbo_spec)
from turbobec.turbo import PARITY1, SYSTEMATIC

from conftest import (RegisterOracle, enumerate_codeword_paths, layout,
                      rng_for, trellis_fixpoint, turbo_spec)

RSC75 = RscSpec(0o7, 0o5, 3)
TABLE75 = TransitionTable(RSC75)


@pytest.fixture(scope="module")
def table75():
    return TABLE75


def mask_rows(mask, table=TABLE75):
    return format_mask(mask, table).splitlines()


def single_trellis(k):
    """Decoder of the rate-1/3 (7,5) turbo code with the identity
    interleaver.  Its second trellis gets only information constraints
    and termination, which force no information bit, so chain 0 is the
    closure of one terminated trellis."""
    return make_turbo_spec(RSC75, k, identity_interleaver(k)).start_decoder()


def receive_label(dec, t, pos, b):
    """Receives bit ``pos`` (0 information, 1 parity) of step t."""
    stream = (SYSTEMATIC, PARITY1)[pos]
    dec.receive(layout(dec.spec).index((stream, t)), b)


def random_instance(k, rate, rng):
    spec = turbo_spec(k, rate, seed=int(rng.integers(0, 1 << 16)))
    info = rng.integers(0, 2, k, dtype=np.uint8)
    cw = spec.encode(info)
    order = [int(x) for x in rng.permutation(spec.N)]
    return spec, info, cw, order


class TestInitialization:
    def test_boundary_matrices_published(self, table75):
        for k in (4, 8, 100):
            m = boundary_masks(table75, k)
            assert mask_rows(m[0]) == ["1010", "0000", "0000", "0000"]
            assert mask_rows(m[1]) == ["1010", "0000", "0101", "0000"]
            assert mask_rows(m[k]) == ["1000", "1000", "0100", "0100"]
            assert mask_rows(m[k + 1]) == ["1000", "1000", "0000", "0000"]

    def test_interior_is_full_adjacency(self, table75):
        m = boundary_masks(table75, 8)
        full = ["1010", "1010", "0101", "0101"]
        for t in range(2, 8):
            assert mask_rows(m[t]) == full
        assert len(m) == 10

    def test_k4_interior_steps(self, table75):
        m = boundary_masks(table75, 4)
        full = ["1010", "1010", "0101", "0101"]
        assert mask_rows(m[2]) == full
        assert mask_rows(m[3]) == full
        assert mask_rows(m[4]) != full and mask_rows(m[5]) != full

    def test_both_trellises_start_identical(self):
        dec = turbo_spec(8).start_decoder()
        assert dec.masks[0] == dec.masks[1]

    def test_fresh_state_all_unknown(self):
        dec = turbo_spec(8).start_decoder()
        assert dec.determined_bits() == [None] * 8
        assert dec.outcome() is Status.IN_PROGRESS

    def test_eight_state_boundaries_are_path_consistent(self):
        table = TransitionTable(RscSpec(0o13, 0o15, 4))
        m = boundary_masks(table, 8)
        # First step leaves the zero state only; last step enters it only.
        assert mask_rows(m[0], table)[1:] == ["0" * 8] * 7
        assert all(row[1:] == "0" * 7 for row in mask_rows(m[-1], table))

    @pytest.mark.parametrize("fb, fw, length", [
        (0o7, 0o5, 3), (0o13, 0o15, 4), (0o17, 0o15, 4), (0o3, 0o2, 2),
        (0o23, 0o35, 5)], ids=["75", "1315", "1715", "32", "2335"])
    def test_boundary_masks_are_a_closure_fixpoint(self, fb, fw, length):
        # boundary_masks is the decoder's start state, the closure of the
        # zero-state pins: it must be exactly the terminated paths'
        # transitions, with no information bit forced before reception.
        table = TransitionTable(RscSpec(fb, fw, length))
        info = LookupMasks(table).info
        oracle = RegisterOracle(fb, fw, length)
        for k in (1, 2, 3, 8):
            expect = [0] * (k + length - 1)
            for _, _, states in enumerate_codeword_paths(oracle, k):
                for t in range(len(expect)):
                    expect[t] |= table.arc_bit(states[t], states[t + 1])
            masks = boundary_masks(table, k)
            assert masks == expect, f"K={k}"
            for t in range(k):
                assert masks[t] & ~info[0] and masks[t] & ~info[1], (
                    f"K={k}: bit {t} forced before reception")


class TestFigureTwoScenario:
    """Single interior step: info 0, then parity 1, then propagation."""

    def test_info_bit_restricts_without_propagation(self):
        dec = single_trellis(8)
        receive_label(dec, 4, 0, 0)
        assert mask_rows(dec.masks[0][4]) == ["1000", "0010", "0001", "0100"]
        # all states still connected: neighbours untouched
        assert mask_rows(dec.masks[0][3]) == ["1010", "1010", "0101", "0101"]
        assert mask_rows(dec.masks[0][5]) == ["1010", "1010", "0101", "0101"]

    def test_parity_bit_triggers_propagation(self):
        dec = single_trellis(8)
        receive_label(dec, 4, 0, 0)
        receive_label(dec, 4, 1, 1)
        assert mask_rows(dec.masks[0][4]) == ["0000", "0000", "0001", "0100"]
        # left: columns e1, e2 removed at t-1; right: rows e1, e3 at t+1
        assert mask_rows(dec.masks[0][3]) == ["0010", "0010", "0001", "0001"]
        assert mask_rows(dec.masks[0][5]) == ["0000", "1010", "0000", "0101"]
        assert dec.determined_bits()[4] == 0


class TestReception:
    def test_systematic_bit_lands_in_both_trellises(self):
        spec = turbo_spec(8, seed=3)
        dec = spec.start_decoder()
        idx = layout(spec).index((SYSTEMATIC, 4))
        dec.receive(idx, 0)
        t2 = spec.interleaver.pi_inv[4]
        assert mask_rows(dec.masks[0][4]) == ["1000", "0010", "0001", "0100"]
        assert mask_rows(dec.masks[1][t2]) == ["1000", "0010", "0001", "0100"]

    def test_parity_bit_is_trellis_local(self):
        spec = turbo_spec(8, seed=3)
        dec = spec.start_decoder()
        idx = layout(spec).index((PARITY1, 4))
        dec.receive(idx, 1)
        assert mask_rows(dec.masks[0][4]) == ["0010", "1000", "0001", "0100"]
        assert dec.masks[1] == spec.start_decoder().masks[1]

    def test_contradiction_on_corrupted_word(self):
        spec = turbo_spec(8, seed=5)
        info = np.zeros(8, dtype=np.uint8)
        cw = spec.encode(info)
        cw[1] ^= 1  # flip one parity bit: no longer a codeword
        outcome = None
        dec = spec.start_decoder()
        for i in range(spec.N):
            outcome = dec.receive(i, int(cw[i]))
            if outcome is Status.CONTRADICTION:
                break
        assert outcome is Status.CONTRADICTION
        remaining = next(i for i in range(spec.N) if not dec._received[i])
        with pytest.raises(ValueError, match="contradiction"):
            dec.receive(remaining, 0)

    def test_closure_stops_at_first_contradiction(self):
        # The closure stops at the step it empties, so no other mask
        # changes after it: a contradiction leaves exactly one zero mask.
        rng = rng_for(77, 6)
        contradictions = 0
        for _ in range(30):
            spec, info, cw, order = random_instance(16, Fraction(1, 3), rng)
            for i in rng.choice(spec.N, 2, replace=False):
                cw[i] ^= 1
            dec = spec.start_decoder()
            for idx in order:
                if dec.receive(idx, int(cw[idx])) is not Status.IN_PROGRESS:
                    break
            zeros = sum(m == 0 for chain in dec.masks for m in chain)
            assert zeros == (1 if dec.contradiction else 0)
            contradictions += dec.contradiction
        assert contradictions > 10


class TestProperties:
    def test_removal_work_is_linear_in_k(self, table75):
        rng = rng_for(77, 4)
        for k in (8, 32):
            spec, info, cw, order = random_instance(k, Fraction(1, 3), rng)
            dec = spec.start_decoder()
            start = sum(m.bit_count() for chain in dec.masks for m in chain)
            for idx in order:
                if dec.receive(idx, int(cw[idx])) is Status.SUCCESS:
                    break
            end = sum(m.bit_count() for chain in dec.masks for m in chain)
            removals = start - end
            assert 0 <= removals <= 2 * (k + 2) * 8  # 2 trellises, 2^{k+L-1}=8

    @pytest.mark.parametrize("rsc, rate", [
        (RSC75, Fraction(1, 3)),
        (RscSpec(0o13, 0o15, 4), Fraction(1, 2)),
        (RscSpec(0o23, 0o35, 5), Fraction(2, 3))],
        ids=["75-r13", "1315-r12", "2335-r23"])
    def test_settled_chains_stay_at_the_row_column_fixpoint(self, rsc, rate):
        # After every settled reception, a state is entered at step s of
        # a chain exactly when it is left at step s+1, and no mask is 0.
        # That is why a walk never empties a step: only a reception or
        # an injection can end a decode in a contradiction.
        k = 32
        spec = make_turbo_spec(rsc, k, make_pr_interleaver(k, 3), rate=rate)
        rows, cols = spec.lookup.row_masks, spec.lookup.col_masks
        rng = rng_for(77, 8, rsc.feedback_poly)
        contradictions = 0
        for flips in (0, 0, 1, 1, 2, 4, 8, 16):
            cw = spec.encode(rng.integers(0, 2, k, dtype=np.uint8))
            cw[rng.choice(spec.N, flips, replace=False)] ^= 1
            dec = spec.start_decoder()
            for idx in rng.permutation(spec.N).tolist():
                dec.receive(idx, int(cw[idx]))
                if dec.contradiction:
                    contradictions += 1
                    break
                for chain in dec.masks:
                    assert all(chain)
                    for m, m_next in zip(chain, chain[1:]):
                        for row, col in zip(rows, cols):
                            assert bool(m & col) == bool(m_next & row)
        assert contradictions

    @pytest.mark.parametrize("rate", [
        Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)],
        ids=["r13", "r12", "r23"])
    @pytest.mark.parametrize("rsc", [
        RSC75, RscSpec(0o13, 0o15, 4), RscSpec(0o23, 0o35, 5)],
        ids=["75", "1315", "2335"])
    def test_each_chain_holds_a_power_of_two_paths(self, rsc, rate):
        # Each chain is one terminated constituent code with an exact
        # closure, so its paths form an affine space over GF(2): 2^K at
        # the start, halved by each reception or injection that changes
        # the chain's masks, and 1 in both chains exactly at success.
        k = 16
        table = TransitionTable(rsc)
        arcs = [(i, j, table.arc_bit(i, j))
                for i, j, _, _ in table.transitions()]

        def paths(chain):
            """The paths from state 0 to state 0 through the masks."""
            count = [1] + [0] * (table.n_states - 1)
            for mask in chain:
                count, prev = [0] * table.n_states, count
                for i, j, bit in arcs:
                    if mask & bit:
                        count[j] += prev[i]
            return count[0]

        rng = rng_for(77, 9, rsc.feedback_poly, rate.denominator)
        for _ in range(5):
            pi = make_pr_interleaver(k, int(rng.integers(0, 1 << 16)))
            spec = make_turbo_spec(rsc, k, pi, rate=rate)
            cw = spec.encode(rng.integers(0, 2, k, dtype=np.uint8)).tolist()
            dec = spec.start_decoder()
            masks = [list(chain) for chain in dec.masks]
            counts = [paths(chain) for chain in masks]
            assert counts == [1 << k] * 2
            for idx in rng.permutation(spec.N).tolist():
                status = dec.receive(idx, cw[idx])
                for d, chain in enumerate(dec.masks):
                    n = paths(chain)
                    assert n > 0 and not n & (n - 1), f"{n} paths"
                    assert n <= counts[d]
                    assert (n < counts[d]) == (chain != masks[d])
                    counts[d], masks[d] = n, list(chain)
                assert (counts == [1, 1]) == (status is Status.SUCCESS)
                if status is Status.SUCCESS:
                    break


    @pytest.mark.parametrize("rate", [
        Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)],
        ids=["r13", "r12", "r23"])
    @pytest.mark.parametrize("rsc", [
        RSC75, RscSpec(0o13, 0o15, 4), RscSpec(0o23, 0o35, 5)],
        ids=["75", "1315", "2335"])
    def test_closure_work_is_exact(self, rsc, rate):
        # Past the start state every mask change halves its mask: each
        # one halves a chain's affine space of paths.  So a decode that
        # succeeds from the start state makes exactly 2*K*L of them, the
        # bits of every step down to one transition.  The one exception
        # is the op that empties its own step, the last change of a
        # contradiction.  And the pins and the sentinel hold after every
        # reception, which is what lets every walk leave its chain
        # without a bound test.
        length = rsc.constraint_length
        rng = rng_for(77, 10, rsc.feedback_poly, rate.denominator)
        for k, flips in ((64, 0), (128, 0), (256, 0), (64, 1), (128, 2), (64, 4)):
            pi = make_pr_interleaver(k, int(rng.integers(0, 1 << 16)))
            spec = make_turbo_spec(rsc, k, pi, rate=rate)
            row0, col0 = spec.lookup.row_masks[0], spec.lookup.col_masks[0]
            sentinel = row0 & col0
            cw = spec.encode(rng.integers(0, 2, k, dtype=np.uint8))
            cw[rng.choice(spec.N, flips, replace=False)] ^= 1
            dec = spec.start_decoder()
            changes = []

            class RecordingChain(list):
                def __setitem__(self, t, mask):
                    changes.append((self[t], mask))
                    super().__setitem__(t, mask)

            # Each feed's closure reads the decoder's one list of slots
            # when it starts, so the wrapped list is the one it writes.
            dec._slots = RecordingChain(dec._slots)
            for idx in rng.permutation(spec.N).tolist():
                status = dec.receive(idx, int(cw[idx]))
                for chain in dec.masks:
                    assert not chain[0] & ~row0
                    assert not chain[-1] & ~col0
                assert dec._slots[-1] == sentinel
                assert len(dec.determined_bits()) == k
                if status is not Status.IN_PROGRESS:
                    break
            if status is Status.CONTRADICTION:
                assert changes.pop()[1] == 0
            assert all(2 * new.bit_count() == old.bit_count()
                       for old, new in changes)
            if not flips:
                assert status is Status.SUCCESS
                assert len(changes) == 2 * k * length


class TestPerTrellisExactness:
    """Closure on one trellis equals brute-force path enumeration."""

    @staticmethod
    def consistent_paths(paths, received):
        out = []
        for info, labels, states in paths:
            ok = all(labels[t][pos] == b for t, pos, b in received)
            if ok:
                out.append((info, labels, states))
        return out

    def test_against_path_enumeration(self, paths75_k8):
        rng = rng_for(77, 5)
        k = 8
        for _ in range(60):
            # Draw labels from one true codeword so constraints are satisfiable.
            truth = paths75_k8[int(rng.integers(0, 1 << k))]
            n_recv = int(rng.integers(0, 2 * k + 1))
            positions = {(int(rng.integers(0, k)), int(rng.integers(0, 2)))
                         for _ in range(n_recv)}
            received = [(t, pos, truth[1][t][pos]) for t, pos in positions]

            dec = single_trellis(k)
            for t, pos, b in received:
                receive_label(dec, t, pos, b)

            survivors = self.consistent_paths(paths75_k8, received)
            assert survivors, "oracle bug: the true path must survive"
            for t in range(k + 2):
                expect = 0
                for _, _, states in survivors:
                    expect |= TABLE75.arc_bit(states[t], states[t + 1])
                assert dec.masks[0][t] == expect, f"step {t}"
            for t in range(k):
                agreed = {info[t] for info, _, _ in survivors}
                if len(agreed) == 1:
                    assert dec.determined_bits()[t] == agreed.pop()
                else:
                    assert dec.determined_bits()[t] is None


class TestTurboExactness:
    """The two-trellis closure equals forward-backward pruning at K=1024,
    and at smaller K for the longer constraint lengths the CLI admits."""

    # (23,35) has 16 states, so its rule memo is a dict, not a list; the
    # L = 6, 7 and 8 codes have 32, 64 and 128.
    @pytest.mark.parametrize("polys, rate, k", [
        ((0o7, 0o5, 3), Fraction(1, 2), 1024),
        ((0o13, 0o15, 4), Fraction(1, 2), 1024),
        ((0o7, 0o5, 3), Fraction(2, 3), 1024),
        ((0o23, 0o35, 5), Fraction(1, 3), 256),
        ((0o45, 0o73, 6), Fraction(1, 3), 48),
        ((0o133, 0o171, 7), Fraction(1, 2), 48),
        ((0o311, 0o352, 8), Fraction(1, 3), 48)],
        ids=["75-r12", "1315-r12", "75-r23", "2335-r13-k256", "4573-r13-k48",
             "133171-r12-k48", "311352-r13-k48"])
    def test_against_forward_backward_fixpoint(self, polys, rate, k):
        spec = make_turbo_spec(RscSpec(*polys), k, make_pr_interleaver(k, 11),
                               rate=rate)
        oracle = RegisterOracle(*polys)
        rng = rng_for(77, 7, polys[0])
        cw = spec.encode(rng.integers(0, 2, k, dtype=np.uint8)).tolist()
        dec = spec.start_decoder()
        received = {}
        prefixes = {k * 7 // 10, k * 85 // 100, k * 95 // 100}
        checks = 0
        for r, idx in enumerate(rng.permutation(spec.N).tolist(), start=1):
            status = dec.receive(idx, cw[idx])
            received[spec.streams[idx], spec.steps[idx]] = cw[idx]
            if r in prefixes or status is Status.SUCCESS:
                masks, bits = trellis_fixpoint(oracle, spec.interleaver.pi,
                                               received, spec.table.arc_bit)
                assert dec.masks == masks, f"r={r}"
                assert dec.determined_bits() == bits, f"r={r}"
                checks += 1
            if status is not Status.IN_PROGRESS:
                break
        assert status is Status.SUCCESS and checks == 4


class TestPerCodeConstants:
    """Decoders of one spec share its lookup masks; none alters another."""

    def test_decoding_leaves_shared_boundary_untouched(self):
        spec = turbo_spec(64, seed=5)
        cw = spec.encode(rng_for(78, 0).integers(0, 2, 64, dtype=np.uint8))
        dec = spec.start_decoder()
        assert dec.lm is spec.lookup
        for i in range(spec.N):
            dec.receive(i, int(cw[i]))
        assert dec.outcome() is Status.SUCCESS
        fresh = spec.start_decoder()
        assert fresh.masks == [boundary_masks(spec.table, spec.K)] * 2
        assert fresh.lm is spec.lookup

    def test_returned_masks_are_copies(self):
        spec = turbo_spec(16, seed=6)
        dec = spec.start_decoder()
        start = dec.masks
        boundary = boundary_masks(spec.table, spec.K)
        for chain in (*dec.masks, boundary):
            chain[0] = chain[-1] = 0
            chain.append(0)
        assert dec.masks == start
        assert boundary_masks(spec.table, spec.K) == start[0]
