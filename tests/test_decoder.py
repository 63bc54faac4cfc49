from fractions import Fraction

import numpy as np
import pytest

from turbobec import (LookupMasks, RscSpec, Status, TransitionTable,
                      boundary_masks, format_mask, identity_interleaver,
                      make_pr_interleaver, make_turbo_spec)
from turbobec.turbo import PARITY1, SYSTEMATIC

from conftest import (RegisterOracle, enumerate_codeword_paths, rng_for,
                      trellis_fixpoint)

RSC75 = RscSpec(0o7, 0o5, 3)


@pytest.fixture(scope="module")
def table75():
    return TransitionTable(RSC75)


def mask_rows(mask, n=4):
    return format_mask(mask, n).splitlines()


def turbo_spec(k, rate=Fraction(1, 3), seed=1):
    return make_turbo_spec(RSC75, k, make_pr_interleaver(k, seed), rate=rate)


def single_trellis(k):
    """Decoder of the rate-1/3 (7,5) turbo code with the identity
    interleaver.  Its second trellis gets only information constraints
    and termination, which force no information bit, so chain 0 is the
    closure of one terminated trellis."""
    return make_turbo_spec(RSC75, k, identity_interleaver(k)).start_decoder()


def receive_label(dec, t, pos, b):
    """Receives bit ``pos`` (0 information, 1 parity) of step t."""
    stream = (SYSTEMATIC, PARITY1)[pos]
    dec.receive(dec.spec.layout.index((stream, t)), b)


def random_instance(k, rate, rng, seed=1):
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
        assert dec.outcome().status is Status.IN_PROGRESS

    def test_eight_state_boundaries_are_path_consistent(self):
        table = TransitionTable(RscSpec(0o13, 0o15, 4))
        m = boundary_masks(table, 8)
        # First step leaves the zero state only; last step enters it only.
        assert mask_rows(m[0], 8)[1:] == ["0" * 8] * 7
        assert all(row[1:] == "0" * 7 for row in mask_rows(m[-1], 8))

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
        S = table.n_states
        for k in (1, 2, 3, 8):
            expect = [0] * (k + length - 1)
            for _, _, states in enumerate_codeword_paths(oracle, k):
                for t in range(len(expect)):
                    expect[t] |= 1 << (states[t] * S + states[t + 1])
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
        idx = spec.layout.index((SYSTEMATIC, 4))
        dec.receive(idx, 0)
        t2 = spec.interleaver.pi_inv[4]
        assert mask_rows(dec.masks[0][4]) == ["1000", "0010", "0001", "0100"]
        assert mask_rows(dec.masks[1][t2]) == ["1000", "0010", "0001", "0100"]

    def test_parity_bit_is_trellis_local(self):
        spec = turbo_spec(8, seed=3)
        dec = spec.start_decoder()
        idx = spec.layout.index((PARITY1, 4))
        dec.receive(idx, 1)
        assert mask_rows(dec.masks[0][4]) == ["0010", "1000", "0001", "0100"]
        assert dec.masks[1] == spec.start_decoder().masks[1]

    def test_duplicate_symbol_rejected(self):
        dec = turbo_spec(8).start_decoder()
        dec.receive(0, 0)
        with pytest.raises(ValueError):
            dec.receive(0, 0)

    def test_contradiction_on_corrupted_word(self):
        spec = turbo_spec(8, seed=5)
        info = np.zeros(8, dtype=np.uint8)
        cw = spec.encode(info)
        cw[1] ^= 1  # flip one parity bit: no longer a codeword
        outcome = None
        dec = spec.start_decoder()
        for i in range(spec.N):
            outcome = dec.receive(i, int(cw[i]))
            if outcome.status is Status.CONTRADICTION:
                break
        assert outcome.status is Status.CONTRADICTION
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
                if dec.receive(idx, int(cw[idx])).status is not Status.IN_PROGRESS:
                    break
            zeros = sum(m == 0 for chain in dec.masks for m in chain)
            assert zeros == (1 if dec.contradiction else 0)
            contradictions += dec.contradiction
        assert contradictions > 10

    @pytest.mark.parametrize("index, value, message", [
        (-1, 0, "index -1 out of range"),
        (24, 0, "index 24 out of range"),
        (0, 2, "value 2 is not 0 or 1"),
        (5, 0, "symbol 5 was already received"),
    ])
    def test_invalid_reception_changes_nothing(self, index, value, message):
        spec = turbo_spec(8, seed=3)
        cw = spec.encode(np.zeros(8, dtype=np.uint8))
        dec = spec.start_decoder()
        dec.receive(5, int(cw[5]))
        before = ([list(c) for c in dec.masks], dec.determined_bits(),
                  bytes(dec._received))
        with pytest.raises(ValueError, match=message):
            dec.receive(index, value)
        after = ([list(c) for c in dec.masks], dec.determined_bits(),
                 bytes(dec._received))
        assert after == before

    def test_rejected_call_leaves_decoder_usable(self):
        spec = turbo_spec(8, seed=3)
        info = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8)
        cw = spec.encode(info)
        dec = spec.start_decoder()
        dec.receive(0, int(cw[0]))
        for index, value in ((-1, 0), (spec.N, 0), (1, 2), (0, int(cw[0]))):
            with pytest.raises(ValueError):
                dec.receive(index, value)
        for i in range(1, spec.N):
            out = dec.receive(i, int(cw[i]))
        assert out.status is Status.SUCCESS
        assert dec.determined_bits() == list(info)


class TestProperties:
    def test_soundness_during_decode(self):
        rng = rng_for(77, 0)
        for _ in range(60):
            spec, info, cw, order = random_instance(8, Fraction(1, 3), rng)
            dec = spec.start_decoder()
            for idx in order:
                out = dec.receive(idx, int(cw[idx]))
                for t, b in enumerate(dec.determined_bits()):
                    if b is not None:
                        assert b == info[t]
                if out.status is Status.SUCCESS:
                    break

    def test_monotone_determinations(self):
        rng = rng_for(77, 1)
        spec, info, cw, order = random_instance(16, Fraction(1, 2), rng)
        dec = spec.start_decoder()
        seen = set()
        for idx in order:
            out = dec.receive(idx, int(cw[idx]))
            now = {t for t, b in enumerate(dec.determined_bits()) if b is not None}
            assert seen <= now
            seen = now
            if out.status is Status.SUCCESS:
                break

    def test_order_independence(self):
        rng = rng_for(77, 2)
        for _ in range(15):
            spec, info, cw, order = random_instance(8, Fraction(1, 3), rng)
            subset = order[: int(rng.integers(1, spec.N + 1))]
            finals = []
            for _ in range(4):
                shuffled = list(subset)
                rng.shuffle(shuffled)
                dec = spec.start_decoder()
                for idx in shuffled:
                    dec.receive(idx, int(cw[idx]))
                finals.append((dec.masks[0], dec.masks[1],
                               tuple(dec.determined_bits())))
            assert all(f == finals[0] for f in finals)

    def test_completion_on_full_reception(self):
        rng = rng_for(77, 3)
        for rate in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)):
            spec, info, cw, order = random_instance(16, rate, rng)
            dec = spec.start_decoder()
            out = dec.outcome()
            r_stop = None
            for count, idx in enumerate(order, start=1):
                out = dec.receive(idx, int(cw[idx]))
                if r_stop is None and out.status is Status.SUCCESS:
                    r_stop = count
            assert out.status is Status.SUCCESS
            assert 16 <= r_stop <= spec.N
            assert dec.determined_bits() == list(info)

    def test_removal_work_is_linear_in_k(self, table75):
        rng = rng_for(77, 4)
        for k in (8, 32):
            spec, info, cw, order = random_instance(k, Fraction(1, 3), rng)
            dec = spec.start_decoder()
            start = sum(m.bit_count() for chain in dec.masks for m in chain)
            for idx in order:
                if dec.receive(idx, int(cw[idx])).status is Status.SUCCESS:
                    break
            end = sum(m.bit_count() for chain in dec.masks for m in chain)
            removals = start - end
            assert 0 <= removals <= 2 * (k + 2) * 8  # 2 trellises, 2^{k+L-1}=8


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
                    expect |= 1 << (states[t] * 4 + states[t + 1])
                assert dec.masks[0][t] == expect, f"step {t}"
            for t in range(k):
                agreed = {info[t] for info, _, _ in survivors}
                if len(agreed) == 1:
                    assert dec.determined_bits()[t] == agreed.pop()
                else:
                    assert dec.determined_bits()[t] is None


class TestTurboExactness:
    """The two-trellis closure equals forward-backward pruning at K=1024."""

    @pytest.mark.parametrize("polys, rate", [
        ((0o7, 0o5, 3), Fraction(1, 2)), ((0o13, 0o15, 4), Fraction(1, 2)),
        ((0o7, 0o5, 3), Fraction(2, 3))], ids=["75-r12", "1315-r12", "75-r23"])
    def test_against_forward_backward_fixpoint(self, polys, rate):
        k = 1024
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
            status = dec.receive(idx, cw[idx]).status
            received[spec.layout[idx]] = cw[idx]
            if r in prefixes or status is Status.SUCCESS:
                masks, bits = trellis_fixpoint(oracle, spec.interleaver.pi,
                                               received)
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
        assert dec.outcome().status is Status.SUCCESS
        fresh = spec.start_decoder()
        assert fresh.masks == [boundary_masks(spec.table, spec.K)] * 2
        assert fresh.lm is spec.lookup

    @pytest.mark.parametrize("rsc, rate", [
        (RSC75, Fraction(1, 3)), (RscSpec(0o13, 0o15, 4), Fraction(1, 2))],
        ids=["75", "1315"])
    def test_interleaved_decoders_match_sequential(self, rsc, rate):
        k = 32

        def build():
            return make_turbo_spec(rsc, k, make_pr_interleaver(k, 9), rate=rate)

        rng = rng_for(78, 1)
        spec = build()
        words = [spec.encode(rng.integers(0, 2, k, dtype=np.uint8))
                 for _ in range(2)]
        orders = [[int(x) for x in rng.permutation(spec.N)] for _ in range(2)]

        def step(dec, cw, idx):
            status = dec.receive(idx, int(cw[idx])).status
            return status, dec.determined_bits()

        sequential = build()
        alone = []
        for cw, order in zip(words, orders):
            dec = sequential.start_decoder()
            alone.append([step(dec, cw, idx) for idx in order])

        decs = [spec.start_decoder(), spec.start_decoder()]
        together = [[], []]
        for pair in zip(*orders):
            for j in (0, 1):
                together[j].append(step(decs[j], words[j], pair[j]))
        assert together == alone
        assert all(trace[-1][0] is Status.SUCCESS for trace in together)
