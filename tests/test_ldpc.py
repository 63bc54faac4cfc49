import re
from fractions import Fraction

import numpy as np
import pytest

from turbobec import (PeelingDecoder, StaircaseCode, Status,
                      build_irregular_staircase, build_regular_staircase,
                      load_degree_distribution)

from conftest import peel_oracle, rng_for


def random_code(rng, k=12, rate=Fraction(1, 2)):
    return build_regular_staircase(k, rate, int(rng.integers(0, 1 << 16)))


# Codes with checks that hold no information bit.
EMPTY_ROW_CODES = {
    "middle": StaircaseCode(2, 4, ((1,), (1, 3))),        # rows 0 and 2
    "several": StaircaseCode(3, 5, ((4,), (4,), (2, 4))),  # rows 0, 1 and 3
    "leading": StaircaseCode(1, 3, ((2,),)),              # rows 0 and 1
    "trailing": StaircaseCode(2, 3, ((0, 1), (0,))),      # the last row
}


class TestConstruction:
    def test_minimal_regular_code_is_forced(self):
        code = build_regular_staircase(4, Fraction(1, 2), seed=0)
        assert code.left_cols == ((0, 1, 2, 3),) * 4
        h = code.parity_check_matrix()
        assert np.array_equal(
            h[:, 4:],
            np.array([[1, 0, 0, 0], [1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]]))

    def test_rate_algebra(self):
        code = build_regular_staircase(60, Fraction(1, 3), seed=1)
        assert code.M == 120 and code.N == 180
        assert code.rate == Fraction(1, 3)

    def test_column_weight_regular(self):
        code = build_regular_staircase(64, Fraction(1, 2), seed=2)
        assert all(len(c) == 4 for c in code.left_cols)
        assert all(len(set(c)) == 4 for c in code.left_cols)

    def test_row_coverage(self):
        for seed in range(10):
            code = build_regular_staircase(64, Fraction(1, 2), seed=seed)
            left_degree = [0] * code.M
            for col in code.left_cols:
                for r in col:
                    left_degree[r] += 1
            assert all(d >= 1 for d in left_degree[1:])

    def test_nonintegral_length_rejected(self):
        with pytest.raises(ValueError):
            build_regular_staircase(5, Fraction(2, 3), seed=0)

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError, match="rate 0 must be positive"):
            build_regular_staircase(8, Fraction(0), 1)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            build_regular_staircase(2, Fraction(1, 2), seed=0)

    @pytest.mark.parametrize("k, rate, message", [
        (8, Fraction(1), "rate 1 leaves no parity checks; it must be below 1"),
        (8, Fraction(2), "rate 2 leaves no parity checks; it must be below 1"),
        (0, Fraction(1, 2), "K must be >= 1"),
        (-2, Fraction(1, 2), "K must be >= 1"),
    ], ids=["rate-1", "rate-2", "k-0", "k-negative"])
    def test_builders_reject_rate_and_k(self, k, rate, message):
        with pytest.raises(ValueError, match=message):
            build_regular_staircase(k, rate, seed=0)
        with pytest.raises(ValueError, match=message):
            build_irregular_staircase(k, rate, {2: 0.5, 3: 0.5}, seed=0)

    @pytest.mark.parametrize("k, m, cols, message", [
        (0, 2, (), "K must be >= 1"),
        (2, 0, ((), ()), "M must be >= 1"),
    ], ids=["k-0", "m-0"])
    def test_constructor_rejects_empty_sides(self, k, m, cols, message):
        with pytest.raises(ValueError, match=message):
            StaircaseCode(k, m, cols)

    def test_construction_deterministic(self):
        a = build_regular_staircase(64, Fraction(1, 2), seed=9)
        b = build_regular_staircase(64, Fraction(1, 2), seed=9)
        assert a.left_cols == b.left_cols


class TestIrregular:
    def test_degenerate_distribution_is_regular(self):
        code = build_irregular_staircase(32, Fraction(1, 2), {4: 1.0}, seed=3)
        assert all(len(c) == 4 for c in code.left_cols)

    def test_exact_split(self):
        code = build_irregular_staircase(100, Fraction(1, 2), {2: 0.5, 4: 0.5},
                                         seed=4)
        weights = sorted(len(c) for c in code.left_cols)
        assert weights == [2] * 50 + [4] * 50

    def test_largest_remainder_rounding(self):
        code = build_irregular_staircase(9, Fraction(1, 2), {2: 1 / 3, 3: 2 / 3},
                                         seed=5)
        weights = sorted(len(c) for c in code.left_cols)
        assert weights == [2] * 3 + [3] * 6

    def test_invalid_distributions(self):
        with pytest.raises(ValueError):
            build_irregular_staircase(16, Fraction(1, 2), {}, seed=0)
        with pytest.raises(ValueError):
            build_irregular_staircase(16, Fraction(1, 2), {2: 0.7}, seed=0)
        with pytest.raises(ValueError):
            build_irregular_staircase(16, Fraction(1, 2), {0: 1.0}, seed=0)
        # Each of these sums to 1 or to NaN, which no sum check catches.
        for law in ({2: float("inf"), 3: float("-inf")}, {2: 1.5, 3: -0.5},
                    {2: float("nan"), 3: 1.0}):
            with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
                build_irregular_staircase(16, Fraction(1, 2), law, seed=0)

    def test_load_distribution(self, tmp_path):
        p = tmp_path / "dist.txt"
        p.write_text("# left degrees\n2 0.5\n4 0.5\n")
        assert load_degree_distribution(p) == {2: 0.5, 4: 0.5}

    @pytest.mark.parametrize("text, message", [
        ("2 0.5\n2 0.5\n", "line 2: degree 2 given twice"),
        ("2 0.5\n2.5 1\n", "line 2 '2.5 1': expected an integer degree"),
        ("2\n", "line 1 '2': expected an integer degree"),
        ("2 half\n", "line 1 '2 half': expected an integer degree"),
    ], ids=["repeated", "fractional-degree", "one-field", "not-a-number"])
    def test_load_rejects_bad_lines(self, tmp_path, text, message):
        p = tmp_path / "dist.txt"
        p.write_text(text)
        with pytest.raises(ValueError, match="^" + re.escape(f"{p}, {message}")):
            load_degree_distribution(p)


class TestEncoding:
    def test_zero_maps_to_zero(self):
        code = build_regular_staircase(16, Fraction(1, 2), seed=6)
        assert not code.encode(np.zeros(16, dtype=np.uint8)).any()

    def test_hand_example(self):
        # row 0 checks {v0, v1}; row 1 checks {v1} (plus the parities)
        code = StaircaseCode(2, 2, ((0,), (0, 1)))
        cw = code.encode([1, 1])
        assert list(cw) == [1, 1, 0, 1]

    def test_parity_check_always_zero(self):
        rng = rng_for(55, 0)
        for _ in range(10):
            code = random_code(rng)
            info = rng.integers(0, 2, code.K, dtype=np.uint8)
            h = code.parity_check_matrix()
            assert not (h @ code.encode(info) % 2).any()

    @pytest.mark.parametrize("code", EMPTY_ROW_CODES.values(),
                             ids=EMPTY_ROW_CODES)
    def test_empty_left_rows(self, code):
        h = code.parity_check_matrix()
        assert not h[:, :code.K].any(axis=1).all()
        for word in range(1 << code.K):
            info = np.array([(word >> b) & 1 for b in range(code.K)],
                            dtype=np.uint8)
            cw = code.encode(info)
            assert list(cw[:code.K]) == list(info)
            assert not (h @ cw % 2).any(), f"info {info}"

    def test_length_mismatch(self):
        code = build_regular_staircase(8, Fraction(1, 2), seed=7)
        with pytest.raises(ValueError):
            code.encode(np.zeros(9, dtype=np.uint8))


class TestPeeling:
    def test_single_check_cascade(self):
        code = StaircaseCode(1, 1, ((0,),))  # one check: v0 xor v1 = 0
        dec = PeelingDecoder(code)
        out = dec.receive(0, 1)
        assert out.status is Status.SUCCESS
        assert dec.values == [1, 1]

    def test_lone_parity_check_peels_at_start(self):
        code = StaircaseCode(1, 2, ((1,),))  # check 0 holds parity v1 alone
        dec = PeelingDecoder(code)
        assert dec.values == [None, 0, None]

    def test_full_reception_succeeds(self):
        rng = rng_for(55, 1)
        for _ in range(10):
            code = random_code(rng)
            info = rng.integers(0, 2, code.K, dtype=np.uint8)
            cw = code.encode(info)
            dec = PeelingDecoder(code)
            out = dec.outcome()
            for v in rng.permutation(code.N):
                out = dec.receive(int(v), int(cw[int(v)]))
            assert out.status is Status.SUCCESS
            assert dec.determined_bits() == list(info)

    def test_soundness(self):
        rng = rng_for(55, 2)
        for _ in range(20):
            code = random_code(rng)
            info = rng.integers(0, 2, code.K, dtype=np.uint8)
            cw = code.encode(info)
            dec = PeelingDecoder(code)
            for v in rng.permutation(code.N)[: int(rng.integers(1, code.N))]:
                dec.receive(int(v), int(cw[int(v)]))
            for v, b in enumerate(dec.values):
                if b is not None:
                    assert b == cw[v]

    def test_matches_edge_removal_oracle(self):
        rng = rng_for(55, 3)
        for _ in range(30):
            code = random_code(rng, k=8)
            info = rng.integers(0, 2, code.K, dtype=np.uint8)
            cw = code.encode(info)
            subset = [int(v) for v in
                      rng.permutation(code.N)[: int(rng.integers(0, code.N + 1))]]
            dec = PeelingDecoder(code)
            for v in subset:
                dec.receive(v, int(cw[v]))
            expect = peel_oracle(code, {v: int(cw[v]) for v in subset})
            got = {v: b for v, b in enumerate(dec.values) if b is not None}
            assert got == expect

    def test_order_independence(self):
        rng = rng_for(55, 4)
        for _ in range(10):
            code = random_code(rng, k=8)
            info = rng.integers(0, 2, code.K, dtype=np.uint8)
            cw = code.encode(info)
            subset = [int(v) for v in
                      rng.permutation(code.N)[: int(rng.integers(1, code.N))]]
            finals = []
            for _ in range(4):
                order = list(subset)
                rng.shuffle(order)
                dec = PeelingDecoder(code)
                for v in order:
                    dec.receive(v, int(cw[v]))
                finals.append(list(dec.values))
            assert all(f == finals[0] for f in finals)

    def test_inconsistent_value_contradicts(self):
        code = StaircaseCode(1, 1, ((0,),))
        dec = PeelingDecoder(code)
        dec.receive(0, 1)        # forces v1 = 1
        out = dec.receive(1, 0)  # disagrees with the forced value
        assert out.status is Status.CONTRADICTION

    def test_reception_after_contradiction_rejected(self):
        code = StaircaseCode(1, 2, ((0,),))  # v0 = v1 = v2
        dec = PeelingDecoder(code)
        dec.receive(0, 1)
        assert dec.receive(1, 0).status is Status.CONTRADICTION
        with pytest.raises(ValueError, match="symbol 2: decoder is in a contradiction"):
            dec.receive(2, 1)

    def test_peeling_stops_at_the_first_contradiction(self):
        # The reference settles like the decoder, in the same stack
        # order, but recounts each check from its variables and returns
        # at the first contradiction it meets.  Its graph is the rows and
        # columns of H, not the code's Tanner graph.
        class StoppingPeel(PeelingDecoder):
            def __init__(self, code):
                h = code.parity_check_matrix()
                self.rows = [np.flatnonzero(row).tolist() for row in h]
                self.cols = [np.flatnonzero(col).tolist() for col in h.T]
                super().__init__(code)

            def _settle(self, v, value):
                stack = [(v, value)]
                while stack:
                    v, value = stack.pop()
                    if self.values[v] is not None:
                        if self.values[v] != value:
                            self.contradiction = True
                            return
                        continue
                    self.values[v] = value
                    if v < self.code.K:
                        self.unknown -= 1
                    for c in self.cols[v]:
                        vs = self.rows[c]
                        open_ = [u for u in vs if self.values[u] is None]
                        xor = 0
                        for u in vs:
                            xor ^= self.values[u] or 0
                        if len(open_) == 1:
                            stack.append((open_[0], xor))
                        elif not open_ and xor:
                            self.contradiction = True
                            return

        rng = rng_for(55, 6)
        contradictions = 0
        for _ in range(60):
            code = build_regular_staircase(64, Fraction(1, 3),
                                           int(rng.integers(0, 1 << 16)))
            cw = code.encode(rng.integers(0, 2, code.K, dtype=np.uint8))
            for v in rng.choice(code.N, 2, replace=False):
                cw[v] ^= 1
            dec, ref = PeelingDecoder(code), StoppingPeel(code)
            for v in rng.permutation(code.N).tolist():
                status = dec.receive(v, int(cw[v])).status
                assert ref.receive(v, int(cw[v])).status is status
                assert dec.values == ref.values
                assert dec.known_count() == ref.known_count()
                if status is not Status.IN_PROGRESS:
                    break
            contradictions += status is Status.CONTRADICTION
        assert contradictions > 20

    @pytest.mark.parametrize("index, value, message", [
        (-1, 0, "index -1 out of range"),
        (32, 0, "index 32 out of range"),
        (0, 2, "value 2 is not 0 or 1"),
        (5, 0, "symbol 5 was already received"),
    ])
    def test_invalid_reception_changes_nothing(self, index, value, message):
        code = build_regular_staircase(16, Fraction(1, 2), seed=6)
        dec = PeelingDecoder(code)
        dec.receive(5, 0)
        before = (list(dec.values), list(dec._unknown), bytes(dec._xor))
        with pytest.raises(ValueError, match=message):
            dec.receive(index, value)
        assert (list(dec.values), list(dec._unknown), bytes(dec._xor)) == before

    def test_rejected_call_leaves_decoder_usable(self):
        rng = rng_for(55, 5)
        code = random_code(rng)
        info = rng.integers(0, 2, code.K, dtype=np.uint8)
        cw = code.encode(info)
        dec = PeelingDecoder(code)
        dec.receive(0, int(cw[0]))
        for index, value in ((-1, 0), (code.N, 0), (1, 2), (0, int(cw[0]))):
            with pytest.raises(ValueError):
                dec.receive(index, value)
        for v in range(1, code.N):
            out = dec.receive(v, int(cw[v]))
        assert out.status is Status.SUCCESS
        assert dec.determined_bits() == list(info)


class TestPerCodeConstants:
    """Decoders of one code share its Tanner graph; none alters another."""

    def test_decoders_share_the_graph(self):
        code = build_regular_staircase(64, Fraction(1, 2), seed=8)
        cw = code.encode(rng_for(56, 0).integers(0, 2, 64, dtype=np.uint8))
        dec = code.start_decoder()
        for v in range(code.N):
            dec.receive(v, int(cw[v]))
        assert dec.outcome().status is Status.SUCCESS
        fresh = code.start_decoder()
        assert fresh._var_checks is dec._var_checks is code.tanner[0]
        h = code.parity_check_matrix()
        assert fresh._unknown == [len(np.flatnonzero(row)) for row in h]
        assert fresh._idx_sum == [int(np.flatnonzero(row).sum()) for row in h]

    @pytest.mark.parametrize("code", [
        build_regular_staircase(8, Fraction(1, 2), seed=1),
        build_regular_staircase(64, Fraction(1, 3), seed=5),
        build_regular_staircase(96, Fraction(2, 3), seed=2),
        build_irregular_staircase(100, Fraction(1, 2), {2: 0.3, 3: 0.4, 8: 0.3},
                                  seed=3),
        StaircaseCode(2, 3, ((2, 0), (1, 0))),
        *EMPTY_ROW_CODES.values(),
    ], ids=["regular-r12", "regular-r13", "regular-r23", "irregular",
            "unsorted-columns", *EMPTY_ROW_CODES])
    def test_tanner_is_h(self, code):
        # Each variable's checks are the nonzero rows of its column, in
        # ascending order; degrees and index sums are H's row counts and
        # row index sums.
        var_checks, degrees, index_sums = code.tanner
        h = code.parity_check_matrix()
        assert var_checks == [np.flatnonzero(col).tolist() for col in h.T]
        assert degrees == h.sum(axis=1).tolist()
        assert index_sums == (h @ np.arange(code.N)).tolist()

    @pytest.mark.parametrize("rate", [Fraction(1, 3), Fraction(1, 2)],
                             ids=["r13", "r12"])
    def test_interleaved_decoders_match_sequential(self, rate):
        k = 32

        def build():
            return build_regular_staircase(k, rate, seed=9)

        rng = rng_for(56, 1)
        code = build()
        words = [code.encode(rng.integers(0, 2, k, dtype=np.uint8))
                 for _ in range(2)]
        orders = [[int(x) for x in rng.permutation(code.N)] for _ in range(2)]

        def step(dec, cw, v):
            status = dec.receive(v, int(cw[v])).status
            return status, dec.determined_bits()

        sequential = build()
        alone = []
        for cw, order in zip(words, orders):
            dec = sequential.start_decoder()
            alone.append([step(dec, cw, v) for v in order])

        decs = [code.start_decoder(), code.start_decoder()]
        together = [[], []]
        for pair in zip(*orders):
            for j in (0, 1):
                together[j].append(step(decs[j], words[j], pair[j]))
        assert together == alone
        assert all(trace[-1][0] is Status.SUCCESS for trace in together)
