from fractions import Fraction

import numpy as np
import pytest

from turbobec import (PeelingDecoder, StaircaseCode, Status,
                      build_irregular_staircase, build_regular_staircase,
                      load_degree_distribution)

from conftest import rng_for


def random_code(rng, k=12, rate=Fraction(1, 2)):
    return build_regular_staircase(k, rate, int(rng.integers(0, 1 << 16)))


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

    def test_load_distribution(self, tmp_path):
        p = tmp_path / "dist.txt"
        p.write_text("# left degrees\n2 0.5\n4 0.5\n")
        assert load_degree_distribution(p) == {2: 0.5, 4: 0.5}


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

    def test_length_mismatch(self):
        code = build_regular_staircase(8, Fraction(1, 2), seed=7)
        with pytest.raises(ValueError):
            code.encode(np.zeros(9, dtype=np.uint8))


def peel_oracle(code, received):
    """Edge-removal peeling, reimplemented from scratch.

    Keeps explicit residual edge sets per check and strips them as
    variables become known; independent of the count-based decoder.
    """
    values = dict(received)
    edges = {i: set(code.check_variables(i)) for i in range(code.M)}
    acc = {i: 0 for i in range(code.M)}
    changed = True
    while changed:
        changed = False
        for i in range(code.M):
            known = [v for v in edges[i] if v in values]
            for v in known:
                acc[i] ^= values[v]
                edges[i].discard(v)
                changed = True
            if len(edges[i]) == 1:
                (v,) = edges[i]
                if v not in values:
                    values[v] = acc[i]
                    changed = True
    return values


class TestPeeling:
    def test_single_check_cascade(self):
        code = StaircaseCode(1, 1, ((0,),))  # one check: v0 xor v1 = 0
        dec = PeelingDecoder(code)
        out = dec.receive(0, 1)
        assert out.status is Status.SUCCESS
        assert dec.values == [1, 1]

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
