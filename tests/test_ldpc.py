import gc
import hashlib
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from turbobec import (PeelingDecoder, StaircaseCode, Status,
                      build_irregular_staircase, build_regular_staircase,
                      load_degree_distribution)

from conftest import peel_oracle, rng_for


def random_code(rng, k=12, rate=Fraction(1, 2)):
    return build_regular_staircase(k, rate, int(rng.integers(0, 1 << 16)))


# Codes with checks that hold no information bit, named by where those
# rows are: rows 0 and 2, rows 0, 1 and 3, rows 0 and 1, the last row.
EMPTY_ROW_CODES = {
    "middle": StaircaseCode(2, 4, ((1,), (1, 3)), kind="hand"),
    "several": StaircaseCode(3, 5, ((4,), (4,), (2, 4)), kind="hand"),
    "leading": StaircaseCode(1, 3, ((2,),), kind="hand"),
    "trailing": StaircaseCode(2, 3, ((0, 1), (0,)), kind="hand"),
}


class StoppingPeel(PeelingDecoder):
    """Peels like ``PeelingDecoder``, in the same stack order, but
    recounts each check from its variables and returns at the first
    contradiction it meets.  Its graph is the rows and columns of H, not
    the code's Tanner graph.  It is the whole propagation loop of its
    decoder, start state included, so only the reception checks are
    shared with the decoder it is compared with."""

    def __init__(self, code):
        h = code.parity_check_matrix()
        self.rows = [np.flatnonzero(row).tolist() for row in h]
        self.cols = [np.flatnonzero(col).tolist() for col in h.T]
        self.peeled = 0
        super().__init__(code)

    def _propagate(self, ops):
        self._peel([(op >> 1, op & 1) for op in ops])
        while True:
            pair = yield
            self.peeled += 1
            self._peel([pair])

    def _peel(self, stack):
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


def _compare_with_stopping_peel(rng, make_code, words=60):
    """Decodes ``words`` codewords of ``make_code()``, each with two
    flipped symbols (one if N < 8), in a random order with both
    ``PeelingDecoder`` and ``StoppingPeel``; checks that they agree after
    every reception and returns the count of contradictions."""
    contradictions = 0
    for _ in range(words):
        code = make_code()
        cw = code.encode(rng.integers(0, 2, code.K, dtype=np.uint8))
        for v in rng.choice(code.N, 2 if code.N >= 8 else 1, replace=False):
            cw[v] ^= 1
        dec, ref = PeelingDecoder(code), StoppingPeel(code)
        for count, v in enumerate(rng.permutation(code.N).tolist(), 1):
            status = dec.receive(v, int(cw[v]))
            assert ref.receive(v, int(cw[v])) is status
            assert ref.peeled == count
            assert dec.values == ref.values
            assert dec.known_count() == ref.known_count()
            if status is not Status.IN_PROGRESS:
                break
        contradictions += status is Status.CONTRADICTION
    return contradictions


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
            StaircaseCode(k, m, cols, kind="hand")

    def test_edge_count_limit(self):
        # Rejected before the pool of about one entry per edge is drawn.
        message = f"the code has {1 << 40} edges, above the limit of {1 << 24}"
        with pytest.raises(ValueError, match=message):
            build_regular_staircase(1 << 20, Fraction(1, 2), 0,
                                    column_weight=1 << 20)
        with pytest.raises(ValueError, match=message):
            build_irregular_staircase(1 << 20, Fraction(1, 2), {1 << 20: 1.0},
                                      seed=0)

    def test_construction_deterministic(self):
        a = build_regular_staircase(64, Fraction(1, 2), seed=9)
        b = build_regular_staircase(64, Fraction(1, 2), seed=9)
        assert a.left_cols == b.left_cols


class TestValidation:
    """The constructor names the first bad column's fault, column by
    column: a duplicate edge, then an out-of-range index, then checks
    that do not ascend."""

    def test_one_column_per_information_variable(self):
        with pytest.raises(ValueError, match="need one left column per "
                                             "information variable"):
            StaircaseCode(3, 4, ((0,), (1,)), kind="hand")

    @pytest.mark.parametrize("cols, message", [
        (((0, 2, 0), (1,)), "duplicate edge in a left column"),
        (((0,), (1, 4)), "check index out of range"),
        (((-1,), (1,)), "check index out of range"),
        (((0,), (10**30,)), "check index out of range"),
        (((0,), (-10**30, 1)), "check index out of range"),
        (((0, 4), (1, 1)), "check index out of range"),
        (((1, 1), (0, 4)), "duplicate edge in a left column"),
        (((4, 4), (0,)), "duplicate edge in a left column"),
        (((0, 2), (1, 0)), "check indices of a left column must ascend"),
        (((2, 0, 2), (1,)), "duplicate edge in a left column"),
        (((4, 1), (0,)), "check index out of range"),
    ], ids=["duplicate", "too-large", "negative", "huge", "huge-negative",
            "range-then-duplicate", "duplicate-then-range",
            "duplicate-out-of-range", "descending", "duplicate-and-descent",
            "out-of-range-and-descent"])
    def test_rejects_bad_columns(self, cols, message):
        with pytest.raises(ValueError, match="^" + message + "$"):
            StaircaseCode(2, 4, cols, kind="hand")

    def test_rejects_indices_that_are_not_integers(self):
        # No column has a duplicate, an index out of range or a descent,
        # so no other message fits.  numpy alone would truncate the
        # first to the one check 1 and the second to two distinct checks,
        # and a string cannot be compared with the range's bounds.
        for col in ((1.2, 1.7), (0.5, 1.5), ("1",)):
            with pytest.raises(TypeError,
                               match="check indices must be integers"):
                StaircaseCode(2, 4, (col, (0,)), kind="hand")

    def test_a_non_integer_column_is_named_before_a_later_range_fault(self):
        # The first bad column names the fault: its index is no integer,
        # though a later column holds an index out of range.
        with pytest.raises(TypeError, match="^check indices must be integers$"):
            StaircaseCode(2, 4, (("x",), (9,)), kind="hand")

    def test_kind_is_required(self):
        # A default label would print a hand-made code's fingerprint as
        # if a builder had made it.
        with pytest.raises(TypeError):
            StaircaseCode(2, 3, ((), (0, 2)))

    def test_accepts_an_empty_column(self):
        code = StaircaseCode(2, 3, ((), (0, 2)), kind="hand")
        assert code.left_cols == ((), (0, 2))
        assert list(code.encode([1, 1])) == [1, 1, 1, 1, 0]


IRREGULAR = Path(__file__).resolve().parents[1] / "configs" / "irregular_example.txt"


class TestBuilderGolden:
    """sha256 of ``repr(left_cols)``: the builders' columns, exactly."""

    @pytest.mark.parametrize("k, rate, seed, weight, digest", [
        # 3 windows of the pool with a repeated check
        (1024, Fraction(1, 3), 5, 4,
         "5ea6275374a2f1301e7c9247d981c7cc6381b90e49461abc937fc7acc96933fe"),
        (1024, Fraction(1, 2), 5, 4,
         "59ec56779c53bdbf9114b6d02c3959fc39c5d9807f22e7dcdc73721ef7430df7"),
        # 9 windows with a repeated check
        (1024, Fraction(2, 3), 5, 4,
         "bf9993ff0b9324ec7c23e47a818b1065ddde720ae66b7f60c60d0275356f08fa"),
        # repairs use up the pool, so a column draws fresh checks
        (6, Fraction(1, 2), 22, 4,
         "150183411f0422902b1f20dac751956edaf99731cf1b5df6b3c0c463eb25be18"),
        (8, Fraction(2, 3), 2, 3,
         "1a1e5b2307c218d5780ff9002ee39176d6acbac12e035756b4b51e88b7e80c33"),
    ], ids=["r13", "r12", "r23", "pool-runs-out", "pool-runs-out-w3"])
    def test_regular(self, k, rate, seed, weight, digest):
        code = build_regular_staircase(k, rate, seed, column_weight=weight)
        assert hashlib.sha256(repr(code.left_cols).encode()).hexdigest() == digest

    def test_irregular(self):
        code = build_irregular_staircase(
            1024, Fraction(1, 2), load_degree_distribution(IRREGULAR), seed=5)
        assert hashlib.sha256(repr(code.left_cols).encode()).hexdigest() == (
            "481a677052b7f22eede9594c128ca224a0fb038128c719144ec911f5484919a1")


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
        # No column gets degree 10**30, so it may exceed M.
        code = build_irregular_staircase(8, Fraction(1, 2),
                                         {3: 0.99, 10**30: 0.01}, seed=5)
        assert [len(c) for c in code.left_cols] == [3] * 8

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
        # A degree above M = 8 that some column gets is rejected before
        # any column is drawn, so numpy never meets one it cannot hold.
        for law, weight in (({10**30: 1.0}, 10**30), ({3: 0.5, 9: 0.5}, 9)):
            with pytest.raises(ValueError, match=f"column weight {weight} "
                                                 f"exceeds the check count 8"):
                build_irregular_staircase(8, Fraction(1, 2), law, seed=0)

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
        code = StaircaseCode(2, 2, ((0,), (0, 1)), kind="hand")
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
        # one check: v0 xor v1 = 0
        code = StaircaseCode(1, 1, ((0,),), kind="hand")
        dec = PeelingDecoder(code)
        out = dec.receive(0, 1)
        assert out is Status.SUCCESS
        assert dec.values == [1, 1]

    def test_lone_parity_check_peels_at_start(self):
        # check 0 holds parity v1 alone
        code = StaircaseCode(1, 2, ((1,),), kind="hand")
        dec = PeelingDecoder(code)
        assert dec.values == [None, 0, None]

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

    def test_inconsistent_value_contradicts(self):
        code = StaircaseCode(1, 1, ((0,),), kind="hand")
        dec = PeelingDecoder(code)
        dec.receive(0, 1)        # forces v1 = 1
        out = dec.receive(1, 0)  # disagrees with the forced value
        assert out is Status.CONTRADICTION

    def test_reception_after_contradiction_rejected(self):
        code = StaircaseCode(1, 2, ((0,),), kind="hand")  # v0 = v1 = v2
        dec = PeelingDecoder(code)
        dec.receive(0, 1)
        assert dec.receive(1, 0) is Status.CONTRADICTION
        with pytest.raises(ValueError, match="symbol 2: decoder is in a contradiction"):
            dec.receive(2, 1)

    def test_peeling_stops_at_the_first_contradiction(self):
        rng = rng_for(55, 6)
        contradictions = _compare_with_stopping_peel(
            rng, lambda: build_regular_staircase(
                64, Fraction(1, 3), int(rng.integers(0, 1 << 16))))
        assert contradictions > 20

    @pytest.mark.parametrize("name", ["regular-r23", "irregular",
                                      *EMPTY_ROW_CODES])
    def test_stopping_reference_on_more_codes(self, name):
        # A contradiction can stop a parity's op between its two checks,
        # and parity N - 1 has only check M - 1.
        rng = rng_for(55, 7)
        make = {
            "regular-r23": lambda: build_regular_staircase(
                96, Fraction(2, 3), int(rng.integers(0, 1 << 16))),
            "irregular": lambda: build_irregular_staircase(
                100, Fraction(1, 2), {2: 0.3, 3: 0.4, 8: 0.3},
                int(rng.integers(0, 1 << 16))),
        }.get(name, lambda: EMPTY_ROW_CODES[name])
        assert _compare_with_stopping_peel(rng, make, words=200) > 20

    @pytest.mark.parametrize("code", [
        build_regular_staircase(24, Fraction(1, 3), seed=3),
        build_regular_staircase(48, Fraction(2, 3), seed=4),
        build_irregular_staircase(40, Fraction(1, 2), {2: 0.3, 3: 0.4, 8: 0.3},
                                  seed=5),
        *EMPTY_ROW_CODES.values(),
    ], ids=["regular-r13", "regular-r23", "irregular", *EMPTY_ROW_CODES])
    def test_accumulators_match_h(self, code):
        # After every reception of a codeword, check c counts its unknown
        # variables and holds the XOR of u << 1 over them and of the
        # values of its known variables.
        rows = [np.flatnonzero(row).tolist()
                for row in code.parity_check_matrix()]
        rng = rng_for(55, 8)
        for _ in range(8):
            cw = code.encode(rng.integers(0, 2, code.K, dtype=np.uint8))
            dec = PeelingDecoder(code)
            for v in rng.permutation(code.N).tolist():
                status = dec.receive(v, int(cw[v]))
                for c, row in enumerate(rows):
                    open_ = [u for u in row if dec.values[u] is None]
                    acc = 0
                    for u in row:
                        acc ^= u << 1 if dec.values[u] is None else dec.values[u]
                    assert dec._unknown[c] == len(open_)
                    assert dec._acc[c] == acc
                if status is Status.SUCCESS:
                    break


class TestPerCodeConstants:
    """Decoders of one code share its Tanner graph; none alters another."""

    def test_decoders_share_the_graph(self):
        code = build_regular_staircase(64, Fraction(1, 2), seed=8)
        cw = code.encode(rng_for(56, 0).integers(0, 2, 64, dtype=np.uint8))
        dec = code.start_decoder()
        for v in range(code.N):
            dec.receive(v, int(cw[v]))
        assert dec.outcome() is Status.SUCCESS
        fresh = code.start_decoder()
        assert fresh._var_checks is dec._var_checks is code.left_cols
        h = code.parity_check_matrix()
        assert fresh._unknown == [len(np.flatnonzero(row)) for row in h]
        assert fresh._acc == [np.bitwise_xor.reduce(np.flatnonzero(row) << 1)
                              for row in h]

    @pytest.mark.parametrize("code", [
        build_regular_staircase(8, Fraction(1, 2), seed=1),
        build_regular_staircase(64, Fraction(1, 3), seed=5),
        build_regular_staircase(96, Fraction(2, 3), seed=2),
        build_irregular_staircase(100, Fraction(1, 2), {2: 0.3, 3: 0.4, 8: 0.3},
                                  seed=3),
        StaircaseCode(3, 3, ((), (0, 2), ()), kind="hand"),
        StaircaseCode(2, 3, ((), ()), kind="hand"),
        *EMPTY_ROW_CODES.values(),
    ], ids=["regular-r12", "regular-r13", "regular-r23", "irregular",
            "empty-columns", "all-columns-empty",
            *EMPTY_ROW_CODES])
    def test_tanner_is_h(self, code):
        # Each information variable's checks are the nonzero rows of its
        # column, in ascending order; degrees are H's row counts and
        # starts the XOR of u << 1 over each row's variables u.
        degrees, starts = code.tanner
        h = code.parity_check_matrix()
        assert ([list(c) for c in code.left_cols]
                == [np.flatnonzero(col).tolist() for col in h.T[:code.K]])
        assert degrees == h.sum(axis=1).tolist()
        assert starts == [np.bitwise_xor.reduce(np.flatnonzero(row) << 1)
                          for row in h]

    def test_build_makes_no_container_per_variable(self):
        # A code and its first decoder hold the K column tuples and a few
        # lists and arrays, not a list per variable (N = 3K here).  The
        # collector stays off: a collection untracks tuples of ints.
        k = 1024
        # A first build makes what a module or numpy sets up lazily.
        build_regular_staircase(16, Fraction(1, 2), seed=1).start_decoder()
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            code = build_regular_staircase(k, Fraction(1, 3), seed=5)
            code.start_decoder()
            added = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert added < k + k // 4
