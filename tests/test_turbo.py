import gc
from fractions import Fraction

import numpy as np
import pytest

from turbobec import (Interleaver, PunctureMap, RscSpec, Status,
                      TurboCodeSpec, identity_interleaver, make_pr_interleaver,
                      make_puncture_map, make_turbo_spec, turbo)
from turbobec.cli import load_interleaver, parse_puncture_patterns
from turbobec.turbo import PARITY1, PARITY2, SYSTEMATIC

from conftest import RegisterOracle, layout, rng_for

RSC75 = RscSpec(0o7, 0o5, 3)


def turbo_spec(k, rate=Fraction(1, 3), interleaver=None, seed=1):
    il = interleaver if interleaver is not None else make_pr_interleaver(k, seed)
    return make_turbo_spec(RSC75, k, il, rate=rate)


class TestInterleaver:
    def test_kind_is_required(self):
        # A hand-built permutation has no default label: "identity" was
        # the fingerprint of any permutation built without a kind.
        with pytest.raises(TypeError):
            Interleaver((1, 0))

    def test_k1_is_identity(self):
        for seed in (0, 1, 99):
            assert make_pr_interleaver(1, seed).pi == (0,)

    @pytest.mark.parametrize("k", [0, -1])
    def test_pr_interleaver_needs_k_of_at_least_1(self, k):
        with pytest.raises(ValueError, match="K must be >= 1"):
            make_pr_interleaver(k, 1)

    @pytest.mark.parametrize("k", [0, -1])
    def test_spec_needs_k_of_at_least_1(self, k):
        # Checked before the interleaver's length, which is 0 here.
        with pytest.raises(ValueError, match="K must be >= 1"):
            TurboCodeSpec(RSC75, k, Interleaver((), "empty"),
                          make_puncture_map(Fraction(1, 3), 1))

    def test_bijective(self):
        for seed in range(5):
            pi = make_pr_interleaver(100, seed).pi
            assert sorted(pi) == list(range(100))

    def test_frozen_regression_value(self):
        # Determinism anchor captured from the documented generator.
        assert make_pr_interleaver(8, 42).pi == (3, 4, 2, 7, 6, 1, 5, 0)

    def test_inverse_round_trip(self):
        il = make_pr_interleaver(64, 7)
        for i in range(64):
            assert il.pi_inv[il.pi[i]] == i

    def test_load_identity(self, tmp_path):
        p = tmp_path / "pi.txt"
        p.write_text("0\n1\n2\n")
        assert load_interleaver(p).pi == (0, 1, 2)

    def test_load_three_cycle(self, tmp_path):
        p = tmp_path / "pi.txt"
        p.write_text("2\n0\n1\n")
        assert load_interleaver(p).pi == (2, 0, 1)
        p.write_text("\n2\n  \n0\n1\n\n")  # blank lines are skipped
        assert load_interleaver(p).pi == (2, 0, 1)

    def test_load_rejects_duplicates(self, tmp_path):
        p = tmp_path / "pi.txt"
        p.write_text("1\n1\n0\n")
        with pytest.raises(ValueError, match="entry 1 appears twice"):
            load_interleaver(p)

    def test_load_rejects_out_of_range(self, tmp_path):
        p = tmp_path / "pi.txt"
        p.write_text("0\n3\n1\n")
        with pytest.raises(ValueError, match="entry 3 out of range for K=3"):
            load_interleaver(p)

    def test_entries_are_plain_ints(self):
        il = Interleaver(tuple(np.arange(4)[::-1]), "x")
        assert il.pi == (3, 2, 1, 0) and il.pi_inv == (3, 2, 1, 0)
        assert all(type(e) is int for e in il.pi)
        # The decoder's slot positions are built from ``pi``.
        assert all(type(e) is int for e in turbo_spec(4, interleaver=il)._positions)

    @pytest.mark.parametrize("pi", [(0.0, 1.0), (0, "1"), (0, None)])
    def test_non_integer_entries_rejected(self, pi):
        with pytest.raises(TypeError, match="entries must be integers"):
            Interleaver(pi, "x")


class TestPunctureMap:
    def test_rate_third_keeps_everything(self):
        spec = turbo_spec(4)
        assert spec.N == 12
        assert [s for s, _ in layout(spec)].count(SYSTEMATIC) == 4

    def test_rate_half_pattern(self):
        spec = turbo_spec(4, Fraction(1, 2))
        kept = [(s, t) for s, t in layout(spec) if s != SYSTEMATIC]
        assert kept == [(PARITY1, 0), (PARITY2, 1), (PARITY1, 2), (PARITY2, 3)]
        assert spec.N == 8

    def test_rate_two_thirds_pattern(self):
        spec = turbo_spec(4, Fraction(2, 3))
        kept = [(s, t) for s, t in layout(spec) if s != SYSTEMATIC]
        assert kept == [(PARITY1, 0), (PARITY2, 2)]
        assert spec.N == 6

    def test_rate_exactness(self):
        for rate in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)):
            spec = turbo_spec(48, rate)
            assert spec.N * rate == 48
            assert spec.rate == rate

    def test_unsupported_rate(self):
        with pytest.raises(ValueError):
            make_puncture_map(Fraction(3, 4), 16)

    def test_period_violation(self):
        with pytest.raises(ValueError):
            make_puncture_map(Fraction(2, 3), 1022)

    def test_preset_with_wrong_rate_rejected(self, monkeypatch):
        # A preset keeping every parity bit is rate 1/3, not the 1/2 it is
        # filed under; the check must not depend on ``assert``.
        monkeypatch.setattr(turbo, "_PRESETS",
                            {Fraction(1, 2): PunctureMap((True,), (True,))})
        with pytest.raises(ValueError, match="rate 1/3"):
            turbo_spec(16, Fraction(1, 2))

    def test_rate_may_be_any_value_fraction_reads(self):
        # Any value Fraction reads names the rate.
        for rate in ("1/3", "2/3", 0.5):
            spec = make_turbo_spec(RSC75, 16, identity_interleaver(16),
                                   rate=rate)
            assert spec.rate == Fraction(rate)
            assert type(spec.rate) is Fraction

    def test_override_with_wrong_rate_rejected(self):
        with pytest.raises(ValueError, match="gives rate 1/3, requested 1/2"):
            make_turbo_spec(RSC75, 16, identity_interleaver(16),
                            rate=Fraction(1, 2),
                            puncture=PunctureMap((True,), (True,)))

    def test_zero_period_rejected(self):
        with pytest.raises(ValueError, match="period 0 must be >= 1"):
            PunctureMap((), ())

    def test_unequal_patterns_rejected(self):
        with pytest.raises(ValueError, match="share one period"):
            PunctureMap((True,), (True, False))

    # "0" is a truthy string: taken as a flag, it would keep its parity.
    @pytest.mark.parametrize("p1, p2, name", [(("1", "0"), ("0", "1"), "p1"),
                                              ((1, 0), (0, 2), "p2"),
                                              ((True,), (None,), "p2")])
    def test_flags_other_than_0_or_1_rejected(self, p1, p2, name):
        with pytest.raises(ValueError, match=f"{name} pattern .* 0 or 1"):
            PunctureMap(p1, p2)

    def test_pattern_override(self):
        pm = parse_puncture_patterns("p1=10,p2=01")
        assert pm.p1_pattern[0] and not pm.p1_pattern[1]
        assert not pm.p2_pattern[0] and pm.p2_pattern[1]
        # Systematic bits have no pattern: the code keeps them always.
        pairs = layout(TurboCodeSpec(RSC75, 2, identity_interleaver(2), pm))
        assert (SYSTEMATIC, 0) in pairs and (SYSTEMATIC, 1) in pairs

    @pytest.mark.parametrize("k, rate, override", [
        (1024, Fraction(1, 3), None), (1024, Fraction(1, 2), None),
        (1024, Fraction(2, 3), None), (64, None, "p1=110,p2=011"),
        (16, None, "p1=110,p2=011")], ids=["r13", "r12", "r23", "override",
                                           "override-partial-period"])
    def test_layout_matches_per_step_keeps(self, k, rate, override):
        puncture = (make_puncture_map(rate, k) if override is None
                    else parse_puncture_patterns(override))
        spec = TurboCodeSpec(RSC75, k, make_pr_interleaver(k, 2), puncture)
        keeps = {SYSTEMATIC: (True,) * puncture.period,
                 PARITY1: puncture.p1_pattern, PARITY2: puncture.p2_pattern}
        expect = [(stream, t) for t in range(k)
                  for stream in (SYSTEMATIC, PARITY1, PARITY2)
                  if keeps[stream][t % puncture.period]]
        assert layout(spec) == expect
        assert all(type(x) is int for x in spec.streams + spec.steps)

    def test_layout_positions_unique(self):
        spec = turbo_spec(16, Fraction(1, 2))
        assert len(set(layout(spec))) == spec.N

    def test_build_makes_no_object_per_symbol(self):
        # A spec and its first decoder hold a few lists per code, not a
        # Python object per transmitted symbol (N = 3K here).  The
        # collector stays off: a collection untracks tuples of ints.
        k = 1024
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            spec = turbo_spec(k)
            spec.start_decoder()
            added = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert added < k // 4


class TestEncoder:
    def test_zero_word_maps_to_zero(self):
        spec = turbo_spec(8, interleaver=identity_interleaver(8))
        assert not spec.encode(np.zeros(8, dtype=np.uint8)).any()

    def test_impulse_response_against_register_oracle(self, oracle75):
        spec = turbo_spec(8, interleaver=identity_interleaver(8))
        info = [1, 0, 0, 0, 0, 0, 0, 0]
        expect_parity, _ = oracle75.terminated_parity(info)
        cw = spec.encode(info)
        assert list(cw[0::3]) == info
        assert list(cw[1::3]) == expect_parity
        assert list(cw[2::3]) == expect_parity  # identity interleaver

    @pytest.mark.parametrize("poly, rate", [
        ((0o7, 0o5, 3), Fraction(1, 3)),
        ((0o13, 0o15, 4), Fraction(1, 2)), ((0o13, 0o15, 4), Fraction(2, 3)),
        ((0o23, 0o35, 5), Fraction(1, 2)), ((0o23, 0o35, 5), Fraction(2, 3)),
    ], ids=["75-r13", "1315-r12", "1315-r23", "2335-r12", "2335-r23"])
    def test_random_words_against_register_oracle(self, poly, rate):
        oracle = RegisterOracle(*poly)
        rng = rng_for(2024, 1)
        spec = make_turbo_spec(RscSpec(*poly), 32, make_pr_interleaver(32, 5),
                               rate=rate)
        for _ in range(20):
            info = rng.integers(0, 2, 32)
            p1, _ = oracle.terminated_parity(list(info))
            p2, _ = oracle.terminated_parity(list(spec.interleaver.scramble(info)))
            streams = (list(info), p1, p2)
            assert list(spec.encode(info)) == [streams[s][t] for s, t in layout(spec)]

    def test_linearity(self):
        rng = rng_for(2024, 2)
        spec = turbo_spec(24, Fraction(1, 2), seed=9)
        for _ in range(10):
            a = rng.integers(0, 2, 24, dtype=np.uint8)
            b = rng.integers(0, 2, 24, dtype=np.uint8)
            assert np.array_equal(spec.encode(a) ^ spec.encode(b),
                                  spec.encode(a ^ b))

    def test_length_mismatch(self):
        spec = turbo_spec(8)
        with pytest.raises(ValueError):
            spec.encode(np.zeros(9, dtype=np.uint8))

    def test_interleaver_size_mismatch(self):
        with pytest.raises(ValueError):
            make_turbo_spec(RSC75, 8, identity_interleaver(4))

    def test_full_reception_round_trip(self):
        rng = rng_for(2024, 4)
        for rate in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)):
            spec = turbo_spec(16, rate, seed=11)
            info = rng.integers(0, 2, 16, dtype=np.uint8)
            cw = spec.encode(info)
            dec = spec.start_decoder()
            outcome = dec.outcome()
            for i in range(spec.N):
                outcome = dec.receive(i, int(cw[i]))
                if outcome is Status.SUCCESS:
                    break
            assert outcome is Status.SUCCESS
            assert dec.determined_bits() == list(info)
