from fractions import Fraction

import numpy as np
import pytest

from turbobec import (PunctureMap, RscSpec, Status, TransitionTable,
                      TurboCodeSpec, identity_interleaver, load_interleaver,
                      make_pr_interleaver, make_puncture_map, make_turbo_spec,
                      parse_puncture_patterns, turbo)
from turbobec.turbo import PARITY1, PARITY2, SYSTEMATIC, rsc_parity

from conftest import RegisterOracle, rng_for

RSC75 = RscSpec(0o7, 0o5, 3)


def turbo_spec(k, rate=Fraction(1, 3), interleaver=None, seed=1):
    il = interleaver if interleaver is not None else make_pr_interleaver(k, seed)
    return make_turbo_spec(RSC75, k, il, rate=rate)


class TestInterleaver:
    def test_k1_is_identity(self):
        for seed in (0, 1, 99):
            assert make_pr_interleaver(1, seed).pi == (0,)

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


class TestPunctureMap:
    def test_rate_third_keeps_everything(self):
        spec = turbo_spec(4)
        assert spec.N == 12
        assert [s for s, _ in spec.layout].count(SYSTEMATIC) == 4

    def test_rate_half_pattern(self):
        spec = turbo_spec(4, Fraction(1, 2))
        kept = [(s, t) for s, t in spec.layout if s != SYSTEMATIC]
        assert kept == [(PARITY1, 0), (PARITY2, 1), (PARITY1, 2), (PARITY2, 3)]
        assert spec.N == 8

    def test_rate_two_thirds_pattern(self):
        spec = turbo_spec(4, Fraction(2, 3))
        kept = [(s, t) for s, t in spec.layout if s != SYSTEMATIC]
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
                            {Fraction(1, 2): PunctureMap(1, (True,), (True,))})
        with pytest.raises(ValueError, match="rate 1/3"):
            make_puncture_map(Fraction(1, 2), 16)

    def test_zero_period_rejected(self):
        with pytest.raises(ValueError, match="period 0 must be >= 1"):
            PunctureMap(0, (), ())

    def test_pattern_override(self):
        pm = parse_puncture_patterns("p1=10,p2=01")
        assert pm.keeps(PARITY1, 0) and not pm.keeps(PARITY1, 1)
        assert not pm.keeps(PARITY2, 0) and pm.keeps(PARITY2, 1)
        assert pm.keeps(SYSTEMATIC, 0) and pm.keeps(SYSTEMATIC, 1)

    @pytest.mark.parametrize("k, rate, override", [
        (1024, Fraction(1, 3), None), (1024, Fraction(1, 2), None),
        (1024, Fraction(2, 3), None), (64, None, "p1=110,p2=011"),
        (16, None, "p1=110,p2=011")], ids=["r13", "r12", "r23", "override",
                                           "override-partial-period"])
    def test_layout_matches_per_step_keeps(self, k, rate, override):
        puncture = (make_puncture_map(rate, k) if override is None
                    else parse_puncture_patterns(override))
        spec = make_turbo_spec(RSC75, k, make_pr_interleaver(k, 2),
                               puncture=puncture)
        expect = tuple((stream, t) for t in range(k)
                       for stream in (SYSTEMATIC, PARITY1, PARITY2)
                       if puncture.keeps(stream, t))
        assert spec.layout == expect
        assert all(type(x) is int for pair in spec.layout for x in pair)

    def test_layout_positions_unique(self):
        spec = turbo_spec(16, Fraction(1, 2))
        assert len(set(spec.layout)) == spec.N


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

    def test_random_words_against_register_oracle(self, oracle75):
        rng = rng_for(2024, 1)
        spec = turbo_spec(32, seed=5)
        for _ in range(20):
            info = rng.integers(0, 2, 32)
            cw = spec.encode(info)
            p1, _ = oracle75.terminated_parity(list(info))
            p2, _ = oracle75.terminated_parity(list(spec.interleaver.scramble(info)))
            assert list(cw[0::3]) == list(info)
            assert list(cw[1::3]) == p1
            assert list(cw[2::3]) == p2

    def test_linearity(self):
        rng = rng_for(2024, 2)
        spec = turbo_spec(24, Fraction(1, 2), seed=9)
        for _ in range(10):
            a = rng.integers(0, 2, 24, dtype=np.uint8)
            b = rng.integers(0, 2, 24, dtype=np.uint8)
            assert np.array_equal(spec.encode(a) ^ spec.encode(b),
                                  spec.encode(a ^ b))

    def test_termination_reaches_zero_state(self, oracle75):
        # rsc_parity checks the zero state internally; cross-check with
        # the oracle's own register.
        rng = rng_for(2024, 3)
        table = turbo_spec(16).table
        for _ in range(10):
            info = rng.integers(0, 2, 16)
            rsc_parity(table, info)
            _, tail = oracle75.terminated_parity(list(info))
            regs = [0, 0]
            for u in list(info) + tail:
                regs, _ = oracle75.step(regs, int(u))
            assert regs == [0, 0]

    def test_failed_termination_raises(self):
        table = TransitionTable(RSC75)
        zero_driving = table.termination_input
        table.termination_input = lambda state: 1 - zero_driving(state)
        with pytest.raises(RuntimeError, match="zero state"):
            rsc_parity(table, np.array([1, 0, 0, 0], dtype=np.uint8))

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
                if outcome.status is Status.SUCCESS:
                    break
            assert outcome.status is Status.SUCCESS
            assert dec.determined_bits() == list(info)
