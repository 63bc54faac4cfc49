import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from turbobec import (RscSpec, RunStats, Status, build_irregular_staircase,
                      make_pr_interleaver, make_turbo_spec, run_campaign,
                      run_trial)
from turbobec.cli import load_degree_distribution
from turbobec.harness import CSV_HEADER, stats_row, sweep, trial_rng
from turbobec.ldpc import build_regular_staircase
from turbobec.turbo import PARITY1, PARITY2, SYSTEMATIC

from conftest import (enumerate_codeword_paths, genuine_trial, RegisterOracle,
                      turbo_spec)


class TestFormulas:
    def test_worked_threshold_example(self):
        stats = RunStats(1, Fraction(1, 3), 1.076, 0.0)
        assert abs(stats.p_th_est + stats.mu_av * float(stats.rate) - 1.0) < 1e-12
        assert abs(stats.p_th_est - 0.641) < 1e-3  # 0.641 is quoted rounded
        assert abs(stats.gap - 0.025) < 1e-3

    def test_mds_case(self):
        for rate in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)):
            stats = RunStats(1, rate, 1.0, 0.0)
            assert stats.p_th_est == pytest.approx(1 - float(rate), abs=1e-15)
            assert stats.gap == pytest.approx(0.0, abs=1e-15)

    def test_identity_holds_exactly(self):
        stats = run_campaign(turbo_spec(32), 5, base_seed=3)
        assert stats.p_th_est + stats.mu_av * float(stats.rate) == pytest.approx(
            1.0, abs=1e-12)


class TestTrials:
    def test_determinism(self):
        spec = turbo_spec(32)
        assert run_trial(spec, 42, 0) == run_trial(spec, 42, 0)

    def test_bounds(self):
        spec = turbo_spec(16)
        for i in range(20):
            rec = run_trial(spec, 9, i)
            assert 16 <= rec.r_stop <= spec.N
            assert rec.mu == rec.r_stop / 16

    def test_ldpc_bounds(self):
        code = build_regular_staircase(16, Fraction(1, 2), seed=2)
        for i in range(20):
            rec = run_trial(code, 9, i)
            assert 16 <= rec.r_stop <= code.N

    def test_single_trial_campaign(self):
        spec = turbo_spec(16)
        stats = run_campaign(spec, 1, base_seed=5)
        assert stats.mu_av == run_trial(spec, 5, 0).mu
        assert stats.mu_std == 0.0
        with pytest.raises(ValueError, match="at least one trial"):
            run_campaign(spec, 0, base_seed=5)

    def test_campaign_aggregates(self):
        spec = turbo_spec(16)
        stats = run_campaign(spec, 10, base_seed=5)
        mus = [run_trial(spec, 5, i).mu for i in range(10)]
        assert stats.mu_av == pytest.approx(sum(mus) / 10)
        var = sum((m - stats.mu_av) ** 2 for m in mus) / 9
        assert stats.mu_std == pytest.approx(math.sqrt(var))

    def test_trace_monotone(self):
        spec = turbo_spec(16)
        trace = []
        run_trial(spec, 11, 0, trace=trace)
        assert trace == sorted(trace)
        assert trace[-1] == 16


IRREGULAR = Path(__file__).resolve().parents[1] / "configs" / "irregular_example.txt"


class TestArrivalOrderTrial:
    """``run_trial`` feeds the all-zero codeword in the arrival order of
    a trial that encodes its drawn information word; both trials must
    take the same symbols and determine the same bits after each one."""

    @pytest.mark.parametrize("build", [
        lambda: turbo_spec(64),
        lambda: make_turbo_spec(RscSpec(0o13, 0o15, 4), 128,
                                make_pr_interleaver(128, 2), rate=Fraction(1, 2)),
        lambda: turbo_spec(256, Fraction(2, 3), seed=3),
        lambda: build_regular_staircase(64, Fraction(1, 3), seed=3),
        lambda: build_regular_staircase(256, Fraction(2, 3), seed=4),
        lambda: build_irregular_staircase(
            128, Fraction(1, 2), load_degree_distribution(IRREGULAR), seed=5),
    ], ids=["turbo75-r13-k64", "turbo1315-r12-k128", "turbo75-r23-k256",
            "ldpc-r13-k64", "ldpc-r23-k256", "irregular-r12-k128"])
    def test_matches_the_genuine_codeword_trial(self, build, monkeypatch):
        code = build()
        genuine = []
        for i in range(50):
            trace = []
            genuine.append((genuine_trial(code, 8, i, trace), trace))

        def no_encode(self, info):
            raise AssertionError("run_trial encoded a word")

        monkeypatch.setattr(type(code), "encode", no_encode)
        for i, (r_stop, trace) in enumerate(genuine):
            got = []
            assert run_trial(code, 8, i, trace=got).r_stop == r_stop
            assert got == trace


class BruteForceTurboReplay:
    """Reference decoder: per-trellis path enumeration plus hard exchange.

    Each trellis keeps the set of information words whose terminated
    path matches everything that trellis has seen; bits forced in one
    trellis are handed to the other until neither set shrinks.
    """

    def __init__(self, spec):
        self.spec = spec
        k = spec.K
        oracle = RegisterOracle(spec.rsc.feedback_poly, spec.rsc.forward_poly,
                                spec.rsc.constraint_length)
        paths = enumerate_codeword_paths(oracle, k)
        # candidates[d]: set of candidate info-word indices for trellis d
        self.words = [tuple(info) for info, _, _ in paths]
        self.labels = [labels for _, labels, _ in paths]
        self.cands = [set(range(len(paths))), set(range(len(paths)))]
        self.constraints = [[], []]  # per trellis: (step, pos, bit)

    def _forced(self, d):
        k = self.spec.K
        forced = {}
        for t in range(k):
            vals = {self.words[w][t] for w in self.cands[d]}
            if len(vals) == 1:
                forced[t] = vals.pop()
        return forced

    def _filter(self, d):
        self.cands[d] = {
            w for w in self.cands[d]
            if all(self.labels[w][t][pos] == b
                   for t, pos, b in self.constraints[d])
        }

    def receive(self, index, bit):
        pi, pi_inv = self.spec.interleaver.pi, self.spec.interleaver.pi_inv
        stream, t = self.spec.streams[index], self.spec.steps[index]
        if stream == SYSTEMATIC:
            self.constraints[0].append((t, 0, bit))
            self.constraints[1].append((pi_inv[t], 0, bit))
        elif stream == PARITY1:
            self.constraints[0].append((t, 1, bit))
        else:
            self.constraints[1].append((t, 1, bit))
        # hard information exchange to a fixpoint
        while True:
            self._filter(0)
            self._filter(1)
            before = (len(self.cands[0]), len(self.cands[1]))
            for t, b in self._forced(0).items():
                self.constraints[1].append((pi_inv[t], 0, b))
            for t, b in self._forced(1).items():
                self.constraints[0].append((pi[t], 0, b))
            self._filter(0)
            self._filter(1)
            if (len(self.cands[0]), len(self.cands[1])) == before:
                break
        return len(self._forced(0)) == self.spec.K

    def forced_info(self):
        return self._forced(0)


class TestOracleReplay:
    def test_r_stop_matches_brute_force_replay(self):
        spec = turbo_spec(8, seed=13)
        for index in range(6):
            rng = trial_rng(base_seed=21, index=index)
            info = rng.integers(0, 2, spec.K, dtype=np.uint8)
            cw = spec.encode(info)
            order = rng.permutation(spec.N)

            replay = BruteForceTurboReplay(spec)
            oracle_r_stop = None
            for count, sym in enumerate(order, start=1):
                if replay.receive(int(sym), int(cw[int(sym)])):
                    oracle_r_stop = count
                    break
            rec = run_trial(spec, 21, index)
            assert rec.r_stop == oracle_r_stop

    def test_forced_bits_match_mid_decode(self):
        spec = turbo_spec(8, seed=17)
        rng = trial_rng(base_seed=23, index=0)
        info = rng.integers(0, 2, spec.K, dtype=np.uint8)
        cw = spec.encode(info)
        order = rng.permutation(spec.N)
        replay = BruteForceTurboReplay(spec)
        dec = spec.start_decoder()
        for sym in order:
            done = replay.receive(int(sym), int(cw[int(sym)]))
            out = dec.receive(int(sym), int(cw[int(sym)]))
            got = {t: b for t, b in enumerate(dec.determined_bits())
                   if b is not None}
            assert got == replay.forced_info()
            if done:
                assert out is Status.SUCCESS
                break


class TestSweep:
    @staticmethod
    def factory(name, k, rate):
        if name == "turbo":
            return turbo_spec(k, rate, seed=3), "pr:3"
        return build_regular_staircase(k, rate, seed=3), "-"

    def test_schema_and_shape(self):
        rows = sweep(self.factory, [16, 32], [Fraction(1, 3)], ["turbo"],
                     trials=3, base_seed=7)
        assert rows[0] == CSV_HEADER
        assert len(rows) == 3
        assert rows[1].startswith("turbo,1/3,16,pr:3,3,7,")
        assert len(rows[1].split(",")) == len(CSV_HEADER.split(","))

    def test_empty_k_list(self):
        rows = sweep(self.factory, [], [Fraction(1, 3)], ["turbo"], 3, 7)
        assert rows == [CSV_HEADER]

    def test_rerun_identical(self):
        args = (self.factory, [16], [Fraction(1, 2)], ["turbo", "ldpc"], 4, 9)
        assert sweep(*args) == sweep(*args)

    def test_every_code_is_built_before_any_campaign(self, monkeypatch):
        # A point that cannot be built fails the sweep before any trial.
        def campaign(*args):
            raise AssertionError("a campaign ran before every code was built")

        monkeypatch.setattr("turbobec.harness.run_campaign", campaign)
        built = []

        def factory(name, k, rate):
            built.append((name, rate, k))
            if len(built) == 4:
                raise ValueError("the last point cannot be built")
            return self.factory(name, k, rate)

        with pytest.raises(ValueError, match="last point"):
            sweep(factory, [16, 32], [Fraction(1, 3), Fraction(1, 2)],
                  ["turbo"], 3, 7)
        assert built == [("turbo", Fraction(1, 3), 16),
                         ("turbo", Fraction(1, 3), 32),
                         ("turbo", Fraction(1, 2), 16),
                         ("turbo", Fraction(1, 2), 32)]

    def test_stats_row_identity_fields(self):
        stats = RunStats(2, Fraction(1, 2), 1.1, 0.01)
        row = stats_row("turbo", 16, "pr:1", 0, stats)
        fields = row.split(",")
        assert float(fields[8]) == pytest.approx(1 - 1.1 * 0.5, abs=1e-6)
        assert float(fields[9]) == pytest.approx(0.5 - float(fields[8]), abs=1e-6)
