import importlib.util
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from turbobec import (RscSpec, RunStats, Status, make_pr_interleaver,
                      make_turbo_spec, run_campaign, run_trial)
from turbobec.harness import CSV_HEADER, stats_row, sweep, trial_rng
from turbobec.ldpc import build_regular_staircase
from turbobec.turbo import PARITY1, PARITY2, SYSTEMATIC

from conftest import enumerate_codeword_paths, RegisterOracle

RSC75 = RscSpec(0o7, 0o5, 3)


def turbo_spec(k, rate=Fraction(1, 3), seed=1):
    return make_turbo_spec(RSC75, k, make_pr_interleaver(k, seed), rate=rate)


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

    def test_campaign_aggregates(self):
        spec = turbo_spec(16)
        stats = run_campaign(spec, 10, base_seed=5)
        mus = [run_trial(spec, 5, i).mu for i in range(10)]
        assert stats.mu_av == pytest.approx(sum(mus) / 10)
        var = sum((m - stats.mu_av) ** 2 for m in mus) / 9
        assert stats.mu_std == pytest.approx(math.sqrt(var))

    @pytest.mark.parametrize("build", [
        lambda: turbo_spec(32, Fraction(1, 2)),
        lambda: build_regular_staircase(32, Fraction(1, 3), seed=2),
    ], ids=["turbo", "ldpc"])
    def test_known_count_tracks_determined_bits(self, build):
        code = build()
        rng = trial_rng(12, 0)
        cw = code.encode(rng.integers(0, 2, code.K, dtype=np.uint8))
        dec = code.start_decoder()
        assert dec.known_count() == 0
        for sym in rng.permutation(code.N):
            dec.receive(int(sym), int(cw[sym]))
            assert dec.known_count() == sum(
                b is not None for b in dec.determined_bits())
        assert dec.known_count() == code.K

    @pytest.mark.parametrize("family, build", [
        ("turbo", lambda: turbo_spec(64)),
        ("ldpc", lambda: build_regular_staircase(64, Fraction(1, 3), seed=2)),
    ], ids=["turbo", "ldpc"])
    def test_benchmark_traced_trial_matches_run_trial(self, family, build,
                                                      monkeypatch):
        # The benchmark replays run_trial one receive() at a time, reading
        # its .status, and checks that it stops at the same r_stop.
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        loader = importlib.util.spec_from_file_location("tracing", path)
        tracing = importlib.util.module_from_spec(loader)
        monkeypatch.setitem(sys.modules, "tracing", tracing)
        loader.loader.exec_module(tracing)
        code = build()
        tracer = tracing.Tracer()
        for i in range(5):
            traced = tracing.traced_trial(code, family, 13, i, tracer)
            assert traced.error is None
            assert traced.r_stop == run_trial(code, 13, i).r_stop
            assert traced.decoder.outcome().status is Status.SUCCESS

    def test_trace_monotone(self):
        spec = turbo_spec(16)
        trace = []
        run_trial(spec, 11, 0, trace=trace)
        assert trace == sorted(trace)
        assert trace[-1] == 16


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
        stream, t = self.spec.layout[index]
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
                assert out.status is Status.SUCCESS
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

    def test_stats_row_identity_fields(self):
        stats = RunStats(2, Fraction(1, 2), 1.1, 0.01)
        row = stats_row("turbo", Fraction(1, 2), 16, "pr:1", 2, 0, stats)
        fields = row.split(",")
        assert float(fields[8]) == pytest.approx(1 - 1.1 * 0.5, abs=1e-6)
        assert float(fields[9]) == pytest.approx(0.5 - float(fields[8]), abs=1e-6)
