"""Closed-loop Monte-Carlo benchmark of turbobec campaigns.

One client runs seeded trials one after another through turbobec's
public API, in a single process and a single thread, one workload per
process.  ``--trace 0`` times ``harness.run_trial`` calls and reports
the end-to-end metrics; ``--trace 1`` runs every trial both plainly and
with spans around each public call, and reports the per-layer metrics.
Both modes check the trials' outputs.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

Usage:
    python3 perfbench/run.py [--workload NAME|all] [--seed 99] [--seconds 30]
                             [--trace 0|1]

Without --workload (or with ``all``) it runs every workload, untraced and
traced, each in a process of its own.  A run measures for --seconds and
always runs at least MIN_TRIALS trials.

perfbench/README.md lists the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from tracing import (FAMILY_LAYERS, NO_PARENT, SPAN_ID, Tracer, time_probes,
                     traced_trial)
from workloads import ROOT, WORKLOADS, load_turbobec

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 99
DEFAULT_SECONDS = 30
MIN_TRIALS = 100  # also the trials the mu_av reference and the counts use
WARMUP_TRIALS = 3
SETUP_PROBES = 9

END_TO_END = {  # name: (unit, better)
    "trials_per_s": ("trials/s", "higher"),
    "trial_ms_p50": ("ms", "lower"),
    "trial_ms_p90": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}
PER_LAYER = {
    "trellis.table_build_ms": ("ms", "lower"),
    "trellis.lookup_build_ms": ("ms", "lower"),
    "turbo.spec_build_ms": ("ms", "lower"),
    "turbo.encode_ms": ("ms", "lower"),
    "decoder.init_ms": ("ms", "lower"),
    "decoder.boundary_masks_ms": ("ms", "lower"),
    "decoder.receive_ms": ("ms", "lower"),
    "decoder.receive_us_per_call": ("us", "lower"),
    "decoder.receives_per_trial": ("count", "lower"),
    "ldpc.build_ms": ("ms", "lower"),
    "ldpc.encode_ms": ("ms", "lower"),
    "ldpc.init_ms": ("ms", "lower"),
    "ldpc.receive_ms": ("ms", "lower"),
    "ldpc.receive_us_per_call": ("us", "lower"),
    "ldpc.receives_per_trial": ("count", "lower"),
    "ldpc.peeled_per_trial": ("count", "higher"),
    "ldpc.peel_yield": ("fraction", "higher"),
    "harness.rng_ms": ("ms", "lower"),
    "harness.self_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


class Run:
    """Per-trial records and failures of one workload run."""

    def __init__(self, workload, code, base_seed: int):
        self.workload = workload
        self.code = code
        self.base_seed = base_seed
        self.records: list[dict] = []
        self.failures: dict[int, str] = {}  # first failure of each trial
        self.attempted = 0

    def fail(self, index: int, what: str) -> None:
        if not self.failures:
            print(f"perfbench: trial {index}: {what}", file=sys.stderr)
        self.failures.setdefault(index, what)

    def timed_run_trial(self, index: int) -> tuple[int | None, int]:
        """One untraced harness.run_trial call: (r_stop or None, wall ns)."""
        from turbobec.harness import run_trial

        self.attempted += 1
        start = time.perf_counter_ns()
        try:
            r_stop = run_trial(self.code, self.base_seed, index).r_stop
        except Exception:  # a raising trial is a failed trial, not a crash
            r_stop = None
            self.fail(index, traceback.format_exc(limit=3).strip())
        return r_stop, time.perf_counter_ns() - start

    def checked_trial(self, index: int, tracer: Tracer) -> dict:
        """Plain and traced run of one trial; any disagreement is a failure."""
        r_stop, wall = self.timed_run_trial(index)
        traced = traced_trial(self.code, self.workload.family, self.base_seed,
                              index, tracer)
        if traced.error:
            self.fail(index, f"traced decode: {traced.error}")
        elif traced.decoder.determined_bits() != traced.info.tolist():
            self.fail(index, "decoded bits differ from the information word")
        elif r_stop is not None and traced.r_stop != r_stop:
            self.fail(index, f"traced r_stop {traced.r_stop} != untraced {r_stop}")
        known = None
        if self.workload.family == "ldpc" and traced.r_stop is not None:
            known = sum(v is not None for v in traced.decoder.values)
        return {"index": index, "r_stop": r_stop, "wall_ms": wall / 1e6,
                "traced_r_stop": traced.r_stop, "known": known}


def trial_indices(seconds: float):
    """0, 1, ... until the time is up and at least MIN_TRIALS were given."""
    deadline = time.perf_counter() + seconds
    index = 0
    while index < MIN_TRIALS or time.perf_counter() < deadline:
        yield index
        index += 1


def run_untraced(run: Run, seconds: float) -> tuple[dict, list[str]]:
    # The set-ups are spread over the run, between timed trials, so that
    # their median does not hang on the host's speed at one moment.
    setups = []
    setup_due = time.perf_counter()
    for index in trial_indices(seconds):
        if len(setups) < SETUP_PROBES and time.perf_counter() >= setup_due:
            setups.append(cold_setup_s(run.workload.name))
            setup_due += seconds / SETUP_PROBES
        r_stop, wall = run.timed_run_trial(index)
        run.records.append({"index": index, "r_stop": r_stop, "wall_ms": wall / 1e6})
    while len(setups) < SETUP_PROBES:
        setups.append(cold_setup_s(run.workload.name))
    walls = [r["wall_ms"] for r in run.records]
    completed = sum(r["r_stop"] is not None for r in run.records)
    p90 = statistics.quantiles(walls, n=10)[8]
    blocks = one_second_blocks(walls)
    metrics = {
        "trials_per_s": completed / (sum(walls) / 1e3),
        "trial_ms_p50": statistics.fmean(map(statistics.median, blocks)),
        "trial_ms_p90": p90,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    beyond = sum(w > p90 for w in walls)
    return metrics, [f"trial_ms_p50 averages the medians of {len(blocks)} one-second blocks",
                     f"trial_ms_p90 from {len(walls)} samples, {beyond} beyond it",
                     f"setup_s is the median of {SETUP_PROBES} cold set-ups spread over the run"]


def one_second_blocks(walls_ms: list[float]) -> list[list[float]]:
    """Consecutive trials grouped into blocks of at least 1 s of trial time.

    The host's speed switches between phases that last seconds, so the
    median of all trials jumps with the share of the run spent in each
    phase; the mean of per-block medians moves smoothly with that share.
    """
    blocks, block, spent = [], [], 0.0
    for wall in walls_ms:
        block.append(wall)
        spent += wall
        if spent >= 1000.0:
            blocks.append(block)
            block, spent = [], 0.0
    if block:
        if blocks:
            blocks[-1].extend(block)
        else:
            blocks.append(block)
    return blocks


def cold_setup_s(workload_name: str) -> float:
    """One set-up of the workload's code in a fresh interpreter, in seconds."""
    done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload_name],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.split()[-1])


def run_traced(run: Run, seconds: float, tracer: Tracer) -> tuple[dict, list[str]]:
    for index in trial_indices(seconds):
        run.records.append(run.checked_trial(index, tracer))
        time_probes(run.workload, run.code, index, tracer)
    return layer_metrics(run, tracer.arrays())


def trace_check(run: Run, spans: dict[str, np.ndarray], roots: np.ndarray) -> str:
    """Fails every trial whose spans do not match its decode.

    Each trial needs exactly one root span and as many receive spans as
    its traced r_stop.  That children lie inside their root holds by the
    way traced_trial takes its clocks; it is checked to guard changes to
    tracing.py.
    """
    name, trial, parent = spans["name"], spans["trial"], spans["parent"]
    children = np.flatnonzero(parent != NO_PARENT)
    outside = children[(spans["start"][children] < spans["start"][parent[children]])
                       | (spans["end"][children] > spans["end"][parent[children]])]
    n = len(run.records)
    n_roots = np.bincount(trial[roots], minlength=n)
    decoder = FAMILY_LAYERS[run.workload.family][1]
    receives = np.bincount(trial[name == SPAN_ID[f"{decoder}.receive"]], minlength=n)
    bad = {i: "a child span lies outside its trial span" for i in trial[outside].tolist()}
    for r in run.records:
        i = r["index"]
        if n_roots[i] != 1:
            bad[i] = f"{n_roots[i]} root spans"
        elif r["traced_r_stop"] is not None and receives[i] != r["traced_r_stop"]:
            bad[i] = f"{receives[i]} receive spans, traced r_stop {r['traced_r_stop']}"
    for i, what in sorted(bad.items()):
        run.fail(i, f"trace check: {what}")
    return f"trace check: {'ok' if not bad else f'{len(bad)} trials VIOLATED'}"


def layer_metrics(run: Run, spans: dict[str, np.ndarray]) -> tuple[dict, list[str]]:
    """Per-layer metrics from the spans.

    Times are means per trial (per call for the probes and receive_us),
    over every traced trial, so that the layers add up to the trial.
    Counts use the first MIN_TRIALS trials, which every run with the same
    seed shares, so they repeat exactly.
    """
    name, trial, parent = spans["name"], spans["trial"], spans["parent"]
    dur_ms = (spans["end"] - spans["start"]) / 1e6
    roots = np.flatnonzero(name == SPAN_ID["harness.run_trial"])
    children = np.flatnonzero(parent != NO_PARENT)
    check_note = trace_check(run, spans, roots)
    n_trials = len(roots)
    base = MIN_TRIALS
    child_ms = np.bincount(parent[children], weights=dur_ms[children],
                           minlength=len(name))[roots]

    def is_(span: str) -> np.ndarray:
        return name == SPAN_ID[span]

    def per_trial(span: str) -> float:
        return float(dur_ms[is_(span)].sum()) / n_trials

    def per_call(span: str) -> float:
        picked = dur_ms[is_(span)]
        return float(picked.mean()) if len(picked) else 0.0

    metrics = {"trellis.table_build_ms": per_call("trellis.table_build"),
               "trellis.lookup_build_ms": per_call("trellis.lookup_build"),
               "turbo.spec_build_ms": per_call("turbo.spec_build"),
               "decoder.boundary_masks_ms": per_call("decoder.boundary_masks"),
               "ldpc.build_ms": per_call("ldpc.build")}
    for encoder, decoder in FAMILY_LAYERS.values():
        metrics[f"{encoder}.encode_ms"] = per_trial(f"{encoder}.encode")
        metrics[f"{decoder}.init_ms"] = per_trial(f"{decoder}.init")
        metrics[f"{decoder}.receive_ms"] = per_trial(f"{decoder}.receive")
        metrics[f"{decoder}.receive_us_per_call"] = per_call(f"{decoder}.receive") * 1e3
        metrics[f"{decoder}.receives_per_trial"] = (
            np.count_nonzero(is_(f"{decoder}.receive") & (trial < base)) / base)
    ldpc_base = [r for r in run.records if r["index"] < base and r["known"] is not None]
    known = sum(r["known"] for r in ldpc_base)
    peeled = sum(r["known"] - r["traced_r_stop"] for r in ldpc_base)
    metrics["ldpc.peeled_per_trial"] = peeled / len(ldpc_base) if ldpc_base else 0.0
    metrics["ldpc.peel_yield"] = peeled / known if known else 0.0
    metrics["harness.rng_ms"] = per_trial("harness.rng")
    metrics["harness.self_ms"] = float((dur_ms[roots] - child_ms).mean())
    untraced_ms = sum(r["wall_ms"] for r in run.records)
    metrics["trace.overhead_pct"] = (dur_ms[roots].sum() / untraced_ms - 1.0) * 100.0
    return metrics, [
        f"times over {n_trials} traced trials; counts over the first {base}",
        f"peel_yield = {peeled} peeled / {known} known variables over "
        f"{len(ldpc_base)} LDPC trials",
        check_note]


def mu_check(run: Run) -> tuple[str, bool]:
    """mu_av of the run, checked against the reference at its seed."""
    done = [r["r_stop"] for r in run.records if r["r_stop"] is not None]
    K = run.code.K
    note = (f"mu_av {sum(done) / len(done) / K:.6f} over {len(done)} trials"
            if done else "no trial completed")
    ref = json.loads(REFERENCE.read_text())
    expected = ref["mu_av"].get(run.workload.name)
    n_ref = ref["trials"]
    assert n_ref <= MIN_TRIALS, "reference.json covers more trials than a run runs"
    if run.base_seed != ref["base_seed"] or expected is None:
        return f"{note}; no reference for seed {run.base_seed}", True
    prefix = [r["r_stop"] for r in run.records[:n_ref]]
    if None in prefix:
        return f"{note}; a trial of the reference failed", False
    got = f"{sum(prefix) / n_ref / K:.6f}"
    ok = got == expected
    return (f"{note}; first {n_ref} trials {got}, reference {expected}: "
            + ("ok" if ok else "MISMATCH")), ok


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc})"
    return done.stdout.strip() or "unknown"


def write_outputs(run: Run, trace: int, tracer: Tracer | None, result: dict) -> None:
    """Per-trial records, spans (traced run) and the full result, in out/."""
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{run.workload.name}.trace{trace}"
    fields = ["index", "r_stop", "wall_ms"] + (["traced_r_stop"] if trace else [])
    with open(f"{stem}.trials.csv", "w") as fh:
        fh.write(",".join(fields) + "\n")
        for r in run.records:
            fh.write(",".join("" if r[f] is None else str(r[f]) for f in fields) + "\n")
    if tracer is not None:
        tracer.save(f"{stem}.spans.npz")
    Path(f"{stem}.result.json").write_text(json.dumps(result, indent=2) + "\n")


def run_one(args) -> int:
    load_turbobec()
    workload = WORKLOADS[args.workload]
    load_start = os.getloadavg()
    code = workload.build()
    run = Run(workload, code, args.seed)
    for index in range(WARMUP_TRIALS):  # checked, not timed
        run.checked_trial(index, Tracer())
    tracer = Tracer() if args.trace else None
    if tracer is None:
        values, notes = run_untraced(run, args.seconds)
        table = END_TO_END
    else:
        values, notes = run_traced(run, args.seconds, tracer)
        table = PER_LAYER
    mu_note, mu_ok = mu_check(run)
    provenance = {
        "git_commit": git_commit(), "python": platform.python_version(),
        "numpy": np.__version__, "nproc": os.cpu_count(),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "workload": workload.name, "fingerprint": code.fingerprint(),
        "base_seed": args.seed, "trials": len(run.records),
        "seconds": args.seconds, "trace": args.trace,
    }
    metrics = {k: {"value": float(values[k]), "unit": unit}
               for k, (unit, _) in table.items()}
    failed = len(run.failures)
    summary = {"correct": failed == 0 and mu_ok, "attempted": run.attempted,
               "failed": failed, "metrics": metrics}

    print(f"perfbench {workload.name} trace={args.trace}")
    print("provenance " + json.dumps(provenance))
    for k, m in metrics.items():
        print(f"  {k:28s} {m['value']:14.6f} {m['unit']}")
    for line in notes + [mu_note,
                         f"error_rate {failed / run.attempted:.6f} "
                         f"({failed} failed / {run.attempted} attempted)"]:
        print(f"  {line}")
    write_outputs(run, args.trace, tracer,
                  dict(summary, provenance=provenance, notes=notes,
                       mu_av=mu_note,
                       failures=[f"trial {i}: {w}" for i, w in run.failures.items()]))
    print(json.dumps(summary))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a process of its own."""
    load_turbobec()
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            done = subprocess.run(cmd, capture_output=True, text=True)
            sys.stderr.write(done.stderr)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                raise SystemExit(f"perfbench: {name} trace={trace} exited "
                                 f"with {done.returncode}")
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for k, m in result["metrics"].items():
                combined["metrics"][f"{name}/{k}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="base trial seed")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
