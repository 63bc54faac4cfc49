"""Spans recorded by the benchmark around calls into turbobec's public API.

A span is one row of flat arrays: name, start, end, parent row and trial
index.  Spans stay in memory and are written out once, when the run
ends.  Times are ``perf_counter_ns`` values.  Nothing here reaches
inside turbobec: spans wrap the public calls a trial makes.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from time import perf_counter_ns

import numpy as np

NO_PARENT = -1

SPAN_NAMES = (
    "harness.run_trial",       # root span of one traced trial
    "harness.rng",             # trial_rng + info draw, and the permutation
    "turbo.encode",
    "decoder.init",            # TurboCodeSpec.start_decoder()
    "decoder.receive",
    "ldpc.encode",
    "ldpc.init",               # StaircaseCode.start_decoder()
    "ldpc.receive",
    # Probes, timed alone once per trial, outside the trial span:
    "turbo.spec_build",        # make_pr_interleaver + make_turbo_spec
    "trellis.table_build",     # TransitionTable(rsc)
    "trellis.lookup_build",    # LookupMasks(table)
    "decoder.boundary_masks",  # boundary_masks(table, K)
    "ldpc.build",              # build_regular_staircase
)
SPAN_ID = {name: i for i, name in enumerate(SPAN_NAMES)}

# Per code family, the module that encodes and the module that decodes; the
# spans are "<encoder>.encode", "<decoder>.init" and "<decoder>.receive".
FAMILY_LAYERS = {"turbo": ("turbo", "decoder"), "ldpc": ("ldpc", "ldpc")}


class Tracer:
    def __init__(self):
        self.name = array("b")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.trial = array("i")

    def add(self, name_id: int, start: int, end: int, trial: int,
            parent: int = NO_PARENT) -> int:
        row = len(self.name)
        self.name.append(name_id)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.trial.append(trial)
        return row

    def arrays(self) -> dict[str, np.ndarray]:
        """The spans as numpy arrays; call once, after the last span."""
        return {field: np.frombuffer(getattr(self, field),
                                     dtype=np.dtype(getattr(self, field).typecode))
                for field in ("name", "start", "end", "parent", "trial")}

    def save(self, path) -> None:
        np.savez(path, names=np.array(SPAN_NAMES), **self.arrays())


@dataclass
class TracedTrial:
    info: np.ndarray
    decoder: object
    r_stop: int | None
    error: str | None


def traced_trial(code, family: str, base_seed: int, index: int,
                 tracer: Tracer) -> TracedTrial:
    """``harness.run_trial`` step for step, with a span around each call.

    Draws, encodes and receives exactly as run_trial does, so r_stop
    must equal run_trial's for the same (base_seed, index).
    """
    from turbobec import Status
    from turbobec.harness import trial_rng

    encoder, decoder_layer = FAMILY_LAYERS[family]
    encode_id = SPAN_ID[f"{encoder}.encode"]
    init_id = SPAN_ID[f"{decoder_layer}.init"]
    receive_id = SPAN_ID[f"{decoder_layer}.receive"]
    rng_id = SPAN_ID["harness.rng"]
    add = tracer.add
    clock = perf_counter_ns
    root = add(SPAN_ID["harness.run_trial"], clock(), 0, index)

    t0 = clock()
    rng = trial_rng(base_seed, index)
    info = rng.integers(0, 2, code.K, dtype=np.uint8)
    add(rng_id, t0, clock(), index, root)
    t0 = clock()
    codeword = code.encode(info)
    add(encode_id, t0, clock(), index, root)
    t0 = clock()
    order = rng.permutation(code.N)
    add(rng_id, t0, clock(), index, root)
    t0 = clock()
    decoder = code.start_decoder()
    add(init_id, t0, clock(), index, root)

    r_stop = error = None
    for count, sym in enumerate(order, start=1):
        sym = int(sym)
        value = int(codeword[sym])
        t0 = clock()
        outcome = decoder.receive(sym, value)
        add(receive_id, t0, clock(), index, root)
        if outcome.status is Status.CONTRADICTION:
            error = f"contradiction after {count} receptions"
            break
        if outcome.status is Status.SUCCESS:
            r_stop = count
            break
    else:
        error = "full reception did not reach success"
    tracer.end[root] = clock()
    return TracedTrial(info, decoder, r_stop, error)


def time_probes(workload, code, index: int, tracer: Tracer) -> None:
    """Times the per-code construction layers alone, one span each."""
    from turbobec import LookupMasks, TransitionTable, boundary_masks

    clock = perf_counter_ns
    if workload.family == "ldpc":
        t0 = clock()
        workload.build()
        tracer.add(SPAN_ID["ldpc.build"], t0, clock(), index)
        return
    t0 = clock()
    workload.build()
    tracer.add(SPAN_ID["turbo.spec_build"], t0, clock(), index)
    rsc = workload.rsc()
    t0 = clock()
    table = TransitionTable(rsc)
    tracer.add(SPAN_ID["trellis.table_build"], t0, clock(), index)
    t0 = clock()
    LookupMasks(table)
    tracer.add(SPAN_ID["trellis.lookup_build"], t0, clock(), index)
    t0 = clock()
    boundary_masks(code.table, code.K)
    tracer.add(SPAN_ID["decoder.boundary_masks"], t0, clock(), index)
