"""Turbo and staircase-LDPC erasure codecs over the binary erasure channel.

The decoders are "on-the-fly": they consume codeword symbols one at a
time, in any order, and report success as soon as every information bit
is pinned down.  The Monte-Carlo harness measures the resulting decoding
inefficiency and gap to capacity.
"""

__version__ = "0.1.0"

from .decoder import (DecodeOutcome, Status, TurboErasureDecoder,
                      boundary_masks)
from .harness import RunStats, TrialRecord, run_campaign, run_trial, sweep
from .ldpc import (PeelingDecoder, StaircaseCode, build_irregular_staircase,
                   build_regular_staircase, load_degree_distribution)
from .trellis import (LookupMasks, RscSpec, TransitionTable, UNKNOWN,
                      format_mask)
from .turbo import (Interleaver, PunctureMap, TurboCodeSpec,
                    identity_interleaver, load_interleaver,
                    make_pr_interleaver, make_puncture_map, make_turbo_spec,
                    parse_puncture_patterns)

__all__ = [
    "DecodeOutcome", "Status", "TurboErasureDecoder", "boundary_masks",
    "RunStats", "TrialRecord", "run_campaign", "run_trial", "sweep",
    "PeelingDecoder", "StaircaseCode", "build_irregular_staircase",
    "build_regular_staircase", "load_degree_distribution", "LookupMasks",
    "RscSpec", "TransitionTable", "UNKNOWN", "format_mask", "Interleaver",
    "PunctureMap", "TurboCodeSpec", "identity_interleaver",
    "load_interleaver", "make_pr_interleaver", "make_puncture_map",
    "make_turbo_spec", "parse_puncture_patterns",
]
