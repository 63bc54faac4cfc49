"""The benchmark's workloads and the import of turbobec from the checkout.

Each workload is one code under test, built with fixed construction
seeds; the trial seed is a benchmark argument.  The benchmark always
measures the turbobec sources of the checkout it sits in (``src/`` next
to this directory), never an installed copy.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_turbobec():
    """Imports turbobec from the checkout's ``src/``; exits if it is missing."""
    package = SRC / "turbobec"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no turbobec sources at {package}")
    sys.path.insert(0, str(SRC))
    import turbobec

    if Path(turbobec.__file__).resolve().parent != package:
        raise SystemExit(f"perfbench: imported turbobec from {turbobec.__file__}, "
                         f"not from {package}")
    return turbobec


@dataclass(frozen=True)
class Workload:
    name: str
    family: str  # "turbo" or "ldpc"
    K: int
    rate: Fraction
    rsc_polys: tuple[int, int, int] | None = None  # (feedback, forward, L)
    interleaver_seed: int | None = None
    ldpc_seed: int | None = None

    def rsc(self):
        from turbobec import RscSpec

        return RscSpec(*self.rsc_polys)

    def build(self):
        """The code under test: interleaver + turbo spec, or staircase LDPC."""
        if self.family == "turbo":
            from turbobec import make_pr_interleaver, make_turbo_spec

            return make_turbo_spec(self.rsc(), self.K,
                                   make_pr_interleaver(self.K, self.interleaver_seed),
                                   rate=self.rate)
        from turbobec import build_regular_staircase

        return build_regular_staircase(self.K, self.rate, seed=self.ldpc_seed)


WORKLOADS = {w.name: w for w in (
    # Why each workload exists: BENCHMARK.json and README.md.
    Workload("turbo75-r13-k1024", "turbo", 1024, Fraction(1, 3),
             rsc_polys=(0o7, 0o5, 3), interleaver_seed=7),
    Workload("turbo1315-r12-k1024", "turbo", 1024, Fraction(1, 2),
             rsc_polys=(0o13, 0o15, 4), interleaver_seed=7),
    Workload("ldpc-r13-k1024", "ldpc", 1024, Fraction(1, 3), ldpc_seed=5),
)}
