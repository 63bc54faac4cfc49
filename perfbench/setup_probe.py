"""Times one cold set-up of a workload in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD

Prints the seconds taken to build the workload's code and start its
first decoder.  The clock starts after the imports and after numpy's
random generator has been used once, so it holds turbobec's own
first-build cost, including any module-level cache it fills.
"""

import sys
import time

import numpy as np

from workloads import WORKLOADS, load_turbobec


def main() -> None:
    workload = WORKLOADS[sys.argv[1]]
    load_turbobec()
    np.random.Generator(np.random.PCG64(np.random.SeedSequence(0))).permutation(
        np.tile(np.arange(4), 2))
    start = time.perf_counter()
    workload.build().start_decoder()
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
