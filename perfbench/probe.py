"""Set-up probe: import relsem in a fresh process and run one warm-up operation.

Usage: python3 perfbench/probe.py <workload> <src-dir>

Prints the seconds from before ``import relsem`` until the warm-up
operation returns.  run.py starts it several times and reports the median
as ``setup_s``.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402

if __name__ == "__main__":
    sys.path.insert(0, sys.argv[2])
    import relsem  # noqa: E402,F401
    import workloads  # noqa: E402

    workload = workloads.WORKLOADS[sys.argv[1]]
    workload.run(workload.warmup_input())
    print(repr(time.perf_counter() - START))
