"""Set-up time of one fresh process: import gofevid, then warm one workload up.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED TMPDIR WORKERS
Prints the seconds from the start of this script to the end of the warm-up.
run.py starts several of these and reports their median as ``setup_s``.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports gofevid, numpy and scipy)


def main() -> None:
    name, seed, tmp, workers = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]), int(sys.argv[4])
    workloads.WORKLOADS[name](seed, tmp, workers).warmup()
    print(repr(time.perf_counter() - T0))


if __name__ == "__main__":
    main()
