"""Benchmark of the ncphase command-line tool.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload trajectories --seed 1 --seconds 40 --trace 0

Workloads are defined in `workloads.py`.  The package is run from ``src/``
without being installed.  With ``--trace 0`` the run reports the end-to-end
metrics, with ``--trace 1`` the per-layer ones; a human-readable report
comes first and the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import sys
from pathlib import Path

# BLAS threads are fixed before numpy loads: with the default thread pool the
# N = 50 linear algebra was bimodal from one pass to the next on 2 cores.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "ncphase" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no ncphase sources under {src}\n")
        return 2
    sys.path.insert(0, str(src))

    import bench
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    result = bench.main(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
