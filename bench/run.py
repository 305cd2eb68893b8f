"""stopflow benchmark: time to certified boundaries on both engines, Monte Carlo
throughput, and per-layer counters.

    python3 bench/run.py --workload closed_form --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a separately traced run.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it, prefixed ``# record``, holds
the host facts and sample counts.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# one process, one thread: the single-threaded baseline
THREAD_VARS = ("STOPFLOW_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return out.stdout.strip() or "unknown"


def _host() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("closed_form", "numerical", "montecarlo"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("need --seed >= 0 and --seconds > 0")

    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import stopflow
    except ImportError as exc:
        print(f"cannot import stopflow from {src}: {exc}", file=sys.stderr)
        return 2
    if not Path(stopflow.__file__).resolve().is_relative_to(src):
        print(f"stopflow imported from {stopflow.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    result = workloads.run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "samples": result.pop("_samples"),
        "failures": result.pop("_failures")[:20], "host": _host(),
    }
    for line in record["failures"]:
        print(f"# FAIL {line}")
    print("# record " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
