"""Run every workload untraced and traced once and write a run record.

    python3 bench/report.py --seed 1 --seconds 30 --out bench/out/report.json

The record holds the host facts, each workload's end-to-end metrics, its
per-layer metrics, the tracing overhead (traced minus untraced pass time,
both measured inside the traced run) and the layer shares the benchmark
singles out: on ``numerical`` the flow build plus dense evaluation time,
on ``closed_form`` the coarse predicate screen, each as a share of the
traced solve time.  To compare two commits, run this script on each with
the same arguments and compare the ``end_to_end`` blocks metric by metric.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("closed_form", "numerical", "montecarlo")


def _run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = out.stdout.strip().splitlines()
    record = json.loads(lines[-2].removeprefix("# record "))
    return record, json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--out", type=Path, default=BENCH / "out" / "report.json")
    args = ap.parse_args(argv)

    report = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for name in WORKLOADS:
        record, e2e = _run(name, args.seed, args.seconds, 0)
        _, layers = _run(name, args.seed, args.seconds, 1)
        report["host"] = record["host"]
        lay = {k: v["value"] for k, v in layers["metrics"].items()}
        report["workloads"][name] = {
            "samples": record["samples"],
            "attempted": e2e["attempted"] + layers["attempted"],
            "failed": e2e["failed"] + layers["failed"],
            "end_to_end": {k: v["value"] for k, v in e2e["metrics"].items()},
            "tracing_overhead_s": lay["trace.overhead_s"],
            "tracing_overhead_ratio": lay["trace.overhead_ratio"],
            "share_flow_of_solve": lay["share.flow_of_solve"],
            "share_coarse_of_solve": lay["share.coarse_of_solve"],
            "per_layer": lay,
        }
        w = report["workloads"][name]
        print(f"{name:12s} solve_s={w['end_to_end']['solve_s']:.3f} "
              f"failed={w['failed']}/{w['attempted']} "
              f"overhead={w['tracing_overhead_ratio']:+.1%} "
              f"flow/solve={w['share_flow_of_solve']:.1%} "
              f"coarse/solve={w['share_coarse_of_solve']:.1%}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
