"""Check that the benchmark's exact counts repeat across two runs at one seed.

    python3 perfbench/selftest.py [--workload rmat] [--seed 3] [--seconds 4]

Runs the traced benchmark twice and compares the per-layer counts that
later changes may cite as count-based evidence: additions per iteration,
share ratio, delta sets, tier hits, batcher flushes and delta segments.
Exits 1 when any differs, or when either run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXACT = (
    "dmst_reduce.share_ratio",
    "dmst_reduce.delta_sets",
    "sharing_engine.additions_per_iter",
    "sharing_engine.peak_values",
    "psum_sr.additions_per_iter",
    "solve.addition_ratio",
    "service.hits.cache",
    "service.hits.index",
    "service.hits.compute",
    "batcher.flushes",
    "batcher.rows_per_flush",
    "catalog.delta_segments",
    "loadgen.sent",
)


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if completed.returncode != 0:
        raise SystemExit(f"run failed:\n{completed.stderr}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    return {name: result["metrics"][name]["value"] for name in EXACT}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="rmat")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=4)
    args = parser.parse_args(argv)
    first = traced_run(args.workload, args.seed, args.seconds)
    second = traced_run(args.workload, args.seed, args.seconds)
    differing = [name for name in EXACT if first[name] != second[name]]
    for name in EXACT:
        mark = "DIFFERS" if name in differing else "same"
        print(f"{name:36s} {first[name]!r:>14} {second[name]!r:>14}  {mark}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
