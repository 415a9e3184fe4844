"""Run one benchmark workload and print its result as the last output line.

    python3 perfbench/run.py --workload web --seed 1 --seconds 30 --trace 0

Each workload is one graph pair and runs every phase on it:

* set-up: start ``python -m repro.cli serve`` five times (median ready time);
* serve-read: Zipf top-10 stream over TCP, open loop at a fixed rate (and
  a rate search in traced runs), answers checked against an in-process
  engine;
* solve: all-pairs SimRank with oip-sr, psum, matrix and oip-dsr, gated
  against each other and against diff-matrix;
* serve-write: catalog-backed reads beside edge inserts and refreshes,
  gated against a from-scratch rebuild and a reopened catalog.

Times are scaled to reference host speed (``perfbench.common.HostSpeed``).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
phases untraced and then with span wrappers around each layer, and reports
the per-layer metrics.  A failed correctness gate exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.phases import WORKLOADS, run_workload  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.environ["REPRO_COST_PROFILE"] = "static"
    # A terminated run still stops its server and removes its work files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    workdir = os.path.join(ROOT, ".perfbench-work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    started = time.perf_counter()
    try:
        result = run_workload(
            ROOT, workdir, args.workload, args.seed, args.seconds,
            bool(args.trace),
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, metric in result["metrics"].items():
        if not math.isfinite(metric["value"]):
            print(f"perfbench: metric {name} was not measured", file=sys.stderr)
            return 1
    print(
        f"perfbench: workload={args.workload} seed={args.seed} "
        f"trace={args.trace} wall={time.perf_counter() - started:.1f}s "
        f"details={json.dumps(result.pop('details'))}",
        file=sys.stderr,
    )
    for name, metric in result["metrics"].items():
        print(f"{name:36s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
