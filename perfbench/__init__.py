"""Seeded end-to-end benchmark for the SimRank reproduction.

Run one workload with ``python3 perfbench/run.py --workload web --seed 1
--seconds 30 --trace 0``; see ``perfbench/README.md`` for the workloads,
the metrics and which layer each per-layer metric is expected to move.
"""
