"""Benchmark harness: runner, result formatting and per-figure experiments."""

from .results import format_report, format_table, speedup
from .runner import ExperimentReport, measurement_row, run_algorithm

__all__ = [
    "format_report",
    "format_table",
    "speedup",
    "ExperimentReport",
    "measurement_row",
    "run_algorithm",
]
