"""Solve phase: all-pairs SimRank with four methods through ``repro.simrank``."""

from __future__ import annotations

import functools
import gc
import time
from typing import Optional

import numpy as np

from .common import HostSpeed, median
from .spans import SpanRecorder, span

DAMPING = 0.6
ITERATIONS = 14
ACCURACY = 1e-3
TOLERANCE = 1e-12
METHODS = ("oip-sr", "psum", "matrix", "oip-dsr")


def _params(method: str) -> dict:
    # OIP-DSR and its matrix oracle stop on the accuracy bound; the others
    # run the fixed iteration count.
    if method in ("oip-dsr", "diff-matrix"):
        return {"damping": DAMPING, "accuracy": ACCURACY}
    return {"damping": DAMPING, "iterations": ITERATIONS}


def _max_error(first, second) -> float:
    return float(np.max(np.abs(np.asarray(first.scores) - np.asarray(second.scores))))


class Solver:
    """Times rounds of the four solvers; the first round is also gated."""

    def __init__(self, graph, speed: HostSpeed) -> None:
        self.graph = graph
        self.speed = speed
        self.seconds: dict[str, list[float]] = {method: [] for method in METHODS}
        self.round_seconds: list[float] = []
        self.errors: dict[str, float] = {}
        self.anchors: dict[str, float] = {}

    def round(self, recorder: Optional[SpanRecorder] = None) -> None:
        """One solve with every method; times are scaled to reference speed."""
        steps = [functools.partial(self._solve, method, recorder) for method in METHODS]
        kept, total = {}, 0.0
        for method, ((seconds, result), factor) in zip(
            METHODS, self.speed.scaled_each(steps)
        ):
            self.seconds[method].append(seconds * factor)
            total += seconds * factor
            if not self.errors:
                kept[method] = result
            del result
        self.round_seconds.append(total)
        if kept:
            self._gate(kept)

    def _solve(self, method: str, recorder: Optional[SpanRecorder]):
        from repro import simrank

        gc.collect()
        started = time.perf_counter()
        with span(recorder, "api.simrank", method=method):
            result = simrank(self.graph, method=method, **_params(method))
        return time.perf_counter() - started, result

    def _gate(self, kept: dict) -> None:
        from repro import simrank

        oip, psum = kept["oip-sr"], kept["psum"]
        self.errors["oip-sr vs psum"] = _max_error(oip, psum)
        oracle = simrank(self.graph, method="diff-matrix", **_params("diff-matrix"))
        self.errors["oip-dsr vs diff-matrix"] = _max_error(kept["oip-dsr"], oracle)
        plan = oip.extra["plan"]
        self.anchors = {
            "sharing_engine.additions_per_iter": oip.extra["additions_per_iteration"],
            "sharing_engine.peak_values": oip.peak_intermediate_values,
            "psum_sr.additions_per_iter": psum.extra["additions_per_iteration"],
            "dmst_reduce.share_ratio": plan["share_ratio"],
            "dmst_reduce.delta_sets": plan["shared_nodes"],
        }

    @property
    def correct(self) -> bool:
        return bool(self.errors) and all(
            error <= TOLERANCE for error in self.errors.values()
        )

    def typical(self, method: str) -> float:
        """Scaled seconds per solve, median over the rounds."""
        return median(self.seconds[method])
