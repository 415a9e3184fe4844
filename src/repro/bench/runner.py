"""Experiment runner: a uniform way to invoke every solver and collect rows.

The benchmark harness (both the ``benchmarks/`` pytest-benchmark suite and
the ``repro-simrank`` CLI) needs to run the same four algorithms the paper
compares — OIP-DSR, OIP-SR, psum-SR, mtx-SR — plus the auxiliary solvers,
over many graphs and parameter settings, and collect comparable measurement
rows.  :func:`run_algorithm` forwards to the unified
:func:`repro.api.simrank` dispatch entry point (so every figure can be
reproduced on either compute backend), and :class:`ExperimentReport` is the
common container every experiment module returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..api import method_spec, simrank
from ..core.backends import get_backend
from ..core.result import SimRankResult
from ..graph.digraph import DiGraph

__all__ = ["run_algorithm", "ExperimentReport", "measurement_row"]


def _active_profile_digest() -> str:
    # Imported lazily: the engine layer imports this module's report type.
    from ..engine.cost_model import active_cost_profile_digest

    return active_cost_profile_digest()


def run_algorithm(
    name: str,
    graph: DiGraph,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    **params,
) -> SimRankResult:
    """Run the named algorithm on ``graph`` and return its result.

    Parameters
    ----------
    name:
        A method name or alias of :func:`repro.api.simrank` (the paper's
        names — ``oip-dsr``, ``oip-sr``, ``psum-sr``, ``mtx-sr`` — are
        aliases there).
    graph:
        Input graph.
    backend:
        Optional compute backend.  The name must exist in the backend
        registry (typos raise); it is then forwarded only to methods that
        can honour it — the experiments sweep many algorithms with one
        setting, so a *valid* backend request is a preference here, not a
        hard constraint (call :func:`repro.api.simrank` directly for strict
        dispatch).
    workers:
        Optional process-parallel worker count, forwarded — like
        ``backend`` — only to methods that can honour it (the matrix-form
        solver); serial-only methods keep running serial rather than
        raising, matching the sweep-many-algorithms semantics above.
    **params:
        Forwarded verbatim to the underlying solver (``damping``,
        ``iterations``, ``accuracy``, ...).
    """
    capabilities = method_spec(name).capabilities
    if backend is not None:
        get_backend(backend)  # unknown names must raise, not silently drop
        if not capabilities.accepts_backend and backend not in capabilities.backends:
            backend = None
    if workers is not None and not capabilities.accepts_workers:
        workers = None
    return simrank(graph, method=name, backend=backend, workers=workers, **params)


def measurement_row(result: SimRankResult, **extra: object) -> dict[str, object]:
    """Flatten one result into a benchmark-table row.

    The row contains the summary statistics every figure needs (algorithm,
    graph size, iterations, seconds, counted additions, peak intermediate
    memory) plus the per-phase timing split used by Fig. 6b.
    """
    row = result.summary()
    timer = result.instrumentation.timer
    row["build_mst_seconds"] = round(timer.get("build_mst"), 6)
    row["share_sums_seconds"] = round(timer.get("share_sums"), 6)
    row["build_mst_share"] = round(timer.share("build_mst"), 4)
    row.update(extra)
    return row


@dataclass
class ExperimentReport:
    """Output of one experiment module (one figure or table of the paper).

    Attributes
    ----------
    experiment:
        Identifier such as ``"fig6a"``.
    title:
        Human-readable title (what the paper's figure shows).
    rows:
        Measurement rows; keys vary per experiment but are consistent within
        one report.
    notes:
        Free-form notes, e.g. which paper claims the rows support.
    cost_profile:
        Digest of the cost profile that was active when the report was
        created (``"static"`` for the built-in planner weights) — so a
        benchmark trajectory records which host calibration priced its
        plans.
    metrics:
        Named observability snapshots (:meth:`attach_metrics`): each key
        is a label such as ``"service"`` and each value a
        :meth:`~repro.obs.MetricsRegistry.snapshot` payload or span tree.
        Serialised only when non-empty, so reports from experiments that
        attach nothing keep their historical JSON shape.
    """

    experiment: str
    title: str
    rows: list[dict[str, object]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    cost_profile: str = field(default_factory=lambda: _active_profile_digest())
    metrics: dict[str, object] = field(default_factory=dict)

    def add_row(self, row: dict[str, object]) -> None:
        """Append one measurement row."""
        self.rows.append(row)

    def add_note(self, note: str) -> None:
        """Append one free-form note."""
        self.notes.append(note)

    def attach_metrics(self, label: str, snapshot: object) -> None:
        """Attach one named observability snapshot (registry dump, span
        tree, slow-query log) so BENCH_*.json carries per-tier hit and
        latency series alongside the measurement rows."""
        self.metrics[label] = snapshot

    def filter(self, **criteria: object) -> list[dict[str, object]]:
        """Return the rows matching all ``key=value`` criteria."""
        matched = []
        for row in self.rows:
            if all(row.get(key) == value for key, value in criteria.items()):
                matched.append(row)
        return matched

    def column(self, key: str, **criteria: object) -> list[object]:
        """Return one column from the matching rows."""
        return [row.get(key) for row in self.filter(**criteria)]

    def to_dict(self) -> dict[str, object]:
        """Return a JSON-serialisable payload of the whole report."""
        payload: dict[str, object] = {
            "experiment": self.experiment,
            "title": self.title,
            "rows": [dict(row) for row in self.rows],
            "notes": list(self.notes),
            "cost_profile": self.cost_profile,
        }
        if self.metrics:
            payload["metrics"] = dict(self.metrics)
        return payload
