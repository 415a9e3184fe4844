"""OIP-SR — SimRank with inner and outer partial-sums sharing (Algorithm 1).

This is the paper's first contribution: conventional SimRank iterations
(Eq. 2) executed over the sharing plan produced by ``DMST-Reduce``, so that

* the partial sum of an in-neighbour set is derived from its tree parent's
  cached partial sum via a symmetric-difference update (inner sharing,
  Prop. 3), and
* the outer sums over target in-neighbour sets are derived along the same
  tree (outer sharing, Prop. 4),

which lowers the per-iteration cost from ``O(d n²)`` (psum-SR) to
``O(d' n²)`` with ``d'`` governed by the in-neighbour-set overlap.  The
iterate itself is kept per in-neighbour class, one row and column per
distinct set (:class:`~repro.core.sharing_engine.ClassState`), and expanded
to ``n × n`` once, after the last iteration.

Reachable through the unified dispatch entry point as
``repro.simrank(graph, method="oip-sr", ...)``; the per-vertex sharing
arithmetic is backend-agnostic, so the dispatch layer treats it as a
``dense``-only method.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..graph.digraph import DiGraph
from .convergence import ConvergenceTrace
from .dmst_reduce import check_plan, dmst_reduce
from .instrumentation import Instrumentation
from .iteration_bounds import conventional_iterations
from .result import (
    SimRankResult,
    sieve,
    validate_damping,
    validate_iterations,
    validate_threshold,
)
from .sharing_engine import SharingEngine

__all__ = ["oip_sr"]


def oip_sr(
    graph: DiGraph,
    damping: float = 0.6,
    iterations: Optional[int] = None,
    accuracy: float = 1e-3,
    plan=None,
    candidate_strategy: str = "common-neighbor",
    max_candidates_per_set: int = 16,
    threshold: float = 0.0,
    record_residuals: bool = False,
) -> SimRankResult:
    """Compute all-pairs SimRank with partial-sums sharing (OIP-SR).

    Parameters
    ----------
    graph:
        Input graph.
    damping:
        The damping factor ``C`` (the paper's experiments default to 0.6).
    iterations:
        Number of iterations ``K``.  When ``None`` it is derived from
        ``accuracy`` as ``K = ⌈log_C ε⌉`` (the paper's guarantee).
    accuracy:
        Target accuracy ``ε`` used when ``iterations`` is ``None``; also
        recorded in the result metadata.
    plan:
        A pre-built :class:`~repro.core.plans.SharingPlan`.  Passing one
        skips the ``DMST-Reduce`` phase, which is how the benchmarks measure
        the "share sums" phase in isolation (Fig. 6b).  It must be built
        for ``graph``: :func:`~repro.core.dmst_reduce.check_plan` raises
        :class:`~repro.exceptions.ConfigurationError` otherwise.
    candidate_strategy, max_candidates_per_set:
        Forwarded to :func:`~repro.core.dmst_reduce.dmst_reduce` when the
        plan is built here.
    threshold:
        Threshold-sieving value ``δ`` (Lizorkin et al.'s third optimisation,
        which composes with partial-sums sharing unchanged): scores below the
        threshold are clamped to zero after every iteration, by
        :func:`~repro.core.result.sieve`: a score equal to ``δ`` in exact
        arithmetic is kept, whatever order summed it, so OIP-SR and psum-SR
        sieve the same entries.  0 disables sieving and keeps the
        computation exact; a negative or NaN threshold raises
        :class:`~repro.exceptions.ConfigurationError`.
    record_residuals:
        When ``True``, the max-norm difference between successive iterates
        is stored in ``result.extra["residuals"]`` (used by Fig. 6e).

    Returns
    -------
    SimRankResult
        Scores following the iterative-form convention (diagonal pinned to
        1), plus instrumentation and the plan summary in ``extra``.
    """
    damping = validate_damping(damping)
    if iterations is None:
        iterations = conventional_iterations(accuracy, damping)
    iterations = validate_iterations(iterations)
    threshold = validate_threshold(threshold)

    instrumentation = Instrumentation()
    if plan is None:
        plan = dmst_reduce(
            graph,
            candidate_strategy=candidate_strategy,
            max_candidates_per_set=max_candidates_per_set,
            instrumentation=instrumentation,
        )
    else:
        check_plan(plan, graph)

    engine = SharingEngine(graph, plan, instrumentation=instrumentation)
    trace = ConvergenceTrace(model="conventional", damping=damping)

    n = graph.num_vertices
    scores = np.empty((n, n))  # allocated first; see SharingEngine.expand
    state = engine.initial_state()
    with instrumentation.timer.phase("share_sums"):
        for _ in range(iterations):
            updated = engine.iterate(state, factor=damping, pin_diagonal=True)
            if threshold > 0.0:
                sieve(updated.matrix, threshold)
                engine.pin(updated)
            if record_residuals:
                trace.record(updated.max_difference(state))
            state = updated
        engine.expand(state, out=scores)

    extra: dict[str, object] = {
        "accuracy": accuracy,
        "threshold": threshold,
        "plan": plan.summary(),
        "additions_per_iteration": engine.additions_per_iteration(),
    }
    if record_residuals:
        extra["residuals"] = list(trace.residuals)
    return SimRankResult(
        scores=scores,
        graph=graph,
        algorithm="oip-sr",
        damping=damping,
        iterations=iterations,
        instrumentation=instrumentation,
        extra=extra,
    )
