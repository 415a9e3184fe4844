"""OIP-DSR — differential SimRank computed with partial-sums sharing.

The paper observes (end of Section IV) that the auxiliary recursion of the
differential model,

``[T_{k+1}]_{(a,b)} = (1 / (|I(a)|·|I(b)|)) Σ_{j∈I(b)} Σ_{i∈I(a)} [T_k]_{(i,j)}``,

has exactly the shape of the conventional SimRank update (Eq. 2) minus the
damping factor, so the whole inner/outer partial-sums sharing machinery of
Section III applies unchanged.  OIP-DSR therefore runs the shared-sums
engine with ``factor = 1`` and no diagonal pinning to advance ``T_k``, and
accumulates the exponential series
``Ŝ_{k+1} = Ŝ_k + e^{-C}·C^{k+1}/(k+1)!·T_{k+1}`` on the side.  Both stay
in class space (:class:`~repro.core.sharing_engine.ClassState`) until the
series is expanded to ``n × n`` once, at the end.

Because the series converges at an exponential (rather than geometric) rate,
OIP-DSR reaches a target accuracy in far fewer iterations than OIP-SR —
that is the 5× further speed-up reported in the paper's experiments.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..graph.digraph import DiGraph
from .convergence import ConvergenceTrace
from .dmst_reduce import check_plan, dmst_reduce
from .instrumentation import Instrumentation
from .iteration_bounds import differential_iterations_exact
from .result import SimRankResult, validate_damping, validate_iterations
from .sharing_engine import ClassState, SharingEngine

__all__ = ["oip_dsr"]


def oip_dsr(
    graph: DiGraph,
    damping: float = 0.6,
    iterations: Optional[int] = None,
    accuracy: float = 1e-3,
    plan=None,
    candidate_strategy: str = "common-neighbor",
    max_candidates_per_set: int = 16,
    record_residuals: bool = False,
) -> SimRankResult:
    """Compute differential SimRank with partial-sums sharing (OIP-DSR).

    Parameters mirror :func:`~repro.core.oip_sr.oip_sr`; the only differences
    are the model (exponential series instead of the damped fixed point) and
    the iteration-count rule (the Prop. 7 bound ``C^{K'+1}/(K'+1)! ≤ ε``
    instead of ``⌈log_C ε⌉``).

    Returns
    -------
    SimRankResult
        Scores of the differential model ``Ŝ``.  Note the diagonal is *not*
        pinned to 1 (it equals ``e^{-C}·Σ Cⁱ/i!·[Qⁱ(Qᵀ)ⁱ]_{aa}``); rankings of
        distinct vertices are what the model preserves (Fig. 6g/6h).
    """
    damping = validate_damping(damping)
    if iterations is None:
        iterations = differential_iterations_exact(accuracy, damping)
    iterations = validate_iterations(iterations)

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
    trace = ConvergenceTrace(model="differential", damping=damping)
    scale = math.exp(-damping)

    n = graph.num_vertices
    with instrumentation.timer.phase("share_sums"):
        scores = np.empty((n, n))  # allocated first; see SharingEngine.expand
        auxiliary = engine.initial_state()  # T_0 = I
        # S_hat_0 = e^{-C} I, accumulated in class space like T_k.
        series = ClassState(scale * auxiliary.matrix, scale * auxiliary.diagonal)
        # Note on memory accounting: like the paper's Fig. 6d we track only
        # the *intermediate* caches (partial sums, outer sums); the iterates
        # themselves are the output representation and are excluded for
        # every algorithm alike.
        coefficient = scale
        for k in range(iterations):
            auxiliary = engine.iterate(auxiliary, factor=1.0, pin_diagonal=False)
            coefficient = coefficient * damping / (k + 1)
            previous = series
            series = ClassState(
                series.matrix + coefficient * auxiliary.matrix,
                series.diagonal + coefficient * auxiliary.diagonal,
            )
            instrumentation.operations.add("series", n * n)
            if record_residuals:
                trace.record(series.max_difference(previous))
        engine.expand(series, out=scores)

    extra: dict[str, object] = {
        "accuracy": accuracy,
        "plan": plan.summary(),
        "additions_per_iteration": engine.additions_per_iteration(),
        "model": "differential",
    }
    if record_residuals:
        extra["residuals"] = list(trace.residuals)
    return SimRankResult(
        scores=scores,
        graph=graph,
        algorithm="oip-dsr",
        damping=damping,
        iterations=iterations,
        instrumentation=instrumentation,
        extra=extra,
    )
