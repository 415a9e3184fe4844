"""P-Rank (Zhao, Han, Sun — CIKM 2009): SimRank with in- *and* out-links.

The paper notes (Related Work) that because P-Rank's iterative paradigm is
"almost similar" to SimRank's, its partial-sums-sharing techniques carry over
directly.  P-Rank scores two vertices by a convex combination of in-link and
out-link structural similarity:

``r(a,b) = λ·C_in/(|I(a)||I(b)|)·ΣΣ r(i,j)  +  (1−λ)·C_out/(|O(a)||O(b)|)·ΣΣ r(o,p)``

with ``r(a,a) = 1`` and each half dropping out when the corresponding
neighbourhood is empty.  Setting ``λ = 1`` recovers SimRank exactly, which is
also how the implementation is tested.

Two solvers are provided: a matrix-form iteration (reference) and a
shared-sums variant that applies the OIP machinery to both directions by
running one sharing plan on the graph and one on its reverse.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.dmst_reduce import dmst_reduce
from ..core.instrumentation import Instrumentation
from ..core.iteration_bounds import conventional_iterations
from ..core.result import SimRankResult, validate_damping, validate_iterations
from ..core.sharing_engine import SharingEngine
from ..exceptions import ConfigurationError
from ..graph.digraph import DiGraph
from ..graph.matrices import backward_transition_matrix, forward_transition_matrix

__all__ = ["prank", "prank_shared"]


def _validate_lambda(weight: float) -> float:
    if not 0.0 <= weight <= 1.0:
        raise ConfigurationError(f"lambda weight must lie in [0, 1], got {weight}")
    return float(weight)


def prank(
    graph: DiGraph,
    damping_in: float = 0.6,
    damping_out: float = 0.6,
    lambda_weight: float = 0.5,
    iterations: Optional[int] = None,
    accuracy: float = 1e-3,
) -> SimRankResult:
    """Compute P-Rank by iterating its matrix form.

    Parameters
    ----------
    graph:
        Input graph.
    damping_in, damping_out:
        Damping factors ``C_in`` / ``C_out`` of the two recursions.
    lambda_weight:
        Mixing weight ``λ``; 1 restricts to in-links (SimRank), 0 to
        out-links ("reverse SimRank").
    iterations:
        Number of iterations; derived from ``accuracy`` and the larger
        damping factor when ``None``.
    accuracy:
        Target accuracy used when ``iterations`` is ``None``.
    """
    damping_in = validate_damping(damping_in)
    damping_out = validate_damping(damping_out)
    lambda_weight = _validate_lambda(lambda_weight)
    if iterations is None:
        iterations = conventional_iterations(
            accuracy, max(damping_in, damping_out)
        )
    iterations = validate_iterations(iterations)

    instrumentation = Instrumentation()
    n = graph.num_vertices
    with instrumentation.timer.phase("iterate"):
        backward = backward_transition_matrix(graph)
        backward_t = backward.T.tocsr()
        forward = forward_transition_matrix(graph)
        forward_t = forward.T.tocsr()
        scores = np.eye(n, dtype=np.float64)
        for _ in range(iterations):
            in_part = backward @ scores @ backward_t
            out_part = forward @ scores @ forward_t
            if hasattr(in_part, "todense"):  # pragma: no cover - sparse corner
                in_part = np.asarray(in_part.todense())
            if hasattr(out_part, "todense"):  # pragma: no cover - sparse corner
                out_part = np.asarray(out_part.todense())
            scores = (
                lambda_weight * damping_in * in_part
                + (1.0 - lambda_weight) * damping_out * out_part
            )
            np.fill_diagonal(scores, 1.0)
            instrumentation.operations.add("prank", 4 * graph.num_edges * n)

    return SimRankResult(
        scores=scores,
        graph=graph,
        algorithm="p-rank",
        damping=damping_in,
        iterations=iterations,
        instrumentation=instrumentation,
        extra={
            "damping_out": damping_out,
            "lambda": lambda_weight,
            "accuracy": accuracy,
        },
    )


def prank_shared(
    graph: DiGraph,
    damping_in: float = 0.6,
    damping_out: float = 0.6,
    lambda_weight: float = 0.5,
    iterations: Optional[int] = None,
    accuracy: float = 1e-3,
    max_candidates_per_set: int = 16,
) -> SimRankResult:
    """Compute P-Rank with partial-sums sharing on both link directions.

    The in-link half runs the shared-sums engine on the graph's sharing
    plan; the out-link half runs a second engine on the *reverse* graph
    (out-neighbour sets are in-neighbour sets of the reverse), demonstrating
    the paper's claim that the OIP machinery extends to P-Rank unchanged.
    """
    damping_in = validate_damping(damping_in)
    damping_out = validate_damping(damping_out)
    lambda_weight = _validate_lambda(lambda_weight)
    if iterations is None:
        iterations = conventional_iterations(
            accuracy, max(damping_in, damping_out)
        )
    iterations = validate_iterations(iterations)

    instrumentation = Instrumentation()
    forward_plan = dmst_reduce(
        graph,
        max_candidates_per_set=max_candidates_per_set,
        instrumentation=instrumentation,
    )
    reverse_graph = graph.reverse()
    reverse_plan = dmst_reduce(
        reverse_graph,
        max_candidates_per_set=max_candidates_per_set,
        instrumentation=instrumentation,
    )
    in_engine = SharingEngine(graph, forward_plan, instrumentation=instrumentation)
    out_engine = SharingEngine(
        reverse_graph, reverse_plan, instrumentation=instrumentation
    )

    scores = in_engine.initial_scores()
    with instrumentation.timer.phase("share_sums"):
        for _ in range(iterations):
            in_part = in_engine.iterate_vertices(
                scores, factor=damping_in, pin_diagonal=False
            )
            out_part = out_engine.iterate_vertices(
                scores, factor=damping_out, pin_diagonal=False
            )
            scores = lambda_weight * in_part + (1.0 - lambda_weight) * out_part
            np.fill_diagonal(scores, 1.0)

    return SimRankResult(
        scores=scores,
        graph=graph,
        algorithm="p-rank-shared",
        damping=damping_in,
        iterations=iterations,
        instrumentation=instrumentation,
        extra={
            "damping_out": damping_out,
            "lambda": lambda_weight,
            "accuracy": accuracy,
            "in_plan": forward_plan.summary(),
            "out_plan": reverse_plan.summary(),
        },
    )
