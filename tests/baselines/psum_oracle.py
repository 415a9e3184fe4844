"""Per-vertex reference for :func:`~repro.baselines.psum_sr.psum_simrank`.

psum-SR as Lizorkin et al. state it: one step per source vertex per
iteration.  The source's partial sum over ``I(a)`` is a row gather and sum,
and its outer sums over every target's in-neighbour set are one
``bincount`` over every edge.  Each source charges its own additions to the
operation counter and holds its length-``n`` partial sum in the memory
tracker while its row is built.  The blocked solver must reproduce its
scores to rounding and its counts, memory peak and metadata exactly.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.psum_sr import essential_pair_mask
from repro.core.instrumentation import Instrumentation
from repro.core.iteration_bounds import conventional_iterations
from repro.core.result import (
    SimRankResult,
    sieve,
    validate_damping,
    validate_iterations,
    validate_threshold,
)
from repro.graph.digraph import DiGraph


def psum_oracle(
    graph: DiGraph,
    damping: float = 0.6,
    iterations: Optional[int] = None,
    accuracy: float = 1e-3,
    select_essential_pairs: bool = False,
    threshold: float = 0.0,
) -> SimRankResult:
    """psum-SR with one Python step per source vertex per iteration."""
    damping = validate_damping(damping)
    if iterations is None:
        iterations = conventional_iterations(accuracy, damping)
    iterations = validate_iterations(iterations)
    threshold = validate_threshold(threshold)

    instrumentation = Instrumentation()
    n = graph.num_vertices
    in_lists = [
        np.asarray(graph.in_neighbors(vertex), dtype=np.intp)
        for vertex in graph.vertices()
    ]
    in_degrees = np.array([indices.size for indices in in_lists], dtype=np.float64)
    has_in = in_degrees > 0

    # Flattened in-neighbour lists: one (target, in-neighbour) entry per edge,
    # used to evaluate every outer sum "from scratch" with one bincount.
    target_of_entry = np.concatenate(
        [np.full(indices.size, vertex, dtype=np.intp)
         for vertex, indices in enumerate(in_lists) if indices.size]
    ) if int(in_degrees.sum()) else np.zeros(0, dtype=np.intp)
    neighbor_of_entry = (
        np.concatenate([indices for indices in in_lists if indices.size])
        if int(in_degrees.sum())
        else np.zeros(0, dtype=np.intp)
    )

    # Partial sums cost (|I(a)|-1)·n per source, outer sums cost
    # Σ_b (|I(b)|-1) per source; sources with no in-neighbours cost neither.
    inner_additions = int(np.maximum(in_degrees - 1, 0).sum()) * n
    outer_additions_per_source = int(np.maximum(in_degrees - 1, 0).sum())
    outer_additions = int(has_in.sum()) * outer_additions_per_source

    essential: Optional[np.ndarray] = None
    if select_essential_pairs:
        with instrumentation.timer.phase("essential_pairs"):
            essential = essential_pair_mask(graph, iterations)

    scores = np.eye(n, dtype=np.float64)
    scale_by_target = np.zeros(n, dtype=np.float64)
    scale_by_target[has_in] = damping / in_degrees[has_in]

    with instrumentation.timer.phase("iterate"):
        for _ in range(iterations):
            updated = np.zeros((n, n), dtype=np.float64)
            for source in range(n):
                indices = in_lists[source]
                if not indices.size:
                    continue
                partial = scores[indices, :].sum(axis=0)
                instrumentation.memory.allocate(n)
                instrumentation.operations.add(
                    "inner", max(indices.size - 1, 0) * n
                )
                row = np.bincount(
                    target_of_entry,
                    weights=partial[neighbor_of_entry],
                    minlength=n,
                )
                instrumentation.operations.add("outer", outer_additions_per_source)
                row *= scale_by_target / indices.size
                if essential is not None:
                    row = np.where(essential[source], row, 0.0)
                updated[source, :] = row
                instrumentation.memory.release(n)
            np.fill_diagonal(updated, 1.0)
            if threshold > 0.0:
                sieve(updated, threshold)
                np.fill_diagonal(updated, 1.0)
            scores = updated

    return SimRankResult(
        scores=scores,
        graph=graph,
        algorithm="psum-sr",
        damping=damping,
        iterations=iterations,
        instrumentation=instrumentation,
        extra={
            "accuracy": accuracy,
            "essential_pairs": select_essential_pairs,
            "threshold": threshold,
            "additions_per_iteration": inner_additions + outer_additions,
        },
    )
