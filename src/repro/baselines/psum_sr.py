"""psum-SR (Lizorkin et al., PVLDB 2008) — the paper's primary comparator.

psum-SR improves naive SimRank through three techniques, all of which are
implemented here and individually switchable:

1. **Partial sums memoisation** (always on): for every source vertex ``a``
   the vector ``Partial_{I(a)}(·)`` is computed once per iteration and reused
   for every target ``b`` — this is what brings the cost down to
   ``O(K d n²)``.  Crucially (and this is the redundancy the paper attacks),
   the partial sum is recomputed *from scratch for every source vertex*,
   with no sharing between overlapping in-neighbour sets.
2. **Essential node-pair selection** (``select_essential_pairs=True``): pairs
   that can never acquire a non-zero score are skipped.  A pair ``(a, b)``
   is essential iff some vertex reaches both ``a`` and ``b`` by directed
   paths of equal length — we compute the fixpoint of that relation with a
   breadth-first propagation capped at the iteration count.
3. **Threshold-sieved similarities** (``threshold > 0``): scores below the
   threshold are clamped to zero at the end of every iteration, trading
   accuracy for sparsity exactly as in the original paper.

The implementation takes one Python step per source vertex per iteration:
a row gather and sum for the partial sum, then one ``bincount`` over every
edge for the outer sums.  OIP-SR instead runs blocked sparse products over
in-neighbour classes (:mod:`repro.core.sharing_engine`), so the wall-clock
gap between the two mixes the paper's sharing with that difference in
implementation style; the counted additions are the like-for-like
comparison.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.instrumentation import Instrumentation
from ..core.iteration_bounds import conventional_iterations
from ..core.result import SimRankResult, validate_damping, validate_iterations
from ..graph.digraph import DiGraph

__all__ = ["psum_simrank", "essential_pair_mask"]


def essential_pair_mask(graph: DiGraph, max_length: int) -> np.ndarray:
    """Return the boolean matrix of *essential* vertex pairs.

    ``mask[a, b]`` is ``True`` when there exists a vertex ``w`` and a length
    ``l ≤ max_length`` such that ``w`` reaches both ``a`` and ``b`` along
    directed paths of exactly ``l`` edges (plus the diagonal, which is always
    essential).  Only essential pairs can ever obtain a positive SimRank
    score within ``max_length`` iterations, so the remaining pairs can be
    skipped — observation (1) of Lizorkin et al.
    """
    n = graph.num_vertices
    mask = np.eye(n, dtype=bool)
    # reach[w, v] == True when w reaches v with a path of exactly `l` edges.
    reach = np.eye(n, dtype=bool)
    out_lists = [np.asarray(graph.out_neighbors(v), dtype=np.intp) for v in
                 graph.vertices()]
    for _ in range(max_length):
        next_reach = np.zeros_like(reach)
        for vertex in range(n):
            targets = out_lists[vertex]
            if targets.size:
                next_reach[:, targets] |= reach[:, [vertex]]
        reach = next_reach
        if not reach.any():
            break
        # Pairs co-reachable at this length become essential.
        for w in range(n):
            reached = np.flatnonzero(reach[w])
            if reached.size:
                mask[np.ix_(reached, reached)] = True
    return mask


def psum_simrank(
    graph: DiGraph,
    damping: float = 0.6,
    iterations: Optional[int] = None,
    accuracy: float = 1e-3,
    select_essential_pairs: bool = False,
    threshold: float = 0.0,
) -> SimRankResult:
    """Compute all-pairs SimRank with per-source partial-sums memoisation.

    Parameters
    ----------
    graph:
        Input graph.
    damping:
        The damping factor ``C``.
    iterations:
        Number of iterations ``K``; derived from ``accuracy`` when ``None``.
    accuracy:
        Target accuracy used when ``iterations`` is ``None``.
    select_essential_pairs:
        Enable essential node-pair selection (skips structurally-zero pairs).
    threshold:
        Threshold-sieving value ``δ``; scores below it are zeroed after each
        iteration (0 disables sieving).
    """
    damping = validate_damping(damping)
    if iterations is None:
        iterations = conventional_iterations(accuracy, damping)
    iterations = validate_iterations(iterations)

    instrumentation = Instrumentation()
    n = graph.num_vertices
    in_lists = [
        np.asarray(graph.in_neighbors(vertex), dtype=np.intp)
        for vertex in graph.vertices()
    ]
    in_degrees = np.array([indices.size for indices in in_lists], dtype=np.float64)
    has_in = in_degrees > 0

    # Flattened in-neighbour lists: one (target, in-neighbour) entry per edge,
    # used to evaluate every outer sum "from scratch" with one bincount —
    # cost-equivalent to psum-SR's one-by-one accumulation.
    target_of_entry = np.concatenate(
        [np.full(indices.size, vertex, dtype=np.intp)
         for vertex, indices in enumerate(in_lists) if indices.size]
    ) if int(in_degrees.sum()) else np.zeros(0, dtype=np.intp)
    neighbor_of_entry = (
        np.concatenate([indices for indices in in_lists if indices.size])
        if int(in_degrees.sum())
        else np.zeros(0, dtype=np.intp)
    )

    # Per-iteration addition counts implied by the algorithm (not the numpy
    # call pattern): partial sums cost (|I(a)|-1)·n per source, outer sums
    # cost Σ_b (|I(b)|-1) per source.  Sources with no in-neighbours are
    # skipped, so they cost neither.
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
                # Partial sums over I(source), recomputed from scratch.
                partial = scores[indices, :].sum(axis=0)
                instrumentation.memory.allocate(n)
                instrumentation.operations.add(
                    "inner", max(indices.size - 1, 0) * n
                )
                # Outer sums over every target's in-neighbour set.
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
                updated[updated < threshold] = 0.0
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
