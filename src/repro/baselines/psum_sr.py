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

An iteration runs as two sparse products per block of
:data:`~repro.core.sharing_engine.BLOCK_SETS` source vertices, on the
``n × n`` in-neighbour incidence ``Inc`` (row ``v`` is ``I(v)``):
``Partial = Inc[block] @ S`` sums every source's in-neighbour rows, and
``Outer = Inc @ (Partialᵀ / |I(a)|)`` sums them again over every target's
in-neighbour set; scaled by ``C / |I(b)|`` they are the block's rows of the
next iterate.  Nothing is shared between sets: every partial and outer sum
is recomputed from scratch each iteration, which is exactly what the
operation counter charges.  OIP-SR runs the same kind of products over its
DMST sharing plan and in-neighbour classes
(:mod:`repro.core.sharing_engine`), so the wall-clock gap between the two is
the paper's sharing plus the class collapse, not a difference in
implementation style.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.instrumentation import Instrumentation
from ..core.iteration_bounds import conventional_iterations
from ..core.result import (
    SimRankResult,
    sieve,
    validate_damping,
    validate_iterations,
    validate_threshold,
)
from ..core.sharing_engine import BLOCK_SETS
from ..graph.digraph import DiGraph
from ..graph.matrices import adjacency_matrix

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
        iteration by :func:`~repro.core.result.sieve`.  A score equal to
        ``δ`` in exact arithmetic is kept, whatever order summed it, so
        psum-SR and OIP-SR sieve the same entries.  0 disables sieving; a
        negative or NaN threshold raises
        :class:`~repro.exceptions.ConfigurationError`.
    """
    damping = validate_damping(damping)
    if iterations is None:
        iterations = conventional_iterations(accuracy, damping)
    iterations = validate_iterations(iterations)
    threshold = validate_threshold(threshold)

    instrumentation = Instrumentation()
    n = graph.num_vertices
    incidence = adjacency_matrix(graph).T.tocsr()
    in_degrees = np.diff(incidence.indptr)
    has_in = in_degrees > 0
    inverse_sizes = np.zeros(n, dtype=np.float64)
    inverse_sizes[has_in] = 1.0 / in_degrees[has_in]
    scale_by_target = damping * inverse_sizes

    # Per-iteration addition counts implied by the algorithm (not the numpy
    # call pattern): partial sums cost (|I(a)|-1)·n per source, outer sums
    # cost Σ_b (|I(b)|-1) per source.  Sources with no in-neighbours are
    # skipped, so they cost neither.
    outer_additions_per_source = int(np.maximum(in_degrees - 1, 0).sum())
    inner_additions = outer_additions_per_source * n
    outer_additions = int(has_in.sum()) * outer_additions_per_source
    # One source's length-n partial sum is live at a time.
    partial_values = n if has_in.any() else 0

    inessential: Optional[np.ndarray] = None
    if select_essential_pairs:
        with instrumentation.timer.phase("essential_pairs"):
            inessential = ~essential_pair_mask(graph, iterations)

    # Both n × n buffers exist before the first iteration; they swap after
    # each one (see SharingEngine.expand on where late allocations land).
    scores = np.eye(n, dtype=np.float64)
    updated = np.empty((n, n), dtype=np.float64)
    blocks = [
        (start, min(start + BLOCK_SETS, n), incidence[start : start + BLOCK_SETS])
        for start in range(0, n, BLOCK_SETS)
    ]

    with instrumentation.timer.phase("iterate"):
        for _ in range(iterations):
            instrumentation.operations.add("inner", inner_additions)
            instrumentation.operations.add("outer", outer_additions)
            instrumentation.memory.allocate(partial_values)
            for start, stop, sources in blocks:
                # Partial sums over I(a), recomputed from scratch per source.
                partial = sources @ scores
                # Outer sums over every target's I(b), on the transposed
                # partial sums (pre-scaled by 1 / |I(a)|; the product needs
                # them C-contiguous).
                scaled = np.empty((n, stop - start), dtype=np.float64)
                np.multiply(partial.T, inverse_sizes[start:stop], out=scaled)
                outer = incidence @ scaled
                rows = updated[start:stop]
                np.multiply(outer.T, scale_by_target, out=rows)
                if inessential is not None:
                    rows[inessential[start:stop]] = 0.0
            instrumentation.memory.release(partial_values)
            sieve(updated, threshold)
            np.fill_diagonal(updated, 1.0)
            scores, updated = updated, scores

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
