"""Per-vertex reference for the serving index build.

:func:`oracle_topk_rows` runs the series kernel on every vertex of a shard,
zeroes its diagonal and truncates it with :func:`lexsort_row_top_k`, a full
``(-score, column)`` lexsort of every candidate.  The index build runs the
kernel once per in-neighbour class and truncates by partition
(:func:`repro.parallel.worker.compute_topk_rows`,
:func:`repro.core.similarity_store.row_top_k`); on the sparse backend its
rows and stores must equal these bit for bit.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy import sparse


def lexsort_row_top_k(
    row: np.ndarray, k: Optional[int], threshold: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` best strictly positive scores at or above ``threshold``,
    ranked by a full ``(-score, column)`` lexsort; columns returned ascending."""
    row = np.asarray(row, dtype=np.float64).ravel()
    keep = row > 0.0
    if threshold > 0.0:
        keep &= row >= threshold
    candidates = np.flatnonzero(keep)
    if k is not None and candidates.size > k:
        order = np.lexsort((candidates, -row[candidates]))[:k]
        candidates = candidates[order]
    candidates = np.sort(candidates)
    return candidates.astype(np.int64), row[candidates]


def oracle_topk_rows(
    engine,
    transition,
    indices,
    index_k: Optional[int],
    damping: float,
    iterations: int,
    threshold: float = 0.0,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Truncated ``(columns, values)`` rows, one kernel row per vertex."""
    indices = np.asarray(indices, dtype=np.int64)
    rows = engine.similarity_rows(
        transition, indices, damping=damping, iterations=iterations
    )
    parts: list[tuple[np.ndarray, np.ndarray]] = []
    for position, vertex in enumerate(indices):
        row = rows[position]
        row[vertex] = 0.0
        parts.append(lexsort_row_top_k(row, index_k, threshold=threshold))
    return parts


def oracle_matrix(
    engine,
    transition,
    index_k: Optional[int],
    damping: float,
    iterations: int,
    threshold: float = 0.0,
    chunk_size: int = 256,
) -> sparse.csr_matrix:
    """The index's CSR matrix from :func:`oracle_topk_rows`, chunk by chunk."""
    n = transition.n
    parts: list[tuple[np.ndarray, np.ndarray]] = []
    for start in range(0, n, chunk_size):
        parts += oracle_topk_rows(
            engine,
            transition,
            np.arange(start, min(start + chunk_size, n)),
            index_k,
            damping,
            iterations,
            threshold=threshold,
        )
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([columns.size for columns, _ in parts], out=indptr[1:])
    return sparse.csr_matrix(
        (
            np.concatenate([values for _, values in parts] or [np.empty(0)]),
            np.concatenate(
                [columns for columns, _ in parts] or [np.empty(0, np.int64)]
            ),
            indptr,
        ),
        shape=(n, n),
    )
