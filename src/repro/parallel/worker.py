"""Worker-process side of the parallel engine.

A :class:`~repro.parallel.executor.ParallelExecutor` pool is initialised
exactly once per pool with the compute backend, the materialised transition
operator and the series parameters (:func:`initialise_worker`); tasks then
reference that per-process state by name, so the CSR matrix crosses the
process boundary once per pool, never once per task.  With the ``fork``
start context the transfer is copy-on-write and costs nothing at all.

Two task shapes exist, mirroring the two parallel strategies:

* :func:`series_rows_task` / :func:`topk_rows_task` — embarrassingly
  parallel batched series evaluation for a shard of query vertices (the
  ``build_index`` / ``simrank_top_k`` / on-demand-serving path);
* :func:`product_task` — one ``operator @ block`` slab of a barrier-synced
  all-pairs iteration, reading from and writing to named shared-memory
  score buffers (the ``simrank(method="matrix", workers=N)`` path).

The pure compute helpers (:func:`compute_series_rows`,
:func:`compute_topk_rows`) are also what the *serial* code paths call, which
is how parallel results stay bit-identical to serial ones: both execute the
same arithmetic on the same shard boundaries, only on different processes.
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import Optional

import numpy as np

from ..core.similarity_store import row_top_k

__all__ = [
    "compute_series_rows",
    "compute_topk_rows",
    "initialise_worker",
    "kernel_rows",
    "product_task",
    "series_rows_task",
    "topk_rows_task",
]

_STATE: dict[str, object] = {}
"""Per-process pool state: engine, transition, damping, iterations."""

_SHM_CACHE: dict[str, tuple[shared_memory.SharedMemory, np.ndarray]] = {}
"""Shared-memory attachments, cached per segment name across tasks."""

_SHM_CACHE_LIMIT = 4
"""At most two buffers per live iterate() call; keep a little slack."""


# --------------------------------------------------------------------------- #
# Pure compute helpers (shared by the serial and parallel paths)
# --------------------------------------------------------------------------- #
def compute_series_rows(engine, transition, indices, damping, iterations):
    """Batched similarity rows for ``indices`` (thin backend delegation)."""
    return engine.similarity_rows(
        transition,
        np.asarray(indices, dtype=np.int64),
        damping=damping,
        iterations=iterations,
    )


def kernel_rows(transition, indices) -> tuple[np.ndarray, np.ndarray]:
    """The representatives of ``indices`` and the distinct ones, ascending.

    ``transition.representative`` maps each vertex to the first vertex with
    an identical operator row (``-1`` for an empty row); the second array
    holds the rows the kernel evaluates for this shard.
    """
    representatives = transition.representative[np.asarray(indices, dtype=np.int64)]
    return representatives, np.unique(representatives[representatives >= 0])


def compute_topk_rows(
    engine,
    transition,
    indices,
    index_k: Optional[int],
    damping,
    iterations,
    threshold: float = 0.0,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-vertex truncated rows ``(columns, values)`` for an index shard.

    The kernel runs once per distinct representative of the shard (see
    :func:`kernel_rows`), with its diagonal zeroed, since the diagonal is
    implicit in the store.  Vertex ``b`` of representative ``a`` shares
    every series term after the first with ``a``, and ``(W x)[a] ==
    (W x)[b]`` bit for bit because their stored operator rows are equal,
    so row ``b`` is row ``a`` with entry ``a`` set to row ``a``'s entry
    ``b`` and entry ``b`` set to 0.  A vertex with an empty operator row
    has no off-diagonal score and skips the kernel.  Rows are truncated
    with :func:`row_top_k` and returned in vertex order, so index
    construction yields the same CSR parts for any shard boundaries —
    bit-identical to evaluating every vertex on the sparse backend.  Only
    the truncated rows travel back to the parent, not the dense block.
    """
    indices = np.asarray(indices, dtype=np.int64)
    representatives, kernel = kernel_rows(transition, indices)
    rows = engine.similarity_rows(
        transition, kernel, damping=damping, iterations=iterations
    )
    rows[np.arange(kernel.size), kernel] = 0.0
    positions = np.searchsorted(kernel, representatives).tolist()
    parts: list[tuple[np.ndarray, np.ndarray]] = []
    for vertex, source, position in zip(
        indices.tolist(), representatives.tolist(), positions
    ):
        if source < 0:
            parts.append((np.empty(0, dtype=np.int64), np.empty(0)))
            continue
        row = rows[position]
        if source == vertex:
            parts.append(row_top_k(row, index_k, threshold=threshold))
            continue
        row[source], row[vertex] = row[vertex], 0.0
        parts.append(row_top_k(row, index_k, threshold=threshold))
        row[vertex], row[source] = row[source], 0.0
    return parts


# --------------------------------------------------------------------------- #
# Pool initialisation and task entry points
# --------------------------------------------------------------------------- #
def initialise_worker(engine, transition, damping, iterations) -> None:
    """Install the pool-wide compute state in this worker process."""
    _STATE["engine"] = engine
    _STATE["transition"] = transition
    _STATE["damping"] = damping
    _STATE["iterations"] = iterations


def series_rows_task(indices: np.ndarray) -> np.ndarray:
    """Compute the similarity rows for one query shard."""
    return compute_series_rows(
        _STATE["engine"],
        _STATE["transition"],
        indices,
        _STATE["damping"],
        _STATE["iterations"],
    )


def topk_rows_task(
    indices: np.ndarray, index_k: Optional[int], threshold: float = 0.0
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Compute the truncated index rows for one vertex shard."""
    return compute_topk_rows(
        _STATE["engine"],
        _STATE["transition"],
        indices,
        index_k,
        _STATE["damping"],
        _STATE["iterations"],
        threshold=threshold,
    )


def _attach(name: str, n: int) -> np.ndarray:
    """Attach (and cache) the named ``n × n`` float64 shared buffer."""
    cached = _SHM_CACHE.get(name)
    if cached is not None:
        return cached[1]
    while len(_SHM_CACHE) >= _SHM_CACHE_LIMIT:
        stale, (segment, _) = next(iter(_SHM_CACHE.items()))
        segment.close()
        del _SHM_CACHE[stale]
    segment = shared_memory.SharedMemory(name=name)
    array = np.ndarray((n, n), dtype=np.float64, buffer=segment.buf)
    _SHM_CACHE[name] = (segment, array)
    return array


def product_task(
    source_name: str,
    transpose_source: bool,
    target_name: str,
    n: int,
    start: int,
    stop: int,
) -> int:
    """Compute ``target[:, start:stop] = W @ source[:, start:stop]``.

    ``source``/``target`` are named shared-memory ``n × n`` buffers;
    ``transpose_source`` reads the source through its transpose view, which
    is how the two products of one SimRank iteration (``W @ Sᵀ`` then
    ``W @ innerᵀ``) are expressed with a single task shape.  Column blocks
    are disjoint across tasks, so writes never overlap, and each output
    column depends only on the matching input column — the property that
    makes the sharded product bit-identical to the unsharded one for the
    CSR backend.
    """
    operator = _STATE["transition"].matrix
    source = _attach(source_name, n)
    target = _attach(target_name, n)
    view = source.T if transpose_source else source
    block = np.ascontiguousarray(view[:, start:stop])
    target[:, start:stop] = operator @ block
    return stop - start
