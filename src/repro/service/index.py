"""Offline similarity-index construction for the serving layer.

The precompute-then-serve split: a batch job walks every vertex through the
backend's batched series evaluation (``similarity_rows`` — ``O(K · n · b)``
memory per chunk of ``b`` queries, never the full ``n × n`` matrix), keeps
each vertex's ``index_k`` best scores, and persists the truncation as a
:class:`~repro.core.similarity_store.SimilarityStore` ``.npz``.  The online
:class:`~repro.service.service.SimilarityService` then answers top-k queries
with one CSR row lookup instead of a series evaluation.

The stored rows follow the exact score convention of
:func:`repro.api.simrank_top_k` (matrix-form series, self-similarity
excluded), so any served ``k ≤ index_k`` prefix equals the full-matrix
ranking — the index is a cache of answers, not an approximation of them.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

import numpy as np

from ..api import METHODS
from ..catalog.manifest import graph_fingerprint, index_config_digest
from ..core.backends import SimRankBackend, get_backend
from ..core.instrumentation import Instrumentation
from ..core.iteration_bounds import conventional_iterations
from ..core.result import validate_damping, validate_iterations
from ..core.similarity_store import PathLike, SimilarityStore
from ..exceptions import ConfigurationError
from ..parallel import ParallelExecutor
from .spill import RowSpillAccumulator, SpillStats

__all__ = ["build_index", "load_index", "save_index"]


def _resolve_backend(backend: Union[str, SimRankBackend, None]) -> SimRankBackend:
    if backend is None:
        backend = METHODS["matrix"].default_backend
    return get_backend(backend)


def build_index(
    graph,
    index_k: int = 50,
    damping: float = 0.6,
    iterations: Optional[int] = None,
    accuracy: float = 1e-3,
    backend: Union[str, SimRankBackend, None] = None,
    chunk_size: int = 256,
    workers: Optional[int] = None,
    mp_context: Optional[str] = None,
    memory_budget: Optional[int] = None,
    spill_directory: Optional[PathLike] = None,
    spill_stats: Optional[SpillStats] = None,
    instrumentation: Optional[Instrumentation] = None,
    transition=None,
) -> SimilarityStore:
    """Precompute a truncated all-pairs similarity index for ``graph``.

    Parameters
    ----------
    graph:
        A :class:`~repro.graph.digraph.DiGraph` or
        :class:`~repro.graph.edgelist.EdgeListGraph`.
    index_k:
        Scores kept per vertex.  Serving a top-k query from the index is
        exact for every ``k ≤ index_k``.
    damping, iterations, accuracy:
        Series parameters; ``iterations`` defaults to the conventional bound
        for ``accuracy`` (as everywhere else in the package).
    backend:
        Compute backend for the batched evaluation; ``None`` means the
        matrix method's default (sparse CSR).
    chunk_size:
        Vertices evaluated per backend call — bounds peak memory at
        ``O(K · n · chunk_size)`` floats (per worker when parallel).
    workers:
        Process-parallel worker count for the row sweep (``None``/1 =
        serial, ``0``/negative = all cores).  The vertex range is sharded
        contiguously across a :class:`~repro.parallel.ParallelExecutor`
        pool — the CSR operator ships once per pool — and rows are merged
        in shard order, so the built index is bit-identical to a serial
        build for every worker count.
    mp_context:
        Multiprocessing start-method for the pool (``None`` prefers
        ``fork``).  Callers building from a *multithreaded* process — the
        serving engine's rebuild path — pass ``"forkserver"``; forking a
        threaded process can deadlock the children.
    memory_budget:
        Optional cap, in bytes, on the truncated rows held resident during
        the build.  When the completed top-k rows outgrow the budget they
        are spilled to temporary ``.npz`` segments and merge-streamed into
        the final store at the end (see
        :class:`~repro.service.spill.RowSpillAccumulator`), so the build's
        working set is bounded by ``memory_budget`` plus one
        ``chunk_size × n`` dense block instead of the whole index.
        ``None`` keeps everything in memory.  The stored index is
        bit-identical for every budget (and every worker count).
    spill_directory:
        Where spill segments are written (default: a fresh temporary
        directory, removed when the build finishes).
    spill_stats:
        Optional :class:`~repro.service.spill.SpillStats` instance that
        receives the spill counters (segments written, bytes through disk,
        peak resident bytes) for benchmark reporting.
    instrumentation:
        Optional collector; the series costs are recorded into it (by the
        parent process when parallel — the cost model is deterministic).
    transition:
        Optional prebuilt :class:`~repro.core.backends.TransitionOperator`
        for ``graph`` on ``backend`` — the engine session's artifact-reuse
        seam.  When given, the operator is *not* rebuilt; it must match
        the graph's vertex count (validated) and the backend's format (the
        caller's responsibility).
    """
    if index_k <= 0:
        raise ConfigurationError(f"index_k must be positive, got {index_k}")
    if chunk_size <= 0:
        raise ConfigurationError(f"chunk_size must be positive, got {chunk_size}")
    damping = validate_damping(damping)
    if iterations is None:
        iterations = conventional_iterations(accuracy, damping)
    iterations = validate_iterations(iterations)

    engine = _resolve_backend(backend)
    if transition is None:
        transition = engine.transition(graph)
    elif transition.n != graph.num_vertices:
        raise ConfigurationError(
            f"prebuilt transition covers {transition.n} vertices, graph "
            f"has {graph.num_vertices}"
        )
    n = transition.n

    # One sweep over the vertex range, sharded by the executor (serial when
    # workers resolves to 1 — same shards, same arithmetic, no pool).  Each
    # shard returns already-truncated (columns, values) rows, consumed in
    # vertex order by the spill accumulator — which either concatenates them
    # in memory (memory_budget=None) or flushes completed runs to temporary
    # segments and merge-streams them at the end.  Either way the stored CSR
    # never depends on the worker count or the budget.
    with ParallelExecutor(
        transition,
        damping=damping,
        iterations=iterations,
        backend=engine,
        workers=workers,
        context=mp_context,
    ) as executor, RowSpillAccumulator(
        memory_budget=memory_budget,
        directory=Path(spill_directory) if spill_directory is not None else None,
    ) as accumulator:
        for shard_parts in executor.iter_topk_rows(
            np.arange(n, dtype=np.int64),
            index_k,
            max_shard_size=chunk_size,
            instrumentation=instrumentation,
        ):
            for kept_columns, kept_values in shard_parts:
                accumulator.append(kept_columns, kept_values)
        matrix = accumulator.finish(n)
        if spill_stats is not None:
            spill_stats.copy_from(accumulator.stats)
        if instrumentation is not None and accumulator.stats.segments:
            instrumentation.operations.add(
                "spill_segments", accumulator.stats.segments
            )
            instrumentation.operations.add(
                "spill_bytes", accumulator.stats.spilled_bytes
            )
    return SimilarityStore(
        matrix,
        graph,
        algorithm="series-topk",
        damping=damping,
        extra={
            "index_k": int(index_k),
            "iterations": int(iterations),
            "backend": engine.name,
            # Identity stamps: load_index refuses to serve this index
            # against a different graph or different series parameters.
            "graph_hash": graph_fingerprint(graph),
            "config_digest": index_config_digest(damping, iterations, index_k),
        },
    )


def save_index(store: SimilarityStore, path: PathLike) -> None:
    """Persist a built index to ``path`` (``.npz``, compressed)."""
    store.save(path)


def load_index(
    path: PathLike,
    graph,
    damping: Optional[float] = None,
    iterations: Optional[int] = None,
    index_k: Optional[int] = None,
) -> SimilarityStore:
    """Load an index written by :func:`save_index` or a catalog directory.

    The graph must be the one the index was built on.  Indexes carrying a
    graph fingerprint (every index built since the stamp was introduced,
    and every catalog) are validated against ``graph``'s own fingerprint —
    a same-size-but-different graph raises
    :class:`~repro.exceptions.ConfigurationError` instead of silently
    serving garbage labels.  Passing ``damping``/``iterations``/``index_k``
    additionally rejects an index built under different series parameters.
    Legacy ``.npz`` stores without the stamp keep loading (vertex-count
    check only), as do catalogs: when ``path`` is a catalog directory the
    committed base is opened memory-mapped and every committed row is
    spliced in, so the returned store is the catalog's newest state.
    """
    from ..catalog import IndexCatalog

    if IndexCatalog.is_catalog(path):
        catalog = IndexCatalog.open(path)
        catalog.validate(
            graph, damping=damping, iterations=iterations, index_k=index_k
        )
        return catalog.restore(graph).store
    store = SimilarityStore.load(path, graph)
    if "index_k" not in store.extra:
        raise ConfigurationError(
            f"{path} is a SimilarityStore but not a serving index "
            "(missing index_k metadata); build one with build_index()"
        )
    stored_hash = store.extra.get("graph_hash")
    if stored_hash is not None and stored_hash != graph_fingerprint(graph):
        raise ConfigurationError(
            f"index {path} was built for a different graph (fingerprint "
            f"mismatch); an index serves garbage against the wrong graph, "
            "rebuild it instead"
        )
    mismatches = []
    if damping is not None and abs(float(damping) - store.damping) > 1e-12:
        mismatches.append(f"damping {store.damping} vs requested {damping}")
    stored_iterations = store.extra.get("iterations")
    if (
        iterations is not None
        and stored_iterations is not None
        and int(stored_iterations) != int(iterations)
    ):
        mismatches.append(
            f"iterations {stored_iterations} vs requested {iterations}"
        )
    if index_k is not None and int(store.extra["index_k"]) != int(index_k):
        mismatches.append(
            f"index_k {store.extra['index_k']} vs requested {index_k}"
        )
    if mismatches:
        raise ConfigurationError(
            f"index {path} configuration mismatch: " + "; ".join(mismatches)
        )
    return store
