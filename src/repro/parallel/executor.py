"""The parallel sharded execution engine.

:class:`ParallelExecutor` owns one ``ProcessPoolExecutor`` bound to one
materialised transition operator: the pool's initialiser installs the
backend, the operator and the series parameters in every worker once
(:func:`~repro.parallel.worker.initialise_worker`), so tasks ship only
shard descriptors — never the CSR matrix.  Two parallel strategies cover
every compute path in the package:

* **Row sharding** (:meth:`similarity_rows`, :meth:`topk_rows`) — the
  batched series evaluation is embarrassingly parallel over query shards;
  shards are planned contiguously (:func:`~repro.parallel.sharding.
  plan_shards`) and merged back in shard order, so the result is the same
  array the serial path produces, row for row.
* **Barrier-synced column sharding** (:meth:`iterate`) — the all-pairs
  iteration ``S ← C · W S Wᵀ`` cannot be row-decomposed (every entry of
  ``S_{k+1}`` reads all of ``S_k``), so the engine instead shards the
  *columns* of each of the two ``operator @ dense`` products across the
  pool, with the score and scratch matrices living in shared memory and a
  barrier between products.  Each output column of a CSR-times-dense
  product depends only on the matching input column, so the sharded
  iteration is **bit-identical** to the serial one on the sparse backend —
  for any worker count, in both diagonal conventions.

Determinism guarantee: for the sparse (default) backend every parallel
result equals the serial result bit for bit; for the dense backend BLAS
blocking may differ per shard shape, keeping results within ``1e-12``.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import shared_memory
from typing import Optional, Union

import numpy as np

from ..core.backends import DIAGONAL_MODES, SimRankBackend, get_backend
from ..core.instrumentation import Instrumentation
from ..exceptions import ConfigurationError
from . import worker as _worker
from .sharding import plan_shards, split_indices

__all__ = ["ParallelExecutor", "resolve_workers"]


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a ``workers`` argument to a concrete positive count.

    ``None`` and ``1`` mean serial; ``0`` or any negative value means "all
    available cores" (``os.cpu_count()``); anything else is taken verbatim.
    """
    if workers is None:
        return 1
    workers = int(workers)
    if workers <= 0:
        return max(os.cpu_count() or 1, 1)
    return workers


def _pool_context(context: Optional[str] = None):
    """Resolve a multiprocessing start context.

    ``None`` prefers ``fork`` (copy-on-write operator transfer — the right
    choice for single-threaded callers such as ``build_index`` or the CLI,
    where the operator never crosses the process boundary at all).  Callers
    that create pools from *multithreaded* processes — the serving engine —
    pass ``"forkserver"``: forking a multithreaded process can clone
    numpy/malloc locks in a held state and deadlock the child, while the
    forkserver's children fork from a clean single-threaded server.
    Unavailable methods fall back down the preference chain.
    """
    preferences = [context] if context is not None else []
    preferences += ["fork", "forkserver", "spawn"]
    for method in preferences:
        try:
            return multiprocessing.get_context(method)
        except ValueError:
            continue
    return None  # pragma: no cover - some start method always exists


class ParallelExecutor:
    """Fan batched SimRank computation out to a process pool.

    Parameters
    ----------
    transition:
        The materialised :class:`~repro.core.backends.TransitionOperator`
        every task computes against.  It is shipped to the workers once, at
        pool initialisation.
    damping, iterations:
        Series parameters shared by every task.
    backend:
        Backend name or instance; must be picklable (the built-in backends
        are stateless singletons).
    workers:
        Worker-count request, resolved by :func:`resolve_workers`.  A
        resolved count of 1 never creates a pool — every method falls back
        to the serial backend call, which keeps ``workers=1`` a true no-op.
    context:
        Multiprocessing start-method name (see :func:`_pool_context`).
        Leave ``None`` from single-threaded callers; pass ``"forkserver"``
        when the pool is created from a multithreaded process.

    The executor is a context manager; :meth:`close` shuts the pool down.
    """

    def __init__(
        self,
        transition,
        *,
        damping: float,
        iterations: int,
        backend: Union[str, SimRankBackend, None] = None,
        workers: Optional[int] = None,
        context: Optional[str] = None,
    ) -> None:
        self.engine = get_backend(backend if backend is not None else "sparse")
        self.transition = transition
        self.damping = float(damping)
        self.iterations = int(iterations)
        self.workers = resolve_workers(workers)
        self.context = context
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------ #
    # Pool lifecycle
    # ------------------------------------------------------------------ #
    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._pool_lock:
            if self._closed:
                # Terminal: a closed executor must not silently respawn a
                # pool (callers that retired it — e.g. a service mutation —
                # rely on this raising so they take their serial fallback).
                raise RuntimeError("ParallelExecutor is closed")
            if self._pool is None:
                # Start the parent's resource tracker *before* the pool
                # forks: workers must inherit it, or each forked worker
                # spins up its own tracker and later shared-memory
                # attachments get double-tracked (spurious "leaked
                # shared_memory" warnings at shutdown).
                try:
                    from multiprocessing import resource_tracker

                    resource_tracker.ensure_running()
                except Exception:  # pragma: no cover - tracker is POSIX-only
                    pass
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=_pool_context(self.context),
                    initializer=_worker.initialise_worker,
                    initargs=(
                        self.engine,
                        self.transition,
                        self.damping,
                        self.iterations,
                    ),
                )
            return self._pool

    def close(self, wait: bool = True) -> None:
        """Shut the worker pool down; the executor is unusable afterwards.

        Terminal and idempotent.  ``wait=False`` retires the pool without
        blocking on in-flight tasks — their futures still complete; new
        submissions raise ``RuntimeError``.
        """
        with self._pool_lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Row sharding: batched series evaluation
    # ------------------------------------------------------------------ #
    def similarity_rows(
        self,
        indices,
        instrumentation: Optional[Instrumentation] = None,
    ) -> np.ndarray:
        """Similarity rows for ``indices``, sharded across the pool.

        The merge concatenates per-shard blocks in shard order, which is
        exactly the order of ``indices`` — the parallel result is the same
        array the serial backend call returns.
        """
        indices = np.asarray(indices, dtype=np.int64).ravel()
        if self.workers == 1 or indices.size < 2:
            return self.engine.similarity_rows(
                self.transition,
                indices,
                damping=self.damping,
                iterations=self.iterations,
                instrumentation=instrumentation,
            )
        shards = split_indices(indices, self.workers)
        pool = self._ensure_pool()
        futures = [pool.submit(_worker.series_rows_task, shard) for shard in shards]
        rows = np.empty((indices.size, self.transition.n), dtype=np.float64)
        position = 0
        for shard, future in zip(shards, futures):
            rows[position : position + shard.size] = future.result()
            position += shard.size
        if instrumentation is not None:
            self._record_series_cost(
                instrumentation, indices.size, max(shard.size for shard in shards)
            )
        return rows

    def topk_rows(
        self,
        indices,
        index_k: Optional[int],
        threshold: float = 0.0,
        max_shard_size: Optional[int] = None,
        instrumentation: Optional[Instrumentation] = None,
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Truncated ``(columns, values)`` rows per vertex of ``indices``.

        The index-construction workload: each worker evaluates its shard's
        series rows *and* truncates them, so only top-k rows cross the
        process boundary.  ``max_shard_size`` preserves the caller's memory
        bound (``build_index``'s ``chunk_size``) — no worker ever holds more
        than ``max_shard_size × n`` dense row entries.
        """
        parts: list[tuple[np.ndarray, np.ndarray]] = []
        for shard_parts in self.iter_topk_rows(
            indices,
            index_k,
            threshold=threshold,
            max_shard_size=max_shard_size,
            instrumentation=instrumentation,
        ):
            parts.extend(shard_parts)
        return parts

    def iter_topk_rows(
        self,
        indices,
        index_k: Optional[int],
        threshold: float = 0.0,
        max_shard_size: Optional[int] = None,
        instrumentation: Optional[Instrumentation] = None,
    ):
        """Yield :meth:`topk_rows` results one shard at a time, in shard order.

        The streaming shape of the index build: the caller consumes each
        shard's truncated rows (and may spill them to disk) before the next
        shard's results need to exist in this process.  In-flight work is
        bounded — at most ``2 × workers`` shard submissions are outstanding
        at any moment — so parent-side memory stays ``O(window × shard)``
        truncated rows plus one worker-side dense block per process, never
        ``O(n)`` rows, regardless of how many shards the plan contains.
        The concatenation of the yielded lists equals the serial result
        exactly (same shards, same arithmetic, merge in shard order).
        ``instrumentation`` records the kernel rows the shards actually
        evaluate, one per distinct in-neighbour class of each shard
        (:func:`~repro.parallel.worker.kernel_rows`).
        """
        indices = np.asarray(indices, dtype=np.int64).ravel()
        plan = plan_shards(
            indices.size, max(self.workers, 1), max_size=max_shard_size
        )
        shards = [indices[shard.start : shard.stop] for shard in plan]
        if self.workers == 1:
            for shard in shards:
                yield _worker.compute_topk_rows(
                    self.engine,
                    self.transition,
                    shard,
                    index_k,
                    self.damping,
                    self.iterations,
                    threshold=threshold,
                )
        else:
            pool = self._ensure_pool()
            window = 2 * self.workers
            pending = deque(
                pool.submit(_worker.topk_rows_task, shard, index_k, threshold)
                for shard in shards[:window]
            )
            next_shard = len(pending)
            while pending:
                result = pending.popleft().result()
                if next_shard < len(shards):
                    pending.append(
                        pool.submit(
                            _worker.topk_rows_task,
                            shards[next_shard],
                            index_k,
                            threshold,
                        )
                    )
                    next_shard += 1
                yield result
        if instrumentation is not None:
            evaluated = [
                _worker.kernel_rows(self.transition, shard)[1].size
                for shard in shards
            ]
            self._record_series_cost(
                instrumentation, sum(evaluated), max(evaluated, default=0)
            )

    def _record_series_cost(
        self, instrumentation: Instrumentation, rows: int, widest: int
    ) -> None:
        # Workers cannot share the parent's collector; the cost model is
        # deterministic, so the parent records the counts the kernel would
        # have: `rows` evaluated rows, and one tile of the widest call live.
        instrumentation.operations.add(
            "similarity_rows", 2 * self.iterations * self.transition.nnz * rows
        )
        tile_values = (
            (self.iterations + 1) * self.transition.n * self.engine.tile_width(widest)
        )
        instrumentation.memory.allocate(tile_values)
        instrumentation.memory.release(tile_values)

    # ------------------------------------------------------------------ #
    # Barrier-synced column sharding: all-pairs iteration
    # ------------------------------------------------------------------ #
    def iterate(
        self,
        diagonal: str = "one",
        instrumentation: Optional[Instrumentation] = None,
    ) -> np.ndarray:
        """All-pairs SimRank scores via the column-sharded iteration.

        Runs the exact recurrence of
        :meth:`~repro.core.backends.base.SimRankBackend.iterate` — both
        diagonal conventions — with each of the two per-iteration
        ``operator @ dense`` products sharded over the pool and a barrier
        between them.  Score and scratch matrices live in POSIX shared
        memory, so per-iteration traffic is shard descriptors only.
        """
        if diagonal not in DIAGONAL_MODES:
            raise ConfigurationError(
                f"diagonal must be one of {DIAGONAL_MODES}, got {diagonal!r}"
            )
        n = self.transition.n
        if self.workers == 1 or n < 2:
            return self.engine.iterate(
                self.transition,
                damping=self.damping,
                iterations=self.iterations,
                diagonal=diagonal,
                instrumentation=instrumentation,
            )
        shards = plan_shards(n, self.workers)
        pool = self._ensure_pool()
        cost = self.engine.iteration_cost(self.transition)
        score_shm = shared_memory.SharedMemory(create=True, size=n * n * 8)
        try:
            scratch_shm = shared_memory.SharedMemory(create=True, size=n * n * 8)
            try:
                scores = np.ndarray((n, n), dtype=np.float64, buffer=score_shm.buf)
                scores[:] = np.eye(n, dtype=np.float64)
                for _ in range(self.iterations):
                    # scratch = W @ scoresᵀ, then scores = W @ scratchᵀ —
                    # the same two `operator @ dense` products as the serial
                    # iteration, cut into disjoint column blocks.
                    self._sharded_product(pool, score_shm, scratch_shm, n, shards)
                    self._sharded_product(pool, scratch_shm, score_shm, n, shards)
                    scores *= self.damping
                    if diagonal == "one":
                        np.fill_diagonal(scores, 1.0)
                    else:
                        scores.flat[:: n + 1] += 1.0 - self.damping
                    if instrumentation is not None:
                        instrumentation.operations.add("matrix", cost)
                return np.array(scores, copy=True)
            finally:
                scratch_shm.close()
                scratch_shm.unlink()
        finally:
            score_shm.close()
            score_shm.unlink()

    @staticmethod
    def _sharded_product(pool, source_shm, target_shm, n, shards) -> None:
        futures = [
            pool.submit(
                _worker.product_task,
                source_shm.name,
                True,
                target_shm.name,
                n,
                shard.start,
                shard.stop,
            )
            for shard in shards
        ]
        for future in futures:  # barrier: every block lands before the next product
            future.result()

    def __repr__(self) -> str:
        pooled = "live" if self._pool is not None else "idle"
        return (
            f"<ParallelExecutor workers={self.workers} "
            f"backend={self.engine.name} n={self.transition.n} pool={pooled}>"
        )
