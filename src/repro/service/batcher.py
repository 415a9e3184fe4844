"""Micro-batching for on-demand similarity queries.

The expensive part of an on-demand top-k answer is the truncated-series
evaluation ``(1 − C) Σ Cⁱ Wⁱ (Wᵀ)ⁱ e_q``: its ``2K`` operator products are
shared by *every* query in a batch (one extra column per query), so ten
coalesced queries cost barely more than one — the same amortisation the
paper obtains by sharing partial sums across vertices.  :class:`MicroBatcher`
exploits that: callers :meth:`submit` queries and receive a
:class:`PendingResult`; the batcher coalesces everything submitted since the
last flush (de-duplicating repeated vertices) and resolves the whole batch
with a single ``similarity_rows`` call when :meth:`flush` runs — either
explicitly, on reaching ``max_batch`` distinct vertices, or lazily when any
pending result is first read.  Each handle also carries the version its
batch was computed at, so an answer is stamped with the graph it was
computed on even when a mutation lands between submit and flush.

A lock serialises submit/flush, so concurrent threads may share one batcher;
the compute callable itself runs outside any per-query loop but inside the
lock (one flush at a time — the backend call is the shared resource).
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterable
from typing import Optional

import numpy as np

from ..exceptions import ConfigurationError
from ..obs import MetricsRegistry

__all__ = ["MicroBatcher", "PendingResult"]


class PendingResult:
    """A handle for one submitted query; resolves when its batch flushes."""

    __slots__ = ("_batcher", "_row", "_version")

    def __init__(self, batcher: "MicroBatcher") -> None:
        self._batcher = batcher
        self._row: Optional[np.ndarray] = None
        self._version: Optional[int] = None

    @property
    def done(self) -> bool:
        """Whether the batch containing this query has been computed."""
        return self._row is not None

    def result(self) -> np.ndarray:
        """Return the similarity row, flushing the owning batch if needed."""
        if self._row is None:
            self._batcher.flush()
        assert self._row is not None  # flush resolves every pending handle
        return self._row

    @property
    def version(self) -> int:
        """The version the row was computed at, flushing if needed."""
        self.result()
        assert self._version is not None
        return self._version

    def _resolve(self, row: np.ndarray, version: int) -> None:
        self._row = row
        self._version = version


class MicroBatcher:
    """Coalesce on-demand queries into one batched similarity computation.

    Parameters
    ----------
    compute_rows:
        Callable mapping an ``int64`` array of distinct vertex indices to
        ``(rows, version)``: the matching ``(batch, n)`` array of
        similarity rows and the version they were computed at, which every
        handle of the batch reports as :attr:`PendingResult.version` (the
        service passes the backend's ``similarity_rows`` on a snapshot of
        its transition operator, with that snapshot's graph version).
    max_batch:
        Auto-flush threshold: submitting the ``max_batch``-th *distinct*
        vertex flushes immediately, bounding per-query latency under load.
    registry:
        Optional :class:`~repro.obs.MetricsRegistry` to register the
        batcher's counters on (the service passes its own, so batcher
        amortisation shows up in the wire ``metrics`` snapshot).  A
        private registry is created when omitted.  The historical counter
        attributes (``batches_issued``, ``rows_computed``,
        ``queries_submitted``) remain readable with identical values.
    """

    def __init__(
        self,
        compute_rows: Callable[[np.ndarray], tuple[np.ndarray, int]],
        max_batch: int = 64,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_batch <= 0:
            raise ConfigurationError(
                f"max_batch must be positive, got {max_batch}"
            )
        self._compute_rows = compute_rows
        self.max_batch = int(max_batch)
        self._lock = threading.RLock()
        self._pending: dict[int, list[PendingResult]] = {}
        self.registry = registry if registry is not None else MetricsRegistry()
        self._batches_issued = self.registry.counter("batcher_batches_issued")
        self._rows_computed = self.registry.counter("batcher_rows_computed")
        self._queries_submitted = self.registry.counter("batcher_queries_submitted")

    @property
    def batches_issued(self) -> int:
        return int(self._batches_issued.value)

    @property
    def rows_computed(self) -> int:
        return int(self._rows_computed.value)

    @property
    def queries_submitted(self) -> int:
        return int(self._queries_submitted.value)

    def submit(self, index: int) -> PendingResult:
        """Enqueue vertex ``index``; duplicates share one computed row."""
        return self.submit_many([index])[0]

    def submit_many(self, indices: Iterable[int]) -> list[PendingResult]:
        """Enqueue a batch of vertices under one lock acquisition.

        This is the request pipeline's entry point: every miss of one
        :meth:`SimilarityService.query_many` call — whether the requests
        arrived in process or were coalesced off concurrent network
        connections by the serving front-end — lands here as a single
        batch, so the auto-flush threshold sees the true pending count
        instead of racing per-query submits.  Duplicates still share one
        computed row; handles resolve in submission order when a flush
        triggers mid-batch.
        """
        with self._lock:
            handles: list[PendingResult] = []
            for index in indices:
                handle = PendingResult(self)
                self._pending.setdefault(int(index), []).append(handle)
                self._queries_submitted.inc()
                if len(self._pending) >= self.max_batch:
                    self._flush_locked()
                handles.append(handle)
            return handles

    def flush(self) -> int:
        """Compute every pending row now; return the number of distinct rows."""
        with self._lock:
            return self._flush_locked()

    def _flush_locked(self) -> int:
        if not self._pending:
            return 0
        pending, self._pending = self._pending, {}
        indices = np.fromiter(pending, dtype=np.int64, count=len(pending))
        rows, version = self._compute_rows(indices)
        rows = np.atleast_2d(np.asarray(rows))
        self._batches_issued.inc()
        self._rows_computed.inc(int(indices.size))
        for position, handles in enumerate(pending.values()):
            row = rows[position]  # duplicates share one row object
            for handle in handles:
                handle._resolve(row, version)
        return int(indices.size)

    @property
    def pending_count(self) -> int:
        """Number of distinct vertices waiting for the next flush."""
        with self._lock:
            return len(self._pending)

    @property
    def amortisation(self) -> float:
        """Queries answered per backend row computed (≥ 1 once warm)."""
        with self._lock:  # one consistent read of the two counters
            return (
                self.queries_submitted / self.rows_computed
                if self.rows_computed
                else 0.0
            )

    def __repr__(self) -> str:
        return (
            f"<MicroBatcher pending={self.pending_count} "
            f"batches={self.batches_issued} rows={self.rows_computed}>"
        )
