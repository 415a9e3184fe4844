"""The online similarity-serving engine.

:class:`SimilarityService` turns the repository's offline solvers into a
query server with the tiered answer path of production similarity systems:

1. **index** — a precomputed, truncated all-pairs index
   (:func:`~repro.service.index.build_index`) answers ``k ≤ index_k``
   queries with one CSR row lookup;
2. **cache** — an LRU of recently served rankings
   (:class:`~repro.service.cache.LRUCache`) absorbs the repeated hot
   queries of skewed traffic;
3. **approx** — an optional Monte-Carlo tier
   (:class:`~repro.service.fingerprints.FingerprintIndex`): requests that
   opt in (``QueryRequest(approx=True)`` or a ``max_error`` bound the
   fingerprints' standard error satisfies) are answered from sampled
   reverse-walk fingerprints instead of an exact evaluation — the Fogaras–Rácz
   estimator for pairs the exact index cannot afford on large graphs;
4. **compute** — everything else falls through to an on-demand
   truncated-series evaluation, micro-batched
   (:class:`~repro.service.batcher.MicroBatcher`) so concurrent misses
   share one backend call, and the fresh rows are merged back into the
   index so the same miss never computes twice.

Every *exact* tier produces the *same* ranking: index rows, cached entries
and on-demand rows all follow the score convention of
:func:`repro.api.simrank_top_k` with ``(-score, vertex id)`` tie-breaking,
so exact tiering is purely a latency decision, never a quality one.  The
approximate tier trades a bounded statistical error for latency and memory
— only for queries that explicitly opt in — and its answers are never
written back to the exact cache or index.

**The graph.**  Edges, version, transition operators and the lock live in
one :class:`~repro.graph.versioned.VersionedGraph`.  A standalone service
wraps its own; every service an :class:`~repro.engine.Engine` creates
shares the engine's, so a mutation through any of them is one mutation of
one graph, and all of them answer at the same version.

**Incremental updates.**  SimRank is a global measure — inserting one edge
perturbs, in principle, every score (that is why the incremental-SimRank
literature tracks score *deltas* rather than pruned vertex sets).  The
service therefore does not pretend a mutation is local: a mutation bumps
the graph version, which stamps every index row stale, and the service's
listener invalidates the whole cache and marks the edge endpoints *dirty*.
The index arrays are not touched: a stale row keeps its old entries, never
served, until a merge replaces it.  A mutation therefore costs one O(1)
edge-key update plus, with a catalog attached, the edge log's fsync; the
first read after it rebuilds the edge-list view and the transition
operator.  :meth:`refresh` then eagerly recomputes only the dirty rows
(batched, at the current version), while every other row is lazily
recomputed-and-merged the first time it is queried.  Served answers are
consequently always exact with respect to the current graph — identical
to a from-scratch rebuild.

**Thread safety.**  The service is safe for concurrent readers and
concurrent mutators, through it or through its engine.  The graph's
re-entrant lock guards all shared state (edges, version, dirty set, index
row versions, cache, stats); the expensive series evaluations run *outside*
that lock, so readers keep answering from the cache and index while a
:meth:`refresh` or another reader's miss computes.  Every write-back of
computed data — cache fills, index merges, refresh merges — is
*version-gated*: the rows are applied only when the graph version they were
computed at is still current, so a racing mutation can never poison the
cache or the index with stale scores.  Lock ordering is
``batcher → graph → (stats, cache)``; the service never calls into the
batcher while holding the graph lock.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures.process import BrokenProcessPool
from collections.abc import Hashable, Iterable, Sequence
from dataclasses import replace
from typing import Optional, Union

import numpy as np

from ..baselines.topk import RankedList
from ..core.backends import SimRankBackend, get_backend
from ..core.iteration_bounds import conventional_iterations
from ..core.result import validate_damping, validate_iterations
from ..core.similarity_store import SimilarityStore, ranked_entries, row_top_k
from ..exceptions import ConfigurationError
from ..graph.versioned import VersionedGraph
from ..obs import Counter, Histogram, MetricsRegistry, SlowQueryLog, Trace
from ..parallel import ParallelExecutor, resolve_workers
from .batcher import MicroBatcher
from .cache import LRUCache
from .fingerprints import FingerprintIndex
from .index import build_index as _build_index
from .requests import ErrorCode, QueryRequest, QueryResponse, ServeError

__all__ = ["ServiceStats", "SimilarityService", "TierStats"]

TIERS = ("index", "cache", "approx", "compute")
"""Answer tiers in their probe order (cache is probed first at run time
because a cached entry is strictly cheaper than an index row lookup; the
name order here mirrors the architecture diagram: index → cache →
monte-carlo approx → exact compute).  The ``approx`` tier only answers
requests whose ``approx``/``max_error`` policy admits an estimate, and its
answers are never written back to the exact cache or index."""


SAMPLE_WINDOW = 100_000
"""Latency samples retained per tier for percentile reporting.  Counts and
totals stream exactly forever; the sample window bounds memory for a
long-lived service (retaining every sample would grow without limit)."""


class TierStats:
    """Hit count and latency for one tier: a view over two registry
    instruments, a ``tier_hits`` counter and a ``tier_latency_seconds``
    histogram (whose total accumulates ``+= elapsed`` in recording order)."""

    __slots__ = ("_hits", "_latency")

    def __init__(self, hits: Counter, latency: Histogram) -> None:
        self._hits = hits
        self._latency = latency

    def record(self, elapsed: float) -> None:
        self._hits.inc()
        self._latency.observe(elapsed)

    @property
    def count(self) -> int:
        return int(self._hits.value)

    @property
    def total(self) -> float:
        return self._latency.total

    @property
    def mean_seconds(self) -> float:
        count = self.count
        return self.total / count if count else 0.0


class ServiceStats:
    """Per-tier hit/latency statistics plus update counters.

    Backed by a :class:`~repro.obs.MetricsRegistry` (one counter per tier,
    one latency histogram per tier, plus ``service_queries`` /
    ``service_updates`` / ``service_refreshed_rows``).  All mutation goes
    through the ``record``/``note_*`` methods, which hold the registry
    lock, so the invariant *sum of tier hits == queries* holds at every
    instant even under concurrent recording — a :meth:`snapshot` taken
    mid-traffic is internally consistent.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._lock = self.registry.lock
        self._queries = self.registry.counter("service_queries")
        self._updates = self.registry.counter("service_updates")
        self._refreshed_rows = self.registry.counter("service_refreshed_rows")
        self._tiers = {
            tier: TierStats(
                self.registry.counter("tier_hits", tier=tier),
                self.registry.histogram(
                    "tier_latency_seconds", reservoir=SAMPLE_WINDOW, tier=tier
                ),
            )
            for tier in TIERS
        }

    @property
    def queries(self) -> int:
        return int(self._queries.value)

    @property
    def updates(self) -> int:
        return int(self._updates.value)

    @property
    def refreshed_rows(self) -> int:
        return int(self._refreshed_rows.value)

    def record(self, tier: str, elapsed: float) -> None:
        with self._lock:
            self._queries.inc()
            self._tiers[tier].record(elapsed)

    def note_update(self) -> None:
        """Count one effective graph mutation."""
        with self._lock:
            self._updates.inc()

    def note_refreshed(self, rows: int) -> None:
        """Count ``rows`` eagerly refreshed index rows."""
        with self._lock:
            self._refreshed_rows.inc(rows)

    def samples(self, tier: str) -> list[float]:
        """Raw latency samples (seconds) for one tier."""
        return self._tiers[tier]._latency.samples()

    def snapshot(self) -> dict[str, object]:
        """A flat summary dict (counts, hit shares, mean latencies)."""
        with self._lock:
            queries = self.queries
            summary: dict[str, object] = {
                "queries": queries,
                "updates": self.updates,
                "refreshed_rows": self.refreshed_rows,
            }
            for tier in TIERS:
                stats = self._tiers[tier]
                summary[f"{tier}_hits"] = stats.count
                summary[f"{tier}_share"] = (
                    stats.count / queries if queries else 0.0
                )
                summary[f"{tier}_mean_seconds"] = stats.mean_seconds
            return summary


class SimilarityService:
    """Serve top-k SimRank queries over a mutable graph.

    Parameters
    ----------
    graph:
        The initial graph (:class:`~repro.graph.digraph.DiGraph` or
        :class:`~repro.graph.edgelist.EdgeListGraph`), which the service
        wraps in its own :class:`~repro.graph.versioned.VersionedGraph`,
        or a ``VersionedGraph`` to share — :meth:`Engine.serve
        <repro.engine.Engine.serve>` passes the session's.  Labels keep
        resolving through the original object (the vertex set is fixed —
        mutations change edges, not vertices).
    index:
        Optional precomputed index for the *current* graph (built with
        :func:`~repro.service.index.build_index` or loaded with
        :func:`~repro.service.index.load_index`).  Its damping/iterations
        metadata must match the service's, otherwise the tiers would serve
        inconsistent rankings — a mismatch raises.
    k:
        Default ranking length for :meth:`top_k` / :meth:`top_k_many`.
    damping, iterations, accuracy:
        Series parameters shared by every tier; ``iterations`` defaults to
        the conventional bound for ``accuracy``.
    backend:
        Compute backend for on-demand evaluation (``None`` = sparse).
    cache_size:
        LRU capacity for served rankings; ``0`` disables the cache tier.
    max_batch:
        Micro-batcher auto-flush threshold for on-demand misses.
    auto_warm:
        When an index is attached, merge on-demand rows back into it so a
        miss is only ever computed once per graph version.
    workers:
        Process-parallel worker count for on-demand/refresh row computation
        and for :meth:`build_index` (``None``/1 = serial).  The worker pool
        is bound to the current transition operator and retired on every
        mutation; parallel rows are bit-identical to serial ones.  The pool
        uses the ``forkserver`` start method (safe to create from a
        threaded process), which requires an importable ``__main__``; in
        environments without one (``python -c``, stdin) the first pool
        failure trips a circuit breaker and the service computes serially
        (see :attr:`pool_failures`).
    fingerprints:
        Optional :class:`~repro.service.fingerprints.FingerprintIndex`
        sampled from the *current* graph (damping and vertex count must
        match).  Enables the Monte-Carlo ``approx`` tier for requests that
        set ``approx=True`` or a satisfiable ``max_error``; mutations
        stale it until :meth:`resample_fingerprints`.
    catalog:
        Optional :class:`~repro.catalog.IndexCatalog` to serve from — the
        durable successor of ``index`` (pass one or the other, not both).
        ``graph`` must then be the *base* graph the catalog was built on,
        still at version 0: the service validates the catalog's graph
        fingerprint and config digest
        (:class:`~repro.exceptions.ConfigurationError` on mismatch), opens
        the base segment memory-mapped, splices in the committed rows,
        replays the edge log onto the graph, and resumes at the logged
        version with exactly the pre-shutdown dirty set — answers are
        bit-identical to the process that wrote the catalog.  The edge log
        becomes the graph's journal: every later mutation, through this
        service or anything sharing its graph, is durably logged before it
        applies, and every index merge is committed as a row-log record,
        so the service can be killed at any instant and restarted the same
        way.
    """

    def __init__(
        self,
        graph,
        index: Optional[SimilarityStore] = None,
        *,
        k: int = 10,
        damping: float = 0.6,
        iterations: Optional[int] = None,
        accuracy: float = 1e-3,
        backend: Union[str, SimRankBackend, None] = None,
        cache_size: int = 1024,
        max_batch: int = 64,
        auto_warm: bool = True,
        workers: Optional[int] = None,
        fingerprints: Optional[FingerprintIndex] = None,
        catalog=None,
        plan_digest: Optional[str] = None,
        slow_query_capacity: int = 32,
    ) -> None:
        if k <= 0:
            raise ConfigurationError(f"k must be positive, got {k}")
        self.k = int(k)
        self.damping = validate_damping(damping)
        if iterations is None:
            iterations = conventional_iterations(accuracy, self.damping)
        self.iterations = validate_iterations(iterations)
        self._engine = get_backend(backend if backend is not None else "sparse")
        self.auto_warm = auto_warm
        self.workers = resolve_workers(workers)

        if not isinstance(graph, VersionedGraph):
            graph = VersionedGraph(graph)
        self._graph = graph
        self._lock = graph.lock
        self._n = graph.num_vertices
        self._dirty: set[int] = set()
        self._executor: Optional[ParallelExecutor] = None
        self._pool_disabled = False
        self.pool_failures = 0
        """Worker pools lost to dead workers (OOM kill, unimportable
        ``__main__`` under the forkserver start method, ...).  The first
        failure trips a circuit breaker: the service stops creating pools
        and computes serially — correct answers, no parallelism, no
        per-compute respawn storm."""

        self.registry = MetricsRegistry()
        """The service's metrics registry: tier hit counters, per-tier
        latency histograms, batcher counters.  Snapshot with
        ``registry.snapshot()``; exported whole over the wire ``metrics``
        op."""
        self.plan_digest = plan_digest
        self.slow_queries = SlowQueryLog(capacity=slow_query_capacity)
        self._kernel_spans = threading.local()

        self.cache = LRUCache(cache_size)
        self.batcher = MicroBatcher(
            self._compute_rows, max_batch=max_batch, registry=self.registry
        )
        self.stats = ServiceStats(registry=self.registry)

        self._index: Optional[SimilarityStore] = None
        self._row_version: Optional[np.ndarray] = None
        self._catalog = None
        self._fingerprints: Optional[FingerprintIndex] = None
        self._fingerprint_version: int = -1
        if catalog is not None and index is not None:
            raise ConfigurationError(
                "pass either index= or catalog=, not both: a catalog "
                "restores its own index"
            )
        with self._lock:
            # Fingerprints first: they describe the graph before any
            # replayed edge log, which then stales them.
            if fingerprints is not None:
                self.attach_fingerprints(fingerprints)
            if index is not None:
                self.attach_index(index)
            if catalog is not None:
                self._restore_from_catalog(catalog)
            graph.subscribe(self._on_mutation)

    # ------------------------------------------------------------------ #
    # Graph state
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        """Number of vertices served (fixed for the service's lifetime)."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Edge count at the current version (see
        :attr:`VersionedGraph.num_edges`)."""
        return self._graph.num_edges

    @property
    def version(self) -> int:
        """Graph version; bumped by every effective edge mutation."""
        return self._graph.version

    @property
    def dirty_vertices(self) -> frozenset[int]:
        """Vertices marked dirty by mutations and not yet refreshed."""
        with self._lock:
            return frozenset(self._dirty)

    def current_graph(self):
        """The served graph at the current version (see
        :meth:`VersionedGraph.current`)."""
        return self._graph.current()

    def has_edge(self, source: Hashable, target: Hashable) -> bool:
        """Whether the directed edge exists in the served graph."""
        return self._graph.has_edge(source, target)

    # ------------------------------------------------------------------ #
    # Index management
    # ------------------------------------------------------------------ #
    @property
    def index(self) -> Optional[SimilarityStore]:
        """The attached similarity index, if any."""
        return self._index

    @property
    def index_k(self) -> int:
        """Per-row truncation of the attached index (0 when none)."""
        if self._index is None:
            return 0
        return int(self._index.extra.get("index_k", 0))

    @property
    def catalog(self):
        """The attached durable catalog, if any."""
        return self._catalog

    def _restore_from_catalog(self, catalog) -> None:
        """Resume exactly where the catalog's writer stopped.

        Called from the constructor, under the graph lock.  The restored
        store attaches through :meth:`attach_index` (which validates
        damping/iterations like any other index), the edge log replays
        onto the graph and becomes its journal, and the dirty set is
        rebuilt as every endpoint whose latest logged mutation outruns its
        persisted row version — rows refreshed-and-committed before the
        shutdown come back warm, everything else lazily recomputes, so
        served answers are bit-identical to the pre-shutdown process.
        """
        state = catalog.restore(self._graph.base)
        self.attach_index(state.store)
        self._graph.attach_journal(catalog, state.edge_ops, state.log_version)
        self._row_version = state.row_versions
        last_op: dict[int, int] = {}
        for _, source, target, version in state.edge_ops:
            for endpoint in (int(source), int(target)):
                last_op[endpoint] = max(last_op.get(endpoint, 0), int(version))
        self._dirty = {
            endpoint
            for endpoint, version in last_op.items()
            if version > int(state.row_versions[endpoint])
        }
        self._catalog = catalog

    def attach_index(self, index: SimilarityStore) -> None:
        """Attach ``index`` (built for the *current* graph version).

        The index's series parameters must match the service's — rankings
        served from the index and rankings computed on demand must be the
        same answers.
        """
        if index.num_vertices != self._n:
            raise ConfigurationError(
                f"index covers {index.num_vertices} vertices, service graph "
                f"has {self._n}"
            )
        if abs(index.damping - self.damping) > 1e-12:
            raise ConfigurationError(
                f"index damping {index.damping} != service damping {self.damping}"
            )
        stored_iterations = index.extra.get("iterations")
        if stored_iterations is not None and int(stored_iterations) != self.iterations:
            raise ConfigurationError(
                f"index iterations {stored_iterations} != service "
                f"iterations {self.iterations}"
            )
        if "index_k" not in index.extra:
            raise ConfigurationError(
                "index has no index_k metadata; build it with build_index()"
            )
        with self._lock:
            self._index = index
            self._row_version = np.full(
                self._n, self._graph.version, dtype=np.int64
            )

    def build_index(
        self,
        index_k: int = 50,
        chunk_size: int = 256,
        workers: Optional[int] = None,
    ) -> SimilarityStore:
        """Build (or rebuild) the index for the current graph and attach it.

        ``workers`` defaults to the service's own worker count; the build is
        bit-identical for any value.  Like every other write-back, the
        attach is version-gated: if a mutation lands while the (unlocked)
        build sweep runs, the stale result is discarded and the build
        restarts from the new graph, so an attached index always matches
        the version it is stamped with.  After two discarded sweeps the
        final attempt holds the service lock for the build's duration —
        mutations (and queries) block briefly, but a sustained mutator can
        never starve the rebuild forever.
        """

        def sweep(graph) -> SimilarityStore:
            count = self.workers if workers is None else workers
            with self._lock:
                if self._pool_disabled:
                    count = 1  # the circuit breaker covers this path too
            try:
                index = _build_index(
                    graph,
                    index_k=index_k,
                    damping=self.damping,
                    iterations=self.iterations,
                    backend=self._engine,
                    chunk_size=chunk_size,
                    workers=count,
                    # This build may run from a process with live reader
                    # threads; fork would be unsafe (see _current_transition).
                    mp_context="forkserver",
                )
            except BrokenProcessPool:
                # Same contract as _compute_rows_versioned: a dead pool
                # trips the breaker and the build falls back to serial.
                with self._lock:
                    self.pool_failures += 1
                    self._pool_disabled = True
                index = _build_index(
                    graph,
                    index_k=index_k,
                    damping=self.damping,
                    iterations=self.iterations,
                    backend=self._engine,
                    chunk_size=chunk_size,
                    workers=1,
                )
            # Serve labels through the original graph, not the edge-list
            # snapshot.
            index.graph = self._graph.base
            return index

        for _ in range(2):
            with self._lock:
                version = self._graph.version
                graph = self._graph.current()
            index = sweep(graph)
            with self._lock:
                if self._graph.version != version:
                    continue  # a mutation raced the sweep; rebuild
                self.attach_index(index)
                self._dirty.clear()
                return index
        with self._lock:  # final attempt: block mutations, guarantee progress
            index = sweep(self._graph.current())
            self.attach_index(index)
            self._dirty.clear()
            return index

    # ------------------------------------------------------------------ #
    # Fingerprint (approximate-tier) management
    # ------------------------------------------------------------------ #
    @property
    def fingerprints(self) -> Optional[FingerprintIndex]:
        """The attached Monte-Carlo fingerprint index, if any."""
        return self._fingerprints

    def attach_fingerprints(self, fingerprints: FingerprintIndex) -> None:
        """Attach a fingerprint index sampled from the *current* graph.

        The index's damping and vertex count must match the service's.  It
        is stamped with the current graph version: a later mutation makes
        it stale, and stale fingerprints are never consulted — approximate
        queries fall through to the exact compute tier until
        :meth:`resample_fingerprints` re-samples them.
        """
        if fingerprints.num_vertices != self._n:
            raise ConfigurationError(
                f"fingerprints cover {fingerprints.num_vertices} vertices, "
                f"service graph has {self._n}"
            )
        if abs(fingerprints.damping - self.damping) > 1e-12:
            raise ConfigurationError(
                f"fingerprint damping {fingerprints.damping} != service "
                f"damping {self.damping}"
            )
        with self._lock:
            self._fingerprints = fingerprints
            self._fingerprint_version = self._graph.version

    def resample_fingerprints(
        self,
        num_walks: Optional[int] = None,
        walk_length: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> Optional[FingerprintIndex]:
        """Re-sample the fingerprint index from the current graph.

        Parameters default to the attached index's — walk count, length,
        seed, ``head_iterations`` and compute backend all carry over
        (``num_walks=128`` and the conventional walk length when none is
        attached), so a mutation never silently changes the tier's
        configured accuracy/latency trade-off.  Sampling runs *outside* the
        service lock; like every other write-back the attach is
        version-gated — if a mutation races the sampling, the stale walks
        are discarded and ``None`` is returned (callers retry or let
        approximate traffic keep falling through to exact compute).
        """
        with self._lock:
            version = self._graph.version
            graph = self._graph.current()
            current = self._fingerprints
        if num_walks is None:
            num_walks = current.num_walks if current is not None else 128
        if walk_length is None and current is not None:
            walk_length = current.walk_length
        if seed is None:
            seed = current.seed if current is not None else 0
        head_iterations = (
            current.head_iterations if current is not None else 4
        )
        backend = current._engine if current is not None else self._engine
        fingerprints = FingerprintIndex.build(
            graph,
            damping=self.damping,
            num_walks=num_walks,
            walk_length=walk_length,
            head_iterations=head_iterations,
            backend=backend,
            seed=seed,
        )
        with self._lock:
            if self._graph.version != version:
                return None
            self._fingerprints = fingerprints
            self._fingerprint_version = version
        return fingerprints

    def _fingerprints_fresh(self) -> bool:
        # Caller holds the service lock.
        return (
            self._fingerprints is not None
            and self._fingerprint_version == self._graph.version
        )

    def _approx_admitted(
        self, approx: Optional[bool], max_error: Optional[float]
    ) -> bool:
        """Whether this query's policy admits the Monte-Carlo tier.

        Caller holds the service lock.  ``approx=True`` opts in outright;
        ``max_error`` opts in when the attached fingerprints' standard
        error is at or below the bound; ``approx=False`` (or both ``None``)
        keeps the query exact.  Stale or missing fingerprints never admit.
        """
        if approx is False or not self._fingerprints_fresh():
            return False
        if approx:
            return True
        if max_error is not None:
            return self._fingerprints.standard_error <= max_error
        return False

    # ------------------------------------------------------------------ #
    # Query path — the request pipeline
    # ------------------------------------------------------------------ #
    def validate_request(self, request: QueryRequest) -> QueryRequest:
        """Check one request against this service; violations raise typed
        :class:`~repro.service.requests.ServeError`.

        Validates the schema (:meth:`QueryRequest.validated`), resolves the
        query label against the served graph, and enforces the request's
        ``graph_version`` freshness floor.  The network front-end calls
        this at admission time so a defective request is answered with its
        own typed error instead of poisoning the batch it would have
        joined.
        """
        if not isinstance(request, QueryRequest):
            raise ServeError(
                ErrorCode.BAD_REQUEST,
                f"expected a QueryRequest, got {type(request).__name__}",
            )
        request = request.validated()
        self._resolve_query(request)
        self._check_freshness(request)
        return request

    def query(self, request: QueryRequest) -> QueryResponse:
        """Answer one :class:`QueryRequest` through the tiered path.

        The single-request convenience over :meth:`query_many`; failures
        raise :class:`~repro.service.requests.ServeError` with a stable
        :class:`~repro.service.requests.ErrorCode` — the same errors a
        network caller receives on the wire.
        """
        return self.query_many([request])[0]

    def query_many(
        self, requests: Sequence[QueryRequest]
    ) -> list[QueryResponse]:
        """Answer a batch of requests, coalescing every miss into one flush.

        This is the one request pipeline every caller shares: the in-process
        ``top_k``/``top_k_many`` adapters build requests and call it, and
        the asyncio serving front-end (:mod:`repro.serve`) drains the
        requests it admitted off concurrent connections into the same
        method — so the network path and the in-process path are the same
        code answering the same :class:`QueryRequest` objects.

        Cache and index hits are answered inline under the service lock;
        the remaining misses are submitted to the micro-batcher *outside*
        the lock and resolved with a single backend call.  Computed rows
        are written back to the cache/index only if the graph version is
        unchanged since the first miss was probed — a concurrent mutation
        turns the write-back into a no-op instead of a stale merge.

        Per-request policy (``approx=True`` or a satisfiable ``max_error``)
        routes cache/index misses to the Monte-Carlo fingerprint tier
        instead of the exact compute tier.  Exact cache and index hits
        still win (they are cheaper *and* exact), approximate answers are
        never written back to the exact tiers, and queries with stale or
        absent fingerprints fall through to exact compute — the policy can
        loosen a query, never poison one.

        Failures raise :class:`~repro.service.requests.ServeError`: an
        unknown label is ``UNKNOWN_VERTEX``, malformed parameters are
        ``BAD_REQUEST``, an unmet ``graph_version`` floor is
        ``STALE_VERSION``.  Validation runs for the whole batch before any
        tier is probed, so a defective request fails the call without
        recording partial statistics.
        """
        validate_started = time.perf_counter()
        prepared: list[tuple[QueryRequest, int, int]] = []
        traces: dict[int, Trace] = {}
        for request in requests:
            if not isinstance(request, QueryRequest):
                raise ServeError(
                    ErrorCode.BAD_REQUEST,
                    f"expected a QueryRequest, got {type(request).__name__}",
                )
            request = request.validated()
            vertex = self._resolve_query(request)
            self._check_freshness(request)
            k = self.k if request.k is None else request.k
            prepared.append((request, vertex, k))
            if request.trace:
                label = (
                    request.query
                    if isinstance(request.query, (str, int))
                    else str(request.query)
                )
                traces[len(prepared) - 1] = Trace(
                    "service.query", start=validate_started, query=label, k=k
                )
        if traces:
            validate_ended = time.perf_counter()
            for trace in traces.values():
                trace.root.record("validate", validate_started, validate_ended)

        responses: list[Optional[QueryResponse]] = [None] * len(prepared)
        misses: list[tuple[int, QueryRequest, int, int, float]] = []
        estimates: list[tuple[int, QueryRequest, int, int, float, int]] = []
        # Timing starts at the first miss's probe so backend work triggered
        # by the batcher's auto-flush (misses beyond max_batch) is
        # attributed too.
        compute_started: Optional[float] = None
        version_before: Optional[int] = None
        for position, (request, vertex, k) in enumerate(prepared):
            started = time.perf_counter()
            key = (vertex, k)
            hit_tier: Optional[str] = None
            approximate = False
            with self._lock:
                version = self._graph.version
                cached = self.cache.get(key)
                if cached is not None:
                    responses[position] = self._respond(
                        request,
                        self._relabel(cached, request.query),
                        "cache",
                        version,
                    )
                    ended = time.perf_counter()
                    self.stats.record("cache", ended - started)
                    hit_tier = "cache"
                elif self._index_row_fresh(vertex) and k <= self.index_k:
                    ranking = self._rank_from_index(request.query, vertex, k)
                    responses[position] = self._respond(
                        request, ranking, "index", version
                    )
                    self.cache.put(key, ranking)
                    ended = time.perf_counter()
                    self.stats.record("index", ended - started)
                    hit_tier = "index"
                elif self._approx_admitted(request.approx, request.max_error):
                    approximate = True
                    approx_version = version
                elif version_before is None:
                    version_before = version
            if hit_tier is not None:
                tree = None
                trace = traces.get(position)
                if trace is not None:
                    trace.root.record(f"tier:{hit_tier}", started, ended)
                    trace.root.finish(ended)
                    tree = trace.to_tree()
                self._observe_answer(
                    position, request, hit_tier, ended - started, responses, tree
                )
                continue
            if approximate:
                estimates.append(
                    (position, request, vertex, k, started, approx_version)
                )
                continue
            if compute_started is None:
                compute_started = started
            misses.append((position, request, vertex, k, started))

        if estimates:
            # The fingerprint array is immutable, so estimation runs outside
            # the lock; nothing is written back (approximate answers must
            # never seed the exact cache or index), so no version gate is
            # needed either.
            fingerprints = self._fingerprints
            assert fingerprints is not None
            rows = fingerprints.estimate_rows(
                [vertex for _, _, vertex, _, _, _ in estimates]
            )
            # One batched estimation served every admitted query; attribute
            # the elapsed wall-clock evenly (same accounting as compute).
            estimate_ended = time.perf_counter()
            share = (estimate_ended - estimates[0][4]) / len(estimates)
            for (position, request, vertex, k, started, version), row in zip(
                estimates, rows
            ):
                ranking = self._rank_row(row, request.query, vertex, k)
                responses[position] = self._respond(
                    request, ranking, "approx", version
                )
                self.stats.record("approx", share)
                tree = None
                trace = traces.get(position)
                if trace is not None:
                    trace.root.record(
                        "tier:approx", started, estimate_ended,
                        batched=len(estimates),
                    )
                    trace.root.finish(estimate_ended)
                    tree = trace.to_tree()
                self._observe_answer(
                    position, request, "approx", share, responses, tree
                )

        if misses:
            # Submitted outside the service lock: the batcher's compute
            # callback re-enters the service, and holding both locks here
            # would invert the batcher → service lock order.  One
            # submit_many call hands the whole miss set to the coalescer.
            if traces:
                self._kernel_spans.intervals = []
            batch_started = time.perf_counter()
            handles = self.batcher.submit_many(
                [vertex for _, _, vertex, _, _ in misses]
            )
            self.batcher.flush()
            batch_ended = time.perf_counter()
            kernel_intervals = (
                getattr(self._kernel_spans, "intervals", None) or []
            )
            if traces:
                self._kernel_spans.intervals = None
            fresh: dict[int, np.ndarray] = {}
            rankings: list[RankedList] = []
            for (position, request, vertex, k, _), handle in zip(misses, handles):
                row = handle.result()
                ranking = self._rank_row(row, request.query, vertex, k)
                rankings.append(ranking)
                # Stamped with the version the row was computed at: a
                # mutation may land between the probe and the flush.
                responses[position] = self._respond(
                    request, ranking, "compute", handle.version
                )
                fresh.setdefault(vertex, row)
            write_back_started = time.perf_counter()
            with self._lock:
                # Version gate: write computed answers back only when no
                # mutation raced the computation (see class docstring).
                if self._graph.version == version_before:
                    for (position, request, vertex, k, _), ranking in zip(
                        misses, rankings
                    ):
                        self.cache.put((vertex, k), ranking)
                    if self.auto_warm and self._index is not None:
                        self._merge_fresh(
                            list(fresh), np.stack(list(fresh.values()))
                        )
                write_back_ended = time.perf_counter()
                # One flush (plus warm-back) served every miss; attribute the
                # elapsed wall-clock evenly so tiers stay per-query comparable.
                share = (write_back_ended - compute_started) / len(misses)
                for _ in misses:
                    self.stats.record("compute", share)
            for position, request, vertex, k, started in misses:
                tree = None
                trace = traces.get(position)
                if trace is not None:
                    tier_span = trace.root.child("tier:compute", start=started)
                    batch_span = tier_span.child(
                        "batcher", start=batch_started,
                        batch_size=len(misses), distinct_rows=len(fresh),
                    )
                    for kernel_started, kernel_ended, rows in kernel_intervals:
                        batch_span.record(
                            "kernel", kernel_started, kernel_ended, rows=rows
                        )
                    if not kernel_intervals:
                        # Another thread's flush computed our rows before
                        # ours ran; the kernel time lives in its trace.
                        batch_span.tag(coalesced=True)
                    batch_span.finish(batch_ended)
                    tier_span.record(
                        "write_back", write_back_started, write_back_ended
                    )
                    tier_span.finish(write_back_ended)
                    trace.root.finish(write_back_ended)
                    tree = trace.to_tree()
                self._observe_answer(
                    position, request, "compute", share, responses, tree
                )
        return [response for response in responses if response is not None]

    # ------------------------------------------------------------------ #
    # Query path — label adapters
    # ------------------------------------------------------------------ #
    def top_k(self, query: Hashable, k: Optional[int] = None) -> RankedList:
        """Answer one top-k query (adapter over :meth:`query`, raising its
        :class:`~repro.service.requests.ServeError`)."""
        return self.top_k_many([query], k=k)[0]

    def top_k_many(
        self, queries: Sequence[Hashable], k: Optional[int] = None
    ) -> list[RankedList]:
        """Answer a batch of queries (adapter over :meth:`query_many`)."""
        responses = self.query_many(
            [QueryRequest(query=query, k=k) for query in queries]
        )
        return [response.ranking() for response in responses]

    # ------------------------------------------------------------------ #
    # Incremental updates
    # ------------------------------------------------------------------ #
    def add_edge(self, source: Hashable, target: Hashable) -> bool:
        """Insert a directed edge; returns ``False`` when already present.
        An attached catalog logs it first: if that fails, nothing changes."""
        return self._graph.add_edge(source, target)

    def remove_edge(self, source: Hashable, target: Hashable) -> bool:
        """Delete a directed edge; returns ``False`` when absent (logged
        like :meth:`add_edge`)."""
        return self._graph.remove_edge(source, target)

    def refresh(self, vertices: Optional[Iterable[Hashable]] = None) -> int:
        """Eagerly recompute stale index rows; return how many were refreshed.

        ``vertices`` defaults to the dirty set (mutation endpoints).  The
        rows are evaluated in one batched backend call at the current graph
        version — *outside* the service lock, so concurrent readers keep
        being served — and merged into the index only if no further
        mutation raced the computation (otherwise the refresh is abandoned,
        returns 0, and the vertices stay dirty for the next call).  Without
        an attached index there is nothing to refresh eagerly (every answer
        is already computed on demand) — the dirty set is simply cleared.
        """
        with self._lock:
            if vertices is None:
                targets = sorted(self._dirty)
            else:
                targets = sorted(
                    {self._graph.index_of(vertex) for vertex in vertices}
                )
            if self._index is None or not targets:
                self._dirty.difference_update(targets)
                return 0
        rows, version = self._compute_rows_versioned(
            np.asarray(targets, dtype=np.int64)
        )
        with self._lock:
            if self._graph.version != version:
                return 0
            self._merge_fresh(targets, rows)
            self._dirty.difference_update(targets)
        self.stats.note_refreshed(len(targets))
        return len(targets)

    def _on_mutation(self, endpoints) -> None:
        """Stale what the service derived from the old edges (called by the
        graph, under its lock, after a mutation through any owner)."""
        if self._executor is not None:
            # The pool is bound to the now-stale transition operator.  A
            # reader racing this shutdown falls back to a serial compute
            # (see _compute_rows_versioned); its result is version-gated
            # away anyway.  wait=False: never block the mutation (which
            # holds the graph lock) on an in-flight compute.
            self._executor.close(wait=False)
            self._executor = None
        self._dirty.update(endpoints)
        # SimRank edits are global: every cached ranking and every index row
        # is potentially affected, so invalidation is version-based and
        # total.  Recomputation, not invalidation, is what stays local.  The
        # index itself is left alone: every row's version stamp is now
        # behind the graph's, so no row is served until refresh() or a
        # compute-tier merge replaces it (at most index_k old entries each).
        self.cache.invalidate()
        self.stats.note_update()

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _current_transition(self):
        """The transition operator, executor and version, as one snapshot."""
        with self._lock:
            transition, _ = self._graph.transition(self._engine)
            if (
                self._executor is None
                and self.workers > 1
                and not self._pool_disabled
            ):
                # forkserver, not fork: this pool is created from a process
                # with live reader threads, and forking one can clone locks
                # in a held state (see parallel.executor._pool_context).
                self._executor = ParallelExecutor(
                    transition,
                    damping=self.damping,
                    iterations=self.iterations,
                    backend=self._engine,
                    workers=self.workers,
                    context="forkserver",
                )
            return transition, self._executor, self._graph.version

    def _compute_rows_versioned(
        self, indices: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """Compute similarity rows plus the graph version they belong to."""
        transition, executor, version = self._current_transition()
        if executor is not None:
            try:
                return executor.similarity_rows(indices), version
            except BrokenProcessPool:
                # A worker died (OOM kill, segfault, or — with stdin/-c
                # parents — the forkserver child failing to re-import
                # __main__).  Trip the circuit breaker: discard the pool,
                # stop creating new ones for this service, and fall back
                # to the serial evaluation on the snapshot.
                with self._lock:
                    self.pool_failures += 1
                    self._pool_disabled = True
                    if self._executor is executor:
                        self._executor = None
                executor.close(wait=False)
            except RuntimeError:
                # The pool was retired by a concurrent mutation mid-submit;
                # fall through to a serial evaluation on the snapshot.
                pass
        rows = self._engine.similarity_rows(
            transition,
            indices,
            damping=self.damping,
            iterations=self.iterations,
        )
        return rows, version

    def _compute_rows(self, indices: np.ndarray) -> tuple[np.ndarray, int]:
        # When a traced request is in flight on this thread, time the raw
        # backend call: the batcher flush runs this callback synchronously
        # in the caller's thread, so the interval lands in the right trace.
        intervals = getattr(self._kernel_spans, "intervals", None)
        if intervals is None:
            return self._compute_rows_versioned(indices)
        kernel_started = time.perf_counter()
        computed = self._compute_rows_versioned(indices)
        intervals.append(
            (kernel_started, time.perf_counter(), int(indices.size))
        )
        return computed

    def _index_row_fresh(self, vertex: int) -> bool:
        # Caller holds the service lock.
        return (
            self._index is not None
            and self._row_version is not None
            and int(self._row_version[vertex]) == self._graph.version
        )

    def _merge_fresh(self, vertices: Sequence[int], rows: np.ndarray) -> None:
        """Splice freshly computed rows into the index in one batched merge.

        Caller holds the service lock and has already version-gated.  With
        a catalog attached the truncated rows are additionally committed
        to its row log at the current version, so a restart replays them
        instead of recomputing.
        """
        assert self._index is not None and self._row_version is not None
        vertices = list(vertices)
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        parts: list[tuple[np.ndarray, np.ndarray]] = []
        for position, vertex in enumerate(vertices):
            fresh = rows[position].copy()
            fresh[vertex] = 0.0
            parts.append(row_top_k(fresh, self.index_k))
        version = self._graph.version
        self._index.merge_row_parts(vertices, parts)
        self._row_version[vertices] = version
        if self._catalog is not None:
            self._catalog.append_delta(version, vertices, parts)

    def _rank_from_index(self, query: Hashable, vertex: int, k: int) -> RankedList:
        entries = self._index.top_k(vertex, k=k)  # type: ignore[union-attr]
        if len(entries) < k:
            entries = self._pad_entries(entries, vertex, k)
        return RankedList(query=query, entries=tuple(entries))

    def _rank_row(
        self, row: np.ndarray, query: Hashable, vertex: int, k: int
    ) -> RankedList:
        # The shared (-score, id) truncation — the same implementation the
        # batch API and the index builder use, so every tier ranks alike.
        entries = ranked_entries(row, k, exclude=vertex)
        return RankedList(
            query=query,
            entries=tuple(
                (self._graph.label_of(column), score)
                for column, score in entries
            ),
        )

    def _pad_entries(
        self, entries: list[tuple[Hashable, float]], vertex: int, k: int
    ) -> list[tuple[Hashable, float]]:
        # A truncated row can hold fewer than k positive scores only when
        # the true row does too; the full ranking then continues with
        # zero-score vertices in id order, which is reproduced here.
        padded = list(entries)
        used = {label for label, _ in padded}
        for candidate in range(self._n):
            if len(padded) == k:
                break
            if candidate == vertex:
                continue
            label = self._graph.label_of(candidate)
            if label in used:
                continue
            padded.append((label, 0.0))
        return padded

    @staticmethod
    def _relabel(ranking: RankedList, query: Hashable) -> RankedList:
        # Cache keys are vertex ids; echo back the caller's query handle
        # (label or id) so batch answers line up with the submitted batch.
        if ranking.query == query:
            return ranking
        return RankedList(query=query, entries=ranking.entries)

    def _resolve_query(self, request: QueryRequest) -> int:
        """Map a request's query label to its vertex id (typed errors)."""
        try:
            return self._graph.index_of(request.query)
        except KeyError as error:
            raise ServeError(
                ErrorCode.UNKNOWN_VERTEX,
                f"unknown vertex {request.query!r}",
                request_id=request.request_id,
            ) from error
        except TypeError as error:  # unhashable label (e.g. a list)
            raise ServeError(
                ErrorCode.BAD_REQUEST,
                f"query label is not hashable: {error}",
                request_id=request.request_id,
            ) from error

    def _check_freshness(self, request: QueryRequest) -> None:
        """Enforce a request's ``graph_version`` freshness floor.

        ``graph_version`` is a *minimum*: the caller has observed that
        version (read-your-writes) and refuses answers computed against an
        older graph.  The served version only moves forward, so a floor
        above the current version can never be satisfied by waiting —
        ``STALE_VERSION`` tells the caller to re-resolve, and is marked
        retryable because a raced mutation may have landed by the retry.
        """
        if request.graph_version is None:
            return
        current = self.version
        if request.graph_version > current:
            raise ServeError(
                ErrorCode.STALE_VERSION,
                f"request requires graph version >= {request.graph_version}, "
                f"service is at {current}",
                request_id=request.request_id,
            )

    @staticmethod
    def _respond(
        request: QueryRequest,
        ranking: RankedList,
        tier: str,
        graph_version: Optional[int],
    ) -> QueryResponse:
        return QueryResponse(
            query=request.query,
            entries=ranking.entries,
            tier=tier,
            graph_version=int(graph_version or 0),
            request_id=request.request_id,
        )

    def _observe_answer(
        self,
        position: int,
        request: QueryRequest,
        tier: str,
        duration: float,
        responses: list,
        tree: Optional[dict],
    ) -> None:
        """Attach a finished span tree and feed the slow-query log."""
        if tree is not None:
            responses[position] = replace(responses[position], trace=tree)
        response = responses[position]
        self.slow_queries.offer(
            duration,
            response.query if isinstance(response.query, (str, int))
            else str(response.query),
            tier,
            graph_version=response.graph_version,
            plan_digest=self.plan_digest,
            trace=tree,
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Shut down the service's worker pool, if any (idempotent)."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.close()

    def __enter__(self) -> "SimilarityService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        index_state = (
            f"index_k={self.index_k}" if self._index is not None else "no-index"
        )
        return (
            f"<SimilarityService n={self._n} m={self.num_edges} "
            f"version={self.version} {index_state} "
            f"queries={self.stats.queries}>"
        )
