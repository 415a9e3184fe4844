"""The session facade: one ``Engine`` per graph, shared artifacts across tasks.

Before this module, every entry point rebuilt its own state: ``simrank``
materialised a transition operator, ``simrank_top_k`` another,
``build_index`` a third, and ``SimilarityService`` a fourth — four copies of
the same CSR matrix for one graph.  :class:`Engine` owns that state once per
session: the transition operator, the worker pool, the truncated serving
index and the Monte-Carlo fingerprints are all built lazily on first use and
reused by every task (``all_pairs`` / ``top_k`` / ``pair`` / ``serve``),
with build counts exposed on :attr:`Engine.counters` so reuse is a testable
invariant, not a hope.

The graph itself — edges, version, transition operators and the lock —
lives in one :class:`~repro.graph.versioned.VersionedGraph` that the engine
shares with every service :meth:`serve` creates, so a mutation through any
of them is one mutation of one graph, seen by all at one version.

Task execution goes through the cost-based planner
(:mod:`repro.engine.planner`): :meth:`explain` returns the chosen plan —
method, backend, workers, serving tier, estimated cost — as an inspectable
dataclass before any work runs.

The legacy free functions (:func:`repro.simrank`,
:func:`repro.simrank_top_k`) are thin wrappers over an ephemeral one-shot
engine, so both surfaces return bit-identical answers.

Examples
--------
>>> from repro import Engine, EngineConfig
>>> from repro.graph.generators import web_graph
>>> engine = Engine(web_graph(num_pages=200, num_hosts=8, seed=1))
>>> result = engine.all_pairs()
>>> rankings = engine.top_k([0, 5], k=5)     # reuses the operator
>>> print(engine.explain().task("top_k").backend)
sparse
"""

from __future__ import annotations

import inspect
import warnings
from typing import Hashable, Optional, Sequence, Union

import numpy as np

from ..api import METHODS, _resolve_backend
from ..baselines.topk import RankedList
from ..core.backends import SimRankBackend, TransitionOperator, get_backend
from ..core.instrumentation import Instrumentation
from ..core.result import SimRankResult
from ..core.similarity_store import SimilarityStore, ranked_entries
from ..exceptions import ConfigurationError
from ..graph.versioned import VersionedGraph
from ..obs import MetricsRegistry
from ..parallel import ParallelExecutor, resolve_workers
from ..service.fingerprints import FingerprintIndex
from ..service.index import build_index as _build_index
from ..service.service import SimilarityService
from .config import EngineConfig
from .cost_model import CostModel, resolve_cost_model
from .planner import ExecutionPlan, GraphStats, TaskPlan, plan_all, plan_task

__all__ = ["ArtifactCounters", "Engine"]


class ArtifactCounters:
    """How many times each shared artifact was (re)built this session.

    The whole point of the session facade is that these stay at 1 until a
    mutation invalidates the artifacts — the parity suite asserts exactly
    that, so artifact reuse is enforced, not assumed.

    Backed by a :class:`~repro.obs.MetricsRegistry` (one
    ``engine_<field>`` counter per field, including the plan-cache
    counters ``engine_plan_computes`` / ``engine_plan_cache_hits``); the
    historical attributes stay readable and assignable with bit-identical
    values, so the engine's ``+= 1`` sites work unchanged.
    """

    _FIELDS = (
        "transition_builds",
        "executor_builds",
        "index_builds",
        "fingerprint_builds",
        "plans",
        "plan_computes",
        "plan_cache_hits",
        "catalog_opens",
    )

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._counters = {
            name: self.registry.counter(f"engine_{name}") for name in self._FIELDS
        }

    def as_dict(self) -> dict[str, int]:
        with self.registry.lock:  # one consistent read of all eight
            return {name: int(self._counters[name].value) for name in self._FIELDS}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ArtifactCounters):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"ArtifactCounters({inner})"


def _artifact_counter_property(name: str) -> property:
    def getter(self: ArtifactCounters) -> int:
        return int(self._counters[name].value)

    def setter(self: ArtifactCounters, value: int) -> None:
        self._counters[name].set(int(value))

    return property(getter, setter)


for _field_name in ArtifactCounters._FIELDS:
    setattr(ArtifactCounters, _field_name, _artifact_counter_property(_field_name))
del _field_name


class Engine:
    """A SimRank session over one graph: plan, compute, serve — share state.

    Parameters
    ----------
    graph:
        A :class:`~repro.graph.digraph.DiGraph` or
        :class:`~repro.graph.edgelist.EdgeListGraph`.  The vertex set is
        fixed for the session; edges may be mutated through
        :meth:`add_edge` / :meth:`remove_edge`.
    config:
        An :class:`~repro.engine.config.EngineConfig` (or a plain dict of
        its fields).  ``None`` uses the defaults — auto method/backend
        selection, serial execution.

    The engine is a context manager; :meth:`close` retires the shared
    worker pool.  It is safe to call from several threads; its state, and
    that of every service it creates, is guarded by the graph's lock.
    """

    def __init__(
        self,
        graph,
        config: Union[EngineConfig, dict, None] = None,
    ) -> None:
        if config is None:
            config = EngineConfig()
        elif isinstance(config, dict):
            config = EngineConfig.from_dict(config)
        elif not isinstance(config, EngineConfig):
            raise ConfigurationError(
                "config must be an EngineConfig, a dict of its fields, or "
                f"None; got {type(config).__name__}"
            )
        self.config = config
        self._config_digest = config.digest()
        self.counters = ArtifactCounters()
        self._graph = VersionedGraph(graph)
        self._lock = self._graph.lock
        self._stats: Optional[GraphStats] = None
        self._executor: Optional[ParallelExecutor] = None
        self._index: Optional[SimilarityStore] = None
        self._fingerprints: Optional[FingerprintIndex] = None
        self._cost_model: Optional[CostModel] = None
        self._series_backend: Optional[str] = None
        # Resolved plans, keyed by (task, queries, config digest, model
        # digest) — the GraphStats component is implicit: _on_mutation()
        # clears the cache whenever the stats can change.
        self._plan_cache: dict[tuple, Union[TaskPlan, ExecutionPlan]] = {}
        self._graph.subscribe(self._on_mutation)

    # ------------------------------------------------------------------ #
    # Session state
    # ------------------------------------------------------------------ #
    @property
    def version(self) -> int:
        """Session version; bumped by every effective edge mutation."""
        return self._graph.version

    @property
    def num_vertices(self) -> int:
        return self._graph.num_vertices

    @property
    def num_edges(self) -> int:
        """Edge count at the current version (see
        :attr:`VersionedGraph.num_edges`)."""
        return self._graph.num_edges

    def current_graph(self):
        """The session's graph at the current version.

        Until the first mutation this is the caller's graph object; after
        a mutation it is an :class:`~repro.graph.edgelist.EdgeListGraph`
        of the edge overlay.  Labels keep resolving through the *original*
        graph on every query surface (the vertex set is fixed; only edges
        mutate).
        """
        return self._graph.current()

    def stats(self) -> GraphStats:
        """Graph statistics at the current version (cached)."""
        with self._lock:
            if self._stats is None:
                self._stats = GraphStats.from_graph(self.current_graph())
            return self._stats

    # ------------------------------------------------------------------ #
    # Planning
    # ------------------------------------------------------------------ #
    def cost_model(self) -> CostModel:
        """The session's cost model, resolved once and reused.

        Resolution (config path > ``REPRO_COST_PROFILE`` > user profile >
        static) happens on the first plan and is pinned for the session,
        so every plan — and the plan cache keyed on the model's digest —
        prices against the same constants.
        """
        with self._lock:
            if self._cost_model is None:
                self._cost_model = resolve_cost_model(self.config)
            return self._cost_model

    def _plan(self, task: str, queries: int = 1) -> TaskPlan:
        """The (memoized) plan for one task shape at the current version.

        Every dispatch path prices through here; the cache means a steady
        session re-prices nothing (``counters.plan_computes`` stays flat
        while ``plan_cache_hits`` grows) and a mutation re-prices
        everything exactly once (``_on_mutation`` clears the cache).
        """
        model = self.cost_model()
        key = (task, queries, self._config_digest, model.digest())
        with self._lock:
            cached = self._plan_cache.get(key)
            if cached is not None:
                self.counters.plan_cache_hits += 1
                return cached
        plan = plan_task(
            task, self.stats(), self.config, queries=queries, cost_model=model
        )
        with self._lock:
            self.counters.plan_computes += 1
            self._plan_cache[key] = plan
        return plan

    def _plan_full(self, queries: int = 1) -> ExecutionPlan:
        """The memoized all-tasks plan (the ``explain()`` artifact)."""
        model = self.cost_model()
        key = ("__all__", queries, self._config_digest, model.digest())
        with self._lock:
            cached = self._plan_cache.get(key)
            if cached is not None:
                self.counters.plan_cache_hits += 1
                return cached
        plan = plan_all(
            self.stats(), self.config, queries=queries, cost_model=model
        )
        with self._lock:
            self.counters.plan_computes += 1
            self._plan_cache[key] = plan
        return plan

    def plan(self, task: str, queries: int = 1) -> TaskPlan:
        """The execution plan for one task shape (see :mod:`.planner`)."""
        self.counters.plans += 1
        return self._plan(task, queries=queries)

    def explain(
        self, task: Optional[str] = None, queries: int = 1
    ) -> Union[ExecutionPlan, TaskPlan]:
        """Explain what the engine would run, without running it.

        With ``task=None`` returns an :class:`~.planner.ExecutionPlan`
        covering every task shape (all-pairs, top-k, pair, serve); with a
        task name, that shape's :class:`~.planner.TaskPlan`.  Either way
        the result names the selected method, backend, worker count,
        serving tier and estimated cost, and serialises via ``to_dict()``.
        """
        self.counters.plans += 1
        if task is not None:
            return self._plan(task, queries=queries)
        return self._plan_full(queries=queries)

    # ------------------------------------------------------------------ #
    # Shared artifacts
    # ------------------------------------------------------------------ #
    def _series_backend_name(self) -> str:
        """The backend the shared series artifacts are built on.

        Resolved on first use and kept for the session: a mutation
        re-prices the plans, but dense and sparse sums differ in the last
        bits, so a backend that followed the plan would make the engine and
        the services it created answer the same query differently.
        """
        with self._lock:
            if self._series_backend is None:
                spec = METHODS["matrix"]
                if self.config.backend is not None:
                    self._series_backend = _resolve_backend(spec, self.config.backend)
                else:
                    self._series_backend = self._plan("top_k").backend
            return self._series_backend

    def transition(self) -> TransitionOperator:
        """The session's transition operator, built once and reused.

        Every task shape — the matrix all-pairs solve, batched top-k rows,
        single-pair scores, the serving index, the fingerprint head — runs
        against this one operator, and so does every service
        :meth:`serve` created; :attr:`counters` records the builds the
        engine caused.
        """
        return self._series()[1]

    def _series(self) -> tuple[SimRankBackend, TransitionOperator]:
        """The series backend and its operator at the current version."""
        backend = get_backend(self._series_backend_name())
        with self._lock:
            transition, built = self._graph.transition(backend)
            if built:
                self.counters.transition_builds += 1
        return backend, transition

    def _shared_executor(self, workers: int) -> Optional[ParallelExecutor]:
        """The session worker pool, bound to the shared operator.

        Returns ``None`` when the session runs serially.  The pool is
        created once per (version, backend) and reused by every parallel
        task whose series parameters match the session config.
        """
        if workers <= 1:
            return None
        with self._lock:
            backend, transition = self._series()
            if self._executor is None:
                self._executor = ParallelExecutor(
                    transition,
                    damping=self.config.damping,
                    iterations=self.config.resolved_iterations(),
                    backend=backend,
                    workers=workers,
                )
                self.counters.executor_builds += 1
            return self._executor

    def build_index(self, index_k: Optional[int] = None) -> SimilarityStore:
        """Build (or rebuild) the session's truncated serving index.

        Runs the batched series sweep against the shared transition
        operator — the operator is *not* rebuilt — honouring the config's
        ``workers`` and ``memory_budget``.  The index is retained as a
        session artifact and attached to any service :meth:`serve` wires
        (``top_k``/``pair`` always evaluate the series directly; the index
        serves the *service's* tiered path).  With ``catalog_path``
        configured the built index is additionally committed as a durable
        catalog there (recommitting over any previous one), so a later
        session — or :meth:`serve` after a restart — opens it from disk
        instead of rebuilding.
        """
        plan = self._plan("serve")
        with self._lock:
            version = self._graph.version
            graph = self._graph.current()
            # One source for both: the class map the build reads is the
            # operator's, so the kernel must run on that operator's backend.
            backend, transition = self._series()
        index = _build_index(
            graph,
            index_k=self.config.index_k if index_k is None else index_k,
            damping=self.config.damping,
            iterations=self.config.resolved_iterations(),
            backend=backend,
            workers=plan.workers,
            memory_budget=self.config.memory_budget,
            transition=transition,
        )
        if self.config.catalog_path is not None:
            # Committed while the store still references the *structural*
            # build graph, so the catalog fingerprint describes the edges
            # the scores were computed from.
            from ..catalog import IndexCatalog

            IndexCatalog.create(self.config.catalog_path, index, overwrite=True)
        # Serve labels through the session's original graph, not the
        # integer edge overlay (same convention as the service's rebuild).
        index.graph = self._graph.base
        with self._lock:
            # A mutation that raced the build has already staled it.
            if self._graph.version == version:
                self._index = index
            self.counters.index_builds += 1
        return index

    def build_fingerprints(self) -> FingerprintIndex:
        """Sample the session's Monte-Carlo fingerprint index.

        Uses the config's ``approx_walks`` / ``approx_head`` /
        ``approx_seed`` and the shared transition operator for the exact
        series head.
        """
        with self._lock:
            version = self._graph.version
            graph = self._graph.current()
            transition = (
                self.transition() if self.config.approx_head > 0 else None
            )
        fingerprints = FingerprintIndex.build(
            graph,
            damping=self.config.damping,
            num_walks=self.config.approx_walks,
            head_iterations=self.config.approx_head,
            backend=self._series_backend_name(),
            seed=self.config.approx_seed,
            transition=transition,
        )
        with self._lock:
            if self._graph.version == version:
                self._fingerprints = fingerprints
            self.counters.fingerprint_builds += 1
        return fingerprints

    @property
    def index(self) -> Optional[SimilarityStore]:
        """The session's serving index, if built."""
        return self._index

    @property
    def fingerprints(self) -> Optional[FingerprintIndex]:
        """The session's fingerprint index, if built."""
        return self._fingerprints

    # ------------------------------------------------------------------ #
    # Tasks
    # ------------------------------------------------------------------ #
    def all_pairs(self, **params) -> SimRankResult:
        """All-pairs SimRank under the planned method/backend.

        ``params`` are forwarded verbatim to the selected solver
        (``damping``, ``iterations``, ``diagonal``, ``num_walks``, ...),
        exactly like :func:`repro.simrank` forwards its kwargs — the two
        surfaces are bit-identical.  When the solver can share the
        session's transition operator it receives it instead of rebuilding
        one.
        """
        plan = self._plan("all_pairs")
        spec = METHODS[plan.method]
        capabilities = spec.capabilities
        graph = self.current_graph()
        if capabilities.needs_adjacency and hasattr(graph, "to_digraph"):
            graph = graph.to_digraph()
        if capabilities.accepts_backend and plan.backend is not None:
            params.setdefault("backend", plan.backend)
        if capabilities.accepts_workers and self.config.workers is not None:
            params.setdefault("workers", self.config.workers)
        # Config-driven series parameters, injected only where the solver's
        # signature takes them (per-vertex baselines differ) and only when
        # the caller did not override them — explicit kwargs always win,
        # which is what keeps the one-shot wrappers bit-identical.
        accepted = inspect.signature(spec.solver).parameters
        if "damping" in accepted:
            params.setdefault("damping", self.config.damping)
        if "iterations" not in params and "accuracy" not in params:
            if self.config.iterations is not None and "iterations" in accepted:
                params["iterations"] = self.config.iterations
            elif "accuracy" in accepted:
                params["accuracy"] = self.config.accuracy
        if (
            capabilities.shares_transition
            and params.get("backend") == self._series_backend_name()
        ):
            params.setdefault("transition", self.transition())
            # The pool is only worth attaching when the *effective* worker
            # count (a call-level override wins over the plan) is parallel
            # and the solver would run it with the session's series
            # parameters baked into it.
            effective = resolve_workers(params.get("workers"))
            if effective > 1 and self._series_params_match(params):
                params.setdefault(
                    "executor", self._shared_executor(effective)
                )
        return spec.solver(graph, **params)

    def _series_params_match(self, params: dict) -> bool:
        """Whether ``params`` agree with the session's series parameters.

        The shared worker pool bakes damping/iterations in at creation;
        a task overriding either must spawn its own pool instead.
        """
        damping = params.get("damping", self.config.damping)
        iterations = params.get("iterations")
        if iterations is None:
            iterations = self.config.resolved_iterations()
        return (
            float(damping) == self.config.damping
            and int(iterations) == self.config.resolved_iterations()
        )

    def top_k(
        self,
        queries,
        k: int = 10,
        include_self: bool = False,
        instrumentation: Optional[Instrumentation] = None,
    ) -> list[RankedList]:
        """Batched top-``k`` rankings via the shared series evaluation.

        Matches :func:`repro.simrank_top_k` bit for bit — one transition
        operator and one Horner series evaluation serve the whole batch,
        ``O(K · n · |queries|)`` memory, scores in the matrix-form
        convention with ``(-score, id)`` tie-breaking.

        **Short rankings.**  A ranking holds at most
        ``n - (0 if include_self else 1)`` entries: on a graph with at
        most ``k`` (other) vertices the list is simply shorter than ``k``
        — vertices outside the query's reach still appear, carrying score
        0.0 in vertex-id order, but no entry is ever invented beyond the
        vertex set.
        """
        if isinstance(queries, (str, bytes)) or not isinstance(
            queries, (Sequence, np.ndarray)
        ):
            queries = [queries]
        plan = self._plan("top_k", queries=len(queries))
        # Labels always resolve through the session's original graph — the
        # vertex set is fixed; a mutated session's integer edge overlay is
        # a compute representation, never the query surface.
        indices = np.array(
            [self._graph.index_of(query) for query in queries], dtype=np.int64
        )
        backend, transition = self._series()
        executor = self._shared_executor(plan.workers)
        if executor is not None:
            rows = executor.similarity_rows(
                indices, instrumentation=instrumentation
            )
        else:
            rows = backend.similarity_rows(
                transition,
                indices,
                damping=self.config.damping,
                iterations=self.config.resolved_iterations(),
                instrumentation=instrumentation,
            )
        rankings: list[RankedList] = []
        for position, query in enumerate(queries):
            entries = ranked_entries(
                rows[position],
                k,
                exclude=None if include_self else int(indices[position]),
            )
            rankings.append(
                RankedList(
                    query=query,
                    entries=tuple(
                        (self._graph.label_of(column), score)
                        for column, score in entries
                    ),
                )
            )
        return rankings

    def pair(self, first: Hashable, second: Hashable) -> float:
        """The similarity score ``s(first, second)``.

        Series convention (matching :meth:`top_k` rows): self-similarity
        is exactly 1.  One series evaluation against the shared operator;
        no ``n × n`` matrix.
        """
        source = self._graph.index_of(first)
        target = self._graph.index_of(second)
        if source == target:
            return 1.0
        self._plan("pair")
        backend, transition = self._series()
        row = backend.similarity_rows(
            transition,
            np.array([source], dtype=np.int64),
            damping=self.config.damping,
            iterations=self.config.resolved_iterations(),
        )[0]
        return float(row[target])

    def serve(self, k: int = 10, warm: bool = False) -> SimilarityService:
        """A :class:`~repro.service.service.SimilarityService` on shared state.

        The service shares the session's graph — its edges, version,
        transition operators and lock — so a mutation through the engine
        or through any service reaches every one of them.  It also
        receives the serving index and the fingerprint set *if the session
        has built them*: call :meth:`build_index` /
        :meth:`build_fingerprints` first, or pass ``warm=True`` to build
        whatever the serving plan selects before wiring the service.
        Answers are bit-identical to a standalone ``SimilarityService``
        over the same graph and artifacts.

        With ``catalog_path`` configured and a committed catalog on disk,
        an unmutated session with no in-memory index serves straight from
        the catalog: the base opens memory-mapped (no rebuild, no full
        materialisation), the catalog's edge log replays onto the session
        graph — including any edge mutations a previous serving process
        durably logged — and logs every later mutation.  A catalog that
        does not match the session's graph or configuration is *not*
        served; it warns and falls back to the ordinary path (the explicit
        ``load_index``/``SimilarityService`` route raises instead — an
        opportunistic warm start must never break a legitimate session).
        """
        plan = self._plan("serve")
        catalog = None
        if (
            self.config.catalog_path is not None
            and self._index is None
            and self._graph.version == 0
            and self._graph.journal is None
        ):
            from ..catalog import IndexCatalog

            if IndexCatalog.is_catalog(self.config.catalog_path):
                try:
                    catalog = IndexCatalog.open(self.config.catalog_path)
                    catalog.validate(
                        self._graph.base,
                        damping=self.config.damping,
                        iterations=self.config.resolved_iterations(),
                        index_k=self.config.index_k,
                    )
                except ConfigurationError as error:
                    catalog = None
                    warnings.warn(
                        f"ignoring catalog at {self.config.catalog_path}: "
                        f"{error}",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                else:
                    with self._lock:
                        self.counters.catalog_opens += 1
        if catalog is None and warm:
            if plan.tier == "index" and self._index is None:
                self.build_index()
            elif plan.tier == "approx" and self._fingerprints is None:
                self.build_fingerprints()
        with self._lock:
            return SimilarityService(
                self._graph,
                self._index,
                k=k,
                damping=self.config.damping,
                iterations=self.config.resolved_iterations(),
                backend=self._series_backend_name(),
                cache_size=self.config.cache_size,
                max_batch=self.config.max_batch,
                workers=plan.workers,
                fingerprints=self._fingerprints,
                catalog=catalog,
                plan_digest=self._config_digest,
            )

    def server(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        k: int = 10,
        warm: bool = False,
    ):
        """A network :class:`~repro.serve.server.SimilarityServer` over
        :meth:`serve`.

        The server speaks the length-prefixed JSON protocol of
        :mod:`repro.serve`, coalesces concurrent requests into the
        service's micro-batcher, and takes its admission-control and
        SLO-degradation settings (``max_inflight``, ``queue_depth``,
        ``slo_p99_ms``, ``shed_policy``) from this session's
        :class:`EngineConfig` — the same settings ``explain("serve")``
        reports.  ``port=0`` binds an ephemeral port (read it from
        ``server.port`` after ``start()``).
        """
        # Imported lazily: repro.serve sits above the engine layer, and a
        # module-level import would be a cycle.
        from ..serve.server import SimilarityServer

        return SimilarityServer(
            self.serve(k=k, warm=warm),
            host=host,
            port=port,
            max_inflight=self.config.max_inflight,
            queue_depth=self.config.queue_depth,
            slo_p99_ms=self.config.slo_p99_ms,
            shed_policy=self.config.shed_policy,
        )

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add_edge(self, source: Hashable, target: Hashable) -> bool:
        """Insert a directed edge; returns ``False`` when already present."""
        return self._graph.add_edge(source, target)

    def remove_edge(self, source: Hashable, target: Hashable) -> bool:
        """Delete a directed edge; returns ``False`` when absent."""
        return self._graph.remove_edge(source, target)

    def _on_mutation(self, endpoints) -> None:
        """Drop every artifact derived from the old edges.

        Called by the graph, under its lock, after each mutation through
        the engine or any of its services.  SimRank is a global measure —
        one edge perturbs every score — so invalidation is total: pool,
        index, fingerprints, statistics and plans all go; they rebuild
        lazily (and the counters record that they did).
        """
        self._stats = None
        self._plan_cache.clear()
        self._index = None
        self._fingerprints = None
        if self._executor is not None:
            self._executor.close(wait=False)
            self._executor = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Retire the session worker pool, if any (idempotent)."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.close()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        built = [
            name
            for name, artifact in (
                ("transition", self._graph.operators or None),
                ("executor", self._executor),
                ("index", self._index),
                ("fingerprints", self._fingerprints),
            )
            if artifact is not None
        ]
        return (
            f"<Engine n={self.num_vertices} m={self.num_edges} "
            f"version={self.version} method={self.config.method} "
            f"artifacts=[{', '.join(built) or 'none'}]>"
        )
