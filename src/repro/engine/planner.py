"""The cost-based query planner behind :meth:`Engine.explain`.

Given one :class:`GraphStats` snapshot and one
:class:`~repro.engine.config.EngineConfig`, :func:`plan_task` picks — for a
task shape from :data:`~repro.engine.capabilities.ALL_TASKS` — the method,
compute backend, worker count and (for serving) answer tier, together with
estimated multiply-adds and resident bytes.  The decision procedure is a
pure function of ``(stats, config, cost model)``: no wall-clock, no
randomness, no global state — calling it twice always yields the same plan,
which is what lets ``explain()`` output double as a reproducible experiment
artifact.

The cost model is the paper's own accounting:

* matrix-form paths cost ``2 · K · nnz(W)`` multiply-adds per dense column
  (``nnz`` from the backend's :class:`~repro.engine.capabilities
  .BackendTraits` — ``m`` for CSR, ``n²`` dense), weighted by the
  backend's series kernel;
* per-vertex paths are priced by the partial-sum model of Eq. 7
  (:mod:`repro.core.transition_cost`): the measured *sharing ratio* —
  mean ``TC_{I(a) → I(b)} / (|I(b)| − 1)`` over sampled in-neighbour sets —
  scales the ``O(K · d · n²)`` baseline exactly the way the paper's
  OIP-SR analysis predicts;
* serving tiers are priced by their offline build cost and per-query cost,
  and the planner degrades index → approx → compute as the configured
  ``memory_budget`` tightens (the approximate tier is only admitted when
  the configured fingerprints satisfy ``max_error``).

Every *constant* in that accounting — the dense BLAS discount, the Python
loop penalty, the per-kernel rates — is read from a pluggable
:class:`~repro.engine.cost_model.CostModel` provider, not from module
globals.  The default :class:`~repro.engine.cost_model.StaticCostModel`
reproduces the historical hard-coded weights bit for bit; a measured
per-host profile (``repro-simrank calibrate``) swaps honest numbers in and
additionally turns op counts into wall-clock estimates.  Each plan records
the constants it was priced with and their provenance (measured vs
assumed), and every choice is recorded in the plan's ``reasons`` so
``explain()`` shows *why*, not just *what*.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from ..core.transition_cost import scratch_cost, transition_cost
from ..exceptions import ConfigurationError
from ..parallel import resolve_workers
from .capabilities import ALL_TASKS, backend_traits
from .config import AUTO_METHOD, EngineConfig
from .cost_model import (
    DENSE_BLAS_SPEEDUP,
    PYTHON_LOOP_PENALTY,
    CostModel,
    resolve_cost_model,
)

__all__ = [
    "DENSE_BLAS_SPEEDUP",
    "PYTHON_LOOP_PENALTY",
    "ExecutionPlan",
    "GraphStats",
    "TaskPlan",
    "plan_task",
    "plan_all",
]

SHARING_SAMPLE = 64
"""In-neighbour sets sampled when measuring the sharing ratio."""


@dataclass(frozen=True)
class GraphStats:
    """The graph statistics the planner decides from.

    ``sharing_ratio`` is the measured mean of the paper's Eq. 7 cost ratio
    ``TC_{I(a) → I(b)} / (|I(b)| − 1)`` over sampled pairs of in-neighbour
    sets — 1.0 means sharing never beats recomputing, values near 0 mean
    the partial-sum reuse the paper exploits is almost free.  It is
    ``None`` when the graph's adjacency is not materialised (edge-list
    inputs), in which case per-vertex costs fall back to the unshared
    baseline.
    """

    num_vertices: int
    num_edges: int
    sharing_ratio: Optional[float] = None

    @property
    def density(self) -> float:
        """Edge density ``m / n²`` (0 for the empty graph)."""
        if self.num_vertices == 0:
            return 0.0
        return self.num_edges / float(self.num_vertices**2)

    @property
    def mean_degree(self) -> float:
        """Mean (in-)degree ``m / n``."""
        if self.num_vertices == 0:
            return 0.0
        return self.num_edges / float(self.num_vertices)

    @classmethod
    def from_graph(cls, graph, sample: int = SHARING_SAMPLE) -> "GraphStats":
        """Measure ``graph``; samples the sharing ratio when adjacency exists.

        The sample walks at most ``sample`` evenly spaced vertices in id
        order — exactly ``min(sample, n)`` probes, never more — and prices
        deriving each in-neighbour set from the previous one (Eq. 7)
        against recomputing it: deterministic for a given graph,
        ``O(sample · d)`` work.
        """
        n = int(graph.num_vertices)
        m = int(graph.num_edges)
        sharing: Optional[float] = None
        if hasattr(graph, "in_neighbors") and n > 1 and m > 0:
            probes = min(max(sample, 1), n)
            # ``(i · n) // probes`` is strictly increasing for probes <= n,
            # so this visits exactly ``probes`` distinct vertices (the old
            # ``range(0, n, n // sample)`` walk could visit nearly 2x
            # ``sample`` when n was not a multiple of it).
            vertices = [(index * n) // probes for index in range(probes)]
            shared_cost = 0
            scratch = 0
            previous: Optional[frozenset[int]] = None
            for vertex in vertices:
                current = frozenset(graph.in_neighbors(vertex))
                if previous is not None and current:
                    shared_cost += transition_cost(previous, current)
                    scratch += max(scratch_cost(current), 1)
                previous = current
            if scratch:
                sharing = min(shared_cost / scratch, 1.0)
        return cls(num_vertices=n, num_edges=m, sharing_ratio=sharing)

    def to_dict(self) -> dict[str, object]:
        return {
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "density": self.density,
            "mean_degree": self.mean_degree,
            "sharing_ratio": self.sharing_ratio,
        }


@dataclass(frozen=True)
class TaskPlan:
    """The planner's decision for one task shape, with its cost estimates.

    ``estimated_ops`` prices the task itself (for ``serve``: the offline
    artifact build); ``estimated_query_ops`` prices one online query where
    that distinction matters.  ``estimated_bytes`` is the peak resident
    working set, operator included.  ``estimated_seconds`` is the
    wall-clock estimate when every kernel pricing the task carries a
    measured rate (``None`` under the static model — assumed weights have
    no time base).  ``constants`` records each cost-model constant the
    plan was priced with as ``(kernel, weight, provenance)`` where
    provenance is ``"measured"`` or ``"assumed"``.
    """

    task: str
    method: str
    backend: Optional[str]
    workers: int
    iterations: int
    tier: Optional[str] = None
    estimated_ops: int = 0
    estimated_query_ops: int = 0
    estimated_bytes: int = 0
    estimated_seconds: Optional[float] = None
    constants: tuple[tuple[str, float, str], ...] = ()
    reasons: tuple[str, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict[str, object]:
        """A plain, JSON-serialisable summary of the decision."""
        data = asdict(self)
        data["reasons"] = list(self.reasons)
        data["constants"] = [
            {"kernel": kernel, "weight": weight, "provenance": provenance}
            for kernel, weight, provenance in self.constants
        ]
        return data


@dataclass(frozen=True)
class ExecutionPlan:
    """Plans for every task shape of one engine session, as one artifact.

    ``cost_source``/``cost_digest`` identify the cost model the plans were
    priced with (``"static"`` for the built-in weights, the profile's
    layer and content digest otherwise) — the same digest the engine's
    plan cache keys on and experiment reports record.
    """

    graph: GraphStats
    config: EngineConfig
    tasks: tuple[TaskPlan, ...]
    cost_source: str = "static"
    cost_digest: str = "static"

    def task(self, name: str) -> TaskPlan:
        """The plan for one task shape; unknown names raise."""
        for plan in self.tasks:
            if plan.task == name:
                return plan
        raise ConfigurationError(
            f"no plan for task {name!r}; planned: "
            f"{', '.join(plan.task for plan in self.tasks)}"
        )

    def to_dict(self) -> dict[str, object]:
        return {
            "graph": self.graph.to_dict(),
            "config": self.config.to_dict(),
            "cost_model": {
                "source": self.cost_source,
                "digest": self.cost_digest,
            },
            "tasks": [plan.to_dict() for plan in self.tasks],
        }

    def render(self) -> str:
        """A human-readable multi-line rendering (the CLI's output)."""
        stats = self.graph
        lines = [
            f"graph: n={stats.num_vertices} m={stats.num_edges} "
            f"density={stats.density:.2e}"
            + (
                f" sharing_ratio={stats.sharing_ratio:.3f}"
                if stats.sharing_ratio is not None
                else ""
            ),
            f"config: method={self.config.method} backend="
            f"{self.config.backend or 'auto'} damping={self.config.damping} "
            f"workers={self.config.workers}",
            f"cost model: {self.cost_source}"
            + (
                " (built-in weights, all constants assumed)"
                if self.cost_digest == "static"
                else f" (measured profile {self.cost_digest})"
            ),
        ]
        for plan in self.tasks:
            tier = f" tier={plan.tier}" if plan.tier else ""
            seconds = (
                f" secs~{plan.estimated_seconds:.2e}"
                if plan.estimated_seconds is not None
                else ""
            )
            lines.append(
                f"  {plan.task:>9}: method={plan.method} "
                f"backend={plan.backend or '-'} workers={plan.workers} "
                f"K={plan.iterations}{tier} "
                f"ops~{plan.estimated_ops:.2e} bytes~{plan.estimated_bytes:.2e}"
                f"{seconds}"
            )
            if plan.constants:
                lines.append(
                    "             constants: "
                    + ", ".join(
                        f"{kernel}={weight:.4g} ({provenance})"
                        for kernel, weight, provenance in plan.constants
                    )
                )
            for reason in plan.reasons:
                lines.append(f"             - {reason}")
        return "\n".join(lines)


# ---------------------------------------------------------------------- #
# Cost model
# ---------------------------------------------------------------------- #
def _series_ops(traits, stats: GraphStats, iterations: int, columns: int) -> int:
    """Multiply-adds for ``columns`` dense columns through ``2K`` products."""
    nnz = traits.operator_nnz(stats.num_vertices, stats.num_edges)
    return int(2 * iterations * nnz * columns)


def _weighted_series_ops(
    traits, stats, iterations, columns, model: CostModel
) -> float:
    """Series ops weighted by the backend's series-kernel constant."""
    ops = _series_ops(traits, stats, iterations, columns)
    return ops * model.weight(traits.resolved_series_kernel())


def _per_vertex_ops(
    capabilities, stats: GraphStats, iterations: int
) -> tuple[int, Optional[str]]:
    """Partial-sum cost of one per-vertex all-pairs solve (Eq. 7 pricing)."""
    baseline = iterations * stats.num_edges * stats.num_vertices  # K·d·n²
    if capabilities.uses_partial_sums and stats.sharing_ratio is not None:
        shared = int(baseline * stats.sharing_ratio)
        return (
            shared,
            f"partial-sum sharing prices {shared:.2e} of the "
            f"{baseline:.2e} unshared additions "
            f"(sharing_ratio={stats.sharing_ratio:.3f})",
        )
    return int(baseline), None


def _auto_backend(
    stats: GraphStats,
    config: EngineConfig,
    iterations: int,
    columns: int,
    model: CostModel,
) -> tuple[str, list[str], set[str]]:
    """Pick dense vs sparse for a matrix-form task by weighted cost."""
    reasons: list[str] = []
    sparse = backend_traits("sparse")
    dense = backend_traits("dense")
    sparse_cost = _weighted_series_ops(sparse, stats, iterations, columns, model)
    dense_cost = _weighted_series_ops(dense, stats, iterations, columns, model)
    choice = "dense" if dense_cost < sparse_cost else "sparse"
    if config.memory_budget is not None and choice == "dense":
        operator = dense.operator_bytes(stats.num_vertices, stats.num_edges)
        if operator > config.memory_budget:
            reasons.append(
                f"dense operator ({operator:.2e} B) exceeds the "
                f"memory budget ({config.memory_budget:.2e} B); "
                "falling back to sparse"
            )
            choice = "sparse"
    dense_kernel = dense.resolved_series_kernel()
    reasons.append(
        f"auto backend: sparse ~{sparse_cost:.2e} weighted ops vs dense "
        f"~{dense_cost:.2e} (dense weight {model.weight(dense_kernel):.4g}x "
        f"[{model.provenance(dense_kernel)}], "
        f"density {stats.density:.2e}) -> {choice}"
    )
    return (
        choice,
        reasons,
        {sparse.resolved_series_kernel(), dense_kernel},
    )


def _resolve_method_and_backend(
    task: str,
    stats: GraphStats,
    config: EngineConfig,
    iterations: int,
    columns: int,
    model: CostModel,
) -> tuple[str, Optional[str], list[str], set[str]]:
    """Select (method, backend) for ``task``, honouring explicit config."""
    from ..api import METHODS, _resolve_backend, method_spec  # lazy: no cycle

    reasons: list[str] = []
    consulted: set[str] = set()
    if task == "all_pairs":
        if config.method != AUTO_METHOD:
            spec = method_spec(config.method)
            reasons.append(f"method {spec.name!r} pinned by config")
        else:
            spec = METHODS["matrix"]
            loop_kernel = "python_vertex_step"
            consulted.add(loop_kernel)
            reasons.append(
                "auto method: matrix-form series (vectorised; per-vertex "
                f"solvers carry a ~{model.weight(loop_kernel):g}x "
                f"Python-loop constant [{model.provenance(loop_kernel)}])"
            )
            if stats.sharing_ratio is not None and stats.sharing_ratio < 1.0:
                reasons.append(
                    "partial-sum sharing would save "
                    f"{(1.0 - stats.sharing_ratio) * 100:.0f}% of per-vertex "
                    "additions (select method='oip-sr' explicitly to use it)"
                )
    else:
        # Top-k / pair / serve always run the shared series path — the only
        # registered method whose capabilities admit those task shapes.
        spec = next(
            METHODS[name]
            for name in sorted(METHODS)
            if task in METHODS[name].capabilities.tasks
        )
        if config.method not in (AUTO_METHOD, spec.name):
            reasons.append(
                f"task {task!r} always runs the {spec.name!r} series path "
                f"(config method {config.method!r} only governs all-pairs)"
            )
    if not spec.capabilities.admits(task):
        raise ConfigurationError(
            f"method {spec.name!r} cannot execute task {task!r}; "
            f"it supports: {', '.join(sorted(spec.capabilities.tasks))}"
        )

    if config.backend is not None:
        backend = _resolve_backend(spec, config.backend)
        reasons.append(f"backend {backend!r} pinned by config")
    elif spec.capabilities.accepts_backend:
        backend, auto_reasons, auto_consulted = _auto_backend(
            stats, config, iterations, columns, model
        )
        reasons.extend(auto_reasons)
        consulted |= auto_consulted
    else:
        backend = spec.capabilities.default_backend
        if backend is None:
            reasons.append(
                f"method {spec.name!r} is backend-agnostic (Python adjacency)"
            )
    return spec.name, backend, reasons, consulted


def _resolve_workers_for(
    task: str, method: str, config: EngineConfig
) -> tuple[int, list[str]]:
    """Worker count for ``task``; serial-only methods reject parallelism."""
    from ..api import METHODS  # lazy: no cycle

    reasons: list[str] = []
    resolved = resolve_workers(config.workers)
    if resolved <= 1:
        return 1, reasons
    if task == "pair":
        reasons.append("single-row task; pool startup would dominate — serial")
        return 1, reasons
    capabilities = METHODS[method].capabilities
    if task == "all_pairs" and not capabilities.accepts_workers:
        raise ConfigurationError(
            f"method {method!r} does not support parallel execution; "
            "methods accepting workers: "
            + ", ".join(
                sorted(
                    name
                    for name, spec in METHODS.items()
                    if spec.capabilities.accepts_workers
                )
            )
        )
    reasons.append(
        f"{resolved} workers requested; sharded execution is "
        "bit-identical to serial on the sparse backend"
    )
    return resolved, reasons


def _estimated_seconds(
    breakdown: dict[str, float], model: CostModel
) -> Optional[float]:
    """Wall-clock estimate for a kernel-ops breakdown, if fully measured.

    ``None`` when any pricing kernel lacks a measured rate — a partially
    assumed sum would look like a measurement without being one.
    """
    if not breakdown:
        return None
    total = 0.0
    for kernel, ops in breakdown.items():
        rate = model.seconds_per_op(kernel)
        if rate is None:
            return None
        total += ops * rate
    return total


def plan_task(
    task: str,
    stats: GraphStats,
    config: EngineConfig,
    queries: int = 1,
    cost_model: Optional[CostModel] = None,
) -> TaskPlan:
    """Plan one task shape — a pure function of ``(stats, config, model)``.

    ``queries`` sizes the batch for ``top_k`` cost estimates (it never
    changes the selected method/backend, only the estimate).
    ``cost_model`` defaults to the layered resolution of
    :func:`~repro.engine.cost_model.resolve_cost_model` — pass one
    explicitly to pin it (the engine passes its session model so cached
    plans and their digests stay coherent).
    """
    if task not in ALL_TASKS:
        raise ConfigurationError(
            f"unknown task {task!r}; valid: {', '.join(ALL_TASKS)}"
        )
    from ..api import METHODS  # lazy: no cycle

    model = cost_model if cost_model is not None else resolve_cost_model(config)
    iterations = config.resolved_iterations()
    n = stats.num_vertices
    columns = {"all_pairs": n, "top_k": max(queries, 1), "pair": 1}.get(task, n)
    method, backend, reasons, consulted = _resolve_method_and_backend(
        task, stats, config, iterations, columns, model
    )
    workers, worker_reasons = _resolve_workers_for(task, method, config)
    reasons.extend(worker_reasons)
    capabilities = METHODS[method].capabilities

    tier: Optional[str] = None
    query_ops = 0
    breakdown: dict[str, float] = {}  # kernel -> raw ops priced by it
    if backend is not None:
        traits = backend_traits(backend)
        operator_bytes = traits.operator_bytes(n, stats.num_edges)
        nnz = traits.operator_nnz(n, stats.num_edges)
        series_kernel = traits.resolved_series_kernel()
    else:
        traits = None
        operator_bytes = 0
        nnz = stats.num_edges
        series_kernel = "sparse_matvec"

    if task == "all_pairs":
        if capabilities.shares_transition and traits is not None:
            ops = _series_ops(traits, stats, iterations, n)
            breakdown[series_kernel] = ops
            peak = operator_bytes + 2 * n * n * 8
        else:
            raw_ops, sharing_reason = _per_vertex_ops(
                capabilities, stats, iterations
            )
            # The sharing solvers run their plan as level-synchronous CSR
            # products and psum its incidence products; naive and the other
            # per-vertex solvers loop over vertices in Python.
            kernel = (
                "sparse_matvec"
                if capabilities.sparse_products
                else "python_vertex_step"
            )
            breakdown[kernel] = raw_ops
            ops = int(raw_ops * model.weight(kernel))
            peak = n * n * 8 + n * 8
            if sharing_reason is not None:
                reasons.append(sharing_reason)
    elif task == "top_k":
        ops = _series_ops(traits, stats, iterations, columns)
        breakdown[series_kernel] = ops
        query_ops = _series_ops(traits, stats, iterations, 1)
        peak = operator_bytes + (iterations + 1) * n * columns * 8
    elif task == "pair":
        ops = _series_ops(traits, stats, iterations, 1)
        breakdown[series_kernel] = ops
        query_ops = ops
        peak = operator_bytes + (iterations + 1) * n * 8
    else:  # serve
        tier, ops, query_ops, peak, tier_reasons, tier_breakdown = (
            _plan_serving_tier(
                stats, config, iterations, nnz, operator_bytes, series_kernel
            )
        )
        breakdown.update(tier_breakdown)
        reasons.extend(tier_reasons)
        reasons.extend(_serving_slo_reasons(config))
        if config.catalog_path is not None:
            reasons.append(
                f"durable catalog at {config.catalog_path}: build_index "
                "commits there; serve() warm-starts memory-mapped from a "
                "matching committed catalog instead of rebuilding"
            )

    priced = sorted(set(breakdown) | consulted)
    return TaskPlan(
        task=task,
        method=method,
        backend=backend,
        workers=workers,
        iterations=iterations,
        tier=tier,
        estimated_ops=int(ops),
        estimated_query_ops=int(query_ops),
        estimated_bytes=int(peak),
        estimated_seconds=_estimated_seconds(breakdown, model),
        constants=tuple(model.constant(kernel) for kernel in priced),
        reasons=tuple(reasons),
    )


def _serving_slo_reasons(config: EngineConfig) -> list[str]:
    """Describe the serving plan's runtime behaviour under load.

    The static tier choice above is the *offline* decision; these lines
    report the *online* half — admission control and SLO-driven
    degradation — so ``explain()`` shows the full serving plan the network
    front-end (:mod:`repro.serve`) will execute.
    """
    reasons = [
        "admission control: max_inflight="
        f"{config.max_inflight}, queue_depth={config.queue_depth} "
        "(arrivals beyond both are shed with a typed error)"
    ]
    if config.slo_p99_ms is None:
        reasons.append(
            "no serving SLO configured; tier routing is static "
            "(set slo_p99_ms to enable live p99-driven degradation)"
        )
    elif config.shed_policy == "degrade":
        reasons.append(
            f"serving SLO: p99 <= {config.slo_p99_ms:g} ms, "
            "shed_policy=degrade — a live p99 breach routes undecided "
            "queries to the approx tier until p99 recovers"
        )
    else:
        reasons.append(
            f"serving SLO: p99 <= {config.slo_p99_ms:g} ms, "
            "shed_policy=shed — overload sheds instead of degrading; "
            "answers stay exact"
        )
    return reasons


def _plan_serving_tier(
    stats: GraphStats,
    config: EngineConfig,
    iterations: int,
    nnz: int,
    operator_bytes: int,
    series_kernel: str,
) -> tuple[str, int, int, int, list[str], dict[str, float]]:
    """Pick the serving tier the session should precompute toward.

    The returned breakdown maps cost-model kernels to the raw ops of the
    tier's offline build, so the caller can price it in wall-clock under a
    measured profile.
    """
    n = stats.num_vertices
    reasons: list[str] = []
    # Exact truncated index: one batched series sweep offline, a CSR row
    # lookup per query online.
    index_bytes = n * min(config.index_k, max(n - 1, 1)) * 16
    index_build = 2 * iterations * nnz * n
    # Monte-Carlo fingerprints: the sampling sweep offline, a coincidence
    # scan per query online.
    walk_length = (
        int(math.ceil(math.log(1e-3) / math.log(config.damping)))
        if 0.0 < config.damping < 1.0
        else iterations
    )
    fingerprint_bytes = config.approx_walks * n * (walk_length + 1) * 8
    fingerprint_build = config.approx_walks * n * walk_length
    standard_error = float(
        config.damping ** (config.approx_head + 1)
        / np.sqrt(config.approx_walks)
    )

    budget = config.memory_budget
    if budget is None or index_bytes + operator_bytes <= budget:
        reasons.append(
            f"exact index fits ({index_bytes + operator_bytes:.2e} B"
            + ("" if budget is None else f" <= budget {budget:.2e} B")
            + "); serving tier: index"
        )
        return (
            "index",
            index_build,
            2 * config.index_k,  # row lookup + (-score, id) truncation
            index_bytes + operator_bytes,
            reasons,
            {series_kernel: index_build, "topk_truncate": 2 * config.index_k},
        )
    reasons.append(
        f"exact index ({index_bytes + operator_bytes:.2e} B) exceeds the "
        f"memory budget ({budget:.2e} B)"
    )
    if (
        config.max_error is not None
        and standard_error <= config.max_error
        and fingerprint_bytes + operator_bytes <= budget
    ):
        reasons.append(
            f"fingerprints fit ({fingerprint_bytes + operator_bytes:.2e} B) "
            f"and satisfy max_error ({standard_error:.2e} <= "
            f"{config.max_error:.2e}); serving tier: approx"
        )
        return (
            "approx",
            fingerprint_build,
            config.approx_walks * walk_length,
            fingerprint_bytes + operator_bytes,
            reasons,
            {"fingerprint_sample": fingerprint_build},
        )
    if config.max_error is not None and standard_error > config.max_error:
        reasons.append(
            f"fingerprint standard error {standard_error:.2e} exceeds "
            f"max_error {config.max_error:.2e}; approximate tier not admitted"
        )
    reasons.append("serving tier: compute (on-demand series, micro-batched)")
    return (
        "compute",
        0,
        2 * iterations * nnz,
        operator_bytes + (iterations + 1) * n * config.max_batch * 8,
        reasons,
        {},
    )


def plan_all(
    stats: GraphStats,
    config: EngineConfig,
    queries: int = 1,
    cost_model: Optional[CostModel] = None,
) -> ExecutionPlan:
    """Plan every task shape of a session as one inspectable artifact."""
    model = cost_model if cost_model is not None else resolve_cost_model(config)
    return ExecutionPlan(
        graph=stats,
        config=config,
        tasks=tuple(
            plan_task(task, stats, config, queries=queries, cost_model=model)
            for task in ALL_TASKS
        ),
        cost_source=model.source,
        cost_digest=model.digest(),
    )
