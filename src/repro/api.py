"""The unified SimRank entry points: ``simrank()`` and ``simrank_top_k()``.

Every solver in the package — the paper's OIP-SR / OIP-DSR, the psum-SR /
mtx-SR / Monte-Carlo / naive baselines and the matrix-form solvers — is
reachable through one dispatch function, so benchmarks, the CLI and
downstream code select algorithms and compute backends by name instead of
importing solver modules.

Methods register a :class:`~repro.engine.capabilities.Capabilities` record
describing what they can do (task shapes, honourable backends, parallelism,
adjacency needs); the cost-based planner in :mod:`repro.engine` reads those
declarations when it chooses an execution plan.  Both free functions are
thin one-shot wrappers over an ephemeral :class:`~repro.engine.Engine`
session and return answers bit-identical to the engine's — long-lived
callers should hold an ``Engine`` instead, which reuses the transition
operator and worker pool across calls.

Examples
--------
>>> from repro import simrank, simrank_top_k
>>> from repro.graph.generators import web_graph
>>> graph = web_graph(num_pages=200, num_hosts=8, seed=1)
>>> result = simrank(graph, method="matrix", backend="sparse", iterations=10)
>>> rankings = simrank_top_k(graph, queries=[0, 5], k=5)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from .baselines.matrix_sr import matrix_simrank
from .baselines.monte_carlo import monte_carlo_simrank
from .baselines.mtx_svd_sr import mtx_svd_simrank
from .baselines.naive import naive_simrank
from .baselines.psum_sr import psum_simrank
from .baselines.topk import RankedList
from .core.backends import SimRankBackend, available_backends
from .core.diff_simrank import differential_simrank
from .core.instrumentation import Instrumentation
from .core.oip_dsr import oip_dsr
from .core.oip_sr import oip_sr
from .core.result import SimRankResult
from .engine.capabilities import MATRIX_TASKS, Capabilities
from .engine.config import EngineConfig
from .exceptions import ConfigurationError
from .extensions.prank import prank, prank_shared

__all__ = [
    "METHODS",
    "MethodSpec",
    "available_methods",
    "method_spec",
    "register_method",
    "simrank",
    "simrank_top_k",
]


@dataclass(frozen=True)
class MethodSpec:
    """One dispatchable SimRank method: a solver plus its declared capabilities.

    Attributes
    ----------
    name:
        Canonical method name.
    solver:
        The underlying solver callable (``solver(graph, **params)``).
    capabilities:
        The method's :class:`~repro.engine.capabilities.Capabilities`
        declaration — which task shapes it executes, which backends it can
        honour, whether it parallelises, whether it needs Python adjacency,
        whether it can reuse a prebuilt transition operator.  The planner
        and the dispatch layer read *only* this record; there are no
        per-method special cases.
    """

    name: str
    solver: Callable[..., SimRankResult]
    capabilities: Capabilities = Capabilities()


METHODS: dict[str, MethodSpec] = {}
"""Registry of dispatchable methods, keyed by canonical name."""


def register_method(spec: MethodSpec) -> MethodSpec:
    """Register ``spec`` (replacing any same-named method)."""
    METHODS[spec.name] = spec
    return spec


register_method(
    MethodSpec(
        name="matrix",
        solver=matrix_simrank,
        capabilities=Capabilities(
            tasks=MATRIX_TASKS,
            backends=("dense", "sparse"),
            accepts_backend=True,
            accepts_workers=True,
            needs_adjacency=False,
            default_backend="sparse",
            shares_transition=True,
        ),
    )
)
register_method(
    MethodSpec(
        name="mtx-svd",
        solver=mtx_svd_simrank,
        capabilities=Capabilities(backends=("sparse",), needs_adjacency=False),
    )
)
register_method(
    MethodSpec(
        name="oip-sr",
        solver=oip_sr,
        capabilities=Capabilities(uses_partial_sums=True, sparse_products=True),
    )
)
register_method(
    MethodSpec(
        name="oip-dsr",
        solver=oip_dsr,
        capabilities=Capabilities(uses_partial_sums=True, sparse_products=True),
    )
)
register_method(
    MethodSpec(
        name="psum",
        solver=psum_simrank,
        capabilities=Capabilities(sparse_products=True),
    )
)
register_method(MethodSpec(name="naive", solver=naive_simrank))
register_method(MethodSpec(name="monte-carlo", solver=monte_carlo_simrank))
register_method(
    MethodSpec(
        name="diff-matrix",
        solver=differential_simrank,
        capabilities=Capabilities(needs_adjacency=False),
    )
)
register_method(MethodSpec(name="p-rank", solver=prank))
register_method(MethodSpec(name="p-rank-shared", solver=prank_shared))

_ALIASES = {
    "matrix-sr": "matrix",
    "mtx-sr": "mtx-svd",
    "psum-sr": "psum",
}


def available_methods() -> tuple[str, ...]:
    """Return the canonical method names, sorted."""
    return tuple(sorted(METHODS))


def method_spec(method: str) -> MethodSpec:
    """Resolve ``method`` (canonical name or alias) to its :class:`MethodSpec`."""
    canonical = _ALIASES.get(method, method)
    try:
        return METHODS[canonical]
    except KeyError:
        raise ConfigurationError(
            f"unknown method {method!r}; available: {', '.join(available_methods())}"
        ) from None


def _resolve_backend(spec: MethodSpec, backend) -> Optional[str]:
    """The one backend resolver every entry point shares.

    ``None`` means the method default; instances resolve to their name;
    unknown names raise :class:`~repro.exceptions.ConfigurationError`, as
    does naming a backend a backend-agnostic method cannot honour.
    """
    capabilities = spec.capabilities
    if backend is None:
        return capabilities.default_backend
    name = backend.name if isinstance(backend, SimRankBackend) else backend
    if name not in available_backends():
        raise ConfigurationError(
            f"unknown backend {name!r}; available: {', '.join(available_backends())}"
        )
    # Methods that forward `backend=` accept any registered backend (that is
    # the plug-in point); only backend-agnostic methods pin a declared set.
    if not capabilities.accepts_backend and name not in capabilities.backends:
        raise ConfigurationError(
            f"method {spec.name!r} does not support backend {name!r}; "
            f"it supports: {', '.join(capabilities.backends)}"
        )
    return name


def simrank(
    graph,
    method: str = "matrix",
    backend: Union[str, SimRankBackend, None] = None,
    workers: Optional[int] = None,
    **params,
) -> SimRankResult:
    """Compute SimRank on ``graph`` with the named method and backend.

    A one-shot wrapper over an ephemeral :class:`~repro.engine.Engine`
    session — answers are bit-identical to ``Engine(graph,
    EngineConfig(method=..., backend=..., workers=...)).all_pairs(**params)``.
    Callers issuing several computations over one graph should hold an
    engine instead and let it reuse the transition operator.

    Parameters
    ----------
    graph:
        A :class:`~repro.graph.digraph.DiGraph` (any method) or an
        :class:`~repro.graph.edgelist.EdgeListGraph` (matrix-form methods;
        upgraded via ``to_digraph()`` for per-vertex methods).
    method:
        One of :func:`available_methods` or an alias (``"matrix-sr"``,
        ``"mtx-sr"``, ``"psum-sr"``).
    backend:
        Compute backend (``"dense"`` or ``"sparse"``) for methods that
        support one; ``None`` picks the method's default.  Requesting a
        backend the method cannot honour raises
        :class:`~repro.exceptions.ConfigurationError`.
    workers:
        Process-parallel worker count for methods that support it
        (``method="matrix"``); ``None``/1 is serial, ``0``/negative means
        all cores.  Requesting parallelism from a serial-only method raises
        :class:`~repro.exceptions.ConfigurationError` rather than silently
        running serial.
    **params:
        Forwarded verbatim to the underlying solver (``damping``,
        ``iterations``, ``accuracy``, ...).
    """
    from .engine.engine import Engine  # lazy: api <-> engine import seam

    spec = method_spec(method)
    resolved = _resolve_backend(spec, backend)
    config = EngineConfig(method=spec.name, backend=resolved, workers=workers)
    with Engine(graph, config) as engine:
        return engine.all_pairs(**params)


def simrank_top_k(
    graph,
    queries,
    k: int = 10,
    damping: float = 0.6,
    iterations: Optional[int] = None,
    accuracy: float = 1e-3,
    backend: Union[str, SimRankBackend, None] = None,
    include_self: bool = False,
    workers: Optional[int] = None,
    instrumentation: Optional[Instrumentation] = None,
) -> list[RankedList]:
    """Answer a batch of top-``k`` queries without materialising all pairs.

    A one-shot wrapper over an ephemeral :class:`~repro.engine.Engine`
    session (see :meth:`~repro.engine.Engine.top_k`).  The whole batch
    shares one transition operator and one series evaluation
    (:meth:`~repro.core.backends.SimRankBackend.similarity_rows`), so memory
    stays ``O(K · n · |queries|)`` — the single-source/top-k workload path
    the paper's quality experiments (Fig. 6g/6h) issue.  Scores follow the
    matrix-form convention and match the full-matrix answers up to the
    series-truncation tail ``C^{K+1}``; ties break by ``(-score, vertex
    id)`` through the shared :func:`~repro.core.similarity_store
    .ranked_entries` truncation, the same implementation the serving index
    and store use.

    **Short rankings.**  A ranking holds at most ``n`` entries (``n − 1``
    with ``include_self=False``): querying a graph with at most ``k``
    other vertices returns *fewer than* ``k`` entries.  Vertices the query
    cannot reach still appear, with score exactly 0.0, in ascending
    vertex-id order; entries beyond the vertex set are never invented.

    Parameters
    ----------
    graph:
        Input graph (:class:`~repro.graph.digraph.DiGraph` or
        :class:`~repro.graph.edgelist.EdgeListGraph`).
    queries:
        A sequence of query vertices (labels or ids).
    k:
        Ranking length per query.
    damping, iterations, accuracy:
        As for :func:`simrank`; ``iterations`` defaults to the conventional
        bound for ``accuracy``.
    backend:
        Compute backend used for the series evaluation; ``None`` picks the
        matrix method's default.  Resolution goes through the same
        validator as :func:`simrank`, so an unknown backend raises
        :class:`~repro.exceptions.ConfigurationError` here too.
    include_self:
        Whether the query vertex itself may appear in its ranking.
    workers:
        Process-parallel worker count for the series evaluation
        (``None``/1 = serial).  Query shards are merged in submission
        order, so rankings never depend on the worker count.
    instrumentation:
        Optional instrumentation collector to record costs into.
    """
    from .engine.engine import Engine  # lazy: api <-> engine import seam

    resolved = _resolve_backend(METHODS["matrix"], backend)
    config = EngineConfig(
        method="matrix",
        backend=resolved,
        damping=damping,
        iterations=iterations,
        accuracy=accuracy,
        workers=workers,
    )
    with Engine(graph, config) as engine:
        return engine.top_k(
            queries,
            k=k,
            include_self=include_self,
            instrumentation=instrumentation,
        )
