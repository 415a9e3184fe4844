"""Declarative capability descriptions for methods and compute backends.

The dispatch layer used to carry three ad-hoc booleans on every method spec
(``accepts_backend``, ``accepts_workers``, ``needs_adjacency``) that each
call site re-interpreted by hand.  This module replaces them with one
declarative :class:`Capabilities` record per method — what task shapes the
method can execute, which backends it can honour, whether it can reuse a
prebuilt transition operator — plus a :class:`BackendTraits` record per
compute backend describing the operator it materialises.  The planner
(:mod:`repro.engine.planner`) reads *only* these declarations when it picks
an execution plan, so adding a method or backend never means touching the
planner: register a capability record and the cost model covers it.

Methods register their capabilities through their
:class:`~repro.api.MethodSpec` (``repro.api.register_method``); backends
register :class:`BackendTraits` here via :func:`register_backend_traits`
(the two built-in backends are pre-registered).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..exceptions import ConfigurationError

__all__ = [
    "ALL_TASKS",
    "BACKEND_TRAITS",
    "BackendTraits",
    "Capabilities",
    "MATRIX_TASKS",
    "backend_traits",
    "register_backend_traits",
]

ALL_TASKS = ("all_pairs", "top_k", "pair", "serve")
"""Every task shape the engine can plan: the dense all-pairs solve, the
batched top-k series evaluation, a single-pair score, and the online
serving tier."""


@dataclass(frozen=True)
class Capabilities:
    """What one SimRank method declares it can do.

    Attributes
    ----------
    tasks:
        Task shapes the method can execute.  Every method handles
        ``"all_pairs"``; only the matrix-form series path also answers
        ``"top_k"`` / ``"pair"`` / ``"serve"`` (those tasks evaluate the
        backend's batched series, never a per-vertex iteration).
    backends:
        Compute backends the method can honour.  Per-vertex methods iterate
        Python adjacency structures and declare ``("dense",)`` — their
        arithmetic is backend-independent.
    accepts_backend:
        Whether the solver takes a ``backend=`` keyword.  Methods that do
        accept *any* registered backend (that is the plug-in point); only
        backend-agnostic methods pin the declared set above.
    accepts_workers:
        Whether the solver takes a ``workers=`` keyword for process-parallel
        execution.
    needs_adjacency:
        Whether the solver iterates per-vertex adjacency (and therefore
        needs a full :class:`~repro.graph.digraph.DiGraph`); an
        :class:`~repro.graph.edgelist.EdgeListGraph` input is upgraded via
        ``to_digraph()`` before dispatch.
    default_backend:
        Backend used when the caller passes ``backend=None`` (``None`` for
        backend-agnostic methods).
    shares_transition:
        Whether the solver takes a ``transition=`` keyword and can reuse a
        transition operator the engine session already materialised,
        instead of rebuilding it from the graph.
    uses_partial_sums:
        Whether the method's cost is governed by the paper's partial-sum
        sharing model (Eq. 7) — the planner then scales its estimate by the
        measured sharing ratio instead of the raw operator size.
    sparse_products:
        Whether the all-pairs solve runs as blocked sparse products (the
        sharing engine's level operators, psum-SR's incidence products) —
        the planner then prices it at the ``sparse_matvec`` weight rather
        than a per-vertex Python loop's ``python_vertex_step``.
    """

    tasks: frozenset[str] = frozenset({"all_pairs"})
    backends: tuple[str, ...] = ("dense",)
    accepts_backend: bool = False
    accepts_workers: bool = False
    needs_adjacency: bool = True
    default_backend: Optional[str] = None
    shares_transition: bool = False
    uses_partial_sums: bool = False
    sparse_products: bool = False

    def __post_init__(self) -> None:
        unknown = set(self.tasks) - set(ALL_TASKS)
        if unknown:
            raise ConfigurationError(
                f"unknown task shapes {sorted(unknown)}; "
                f"valid: {', '.join(ALL_TASKS)}"
            )

    def admits(
        self,
        task: str,
        backend: Optional[str] = None,
        workers: int = 1,
    ) -> bool:
        """Whether this capability record admits executing ``task``.

        ``backend``/``workers`` refine the check: a named backend must be
        honourable (declared, or the method forwards arbitrary backends)
        and a parallel worker count needs ``accepts_workers``.
        """
        if task not in self.tasks:
            return False
        if backend is not None and not self.accepts_backend:
            if backend not in self.backends:
                return False
        if workers > 1 and not self.accepts_workers:
            return False
        return True


@dataclass(frozen=True)
class BackendTraits:
    """Cost-model description of one compute backend's transition operator.

    Attributes
    ----------
    name:
        Registered backend name (``"dense"``, ``"sparse"``).
    dense_operator:
        Whether the materialised operator stores all ``n²`` entries
        (``True``) or only the ``m`` edge entries (``False``).  Drives both
        the multiply-add and the memory estimates.
    bytes_per_entry:
        Bytes per stored operator entry (CSR carries index overhead on top
        of the 8-byte value).
    deterministic_parallel:
        Whether the sharded parallel execution is bit-identical to serial
        for this backend (CSR products are; BLAS blocking is not).
    series_kernel:
        Name of the calibratable kernel that prices one series
        multiply-add on this backend (a key of
        :data:`repro.engine.cost_model.STATIC_WEIGHTS`, probed by
        :mod:`repro.calibrate.probes`).  ``None`` falls back by operator
        shape — ``"dense_gemm"`` for dense operators, ``"sparse_matvec"``
        otherwise; third-party backends that register their own kernel
        should also register a calibration probe for it.
    """

    name: str
    dense_operator: bool
    bytes_per_entry: int = 8
    deterministic_parallel: bool = True
    series_kernel: Optional[str] = None

    def resolved_series_kernel(self) -> str:
        """The kernel the cost model prices this backend's series with."""
        if self.series_kernel:
            return self.series_kernel
        return "dense_gemm" if self.dense_operator else "sparse_matvec"

    def operator_nnz(self, num_vertices: int, num_edges: int) -> int:
        """Stored operator entries for an ``n``-vertex, ``m``-edge graph."""
        if self.dense_operator:
            return num_vertices * num_vertices
        return num_edges

    def operator_bytes(self, num_vertices: int, num_edges: int) -> int:
        """Approximate resident bytes of the materialised operator."""
        return self.operator_nnz(num_vertices, num_edges) * self.bytes_per_entry


BACKEND_TRAITS: dict[str, BackendTraits] = {}
"""Registry of backend trait records, keyed by backend name."""


def register_backend_traits(traits: BackendTraits) -> BackendTraits:
    """Register ``traits`` (replacing any same-named record)."""
    BACKEND_TRAITS[traits.name] = traits
    return traits


def backend_traits(name: str) -> BackendTraits:
    """Resolve a backend's traits.

    Backends registered through :func:`repro.core.backends.register_backend`
    without a matching traits record (third-party plug-ins) fall back to
    conservative sparse-like traits — the planner can still price and run
    them; registering real traits via :func:`register_backend_traits` only
    sharpens the estimates.
    """
    try:
        return BACKEND_TRAITS[name]
    except KeyError:
        return BackendTraits(
            name=name, dense_operator=False, deterministic_parallel=False
        )


# The two built-in backends.  The sparse CSR operator stores one float plus
# one int32 column index per edge (plus the amortised indptr) — ~12 bytes an
# entry; the dense operator is a plain float64 ndarray.
register_backend_traits(
    BackendTraits(
        name="sparse",
        dense_operator=False,
        bytes_per_entry=12,
        deterministic_parallel=True,
        series_kernel="sparse_matvec",
    )
)
register_backend_traits(
    BackendTraits(
        name="dense",
        dense_operator=True,
        bytes_per_entry=8,
        deterministic_parallel=False,
        series_kernel="dense_gemm",
    )
)

MATRIX_TASKS = frozenset(ALL_TASKS)
"""The matrix-form series path answers every task shape (used by the
method registry in :mod:`repro.api`)."""
