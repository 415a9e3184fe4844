"""The compute-backend interface every matrix-form SimRank path goes through.

A backend owns two things:

1. how the backward transition operator ``W`` (the paper's ``Q``) is
   materialised (:meth:`SimRankBackend.transition` — dense ``ndarray`` vs
   ``scipy.sparse`` CSR), and
2. the cost model it reports to the instrumentation layer.

The numerics are shared: both backends iterate

``S_{k+1} = C · W S_k Wᵀ``  (+ diagonal correction)

computed as ``W @ (W @ S.T).T`` so only ``operator @ dense`` products are
ever issued — the orientation that is fast for CSR and free for BLAS — and
both answer batched top-k queries from the series expansion

``S e_q = (1 − C) Σ_i Cⁱ Wⁱ (Wᵀ)ⁱ e_q``

via a Horner evaluation that needs ``O(K)`` operator-vector products per
query batch and never materialises the ``n × n`` matrix.

Backends register themselves in :data:`BACKENDS`; resolve one with
:func:`get_backend` and enumerate them with :func:`available_backends`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from functools import cached_property
from typing import Any, ClassVar, Optional

import numpy as np

from ...exceptions import ConfigurationError
from ..instrumentation import Instrumentation

__all__ = [
    "BACKENDS",
    "DIAGONAL_MODES",
    "SimRankBackend",
    "TransitionOperator",
    "available_backends",
    "get_backend",
    "register_backend",
]

DIAGONAL_MODES = ("one", "matrix")
"""The supported diagonal conventions for the SimRank iteration."""


@dataclass(frozen=True)
class TransitionOperator:
    """A materialised backward-transition operator plus its shape metadata.

    Attributes
    ----------
    matrix:
        The operator ``W`` in the backend's native format (dense ``ndarray``
        or CSR matrix).  It must support ``@`` with dense arrays and ``.T``.
    n:
        Number of vertices (``W`` is ``n × n``).
    nnz:
        Number of stored entries — ``m`` for the sparse backend, ``n²`` for
        the dense one.  Drives the per-iteration cost model.
    """

    matrix: Any
    n: int
    nnz: int

    @cached_property
    def transpose(self) -> Any:
        """``Wᵀ`` in the operator's format, built on first use and kept.

        Batched queries walk ``Wᵀ`` on every call, so a served graph
        version pays for the CSR transpose once, not once per query batch.
        """
        transposed = self.matrix.T
        return transposed.tocsr() if hasattr(transposed, "tocsr") else transposed


class SimRankBackend(abc.ABC):
    """Abstract compute backend for matrix-form SimRank."""

    name: ClassVar[str] = "abstract"

    @abc.abstractmethod
    def transition(self, graph) -> TransitionOperator:
        """Materialise the backward transition operator for ``graph``.

        ``graph`` may be a :class:`~repro.graph.digraph.DiGraph` or an
        :class:`~repro.graph.edgelist.EdgeListGraph`; the latter skips
        Python adjacency construction entirely.
        """

    @abc.abstractmethod
    def iteration_cost(self, transition: TransitionOperator) -> int:
        """Scalar multiply-adds one iteration costs under this backend."""

    # ------------------------------------------------------------------ #
    # Shared numerics
    # ------------------------------------------------------------------ #
    def iterate(
        self,
        transition: TransitionOperator,
        damping: float,
        iterations: int,
        diagonal: str = "one",
        instrumentation: Optional[Instrumentation] = None,
    ) -> np.ndarray:
        """Run ``iterations`` SimRank iterations and return the dense scores.

        ``diagonal="one"`` pins the diagonal to 1 after every iteration
        (iterative-form convention, Eq. 2); ``diagonal="matrix"`` iterates
        Eq. 3 literally (``+ (1 − C)·I`` each step).
        """
        if diagonal not in DIAGONAL_MODES:
            raise ConfigurationError(
                f"diagonal must be one of {DIAGONAL_MODES}, got {diagonal!r}"
            )
        operator = transition.matrix
        n = transition.n
        scores = np.eye(n, dtype=np.float64)
        identity_term = (1.0 - damping) * np.eye(n, dtype=np.float64)
        cost = self.iteration_cost(transition)
        for _ in range(iterations):
            # W S Wᵀ == W (W Sᵀ)ᵀ: both products are `operator @ dense`.
            inner = np.ascontiguousarray((operator @ scores.T).T)
            propagated = operator @ inner
            if diagonal == "one":
                scores = damping * propagated
                np.fill_diagonal(scores, 1.0)
            else:
                scores = damping * propagated + identity_term
            if instrumentation is not None:
                instrumentation.operations.add("matrix", cost)
        return scores

    def similarity_rows(
        self,
        transition: TransitionOperator,
        indices,
        damping: float,
        iterations: int,
        instrumentation: Optional[Instrumentation] = None,
    ) -> np.ndarray:
        """Return the similarity rows ``s(q, ·)`` for a batch of queries.

        Evaluates the truncated series
        ``(1 − C) Σ_{i=0}^{K} Cⁱ Wⁱ (Wᵀ)ⁱ e_q`` for every query column at
        once: a forward pass collects ``(Wᵀ)ⁱ e_q`` and a Horner-style
        backward pass folds the powers of ``W`` in, so the whole batch costs
        ``2 K`` operator-matrix products and ``O(K · n · q)`` memory — the
        full ``n × n`` matrix is never formed.

        The rows follow the matrix-form convention (Eq. 3 fixed point) except
        that each query's self-similarity is set to 1, matching
        :func:`~repro.baselines.single_pair.single_source_simrank`.  They
        agree with :meth:`iterate` (``diagonal="matrix"``) off the diagonal
        up to the truncation tail ``C^{K+1}``.
        """
        indices = np.asarray(indices, dtype=np.int64).ravel()
        operator = transition.matrix
        operator_t = transition.transpose
        n = transition.n
        batch = indices.size

        walkers = np.zeros((n, batch), dtype=np.float64)
        walkers[indices, np.arange(batch)] = 1.0
        terms = [walkers]
        for _ in range(iterations):
            walkers = operator_t @ walkers
            terms.append(walkers)

        accumulator = terms[iterations].copy()
        for term in range(iterations - 1, -1, -1):
            accumulator = terms[term] + damping * (operator @ accumulator)
        rows = (1.0 - damping) * accumulator.T
        rows[np.arange(batch), indices] = 1.0
        if instrumentation is not None:
            instrumentation.operations.add(
                "similarity_rows", 2 * iterations * transition.nnz * batch
            )
            instrumentation.memory.allocate((iterations + 1) * n * batch)
        return rows


BACKENDS: dict[str, SimRankBackend] = {}
"""Registry of compute backends, keyed by name (``"dense"``, ``"sparse"``)."""


def register_backend(backend: SimRankBackend) -> SimRankBackend:
    """Add ``backend`` to :data:`BACKENDS` (replacing any same-named one)."""
    BACKENDS[backend.name] = backend
    return backend


def available_backends() -> tuple[str, ...]:
    """Return the registered backend names, sorted."""
    return tuple(sorted(BACKENDS))


def get_backend(name) -> SimRankBackend:
    """Resolve a backend by name (or pass an instance through unchanged)."""
    if isinstance(name, SimRankBackend):
        return name
    try:
        return BACKENDS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown backend {name!r}; available: {', '.join(available_backends())}"
        ) from None
