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

    @cached_property
    def representative(self) -> np.ndarray:
        """Per vertex, the first vertex whose operator row is identical.

        Rows compare as stored: the same column indices and the same
        values, in the same order (every entry of a dense row).  An empty
        row maps to ``-1``.  Vertices sharing a representative have the
        same in-neighbour set, so their series rows agree bit for bit up
        to a swap of their two own entries (see
        :func:`~repro.parallel.worker.compute_topk_rows`); a vertex with an
        empty row has the row ``e_v``.  Built in one pass over the rows on
        first use and kept, beside :attr:`transpose`.
        """
        matrix = self.matrix
        representative = np.full(self.n, -1, dtype=np.int64)
        first: dict[bytes, int] = {}
        if hasattr(matrix, "indptr"):
            bounds = matrix.indptr.tolist()
            columns = matrix.indices.tobytes()
            values = matrix.data.tobytes()
            column_size = matrix.indices.itemsize
            value_size = matrix.data.itemsize
            for vertex in range(self.n):
                start, stop = bounds[vertex], bounds[vertex + 1]
                if start == stop:
                    continue
                key = (
                    columns[start * column_size : stop * column_size]
                    + values[start * value_size : stop * value_size]
                )
                representative[vertex] = first.setdefault(key, vertex)
        else:
            dense = np.ascontiguousarray(matrix)
            for vertex in np.flatnonzero(dense.any(axis=1)).tolist():
                representative[vertex] = first.setdefault(
                    dense[vertex].tobytes(), vertex
                )
        return representative


class SimRankBackend(abc.ABC):
    """Abstract compute backend for matrix-form SimRank."""

    name: ClassVar[str] = "abstract"

    row_tile: ClassVar[Optional[int]] = None
    """Query columns per pass of :meth:`similarity_rows`; ``None`` = the
    whole batch.  A constant of the backend, not an option: it trades the
    per-tile working set against the width each operator product wants."""

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

    def tile_width(self, batch: int) -> int:
        """Query columns per pass of :meth:`similarity_rows` for ``batch``."""
        return batch if self.row_tile is None else min(self.row_tile, batch)

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
        ``(1 − C) Σ_{i=0}^{K} Cⁱ Wⁱ (Wᵀ)ⁱ e_q`` for every query column: a
        forward pass collects ``(Wᵀ)ⁱ e_q`` and a Horner-style backward
        pass folds the powers of ``W`` in, so the batch costs ``2 K``
        operator-matrix products per column and the full ``n × n`` matrix
        is never formed.

        The batch is evaluated :attr:`row_tile` query columns at a time,
        each tile's ``(1 − C)``-scaled rows written into one preallocated
        C-contiguous ``(batch, n)`` result, so memory is
        ``O(n · batch + K · n · tile)``.  A CSR-times-dense product's output
        column depends only on its input column, so on the sparse backend
        a row is bit-identical at every tile width and in every batch.
        ``instrumentation`` records ``2 K · nnz`` operations per row and,
        in its memory tracker, one tile's ``K + 1`` live series terms.

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
        tile = self.tile_width(batch)

        rows = np.empty((batch, n), dtype=np.float64)
        for start in range(0, batch, max(tile, 1)):
            queries = indices[start : start + tile]
            walkers = np.zeros((n, queries.size), dtype=np.float64)
            walkers[queries, np.arange(queries.size)] = 1.0
            terms = [walkers]
            for _ in range(iterations):
                walkers = operator_t @ walkers
                terms.append(walkers)
            # Horner, in place: (W acc) · C + term rounds exactly as
            # term + C · (W acc).
            accumulator = terms[iterations]
            for term in range(iterations - 1, -1, -1):
                accumulator = operator @ accumulator
                accumulator *= damping
                accumulator += terms[term]
            np.multiply(
                accumulator.T, 1.0 - damping, out=rows[start : start + queries.size]
            )
        rows[np.arange(batch), indices] = 1.0
        if instrumentation is not None:
            instrumentation.operations.add(
                "similarity_rows", 2 * iterations * transition.nnz * batch
            )
            tile_values = (iterations + 1) * n * tile
            instrumentation.memory.allocate(tile_values)
            instrumentation.memory.release(tile_values)
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
