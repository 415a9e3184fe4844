"""A minimal edge-list graph for matrix-only pipelines.

:class:`~repro.graph.digraph.DiGraph` builds sorted, de-duplicated Python
adjacency tuples in its constructor — an ``O(m log m)`` pass through Python
objects that every per-vertex algorithm needs but the sparse-matrix backend
does not.  :class:`EdgeListGraph` is the cheap alternative for workloads that
only ever touch the graph through :mod:`repro.graph.matrices`: it stores the
raw ``(sources, targets)`` arrays as NumPy ``int64`` vectors and hands them
straight to the vectorised CSR builders, so graph construction is ``O(m)``
array work with no Python-level per-edge loop.

It quacks like a :class:`DiGraph` where the matrix pipeline needs it to
(``num_vertices``, ``num_edges``, ``edge_arrays``, ``index_of``,
``label_of``) and can be upgraded to a full :class:`DiGraph` via
:meth:`to_digraph` when a per-vertex algorithm is requested after all.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Optional

import numpy as np

from ..exceptions import GraphBuildError, VertexNotFoundError
from .matrices import validate_edge_arrays

__all__ = ["EdgeListGraph"]


class EdgeListGraph:
    """An immutable edge list with integer vertices ``0 .. n-1``.

    Parameters
    ----------
    n:
        Number of vertices.
    edges:
        Either an iterable of ``(source, target)`` pairs or an ``(m, 2)``
        array.  Duplicates are kept verbatim here (the CSR builders collapse
        them), so construction never sorts or de-duplicates.
    name:
        Optional human-readable name used in reprs and benchmark tables.
    """

    __slots__ = ("_n", "_sources", "_targets", "name")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] | np.ndarray = (),
        name: str = "",
    ) -> None:
        if n < 0:
            raise GraphBuildError(f"vertex count must be non-negative, got {n}")
        self._n = int(n)
        self.name = name

        edge_array = np.asarray(
            edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64
        )
        if edge_array.size == 0:
            sources = np.empty(0, dtype=np.int64)
            targets = np.empty(0, dtype=np.int64)
        elif edge_array.ndim == 2 and edge_array.shape[1] == 2:
            sources = np.ascontiguousarray(edge_array[:, 0])
            targets = np.ascontiguousarray(edge_array[:, 1])
        else:
            raise GraphBuildError(
                f"edges must be (source, target) pairs, got shape {edge_array.shape}"
            )
        self._sources, self._targets = validate_edge_arrays(
            self._n, sources, targets
        )

    @classmethod
    def from_arrays(
        cls, n: int, sources, targets, name: str = ""
    ) -> "EdgeListGraph":
        """Build from parallel ``sources`` / ``targets`` arrays without copying pairs."""
        graph = cls(n, name=name)
        graph._sources, graph._targets = validate_edge_arrays(n, sources, targets)
        return graph

    # ------------------------------------------------------------------ #
    # Size accessors (DiGraph-compatible)
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of stored edge samples (duplicates are *not* collapsed)."""
        return int(self._sources.size)

    def __len__(self) -> int:
        return self._n

    def vertices(self) -> range:
        """Return the vertex ids as a ``range`` object."""
        return range(self._n)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Return the raw ``(sources, targets)`` arrays (no copies)."""
        return self._sources, self._targets

    def edges(self):
        """Yield every stored ``(source, target)`` pair."""
        for source, target in zip(self._sources, self._targets):
            yield (int(source), int(target))

    # ------------------------------------------------------------------ #
    # Label interface (ids are their own labels)
    # ------------------------------------------------------------------ #
    def index_of(self, label) -> int:
        """Return the vertex id for ``label`` (ids are their own labels)."""
        if isinstance(label, (int, np.integer)) and 0 <= int(label) < self._n:
            return int(label)
        raise VertexNotFoundError(label)

    def label_of(self, vertex: int) -> int:
        """Return the label of ``vertex`` (the id itself)."""
        if not (0 <= vertex < self._n):
            raise VertexNotFoundError(vertex)
        return vertex

    # ------------------------------------------------------------------ #
    # Upgrades
    # ------------------------------------------------------------------ #
    def to_digraph(self, name: Optional[str] = None):
        """Materialise a full :class:`~repro.graph.digraph.DiGraph`.

        Use this when an algorithm needs per-vertex adjacency (OIP-SR,
        psum-SR, ...); the matrix backends never do.
        """
        from .digraph import DiGraph

        return DiGraph(
            self._n,
            zip(self._sources.tolist(), self._targets.tolist()),
            name=self.name if name is None else name,
        )

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<EdgeListGraph{label} n={self._n} m={self.num_edges}>"
