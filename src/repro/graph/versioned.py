"""One graph at one version, shared by every owner of a session.

An :class:`~repro.engine.Engine` and every
:class:`~repro.service.service.SimilarityService` it creates hold the same
:class:`VersionedGraph`, so they cannot report one version over two edge
sets, and the operator rebuilt after a mutation is rebuilt once for all.
"""

from __future__ import annotations

import threading
import weakref
from collections.abc import Callable, Hashable, Sequence
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..exceptions import ConfigurationError
from .edgelist import EdgeListGraph

if TYPE_CHECKING:
    from ..core.backends import SimRankBackend, TransitionOperator

__all__ = ["VersionedGraph"]


class VersionedGraph:
    """The caller's labelled graph, its mutable edges and their version.

    The vertex set and labels are fixed; edges change through
    :meth:`add_edge` / :meth:`remove_edge`, which run under :attr:`lock`:

    1. resolve the labels; a no-op returns ``False``;
    2. append to the journal, if one is attached — if the append raises,
       nothing has changed;
    3. apply the edge, bump the version, drop the edge-list view and the
       transition operators;
    4. call the subscribers, which drop or stale what they derived.

    Subscribers are held weakly, so an owner dropped without ``close()``
    is collected rather than kept alive by the graph.
    """

    def __init__(self, graph) -> None:
        self.base = graph
        self.lock = threading.RLock()
        """Guards the graph and everything its owners derive from it."""
        self._version = 0
        # Built on first use: the set costs milliseconds on a benchmark
        # graph, and one-shot solves never mutate.
        self._edges: Optional[set[tuple[int, int]]] = None
        self._view: Optional[EdgeListGraph] = None
        self._operators: dict[str, TransitionOperator] = {}
        self._journal = None
        self._subscribers: list[weakref.WeakMethod] = []

    @property
    def version(self) -> int:
        with self.lock:
            return self._version

    @property
    def num_vertices(self) -> int:
        return int(self.base.num_vertices)

    @property
    def num_edges(self) -> int:
        """At version 0 the caller's graph's own count (duplicate samples
        of an :class:`EdgeListGraph` included); after it, distinct edges."""
        with self.lock:
            if self._version:
                return len(self._materialise())
        return int(self.base.num_edges)

    @property
    def journal(self):
        """The attached edge log, if any."""
        return self._journal

    @property
    def operators(self) -> tuple[str, ...]:
        """Backends with an operator built at the current version."""
        with self.lock:
            return tuple(sorted(self._operators))

    def index_of(self, label: Hashable) -> int:
        return self.base.index_of(label)

    def label_of(self, vertex: int) -> Hashable:
        return self.base.label_of(vertex)

    def current(self):
        """The caller's graph at version 0; afterwards an
        :class:`EdgeListGraph` of the sorted edges, built once per version."""
        with self.lock:
            if not self._version:
                return self.base
            if self._view is None:
                pairs = np.array(sorted(self._materialise()), dtype=np.int64)
                pairs = pairs.reshape(-1, 2)
                self._view = EdgeListGraph.from_arrays(
                    self.num_vertices, pairs[:, 0], pairs[:, 1],
                    name=getattr(self.base, "name", ""),
                )
            return self._view

    def has_edge(self, source: Hashable, target: Hashable) -> bool:
        edge = (self.index_of(source), self.index_of(target))
        with self.lock:
            return edge in self._materialise()

    def transition(
        self, backend: SimRankBackend
    ) -> tuple[TransitionOperator, bool]:
        """``backend``'s operator at the current version, and whether this
        call built it (so an owner can count the builds it caused)."""
        with self.lock:
            operator = self._operators.get(backend.name)
            if operator is not None:
                return operator, False
            operator = backend.transition(self.current())
            self._operators[backend.name] = operator
            return operator, True

    def subscribe(self, listener: Callable[[Sequence[int]], None]) -> None:
        """Call the bound method ``listener(endpoints)`` after each mutation,
        under :attr:`lock`; it must not raise."""
        with self.lock:
            self._subscribers.append(weakref.WeakMethod(listener))

    def add_edge(self, source: Hashable, target: Hashable) -> bool:
        """Insert a directed edge; returns ``False`` when already present."""
        return self._mutate("add", source, target)

    def remove_edge(self, source: Hashable, target: Hashable) -> bool:
        """Delete a directed edge; returns ``False`` when absent."""
        return self._mutate("remove", source, target)

    def attach_journal(self, journal, ops, version: int) -> None:
        """Replay ``(op, source, target, version)`` records and resume at
        ``version``; ``journal.append_edge`` then logs every mutation.

        Only a graph still at version 0 with no journal can take one;
        anything else raises :class:`~repro.exceptions.ConfigurationError`.
        """
        with self.lock:
            if self._version or self._journal is not None:
                raise ConfigurationError(
                    "a journal replays only onto an unmutated graph with no "
                    f"journal attached (graph is at version {self._version})"
                )
            touched: set[int] = set()
            if ops:
                edges = self._materialise()
                for op, source, target, _ in ops:
                    edge = (int(source), int(target))
                    (edges.add if op == "add" else edges.discard)(edge)
                    touched.update(edge)
            self._journal = journal
            if version:
                self._advance(int(version), sorted(touched))

    def _mutate(self, op: str, source: Hashable, target: Hashable) -> bool:
        edge = (self.index_of(source), self.index_of(target))
        with self.lock:
            edges = self._materialise()
            if (edge in edges) == (op == "add"):
                return False
            version = self._version + 1
            if self._journal is not None:
                self._journal.append_edge(op, edge[0], edge[1], version)
            (edges.add if op == "add" else edges.remove)(edge)
            self._advance(version, sorted(set(edge)))
            return True

    def _materialise(self) -> set[tuple[int, int]]:
        # Caller holds the lock.
        if self._edges is None:
            self._edges = {
                (int(source), int(target)) for source, target in self.base.edges()
            }
        return self._edges

    def _advance(self, version: int, endpoints: list[int]) -> None:
        # Caller holds the lock.
        self._version = version
        self._view = None
        self._operators.clear()
        live = []
        for reference in self._subscribers:
            listener = reference()
            if listener is not None:
                live.append(reference)
                listener(endpoints)
        self._subscribers = live
