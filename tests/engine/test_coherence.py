"""Model-based coherence of one engine, its service and their catalog.

A hypothesis state machine drives an :class:`~repro.engine.Engine` and the
catalog-backed service ``engine.serve()`` returns through any interleaving
of edge mutations (through either owner), refreshes, version-floored
queries, engine top-k, index rebuilds and edge-log appends that fail.
After every step both owners must report the model's version and edge set,
and every answer must equal a from-scratch engine on the edge set at the
version stamped on it.

Tier-1 runs the loaded profile's budget; CI also runs this module under
``--hypothesis-profile=long`` (registered in ``tests/conftest.py``).
"""

from __future__ import annotations

import errno
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import Engine, EngineConfig
from repro.catalog import IndexCatalog
from repro.graph.edgelist import EdgeListGraph
from repro.service import ErrorCode, QueryRequest, ServeError, build_index

MAX_VERTICES = 8
ITERATIONS = 6
INDEX_K = 3
# Exact answers are bit-identical per backend, and the planner may pick
# dense for a tiny graph, whose sums differ from sparse in the last bits.
# A service keeps the backend planned at serve() time while the engine
# re-plans after each mutation, so every owner here is pinned to one.
BACKEND = "sparse"

vertices = st.integers(0, MAX_VERTICES - 1)
owners = st.sampled_from(["engine", "service"])


def _oracle(n: int, edges, vertex: int, k: int):
    """The ranking a from-scratch engine computes on ``edges``."""
    graph = EdgeListGraph(n, sorted(edges))
    config = EngineConfig(iterations=ITERATIONS, backend=BACKEND)
    with Engine(graph, config) as fresh:
        return fresh.top_k([vertex], k=k)[0].entries


def _enospc(*args, **kwargs):
    raise OSError(errno.ENOSPC, "No space left on device")


class EngineServiceCoherence(RuleBasedStateMachine):
    @initialize(
        n=st.integers(2, MAX_VERTICES),
        pairs=st.sets(st.tuples(vertices, vertices), max_size=20),
    )
    def start(self, n, pairs):
        self.n = n
        edges = {(s, t) for s, t in pairs if s < n and t < n}
        graph = EdgeListGraph(n, sorted(edges))
        self.directory = Path(tempfile.mkdtemp(prefix="coherence-"))
        path = self.directory / "catalog"
        IndexCatalog.create(
            path,
            build_index(graph, index_k=INDEX_K, iterations=ITERATIONS),
        )
        self.engine = Engine(
            graph,
            EngineConfig(
                iterations=ITERATIONS, backend=BACKEND, index_k=INDEX_K,
                workers=1, catalog_path=str(path),
            ),
        )
        self.service = self.engine.serve(k=2)
        assert self.service.catalog is not None
        self.edges = set(edges)
        self.history = {0: frozenset(edges)}

    def teardown(self):
        if hasattr(self, "engine"):
            self.service.close()
            self.engine.close()
            shutil.rmtree(self.directory, ignore_errors=True)

    @property
    def version(self) -> int:
        return len(self.history) - 1

    def _owner(self, name):
        return self.engine if name == "engine" else self.service

    # ------------------------------------------------------------------ #
    # Rules
    # ------------------------------------------------------------------ #
    # ``target`` is reserved by ``rule``: edges run ``tail -> head``.
    @rule(owner=owners, tail=vertices, head=vertices, add=st.booleans())
    def mutate(self, owner, tail, head, add):
        edge = (tail % self.n, head % self.n)
        mutation = getattr(self._owner(owner), "add_edge" if add else "remove_edge")
        effective = (edge not in self.edges) if add else (edge in self.edges)
        assert mutation(*edge) is effective
        if effective:
            (self.edges.add if add else self.edges.remove)(edge)
            self.history[self.version + 1] = frozenset(self.edges)

    @rule(owner=owners, tail=vertices, head=vertices, add=st.booleans())
    def mutate_with_failing_log(self, owner, tail, head, add):
        edge = (tail % self.n, head % self.n)
        effective = (edge not in self.edges) if add else (edge in self.edges)
        catalog = self.service.catalog
        logged = len(catalog.read_edge_log())
        dirty = self.service.dirty_vertices
        catalog.append_edge = _enospc
        try:
            mutation = getattr(self._owner(owner), "add_edge" if add else "remove_edge")
            if effective:
                with pytest.raises(OSError):
                    mutation(*edge)
            else:
                assert mutation(*edge) is False
        finally:
            del catalog.append_edge
        assert len(catalog.read_edge_log()) == logged
        assert self.service.dirty_vertices == dirty
        assert self.service.has_edge(*edge) is (edge in self.edges)

    @rule()
    def refresh(self):
        self.service.refresh()

    @rule()
    def build_index(self):
        self.service.build_index(index_k=INDEX_K)

    @rule(vertex=vertices, k=st.integers(1, MAX_VERTICES), floor=st.integers(-1, 3))
    def query(self, vertex, k, floor):
        vertex = vertex % self.n
        # -1: no floor; otherwise a floor at, below or just past the version.
        graph_version = None if floor < 0 else max(self.version - 1 + floor, 0)
        request = QueryRequest(query=vertex, k=k, graph_version=graph_version)
        if graph_version is not None and graph_version > self.version:
            with pytest.raises(ServeError) as excinfo:
                self.service.query(request)
            assert excinfo.value.code is ErrorCode.STALE_VERSION
            return
        response = self.service.query(request)
        assert response.graph_version == self.version
        assert response.entries == _oracle(
            self.n, self.history[response.graph_version], vertex, k
        )

    @rule(vertex=vertices, k=st.integers(1, MAX_VERTICES))
    def engine_top_k(self, vertex, k):
        vertex = vertex % self.n
        ranking = self.engine.top_k([vertex], k=k)[0]
        assert ranking.entries == _oracle(self.n, self.edges, vertex, k)

    # ------------------------------------------------------------------ #
    # Invariants
    # ------------------------------------------------------------------ #
    @precondition(lambda self: hasattr(self, "engine"))
    @invariant()
    def owners_agree_with_the_model(self):
        assert self.engine.version == self.service.version == self.version
        assert set(self.engine.current_graph().edges()) == self.edges
        assert set(self.service.current_graph().edges()) == self.edges
        assert len(self.service.catalog.read_edge_log()) == self.version

    @precondition(lambda self: hasattr(self, "engine"))
    @invariant()
    def tier_hits_sum_to_queries(self):
        snapshot = self.service.stats.snapshot()
        assert snapshot["queries"] == sum(
            snapshot[f"{tier}_hits"] for tier in ("index", "cache", "approx", "compute")
        )


TestEngineServiceCoherence = EngineServiceCoherence.TestCase
