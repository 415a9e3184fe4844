"""Model-based tests of :class:`repro.graph.versioned.VersionedGraph`.

A mutated graph keeps its edges as integer keys ``source · n + target`` and
builds each version's edge-list view from one sort of them.  Hypothesis
drives add/remove sequences against a set model of the edges; after every
step the graph's membership test, edge count, view arrays and sparse
operator must equal what the model's sorted edges give, and replaying the
logged mutations through ``attach_journal`` must reach the same graph.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.backends import get_backend
from repro.graph.digraph import DiGraph
from repro.graph.edgelist import EdgeListGraph
from repro.graph.versioned import VersionedGraph

SPARSE = get_backend("sparse")
MAX_VERTICES = 7

PROPERTY = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

BASES = {
    "labelled-digraph": lambda: DiGraph(
        6,
        [(0, 1), (1, 2), (2, 0), (3, 3), (5, 1), (5, 2)],
        labels=[f"page-{vertex}" for vertex in range(6)],
    ),
    "duplicate-samples": lambda: EdgeListGraph(
        5, [(0, 1), (2, 3), (0, 1), (4, 4), (2, 3), (1, 0), (0, 1)]
    ),
    "no-edges": lambda: EdgeListGraph(4, []),
}

operations = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(0, MAX_VERTICES - 1),
        st.integers(0, MAX_VERTICES - 1),
    ),
    max_size=30,
)


class EdgeLog:
    """A journal that keeps what the graph logs, as the catalog's edge log
    would: ``(op, source, target, version)`` per effective mutation."""

    def __init__(self) -> None:
        self.records: list[tuple[str, int, int, int]] = []

    def append_edge(self, op: str, source: int, target: int, version: int) -> None:
        self.records.append((op, source, target, version))


def _fresh_operator(n: int, edges):
    """The sparse operator of an edge list built on the sorted pairs."""
    return SPARSE.transition(EdgeListGraph(n, sorted(edges)))


def _assert_same_operator(operator, expected) -> None:
    for part in ("indptr", "indices", "data"):
        got = getattr(operator.matrix, part)
        want = getattr(expected.matrix, part)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert operator.nnz == expected.nnz


def _assert_view_is_sorted_model(graph: VersionedGraph, model: set) -> None:
    assert graph.num_edges == len(model)
    pairs = np.array(sorted(model), dtype=np.int64).reshape(-1, 2)
    sources, targets = graph.current().edge_arrays()
    assert sources.dtype == targets.dtype == np.int64
    assert np.array_equal(sources, pairs[:, 0])
    assert np.array_equal(targets, pairs[:, 1])
    operator, _ = graph.transition(SPARSE)
    _assert_same_operator(operator, _fresh_operator(graph.num_vertices, model))


def _assert_matches_model(graph: VersionedGraph, model: set, samples: int) -> None:
    n = graph.num_vertices
    label = graph.label_of
    for source in range(n):
        for target in range(n):
            expected = (source, target) in model
            assert graph.has_edge(label(source), label(target)) is expected
    if graph.version:
        _assert_view_is_sorted_model(graph, model)
    else:
        # Version 0 serves the caller's graph as it is: its own edge count
        # (duplicate samples included) and its own arrays.
        assert graph.num_edges == samples
        assert graph.current() is graph.base
        operator, _ = graph.transition(SPARSE)
        _assert_same_operator(operator, _fresh_operator(n, model))


def _apply(graph: VersionedGraph, model: set, add: bool, source: int, target: int) -> None:
    n = graph.num_vertices
    edge = (source % n, target % n)
    labels = (graph.label_of(edge[0]), graph.label_of(edge[1]))
    effective = (edge not in model) if add else (edge in model)
    version = graph.version
    mutation = graph.add_edge if add else graph.remove_edge
    assert mutation(*labels) is effective
    assert graph.version == version + int(effective)
    if effective:
        (model.add if add else model.remove)(edge)


@pytest.mark.parametrize("name", sorted(BASES))
@PROPERTY
@given(ops=operations)
def test_mutations_match_a_set_model(name, ops):
    base = BASES[name]()
    graph = VersionedGraph(base)
    model = {(int(s), int(t)) for s, t in base.edges()}
    _assert_matches_model(graph, model, base.num_edges)
    for add, source, target in ops:
        _apply(graph, model, add, source, target)
        _assert_matches_model(graph, model, base.num_edges)


@pytest.mark.parametrize("name", sorted(BASES))
@PROPERTY
@given(ops=operations)
def test_journal_replay_equals_applying_the_ops(name, ops):
    base = BASES[name]()
    live = VersionedGraph(base)
    log = EdgeLog()
    live.attach_journal(log, [], 0)
    model = {(int(s), int(t)) for s, t in base.edges()}
    for add, source, target in ops:
        _apply(live, model, add, source, target)
    assert len(log.records) == live.version

    replayed = VersionedGraph(base)
    replayed.attach_journal(EdgeLog(), list(log.records), live.version)
    assert replayed.version == live.version
    _assert_matches_model(replayed, model, base.num_edges)


def test_a_vertexless_graph_has_an_empty_view():
    graph = VersionedGraph(EdgeListGraph(0, []))
    graph.attach_journal(EdgeLog(), [], 3)
    assert graph.version == 3
    assert graph.num_edges == 0
    sources, targets = graph.current().edge_arrays()
    assert sources.size == targets.size == 0
    assert sources.dtype == targets.dtype == np.int64


def _absent_edge(rng: np.random.Generator, n: int, model: set) -> tuple[int, int]:
    while True:
        edge = (int(rng.integers(n)), int(rng.integers(n)))
        if edge not in model:
            return edge


@pytest.mark.parametrize("fixture", ["berkstan_graph", "rmat_scale10_graph"])
def test_benchmark_graph_after_fifty_mutations(fixture, request):
    base = request.getfixturevalue(fixture)
    graph = VersionedGraph(base)
    n = graph.num_vertices
    model = {(int(s), int(t)) for s, t in base.edges()}
    rng = np.random.default_rng(30)
    for step in range(50):
        if step % 2:
            present = sorted(model)
            edge = present[int(rng.integers(len(present)))]
        else:
            edge = _absent_edge(rng, n, model)
        _apply(graph, model, not step % 2, *edge)
    assert graph.version == 50
    _assert_view_is_sorted_model(graph, model)
