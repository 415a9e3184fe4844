"""Unit tests for the vectorised sharing engine (Algorithm 1 + Procedure OP).

Iterations from ``s_0 = I`` run the class-space path (``initial_state``,
``iterate``, ``expand``); an arbitrary ``n × n`` start runs the
vertex-space path, ``iterate_vertices``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.matrix_sr import matrix_simrank
from repro.core.dmst_reduce import dmst_reduce
from repro.core.instrumentation import Instrumentation
from repro.core.oip_sr import oip_sr
from repro.core.sharing_engine import SharingEngine
from repro.graph.builders import from_edges, star_graph
from repro.graph.matrices import backward_transition_matrix


def _reference_iteration(graph, scores, factor, pin_diagonal):
    """One iteration computed directly from the definition (Eq. 2-style)."""
    transition = backward_transition_matrix(graph).toarray()
    updated = factor * transition @ scores @ transition.T
    if pin_diagonal:
        np.fill_diagonal(updated, 1.0)
    return updated


@pytest.mark.parametrize("factor, pin", [(0.6, True), (1.0, False), (0.8, True)])
def test_single_iteration_matches_reference(paper_graph, factor, pin):
    plan = dmst_reduce(paper_graph)
    engine = SharingEngine(paper_graph, plan)
    rng = np.random.default_rng(0)
    scores = rng.random((paper_graph.num_vertices, paper_graph.num_vertices))
    ours = engine.iterate_vertices(scores, factor=factor, pin_diagonal=pin)
    reference = _reference_iteration(paper_graph, scores, factor, pin)
    assert np.allclose(ours, reference)


@pytest.mark.parametrize("factor, pin", [(0.6, True), (1.0, False), (0.8, True)])
def test_class_iteration_matches_reference(paper_graph, factor, pin):
    engine = SharingEngine(paper_graph, dmst_reduce(paper_graph))
    state = engine.initial_state()
    scores = engine.expand(state)
    for _ in range(3):
        state = engine.iterate(state, factor=factor, pin_diagonal=pin)
        scores = _reference_iteration(paper_graph, scores, factor, pin)
        assert np.allclose(engine.expand(state), scores, atol=1e-14)


def test_multiple_graphs_match_reference(
    small_web_graph, small_citation_graph, small_random_graph
):
    for graph in (small_web_graph, small_citation_graph, small_random_graph):
        plan = dmst_reduce(graph)
        engine = SharingEngine(graph, plan)
        state = engine.initial_state()
        for _ in range(3):
            state = engine.iterate(state, factor=0.6, pin_diagonal=True)
        reference = matrix_simrank(graph, damping=0.6, iterations=3).scores
        assert np.allclose(engine.expand(state), reference, atol=1e-10)


def test_rows_of_sourceless_vertices_are_zero(paper_graph):
    plan = dmst_reduce(paper_graph)
    engine = SharingEngine(paper_graph, plan)
    result = engine.expand(
        engine.iterate(engine.initial_state(), factor=0.6, pin_diagonal=True)
    )
    for vertex in paper_graph.vertices():
        if paper_graph.in_degree(vertex) == 0:
            row = result[vertex, :].copy()
            row[vertex] = 0.0
            assert np.allclose(row, 0.0)
            assert result[vertex, vertex] == 1.0


def test_identical_in_sets_get_identical_rows():
    # Vertices 3, 4, 5 all have in-set {0, 1, 2}.
    edges = [(source, target) for target in (3, 4, 5) for source in (0, 1, 2)]
    graph = from_edges(edges, n=6)
    plan = dmst_reduce(graph)
    engine = SharingEngine(graph, plan)
    state = engine.iterate(engine.initial_state(), factor=0.6, pin_diagonal=True)
    scores = engine.expand(state)
    off_diagonal = [v for v in range(6) if v not in (3, 4)]
    assert np.allclose(scores[3, off_diagonal], scores[4, off_diagonal])


def test_operation_counts_reflect_plan(small_web_graph):
    instrumentation = Instrumentation()
    plan = dmst_reduce(small_web_graph)
    engine = SharingEngine(small_web_graph, plan, instrumentation=instrumentation)
    engine.iterate(engine.initial_state(), factor=0.6, pin_diagonal=True)
    counted = instrumentation.operations
    assert counted.get("inner") == engine.inner_additions_per_iteration
    assert counted.get("outer") == engine.outer_additions_per_iteration
    assert engine.additions_per_iteration() == counted.total()


def test_shared_plan_needs_fewer_additions_than_scratch(small_web_graph):
    plan = dmst_reduce(small_web_graph)
    engine = SharingEngine(small_web_graph, plan)
    n = small_web_graph.num_vertices
    scratch_inner = plan.distinct_scratch_weight() * n
    assert engine.inner_additions_per_iteration <= scratch_inner


def test_memory_is_released_after_iteration(small_web_graph):
    instrumentation = Instrumentation()
    plan = dmst_reduce(small_web_graph)
    engine = SharingEngine(small_web_graph, plan, instrumentation=instrumentation)
    engine.iterate(engine.initial_state(), factor=0.6, pin_diagonal=True)
    assert instrumentation.memory.current_values == 0
    assert instrumentation.memory.peak_values > 0
    # Peak intermediate memory stays far below the n^2 score matrix.
    n = small_web_graph.num_vertices
    assert instrumentation.memory.peak_values < n * n / 2


def test_star_graph_iteration():
    graph = star_graph(5)
    plan = dmst_reduce(graph)
    engine = SharingEngine(graph, plan)
    state = engine.iterate(engine.initial_state(), factor=0.6, pin_diagonal=True)
    scores = engine.expand(state)
    reference = _reference_iteration(graph, np.eye(6), 0.6, True)
    assert np.allclose(scores, reference)


def test_initial_scores_is_identity(paper_graph):
    engine = SharingEngine(paper_graph, dmst_reduce(paper_graph))
    identity = np.eye(paper_graph.num_vertices)
    assert np.array_equal(engine.initial_scores(), identity)
    assert np.array_equal(engine.expand(engine.initial_state()), identity)


@pytest.mark.parametrize(
    "graph_fixture, additions, peak",
    [("berkstan_graph", 4_351_600, 8_585), ("rmat_scale10_graph", 4_128_912, 3_817)],
)
def test_counts_are_pinned_on_full_size_graphs(request, graph_fixture, additions, peak):
    # The Fig. 6d inputs: additions per iteration and the peak number of
    # cached intermediate values, as Algorithm 1's depth-first walk has them.
    result = oip_sr(request.getfixturevalue(graph_fixture), damping=0.6, iterations=2)
    assert result.extra["additions_per_iteration"] == additions
    assert result.peak_intermediate_values == peak


def test_iterate_returns_c_contiguous_scores(paper_graph, small_citation_graph):
    # A non-contiguous iterate would make every sparse product of the next
    # iteration copy the whole n x n input.
    for graph in (paper_graph, small_citation_graph):
        engine = SharingEngine(graph, dmst_reduce(graph))
        scores = engine.initial_scores()
        for factor, pin in ((0.6, True), (1.0, False)):
            scores = engine.iterate_vertices(scores, factor=factor, pin_diagonal=pin)
            assert scores.flags.c_contiguous
            assert scores.shape == (graph.num_vertices, graph.num_vertices)
        expanded = engine.expand(engine.initial_state())
        assert expanded.flags.c_contiguous
