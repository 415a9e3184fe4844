"""OIP-SR and OIP-DSR iterate in class space; the results must equal the
same solvers run in vertex space, residual lists included.

The vertex-space references below are the solvers' loops over
``SharingEngine.iterate_vertices``, which takes and returns ``n × n``
iterates.  Thresholds are chosen off the values these graphs' scores take
in exact arithmetic: a score equal to the threshold may round to either
side of it under a different summation order, and then the two sieves
differ by design, not by a fault of either path.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.dmst_reduce import dmst_reduce
from repro.core.oip_dsr import oip_dsr
from repro.core.oip_sr import oip_sr
from repro.core.sharing_engine import SharingEngine
from repro.graph.builders import empty_graph, from_edges
from repro.numerics.norms import max_difference

TOLERANCE = 1e-12


def vertex_space_oip_sr(graph, plan, damping, iterations, threshold=0.0):
    engine = SharingEngine(graph, plan)
    scores, residuals = engine.initial_scores(), []
    for _ in range(iterations):
        updated = engine.iterate_vertices(scores, factor=damping, pin_diagonal=True)
        if threshold > 0.0:
            updated[updated < threshold] = 0.0
            np.fill_diagonal(updated, 1.0)
        residuals.append(max_difference(updated, scores))
        scores = updated
    return scores, residuals


def vertex_space_oip_dsr(graph, plan, damping, iterations):
    engine = SharingEngine(graph, plan)
    scale = math.exp(-damping)
    auxiliary = engine.initial_scores()
    scores, coefficient, residuals = scale * auxiliary, scale, []
    for k in range(iterations):
        auxiliary = engine.iterate_vertices(auxiliary, factor=1.0, pin_diagonal=False)
        coefficient = coefficient * damping / (k + 1)
        previous = scores
        scores = scores + coefficient * auxiliary
        residuals.append(max_difference(scores, previous))
    return scores, residuals


def assert_solvers_match(graph, iterations=6, threshold=0.0, damping=0.6):
    plan = dmst_reduce(graph)
    ours = oip_sr(
        graph,
        damping=damping,
        iterations=iterations,
        plan=plan,
        threshold=threshold,
        record_residuals=True,
    )
    scores, residuals = vertex_space_oip_sr(graph, plan, damping, iterations, threshold)
    assert np.max(np.abs(ours.scores - scores), initial=0.0) <= TOLERANCE
    assert np.array_equal(np.diag(ours.scores), np.ones(graph.num_vertices))
    assert len(ours.extra["residuals"]) == iterations
    assert np.allclose(ours.extra["residuals"], residuals, rtol=0.0, atol=TOLERANCE)

    ours = oip_dsr(
        graph, damping=damping, iterations=iterations, plan=plan, record_residuals=True
    )
    scores, residuals = vertex_space_oip_dsr(graph, plan, damping, iterations)
    assert np.max(np.abs(ours.scores - scores), initial=0.0) <= TOLERANCE
    assert len(ours.extra["residuals"]) == iterations
    assert np.allclose(ours.extra["residuals"], residuals, rtol=0.0, atol=TOLERANCE)


@pytest.mark.parametrize("threshold", [0.0, 0.013, 0.0437])
def test_small_graphs(paper_graph, small_web_graph, small_citation_graph, threshold):
    for graph in (paper_graph, small_web_graph, small_citation_graph):
        assert_solvers_match(graph, threshold=threshold)


@pytest.mark.parametrize("graph_fixture", ["berkstan_graph", "rmat_scale10_graph"])
def test_full_size_graphs(request, graph_fixture):
    graph = request.getfixturevalue(graph_fixture)
    assert_solvers_match(graph, iterations=3, threshold=0.0137)


@pytest.mark.parametrize(
    "name, graph",
    [
        ("one vertex", empty_graph(1)),
        ("one vertex with a self-loop", from_edges([(0, 0)], n=1)),
        ("no edges", empty_graph(5)),
        # Every vertex has in-set {0, 1}: one class, no empty class.
        ("one in-set", from_edges([(s, t) for t in range(5) for s in (0, 1)], n=5)),
        # Only vertex 0 has no in-neighbours.
        ("empty class of one", from_edges([(0, 1), (1, 2), (2, 3), (0, 3)], n=4)),
        # Vertices 0, 1 and 2 have none; 3 and 4 share {0, 1, 2}.
        (
            "empty class of three",
            from_edges([(s, t) for t in (3, 4) for s in (0, 1, 2)] + [(3, 5)], n=6),
        ),
    ],
)
def test_edge_cases(name, graph):
    assert_solvers_match(graph, iterations=4)
    assert_solvers_match(graph, iterations=4, threshold=0.17)


def test_zero_iterations(paper_graph):
    assert_solvers_match(paper_graph, iterations=0)
    n = paper_graph.num_vertices
    assert np.array_equal(oip_sr(paper_graph, iterations=0).scores, np.eye(n))


def test_pinned_state_keeps_single_diagonals_in_the_class_matrix(paper_graph):
    # The offsets of a pinned state are 1 − M[c, c], non-zero only on
    # classes of two or more members; the empty class's row and column
    # stay zero.
    engine = SharingEngine(paper_graph, dmst_reduce(paper_graph))
    state = engine.iterate(engine.initial_state(), factor=0.6, pin_diagonal=True)
    members = np.bincount(engine._class_of_vertex, minlength=engine.num_sets + 1)
    offsets = state.diagonal - state.matrix.diagonal()
    assert np.all(offsets[members == 1] == 0.0)
    assert np.all(offsets[members > 1] > 0.0)
    assert members[-1] > 1  # f, g and i have no in-neighbours
    assert not state.matrix[-1].any() and not state.matrix[:, -1].any()
