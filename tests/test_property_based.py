"""Property-based tests (hypothesis) for the core data structures and solvers.

These tests assert the invariants the paper's correctness arguments rely on,
over randomly generated graphs and parameters:

* SimRank axioms (diagonal 1, symmetry, range, zero rows for sourceless
  vertices) hold for every solver;
* partial-sums sharing is *exactly* equivalent to the unshared computation
  (OIP-SR ≡ psum-SR ≡ naive) on arbitrary graphs;
* transition costs satisfy the triangle-style bounds used by DMST-Reduce;
* the Eq. 9 / Prop. 4 incremental updates equal their from-scratch versions;
* the directed-MST solver returns a spanning arborescence no heavier than a
  straightforward greedy construction.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.naive import naive_simrank
from repro.baselines.psum_sr import psum_simrank
from repro.core.dmst_reduce import dmst_reduce
from repro.core.oip_dsr import oip_dsr
from repro.core.oip_sr import oip_sr
from repro.core.diff_simrank import differential_simrank
from repro.core.partial_sums import (
    outer_partial_sum,
    partial_sum_vector,
    update_outer_partial_sum,
    update_partial_sum_vector,
)
from repro.core.transition_cost import (
    scratch_cost,
    split_delta,
    symmetric_difference_size,
    transition_cost,
)
from repro.graph.digraph import DiGraph
from repro.numerics.series import (
    exponential_coefficients,
    exponential_tail_bound,
    geometric_coefficients,
)

from dmst_oracle import minimum_spanning_arborescence

# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
FAST = settings(max_examples=100, deadline=None)


@st.composite
def small_digraphs(draw, max_vertices: int = 12, max_edges: int = 40):
    """Random digraphs with up to ``max_vertices`` vertices."""
    num_vertices = draw(st.integers(min_value=1, max_value=max_vertices))
    num_edges = draw(st.integers(min_value=0, max_value=max_edges))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_vertices - 1), st.integers(0, num_vertices - 1)
            ),
            max_size=num_edges,
        )
    )
    edges = [(source, target) for source, target in edges if source != target]
    return DiGraph(num_vertices, edges)


vertex_sets = st.sets(st.integers(min_value=0, max_value=15), max_size=10)


# --------------------------------------------------------------------------- #
# Transition costs and deltas
# --------------------------------------------------------------------------- #


@FAST
@given(first=vertex_sets, second=vertex_sets)
def test_transition_cost_bounds(first, second):
    cost = transition_cost(first, second)
    assert 0 <= cost <= scratch_cost(second)
    assert cost <= symmetric_difference_size(first, second)


@FAST
@given(first=vertex_sets, second=vertex_sets)
def test_split_delta_reconstructs_target(first, second):
    removed, added = split_delta(first, second)
    reconstructed = (set(first) - set(removed)) | set(added)
    assert reconstructed == set(second)
    assert len(removed) + len(added) == symmetric_difference_size(first, second)


@FAST
@given(first=vertex_sets, second=vertex_sets, third=vertex_sets)
def test_symmetric_difference_triangle_inequality(first, second, third):
    assert symmetric_difference_size(first, third) <= (
        symmetric_difference_size(first, second)
        + symmetric_difference_size(second, third)
    )


# --------------------------------------------------------------------------- #
# Partial-sum updates
# --------------------------------------------------------------------------- #


@SLOW
@given(
    data=st.data(),
    num_vertices=st.integers(min_value=2, max_value=10),
)
def test_incremental_updates_match_direct_sums(data, num_vertices):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    scores = rng.random((num_vertices, num_vertices))
    universe = st.sets(
        st.integers(0, num_vertices - 1), min_size=1, max_size=num_vertices
    )
    source_set = data.draw(universe)
    target_set = data.draw(universe)
    removed, added = split_delta(source_set, target_set)

    cached = partial_sum_vector(scores, sorted(source_set))
    updated = update_partial_sum_vector(cached, scores, removed, added)
    direct = partial_sum_vector(scores, sorted(target_set))
    assert np.allclose(updated, direct)

    outer_cached = outer_partial_sum(cached, sorted(source_set))
    outer_updated = update_outer_partial_sum(
        outer_partial_sum(direct, sorted(source_set)),
        direct,
        removed=removed,
        added=added,
    )
    assert np.isclose(
        outer_updated, outer_partial_sum(direct, sorted(target_set))
    )
    assert np.isfinite(outer_cached)


# --------------------------------------------------------------------------- #
# SimRank axioms and solver equivalence
# --------------------------------------------------------------------------- #


@SLOW
@given(graph=small_digraphs(), damping=st.sampled_from([0.4, 0.6, 0.8]))
def test_simrank_axioms_hold_for_oip_sr(graph, damping):
    result = oip_sr(graph, damping=damping, iterations=4)
    scores = result.scores
    assert np.allclose(np.diag(scores), 1.0)
    assert np.allclose(scores, scores.T, atol=1e-10)
    assert scores.min() >= -1e-12
    assert scores.max() <= 1.0 + 1e-12
    for vertex in graph.vertices():
        if graph.in_degree(vertex) == 0:
            row = scores[vertex, :].copy()
            row[vertex] = 0.0
            assert np.allclose(row, 0.0)


@SLOW
@given(graph=small_digraphs(), damping=st.sampled_from([0.5, 0.7]))
def test_sharing_is_exact_on_random_graphs(graph, damping):
    iterations = 3
    shared = oip_sr(graph, damping=damping, iterations=iterations).scores
    unshared = psum_simrank(graph, damping=damping, iterations=iterations).scores
    reference = naive_simrank(graph, damping=damping, iterations=iterations).scores
    assert np.allclose(shared, reference, atol=1e-10)
    assert np.allclose(unshared, reference, atol=1e-10)


@SLOW
@given(graph=small_digraphs(), damping=st.sampled_from([0.5, 0.8]))
def test_oip_dsr_matches_matrix_differential(graph, damping):
    shared = oip_dsr(graph, damping=damping, iterations=5).scores
    reference = differential_simrank(graph, damping=damping, iterations=5).scores
    assert np.allclose(shared, reference, atol=1e-10)


@SLOW
@given(graph=small_digraphs())
def test_plan_covers_every_distinct_set_and_never_costs_more(graph):
    plan = dmst_reduce(graph)
    assert plan.num_sets == len(
        {graph.in_neighbors(v) for v in graph.vertices() if graph.in_degree(v)}
    )
    assert plan.total_weight() <= plan.distinct_scratch_weight()
    order = plan.dfs_order()
    position = {set_id: rank for rank, set_id in enumerate(order)}
    for node in plan.nodes:
        if node.mode == "delta":
            assert position[node.parent] < position[node.set_id]


# --------------------------------------------------------------------------- #
# Directed MST
# --------------------------------------------------------------------------- #


@SLOW
@given(data=st.data(), num_vertices=st.integers(min_value=2, max_value=10))
def test_edmonds_never_beats_greedy_lower_bound_and_spans(data, num_vertices):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    edges = [
        (0, target, float(rng.integers(1, 15))) for target in range(1, num_vertices)
    ]
    extra = data.draw(st.integers(min_value=0, max_value=30))
    for _ in range(extra):
        source = int(rng.integers(0, num_vertices))
        target = int(rng.integers(1, num_vertices))
        if source != target:
            edges.append((source, target, float(rng.integers(1, 15))))
    result = minimum_spanning_arborescence(num_vertices, edges, root=0)
    # Covers every vertex exactly once.
    chosen = result.chosen_edges()
    assert len(chosen) == num_vertices - 1
    # Lower bound: sum over vertices of their cheapest incoming edge.
    cheapest = {}
    for source, target, weight in edges:
        if target == 0 or source == target:
            continue
        cheapest[target] = min(cheapest.get(target, float("inf")), weight)
    assert result.total_weight >= sum(cheapest.values()) - 1e-9
    # Upper bound: taking only root edges is a valid arborescence.
    root_only = sum(
        weight for source, target, weight in edges[: num_vertices - 1]
    )
    assert result.total_weight <= root_only + 1e-9


# --------------------------------------------------------------------------- #
# Series coefficients
# --------------------------------------------------------------------------- #


@FAST
@given(
    damping=st.floats(min_value=0.05, max_value=0.95),
    terms=st.integers(min_value=1, max_value=40),
)
def test_series_coefficients_are_probability_like(damping, terms):
    geometric = geometric_coefficients(damping, terms)
    exponential = exponential_coefficients(damping, terms)
    assert all(coefficient >= 0 for coefficient in geometric + exponential)
    assert sum(geometric) <= 1.0 + 1e-12
    assert sum(exponential) <= 1.0 + 1e-12


@FAST
@given(
    damping=st.floats(min_value=0.05, max_value=0.95),
    iterations=st.integers(min_value=0, max_value=30),
)
def test_exponential_tail_bound_is_monotone(damping, iterations):
    assert exponential_tail_bound(damping, iterations + 1) <= exponential_tail_bound(
        damping, iterations
    )
