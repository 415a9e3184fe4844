"""The level-synchronous sharing engine against the per-set DFS oracle.

Both paths are checked: the class-space ``iterate`` from a random
class-structured state (a random class matrix and diagonal, expanded for
the oracle), and the vertex-space ``iterate_vertices`` from an arbitrary
``n × n`` array.  Scores must agree to 1e-12; operation counts and the
memory tracker's peak must be identical, since they are the paper's
Fig. 6d / Prop. 3 units and not a property of how the arithmetic is
scheduled.

The property tests take their example budget from the active hypothesis
profile, so ``--hypothesis-profile=long`` runs them longer.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dmst_reduce import dmst_reduce
from repro.core.instrumentation import Instrumentation
from repro.core.neighbor_index import InNeighborIndex
from repro.core import sharing_engine
from repro.core.plans import ROOT, PlanNode, SharingPlan
from repro.core.sharing_engine import ClassState, SharingEngine
from repro.core.transition_cost import split_delta
from repro.graph.digraph import DiGraph

from digraph_strategies import pooled_digraphs
from sharing_oracle import PerSetSharingEngine
from test_networkx_oracle import ZOO

TOLERANCE = 1e-12
MODES = [(0.6, True), (1.0, False)]
"""``(factor, pin_diagonal)``: OIP-SR's damped update and OIP-DSR's ``T_k``."""

PROPERTY = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def random_class_state(engine: SharingEngine, rng) -> ClassState:
    """A random ``S = P M Pᵀ + diag(δ[c(j)])``: any class matrix, and a
    diagonal that differs from ``M[c, c]`` only on multi-member classes."""
    width = engine.num_sets + 1
    matrix = rng.random((width, width))
    members = np.bincount(engine._class_of_vertex, minlength=width)
    diagonal = np.where(members > 1, rng.random(width), matrix.diagonal())
    return ClassState(matrix, diagonal)


def assert_matches_oracle(graph, plan, factor, pin_diagonal, steps=3, seed=0):
    """Iterate both paths and the oracle from random starts; compare every
    step, and the counts each path charges."""
    rng = np.random.default_rng(seed)
    n = graph.num_vertices
    ours, theirs = Instrumentation(), Instrumentation()
    engine = SharingEngine(graph, plan, instrumentation=ours)
    oracle = PerSetSharingEngine(n, plan, theirs)
    for path in ("classes", "vertices"):
        state = random_class_state(engine, rng)
        scores = engine.expand(state) if path == "classes" else rng.random((n, n))
        expected = scores
        for _ in range(steps):
            if path == "classes":
                state = engine.iterate(state, factor=factor, pin_diagonal=pin_diagonal)
                scores = engine.expand(state)
            else:
                scores = engine.iterate_vertices(
                    scores, factor=factor, pin_diagonal=pin_diagonal
                )
            expected = oracle.iterate(expected, factor=factor, pin_diagonal=pin_diagonal)
            assert scores.flags.c_contiguous
            assert np.max(np.abs(scores - expected), initial=0.0) <= TOLERANCE
        assert ours.operations.counts == theirs.operations.counts
        assert ours.memory.peak_values == theirs.memory.peak_values
        assert ours.memory.current_values == theirs.memory.current_values == 0


def plan_from_parents(
    graph: DiGraph, parent_of: dict[int, tuple[int, str] | None]
) -> SharingPlan:
    """A hand-built plan: ``parent_of`` maps a member vertex of each set to
    ``(member vertex of the parent's set, mode)``, or ``None`` for a root
    child."""
    index = InNeighborIndex.from_graph(graph)
    nodes = {}
    for vertex, link in parent_of.items():
        set_id = int(index.set_of_vertex[vertex])
        target = index.sets[set_id]
        parent, mode = ROOT, "scratch"
        if link is not None:
            parent, mode = int(index.set_of_vertex[link[0]]), link[1]
        if mode == "delta":
            removed, added = split_delta(index.sets[parent], target)
            nodes[set_id] = PlanNode(
                set_id, parent, mode, removed, added, len(removed) + len(added)
            )
        else:
            nodes[set_id] = PlanNode(set_id, parent, mode, (), target, len(target) - 1)
    assert sorted(nodes) == list(range(index.num_sets))
    return SharingPlan(index, [nodes[set_id] for set_id in range(index.num_sets)])


def irregular_plan():
    """Scratch sets hanging under delta sets, and children numbered below
    their parents, up to three delta levels deep."""
    in_sets = {
        0: (9, 10),
        1: (9, 10, 11),
        2: (1, 6),
        3: (6,),
        6: (0, 1, 3),
        7: (3, 4, 5),
        8: (0, 1, 2, 3),
        9: (0, 3, 4, 5),
        10: (0, 1, 2),
        11: (0, 1, 2),  # the same set as vertex 10's
    }
    edges = [(source, target) for target, sources in in_sets.items() for source in sources]
    graph = DiGraph(12, edges, name="irregular-plan")
    plan = plan_from_parents(
        graph,
        {
            10: None,
            8: (10, "delta"),  # depth 1, numbered below its parent
            6: (8, "delta"),  # depth 2, numbered below its parent
            7: (6, "scratch"),  # scratch under a delta set
            9: (7, "delta"),  # depth 1 again, below a scratch set
            3: (9, "delta"),  # depth 2, numbered below its parent
            0: None,
            1: (0, "delta"),
            2: (1, "scratch"),  # scratch under a delta set, nothing shared
        },
    )
    return graph, plan


@st.composite
def random_digraphs(draw, max_vertices: int = 14, max_edges: int = 50):
    num_vertices = draw(st.integers(min_value=1, max_value=max_vertices))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_vertices - 1), st.integers(0, num_vertices - 1)
            ),
            max_size=max_edges,
        )
    )
    return DiGraph(num_vertices, edges)


@st.composite
def random_plans(draw):
    """Any valid sharing tree over a random digraph's distinct in-sets: the
    parent of each set is drawn from the sets placed before it in a random
    order, so depths, set-id order and scratch-under-delta all vary."""
    graph = draw(random_digraphs())
    index = InNeighborIndex.from_graph(graph)
    order = draw(st.permutations(range(index.num_sets)))
    nodes = {}
    for position, set_id in enumerate(order):
        target = index.sets[set_id]
        parent = draw(st.sampled_from([ROOT, *order[:position]]))
        if parent == ROOT or draw(st.booleans()):
            nodes[set_id] = PlanNode(set_id, parent, "scratch", (), target, len(target) - 1)
        else:
            removed, added = split_delta(index.sets[parent], target)
            nodes[set_id] = PlanNode(
                set_id, parent, "delta", removed, added, len(removed) + len(added)
            )
    plan = SharingPlan(index, [nodes[set_id] for set_id in range(index.num_sets)])
    return graph, plan


@pytest.mark.parametrize("factor, pin_diagonal", MODES)
class TestOracleParity:
    def test_paper_graph(self, paper_graph, factor, pin_diagonal):
        assert_matches_oracle(paper_graph, dmst_reduce(paper_graph), factor, pin_diagonal)

    @pytest.mark.parametrize("name", sorted(ZOO))
    def test_networkx_zoo(self, name, factor, pin_diagonal):
        graph = ZOO[name]
        assert_matches_oracle(graph, dmst_reduce(graph), factor, pin_diagonal)

    def test_small_fixtures(
        self,
        small_web_graph,
        small_citation_graph,
        small_random_graph,
        factor,
        pin_diagonal,
    ):
        for graph in (small_web_graph, small_citation_graph, small_random_graph):
            assert_matches_oracle(graph, dmst_reduce(graph), factor, pin_diagonal)

    def test_exhaustive_candidate_plan(self, small_web_graph, factor, pin_diagonal):
        plan = dmst_reduce(small_web_graph, candidate_strategy="exhaustive")
        assert_matches_oracle(small_web_graph, plan, factor, pin_diagonal)

    def test_irregular_plan(self, factor, pin_diagonal):
        graph, plan = irregular_plan()
        nodes = plan.nodes
        # The shapes this plan exists to cover.
        assert any(
            node.mode == "scratch"
            and node.parent != ROOT
            and nodes[node.parent].mode == "delta"
            for node in nodes
        )
        assert any(node.parent != ROOT and node.set_id < node.parent for node in nodes)
        assert any(
            node.mode == "delta" and nodes[node.parent].mode == "delta"
            for node in nodes
        )
        assert_matches_oracle(graph, plan, factor, pin_diagonal)

    @given(case=random_digraphs())
    @PROPERTY
    def test_random_digraphs(self, case, factor, pin_diagonal):
        assert_matches_oracle(case, dmst_reduce(case), factor, pin_diagonal, steps=2)

    @given(case=pooled_digraphs())
    @PROPERTY
    def test_repeated_and_empty_in_sets(self, case, factor, pin_diagonal):
        assert_matches_oracle(case, dmst_reduce(case), factor, pin_diagonal, steps=2)

    @given(case=random_plans())
    @PROPERTY
    def test_random_sharing_trees(self, case, factor, pin_diagonal):
        graph, plan = case
        assert_matches_oracle(graph, plan, factor, pin_diagonal, steps=2)


@pytest.mark.parametrize("block_sets", [1, 5])
def test_block_boundaries(monkeypatch, block_sets, small_web_graph, small_citation_graph):
    monkeypatch.setattr(sharing_engine, "BLOCK_SETS", block_sets)
    for graph in (small_web_graph, small_citation_graph):
        assert_matches_oracle(graph, dmst_reduce(graph), 0.6, True, steps=2)
    graph, plan = irregular_plan()
    assert_matches_oracle(graph, plan, 1.0, False)


@pytest.mark.parametrize("graph_fixture", ["berkstan_graph", "rmat_scale10_graph"])
def test_full_size_graphs(request, graph_fixture):
    graph = request.getfixturevalue(graph_fixture)
    plan = dmst_reduce(graph)
    for factor, pin_diagonal in MODES:
        assert_matches_oracle(graph, plan, factor, pin_diagonal, steps=1)


def test_non_contiguous_input_is_accepted(small_web_graph):
    plan = dmst_reduce(small_web_graph)
    engine = SharingEngine(small_web_graph, plan)
    oracle = PerSetSharingEngine(small_web_graph.num_vertices, plan, Instrumentation())
    n = small_web_graph.num_vertices
    scores = np.random.default_rng(1).random((n, n)).T
    assert not scores.flags.c_contiguous
    ours = engine.iterate_vertices(scores, factor=0.6, pin_diagonal=True)
    expected = oracle.iterate(scores, factor=0.6, pin_diagonal=True)
    assert np.max(np.abs(ours - expected)) <= TOLERANCE
