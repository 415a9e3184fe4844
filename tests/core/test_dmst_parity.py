"""Array-built ``DMST-Reduce`` plans against the Counter + Chu-Liu/Edmonds oracle.

The plan must be identical node for node (parent, mode, delta, weight), with
the same number of candidate edges, for both candidate strategies.  The
oracle's own premise is checked too: every candidate goes up the (size, id)
order, so ``G*`` is a DAG and Edmonds returns each set's first cheapest
incoming edge, which is what the array code takes.
"""

from __future__ import annotations

from collections import Counter
from operator import attrgetter

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import neighbor_index
from repro.core.dmst_reduce import build_sharing_plan
from repro.core.neighbor_index import InNeighborIndex, generate_candidate_edges
from repro.graph.generators import gnp_random
from repro.workloads.datasets import dblp_snapshots, load_dataset

from dmst_oracle import (
    counter_candidate_edges,
    edmonds_sharing_plan,
    minimum_spanning_arborescence,
    ordered_pair,
)
from test_networkx_oracle import ZOO
from test_sharing_parity import random_digraphs

STRATEGIES = ("common-neighbor", "exhaustive")


def assert_same_plan(graph, strategy, max_candidates_per_set=16):
    index = InNeighborIndex.from_graph(graph)
    ours = build_sharing_plan(index, strategy, max_candidates_per_set)
    expected = edmonds_sharing_plan(index, strategy, max_candidates_per_set)
    assert ours.nodes == expected.nodes
    assert ours.num_candidate_edges == expected.num_candidate_edges


def assert_same_edges(graph, strategy, max_candidates_per_set=16):
    """The Fig. 2b view yields the oracle's edges; common-neighbor in its order."""
    index = InNeighborIndex.from_graph(graph)
    ours = list(generate_candidate_edges(index, strategy, max_candidates_per_set))
    expected = list(counter_candidate_edges(index, strategy, max_candidates_per_set))
    if strategy == "exhaustive":  # the oracle walks sources, the arrays targets
        key = attrgetter("target", "source")
        ours, expected = sorted(ours, key=key), sorted(expected, key=key)
    assert ours == expected


def longest_posting(index):
    """How many sets the most widely shared in-neighbour appears in."""
    return max(Counter(v for in_set in index.sets for v in in_set).values(), default=0)


@pytest.fixture
def graphs(paper_graph, small_web_graph, small_citation_graph, small_random_graph):
    """The paper graph, the small fixtures, the networkx zoo and denser G(n, p)."""
    gnp = [gnp_random(num_vertices=40, edge_probability=0.15, seed=seed) for seed in range(3)]
    return [
        paper_graph, small_web_graph, small_citation_graph, small_random_graph,
        *ZOO.values(), *gnp,
    ]


@pytest.mark.parametrize("strategy", STRATEGIES)
class TestPlanIdentity:
    def test_small_graphs(self, graphs, strategy):
        for graph in graphs:
            assert_same_plan(graph, strategy)
            assert_same_edges(graph, strategy)

    @given(graph=random_digraphs())
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_random_digraphs(self, graph, strategy):
        assert_same_plan(graph, strategy)
        assert_same_plan(graph, strategy, max_candidates_per_set=1)
        assert_same_edges(graph, strategy, max_candidates_per_set=2)

    @pytest.mark.parametrize("graph_fixture", ["berkstan_graph", "rmat_scale10_graph"])
    def test_full_size_graphs(self, request, graph_fixture, strategy):
        assert_same_plan(request.getfixturevalue(graph_fixture), strategy)


@pytest.mark.parametrize("name", ["patent", "dblp-d02", "dblp-d05", "dblp-d08", "dblp-d11"])
def test_dataset_analogues(name):
    graph = dblp_snapshots()[name] if name.startswith("dblp") else load_dataset(name, 1.0)
    assert_same_plan(graph, "common-neighbor")


@pytest.mark.parametrize("posting_length", [1, 2, 3])
@pytest.mark.parametrize("max_candidates_per_set", [1, 2, 16])
def test_truncated_postings_and_ties(
    monkeypatch, graphs, berkstan_graph, posting_length, max_candidates_per_set
):
    """Cut postings undercount shared in-neighbours, and small budgets cut
    through runs of equal counts, so both the exact intersections and the
    (count, first position, source id) tie order decide the plan."""
    monkeypatch.setattr(neighbor_index, "MAX_POSTING_LENGTH", posting_length)
    truncated = 0
    for graph in [*graphs, berkstan_graph]:
        truncated += longest_posting(InNeighborIndex.from_graph(graph)) > posting_length
        assert_same_plan(graph, "common-neighbor", max_candidates_per_set)
        assert_same_edges(graph, "common-neighbor", max_candidates_per_set)
    assert truncated >= 5


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("block_entries", [1, 100])
def test_target_blocks(monkeypatch, graphs, strategy, block_entries):
    """One target per block, and blocks that end mid-way through the sets."""
    monkeypatch.setattr(neighbor_index, "BLOCK_ENTRIES", block_entries)
    for graph in graphs:
        assert_same_plan(graph, strategy)
        assert_same_edges(graph, strategy)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_edmonds_takes_each_sets_first_cheapest_edge(graphs, strategy):
    """The premise of the array parent choice: G* is a DAG, so Edmonds never
    contracts a cycle and keeps the first minimum in its scan order."""
    for graph in graphs:
        index = InNeighborIndex.from_graph(graph)
        edges = list(counter_candidate_edges(index, strategy))
        assert all(
            ordered_pair(index, edge.source - 1, edge.target - 1)
            for edge in edges
            if edge.source != 0
        )
        arborescence = minimum_spanning_arborescence(
            index.num_sets + 1,
            [(edge.source, edge.target, float(edge.weight)) for edge in edges],
            root=0,
        )
        first_minimum: dict[int, int] = {}
        for position, edge in enumerate(edges):
            best = first_minimum.get(edge.target)
            if best is None or edge.weight < edges[best].weight:
                first_minimum[edge.target] = position
        for target, position in first_minimum.items():
            assert arborescence.parent_of(target) == position
