"""Unit tests for the Chu-Liu/Edmonds directed MST solver of the DMST oracle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import GraphError

from dmst_oracle import minimum_spanning_arborescence


def _total_weight(edges, chosen):
    return sum(edges[index][2] for index in chosen)


class TestBasicCases:
    def test_single_vertex(self):
        result = minimum_spanning_arborescence(1, [], root=0)
        assert result.total_weight == 0
        assert result.chosen_edges() == []

    def test_simple_chain(self):
        edges = [(0, 1, 2.0), (1, 2, 3.0)]
        result = minimum_spanning_arborescence(3, edges, root=0)
        assert result.total_weight == 5.0
        assert result.parent_of(1) == 0
        assert result.parent_of(2) == 1

    def test_chooses_cheaper_incoming_edge(self):
        edges = [(0, 1, 5.0), (0, 2, 1.0), (2, 1, 1.0)]
        result = minimum_spanning_arborescence(3, edges, root=0)
        assert result.total_weight == 2.0
        assert edges[result.parent_of(1)][0] == 2

    def test_cycle_contraction(self):
        # Greedy per-vertex minima form the cycle 1 <-> 2; the optimum must
        # break it by entering from the root.
        edges = [
            (0, 1, 10.0),
            (0, 2, 10.0),
            (1, 2, 1.0),
            (2, 1, 1.0),
        ]
        result = minimum_spanning_arborescence(3, edges, root=0)
        assert result.total_weight == 11.0
        chosen_sources = {edges[index][0] for index in result.chosen_edges()}
        assert 0 in chosen_sources

    def test_nested_structure_with_parallel_edges(self):
        edges = [
            (0, 1, 4.0),
            (0, 1, 2.0),  # parallel, cheaper
            (1, 2, 7.0),
            (0, 2, 6.0),
            (2, 3, 1.0),
            (1, 3, 3.0),
        ]
        result = minimum_spanning_arborescence(4, edges, root=0)
        assert result.total_weight == 2.0 + 6.0 + 1.0

    def test_unreachable_vertex_raises_by_default(self):
        edges = [(0, 1, 1.0)]
        with pytest.raises(GraphError):
            minimum_spanning_arborescence(3, edges, root=0)

    def test_unreachable_vertex_allowed_when_not_spanning(self):
        edges = [(0, 1, 1.0)]
        result = minimum_spanning_arborescence(
            3, edges, root=0, require_spanning=False
        )
        assert result.parent_of(2) is None
        assert result.parent_of(1) == 0

    def test_invalid_root_rejected(self):
        with pytest.raises(GraphError):
            minimum_spanning_arborescence(2, [], root=5)

    def test_edges_into_root_ignored(self):
        edges = [(1, 0, 0.5), (0, 1, 2.0)]
        result = minimum_spanning_arborescence(2, edges, root=0)
        assert result.parent_of(0) is None
        assert result.total_weight == 2.0


class TestAgainstNetworkx:
    """Randomised cross-check against networkx's Edmonds implementation."""

    @pytest.mark.parametrize("seed", range(8))
    def test_total_weight_matches_networkx(self, seed):
        import networkx as nx

        rng = np.random.default_rng(seed)
        num_vertices = int(rng.integers(4, 12))
        edges = []
        nx_graph = nx.DiGraph()
        nx_graph.add_nodes_from(range(num_vertices))
        # Ensure reachability: a root edge to every vertex plus random edges.
        for target in range(1, num_vertices):
            weight = float(rng.integers(1, 20))
            edges.append((0, target, weight))
            nx_graph.add_edge(0, target, weight=weight)
        for _ in range(num_vertices * 3):
            source = int(rng.integers(0, num_vertices))
            target = int(rng.integers(1, num_vertices))
            if source == target:
                continue
            weight = float(rng.integers(1, 20))
            edges.append((source, target, weight))
            if nx_graph.has_edge(source, target):
                # networkx keeps one parallel edge; keep the cheaper one.
                weight = min(weight, nx_graph[source][target]["weight"])
            nx_graph.add_edge(source, target, weight=weight)

        ours = minimum_spanning_arborescence(num_vertices, edges, root=0)
        nx_tree = nx.minimum_spanning_arborescence(nx_graph)
        nx_weight = sum(data["weight"] for _, _, data in nx_tree.edges(data=True))
        assert ours.total_weight == pytest.approx(nx_weight)

    def test_arborescence_structure_is_a_tree(self):
        rng = np.random.default_rng(99)
        num_vertices = 15
        edges = [(0, target, float(rng.integers(1, 10))) for target in range(1, num_vertices)]
        for _ in range(60):
            source = int(rng.integers(0, num_vertices))
            target = int(rng.integers(1, num_vertices))
            if source != target:
                edges.append((source, target, float(rng.integers(1, 10))))
        result = minimum_spanning_arborescence(num_vertices, edges, root=0)
        # Exactly one incoming chosen edge per non-root vertex, no cycles.
        parents = {}
        for vertex in range(1, num_vertices):
            edge_index = result.parent_of(vertex)
            assert edge_index is not None
            parents[vertex] = edges[edge_index][0]
        for vertex in range(1, num_vertices):
            seen = set()
            current = vertex
            while current != 0:
                assert current not in seen, "cycle detected"
                seen.add(current)
                current = parents[current]
