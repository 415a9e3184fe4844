"""Unit tests for DMST-Reduce and the resulting sharing plans."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dmst_reduce import build_sharing_plan, dmst_reduce
from repro.core.instrumentation import Instrumentation
from repro.core.neighbor_index import InNeighborIndex
from repro.core.oip_dsr import oip_dsr
from repro.core.oip_sr import oip_sr
from repro.core.plans import ROOT
from repro.exceptions import ConfigurationError
from repro.graph.builders import from_edges, star_graph


def _validate_plan(graph, plan):
    """Structural invariants every sharing plan must satisfy."""
    index = plan.index
    seen = set()
    order = plan.dfs_order()
    assert sorted(order) == list(range(plan.num_sets))
    position = {set_id: rank for rank, set_id in enumerate(order)}
    for node in plan.nodes:
        own = set(index.sets[node.set_id])
        if node.mode == "delta":
            assert node.parent != ROOT
            parent_set = set(index.sets[node.parent])
            assert set(node.removed) == parent_set - own
            assert set(node.added) == own - parent_set
            assert position[node.parent] < position[node.set_id]
            # Sharing must be strictly cheaper than recomputing.
            assert len(node.removed) + len(node.added) < max(len(own) - 1, 1) or (
                len(own) <= 2
            )
        else:
            assert set(node.added) == own
            assert node.removed == ()
        seen.add(node.set_id)
    assert seen == set(range(plan.num_sets))


class TestDmstReduce:
    def test_plan_covers_all_sets(self, paper_graph):
        plan = dmst_reduce(paper_graph)
        assert plan.num_sets == InNeighborIndex.from_graph(paper_graph).num_sets
        _validate_plan(paper_graph, plan)

    def test_plan_on_web_graph(self, small_web_graph):
        plan = dmst_reduce(small_web_graph)
        _validate_plan(small_web_graph, plan)
        assert plan.share_ratio() > 0.2

    def test_plan_on_citation_graph(self, small_citation_graph):
        _validate_plan(small_citation_graph, dmst_reduce(small_citation_graph))

    def test_plan_on_random_graph(self, small_random_graph):
        _validate_plan(small_random_graph, dmst_reduce(small_random_graph))

    def test_empty_graph_gives_empty_plan(self):
        plan = dmst_reduce(from_edges([], n=5))
        assert plan.num_sets == 0
        assert plan.dfs_order() == ()
        assert plan.total_weight() == 0

    def test_star_graph_single_scratch_node(self):
        plan = dmst_reduce(star_graph(6))
        assert plan.num_sets == 1
        assert plan.nodes[0].mode == "scratch"
        assert plan.total_weight() == 5

    def test_tree_weight_never_exceeds_scratch(self, small_web_graph):
        plan = dmst_reduce(small_web_graph)
        assert plan.total_weight() <= plan.distinct_scratch_weight()

    def test_exhaustive_weight_not_worse_than_pruned(self, small_web_graph):
        exhaustive = dmst_reduce(small_web_graph, candidate_strategy="exhaustive")
        pruned = dmst_reduce(small_web_graph, candidate_strategy="common-neighbor")
        assert exhaustive.total_weight() <= pruned.total_weight()
        # The pruning only discards edges that cannot beat from-scratch, so
        # the gap should be nil or tiny.
        assert pruned.total_weight() <= exhaustive.total_weight() * 1.05 + 1

    def test_build_mst_phase_is_timed(self, paper_graph):
        instrumentation = Instrumentation()
        dmst_reduce(paper_graph, instrumentation=instrumentation)
        assert instrumentation.timer.get("build_mst") > 0

    def test_identical_sets_cost_zero(self):
        # Five vertices all share the same in-neighbour set {0, 1}: one set,
        # weight 1 (from scratch) and no duplicates to recompute.
        edges = [(source, target) for target in range(2, 7) for source in (0, 1)]
        plan = dmst_reduce(from_edges(edges, n=7))
        assert plan.num_sets == 1
        assert plan.index.duplicate_vertex_count() == 4
        assert plan.total_weight() == 1

    def test_build_sharing_plan_from_index(self, paper_graph):
        index = InNeighborIndex.from_graph(paper_graph)
        plan = build_sharing_plan(index, candidate_strategy="exhaustive")
        assert plan.total_weight() == 8


@pytest.mark.parametrize("method", [oip_sr, oip_dsr], ids=["oip-sr", "oip-dsr"])
class TestCallerSuppliedPlan:
    PLANNED = from_edges([(0, 2), (1, 2), (0, 3), (1, 3), (2, 4)], n=6)

    def test_plan_of_another_graph_is_rejected(self, method):
        # Same vertex count, different in-neighbour sets: the plan would
        # otherwise run and give scores off by up to 0.3.
        other = from_edges([(0, 5), (1, 5), (3, 4)], n=6)
        with pytest.raises(ConfigurationError, match="another graph"):
            method(other, iterations=3, plan=dmst_reduce(self.PLANNED))

    def test_plan_of_another_size_is_rejected(self, method):
        smaller = from_edges([(0, 1), (1, 2)], n=3)
        with pytest.raises(ConfigurationError, match="6 vertices"):
            method(smaller, iterations=3, plan=dmst_reduce(self.PLANNED))

    def test_plan_of_the_same_graph_is_used(self, method):
        plan = dmst_reduce(self.PLANNED)
        supplied = method(self.PLANNED, iterations=3, plan=plan)
        built = method(self.PLANNED, iterations=3)
        assert np.array_equal(supplied.scores, built.scores)
