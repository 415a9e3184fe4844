"""``DMST-Reduce``: build the transition-cost graph and extract the sharing tree.

This is the paper's procedure of the same name (Section III-C):

1. collect the non-empty in-neighbour sets of the graph (we additionally
   de-duplicate identical sets — see
   :class:`~repro.core.neighbor_index.InNeighborIndex`);
2. build a weighted digraph ``G*`` whose vertices are those sets plus a root
   ``∅``, with edge weights given by the transition cost of Eq. 7;
3. take the directed minimum spanning tree (arborescence) of ``G*`` rooted
   at ``∅``: each set's cheapest incoming edge, since ``G*`` is a DAG.
   Every candidate edge goes up the (size, id) order, so the per-set minima
   already form a tree and Chu-Liu/Edmonds' cycle contraction would never
   run.  Ties go to the first edge in the order Edmonds scans them: the root
   edge, then the candidates in rank order.
   ``tests/core/test_dmst_parity.py`` checks this against Edmonds;
4. turn the tree into a :class:`~repro.core.plans.SharingPlan`: a traversal
   order plus, for every set, either a "from scratch" instruction or the
   symmetric-difference delta against its tree parent.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..exceptions import ConfigurationError
from ..graph.digraph import DiGraph
from .instrumentation import Instrumentation
from .neighbor_index import InNeighborIndex, candidate_blocks
from .plans import ROOT, PlanNode, SharingPlan
from .transition_cost import split_delta

__all__ = ["dmst_reduce", "build_sharing_plan", "check_plan"]


def dmst_reduce(
    graph: DiGraph,
    candidate_strategy: str = "common-neighbor",
    max_candidates_per_set: int = 16,
    instrumentation: Optional[Instrumentation] = None,
) -> SharingPlan:
    """Run ``DMST-Reduce`` on ``graph`` and return the sharing plan.

    Parameters
    ----------
    graph:
        The input graph.
    candidate_strategy:
        ``"common-neighbor"`` (pruned, default) or ``"exhaustive"`` (the
        paper's all-pairs construction).  Both yield a valid plan; they may
        differ only in how good the chosen tree is.
    max_candidates_per_set:
        Pruning knob of the common-neighbour strategy (see
        :func:`~repro.core.neighbor_index.generate_candidate_edges`).
    instrumentation:
        Optional measurement bundle; the build is recorded under the
        ``"build_mst"`` phase, matching Fig. 6b.
    """
    instrumentation = instrumentation or Instrumentation()
    with instrumentation.timer.phase("build_mst"):
        index = InNeighborIndex.from_graph(graph)
        plan = build_sharing_plan(
            index,
            candidate_strategy=candidate_strategy,
            max_candidates_per_set=max_candidates_per_set,
        )
    return plan


def build_sharing_plan(
    index: InNeighborIndex,
    candidate_strategy: str = "common-neighbor",
    max_candidates_per_set: int = 16,
) -> SharingPlan:
    """Build a :class:`SharingPlan` from an in-neighbour-set index.

    Exposed separately from :func:`dmst_reduce` so tests and ablations can
    drive the plan construction with a hand-built index.
    """
    scratch = np.maximum(index.set_sizes() - 1, 0)
    parents = np.full(index.num_sets, ROOT, dtype=np.int64)
    weights = scratch.copy()
    num_candidate_edges = index.num_sets  # the root edges
    for targets, sources, sym_diffs in candidate_blocks(
        index, candidate_strategy, max_candidates_per_set
    ):
        num_candidate_edges += targets.size
        # A candidate beats the root edge only when sharing is strictly
        # cheaper; among those the first minimum in rank order wins.
        shared = sym_diffs < scratch[targets]
        targets, sources, sym_diffs = targets[shared], sources[shared], sym_diffs[shared]
        first_min = np.lexsort((np.arange(targets.size), sym_diffs, targets))
        targets, sources, sym_diffs = (
            targets[first_min], sources[first_min], sym_diffs[first_min]
        )
        winners = np.flatnonzero(np.diff(targets, prepend=-1))
        parents[targets[winners]] = sources[winners]
        weights[targets[winners]] = sym_diffs[winners]

    nodes: list[PlanNode] = []
    for set_id, (parent_id, weight) in enumerate(zip(parents.tolist(), weights.tolist())):
        target_set = index.sets[set_id]
        if parent_id == ROOT:
            nodes.append(PlanNode(set_id, ROOT, "scratch", (), target_set, weight))
        else:
            removed, added = split_delta(index.sets[parent_id], target_set)
            nodes.append(PlanNode(set_id, parent_id, "delta", removed, added, weight))
    return SharingPlan(index, nodes=nodes, num_candidate_edges=num_candidate_edges)


def check_plan(plan: SharingPlan, graph: DiGraph) -> None:
    """Raise :class:`~repro.exceptions.ConfigurationError` unless ``plan`` fits ``graph``.

    The plan's index must group ``graph``'s vertices exactly: one entry per
    vertex, and each vertex's set equal to ``graph.in_neighbors(v)``.  A plan
    built for another graph would otherwise give wrong scores silently.
    """
    set_of_vertex = plan.index.set_of_vertex
    if set_of_vertex.size != graph.num_vertices:
        raise ConfigurationError(
            f"the sharing plan covers {set_of_vertex.size} vertices, "
            f"the graph has {graph.num_vertices}"
        )
    for vertex, set_id in enumerate(set_of_vertex.tolist()):
        in_set = plan.index.sets[set_id] if set_id >= 0 else ()
        if in_set != graph.in_neighbors(vertex):
            raise ConfigurationError(
                f"the sharing plan was built for another graph: vertex {vertex}'s "
                "in-neighbour set differs"
            )
