"""Reference ``DMST-Reduce``: Counter-built candidates and Chu-Liu/Edmonds.

This is the plan construction the array code in
:mod:`repro.core.neighbor_index` and :mod:`repro.core.dmst_reduce`
replaced, kept as the oracle those modules are compared against:

* :func:`counter_candidate_edges` builds the candidate edges of ``G*`` one
  target set at a time, counting shared in-neighbours with a ``Counter``
  over the (truncated) posting lists and keeping ``most_common`` sources;
* :func:`minimum_spanning_arborescence` is the general Chu-Liu/Edmonds
  directed-MST solver, cycle contraction included;
* :func:`edmonds_sharing_plan` feeds the first into the second and turns
  the arborescence into a :class:`~repro.core.plans.SharingPlan`.

The array code must produce the same plan, node for node.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.core import neighbor_index
from repro.core.neighbor_index import CANDIDATE_STRATEGIES, InNeighborIndex
from repro.core.plans import ROOT, PlanNode, SharingPlan
from repro.core.transition_cost import (
    TransitionEdge,
    is_sharing_profitable,
    scratch_cost,
    split_delta,
    symmetric_difference_size,
)
from repro.exceptions import ConfigurationError, GraphError


# --------------------------------------------------------------------------- #
# Candidate edges of G*, one target at a time
# --------------------------------------------------------------------------- #


def counter_candidate_edges(
    index: InNeighborIndex,
    strategy: str = "common-neighbor",
    max_candidates_per_set: int = 16,
) -> Iterator[TransitionEdge]:
    """Yield the root edges, then the sharing candidates, of ``G*``.

    Postings are truncated to ``neighbor_index.MAX_POSTING_LENGTH``, read
    at call time so tests that monkeypatch the constant move both sides.
    """
    if strategy not in CANDIDATE_STRATEGIES:
        raise ConfigurationError(
            f"unknown candidate strategy {strategy!r}; "
            f"expected one of {CANDIDATE_STRATEGIES}"
        )
    if max_candidates_per_set <= 0:
        raise ConfigurationError("max_candidates_per_set must be positive")

    num_sets = index.num_sets
    # Root edges: every set can always be built from scratch.
    for set_id in range(num_sets):
        yield TransitionEdge(
            source=0,
            target=set_id + 1,
            weight=scratch_cost(index.sets[set_id]),
            shared=False,
        )

    if strategy == "exhaustive":
        yield from _exhaustive_candidates(index)
        return
    yield from _common_neighbor_candidates(
        index, max_candidates_per_set, neighbor_index.MAX_POSTING_LENGTH
    )


def ordered_pair(index: InNeighborIndex, source_id: int, target_id: int) -> bool:
    """Whether the candidate edge ``source -> target`` respects the size order.

    The paper only evaluates ``TC_{I(a) -> I(b)}`` when ``|I(a)| <= |I(b)|``
    and, for equal sizes, fills only the upper triangle of its cost table
    (Fig. 2b), i.e. one direction per unordered pair.  Sizes never decrease
    along an edge and ids increase at equal size, so ``G*`` is a DAG.
    """
    source_size = index.set_size(source_id)
    target_size = index.set_size(target_id)
    if source_size != target_size:
        return source_size < target_size
    return source_id < target_id


def _exhaustive_candidates(index: InNeighborIndex) -> Iterator[TransitionEdge]:
    """Every ordered pair with ``|source| ≤ |target|`` (the paper's rule)."""
    as_sets = [set(in_set) for in_set in index.sets]
    for source_id in range(index.num_sets):
        for target_id in range(index.num_sets):
            if source_id == target_id:
                continue
            if not ordered_pair(index, source_id, target_id):
                continue
            sym_diff = len(as_sets[source_id] ^ as_sets[target_id])
            from_scratch = scratch_cost(as_sets[target_id])
            yield TransitionEdge(
                source=source_id + 1,
                target=target_id + 1,
                weight=min(sym_diff, from_scratch),
                shared=sym_diff < from_scratch,
            )


def _common_neighbor_candidates(
    index: InNeighborIndex,
    max_candidates_per_set: int,
    max_posting_length: Optional[int],
) -> Iterator[TransitionEdge]:
    """Candidates limited to set pairs sharing at least one in-neighbour."""
    postings: dict[int, list[int]] = {}
    for set_id, in_set in enumerate(index.sets):
        for vertex in in_set:
            postings.setdefault(vertex, []).append(set_id)

    as_sets = [set(in_set) for in_set in index.sets]

    for target_id in range(index.num_sets):
        overlap_counts: Counter[int] = Counter()
        for vertex in index.sets[target_id]:
            posting = postings.get(vertex, ())
            if max_posting_length is not None and len(posting) > max_posting_length:
                posting = posting[:max_posting_length]
            for source_id in posting:
                if source_id != target_id and ordered_pair(
                    index, source_id, target_id
                ):
                    overlap_counts[source_id] += 1
        from_scratch = scratch_cost(as_sets[target_id])
        for source_id, _ in overlap_counts.most_common(max_candidates_per_set):
            sym_diff = symmetric_difference_size(
                as_sets[source_id], as_sets[target_id]
            )
            yield TransitionEdge(
                source=source_id + 1,
                target=target_id + 1,
                weight=min(sym_diff, from_scratch),
                shared=sym_diff < from_scratch,
            )


# --------------------------------------------------------------------------- #
# The plan: Edmonds over the candidate list
# --------------------------------------------------------------------------- #


def edmonds_sharing_plan(
    index: InNeighborIndex,
    candidate_strategy: str = "common-neighbor",
    max_candidates_per_set: int = 16,
) -> SharingPlan:
    """Build the sharing plan with a general directed-MST solve."""
    candidate_edges = list(
        counter_candidate_edges(
            index,
            strategy=candidate_strategy,
            max_candidates_per_set=max_candidates_per_set,
        )
    )

    if index.num_sets == 0:
        return SharingPlan(index, nodes=[], num_candidate_edges=0)

    # Node 0 of G* is the root ∅; node s+1 is the s-th distinct set.
    arborescence = minimum_spanning_arborescence(
        num_vertices=index.num_sets + 1,
        edges=[(edge.source, edge.target, float(edge.weight)) for edge in candidate_edges],
        root=0,
    )

    nodes: list[PlanNode] = []
    for set_id in range(index.num_sets):
        edge_index = arborescence.parent_of(set_id + 1)
        if edge_index is None:  # pragma: no cover - root edges guarantee coverage
            raise AssertionError("every distinct set must be reachable from ∅")
        chosen = candidate_edges[edge_index]
        target_set = index.sets[set_id]
        if chosen.source == 0:
            nodes.append(
                PlanNode(
                    set_id=set_id,
                    parent=ROOT,
                    mode="scratch",
                    removed=(),
                    added=tuple(target_set),
                    weight=chosen.weight,
                )
            )
            continue
        parent_id = chosen.source - 1
        parent_set = index.sets[parent_id]
        if is_sharing_profitable(parent_set, target_set):
            removed, added = split_delta(parent_set, target_set)
            nodes.append(
                PlanNode(
                    set_id=set_id,
                    parent=parent_id,
                    mode="delta",
                    removed=removed,
                    added=added,
                    weight=chosen.weight,
                )
            )
        else:
            # The MST may keep a non-root parent whose weight equals the
            # from-scratch cost; computing from scratch is then just as cheap
            # and avoids keeping the parent's partial sum alive.
            nodes.append(
                PlanNode(
                    set_id=set_id,
                    parent=parent_id,
                    mode="scratch",
                    removed=(),
                    added=tuple(target_set),
                    weight=chosen.weight,
                )
            )

    return SharingPlan(index, nodes=nodes, num_candidate_edges=len(candidate_edges))


# --------------------------------------------------------------------------- #
# Chu-Liu/Edmonds
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Arborescence:
    """Result of :func:`minimum_spanning_arborescence`.

    Attributes
    ----------
    root:
        The root vertex the arborescence is grown from.
    parent_edge:
        ``parent_edge[v]`` is the index (into the *input* edge list) of the
        edge entering ``v`` in the arborescence, or ``None`` for the root and
        for vertices unreachable from the root.
    total_weight:
        Sum of the chosen edge weights.
    """

    root: int
    parent_edge: tuple[Optional[int], ...]
    total_weight: float

    def chosen_edges(self) -> list[int]:
        """Return the chosen edge indices (one per covered non-root vertex)."""
        return [index for index in self.parent_edge if index is not None]

    def parent_of(self, vertex: int) -> Optional[int]:
        """Return the edge index entering ``vertex``, or ``None``."""
        return self.parent_edge[vertex]


@dataclass
class _Edge:
    source: int
    target: int
    weight: float
    original: int


def minimum_spanning_arborescence(
    num_vertices: int,
    edges: Sequence[tuple[int, int, float]],
    root: int,
    require_spanning: bool = True,
) -> Arborescence:
    """Compute a minimum-weight arborescence rooted at ``root``.

    Parameters
    ----------
    num_vertices:
        Number of vertices, ids ``0 .. num_vertices-1``.
    edges:
        Sequence of ``(source, target, weight)`` triples.  Parallel edges are
        allowed (the cheapest useful one wins); edges entering the root and
        self-loops are ignored.
    root:
        Root vertex.
    require_spanning:
        When ``True`` (default) a :class:`~repro.exceptions.GraphError` is
        raised if some vertex is unreachable from the root.  When ``False``,
        unreachable vertices simply have ``parent_edge[v] is None``.

    Returns
    -------
    Arborescence
        The chosen incoming edge per vertex and the total weight.
    """
    if not 0 <= root < num_vertices:
        raise GraphError(f"root {root} out of range for {num_vertices} vertices")

    work_edges = [
        _Edge(int(source), int(target), float(weight), index)
        for index, (source, target, weight) in enumerate(edges)
        if int(target) != root and int(source) != int(target)
    ]
    for edge in work_edges:
        if not (0 <= edge.source < num_vertices and 0 <= edge.target < num_vertices):
            raise GraphError(
                f"edge ({edge.source}, {edge.target}) out of range for "
                f"{num_vertices} vertices"
            )

    reachable = _reachable_from(num_vertices, work_edges, root)
    unreachable = [v for v in range(num_vertices) if v not in reachable]
    if unreachable and require_spanning:
        raise GraphError(
            f"{len(unreachable)} vertices are unreachable from root {root}; "
            "cannot build a spanning arborescence"
        )
    work_edges = [
        edge
        for edge in work_edges
        if edge.source in reachable and edge.target in reachable
    ]

    chosen_original = _edmonds(num_vertices, work_edges, root)

    parent_edge: list[Optional[int]] = [None] * num_vertices
    total_weight = 0.0
    for original_index in chosen_original:
        source, target, weight = edges[original_index]
        parent_edge[int(target)] = original_index
        total_weight += float(weight)
    return Arborescence(
        root=root, parent_edge=tuple(parent_edge), total_weight=total_weight
    )


def _reachable_from(num_vertices: int, edges: list[_Edge], root: int) -> set[int]:
    """Return the set of vertices reachable from ``root`` along ``edges``."""
    adjacency: list[list[int]] = [[] for _ in range(num_vertices)]
    for edge in edges:
        adjacency[edge.source].append(edge.target)
    seen = {root}
    stack = [root]
    while stack:
        vertex = stack.pop()
        for neighbor in adjacency[vertex]:
            if neighbor not in seen:
                seen.add(neighbor)
                stack.append(neighbor)
    return seen


def _edmonds(num_vertices: int, edges: list[_Edge], root: int) -> list[int]:
    """Recursive Chu-Liu/Edmonds contraction.

    Returns the list of *original* edge indices forming the arborescence over
    the vertices that currently have incoming edges (unreachable vertices
    have been filtered out by the caller).
    """
    # 1. Cheapest incoming edge per vertex.
    best_in: dict[int, _Edge] = {}
    for edge in edges:
        current = best_in.get(edge.target)
        if current is None or edge.weight < current.weight:
            best_in[edge.target] = edge
    if not best_in:
        return []

    # 2. Detect a cycle among the chosen edges.
    cycle = _find_cycle(best_in, root)
    if cycle is None:
        return [edge.original for edge in best_in.values()]

    cycle_set = set(cycle)
    cycle_id = num_vertices  # the contracted super-vertex gets a fresh id

    # 3. Contract the cycle and reweight edges entering it.
    contracted: list[_Edge] = []
    # Maps the contracted edge object back to (original incoming edge, the
    # cycle edge it would displace).
    entering_info: dict[int, tuple[_Edge, _Edge]] = {}
    for index, edge in enumerate(edges):
        source_in = edge.source in cycle_set
        target_in = edge.target in cycle_set
        if source_in and target_in:
            continue
        if target_in:
            displaced = best_in[edge.target]
            new_edge = _Edge(
                edge.source, cycle_id, edge.weight - displaced.weight, index
            )
            contracted.append(new_edge)
            entering_info[index] = (edge, displaced)
        elif source_in:
            contracted.append(_Edge(cycle_id, edge.target, edge.weight, index))
        else:
            contracted.append(_Edge(edge.source, edge.target, edge.weight, index))

    sub_result = _edmonds(num_vertices + 1, contracted, root)

    # 4. Expand the contraction.
    chosen: list[int] = []
    entering_edge: Optional[_Edge] = None
    displaced_edge: Optional[_Edge] = None
    for contracted_index in sub_result:
        info = entering_info.get(contracted_index)
        if info is not None and edges[contracted_index].target in cycle_set:
            entering_edge, displaced_edge = info
            chosen.append(entering_edge.original)
        else:
            chosen.append(edges[contracted_index].original)

    # Keep every cycle edge except the one displaced by the entering edge.
    for vertex in cycle:
        cycle_edge = best_in[vertex]
        if displaced_edge is not None and cycle_edge is displaced_edge:
            continue
        chosen.append(cycle_edge.original)
    return chosen


def _find_cycle(best_in: dict[int, _Edge], root: int) -> Optional[list[int]]:
    """Return one cycle (as a vertex list) in the chosen-edge graph, if any."""
    state: dict[int, int] = {}  # 0 = visiting, 1 = done
    for start in best_in:
        if state.get(start) == 1:
            continue
        path: list[int] = []
        vertex = start
        while True:
            if vertex == root or vertex not in best_in:
                break
            mark = state.get(vertex)
            if mark == 1:
                break
            if mark == 0:
                # Found a vertex already on the current path: extract cycle.
                cycle_start = path.index(vertex)
                for node in path[:cycle_start]:
                    state[node] = 1
                return path[cycle_start:]
            state[vertex] = 0
            path.append(vertex)
            vertex = best_in[vertex].source
        for node in path:
            state[node] = 1
    return None
