"""Index of distinct in-neighbour sets and sharing-candidate generation.

``DMST-Reduce`` works on the family ``{I(v) : v ∈ V, I(v) ≠ ∅}``.  Distinct
vertices frequently have *identical* in-neighbour sets (pages of the same
host linking to the same navigation bar, co-authors of a single paper), and
identical sets trivially share their entire partial sum, so the index groups
vertices by in-neighbour set first and the rest of the pipeline operates on
*distinct* sets only.

The second job of this module is candidate generation for the transition-cost
graph ``G*``.  Computing all ``Θ(n²)`` pairwise costs, as the paper's
analysis assumes, is wasteful: an edge ``I(a) → I(b)`` can only beat the
from-scratch edge ``∅ → I(b)`` when the two sets share at least one vertex
(otherwise ``|I(a) ⊖ I(b)| ≥ |I(b)| > |I(b)| − 1``).  Sharing candidates are
therefore harvested from an inverted index ``w ↦ {sets containing w}``;
an optional exhaustive mode reproduces the paper's quadratic construction
for small graphs and for validation.

Both strategies are built with arrays over the set × vertex incidence
matrix ``A`` (one row per distinct set), whose transpose holds the postings:

* *common-neighbor* cuts each posting to its first
  :data:`MAX_POSTING_LENGTH` set ids and emits one
  ``(target, source, position)`` record per posting entry reached from a
  target's vertex at ``position``.  Per ``(target, source)`` pair it takes the
  record count and the first position, and keeps each target's top
  ``max_candidates_per_set`` sources by higher count, then earlier first
  position, then lower source id.  The exact ``|a ∩ b|`` of the kept pairs
  comes from the row-wise product of ``A``, since the count undercounts once
  a posting is cut;
* *exhaustive* reads ``|a ∩ b|`` for every pair off ``A Aᵀ``, with sources
  in ascending id order.

Either way ``|a ⊖ b| = |a| + |b| − 2|a ∩ b|``, and only pairs that go up the
(size, id) order become edges, which keeps ``G*`` acyclic.  Both work on
blocks of whole targets of at most :data:`BLOCK_ENTRIES` records or dense
overlap entries, so memory stays bounded on large graphs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from scipy import sparse

from ..exceptions import ConfigurationError
from ..graph.digraph import DiGraph
from .transition_cost import TransitionEdge

__all__ = [
    "InNeighborIndex",
    "candidate_blocks",
    "generate_candidate_edges",
    "CANDIDATE_STRATEGIES",
    "MAX_POSTING_LENGTH",
]

CANDIDATE_STRATEGIES = ("common-neighbor", "exhaustive")

MAX_POSTING_LENGTH = 256
"""Postings longer than this (hub in-neighbours that appear in very many
sets) are cut to their first this-many set ids when counting common
neighbours, which bounds the counting cost."""

BLOCK_ENTRIES = 1 << 20
"""Candidates are built in blocks of whole targets holding at most this
many intermediate entries (posting records, or dense overlap entries in
exhaustive mode), so memory stays bounded on large graphs."""


@dataclass(frozen=True)
class InNeighborIndex:
    """Grouping of vertices by (non-empty) in-neighbour set.

    Attributes
    ----------
    sets:
        Tuple of distinct non-empty in-neighbour sets, each a sorted tuple of
        vertex ids.  ``sets[i]`` is the ``i``-th distinct set.
    members:
        ``members[i]`` lists the vertices whose in-neighbour set equals
        ``sets[i]``.
    set_of_vertex:
        Length-``n`` array mapping every vertex to its distinct-set index, or
        ``-1`` for vertices with no in-neighbours.
    """

    sets: tuple[tuple[int, ...], ...]
    members: tuple[tuple[int, ...], ...]
    set_of_vertex: np.ndarray

    @classmethod
    def from_graph(cls, graph: DiGraph) -> "InNeighborIndex":
        """Build the index for ``graph``."""
        set_to_id: dict[tuple[int, ...], int] = {}
        members: list[list[int]] = []
        set_of_vertex = np.full(graph.num_vertices, -1, dtype=np.int64)
        for vertex in graph.vertices():
            in_set = graph.in_neighbors(vertex)
            if not in_set:
                continue
            set_id = set_to_id.get(in_set)
            if set_id is None:
                set_id = len(members)
                set_to_id[in_set] = set_id
                members.append([])
            members[set_id].append(vertex)
            set_of_vertex[vertex] = set_id
        ordered_sets = tuple(
            in_set for in_set, _ in sorted(set_to_id.items(), key=lambda kv: kv[1])
        )
        return cls(
            sets=ordered_sets,
            members=tuple(tuple(group) for group in members),
            set_of_vertex=set_of_vertex,
        )

    @property
    def num_sets(self) -> int:
        """Number of distinct non-empty in-neighbour sets."""
        return len(self.sets)

    def set_size(self, set_id: int) -> int:
        """Return ``|I|`` for the ``set_id``-th distinct set."""
        return len(self.sets[set_id])

    def set_sizes(self) -> np.ndarray:
        """Return ``|I|`` of every distinct set, in set-id order."""
        return np.fromiter(map(len, self.sets), dtype=np.int64, count=self.num_sets)

    def total_in_degree(self) -> int:
        """Return ``Σ_v |I(v)|`` over all vertices (counting duplicates)."""
        return int(
            sum(len(self.sets[set_id]) * len(group)
                for set_id, group in enumerate(self.members))
        )

    def duplicate_vertex_count(self) -> int:
        """Number of vertices sharing an in-neighbour set with another vertex."""
        return sum(len(group) - 1 for group in self.members if len(group) > 1)


def generate_candidate_edges(
    index: InNeighborIndex,
    strategy: str = "common-neighbor",
    max_candidates_per_set: int = 16,
) -> Iterator[TransitionEdge]:
    """Yield candidate edges of the transition-cost graph ``G*``.

    Node ids follow the convention of :class:`TransitionEdge`: node 0 is the
    root ``∅`` and node ``s + 1`` is the ``s``-th distinct set of ``index``.
    This is the Fig. 2b view of :func:`candidate_blocks`: one edge per entry.

    Parameters
    ----------
    index:
        The distinct in-neighbour-set index.
    strategy:
        ``"common-neighbor"`` (default) only pairs sets that share at least
        one vertex, harvested via an inverted index, keeping the strongest
        ``max_candidates_per_set`` sources per target.  ``"exhaustive"``
        enumerates every ordered pair with ``|source| ≤ |target|``, exactly
        as the paper's ``DMST-Reduce`` pseudo-code does.
    max_candidates_per_set:
        Cap on sharing candidates per target set (common-neighbor mode).

    Yields
    ------
    TransitionEdge
        Root edges ``∅ → t`` for every distinct set (weight ``|I_t| − 1``)
        plus the sharing candidates.
    """
    blocks = candidate_blocks(index, strategy, max_candidates_per_set)
    scratch = np.maximum(index.set_sizes() - 1, 0)
    # Root edges: every set can always be built from scratch.
    for set_id, cost in enumerate(scratch.tolist()):
        yield TransitionEdge(source=0, target=set_id + 1, weight=cost, shared=False)
    for targets, sources, sym_diffs in blocks:
        from_scratch = scratch[targets]
        for target, source, sym_diff, cost in zip(
            targets.tolist(), sources.tolist(), sym_diffs.tolist(), from_scratch.tolist()
        ):
            yield TransitionEdge(
                source=source + 1,
                target=target + 1,
                weight=min(sym_diff, cost),
                shared=sym_diff < cost,
            )


def candidate_blocks(
    index: InNeighborIndex,
    strategy: str = "common-neighbor",
    max_candidates_per_set: int = 16,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Return the sharing candidates of ``G*`` as ``(targets, sources, sym_diffs)`` blocks.

    The arrays hold set ids and the exact ``|I(source) ⊖ I(target)|`` of each
    candidate edge ``source → target``.  A block holds whole targets in
    ascending id order; within a target the candidates are in rank order
    (see the module docstring).  Root edges are implicit: every set can be
    built from scratch.  Parameters are those of
    :func:`generate_candidate_edges`, and are checked before this returns.
    """
    if strategy not in CANDIDATE_STRATEGIES:
        raise ConfigurationError(
            f"unknown candidate strategy {strategy!r}; "
            f"expected one of {CANDIDATE_STRATEGIES}"
        )
    if max_candidates_per_set <= 0:
        raise ConfigurationError("max_candidates_per_set must be positive")
    num_sets = index.num_sets
    if num_sets == 0:
        return iter(())
    sizes = index.set_sizes()
    indptr = np.zeros(num_sets + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    vertices = np.fromiter(
        itertools.chain.from_iterable(index.sets), dtype=np.int64, count=int(indptr[-1])
    )
    incidence = sparse.csr_matrix(
        (np.ones(vertices.size, dtype=np.int32), vertices, indptr),
        shape=(num_sets, index.set_of_vertex.size),
    )
    # Position in the (size, id) order.  An edge source → target exists only
    # when the source comes first, so G* is a DAG.
    order_key = sizes * num_sets + np.arange(num_sets)
    if strategy == "exhaustive":
        return _exhaustive_blocks(incidence, sizes, order_key)
    return _common_neighbor_blocks(incidence, sizes, order_key, max_candidates_per_set)


def _common_neighbor_blocks(
    incidence: sparse.csr_matrix,
    sizes: np.ndarray,
    order_key: np.ndarray,
    max_candidates_per_set: int,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Candidates limited to set pairs sharing at least one in-neighbour."""
    num_sets = sizes.size
    # Postings: column w of the CSC form lists the sets holding w by ascending id.
    postings = incidence.tocsc()
    cut = np.minimum(np.diff(postings.indptr), MAX_POSTING_LENGTH)
    # Each incidence entry (a vertex of a target) makes one record per entry
    # of its vertex's cut posting.
    per_entry = cut[incidence.indices]
    entry_target = np.repeat(np.arange(num_sets), sizes)
    records_through = np.cumsum(np.add.reduceat(per_entry, incidence.indptr[:-1]))
    start = 0
    while start < num_sets:
        done = records_through[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(records_through, done + BLOCK_ENTRIES, "right")))
        # The records of targets start .. stop-1, in the order target,
        # position in the target, source id.
        entries = np.arange(incidence.indptr[start], incidence.indptr[stop])
        lengths = per_entry[entries]
        entry = np.repeat(entries, lengths)
        offset = np.arange(entry.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        sources = postings.indices[postings.indptr[incidence.indices[entry]] + offset]
        targets = entry_target[entry]
        positions = entry - incidence.indptr[targets]
        forward = order_key[sources] < order_key[targets]
        targets, sources, positions = targets[forward], sources[forward], positions[forward]

        # Per pair: record count and first position (np.unique indexes each
        # pair's first record).
        pairs, first, counts = np.unique(
            targets * num_sets + sources, return_index=True, return_counts=True
        )
        targets, sources = np.divmod(pairs, num_sets)
        rank = np.lexsort((sources, positions[first], -counts, targets))
        targets, sources = targets[rank], sources[rank]
        in_target = np.arange(targets.size) - np.searchsorted(targets, targets)
        kept = in_target < max_candidates_per_set
        targets, sources = targets[kept], sources[kept]

        overlap = np.asarray(
            incidence[targets].multiply(incidence[sources]).sum(axis=1)
        ).ravel()
        yield targets, sources, sizes[targets] + sizes[sources] - 2 * overlap
        start = stop


def _exhaustive_blocks(
    incidence: sparse.csr_matrix, sizes: np.ndarray, order_key: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every ordered pair with ``|source| ≤ |target|`` (the paper's rule)."""
    num_sets = sizes.size
    block = max(1, BLOCK_ENTRIES // num_sets)
    transpose = incidence.T.tocsr()
    for start in range(0, num_sets, block):
        stop = min(start + block, num_sets)
        overlap = (incidence[start:stop] @ transpose).toarray()
        rows, sources = np.nonzero(order_key[None, :] < order_key[start:stop, None])
        targets = rows + start
        yield targets, sources, sizes[targets] + sizes[sources] - 2 * overlap[rows, sources]
