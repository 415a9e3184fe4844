"""Level-synchronous execution engine for partial-sums sharing (Algorithm 1 + OP).

The engine turns a :class:`~repro.core.plans.SharingPlan` into signed sparse
operators once, then performs SimRank iterations with the paper's
Algorithm 1 arithmetic, run as blocked sparse products instead of one
Python step per set:

* **levels** — every distinct in-neighbour set gets a *delta depth*: 0 when
  its partial sum is computed from scratch, its tree parent's depth + 1 when
  it is derived from the parent (Eq. 9).  The sets of one depth form a
  level, and each level has one signed CSR operator ``Δ_level`` (one row per
  set: ``+1`` on every element for a scratch set, ``−1`` on ``removed`` and
  ``+1`` on ``added`` for a delta set);
* **inner partial sums** — ``Partial[level] = Partial[parents] + Δ_level @ S``,
  level after level, so each level is one sparse product plus one gather of
  the parents' rows;
* **outer partial sums** — Prop. 4 applies the same recurrence along the
  same tree to the *targets*: with ``Q = Partialᵀ``,
  ``Outerᵀ[level] = Outerᵀ[parents] + Δ_level @ Q`` over all target sets;
* **member rows** — one ``np.take`` gathers each source set's similarity
  row out of the scaled outer sums, and one fancy assignment writes it to
  every vertex whose in-neighbour set it is;
* **blocks** — source sets are processed in blocks of whole sharing
  subtrees (a from-scratch set plus the delta sets derived from it), about
  :data:`BLOCK_SETS` sets each, so the live buffers are a few
  ``BLOCK_SETS × n`` arrays rather than all ``num_sets × n`` partial sums.

Accounting follows Algorithm 1, not the buffers: the operation counter
receives the plan's static per-iteration addition totals, and the memory
tracker reports the peak of Algorithm 1's depth-first release order
(replayed once from the plan when the engine is built).  The real
intermediate buffers are bounded by the block size instead.

The same engine serves both the conventional model (OIP-SR: damping ``C``
inside the update, diagonal pinned to 1) and the differential model
(OIP-DSR: factor 1, no pinning, the caller accumulates the exponential
series), which is exactly how the paper reuses its optimisation for Eq. 15.

A note on operation counting: the engine counts *scalar additions on
similarity values*, the unit of the paper's ``O(K d n²)`` analysis.  One
"row operation" on a length-``n`` partial-sum vector counts as ``n``
additions; outer-partial updates count one addition per element touched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse

from ..graph.digraph import DiGraph
from .instrumentation import Instrumentation
from .plans import ROOT, SharingPlan

__all__ = ["SharingEngine"]

BLOCK_SETS = 64
"""Source sets per block; a sharing subtree larger than this is one block."""


@dataclass(frozen=True)
class _Level:
    """One delta depth of a group of sets, as rows ``start:stop`` of its buffer."""

    start: int
    stop: int
    parents: Optional[np.ndarray]
    """Buffer rows of the tree parents (``None`` at depth 0)."""
    delta: sparse.csr_matrix
    """Signed Eq. 9 operator, one row per set, ``n`` columns."""


@dataclass(frozen=True)
class _Block:
    """A group of whole sharing subtrees processed as source sets together."""

    levels: tuple[_Level, ...]
    inverse_sizes: np.ndarray
    """``1 / |I(s)|`` per block row."""
    members: np.ndarray
    """Vertices whose in-neighbour set is in the block."""
    member_rows: np.ndarray
    """Block row of each member's in-neighbour set."""


class SharingEngine:
    """Executes shared-partial-sums SimRank iterations over a fixed plan."""

    def __init__(
        self,
        graph: DiGraph,
        plan: SharingPlan,
        instrumentation: Optional[Instrumentation] = None,
    ) -> None:
        self.graph = graph
        self.plan = plan
        self.instrumentation = instrumentation or Instrumentation()
        self.num_vertices = graph.num_vertices
        self.num_sets = plan.index.num_sets

        # Delta depth, walked in DFS pre-order because that visits parents
        # first; a child's set id may be smaller than its parent's.
        dfs_order = plan.dfs_order()
        depth = np.zeros(self.num_sets, dtype=np.intp)
        for set_id in dfs_order:
            node = plan.nodes[set_id]
            if node.mode == "delta":
                depth[set_id] = depth[node.parent] + 1
        rank = np.empty(self.num_sets, dtype=np.intp)
        rank[list(dfs_order)] = np.arange(self.num_sets)
        inverse_sizes = 1.0 / np.array(
            [plan.index.set_size(set_id) for set_id in range(self.num_sets)],
            dtype=np.float64,
        )

        # Targets: every set, level by level, in one buffer.  Vertices with
        # no in-neighbours point at the extra all-zero row ``num_sets``.
        target_order = np.lexsort((rank, depth))
        self._target_levels = self._build_levels(target_order, depth)
        position = np.empty(self.num_sets, dtype=np.intp)
        position[target_order] = np.arange(self.num_sets)
        set_of_vertex = plan.index.set_of_vertex
        has_set = set_of_vertex >= 0
        self._vertex_rows = np.full(self.num_vertices, self.num_sets, dtype=np.intp)
        self._vertex_rows[has_set] = position[set_of_vertex[has_set]]
        self._target_inverse_sizes = np.append(
            inverse_sizes[target_order], 0.0
        )[:, np.newaxis]

        self._blocks = tuple(
            self._build_block(set_ids, depth, rank, inverse_sizes)
            for set_ids in self._block_set_ids(dfs_order, depth)
        )
        self._count_static_costs()
        self._peak_intermediate_values = self._replay_release_peak(dfs_order)

    # ------------------------------------------------------------------ #
    # Precomputation
    # ------------------------------------------------------------------ #
    def _build_levels(
        self, ordered: np.ndarray, depth: np.ndarray
    ) -> tuple[_Level, ...]:
        """Level operators for ``ordered`` (sorted by depth, parents included)."""
        nodes = self.plan.nodes
        sets = self.plan.index.sets
        row_of = {int(set_id): row for row, set_id in enumerate(ordered)}
        bounds = np.searchsorted(depth[ordered], np.arange(int(depth.max(initial=0)) + 2))
        levels = []
        for start, stop in zip(bounds[:-1], bounds[1:]):
            if start == stop:
                continue
            indptr = [0]
            columns: list[int] = []
            signs: list[float] = []
            for set_id in ordered[start:stop]:
                node = nodes[set_id]
                if node.mode == "delta":
                    columns.extend(node.removed)
                    columns.extend(node.added)
                    signs.extend([-1.0] * len(node.removed))
                    signs.extend([1.0] * len(node.added))
                else:
                    columns.extend(sets[set_id])
                    signs.extend([1.0] * len(sets[set_id]))
                indptr.append(len(columns))
            delta = sparse.csr_matrix(
                (np.array(signs), np.array(columns, dtype=np.intp), np.array(indptr)),
                shape=(int(stop - start), self.num_vertices),
            )
            parents = None
            if start > 0:
                parents = np.array(
                    [row_of[nodes[set_id].parent] for set_id in ordered[start:stop]],
                    dtype=np.intp,
                )
            levels.append(_Level(int(start), int(stop), parents, delta))
        return tuple(levels)

    def _block_set_ids(self, dfs_order, depth: np.ndarray) -> list[list[int]]:
        """Group whole sharing subtrees, in DFS order, into blocks of sets.

        A sharing subtree is a from-scratch set plus every set derived from
        it through delta edges; its partial sums never read another
        subtree's, so a block of them is self-contained.
        """
        subtrees: list[list[int]] = []
        subtree_of = np.empty(self.num_sets, dtype=np.intp)
        for set_id in dfs_order:
            if depth[set_id] == 0:
                subtree_of[set_id] = len(subtrees)
                subtrees.append([set_id])
            else:
                subtree_of[set_id] = subtree_of[self.plan.nodes[set_id].parent]
                subtrees[subtree_of[set_id]].append(set_id)
        blocks: list[list[int]] = []
        for subtree in subtrees:
            if blocks and len(blocks[-1]) + len(subtree) <= BLOCK_SETS:
                blocks[-1].extend(subtree)
            else:
                blocks.append(list(subtree))
        return blocks

    def _build_block(
        self,
        set_ids: list[int],
        depth: np.ndarray,
        rank: np.ndarray,
        inverse_sizes: np.ndarray,
    ) -> _Block:
        ids = np.asarray(set_ids, dtype=np.intp)
        ordered = ids[np.lexsort((rank[ids], depth[ids]))]
        members = self.plan.index.members
        member_vertices = [vertex for set_id in ordered for vertex in members[set_id]]
        member_rows = [
            row for row, set_id in enumerate(ordered) for _ in members[set_id]
        ]
        return _Block(
            levels=self._build_levels(ordered, depth),
            inverse_sizes=inverse_sizes[ordered],
            members=np.asarray(member_vertices, dtype=np.intp),
            member_rows=np.asarray(member_rows, dtype=np.intp),
        )

    def _count_static_costs(self) -> None:
        """Pre-compute per-iteration addition counts implied by the plan."""
        n = self.num_vertices
        inner_row_ops = 0
        outer_ops_per_pass = 0
        for node in self.plan.nodes:
            if node.mode == "delta":
                ops = len(node.removed) + len(node.added)
            else:
                ops = max(self.plan.index.set_size(node.set_id) - 1, 0)
            inner_row_ops += ops
            outer_ops_per_pass += ops
        self.inner_additions_per_iteration = inner_row_ops * n
        self.outer_additions_per_iteration = outer_ops_per_pass * self.num_sets
        self.outer_additions_per_pass = outer_ops_per_pass

    def _replay_release_peak(self, dfs_order) -> int:
        """Peak cached values of Algorithm 1's depth-first walk.

        The walk caches one length-``n`` partial sum per set and frees it
        once the subtree below it is done; on top of that it holds the outer
        sums, the row buffer and a sentinel (``2 · num_sets + 1`` values).
        """
        parents = [node.parent for node in self.plan.nodes]
        remaining = [len(self.plan.children_of(set_id)) for set_id in range(self.num_sets)]
        live = peak = 0
        for set_id in dfs_order:
            live += 1
            peak = max(peak, live)
            node = set_id
            while remaining[node] == 0:
                live -= 1
                parent = parents[node]
                if parent == ROOT:
                    break
                remaining[parent] -= 1
                node = parent
        return 2 * self.num_sets + 1 + peak * self.num_vertices

    # ------------------------------------------------------------------ #
    # Iteration
    # ------------------------------------------------------------------ #
    def iterate(
        self,
        scores: np.ndarray,
        factor: float,
        pin_diagonal: bool,
    ) -> np.ndarray:
        """Perform one shared-sums iteration.

        Parameters
        ----------
        scores:
            The current iterate ``s_k`` (dense ``n × n``).
        factor:
            Multiplier applied inside the update: the damping factor ``C``
            for conventional SimRank (Eq. 2), ``1.0`` for the differential
            auxiliary sequence ``T_k`` (Eq. 15).
        pin_diagonal:
            Whether to force the diagonal of the result to 1 (Eq. 2 case i).

        Returns
        -------
        numpy.ndarray
            The next iterate ``s_{k+1}`` (or ``T_{k+1}``), C-contiguous.
        """
        n = self.num_vertices
        scores = np.ascontiguousarray(scores, dtype=np.float64)
        instrumentation = self.instrumentation
        instrumentation.operations.add("inner", self.inner_additions_per_iteration)
        instrumentation.operations.add("outer", self.outer_additions_per_iteration)
        instrumentation.memory.allocate(self._peak_intermediate_values)

        new_scores = np.zeros((n, n), dtype=np.float64)
        for block in self._blocks:
            # Eq. 9, level by level: Partial[level] = Partial[parents] + Δ @ S.
            partial = _run_levels(block.levels, scores, len(block.inverse_sizes))
            # Prop. 4 over every target set, on the transposed partial sums
            # (pre-scaled by C / |I(s)|; the products need them C-contiguous).
            sources = np.empty((n, len(block.inverse_sizes)), dtype=np.float64)
            np.multiply(partial.T, factor * block.inverse_sizes, out=sources)
            outer = _run_levels(self._target_levels, sources, self.num_sets + 1)
            outer[self.num_sets] = 0.0
            outer *= self._target_inverse_sizes
            rows = np.take(outer, self._vertex_rows, axis=0).T
            new_scores[block.members] = rows[block.member_rows]

        instrumentation.memory.release(self._peak_intermediate_values)
        if pin_diagonal:
            np.fill_diagonal(new_scores, 1.0)
        return new_scores

    # ------------------------------------------------------------------ #
    # Reporting helpers
    # ------------------------------------------------------------------ #
    def additions_per_iteration(self) -> int:
        """Total counted additions one iteration performs."""
        return self.inner_additions_per_iteration + self.outer_additions_per_iteration

    def initial_scores(self) -> np.ndarray:
        """Return the SimRank starting point ``s_0 = I_n``."""
        return np.eye(self.num_vertices, dtype=np.float64)


def _run_levels(
    levels: tuple[_Level, ...], operand: np.ndarray, num_rows: int
) -> np.ndarray:
    """Evaluate ``out[level] = out[parents] + Δ_level @ operand`` in depth order."""
    out = np.empty((num_rows, operand.shape[1]), dtype=np.float64)
    for level in levels:
        rows = out[level.start : level.stop]
        rows[...] = level.delta @ operand
        if level.parents is not None:
            rows += out[level.parents]
    return out
