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
* **blocks** — source sets are processed in blocks of whole sharing
  subtrees (a from-scratch set plus the delta sets derived from it), about
  :data:`BLOCK_SETS` sets each, so the live buffers are a few
  ``BLOCK_SETS`` × width arrays rather than all ``num_sets`` partial sums.

**Classes.**  Eq. 2 averages over ``I(a) × I(b)``, so after one iteration
``s(a, b)`` for ``a ≠ b`` depends only on the in-neighbour sets of ``a``
and ``b``.  A *class* is one distinct in-neighbour set; the vertices with
no in-neighbours form one more class, index ``num_sets``.  OIP-SR and
OIP-DSR keep their iterate as a :class:`ClassState`,

``S = P M Pᵀ + diag(δ[c(j)])``,

with ``P`` the ``n × (s+1)`` class indicator, ``M`` the ``(s+1) × (s+1)``
class matrix and ``δ`` a per-class diagonal offset.  A class with one
member keeps that vertex's own diagonal in ``M[c, c]``, so ``δ`` is
non-zero only on classes of two or more members.  One iteration is

``M' = factor · D⁻¹ (N M Nᵀ + Σ_j δ[c(j)] inc_j inc_jᵀ) D⁻¹``,

where ``N = Inc · P`` counts each set's elements per class and ``D`` holds
the set sizes.  ``N M Nᵀ`` is the two level passes above with every
operator's columns merged by class (``Δ_level @ P``; a delta set's removed
and added vertices of one class cancel).  The ``δ`` term has a fixed
pattern, the set pairs that share a vertex of a multi-member class, so it
is one sparse mat-vec and one scatter-add per iteration.  The state is
expanded to ``n × n`` once, by :meth:`SharingEngine.expand`.

P-Rank mixes in-link and out-link scores, which are not class-structured;
:meth:`SharingEngine.iterate_vertices` runs the same level passes on an
``n × n`` iterate with unmerged vertex columns.

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

from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterator, Optional

import numpy as np
from scipy import sparse

from ..graph.digraph import DiGraph
from .instrumentation import Instrumentation
from .plans import ROOT, SharingPlan

__all__ = ["SharingEngine", "ClassState"]

BLOCK_SETS = 64
"""Source sets per block; a sharing subtree larger than this is one block.
psum-SR blocks its source vertices by the same count."""

GATHER_ROWS = 128
"""Output rows per slab when a class matrix is gathered to ``n × n``."""


@dataclass(frozen=True)
class _Level:
    """One delta depth of a group of sets, as rows ``start:stop`` of its buffer."""

    start: int
    stop: int
    parents: Optional[np.ndarray]
    """Buffer rows of the tree parents (``None`` at depth 0)."""
    delta: sparse.csr_matrix
    """Signed Eq. 9 operator, one row per set, one column per vertex or class."""


@dataclass(frozen=True)
class _Block:
    """A group of whole sharing subtrees processed as source sets together."""

    levels: tuple[_Level, ...]
    rows: np.ndarray
    """Class index of each block row's set."""
    inverse_sizes: np.ndarray
    """``1 / |I(s)|`` per block row."""


@dataclass(frozen=True)
class _Operators:
    """The level operators of one column space (vertices or classes)."""

    blocks: tuple[_Block, ...]
    targets: tuple[_Level, ...]
    """Every set as a target, level by level, in class order."""


@dataclass
class ClassState:
    """An iterate in class space: ``S = P M Pᵀ + diag(δ[c(j)])``.

    ``diagonal`` holds each class's diagonal entry ``M[c, c] + δ[c]``, so a
    pinned diagonal expands to exactly 1.  Rows and columns of the empty
    class (index ``num_sets``) are zero, except a single member's diagonal.
    """

    matrix: np.ndarray
    diagonal: np.ndarray

    def max_difference(self, other: "ClassState") -> float:
        """``‖S − S_other‖_max`` over the entries the ``n × n`` iterates hold.

        Every class-matrix entry is held by some vertex pair except the
        empty class's when it has no member, and those stay zero.
        """
        return max(
            float(np.max(np.abs(self.matrix - other.matrix), initial=0.0)),
            float(np.max(np.abs(self.diagonal - other.diagonal), initial=0.0)),
        )


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
        index = plan.index

        # Delta depth, walked in DFS pre-order because that visits parents
        # first; a child's set id may be smaller than its parent's.
        dfs_order = plan.dfs_order()
        self._parents = np.array([node.parent for node in plan.nodes], dtype=np.intp)
        depth = np.zeros(self.num_sets, dtype=np.intp)
        for set_id in dfs_order:
            if plan.nodes[set_id].mode == "delta":
                depth[set_id] = depth[self._parents[set_id]] + 1
        rank = np.empty(self.num_sets, dtype=np.intp)
        rank[list(dfs_order)] = np.arange(self.num_sets)
        self._depth = depth
        inverse_sizes = 1.0 / index.set_sizes().astype(np.float64)

        # Classes are numbered in target order: every set level by level,
        # then the empty class.  The outer pass's rows are then class rows.
        self._target_order = np.lexsort((rank, depth))
        class_of_set = np.empty(self.num_sets, dtype=np.intp)
        class_of_set[self._target_order] = np.arange(self.num_sets)
        has_set = index.set_of_vertex >= 0
        self._class_of_vertex = np.full(self.num_vertices, self.num_sets, dtype=np.intp)
        self._class_of_vertex[has_set] = class_of_set[index.set_of_vertex[has_set]]
        self._class_inverse_sizes = np.append(
            inverse_sizes[self._target_order], 0.0
        )[:, np.newaxis]
        class_sizes = np.bincount(self._class_of_vertex, minlength=self.num_sets + 1)
        self._single = np.flatnonzero(class_sizes == 1)
        self._multi = np.flatnonzero(class_sizes > 1)
        self._has_members = (class_sizes > 0).astype(np.float64)

        self._block_orders = [
            ids[np.lexsort((rank[ids], depth[ids]))]
            for ids in map(np.asarray, self._block_set_ids(dfs_order, depth))
        ]
        self._block_rows = [class_of_set[ordered] for ordered in self._block_orders]
        self._block_inverse_sizes = [
            inverse_sizes[ordered] for ordered in self._block_orders
        ]
        self._signed_rows = self._signed_set_rows()
        # Columns merged by class (Δ_level @ P); the in-place merge needs
        # arrays of its own.
        class_rows = sparse.csr_matrix(
            (
                self._signed_rows.data.copy(),
                self._class_of_vertex[self._signed_rows.indices],
                self._signed_rows.indptr.copy(),
            ),
            shape=(self.num_sets, self.num_sets + 1),
        )
        class_rows.sum_duplicates()
        class_rows.eliminate_zeros()
        self._class_operators = self._build_operators(class_rows)
        self._offset_pairs, self._offset_weights = self._offset_pattern(class_of_set)
        self._count_static_costs()
        self._peak_intermediate_values = self._replay_release_peak(dfs_order)

    # ------------------------------------------------------------------ #
    # Precomputation
    # ------------------------------------------------------------------ #
    def _signed_set_rows(self) -> sparse.csr_matrix:
        """Every set's Eq. 9 row over vertex columns, in set-id order: the
        removed vertices (``−1``), then the added ones (``+1``); a scratch
        set adds all its elements."""
        sets = self.plan.index.sets
        removed = [node.removed if node.mode == "delta" else () for node in self.plan.nodes]
        added = [
            node.added if node.mode == "delta" else sets[node.set_id]
            for node in self.plan.nodes
        ]
        num_removed = np.fromiter(map(len, removed), dtype=np.intp, count=self.num_sets)
        lengths = num_removed + np.fromiter(map(len, added), dtype=np.intp, count=self.num_sets)
        indptr = np.zeros(self.num_sets + 1, dtype=np.intp)
        np.cumsum(lengths, out=indptr[1:])
        columns = np.fromiter(
            chain.from_iterable(chain.from_iterable(zip(removed, added))),
            dtype=np.intp,
            count=int(indptr[-1]),
        )
        within = np.arange(int(indptr[-1])) - np.repeat(indptr[:-1], lengths)
        signs = np.where(within < np.repeat(num_removed, lengths), -1.0, 1.0)
        return sparse.csr_matrix(
            (signs, columns, indptr), shape=(self.num_sets, self.num_vertices)
        )

    def _build_operators(self, set_rows: sparse.csr_matrix) -> _Operators:
        """Level operators for every block and for the targets, cut from
        ``set_rows`` (one signed row per set id)."""
        blocks = []
        block_rows = set_rows[np.concatenate([np.empty(0, np.intp), *self._block_orders])]
        offset = 0
        for ordered, rows, inverse_sizes in zip(
            self._block_orders, self._block_rows, self._block_inverse_sizes
        ):
            levels = self._build_levels(ordered, block_rows, offset)
            blocks.append(_Block(levels, rows, inverse_sizes))
            offset += len(ordered)
        targets = self._build_levels(self._target_order, set_rows[self._target_order])
        return _Operators(tuple(blocks), targets)

    def _build_levels(
        self, ordered: np.ndarray, ordered_rows: sparse.csr_matrix, offset: int = 0
    ) -> tuple[_Level, ...]:
        """Level operators for ``ordered`` (sorted by depth, parents included),
        whose signed rows start at row ``offset`` of ``ordered_rows``."""
        depth = self._depth
        row_of = np.empty(self.num_sets, dtype=np.intp)
        row_of[ordered] = np.arange(len(ordered))
        bounds = np.searchsorted(depth[ordered], np.arange(int(depth.max(initial=0)) + 2))
        indptr, width = ordered_rows.indptr, ordered_rows.shape[1]
        levels = []
        for start, stop in zip(bounds[:-1], bounds[1:]):
            if start == stop:
                continue
            first, last = indptr[offset + start], indptr[offset + stop]
            delta = sparse.csr_matrix(
                (
                    ordered_rows.data[first:last],
                    ordered_rows.indices[first:last],
                    indptr[offset + start : offset + stop + 1] - first,
                ),
                shape=(int(stop - start), width),
            )
            parents = row_of[self._parents[ordered[start:stop]]] if start > 0 else None
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

    def _offset_pattern(
        self, class_of_set: np.ndarray
    ) -> tuple[np.ndarray, sparse.csr_matrix]:
        """The fixed pattern of ``Σ_j δ[c(j)] inc_j inc_jᵀ``, pre-scaled.

        Only vertices of multi-member classes carry an offset.  For each
        such vertex, every pair of sets containing it gets one count on the
        vertex's class.  Returns the pairs' flat indices into the class
        matrix, and the counts (pairs × multi-member classes) times
        ``1 / (|I(a)| |I(b)|)``.
        """
        index = self.plan.index
        width = self.num_sets + 1
        sizes = index.set_sizes()
        rows = np.repeat(class_of_set, sizes)
        columns = np.fromiter(
            chain.from_iterable(index.sets), dtype=np.intp, count=int(sizes.sum())
        )
        offset_column = np.full(width, -1, dtype=np.intp)
        offset_column[self._multi] = np.arange(len(self._multi))
        vertex_column = offset_column[self._class_of_vertex]
        keep = vertex_column[columns] >= 0
        postings = sparse.csc_matrix(
            (np.ones(int(keep.sum())), (rows[keep], columns[keep])),
            shape=(self.num_sets, self.num_vertices),
        )
        starts, lengths = postings.indptr[:-1], np.diff(postings.indptr)
        counts = lengths * lengths
        vertex = np.repeat(np.arange(self.num_vertices), counts)
        within = np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)
        first = postings.indices[starts[vertex] + within // lengths[vertex]]
        second = postings.indices[starts[vertex] + within % lengths[vertex]]
        pairs, pair = np.unique(first * width + second, return_inverse=True)
        scale = self._class_inverse_sizes[first, 0] * self._class_inverse_sizes[second, 0]
        weights = sparse.csr_matrix(
            (scale, (pair, vertex_column[vertex])), shape=(len(pairs), len(self._multi))
        )
        return pairs, weights

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

    @cached_property
    def _vertex_operators(self) -> _Operators:
        return self._build_operators(self._signed_rows)

    # ------------------------------------------------------------------ #
    # Iteration
    # ------------------------------------------------------------------ #
    def iterate(
        self, state: ClassState, factor: float, pin_diagonal: bool
    ) -> ClassState:
        """Perform one shared-sums iteration in class space.

        Parameters
        ----------
        state:
            The current iterate ``s_k`` as a :class:`ClassState`.
        factor:
            Multiplier applied inside the update: the damping factor ``C``
            for conventional SimRank (Eq. 2), ``1.0`` for the differential
            auxiliary sequence ``T_k`` (Eq. 15).
        pin_diagonal:
            Whether to force the diagonal of the result to 1 (Eq. 2 case i).

        Returns
        -------
        ClassState
            The next iterate ``s_{k+1}`` (or ``T_{k+1}``).
        """
        multi = self._multi
        with self._accounted():
            matrix = self._sums(self._class_operators, state.matrix, factor)
            offsets = state.diagonal[multi] - state.matrix[multi, multi]
            matrix.ravel()[self._offset_pairs] += factor * (
                self._offset_weights @ offsets
            )
        state = ClassState(matrix, matrix.diagonal().copy())
        return self.pin(state) if pin_diagonal else state

    def iterate_vertices(
        self, scores: np.ndarray, factor: float, pin_diagonal: bool
    ) -> np.ndarray:
        """Perform one shared-sums iteration on a dense ``n × n`` iterate.

        The vertex-space path of :meth:`iterate`, for iterates that are not
        class-structured (P-Rank mixes in- and out-link scores).  Returns
        ``s_{k+1}``, C-contiguous.
        """
        scores = np.ascontiguousarray(scores, dtype=np.float64)
        with self._accounted():
            matrix = self._sums(self._vertex_operators, scores, factor)
        new_scores = self._gather(matrix)
        if pin_diagonal:
            np.fill_diagonal(new_scores, 1.0)
        return new_scores

    @contextmanager
    def _accounted(self) -> Iterator[None]:
        """Charge one iteration to the counter and the memory tracker."""
        instrumentation = self.instrumentation
        instrumentation.operations.add("inner", self.inner_additions_per_iteration)
        instrumentation.operations.add("outer", self.outer_additions_per_iteration)
        instrumentation.memory.allocate(self._peak_intermediate_values)
        yield
        instrumentation.memory.release(self._peak_intermediate_values)

    def _sums(
        self, operators: _Operators, operand: np.ndarray, factor: float
    ) -> np.ndarray:
        """``factor · D⁻¹ Nₒ operand Nₒᵀ D⁻¹`` as an ``(s+1) × (s+1)`` class
        matrix, where ``Nₒ`` is the set incidence over ``operand``'s columns
        (vertices or classes); the empty class's row and column are zero."""
        num_sets = self.num_sets
        matrix = np.empty((num_sets + 1, num_sets + 1), dtype=np.float64)
        matrix[num_sets] = 0.0
        for block in operators.blocks:
            # Eq. 9, level by level: Partial[level] = Partial[parents] + Δ @ S.
            partial = _run_levels(block.levels, operand, len(block.rows))
            # Prop. 4 over every target set, on the transposed partial sums
            # (pre-scaled by C / |I(s)|; the products need them C-contiguous).
            sources = np.empty((operand.shape[1], len(block.rows)), dtype=np.float64)
            np.multiply(partial.T, factor * block.inverse_sizes, out=sources)
            outer = _run_levels(operators.targets, sources, num_sets + 1)
            outer[num_sets] = 0.0
            outer *= self._class_inverse_sizes
            matrix[block.rows] = outer.T
        return matrix

    def _gather(
        self, matrix: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``P M Pᵀ``: the class matrix gathered to ``n × n``, into ``out``.

        Rows are gathered a slab at a time, so no ``n × (s+1)`` temporary
        is freed next to the result (see :meth:`expand`).
        """
        classes = self._class_of_vertex
        n = self.num_vertices
        if out is None:
            out = np.empty((n, n), dtype=np.float64)
        for start in range(0, n, GATHER_ROWS):
            stop = start + GATHER_ROWS
            # The class indices are in range; "clip" writes to ``out``
            # without a buffer.
            np.take(matrix[classes[start:stop]], classes, axis=1, out=out[start:stop], mode="clip")
        return out

    # ------------------------------------------------------------------ #
    # Class states
    # ------------------------------------------------------------------ #
    def initial_state(self) -> ClassState:
        """Return the SimRank starting point ``s_0 = I_n`` in class space."""
        width = self.num_sets + 1
        matrix = np.zeros((width, width), dtype=np.float64)
        matrix[self._single, self._single] = 1.0
        return ClassState(matrix, self._has_members.copy())

    def pin(self, state: ClassState) -> ClassState:
        """Set every vertex's diagonal entry to 1, in place."""
        state.matrix[self._single, self._single] = 1.0
        state.diagonal[:] = self._has_members
        return state

    def expand(
        self, state: ClassState, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Return the ``n × n`` iterate a class state stands for.

        ``out``, a C-contiguous ``n × n`` array, receives it when given.
        The solvers allocate it before iterating.  Allocated after the class
        iterates, or next to a large gather temporary, it sat among their
        freed buffers, and the heap grew by one more ``n × n`` array for the
        next solve (perfbench's web solve round peaked 11 MB higher).
        """
        scores = self._gather(state.matrix, out)
        np.fill_diagonal(scores, state.diagonal[self._class_of_vertex])
        return scores

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
