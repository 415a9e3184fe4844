"""Per-set reference for :class:`~repro.core.sharing_engine.SharingEngine`.

This is Algorithm 1 + Procedure OP executed literally: the sets are walked
one at a time in depth-first order, each inner partial sum is built from
its tree parent's cached vector (Eq. 9) or from scratch, the Prop. 4 outer
pass runs once per source set, every member row is written in a loop, and
cached vectors are freed (and the memory tracker told) as soon as their
subtree is done.  The level-synchronous engine must reproduce its scores to
rounding and its operation counts and memory peak exactly.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.core.instrumentation import Instrumentation
from repro.core.plans import ROOT, SharingPlan


class PerSetSharingEngine:
    """One shared-sums iteration per call, one Python step per set."""

    def __init__(
        self, num_vertices: int, plan: SharingPlan, instrumentation: Instrumentation
    ) -> None:
        index = plan.index
        self.num_vertices = num_vertices
        self.num_sets = index.num_sets
        self.instrumentation = instrumentation
        self._set_indices = [
            np.asarray(index.sets[set_id], dtype=np.intp)
            for set_id in range(self.num_sets)
        ]
        self._member_indices = [
            np.asarray(index.members[set_id], dtype=np.intp)
            for set_id in range(self.num_sets)
        ]
        self._set_sizes = np.array(
            [index.set_size(set_id) for set_id in range(self.num_sets)],
            dtype=np.float64,
        )
        self._parents = np.array([node.parent for node in plan.nodes], dtype=np.int64)
        self._is_delta = np.array(
            [node.mode == "delta" for node in plan.nodes], dtype=bool
        )
        self._removed_indices = [
            np.asarray(node.removed, dtype=np.intp) for node in plan.nodes
        ]
        self._added_indices = [
            np.asarray(node.added, dtype=np.intp) for node in plan.nodes
        ]
        self._dfs_order = plan.dfs_order()
        self._children_counts = np.array(
            [len(plan.children_of(set_id)) for set_id in range(self.num_sets)],
            dtype=np.int64,
        )
        self._vertex_set_id = np.where(
            index.set_of_vertex >= 0, index.set_of_vertex, self.num_sets
        ).astype(np.intp)
        outer_ops = 0
        for node in plan.nodes:
            if node.mode == "delta":
                outer_ops += len(node.removed) + len(node.added)
            else:
                outer_ops += max(index.set_size(node.set_id) - 1, 0)
        self._outer_additions_per_pass = outer_ops
        self._build_outer_pass_arrays()

    def _build_outer_pass_arrays(self) -> None:
        scratch_ids, scratch_concat, scratch_segments = [], [], []
        delta_ids, delta_position = [], {}
        removed_concat, removed_segments = [], []
        added_concat, added_segments = [], []
        for set_id in self._dfs_order:
            if self._is_delta[set_id]:
                segment = len(delta_ids)
                delta_position[set_id] = segment
                delta_ids.append(set_id)
                for vertex in self._removed_indices[set_id]:
                    removed_concat.append(int(vertex))
                    removed_segments.append(segment)
                for vertex in self._added_indices[set_id]:
                    added_concat.append(int(vertex))
                    added_segments.append(segment)
            else:
                segment = len(scratch_ids)
                scratch_ids.append(set_id)
                for vertex in self._set_indices[set_id]:
                    scratch_concat.append(int(vertex))
                    scratch_segments.append(segment)
        self._scratch_ids = np.asarray(scratch_ids, dtype=np.intp)
        self._scratch_concat = np.asarray(scratch_concat, dtype=np.intp)
        self._scratch_segments = np.asarray(scratch_segments, dtype=np.intp)
        self._delta_ids = np.asarray(delta_ids, dtype=np.intp)
        self._delta_concat = np.asarray(removed_concat + added_concat, dtype=np.intp)
        self._delta_segments = np.asarray(
            removed_segments + added_segments, dtype=np.intp
        )
        self._delta_signs = np.concatenate(
            [-np.ones(len(removed_concat)), np.ones(len(added_concat))]
        )
        anchors, indicator_rows, indicator_cols = [], [], []
        for position, set_id in enumerate(delta_ids):
            node = set_id
            while self._is_delta[node]:
                indicator_rows.append(position)
                indicator_cols.append(delta_position[node])
                node = int(self._parents[node])
            anchors.append(node)
        self._delta_anchor_ids = np.asarray(anchors, dtype=np.intp)
        self._delta_ancestor_matrix = sparse.csr_matrix(
            (np.ones(len(indicator_rows)), (indicator_rows, indicator_cols)),
            shape=(len(delta_ids), len(delta_ids)),
        )

    def iterate(self, scores: np.ndarray, factor: float, pin_diagonal: bool) -> np.ndarray:
        n = self.num_vertices
        operations = self.instrumentation.operations
        memory = self.instrumentation.memory
        new_scores = np.zeros((n, n), dtype=np.float64)
        outer = np.zeros(self.num_sets, dtype=np.float64)
        row_values = np.zeros(self.num_sets + 1, dtype=np.float64)
        memory.allocate(self.num_sets * 2 + 1)
        partial_of: dict[int, np.ndarray] = {}
        remaining_children = self._children_counts.copy()
        for set_id in self._dfs_order:
            partial = self._inner_partial(set_id, scores, partial_of)
            partial_of[set_id] = partial
            memory.allocate(n)
            self._outer_pass(partial, outer)
            operations.add("outer", self._outer_additions_per_pass)
            scale = factor / self._set_sizes[set_id]
            np.divide(outer, self._set_sizes, out=row_values[: self.num_sets])
            row_values[: self.num_sets] *= scale
            row = row_values[self._vertex_set_id]
            for vertex in self._member_indices[set_id]:
                new_scores[vertex, :] = row
            self._release_finished(set_id, partial_of, remaining_children)
        memory.release(self.num_sets * 2 + 1)
        if pin_diagonal:
            np.fill_diagonal(new_scores, 1.0)
        return new_scores

    def _inner_partial(self, set_id, scores, partial_of) -> np.ndarray:
        n = self.num_vertices
        operations = self.instrumentation.operations
        if self._is_delta[set_id]:
            partial = partial_of[int(self._parents[set_id])].copy()
            removed = self._removed_indices[set_id]
            added = self._added_indices[set_id]
            if removed.size:
                partial -= scores[removed, :].sum(axis=0)
            if added.size:
                partial += scores[added, :].sum(axis=0)
            operations.add("inner", (removed.size + added.size) * n)
            return partial
        indices = self._set_indices[set_id]
        operations.add("inner", max(indices.size - 1, 0) * n)
        return scores[indices, :].sum(axis=0)

    def _outer_pass(self, partial: np.ndarray, outer: np.ndarray) -> None:
        if self._scratch_ids.size:
            outer[self._scratch_ids] = np.bincount(
                self._scratch_segments,
                weights=partial[self._scratch_concat],
                minlength=self._scratch_ids.size,
            )
        if self._delta_ids.size:
            net_deltas = np.bincount(
                self._delta_segments,
                weights=partial[self._delta_concat] * self._delta_signs,
                minlength=self._delta_ids.size,
            )
            cumulative = self._delta_ancestor_matrix @ net_deltas
            outer[self._delta_ids] = outer[self._delta_anchor_ids] + cumulative

    def _release_finished(self, set_id, partial_of, remaining_children) -> None:
        node = set_id
        while remaining_children[node] == 0:
            parent = int(self._parents[node])
            if node in partial_of:
                del partial_of[node]
                self.instrumentation.memory.release(self.num_vertices)
            if parent == ROOT:
                break
            remaining_children[parent] -= 1
            node = parent
