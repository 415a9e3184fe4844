"""Sparse storage of SimRank results (threshold- or top-k-truncated).

The paper's memory discussion (Fig. 6d) presumes that on large graphs one
never keeps the dense ``n × n`` similarity matrix: after threshold sieving,
only the scores that survive — or only each vertex's top-k — are retained.
:class:`SimilarityStore` is that retained representation: a CSR matrix of the
surviving off-diagonal scores plus the implicit unit diagonal, with the query
operations the examples and workloads need (pair lookup, row retrieval,
top-k) and a compressed on-disk round trip via ``numpy``'s ``.npz`` format.

The store doubles as the persisted index format of the online serving layer
(:mod:`repro.service`), which needs one row-granular mutation on top of the
read path: :meth:`merge_rows` / :meth:`merge_row_parts` splice freshly
recomputed rows in without rebuilding the whole matrix.  A graph mutation
does not touch the store; the service's per-row version stamps keep its
stale rows from being served until a merge replaces them.
"""

from __future__ import annotations

import json
from collections.abc import Hashable, Sequence
from pathlib import Path
from typing import Optional, Union

import numpy as np
from scipy import sparse

from ..exceptions import ConfigurationError
from ..graph.digraph import DiGraph
from .result import SimRankResult

__all__ = ["SimilarityStore", "ranked_entries", "row_top_k"]

PathLike = Union[str, Path]


def _npz_path(path: PathLike) -> Path:
    """Normalise a store path to carry the ``.npz`` suffix.

    ``numpy.savez_compressed`` appends ``.npz`` to suffix-less paths on its
    own, which ``numpy.load`` does not mirror — so the normalisation must
    happen here, identically for :meth:`SimilarityStore.save` and
    :meth:`SimilarityStore.load`, or ``save(p)`` / ``load(p)`` breaks for
    any ``p`` without the suffix.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    return path


def row_top_k(
    row: np.ndarray, k: Optional[int], threshold: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Return the ``(columns, values)`` of the ``k`` best scores in ``row``.

    Selection keeps strictly positive scores at or above ``threshold`` and
    orders candidates by ``(-score, column)`` — the deterministic tie-break
    every ranking path in the package uses — so a truncated row's prefix is
    always exactly the prefix of the full ranking.  The returned columns are
    sorted ascending (canonical CSR order).  ``k=None`` keeps every
    surviving score.

    The k-th best score is found with ``np.partition``; only the
    candidates at or above it (ties included) are sorted, and only when
    ties leave more than ``k`` of them.
    """
    row = np.asarray(row, dtype=np.float64).ravel()
    keep = row > 0.0
    if threshold > 0.0:
        keep &= row >= threshold
    candidates = np.flatnonzero(keep)
    if k is not None and candidates.size > k:
        values = row[candidates]
        cut = values.size - max(k, 1)
        candidates = candidates[values >= np.partition(values, cut)[cut]]
        if candidates.size > k:
            # (-score, column) order via lexsort: the last key is primary.
            order = np.lexsort((candidates, -row[candidates]))[:k]
            candidates = np.sort(candidates[order])
    return candidates.astype(np.int64), row[candidates]


def ranked_entries(
    row: np.ndarray, k: int, exclude: Optional[int] = None
) -> list[tuple[int, float]]:
    """Return the top-``k`` ``(column, score)`` entries of ``row``, ranked.

    This is the single implementation of the package's ranking semantics —
    :func:`repro.simrank_top_k`, the serving engine's on-demand tier and
    the engine facade all truncate through it, so a ranking means the same
    thing on every path:

    * candidates are ordered by ``(-score, column)`` (the deterministic
      tie-break of :func:`row_top_k`);
    * ``exclude`` (the query vertex, for ``include_self=False``) never
      appears;
    * zero-score columns pad the ranking in ascending column order — the
      exact ordering a full ``(-score, id)`` sort of the row produces,
      since every zero ties.

    **Short rankings.**  The result holds ``min(k, n - excluded)`` entries:
    on a graph with at most ``k`` (other) vertices the list is shorter
    than ``k``.  Entries beyond the query's reach carry score 0.0; entries
    beyond the vertex set do not exist.
    """
    row = np.asarray(row, dtype=np.float64).ravel()
    if exclude is not None and row[exclude] != 0.0:
        row = row.copy()
        row[exclude] = 0.0
    columns, values = row_top_k(row, k)
    # row_top_k returns canonical ascending-column CSR order; a ranking
    # wants (-score, column) order back.
    order = np.lexsort((columns, -values))
    entries = [
        (int(columns[position]), float(values[position])) for position in order
    ]
    if len(entries) < k:
        positive = set(int(column) for column in columns)
        for candidate in range(row.size):
            if len(entries) == k:
                break
            if candidate == exclude or candidate in positive:
                continue
            entries.append((candidate, 0.0))
    return entries


class SimilarityStore:
    """Truncated, sparse view of an all-pairs similarity matrix.

    Build one with :meth:`from_result`, passing either a score ``threshold``
    (keep every off-diagonal score at or above it — the paper's sieving rule)
    or ``top_k`` (keep the k best scores per row), or both.  The diagonal is
    implicit and always 1.
    """

    def __init__(
        self,
        matrix: sparse.csr_matrix,
        graph: DiGraph,
        algorithm: str = "",
        damping: float = 0.0,
        extra: Optional[dict[str, object]] = None,
    ) -> None:
        if matrix.shape[0] != matrix.shape[1]:
            raise ConfigurationError("similarity matrix must be square")
        if matrix.shape[0] != graph.num_vertices:
            raise ConfigurationError(
                "similarity matrix size must match the graph's vertex count"
            )
        self._matrix = matrix.tocsr()
        self.graph = graph
        self.algorithm = algorithm
        self.damping = damping
        self.extra: dict[str, object] = dict(extra) if extra else {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_result(
        cls,
        result: SimRankResult,
        threshold: float = 0.0,
        top_k: Optional[int] = None,
    ) -> "SimilarityStore":
        """Build a store from a dense :class:`SimRankResult`.

        Parameters
        ----------
        result:
            The dense result to truncate.
        threshold:
            Keep off-diagonal scores ``>= threshold`` (0 keeps every non-zero
            score).
        top_k:
            When given, additionally keep at most ``top_k`` scores per row
            (the largest ones).
        """
        if threshold < 0:
            raise ConfigurationError("threshold must be non-negative")
        if top_k is not None and top_k <= 0:
            raise ConfigurationError("top_k must be positive when given")
        scores = np.array(result.scores, copy=True)
        np.fill_diagonal(scores, 0.0)
        # Row-wise :func:`row_top_k` truncation: ties at the k-th position
        # resolve by vertex id, so every stored row is exactly a prefix of
        # the full deterministic ranking (rows with fewer than k surviving
        # scores simply keep what they have).
        n = scores.shape[0]
        columns_parts: list[np.ndarray] = []
        data_parts: list[np.ndarray] = []
        indptr = np.zeros(n + 1, dtype=np.int64)
        for vertex in range(n):
            columns, values = row_top_k(scores[vertex], top_k, threshold=threshold)
            columns_parts.append(columns)
            data_parts.append(values)
            indptr[vertex + 1] = indptr[vertex] + columns.size
        matrix = sparse.csr_matrix(
            (
                np.concatenate(data_parts) if data_parts else np.empty(0),
                np.concatenate(columns_parts)
                if columns_parts
                else np.empty(0, np.int64),
                indptr,
            ),
            shape=(n, n),
        )
        return cls(
            matrix,
            result.graph,
            algorithm=result.algorithm,
            damping=result.damping,
        )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def matrix(self) -> sparse.csr_matrix:
        """The stored off-diagonal scores as a CSR matrix (no copy).

        Exposed for whole-store comparisons (the scaling benchmark checks a
        parallel build against a serial one entry for entry) and for bulk
        analytics; mutate through :meth:`merge_rows` /
        :meth:`merge_row_parts`, which replace the matrix and never write
        to its arrays, so a memory-mapped base stays read-only.
        """
        return self._matrix

    @property
    def num_vertices(self) -> int:
        """Number of vertices covered by the store."""
        return self._matrix.shape[0]

    @property
    def num_stored_scores(self) -> int:
        """Number of retained off-diagonal scores."""
        return int(self._matrix.nnz)

    def memory_bytes(self) -> int:
        """Approximate in-memory footprint of the stored scores."""
        return int(
            self._matrix.data.nbytes
            + self._matrix.indices.nbytes
            + self._matrix.indptr.nbytes
        )

    def similarity(self, first: Hashable, second: Hashable) -> float:
        """Return the stored ``s(first, second)`` (0 if truncated away)."""
        a = self.graph.index_of(first)
        b = self.graph.index_of(second)
        if a == b:
            return 1.0
        return float(self._matrix[a, b])

    def similarity_row(self, vertex: Hashable) -> np.ndarray:
        """Return the (dense) stored row for ``vertex``, diagonal included."""
        index = self.graph.index_of(vertex)
        row = np.asarray(self._matrix.getrow(index).todense()).ravel()
        row[index] = 1.0
        return row

    def top_k(self, vertex: Hashable, k: int = 10) -> list[tuple[Hashable, float]]:
        """Return the ``k`` best stored scores for ``vertex``, ranked.

        The ranking follows :func:`ranked_entries` exactly — ``(-score,
        vertex id)`` order, the query vertex excluded, zero-score vertices
        padding the tail in id order — so a store lookup, a served index
        row and an on-demand evaluation all mean the same thing by "top
        k".  (An earlier implementation filtered the query vertex *after*
        truncating to ``k`` and never padded, so rows storing an explicit
        diagonal came back short and sparse rows came back unpadded.)
        """
        index = self.graph.index_of(vertex)
        start, stop = self._matrix.indptr[index], self._matrix.indptr[index + 1]
        row = np.zeros(self.num_vertices, dtype=np.float64)
        row[self._matrix.indices[start:stop]] = self._matrix.data[start:stop]
        return [
            (self.graph.label_of(candidate), score)
            for candidate, score in ranked_entries(row, k, exclude=index)
        ]

    # ------------------------------------------------------------------ #
    # Row-granular mutation (the serving layer's incremental-update hook)
    # ------------------------------------------------------------------ #
    def merge_rows(
        self,
        rows: Sequence[int],
        dense_rows: np.ndarray,
        top_k: Optional[int] = None,
        threshold: float = 0.0,
    ) -> None:
        """Replace the given rows with (truncated) freshly computed scores.

        Parameters
        ----------
        rows:
            Row indices to replace; one per row of ``dense_rows``.
        dense_rows:
            ``(len(rows), n)`` array of similarity rows.  Diagonal entries
            are ignored (the diagonal is implicit and always 1).
        top_k, threshold:
            Truncation applied to each refreshed row before it is stored,
            with the same semantics as :meth:`from_result`.
        """
        indices = self._validate_rows(rows)
        dense_rows = np.atleast_2d(np.asarray(dense_rows, dtype=np.float64))
        if dense_rows.shape != (indices.size, self.num_vertices):
            raise ConfigurationError(
                f"expected dense_rows of shape {(indices.size, self.num_vertices)}, "
                f"got {dense_rows.shape}"
            )
        parts: list[tuple[np.ndarray, np.ndarray]] = []
        for position, row_index in enumerate(indices):
            fresh = dense_rows[position].copy()
            fresh[row_index] = 0.0
            parts.append(row_top_k(fresh, top_k, threshold=threshold))
        self.merge_row_parts(indices, parts)

    def merge_row_parts(
        self,
        rows: Sequence[int],
        parts: Sequence[tuple[np.ndarray, np.ndarray]],
    ) -> None:
        """Replace rows with already-truncated ``(columns, values)`` parts.

        The sparse-input sibling of :meth:`merge_rows` — the durable
        catalog's restore splices persisted truncated rows straight in
        without densifying them first.  Each part must follow the
        :func:`row_top_k` convention: strictly ascending columns (a
        repeated column is rejected, never summed), diagonal excluded.
        Explicit zeros are dropped.

        The new CSR is a splice: the runs of untouched rows between the
        replaced ones are copied over unchanged and the parts inserted
        between them, so a merge costs one copy of the stored arrays plus
        the parts — never a rebuild — and a memory-mapped base is only
        ever read.
        """
        indices = self._validate_rows(rows)
        if len(parts) != indices.size:
            raise ConfigurationError(
                f"expected {indices.size} row parts, got {len(parts)}"
            )
        order = np.argsort(indices, kind="stable")
        ordered = indices[order]
        if np.any(ordered[1:] == ordered[:-1]):
            raise ConfigurationError("rows to merge must be distinct")

        matrix = self._matrix
        n = self.num_vertices
        indptr = np.asarray(matrix.indptr)
        lengths = np.diff(indptr)
        column_runs: list[np.ndarray] = []
        value_runs: list[np.ndarray] = []
        cursor = 0
        for position in order.tolist():
            row_index = int(indices[position])
            columns, values = parts[position]
            columns = np.asarray(columns, dtype=np.int64).ravel()
            values = np.asarray(values, dtype=np.float64).ravel()
            if columns.size != values.size:
                raise ConfigurationError(
                    f"row part for row {row_index} has {columns.size} columns "
                    f"but {values.size} values"
                )
            if np.any(columns[1:] <= columns[:-1]):
                raise ConfigurationError(
                    f"row part for row {row_index} has columns that are not "
                    "strictly ascending"
                )
            if columns.size and (columns[0] < 0 or columns[-1] >= n):
                raise ConfigurationError(
                    f"row part for row {row_index} names columns outside "
                    f"[0, {n})"
                )
            if not values.all():
                nonzero = values != 0.0
                columns, values = columns[nonzero], values[nonzero]
            start = int(indptr[row_index])
            column_runs += [
                matrix.indices[cursor:start],
                columns.astype(matrix.indices.dtype, copy=False),
            ]
            value_runs += [matrix.data[cursor:start], values]
            lengths[row_index] = columns.size
            cursor = int(indptr[row_index + 1])
        column_runs.append(matrix.indices[cursor:])
        value_runs.append(matrix.data[cursor:])

        # int32 index arrays whenever they fit, as scipy would choose —
        # handing it int64 makes the constructor scan and copy them.
        nnz = int(lengths.sum(dtype=np.int64))
        index_dtype = np.int32 if max(nnz, n) <= np.iinfo(np.int32).max else np.int64
        new_indptr = np.zeros(n + 1, dtype=index_dtype)
        np.cumsum(lengths, out=new_indptr[1:])
        self._matrix = sparse.csr_matrix(
            (
                np.concatenate(value_runs),
                np.concatenate(column_runs).astype(index_dtype, copy=False),
                new_indptr,
            ),
            shape=matrix.shape,
        )

    def _validate_rows(self, rows: Sequence[int]) -> np.ndarray:
        indices = np.asarray(list(rows), dtype=np.int64).ravel()
        if indices.size and (
            indices.min() < 0 or indices.max() >= self.num_vertices
        ):
            raise ConfigurationError(
                f"row indices must lie in [0, {self.num_vertices}), got "
                f"range [{indices.min()}, {indices.max()}]"
            )
        return indices

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, path: PathLike) -> None:
        """Write the store to ``path`` (a ``.npz`` file).

        Paths without the ``.npz`` suffix gain it — symmetrically with
        :meth:`load`, so ``save(p)`` followed by ``load(p)`` round-trips
        for any path.
        """
        path = _npz_path(path)
        np.savez_compressed(
            path,
            data=self._matrix.data,
            indices=self._matrix.indices,
            indptr=self._matrix.indptr,
            shape=np.asarray(self._matrix.shape),
            algorithm=np.asarray(self.algorithm),
            damping=np.asarray(self.damping),
            extra=np.asarray(json.dumps(self.extra)),
        )

    @classmethod
    def load(cls, path: PathLike, graph: DiGraph) -> "SimilarityStore":
        """Read a store written by :meth:`save`; the graph supplies labels.

        The path is normalised exactly as :meth:`save` normalises it, so a
        suffix-less ``save(p)`` target loads back under the same ``p``.
        """
        path = _npz_path(path)
        with np.load(path, allow_pickle=False) as archive:
            matrix = sparse.csr_matrix(
                (archive["data"], archive["indices"], archive["indptr"]),
                shape=tuple(archive["shape"]),
            )
            algorithm = str(archive["algorithm"])
            damping = float(archive["damping"])
            # Stores written before the metadata field carry no "extra" key.
            extra = (
                json.loads(str(archive["extra"])) if "extra" in archive else {}
            )
        return cls(matrix, graph, algorithm=algorithm, damping=damping, extra=extra)

    def __repr__(self) -> str:
        return (
            f"<SimilarityStore n={self.num_vertices} "
            f"stored={self.num_stored_scores} "
            f"bytes={self.memory_bytes()}>"
        )
