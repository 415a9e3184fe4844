"""Unit tests for the sparse similarity store."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.oip_sr import oip_sr
from repro.core.similarity_store import SimilarityStore
from repro.exceptions import ConfigurationError


@pytest.fixture(scope="module")
def dense_result(small_web_graph):
    return oip_sr(small_web_graph, damping=0.6, iterations=6)


class TestConstruction:
    def test_threshold_truncation(self, dense_result):
        store = SimilarityStore.from_result(dense_result, threshold=0.05)
        dense = dense_result.scores
        expected = int(((dense >= 0.05) & ~np.eye(dense.shape[0], dtype=bool)).sum())
        assert store.num_stored_scores == expected

    def test_top_k_truncation(self, dense_result):
        store = SimilarityStore.from_result(dense_result, top_k=5)
        n = dense_result.graph.num_vertices
        assert store.num_stored_scores <= 5 * n
        for vertex in range(0, n, 7):
            ranking = store.top_k(vertex, k=10)
            # Rankings share ranked_entries semantics: zero-score columns
            # pad out to k, but at most 5 stored scores can be positive.
            assert len(ranking) == min(10, n - 1)
            assert sum(1 for _, score in ranking if score > 0.0) <= 5

    def test_invalid_parameters(self, dense_result):
        with pytest.raises(ConfigurationError):
            SimilarityStore.from_result(dense_result, threshold=-1.0)
        with pytest.raises(ConfigurationError):
            SimilarityStore.from_result(dense_result, top_k=0)


class TestQueries:
    def test_pair_lookup_matches_dense(self, dense_result):
        store = SimilarityStore.from_result(dense_result, threshold=0.01)
        graph = dense_result.graph
        for a in range(0, graph.num_vertices, 11):
            for b in range(0, graph.num_vertices, 13):
                dense_value = float(dense_result.scores[a, b])
                stored = store.similarity(a, b)
                if a == b:
                    assert stored == 1.0
                elif dense_value >= 0.01:
                    assert stored == pytest.approx(dense_value)
                else:
                    assert stored == 0.0

    def test_top_k_order_matches_dense(self, dense_result):
        store = SimilarityStore.from_result(dense_result, threshold=0.0)
        query = max(
            dense_result.graph.vertices(), key=dense_result.graph.in_degree
        )
        dense_top = [label for label, _ in dense_result.top_k(query, k=5)]
        stored_top = [label for label, _ in store.top_k(query, k=5)]
        assert stored_top == dense_top

    def test_similarity_row_diagonal(self, dense_result):
        store = SimilarityStore.from_result(dense_result, threshold=0.05)
        row = store.similarity_row(3)
        assert row[3] == 1.0
        assert row.shape == (dense_result.graph.num_vertices,)

    def test_memory_smaller_than_dense(self, dense_result):
        store = SimilarityStore.from_result(dense_result, threshold=0.05)
        dense_bytes = dense_result.scores.nbytes
        assert store.memory_bytes() < dense_bytes
        assert "stored=" in repr(store)


class TestPersistence:
    def test_save_and_load_roundtrip(self, dense_result, tmp_path):
        store = SimilarityStore.from_result(dense_result, threshold=0.02)
        path = tmp_path / "similarities.npz"
        store.save(path)
        loaded = SimilarityStore.load(path, dense_result.graph)
        assert loaded.num_stored_scores == store.num_stored_scores
        assert loaded.algorithm == store.algorithm
        assert loaded.similarity(1, 2) == store.similarity(1, 2)
        query = max(
            dense_result.graph.vertices(), key=dense_result.graph.in_degree
        )
        assert loaded.top_k(query, k=5) == store.top_k(query, k=5)


class TestRowTopK:
    def test_deterministic_tie_break_and_order(self):
        from repro.core.similarity_store import row_top_k

        row = np.array([0.0, 0.5, 0.5, 0.9, 0.1, 0.0])
        columns, values = row_top_k(row, 3)
        # Top 3 by (-score, column): 3 (0.9), then 1 and 2 (tied 0.5).
        assert columns.tolist() == [1, 2, 3]
        assert values.tolist() == [0.5, 0.5, 0.9]

    def test_threshold_and_zero_dropping(self):
        from repro.core.similarity_store import row_top_k

        row = np.array([0.0, 0.04, 0.5, -0.1])
        columns, _ = row_top_k(row, None, threshold=0.05)
        assert columns.tolist() == [2]
        columns, _ = row_top_k(row, None)
        assert columns.tolist() == [1, 2]


class TestRowMutation:
    def test_merge_rows_round_trips_another_results_rows(self, dense_result):
        store = SimilarityStore.from_result(dense_result, top_k=5)
        reference = SimilarityStore.from_result(dense_result, top_k=5)
        other = oip_sr(dense_result.graph, damping=0.8, iterations=6)
        replaced = SimilarityStore.from_result(other, top_k=5)
        rows = [2, 7, 11]
        store.merge_rows(rows, other.scores[rows], top_k=5)
        for row in rows:
            assert store.top_k(row, k=5) == replaced.top_k(row, k=5)
            assert store.top_k(row, k=5) != reference.top_k(row, k=5)
        store.merge_rows(rows, dense_result.scores[rows], top_k=5)
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(
                getattr(store.matrix, part), getattr(reference.matrix, part)
            )

    def test_merge_leaves_other_rows_untouched(self, dense_result):
        store = SimilarityStore.from_result(dense_result, top_k=5)
        untouched_before = store.top_k(1, k=5)
        store.merge_rows([4], dense_result.scores[4][np.newaxis, :], top_k=2)
        assert store.top_k(1, k=5) == untouched_before
        merged = store.top_k(4, k=5)
        assert sum(1 for _, score in merged if score > 0.0) <= 2

    def test_merge_shape_and_duplicate_validation(self, dense_result):
        from repro.exceptions import ConfigurationError as CfgError

        store = SimilarityStore.from_result(dense_result, top_k=5)
        with pytest.raises(CfgError):
            store.merge_rows([0], np.zeros((2, store.num_vertices)))
        with pytest.raises(CfgError):
            store.merge_rows([0, 0], np.zeros((2, store.num_vertices)))
        with pytest.raises(CfgError):
            store.merge_rows([store.num_vertices], np.zeros((1, store.num_vertices)))


class TestExtraMetadataPersistence:
    def test_extra_round_trips(self, dense_result, tmp_path):
        store = SimilarityStore.from_result(dense_result, top_k=4)
        store.extra = {"index_k": 4, "iterations": 6, "backend": "sparse"}
        path = tmp_path / "with-extra.npz"
        store.save(path)
        loaded = SimilarityStore.load(path, dense_result.graph)
        assert loaded.extra == store.extra

    def test_missing_extra_defaults_to_empty(self, dense_result, tmp_path):
        store = SimilarityStore.from_result(dense_result, top_k=4)
        path = tmp_path / "no-extra.npz"
        store.save(path)
        loaded = SimilarityStore.load(path, dense_result.graph)
        # Loading always yields a dict, even for pre-metadata archives.
        assert isinstance(loaded.extra, dict)


class TestPersistencePathNormalisation:
    """ISSUE satellite: ``save(p)``/``load(p)`` must round-trip for any path.

    ``save`` lets numpy append ``.npz`` to suffix-less targets; ``load``
    used to open the literal path instead, so the round trip raised
    ``FileNotFoundError`` for every target without the suffix.
    """

    def test_suffixless_path_round_trips(self, dense_result, tmp_path):
        store = SimilarityStore.from_result(dense_result, top_k=4)
        path = tmp_path / "index"  # no .npz suffix
        store.save(path)
        assert (tmp_path / "index.npz").is_file()
        loaded = SimilarityStore.load(path, dense_result.graph)
        assert (loaded.matrix != store.matrix).nnz == 0

    def test_foreign_suffix_round_trips(self, dense_result, tmp_path):
        store = SimilarityStore.from_result(dense_result, top_k=4)
        path = tmp_path / "index.v1"
        store.save(path)
        loaded = SimilarityStore.load(path, dense_result.graph)
        assert (loaded.matrix != store.matrix).nnz == 0

    def test_explicit_npz_suffix_unchanged(self, dense_result, tmp_path):
        store = SimilarityStore.from_result(dense_result, top_k=4)
        path = tmp_path / "index.npz"
        store.save(path)
        assert path.is_file()
        assert not (tmp_path / "index.npz.npz").exists()


class TestTopKRankingContract:
    """ISSUE satellite: ``top_k`` must share ``ranked_entries`` semantics.

    The old implementation filtered ``candidate != index`` *after* the
    ``order[:k]`` slice and never zero-padded, so rankings could come back
    short (or drop a real candidate when the diagonal was stored).
    """

    def test_top_k_matches_ranked_entries_exactly(self, dense_result):
        from repro.core.similarity_store import ranked_entries

        store = SimilarityStore.from_result(dense_result, top_k=5)
        n = store.num_vertices
        for vertex in range(n):
            row = np.asarray(
                store.matrix.getrow(vertex).todense(), dtype=np.float64
            ).ravel()
            expected = ranked_entries(row, 8, exclude=vertex)
            assert store.top_k(vertex, k=8) == [
                (store.graph.label_of(column), score)
                for column, score in expected
            ]

    def test_explicit_diagonal_does_not_shorten_the_ranking(self, dense_result):
        # Force a stored diagonal entry: the old post-slice filter would
        # have dropped it from the k kept entries and returned k-1.
        store = SimilarityStore.from_result(dense_result, top_k=5)
        matrix = store.matrix.tolil()
        matrix[0, 0] = 1.0
        store._matrix = matrix.tocsr()
        ranking = store.top_k(0, k=5)
        assert len(ranking) == 5
        assert all(label != store.graph.label_of(0) for label, _ in ranking)

    def test_sparse_rows_are_zero_padded(self, dense_result):
        store = SimilarityStore.from_result(dense_result, top_k=2)
        n = store.num_vertices
        ranking = store.top_k(1, k=6)
        assert len(ranking) == min(6, n - 1)
        positive = [entry for entry in ranking if entry[1] > 0.0]
        padding = ranking[len(positive):]
        assert all(score == 0.0 for _, score in padding)
        # Zero padding arrives in ascending id order, as ranked_entries does.
        pad_ids = [store.graph.index_of(label) for label, _ in padding]
        assert pad_ids == sorted(pad_ids)


class TestRmatEquivalence:
    """ISSUE satellite: exact .npz round trip + store-vs-full-matrix ranking
    agreement on a random r-mat graph."""

    @pytest.fixture(scope="class")
    def rmat_result(self):
        from repro.api import simrank
        from repro.graph.generators.rmat import rmat_edge_list

        graph = rmat_edge_list(7, 3 * 128, seed=13)
        return simrank(
            graph, method="matrix", backend="sparse", damping=0.6, iterations=12
        )

    def test_round_trip_preserves_scores_exactly(self, rmat_result, tmp_path):
        store = SimilarityStore.from_result(rmat_result, top_k=15)
        path = tmp_path / "rmat.npz"
        store.save(path)
        loaded = SimilarityStore.load(path, rmat_result.graph)
        for vertex in range(0, store.num_vertices, 5):
            assert np.array_equal(
                loaded.similarity_row(vertex), store.similarity_row(vertex)
            )

    def test_store_rankings_match_full_matrix(self, rmat_result):
        store = SimilarityStore.from_result(rmat_result, top_k=15)
        for vertex in range(0, rmat_result.graph.num_vertices, 3):
            stored = store.top_k(vertex, k=10)
            full = rmat_result.top_k(vertex, k=10)
            # The stored ranking is exactly the positive-score prefix of the
            # full one; the remainder of the full ranking is zero padding.
            assert [label for label, _ in stored] == [
                label for label, _ in full[: len(stored)]
            ]
            assert all(score == 0.0 for _, score in full[len(stored):])
