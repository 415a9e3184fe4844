"""Integration tests for the tiered similarity-serving engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import simrank, simrank_top_k
from repro.baselines.topk import top_k_from_result
from repro.exceptions import ConfigurationError
from repro.graph.digraph import DiGraph, GraphBuilder
from repro.service import (
    ErrorCode,
    QueryRequest,
    ServeError,
    SimilarityService,
    build_index,
)
from repro.core.similarity_store import SimilarityStore

ITERATIONS = 25
DAMPING = 0.6


def make_service(graph, with_index=True, **kwargs):
    index = (
        build_index(graph, index_k=20, damping=DAMPING, iterations=ITERATIONS)
        if with_index
        else None
    )
    kwargs.setdefault("damping", DAMPING)
    kwargs.setdefault("iterations", ITERATIONS)
    return SimilarityService(graph, index, **kwargs)


class TestTierOrder:
    def test_first_hit_is_index_then_cache(self, served_graph):
        service = make_service(served_graph)
        first = service.top_k(3, k=10)
        second = service.top_k(3, k=10)
        assert first.entries == second.entries
        snapshot = service.stats.snapshot()
        assert snapshot["index_hits"] == 1
        assert snapshot["cache_hits"] == 1
        assert snapshot["compute_hits"] == 0

    def test_without_index_everything_computes(self, served_graph):
        service = make_service(served_graph, with_index=False, cache_size=0)
        service.top_k(3, k=10)
        service.top_k(3, k=10)
        assert service.stats.snapshot()["compute_hits"] == 2

    def test_k_beyond_index_truncation_falls_through(self, served_graph):
        service = make_service(served_graph)  # index_k=20
        service.top_k(3, k=30)
        snapshot = service.stats.snapshot()
        assert snapshot["index_hits"] == 0
        assert snapshot["compute_hits"] == 1

    def test_miss_warms_the_index(self, served_graph):
        service = make_service(served_graph, with_index=True, cache_size=0)
        # Any mutation stales every index row; a stale row is a compute miss
        # that merges the fresh row back, so the second query hits the index.
        if not service.add_edge(0, 1):
            service.remove_edge(0, 1)
        service.top_k(3, k=10)  # compute (stale row) + merge back
        service.top_k(3, k=10)  # now an index hit again
        snapshot = service.stats.snapshot()
        assert snapshot["compute_hits"] == 1
        assert snapshot["index_hits"] == 1

    def test_batch_misses_coalesce_into_one_backend_call(self, served_graph):
        service = make_service(served_graph, with_index=False)
        queries = list(range(0, 40))
        rankings = service.top_k_many(queries, k=5)
        assert len(rankings) == len(queries)
        assert service.batcher.batches_issued == 1


class TestExactness:
    def test_index_tier_matches_full_matrix(self, served_graph, full_result):
        service = make_service(served_graph)
        for query in range(0, served_graph.num_vertices, 7):
            served = service.top_k(query, k=10)
            assert served.labels() == top_k_from_result(
                full_result, query, k=10
            ).labels()

    def test_compute_tier_matches_simrank_top_k(self, served_graph):
        service = make_service(served_graph, with_index=False, cache_size=0)
        queries = [1, 9, 33]
        expected = simrank_top_k(
            served_graph, queries, k=8, damping=DAMPING, iterations=ITERATIONS
        )
        for query, reference in zip(queries, expected):
            assert service.top_k(query, k=8).labels() == reference.labels()
            assert service.top_k(query, k=8).scores() == pytest.approx(
                reference.scores(), abs=1e-12
            )

    def test_sparse_rows_pad_like_the_full_ranking(self):
        # Two disconnected 2-cycles: most similarity rows hold almost no
        # positive scores, so rankings continue with zero-score vertices in
        # id order — the index tier must reproduce that padding exactly.
        builder = GraphBuilder()
        builder.add_edges([(0, 1), (1, 0), (2, 3), (3, 2)])
        for vertex in (4, 5):
            builder.add_vertex(vertex)
        graph = builder.build()
        service = SimilarityService(
            graph,
            build_index(graph, index_k=4, damping=DAMPING, iterations=ITERATIONS),
            damping=DAMPING,
            iterations=ITERATIONS,
        )
        expected = simrank_top_k(
            graph, list(graph.vertices()), k=4, damping=DAMPING,
            iterations=ITERATIONS,
        )
        for query, reference in zip(graph.vertices(), expected):
            assert service.top_k(query, k=4).labels() == reference.labels()
        assert service.stats.snapshot()["index_hits"] == graph.num_vertices


class TestUpdates:
    def test_add_and_remove_edges(self, served_graph):
        service = make_service(served_graph, with_index=False)
        # Force a known state: ensure the edge exists, then remove it.
        service.add_edge(0, 1)
        before = service.num_edges
        assert service.has_edge(0, 1)
        assert service.remove_edge(0, 1)
        assert not service.has_edge(0, 1)
        assert service.remove_edge(0, 1) is False  # already gone
        assert service.num_edges == before - 1

    def test_mutation_marks_dirty_and_clears_cache(self, served_graph):
        service = make_service(served_graph)
        service.top_k(3, k=10)
        service.top_k(3, k=10)  # cached
        version = service.version
        assert service.add_edge(40, 41)
        assert service.version == version + 1
        assert service.dirty_vertices == {40, 41}
        assert len(service.cache) == 0

    def test_mutation_leaves_the_index_arrays_alone(self, served_graph):
        # Every row's version stamp is behind the graph's after a mutation,
        # so nothing needs rewriting: the stale rows are never served.
        service = make_service(served_graph)
        matrix = service.index.matrix
        arrays = (matrix.indptr, matrix.indices, matrix.data)
        contents = [array.copy() for array in arrays]
        assert service.add_edge(40, 41)
        after = service.index.matrix
        assert after is matrix
        for array, now, copy in zip(
            arrays, (after.indptr, after.indices, after.data), contents
        ):
            assert now is array
            assert np.array_equal(now, copy)
        for vertex in (40, 41, 3):
            assert service.query(QueryRequest(query=vertex, k=10)).tier == "compute"

    def test_duplicate_insert_is_a_noop(self, served_graph):
        service = make_service(served_graph, with_index=False)
        service.add_edge(10, 11)
        version = service.version
        assert service.add_edge(10, 11) is False
        assert service.version == version

    def test_refresh_recomputes_only_dirty_rows(self, served_graph):
        service = make_service(served_graph)
        service.add_edge(50, 51)
        service.add_edge(52, 53)
        assert service.refresh() == 4
        assert service.dirty_vertices == frozenset()
        assert service.stats.refreshed_rows == 4

    def test_incremental_refresh_matches_rebuild(self, served_graph):
        service = make_service(served_graph)
        rng = np.random.default_rng(3)
        inserted = 0
        while inserted < 5:
            source = int(rng.integers(served_graph.num_vertices))
            target = int(rng.integers(served_graph.num_vertices))
            if source != target and service.add_edge(source, target):
                inserted += 1
        dirty = set(service.dirty_vertices)
        service.refresh()

        mutated = service.current_graph()
        rebuilt = SimilarityService(
            mutated,
            build_index(mutated, index_k=20, damping=DAMPING, iterations=ITERATIONS),
            damping=DAMPING,
            iterations=ITERATIONS,
        )
        oracle = simrank(
            mutated, method="matrix", backend="sparse", damping=DAMPING,
            iterations=ITERATIONS, diagonal="matrix",
        )
        sample = sorted(dirty | set(range(0, served_graph.num_vertices, 11)))
        for query in sample:
            incremental = service.top_k(query, k=10).labels()
            assert incremental == rebuilt.top_k(query, k=10).labels()
            assert incremental == top_k_from_result(oracle, query, k=10).labels()

    def test_lazy_rows_recompute_exactly_after_mutation(self, served_graph):
        # Rows outside the refreshed dirty set must still serve answers for
        # the *current* graph (recomputed lazily), not stale index rows.
        service = make_service(served_graph)
        service.top_k(5, k=10)
        service.add_edge(5, 90)
        service.refresh(vertices=[90])  # 5 stays stale on purpose
        oracle = simrank(
            service.current_graph(), method="matrix", backend="sparse",
            damping=DAMPING, iterations=ITERATIONS, diagonal="matrix",
        )
        assert service.top_k(5, k=10).labels() == top_k_from_result(
            oracle, 5, k=10
        ).labels()

    def test_compute_answer_stamped_with_the_version_it_was_computed_at(
        self, monkeypatch
    ):
        # Two mutations land between the miss probe (version 0) and the
        # flush, so the row is computed on version 2 and must say so.
        service = make_service(DiGraph(5, []), with_index=False, cache_size=0)
        submit_many = service.batcher.submit_many

        def mutate_then_submit(indices):
            service.add_edge(0, 1)
            service.add_edge(0, 2)
            return submit_many(indices)

        monkeypatch.setattr(service.batcher, "submit_many", mutate_then_submit)
        response = service.query(QueryRequest(query=1, k=4))
        assert response.tier == "compute"
        assert response.graph_version == service.version == 2
        oracle = make_service(service.current_graph(), with_index=False)
        assert response.entries == oracle.query(QueryRequest(query=1, k=4)).entries
        # The version-0 answer, with no edges, scores every vertex 0.
        assert max(score for _, score in response.entries) > 0.0


class TestValidation:
    def test_mismatched_index_rejected(self, served_graph, full_result):
        index = build_index(
            served_graph, index_k=10, damping=DAMPING, iterations=ITERATIONS
        )
        with pytest.raises(ConfigurationError):
            SimilarityService(
                served_graph, index, damping=DAMPING, iterations=ITERATIONS + 1
            )
        with pytest.raises(ConfigurationError):
            SimilarityService(
                served_graph, index, damping=0.8, iterations=ITERATIONS
            )
        plain = SimilarityStore.from_result(full_result, top_k=10)
        with pytest.raises(ConfigurationError):
            SimilarityService(
                served_graph, plain, damping=DAMPING, iterations=ITERATIONS
            )

    def test_bad_k_rejected(self, served_graph):
        with pytest.raises(ConfigurationError):
            make_service(served_graph, with_index=False, k=0)
        service = make_service(served_graph, with_index=False)
        with pytest.raises(ServeError) as excinfo:
            service.top_k(0, k=0)
        assert excinfo.value.code is ErrorCode.BAD_REQUEST

    def test_labels_resolve_through_original_graph(self):
        builder = GraphBuilder()
        builder.add_edges(
            [("ann", "bob"), ("cat", "bob"), ("ann", "dan"), ("cat", "dan")]
        )
        graph = builder.build()
        service = SimilarityService(
            graph,
            build_index(graph, index_k=3, damping=DAMPING, iterations=ITERATIONS),
            damping=DAMPING,
            iterations=ITERATIONS,
        )
        ranking = service.top_k("bob", k=2)
        assert ranking.query == "bob"
        assert "dan" in ranking.labels()
        assert service.add_edge("ann", "bob") is False  # already present
        assert service.has_edge("ann", "bob")

    def test_build_index_on_service(self, served_graph):
        service = make_service(served_graph, with_index=False)
        service.add_edge(0, 99)
        index = service.build_index(index_k=15)
        assert index.extra["index_k"] == 15
        assert service.index is index
        assert service.dirty_vertices == frozenset()
        service.top_k(3, k=10)
        assert service.stats.snapshot()["index_hits"] == 1

    def test_repr_and_snapshot_fields(self, served_graph):
        service = make_service(served_graph)
        service.top_k(0)
        snapshot = service.stats.snapshot()
        assert {"queries", "index_hits", "cache_hits", "compute_hits"} <= set(
            snapshot
        )
        assert "index_k=20" in repr(service)


class TestApproxTier:
    """The Monte-Carlo tier: policy gating, staleness, stats, no write-back."""

    @pytest.fixture(scope="class")
    def fingerprints(self, served_graph):
        from repro.service import FingerprintIndex

        return FingerprintIndex.build(
            served_graph, damping=DAMPING, num_walks=64, seed=3
        )

    def test_approx_true_routes_to_approx_tier(self, served_graph, fingerprints):
        service = make_service(
            served_graph, with_index=False, cache_size=0, fingerprints=fingerprints
        )
        ranking = service.query(QueryRequest(query=3, approx=True))
        assert len(ranking.entries) == service.k
        snapshot = service.stats.snapshot()
        assert snapshot["approx_hits"] == 1
        assert snapshot["compute_hits"] == 0

    def test_default_queries_stay_exact(self, served_graph, fingerprints):
        service = make_service(
            served_graph, with_index=False, cache_size=0, fingerprints=fingerprints
        )
        service.top_k(3)
        snapshot = service.stats.snapshot()
        assert snapshot["approx_hits"] == 0
        assert snapshot["compute_hits"] == 1

    def test_max_error_policy_gates_on_standard_error(
        self, served_graph, fingerprints
    ):
        service = make_service(
            served_graph, with_index=False, cache_size=0, fingerprints=fingerprints
        )
        loose = fingerprints.standard_error * 2
        tight = fingerprints.standard_error / 2
        service.query(QueryRequest(query=1, max_error=loose))
        service.query(QueryRequest(query=2, max_error=tight))
        snapshot = service.stats.snapshot()
        assert snapshot["approx_hits"] == 1
        assert snapshot["compute_hits"] == 1

    def test_invalid_max_error_rejected(self, served_graph, fingerprints):
        service = make_service(served_graph, fingerprints=fingerprints)
        with pytest.raises(ServeError) as excinfo:
            service.query(QueryRequest(query=0, max_error=0.0))
        assert excinfo.value.code is ErrorCode.BAD_REQUEST

    def test_exact_tiers_win_over_approx(self, served_graph, fingerprints):
        # With a fresh index attached, an approx-permitted query still takes
        # the (exact, cheaper) index tier; a repeat takes the cache.
        service = make_service(served_graph, fingerprints=fingerprints)
        service.query(QueryRequest(query=5, approx=True))
        service.query(QueryRequest(query=5, approx=True))
        snapshot = service.stats.snapshot()
        assert snapshot["index_hits"] == 1
        assert snapshot["cache_hits"] == 1
        assert snapshot["approx_hits"] == 0

    def test_approx_answers_are_not_written_back(self, served_graph, fingerprints):
        service = make_service(
            served_graph, with_index=False, cache_size=64, fingerprints=fingerprints
        )
        service.query(QueryRequest(query=7, approx=True))
        # The follow-up exact query must not see a cached approx entry.
        service.top_k(7)
        snapshot = service.stats.snapshot()
        assert snapshot["approx_hits"] == 1
        assert snapshot["cache_hits"] == 0
        assert snapshot["compute_hits"] == 1

    def test_mutation_stales_fingerprints(self, served_graph, fingerprints):
        service = make_service(
            served_graph, with_index=False, cache_size=0, fingerprints=fingerprints
        )
        service.add_edge(0, 64)
        # Stale walks: falls through to exact.
        service.query(QueryRequest(query=3, approx=True))
        snapshot = service.stats.snapshot()
        assert snapshot["approx_hits"] == 0
        assert snapshot["compute_hits"] == 1
        resampled = service.resample_fingerprints()
        assert resampled is not None
        assert service.fingerprints is resampled
        assert resampled.num_walks == fingerprints.num_walks
        service.query(QueryRequest(query=3, approx=True))
        assert service.stats.snapshot()["approx_hits"] == 1

    def test_resample_preserves_configuration(self, served_graph):
        from repro.service import FingerprintIndex

        # A pure-tail index (head_iterations=0) has a much larger standard
        # error; resampling must not silently restore the defaults and
        # thereby loosen a max_error gate.
        pure = FingerprintIndex.build(
            served_graph, damping=DAMPING, num_walks=32, head_iterations=0, seed=2
        )
        service = make_service(
            served_graph, with_index=False, cache_size=0, fingerprints=pure
        )
        service.add_edge(0, 100)
        resampled = service.resample_fingerprints()
        assert resampled is not None
        assert resampled.head_iterations == 0
        assert resampled.standard_error == pure.standard_error
        assert resampled.walk_length == pure.walk_length

    def test_attach_validates_shape_and_damping(self, served_graph, fingerprints):
        from repro.service import FingerprintIndex

        service = make_service(served_graph, with_index=False)
        wrong_damping = FingerprintIndex(
            fingerprints._walks, 0.8, head_iterations=0, seed=3
        )
        with pytest.raises(ConfigurationError):
            service.attach_fingerprints(wrong_damping)
        small = FingerprintIndex(
            fingerprints._walks[:, :16, :], DAMPING, head_iterations=0, seed=3
        )
        with pytest.raises(ConfigurationError):
            service.attach_fingerprints(small)

    def test_batch_mixes_tiers_consistently(self, served_graph, fingerprints):
        service = make_service(served_graph, fingerprints=fingerprints)
        service.top_k(11)  # seeds cache + index stats
        answers = service.query_many(
            [QueryRequest(query=q, approx=True) for q in (11, 12, 13)]
        )
        assert [len(answer.entries) for answer in answers] == [10, 10, 10]
        snapshot = service.stats.snapshot()
        assert (
            snapshot["index_hits"]
            + snapshot["cache_hits"]
            + snapshot["approx_hits"]
            + snapshot["compute_hits"]
        ) == snapshot["queries"]
