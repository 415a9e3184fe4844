"""The request/response pipeline: typed errors, adapters, deprecation.

``query()``/``query_many()`` over :class:`QueryRequest` are the single
pipeline every caller shares; ``top_k``/``top_k_many`` are deprecated
adapters over it.  These tests pin the equivalences and contracts the
migration relies on: identical answers through both surfaces, per-request
policy inside one batch, warnings only for the deprecated kwargs, legacy
exception types from the adapters, and typed codes from the new API.
"""

from __future__ import annotations

import time
import warnings

import pytest

from repro.exceptions import ConfigurationError, VertexNotFoundError
from repro.service import (
    ErrorCode,
    FingerprintIndex,
    QueryRequest,
    QueryResponse,
    ServeError,
    SimilarityService,
    build_index,
)

ITERATIONS = 25
DAMPING = 0.6


def make_service(graph, with_index=True, with_fingerprints=False, **kwargs):
    index = (
        build_index(graph, index_k=20, damping=DAMPING, iterations=ITERATIONS)
        if with_index
        else None
    )
    kwargs.setdefault("damping", DAMPING)
    kwargs.setdefault("iterations", ITERATIONS)
    service = SimilarityService(graph, index, **kwargs)
    if with_fingerprints:
        service.attach_fingerprints(
            FingerprintIndex.build(
                graph, damping=DAMPING, num_walks=128, seed=3
            )
        )
    return service


class TestRequestPipeline:
    def test_query_equals_top_k(self, served_graph):
        service = make_service(served_graph)
        for query in (0, 5, 33):
            response = service.query(QueryRequest(query=query, k=10))
            assert isinstance(response, QueryResponse)
            legacy = service.top_k(query, k=10)
            assert response.entries == legacy.entries
            assert response.query == query

    def test_per_request_policy_in_one_batch(self, served_graph):
        service = make_service(
            served_graph, with_index=False, with_fingerprints=True, cache_size=0
        )
        requests = [
            QueryRequest(query=1, k=5),
            QueryRequest(query=2, k=15, approx=True),
            QueryRequest(query=3, k=8, approx=False),
        ]
        responses = service.query_many(requests)
        assert [len(r.entries) for r in responses] == [5, 15, 8]
        assert responses[0].tier == "compute"
        assert responses[1].tier == "approx"
        assert responses[2].tier == "compute"
        assert [r.query for r in responses] == [1, 2, 3]

    def test_response_metadata(self, served_graph):
        service = make_service(served_graph)
        response = service.query(QueryRequest(query=4, k=10))
        assert response.tier in ("index", "cache", "compute")
        assert response.graph_version == service.version
        assert response.ranking().entries == response.entries
        assert response.labels() == [label for label, _ in response.entries]

    def test_defective_request_fails_whole_batch_without_stats(
        self, served_graph
    ):
        service = make_service(served_graph)
        before = service.stats.snapshot()
        with pytest.raises(ServeError) as excinfo:
            service.query_many(
                [QueryRequest(query=0, k=10), QueryRequest(query="ghost")]
            )
        assert excinfo.value.code is ErrorCode.UNKNOWN_VERTEX
        assert excinfo.value.vertex == "ghost"
        # Validation runs before any tier probe: no partial statistics.
        assert service.stats.snapshot() == before


class TestTypedErrors:
    def test_unknown_vertex(self, served_graph):
        service = make_service(served_graph)
        with pytest.raises(ServeError) as excinfo:
            service.query(QueryRequest(query="nowhere"))
        assert excinfo.value.code is ErrorCode.UNKNOWN_VERTEX
        assert not excinfo.value.retryable

    def test_bad_request_k(self, served_graph):
        service = make_service(served_graph)
        with pytest.raises(ServeError) as excinfo:
            service.query(QueryRequest(query=0, k=0))
        assert excinfo.value.code is ErrorCode.BAD_REQUEST

    def test_stale_version_floor(self, served_graph):
        service = make_service(served_graph)
        floor = service.version + 1
        with pytest.raises(ServeError) as excinfo:
            service.query(QueryRequest(query=0, graph_version=floor))
        assert excinfo.value.code is ErrorCode.STALE_VERSION
        assert excinfo.value.retryable
        # A mutation bumps the version past the floor; the retry succeeds.
        if not service.add_edge(0, 1):
            service.remove_edge(0, 1)
        assert service.version >= floor
        response = service.query(QueryRequest(query=0, graph_version=floor))
        assert response.graph_version >= floor

    def test_validate_request_rejects_non_request(self, served_graph):
        service = make_service(served_graph)
        with pytest.raises(ServeError) as excinfo:
            service.validate_request({"query": 0})
        assert excinfo.value.code is ErrorCode.BAD_REQUEST

    def test_validate_request_passes_good_request(self, served_graph):
        service = make_service(served_graph)
        request = service.validate_request(QueryRequest(query=7, k=3))
        assert request.query == 7


class TestDeprecatedAdapters:
    def test_plain_top_k_does_not_warn(self, served_graph):
        service = make_service(served_graph)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            service.top_k(0, k=5)
            service.top_k_many([1, 2], k=5)

    def test_approx_kwarg_warns(self, served_graph):
        service = make_service(
            served_graph, with_index=False, with_fingerprints=True, cache_size=0
        )
        with pytest.warns(DeprecationWarning, match="QueryRequest"):
            service.top_k(0, k=5, approx=True)
        with pytest.warns(DeprecationWarning, match="QueryRequest"):
            service.top_k_many([1], k=5, max_error=0.1)

    def test_adapter_matches_request_api(self, served_graph):
        service = make_service(served_graph)
        legacy = service.top_k_many([0, 9, 18], k=7)
        modern = service.query_many(
            [QueryRequest(query=q, k=7) for q in (0, 9, 18)]
        )
        assert [r.entries for r in legacy] == [r.entries for r in modern]

    def test_legacy_exception_types_survive(self, served_graph):
        service = make_service(served_graph)
        with pytest.raises(VertexNotFoundError):
            service.top_k("ghost", k=5)
        with pytest.raises(ConfigurationError):
            service.top_k(0, k="not-a-number")
        with pytest.raises(ConfigurationError):
            service.top_k(0, k=-3)


def _find_span(tree, name):
    if tree.get("name") == name:
        return tree
    for child in tree.get("children", []) or []:
        found = _find_span(child, name)
        if found is not None:
            return found
    return None


class TestComputeTierLatency:
    def test_recorded_latency_covers_the_catalog_write_back(
        self, served_graph, tmp_path, monkeypatch
    ):
        from repro.catalog import IndexCatalog

        index = build_index(
            served_graph, index_k=20, damping=DAMPING, iterations=ITERATIONS
        )
        catalog = IndexCatalog.create(tmp_path / "catalog", index)
        service = SimilarityService(
            served_graph, catalog=catalog, damping=DAMPING,
            iterations=ITERATIONS, cache_size=0, workers=1, auto_warm=True,
        )
        append_delta = IndexCatalog.append_delta

        def slow_append_delta(self, *args, **kwargs):
            time.sleep(0.020)
            return append_delta(self, *args, **kwargs)

        monkeypatch.setattr(IndexCatalog, "append_delta", slow_append_delta)
        existing = set(served_graph.edges())
        edge = next(
            (0, target) for target in range(1, served_graph.num_vertices)
            if (0, target) not in existing
        )
        assert service.add_edge(*edge)  # stales every row: reads compute

        response = service.query(QueryRequest(query=5, k=5, trace=True))
        assert response.tier == "compute"
        (recorded,) = service.stats.samples("compute")
        assert recorded > 0.020
        assert service.slow_queries.snapshot()[0]["duration_ms"] > 20.0
        tier = _find_span(response.trace, "tier:compute")
        assert tier["duration_ms"] > 20.0
        assert [child["name"] for child in tier["children"]] == [
            "batcher", "write_back",
        ]
        assert tier["children"][1]["duration_ms"] > 20.0
