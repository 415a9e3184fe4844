"""Unit tests for the unified ``simrank()`` dispatch entry point."""

from __future__ import annotations

import numpy as np
import pytest

from repro import available_backends, available_methods, simrank, simrank_top_k
from repro.api import method_spec
from repro.baselines.matrix_sr import matrix_simrank
from repro.core.oip_sr import oip_sr
from repro.exceptions import ConfigurationError


class TestDispatch:
    def test_every_method_is_dispatchable(self, paper_graph):
        for method in available_methods():
            if method == "mtx-svd":
                kwargs: dict[str, object] = {"damping": 0.6}
            elif method == "monte-carlo":
                kwargs = {"damping": 0.6, "num_walks": 10}
            elif method.startswith("p-rank"):
                kwargs = {"damping_in": 0.6, "damping_out": 0.6, "iterations": 2}
            else:
                kwargs = {"damping": 0.6, "iterations": 2}
            result = simrank(paper_graph, method=method, **kwargs)
            n = paper_graph.num_vertices
            assert result.scores.shape == (n, n)

    def test_matrix_dispatch_matches_direct_call(self, paper_graph):
        via_api = simrank(
            paper_graph, method="matrix", backend="sparse", iterations=6
        )
        direct = matrix_simrank(paper_graph, iterations=6, backend="sparse")
        assert np.array_equal(via_api.scores, direct.scores)

    def test_oip_sr_dispatch_matches_direct_call(self, paper_graph):
        via_api = simrank(paper_graph, method="oip-sr", iterations=4)
        direct = oip_sr(paper_graph, iterations=4)
        assert np.allclose(via_api.scores, direct.scores, atol=1e-14)

    def test_paper_aliases_accepted(self, paper_graph):
        for alias, canonical in (
            ("matrix-sr", "matrix"),
            ("mtx-sr", "mtx-svd"),
            ("psum-sr", "psum"),
        ):
            assert method_spec(alias).name == canonical
        result = simrank(paper_graph, method="matrix-sr", iterations=2)
        assert result.algorithm == "matrix-sr"

    def test_default_backend_is_sparse_for_matrix(self, paper_graph):
        result = simrank(paper_graph, method="matrix", iterations=2)
        assert result.extra["backend"] == "sparse"

    def test_explicit_dense_backend_recorded(self, paper_graph):
        result = simrank(
            paper_graph, method="matrix", backend="dense", iterations=2
        )
        assert result.extra["backend"] == "dense"


class TestDispatchErrors:
    def test_unknown_method_rejected(self, paper_graph):
        with pytest.raises(ConfigurationError):
            simrank(paper_graph, method="does-not-exist")

    def test_unknown_backend_rejected(self, paper_graph):
        with pytest.raises(ConfigurationError):
            simrank(paper_graph, method="matrix", backend="gpu")

    def test_unsupported_backend_rejected(self, paper_graph):
        with pytest.raises(ConfigurationError):
            simrank(paper_graph, method="oip-sr", backend="sparse", iterations=2)

    def test_backend_agnostic_methods_accept_dense(self, paper_graph):
        # "dense" is every per-vertex method's declared (no-op) backend.
        result = simrank(
            paper_graph, method="oip-sr", backend="dense", iterations=2
        )
        assert result.algorithm == "oip-sr"

    def test_edge_list_upgraded_for_per_vertex_methods(self):
        from repro.graph.edgelist import EdgeListGraph

        edge_list = EdgeListGraph(4, [(0, 1), (2, 1), (3, 1)])
        result = simrank(edge_list, method="naive", iterations=3)
        reference = simrank(
            edge_list.to_digraph(), method="matrix", backend="dense", iterations=3
        )
        assert np.allclose(result.scores, reference.scores, atol=1e-12)


class TestRegistries:
    def test_available_methods_sorted_and_complete(self):
        methods = available_methods()
        assert methods == tuple(sorted(methods))
        assert {"matrix", "oip-sr", "oip-dsr", "psum", "naive"} <= set(methods)

    def test_available_backends(self):
        assert set(available_backends()) >= {"dense", "sparse"}


class TestTopKValidation:
    def test_k_and_query_count(self, paper_graph):
        rankings = simrank_top_k(paper_graph, ["a", "b", "c"], k=4, iterations=10)
        assert [ranking.query for ranking in rankings] == ["a", "b", "c"]
        assert all(len(ranking) == 4 for ranking in rankings)

    def test_scalar_query_promoted_to_batch(self, paper_graph):
        rankings = simrank_top_k(paper_graph, "a", k=2, iterations=10)
        assert len(rankings) == 1
        assert rankings[0].query == "a"

    def test_invalid_damping_rejected(self, paper_graph):
        with pytest.raises(ConfigurationError):
            simrank_top_k(paper_graph, ["a"], damping=1.5)

    def test_backend_none_means_method_default(self, paper_graph):
        # Same convention as simrank(): None resolves to the matrix
        # method's default backend instead of requiring an explicit name.
        implicit = simrank_top_k(paper_graph, ["a", "b"], k=3, iterations=10)
        explicit = simrank_top_k(
            paper_graph, ["a", "b"], k=3, iterations=10, backend="sparse"
        )
        assert [ranking.entries for ranking in implicit] == [
            ranking.entries for ranking in explicit
        ]

    def test_unknown_backend_rejected(self, paper_graph):
        with pytest.raises(ConfigurationError):
            simrank_top_k(paper_graph, ["a"], backend="gpu", iterations=5)


class TestBackendPluggability:
    def test_registered_backend_reaches_matrix_dispatch(self, paper_graph):
        # The advertised plug-in path: a backend added via register_backend
        # must be usable through simrank() for backend-forwarding methods.
        from repro.core.backends import BACKENDS, SparseBackend, register_backend

        class AliasBackend(SparseBackend):
            name = "sparse-alias"

        register_backend(AliasBackend())
        try:
            result = simrank(
                paper_graph, method="matrix", backend="sparse-alias", iterations=3
            )
            reference = simrank(
                paper_graph, method="matrix", backend="sparse", iterations=3
            )
            assert np.array_equal(result.scores, reference.scores)
        finally:
            BACKENDS.pop("sparse-alias", None)

    def test_runner_rejects_unknown_backend(self, paper_graph):
        from repro.bench.runner import run_algorithm

        with pytest.raises(ConfigurationError):
            run_algorithm("matrix-sr", paper_graph, backend="desne", iterations=2)

    def test_runner_drops_valid_but_unsupported_backend(self, paper_graph):
        from repro.bench.runner import run_algorithm

        result = run_algorithm(
            "oip-sr", paper_graph, backend="sparse", iterations=2
        )
        assert result.algorithm == "oip-sr"


class TestSharedBackendResolution:
    """Satellite: simrank_top_k resolves backends through _resolve_backend."""

    def test_bad_backend_raises_configuration_error_not_keyerror(
        self, paper_graph
    ):
        # Regression: this used to surface as a raw KeyError from
        # get_backend because simrank_top_k bypassed the shared resolver.
        with pytest.raises(ConfigurationError) as excinfo:
            simrank_top_k(paper_graph, ["a"], backend="spasre", iterations=3)
        assert "unknown backend" in str(excinfo.value)

    def test_backend_instance_resolves_to_name(self, paper_graph):
        from repro.core.backends import BACKENDS

        via_instance = simrank_top_k(
            paper_graph, ["a"], k=3, backend=BACKENDS["sparse"], iterations=8
        )
        via_name = simrank_top_k(
            paper_graph, ["a"], k=3, backend="sparse", iterations=8
        )
        assert via_instance[0].entries == via_name[0].entries

    def test_simrank_and_top_k_share_one_resolver(self, paper_graph):
        # Both entry points must reject the same names with the same error.
        for call in (
            lambda: simrank(paper_graph, backend="gpu"),
            lambda: simrank_top_k(paper_graph, ["a"], backend="gpu"),
        ):
            with pytest.raises(ConfigurationError):
                call()


class TestSharedRankingSemantics:
    """Satellite: one ranked_entries implementation on every path."""

    def test_top_k_matches_shared_helper(self, paper_graph):
        from repro.core.backends import get_backend
        from repro.core.similarity_store import ranked_entries

        engine = get_backend("sparse")
        transition = engine.transition(paper_graph)
        query = paper_graph.index_of("a")
        row = engine.similarity_rows(
            transition, np.array([query]), damping=0.6, iterations=10
        )[0]
        expected = [
            (paper_graph.label_of(column), score)
            for column, score in ranked_entries(row, 5, exclude=query)
        ]
        ranking = simrank_top_k(paper_graph, ["a"], k=5, iterations=10)[0]
        assert list(ranking.entries) == expected

    def test_service_and_batch_api_rank_identically(self, paper_graph):
        from repro import SimilarityService

        service = SimilarityService(
            paper_graph, None, k=4, iterations=10, cache_size=0
        )
        batch = simrank_top_k(
            paper_graph, ["a", "b", "c"], k=4, iterations=10
        )
        for ranking in batch:
            assert (
                service.top_k(ranking.query).entries == ranking.entries
            )

    def test_ranked_entries_zero_padding_is_id_ordered(self):
        from repro.core.similarity_store import ranked_entries

        row = np.array([0.0, 0.5, 0.0, 0.5, 0.0])
        entries = ranked_entries(row, 5, exclude=0)
        # Positives by (-score, id), then zero-score columns in id order,
        # never the excluded vertex.
        assert entries == [(1, 0.5), (3, 0.5), (2, 0.0), (4, 0.0)]

    def test_ranked_entries_include_self(self):
        from repro.core.similarity_store import ranked_entries

        row = np.array([1.0, 0.5, 0.25])
        assert ranked_entries(row, 2, exclude=None) == [(0, 1.0), (1, 0.5)]


class TestCapabilitiesRegistry:
    """The MethodSpec booleans are now one declarative Capabilities record."""

    def test_every_method_declares_capabilities(self):
        from repro.api import METHODS
        from repro.engine.capabilities import Capabilities

        for spec in METHODS.values():
            assert isinstance(spec.capabilities, Capabilities)
            assert "all_pairs" in spec.capabilities.tasks

    def test_only_matrix_serves_series_tasks(self):
        from repro.api import METHODS

        series = {
            name
            for name, spec in METHODS.items()
            if "top_k" in spec.capabilities.tasks
        }
        assert series == {"matrix"}

    def test_register_method_is_the_plug_in_point(self, paper_graph):
        from repro.api import METHODS, MethodSpec, register_method
        from repro.baselines.matrix_sr import matrix_simrank
        from repro.engine.capabilities import Capabilities

        register_method(
            MethodSpec(
                name="matrix-test-alias",
                solver=matrix_simrank,
                capabilities=Capabilities(
                    backends=("dense", "sparse"),
                    accepts_backend=True,
                    needs_adjacency=False,
                    default_backend="sparse",
                ),
            )
        )
        try:
            result = simrank(
                paper_graph, method="matrix-test-alias", iterations=3
            )
            reference = simrank(paper_graph, method="matrix", iterations=3)
            assert np.array_equal(result.scores, reference.scores)
        finally:
            METHODS.pop("matrix-test-alias", None)

    def test_capabilities_reject_unknown_tasks(self):
        from repro.engine.capabilities import Capabilities

        with pytest.raises(ConfigurationError):
            Capabilities(tasks=frozenset({"teleport"}))
