"""Parity and behaviour tests for the :class:`repro.engine.Engine` facade.

The acceptance contract of the session API: every engine task must be
bit-identical to its legacy free-function counterpart on the oracle graph
zoo, while the transition operator is built at most once per session
(asserted through the engine's artifact counters *and* by instrumenting the
backend itself).
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro import (
    Engine,
    EngineConfig,
    SimilarityService,
    build_index,
    simrank,
    simrank_top_k,
)
from repro.core.backends import BACKENDS
from repro.exceptions import ConfigurationError
from repro.graph.builders import from_edges
from repro.graph.edgelist import EdgeListGraph
from repro.graph.generators import web_graph
from repro.graph.generators.rmat import rmat_edge_list

ZOO = {
    "cycle": [(i, (i + 1) % 6) for i in range(6)],
    "star": [(0, i) for i in range(1, 7)] + [(i, 0) for i in range(1, 7)],
    "dag": [(0, 2), (1, 2), (0, 3), (2, 3), (1, 4), (3, 4)],
    "self-loop": [(0, 0), (0, 1), (1, 2), (2, 0)],
    "disconnected": [(0, 1), (1, 0), (3, 4), (4, 5), (5, 3)],
}
"""The oracle graph zoo: one tricky shape per failure mode."""


def zoo_graphs():
    for name, edges in ZOO.items():
        num_vertices = max(max(edge) for edge in edges) + 1
        yield name, from_edges(edges, n=num_vertices, name=name)


@pytest.fixture(scope="module")
def rmat_graph():
    return rmat_edge_list(7, 384, seed=7)


def absent_edge(graph) -> tuple[int, int]:
    existing = set(graph.edges())
    return next(
        (0, target) for target in range(1, graph.num_vertices)
        if (0, target) not in existing
    )


class TestAllPairsParity:
    @pytest.mark.parametrize("name", sorted(ZOO))
    def test_bit_identical_to_simrank_on_zoo(self, name):
        graph = dict(zoo_graphs())[name]
        config = EngineConfig(method="matrix", iterations=8)
        with Engine(graph, config) as engine:
            ours = engine.all_pairs()
        legacy = simrank(graph, method="matrix", iterations=8)
        assert np.array_equal(ours.scores, legacy.scores)

    @pytest.mark.parametrize("method", ["oip-sr", "psum", "naive", "matrix"])
    def test_bit_identical_across_methods(self, paper_graph, method):
        with Engine(paper_graph, EngineConfig(method=method)) as engine:
            ours = engine.all_pairs(iterations=4)
        legacy = simrank(paper_graph, method=method, iterations=4)
        assert np.array_equal(ours.scores, legacy.scores)

    def test_default_engine_matches_default_simrank_on_sparse_fixture(
        self, rmat_graph
    ):
        # Default-vs-default: the auto planner resolves to (matrix, sparse)
        # on sparse graphs, which is exactly the legacy default.
        with Engine(rmat_graph) as engine:
            ours = engine.all_pairs()
        assert np.array_equal(ours.scores, simrank(rmat_graph).scores)

    def test_config_series_parameters_reach_the_solver(self, paper_graph):
        config = EngineConfig(method="matrix", damping=0.8, iterations=5)
        with Engine(paper_graph, config) as engine:
            result = engine.all_pairs()
        assert result.damping == 0.8
        assert result.iterations == 5

    def test_call_level_overrides_beat_config(self, paper_graph):
        config = EngineConfig(method="matrix", iterations=12)
        with Engine(paper_graph, config) as engine:
            result = engine.all_pairs(iterations=3)
        assert result.iterations == 3


class TestTopKParity:
    @pytest.mark.parametrize("name", sorted(ZOO))
    def test_rankings_identical_on_zoo(self, name):
        graph = dict(zoo_graphs())[name]
        queries = list(range(graph.num_vertices))
        config = EngineConfig(iterations=10)
        with Engine(graph, config) as engine:
            ours = engine.top_k(queries, k=4)
        legacy = simrank_top_k(graph, queries, k=4, iterations=10)
        assert [r.entries for r in ours] == [r.entries for r in legacy]

    def test_include_self_matches(self, paper_graph):
        with Engine(paper_graph, EngineConfig(iterations=10)) as engine:
            ours = engine.top_k(["a", "b"], k=3, include_self=True)
        legacy = simrank_top_k(
            paper_graph, ["a", "b"], k=3, include_self=True, iterations=10
        )
        assert [r.entries for r in ours] == [r.entries for r in legacy]
        assert ours[0].entries[0] == ("a", 1.0)

    def test_parallel_rankings_bit_identical(self, rmat_graph):
        queries = list(range(0, rmat_graph.num_vertices, 8))
        serial = Engine(rmat_graph, EngineConfig(iterations=8))
        with Engine(
            rmat_graph, EngineConfig(iterations=8, workers=2)
        ) as parallel:
            ours = parallel.top_k(queries, k=5)
        theirs = serial.top_k(queries, k=5)
        assert [r.entries for r in ours] == [r.entries for r in theirs]

    def test_pair_matches_top_k_scores(self, paper_graph):
        with Engine(paper_graph, EngineConfig(iterations=10)) as engine:
            ranking = engine.top_k("a", k=8)[0]
            for label, score in ranking.entries:
                assert engine.pair("a", label) == score
            assert engine.pair("a", "a") == 1.0


class TestServeParity:
    def test_served_rankings_identical_to_standalone_service(self, rmat_graph):
        config = EngineConfig(iterations=8, index_k=10)
        with Engine(rmat_graph, config) as engine:
            engine.build_index()
            ours = engine.serve(k=5)
            index = build_index(
                rmat_graph, index_k=10, damping=0.6, iterations=8
            )
            theirs = SimilarityService(
                rmat_graph, index, k=5, damping=0.6, iterations=8
            )
            for query in range(0, rmat_graph.num_vertices, 8):
                assert (
                    ours.top_k(query).entries == theirs.top_k(query).entries
                )

    def test_serve_shares_the_session_transition(self, rmat_graph):
        with Engine(rmat_graph, EngineConfig(iterations=6)) as engine:
            transition = engine.transition()
            service = engine.serve()
            assert service._graph is engine._graph
            assert service._current_transition()[0] is transition

    def test_warm_serve_builds_the_planned_tier(self, rmat_graph):
        with Engine(rmat_graph, EngineConfig(iterations=6)) as engine:
            service = engine.serve(warm=True)
            assert engine.index is not None
            assert service.index is engine.index


class TestSharedGraph:
    """An engine and the services it creates hold one versioned graph."""

    def test_mutations_through_either_owner_reach_both(self):
        graph = web_graph(num_pages=60, num_hosts=4, seed=1)
        with Engine(graph, EngineConfig(iterations=8)) as engine:
            service = engine.serve()
            assert engine.add_edge(0, 3)
            assert service.add_edge(1, 5)
            assert engine.version == service.version == 2
            edges = set(engine.current_graph().edges())
            assert edges == set(service.current_graph().edges())
            assert {(0, 3), (1, 5)} <= edges
            expected = simrank_top_k(
                engine.current_graph(), [5], k=3, iterations=8
            )[0]
            assert engine.top_k([5], k=3)[0].entries == expected.entries
            assert service.top_k(5, k=3).entries == expected.entries

    def test_owners_share_one_operator_rebuild(self, rmat_graph):
        calls = {"n": 0}
        sparse = BACKENDS["sparse"]
        original = type(sparse).transition

        def counting(self, graph):
            calls["n"] += 1
            return original(self, graph)

        type(sparse).transition = counting
        try:
            with Engine(rmat_graph, EngineConfig(iterations=6)) as engine:
                service = engine.serve(k=5)
                assert engine.add_edge(*absent_edge(rmat_graph))
                engine.top_k([0], k=5)
                assert service.top_k(1).entries  # a compute-tier miss
                assert service.stats.snapshot()["compute_hits"] == 1
                assert calls["n"] == 1
        finally:
            type(sparse).transition = original

    def test_index_built_across_a_mutation_is_not_kept(
        self, rmat_graph, monkeypatch
    ):
        from repro.engine import engine as engine_module

        build = engine_module._build_index
        with Engine(rmat_graph, EngineConfig(iterations=6, index_k=8)) as engine:
            service = engine.serve()

            def racing(*args, **kwargs):
                index = build(*args, **kwargs)
                assert service.add_edge(*absent_edge(rmat_graph))
                return index

            monkeypatch.setattr(engine_module, "_build_index", racing)
            engine.build_index()
            assert engine.index is None
            assert engine.serve().index is None

    def test_dropped_service_is_collected(self, rmat_graph):
        with Engine(rmat_graph, EngineConfig(iterations=6)) as engine:
            service = engine.serve()
            collected = weakref.ref(service)
            del service
            gc.collect()
            assert collected() is None
            assert engine.add_edge(*absent_edge(rmat_graph))


class TestSharedArtifacts:
    def test_transition_built_once_across_every_task(self, rmat_graph):
        calls = {"n": 0}
        sparse = BACKENDS["sparse"]
        original = type(sparse).transition

        def counting(self, graph):
            calls["n"] += 1
            return original(self, graph)

        type(sparse).transition = counting
        try:
            with Engine(rmat_graph, EngineConfig(iterations=6)) as engine:
                engine.all_pairs()
                engine.top_k([0, 1, 2], k=5)
                engine.pair(0, 3)
                engine.build_index()
                engine.build_fingerprints()
                engine.serve()
                assert engine.counters.transition_builds == 1
                # The backend itself was asked to materialise the operator
                # exactly once — reuse is real, not just counted.
                assert calls["n"] == 1
        finally:
            type(sparse).transition = original

    def test_counters_survive_in_repr_and_dict(self, paper_graph):
        engine = Engine(paper_graph)
        engine.all_pairs(iterations=2)
        counts = engine.counters.as_dict()
        assert counts["transition_builds"] == 1
        assert "transition" in repr(engine)


class TestMutation:
    def test_mutation_invalidates_artifacts_coherently(self):
        graph = EdgeListGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        with Engine(graph, EngineConfig(iterations=8)) as engine:
            before = engine.top_k([0], k=3)[0]
            first = engine.transition()
            engine.build_index()
            assert engine.add_edge(0, 2) is True
            assert engine.add_edge(0, 2) is False  # already present
            assert engine.version == 1
            assert engine.index is None  # dropped, not served stale
            after = engine.top_k([0], k=3)[0]
            assert engine.transition() is not first
            assert engine.counters.transition_builds == 2
            # Answers equal a from-scratch computation on the mutated graph.
            mutated = EdgeListGraph(
                5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 0)]
            )
            fresh = simrank_top_k(mutated, [0], k=3, iterations=8)[0]
            assert after.entries == fresh.entries
            assert before.entries != after.entries

    def test_remove_edge_round_trip_restores_answers(self):
        graph = EdgeListGraph(4, [(0, 1), (1, 2), (2, 0), (3, 0)])
        with Engine(graph, EngineConfig(iterations=8)) as engine:
            before = engine.all_pairs()
            assert engine.remove_edge(3, 0) is True
            assert engine.remove_edge(3, 0) is False
            assert engine.add_edge(3, 0) is True
            after = engine.all_pairs()
            assert np.array_equal(before.scores, after.scores)
            assert engine.version == 2


    def test_series_backend_is_kept_across_mutations(self):
        # Four inserts flip this graph's top-k plan from sparse to dense,
        # whose sums differ from sparse in the last bits.  The session keeps
        # the backend it resolved first, so the engine and the service it
        # created still give the same answer.
        graph = EdgeListGraph(8, [(1, 1), (4, 6), (4, 7), (6, 1), (6, 6)])
        config = EngineConfig(iterations=6, cost_profile="static")
        with Engine(graph, config) as engine:
            service = engine.serve()
            assert engine.plan("top_k").backend == "sparse"
            for edge in [(6, 3), (5, 4), (1, 3), (3, 3)]:
                assert engine.add_edge(*edge)
            with Engine(engine.current_graph(), config) as fresh:
                assert fresh.plan("top_k").backend == "dense"
            expected = engine.top_k([3], k=7)[0].entries
            assert service.top_k(3, k=7).entries == expected


class TestValidation:
    def test_unknown_method_rejected_at_plan_time(self, paper_graph):
        engine = Engine(paper_graph, EngineConfig(method="not-a-method"))
        with pytest.raises(ConfigurationError):
            engine.all_pairs()

    def test_unknown_backend_rejected(self, paper_graph):
        engine = Engine(paper_graph, EngineConfig(backend="gpu"))
        with pytest.raises(ConfigurationError):
            engine.top_k([0], k=2)

    def test_parallel_serial_only_method_rejected(self, paper_graph):
        engine = Engine(
            paper_graph, EngineConfig(method="naive", workers=4)
        )
        with pytest.raises(ConfigurationError):
            engine.all_pairs()

    def test_config_dict_accepted_and_validated(self, paper_graph):
        engine = Engine(paper_graph, {"method": "matrix", "iterations": 3})
        assert engine.config == EngineConfig(method="matrix", iterations=3)
        with pytest.raises(ConfigurationError):
            Engine(paper_graph, {"not_a_knob": 1})
        with pytest.raises(ConfigurationError):
            Engine(paper_graph, config="matrix")


class TestShortRankings:
    def test_short_ranking_on_tiny_graph(self):
        # Satellite: a graph with <= k reachable vertices yields fewer than
        # k entries — documented, not silent.
        graph = EdgeListGraph(3, [(0, 1), (1, 2), (2, 0)])
        rankings = simrank_top_k(graph, [0], k=10, iterations=8)
        assert len(rankings[0]) == 2  # n - 1 entries, not k
        with Engine(graph, EngineConfig(iterations=8)) as engine:
            assert engine.top_k([0], k=10)[0].entries == rankings[0].entries

    def test_include_self_short_ranking(self):
        graph = EdgeListGraph(3, [(0, 1), (1, 2), (2, 0)])
        ranking = simrank_top_k(
            graph, [0], k=10, include_self=True, iterations=8
        )[0]
        assert len(ranking) == 3  # all n vertices, self included
        assert ("0", 1.0) == ranking.entries[0] or (0, 1.0) == ranking.entries[0]

    def test_unreachable_vertices_pad_with_zero_in_id_order(self):
        # 0 <-> 1 strongly connected; 2, 3, 4 isolated.
        graph = EdgeListGraph(5, [(0, 1), (1, 0)])
        ranking = simrank_top_k(graph, [0], k=4, iterations=8)[0]
        labels = ranking.labels()
        scores = ranking.scores()
        assert labels[1:] == [2, 3, 4]
        assert scores[1:] == [0.0, 0.0, 0.0]


class TestLabelResolutionAfterMutation:
    """Regression: queries keep resolving original labels after mutations."""

    @pytest.fixture()
    def labeled_engine(self):
        graph = from_edges(
            [("a", "b"), ("b", "c"), ("c", "a"), ("d", "a")], name="labeled"
        )
        return Engine(graph, EngineConfig(iterations=8))

    def test_top_k_by_label_after_mutation(self, labeled_engine):
        with labeled_engine as engine:
            before = engine.top_k(["a"], k=3)[0]
            assert engine.add_edge("b", "a") is True
            after = engine.top_k(["a"], k=3)[0]
            assert {label for label, _ in after.entries} <= {"b", "c", "d"}
            assert before.entries != after.entries

    def test_pair_by_label_after_mutation(self, labeled_engine):
        with labeled_engine as engine:
            engine.add_edge("d", "b")
            assert engine.pair("a", "a") == 1.0
            assert isinstance(engine.pair("a", "c"), float)

    def test_serve_by_label_after_mutation(self, labeled_engine):
        with labeled_engine as engine:
            engine.add_edge("b", "a")
            engine.build_index()
            service = engine.serve(k=2)
            ranking = service.top_k("a")
            assert ranking.query == "a"
            assert all(
                label in {"b", "c", "d"} for label, _ in ranking.entries
            )
            # Served answers equal the engine's own series answers.
            assert ranking.entries == engine.top_k(["a"], k=2)[0].entries


class TestExecutorGating:
    def test_workers_override_to_serial_spawns_no_pool(self, rmat_graph):
        # Regression: an explicit workers=1 call-level override must not
        # fork the session pool the serial solver would never use.
        with Engine(rmat_graph, EngineConfig(iterations=6, workers=4)) as engine:
            engine.all_pairs(workers=1)
            assert engine.counters.executor_builds == 0
