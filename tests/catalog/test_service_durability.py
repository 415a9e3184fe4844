"""Kill-and-restart durability: a catalog-backed service must come back
serving bit-identical answers — including rows touched by mutations that
were logged but whose refreshed scores never reached disk.

Two crash models:

* **abandonment** — the serving process stops calling the catalog and a new
  handle restores from disk (same process, nothing flushed on purpose);
* **SIGKILL** — a real subprocess builds the catalog, mutates, refreshes,
  logs one more edge and kills itself with ``SIGKILL`` mid-flight; the
  parent restores and checks every answer against a from-scratch oracle.
"""

from __future__ import annotations

import errno
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.catalog import IndexCatalog
from repro.service import QueryRequest, SimilarityService, build_index

DAMPING = 0.6
ITERATIONS = 20
INDEX_K = 12
K = 8


def _novel_edges(graph, count):
    """The first ``count`` (source, target) pairs absent from ``graph``."""
    existing = set(graph.edges())
    novel = []
    for source in range(graph.num_vertices):
        for target in range(graph.num_vertices):
            if source != target and (source, target) not in existing:
                novel.append((source, target))
                if len(novel) == count:
                    return novel
    raise AssertionError("graph is complete")


def _service(graph, *, catalog=None, index=None, auto_warm=False):
    return SimilarityService(
        graph,
        index=index,
        catalog=catalog,
        k=K,
        damping=DAMPING,
        iterations=ITERATIONS,
        cache_size=0,
        workers=1,
        auto_warm=auto_warm,
    )


def _oracle(graph):
    """A from-scratch service over ``graph`` — the ground truth after restart."""
    index = build_index(
        graph, index_k=INDEX_K, damping=DAMPING, iterations=ITERATIONS
    )
    return _service(graph, index=index)


def _assert_bit_identical(restored, oracle, n):
    for query in range(n):
        left = restored.top_k(query)
        right = oracle.top_k(query)
        assert left.labels() == right.labels(), f"query {query} ranking diverged"
        assert left.scores() == right.scores(), f"query {query} scores diverged"


class TestAbandonAndRestore:
    def test_restart_after_refresh_is_bit_identical(
        self, tmp_path, catalog_graph, catalog_index
    ):
        catalog = IndexCatalog.create(tmp_path / "catalog", catalog_index)
        live = _service(catalog_graph, catalog=catalog)
        first, second = _novel_edges(catalog_graph, 2)
        assert live.add_edge(*first)
        assert live.add_edge(*second)
        assert live.remove_edge(*next(iter(catalog_graph.edges())))
        live.refresh()

        restored = _service(
            catalog_graph, catalog=IndexCatalog.open(tmp_path / "catalog")
        )
        assert set(restored.dirty_vertices) == set(live.dirty_vertices)
        _assert_bit_identical(restored, live, catalog_graph.num_vertices)
        _assert_bit_identical(
            restored, _oracle(restored.current_graph()), catalog_graph.num_vertices
        )

    def test_restart_with_unrefreshed_mutations_recovers_them(
        self, tmp_path, catalog_graph, catalog_index
    ):
        # The crash window the log-before-apply ordering exists for: the
        # edge is durably logged but its refreshed rows never hit disk.
        catalog = IndexCatalog.create(tmp_path / "catalog", catalog_index)
        live = _service(catalog_graph, catalog=catalog)
        (edge,) = _novel_edges(catalog_graph, 1)
        assert live.add_edge(*edge)

        restored = _service(
            catalog_graph, catalog=IndexCatalog.open(tmp_path / "catalog")
        )
        assert edge in set(restored.current_graph().edges())
        assert set(edge) <= set(restored.dirty_vertices)
        _assert_bit_identical(
            restored, _oracle(restored.current_graph()), catalog_graph.num_vertices
        )

    def test_restart_after_compaction_is_bit_identical(
        self, tmp_path, catalog_graph, catalog_index
    ):
        catalog = IndexCatalog.create(tmp_path / "catalog", catalog_index)
        live = _service(catalog_graph, catalog=catalog)
        (edge,) = _novel_edges(catalog_graph, 1)
        assert live.add_edge(*edge)
        live.refresh()
        assert catalog.manifest.row_log_bytes > 0  # refresh really committed rows
        catalog.compact()

        restored = _service(
            catalog_graph, catalog=IndexCatalog.open(tmp_path / "catalog")
        )
        _assert_bit_identical(restored, live, catalog_graph.num_vertices)

    def test_compute_tier_commits_restore_as_index_hits(
        self, tmp_path, catalog_graph, catalog_index
    ):
        # auto_warm commits every compute-tier row to the catalog; after an
        # abandoned process those rows must come back fresh, not recompute.
        catalog = IndexCatalog.create(tmp_path / "catalog", catalog_index)
        live = _service(catalog_graph, catalog=catalog, auto_warm=True)
        (edge,) = _novel_edges(catalog_graph, 1)
        assert live.add_edge(*edge)
        reads = list(range(20))
        for query in reads:
            assert live.query(QueryRequest(query=query)).tier == "compute"

        restored = _service(
            catalog_graph,
            catalog=IndexCatalog.open(tmp_path / "catalog"),
            auto_warm=True,
        )
        oracle = _oracle(restored.current_graph())
        for query in reads:
            response = restored.query(QueryRequest(query=query))
            assert response.tier == "index", query
            expected = oracle.top_k(query)
            assert [label for label, _ in response.entries] == expected.labels()
            assert [score for _, score in response.entries] == expected.scores()
        _assert_bit_identical(restored, oracle, catalog_graph.num_vertices)


def _enospc(self, *args, **kwargs):
    raise OSError(errno.ENOSPC, "No space left on device")


class TestFailedLogAppend:
    """An edge-log append that fails leaves the graph and every tier as
    they were: the edge is logged before it applies, never after."""

    QUERY = 1

    def _assert_unchanged(self, service, catalog, edge, present, oracle):
        assert service.version == 0
        assert service.has_edge(*edge) is present
        assert service.dirty_vertices == frozenset()
        assert catalog.read_edge_log() == []
        # The warmed cache must not answer for a graph it no longer matches.
        response = service.query(QueryRequest(query=self.QUERY, k=5))
        assert response.graph_version == 0
        assert response.entries == oracle.top_k(self.QUERY, k=5).entries

    @pytest.mark.parametrize("mutation", ["add_edge", "remove_edge"])
    def test_service_mutation(
        self, mutation, tmp_path, catalog_graph, catalog_index, monkeypatch
    ):
        catalog = IndexCatalog.create(tmp_path / "catalog", catalog_index)
        service = SimilarityService(
            catalog_graph, catalog=catalog, k=K, damping=DAMPING,
            iterations=ITERATIONS, workers=1,
        )
        (novel,) = _novel_edges(catalog_graph, 1)
        edge = novel if mutation == "add_edge" else next(iter(catalog_graph.edges()))
        present = service.has_edge(*edge)
        service.query(QueryRequest(query=self.QUERY, k=5))  # warm the cache
        monkeypatch.setattr(IndexCatalog, "append_edge", _enospc)
        with pytest.raises(OSError) as excinfo:
            getattr(service, mutation)(*edge)
        assert excinfo.value.errno == errno.ENOSPC
        self._assert_unchanged(
            service, catalog, edge, present, _oracle(catalog_graph)
        )

    def test_engine_mutation(
        self, tmp_path, catalog_graph, catalog_index, monkeypatch
    ):
        from repro import Engine, EngineConfig

        IndexCatalog.create(tmp_path / "catalog", catalog_index)
        config = EngineConfig(
            damping=DAMPING, iterations=ITERATIONS, index_k=INDEX_K,
            workers=1, catalog_path=str(tmp_path / "catalog"),
        )
        with Engine(catalog_graph, config) as engine:
            service = engine.serve(k=K)
            assert service.catalog is not None
            (edge,) = _novel_edges(catalog_graph, 1)
            service.query(QueryRequest(query=self.QUERY, k=5))
            monkeypatch.setattr(IndexCatalog, "append_edge", _enospc)
            with pytest.raises(OSError):
                engine.add_edge(*edge)
            assert engine.version == 0
            self._assert_unchanged(
                service, service.catalog, edge, False, _oracle(catalog_graph)
            )


CHILD_SCRIPT = textwrap.dedent(
    """
    import os, signal, sys
    from repro.catalog import IndexCatalog
    from repro.graph.generators.rmat import rmat_edge_list
    from repro.service import SimilarityService, build_index

    catalog_dir = sys.argv[1]
    graph = rmat_edge_list(6, 3 * 64, seed=13)
    existing = set(graph.edges())
    novel = [
        (s, t)
        for s in range(graph.num_vertices)
        for t in range(graph.num_vertices)
        if s != t and (s, t) not in existing
    ][:3]
    index = build_index(graph, index_k=12, damping=0.6, iterations=20)
    catalog = IndexCatalog.create(catalog_dir, index)
    service = SimilarityService(
        graph, catalog=catalog, k=8, damping=0.6, iterations=20,
        cache_size=0, workers=1, auto_warm=False,
    )
    assert service.add_edge(*novel[0])
    assert service.add_edge(*novel[1])
    service.refresh()
    assert service.add_edge(*novel[2])  # logged; refreshed rows never reach disk
    os.kill(os.getpid(), signal.SIGKILL)
    """
)


class TestSigkillRestart:
    def test_sigkilled_server_restarts_bit_identical(self, tmp_path, catalog_graph):
        catalog_dir = tmp_path / "catalog"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-c", CHILD_SCRIPT, str(catalog_dir)],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == -signal.SIGKILL, completed.stderr

        restored = _service(
            catalog_graph, catalog=IndexCatalog.open(catalog_dir)
        )
        novel = _novel_edges(catalog_graph, 3)
        edges = set(restored.current_graph().edges())
        assert set(novel) <= edges
        assert set(novel[2]) <= set(restored.dirty_vertices)
        _assert_bit_identical(
            restored, _oracle(restored.current_graph()), catalog_graph.num_vertices
        )
