"""Unit tests for the catalog lifecycle: commit ordering, restore, compaction."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.catalog import IndexCatalog, catalog_or_store_path
from repro.catalog.catalog import EDGELOG_NAME
from repro.catalog.manifest import MANIFEST_NAME
from repro.catalog.segments import append_row_record, read_row_log
from repro.core.similarity_store import SimilarityStore
from repro.exceptions import ConfigurationError
from repro.graph.generators.rmat import rmat_edge_list

from legacy_layout import append_legacy_delta

DAMPING = 0.6
ITERATIONS = 20
INDEX_K = 12


def _fresh_parts(rows, n, seed=0):
    """Synthetic refreshed truncated rows (ascending columns, no diagonal)."""
    rng = np.random.default_rng(seed)
    parts = []
    for row in rows:
        size = int(rng.integers(1, 6))
        columns = np.sort(
            rng.choice([c for c in range(n) if c != row], size=size, replace=False)
        ).astype(np.int64)
        parts.append((columns, np.sort(rng.random(size))[::-1]))
    return parts


@pytest.fixture
def catalog(tmp_path, catalog_index):
    return IndexCatalog.create(tmp_path / "catalog", catalog_index)


class TestCreateOpen:
    def test_create_then_open_round_trips_the_manifest(self, catalog):
        reopened = IndexCatalog.open(catalog.directory)
        assert reopened.manifest == catalog.manifest
        assert IndexCatalog.is_catalog(catalog.directory)

    def test_layout(self, catalog):
        names = sorted(p.name for p in catalog.directory.iterdir())
        assert names == [EDGELOG_NAME, MANIFEST_NAME, "base-000000"]
        base = catalog.directory / "base-000000"
        assert sorted(p.name for p in base.iterdir()) == [
            "columns.npy", "indptr.npy", "row_versions.npy", "values.npy",
        ]

    def test_non_index_store_rejected(self, tmp_path, catalog_graph, catalog_index):
        plain = SimilarityStore(
            catalog_index.matrix, catalog_graph, algorithm="series-topk",
            damping=DAMPING, extra={},
        )
        with pytest.raises(ConfigurationError, match="serving index"):
            IndexCatalog.create(tmp_path / "plain", plain)

    def test_existing_catalog_requires_overwrite(self, catalog, catalog_index):
        with pytest.raises(ConfigurationError, match="overwrite"):
            IndexCatalog.create(catalog.directory, catalog_index)

    def test_overwrite_recommit_bumps_generation_and_clears_log(
        self, catalog, catalog_index
    ):
        catalog.append_edge("add", 0, 1, version=1)
        recommitted = IndexCatalog.create(
            catalog.directory, catalog_index, overwrite=True
        )
        assert recommitted.manifest.base_generation == 1
        assert recommitted.read_edge_log() == []
        # The superseded base generation was reaped as an orphan.
        assert not (catalog.directory / "base-000000").exists()
        assert (catalog.directory / "base-000001").is_dir()

    def test_open_non_catalog_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not an index catalog"):
            IndexCatalog.open(tmp_path)

    def test_dispatch_helper(self, catalog, tmp_path):
        assert isinstance(catalog_or_store_path(catalog.directory), IndexCatalog)
        plain = tmp_path / "index.npz"
        assert catalog_or_store_path(plain) == Path(plain)


class TestRestore:
    def test_restore_is_bit_identical(self, catalog, catalog_graph, catalog_index):
        state = catalog.restore(catalog_graph)
        assert np.array_equal(state.store.matrix.data, catalog_index.matrix.data)
        assert np.array_equal(state.store.matrix.indices, catalog_index.matrix.indices)
        assert np.array_equal(state.store.matrix.indptr, catalog_index.matrix.indptr)
        assert state.graph_version == 0
        assert state.log_version == 0
        assert state.edge_ops == []
        assert np.all(state.row_versions == 0)

    @staticmethod
    def _is_file_backed(array) -> bool:
        # scipy re-wraps np.memmap CSR arrays as plain ndarray *views*; the
        # zero-copy property survives as a base chain ending in mmap.mmap.
        import mmap

        base = array
        while hasattr(base, "base") and base.base is not None:
            base = base.base
        return isinstance(base, mmap.mmap)

    def test_restore_is_memory_mapped(self, catalog, catalog_graph):
        state = catalog.restore(catalog_graph)
        for array in (
            state.store.matrix.data,
            state.store.matrix.indices,
            state.store.matrix.indptr,
        ):
            assert self._is_file_backed(array)
            assert not array.flags.writeable

    def test_restore_without_mmap_materialises(self, catalog, catalog_graph):
        state = catalog.restore(catalog_graph, mmap=False)
        assert not self._is_file_backed(state.store.matrix.data)

    def test_wrong_graph_rejected(self, catalog, catalog_graph):
        other = rmat_edge_list(6, 3 * 64, seed=99)
        assert other.num_vertices == catalog_graph.num_vertices
        with pytest.raises(ConfigurationError, match="different graph"):
            catalog.restore(other)

    def test_validate_checks_config(self, catalog, catalog_graph):
        catalog.validate(
            catalog_graph, damping=DAMPING, iterations=ITERATIONS, index_k=INDEX_K
        )
        with pytest.raises(ConfigurationError, match="index_k"):
            catalog.validate(catalog_graph, index_k=INDEX_K + 1)


class TestDeltas:
    def test_append_delta_splices_on_restore(self, catalog, catalog_graph):
        n = catalog_graph.num_vertices
        rows = [3, 17, 40]
        parts = _fresh_parts(rows, n, seed=1)
        catalog.append_delta(version=2, rows=rows, parts=parts)

        state = catalog.restore(catalog_graph)
        assert state.graph_version == 2
        for row, (columns, values) in zip(rows, parts):
            csr_row = state.store.matrix.getrow(row)
            assert np.array_equal(csr_row.indices, columns)
            assert np.array_equal(csr_row.data, values)
        assert np.all(state.row_versions[rows] == 2)
        untouched = [r for r in range(n) if r not in rows]
        assert np.all(state.row_versions[untouched] == 0)

    def test_latest_delta_wins(self, catalog, catalog_graph):
        n = catalog_graph.num_vertices
        first = _fresh_parts([5], n, seed=2)
        second = _fresh_parts([5], n, seed=3)
        catalog.append_delta(version=1, rows=[5], parts=first)
        catalog.append_delta(version=2, rows=[5], parts=second)
        state = catalog.restore(catalog_graph)
        csr_row = state.store.matrix.getrow(5)
        assert np.array_equal(csr_row.indices, second[0][0])
        assert np.array_equal(csr_row.data, second[0][1])
        assert state.row_versions[5] == 2


class TestRowLog:
    def test_uncommitted_tail_is_ignored_then_overwritten(
        self, catalog, catalog_graph
    ):
        n = catalog_graph.num_vertices
        first = _fresh_parts([4], n, seed=7)
        catalog.append_delta(version=1, rows=[4], parts=first)
        committed = catalog.manifest.row_log_bytes
        log = catalog.directory / catalog.manifest.row_log_name
        assert log.stat().st_size == committed

        # A crash after the log fsync but before the manifest rewrite: a
        # whole record sits past the committed length.
        append_row_record(log, committed, 2, [9], _fresh_parts([9], n, seed=8))
        assert log.stat().st_size > committed

        reopened = IndexCatalog.open(catalog.directory)
        assert reopened.manifest.row_log_bytes == committed
        state = reopened.restore(catalog_graph)
        assert state.graph_version == 1
        assert state.row_versions[9] == 0
        base = catalog.restore(catalog_graph, mmap=False)
        assert np.array_equal(
            state.store.matrix.getrow(9).toarray(), base.store.matrix.getrow(9).toarray()
        )

        third = _fresh_parts([11], n, seed=9)
        reopened.append_delta(version=3, rows=[11], parts=third)
        record_bytes = reopened.manifest.row_log_bytes - committed
        assert log.stat().st_size == reopened.manifest.row_log_bytes
        records = read_row_log(log, reopened.manifest.row_log_bytes)
        assert [record.version for record in records] == [1, 3]
        assert record_bytes == 8 * (3 + 2 + 2 * third[0][0].size)

        state = IndexCatalog.open(catalog.directory).restore(catalog_graph)
        assert state.row_versions[4] == 1 and state.row_versions[11] == 3
        assert state.row_versions[9] == 0
        for row, ((columns, values),) in ((4, first), (11, third)):
            csr_row = state.store.matrix.getrow(row)
            assert np.array_equal(csr_row.indices, columns)
            assert np.array_equal(csr_row.data, values)

    def test_manifest_size_is_fixed_and_no_delta_files_appear(
        self, catalog, catalog_graph
    ):
        n = catalog_graph.num_vertices
        manifest_path = catalog.directory / MANIFEST_NAME
        catalog.append_delta(version=1, rows=[0], parts=_fresh_parts([0], n, seed=0))
        after_one = manifest_path.stat().st_size
        for commit in range(2, 51):
            rows = [commit % n, (3 * commit) % n]
            catalog.append_delta(
                version=commit, rows=rows, parts=_fresh_parts(rows, n, seed=commit)
            )
        assert manifest_path.stat().st_size == after_one
        assert catalog.manifest.deltas == []
        assert not list(catalog.directory.glob("delta-*.npz"))
        assert len(read_row_log(
            catalog.directory / catalog.manifest.row_log_name,
            catalog.manifest.row_log_bytes,
        )) == 50

    @pytest.mark.parametrize(
        "cut",
        [10, 24 + 8, -8],
        ids=["header-past-end", "rows-past-end", "values-past-end"],
    )
    def test_committed_record_running_past_row_log_bytes_raises(
        self, catalog, catalog_graph, cut
    ):
        n = catalog_graph.num_vertices
        catalog.append_delta(version=1, rows=[1], parts=_fresh_parts([1], n, seed=1))
        first = catalog.manifest.row_log_bytes
        catalog.append_delta(version=2, rows=[2], parts=_fresh_parts([2], n, seed=2))
        # A manifest whose committed length ends inside the second record.
        catalog.manifest.row_log_bytes = (
            first + cut if cut > 0 else catalog.manifest.row_log_bytes + cut
        )
        catalog.manifest.write(catalog.directory)
        with pytest.raises(ConfigurationError, match="runs past"):
            IndexCatalog.open(catalog.directory).restore(catalog_graph)

    def test_log_shorter_than_committed_raises(self, catalog, catalog_graph):
        n = catalog_graph.num_vertices
        catalog.append_delta(version=1, rows=[1], parts=_fresh_parts([1], n, seed=1))
        log = catalog.directory / catalog.manifest.row_log_name
        with open(log, "r+b") as handle:
            handle.truncate(catalog.manifest.row_log_bytes - 8)
        with pytest.raises(ConfigurationError, match="fewer than"):
            catalog.restore(catalog_graph)
        with pytest.raises(ConfigurationError, match="fewer than"):
            catalog.append_delta(
                version=2, rows=[2], parts=_fresh_parts([2], n, seed=2)
            )

    def test_mismatched_parts_rejected(self, catalog):
        columns = np.array([1, 2], dtype=np.int64)
        with pytest.raises(ConfigurationError, match="carries 1 parts"):
            catalog.append_delta(version=1, rows=[3, 4], parts=[(columns, columns)])
        with pytest.raises(ConfigurationError, match="row 3"):
            catalog.append_delta(
                version=1, rows=[3], parts=[(columns, np.array([0.5]))]
            )
        assert catalog.manifest.row_log_bytes == 0


class TestLegacyLayout:
    """Catalogs written before the row log: ``deltas`` and no ``row_log_bytes``."""

    @staticmethod
    def _legacy_catalog(catalog, n):
        commits = [
            (2, [3, 17, 40], _fresh_parts([3, 17, 40], n, seed=4)),
            (3, [17], _fresh_parts([17], n, seed=5)),
        ]
        for version, rows, parts in commits:
            append_legacy_delta(catalog, version, rows, parts)
        payload = json.loads((catalog.directory / MANIFEST_NAME).read_text())
        assert "row_log_bytes" not in payload and len(payload["deltas"]) == 2
        return commits

    @staticmethod
    def _assert_rows(store, base, commits):
        """Each row holds the newest commit's part, else the base row."""
        expected = {
            row: (base.indices[base.indptr[row] : base.indptr[row + 1]],
                  base.data[base.indptr[row] : base.indptr[row + 1]])
            for row in range(base.shape[0])
        }
        for _, commit_rows, parts in commits:
            expected.update(zip(commit_rows, parts))
        for row, (columns, values) in expected.items():
            csr_row = store.matrix.getrow(row)
            assert np.array_equal(csr_row.indices, columns), row
            assert np.array_equal(csr_row.data, values), row

    def test_old_layout_opens_takes_commits_and_compacts(
        self, catalog, catalog_graph, catalog_index
    ):
        n = catalog_graph.num_vertices
        commits = self._legacy_catalog(catalog, n)

        legacy = IndexCatalog.open(catalog.directory)
        assert legacy.manifest.row_log_bytes == 0
        state = legacy.restore(catalog_graph)
        self._assert_rows(state.store, catalog_index.matrix, commits)
        assert state.graph_version == 3
        assert state.row_versions[3] == 2 and state.row_versions[17] == 3

        # New commits go to the row log; the legacy deltas stay committed.
        newer = (4, [17, 5], _fresh_parts([17, 5], n, seed=6))
        legacy.append_delta(*newer)
        commits.append(newer)
        assert [record.file for record in legacy.manifest.deltas] == [
            "delta-000000.npz", "delta-000001.npz",
        ]
        assert legacy.manifest.row_log_bytes > 0
        before = IndexCatalog.open(catalog.directory).restore(catalog_graph)
        self._assert_rows(before.store, catalog_index.matrix, commits)
        assert before.row_versions[17] == 4 and before.row_versions[3] == 2

        assert legacy.compact() == 3
        assert legacy.manifest.deltas == []
        assert legacy.manifest.row_log_bytes == 0
        names = sorted(p.name for p in catalog.directory.iterdir())
        assert names == [EDGELOG_NAME, MANIFEST_NAME, "base-000001"]
        after = IndexCatalog.open(catalog.directory).restore(catalog_graph)
        assert (after.store.matrix != before.store.matrix).nnz == 0
        self._assert_rows(after.store, catalog_index.matrix, commits)
        assert np.array_equal(after.row_versions, before.row_versions)


class TestEdgeLog:
    def test_append_and_replay(self, catalog):
        catalog.append_edge("add", 3, 4, version=1)
        catalog.append_edge("remove", 3, 4, version=2)
        catalog.append_edge("add", 7, 9, version=3)
        assert catalog.read_edge_log() == [
            ("add", 3, 4, 1), ("remove", 3, 4, 2), ("add", 7, 9, 3),
        ]

    def test_unknown_operation_rejected(self, catalog):
        with pytest.raises(ConfigurationError, match="unknown edge operation"):
            catalog.append_edge("toggle", 1, 2, version=1)

    def test_torn_tail_is_dropped(self, catalog, catalog_graph):
        catalog.append_edge("add", 3, 4, version=1)
        with open(catalog.directory / EDGELOG_NAME, "a") as handle:
            handle.write('{"op": "add", "source": 9, "tar')  # crash mid-append
        assert catalog.read_edge_log() == [("add", 3, 4, 1)]
        state = catalog.restore(catalog_graph)
        assert state.edge_ops == [("add", 3, 4, 1)]
        assert state.log_version == 1

    def test_mid_file_corruption_raises(self, catalog):
        catalog.append_edge("add", 3, 4, version=1)
        with open(catalog.directory / EDGELOG_NAME, "a") as handle:
            handle.write("garbage line\n")
        catalog.append_edge("add", 5, 6, version=2)
        with pytest.raises(ConfigurationError, match="corrupt"):
            catalog.read_edge_log()

    def test_log_version_resumes_past_the_base(self, catalog, catalog_graph):
        catalog.append_edge("add", 3, 4, version=1)
        catalog.append_edge("add", 5, 6, version=2)
        state = catalog.restore(catalog_graph)
        assert state.log_version == 2
        assert state.graph_version == 0  # nothing persisted yet


class TestCompaction:
    def test_compact_folds_deltas_and_preserves_state(self, catalog, catalog_graph):
        n = catalog_graph.num_vertices
        rows = [3, 17, 40]
        catalog.append_delta(version=2, rows=rows, parts=_fresh_parts(rows, n, seed=4))
        catalog.append_delta(version=3, rows=[17], parts=_fresh_parts([17], n, seed=5))
        before = catalog.restore(catalog_graph)

        folded = catalog.compact()
        assert folded == 2
        assert catalog.manifest.base_generation == 1
        assert catalog.manifest.deltas == []
        assert catalog.manifest.graph_version == 3

        after = catalog.restore(catalog_graph)
        assert np.array_equal(after.store.matrix.data, before.store.matrix.data)
        assert np.array_equal(after.store.matrix.indices, before.store.matrix.indices)
        assert np.array_equal(after.store.matrix.indptr, before.store.matrix.indptr)
        assert np.array_equal(after.row_versions, before.row_versions)

        # Old generation and consumed deltas are gone; reopen still works.
        names = sorted(p.name for p in catalog.directory.iterdir())
        assert names == [EDGELOG_NAME, MANIFEST_NAME, "base-000001"]
        reopened = IndexCatalog.open(catalog.directory)
        assert reopened.manifest == catalog.manifest

    def test_compact_with_tiny_budget_spills_and_matches(self, catalog, catalog_graph):
        n = catalog_graph.num_vertices
        catalog.append_delta(
            version=1, rows=[2, 9], parts=_fresh_parts([2, 9], n, seed=6)
        )
        before = catalog.restore(catalog_graph)
        catalog.compact(memory_budget=1024)
        after = catalog.restore(catalog_graph)
        assert np.array_equal(after.store.matrix.data, before.store.matrix.data)
        assert np.array_equal(after.store.matrix.indptr, before.store.matrix.indptr)

    def test_compact_without_deltas_is_a_clean_rewrite(self, catalog, catalog_graph):
        before = catalog.restore(catalog_graph)
        assert catalog.compact() == 0
        after = catalog.restore(catalog_graph)
        assert np.array_equal(after.store.matrix.data, before.store.matrix.data)
        assert catalog.manifest.base_generation == 1

    def test_compact_reaps_orphans(self, catalog, catalog_graph):
        (catalog.directory / "delta-000005.npz").write_bytes(b"orphan")
        (catalog.directory / "base-000009").mkdir()
        catalog.compact()
        assert not (catalog.directory / "delta-000005.npz").exists()
        assert not (catalog.directory / "base-000009").exists()

    def test_edge_log_survives_compaction(self, catalog, catalog_graph):
        catalog.append_edge("add", 1, 2, version=1)
        catalog.compact()
        assert catalog.read_edge_log() == [("add", 1, 2, 1)]
