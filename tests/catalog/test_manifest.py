"""Unit tests for the catalog manifest: identity hashes + atomic commit record."""

from __future__ import annotations

import json

import pytest

from repro.catalog.manifest import (
    FORMAT_VERSION,
    MANIFEST_BLOCK,
    MANIFEST_NAME,
    CatalogManifest,
    DeltaRecord,
    graph_fingerprint,
    index_config_digest,
)
from repro.exceptions import ConfigurationError
from repro.graph.digraph import DiGraph


def _manifest(**overrides) -> CatalogManifest:
    fields = dict(
        format_version=FORMAT_VERSION,
        graph_hash="a" * 64,
        config_digest="b" * 64,
        damping=0.6,
        iterations=20,
        index_k=12,
        backend="sparse",
        num_vertices=64,
        graph_version=3,
        base_generation=1,
        deltas=[DeltaRecord(file="delta-000000.npz", version=3, rows=4)],
    )
    fields.update(overrides)
    return CatalogManifest(**fields)


class TestGraphFingerprint:
    def test_deterministic_and_structure_sensitive(self):
        graph = DiGraph(4, [(0, 1), (1, 2), (2, 3)])
        same = DiGraph(4, [(2, 3), (0, 1), (1, 2)])  # order must not matter
        other = DiGraph(4, [(0, 1), (1, 2), (3, 2)])
        assert graph_fingerprint(graph) == graph_fingerprint(same)
        assert graph_fingerprint(graph) != graph_fingerprint(other)

    def test_duplicate_edges_do_not_change_the_fingerprint(self):
        # The service keeps edges as a set; a graph ingested with repeated
        # edge lines must hash identically or every restore would reject.
        clean = DiGraph(3, [(0, 1), (1, 2)])
        noisy = DiGraph(3, [(0, 1), (0, 1), (1, 2), (0, 1)])
        assert graph_fingerprint(clean) == graph_fingerprint(noisy)

    def test_vertex_count_participates(self):
        assert graph_fingerprint(DiGraph(3, [(0, 1)])) != graph_fingerprint(
            DiGraph(4, [(0, 1)])
        )

    def test_labels_do_not_participate(self):
        # The index stores vertex ids; relabelled graphs legitimately share it.
        plain = DiGraph(3, [(0, 1), (1, 2)])
        labelled = DiGraph(3, [(0, 1), (1, 2)], labels=["a", "b", "c"])
        assert graph_fingerprint(plain) == graph_fingerprint(labelled)


class TestConfigDigest:
    def test_each_parameter_participates(self):
        base = index_config_digest(0.6, 20, 12)
        assert base == index_config_digest(0.6, 20, 12)
        assert base != index_config_digest(0.8, 20, 12)
        assert base != index_config_digest(0.6, 21, 12)
        assert base != index_config_digest(0.6, 20, 13)

    def test_numeric_types_are_canonicalised(self):
        import numpy as np

        assert index_config_digest(0.6, 20, 12) == index_config_digest(
            np.float64(0.6), np.int64(20), np.int64(12)
        )


class TestManifestRoundTrip:
    def test_json_round_trip_is_exact(self):
        manifest = _manifest()
        assert CatalogManifest.from_json(manifest.to_json()) == manifest

    def test_write_read_round_trip(self, tmp_path):
        manifest = _manifest()
        manifest.write(tmp_path)
        assert CatalogManifest.read(tmp_path) == manifest
        # No temp droppings from the atomic rewrite.
        assert sorted(p.name for p in tmp_path.iterdir()) == [MANIFEST_NAME]

    def test_rewrite_replaces_atomically(self, tmp_path):
        manifest = _manifest()
        manifest.write(tmp_path)
        manifest.graph_version = 9
        manifest.deltas.append(DeltaRecord(file="delta-000001.npz", version=9, rows=1))
        manifest.write(tmp_path)
        assert CatalogManifest.read(tmp_path).graph_version == 9
        assert len(CatalogManifest.read(tmp_path).deltas) == 2

    def test_base_name_tracks_generation(self):
        assert _manifest(base_generation=0).base_name == "base-000000"
        assert _manifest(base_generation=7).base_name == "base-000007"

    def test_row_log_is_named_by_generation_and_its_length_is_optional(self):
        manifest = _manifest(base_generation=7, row_log_bytes=840)
        assert manifest.row_log_name == "rows-000007.log"
        assert CatalogManifest.from_json(manifest.to_json()) == manifest
        # Manifests written before the row log carry no row_log_bytes.
        payload = manifest.to_json()
        del payload["row_log_bytes"]
        assert CatalogManifest.from_json(payload).row_log_bytes == 0

    def test_written_manifest_fills_whole_blocks(self, tmp_path):
        path = tmp_path / MANIFEST_NAME
        small = _manifest(deltas=[])
        small.write(tmp_path)
        assert path.stat().st_size == MANIFEST_BLOCK
        small.graph_version, small.row_log_bytes = 10**9, 10**12
        small.write(tmp_path)
        assert path.stat().st_size == MANIFEST_BLOCK
        assert CatalogManifest.read(tmp_path) == small
        large = _manifest(
            deltas=[
                DeltaRecord(file=f"delta-{i:06d}.npz", version=i, rows=1)
                for i in range(100)
            ]
        )
        large.write(tmp_path)
        assert path.stat().st_size % MANIFEST_BLOCK == 0
        assert path.stat().st_size > MANIFEST_BLOCK
        assert CatalogManifest.read(tmp_path) == large


class TestManifestRejection:
    def test_newer_format_version_rejected(self, tmp_path):
        payload = _manifest().to_json()
        payload["format_version"] = FORMAT_VERSION + 1
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match="newer"):
            CatalogManifest.read(tmp_path)

    def test_older_format_version_still_reads(self):
        # Backward compatibility: the reader keeps accepting older layouts.
        payload = _manifest(format_version=FORMAT_VERSION).to_json()
        assert CatalogManifest.from_json(payload).format_version == FORMAT_VERSION

    def test_missing_format_version_rejected(self):
        payload = _manifest().to_json()
        del payload["format_version"]
        with pytest.raises(ConfigurationError, match="format_version"):
            CatalogManifest.from_json(payload)

    def test_missing_required_field_rejected(self):
        payload = _manifest().to_json()
        del payload["graph_hash"]
        with pytest.raises(ConfigurationError):
            CatalogManifest.from_json(payload)

    def test_invalid_json_rejected(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(ConfigurationError, match="JSON"):
            CatalogManifest.read(tmp_path)

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            CatalogManifest.read(tmp_path)


class TestValidateAgainst:
    def _graph(self):
        return DiGraph(4, [(0, 1), (1, 2), (2, 3)])

    def _matching_manifest(self):
        graph = self._graph()
        return _manifest(
            num_vertices=4, graph_hash=graph_fingerprint(graph)
        )

    def test_matching_graph_passes(self):
        self._matching_manifest().validate_against(self._graph())

    def test_same_size_different_structure_rejected(self):
        other = DiGraph(4, [(0, 1), (1, 2), (3, 0)])
        with pytest.raises(ConfigurationError, match="different graph"):
            self._matching_manifest().validate_against(other)

    def test_wrong_vertex_count_rejected(self):
        with pytest.raises(ConfigurationError, match="vertices"):
            self._matching_manifest().validate_against(DiGraph(5, [(0, 1)]))

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            ({"damping": 0.8}, "damping"),
            ({"iterations": 5}, "iterations"),
            ({"index_k": 99}, "index_k"),
        ],
    )
    def test_config_mismatch_rejected(self, kwargs, fragment):
        with pytest.raises(ConfigurationError, match=fragment):
            self._matching_manifest().validate_against(self._graph(), **kwargs)

    def test_matching_config_passes(self):
        self._matching_manifest().validate_against(
            self._graph(), damping=0.6, iterations=20, index_k=12
        )
