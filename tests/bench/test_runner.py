"""Unit tests for the experiment runner and report container."""

from __future__ import annotations

import pytest

from repro.api import _ALIASES, available_methods
from repro.bench.runner import (
    ExperimentReport,
    measurement_row,
    run_algorithm,
)
from repro.exceptions import ConfigurationError


class TestRunAlgorithm:
    def test_all_registered_algorithms_run(self, paper_graph):
        for name in (*available_methods(), *_ALIASES):
            if name in ("mtx-sr", "mtx-svd"):
                kwargs: dict[str, object] = {"damping": 0.6}
            elif name == "monte-carlo":
                kwargs = {"damping": 0.6, "num_walks": 20}
            elif name.startswith("p-rank"):
                # P-Rank uses separate in/out damping factors.
                kwargs = {"damping_in": 0.6, "damping_out": 0.6, "iterations": 2}
            else:
                kwargs = {"damping": 0.6, "iterations": 2}
            result = run_algorithm(name, paper_graph, **kwargs)
            assert result.scores.shape == (
                paper_graph.num_vertices,
                paper_graph.num_vertices,
            )

    def test_unknown_algorithm_rejected(self, paper_graph):
        with pytest.raises(ConfigurationError):
            run_algorithm("does-not-exist", paper_graph)

    def test_measurement_row_fields(self, paper_graph):
        result = run_algorithm("oip-sr", paper_graph, damping=0.6, iterations=2)
        row = measurement_row(result, dataset="paper", sweep_K=2)
        assert row["algorithm"] == "oip-sr"
        assert row["dataset"] == "paper"
        assert row["sweep_K"] == 2
        assert "build_mst_seconds" in row
        assert "share_sums_seconds" in row


class TestExperimentReport:
    def test_filter_and_column(self):
        report = ExperimentReport(experiment="x", title="t")
        report.add_row({"algorithm": "a", "seconds": 1.0})
        report.add_row({"algorithm": "b", "seconds": 2.0})
        report.add_row({"algorithm": "a", "seconds": 3.0})
        report.add_note("a note")
        assert len(report.filter(algorithm="a")) == 2
        assert report.column("seconds", algorithm="b") == [2.0]
        assert report.notes == ["a note"]

    def test_records_static_cost_profile_by_default(self):
        report = ExperimentReport(experiment="x", title="t")
        assert report.cost_profile == "static"
        assert report.to_dict()["cost_profile"] == "static"

    def test_records_active_profile_digest(self, tmp_path, monkeypatch):
        from repro.calibrate import CostProfile, KernelMeasurement

        profile = CostProfile(
            kernels={
                "sparse_matvec": KernelMeasurement(
                    kernel="sparse_matvec", seconds_per_op=1e-9, ops=100
                )
            }
        )
        path = profile.save(tmp_path / "profile.json")
        monkeypatch.setenv("REPRO_COST_PROFILE", str(path))
        report = ExperimentReport(experiment="x", title="t")
        assert report.cost_profile == profile.digest()


class TestWorkersForwarding:
    def test_matrix_sr_honours_workers(self, paper_graph):
        import numpy as np

        serial = run_algorithm("matrix-sr", paper_graph, iterations=4)
        parallel = run_algorithm("matrix-sr", paper_graph, iterations=4, workers=2)
        assert parallel.extra["workers"] == 2
        assert np.array_equal(serial.scores, parallel.scores)

    def test_serial_algorithms_keep_running_serial(self, paper_graph):
        # Sweep semantics: a workers request is a preference, not a hard
        # constraint — per-vertex solvers just ignore it instead of raising.
        result = run_algorithm("oip-sr", paper_graph, iterations=2, workers=4)
        assert result.algorithm == "oip-sr"
