"""Tests for threshold-sieved OIP-SR (Lizorkin's third optimisation + sharing)."""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro.baselines.psum_sr import psum_simrank
from repro.core.oip_sr import oip_sr
from repro.exceptions import ConfigurationError


class TestThresholdSieving:
    def test_zero_threshold_is_exact(self, small_web_graph):
        plain = oip_sr(small_web_graph, damping=0.6, iterations=5)
        sieved = oip_sr(small_web_graph, damping=0.6, iterations=5, threshold=0.0)
        assert np.array_equal(plain.scores, sieved.scores)

    def test_small_scores_are_zeroed(self, small_web_graph):
        sieved = oip_sr(small_web_graph, damping=0.6, iterations=5, threshold=0.05)
        off_diagonal = sieved.scores.copy()
        np.fill_diagonal(off_diagonal, 0.0)
        surviving = off_diagonal[off_diagonal > 0]
        assert surviving.size == 0 or surviving.min() >= 0.05
        assert np.allclose(np.diag(sieved.scores), 1.0)

    def test_matches_sieved_psum_sr(self, small_web_graph):
        # The sieving rule composes identically with and without sharing.
        ours = oip_sr(small_web_graph, damping=0.6, iterations=5, threshold=0.02)
        reference = psum_simrank(
            small_web_graph, damping=0.6, iterations=5, threshold=0.02
        )
        assert np.allclose(ours.scores, reference.scores, atol=1e-10)

    @pytest.mark.parametrize(
        "graph_fixture, threshold, iterations",
        [
            ("berkstan_graph", 0.1, 1),
            ("rmat_scale10_graph", 0.01, 5),
            ("dblp_d02_graph", 0.05, 5),
        ],
    )
    def test_matches_psum_sr_at_tied_thresholds(
        self, request, graph_fixture, threshold, iterations
    ):
        # Some scores equal the threshold in exact arithmetic and round to
        # either side of it in each solver's summation order; both keep them.
        graph = request.getfixturevalue(graph_fixture)
        ours = oip_sr(graph, damping=0.6, iterations=iterations, threshold=threshold)
        reference = psum_simrank(
            graph, damping=0.6, iterations=iterations, threshold=threshold
        )
        assert np.max(np.abs(ours.scores - reference.scores)) <= 1e-12

    def test_large_scores_survive_moderate_sieving(self, small_web_graph):
        plain = oip_sr(small_web_graph, damping=0.6, iterations=5)
        sieved = oip_sr(small_web_graph, damping=0.6, iterations=5, threshold=0.01)
        strong = plain.scores >= 0.3
        assert np.allclose(plain.scores[strong], sieved.scores[strong], atol=0.02)

    def test_threshold_recorded_in_metadata(self, paper_graph):
        result = oip_sr(paper_graph, damping=0.6, iterations=3, threshold=0.01)
        assert result.extra["threshold"] == 0.01

    def test_negative_threshold_rejected(self, paper_graph):
        with pytest.raises(ConfigurationError):
            oip_sr(paper_graph, damping=0.6, iterations=3, threshold=-0.1)

    def test_nan_threshold_rejected(self, paper_graph):
        with pytest.raises(ConfigurationError, match="threshold"):
            oip_sr(paper_graph, damping=0.6, iterations=3, threshold=float("nan"))

    @pytest.mark.parametrize("threshold", [-0.1, float("nan")])
    def test_threshold_checked_before_the_plan_is_built(
        self, paper_graph, monkeypatch, threshold
    ):
        def unexpected_build(*args, **kwargs):
            raise AssertionError("DMST-Reduce ran before the threshold check")

        # ``repro.core`` re-exports the function under the module's name.
        module = importlib.import_module("repro.core.oip_sr")
        monkeypatch.setattr(module, "dmst_reduce", unexpected_build)
        with pytest.raises(ConfigurationError, match="threshold"):
            oip_sr(paper_graph, damping=0.6, iterations=3, threshold=threshold)
