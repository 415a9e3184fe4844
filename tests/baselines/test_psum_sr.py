"""Unit tests for the psum-SR baseline (Lizorkin et al.)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.naive import naive_simrank
from repro.baselines.psum_sr import essential_pair_mask, psum_simrank
from repro.core.oip_sr import oip_sr
from repro.exceptions import ConfigurationError
from repro.graph.builders import path_graph


class TestCorrectness:
    def test_matches_naive(self, paper_graph):
        ours = psum_simrank(paper_graph, damping=0.6, iterations=6)
        reference = naive_simrank(paper_graph, damping=0.6, iterations=6)
        assert np.allclose(ours.scores, reference.scores, atol=1e-12)

    def test_matches_oip_sr_on_web_graph(self, small_web_graph):
        ours = psum_simrank(small_web_graph, damping=0.6, iterations=5)
        shared = oip_sr(small_web_graph, damping=0.6, iterations=5)
        assert np.allclose(ours.scores, shared.scores, atol=1e-10)

    def test_more_additions_than_oip_on_overlapping_graph(self, small_web_graph):
        baseline = psum_simrank(small_web_graph, damping=0.6, iterations=5)
        shared = oip_sr(small_web_graph, damping=0.6, iterations=5)
        assert baseline.total_additions > shared.total_additions

    def test_diagonal_pinned(self, small_citation_graph):
        result = psum_simrank(small_citation_graph, damping=0.7, iterations=4)
        assert np.allclose(np.diag(result.scores), 1.0)


class TestEssentialPairs:
    def test_mask_is_symmetric_with_diagonal(self, paper_graph):
        mask = essential_pair_mask(paper_graph, max_length=5)
        assert np.array_equal(mask, mask.T)
        assert np.all(np.diag(mask))

    def test_path_graph_has_no_essential_offdiagonal_pairs(self):
        # On a directed path no two distinct vertices share an equal-length
        # ancestor, so only the diagonal is essential.
        graph = path_graph(5)
        mask = essential_pair_mask(graph, max_length=6)
        assert mask.sum() == 5

    def test_mask_contains_all_nonzero_pairs(self, paper_graph):
        mask = essential_pair_mask(paper_graph, max_length=8)
        scores = naive_simrank(paper_graph, damping=0.6, iterations=8).scores
        nonzero = scores > 1e-12
        assert np.all(mask[nonzero])

    def test_selection_does_not_change_nonzero_scores(self, paper_graph):
        plain = psum_simrank(paper_graph, damping=0.6, iterations=5)
        selected = psum_simrank(
            paper_graph, damping=0.6, iterations=5, select_essential_pairs=True
        )
        assert np.allclose(plain.scores, selected.scores, atol=1e-12)


class TestThresholdSieving:
    def test_threshold_zeroes_small_scores(self, small_web_graph):
        plain = psum_simrank(small_web_graph, damping=0.6, iterations=4)
        sieved = psum_simrank(
            small_web_graph, damping=0.6, iterations=4, threshold=0.05
        )
        assert np.all(sieved.scores[(sieved.scores > 0) & (sieved.scores < 1)] >= 0.0)
        # Every surviving off-diagonal score is at least the threshold.
        off_diagonal = sieved.scores.copy()
        np.fill_diagonal(off_diagonal, 0.0)
        surviving = off_diagonal[off_diagonal > 0]
        assert surviving.size == 0 or surviving.min() >= 0.05
        # Large scores are unaffected by moderate sieving.
        large = plain.scores >= 0.2
        assert np.allclose(plain.scores[large], sieved.scores[large], atol=0.05)

    @pytest.mark.parametrize("threshold", [-0.1, float("nan")])
    def test_invalid_threshold_rejected(self, paper_graph, threshold):
        with pytest.raises(ConfigurationError, match="threshold"):
            psum_simrank(paper_graph, damping=0.6, iterations=3, threshold=threshold)

    def test_zero_threshold_is_exact(self, paper_graph):
        assert np.allclose(
            psum_simrank(paper_graph, damping=0.6, iterations=4, threshold=0.0).scores,
            naive_simrank(paper_graph, damping=0.6, iterations=4).scores,
        )


class TestMetadata:
    def test_extra_fields(self, paper_graph):
        result = psum_simrank(paper_graph, damping=0.6, iterations=3, threshold=0.01)
        assert result.algorithm == "psum-sr"
        assert result.extra["threshold"] == 0.01
        assert result.extra["additions_per_iteration"] > 0

    def test_reported_additions_match_the_counter(self, paper_graph):
        # f, g and i have no in-neighbours: the loop skips them as sources,
        # so they must not be counted as outer-sum passes either.
        assert any(paper_graph.in_degree(v) == 0 for v in paper_graph.vertices())
        result = psum_simrank(paper_graph, damping=0.6, iterations=3)
        counted = result.instrumentation.operations.total()
        assert result.extra["additions_per_iteration"] * 3 == counted

    def test_reported_additions_pinned_on_rmat(self, rmat_scale10_graph):
        # perfbench's traced rmat ``psum_sr.additions_per_iter``.
        result = psum_simrank(rmat_scale10_graph, damping=0.6, iterations=1)
        assert result.extra["additions_per_iteration"] == 4_180_143
        assert result.instrumentation.operations.total() == 4_180_143

    def test_memory_stays_linear(self, small_web_graph):
        result = psum_simrank(small_web_graph, damping=0.6, iterations=3)
        assert result.peak_intermediate_values <= 2 * small_web_graph.num_vertices
