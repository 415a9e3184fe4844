"""Unit tests for the Monte-Carlo fingerprint index (approximate tier)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.monte_carlo import sample_fingerprints
from repro.core.backends import get_backend
from repro.exceptions import ConfigurationError
from repro.service import FingerprintIndex, QueryRequest, build_index
from repro.service.fingerprints import QUERY_BLOCK_ELEMENTS

ITERATIONS = 25
DAMPING = 0.6


@pytest.fixture(scope="module")
def fingerprints(served_graph):
    return FingerprintIndex.build(
        served_graph, damping=DAMPING, num_walks=128, seed=3
    )


class TestConstruction:
    def test_shape_metadata(self, fingerprints, served_graph):
        assert fingerprints.num_vertices == served_graph.num_vertices
        assert fingerprints.num_walks == 128
        assert fingerprints.walk_length == 14  # ceil(log_0.6 1e-3)
        assert fingerprints.head_iterations == 4
        assert fingerprints.memory_bytes() > 0

    def test_standard_error_scale(self, fingerprints):
        expected = DAMPING**5 / np.sqrt(128)
        assert fingerprints.standard_error == pytest.approx(expected)

    def test_build_is_deterministic(self, served_graph, fingerprints):
        again = FingerprintIndex.build(
            served_graph, damping=DAMPING, num_walks=128, seed=3
        )
        assert np.array_equal(again._walks, fingerprints._walks)

    def test_validation(self, served_graph):
        with pytest.raises(ConfigurationError):
            FingerprintIndex(np.zeros((2, 2)), DAMPING)  # not 3-d
        walks = sample_fingerprints(served_graph, 2, 3, seed=0)
        with pytest.raises(ConfigurationError):
            FingerprintIndex(walks, DAMPING, head_iterations=-1)
        with pytest.raises(ConfigurationError):
            # An exact head needs the operator to evaluate it against.
            FingerprintIndex(walks, DAMPING, head_iterations=2, transition=None)
        # head_iterations=0 needs no transition.
        FingerprintIndex(walks, DAMPING, head_iterations=0)


class TestEstimation:
    def test_batched_rows_equal_single_rows_exactly(self, fingerprints):
        indices = [0, 3, 17, 64, 127]
        batched = fingerprints.estimate_rows(indices)
        for position, vertex in enumerate(indices):
            assert np.array_equal(batched[position], fingerprints.estimate_row(vertex))

    def test_block_boundaries_are_invisible(self, served_graph, monkeypatch):
        import repro.service.fingerprints as module

        fp = FingerprintIndex.build(
            served_graph, damping=DAMPING, num_walks=16, seed=5
        )
        whole = fp.estimate_rows(range(32))
        # Shrink the broadcast budget so the same batch needs many blocks.
        monkeypatch.setattr(module, "QUERY_BLOCK_ELEMENTS", 1)
        blocked = fp.estimate_rows(range(32))
        assert np.array_equal(whole, blocked)
        assert QUERY_BLOCK_ELEMENTS > 1  # the module default is untouched

    def test_diagonal_is_pinned_to_one(self, fingerprints):
        rows = fingerprints.estimate_rows([2, 9])
        assert rows[0, 2] == 1.0
        assert rows[1, 9] == 1.0
        assert fingerprints.estimate_pair(5, 5) == 1.0

    def test_scores_lie_in_range(self, fingerprints):
        rows = fingerprints.estimate_rows(range(16))
        assert rows.min() >= 0.0
        assert rows.max() <= 1.0 + 1e-12

    def test_out_of_range_query_raises(self, fingerprints):
        with pytest.raises(ConfigurationError):
            fingerprints.estimate_rows([fingerprints.num_vertices])
        with pytest.raises(ConfigurationError):
            fingerprints.estimate_rows([-1])

    def test_empty_batch(self, fingerprints):
        rows = fingerprints.estimate_rows([])
        assert rows.shape == (0, fingerprints.num_vertices)

    def test_top_k_orders_by_score_then_id(self, fingerprints):
        entries = fingerprints.top_k(0, k=10)
        assert len(entries) == 10
        assert 0 not in [candidate for candidate, _ in entries]
        for (left_id, left), (right_id, right) in zip(entries, entries[1:]):
            assert left > right or (left == right and left_id < right_id)

    def test_pure_head_is_exact_series_prefix(self, served_graph):
        # walk_length <= head: the tail is empty, so the estimate is the
        # deterministic truncated series itself.
        engine = get_backend("sparse")
        fp = FingerprintIndex.build(
            served_graph,
            damping=DAMPING,
            num_walks=4,
            walk_length=3,
            head_iterations=6,
            seed=1,
        )
        exact = engine.similarity_rows(
            engine.transition(served_graph),
            np.arange(8, dtype=np.int64),
            damping=DAMPING,
            iterations=6,
        )
        assert np.array_equal(fp.estimate_rows(range(8)), exact)


class TestAccuracy:
    def test_served_rankings_overlap_exact_tier(self, served_graph, fingerprints):
        # Compare through the service layer, which pads short rows the same
        # way in every tier (zero-score candidates in id order).
        from repro.service import SimilarityService

        index = build_index(
            served_graph, index_k=20, damping=DAMPING, iterations=ITERATIONS
        )
        exact = SimilarityService(
            served_graph, index, k=10, damping=DAMPING, iterations=ITERATIONS
        )
        approx = SimilarityService(
            served_graph,
            None,
            k=10,
            damping=DAMPING,
            iterations=ITERATIONS,
            cache_size=0,
            fingerprints=fingerprints,
        )
        overlaps = []
        for query in range(0, served_graph.num_vertices, 7):
            estimated = set(
                approx.query(QueryRequest(query=query, approx=True)).labels()
            )
            reference = set(exact.top_k(query).labels())
            overlaps.append(len(estimated & reference) / 10)
        assert float(np.mean(overlaps)) >= 0.9

    def test_head_reduces_error(self, served_graph):
        # The exact head is the variance-reduction lever: with it, scores
        # sit much closer to the exact series than without.
        engine = get_backend("sparse")
        exact = engine.similarity_rows(
            engine.transition(served_graph),
            np.arange(served_graph.num_vertices, dtype=np.int64),
            damping=DAMPING,
            iterations=ITERATIONS,
        )
        errors = {}
        for head in (0, 4):
            fp = FingerprintIndex.build(
                served_graph,
                damping=DAMPING,
                num_walks=64,
                head_iterations=head,
                seed=9,
            )
            rows = fp.estimate_rows(range(served_graph.num_vertices))
            errors[head] = float(np.abs(rows - exact).mean())
        assert errors[4] < errors[0] / 2
