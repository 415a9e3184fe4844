"""Regression pins: every legacy stats surface reads through the registry.

Four surfaces moved onto :class:`~repro.obs.MetricsRegistry` — the
service's :class:`ServiceStats`, the SLO controller's latency window, the
engine's :class:`ArtifactCounters` and the spill accumulator's
:class:`SpillStats` (plus the micro-batcher counters they pulled along).
Their attributes must keep returning *bit-identical* values.
"""

from __future__ import annotations

import pytest

from repro.engine.engine import ArtifactCounters
from repro.serve.slo import SLOController
from repro.service.batcher import MicroBatcher
from repro.service.service import TIERS, ServiceStats
from repro.service.spill import SpillStats


class TestServiceStatsViews:
    def test_counters_read_through_registry(self):
        stats = ServiceStats()
        stats.record("index", 0.002)
        stats.record("index", 0.003)
        stats.record("cache", 0.001)
        stats.note_update()
        stats.note_refreshed(5)
        registry = stats.registry.snapshot()
        assert stats.queries == 3 == registry["counters"]["service_queries"]
        assert stats.updates == 1 == registry["counters"]["service_updates"]
        assert registry["counters"]["service_refreshed_rows"] == 5
        assert registry["counters"]["tier_hits{tier=index}"] == 2
        assert registry["counters"]["tier_hits{tier=cache}"] == 1

    def test_latency_totals_bit_identical_to_legacy_accumulation(self):
        stats = ServiceStats()
        elapsed_values = [0.0012, 0.00034, 0.0056, 1e-7, 0.123]
        legacy_total = 0.0
        for elapsed in elapsed_values:
            stats.record("compute", elapsed)
            legacy_total += elapsed  # the old `total += elapsed` loop
        tier = stats._tiers["compute"]
        assert tier.total == legacy_total  # ==, not approx
        assert list(stats.samples("compute")) == elapsed_values
        hist = registry_hist = stats.registry.histogram(
            "tier_latency_seconds", tier="compute"
        )
        assert registry_hist.total == legacy_total
        assert hist.count == len(elapsed_values)

    def test_snapshot_keys_unchanged(self):
        snapshot = ServiceStats().snapshot()
        expected = {"queries", "updates", "refreshed_rows"}
        for tier in TIERS:
            expected |= {f"{tier}_hits", f"{tier}_share", f"{tier}_mean_seconds"}
        assert set(snapshot) == expected


class TestSLOControllerViews:
    def test_counters_read_through_registry(self):
        controller = SLOController(10.0, window=8, min_samples=2)
        for _ in range(2):
            controller.observe(0.5)  # 500 ms >> 10 ms target: degrade
        assert controller.degraded
        for _ in range(10):
            controller.observe(0.001)  # 1 ms: recover
        assert not controller.degraded
        registry = controller.registry.snapshot()
        assert controller.transitions == 2 == registry["counters"]["slo_transitions"]
        assert controller.degrades == 1 == registry["counters"]["slo_degrades"]
        assert controller.recoveries == 1 == registry["counters"]["slo_recoveries"]
        assert registry["counters"]["slo_observed"] == 12
        assert registry["gauges"]["slo_degraded"] == 0
        snapshot = controller.snapshot()
        assert snapshot["degrades"] == 1
        assert snapshot["recoveries"] == 1
        assert snapshot["observed"] == 12

    def test_window_is_registry_histogram(self):
        controller = SLOController(10.0, window=4, min_samples=2)
        controller.observe(0.001)
        hist = controller.registry.histogram("slo_latency_ms")
        assert hist.samples() == [1.0]  # stored in milliseconds


class TestArtifactCountersViews:
    def test_attributes_read_and_write_through_registry(self):
        counters = ArtifactCounters()
        counters.index_builds += 1
        counters.plan_cache_hits += 3
        counters.plans = 7  # tests reset counters by assignment
        registry = counters.registry.snapshot()["counters"]
        assert counters.index_builds == 1 == registry["engine_index_builds"]
        assert counters.plan_cache_hits == 3 == registry["engine_plan_cache_hits"]
        assert counters.plans == 7 == registry["engine_plans"]
        assert counters.as_dict()["index_builds"] == 1

    def test_equality_by_value(self):
        left, right = ArtifactCounters(), ArtifactCounters()
        assert left == right
        left.executor_builds += 1
        assert left != right
        right.executor_builds += 1
        assert left == right


class TestSpillStatsViews:
    def test_attributes_read_and_write_through_registry(self):
        stats = SpillStats(segments=2, spilled_entries=100)
        stats.spilled_bytes += 1600
        stats.peak_resident_bytes = max(stats.peak_resident_bytes, 4096)
        registry = stats.registry.snapshot()
        assert stats.segments == 2 == registry["counters"]["spill_segments"]
        assert registry["counters"]["spill_spilled_entries"] == 100
        assert registry["counters"]["spill_spilled_bytes"] == 1600
        assert registry["gauges"]["spill_peak_resident_bytes"] == 4096

    def test_equality_and_copy_semantics(self):
        source = SpillStats(segments=3, spilled_bytes=10)
        target = SpillStats()
        target.copy_from(source)
        assert target == source
        source.segments = 9
        assert target.segments == 3  # value copy, not aliasing


class TestMicroBatcherViews:
    def test_counters_read_through_registry(self):
        import numpy as np

        batcher = MicroBatcher(
            lambda indices: np.zeros((indices.size, 4)), max_batch=64
        )
        batcher.submit_many([1, 2, 2, 3])
        batcher.flush()
        registry = batcher.registry.snapshot()["counters"]
        assert batcher.queries_submitted == 4 == registry["batcher_queries_submitted"]
        assert batcher.batches_issued == 1 == registry["batcher_batches_issued"]
        assert batcher.rows_computed == 3 == registry["batcher_rows_computed"]

    def test_counter_attributes_are_read_only(self):
        import numpy as np

        batcher = MicroBatcher(lambda indices: np.zeros((indices.size, 4)))
        with pytest.raises(AttributeError):
            batcher.batches_issued = 5
