"""SLO controller: degradation, hysteresis, window resets — all clock-free."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.serve.slo import SLOController


def _feed(controller: SLOController, ms: float, count: int) -> None:
    for _ in range(count):
        controller.observe(ms / 1000.0)


class TestSLOController:
    def test_disabled_controller_never_degrades(self):
        controller = SLOController(None)
        _feed(controller, 10_000.0, 100)
        assert not controller.degraded
        assert controller.snapshot()["observed"] == 0  # disabled: nothing recorded

    def test_holds_until_min_samples(self):
        controller = SLOController(10.0, min_samples=20)
        _feed(controller, 100.0, 19)
        assert not controller.degraded  # too few samples to judge
        controller.observe(0.1)
        assert controller.degraded

    def test_degrades_on_p99_breach(self):
        controller = SLOController(10.0, min_samples=20)
        _feed(controller, 50.0, 20)
        assert controller.degraded
        assert controller.transitions == 1

    def test_fast_traffic_never_degrades(self):
        controller = SLOController(10.0, min_samples=20)
        _feed(controller, 1.0, 500)
        assert not controller.degraded
        assert controller.transitions == 0

    def test_hysteresis_blocks_recovery_at_threshold(self):
        controller = SLOController(10.0, min_samples=20, recover_ratio=0.8)
        _feed(controller, 50.0, 20)
        assert controller.degraded
        # p99 just under the target is NOT enough — recovery needs 0.8x
        # (300 samples: enough to fully flush the 256-deep window).
        _feed(controller, 9.5, 300)
        assert controller.degraded
        _feed(controller, 7.9, 300)
        assert not controller.degraded
        assert controller.transitions == 2

    def test_window_resets_on_transition(self):
        controller = SLOController(10.0, min_samples=20)
        _feed(controller, 50.0, 20)
        assert controller.degraded
        # The breaching samples were discarded: 19 fast samples are still
        # below min_samples, so the state holds...
        _feed(controller, 1.0, 19)
        assert controller.degraded
        # ...and the 20th fresh sample completes a fully-recovered window.
        controller.observe(0.001)
        assert not controller.degraded

    def test_p99_is_nearest_rank_of_window(self):
        controller = SLOController(1000.0)
        # 100 samples: nearest-rank picks sorted index round(0.99 * 99) = 98,
        # so two outliers put 500.0 exactly at the p99 position.
        for ms in [1.0] * 98 + [500.0] * 2:
            controller.observe(ms / 1000.0)
        assert controller.p99_ms() == pytest.approx(500.0)
        # A single outlier at index 99 sits above the p99 rank.
        fresh = SLOController(1000.0)
        for ms in [1.0] * 99 + [500.0]:
            fresh.observe(ms / 1000.0)
        assert fresh.p99_ms() == pytest.approx(1.0)

    def test_snapshot_fields(self):
        controller = SLOController(10.0, min_samples=20)
        _feed(controller, 50.0, 20)
        snapshot = controller.snapshot()
        assert snapshot["slo_p99_ms"] == 10.0
        assert snapshot["degraded"] is True
        assert snapshot["transitions"] == 1
        assert snapshot["observed"] == 20

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"slo_p99_ms": 0.0},
            {"slo_p99_ms": -5.0},
            {"slo_p99_ms": 10.0, "window": 0},
            {"slo_p99_ms": 10.0, "min_samples": 0},
            {"slo_p99_ms": 10.0, "window": 10, "min_samples": 11},
            {"slo_p99_ms": 10.0, "recover_ratio": 0.0},
            {"slo_p99_ms": 10.0, "recover_ratio": 1.5},
        ],
    )
    def test_validation(self, kwargs):
        slo = kwargs.pop("slo_p99_ms")
        with pytest.raises(ConfigurationError):
            SLOController(slo, **kwargs)
