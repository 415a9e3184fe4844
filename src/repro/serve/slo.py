"""SLO tracking with hysteresis for the serving front-end.

:class:`SLOController` watches a sliding window of request latencies and
decides *one* bit: is the server currently degraded?  While degraded, the
dispatcher routes undecided queries (``approx=None``) to the Monte-Carlo
tier — trading the bounded fingerprint error for latency, exactly the
index→approx→compute preference order the planner applies offline with
static budgets, but driven by the *live* p99 instead.

Two details keep the bit stable rather than flappy:

* **Hysteresis** — degradation starts when the windowed p99 exceeds the
  target, but recovery requires p99 at or below ``recover_ratio`` (default
  0.8×) of the target, so a p99 hovering at the threshold does not toggle
  the tier every batch.
* **Window reset on transition** — samples observed under the *previous*
  regime say nothing about the new one (pre-degradation latencies would
  hold the controller degraded long after the approx tier fixed the
  breach).  Each transition clears the window and waits for
  ``min_samples`` fresh observations before judging again.

The controller is deterministic and clock-free: callers feed it measured
durations, so tests can drive every transition with synthetic latencies.
It is not thread-safe — the server confines it to the dispatcher task.

Since the observability refactor the latency window and counters live on
a :class:`~repro.obs.MetricsRegistry` (instruments ``slo_latency_ms``,
``slo_transitions``, ``slo_degrades``, ``slo_recoveries``, ``slo_observed``
and the ``slo_degraded`` gauge); the historical attributes remain as views
with bit-identical values, and the p99 estimator is unchanged
(nearest-rank over the same bounded window).
"""

from __future__ import annotations

from typing import Optional

from ..exceptions import ConfigurationError
from ..obs import MetricsRegistry

__all__ = ["SLOController"]


class SLOController:
    """Turn live p99 latency into a degrade/recover decision.

    Parameters
    ----------
    slo_p99_ms:
        The p99 target in milliseconds; ``None`` disables the controller
        (it then never degrades and records nothing).
    window:
        Sliding-window size in samples for the p99 estimate.
    min_samples:
        Observations required after a reset before the controller judges;
        below it the current state holds.
    recover_ratio:
        Fraction of the target the p99 must drop to before a degraded
        controller recovers (the hysteresis gap).
    registry:
        Optional :class:`~repro.obs.MetricsRegistry` to register the
        controller's instruments on (the server passes its own, so SLO
        state rides the wire ``metrics`` snapshot).  A private registry is
        created when omitted.
    """

    def __init__(
        self,
        slo_p99_ms: Optional[float],
        *,
        window: int = 256,
        min_samples: int = 20,
        recover_ratio: float = 0.8,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if slo_p99_ms is not None and slo_p99_ms <= 0:
            raise ConfigurationError(
                f"slo_p99_ms must be positive, got {slo_p99_ms}"
            )
        if window <= 0:
            raise ConfigurationError(f"window must be positive, got {window}")
        if min_samples <= 0 or min_samples > window:
            raise ConfigurationError(
                f"min_samples must be in [1, window], got {min_samples}"
            )
        if not 0.0 < recover_ratio <= 1.0:
            raise ConfigurationError(
                f"recover_ratio must be in (0, 1], got {recover_ratio}"
            )
        self.slo_p99_ms = slo_p99_ms
        self.min_samples = int(min_samples)
        self.recover_ratio = float(recover_ratio)
        self.registry = registry if registry is not None else MetricsRegistry()
        # The window itself: a histogram whose bounded reservoir *is* the
        # sliding window (same maxlen semantics as the old deque).  The
        # bucket bounds are in milliseconds, unlike the default
        # second-scale bounds.
        self._window = self.registry.histogram(
            "slo_latency_ms",
            buckets=(1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
                     500.0, 1000.0, 2500.0, 5000.0),
            reservoir=int(window),
        )
        self._transitions = self.registry.counter("slo_transitions")
        self._degrades = self.registry.counter("slo_degrades")
        self._recoveries = self.registry.counter("slo_recoveries")
        self._observed = self.registry.counter("slo_observed")
        self._degraded_gauge = self.registry.gauge("slo_degraded")
        self._degraded = False

    @property
    def enabled(self) -> bool:
        """Whether a target is configured at all."""
        return self.slo_p99_ms is not None

    @property
    def degraded(self) -> bool:
        """The current decision: route undecided queries to approx?"""
        return self._degraded

    @property
    def transitions(self) -> int:
        """Total degrade + recover transitions."""
        return int(self._transitions.value)

    @property
    def degrades(self) -> int:
        """Transitions *into* degraded mode."""
        return int(self._degrades.value)

    @property
    def recoveries(self) -> int:
        """Transitions back *out of* degraded mode."""
        return int(self._recoveries.value)

    def p99_ms(self) -> Optional[float]:
        """The windowed p99, or ``None`` before any observation."""
        samples = self._window.samples()
        if not samples:
            return None
        ordered = sorted(samples)
        # Nearest-rank p99 (matches bench.results.latency_summary).
        rank = min(len(ordered) - 1, int(round(0.99 * (len(ordered) - 1))))
        return ordered[rank]

    def observe(self, seconds: float) -> bool:
        """Record one request latency; returns the (possibly new) decision.

        The duration covers admission to response — queue wait included,
        because queue wait is what the caller experiences.
        """
        if self.slo_p99_ms is None:
            return False
        self._observed.inc()
        self._window.observe(seconds * 1000.0)
        if self._window.count < self.min_samples:
            return self._degraded
        p99 = self.p99_ms()
        assert p99 is not None
        if not self._degraded and p99 > self.slo_p99_ms:
            self._transition(True)
        elif self._degraded and p99 <= self.slo_p99_ms * self.recover_ratio:
            self._transition(False)
        return self._degraded

    def _transition(self, degraded: bool) -> None:
        self._degraded = degraded
        self._degraded_gauge.set(int(degraded))
        self._transitions.inc()
        (self._degrades if degraded else self._recoveries).inc()
        self._window.clear()

    def snapshot(self) -> dict[str, object]:
        """Controller state for the ``stats`` op and benchmark reports."""
        return {
            "slo_p99_ms": self.slo_p99_ms,
            "degraded": self._degraded,
            "live_p99_ms": self.p99_ms(),
            "transitions": self.transitions,
            "degrades": self.degrades,
            "recoveries": self.recoveries,
            "observed": int(self._observed.value),
        }

    def __repr__(self) -> str:
        return (
            f"<SLOController target={self.slo_p99_ms} "
            f"degraded={self._degraded} observed={int(self._observed.value)}>"
        )
