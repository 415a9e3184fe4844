"""Statistics, process probes and seeded input streams shared by the phases.

The benchmark keeps its own statistics instead of importing the program's,
so a change to the program cannot change how it is measured.
"""

from __future__ import annotations

import math
import os
import time
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np
import scipy.sparse

T = TypeVar("T")

ZIPF_EXPONENT = 1.0
REFERENCE_S = 0.021
"""Seconds one :class:`HostSpeed` reference loop takes at reference speed.

That is its time on the 2-vCPU Xeon host the bounds were set on, in the
host's fast state.
"""


def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default), ``q`` in [0, 100]."""
    data = sorted(values)
    if not data:
        return float("nan")
    position = (len(data) - 1) * q / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    return data[low] + (data[high] - data[low]) * (position - low)


def median(values: Iterable[float]) -> float:
    return percentile(values, 50.0)


def windowed_percentile(
    ordered: Sequence[float], per_window: int, q: float
) -> list[float]:
    """The ``q``-th percentile of each consecutive full window of samples."""
    return [
        percentile(ordered[start:start + per_window], q)
        for start in range(0, len(ordered) - per_window + 1, per_window)
    ]


class HostSpeed:
    """Scales timings to reference host speed with a fixed reference loop.

    On a small shared host the speed of every kind of work (interpreter,
    sparse kernels, the server process) drifts together by about 1.5x,
    in spells of tens of seconds to minutes, so whole runs can fall in a
    slow spell.  The reference loop does the same work in every run and
    shares no code with the program: a pure-Python table walk and a
    sparse matrix-vector product.  :meth:`scaled` runs it before and after
    a timed step; the step's times are multiplied by :data:`REFERENCE_S`
    over the loop's mean time and so read as seconds at reference speed.
    The speed changes within seconds too, so steps are kept short (one
    solve, 40 serve-write operations, one 0.5 s serve-read window) and
    each metric is a median over many of them.  A change to the program
    cannot move the loop, so it still moves the scaled times.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._matrix = scipy.sparse.random(
            20_000, 20_000, density=5e-4, format="csr", random_state=rng
        )
        self._vector = rng.random(20_000)
        self._table = {key: key * 7 % 1013 for key in range(4096)}
        self.factors: list[float] = []

    def reference_s(self) -> float:
        """Seconds of one reference loop now."""
        table = self._table
        started = time.perf_counter()
        total = 0
        for key in range(150_000):
            total += table[key & 4095]
        vector = self._vector
        for _ in range(30):
            vector = self._matrix @ vector + self._vector
        return time.perf_counter() - started

    def scaled(self, run: Callable[[], T]) -> tuple[T, float]:
        """``run()``'s result and the factor that scales its times to reference speed."""
        return next(self.scaled_each([run]))

    def scaled_each(self, runs: Iterable[Callable[[], T]]) -> Iterator[tuple[T, float]]:
        """:meth:`scaled` for consecutive steps, which share the loop between them."""
        before = self.reference_s()
        for run in runs:
            result = run()
            after = self.reference_s()
            yield result, self.factor([before, after])
            before = after

    def factor(self, references: Sequence[float]) -> float:
        """The factor that scales times to reference speed, from loop times."""
        factor = REFERENCE_S / median(references)
        self.factors.append(factor)
        return factor


def peak_rss_mb(pid: str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for process {pid}")


def written_bytes() -> int:
    """Bytes this process has passed to ``write`` calls (``wchar``)."""
    with open("/proc/self/io", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("no wchar line in /proc/self/io")


def zipf_stream(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """``count`` vertex ids whose popularity follows Zipf(:data:`ZIPF_EXPONENT`).

    The popularity order is a seeded permutation of the vertices, so each
    seed has its own hot set with the same skew.  Ranks are drawn by
    systematic sampling, so each appears its expected number of times
    rounded up or down, and the seed shuffles their order: independent
    draws would let the share of repeated reads, and with it every
    serving time, vary from seed to seed.
    """
    order = rng.permutation(n)
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** ZIPF_EXPONENT
    cumulative = np.cumsum(weights / weights.sum())
    quantiles = (np.arange(count) + rng.random()) / count
    ranks = np.minimum(np.searchsorted(cumulative, quantiles, side="right"), n - 1)
    return order[rng.permutation(ranks)]


def new_edges(
    rng: np.random.Generator, n: int, existing: set, count: int
) -> list[tuple[int, int]]:
    """``count`` distinct directed edges absent from ``existing`` (no loops)."""
    chosen: list[tuple[int, int]] = []
    taken = set(existing)
    while len(chosen) < count:
        source, target = (int(value) for value in rng.integers(n, size=2))
        if source != target and (source, target) not in taken:
            taken.add((source, target))
            chosen.append((source, target))
    return chosen


def env_with_sources(root: str) -> dict[str, str]:
    """Child-process environment that imports ``repro`` from ``root/src``."""
    env = dict(os.environ)
    source = os.path.join(root, "src")
    env["PYTHONPATH"] = source + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["REPRO_COST_PROFILE"] = "static"
    return env
