"""The result object shared by every SimRank solver in the package.

All solvers — the paper's OIP-SR/OIP-DSR and every baseline — return a
:class:`SimRankResult` so benchmarks, tests and examples can treat them
uniformly: an ``n × n`` score matrix plus the metadata needed to reproduce
the paper's figures (iteration count, per-phase timings, addition counts,
peak intermediate memory).
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ConfigurationError
from ..graph.digraph import DiGraph
from .instrumentation import Instrumentation

__all__ = [
    "SIEVE_TOLERANCE",
    "SimRankResult",
    "sieve",
    "validate_damping",
    "validate_iterations",
    "validate_threshold",
]

SIEVE_TOLERANCE = 1e-12
"""Relative slack of threshold sieving: :func:`sieve` zeroes entries below
``threshold · (1 − SIEVE_TOLERANCE)``.  A score equal to the threshold in
exact arithmetic rounds to either side of it depending on the summation
order; the slack keeps it in every order, so all solvers sieve alike."""


def validate_damping(damping: float) -> float:
    """Validate that the damping factor lies strictly inside ``(0, 1)``."""
    if not 0.0 < damping < 1.0:
        raise ConfigurationError(
            f"damping factor C must lie in (0, 1), got {damping}"
        )
    return float(damping)


def validate_threshold(threshold: float) -> float:
    """Validate a threshold-sieving value: a non-negative number."""
    if not threshold >= 0.0:  # also rejects NaN
        raise ConfigurationError(
            f"threshold must be a non-negative number, got {threshold}"
        )
    return float(threshold)


def sieve(values: np.ndarray, threshold: float) -> None:
    """Threshold sieving (Lizorkin et al.): zero, in place, every entry of
    ``values`` below ``threshold``, up to :data:`SIEVE_TOLERANCE`.

    Entries equal to the threshold in exact arithmetic survive.  A threshold
    of 0 leaves ``values`` unchanged.  Callers re-pin their diagonal.
    """
    if threshold > 0.0:
        values[values < threshold * (1.0 - SIEVE_TOLERANCE)] = 0.0


def validate_iterations(iterations: int) -> int:
    """Validate that an iteration count is a non-negative integer."""
    if iterations < 0:
        raise ConfigurationError(f"iterations must be non-negative, got {iterations}")
    return int(iterations)


@dataclass
class SimRankResult:
    """Scores plus provenance for one SimRank computation.

    Attributes
    ----------
    scores:
        Dense ``n × n`` array; ``scores[a, b]`` is the similarity of vertices
        ``a`` and ``b``.
    graph:
        The graph the scores were computed on (used for label lookups).
    algorithm:
        Name of the producing algorithm (``"oip-sr"``, ``"psum-sr"``, ...).
    damping:
        The damping factor ``C``.
    iterations:
        Number of iterations actually performed.
    instrumentation:
        Operation counts, per-phase timings and memory high-water marks.
    extra:
        Free-form algorithm-specific metadata (e.g. the accuracy target that
        determined the iteration count, residual history, MST statistics).
    """

    scores: np.ndarray
    graph: DiGraph
    algorithm: str
    damping: float
    iterations: int
    instrumentation: Instrumentation = field(default_factory=Instrumentation)
    extra: dict[str, object] = field(default_factory=dict)

    def similarity(self, first: Hashable, second: Hashable) -> float:
        """Return ``s(first, second)``; arguments may be labels or vertex ids."""
        a = self.graph.index_of(first)
        b = self.graph.index_of(second)
        return float(self.scores[a, b])

    def similarity_row(self, vertex: Hashable) -> np.ndarray:
        """Return the full similarity row ``s(vertex, ·)`` as a copy."""
        return np.array(self.scores[self.graph.index_of(vertex), :])

    def top_k(
        self, vertex: Hashable, k: int = 10, include_self: bool = False
    ) -> list[tuple[Hashable, float]]:
        """Return the ``k`` most similar vertices to ``vertex``.

        Ties are broken by vertex id so the ordering is deterministic.
        """
        index = self.graph.index_of(vertex)
        row = self.scores[index, :]
        order = sorted(
            range(self.graph.num_vertices), key=lambda j: (-float(row[j]), j)
        )
        ranked: list[tuple[Hashable, float]] = []
        for candidate in order:
            if not include_self and candidate == index:
                continue
            ranked.append((self.graph.label_of(candidate), float(row[candidate])))
            if len(ranked) == k:
                break
        return ranked

    @property
    def elapsed_seconds(self) -> float:
        """Total wall-clock seconds across all timed phases."""
        return self.instrumentation.timer.total()

    @property
    def total_additions(self) -> int:
        """Total scalar additions counted across all phases."""
        return self.instrumentation.operations.total()

    @property
    def peak_intermediate_values(self) -> int:
        """Peak number of cached intermediate float values."""
        return self.instrumentation.memory.peak_values

    def summary(self) -> dict[str, object]:
        """Return a flat summary row suitable for benchmark tables."""
        return {
            "algorithm": self.algorithm,
            "n": self.graph.num_vertices,
            "m": self.graph.num_edges,
            "damping": self.damping,
            "iterations": self.iterations,
            "seconds": round(self.elapsed_seconds, 6),
            "additions": self.total_additions,
            "peak_intermediate_values": self.peak_intermediate_values,
        }
