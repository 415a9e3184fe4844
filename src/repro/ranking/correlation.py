"""Rank-correlation measures between two similarity rankings.

The paper argues that OIP-DSR "fairly preserves the relative order" of
conventional SimRank; besides NDCG (Fig. 6g) the natural statistics for that
claim are Kendall's τ and Spearman's ρ over the two score vectors, plus the
count of adjacent inversions used in the Fig. 6h discussion ("differs in one
inversion at two adjacent positions").
"""

from __future__ import annotations

import warnings
from collections.abc import Hashable, Sequence

import numpy as np

from ..exceptions import ConfigurationError

__all__ = [
    "kendall_tau",
    "spearman_rho",
    "adjacent_inversions",
    "ranking_agreement",
]


def kendall_tau(first_scores: Sequence[float], second_scores: Sequence[float]) -> float:
    """Return Kendall's τ-b between two score vectors over the same items."""
    if len(first_scores) != len(second_scores):
        raise ConfigurationError("score vectors must have equal length")
    if len(first_scores) < 2:
        return 1.0
    # Imported here: scipy.stats takes most of a second to load, and a
    # server start never needs it.
    from scipy import stats

    with warnings.catch_warnings():
        # Constant score vectors make the coefficient undefined; we report
        # full agreement in that case, so silence SciPy's warning.
        warnings.simplefilter("ignore")
        tau, _ = stats.kendalltau(
            np.asarray(first_scores), np.asarray(second_scores)
        )
    if np.isnan(tau):
        return 1.0
    return float(tau)


def spearman_rho(
    first_scores: Sequence[float], second_scores: Sequence[float]
) -> float:
    """Return Spearman's ρ between two score vectors over the same items."""
    if len(first_scores) != len(second_scores):
        raise ConfigurationError("score vectors must have equal length")
    if len(first_scores) < 2:
        return 1.0
    from scipy import stats

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rho, _ = stats.spearmanr(
            np.asarray(first_scores), np.asarray(second_scores)
        )
    if np.isnan(rho):
        return 1.0
    return float(rho)


def adjacent_inversions(
    reference: Sequence[Hashable], evaluated: Sequence[Hashable]
) -> int:
    """Count adjacent swaps needed to turn ``evaluated`` into ``reference``.

    Items absent from the reference are ignored.  This is the statistic the
    paper quotes for the top-30 co-author list ("differ in one inversion at
    two adjacent positions").
    """
    position = {label: rank for rank, label in enumerate(reference)}
    sequence = [position[label] for label in evaluated if label in position]
    inversions = 0
    # Bubble-sort count: number of adjacent transpositions equals the number
    # of (not necessarily adjacent) inverted pairs.
    for i in range(len(sequence)):
        for j in range(i + 1, len(sequence)):
            if sequence[i] > sequence[j]:
                inversions += 1
    return inversions


def ranking_agreement(
    reference: Sequence[Hashable], evaluated: Sequence[Hashable], k: int | None = None
) -> float:
    """Return the fraction of the top-``k`` reference items kept by ``evaluated``."""
    if k is None:
        k = len(reference)
    if k <= 0:
        raise ConfigurationError("k must be positive")
    reference_set = set(reference[:k])
    evaluated_set = set(evaluated[:k])
    if not reference_set:
        return 1.0
    return len(reference_set & evaluated_set) / len(reference_set)
