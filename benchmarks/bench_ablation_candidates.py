"""Ablation — candidate-edge strategies for DMST-Reduce.

Compares the paper's exhaustive all-pairs transition-cost construction with
the pruned common-neighbour construction: the pruned build should keep far
fewer candidate edges while producing a plan of (nearly) the same quality.
"""

from __future__ import annotations

import pytest

from repro.core.dmst_reduce import dmst_reduce


@pytest.mark.parametrize("strategy", ["exhaustive", "common-neighbor"])
def test_ablation_candidate_strategy(benchmark, berkstan_graph, strategy):
    benchmark.group = "ablation-candidate-strategy"
    plan = benchmark.pedantic(
        lambda: dmst_reduce(berkstan_graph, candidate_strategy=strategy),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["tree_weight"] = plan.total_weight()
    benchmark.extra_info["share_ratio"] = round(plan.share_ratio(), 3)
    assert plan.num_sets > 0


@pytest.mark.parametrize("budget", [1, 4, 16, 64])
def test_ablation_candidate_budget(benchmark, berkstan_graph, budget):
    benchmark.group = "ablation-candidate-budget"
    plan = benchmark.pedantic(
        lambda: dmst_reduce(berkstan_graph, max_candidates_per_set=budget),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["tree_weight"] = plan.total_weight()
    assert plan.num_sets > 0


def test_ablation_pruning_preserves_plan_quality(berkstan_graph):
    exhaustive = dmst_reduce(berkstan_graph, candidate_strategy="exhaustive")
    pruned = dmst_reduce(berkstan_graph, candidate_strategy="common-neighbor")
    assert pruned.total_weight() <= exhaustive.total_weight() * 1.05 + 1
