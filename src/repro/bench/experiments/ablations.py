"""Ablation experiments for the design choices called out in DESIGN.md.

Three ablations, none of which appear in the paper but all of which probe
decisions its method leaves open:

* **candidate strategy** — the paper builds the transition-cost graph over
  all pairs (``exhaustive``); our default prunes to pairs sharing an
  in-neighbour (``common-neighbor``).  The ablation compares tree weight,
  per-iteration additions and build time for both, confirming the pruning
  does not degrade the plan.
* **candidate budget** — how the per-set candidate cap affects plan quality.
* **sharing levels** — additions per iteration for psum-SR (no sharing),
  OIP with inner sharing only, and full OIP (inner + outer), isolating where
  the savings come from.
"""

from __future__ import annotations

import time

import numpy as np

from ...core.dmst_reduce import dmst_reduce
from ...core.neighbor_index import InNeighborIndex
from ...workloads.datasets import load_dataset
from ..runner import ExperimentReport

__all__ = ["run_candidate_strategy", "run_candidate_budget", "run_sharing_levels"]


def run_candidate_strategy(
    scale: float = 0.5, quick: bool = False, dataset: str = "berkstan"
) -> ExperimentReport:
    """Compare the exhaustive and pruned transition-cost graph constructions."""
    report = ExperimentReport(
        experiment="ablation-candidates",
        title="Candidate-edge strategy: exhaustive vs common-neighbour pruning",
    )
    graph = load_dataset(dataset, scale=scale if not quick else min(scale, 0.25))
    for strategy in ("exhaustive", "common-neighbor"):
        start = time.perf_counter()
        plan = dmst_reduce(graph, candidate_strategy=strategy)
        elapsed = time.perf_counter() - start
        row = {"strategy": strategy, "dataset": dataset, "build_seconds": round(elapsed, 4)}
        row.update(plan.summary())
        report.add_row(row)
    report.add_note(
        "expected shape: similar tree weight and share ratio for both "
        "strategies, with far fewer candidate edges for the pruned one (the "
        "exhaustive count grows with the square of the distinct sets)."
    )
    return report


def run_candidate_budget(
    scale: float = 0.5,
    quick: bool = False,
    dataset: str = "berkstan",
    budgets: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
) -> ExperimentReport:
    """Sweep the per-set candidate cap of the pruned strategy."""
    report = ExperimentReport(
        experiment="ablation-budget",
        title="Per-set candidate budget vs plan quality",
    )
    graph = load_dataset(dataset, scale=scale if not quick else min(scale, 0.25))
    if quick:
        budgets = budgets[:3]
    for budget in budgets:
        start = time.perf_counter()
        plan = dmst_reduce(graph, max_candidates_per_set=budget)
        elapsed = time.perf_counter() - start
        row = {
            "max_candidates": budget,
            "dataset": dataset,
            "build_seconds": round(elapsed, 4),
        }
        row.update(plan.summary())
        report.add_row(row)
    report.add_note("tree weight should plateau after a small budget.")
    return report


def run_sharing_levels(
    scale: float = 0.5, quick: bool = False, dataset: str = "berkstan"
) -> ExperimentReport:
    """Break the per-iteration additions down by sharing level.

    Levels: psum-SR (per-vertex partial sums, no sharing), distinct-set
    de-duplication only, inner sharing only, and inner + outer sharing (full
    OIP-SR).  All numbers are analytic counts implied by the graph and the
    plan, so this ablation is cheap even on the larger analogues.
    """
    report = ExperimentReport(
        experiment="ablation-sharing",
        title="Additions per iteration by sharing level",
    )
    graph = load_dataset(dataset, scale=scale if not quick else min(scale, 0.25))
    n = graph.num_vertices
    index = InNeighborIndex.from_graph(graph)
    plan = dmst_reduce(graph)

    in_degrees = np.array([graph.in_degree(v) for v in graph.vertices()])
    scratch_per_vertex = int(np.maximum(in_degrees - 1, 0).sum())
    scratch_distinct = plan.distinct_scratch_weight()
    tree_weight = plan.total_weight()
    num_sets = index.num_sets
    num_sources = int((in_degrees > 0).sum())

    rows = [
        {
            "level": "psum-sr (no sharing)",
            "inner_additions": scratch_per_vertex * n,
            "outer_additions": num_sources * scratch_per_vertex,
        },
        {
            "level": "distinct-set dedup",
            "inner_additions": scratch_distinct * n,
            "outer_additions": num_sets * scratch_distinct,
        },
        {
            "level": "inner sharing",
            "inner_additions": tree_weight * n,
            "outer_additions": num_sets * scratch_distinct,
        },
        {
            "level": "inner + outer sharing (oip-sr)",
            "inner_additions": tree_weight * n,
            "outer_additions": num_sets * tree_weight,
        },
    ]
    for row in rows:
        row["dataset"] = dataset
        row["total_additions"] = int(row["inner_additions"]) + int(
            row["outer_additions"]
        )
        report.add_row(row)
    report.add_note(
        "each level should need at most as many additions as the one above it."
    )
    return report
