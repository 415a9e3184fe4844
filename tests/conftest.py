"""Shared fixtures: the paper's worked-example graph and small workloads."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.graph.builders import from_in_neighbor_sets
from repro.graph.generators import citation_network, gnp_random, web_graph


settings.register_profile("long", max_examples=500, stateful_step_count=80)
"""The longer budget CI runs the model-based tests under
(``--hypothesis-profile=long``); tier-1 keeps hypothesis's defaults."""


@pytest.fixture(autouse=True)
def _static_cost_model(monkeypatch):
    """Pin every test to the static cost model.

    An ambient ``REPRO_COST_PROFILE`` or per-user calibration profile would
    change planner weights (and therefore plans, reasons and digests) under
    the whole suite; tests that exercise the layered resolution override
    this with their own monkeypatching.
    """
    monkeypatch.setenv("REPRO_COST_PROFILE", "static")


PAPER_IN_NEIGHBORS = {
    "a": ["b", "g"],
    "e": ["f", "g"],
    "h": ["b", "d"],
    "c": ["b", "d", "g"],
    "b": ["f", "g", "e", "i"],
    "d": ["f", "a", "e", "i"],
    "f": [],
    "g": [],
    "i": [],
}
"""The Fig. 1a / Fig. 2a citation network, specified by in-neighbour sets."""


@pytest.fixture(scope="session")
def paper_graph():
    """The paper's 9-vertex running example (Fig. 1a)."""
    return from_in_neighbor_sets(PAPER_IN_NEIGHBORS, name="paper-example")


@pytest.fixture(scope="session")
def small_web_graph():
    """A small host-clustered web graph with plenty of sharing opportunity."""
    return web_graph(
        num_pages=120,
        num_hosts=6,
        average_degree=8.0,
        index_pages_per_host=3,
        seed=42,
        name="test-web",
    )


@pytest.fixture(scope="session")
def small_citation_graph():
    """A small citation DAG (patent analogue)."""
    return citation_network(num_papers=150, average_citations=4.0, num_classes=5, seed=9)


@pytest.fixture(scope="session")
def small_random_graph():
    """A sparse directed G(n, p) graph with little structure."""
    return gnp_random(num_vertices=60, edge_probability=0.06, seed=3)


@pytest.fixture(scope="session")
def berkstan_graph():
    """The full-size BERKSTAN analogue (n = 1,200, share ratio 0.83)."""
    from repro.workloads.datasets import load_dataset

    return load_dataset("berkstan", 1.0)


@pytest.fixture(scope="session")
def rmat_scale10_graph():
    """An r-mat graph (n = 1,024) whose sharing plan is almost all scratch."""
    from repro.graph.generators.rmat import rmat

    return rmat(scale=10, num_edges=3072, seed=7)
