"""psum-SR's essential-pair mask as products against the per-vertex loop.

:func:`~repro.baselines.psum_sr.essential_pair_mask` propagates a 0/1
reach matrix with sparse and dense products;
:func:`psum_oracle.essential_pair_mask_loop` propagates it one vertex at a
time.  The two masks must be equal, on graphs with repeated and empty
in-sets and self-loops, on the networkx zoo and on both benchmark graphs.

The loop takes seconds on a benchmark graph at length 5, so tier-1 checks
those graphs at lengths 1 and 3, and ``--hypothesis-profile=long`` adds 5.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.psum_sr import essential_pair_mask
from repro.graph.digraph import DiGraph

from digraph_strategies import pooled_digraphs
from psum_oracle import essential_pair_mask_loop
from test_networkx_oracle import ZOO

LENGTHS = (1, 3, 5)


def assert_masks_equal(graph: DiGraph, max_length: int) -> None:
    ours = essential_pair_mask(graph, max_length)
    assert ours.dtype == np.bool_
    assert np.array_equal(ours, essential_pair_mask_loop(graph, max_length))


@given(case=pooled_digraphs(), max_length=st.sampled_from((0,) + LENGTHS))
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_pooled_digraphs(case, max_length):
    assert_masks_equal(case, max_length)


@pytest.mark.parametrize("max_length", LENGTHS)
@pytest.mark.parametrize("name", sorted(ZOO))
def test_networkx_zoo(name, max_length):
    assert_masks_equal(ZOO[name], max_length)


@pytest.mark.parametrize(
    "max_length", LENGTHS if settings.get_current_profile_name() == "long" else (1, 3)
)
@pytest.mark.parametrize("graph_fixture", ["berkstan_graph", "rmat_scale10_graph"])
def test_benchmark_graphs(request, graph_fixture, max_length):
    assert_masks_equal(request.getfixturevalue(graph_fixture), max_length)


@pytest.mark.parametrize(
    "graph",
    [DiGraph(0, []), DiGraph(1, []), DiGraph(1, [(0, 0)]), DiGraph(5, [])],
    ids=["empty", "one-vertex", "self-loop", "no-edges"],
)
def test_degenerate_inputs(graph):
    for max_length in (0,) + LENGTHS:
        assert_masks_equal(graph, max_length)
