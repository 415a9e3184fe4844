"""Hypothesis strategies for digraphs shared by the oracle-parity tests."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.graph.digraph import DiGraph


@st.composite
def pooled_digraphs(draw, max_vertices: int = 16):
    """Digraphs whose in-sets are drawn from a pool of at most four sets, one
    of them empty, so many sets repeat and many vertices have none."""
    num_vertices = draw(st.integers(min_value=1, max_value=max_vertices))
    vertex = st.integers(0, num_vertices - 1)
    pool = [()] + draw(
        st.lists(st.frozensets(vertex, min_size=1, max_size=5), min_size=1, max_size=3)
    )
    in_sets = draw(st.lists(st.sampled_from(pool), min_size=num_vertices, max_size=num_vertices))
    edges = [(source, target) for target, sources in enumerate(in_sets) for source in sources]
    return DiGraph(num_vertices, edges)
