"""``SimilarityStore.merge_row_parts`` splices rows; the COO rebuild is the oracle.

The splice copies the runs of untouched rows and inserts the new parts
between them.  It must produce exactly the arrays the COO rebuild in
:mod:`merge_oracle` produces, on any store and any set of rows, including
a base memory-mapped from a catalog segment — which must stay unwritten.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.catalog.segments import open_base_segment, write_base_segment
from repro.core.similarity_store import SimilarityStore
from repro.exceptions import ConfigurationError
from repro.graph.digraph import DiGraph

from merge_oracle import coo_merge

PROPERTY = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def merges(draw, max_vertices: int = 16):
    """A canonical CSR store, distinct rows in any order, and their parts.

    Stored values are positive and each row's columns ascend, as every
    store constructor leaves them; parts may carry explicit zeros, which
    both merges drop.
    """
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    density = draw(st.sampled_from([0.0, 0.2, 0.6, 1.0]))
    matrix = sparse.csr_matrix(rng.random((n, n)) * (rng.random((n, n)) < density))
    rows = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    parts = []
    for _ in rows:
        fill = draw(st.sampled_from([0.0, 0.3, 1.0]))
        columns = np.flatnonzero(rng.random(n) < fill)
        values = rng.random(columns.size)
        values[rng.random(columns.size) < 0.2] = 0.0
        parts.append((columns, values))
    return matrix, rows, parts


def _arrays(matrix):
    return matrix.data, matrix.indices, matrix.indptr


@PROPERTY
@given(case=merges(), mapped=st.booleans())
def test_splice_matches_the_coo_rebuild(case, mapped):
    matrix, rows, parts = case
    n = matrix.shape[0]
    expected = coo_merge(matrix, rows, parts)
    with tempfile.TemporaryDirectory() as directory:
        segment = Path(directory) / "base-000000"
        if mapped:
            write_base_segment(segment, matrix, np.zeros(n, dtype=np.int64))
            on_disk = {path.name: path.read_bytes() for path in segment.iterdir()}
            base, _ = open_base_segment(segment, mmap=True)
        else:
            base = matrix.copy()
        snapshot = [np.array(array) for array in _arrays(base)]
        store = SimilarityStore(base, DiGraph(n, []))

        store.merge_row_parts(rows, parts)

        for ours, theirs in zip(_arrays(store.matrix), _arrays(expected)):
            assert np.array_equal(ours, theirs)
        for array, before in zip(_arrays(base), snapshot):
            assert np.array_equal(array, before)  # the source is only read
        if mapped:
            assert not any(array.flags.writeable for array in _arrays(base))
            assert {
                path.name: path.read_bytes() for path in segment.iterdir()
            } == on_disk


def _store():
    dense = np.zeros((6, 6))
    dense[3, [1, 4]] = [0.2, 0.1]
    return SimilarityStore(sparse.csr_matrix(dense), DiGraph(6, []))


@pytest.mark.parametrize(
    "columns, values",
    [([5, 5, 2], [0.25, 0.25, 0.5]), ([4, 2], [0.3, 0.1]), ([1, 1], [0.2, 0.2])],
    ids=["repeated", "descending", "repeated-ascending"],
)
def test_columns_must_strictly_ascend(columns, values):
    # The COO rebuild summed a repeated column: s(3, 5) came back as 0.5.
    store = _store()
    with pytest.raises(ConfigurationError, match="row 3"):
        store.merge_row_parts(
            [3], [(np.array(columns), np.array(values, dtype=np.float64))]
        )
    assert store.matrix.getrow(3).indices.tolist() == [1, 4]


def test_part_validation_names_the_row():
    store = _store()
    with pytest.raises(ConfigurationError, match="row 2 has 2 columns but 1"):
        store.merge_row_parts([2], [(np.array([0, 1]), np.array([0.5]))])
    with pytest.raises(ConfigurationError, match="row 2 names columns outside"):
        store.merge_row_parts([2], [(np.array([1, 6]), np.array([0.5, 0.5]))])
    with pytest.raises(ConfigurationError, match="distinct"):
        store.merge_row_parts([2, 2], [(np.array([1]), np.array([0.5]))] * 2)
