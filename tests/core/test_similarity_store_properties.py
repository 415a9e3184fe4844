"""Property-based (hypothesis) tests for the similarity store.

The store is the serving layer's persistence and mutation substrate; these
properties are what the service's correctness argument leans on:

* ``row_top_k`` truncation is a *prefix* of the full deterministic ranking
  under ``(-score, id)`` order — so serving any ``k ≤ index_k`` query from
  a truncated row equals serving it from the full row;
* merging other rows and then the originals back round-trips — so a row
  the service refreshes is exactly the row a from-scratch build stores,
  whatever the row held before;
* the ``.npz`` save/load round trip preserves rows, sparsity structure and
  metadata exactly — so a restarted service serves the same answers.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.similarity_store import SimilarityStore, row_top_k
from repro.graph.digraph import DiGraph

PROPERTY = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def score_rows(draw, max_length: int = 24):
    """Random non-negative score rows with deliberate duplicate values."""
    length = draw(st.integers(min_value=1, max_value=max_length))
    # Sampling from a small value pool forces score ties, the case the
    # (-score, id) tie-break exists for.
    pool = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=1,
            max_size=5,
        )
    )
    values = draw(
        st.lists(st.sampled_from(pool), min_size=length, max_size=length)
    )
    return np.asarray(values, dtype=np.float64)


@st.composite
def stores(draw, max_vertices: int = 12):
    """Random similarity stores plus the dense matrix they were built from."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    dense = rng.random((n, n))
    dense[rng.random((n, n)) < 0.4] = 0.0  # real stores are sparse
    np.fill_diagonal(dense, 0.0)
    top_k = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=n)))
    graph = DiGraph(n, [])
    store = SimilarityStore(
        _csr_from_dense(dense, top_k),
        graph,
        algorithm="test",
        damping=0.6,
        extra={"index_k": int(top_k) if top_k else n, "iterations": 7},
    )
    return store, dense, top_k


def _csr_from_dense(dense: np.ndarray, top_k) -> "object":
    from scipy import sparse

    n = dense.shape[0]
    columns_parts, data_parts = [], []
    indptr = np.zeros(n + 1, dtype=np.int64)
    for vertex in range(n):
        columns, values = row_top_k(dense[vertex], top_k)
        columns_parts.append(columns)
        data_parts.append(values)
        indptr[vertex + 1] = indptr[vertex] + columns.size
    return sparse.csr_matrix(
        (
            np.concatenate(data_parts) if data_parts else np.empty(0),
            np.concatenate(columns_parts)
            if columns_parts
            else np.empty(0, np.int64),
            indptr,
        ),
        shape=(n, n),
    )


def _ranking(columns: np.ndarray, values: np.ndarray) -> list[tuple[float, int]]:
    """Entries ordered by the package-wide (-score, id) convention."""
    return sorted(
        zip(values.tolist(), columns.tolist()), key=lambda pair: (-pair[0], pair[1])
    )


# --------------------------------------------------------------------------- #
# row_top_k: prefix-of-full-ranking
# --------------------------------------------------------------------------- #


@PROPERTY
@given(row=score_rows(), k=st.integers(min_value=1, max_value=30))
def test_row_top_k_is_a_prefix_of_the_full_ranking(row, k):
    full_columns, full_values = row_top_k(row, None)
    kept_columns, kept_values = row_top_k(row, k)
    assert kept_columns.size == min(k, full_columns.size)
    # The truncated ranking is exactly the first entries of the full one.
    assert (
        _ranking(kept_columns, kept_values)
        == _ranking(full_columns, full_values)[: kept_columns.size]
    )


@PROPERTY
@given(
    row=score_rows(),
    small=st.integers(min_value=1, max_value=10),
    extra=st.integers(min_value=0, max_value=10),
)
def test_row_top_k_rankings_nest(row, small, extra):
    large = small + extra
    small_rank = _ranking(*row_top_k(row, small))
    large_rank = _ranking(*row_top_k(row, large))
    assert large_rank[: len(small_rank)] == small_rank


@PROPERTY
@given(row=score_rows())
def test_row_top_k_drops_non_positive_scores_and_sorts_columns(row):
    columns, values = row_top_k(row, None)
    assert np.all(values > 0.0)
    assert np.all(np.diff(columns) > 0)  # strictly ascending, no duplicates
    assert np.array_equal(values, row[columns])


# --------------------------------------------------------------------------- #
# merge_rows of other rows, then of the originals: a round trip
# --------------------------------------------------------------------------- #


@PROPERTY
@given(data=st.data(), built=stores())
def test_merge_then_merge_back_round_trips(data, built):
    store, dense, top_k = built
    n = store.num_vertices
    before = store.matrix.copy()
    rows = sorted(
        data.draw(
            st.sets(st.integers(0, n - 1), min_size=1, max_size=n)
        )
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    other = rng.random((len(rows), n))
    other[rng.random(other.shape) < 0.4] = 0.0

    store.merge_rows(rows, other, top_k=top_k)
    for position, row in enumerate(rows):
        fresh = other[position].copy()
        fresh[row] = 0.0
        columns, values = row_top_k(fresh, top_k)
        stored = store.matrix.getrow(row)
        assert np.array_equal(stored.indices, columns)
        assert np.array_equal(stored.data, values)

    store.merge_rows(rows, dense[rows], top_k=top_k)
    after = store.matrix
    assert (after != before).nnz == 0  # exact CSR round trip
    assert np.array_equal(after.indptr, before.indptr)
    assert np.array_equal(after.indices, before.indices)
    assert np.array_equal(after.data, before.data)


@PROPERTY
@given(built=stores())
def test_merge_is_idempotent(built):
    store, dense, top_k = built
    n = store.num_vertices
    before = store.matrix.copy()
    store.merge_rows(list(range(n)), dense, top_k=top_k)
    assert (store.matrix != before).nnz == 0


# --------------------------------------------------------------------------- #
# save/load preserves rows and metadata exactly
# --------------------------------------------------------------------------- #


@PROPERTY
@given(built=stores())
def test_save_load_round_trip_is_exact(built):
    store, _, _ = built
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "store.npz"
        store.save(path)
        loaded = SimilarityStore.load(path, store.graph)
    assert loaded.algorithm == store.algorithm
    assert loaded.damping == store.damping
    assert loaded.extra == store.extra
    assert loaded.num_vertices == store.num_vertices
    assert (loaded.matrix != store.matrix).nnz == 0
    # Bit-exact values, not just matching sparsity.
    assert np.array_equal(loaded.matrix.data, store.matrix.data)
    assert np.array_equal(loaded.matrix.indices, store.matrix.indices)
    assert np.array_equal(loaded.matrix.indptr, store.matrix.indptr)


@PROPERTY
@given(
    built=stores(),
    suffix=st.sampled_from(["", ".npz", ".index", ".tar.npz"]),
    empty=st.booleans(),
    extra=st.dictionaries(
        st.sampled_from(["index_k", "iterations", "backend", "note"]),
        st.one_of(st.integers(0, 99), st.text(max_size=8)),
        max_size=4,
    ),
)
def test_save_load_round_trips_for_any_suffix(built, suffix, empty, extra):
    """save(p) → load(p) is exact for suffix-less paths, foreign suffixes,
    empty stores and arbitrary JSON-able ``extra`` metadata.

    Regression: ``save`` used to hand suffix-less paths to numpy (which
    appends ``.npz``) while ``load`` opened the literal path — so the
    round trip broke for every path not already ending in ``.npz``.
    """
    store, dense, top_k = built
    if empty:
        store = SimilarityStore(
            _csr_from_dense(np.zeros_like(dense), top_k),
            store.graph,
            algorithm=store.algorithm,
            damping=store.damping,
        )
    store.extra = dict(extra)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / f"store{suffix}"
        store.save(path)
        loaded = SimilarityStore.load(path, store.graph)
    assert loaded.extra == store.extra
    assert (loaded.matrix != store.matrix).nnz == 0
    assert np.array_equal(loaded.matrix.data, store.matrix.data)
    assert np.array_equal(loaded.matrix.indices, store.matrix.indices)
    assert np.array_equal(loaded.matrix.indptr, store.matrix.indptr)
