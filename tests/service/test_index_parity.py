"""The class-built index against the per-vertex oracle, layer by layer.

The index build runs the series kernel in column tiles
(:meth:`~repro.core.backends.SimRankBackend.similarity_rows`), truncates by
partition (:func:`~repro.core.similarity_store.row_top_k`) and evaluates
one kernel row per in-neighbour class of each shard
(:func:`~repro.parallel.worker.compute_topk_rows`).  On the sparse backend
each layer is bit-identical to :mod:`index_oracle`: every vertex through the
kernel, truncated by a full lexsort.  Graphs with many repeated and empty
in-sets and self-loops, the networkx zoo and the benchmark graphs are
checked with one and two workers, with and without a memory budget, with
and without a threshold, and with ``index_k`` 1 and at least ``n``.  On the
dense backend the class-built store agrees with the oracle within 1e-12,
since BLAS rounds differently at different batch shapes.

The property tests take their example budget from the active hypothesis
profile, so ``--hypothesis-profile=long`` runs them longer; that profile
also runs every benchmark graph over the full option product, where tier-1
runs a subset that takes each option's values.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.backends import DenseBackend, SparseBackend, get_backend
from repro.core.instrumentation import Instrumentation
from repro.core.similarity_store import row_top_k
from repro.graph.digraph import DiGraph
from repro.graph.generators.rmat import rmat_edge_list
from repro.parallel import ParallelExecutor
from repro.parallel.sharding import plan_shards
from repro.parallel.worker import kernel_rows
from repro.service import SpillStats, build_index

from digraph_strategies import pooled_digraphs
from index_oracle import lexsort_row_top_k, oracle_matrix, oracle_topk_rows
from test_networkx_oracle import ZOO

DAMPING = 0.6
ITERATIONS = 4
"""Few series terms keep the sweeps cheap: the swap is exact at any K, and
the rows of every graph below fill in within a few steps."""
BUDGET = 256
"""Bytes of resident truncated rows: small enough that every small graph
below spills."""
LARGE_BUDGET = 1 << 20
"""The budget on the benchmark graphs: their ``index_k = n`` builds spill a
few dozen segments, not one per row."""

PROPERTY = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def assert_same_csr(ours, theirs) -> None:
    for name in ("data", "indices", "indptr"):
        mine, other = getattr(ours, name), getattr(theirs, name)
        assert mine.dtype == other.dtype, name
        assert np.array_equal(mine, other), name


def assert_same_parts(ours, theirs) -> None:
    assert len(ours) == len(theirs)
    for (columns, values), (want_columns, want_values) in zip(ours, theirs):
        assert columns.dtype == want_columns.dtype == np.int64
        assert values.dtype == want_values.dtype == np.float64
        assert np.array_equal(columns, want_columns)
        assert np.array_equal(values, want_values)


def positive_threshold(graph: DiGraph) -> float:
    """The median positive off-diagonal score, so the cut keeps ties."""
    engine = get_backend("sparse")
    transition = engine.transition(graph)
    rows = engine.similarity_rows(
        transition, np.arange(graph.num_vertices), DAMPING, ITERATIONS
    )
    np.fill_diagonal(rows, 0.0)
    values = np.unique(rows[rows > 0.0])
    return float(values[values.size // 2]) if values.size else 0.5


def check_store(graph, index_k, workers=1, memory_budget=None, chunk_size=256):
    """``build_index`` equals the oracle's matrix on the sparse backend."""
    engine = get_backend("sparse")
    store = build_index(
        graph,
        index_k=index_k,
        damping=DAMPING,
        iterations=ITERATIONS,
        chunk_size=chunk_size,
        workers=workers,
        memory_budget=memory_budget,
    )
    want = oracle_matrix(
        engine, engine.transition(graph), index_k, DAMPING, ITERATIONS
    )
    assert_same_csr(store.matrix, want)


def check_threshold_rows(graph, index_k, threshold, workers=1, chunk_size=256):
    """The executor's truncated rows at ``threshold`` equal the oracle's."""
    engine = get_backend("sparse")
    transition = engine.transition(graph)
    vertices = np.arange(graph.num_vertices)
    with ParallelExecutor(
        transition,
        damping=DAMPING,
        iterations=ITERATIONS,
        backend=engine,
        workers=workers,
    ) as executor:
        parts = executor.topk_rows(
            vertices, index_k, threshold=threshold, max_shard_size=chunk_size
        )
    want = oracle_topk_rows(
        engine, transition, vertices, index_k, DAMPING, ITERATIONS, threshold
    )
    assert_same_parts(parts, want)


# --------------------------------------------------------------------------- #
# Layer 2: top-k by partition
# --------------------------------------------------------------------------- #
@st.composite
def pooled_rows(draw):
    """Rows drawn from a few values (zero and a negative among them), so
    many scores tie at the k-th position."""
    pool = draw(
        st.lists(
            st.floats(-1.0, 1.0, allow_nan=False, width=64), min_size=1, max_size=4
        )
    ) + [0.0, -0.25]
    size = draw(st.integers(0, 40))
    return np.array(draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size)))


@given(
    row=pooled_rows(),
    k=st.none() | st.integers(1, 45),
    threshold=st.sampled_from([0.0, 1e-9, 0.3]) | st.floats(0.0, 1.0),
)
@PROPERTY
def test_row_top_k_matches_lexsort(row, k, threshold):
    columns, values = row_top_k(row, k, threshold=threshold)
    want_columns, want_values = lexsort_row_top_k(row, k, threshold=threshold)
    assert_same_parts([(columns, values)], [(want_columns, want_values)])


def test_row_top_k_keeps_ties_by_column():
    row = np.array([0.5, 0.2, 0.5, 0.2, 0.2, 0.0, 0.9])
    assert row_top_k(row, 3)[0].tolist() == [0, 2, 6]
    assert row_top_k(row, 4)[0].tolist() == [0, 1, 2, 6]
    assert row_top_k(row, 5)[0].tolist() == [0, 1, 2, 3, 6]


# --------------------------------------------------------------------------- #
# Layer 1: column tiles
# --------------------------------------------------------------------------- #
def rows_at_tiles(monkeypatch, graph, queries) -> list[np.ndarray]:
    engine = get_backend("sparse")
    transition = engine.transition(graph)
    results = []
    for tile in (1, 16, None):
        monkeypatch.setattr(SparseBackend, "row_tile", tile)
        rows = engine.similarity_rows(transition, queries, DAMPING, ITERATIONS)
        assert rows.shape == (len(queries), graph.num_vertices)
        assert rows.flags.c_contiguous
        results.append(rows)
    return results


def test_similarity_rows_tiles_on_berkstan(monkeypatch, berkstan_graph):
    queries = np.arange(3, berkstan_graph.num_vertices, 29)
    first, *others = rows_at_tiles(monkeypatch, berkstan_graph, queries)
    for rows in others:
        assert np.array_equal(rows, first)


def test_dense_backend_keeps_the_whole_batch():
    assert DenseBackend.row_tile is None
    assert get_backend("dense").tile_width(300) == 300
    assert get_backend("sparse").tile_width(300) == SparseBackend.row_tile


# --------------------------------------------------------------------------- #
# Layer 3: one kernel row per class
# --------------------------------------------------------------------------- #
def test_representative_marks_classes_and_empty_rows():
    # Vertices 1 and 2 share I = {0}; 3 and 4 share {1, 3} (3 has a
    # self-loop); 0 and 5 have no in-neighbours.
    graph = DiGraph(6, [(0, 1), (0, 2), (1, 3), (3, 3), (1, 4), (3, 4)])
    for backend in ("sparse", "dense"):
        transition = get_backend(backend).transition(graph)
        assert transition.representative.tolist() == [-1, 1, 1, 3, 3, -1]
        assert transition.representative is transition.representative


@given(case=pooled_digraphs(), data=st.data())
@PROPERTY
def test_pooled_digraphs(case, data):
    """Every layer on one graph with repeated and empty in-sets: the kernel
    at every tile width, the class-built store and threshold rows against
    the oracle, and the dense store within BLAS rounding."""
    n = case.num_vertices
    queries = data.draw(st.lists(st.integers(0, n - 1), max_size=40))
    with pytest.MonkeyPatch.context() as monkeypatch:
        first, *others = rows_at_tiles(monkeypatch, case, np.array(queries, np.int64))
    for rows in others:
        assert np.array_equal(rows, first)

    index_k = data.draw(st.sampled_from([1, 2, n, n + 3]))
    chunk_size = data.draw(st.integers(1, n + 1))
    # Shards of every size cross class boundaries the way a worker pool's
    # do; the zoo and the benchmark graphs run the pool itself.
    check_store(
        case,
        index_k,
        memory_budget=data.draw(st.sampled_from([None, BUDGET])),
        chunk_size=chunk_size,
    )
    check_threshold_rows(
        case, index_k, positive_threshold(case), chunk_size=chunk_size
    )
    assert_dense_store_close(case)


@pytest.mark.parametrize("index_k", [1, "n"])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(ZOO))
class TestZoo:
    @pytest.mark.parametrize("memory_budget", [None, BUDGET])
    def test_store(self, name, workers, index_k, memory_budget):
        graph = ZOO[name]
        index_k = graph.num_vertices if index_k == "n" else index_k
        check_store(graph, index_k, workers, memory_budget, chunk_size=2)

    @pytest.mark.parametrize("threshold", ["zero", "positive"])
    def test_threshold(self, name, workers, index_k, threshold):
        graph = ZOO[name]
        index_k = graph.num_vertices if index_k == "n" else index_k
        threshold = positive_threshold(graph) if threshold == "positive" else 0.0
        check_threshold_rows(graph, index_k, threshold, workers, chunk_size=2)


# --------------------------------------------------------------------------- #
# The benchmark graphs
# --------------------------------------------------------------------------- #
BENCHMARK_GRAPHS = {
    "berkstan": (None, 908),
    "rmat-scale-10": (None, 896),
    "served-rmat-ef8": (lambda: rmat_edge_list(11, 8 * 2048, seed=7), 2004),
    "served-rmat-ef3": (lambda: rmat_edge_list(11, 3 * 2048, seed=7), 1739),
}
"""Graph builder, and the kernel rows a default build evaluates: berkstan's
1,200 vertices make five 240-vertex shards, the others 256-vertex ones."""

COVERING = [
    # (workers, memory_budget, index_k, threshold): every value of every
    # option in two sweeps.  Tier-1 runs the served r-mats' first sweep
    # only, to stay within its time budget; the long profile runs every
    # graph over the full product (FULL).
    (2, LARGE_BUDGET, "n", None),
    (1, None, 1, "positive"),
]
FULL = [
    (workers, budget, index_k, threshold)
    for workers in (1, 2)
    for budget in (None, LARGE_BUDGET)
    for index_k in (1, "n")
    for threshold in (None, "positive")
    if threshold is None or budget is None
]


def benchmark_graph(request, name):
    if name == "berkstan":
        return request.getfixturevalue("berkstan_graph")
    if name == "rmat-scale-10":
        return request.getfixturevalue("rmat_scale10_graph")
    return BENCHMARK_GRAPHS[name][0]()


@pytest.mark.parametrize("name", sorted(BENCHMARK_GRAPHS))
def test_benchmark_graphs(request, name):
    graph = benchmark_graph(request, name)
    n = graph.num_vertices
    engine = get_backend("sparse")
    transition = engine.transition(graph)
    # One oracle kernel sweep per graph; each option truncates its rows.
    rows = engine.similarity_rows(transition, np.arange(n), DAMPING, ITERATIONS)

    class Computed:
        def similarity_rows(self, transition, indices, damping, iterations):
            return rows[indices]

    if settings.get_current_profile_name() == "long":
        sweeps = FULL
    else:
        sweeps = COVERING[:1] if name.startswith("served") else COVERING
    for workers, budget, index_k, threshold in sweeps:
        index_k = n if index_k == "n" else index_k
        if threshold is None:
            instrumentation, spill = Instrumentation(), SpillStats()
            store = build_index(
                graph,
                index_k=index_k,
                damping=DAMPING,
                iterations=ITERATIONS,
                workers=workers,
                memory_budget=budget,
                spill_stats=spill,
                instrumentation=instrumentation,
            )
            want = oracle_matrix(Computed(), transition, index_k, DAMPING, ITERATIONS)
            assert_same_csr(store.matrix, want)
            if budget is not None and index_k == n:
                assert spill.segments > 1
            evaluated = BENCHMARK_GRAPHS[name][1]
            assert instrumentation.operations.get("similarity_rows") == (
                2 * ITERATIONS * transition.nnz * evaluated
            )
            assert instrumentation.memory.peak_values == (
                (ITERATIONS + 1) * n * SparseBackend.row_tile
            )
        else:
            cut = float(np.median(rows[(rows > 0.0) & (rows < 1.0)]))
            with ParallelExecutor(
                transition,
                damping=DAMPING,
                iterations=ITERATIONS,
                backend=engine,
                workers=workers,
            ) as executor:
                parts = executor.topk_rows(
                    np.arange(n), index_k, threshold=cut, max_shard_size=256
                )
            want = oracle_topk_rows(
                Computed(), transition, np.arange(n), index_k, DAMPING,
                ITERATIONS, cut,
            )
            assert_same_parts(parts, want)


def test_operation_count_is_the_kernel_rows_evaluated(served_graph):
    n = served_graph.num_vertices
    transition = get_backend("sparse").transition(served_graph)
    shards = plan_shards(n, 1, max_size=40)
    evaluated = sum(
        kernel_rows(transition, np.arange(shard.start, shard.stop))[1].size
        for shard in shards
    )
    assert evaluated < n
    for workers in (1, 2):
        instrumentation = Instrumentation()
        build_index(
            served_graph, index_k=5, damping=DAMPING, iterations=ITERATIONS,
            chunk_size=40, workers=workers, instrumentation=instrumentation,
        )
        assert instrumentation.operations.get("similarity_rows") == (
            2 * ITERATIONS * transition.nnz * evaluated
        )
        assert instrumentation.memory.peak_values == (ITERATIONS + 1) * n * 16
        assert instrumentation.memory.current_values == 0


def test_kernel_rows_per_shard(berkstan_graph):
    transition = get_backend("sparse").transition(berkstan_graph)
    shards = np.array_split(np.arange(berkstan_graph.num_vertices), 5)
    assert sum(kernel_rows(transition, shard)[1].size for shard in shards) == 908
    representatives, kernel = kernel_rows(transition, np.arange(1200))
    assert kernel.size == 692
    assert np.array_equal(kernel, np.unique(representatives[representatives >= 0]))


# --------------------------------------------------------------------------- #
# The dense backend: within BLAS rounding
# --------------------------------------------------------------------------- #
def assert_dense_store_close(graph) -> None:
    n = graph.num_vertices
    engine = get_backend("dense")
    store = build_index(
        graph, index_k=n, damping=DAMPING, iterations=ITERATIONS,
        backend="dense", chunk_size=3,
    )
    want = oracle_matrix(
        engine, engine.transition(graph), n, DAMPING, ITERATIONS, chunk_size=3
    )
    assert np.array_equal(store.matrix.indptr, want.indptr)
    assert np.array_equal(store.matrix.indices, want.indices)
    assert np.allclose(store.matrix.data, want.data, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("name", sorted(ZOO))
def test_dense_zoo(name):
    assert_dense_store_close(ZOO[name])
