"""Concurrency stress tests: readers hammering a service under mutation.

The service's contract under concurrency (see the class docstring):

* no exceptions, ever, from any interleaving of queries and mutations;
* stats stay internally consistent — the tier hit counts always sum to the
  query count, even when sampled mid-traffic;
* write-backs are version-gated, so once the system quiesces (mutations
  stop and a final :meth:`refresh` lands) every served answer equals a
  from-scratch rebuild of the index on the final graph.

Plus focused regression tests for the shared-state fixes: ``ServiceStats``
and ``LRUCache`` mutation under threads, and the micro-batcher's
pending-map under concurrent submit/flush.
"""

from __future__ import annotations

import random
import sys
import threading

import numpy as np
import pytest

from repro import Engine, EngineConfig
from repro.graph.generators.rmat import rmat_edge_list
from repro.service import LRUCache, MicroBatcher, SimilarityService, build_index
from repro.service.service import ServiceStats

ITERATIONS = 6
DAMPING = 0.6
K = 5
INDEX_K = 16


def run_stress(
    seed: int,
    num_vertices: int = 64,
    readers: int = 4,
    mutations: int = 25,
) -> SimilarityService:
    """One full stress round; returns the quiesced service for inspection."""
    graph = rmat_edge_list(6, 3 * num_vertices, seed=seed)
    service = SimilarityService(
        graph,
        build_index(graph, index_k=INDEX_K, damping=DAMPING, iterations=ITERATIONS),
        k=K,
        damping=DAMPING,
        iterations=ITERATIONS,
    )

    errors: list[BaseException] = []
    stop = threading.Event()

    def reader(worker_seed: int) -> None:
        rng = random.Random(worker_seed)
        try:
            while not stop.is_set():
                if rng.random() < 0.2:
                    service.top_k_many(
                        [rng.randrange(num_vertices) for _ in range(4)]
                    )
                else:
                    service.top_k(rng.randrange(num_vertices))
        except BaseException as error:  # noqa: BLE001 - report any failure
            errors.append(error)

    def mutator() -> None:
        rng = random.Random(seed + 1000)
        try:
            for _ in range(mutations):
                source = rng.randrange(num_vertices)
                target = rng.randrange(num_vertices)
                if source == target:
                    continue
                if not service.add_edge(source, target):
                    service.remove_edge(source, target)
                service.refresh()
        except BaseException as error:  # noqa: BLE001
            errors.append(error)

    threads = [
        threading.Thread(target=reader, args=(seed * 100 + i,))
        for i in range(readers)
    ]
    mutator_thread = threading.Thread(target=mutator)
    for thread in threads:
        thread.start()
    mutator_thread.start()
    mutator_thread.join()
    stop.set()
    for thread in threads:
        thread.join()

    assert errors == []
    return service


class TestStress:
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_hammered_service_stays_consistent(self, seed):
        service = run_stress(seed)

        # Stats: every query was attributed to exactly one tier.
        snapshot = service.stats.snapshot()
        tier_hits = (
            snapshot["index_hits"]
            + snapshot["cache_hits"]
            + snapshot["compute_hits"]
        )
        assert tier_hits == snapshot["queries"]
        assert snapshot["queries"] > 0
        assert snapshot["updates"] > 0

        # Quiesce: racing refreshes may have been abandoned (version gate),
        # so drain the dirty set, then every answer must equal a rebuild.
        while service.dirty_vertices:
            service.refresh()
        final_graph = service.current_graph()
        rebuilt = SimilarityService(
            final_graph,
            build_index(
                final_graph,
                index_k=INDEX_K,
                damping=DAMPING,
                iterations=ITERATIONS,
            ),
            k=K,
            damping=DAMPING,
            iterations=ITERATIONS,
        )
        for query in range(service.num_vertices):
            assert service.top_k(query).entries == rebuilt.top_k(query).entries

    def test_concurrent_mutators_and_readers(self):
        # Two mutator threads interleaving inserts/deletes with readers:
        # exercises the version gate from both sides.
        graph = rmat_edge_list(6, 3 * 64, seed=17)
        service = SimilarityService(
            graph, None, k=K, damping=DAMPING, iterations=ITERATIONS
        )
        errors: list[BaseException] = []
        barrier = threading.Barrier(4)

        def worker(worker_seed: int, mutate: bool) -> None:
            rng = random.Random(worker_seed)
            try:
                barrier.wait()
                for _ in range(40):
                    if mutate:
                        source, target = rng.randrange(64), rng.randrange(64)
                        if source != target:
                            service.add_edge(source, target)
                            service.remove_edge(source, target)
                    else:
                        service.top_k(rng.randrange(64))
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(i, i < 2)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        snapshot = service.stats.snapshot()
        assert (
            snapshot["index_hits"]
            + snapshot["cache_hits"]
            + snapshot["compute_hits"]
            == snapshot["queries"]
        )


class TestEngineAndServiceUnderThreads:
    def test_mutators_on_both_owners_with_readers_on_both(self):
        # One mutator through the engine, one through its service, readers
        # on both: the shared graph keeps the two owners on one version.
        graph = rmat_edge_list(6, 3 * 64, seed=23)
        n = graph.num_vertices
        config = EngineConfig(
            damping=DAMPING, iterations=ITERATIONS, index_k=INDEX_K, workers=1
        )
        engine = Engine(graph, config)
        engine.build_index()
        service = engine.serve(k=K)
        errors: list[BaseException] = []
        stop = threading.Event()

        def mutator(owner, worker_seed: int) -> None:
            rng = random.Random(worker_seed)
            try:
                for _ in range(25):
                    source, target = rng.randrange(n), rng.randrange(n)
                    if source != target and not owner.add_edge(source, target):
                        owner.remove_edge(source, target)
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        def reader(worker_seed: int) -> None:
            rng = random.Random(worker_seed)
            try:
                while not stop.is_set():
                    if rng.random() < 0.3:
                        engine.top_k([rng.randrange(n)], k=K)
                    else:
                        service.top_k(rng.randrange(n))
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        mutators = [
            threading.Thread(target=mutator, args=(engine, 1)),
            threading.Thread(target=mutator, args=(service, 2)),
        ]
        readers = [threading.Thread(target=reader, args=(10 + i,)) for i in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in mutators + readers:
                thread.start()
            for thread in mutators:
                thread.join(timeout=120)
            stop.set()
            for thread in readers:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in mutators + readers)
        assert errors == []
        snapshot = service.stats.snapshot()
        assert snapshot["queries"] > 0
        assert snapshot["queries"] == sum(
            snapshot[f"{tier}_hits"] for tier in ("index", "cache", "approx", "compute")
        )

        # Quiesced: both owners report one graph, and answer like a rebuild.
        assert engine.version == service.version > 0
        final = service.current_graph()
        assert set(engine.current_graph().edges()) == set(final.edges())
        while service.dirty_vertices:
            service.refresh()
        rebuilt = SimilarityService(
            final,
            build_index(final, index_k=INDEX_K, damping=DAMPING, iterations=ITERATIONS),
            k=K,
            damping=DAMPING,
            iterations=ITERATIONS,
        )
        for query in range(n):
            expected = rebuilt.top_k(query).entries
            assert service.top_k(query).entries == expected
            assert engine.top_k([query], k=K)[0].entries == expected
        engine.close()


class TestSharedStateRegressions:
    def test_service_stats_record_is_atomic_under_threads(self):
        stats = ServiceStats()

        def record(tier: str) -> None:
            for _ in range(2000):
                stats.record(tier, 0.001)

        threads = [
            threading.Thread(target=record, args=(tier,))
            for tier in ("index", "cache", "compute")
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snapshot = stats.snapshot()
        assert snapshot["queries"] == 12000
        assert (
            snapshot["index_hits"]
            + snapshot["cache_hits"]
            + snapshot["compute_hits"]
            == 12000
        )
        assert snapshot["index_hits"] == 4000

    def test_lru_cache_threads_never_exceed_capacity(self):
        cache = LRUCache(32)
        errors: list[BaseException] = []

        def churn(worker_seed: int) -> None:
            rng = random.Random(worker_seed)
            try:
                for _ in range(3000):
                    key = rng.randrange(100)
                    if rng.random() < 0.5:
                        cache.put(key, key)
                    else:
                        value = cache.get(key)
                        assert value is None or value == key
                    if rng.random() < 0.01:
                        cache.invalidate()
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=churn, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(cache) <= 32
        assert cache.hits + cache.misses > 0

    def test_micro_batcher_pending_map_under_concurrent_submit_flush(self):
        # Regression: concurrent submits and flushes must resolve every
        # handle exactly once with the row for its own vertex.
        def compute_rows(indices: np.ndarray) -> tuple[np.ndarray, int]:
            rows = np.repeat(
                np.asarray(indices, dtype=np.float64)[:, None], 3, axis=1
            )
            return rows, 0

        batcher = MicroBatcher(compute_rows, max_batch=8)
        errors: list[BaseException] = []
        results: list[tuple[int, float]] = []
        lock = threading.Lock()

        def submitter(worker_seed: int) -> None:
            rng = random.Random(worker_seed)
            try:
                for _ in range(500):
                    vertex = rng.randrange(40)
                    handle = batcher.submit(vertex)
                    if rng.random() < 0.3:
                        batcher.flush()
                    row = handle.result()
                    with lock:
                        results.append((vertex, float(row[0])))
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=submitter, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(results) == 2000
        assert all(float(vertex) == value for vertex, value in results)
        assert batcher.pending_count == 0
        assert batcher.queries_submitted == 2000
        assert batcher.rows_computed <= batcher.queries_submitted
        assert batcher.amortisation >= 1.0


class TestParallelServiceUnderThreads:
    def test_readers_and_mutator_with_worker_pool(self):
        # The service-owned pool uses the forkserver context specifically so
        # it can be created from a process with live reader threads; this
        # exercises that path end to end (pool retirement on mutation,
        # BrokenProcessPool-free operation, version-gated merges).
        graph = rmat_edge_list(6, 3 * 64, seed=23)
        errors: list[BaseException] = []
        stop = threading.Event()
        with SimilarityService(
            graph,
            build_index(
                graph, index_k=INDEX_K, damping=DAMPING, iterations=ITERATIONS
            ),
            k=K,
            damping=DAMPING,
            iterations=ITERATIONS,
            workers=2,
        ) as service:

            def reader(worker_seed: int) -> None:
                rng = random.Random(worker_seed)
                try:
                    while not stop.is_set():
                        service.top_k(rng.randrange(64))
                except BaseException as error:  # noqa: BLE001
                    errors.append(error)

            threads = [
                threading.Thread(target=reader, args=(seed,)) for seed in (1, 2)
            ]
            for thread in threads:
                thread.start()
            rng = random.Random(7)
            try:
                for _ in range(4):
                    source, target = rng.randrange(64), rng.randrange(64)
                    if source != target:
                        if not service.add_edge(source, target):
                            service.remove_edge(source, target)
                        service.refresh()
            finally:
                stop.set()
                for thread in threads:
                    thread.join()
            assert errors == []

            while service.dirty_vertices:
                service.refresh()
            final_graph = service.current_graph()
            rebuilt = SimilarityService(
                final_graph,
                build_index(
                    final_graph,
                    index_k=INDEX_K,
                    damping=DAMPING,
                    iterations=ITERATIONS,
                ),
                k=K,
                damping=DAMPING,
                iterations=ITERATIONS,
            )
            for query in range(0, 64, 5):
                assert (
                    service.top_k(query).entries == rebuilt.top_k(query).entries
                )

    def test_build_index_is_version_gated(self, monkeypatch):
        # Regression (review finding): a mutation landing while the
        # (unlocked) build sweep runs must not leave rows built for the old
        # graph stamped fresh at the new version — the gated build discards
        # the stale sweep, restarts, and the attached index matches a
        # from-scratch build of the final graph.  The race is injected
        # deterministically: the first underlying build triggers an edge
        # insert before returning.
        import repro.service.service as service_module

        graph = rmat_edge_list(6, 3 * 64, seed=31)
        service = SimilarityService(
            graph, None, k=K, damping=DAMPING, iterations=ITERATIONS
        )
        edge = next(
            (source, target)
            for source in range(64)
            for target in range(64)
            if source != target and not service.has_edge(source, target)
        )
        original = service_module._build_index
        sweeps: list[int] = []

        def racing_build(*args, **kwargs):
            index = original(*args, **kwargs)
            if not sweeps:
                assert service.add_edge(*edge)  # mutation lands mid-build
            sweeps.append(1)
            return index

        monkeypatch.setattr(service_module, "_build_index", racing_build)
        service.build_index(index_k=INDEX_K)
        assert len(sweeps) == 2  # first sweep discarded by the gate, retried
        assert service.has_edge(*edge)
        assert service.dirty_vertices == frozenset()
        # The attached index must equal a clean rebuild of the final graph.
        reference = original(
            service.current_graph(),
            index_k=INDEX_K,
            damping=DAMPING,
            iterations=ITERATIONS,
        )
        assert (service.index.matrix != reference.matrix).nnz == 0


    def test_broken_pool_trips_the_circuit_breaker(self):
        # Regression (review finding): a dead worker pool must not be
        # rebuilt on every compute; the service falls back to serial
        # permanently and keeps serving correct answers.
        from concurrent.futures.process import BrokenProcessPool

        graph = rmat_edge_list(6, 3 * 64, seed=41)
        service = SimilarityService(
            graph, None, k=K, damping=DAMPING, iterations=ITERATIONS, workers=2
        )
        serial = SimilarityService(
            graph, None, k=K, damping=DAMPING, iterations=ITERATIONS
        )

        class DoomedExecutor:
            def similarity_rows(self, indices):
                raise BrokenProcessPool("worker died")

            def close(self, wait=True):
                pass

        # Arm: pretend the lazily created pool broke on first use.
        service._executor = DoomedExecutor()
        answer = service.top_k(7)  # must fall back, not raise
        assert answer.entries == serial.top_k(7).entries
        assert service.pool_failures == 1
        assert service._executor is None
        service.top_k(9)  # no new pool is created after the breaker trips
        assert service._executor is None

    def test_build_index_respects_the_circuit_breaker(self):
        # After the breaker trips, rebuilds must run serially instead of
        # resurrecting (and crashing on) a broken pool environment.
        graph = rmat_edge_list(6, 3 * 64, seed=43)
        service = SimilarityService(
            graph, None, k=K, damping=DAMPING, iterations=ITERATIONS, workers=2
        )
        service._pool_disabled = True
        service.pool_failures = 1
        index = service.build_index(index_k=INDEX_K)  # must not raise
        reference = build_index(
            graph, index_k=INDEX_K, damping=DAMPING, iterations=ITERATIONS
        )
        assert (index.matrix != reference.matrix).nnz == 0
