"""Serving benchmark — QPS and latency percentiles for the tiered query path.

Not a paper figure: this experiment guards the online serving subsystem
(:mod:`repro.service`).  It replays a Zipf-skewed top-k query stream (hot
queries repeat, like real similarity traffic) against three service
configurations over the same r-mat graph:

* **cold** — no index, no cache: every query pays the on-demand truncated
  series evaluation (micro-batched per call, but nothing is reused);
* **indexed** — precomputed index, cache disabled: every query is one CSR
  row lookup;
* **cached** — index plus LRU cache: hot repeats short-circuit even the
  row lookup.

For each tier it reports QPS and p50/p95/p99 latency (from the service's
own per-tier samples, summarised by
:func:`repro.bench.results.latency_summary`), checks a query sample against
full-matrix rankings (tiering must never change an answer), and finishes
with the incremental-update path: a batch of edge inserts followed by
:meth:`~repro.service.service.SimilarityService.refresh` must serve the
same rankings as a from-scratch index rebuild.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path
from typing import Optional

import numpy as np

from ...api import simrank
from ...baselines.topk import top_k_from_result
from ...catalog import IndexCatalog
from ...engine import EngineConfig
from ...engine.engine import Engine
from ...graph.generators.rmat import rmat_edge_list
from ...service import QueryRequest, SimilarityService
from ...workloads import zipf_query_stream
from ..results import latency_summary
from ..runner import ExperimentReport

__all__ = ["run"]


def _tier_row(
    name: str, tier: str, service: SimilarityService, graph, k: int
) -> dict[str, object]:
    """Summarise one tier's latency samples into a benchmark row."""
    samples = service.stats.samples(tier)
    summary = latency_summary(samples)
    return {
        "tier": name,
        "n": graph.num_vertices,
        "m": graph.num_edges,
        "k": k,
        "queries": summary["count"],
        "qps": round(1.0 / summary["mean"], 1) if summary["mean"] > 0 else float("inf"),
        "mean_ms": round(summary["mean"] * 1e3, 4),
        "p50_ms": round(summary["p50"] * 1e3, 4),
        "p95_ms": round(summary["p95"] * 1e3, 4),
        "p99_ms": round(summary["p99"] * 1e3, 4),
    }


def run(
    scale: float = 1.0,
    quick: bool = False,
    damping: float = 0.6,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    approx: bool = False,
) -> ExperimentReport:
    """Benchmark the serving tiers on an r-mat graph with Zipf traffic.

    ``workers`` parallelises the offline index builds (including the
    from-scratch rebuild the incremental-update check compares against);
    the built indexes are bit-identical for any value, so the tier
    latencies it reports are unaffected.  ``approx=True`` additionally
    benchmarks the Monte-Carlo fingerprint tier (build time, query
    latency, top-k overlap against the exact index answers).
    """
    report = ExperimentReport(
        experiment="serving",
        title="Online serving: cold vs indexed vs cached tiers (r-mat, Zipf stream)",
    )
    log_vertices = 8 if quick else 11
    if scale != 1.0:
        log_vertices = max(6, log_vertices + int(round(np.log2(max(scale, 1e-9)))))
    num_vertices = 1 << log_vertices
    num_edges = 3 * num_vertices
    # The series length every path shares; 25 keeps the truncation tail far
    # below ranking resolution (same choice as the backend face-off).
    iterations = 25
    k = 10
    index_k = 50
    stream_length = 400 if quick else 4000
    cold_queries = 50 if quick else 200

    graph = rmat_edge_list(log_vertices, num_edges, seed=7)
    stream = zipf_query_stream(graph, stream_length, exponent=1.0, seed=11)

    # One EngineConfig describes every tier; per-tier differences (cache
    # on/off, fingerprints) are explicit overrides of that shared record.
    config = EngineConfig(
        method="matrix", backend=backend, damping=damping,
        iterations=iterations, index_k=index_k, workers=workers,
    )

    indexed_engine = Engine(graph, config.with_overrides(cache_size=0))
    started = time.perf_counter()
    index = indexed_engine.build_index()
    build_seconds = time.perf_counter() - started
    report.add_row(
        {
            "tier": "index-build",
            "n": num_vertices,
            "m": graph.num_edges,
            "k": index_k,
            "queries": num_vertices,
            "qps": round(num_vertices / build_seconds, 1),
            "mean_ms": round(build_seconds / num_vertices * 1e3, 4),
            "p50_ms": "",
            "p95_ms": "",
            "p99_ms": "",
        }
    )
    report.add_note(
        f"offline index build: {num_vertices} rows x top-{index_k} in "
        f"{build_seconds:.2f}s ({index.num_stored_scores} stored scores, "
        f"{index.memory_bytes() / 1e6:.1f} MB)"
    )

    # Cold tier: no index, no cache — every query is an on-demand series
    # evaluation (issued one at a time: the worst case the index amortises).
    cold = Engine(graph, config.with_overrides(cache_size=0)).serve(k=k)
    for query in stream[:cold_queries]:
        cold.top_k(query)
    report.add_row(_tier_row("cold", "compute", cold, graph, k))

    # Indexed tier: every stream query is a fresh CSR row lookup.  The
    # service shares the engine session's transition operator and index.
    indexed = indexed_engine.serve(k=k)
    for query in stream:
        indexed.top_k(query)
    report.add_row(_tier_row("indexed", "index", indexed, graph, k))

    # Cached tier: same stream against index + LRU; hot repeats hit the cache.
    cached_engine = Engine(graph, config)
    cached_engine.build_index()
    cached = cached_engine.serve(k=k)
    for query in stream:
        cached.top_k(query)
    report.add_row(_tier_row("cached", "cache", cached, graph, k))
    snapshot = cached.stats.snapshot()
    report.add_note(
        f"cached tier hit mix over {len(stream)} Zipf queries: "
        f"{snapshot['cache_hits']} cache / {snapshot['index_hits']} index / "
        f"{snapshot['compute_hits']} compute"
    )

    if approx:
        # Approximate tier: fingerprint estimates instead of exact rows, for
        # queries that opt in; accuracy is the price, reported as overlap.
        approx_engine = Engine(
            graph,
            config.with_overrides(cache_size=0, approx_walks=128, approx_seed=3),
        )
        fp_started = time.perf_counter()
        fingerprints = approx_engine.build_fingerprints()
        fp_seconds = time.perf_counter() - fp_started
        approx_service = approx_engine.serve(k=k)
        # Per-query policy rides on the QueryRequest.  Queries are issued
        # one at a time, like the other tiers' loops.
        for query in stream[:cold_queries]:
            approx_service.query(QueryRequest(query=query, approx=True))
        report.add_row(_tier_row("approx", "approx", approx_service, graph, k))
        overlap_sample = list(dict.fromkeys(stream))[:16]
        mean_overlap = float(
            np.mean(
                [
                    len(
                        set(
                            approx_service.query(
                                QueryRequest(query=query, approx=True)
                            ).labels()
                        )
                        & set(indexed.top_k(query).labels())
                    )
                    / k
                    for query in overlap_sample
                ]
            )
        )
        report.add_note(
            f"approx tier: fingerprints ({fingerprints.num_walks} walks, "
            f"{fingerprints.memory_bytes() / 1e6:.1f} MB) built in "
            f"{fp_seconds:.2f}s vs {build_seconds:.2f}s exact index; mean "
            f"top-{k} overlap vs exact {mean_overlap:.3f} over "
            f"{len(overlap_sample)} queries"
        )

    # Stamp the cached service's full registry snapshot into the report so
    # BENCH_*.json carries the per-tier hit counters and latency series
    # (count/mean/p50/p95/p99 per tier), not just the summary rows.
    report.attach_metrics("cached_service", cached.registry.snapshot())

    cold_mean = float(np.mean(cold.stats.samples("compute")))
    indexed_mean = float(np.mean(indexed.stats.samples("index")))
    cached_mean = float(np.mean(cached.stats.samples("cache")))
    report.add_note(
        f"mean latency speed-up over cold on-demand: "
        f"indexed {cold_mean / indexed_mean:.0f}x, "
        f"cached {cold_mean / cached_mean:.0f}x"
    )

    # Consistency: tiered answers must equal the full-matrix rankings.
    full = simrank(
        graph, method="matrix", backend=backend or "sparse", damping=damping,
        iterations=iterations, diagonal="matrix",
    )
    sample = list(dict.fromkeys(stream))[:16]
    matches = sum(
        1
        for query in sample
        if indexed.top_k(query).labels()
        == top_k_from_result(full, query, k=k).labels()
        == cached.top_k(query).labels()
    )
    report.add_note(
        f"served top-{k} rankings matching full-matrix answers: "
        f"{matches}/{len(sample)}"
    )

    # Incremental updates: a batch of edge inserts + dirty-row refresh must
    # serve exactly what a from-scratch rebuild serves.
    rng = np.random.default_rng(23)
    inserted = 0
    while inserted < 8:
        source = int(rng.integers(num_vertices))
        target = int(rng.integers(num_vertices))
        if source != target and cached.add_edge(source, target):
            inserted += 1
    dirty = set(cached.dirty_vertices)
    refresh_started = time.perf_counter()
    refreshed = cached.refresh()
    refresh_seconds = time.perf_counter() - refresh_started
    rebuilt_engine = Engine(cached.current_graph(), config)
    rebuilt_engine.build_index()
    rebuilt = rebuilt_engine.serve(k=k)
    update_sample = sorted(
        dirty | set(range(0, num_vertices, max(num_vertices // 16, 1)))
    )
    update_matches = sum(
        1
        for query in update_sample
        if cached.top_k(query).labels() == rebuilt.top_k(query).labels()
    )
    report.add_note(
        f"after {inserted} edge inserts: refreshed {refreshed} dirty rows in "
        f"{refresh_seconds:.3f}s (vs {build_seconds:.2f}s full rebuild); "
        f"incremental vs rebuilt rankings agree on "
        f"{update_matches}/{len(update_sample)} queries"
    )

    # Durable catalog: commit the index once, then measure a cold-process
    # restart — open the catalog memory-mapped and serve, no rebuild.  The
    # restart must serve the indexed tier's exact answers.
    with tempfile.TemporaryDirectory(prefix="repro-catalog-") as catalog_dir:
        catalog_path = str(Path(catalog_dir) / "catalog")
        IndexCatalog.create(catalog_path, index)
        restart_engine = Engine(
            graph, config.with_overrides(cache_size=0, catalog_path=catalog_path)
        )
        restart_started = time.perf_counter()
        restarted = restart_engine.serve(k=k)
        first_answer = restarted.top_k(stream[0])
        restart_seconds = time.perf_counter() - restart_started
        restart_sample = list(dict.fromkeys(stream))[:16]
        restart_matches = sum(
            1
            for query in restart_sample
            if restarted.top_k(query).labels() == indexed.top_k(query).labels()
        )
        report.add_note(
            f"catalog warm restart: opened committed catalog and served the "
            f"first query in {restart_seconds:.3f}s (vs {build_seconds:.2f}s "
            f"rebuild; index_builds={restart_engine.counters.index_builds}, "
            f"catalog_opens={restart_engine.counters.catalog_opens}); "
            f"restarted vs indexed rankings agree on "
            f"{restart_matches}/{len(restart_sample)} queries"
        )
        assert first_answer.labels() == indexed.top_k(stream[0]).labels()
    return report
