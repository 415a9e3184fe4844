"""Large-graph pipeline benchmark — ingestion, out-of-core build, approx tier.

Not a paper figure: this experiment guards the memory-bounded large-graph
scenario end to end, the regime the paper actually targets (web-BerkStan,
patent citations — graphs that do not fit a per-line Python loop or a fully
resident index build).  Three phases over one SNAP-fixture graph:

* **ingest** — parse the on-disk SNAP text fixture with the per-line
  reference parser, the chunked NumPy parser and the streaming
  ``EdgeListGraph`` reader; report seconds and edges/second for each.
* **build** — build the truncated serving index fully in-core, then again
  under a constrained ``memory_budget`` (spilling completed row segments to
  temporary ``.npz`` files and merge-streaming them back).  The two stores
  must be **bit-identical** — the run raises otherwise, so the CI smoke
  fails loudly — and the rows report build seconds, tracemalloc peaks and
  spill segment counts.
* **approx** — build a :class:`~repro.service.FingerprintIndex` and serve a
  query sample through the service's Monte-Carlo tier next to the exact
  compute tier, reporting latency, memory and the top-k ranking overlap
  (the run raises below ``MIN_OVERLAP``).  A sampler micro-benchmark pits
  the vectorised :func:`~repro.baselines.monte_carlo.sample_fingerprints`
  against the interpreter-bound reference loop on identical parameters.

The final note records the process's peak RSS over the whole run.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from pathlib import Path
from tempfile import TemporaryDirectory
from typing import Optional

import numpy as np

from ...baselines.monte_carlo import (
    sample_fingerprints,
    sample_fingerprints_reference,
)
from ...graph.io import read_edge_list, read_edge_list_streamed
from ...service import (
    FingerprintIndex,
    QueryRequest,
    SimilarityService,
    SpillStats,
    build_index,
)
from ...workloads import snap_fixture_path, zipf_query_stream
from ..runner import ExperimentReport

__all__ = ["run", "MIN_OVERLAP"]

MIN_OVERLAP = 0.9
"""Acceptance floor for the approximate tier's mean top-k overlap vs exact."""


def _traced(callable_, *args, **kwargs):
    """Run ``callable_`` under tracemalloc; return (result, seconds, peak_bytes)."""
    tracemalloc.start()
    started = time.perf_counter()
    try:
        result = callable_(*args, **kwargs)
        elapsed = time.perf_counter() - started
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, elapsed, peak


def _peak_rss_mb() -> Optional[float]:
    try:
        import resource

        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except (ImportError, ValueError):  # pragma: no cover - POSIX-only
        return None
    # ru_maxrss is KB on Linux, bytes on macOS.
    if sys.platform == "darwin":  # pragma: no cover - exercised on macOS only
        return usage / (1024 * 1024)
    return usage / 1024


def run(
    scale: float = 1.0,
    quick: bool = False,
    damping: float = 0.6,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    memory_budget: Optional[int] = None,
) -> ExperimentReport:
    """Benchmark the large-graph pipeline on the ``web-scale`` SNAP fixture.

    ``memory_budget`` (bytes) constrains the out-of-core build; the default
    is sized to force several spill segments (a few KB in ``--quick``, a
    quarter of the expected index otherwise), so the spill path is always
    exercised.  ``workers`` parallelises both index builds — the stores
    stay bit-identical for any value.
    """
    report = ExperimentReport(
        experiment="large_graph",
        title=(
            "Large-graph pipeline: streaming ingestion, out-of-core index "
            "build, Monte-Carlo approximate tier (SNAP fixture)"
        ),
    )
    fixture_scale = (0.125 if quick else 1.0) * scale
    iterations = 25
    index_k = 50
    k = 10
    num_walks = 128
    head_iterations = 4
    queries = 16 if quick else 32

    with TemporaryDirectory(prefix="repro-large-graph-") as workdir:
        # ---------------------------------------------------------- ingest
        write_started = time.perf_counter()
        fixture = snap_fixture_path(
            "web-scale", scale=fixture_scale, directory=workdir
        )
        write_seconds = time.perf_counter() - write_started
        file_mb = Path(fixture).stat().st_size / 1e6

        parsers = {
            "ingest-python": lambda: read_edge_list(fixture, engine="python"),
            "ingest-chunked": lambda: read_edge_list(fixture, engine="chunked"),
            "ingest-streamed": lambda: read_edge_list_streamed(fixture),
        }
        graph = None
        python_seconds = None
        for row_name, parser in parsers.items():
            started = time.perf_counter()
            parsed = parser()
            elapsed = time.perf_counter() - started
            if row_name == "ingest-python":
                python_seconds = elapsed
            if row_name == "ingest-streamed":
                graph = parsed  # the EdgeListGraph feeds the later phases
            report.add_row(
                {
                    "phase": row_name,
                    "n": parsed.num_vertices,
                    "m": parsed.num_edges,
                    "seconds": round(elapsed, 4),
                    "throughput": round(parsed.num_edges / max(elapsed, 1e-9)),
                    "speedup_vs_python": round(python_seconds / max(elapsed, 1e-9), 1)
                    if python_seconds is not None
                    else "",
                    "peak_mb": "",
                    "detail": "",
                }
            )
        assert graph is not None
        report.add_note(
            f"fixture: {graph.num_vertices} vertices, {graph.num_edges} edge "
            f"samples, {file_mb:.1f} MB SNAP text (written in "
            f"{write_seconds:.2f}s, inline comments and blank lines included)"
        )

        # ----------------------------------------------------------- build
        if memory_budget is None:
            # Size the budget to force several spills: well under the
            # expected resident index (n rows x index_k entries x 16 bytes).
            expected = graph.num_vertices * index_k * 16
            memory_budget = max(expected // 8, 4096)
        in_core, in_core_seconds, in_core_peak = _traced(
            build_index,
            graph,
            index_k=index_k,
            damping=damping,
            iterations=iterations,
            backend=backend,
            workers=workers,
        )
        report.add_row(
            {
                "phase": "build-in-core",
                "n": graph.num_vertices,
                "m": graph.num_edges,
                "seconds": round(in_core_seconds, 3),
                "throughput": round(graph.num_vertices / in_core_seconds, 1),
                "speedup_vs_python": "",
                "peak_mb": round(in_core_peak / 1e6, 2),
                "detail": f"{in_core.num_stored_scores} scores, "
                f"{in_core.memory_bytes() / 1e6:.2f} MB store",
            }
        )
        spill = SpillStats()
        out_of_core, ooc_seconds, ooc_peak = _traced(
            build_index,
            graph,
            index_k=index_k,
            damping=damping,
            iterations=iterations,
            backend=backend,
            workers=workers,
            memory_budget=memory_budget,
            spill_directory=workdir,
            spill_stats=spill,
        )
        report.add_row(
            {
                "phase": "build-out-of-core",
                "n": graph.num_vertices,
                "m": graph.num_edges,
                "seconds": round(ooc_seconds, 3),
                "throughput": round(graph.num_vertices / ooc_seconds, 1),
                "speedup_vs_python": "",
                "peak_mb": round(ooc_peak / 1e6, 2),
                "detail": f"budget {memory_budget} B, {spill.segments} segments, "
                f"{spill.spilled_bytes / 1e6:.2f} MB through disk, "
                f"peak resident {spill.peak_resident_bytes} B",
            }
        )
        identical = (
            np.array_equal(in_core.matrix.data, out_of_core.matrix.data)
            and np.array_equal(in_core.matrix.indices, out_of_core.matrix.indices)
            and np.array_equal(in_core.matrix.indptr, out_of_core.matrix.indptr)
        )
        if not identical:
            raise RuntimeError(
                "out-of-core index build diverged from the in-core build "
                f"(memory_budget={memory_budget}); the spill/merge path is "
                "broken"
            )
        if spill.segments == 0:
            raise RuntimeError(
                f"memory_budget={memory_budget} forced no spill segments; "
                "the out-of-core path was not exercised"
            )
        report.add_note(
            f"out-of-core build (budget {memory_budget} B, {spill.segments} "
            "segments) is bit-identical to the in-core store"
        )

        # ---------------------------------------------------------- approx
        fingerprints, fp_seconds, fp_peak = _traced(
            FingerprintIndex.build,
            graph,
            damping=damping,
            num_walks=num_walks,
            head_iterations=head_iterations,
            backend=backend,
            seed=3,
        )
        report.add_row(
            {
                "phase": "fingerprints-build",
                "n": graph.num_vertices,
                "m": graph.num_edges,
                "seconds": round(fp_seconds, 3),
                "throughput": round(graph.num_vertices / fp_seconds, 1),
                "speedup_vs_python": "",
                "peak_mb": round(fp_peak / 1e6, 2),
                "detail": f"{num_walks} walks x length "
                f"{fingerprints.walk_length}, head {head_iterations}, "
                f"{fingerprints.memory_bytes() / 1e6:.2f} MB "
                f"({fingerprints.memory_bytes() / max(in_core.memory_bytes(), 1):.1f}x "
                "the exact store)",
            }
        )

        stream = zipf_query_stream(graph, 40 * queries, exponent=1.0, seed=11)
        sample = list(dict.fromkeys(stream))[:queries]

        exact = SimilarityService(
            graph, in_core, k=k, damping=damping,
            iterations=iterations, backend=backend,
        )
        approx = SimilarityService(
            graph, None, k=k, damping=damping, iterations=iterations,
            backend=backend, cache_size=0, fingerprints=fingerprints,
        )
        compute_only = SimilarityService(
            graph, None, k=k, damping=damping, iterations=iterations,
            backend=backend, cache_size=0, auto_warm=False,
        )
        overlaps = []
        for query in sample:
            approximate = approx.query(QueryRequest(query=query, approx=True))
            reference = exact.top_k(query)
            compute_only.top_k(query)
            overlaps.append(
                len(set(approximate.labels()) & set(reference.labels())) / k
            )
        mean_overlap = float(np.mean(overlaps))
        approx_mean = float(np.mean(approx.stats.samples("approx")))
        compute_mean = float(np.mean(compute_only.stats.samples("compute")))
        report.add_row(
            {
                "phase": "serve-approx",
                "n": graph.num_vertices,
                "m": graph.num_edges,
                "seconds": round(approx_mean, 5),
                "throughput": round(1.0 / approx_mean, 1),
                "speedup_vs_python": "",
                "peak_mb": "",
                "detail": f"top-{k} overlap vs exact {mean_overlap:.3f} "
                f"(min {min(overlaps):.1f}) over {len(sample)} queries, "
                f"se~{fingerprints.standard_error:.4f}",
            }
        )
        report.add_row(
            {
                "phase": "serve-exact-compute",
                "n": graph.num_vertices,
                "m": graph.num_edges,
                "seconds": round(compute_mean, 5),
                "throughput": round(1.0 / compute_mean, 1),
                "speedup_vs_python": "",
                "peak_mb": "",
                "detail": "on-demand exact rows (no index, no cache)",
            }
        )
        if mean_overlap < MIN_OVERLAP:
            raise RuntimeError(
                f"approximate tier overlap {mean_overlap:.3f} fell below the "
                f"{MIN_OVERLAP} acceptance floor"
            )
        snapshot = approx.stats.snapshot()
        report.add_note(
            f"approx tier answered {snapshot['approx_hits']}/"
            f"{snapshot['queries']} queries; mean top-{k} overlap vs exact "
            f"{mean_overlap:.3f} (floor {MIN_OVERLAP})"
        )

        # Sampler micro-benchmark: vectorised vs the interpreter-bound seed
        # loop, identical parameters (small round count — the reference is
        # the bottleneck being measured).
        bench_walks = 4
        started = time.perf_counter()
        sample_fingerprints(graph, bench_walks, fingerprints.walk_length, seed=5)
        vectorised_seconds = time.perf_counter() - started
        reference_graph = (
            graph.to_digraph() if hasattr(graph, "to_digraph") else graph
        )
        started = time.perf_counter()
        sample_fingerprints_reference(
            reference_graph, bench_walks, fingerprints.walk_length, seed=5
        )
        reference_seconds = time.perf_counter() - started
        sampler_speedup = reference_seconds / max(vectorised_seconds, 1e-9)
        report.add_row(
            {
                "phase": "sampler-micro",
                "n": graph.num_vertices,
                "m": graph.num_edges,
                "seconds": round(vectorised_seconds, 4),
                "throughput": round(
                    bench_walks * graph.num_vertices / vectorised_seconds, 1
                ),
                "speedup_vs_python": round(sampler_speedup, 1),
                "peak_mb": "",
                "detail": f"reference loop {reference_seconds:.3f}s for "
                f"{bench_walks} walks x {graph.num_vertices} vertices",
            }
        )
        report.add_note(
            f"vectorised sampler {sampler_speedup:.0f}x the seed per-vertex "
            f"loop at identical parameters ({bench_walks} walks, length "
            f"{fingerprints.walk_length})"
        )

    peak_rss = _peak_rss_mb()
    if peak_rss is not None:
        report.add_note(f"process peak RSS over the whole run: {peak_rss:.0f} MB")
    return report
