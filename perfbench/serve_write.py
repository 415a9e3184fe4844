"""Serve-write phase: reads beside edge inserts on a catalog-backed service.

One caller, in process: ``Engine.build_index`` commits a durable catalog, a
second ``Engine`` serves from it, and the caller issues Zipf top-10 reads
through ``SimilarityService.query`` with one ``add_edge`` every
:data:`READS_PER_INSERT` reads and ``refresh()`` every
:data:`INSERTS_PER_REFRESH` inserts.  Each insert stales every index row,
so reads fall to the compute tier and each computed row commits a catalog
delta.  There is no compaction.  The stream is replayed once per round,
each time on a fresh copy of the committed catalog.
"""

from __future__ import annotations

import functools
import os
import shutil
import time
from typing import Optional

import numpy as np

from .common import (
    HostSpeed,
    median,
    new_edges,
    percentile,
    written_bytes,
    zipf_stream,
)
from .spans import SpanRecorder, span

ITERATIONS = 25
INDEX_K = 50
TOP_K = 10
READS_PER_INSERT = 40
INSERTS_PER_REFRESH = 5
SAMPLE = 32
"""Distinct queried vertices whose answers the gates compare."""


def _config(catalog_path: Optional[str]):
    from repro.engine import EngineConfig

    return EngineConfig(
        method="matrix", iterations=ITERATIONS, index_k=INDEX_K, workers=1,
        catalog_path=catalog_path, cost_profile="static",
    )


def _answers(service, labels) -> list:
    from repro.service.requests import QueryRequest

    return [
        service.query(QueryRequest(query=label, k=TOP_K)).entries
        for label in labels
    ]


class WriteSide:
    """A committed base catalog and the seeded op stream replayed on copies.

    Every replay serves a fresh copy of the same base catalog and issues
    the same operations, so replays differ only in what the host did to
    them; each metric is the median over the replays of its scaled value.
    """

    def __init__(self, graph, rng: np.random.Generator, reads: int,
                 workdir: str, speed: HostSpeed) -> None:
        self.graph = graph
        self.speed = speed
        n = graph.num_vertices
        self.stream = zipf_stream(rng, n, reads)
        self.inserts = new_edges(
            rng, n, {(int(s), int(t)) for s, t in graph.edges()},
            reads // READS_PER_INSERT,
        )
        self.workdir = workdir
        self.base_path = os.path.join(workdir, "base-catalog")
        self.build_s: list[float] = []
        self.build(self.base_path)
        self.catalog_path: Optional[str] = None
        self.engine = None
        self.service = None
        self.read_s: list[list[float]] = []
        self.read_tier: list[str] = []
        self.write_s: list[list[float]] = []
        self.refresh_s: list[list[float]] = []
        self.stream_s: list[float] = []
        self.written: list[int] = []

    def build(self, path: Optional[str] = None) -> None:
        """Time one ``Engine.build_index`` commit (to a scratch catalog)."""
        from repro.engine import Engine

        target = path or os.path.join(self.workdir, "scratch-catalog")
        shutil.rmtree(target, ignore_errors=True)

        def build():
            started = time.perf_counter()
            with Engine(self.graph, _config(target)) as engine:
                engine.build_index()
            return time.perf_counter() - started

        seconds, factor = self.speed.scaled(build)
        self.build_s.append(seconds * factor)
        if path is None:
            shutil.rmtree(target, ignore_errors=True)

    def _open(self, number: int) -> None:
        """Serve a fresh copy of the base catalog; retire the previous one."""
        from repro.engine import Engine

        self._close()
        if self.catalog_path is not None:
            shutil.rmtree(self.catalog_path, ignore_errors=True)
        self.catalog_path = os.path.join(self.workdir, f"catalog-{number}")
        shutil.copytree(self.base_path, self.catalog_path)
        self.engine = Engine(self.graph, _config(self.catalog_path))
        self.service = self.engine.serve()
        if self.service.catalog is None:
            raise RuntimeError("serving engine did not open the committed catalog")

    def _close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.engine.close()

    def replay(self, number: int, recorder: Optional[SpanRecorder] = None) -> None:
        """Replay the whole op stream on a fresh copy of the catalog.

        The stream runs in chunks of :data:`READS_PER_INSERT` reads and
        the insert (and refresh) after them; each chunk's times are scaled
        to reference speed.
        """
        self._open(number)
        wrote = written_bytes()
        steps = [
            functools.partial(self._chunk, first, recorder)
            for first in range(0, len(self.stream), READS_PER_INSERT)
        ]
        stream_s, reads, writes, refreshes = 0.0, [], [], []
        for (seconds, chunk), factor in self.speed.scaled_each(steps):
            stream_s += seconds * factor
            for times, chunk_times in zip((reads, writes, refreshes), chunk):
                times.extend(value * factor for value in chunk_times)
        self.written.append(written_bytes() - wrote)
        self.stream_s.append(stream_s)
        self.read_s.append(reads)
        self.write_s.append(writes)
        self.refresh_s.append(refreshes)

    def _chunk(self, first: int, recorder: Optional[SpanRecorder]):
        """Reads from stream position ``first`` on, then the next insert."""
        from repro.service.requests import QueryRequest

        label_of = self.graph.label_of
        service = self.service
        reads, writes, refreshes = [], [], []
        started = time.perf_counter()
        for vertex in self.stream[first:first + READS_PER_INSERT]:
            request = QueryRequest(query=label_of(int(vertex)), k=TOP_K)
            began = time.perf_counter()
            with span(recorder, "op.read"):
                response = service.query(request)
            reads.append(time.perf_counter() - began)
            self.read_tier.append(response.tier)
        inserted = first // READS_PER_INSERT + 1
        if len(reads) == READS_PER_INSERT:
            source, target = self.inserts[inserted - 1]
            began = time.perf_counter()
            with span(recorder, "op.insert"):
                added = service.add_edge(label_of(source), label_of(target))
            writes.append(time.perf_counter() - began)
            if not added:
                raise RuntimeError(f"edge {(source, target)} was already present")
            if inserted % INSERTS_PER_REFRESH == 0:
                began = time.perf_counter()
                with span(recorder, "op.refresh"):
                    service.refresh()
                refreshes.append(time.perf_counter() - began)
        return time.perf_counter() - started, (reads, writes, refreshes)

    def operations(self) -> int:
        """Operations in one replay; every replay issues the same ones."""
        return len(self.stream) + len(self.write_s[0]) + len(self.refresh_s[0])

    def finish(self) -> dict:
        """Counts of the last replay, then the gates; closes every engine."""
        from repro.engine import Engine

        snapshot = self.service.stats.snapshot()
        anchors = {
            "service.hits.cache": snapshot["cache_hits"],
            "service.hits.index": snapshot["index_hits"],
            "service.hits.compute": snapshot["compute_hits"],
            "batcher.flushes": self.service.batcher.batches_issued,
            "batcher.rows": self.service.batcher.rows_computed,
            "catalog.delta_segments": len(self.service.catalog.manifest.deltas),
        }
        # The live answers must equal a from-scratch rebuild on the final
        # graph, and a fresh engine reopening the catalog must serve the same.
        label_of = self.graph.label_of
        labels = [
            label_of(vertex)
            for vertex in dict.fromkeys(int(v) for v in self.stream)
        ][:SAMPLE]
        live = _answers(self.service, labels)
        with Engine(self.service.current_graph(), _config(None)) as scratch:
            scratch.build_index()
            rebuilt = _answers(scratch.serve(), labels)
        with Engine(self.graph, _config(self.catalog_path)) as reopened:
            restored = _answers(reopened.serve(), labels)
        self._close()
        return {
            "anchors": anchors,
            "mismatch_rebuild": sum(a != b for a, b in zip(live, rebuilt)),
            "mismatch_reopen": sum(a != b for a, b in zip(live, restored)),
        }

    def metrics(self) -> dict:
        """Scaled times: percentiles over every replay's operations pooled,
        medians over the replays' rates and over the index builds."""

        def pooled(replays):
            return [seconds * 1e3 for replay in replays for seconds in replay]

        return {
            "index_build_s": median(self.build_s),
            # Too few inserts for a tail percentile.
            "write_p50_ms": median(pooled(self.write_s)),
            "refresh_p50_ms": median(pooled(self.refresh_s)),
            "ops_per_s": median(self.operations() / s for s in self.stream_s),
            "mixed_read_p50_ms": median(pooled(self.read_s)),
            "mixed_read_p95_ms": percentile(pooled(self.read_s), 95.0),
        }
