"""Serve-read phase: a Zipf top-10 stream over TCP against ``repro.cli serve``.

The server runs as its own process.  One asyncio client connection at a
time replays the stream open-loop: each request is due at a fixed offset
from the start of its load and is timed from that due time, so a stall
also charges the wait it imposes on the requests behind it.  Fixed-rate
segments are spread over the run; a search over a fixed rate ladder then
finds the highest rate whose p99 stays under :data:`LIMIT_MS`.
"""

from __future__ import annotations

import asyncio
import gc
import os
import re
import selectors
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .common import (
    HostSpeed,
    median,
    peak_rss_mb,
    percentile,
    windowed_percentile,
    zipf_stream,
)

RMAT_SCALE = 11
RMAT_SEED = 7
INDEX_K = 50
TOP_K = 10
RATE = 2000
LIMIT_MS = 20.0
"""p99 limit of ``read_qps_at_slo``; also the generator's lateness limit."""
LADDER = tuple(int(round(250 * 1.05 ** step)) for step in range(87))
"""Offered rates of the search, 250 to about 16,400 q/s in 5% steps."""
STREAM_LENGTH = 400_000
SAMPLE = 32
"""Distinct queried vertices whose answers the gate compares."""
TRACE_EVERY = 8
"""In a traced phase, one request in this many asks for its span tree."""
SEGMENT_WARM_S = 0.25
"""Unreported lead-in of every fixed-rate segment on its fresh connection."""
WINDOW_S = 0.5
"""Fixed-rate p99 is the median over windows of this length (1,000 samples)."""
PROBE_WINDOW_S = 0.25
PROBE_TRIES = 3
STARTS = 5
"""Server starts at set-up; ``setup_s`` is their median."""
READY = re.compile(r"serving n=\d+ m=\d+ on ([\d.]+):(\d+)")


def serve_args(edge_factor: int) -> list[str]:
    return [
        "serve", "--rmat-scale", str(RMAT_SCALE), "--edge-factor",
        str(edge_factor), "--seed", str(RMAT_SEED), "--index-k", str(INDEX_K),
        "--workers", "1", "--port", "0", "--metrics-interval", "0",
        "--cost-profile", "static",
    ]


class ServerProcess:
    """One ``repro.cli serve`` process, optionally under the span launcher."""

    def __init__(self, root: str, edge_factor: int, env: dict,
                 log_path: str, spans_path: Optional[str] = None) -> None:
        if spans_path is None:
            command = [sys.executable, "-m", "repro.cli"]
        else:
            command = [sys.executable, os.path.join(root, "perfbench", "launcher.py"),
                       "--spans", spans_path, "--"]
        self.command = command + serve_args(edge_factor)
        self.root = root
        self.env = env
        self.log_path = log_path
        self.process: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self, timeout: float = 120.0) -> float:
        """Spawn the server; return seconds until it listens."""
        started = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.process = subprocess.Popen(
                self.command, cwd=self.root, env=self.env,
                stdout=subprocess.PIPE, stderr=log, text=True,
            )
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            while True:
                remaining = started + timeout - time.perf_counter()
                if remaining <= 0 or not selector.select(remaining):
                    self.stop()
                    raise RuntimeError("server did not start listening in time")
                line = self.process.stdout.readline()
                if not line:
                    self.stop()
                    with open(self.log_path, encoding="utf-8", errors="replace") as log:
                        tail = log.read()[-2000:]
                    raise RuntimeError(f"server exited before listening:\n{tail}")
                match = READY.search(line)
                if match:
                    self.port = int(match.group(2))
                    return time.perf_counter() - started

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(str(self.process.pid))

    def stop(self) -> None:
        """Interrupt the server and wait for it to exit."""
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        self.process.stdout.close()
        self.process = None


@dataclass
class Load:
    """Outcome of one open-loop phase at one offered rate."""

    rate: float
    latency_ms: list = field(default_factory=list)
    lateness_ms: list = field(default_factory=list)
    sent: int = 0
    answered: int = 0
    failed: int = 0
    shed: int = 0
    tiers: dict = field(default_factory=dict)
    traced: list = field(default_factory=list)
    scaled_ms: list = field(default_factory=list)
    """``latency_ms`` scaled to reference speed, where measured."""

    def extend(self, part: "Load", factor: float) -> None:
        """Append ``part``, whose latencies ``factor`` scales to reference speed."""
        self.latency_ms += part.latency_ms
        self.scaled_ms += [ms * factor for ms in part.latency_ms]
        self.lateness_ms += part.lateness_ms
        self.sent += part.sent
        self.answered += part.answered
        self.failed += part.failed
        self.shed += part.shed
        for tier, count in part.tiers.items():
            self.tiers[tier] = self.tiers.get(tier, 0) + count
        self.traced += part.traced

    def window(self, q: float, window_s: float) -> list[float]:
        """The ``q``-th latency percentile of each ``window_s`` window."""
        per_window = max(int(self.rate * window_s), 1)
        return windowed_percentile(self.latency_ms, per_window, q)

    def lateness_p99(self) -> float:
        return percentile(self.lateness_ms, 99.0)

    def meets(self, limit_ms: float, window_s: float) -> bool:
        """p99 under the limit, every window's median under it, no errors.

        A failed or shed request counts as missing the limit; a window
        whose median exceeds the limit is a growing backlog.
        """
        if self.failed or self.shed or len(self.latency_ms) < self.sent:
            return False
        return (
            median(self.window(99.0, window_s)) <= limit_ms
            and max(self.window(50.0, window_s)) <= limit_ms
        )


async def open_loop(client, stream, start: int, rate: float, duration: float,
                    trace: bool = False) -> Load:
    """Send ``rate * duration`` queries on schedule; time each from its due."""
    from repro.service.requests import ErrorCode, ServeError

    count = int(rate * duration)
    load = Load(rate=rate, sent=count)
    latency = [None] * count
    lateness = [0.0] * count
    loop = asyncio.get_running_loop()

    async def one(position: int, due: float, vertex: int) -> None:
        traced = trace and position % TRACE_EVERY == 0
        sent = time.perf_counter()
        lateness[position] = sent - due
        try:
            response = await client.query(vertex, k=TOP_K, trace=traced)
        except ServeError as error:
            if error.code is ErrorCode.SHED:
                load.shed += 1
            else:
                load.failed += 1
            return
        done = time.perf_counter()
        latency[position] = done - due
        load.tiers[response.tier] = load.tiers.get(response.tier, 0) + 1
        if traced:
            load.traced.append((response.request_id, sent, done, response.trace))

    tasks = []
    origin = time.perf_counter() + 0.005
    position = 0
    while position < count:
        now = time.perf_counter()
        while position < count and origin + position / rate <= now:
            vertex = int(stream[(start + position) % len(stream)])
            tasks.append(loop.create_task(
                one(position, origin + position / rate, vertex)))
            position += 1
        if position < count:
            await asyncio.sleep(max(0.0, origin + position / rate - time.perf_counter()))
    await asyncio.gather(*tasks)
    load.latency_ms = [value * 1e3 for value in latency if value is not None]
    load.answered = len(load.latency_ms)
    load.lateness_ms = [value * 1e3 for value in lateness]
    return load


async def rate_search(client, stream, start: int, probe_s: float,
                      known_pass: int, speed: HostSpeed) -> tuple[int, list[Load], float]:
    """Bisect the ladder for the highest rate that meets the limit.

    ``known_pass`` is a ladder index already shown to meet it (or -1).
    A probe whose generator ran later than the limit cannot show the
    server's behaviour; it counts as not meeting the limit.
    Returns the ladder index (-1 when no rate met it), the probes, and
    the factor that scales that rate to reference speed.  The reference
    loop runs between probes, once the previous one has drained: right
    after an overloaded probe the server's backlog would slow the loop.
    """
    low, high = known_pass, len(LADDER)
    probes: list[Load] = []
    references: list[float] = []
    passing = None
    cursor = start

    async def drained():
        await asyncio.sleep(0.2)
        references.append(speed.reference_s())

    await drained()
    while high - low > 1:
        middle = (low + high) // 2
        # A transient stall can sink a probe; a rate only fails when
        # every one of its probes fails.
        for _ in range(PROBE_TRIES):
            load = await open_loop(client, stream, cursor, LADDER[middle], probe_s)
            cursor += load.sent
            probes.append(load)
            await drained()
            passed = (
                load.lateness_p99() <= LIMIT_MS
                and load.meets(LIMIT_MS, PROBE_WINDOW_S)
            )
            if passed:
                break
        if passed:
            low = middle
            passing = len(probes) - 1
        else:
            high = middle
    # The rate that passed is scaled by the loops around its own probe.
    if passing is None:
        return low, probes, speed.factor(references)
    return low, probes, speed.factor(references[passing:passing + 2])


def oracle_answers(edge_factor: int, vertices) -> dict:
    """Answers of an in-process ``Engine(...).serve()`` built like the CLI."""
    from repro.engine import Engine, EngineConfig
    from repro.graph.generators.rmat import rmat_edge_list
    from repro.service.requests import QueryRequest

    graph = rmat_edge_list(
        RMAT_SCALE, edge_factor * (1 << RMAT_SCALE), seed=RMAT_SEED
    )
    config = EngineConfig(index_k=INDEX_K, workers=1, cost_profile="static")
    with Engine(graph, config) as engine:
        if engine.plan("serve").tier == "index":
            engine.build_index()
        service = engine.serve()
        return {
            vertex: _entries(service.query(QueryRequest(query=vertex, k=TOP_K)))
            for vertex in vertices
        }


def _entries(response) -> list[tuple[int, float]]:
    return [(int(label), float(score)) for label, score in response.entries]


class ReadSide:
    """The serving process, its seeded query stream and the loads sent."""

    def __init__(self, root: str, workdir: str, env: dict, edge_factor: int,
                 rng: np.random.Generator, speed: HostSpeed) -> None:
        self.root = root
        self.workdir = workdir
        self.env = env
        self.edge_factor = edge_factor
        self.speed = speed
        self.stream = zipf_stream(rng, 1 << RMAT_SCALE, STREAM_LENGTH)
        self.sample = list(dict.fromkeys(int(v) for v in self.stream))[:SAMPLE]
        self.cursor = 0
        self.ready_s: list[float] = []
        self.segments: list[Load] = []
        self.server: Optional[ServerProcess] = None
        for _ in range(STARTS):
            seconds, factor = self.speed.scaled(self._start)
            self.ready_s.append(seconds * factor)

    def _start(self, spans_path: Optional[str] = None) -> float:
        """Replace the running server by a fresh one; seconds until it listens."""
        if self.server is not None:
            self.server.stop()
        self.server = ServerProcess(
            self.root, self.edge_factor, self.env,
            os.path.join(self.workdir, "server.log"), spans_path,
        )
        return self.server.start()

    def restart(self, warm_s: float, spans_path: Optional[str] = None) -> None:
        """Serve from a fresh server from now on, warmed.

        With ``spans_path`` the server runs under the span launcher, which
        writes its spans there when the server stops.
        """
        self._start(spans_path)
        self.warm(warm_s)

    def _drive(self, body):
        """Run ``body(client)`` on a fresh connection with the collector off.

        The benchmark process holds large heaps between segments; a full
        collection in the middle of a segment would stall the generator.
        """
        async def main():
            from repro.serve.client import AsyncSimilarityClient

            client = await AsyncSimilarityClient.connect("127.0.0.1", self.server.port)
            try:
                return await body(client)
            finally:
                await client.close()

        gc.collect()
        gc.freeze()
        gc.disable()
        try:
            return asyncio.run(main())
        finally:
            gc.enable()
            gc.unfreeze()

    def _send(self, client, rate: float, seconds: float, trace: bool = False):
        start = self.cursor
        self.cursor += int(rate * seconds)
        return open_loop(client, self.stream, start, rate, seconds, trace)

    def warm(self, seconds: float) -> Load:
        """Fill the server's cache; not reported."""
        return self._drive(lambda client: self._send(client, RATE, seconds))

    def segment(self, seconds: float, trace: bool = False) -> Load:
        """One fixed-rate segment after an unreported warm-up on its connection.

        The segment runs as 0.5 s windows with the reference loop between
        them, so each window's latencies are scaled on their own.  Traced
        segments sample span trees.
        """

        async def body(client):
            await self._send(client, RATE, SEGMENT_WARM_S)
            load = Load(rate=RATE)
            before = self.speed.reference_s()
            for _ in range(max(1, round(seconds / WINDOW_S))):
                part = await self._send(client, RATE, WINDOW_S, trace)
                after = self.speed.reference_s()
                load.extend(part, self.speed.factor([before, after]))
                before = after
            return load

        load = self._drive(body)
        self.segments.append(load)
        return load

    def search(self, probe_s: float) -> tuple[float, list[Load]]:
        """The rate search, starting above the fixed rate if it met the limit.

        Returns the highest rate that met the limit, scaled to reference
        speed (0 when none did), and the probes.
        """
        known = -1
        if self.fixed().meets(LIMIT_MS, WINDOW_S):
            known = max(i for i, rate in enumerate(LADDER) if rate <= RATE)

        async def body(client):
            result = await rate_search(
                client, self.stream, self.cursor, probe_s, known, self.speed
            )
            self.cursor += sum(load.sent for load in result[1])
            return result

        passed, probes, factor = self._drive(body)
        # A slow host serves fewer queries, so rates scale by the inverse.
        return (LADDER[passed] / factor if passed >= 0 else 0.0), probes

    def fixed(self, segments: Optional[list[Load]] = None) -> Load:
        """The valid fixed-rate segments (of ``segments``, or all) pooled.

        Windows are kept within segments; latencies are scaled to
        reference speed.
        """
        pooled = Load(rate=RATE)
        per_window = int(RATE * WINDOW_S)
        for load in self.valid_segments(segments):
            full = len(load.latency_ms) // per_window * per_window
            pooled.latency_ms += load.scaled_ms[:full]
            pooled.lateness_ms += load.lateness_ms
            pooled.sent += load.sent
            pooled.answered += load.answered
            pooled.failed += load.failed
            pooled.shed += load.shed
        return pooled

    def valid_segments(self, segments: Optional[list[Load]] = None) -> list[Load]:
        """Segments whose generator kept to schedule within the read limit.

        A segment in which the generator itself ran late cannot show the
        server's latency; it is left out rather than reported.
        """
        return [
            load for load in (self.segments if segments is None else segments)
            if load.lateness_p99() <= LIMIT_MS
        ]

    def valid(self) -> bool:
        """At least half the segments kept to schedule."""
        return 2 * len(self.valid_segments()) >= len(self.segments)

    def finish(self) -> dict:
        """Check sampled answers against the oracle; stop the server."""

        async def body(client):
            return {
                vertex: _entries(await client.query(vertex, k=TOP_K))
                for vertex in self.sample
            }

        try:
            answers = self._drive(body)
            server_rss_mb = self.server.peak_rss_mb()
        finally:
            self.server.stop()
        expected = oracle_answers(self.edge_factor, self.sample)
        return {
            "server_rss_mb": server_rss_mb,
            "mismatches": sum(answers[v] != expected[v] for v in self.sample),
            "queries": len(answers),
        }

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()

    def read_ms(self, q: float, segments: Optional[list[Load]] = None) -> float:
        """Lower quartile over 0.5 s windows of the window's ``q``-th percentile.

        Latencies are scaled to reference speed, which removes slow spells
        of the whole host; the lower quartile also drops windows that a
        brief stall of one process disturbed.
        """
        return percentile(self.fixed(segments).window(q, WINDOW_S), 25.0)
