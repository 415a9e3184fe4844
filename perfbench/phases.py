"""One workload run: set-up, then interleaved rounds of every phase.

Host speed on a small shared machine drifts over seconds to minutes, so
the phases are not run one after the other: each round runs a fixed-rate
serve-read segment, one solve of every method, one replay of the
serve-write stream and, every other round, one index build.  Each of
these is bracketed by a reference loop (:class:`~perfbench.common.HostSpeed`)
and its times are scaled to reference speed; a timing metric is the
median over the repeats, or for serve-read the lower quartile over 0.5 s
windows.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

import numpy as np

from .common import HostSpeed, env_with_sources, median, peak_rss_mb
from .serve_read import LIMIT_MS, PROBE_WINDOW_S, WINDOW_S, ReadSide
from .serve_write import WriteSide
from .solve import METHODS, Solver
from .spans import SpanRecorder, attribute, install_layer_spans, load_spans

# name -> (solve and serve-write graph, edge factor of the served r-mat)
WORKLOADS = {
    "web": ("berkstan", 8),
    "rmat": ("rmat", 3),
}
ROUNDS = 4
TRACED_FROM = ROUNDS // 2
"""First traced round of a traced run."""
FIXED_SHARE = 0.2
"""Share of ``--seconds`` spent in fixed-rate serve-read segments."""
PROBE_SHARE = 0.025
"""Share of ``--seconds`` spent on each rate-search probe."""
READS_PER_SECOND = 70
"""Serve-write reads per ``--seconds``, split over the replays."""
WARM_S = 1.0

END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "server_rss_mb": "MB",
    "oipsr_s": "s", "oipdsr_s": "s", "psum_s": "s", "matrix_s": "s",
    "index_build_s": "s", "read_p50_ms": "ms", "write_p50_ms": "ms",
    "refresh_p50_ms": "ms", "ops_per_s": "1/s", "mixed_read_p50_ms": "ms", "mixed_read_p95_ms": "ms",
}
SOLVE_METRIC = {"oip-sr": "oipsr_s", "psum": "psum_s", "matrix": "matrix_s",
                "oip-dsr": "oipdsr_s"}


def workload_graph(kind: str):
    """The solve and serve-write graph, and the seconds generating it took."""
    from repro.graph.generators.rmat import rmat
    from repro.workloads.datasets import load_dataset

    started = time.perf_counter()
    if kind == "berkstan":
        graph = load_dataset("berkstan", 1.0)
    else:
        graph = rmat(scale=10, num_edges=3072, seed=7)
    return graph, time.perf_counter() - started


def run_workload(root: str, workdir: str, workload: str, seed: int,
                 seconds: float, trace: bool) -> dict:
    """Run every phase of ``workload``; ``trace`` reports per-layer metrics.

    A traced run makes its first half of the rounds untraced and, for the
    second half, installs the span wrappers and restarts the server under
    the span launcher, so the tracing overhead is the difference between
    the halves.  It then runs the rate search against a plain server.
    """
    kind, edge_factor = WORKLOADS[workload]
    read_seed, write_seed = (
        int(value) for value in np.random.default_rng(seed).integers(2**32, size=2)
    )
    reads = max(200, int(READS_PER_SECOND * seconds / ROUNDS))
    segment_s = max(WINDOW_S, FIXED_SHARE * seconds / ROUNDS)
    graph, generate_s = workload_graph(kind)

    recorder = None
    search = None
    spans_path = os.path.join(workdir, "server-spans.json")
    speed = HostSpeed()
    reader = ReadSide(root, workdir, env_with_sources(root), edge_factor,
                      np.random.default_rng(read_seed), speed)
    try:
        warm = reader.warm(WARM_S)
        writer = WriteSide(graph, np.random.default_rng(write_seed), reads,
                           workdir, speed)
        solver = Solver(graph, speed)
        try:
            for number in range(ROUNDS):
                if trace and number == TRACED_FROM:
                    reader.restart(WARM_S, spans_path)
                    recorder = SpanRecorder()
                    install_layer_spans(recorder)
                reader.segment(segment_s, trace=recorder is not None)
                solver.round(recorder)
                writer.replay(number, recorder)
                if number % 2:
                    writer.build()
        finally:
            if recorder is not None:
                recorder.uninstall()
        work_rss_mb = peak_rss_mb()
        if not reader.valid():
            raise RuntimeError(
                f"fixed-rate phase invalid: the generator ran more than "
                f"{LIMIT_MS} ms late (p99) in most segments"
            )
        if trace:
            # The launcher writes the server's spans as it stops.
            reader.restart(WARM_S)
            search = reader.search(max(PROBE_SHARE * seconds, 0.5))
            if search[0] <= 0:
                raise RuntimeError("no rate on the ladder met the read limit")
        read_end = reader.finish()
    finally:
        reader.close()
    write_end = writer.finish()

    def described(load, window_s):
        return (f"{load.rate:.0f}/s p50 {median(load.latency_ms):.2f} "
                f"p99w {median(load.window(99.0, window_s)):.2f} "
                f"late99 {load.lateness_p99():.2f} "
                f"err {load.failed + load.shed}")

    details = {
        "segments": [described(load, WINDOW_S) for load in reader.segments],
        "probes": [described(load, PROBE_WINDOW_S) for load in (search[1] if search else [])],
        "solve_s": {m: [round(v, 3) for v in vs] for m, vs in solver.seconds.items()},
        "solve_max_error": solver.errors,
        "speed_factors": [round(factor, 3) for factor in speed.factors],
        "serve_read_mismatches": read_end["mismatches"],
        "serve_write_mismatch_rebuild": write_end["mismatch_rebuild"],
        "serve_write_mismatch_reopen": write_end["mismatch_reopen"],
    }
    correct = (
        solver.correct
        and read_end["mismatches"] == 0
        and write_end["mismatch_rebuild"] == 0
        and write_end["mismatch_reopen"] == 0
    )
    attempted = (
        len(METHODS) * ROUNDS + warm.sent
        + sum(load.sent for load in reader.segments) + read_end["queries"]
        + ROUNDS * writer.operations()
    )
    failed = sum(load.failed + load.shed for load in (warm, *reader.segments))

    if trace:
        metrics = {
            **layer_metrics(recorder, reader, solver, writer, write_end,
                            generate_s, graph.num_vertices),
            **_serve_read_layers(reader, spans_path),
            "serve_read.qps_at_slo": search[0],
        }
        units = LAYER_UNITS
    else:
        metrics = {
            "setup_s": median(reader.ready_s),
            "peak_rss_mb": work_rss_mb,
            "server_rss_mb": read_end["server_rss_mb"],
            **{metric: solver.typical(method) for method, metric in SOLVE_METRIC.items()},
            "read_p50_ms": reader.read_ms(50.0),
            **writer.metrics(),
        }
        units = END_TO_END_UNITS
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
        "details": details,
    }


LAYER_UNITS: dict[str, str] = {}
for _unit, _names in (
    ("s", (
        "graph.generate_s", "dmst_reduce.call_s", "sharing_engine.init_s",
        "sharing_engine.iterate_s", "psum_sr.call_s", "backends.transition_s",
        "backends.iterate_s", "backends.similarity_rows_s", "index.build_s",
        "service.query_s.cache", "service.query_s.index",
        "service.query_s.compute", "service.add_edge_s", "service.refresh_s",
        "catalog.append_edge_s", "catalog.append_delta_s",
        "catalog.manifest_write_s", "serve.decode_s", "serve.encode_s",
        "serve.admission_wait_s", "serve.queue_wait_s", "serve.unattributed_s",
        "serve.tier_s.cache", "serve.tier_s.index", "engine.serve_s",
    )),
    ("count", (
        "dmst_reduce.delta_sets", "sharing_engine.additions_per_iter",
        "sharing_engine.peak_values", "psum_sr.additions_per_iter",
        "backends.rows_per_call", "service.hits.cache", "service.hits.index",
        "service.hits.compute", "batcher.flushes", "batcher.rows_per_flush",
        "catalog.delta_segments", "serve.dispatch_batch", "serve.hits.cache",
        "serve.hits.index", "loadgen.sent", "loadgen.answered",
        "loadgen.failed", "loadgen.shed",
    )),
    ("ratio", (
        "dmst_reduce.share_ratio", "solve.addition_ratio", "solve.time_ratio",
        "service.index_fresh_ratio", "trace.overhead.solve",
        "trace.overhead.serve_read", "trace.overhead.serve_write",
        "trace.sum_ratio.solve", "trace.sum_ratio.serve_read",
        "trace.sum_ratio.serve_write", "trace.attributed_share.solve",
        "trace.attributed_share.serve_read", "trace.attributed_share.serve_write",
    )),
    ("ns", ("sharing_engine.ns_per_addition",)),
    ("1/s", ("index.rows_per_s", "serve_read.qps_at_slo")),
    ("B", ("catalog.write_bytes_per_op",)),
    ("ms", ("loadgen.lateness_p99_ms", "serve_read.p99_ms")),
):
    LAYER_UNITS.update(dict.fromkeys(_names, _unit))


def _shares(phase: str, per_op: list[dict], totals: list[float]) -> dict:
    """How much of the median op time the per-layer median self times cover.

    ``trace.sum_ratio`` adds every self time and the unattributed
    remainder, so it departs from 1 only as far as medians are not
    additive; ``trace.attributed_share`` adds the named layers alone and
    shows how much of the time they explain.
    """
    typical = {
        name: median([layers.get(name, 0.0) for layers in per_op])
        for name in {name for layers in per_op for name in layers}
    }
    total = median(totals)
    return {
        f"trace.sum_ratio.{phase}": sum(typical.values()) / total,
        f"trace.attributed_share.{phase}": sum(
            value for name, value in typical.items() if name != "unattributed"
        ) / total,
    }


def _below(spans, roots: set) -> dict:
    """Spans by name, counting only those below one of the ``roots``."""
    found = defaultdict(list)
    for span in spans:
        parent = span.parent
        while parent is not None and parent not in roots:
            parent = spans[parent].parent
        if parent is not None:
            found[span.name].append(span)
    return found


def _server_span(by_id: dict, request_id: int, sent: float, done: float) -> float:
    """Duration of the server span of the request sent at ``sent``.

    Request ids restart on every connection, so the id alone is not
    unique; the span that began while this request was outstanding is.
    ``time.perf_counter`` reads the system-wide monotonic clock on Linux,
    so the two processes' times compare.
    """
    for start, duration in by_id[request_id]:
        if sent <= start <= done:
            return duration
    raise RuntimeError(f"no server span for request {request_id} at {sent:.6f}")


def _serve_read_layers(reader: ReadSide, spans_path: str) -> dict:
    """Per-request layers of the traced fixed-rate segments.

    Admission, queue, dispatch and tier times come from the span tree the
    server returns for a traced request; frame decode and encode come from
    the launcher's spans in the server process.
    """
    serving = load_spans(spans_path)
    decode, encode = defaultdict(list), defaultdict(list)
    for found, name in ((decode, "serve.decode"), (encode, "serve.encode")):
        for s in serving:
            if s.name == name:
                found[s.request_id].append((s.start, s.duration))
    batches = [s.tags["batch"] for s in serving if s.name == "service.query_many"]
    per_request, totals = [], []
    tier_s = defaultdict(list)
    traced = reader.segments[TRACED_FROM:]
    untraced = reader.segments[:TRACED_FROM]
    for request_id, sent, done, tree in (t for load in traced for t in load.traced):
        spans = {child["name"]: child for child in tree.get("children", [])}
        dispatch = spans["dispatch"]
        service = dispatch["children"][0]
        inner = {c["name"]: c["duration_ms"] / 1e3 for c in service.get("children", [])}
        tier = next(name for name in inner if name.startswith("tier:"))
        tier_s[tier[len("tier:"):]].append(inner[tier])
        service_s = service["duration_ms"] / 1e3
        layers = {
            "decode": _server_span(decode, request_id, sent, done),
            "admission": spans["admission"]["duration_ms"] / 1e3,
            "queue": spans["queue"]["duration_ms"] / 1e3,
            "dispatch": dispatch["duration_ms"] / 1e3 - service_s,
            "service": service_s - sum(inner.values()),
            "validate": inner.get("validate", 0.0),
            "tier": inner[tier],
            "encode": _server_span(encode, request_id, sent, done),
        }
        total = done - sent
        layers["unattributed"] = total - sum(layers.values())
        per_request.append(layers)
        totals.append(total)

    def typical(layer):
        return median([layers[layer] for layers in per_request])

    def latencies(loads):
        return median([ms for load in loads for ms in load.scaled_ms])

    return {
        "serve.decode_s": typical("decode"),
        "serve.encode_s": typical("encode"),
        "serve.admission_wait_s": typical("admission"),
        "serve.queue_wait_s": typical("queue"),
        "serve.dispatch_batch": float(np.mean(batches)),
        "serve.unattributed_s": typical("unattributed"),
        "serve.tier_s.cache": median(tier_s["cache"]),
        "serve.tier_s.index": median(tier_s["index"]),
        "serve.hits.cache": sum(load.tiers.get("cache", 0) for load in traced),
        "serve.hits.index": sum(load.tiers.get("index", 0) for load in traced),
        "engine.serve_s": median(
            [s.duration for s in serving if s.name == "engine.serve"]
        ),
        # Not end-to-end metrics: stalls of the shared host's CPUs set the
        # tail and move the rate search's probes, and whole runs fall into
        # spells of them.
        "serve_read.p99_ms": reader.read_ms(99.0, untraced),
        "trace.overhead.serve_read": latencies(traced) / latencies(untraced) - 1.0,
        **_shares("serve_read", per_request, totals),
    }


def layer_metrics(recorder: SpanRecorder, reader: ReadSide, solver: Solver,
                  writer: WriteSide, write_end: dict, generate_s: float,
                  n: int) -> dict:
    """Per-layer metrics of the traced rounds."""
    spans = recorder.spans
    anchors = {**solver.anchors, **write_end["anchors"]}
    in_solve = _below(spans, {i for i, s in enumerate(spans) if s.name == "api.simrank"})
    in_ops = _below(spans, {i for i, s in enumerate(spans) if s.name.startswith("op.")})

    def typical(found, name):
        return median([span.duration for span in found[name]])

    # A solve round is its four ``repro.simrank`` calls, without the
    # reference loops between them.
    calls = attribute(spans, {"api.simrank"})
    rounds = []
    for first in range(0, len(calls), len(METHODS)):
        layers = defaultdict(float)
        for _, call in calls[first:first + len(METHODS)]:
            for name, value in call.items():
                layers[name] += value
        rounds.append((dict(layers), sum(
            span.duration for span, _ in calls[first:first + len(METHODS)])))
    ops = attribute(spans, {"op.read", "op.insert", "op.refresh"})
    additions = anchors["sharing_engine.additions_per_iter"]
    iterate_s = typical(in_solve, "sharing_engine.iterate")
    builds = [s.duration for s in spans if s.name == "index.build"]
    hits = {tier: anchors[f"service.hits.{tier}"] for tier in ("cache", "index", "compute")}
    # Index hits only happen before the first insert, in an untraced
    # round, so per-tier read times pool every round.
    reads = defaultdict(list)
    read_s = [seconds for replay in writer.read_s for seconds in replay]
    for seconds, tier in zip(read_s, writer.read_tier):
        reads[tier].append(seconds)
    return {
        "graph.generate_s": generate_s,
        "dmst_reduce.call_s": typical(in_solve, "dmst_reduce.call"),
        "dmst_reduce.share_ratio": anchors["dmst_reduce.share_ratio"],
        "dmst_reduce.delta_sets": anchors["dmst_reduce.delta_sets"],
        "sharing_engine.init_s": typical(in_solve, "sharing_engine.init"),
        "sharing_engine.iterate_s": iterate_s,
        "sharing_engine.additions_per_iter": additions,
        "sharing_engine.ns_per_addition": iterate_s / additions * 1e9,
        "sharing_engine.peak_values": anchors["sharing_engine.peak_values"],
        "psum_sr.call_s": typical(in_solve, "psum_sr.call"),
        "psum_sr.additions_per_iter": anchors["psum_sr.additions_per_iter"],
        "solve.addition_ratio": anchors["psum_sr.additions_per_iter"] / additions,
        "solve.time_ratio": (
            median(solver.seconds["psum"][TRACED_FROM:])
            / median(solver.seconds["oip-sr"][TRACED_FROM:])),
        "backends.transition_s": typical(in_solve, "backends.transition"),
        "backends.iterate_s": typical(in_solve, "backends.iterate"),
        "backends.similarity_rows_s": typical(in_ops, "backends.similarity_rows"),
        "backends.rows_per_call": float(np.mean(
            [span.tags["rows"] for span in in_ops["backends.similarity_rows"]])),
        "index.build_s": median(builds),
        "index.rows_per_s": n / median(builds),
        **{f"service.query_s.{tier}": median(reads[tier])
           for tier in ("cache", "index", "compute")},
        **{f"service.hits.{tier}": count for tier, count in hits.items()},
        "service.index_fresh_ratio": hits["index"] / (hits["index"] + hits["compute"]),
        "service.add_edge_s": typical(in_ops, "service.add_edge"),
        "service.refresh_s": typical(in_ops, "service.refresh"),
        "batcher.flushes": anchors["batcher.flushes"],
        "batcher.rows_per_flush": anchors["batcher.rows"] / anchors["batcher.flushes"],
        "catalog.append_edge_s": typical(in_ops, "catalog.append_edge"),
        "catalog.append_delta_s": typical(in_ops, "catalog.append_delta"),
        "catalog.manifest_write_s": typical(in_ops, "catalog.manifest_write"),
        "catalog.delta_segments": anchors["catalog.delta_segments"],
        "catalog.write_bytes_per_op": writer.written[-1] / writer.operations(),
        "loadgen.lateness_p99_ms": reader.fixed().lateness_p99(),
        "loadgen.sent": reader.fixed().sent,
        "loadgen.answered": reader.fixed().answered,
        "loadgen.failed": reader.fixed().failed,
        "loadgen.shed": reader.fixed().shed,
        "trace.overhead.solve": (
            median(solver.round_seconds[TRACED_FROM:])
            / median(solver.round_seconds[:TRACED_FROM]) - 1.0),
        "trace.overhead.serve_write": (
            median(writer.stream_s[TRACED_FROM:])
            / median(writer.stream_s[:TRACED_FROM]) - 1.0),
        **_shares("solve", [layers for layers, _ in rounds],
                  [total for _, total in rounds]),
        **_shares("serve_write", [layers for _, layers in ops],
                  [span.duration for span, _ in ops]),
    }
