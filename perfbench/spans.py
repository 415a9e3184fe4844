"""Benchmark-side tracing: spans recorded around calls into each layer.

The traced run wraps public entry points of the program's layers (the
solver kernels, the service, the catalog, the wire protocol) with
:meth:`SpanRecorder.wrap`.  Each span keeps its name, start, end, the span
that was open on the same thread when it began, and a request id where one
is known.  Spans stay in memory and are written out when the run ends.
Untraced runs install nothing.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Optional


@dataclass
class Span:
    name: str
    start: float = 0.0
    end: float = 0.0
    parent: Optional[int] = None
    request_id: Optional[int] = None
    tags: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[Callable[[], None]] = []

    @contextlib.contextmanager
    def span(self, name: str, **tags) -> Iterator[Span]:
        stack = self._local.__dict__.setdefault("stack", [])
        record = Span(name, parent=stack[-1] if stack else None, tags=tags)
        with self._lock:
            self.spans.append(record)
            position = len(self.spans) - 1
        stack.append(position)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def wrap(
        self,
        owner,
        attribute: str,
        name: str,
        describe: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attribute`` with a spanned wrapper until uninstall.

        ``describe(span, args, kwargs, result)`` may add a request id or
        tags once the call returns.
        """
        own = attribute in vars(owner)
        original = getattr(owner, attribute)
        setattr(owner, attribute, self.spanned(original, name, describe))
        if own:
            self._undo.append(lambda: setattr(owner, attribute, original))
        else:
            self._undo.append(lambda: delattr(owner, attribute))

    def spanned(
        self, function: Callable, name: str, describe: Optional[Callable] = None
    ) -> Callable:
        """``function`` wrapped so that every call records a span."""

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = function(*args, **kwargs)
                if describe is not None:
                    describe(record, args, kwargs, result)
                return result

        return wrapper

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                [
                    [s.name, s.start, s.end, s.parent, s.request_id, s.tags]
                    for s in self.spans
                ],
                handle,
            )


def span(recorder: Optional[SpanRecorder], name: str, **tags):
    """``recorder.span(name, **tags)``, or a no-op block when untraced."""
    if recorder is None:
        return contextlib.nullcontext()
    return recorder.span(name, **tags)


def load_spans(path) -> list[Span]:
    with open(path, encoding="utf-8") as handle:
        return [Span(*fields) for fields in json.load(handle)]


def install_layer_spans(recorder: SpanRecorder, wire: bool = False) -> None:
    """Wrap the public entry points of every measured layer.

    ``wire=True`` also wraps the protocol's frame codec; only the server
    process does that, so client-side framing stays unwrapped.
    """
    # Packages re-export functions under their modules' names, so the
    # modules themselves are looked up by dotted path.
    (api, catalog, manifest, oip_dsr, oip_sr, sharing_engine, dense, sparse,
     engine, rmat, batcher, service) = (
        importlib.import_module(f"repro.{name}") for name in (
            "api", "catalog.catalog", "catalog.manifest", "core.oip_dsr",
            "core.oip_sr", "core.sharing_engine", "core.backends.dense",
            "core.backends.sparse", "engine.engine", "graph.generators.rmat",
            "service.batcher", "service.service",
        )
    )
    wrap = recorder.wrap
    for module in (oip_sr, oip_dsr):
        wrap(module, "dmst_reduce", "dmst_reduce.call")
    wrap(sharing_engine.SharingEngine, "__init__", "sharing_engine.init")
    wrap(sharing_engine.SharingEngine, "iterate", "sharing_engine.iterate")

    # Dispatch reads the solver off the method registry, so the psum
    # baseline is wrapped by re-registering its spec.
    psum = api.METHODS["psum"]
    api.register_method(
        replace(psum, solver=recorder.spanned(psum.solver, "psum_sr.call"))
    )
    recorder._undo.append(lambda: api.register_method(psum))

    def rows(span, args, kwargs, result):
        span.tags["rows"] = int(len(result))

    for backend in (sparse.SparseBackend, dense.DenseBackend):
        wrap(backend, "transition", "backends.transition")
        wrap(backend, "iterate", "backends.iterate")
        wrap(backend, "similarity_rows", "backends.similarity_rows", rows)

    def batch(span, args, kwargs, result):
        span.tags["batch"] = len(result)

    wrap(service.SimilarityService, "query_many", "service.query_many", batch)
    wrap(service.SimilarityService, "add_edge", "service.add_edge")
    wrap(service.SimilarityService, "refresh", "service.refresh")
    wrap(batcher.MicroBatcher, "submit_many", "batcher.submit_many")
    wrap(batcher.MicroBatcher, "flush", "batcher.flush")
    wrap(catalog.IndexCatalog, "append_edge", "catalog.append_edge")
    wrap(catalog.IndexCatalog, "append_delta", "catalog.append_delta")
    wrap(manifest.CatalogManifest, "write", "catalog.manifest_write")
    wrap(engine, "_build_index", "index.build")
    wrap(engine.Engine, "serve", "engine.serve")
    wrap(engine.Engine, "build_fingerprints", "engine.build_fingerprints")
    wrap(rmat, "rmat_edge_list", "graph.generate")

    if wire:
        protocol = importlib.import_module("repro.serve.protocol")

        def decoded(span, args, kwargs, result):
            span.request_id = result.get("id")

        def encoded(span, args, kwargs, result):
            span.request_id = args[0].get("id")

        wrap(protocol, "decode_frame", "serve.decode", decoded)
        wrap(protocol, "encode_frame", "serve.encode", encoded)


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def attribute(spans: list[Span], root_names: set[str]) -> list[tuple[Span, dict]]:
    """Split each root span's time into per-layer self times.

    A span's self time is its duration minus the part of it that its child
    spans cover.  Every descendant's self time is credited to its name; the
    root's own self time is the ``unattributed`` remainder.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for position, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(position)
    result = []
    for position, span in enumerate(spans):
        if span.name not in root_names:
            continue
        layers: dict[str, float] = defaultdict(float)
        pending = [position]
        while pending:
            current = pending.pop()
            node = spans[current]
            kids = children.get(current, [])
            covered = _covered(
                [
                    (max(spans[k].start, node.start), min(spans[k].end, node.end))
                    for k in kids
                ]
            )
            layer = "unattributed" if current == position else node.name
            layers[layer] += node.duration - covered
            pending.extend(kids)
        result.append((span, dict(layers)))
    return result
