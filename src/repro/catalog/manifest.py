"""Catalog manifest: the single JSON record that *is* the commit point.

A durable index catalog is a directory of immutable base segments, an
append-only row log, and one mutable ``MANIFEST.json``.  Every state
transition — creating the catalog, committing refreshed rows, compacting
them into a new base — ends with an atomic rewrite of the manifest (temp
file + ``os.replace``), so a reader always sees either the previous
committed state or the next one, never a half-written mix.  A row commit
appends its record to the log first and then rewrites the manifest with
the log's new committed length (``row_log_bytes``), so the manifest stays
one fixed-size block however many commits land.  Log bytes past that
length and segment files the manifest does not reference are left behind
by an interrupted writer: readers ignore them and the next append or
compaction removes them.

The manifest also carries the catalog's *identity*: a fingerprint of the
graph the index was built on and a digest of the engine parameters that
shaped the scores.  Loading a catalog against the wrong graph or the wrong
configuration is a :class:`~repro.exceptions.ConfigurationError`, not a
silently wrong answer — the validation bug this module exists to fix.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from ..exceptions import ConfigurationError

__all__ = [
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "CatalogManifest",
    "DeltaRecord",
    "graph_fingerprint",
    "index_config_digest",
]

FORMAT_VERSION = 1
"""On-disk format version.  Bump on any layout change a v1 reader cannot
interpret; readers reject manifests *newer* than they understand and keep
reading older ones (see CONTRIBUTING for the compatibility policy)."""

MANIFEST_NAME = "MANIFEST.json"

MANIFEST_BLOCK = 512
"""The manifest is padded with trailing whitespace to whole blocks of this
many bytes — one block for a catalog without legacy deltas — so every
commit rewrites a file of the same size."""


def graph_fingerprint(graph) -> str:
    """Deterministic identity hash of a graph's structure.

    SHA-256 over the vertex count and the *sorted, deduplicated* edge list.
    Deduplication makes the fingerprint agree between a graph built with
    repeated edges and the service's edge-set overlay of the same graph
    (SimRank semantics never count an edge twice either).  Labels are not
    hashed: the index stores vertex ids, so two graphs that differ only in
    labelling can legitimately share an index.
    """
    digest = hashlib.sha256()
    digest.update(f"n={graph.num_vertices}".encode())
    for source, target in sorted(set(graph.edges())):
        digest.update(f";{source}>{target}".encode())
    return digest.hexdigest()


def index_config_digest(damping: float, iterations: int, index_k: int) -> str:
    """Digest of the engine parameters that determine the stored scores.

    Only score-shaping parameters participate: ``damping`` and
    ``iterations`` fix the truncated series, ``index_k`` fixes the
    truncation.  Serving-side knobs (cache size, batching, workers) never
    change a stored score, so they are deliberately absent — an index is
    reusable across them.
    """
    canonical = json.dumps(
        {
            "damping": float(damping),
            "iterations": int(iterations),
            "index_k": int(index_k),
        },
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass
class DeltaRecord:
    """One legacy delta segment: which file, which graph version, how many rows."""

    file: str
    version: int
    rows: int

    def to_json(self) -> dict[str, object]:
        return {"file": self.file, "version": int(self.version), "rows": int(self.rows)}

    @classmethod
    def from_json(cls, payload: dict[str, object]) -> "DeltaRecord":
        return cls(
            file=str(payload["file"]),
            version=int(payload["version"]),  # type: ignore[arg-type]
            rows=int(payload["rows"]),  # type: ignore[arg-type]
        )


@dataclass
class CatalogManifest:
    """The committed state of a catalog directory.

    Attributes
    ----------
    format_version:
        On-disk layout version (see :data:`FORMAT_VERSION`).
    graph_hash:
        :func:`graph_fingerprint` of the graph the *base* was built on.
    config_digest:
        :func:`index_config_digest` of the score-shaping parameters.
    damping, iterations, index_k, backend:
        The parameters themselves, kept readable alongside the digest so a
        mismatch error can say *what* differed, and so a catalog can be
        opened without re-supplying them.
    num_vertices:
        Vertex count of the indexed graph.
    graph_version:
        Mutation counter of the graph state the committed rows cover: 0
        for a fresh base, and the version stamp of the newest committed
        rows afterwards.  Edge-log entries beyond it are operations whose
        refreshed rows were not yet persisted when the writer stopped.
    base_generation:
        Monotone counter naming the current base directory
        (``base-{generation:06d}``) and its row log
        (``rows-{generation:06d}.log``); compaction writes generation
        ``g+1`` and only then retires generation ``g``.
    row_log_bytes:
        Committed length of the row log.  Optional (0 when absent), so
        catalogs written before the row log keep opening.
    deltas:
        Legacy delta segments committed before the row log existed, in
        commit order.  Nothing appends to it any more; compaction folds
        it away.
    """

    format_version: int
    graph_hash: str
    config_digest: str
    damping: float
    iterations: int
    index_k: int
    backend: str
    num_vertices: int
    graph_version: int = 0
    base_generation: int = 0
    row_log_bytes: int = 0
    deltas: list[DeltaRecord] = field(default_factory=list)

    @property
    def base_name(self) -> str:
        """Directory name of the current base segment."""
        return f"base-{self.base_generation:06d}"

    @property
    def row_log_name(self) -> str:
        """File name of the current base generation's row log."""
        return f"rows-{self.base_generation:06d}.log"

    def to_json(self) -> dict[str, object]:
        return {
            "format_version": int(self.format_version),
            "graph_hash": self.graph_hash,
            "config_digest": self.config_digest,
            "damping": float(self.damping),
            "iterations": int(self.iterations),
            "index_k": int(self.index_k),
            "backend": self.backend,
            "num_vertices": int(self.num_vertices),
            "graph_version": int(self.graph_version),
            "base_generation": int(self.base_generation),
            "row_log_bytes": int(self.row_log_bytes),
            "deltas": [delta.to_json() for delta in self.deltas],
        }

    @classmethod
    def from_json(cls, payload: dict[str, object]) -> "CatalogManifest":
        try:
            format_version = int(payload["format_version"])  # type: ignore[arg-type]
        except (KeyError, TypeError, ValueError) as error:
            raise ConfigurationError(
                "catalog manifest carries no readable format_version"
            ) from error
        if format_version > FORMAT_VERSION:
            raise ConfigurationError(
                f"catalog format_version {format_version} is newer than this "
                f"reader understands (max {FORMAT_VERSION}); upgrade the "
                "package or rebuild the catalog"
            )
        try:
            return cls(
                format_version=format_version,
                graph_hash=str(payload["graph_hash"]),
                config_digest=str(payload["config_digest"]),
                damping=float(payload["damping"]),  # type: ignore[arg-type]
                iterations=int(payload["iterations"]),  # type: ignore[arg-type]
                index_k=int(payload["index_k"]),  # type: ignore[arg-type]
                backend=str(payload.get("backend", "")),
                num_vertices=int(payload["num_vertices"]),  # type: ignore[arg-type]
                graph_version=int(payload.get("graph_version", 0)),  # type: ignore[arg-type]
                base_generation=int(payload.get("base_generation", 0)),  # type: ignore[arg-type]
                row_log_bytes=int(payload.get("row_log_bytes", 0)),  # type: ignore[arg-type]
                deltas=[
                    DeltaRecord.from_json(delta)
                    for delta in payload.get("deltas", [])  # type: ignore[union-attr]
                ],
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ConfigurationError(
                f"catalog manifest is missing or corrupts a required field: {error}"
            ) from error

    def write(self, directory: Path) -> Path:
        """Atomically (re)write this manifest into ``directory``.

        The temp-file + ``os.replace`` dance makes the rewrite the commit
        point: a crash before the replace leaves the previous manifest
        intact, a crash after leaves the new one — never a torn file.
        """
        path = Path(directory) / MANIFEST_NAME
        payload = json.dumps(self.to_json(), indent=2, sort_keys=True)
        # json.dumps escapes non-ASCII, so characters are bytes here.
        payload += " " * (-(len(payload) + 1) % MANIFEST_BLOCK) + "\n"
        descriptor, temp_name = tempfile.mkstemp(
            prefix=MANIFEST_NAME + ".", dir=str(directory)
        )
        try:
            with os.fdopen(descriptor, "w") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp_name, path)
        except BaseException:
            Path(temp_name).unlink(missing_ok=True)
            raise
        return path

    @classmethod
    def read(cls, directory: Path) -> "CatalogManifest":
        """Read and validate the manifest committed in ``directory``."""
        path = Path(directory) / MANIFEST_NAME
        if not path.is_file():
            raise ConfigurationError(f"{directory} holds no {MANIFEST_NAME}")
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as error:
            raise ConfigurationError(
                f"catalog manifest {path} is not valid JSON: {error}"
            ) from error
        if not isinstance(payload, dict):
            raise ConfigurationError(f"catalog manifest {path} is not a JSON object")
        return cls.from_json(payload)

    def validate_against(
        self,
        graph,
        damping: Optional[float] = None,
        iterations: Optional[int] = None,
        index_k: Optional[int] = None,
    ) -> None:
        """Reject a wrong-graph or wrong-config load with a precise error.

        The graph check compares :func:`graph_fingerprint`, so two graphs
        of the same size but different structure no longer slip through
        (the bug the old vertex-count-only check allowed).  Parameter
        checks run only for parameters the caller supplies.
        """
        if graph.num_vertices != self.num_vertices:
            raise ConfigurationError(
                f"catalog indexes {self.num_vertices} vertices, graph has "
                f"{graph.num_vertices}"
            )
        fingerprint = graph_fingerprint(graph)
        if fingerprint != self.graph_hash:
            raise ConfigurationError(
                "catalog was built for a different graph (fingerprint "
                f"{self.graph_hash[:12]}… vs {fingerprint[:12]}…); an index "
                "serves garbage against the wrong graph, rebuild it instead"
            )
        mismatches = []
        if damping is not None and float(damping) != self.damping:
            mismatches.append(f"damping {self.damping} vs requested {damping}")
        if iterations is not None and int(iterations) != self.iterations:
            mismatches.append(
                f"iterations {self.iterations} vs requested {iterations}"
            )
        if index_k is not None and int(index_k) != self.index_k:
            mismatches.append(f"index_k {self.index_k} vs requested {index_k}")
        if mismatches:
            raise ConfigurationError(
                "catalog configuration mismatch: " + "; ".join(mismatches)
            )
