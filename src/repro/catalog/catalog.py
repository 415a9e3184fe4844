"""The durable index catalog: versioned base + row log + edge log.

Directory layout (format version 1)::

    catalog/
      MANIFEST.json        committed state — the only rewritten file
      EDGELOG.jsonl        append-only graph mutations (torn tail tolerated)
      base-000000/         current base segment (raw .npy CSR, mmap-opened)
        indptr.npy  columns.npy  values.npy  row_versions.npy
      rows-000000.log      rows committed since base-000000, one binary
                           record per commit; MANIFEST.json holds the
                           committed length (row_log_bytes)

Writes follow a strict order so a crash at *any* point leaves a readable
catalog: data lands first — a base segment under its final name via temp +
``os.replace``, a row record appended to the log and fsync'd — and only
then does an atomic manifest rewrite commit it.  A base directory the
manifest never learned about is an orphan, and log bytes past
``row_log_bytes`` are an uncommitted tail: readers ignore both, the next
append truncates the tail and the next :meth:`IndexCatalog.compact` reaps
orphans.  Catalogs written before the row log carry a ``deltas`` list of
``delta-NNNNNN.npz`` files instead; they restore and take new commits
unchanged, and compaction folds both into one base.  The edge log is
appended **before** the similarity state changes, so after a crash the
log is ahead of (never behind) the persisted rows; restore replays it and
marks rows whose last mutation outruns their stored version as dirty —
they lazily recompute, which is what makes kill-and-restart answers
bit-identical instead of almost-right.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

import numpy as np

from ..core.similarity_store import PathLike, SimilarityStore
from ..exceptions import ConfigurationError
from .manifest import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    CatalogManifest,
    graph_fingerprint,
    index_config_digest,
)
from .segments import (
    append_row_record,
    open_base_segment,
    read_delta_segment,
    read_row_log,
    write_base_segment,
)

__all__ = ["IndexCatalog", "RestoredState"]

EDGELOG_NAME = "EDGELOG.jsonl"


@dataclass
class RestoredState:
    """Everything a server needs to come back exactly where it stopped.

    Attributes
    ----------
    store:
        The similarity index — memory-mapped base with every committed
        row already spliced in.
    row_versions:
        Per-row graph version of the stored scores (base stamp, overridden
        by the newest commit covering the row).
    edge_ops:
        The full replayed edge log as ``(op, source, target, version)``
        tuples, in append order — the caller rebuilds its edge overlay
        from these.
    graph_version:
        Version stamp of the newest *persisted* similarity state.
    log_version:
        Highest version in the edge log (≥ ``graph_version``); the
        mutation counter resumes from here.  Rows whose latest touching
        operation is newer than their ``row_versions`` entry are stale and
        must be treated as dirty.
    """

    store: SimilarityStore
    row_versions: np.ndarray
    edge_ops: list[tuple[str, int, int, int]] = field(default_factory=list)
    graph_version: int = 0
    log_version: int = 0


class IndexCatalog:
    """Handle on one catalog directory.

    Create one with :meth:`create` (persisting a freshly built index) or
    :meth:`open` (attaching to an existing directory); the handle then
    mediates every durable operation — edge-log appends, row commits,
    compaction, restore.  The handle assumes a single writer (the serving
    process owns its catalog); readers can open concurrently.
    """

    def __init__(self, directory: Path, manifest: CatalogManifest) -> None:
        self.directory = Path(directory)
        self.manifest = manifest

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @staticmethod
    def is_catalog(path: PathLike) -> bool:
        """True when ``path`` is a directory holding a catalog manifest."""
        path = Path(path)
        return path.is_dir() and (path / MANIFEST_NAME).is_file()

    @classmethod
    def create(
        cls,
        path: PathLike,
        store: SimilarityStore,
        graph_version: int = 0,
        overwrite: bool = False,
    ) -> "IndexCatalog":
        """Persist a built index as a fresh catalog at ``path``.

        The store must be a serving index (built by
        :func:`~repro.service.index.build_index`, so its ``extra`` carries
        ``index_k``/``iterations``/``backend``).  ``overwrite=True``
        recommits over an existing catalog directory in place — the new
        manifest supersedes the old segments, which become orphans until
        the next compaction reaps them.
        """
        directory = Path(path)
        for key in ("index_k", "iterations"):
            if key not in store.extra:
                raise ConfigurationError(
                    f"store is not a serving index (missing {key} metadata); "
                    "build one with build_index()"
                )
        if directory.exists():
            if not directory.is_dir():
                raise ConfigurationError(f"{directory} exists and is not a directory")
            if cls.is_catalog(directory) and not overwrite:
                raise ConfigurationError(
                    f"{directory} already holds a catalog; pass overwrite=True "
                    "to recommit it"
                )
            if any(directory.iterdir()) and not cls.is_catalog(directory) and not overwrite:
                raise ConfigurationError(
                    f"{directory} exists, is non-empty and is not a catalog"
                )
        graph = store.graph
        manifest = CatalogManifest(
            format_version=FORMAT_VERSION,
            graph_hash=graph_fingerprint(graph),
            config_digest=index_config_digest(
                store.damping, int(store.extra["iterations"]), int(store.extra["index_k"])
            ),
            damping=float(store.damping),
            iterations=int(store.extra["iterations"]),
            index_k=int(store.extra["index_k"]),
            backend=str(store.extra.get("backend", "")),
            num_vertices=graph.num_vertices,
            graph_version=int(graph_version),
            base_generation=0,
        )
        if cls.is_catalog(directory) and overwrite:
            # Recommit: take the next generation so the new base never
            # overwrites arrays a concurrent reader may have mapped.
            manifest.base_generation = CatalogManifest.read(directory).base_generation + 1
        directory.mkdir(parents=True, exist_ok=True)
        row_versions = np.full(graph.num_vertices, int(graph_version), dtype=np.int64)
        write_base_segment(directory / manifest.base_name, store.matrix, row_versions)
        manifest.write(directory)
        edge_log = directory / EDGELOG_NAME
        if overwrite:
            # A recommitted base covers graph_version; older log entries
            # describe mutations the new base already reflects.
            edge_log.unlink(missing_ok=True)
        edge_log.touch(exist_ok=True)
        catalog = cls(directory, manifest)
        catalog._reap_orphans()
        return catalog

    @classmethod
    def open(cls, path: PathLike) -> "IndexCatalog":
        """Attach to the catalog committed at ``path``."""
        directory = Path(path)
        if not cls.is_catalog(directory):
            raise ConfigurationError(f"{directory} is not an index catalog")
        return cls(directory, CatalogManifest.read(directory))

    # ------------------------------------------------------------------ #
    # Validation + restore
    # ------------------------------------------------------------------ #
    def validate(
        self,
        graph,
        damping: Optional[float] = None,
        iterations: Optional[int] = None,
        index_k: Optional[int] = None,
    ) -> None:
        """Raise :class:`ConfigurationError` unless the catalog fits."""
        self.manifest.validate_against(
            graph, damping=damping, iterations=iterations, index_k=index_k
        )

    def restore(self, graph, mmap: bool = True) -> RestoredState:
        """Reopen the committed state against ``graph`` (the *base* graph).

        ``graph`` must be the graph the base was built on — the edge log
        replays the mutations since, so the caller starts from the same
        point the original server did.  The base opens memory-mapped
        (unless ``mmap=False``); the committed rows — legacy delta files
        and row-log records, the newest commit per row winning — splice in
        with one :meth:`~repro.core.similarity_store.SimilarityStore.
        merge_row_parts` call, which never writes to the mapped base.
        """
        self.validate(graph)
        matrix, row_versions = open_base_segment(
            self.directory / self.manifest.base_name, mmap=mmap
        )
        if matrix.shape[0] != graph.num_vertices:
            raise ConfigurationError(
                f"catalog base covers {matrix.shape[0]} vertices, graph has "
                f"{graph.num_vertices}"
            )
        store = SimilarityStore(
            matrix,
            graph,
            algorithm="series-topk",
            damping=self.manifest.damping,
            extra={
                "index_k": self.manifest.index_k,
                "iterations": self.manifest.iterations,
                "backend": self.manifest.backend,
                "graph_hash": self.manifest.graph_hash,
                "config_digest": self.manifest.config_digest,
            },
        )
        committed, _ = self._committed_rows()
        if committed:
            rows = list(committed)
            store.merge_row_parts(
                rows, [(columns, values) for columns, values, _ in committed.values()]
            )
            row_versions[rows] = [version for _, _, version in committed.values()]
        edge_ops = self.read_edge_log()
        log_version = max(
            (version for _, _, _, version in edge_ops),
            default=self.manifest.graph_version,
        )
        return RestoredState(
            store=store,
            row_versions=row_versions,
            edge_ops=edge_ops,
            graph_version=self.manifest.graph_version,
            log_version=max(log_version, self.manifest.graph_version),
        )

    # ------------------------------------------------------------------ #
    # Durable appends
    # ------------------------------------------------------------------ #
    def append_edge(self, op: str, source: int, target: int, version: int) -> None:
        """Durably log one graph mutation *before* it takes effect.

        Logged-but-unapplied is the recoverable order: restore sees the
        operation, replays it onto the edge overlay, and marks the
        endpoints dirty.  The reverse order would silently lose the
        mutation on a crash between apply and log.
        """
        if op not in ("add", "remove"):
            raise ConfigurationError(f"unknown edge operation {op!r}")
        line = json.dumps(
            {"op": op, "source": int(source), "target": int(target), "version": int(version)}
        )
        with open(self.directory / EDGELOG_NAME, "a") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def read_edge_log(self) -> list[tuple[str, int, int, int]]:
        """Replay the edge log; a torn final line (crash mid-append) is dropped."""
        path = self.directory / EDGELOG_NAME
        if not path.is_file():
            return []
        ops: list[tuple[str, int, int, int]] = []
        lines = path.read_text().splitlines()
        last_payload = next(
            (index for index in range(len(lines) - 1, -1, -1) if lines[index].strip()),
            -1,
        )
        for index, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                ops.append(
                    (
                        str(record["op"]),
                        int(record["source"]),
                        int(record["target"]),
                        int(record["version"]),
                    )
                )
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as error:
                if index == last_payload:
                    break  # torn tail from a crash mid-append: ignore
                raise ConfigurationError(
                    f"edge log {path} is corrupt at line {index + 1}: {error}"
                ) from error
        return ops

    def append_delta(
        self,
        version: int,
        rows,
        parts: list[tuple[np.ndarray, np.ndarray]],
    ) -> Path:
        """Commit refreshed rows at ``version`` as one row-log record.

        The record is appended at the committed end of the row log and
        fsync'd, then the manifest rewrite commits the log's new length.
        A crash in between leaves bytes past ``row_log_bytes``: restore
        ignores them and this method truncates them on its next call.
        Returns the row log's path.
        """
        manifest = self.manifest
        path = self.directory / manifest.row_log_name
        manifest.row_log_bytes = append_row_record(
            path, manifest.row_log_bytes, version, rows, parts
        )
        manifest.graph_version = max(manifest.graph_version, int(version))
        manifest.write(self.directory)
        return path

    # ------------------------------------------------------------------ #
    # Compaction
    # ------------------------------------------------------------------ #
    def compact(self, memory_budget: Optional[int] = None) -> int:
        """Merge-stream every committed row into a new base generation.

        Rows flow through the same
        :class:`~repro.service.spill.RowSpillAccumulator` the offline
        build uses (``memory_budget`` bounds the resident set), the newest
        commit per row winning over the base.  The new ``base-{g+1}``
        directory is written first; the manifest rewrite (new generation,
        no deltas, an empty row log) is the commit point; only then are
        the old base, its row log, legacy delta files and any orphans
        removed.  Returns the number of commits folded in.
        """
        # Deferred import: service.index imports spill alongside machinery
        # that (transitively) serves from this package.
        from ..service.spill import RowSpillAccumulator

        manifest = self.manifest
        fresh, folded = self._committed_rows()
        matrix, row_versions = open_base_segment(
            self.directory / manifest.base_name, mmap=True
        )
        n = matrix.shape[0]
        next_generation = manifest.base_generation + 1
        with RowSpillAccumulator(memory_budget=memory_budget) as accumulator:
            for row in range(n):
                if row in fresh:
                    columns, values, version = fresh[row]
                    row_versions[row] = version
                    accumulator.append(columns, values)
                else:
                    start, stop = matrix.indptr[row], matrix.indptr[row + 1]
                    accumulator.append(
                        np.asarray(matrix.indices[start:stop], dtype=np.int64),
                        np.asarray(matrix.data[start:stop], dtype=np.float64),
                    )
            merged = accumulator.finish(n)

        write_base_segment(
            self.directory / f"base-{next_generation:06d}", merged, row_versions
        )
        manifest.base_generation = next_generation
        manifest.row_log_bytes = 0
        manifest.deltas = []
        manifest.write(self.directory)  # commit point

        # Post-commit cleanup; stray files here are cosmetic, never state.
        self._reap_orphans()
        return folded

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _committed_rows(
        self,
    ) -> tuple[dict[int, tuple[np.ndarray, np.ndarray, int]], int]:
        """The newest committed ``(columns, values, version)`` per row.

        Legacy delta files come before the row log's records — the log
        only receives commits made after them — and a later commit of a
        row replaces an earlier one.  Also returns the number of commits.
        """
        manifest = self.manifest
        commits = [
            read_delta_segment(self.directory / record.file)
            for record in manifest.deltas
        ]
        commits += read_row_log(
            self.directory / manifest.row_log_name, manifest.row_log_bytes
        )
        newest: dict[int, tuple[np.ndarray, np.ndarray, int]] = {}
        for commit in commits:
            for row, (columns, values) in zip(commit.rows.tolist(), commit.parts()):
                newest[row] = (columns, values, commit.version)
        return newest, len(commits)

    def _reap_orphans(self) -> None:
        """Remove segment files the committed manifest does not reference."""
        live = {self.manifest.base_name, self.manifest.row_log_name} | {
            record.file for record in self.manifest.deltas
        }
        for path in self.directory.glob("base-*"):
            if path.is_dir() and path.name not in live:
                self._remove_tree(path)
        for pattern in ("rows-*.log", "delta-*.npz"):
            for path in self.directory.glob(pattern):
                if path.name not in live:
                    path.unlink(missing_ok=True)

    @staticmethod
    def _remove_tree(path: Path) -> None:
        import shutil

        shutil.rmtree(path, ignore_errors=True)


def catalog_or_store_path(path: PathLike) -> Union[IndexCatalog, Path]:
    """Dispatch helper: a catalog handle for catalog directories, else the path."""
    if IndexCatalog.is_catalog(path):
        return IndexCatalog.open(path)
    return Path(path)
