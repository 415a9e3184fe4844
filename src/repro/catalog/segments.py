"""Segment I/O: the immutable base, the append-only row log, legacy deltas.

A **base segment** is a directory of raw ``.npy`` arrays — the CSR triple
(``indptr``/``columns``/``values``) plus a per-row ``row_versions`` stamp —
written once and opened with ``np.load(mmap_mode="r")``.  Raw ``.npy`` (not
a compressed ``.npz``) is what makes the memory-mapped open real: serving
starts warm with the OS paging rows in on demand, never materialising the
full CSR.  Index arrays are written as int32 whenever the values fit —
scipy keeps int32 CSR index arrays as zero-copy views over the memmap,
while int64 arrays would be down-cast (copied, defeating the map).  A base
is written to temp names and committed with ``os.replace``, so a torn
write never leaves a half-file under a name the manifest could reference.

The **row log** ``rows-{generation:06d}.log`` holds the truncated rows
committed since its base generation was written: one binary record per
commit, appended in commit (= graph version) order.  A record is a run of
little-endian 8-byte words::

    version, r, e                 header: graph version, rows, entries
    rows[r], lengths[r]           int64 row ids and per-row entry counts
    columns[e]                    int64, ascending within each row
    values[e]                     float64

Only the first ``row_log_bytes`` bytes — the length the manifest committed
— are state.  The record is fsync'd before the manifest rewrite commits
its length, so bytes past that length are an uncommitted tail from a crash
between the two: readers never look at them and the next append truncates
them.  That ordering is why the log needs no checksums.

A **delta segment** (``delta-NNNNNN.npz``, one compressed ``.npz`` per
commit) is the layout catalogs used before the row log.  Catalogs written
that way still restore and compact; nothing writes deltas any more.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

from ..exceptions import ConfigurationError

__all__ = [
    "DeltaSegment",
    "append_row_record",
    "open_base_segment",
    "read_delta_segment",
    "read_row_log",
    "write_base_segment",
]

_INT32_MAX = np.iinfo(np.int32).max


def _index_dtype(max_value: int) -> np.dtype:
    """int32 when every value fits (the mmap-friendly choice), else int64."""
    return np.dtype(np.int32) if max_value <= _INT32_MAX else np.dtype(np.int64)


def _write_array(directory: Path, name: str, array: np.ndarray) -> None:
    """Write one ``.npy`` under ``directory`` via temp + atomic replace."""
    descriptor, temp_name = tempfile.mkstemp(prefix=name + ".", dir=str(directory))
    try:
        with os.fdopen(descriptor, "wb") as handle:
            np.save(handle, array)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_name, directory / f"{name}.npy")
    except BaseException:
        Path(temp_name).unlink(missing_ok=True)
        raise


def write_base_segment(
    directory: Path,
    matrix: sparse.csr_matrix,
    row_versions: np.ndarray,
) -> None:
    """Write a CSR matrix and its row-version stamps as a base segment.

    ``directory`` is created (parents included); existing arrays under it
    are overwritten atomically.  The caller commits the segment by
    referencing its name from the manifest — an unreferenced directory is
    an ignorable orphan.
    """
    directory = Path(directory)
    n = matrix.shape[0]
    if row_versions.shape != (n,):
        raise ConfigurationError(
            f"row_versions must have shape ({n},), got {row_versions.shape}"
        )
    directory.mkdir(parents=True, exist_ok=True)
    index_dtype = _index_dtype(max(int(matrix.indptr[-1]), n))
    _write_array(directory, "indptr", matrix.indptr.astype(index_dtype, copy=False))
    _write_array(directory, "columns", matrix.indices.astype(index_dtype, copy=False))
    _write_array(
        directory, "values", matrix.data.astype(np.float64, copy=False)
    )
    _write_array(
        directory, "row_versions", np.asarray(row_versions, dtype=np.int64)
    )


def open_base_segment(
    directory: Path, mmap: bool = True
) -> tuple[sparse.csr_matrix, np.ndarray]:
    """Open a base segment; return ``(matrix, row_versions)``.

    With ``mmap=True`` (the default) the CSR arrays stay read-only views
    over ``np.load(mmap_mode="r")`` memmaps until the first row merge,
    which builds new arrays and never writes to these.
    ``row_versions`` is always materialised (it is tiny and the restore
    path updates it in place).
    """
    directory = Path(directory)
    mode = "r" if mmap else None
    try:
        indptr = np.load(directory / "indptr.npy", mmap_mode=mode)
        columns = np.load(directory / "columns.npy", mmap_mode=mode)
        values = np.load(directory / "values.npy", mmap_mode=mode)
        row_versions = np.array(
            np.load(directory / "row_versions.npy"), dtype=np.int64
        )
    except (FileNotFoundError, ValueError) as error:
        raise ConfigurationError(
            f"{directory} is not a readable base segment: {error}"
        ) from error
    n = indptr.shape[0] - 1
    if row_versions.shape != (n,):
        raise ConfigurationError(
            f"base segment {directory} is inconsistent: {n} rows but "
            f"{row_versions.shape[0]} row versions"
        )
    matrix = sparse.csr_matrix((values, columns, indptr), shape=(n, n))
    return matrix, row_versions


@dataclass
class DeltaSegment:
    """One commit's payload: refreshed truncated rows at a graph version.

    The payload of one row-log record, or of one legacy delta ``.npz``.
    ``lengths[i]`` entries of ``columns``/``values`` belong to ``rows[i]``,
    in :func:`~repro.core.similarity_store.row_top_k` convention (ascending
    columns, diagonal excluded).
    """

    version: int
    rows: np.ndarray
    lengths: np.ndarray
    columns: np.ndarray
    values: np.ndarray

    def parts(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Split the flat payload back into per-row ``(columns, values)``."""
        bounds = np.concatenate(([0], np.cumsum(self.lengths)))
        return [
            (
                self.columns[bounds[i] : bounds[i + 1]],
                self.values[bounds[i] : bounds[i + 1]],
            )
            for i in range(self.rows.size)
        ]


_WORD = np.dtype("<i8")
_VALUE = np.dtype("<f8")
_HEADER_BYTES = 3 * _WORD.itemsize


def append_row_record(
    path: Path,
    committed: int,
    version: int,
    rows,
    parts: list[tuple[np.ndarray, np.ndarray]],
) -> int:
    """Append one record to the row log at ``path``; return the new length.

    The record lands at byte ``committed`` — any uncommitted tail a crash
    left past it is truncated first — and is fsync'd before this returns.
    The caller commits the returned length through the manifest.
    """
    rows = np.asarray(rows, dtype=_WORD).ravel()
    if rows.size != len(parts):
        raise ConfigurationError(
            f"commit covers {rows.size} rows but carries {len(parts)} parts"
        )
    columns = [np.asarray(c, dtype=_WORD).ravel() for c, _ in parts]
    values = [np.asarray(v, dtype=_VALUE).ravel() for _, v in parts]
    lengths = np.array([part.size for part in columns], dtype=_WORD)
    for row, part_columns, part_values in zip(rows.tolist(), columns, values):
        if part_columns.size != part_values.size:
            raise ConfigurationError(
                f"row part for row {row} has {part_columns.size} columns but "
                f"{part_values.size} values"
            )
    header = np.array([version, rows.size, lengths.sum()], dtype=_WORD)
    record = b"".join(
        array.tobytes() for array in (header, rows, lengths, *columns, *values)
    )
    with open(path, "ab") as handle:
        size = os.fstat(handle.fileno()).st_size
        if size < committed:
            raise ConfigurationError(
                f"row log {path} holds {size} bytes, fewer than the "
                f"{committed} the manifest committed"
            )
        if size > committed:
            handle.truncate(committed)  # uncommitted tail from a crash
        handle.write(record)
        handle.flush()
        os.fsync(handle.fileno())
    return committed + len(record)


def read_row_log(path: Path, committed: int) -> list[DeltaSegment]:
    """Read the records in the first ``committed`` bytes of the row log.

    Bytes past ``committed`` are an uncommitted tail and are never read.
    A record that runs past ``committed``, or a log shorter than it, is a
    :class:`ConfigurationError`: the manifest only ever commits whole
    records, so either means the log was damaged.
    """
    if committed == 0:
        return []
    try:
        with open(path, "rb") as handle:
            payload = handle.read(committed)
    except FileNotFoundError as error:
        raise ConfigurationError(
            f"row log {path} is missing but the manifest committed "
            f"{committed} bytes of it"
        ) from error
    if len(payload) < committed:
        raise ConfigurationError(
            f"row log {path} holds {len(payload)} bytes, fewer than the "
            f"{committed} the manifest committed"
        )
    records: list[DeltaSegment] = []
    offset = 0
    while offset < committed:
        if offset + _HEADER_BYTES > committed:
            raise ConfigurationError(
                f"row log {path}: the record header at byte {offset} runs "
                f"past the {committed} committed bytes"
            )
        version, count, entries = np.frombuffer(
            payload, dtype=_WORD, count=3, offset=offset
        ).tolist()
        end = offset + _HEADER_BYTES + _WORD.itemsize * (2 * count + 2 * entries)
        if count < 0 or entries < 0 or end > committed:
            raise ConfigurationError(
                f"row log {path}: the record at byte {offset} (rows {count}, "
                f"entries {entries}) runs past the {committed} committed bytes"
            )
        words = np.frombuffer(
            payload, dtype=_WORD, count=2 * count + entries,
            offset=offset + _HEADER_BYTES,
        )
        lengths = words[count : 2 * count]
        if np.any(lengths < 0) or int(lengths.sum()) != entries:
            raise ConfigurationError(
                f"row log {path}: the record at byte {offset} has row "
                f"lengths that do not sum to its {entries} entries"
            )
        records.append(
            DeltaSegment(
                version=version,
                rows=words[:count],
                lengths=lengths,
                columns=words[2 * count :],
                values=np.frombuffer(
                    payload, dtype=_VALUE, count=entries,
                    offset=end - _VALUE.itemsize * entries,
                ),
            )
        )
        offset = end
    return records


def read_delta_segment(path: Path) -> DeltaSegment:
    """Read one committed legacy delta ``.npz``."""
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as archive:
            return DeltaSegment(
                version=int(archive["version"]),
                rows=np.array(archive["rows"], dtype=np.int64),
                lengths=np.array(archive["lengths"], dtype=np.int64),
                columns=np.array(archive["columns"], dtype=np.int64),
                values=np.array(archive["values"], dtype=np.float64),
            )
    except (FileNotFoundError, KeyError, ValueError) as error:
        raise ConfigurationError(
            f"{path} is not a readable delta segment: {error}"
        ) from error
