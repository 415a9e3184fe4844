"""The catalog layout before the row log, for backward-compatibility tests.

Catalogs used to commit each batch of refreshed rows as its own compressed
``delta-NNNNNN.npz`` file, listed in the manifest's ``deltas``; their
manifests carry no ``row_log_bytes``.  :func:`write_delta_segment` is that
writer, and :func:`append_legacy_delta` commits one delta the way the
catalog did, so tests can build old-layout catalogs to open.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from repro.catalog.manifest import MANIFEST_NAME, DeltaRecord
from repro.exceptions import ConfigurationError


def write_delta_segment(
    path: Path,
    version: int,
    rows: np.ndarray,
    parts: list[tuple[np.ndarray, np.ndarray]],
) -> None:
    """Write one delta ``.npz`` via temp + atomic replace."""
    path = Path(path)
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size != len(parts):
        raise ConfigurationError(
            f"delta covers {rows.size} rows but carries {len(parts)} parts"
        )
    lengths = np.fromiter(
        (columns.size for columns, _ in parts), dtype=np.int64, count=len(parts)
    )
    columns = (
        np.concatenate([np.asarray(c, dtype=np.int64) for c, _ in parts])
        if parts
        else np.empty(0, dtype=np.int64)
    )
    values = (
        np.concatenate([np.asarray(v, dtype=np.float64) for _, v in parts])
        if parts
        else np.empty(0, dtype=np.float64)
    )
    descriptor, temp_name = tempfile.mkstemp(prefix=path.name + ".", dir=str(path.parent))
    try:
        with os.fdopen(descriptor, "wb") as handle:
            np.savez_compressed(
                handle,
                version=np.int64(version),
                rows=rows,
                lengths=lengths,
                columns=columns,
                values=values,
            )
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_name, path)
    except BaseException:
        Path(temp_name).unlink(missing_ok=True)
        raise


def append_legacy_delta(catalog, version: int, rows, parts) -> None:
    """Commit one delta file and an old-layout manifest, as catalogs did."""
    manifest = catalog.manifest
    assert manifest.row_log_bytes == 0, "old-layout catalogs have no row log"
    name = f"delta-{len(manifest.deltas):06d}.npz"
    write_delta_segment(catalog.directory / name, version, rows, parts)
    manifest.deltas.append(
        DeltaRecord(file=name, version=int(version), rows=len(rows))
    )
    manifest.graph_version = max(manifest.graph_version, int(version))
    payload = manifest.to_json()
    del payload["row_log_bytes"]
    (catalog.directory / MANIFEST_NAME).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
