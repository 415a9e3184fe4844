"""Durable index catalog: versioned segments, manifest, edge log, compaction.

The on-disk successor to the single-``.npz`` index format: a catalog
directory holds an immutable memory-mapped **base segment**, an
append-only **row log** of refreshed rows, an append-only **edge log**, and
one atomically rewritten ``MANIFEST.json`` that commits them — so a serving
process can be killed at any instant and restart from disk with no rebuild
and bit-identical answers.  See :mod:`repro.catalog.catalog` for the layout
and crash-ordering rules.
"""

from .catalog import (
    EDGELOG_NAME,
    IndexCatalog,
    RestoredState,
    catalog_or_store_path,
)
from .manifest import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    CatalogManifest,
    DeltaRecord,
    graph_fingerprint,
    index_config_digest,
)
from .segments import (
    DeltaSegment,
    open_base_segment,
    read_delta_segment,
    write_base_segment,
)

__all__ = [
    "EDGELOG_NAME",
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "CatalogManifest",
    "DeltaRecord",
    "DeltaSegment",
    "IndexCatalog",
    "RestoredState",
    "catalog_or_store_path",
    "graph_fingerprint",
    "index_config_digest",
    "open_base_segment",
    "read_delta_segment",
    "write_base_segment",
]
