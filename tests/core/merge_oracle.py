"""The COO rebuild ``SimilarityStore.merge_row_parts`` used before the splice.

Kept as the reference the splice is compared against: drop every stored
entry of the replaced rows, append the parts as COO triples, convert the
whole matrix back to CSR and drop explicit zeros.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse


def coo_merge(matrix: sparse.csr_matrix, rows, parts) -> sparse.csr_matrix:
    """Return ``matrix`` with ``rows`` replaced by ``parts``, rebuilt via COO."""
    rows = np.asarray(list(rows), dtype=np.int64)
    n = matrix.shape[0]
    lengths = np.diff(matrix.indptr)
    replaced = np.zeros(n, dtype=bool)
    replaced[rows] = True
    keep = ~np.repeat(replaced, lengths)
    new_rows = [np.repeat(np.arange(n), lengths)[keep]]
    new_cols = [np.asarray(matrix.indices[keep], dtype=np.int64)]
    new_data = [matrix.data[keep]]
    for row, (columns, values) in zip(rows, parts):
        columns = np.asarray(columns, dtype=np.int64).ravel()
        new_rows.append(np.full(columns.size, row, dtype=np.int64))
        new_cols.append(columns)
        new_data.append(np.asarray(values, dtype=np.float64).ravel())
    merged = sparse.coo_matrix(
        (
            np.concatenate(new_data),
            (np.concatenate(new_rows), np.concatenate(new_cols)),
        ),
        shape=matrix.shape,
    ).tocsr()
    merged.eliminate_zeros()
    return merged
