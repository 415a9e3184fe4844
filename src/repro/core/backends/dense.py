"""Dense NumPy backend: the transition operator as a materialised ``n × n`` array.

This is the BLAS reference implementation — every iteration is two dense
GEMMs costing ``O(n³)`` multiply-adds and the operator alone occupies ``n²``
floats.  It is exact and simple, and on small graphs the BLAS constant can
win, but on sparse graphs the :mod:`~repro.core.backends.sparse` backend does
the same arithmetic in ``O(m · n)`` per iteration.
"""

from __future__ import annotations

import numpy as np

from ...graph.matrices import backward_transition_matrix
from .base import SimRankBackend, TransitionOperator, register_backend

__all__ = ["DenseBackend"]


class DenseBackend(SimRankBackend):
    """Materialise ``W`` densely and iterate with BLAS matmuls."""

    name = "dense"
    # BLAS wants wide products and reads the whole operator per product:
    # 16-column tiles ran the kernel 2.4x slower at n = 1,024.
    row_tile = None

    def transition(self, graph) -> TransitionOperator:
        n = graph.num_vertices
        matrix = np.ascontiguousarray(
            backward_transition_matrix(graph).toarray(), dtype=np.float64
        )
        return TransitionOperator(matrix=matrix, n=n, nnz=n * n)

    def iteration_cost(self, transition: TransitionOperator) -> int:
        # Two n×n GEMMs per iteration.
        return 2 * transition.n**3


register_backend(DenseBackend())
