"""Unit tests for the on-demand query micro-batcher."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.service import MicroBatcher


def make_batcher(max_batch=64, calls=None):
    """A batcher whose compute returns each index broadcast over 4 columns,
    stamped with the number of the call that computed it."""
    calls = calls if calls is not None else []

    def compute_rows(indices):
        calls.append(np.array(indices))
        rows = np.repeat(np.asarray(indices, dtype=np.float64)[:, None], 4, axis=1)
        return rows, len(calls)

    return MicroBatcher(compute_rows, max_batch=max_batch), calls


class TestCoalescing:
    def test_one_flush_one_backend_call(self):
        batcher, calls = make_batcher()
        handles = [batcher.submit(index) for index in (3, 1, 4, 1, 5)]
        assert batcher.pending_count == 4  # the repeated 1 is shared
        assert batcher.flush() == 4
        assert len(calls) == 1
        for index, handle in zip((3, 1, 4, 1, 5), handles):
            assert handle.done
            assert handle.result()[0] == index

    def test_duplicates_share_one_row(self):
        batcher, _ = make_batcher()
        first = batcher.submit(7)
        second = batcher.submit(7)
        batcher.flush()
        assert first.result() is second.result()
        assert batcher.rows_computed == 1
        assert batcher.queries_submitted == 2
        assert batcher.amortisation == 2.0

    def test_result_triggers_lazy_flush(self):
        batcher, calls = make_batcher()
        handle = batcher.submit(2)
        assert not handle.done
        assert handle.result()[0] == 2.0  # result() flushed for us
        assert len(calls) == 1

    def test_version_comes_from_the_computing_batch(self):
        batcher, calls = make_batcher()
        first = batcher.submit(1)
        batcher.flush()
        second, third = batcher.submit_many([1, 2])
        assert third.version == 2  # read before result(): flushed for us
        assert (first.version, second.version) == (1, 2)
        assert len(calls) == 2

    def test_auto_flush_at_max_batch(self):
        batcher, calls = make_batcher(max_batch=3)
        for index in range(3):
            batcher.submit(index)
        assert len(calls) == 1  # third distinct submit hit the threshold
        assert batcher.pending_count == 0

    def test_flush_empty_is_noop(self):
        batcher, calls = make_batcher()
        assert batcher.flush() == 0
        assert not calls


class TestValidation:
    def test_bad_max_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            make_batcher(max_batch=0)

    def test_batches_counted(self):
        batcher, _ = make_batcher()
        batcher.submit(0)
        batcher.flush()
        batcher.submit(1)
        batcher.flush()
        assert batcher.batches_issued == 2
        assert "batches=2" in repr(batcher)
