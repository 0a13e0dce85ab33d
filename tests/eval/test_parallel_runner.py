"""Process-parallel evaluation must be byte-identical to sequential."""

import os

import pytest

from repro.eval import EvaluationRunner
from repro.eval.runner import _contiguous_chunks


def _run(small_house, workers):
    runner = EvaluationRunner(
        precompute_hours=72.0, segment_hours=6.0, pairs=6, seed=3, workers=workers
    )
    return runner.evaluate(small_house.name, small_house.trace)


@pytest.fixture(scope="module")
def sequential(small_house):
    return _run(small_house, workers=1)


@pytest.fixture(scope="module")
def parallel(small_house):
    return _run(small_house, workers=2)


class TestWorkerParity:
    def test_aggregate_fingerprints_identical(self, sequential, parallel):
        assert (
            sequential.aggregate_fingerprint() == parallel.aggregate_fingerprint()
        )

    def test_outcomes_in_identical_order(self, sequential, parallel):
        assert len(sequential.outcomes) == len(parallel.outcomes) == 6
        for a, b in zip(sequential.outcomes, parallel.outcomes):
            assert a.fault == b.fault
            assert a.detected == b.detected
            assert a.identified == b.identified
            assert a.detection_minutes == b.detection_minutes

    def test_window_counts_identical(self, sequential, parallel):
        assert sequential.timings.windows == parallel.timings.windows

    def test_fingerprint_is_sha256_hex(self, sequential):
        digest = sequential.aggregate_fingerprint()
        assert len(digest) == 64
        int(digest, 16)  # raises if not hex

    def test_fingerprint_ignores_timings(self, sequential):
        # Same protocol re-run: wall clock differs, fingerprint must not.
        assert sequential.aggregate_fingerprint() == (
            sequential.aggregate_fingerprint()
        )


class TestRunnerValidation:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            EvaluationRunner(workers=0)

    def test_workers_capped_at_cpu_count(self, monkeypatch):
        # ``workers`` is the pool size the runner actually uses: an
        # over-ask runs on every core, never more; an under-ask is kept.
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert EvaluationRunner(workers=9).workers == 4
        assert EvaluationRunner(workers=4).workers == 4
        assert EvaluationRunner(workers=3).workers == 3

    def test_contiguous_chunks_preserve_order(self):
        items = list(range(10))
        chunks = _contiguous_chunks(items, 3)
        assert [x for chunk in chunks for x in chunk] == items
        assert all(chunks)

    def test_more_chunks_than_items(self):
        chunks = _contiguous_chunks([1, 2], 8)
        assert [x for chunk in chunks for x in chunk] == [1, 2]
