"""StageTimings, the batch path's plain per-stage value: per-window
averages and the memo hit rate."""

import pytest

from repro.core import StageTimings
from repro.eval.runner import DatasetResult


class TestPerWindow:
    def test_zero_windows_returns_none(self):
        # Nothing was measured — an average would silently fabricate zeros.
        assert StageTimings().per_window() is None
        assert StageTimings(encoding_s=1.0, windows=0).per_window() is None

    def test_averages_over_processed_windows(self):
        timings = StageTimings(
            encoding_s=1.0, correlation_s=2.0, transition_s=0.5,
            identification_s=0.25, windows=4,
        )
        assert timings.per_window() == {
            "encoding": 0.25,
            "correlation_check": 0.5,
            "transition_check": 0.125,
            "identification": 0.0625,
        }

    def test_dataset_result_raises_on_zero_windows(self):
        result = DatasetResult(
            name="empty", num_sensors=0, correlation_degree=0.0, num_groups=0
        )
        with pytest.raises(ValueError, match="empty.*no windows"):
            result.computation_ms_per_window()


class TestRegistryView:
    def _timings(self):
        return StageTimings(
            encoding_s=0.5, correlation_s=1.5, transition_s=0.25,
            identification_s=0.125, windows=10,
            correlation_cache_hits=7, correlation_cache_misses=3,
        )

    def test_cache_hit_rate(self):
        assert self._timings().correlation_cache_hit_rate == 0.7
        assert StageTimings().correlation_cache_hit_rate == 0.0
