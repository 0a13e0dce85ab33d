"""Tests for DiceConfig validation and derived quantities."""

import pytest

from repro.core import (
    BITS_PER_BINARY_DEVICE,
    BITS_PER_NUMERIC_SENSOR,
    DEFAULT_CONFIG,
    DiceConfig,
)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window_seconds": 0},
            {"window_seconds": -1},
            {"num_faults": 0},
            {"max_candidate_distance": 0},
            {"max_identification_windows": 0},
            {"min_group_observations": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DiceConfig(**kwargs)

    def test_defaults_match_paper(self):
        assert DEFAULT_CONFIG.window_seconds == 60.0
        assert DEFAULT_CONFIG.num_faults == 1
        assert DEFAULT_CONFIG.num_thre == 1


class TestDerived:
    def test_candidate_distance_binary_only(self):
        config = DiceConfig(num_faults=1)
        assert config.candidate_distance(has_numeric_sensors=False) == (
            BITS_PER_BINARY_DEVICE
        )

    def test_candidate_distance_with_numeric(self):
        config = DiceConfig(num_faults=2)
        assert config.candidate_distance(has_numeric_sensors=True) == (
            2 * BITS_PER_NUMERIC_SENSOR
        )

    def test_explicit_override_wins(self):
        config = DiceConfig(max_candidate_distance=7)
        assert config.candidate_distance(True) == 7
        assert config.candidate_distance(False) == 7

    def test_numthre_tracks_fault_count(self):
        assert DiceConfig(num_faults=3).num_thre == 3

    def test_with_creates_modified_copy(self):
        base = DiceConfig()
        changed = base.with_(window_seconds=30.0)
        assert changed.window_seconds == 30.0
        assert base.window_seconds == 60.0
        assert changed.num_faults == base.num_faults
