"""Tests for the group registry (§3.2.1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BitLayout,
    CorrelationChecker,
    DiceConfig,
    GroupRegistry,
    StateSetEncoder,
)


def make_registry(registry):
    return GroupRegistry(BitLayout(registry))


class TestInterning:
    def test_same_mask_same_id(self, registry):
        groups = make_registry(registry)
        assert groups.add(0b101) == groups.add(0b101)
        assert len(groups) == 1
        assert groups.count_of(0) == 2

    def test_distinct_masks_distinct_ids(self, registry):
        groups = make_registry(registry)
        a, b = groups.add(0b1), groups.add(0b10)
        assert a != b
        assert groups.mask_of(a) == 0b1
        assert groups.mask_of(b) == 0b10

    def test_lookup(self, registry):
        groups = make_registry(registry)
        gid = groups.add(0b11)
        assert groups.lookup(0b11) == gid
        assert groups.lookup(0b100) is None
        assert 0b11 in groups


def candidates(groups, mask, bound):
    """Main group then probable groups, as ``(group_id, distance)`` pairs."""
    result = CorrelationChecker(
        groups, DiceConfig(max_candidate_distance=bound)
    ).scan(mask)
    main = [] if result.main_group is None else [(result.main_group, 0)]
    return main + list(result.probable_groups)


class TestCandidates:
    def test_candidates_sorted_nearest_first(self, registry):
        groups = make_registry(registry)
        groups.add(0b0001)
        groups.add(0b0011)
        groups.add(0b1111)
        hits = candidates(groups, 0b0001, 2)
        assert [d for _, d in hits] == [0, 1]

    def test_candidates_respects_bound(self, registry):
        groups = make_registry(registry)
        groups.add(0b11111)
        assert candidates(groups, 0, 2) == []


class TestCorrelationDegree:
    def test_counts_devices_not_bits(self, registry):
        groups = make_registry(registry)
        layout = groups.layout
        # All three temp bits set: one activated sensor.
        mask = 0
        for bit in layout.bits_of_device("temp_kitchen"):
            mask |= 1 << bit
        groups.add(mask)
        assert groups.correlation_degree() == 1.0

    def test_average_over_unique_groups(self, registry):
        groups = make_registry(registry)
        groups.add(0b01)  # one sensor
        groups.add(0b11)  # two sensors
        groups.add(0b11)  # duplicate must not re-weight
        assert groups.correlation_degree() == pytest.approx(1.5)

    def test_empty_registry_degree_zero(self, registry):
        assert make_registry(registry).correlation_degree() == 0.0


class TestFromWindows:
    def test_sequence_matches_masks(self, registry, cyclic_trace):
        encoder = StateSetEncoder(registry, 60.0).fit(cyclic_trace)
        windowed = encoder.encode(cyclic_trace)
        groups, sequence = GroupRegistry.from_windows(windowed)
        assert len(sequence) == len(windowed)
        for mask, gid in zip(windowed.masks, sequence):
            assert groups.mask_of(gid) == mask
        assert sum(groups.count_of(g) for g in range(len(groups))) == len(windowed)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=31), min_size=1, max_size=60))
def test_interning_is_stable(masks_list):
    from repro.model import DeviceRegistry, SensorType, binary_sensor

    reg = DeviceRegistry(
        [binary_sensor(f"s{i}", SensorType.MOTION) for i in range(5)]
    )
    groups = make_registry(reg)
    first_ids = [groups.add(m) for m in masks_list]
    second_ids = [groups.lookup(m) for m in masks_list]
    assert first_ids == second_ids
    assert len(groups) == len(set(masks_list))
