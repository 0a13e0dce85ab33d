"""Unit and property tests for the array-backed Trace."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import Event, Trace
from tests.conftest import make_cyclic_trace, traced_peak


def make_trace(registry, times, devs, vals, **kwargs):
    return Trace(
        registry,
        np.asarray(times, dtype=float),
        np.asarray(devs, dtype=np.int32),
        np.asarray(vals, dtype=float),
        **kwargs,
    )


class TestConstruction:
    def test_sorts_events_by_time(self, registry):
        trace = make_trace(registry, [5.0, 1.0, 3.0], [0, 1, 2], [1.0, 1.0, 25.0])
        assert list(trace.timestamps) == [1.0, 3.0, 5.0]

    def test_misaligned_arrays_rejected(self, registry):
        with pytest.raises(ValueError):
            make_trace(registry, [1.0], [0, 1], [1.0, 1.0])

    def test_out_of_range_device_rejected(self, registry):
        with pytest.raises(ValueError):
            make_trace(registry, [1.0], [99], [1.0])

    def test_end_defaults_to_last_event(self, registry):
        trace = make_trace(registry, [1.0, 9.0], [0, 0], [1.0, 1.0])
        assert trace.end == 9.0

    def test_end_before_start_rejected(self, registry):
        with pytest.raises(ValueError):
            Trace.empty(registry, start=10.0, end=5.0)

    def test_event_outside_interval_rejected(self, registry):
        with pytest.raises(ValueError):
            make_trace(registry, [100.0], [0], [1.0], start=0.0, end=50.0)

    def test_from_events_roundtrip(self, registry):
        events = [Event(2.0, "motion_kitchen", 1.0), Event(1.0, "temp_kitchen", 20.0)]
        trace = Trace.from_events(registry, events)
        assert [e.device_id for e in trace] == ["temp_kitchen", "motion_kitchen"]

    def test_concatenate(self, registry):
        a = make_trace(registry, [1.0], [0], [1.0], start=0.0, end=10.0)
        b = make_trace(registry, [15.0], [1], [1.0], start=10.0, end=20.0)
        joined = Trace.concatenate([a, b])
        assert len(joined) == 2
        assert joined.start == 0.0 and joined.end == 20.0

    def test_concatenate_requires_shared_registry(self, registry):
        from repro.model import DeviceRegistry, SensorType, binary_sensor

        other = DeviceRegistry([binary_sensor("x", SensorType.MOTION)])
        a = Trace.empty(registry)
        b = Trace.empty(other)
        with pytest.raises(ValueError):
            Trace.concatenate([a, b])


class TestSlicing:
    def test_slice_half_open(self, registry):
        trace = make_trace(registry, [0.0, 5.0, 10.0], [0, 0, 0], [1, 1, 1])
        part = trace.slice(0.0, 10.0)
        assert len(part) == 2  # event at exactly t1 excluded

    def test_slice_rebase(self, registry):
        trace = make_trace(registry, [100.0, 150.0], [0, 0], [1, 1], end=200.0)
        part = trace.slice(100.0, 200.0, rebase=True)
        assert part.start == 0.0
        assert part.timestamps[0] == 0.0

    def test_shifted(self, registry):
        trace = make_trace(registry, [1.0], [0], [1.0], end=10.0)
        moved = trace.shifted(5.0)
        assert moved.timestamps[0] == 6.0
        assert moved.start == 5.0 and moved.end == 15.0

    def test_without_device_keeps_interval(self, registry):
        trace = make_trace(registry, [1.0, 2.0], [0, 1], [1, 1], end=10.0)
        cut = trace.without_device("motion_kitchen")
        assert len(cut) == 1
        assert cut.end == 10.0
        assert cut.registry is trace.registry

    def test_events_for(self, registry):
        trace = make_trace(registry, [1.0, 2.0, 3.0], [0, 2, 0], [1.0, 22.0, 1.0])
        times, values = trace.events_for("temp_kitchen")
        assert list(times) == [2.0]
        assert list(values) == [22.0]

    def test_with_extra_events_merges_sorted(self, registry):
        trace = make_trace(registry, [5.0], [0], [1.0], end=10.0)
        merged = trace.with_extra_events(
            np.array([1.0]), np.array([1], dtype=np.int32), np.array([1.0])
        )
        assert list(merged.timestamps) == [1.0, 5.0]


def _arrays(trace):
    return (trace.timestamps, trace.device_indices, trace.values)


class TestHeldOnce:
    """A trace holds each event once: sorted input is kept as given, and a
    slice is a view of its parent."""

    def test_sorted_input_is_kept_without_a_sort(self, registry):
        n = 200_000
        rng = np.random.default_rng(0)
        arrays = (
            np.cumsum(rng.uniform(0.0, 2.0, n)),
            rng.integers(0, len(registry), n).astype(np.int32),
            rng.random(n),
        )
        peak, trace = traced_peak(lambda: Trace(registry, *arrays))
        # The sortedness test is a 1 B/event temporary; a sort would cost
        # at least the 8 B/event of its index array.
        assert peak < 8 * n, peak
        assert all(a is b for a, b in zip(_arrays(trace), arrays))

    def test_slice_shares_its_parents_arrays(self, registry):
        trace = make_cyclic_trace(registry, hours=2.0)
        part = trace.slice(1800.0, 5400.0)
        assert 0 < len(part) < len(trace)
        assert all(map(np.shares_memory, _arrays(part), _arrays(trace)))
        rebased = trace.slice(1800.0, 5400.0, rebase=True)
        assert rebased.timestamps[0] == part.timestamps[0] - 1800.0
        assert not np.shares_memory(rebased.timestamps, trace.timestamps)
        assert np.shares_memory(rebased.device_indices, trace.device_indices)
        assert np.shares_memory(rebased.values, trace.values)
        compact = part.copy()
        assert not any(map(np.shares_memory, _arrays(compact), _arrays(trace)))


class TestStatistics:
    def test_event_counts(self, registry):
        trace = make_trace(registry, [1, 2, 3], [0, 0, 2], [1, 1, 20.0])
        counts = trace.event_counts()
        assert counts[0] == 2 and counts[2] == 1

    def test_active_devices(self, registry):
        trace = make_trace(registry, [1.0], [2], [20.0])
        assert [d.device_id for d in trace.active_devices()] == ["temp_kitchen"]


@settings(max_examples=50, deadline=None)
@given(
    times=st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=50
    )
)
def test_slice_partition_property(times):
    """Slicing at any midpoint partitions the events exactly."""
    from repro.model import DeviceRegistry, SensorType, binary_sensor

    registry = DeviceRegistry([binary_sensor("s", SensorType.MOTION)])
    times = sorted(times)
    trace = Trace(
        registry,
        np.array(times),
        np.zeros(len(times), dtype=np.int32),
        np.ones(len(times)),
        start=0.0,
        end=times[-1] + 1.0,
    )
    mid = times[len(times) // 2]
    left = trace.slice(trace.start, mid)
    right = trace.slice(mid, trace.end + 1.0)
    assert len(left) + len(right) == len(trace)
