"""``Trace``'s sortedness shortcut against the rule it replaced.

``reference_arrays`` is the constructor's former ordering rule, kept as an
oracle: a stable argsort, then the permutation unless it is the identity.
The constructor now tests the neighbours first and sorts only when they are
out of order (or NaN); the arrays it keeps must hold the same bytes.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.model import DeviceRegistry, SensorType, Trace, binary_sensor, numeric_sensor

REGISTRY = DeviceRegistry(
    [
        binary_sensor("motion", SensorType.MOTION),
        binary_sensor("door", SensorType.DOOR),
        numeric_sensor("temp", SensorType.TEMPERATURE),
    ]
)


def reference_arrays(timestamps, device_indices, values):
    timestamps = np.asarray(timestamps, dtype=np.float64)
    device_indices = np.asarray(device_indices, dtype=np.int32)
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(timestamps, kind="stable")
    if not np.array_equal(order, np.arange(len(order))):
        timestamps = timestamps[order]
        device_indices = device_indices[order]
        values = values[order]
    return timestamps, device_indices, values


#: Few distinct times, so ties across devices are common; ``-0.0`` ties
#: with ``0.0``, and NaN sorts last.
_TIMES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.5, float("nan")]),
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
)


@st.composite
def _events(draw):
    times = draw(st.lists(_TIMES, max_size=30))
    arrange = draw(st.sampled_from(["drawn", "sorted", "reversed"]))
    if arrange != "drawn":
        times = sorted(times, key=lambda t: (t != t, t), reverse=arrange == "reversed")
    n = len(times)
    devices = draw(st.lists(st.integers(0, len(REGISTRY) - 1), min_size=n, max_size=n))
    values = draw(st.lists(st.floats(allow_nan=False), min_size=n, max_size=n))
    return np.array(times, dtype=np.float64), np.array(devices), np.array(values)


def _example(times, devices, values):
    return example(
        events=(np.array(times, dtype=np.float64), np.array(devices), np.array(values))
    )


# Empty, one event, ±0.0 ties and NaN, whatever hypothesis draws.
@_example([], [], [])
@_example([5.0], [1], [1.0])
@_example([0.0, -0.0, 0.0], [2, 0, 1], [1.0, 2.0, 3.0])
@_example([1.0, float("nan"), 0.5], [0, 1, 2], [1.0, 2.0, 3.0])
@_example([float("nan"), 1.0], [0, 1], [1.0, 2.0])
@_example([3.0, 2.0, 2.0, 1.0], [0, 1, 2, 0], [4.0, 3.0, 2.0, 1.0])
@settings(max_examples=100, deadline=None)
@given(events=_events())
def test_constructor_keeps_the_reference_bytes(events):
    # An unbounded interval: the property concerns the order, not the
    # interval check (NaN and negative times included).
    trace = Trace(REGISTRY, *events, start=-np.inf, end=np.inf)
    expected = reference_arrays(*events)
    for got, want in zip(
        (trace.timestamps, trace.device_indices, trace.values), expected
    ):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
