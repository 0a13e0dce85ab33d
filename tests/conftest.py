"""Shared fixtures: a small deterministic deployment and traces."""

import tracemalloc

import numpy as np
import pytest

from repro.core import DiceConfig, DiceDetector
from repro.model import (
    DeviceRegistry,
    SensorType,
    Trace,
    actuator,
    binary_sensor,
    numeric_sensor,
)

HOUR = 3600.0


def traced_peak(build):
    """``(tracemalloc peak in bytes, result)`` of calling *build*."""
    tracemalloc.start()
    try:
        built = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, built


@pytest.fixture
def registry():
    """Two binary sensors, one numeric sensor, one actuator."""
    return DeviceRegistry(
        [
            binary_sensor("motion_kitchen", SensorType.MOTION, "kitchen"),
            binary_sensor("motion_bedroom", SensorType.MOTION, "bedroom"),
            numeric_sensor("temp_kitchen", SensorType.TEMPERATURE, "kitchen"),
            actuator("hue_kitchen", SensorType.BULB, "kitchen"),
        ]
    )


def make_cyclic_trace(registry, hours=4.0, phase_seconds=600.0):
    """Alternating kitchen/bedroom phases with a rising/falling temperature
    and a kitchen bulb activation — enough structure for every DICE stage."""
    times, devs, vals = [], [], []
    horizon = hours * HOUR
    t = 0.0
    while t < horizon:
        half = phase_seconds / 2.0
        for s in np.arange(t, t + half, 30.0):
            times.append(s), devs.append(0), vals.append(1.0)
        for s in np.arange(t, t + half, 20.0):
            times.append(s), devs.append(2), vals.append(25.0 + (s - t) / 60.0)
        times.append(t + 70.0), devs.append(3), vals.append(1.0)
        times.append(t + half), devs.append(3), vals.append(0.0)
        for s in np.arange(t + half, t + phase_seconds, 30.0):
            times.append(s), devs.append(1), vals.append(1.0)
        for s in np.arange(t + half, t + phase_seconds, 20.0):
            times.append(s), devs.append(2), vals.append(25.0 + (t + phase_seconds - s) / 60.0)
        t += phase_seconds
    return Trace(
        registry,
        np.array(times),
        np.array(devs, dtype=np.int32),
        np.array(vals),
        start=0.0,
        end=horizon,
    )


@pytest.fixture
def cyclic_trace(registry):
    return make_cyclic_trace(registry)


@pytest.fixture
def fitted_detector(registry, cyclic_trace):
    training = cyclic_trace.slice(0.0, 3.0 * HOUR)
    return DiceDetector(registry, DiceConfig()).fit(training)


@pytest.fixture
def live_segment(cyclic_trace):
    return cyclic_trace.slice(3.0 * HOUR, 4.0 * HOUR)


@pytest.fixture(scope="session")
def small_house():
    """A short houseA recording shared across test modules (seeded)."""
    from repro.datasets import load_dataset

    return load_dataset("houseA", seed=11, hours=120.0)


@pytest.fixture(scope="session")
def small_testbed():
    """A short D_houseA recording (numeric sensors + actuators)."""
    from repro.datasets import load_dataset

    return load_dataset("D_houseA", seed=11, hours=120.0)
