"""Fault models (Ch. IV.2).

Following Ni et al.'s fault taxonomy, the thesis injects one fail-stop class
and the four most frequently observed non-fail-stop classes:

* **fail-stop** — the device dies; no data after the onset;
* **outlier** — isolated anomalous readings;
* **stuck-at** — the output freezes at one value, unaffected by the input;
* **high-noise** — noise/variance beyond the expected degree;
* **spike** — a burst of data points far above the expected value.

Each model is a pure transformation of a device's event stream within a
trace; binary and numeric devices get the class-appropriate rendering
(e.g. "high noise" on a reed switch is flicker, on a thermometer it is
variance).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..model import Trace


class FaultType(enum.Enum):
    FAIL_STOP = "fail_stop"
    OUTLIER = "outlier"
    STUCK_AT = "stuck_at"
    HIGH_NOISE = "high_noise"
    SPIKE = "spike"


#: The non-fail-stop classes of Ni et al. the evaluation cycles through.
NON_FAIL_STOP_TYPES = (
    FaultType.OUTLIER,
    FaultType.STUCK_AT,
    FaultType.HIGH_NOISE,
    FaultType.SPIKE,
)

ALL_FAULT_TYPES = (FaultType.FAIL_STOP,) + NON_FAIL_STOP_TYPES


@dataclass(frozen=True)
class InjectedFault:
    """Ground truth describing one injected fault."""

    device_id: str
    fault_type: FaultType
    onset: float  # absolute seconds within the (faulty) trace


@dataclass
class _DeviceScale:
    """Value statistics used to size numeric fault magnitudes."""

    low: float
    high: float

    @property
    def span(self) -> float:
        return max(self.high - self.low, 1.0)


def _scale_of(trace: Trace, device_id: str) -> _DeviceScale:
    _, values = trace.events_for(device_id)
    if len(values) == 0:
        return _DeviceScale(0.0, 1.0)
    return _DeviceScale(float(values.min()), float(values.max()))


def _drop_after(trace: Trace, device_id: str, onset: float) -> Trace:
    keep = ~(trace.device_mask(device_id) & (trace.timestamps >= onset))
    return trace.replace_arrays(
        trace.timestamps[keep], trace.device_indices[keep], trace.values[keep]
    )


def _add_events(
    trace: Trace, device_id: str, times: np.ndarray, values: np.ndarray
) -> Trace:
    keep = (times >= trace.start) & (times < trace.end)
    times, values = times[keep], values[keep]
    idx = np.full(len(times), trace.registry.index_of(device_id), dtype=np.int32)
    return trace.with_extra_events(times, idx, values)


# --------------------------------------------------------------------- #
# Fault renderings
# --------------------------------------------------------------------- #


def inject_fail_stop(trace: Trace, device_id: str, onset: float) -> Trace:
    """The device stops producing data at *onset*."""
    return _drop_after(trace, device_id, onset)


def inject_stuck_at(
    trace: Trace,
    device_id: str,
    onset: float,
    rng: np.random.Generator,
    report_period: float = 30.0,
) -> Trace:
    """The device keeps reporting one frozen value from *onset* on.

    Numeric devices freeze at their last pre-onset reading (the classic
    stuck-at footprint); binary devices stick *active*.  Crucially the
    frozen value is typically an entirely plausible one, which is why the
    paper finds stuck-at faults slip past the correlation check and need
    the transition check (Fig. 5.4).
    """
    device = trace.registry[device_id]
    if device.is_binary:
        # A stuck-active binary device keeps firing around the clock.
        out = _drop_after(trace, device_id, onset)
        times = np.arange(onset, trace.end, report_period)
        return _add_events(out, device_id, times, np.ones(len(times)))
    # A stuck numeric sensor reports on its usual schedule — the reporting
    # *pattern* is driven by the (healthy) transducer electronics — but the
    # value is frozen at a constant from its normal operating range (Ni et
    # al.: "a series of output values unaffected by the input").  Because
    # the frozen value is plausible, the correlation structure often
    # survives and the transition check has to catch it (Fig. 5.4).
    _, observed = trace.events_for(device_id)
    if len(observed):
        stuck_value = float(observed[int(rng.integers(len(observed)))])
    else:
        stuck_value = _scale_of(trace, device_id).low
    mask = trace.device_mask(device_id) & (trace.timestamps >= onset)
    values = trace.values.copy()
    values[mask] = stuck_value
    return trace.replace_arrays(trace.timestamps, trace.device_indices, values)


def inject_outlier(
    trace: Trace,
    device_id: str,
    onset: float,
    rng: np.random.Generator,
    occurrences: Optional[int] = None,
) -> Trace:
    """Isolated anomalous readings after *onset*; normal data continues.

    Each occurrence is a short burst rather than a lone sample: a glitching
    reed switch clicks a few times in a row, a glitching gauge repeats the
    wild reading — and a single reading in one minute-long window would
    leave the trend/skew bits of Eqs. 3.2-3.3 undefined anyway.
    """
    device = trace.registry[device_id]
    n = int(occurrences) if occurrences else int(rng.integers(2, 4))
    span = trace.end - onset
    anchors = onset + np.sort(rng.uniform(0.0, max(span, 1.0), size=n))
    times_parts = []
    for anchor in anchors:
        burst = anchor + 20.0 * np.arange(int(rng.integers(3, 7)))
        times_parts.append(burst)
    times = np.concatenate(times_parts)
    if device.is_binary:
        values = np.ones(len(times))
    else:
        scale = _scale_of(trace, device_id)
        values = scale.high + scale.span * rng.uniform(2.0, 4.0, size=len(times))
    return _add_events(trace, device_id, times, values)


def inject_high_noise(
    trace: Trace,
    device_id: str,
    onset: float,
    rng: np.random.Generator,
    report_period: float = 30.0,
) -> Trace:
    """Noise/variance far beyond the expected degree from *onset* on.

    Existing readings are perturbed and the device additionally chatters at
    ``report_period`` with high-variance values (binary: random flicker).
    """
    device = trace.registry[device_id]
    if device.is_binary:
        slots = np.arange(onset, trace.end, report_period)
        fire = rng.random(len(slots)) < 0.5
        return _add_events(
            trace, device_id, slots[fire], np.ones(int(fire.sum()))
        )
    scale = _scale_of(trace, device_id)
    sigma = 0.8 * scale.span
    mask = trace.device_mask(device_id) & (trace.timestamps >= onset)
    values = trace.values.copy()
    values[mask] += rng.normal(0.0, sigma, size=int(mask.sum()))
    noisy = trace.replace_arrays(trace.timestamps, trace.device_indices, values)
    chatter_t = np.arange(onset, trace.end, report_period)
    chatter_v = scale.low + scale.span / 2.0 + rng.normal(
        0.0, sigma, size=len(chatter_t)
    )
    return _add_events(noisy, device_id, chatter_t, chatter_v)


def inject_spike(
    trace: Trace,
    device_id: str,
    onset: float,
    rng: np.random.Generator,
    burst_seconds: float = 240.0,
    sample_period: float = 10.0,
) -> Trace:
    """A short burst of readings far above the expected value."""
    device = trace.registry[device_id]
    end = min(onset + burst_seconds, trace.end)
    times = np.arange(onset, end, sample_period)
    if len(times) == 0:
        times = np.array([onset])
    if device.is_binary:
        values = np.ones(len(times))
    else:
        scale = _scale_of(trace, device_id)
        # Triangular spike shape: climbs fast, falls back.
        frac = np.linspace(0.0, 1.0, len(times))
        shape = 1.0 - np.abs(2.0 * frac - 1.0)
        values = scale.high + scale.span * (1.0 + 2.0 * shape)
    return _add_events(trace, device_id, times, values)


def apply_fault(
    trace: Trace,
    fault: InjectedFault,
    rng: np.random.Generator,
) -> Trace:
    """Dispatch on the fault type; returns the perturbed trace."""
    if fault.device_id not in trace.registry:
        raise KeyError(f"unknown device {fault.device_id!r}")
    if not trace.start <= fault.onset < trace.end:
        raise ValueError("fault onset must fall inside the trace interval")
    if fault.fault_type is FaultType.FAIL_STOP:
        return inject_fail_stop(trace, fault.device_id, fault.onset)
    if fault.fault_type is FaultType.STUCK_AT:
        return inject_stuck_at(trace, fault.device_id, fault.onset, rng)
    if fault.fault_type is FaultType.OUTLIER:
        return inject_outlier(trace, fault.device_id, fault.onset, rng)
    if fault.fault_type is FaultType.HIGH_NOISE:
        return inject_high_noise(trace, fault.device_id, fault.onset, rng)
    if fault.fault_type is FaultType.SPIKE:
        return inject_spike(trace, fault.device_id, fault.onset, rng)
    raise ValueError(f"unhandled fault type {fault.fault_type}")
