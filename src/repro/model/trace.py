"""Array-backed event traces.

A :class:`Trace` is the unit of data every part of the system exchanges: the
simulator produces one, the fault injector perturbs one, and DICE consumes
one.  Traces hold three parallel numpy arrays (timestamps, device indices,
values) sorted by time, which keeps multi-million-event datasets (hh102 spans
1488 hours with 112 sensors) cheap to window, slice and transform.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .devices import Device, DeviceRegistry
from .events import Event


class Trace:
    """A time-sorted sequence of device events over one deployment.

    Parameters
    ----------
    registry:
        The deployment's devices.  Every event must reference a registered
        device.
    timestamps, device_indices, values:
        Parallel arrays describing the events.  ``device_indices`` are
        indices into *registry*.  The constructor sorts by time (stable), so
        callers may pass unsorted data.  Sorted arrays of the right dtypes
        are kept as given, not copied.
    start, end:
        Observation interval in seconds.  Defaults to ``[0, last event]``.
        Keeping the interval explicit matters because an interval with no
        events is still observation time (e.g. after a fail-stop fault).
    """

    def __init__(
        self,
        registry: DeviceRegistry,
        timestamps: np.ndarray,
        device_indices: np.ndarray,
        values: np.ndarray,
        start: float = 0.0,
        end: Optional[float] = None,
    ) -> None:
        timestamps = np.asarray(timestamps, dtype=np.float64)
        device_indices = np.asarray(device_indices, dtype=np.int32)
        values = np.asarray(values, dtype=np.float64)
        if not (timestamps.shape == device_indices.shape == values.shape):
            raise ValueError("timestamps, device_indices, values must align")
        if timestamps.ndim != 1:
            raise ValueError("event arrays must be one-dimensional")
        if len(device_indices) and (
            device_indices.min() < 0 or device_indices.max() >= len(registry)
        ):
            raise ValueError("device index out of range for registry")
        # One neighbour comparison (a 1 B/event temporary) tells sorted
        # input apart; only unsorted input, or input with NaN, pays for the
        # argsort.  A stable sort leaves sorted input as it is, so the
        # arrays hold the same bytes either way.
        if not np.all(timestamps[1:] >= timestamps[:-1]):
            order = np.argsort(timestamps, kind="stable")
            timestamps = timestamps[order]
            device_indices = device_indices[order]
            values = values[order]
        self.registry = registry
        self.timestamps = timestamps
        self.device_indices = device_indices
        self.values = values
        self.start = float(start)
        if end is None:
            end = float(timestamps[-1]) if len(timestamps) else self.start
        self.end = float(end)
        if self.end < self.start:
            raise ValueError(f"end ({end}) precedes start ({start})")
        if len(timestamps) and (
            timestamps[0] < self.start - 1e-9 or timestamps[-1] > self.end + 1e-9
        ):
            raise ValueError("events fall outside the [start, end] interval")

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def empty(
        cls, registry: DeviceRegistry, start: float = 0.0, end: float = 0.0
    ) -> "Trace":
        z = np.empty(0)
        return cls(registry, z, z.copy(), z.copy(), start=start, end=end)

    @classmethod
    def from_events(
        cls,
        registry: DeviceRegistry,
        events: Iterable[Event],
        start: float = 0.0,
        end: Optional[float] = None,
    ) -> "Trace":
        """Build a trace from :class:`~repro.model.events.Event` objects."""
        events = sorted(events)
        n = len(events)
        timestamps = np.empty(n, dtype=np.float64)
        indices = np.empty(n, dtype=np.int32)
        values = np.empty(n, dtype=np.float64)
        for i, event in enumerate(events):
            timestamps[i] = event.timestamp
            indices[i] = registry.index_of(event.device_id)
            values[i] = event.value
        return cls(registry, timestamps, indices, values, start=start, end=end)

    @classmethod
    def concatenate(cls, parts: Sequence["Trace"]) -> "Trace":
        """Concatenate traces that share one registry.

        The result spans from the earliest ``start`` to the latest ``end``.
        """
        if not parts:
            raise ValueError("need at least one trace")
        registry = parts[0].registry
        for part in parts[1:]:
            if part.registry is not registry:
                raise ValueError("all parts must share one DeviceRegistry")
        return cls(
            registry,
            np.concatenate([p.timestamps for p in parts]),
            np.concatenate([p.device_indices for p in parts]),
            np.concatenate([p.values for p in parts]),
            start=min(p.start for p in parts),
            end=max(p.end for p in parts),
        )

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def duration(self) -> float:
        """Observation span in seconds."""
        return self.end - self.start

    @property
    def duration_hours(self) -> float:
        return self.duration / 3600.0

    def __iter__(self) -> Iterator[Event]:
        ids = self.registry.device_ids
        for t, d, v in zip(self.timestamps, self.device_indices, self.values):
            yield Event(float(t), ids[d], float(v))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Trace({len(self)} events, {self.duration_hours:.1f} h, "
            f"{len(self.registry)} devices)"
        )

    # ------------------------------------------------------------------ #
    # Slicing & filtering
    # ------------------------------------------------------------------ #

    def slice(self, t0: float, t1: float, rebase: bool = False) -> "Trace":
        """Events in ``[t0, t1)``.

        The slice shares this trace's arrays (numpy views), so it costs no
        memory that grows with its length, and it keeps the whole parent
        alive for as long as it lives: call :meth:`copy` on a slice that
        should outlive its parent compactly.  Nothing writes into a trace's
        arrays in place.

        With ``rebase=True``, timestamps are shifted so the slice starts at
        zero — convenient for treating evaluation segments independently.
        The shifted timestamps are a new array; device indices and values
        are still shared.
        """
        if t1 < t0:
            raise ValueError("t1 must be >= t0")
        lo = int(np.searchsorted(self.timestamps, t0, side="left"))
        hi = int(np.searchsorted(self.timestamps, t1, side="left"))
        timestamps = self.timestamps[lo:hi]
        shift = 0.0
        if rebase:
            shift = -t0
            timestamps = timestamps + shift
        return Trace(
            self.registry,
            timestamps,
            self.device_indices[lo:hi],
            self.values[lo:hi],
            start=t0 + shift,
            end=t1 + shift,
        )

    def shifted(self, delta: float) -> "Trace":
        """A copy moved by *delta* seconds."""
        return Trace(
            self.registry,
            self.timestamps + delta,
            self.device_indices,
            self.values,
            start=self.start + delta,
            end=self.end + delta,
        )

    def device_mask(self, device_id: str) -> np.ndarray:
        """Boolean mask selecting the events of one device."""
        return self.device_indices == self.registry.index_of(device_id)

    def events_for(self, device_id: str) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(timestamps, values)`` arrays for one device."""
        mask = self.device_mask(device_id)
        return self.timestamps[mask], self.values[mask]

    def without_device(self, device_id: str) -> "Trace":
        """A copy with every event of *device_id* removed.

        The device stays registered — its bits simply never activate, which
        is exactly the footprint of a fail-stop fault.
        """
        keep = ~self.device_mask(device_id)
        return self.replace_arrays(
            self.timestamps[keep], self.device_indices[keep], self.values[keep]
        )

    def replace_arrays(
        self,
        timestamps: np.ndarray,
        device_indices: np.ndarray,
        values: np.ndarray,
    ) -> "Trace":
        """A new trace over the same registry and interval with new events."""
        return Trace(
            self.registry,
            timestamps,
            device_indices,
            values,
            start=self.start,
            end=self.end,
        )

    def with_extra_events(
        self,
        timestamps: np.ndarray,
        device_indices: np.ndarray,
        values: np.ndarray,
    ) -> "Trace":
        """A new trace with additional events merged in."""
        return self.replace_arrays(
            np.concatenate([self.timestamps, np.asarray(timestamps, dtype=np.float64)]),
            np.concatenate(
                [self.device_indices, np.asarray(device_indices, dtype=np.int32)]
            ),
            np.concatenate([self.values, np.asarray(values, dtype=np.float64)]),
        )

    def copy(self) -> "Trace":
        """A trace that owns its arrays: compact, even for a slice."""
        return self.replace_arrays(
            self.timestamps.copy(), self.device_indices.copy(), self.values.copy()
        )

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #

    def event_counts(self) -> np.ndarray:
        """Events per device index."""
        return np.bincount(self.device_indices, minlength=len(self.registry))

    def active_devices(self) -> List[Device]:
        """Devices that produced at least one event."""
        counts = self.event_counts()
        return [d for i, d in enumerate(self.registry) if counts[i] > 0]
