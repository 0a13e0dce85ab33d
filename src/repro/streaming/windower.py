"""Online windowing: event-at-a-time state-set construction.

The batch encoder (:mod:`repro.core.encoding`) vectorises over a whole
trace; a gateway deployment instead sees one event at a time.  The
:class:`OnlineWindower` accumulates events into the current window and
emits a finished :class:`WindowSnapshot` — the same bitmask the batch
encoder would produce — every time the clock crosses a window boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Tuple

from ..core.encoding import BitLayout, StateSetEncoder
from ..model import DeviceKind, Event


@dataclass(frozen=True)
class WindowSnapshot:
    """One completed window."""

    index: int
    start: float
    end: float
    mask: int
    actuator_activations: FrozenSet[str]
    #: The mean reading of each numeric sensor that reported in the window.
    means: Mapping[str, float]


class _NumericAccumulator:
    """Streaming stats for one numeric sensor within one window."""

    __slots__ = ("count", "s1", "s2", "s3", "first", "last")

    def __init__(self) -> None:
        self.count = 0
        self.s1 = self.s2 = self.s3 = 0.0
        self.first = 0.0
        self.last = 0.0

    def add(self, value: float) -> None:
        if self.count == 0:
            self.first = value
        self.last = value
        self.count += 1
        self.s1 += value
        self.s2 += value * value
        self.s3 += value * value * value

    def bits(self, threshold: float) -> Tuple[bool, bool, bool]:
        """(skew, trend, mean) per Eqs. 3.2-3.4."""
        if self.count == 0:
            return False, False, False
        if self.count == 1:
            # A single sample has no spread or direction: skewness and trend
            # are undefined and must read False by construction rather than
            # by hoping the float cancellation in s2/count - mean^2 lands at
            # exactly zero; only the mean bit is meaningful.
            return False, False, self.s1 > threshold
        mean = self.s1 / self.count
        variance = self.s2 / self.count - mean * mean
        # mu^3 as explicit multiplies, mirroring the batch encoder op for
        # op: pow() can differ from the multiply chain in the last ulp,
        # which the cancellation in m3 then amplifies past the threshold.
        m3 = (
            self.s3
            - 3.0 * mean * self.s2
            + 2.0 * self.count * (mean * mean * mean)
        ) / self.count
        skew = m3 > 1e-12 and variance > 1e-12
        trend = self.last - self.first > 0
        above = mean > threshold
        return skew, trend, above

    def state_dict(self) -> list:
        return [self.count, self.s1, self.s2, self.s3, self.first, self.last]

    @classmethod
    def from_state_dict(cls, state: list) -> "_NumericAccumulator":
        acc = cls()
        acc.count = int(state[0])
        acc.s1, acc.s2, acc.s3 = float(state[1]), float(state[2]), float(state[3])
        acc.first, acc.last = float(state[4]), float(state[5])
        return acc


class OnlineWindower:
    """Feeds on events, yields completed windows.

    Events must arrive in (approximately) non-decreasing time order; a
    late event belonging to an already-emitted window raises ``ValueError``
    rather than silently corrupting history.
    """

    def __init__(self, encoder: StateSetEncoder, start: float = 0.0) -> None:
        if not encoder.is_fitted:
            raise ValueError("encoder must be fitted before streaming")
        self.encoder = encoder
        self.layout: BitLayout = encoder.layout
        self.window_seconds = encoder.window_seconds
        self.start = float(start)
        self._index = 0
        self._binary_mask = 0
        self._numeric: Dict[str, _NumericAccumulator] = {}
        self._actuators: set = set()

    # ------------------------------------------------------------------ #

    @property
    def current_window_start(self) -> float:
        return self.start + self._index * self.window_seconds

    @property
    def current_window_end(self) -> float:
        return self.current_window_start + self.window_seconds

    def push(self, event: Event) -> List[WindowSnapshot]:
        """Add one event; returns any windows completed by its arrival."""
        emitted = self.advance_to(event.timestamp)
        if event.timestamp < self.current_window_start:
            raise ValueError(
                f"event at {event.timestamp} precedes the current window "
                f"starting {self.current_window_start}"
            )
        self._absorb(event)
        return emitted

    def advance_to(self, timestamp: float) -> List[WindowSnapshot]:
        """Close every window ending at or before *timestamp*."""
        emitted: List[WindowSnapshot] = []
        while timestamp >= self.current_window_end:
            emitted.append(self._close_window())
        return emitted

    def flush(self) -> WindowSnapshot:
        """Force-close the current (possibly partial) window."""
        return self._close_window()

    # ------------------------------------------------------------------ #

    def _absorb(self, event: Event) -> None:
        device = self.encoder.registry.get(event.device_id)
        if device is None:
            raise KeyError(f"unknown device {event.device_id!r}")
        if device.kind is DeviceKind.ACTUATOR:
            if event.value > 0:
                self._actuators.add(event.device_id)
        elif device.kind is DeviceKind.BINARY_SENSOR:
            if event.value > 0:
                bit = self.layout.bits_of_device(event.device_id)[0]
                self._binary_mask |= 1 << bit
        else:
            acc = self._numeric.setdefault(event.device_id, _NumericAccumulator())
            acc.add(event.value)

    def _close_window(self) -> WindowSnapshot:
        mask = self._binary_mask
        for device_id, acc in self._numeric.items():
            skew_bit, trend_bit, mean_bit = self.layout.bits_of_device(device_id)
            threshold = self.encoder.value_threshold(device_id)
            skew, trend, above = acc.bits(threshold)
            if skew:
                mask |= 1 << skew_bit
            if trend:
                mask |= 1 << trend_bit
            if above:
                mask |= 1 << mean_bit
        snapshot = WindowSnapshot(
            index=self._index,
            start=self.current_window_start,
            end=self.current_window_end,
            mask=mask,
            actuator_activations=frozenset(self._actuators),
            means={
                device_id: acc.s1 / acc.count
                for device_id, acc in self._numeric.items()
            },
        )
        self._index += 1
        self._binary_mask = 0
        self._numeric.clear()
        self._actuators.clear()
        return snapshot

    # ------------------------------------------------------------------ #
    # Checkpoint support
    # ------------------------------------------------------------------ #

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of the in-flight window state."""
        return {
            "start": self.start,
            "index": self._index,
            "binary_mask": self._binary_mask,
            "numeric": {
                device_id: acc.state_dict()
                for device_id, acc in sorted(self._numeric.items())
            },
            "actuators": sorted(self._actuators),
        }

    def load_state(self, state: dict) -> None:
        """Restore the in-flight window state captured by :meth:`state_dict`."""
        self.start = float(state["start"])
        self._index = int(state["index"])
        self._binary_mask = int(state["binary_mask"])
        self._numeric = {
            device_id: _NumericAccumulator.from_state_dict(acc)
            for device_id, acc in state["numeric"].items()
        }
        self._actuators = set(state["actuators"])
