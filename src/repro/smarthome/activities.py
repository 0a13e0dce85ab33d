"""Activity model: what a resident's action does to the deployment.

An :class:`ActivitySpec` describes one activity of daily living — its room,
typical duration, and footprint on the home's devices: which binary sensors
it fires (a fridge door, a flush) and which numeric sensors it shifts
(cooking heats the kitchen, a shower humidifies the bathroom).

Occupancy footprints (motion sensors, beacon RSSI, ultrasonic proximity in
the activity's room) are *not* listed per activity; the simulator derives
them from the floor plan so every activity in a room automatically touches
that room's presence sensors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from .effects import BinaryTrigger


@dataclass(frozen=True)
class NumericEffect:
    """An additive level shift on one numeric sensor while active."""

    device_id: str
    delta: float


@dataclass(frozen=True)
class ActivitySpec:
    """One activity of daily living.

    Parameters
    ----------
    name:
        Activity label (also the routine key), e.g. ``"prepare_dinner"``.
    room:
        Where it happens; drives the derived occupancy footprint.
    duration_minutes:
        ``(low, high)`` uniform range for the activity's length.
    binary_triggers / numeric_effects:
        Activity-specific device footprint beyond plain occupancy.
    away:
        True for out-of-home spans (no occupancy footprint at all).
    still:
        True for motionless presence (sleep, nap): the resident is in the
        room — beacons still hear the phone — but motion and proximity
        sensors stay quiet.
    """

    name: str
    room: str
    duration_minutes: Tuple[float, float]
    binary_triggers: Tuple[BinaryTrigger, ...] = ()
    numeric_effects: Tuple[NumericEffect, ...] = ()
    away: bool = False
    still: bool = False
    #: Canonical label for dataset statistics: per-resident aliases of one
    #: activity ("sleeping_r1"/"sleeping_r2") share a canonical name
    #: ("sleeping") and count once in Table 4.1's activity column.
    canonical: str = ""

    def __post_init__(self) -> None:
        lo, hi = self.duration_minutes
        if lo <= 0 or hi < lo:
            raise ValueError(
                f"invalid duration range {self.duration_minutes} for {self.name!r}"
            )


@dataclass(frozen=True)
class ActivityInstance:
    """One occurrence of an activity on the timeline (seconds).

    ``end`` bounds the activity's device footprint (its triggers and
    numeric effects); ``presence_end`` bounds the resident's *presence* in
    the room, which runs on until the next activity starts — people do not
    vanish between annotated activities, they putter about where they are.
    """

    spec: ActivitySpec
    start: float
    end: float
    resident: int = 0
    presence_end: float = 0.0

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("activity instance must have positive length")
        if self.presence_end < self.end:
            object.__setattr__(self, "presence_end", self.end)

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def room(self) -> str:
        return self.spec.room


class ActivityCatalog:
    """Named collection of the activities one deployment supports."""

    def __init__(self, specs: Iterable[ActivitySpec] = ()) -> None:
        self._specs: Dict[str, ActivitySpec] = {}
        for spec in specs:
            self.add(spec)

    def add(self, spec: ActivitySpec) -> None:
        if spec.name in self._specs:
            raise ValueError(f"duplicate activity: {spec.name!r}")
        self._specs[spec.name] = spec

    def __getitem__(self, name: str) -> ActivitySpec:
        return self._specs[name]

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self):
        return iter(self._specs.values())

    @property
    def names(self) -> List[str]:
        return list(self._specs)
