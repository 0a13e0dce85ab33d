"""Floor plans: rooms, adjacency, and device placement helpers.

The POSTECH testbed floor plan (Fig. 4.1) has a kitchen, bathroom, bedroom
and living room (one beacon each) plus an entrance; the ISLA/WSU homes vary.
Floor plans matter to the simulator for two things: resolving which devices
an activity in a room touches, and (for location/beacon sensors) which
beacon the resident's phone hears.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple


@dataclass(frozen=True)
class Room:
    """A named room."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("room name must be non-empty")


class FloorPlan:
    """Rooms plus an undirected adjacency relation (doorways)."""

    def __init__(
        self,
        rooms: Iterable[str],
        doorways: Iterable[Tuple[str, str]] = (),
    ) -> None:
        self._rooms: List[Room] = [Room(name) for name in rooms]
        names = {room.name for room in self._rooms}
        if len(names) != len(self._rooms):
            raise ValueError("duplicate room names")
        self._adjacent: Dict[str, Set[str]] = {room.name: set() for room in self._rooms}
        for a, b in doorways:
            self.connect(a, b)

    def __contains__(self, name: str) -> bool:
        return name in self._adjacent

    def __len__(self) -> int:
        return len(self._rooms)

    def connect(self, a: str, b: str) -> None:
        """Add a doorway between two rooms."""
        for name in (a, b):
            if name not in self._adjacent:
                raise KeyError(f"unknown room: {name!r}")
        if a == b:
            raise ValueError("a room cannot adjoin itself")
        self._adjacent[a].add(b)
        self._adjacent[b].add(a)

    def neighbours(self, name: str) -> FrozenSet[str]:
        return frozenset(self._adjacent[name])

    def are_adjacent(self, a: str, b: str) -> bool:
        return b in self._adjacent[a]


def postech_floorplan() -> FloorPlan:
    """The Fig. 4.1 deployment: four beacon rooms plus an entrance hall."""
    return FloorPlan(
        rooms=["kitchen", "bathroom", "bedroom", "living_room", "entrance"],
        doorways=[
            ("entrance", "living_room"),
            ("living_room", "kitchen"),
            ("living_room", "bedroom"),
            ("living_room", "bathroom"),
        ],
    )


def single_floor_apartment(extra_rooms: Iterable[str] = ()) -> FloorPlan:
    """Generic apartment used for the ISLA houses (hallway-centric)."""
    rooms = ["hall", "kitchen", "bathroom", "bedroom", "living_room"]
    rooms += [r for r in extra_rooms if r not in rooms]
    doorways = [("hall", r) for r in rooms if r != "hall"]
    return FloorPlan(rooms, doorways)
