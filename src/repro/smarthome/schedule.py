"""Daily routines → concrete activity schedules.

A :class:`DailyRoutine` is an ordered template of activities with nominal
clock times.  Instantiating it for a given day applies seeded jitter to the
start times and durations and occasionally skips optional entries — days
come out similar (so groups and transitions repeat and can be learned) but
never identical (so the context model generalises rather than memorises).

This mirrors the thesis experiment design: the five volunteers replayed the
activity sequences of the third-party datasets "without any designated
place or time limit", i.e. the sequence is fixed, the timing is human.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .activities import ActivityCatalog, ActivityInstance, ActivitySpec

DAY_SECONDS = 24 * 3600.0


@dataclass(frozen=True)
class RoutineEntry:
    """One slot of a daily routine.

    ``start_minute`` is the nominal minute-of-day (0-1439); jitter is the
    standard deviation of the human variation around it.
    """

    activity: str
    start_minute: float
    jitter_minutes: float = 15.0
    skip_probability: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.start_minute < 24 * 60:
            raise ValueError("start_minute must fall within the day")
        if self.jitter_minutes < 0:
            raise ValueError("jitter must be non-negative")
        if not 0.0 <= self.skip_probability < 1.0:
            raise ValueError("skip probability must be in [0, 1)")


class DailyRoutine:
    """A resident's template day."""

    def __init__(self, entries: Sequence[RoutineEntry]) -> None:
        self.entries = list(entries)
        if not self.entries:
            raise ValueError("a routine needs at least one entry")

    @property
    def activity_names(self) -> List[str]:
        """Distinct activities the routine exercises, in first-use order."""
        seen: dict = {}
        for entry in self.entries:
            seen.setdefault(entry.activity, None)
        return list(seen)

    def draw_days(
        self, days: int, catalog: ActivityCatalog, rng: np.random.Generator
    ) -> List[Tuple[float, float, ActivitySpec]]:
        """``(start, end, spec)`` draws in seconds for days ``0 .. days-1``
        (unclipped; may overrun midnight).  Each entry of each day draws,
        in order: its skip coin (if it is optional), its start jitter, its
        duration."""
        plan = [
            (
                entry.skip_probability,
                entry.jitter_minutes,
                entry.start_minute,
                catalog[entry.activity],
            )
            for entry in self.entries
        ]
        draws: List[Tuple[float, float, ActivitySpec]] = []
        for day in range(days):
            day_start = day * DAY_SECONDS
            for skip, jitter, start_minute, spec in plan:
                if skip and rng.random() < skip:
                    continue
                # Truncated-normal jitter: humans are late or early, but the
                # *ordering* of a routine is stable.  Unbounded tails would
                # make arbitrary activity pairs adjacent once in a blue
                # moon, which no amount of training data could cover.
                offset = min(max(rng.normal(0.0, jitter), -2.0 * jitter), 2.0 * jitter)
                start = day_start + max(0.0, start_minute + offset) * 60.0
                # rng.uniform(lo, hi) is lo + (hi - lo) * rng.random(),
                # spelled out: the scalar call costs four times the draw.
                lo, hi = spec.duration_minutes
                duration = (lo + (hi - lo) * rng.random()) * 60.0
                draws.append((start, start + duration, spec))
        return draws


def build_schedule(
    routine: DailyRoutine,
    catalog: ActivityCatalog,
    horizon: float,
    rng: np.random.Generator,
    resident: int = 0,
) -> List[ActivityInstance]:
    """Instantiate *routine* for every day up to *horizon* seconds.

    A resident does one thing at a time: overlapping instances are resolved
    by clipping each activity at the start of the next one, and everything
    is clipped to the horizon.  Presence persists until the next kept
    activity begins.
    """
    raw = routine.draw_days(int(np.ceil(horizon / DAY_SECONDS)), catalog, rng)
    raw.sort(key=itemgetter(0))
    kept: List[Tuple[float, float, ActivitySpec]] = []
    for i, (start, end, spec) in enumerate(raw):
        if i + 1 < len(raw):
            end = min(end, raw[i + 1][0])
        # Minute-granular timeline (CASAS-style annotation granularity):
        # activity boundaries land on the window grid, so a hand-over always
        # produces the same window-level footprint instead of a phase-split
        # variant that training data can never fully cover.
        start = round(start / 60.0) * 60.0
        end = min(round(end / 60.0) * 60.0, horizon)
        if start < end and start < horizon:
            kept.append((start, end, spec))
    # Rounding is monotone, so each kept end is at most the next kept
    # start: presence never ends before the activity does.
    presence_ends = [start for start, _end, _spec in kept[1:]] + [0.0]
    return [
        ActivityInstance(spec, start, end, resident, presence_end)
        for (start, end, spec), presence_end in zip(kept, presence_ends)
    ]


def occupancy_intervals(
    schedule: Iterable[ActivityInstance],
) -> dict:
    """Merge a schedule into per-room occupancy spans.

    Returns ``{room: [(start, end), ...]}`` with overlapping spans (e.g.
    two residents in one room) merged.  Away activities contribute nothing.
    """
    by_room: dict = {}
    for inst in schedule:
        if inst.spec.away:
            continue
        by_room.setdefault(inst.room, []).append((inst.start, inst.presence_end))
    merged: dict = {}
    for room, spans in by_room.items():
        spans.sort()
        out: List[tuple] = []
        for start, end in spans:
            if out and start <= out[-1][1]:
                out[-1] = (out[-1][0], max(out[-1][1], end))
            else:
                out.append((start, end))
        merged[room] = out
    return merged
