"""The routine scheduler against the instance-per-draw loop it replaced.

``loop_instantiate_day`` and ``loop_build_schedule`` are the former
production code, kept verbatim as an oracle: one ``ActivityInstance`` per
draw with a ``np.clip`` per jitter and an ``rng.uniform`` per duration, a
second, clipped instance per kept entry, and ``presence_end`` patched in
afterwards.  :func:`~repro.smarthome.build_schedule` builds one instance
per kept entry and must produce equal instances (``presence_end``
included) from the same draws, leaving the generator in the same state.
"""

from typing import List

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smarthome import (
    ActivityCatalog,
    ActivitySpec,
    DailyRoutine,
    RoutineEntry,
    build_schedule,
)
from repro.smarthome.activities import ActivityInstance
from repro.smarthome.schedule import DAY_SECONDS


def loop_instantiate_day(
    self: DailyRoutine,
    day_index: int,
    catalog: ActivityCatalog,
    rng: np.random.Generator,
    resident: int = 0,
) -> List[ActivityInstance]:
    """Activity instances for one day (unclipped; may overrun midnight)."""
    day_start = day_index * DAY_SECONDS
    instances: List[ActivityInstance] = []
    for entry in self.entries:
        if entry.skip_probability and rng.random() < entry.skip_probability:
            continue
        spec = catalog[entry.activity]
        # Truncated-normal jitter: humans are late or early, but the
        # *ordering* of a routine is stable.  Unbounded tails would make
        # arbitrary activity pairs adjacent once in a blue moon, which
        # no amount of training data could cover.
        offset = float(
            np.clip(
                rng.normal(0.0, entry.jitter_minutes),
                -2.0 * entry.jitter_minutes,
                2.0 * entry.jitter_minutes,
            )
        )
        start_min = entry.start_minute + offset
        start = day_start + max(0.0, start_min) * 60.0
        lo, hi = spec.duration_minutes
        duration = rng.uniform(lo, hi) * 60.0
        instances.append(
            ActivityInstance(spec, start, start + duration, resident)
        )
    return instances


def loop_build_schedule(
    routine: DailyRoutine,
    catalog: ActivityCatalog,
    horizon: float,
    rng: np.random.Generator,
    resident: int = 0,
) -> List[ActivityInstance]:
    """Instantiate *routine* for every day up to *horizon* seconds.

    A resident does one thing at a time: overlapping instances are resolved
    by clipping each activity at the start of the next one, and everything
    is clipped to the horizon.
    """
    days = int(np.ceil(horizon / DAY_SECONDS))
    raw: List[ActivityInstance] = []
    for day in range(days):
        raw.extend(loop_instantiate_day(routine, day, catalog, rng, resident))
    raw.sort(key=lambda inst: inst.start)
    schedule: List[ActivityInstance] = []
    for i, inst in enumerate(raw):
        end = inst.end
        if i + 1 < len(raw):
            end = min(end, raw[i + 1].start)
        # Minute-granular timeline (CASAS-style annotation granularity):
        # activity boundaries land on the window grid, so a hand-over always
        # produces the same window-level footprint instead of a phase-split
        # variant that training data can never fully cover.
        start = round(inst.start / 60.0) * 60.0
        end = round(end / 60.0) * 60.0
        end = min(end, horizon)
        if end <= start:
            continue
        if start < horizon:
            schedule.append(ActivityInstance(inst.spec, start, end, resident))
    # Presence persists until the next activity begins (same resident).
    for i in range(len(schedule) - 1):
        object.__setattr__(
            schedule[i], "presence_end", schedule[i + 1].start
        )
    return schedule


def _fields(schedule):
    """Each instance's fields with their types: a numpy float equals a
    Python float but hashes into contexts and serialises differently."""
    return [
        (
            inst.spec.name,
            inst.resident,
            *((type(v).__name__, v) for v in (inst.start, inst.end, inst.presence_end)),
        )
        for inst in schedule
    ]


@settings(max_examples=150, deadline=None)
@given(
    n_entries=st.integers(1, 8),
    n_specs=st.integers(1, 4),
    jitter=st.sampled_from([0.0, 3.0, 15.0, 90.0]),
    skip=st.sampled_from([0.0, 0.3, 0.9]),
    horizon=st.floats(60.0, 5.5 * DAY_SECONDS),
    resident=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_schedule_matches_the_loop(
    n_entries, n_specs, jitter, skip, horizon, resident, seed
):
    rng = np.random.default_rng(seed)
    catalog = ActivityCatalog(
        ActivitySpec(
            f"a{k}",
            "room",
            (float(lo), float(lo + rng.integers(0, 200))),
        )
        for k, lo in enumerate(rng.integers(1, 300, n_specs))
    )
    # Entries may share a start minute, overlap and overrun midnight.
    routine = DailyRoutine(
        [
            RoutineEntry(
                f"a{rng.integers(n_specs)}",
                float(rng.choice([0.0, 5.0, 1439.5, rng.uniform(0, 1440)])),
                jitter,
                skip * float(rng.integers(0, 2)),
            )
            for _ in range(n_entries)
        ]
    )
    fast_rng = np.random.default_rng(seed + 1)
    loop_rng = np.random.default_rng(seed + 1)
    fast = build_schedule(routine, catalog, horizon, fast_rng, resident)
    loop = loop_build_schedule(routine, catalog, horizon, loop_rng, resident)
    assert fast == loop
    assert _fields(fast) == _fields(loop)
    assert fast_rng.bit_generator.state == loop_rng.bit_generator.state
