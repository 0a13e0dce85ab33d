"""Deterministic inputs of the two served workloads, built from the seed.

The benchmark process (load generator and oracle) and the server process
both call into this module, so a seed names one set of homes, one set of
trained detectors and one arrival sequence per home.  The server only
takes what ``repro serve`` takes — generated homes, fitted detectors —
and receives the live events over the wire.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

SERVE_DURABLE = "serve-durable"
SERVE_FAULTS = "serve-faults"
PAPER_EVAL = "paper-eval"
WORKLOADS = (SERVE_DURABLE, SERVE_FAULTS, PAPER_EVAL)

#: ``repro serve --lateness`` default: the per-home reorder budget.
LATENESS_S = 120.0
#: Ch. V: precomputation period and segment length.
TRAIN_HOURS_TESTBED = 300.0
SEGMENT_S = 6 * 3600.0
#: Pipe faults on serve-faults: copies and jitter stay inside the lateness
#: budget, so no event arrives too late to be reordered.
PIPE_DELAY_S = 60.0
PIPE_DUPLICATE_RATE = 0.02
PIPE_CORRUPT_RATE = 0.01


@dataclass(frozen=True)
class ServeSpec:
    """One served workload: journal policy, homes and phase sizes.

    Phase sizes scale with the run length (``--seconds``): an open phase
    lasts ``share * seconds`` at ``offered_rate``; a saturating phase
    sends ``share * seconds * saturate_rate`` events as fast as the
    server takes them, in :data:`SATURATE_CHUNKS` chunks each closed by
    ``sync`` (the reported rate is the median chunk's); a ``tail`` phase
    sends a fixed number of events.
    """

    fsync: str
    #: Mean offered rate of the open-loop phase, events/s.
    offered_rate: float
    #: Expected saturated rate, used only to size the saturating phase.
    saturate_rate: float
    #: ``(kind, share of --seconds or event count)`` in run order.
    phases: Tuple[Tuple[str, float], ...]
    live_hours: float


#: A saturating phase is timed as this many back-to-back chunks.
SATURATE_CHUNKS = 6

SPECS: Dict[str, ServeSpec] = {
    SERVE_DURABLE: ServeSpec(
        fsync="always",
        offered_rate=2000.0,
        saturate_rate=4000.0,
        phases=(("open", 0.6), ("saturate", 0.2), ("tail", 1500)),
        live_hours=500.0,
    ),
    SERVE_FAULTS: ServeSpec(
        fsync="never",
        offered_rate=6000.0,
        saturate_rate=12000.0,
        phases=(("saturate", 0.2), ("open", 0.2)),
        live_hours=400.0,
    ),
}


@dataclass
class ServedHome:
    """One home as the server hosts it and the generator replays it."""

    home_id: str
    registry: object
    training: object  # Trace
    start: float  # first live instant (the train/live split)
    #: Live events in arrival order (the generator's send order).
    stream: List = None
    #: Arrival clock in event time: running maximum of stream timestamps.
    arrival: List[float] = None


def _isla_homes(seed: int, hours: float, with_streams: bool) -> List[ServedHome]:
    from repro.fleet import build_fleet_homes

    homes = build_fleet_homes(2, seed=seed, hours=hours, train_hours=36.0)
    out = []
    for home in homes:
        served = ServedHome(
            home.home_id, home.trace.registry, home.training, home.split
        )
        if with_streams:
            served.stream = list(home.live)
        out.append(served)
    return out


def _faulted_live(trace, split: float, rng: np.random.Generator) -> List:
    """The live stream with one device fault in every other 6 h segment.

    Fault classes cycle through :data:`repro.faults.ALL_FAULT_TYPES`;
    every other fault targets an actuator (the G2A/A2G path).  A segment
    where no candidate device reports is left clean.
    """
    from repro.faults import ALL_FAULT_TYPES, FaultInjector

    injector = FaultInjector(rng)
    actuators = trace.registry.actuators()
    events: List = []
    faults = 0
    t = split
    index = 0
    while t < trace.end:
        segment = trace.slice(t, min(t + SEGMENT_S, trace.end))
        if index % 2 == 1 and len(segment):
            try:
                segment, _ = injector.inject(
                    segment,
                    devices=actuators if faults % 2 else None,
                    fault_type=ALL_FAULT_TYPES[faults % len(ALL_FAULT_TYPES)],
                )
                faults += 1
            except ValueError:  # no candidate device reports in this segment
                pass
        events.extend(segment)
        t += SEGMENT_S
        index += 1
    return events


def _testbed_homes(seed: int, hours: float, with_streams: bool) -> List[ServedHome]:
    from repro.datasets import load_dataset
    from repro.faults import PipeFaultInjector, PipeFaultSpec, PipeFaultType

    out = []
    for index, name in enumerate(("D_houseA", "D_houseB")):
        trace = load_dataset(name, seed=seed, hours=TRAIN_HOURS_TESTBED + hours).trace
        split = trace.start + TRAIN_HOURS_TESTBED * 3600.0
        served = ServedHome(name, trace.registry, trace.slice(trace.start, split), split)
        if with_streams:
            rng = np.random.default_rng([seed, index])
            live = _faulted_live(trace, split, rng)
            pipe = PipeFaultInjector(
                rng,
                [
                    PipeFaultSpec(
                        PipeFaultType.DUPLICATE,
                        rate=PIPE_DUPLICATE_RATE,
                        max_delay_seconds=PIPE_DELAY_S,
                    ),
                    PipeFaultSpec(
                        PipeFaultType.REORDER, max_delay_seconds=PIPE_DELAY_S
                    ),
                    PipeFaultSpec(
                        PipeFaultType.CORRUPT_VALUE, rate=PIPE_CORRUPT_RATE
                    ),
                ],
            )
            served.stream = pipe.apply(live)
        out.append(served)
    return out


def build_homes(workload: str, seed: int, with_streams: bool) -> List[ServedHome]:
    """The workload's two homes; live streams only when *with_streams*."""
    spec = SPECS[workload]
    if workload == SERVE_DURABLE:
        homes = _isla_homes(seed, 36.0 + spec.live_hours, with_streams)
    else:
        homes = _testbed_homes(seed, spec.live_hours, with_streams)
    if with_streams:
        for home in homes:
            clock: List[float] = []
            high = float("-inf")
            for event in home.stream:
                high = max(high, event.timestamp)
                clock.append(high)
            home.arrival = clock
    return homes


def fit_detector(home: ServedHome):
    """The home's DICE detector, fitted on its training prefix with a
    registry of its own, as ``fit_fleet_detectors`` gives every home."""
    from repro import telemetry
    from repro.core import DiceDetector

    return DiceDetector(home.registry, metrics=telemetry.MetricsRegistry()).fit(
        home.training
    )


@dataclass
class Phase:
    kind: str  # "open", "saturate" or "tail"
    #: Per-home ``(lo, hi)`` stream index range.
    ranges: Dict[str, Tuple[int, int]]


def plan_phases(
    workload: str, homes: Sequence[ServedHome], seconds: float
) -> Tuple[List[Phase], float]:
    """Cut the merged arrival sequence into the workload's phases.

    Returns the phases and the stream end time (the arrival clock of the
    last event sent), which every home's ``end`` frame carries.  Each
    home's streams are truncated to the planned events.
    """
    spec = SPECS[workload]
    kinds: List[str] = []
    counts: List[int] = []
    for kind, size in spec.phases:
        if kind == "open":
            kinds.append(kind)
            counts.append(int(round(spec.offered_rate * size * seconds)))
        elif kind == "saturate":
            chunk = int(round(spec.saturate_rate * size * seconds / SATURATE_CHUNKS))
            kinds += [kind] * SATURATE_CHUNKS
            counts += [chunk] * SATURATE_CHUNKS
        else:
            kinds.append(kind)
            counts.append(int(size))
    merged = sorted(
        (clock, h, i)
        for h, home in enumerate(homes)
        for i, clock in enumerate(home.arrival)
    )
    total = sum(counts)
    if total > len(merged):
        raise RuntimeError(
            f"{workload}: seed yields {len(merged)} live events, "
            f"the phases need {total}"
        )
    end_time = merged[total - 1][0]
    phases: List[Phase] = []
    taken = [0] * len(homes)
    position = 0
    for kind, count in zip(kinds, counts):
        lo = list(taken)
        for _clock, h, _i in merged[position:position + count]:
            taken[h] += 1
        position += count
        phases.append(
            Phase(
                kind,
                {
                    home.home_id: (lo[h], taken[h])
                    for h, home in enumerate(homes)
                },
            )
        )
    for h, home in enumerate(homes):
        del home.stream[taken[h]:]
        del home.arrival[taken[h]:]
    return phases, end_time


def open_schedule(
    homes: Sequence[ServedHome], phase: Phase, rate: float
) -> List[Tuple[float, int, int]]:
    """``(offset_s, home_index, stream_index)`` of an open phase, in send
    order.  Event time is replayed at one fixed speed-up chosen so the
    phase's mean offered rate is *rate*; bursts in the traces are kept."""
    items = []
    for h, home in enumerate(homes):
        lo, hi = phase.ranges[home.home_id]
        for i in range(lo, hi):
            items.append((home.arrival[i], h, i))
    items.sort()
    if not items:
        return []
    first = items[0][0]
    span = items[-1][0] - first
    duration = len(items) / rate
    scale = duration / span if span > 0 else 0.0
    return [((clock - first) * scale, h, i) for clock, h, i in items]
