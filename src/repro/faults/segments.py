"""Evaluation segmenting (Ch. V).

The thesis protocol: the first 300 hours of each dataset are the
precomputation data; the remaining hours are cut into six-hour segments;
every segment is evaluated twice — once as recorded (the *faultless* copy,
measuring false positives) and once as a duplicate with one injected fault
(the *faulty* copy, measuring detection/identification).  One hundred
pairs per dataset are drawn; when the tail of the dataset holds fewer than
a hundred disjoint six-hour windows, the draw samples segment starts with
replacement (the fault placement still differs pair to pair).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..model import Device, Trace
from .injector import FaultInjector
from .models import FaultType, InjectedFault


@dataclass(frozen=True)
class SegmentPair:
    """One faultless/faulty evaluation pair."""

    faultless: Trace
    faulty: Trace
    fault: InjectedFault

    @property
    def onset(self) -> float:
        return self.fault.onset


def split_precompute(
    trace: Trace, precompute_hours: float
) -> Tuple[Trace, Trace]:
    """Split a dataset trace into (training, evaluation) parts."""
    cut = trace.start + precompute_hours * 3600.0
    if not trace.start < cut < trace.end:
        raise ValueError("precompute period must fall inside the trace")
    return trace.slice(trace.start, cut), trace.slice(cut, trace.end)


def segment_starts(
    evaluation: Trace,
    segment_hours: float,
    count: int,
    rng: np.random.Generator,
) -> List[float]:
    """Starts of *count* segments within the evaluation span.

    Uses the disjoint six-hour grid first (shuffled); if more segments are
    requested than the grid holds, the remainder is drawn uniformly at
    random (overlapping segments, distinct fault placements).
    """
    seg_len = segment_hours * 3600.0
    span = evaluation.end - evaluation.start
    if span < seg_len:
        raise ValueError("evaluation span shorter than one segment")
    grid = np.arange(evaluation.start, evaluation.end - seg_len + 1e-9, seg_len)
    rng.shuffle(grid)
    starts = list(grid[:count])
    while len(starts) < count:
        starts.append(
            float(evaluation.start + rng.uniform(0.0, span - seg_len))
        )
    return starts[:count]


def iter_segment_pairs(
    trace: Trace,
    rng: np.random.Generator,
    precompute_hours: float = 300.0,
    segment_hours: float = 6.0,
    count: int = 100,
    fault_types: Optional[Sequence[FaultType]] = None,
    devices: Optional[Sequence[Device]] = None,
    injector: Optional[FaultInjector] = None,
) -> Iterator[SegmentPair]:
    """The Ch. V protocol's *count* pairs, drawn one at a time.

    Each faultless segment is a slice of *trace* (a view); each faulty copy
    is built when its pair is drawn, so a consumer that lets each pair go
    before asking for the next holds at most two.  ``fault_types``
    restricts the injected classes (e.g. actuator experiments);
    ``devices`` restricts the target pool (sensors by default).  Raises
    :class:`RuntimeError` once the draws run out with fewer than *count*
    pairs.
    """
    _, evaluation = split_precompute(trace, precompute_hours)
    if injector is None:
        injector = (
            FaultInjector(rng, tuple(fault_types)) if fault_types else FaultInjector(rng)
        )
    seg_len = segment_hours * 3600.0
    span = evaluation.end - evaluation.start
    starts = segment_starts(evaluation, segment_hours, count, rng)
    built = attempts = 0
    while built < count and attempts < 20 * count:
        attempts += 1
        if starts:
            start = starts.pop()
        else:
            start = float(evaluation.start + rng.uniform(0.0, span - seg_len))
        segment = trace.slice(start, start + seg_len)
        fault_type = None
        if fault_types is not None:
            fault_type = fault_types[int(rng.integers(len(fault_types)))]
        try:
            faulty, fault = injector.inject(
                segment, devices=devices, fault_type=fault_type
            )
        except ValueError:
            # All-quiet segment (away/asleep night): no observable fault is
            # possible there — redraw, as the thesis's random placement on
            # real recordings implicitly does.
            continue
        built += 1
        yield SegmentPair(segment, faulty, fault)
    if built < count:
        raise RuntimeError(
            f"could only build {built}/{count} segment pairs; "
            "evaluation span may be too quiet"
        )


def make_segment_pairs(
    trace: Trace,
    rng: np.random.Generator,
    precompute_hours: float = 300.0,
    **options,
) -> Tuple[Trace, List[SegmentPair]]:
    """The full Ch. V protocol: returns ``(training, pairs)``, the pairs of
    :func:`iter_segment_pairs` (which takes the same *options*) as a list."""
    training, _ = split_precompute(trace, precompute_hours)
    return training, list(iter_segment_pairs(trace, rng, precompute_hours, **options))
