"""The Ch. V evaluation protocol, runnable against any detector.

One :class:`EvaluationRunner` pass over a dataset produces everything the
paper's tables and figures need — detection and identification accuracy
(Fig. 5.1), detection/identification time (Fig. 5.2, Table 5.1), per-stage
computation time (Fig. 5.3), correlation degree (Table 5.2) and the
detection-check attribution per fault type (Fig. 5.4) — so each experiment
module simply projects a different view of the same
:class:`DatasetResult`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core import DEFAULT_CONFIG, BackendAlert, DiceConfig, DiceDetector, StageTimings
from ..faults import FaultType, InjectedFault, SegmentPair, iter_segment_pairs, split_precompute
from ..model import Device, Trace
from .metrics import DetectionCounts, IdentificationCounts, TimingStats


@dataclass
class SegmentOutcome:
    """Everything measured for one faultless/faulty pair."""

    fault: InjectedFault
    faultless_detected: bool
    detected: bool
    detecting_check: Optional[str] = None
    detection_minutes: Optional[float] = None
    identification_minutes: Optional[float] = None
    identified: FrozenSet[str] = frozenset()
    faultless_identified: FrozenSet[str] = frozenset()

    @property
    def identified_correctly(self) -> bool:
        return self.fault.device_id in self.identified


@dataclass
class DatasetResult:
    """Aggregated protocol results for one dataset."""

    name: str
    num_sensors: int
    correlation_degree: float
    num_groups: int
    outcomes: List[SegmentOutcome] = field(default_factory=list)
    timings: StageTimings = field(default_factory=StageTimings)
    fit_seconds: float = 0.0

    # ------------------------------------------------------------------ #

    def detection_counts(self) -> DetectionCounts:
        counts = DetectionCounts()
        for outcome in self.outcomes:
            if outcome.detected:
                counts.true_positives += 1
            else:
                counts.false_negatives += 1
            if outcome.faultless_detected:
                counts.false_positives += 1
            else:
                counts.true_negatives += 1
        return counts

    def identification_counts(self) -> IdentificationCounts:
        counts = IdentificationCounts()
        for outcome in self.outcomes:
            counts.actual += 1
            counts.named += len(outcome.identified) + len(
                outcome.faultless_identified
            )
            if outcome.identified_correctly:
                counts.correct += 1
        return counts

    def detection_time(self) -> TimingStats:
        stats = TimingStats()
        for outcome in self.outcomes:
            if outcome.detection_minutes is not None:
                stats.add(outcome.detection_minutes)
        return stats

    def identification_time(self) -> TimingStats:
        stats = TimingStats()
        for outcome in self.outcomes:
            if outcome.identification_minutes is not None:
                stats.add(outcome.identification_minutes)
        return stats

    def detection_time_by_check(self) -> Dict[str, TimingStats]:
        """Table 5.1: detection delay split by the check that caught it."""
        by_check: Dict[str, TimingStats] = {}
        for outcome in self.outcomes:
            if outcome.detecting_check and outcome.detection_minutes is not None:
                by_check.setdefault(outcome.detecting_check, TimingStats()).add(
                    outcome.detection_minutes
                )
        return by_check

    def detection_ratio_by_fault_type(self) -> Dict[FaultType, Dict[str, float]]:
        """Fig. 5.4: share of detections per check, per fault type."""
        tally: Dict[FaultType, Dict[str, int]] = {}
        for outcome in self.outcomes:
            if not outcome.detected:
                continue
            per_type = tally.setdefault(outcome.fault.fault_type, {})
            per_type[outcome.detecting_check] = (
                per_type.get(outcome.detecting_check, 0) + 1
            )
        ratios: Dict[FaultType, Dict[str, float]] = {}
        for fault_type, checks in tally.items():
            total = sum(checks.values())
            ratios[fault_type] = {
                check: count / total for check, count in checks.items()
            }
        return ratios

    def computation_ms_per_window(self) -> Dict[str, float]:
        """Fig. 5.3: average per-window wall-clock per real-time stage.

        Raises :class:`ValueError` when no window was processed — an
        average over zero windows is undefined, not zero.
        """
        per_window = self.timings.per_window()
        if per_window is None:
            raise ValueError(
                f"{self.name}: no windows processed; "
                "per-window averages are undefined"
            )
        return {stage: seconds * 1000.0 for stage, seconds in per_window.items()}

    def aggregate_fingerprint(self) -> str:
        """SHA-256 over the canonicalised, order-sensitive outcomes.

        Wall-clock timings are excluded, so two runs of the same protocol
        over the same inputs must produce the *same* fingerprint; anything
        else is a determinism bug."""
        canon = [
            (
                o.fault.device_id,
                o.fault.fault_type.value,
                o.fault.onset,
                o.faultless_detected,
                o.detected,
                o.detecting_check,
                o.detection_minutes,
                o.identification_minutes,
                tuple(sorted(o.identified)),
                tuple(sorted(o.faultless_identified)),
            )
            for o in self.outcomes
        ]
        header = (self.name, self.num_sensors, self.correlation_degree, self.num_groups)
        return hashlib.sha256(repr((header, canon)).encode()).hexdigest()


class EvaluationRunner:
    """Runs the segment-pair protocol for one dataset, in this process:
    each pair is evaluated as it is drawn, so at most the pair just
    evaluated and the one being built are alive at once."""

    def __init__(
        self,
        config: DiceConfig = DEFAULT_CONFIG,
        precompute_hours: float = 300.0,
        segment_hours: float = 6.0,
        pairs: int = 100,
        seed: int = 0,
    ) -> None:
        self.config = config
        self.precompute_hours = precompute_hours
        self.segment_hours = segment_hours
        self.pairs = pairs
        self.seed = seed

    # ------------------------------------------------------------------ #

    def prepare(
        self,
        trace: Trace,
        fault_types: Optional[Sequence[FaultType]] = None,
        devices: Optional[Sequence[Device]] = None,
    ) -> Tuple[Trace, Iterator[SegmentPair]]:
        """Split off the training trace; the segment pairs are drawn as
        the returned iterator is consumed."""
        training, _ = split_precompute(trace, self.precompute_hours)
        pairs = iter_segment_pairs(
            trace,
            np.random.default_rng(self.seed),
            precompute_hours=self.precompute_hours,
            segment_hours=self.segment_hours,
            count=self.pairs,
            fault_types=fault_types,
            devices=devices,
        )
        return training, pairs

    def fit_detector(self, trace: Trace, training: Trace) -> DiceDetector:
        return DiceDetector(trace.registry, self.config).fit(training)

    def evaluate(
        self,
        name: str,
        trace: Trace,
        fault_types: Optional[Sequence[FaultType]] = None,
        devices: Optional[Sequence[Device]] = None,
    ) -> DatasetResult:
        """Run the full protocol; returns the aggregated result.

        The fit draws nothing from the protocol's generator, so drawing the
        pairs after it yields the same pairs as drawing them before."""
        import time as _time

        training, pairs = self.prepare(trace, fault_types, devices)
        t0 = _time.perf_counter()
        detector = self.fit_detector(trace, training)
        fit_seconds = _time.perf_counter() - t0
        result = DatasetResult(
            name=name,
            num_sensors=len(trace.registry.sensors()),
            correlation_degree=detector.model.correlation_degree,
            num_groups=len(detector.model.groups),
            fit_seconds=fit_seconds,
        )
        for pair in pairs:
            outcome, timings = _evaluate_pair(detector, pair)
            result.outcomes.append(outcome)
            result.timings.merge(timings)
        return result


def _evaluate_pair(
    detector: DiceDetector, pair: SegmentPair
) -> Tuple[SegmentOutcome, StageTimings]:
    """Process one faultless/faulty pair; returns the outcome and the
    pair's accumulated stage timings (merged by the caller)."""
    timings = StageTimings()
    clean_report = detector.process(pair.faultless)
    faulty_report = detector.process(pair.faulty)
    timings.merge(clean_report.timings)
    timings.merge(faulty_report.timings)
    manifest = _manifestation_time(pair)
    clean_first = clean_report.first_identification
    outcome = SegmentOutcome(
        fault=pair.fault,
        faultless_detected=clean_report.detected,
        detected=faulty_report.detected,
        faultless_identified=(
            clean_first.devices if clean_first else frozenset()
        ),
    )
    detection = _first_after(faulty_report.detections, pair.fault.onset)
    if detection is not None:
        outcome.detecting_check = detection.check
        outcome.detection_minutes = max(
            0.0, (detection.time - manifest) / 60.0
        )
    # The per-fault verdict is the first identification session that
    # concludes after the fault onset (§3.4: DICE outputs the faulty
    # sensor "and starts detecting faults from the top").
    identification = _first_after(faulty_report.identifications, pair.fault.onset)
    if identification is not None:
        outcome.identified = identification.devices
        if pair.fault.device_id in identification.devices:
            outcome.identification_minutes = max(
                0.0, (identification.time - manifest) / 60.0
            )
    return outcome, timings


def _manifestation_time(pair: SegmentPair) -> float:
    """When the fault first becomes observable in the data.

    A fail-stop only manifests at the device's first *suppressed* report
    (its first post-onset event in the faultless copy); the injected
    fault classes (stuck-at, outlier, noise, spike) produce wrong data
    from the onset itself.  Detection latency — the paper's Fig. 5.2 —
    is meaningful relative to this instant: no detector can see a dead
    cupboard switch before the cupboard would have been opened.
    """
    fault = pair.fault
    if fault.fault_type is FaultType.FAIL_STOP:
        times, _ = pair.faultless.events_for(fault.device_id)
        after = times[times >= fault.onset]
        if len(after):
            return float(after[0])
    return fault.onset


def _first_after(alerts: List[BackendAlert], onset: float) -> Optional[BackendAlert]:
    """The first alert at or after *onset*, else the first alert (if any)."""
    return next((a for a in alerts if a.time >= onset), alerts[0] if alerts else None)
