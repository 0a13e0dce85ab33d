"""Scenario-matrix execution.

Every cell runs through the **hardened streaming runtime** — guard,
reorder buffer, supervisor, detector, optional context refresh — because
that is the code path a deployment actually exercises; the batch pipeline
already has the golden fixtures.  A run is a pure function of
``(cell, trial, seed)``: traces are seeded, victim selection is seeded,
and nothing reads the wall clock, so the report is byte-reproducible.

Protocol (segment-level, matching ``repro.eval``):

* each trial streams one *faulty* live segment and shares one *faultless*
  baseline segment per ``(dataset, trial)`` — the baseline supplies the
  false-positive / true-negative column exactly like the thesis's
  faultless segments;
* detection is a hit when any ``detection`` alert fires at or after the
  earliest fault onset; detection time is event-time minutes from that
  onset (never wall time);
* identification compares the union of devices named by post-onset
  identification alerts against the injected victims;
* drift cells additionally report the *sustained* alert rate over the
  tail window starting ``settle_seconds`` after the onset — the number
  that should collapse when online context refresh is enabled.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from ..core import create_backend
from ..datasets import load_dataset
from ..faults import (
    DriftType,
    FaultType,
    InjectedFault,
    apply_drift,
    apply_fault,
    coordinated_attack,
    inject_stuck_at,
    light_attack,
    temperature_attack,
)
from ..faults.crash import _chaos_registry, _cyclic_trace
from ..eval.metrics import (
    DetectionCounts,
    IdentificationCounts,
    TimingStats,
    alerts_per_hour,
    detection_as_dict,
    identification_as_dict,
    mean_or_none,
)
from ..model import Trace
from ..streaming import (
    Alert,
    HardenedOnlineDice,
    RefreshPolicy,
    SupervisorPolicy,
)
from .cells import (
    ACTUATOR_VARIANT,
    KIND_ATTACK,
    KIND_DRIFT,
    KIND_FAULT,
    ScenarioCell,
)

_log = telemetry.get_logger("repro.scenarios")

HOUR = 3600.0

#: Devices need this many live-segment events to be eligible victims, so
#: a sampled fault always has behaviour to disturb.
MIN_VICTIM_EVENTS = 20


@dataclass(frozen=True)
class ScenarioSettings:
    """Runner knobs shared by every cell (recorded in the report)."""

    trials: int = 3
    house_hours: float = 36.0  # simulated span for houseA / D_houseA
    house_train_hours: float = 24.0
    synthetic_hours: float = 9.0  # chaos cyclic home span
    synthetic_train_hours: float = 3.0
    lateness_seconds: float = 120.0
    #: Lenient supervisor budget: house devices follow *daily* routines
    #: (a fridge is touched once per morning), and quarantining a victim
    #: before its next co-activation window masks the very bits the
    #: correlation check needs to catch a fail-stop — the budget must
    #: exceed the devices' natural inter-activity gap.
    silence_seconds: float = 8 * HOUR
    quarantine_seconds: float = 36 * HOUR
    #: Drift cells measure the sustained alert rate from this long after
    #: the onset to the end of the stream.
    settle_seconds: float = 1 * HOUR

    def as_dict(self) -> dict:
        return {
            "trials": self.trials,
            "house_hours": self.house_hours,
            "house_train_hours": self.house_train_hours,
            "synthetic_hours": self.synthetic_hours,
            "synthetic_train_hours": self.synthetic_train_hours,
            "lateness_seconds": self.lateness_seconds,
            "silence_seconds": self.silence_seconds,
            "quarantine_seconds": self.quarantine_seconds,
            "settle_seconds": self.settle_seconds,
        }

    @property
    def policy(self) -> SupervisorPolicy:
        return SupervisorPolicy(
            silence_seconds=self.silence_seconds,
            quarantine_seconds=self.quarantine_seconds,
        )


def _cell_rng(seed: int, trial: int, cell_id: str) -> np.random.Generator:
    """Seed derived stably from the cell id (no Python ``hash``)."""
    return np.random.default_rng(
        (int(seed), int(trial), zlib.crc32(cell_id.encode("utf-8")))
    )


class _TraceCache:
    """Base traces and faultless baselines shared across cells.

    Keyed by ``(dataset, trial)``: every cell on the same dataset and
    trial perturbs the same seeded base trace and is judged against the
    same faultless baseline run, so cell filters cannot change per-cell
    results."""

    def __init__(self, seed: int, settings: ScenarioSettings) -> None:
        self.seed = int(seed)
        self.settings = settings
        self._traces: Dict[Tuple[str, int], Tuple[Trace, float]] = {}
        self._baselines: Dict[Tuple[str, int, str], List[Alert]] = {}

    def base(self, dataset: str, trial: int) -> Tuple[Trace, float]:
        """The faultless trace and its train/live split time."""
        key = (dataset, trial)
        if key not in self._traces:
            s = self.settings
            if dataset == "synthetic":
                rng = np.random.default_rng((self.seed, trial, 11))
                phase = float(rng.choice([480.0, 600.0, 720.0]))
                trace = _cyclic_trace(
                    _chaos_registry(), s.synthetic_hours, phase
                )
                split = s.synthetic_train_hours * HOUR
            else:
                loaded = load_dataset(
                    dataset, seed=self.seed * 101 + trial, hours=s.house_hours
                )
                trace = loaded.trace
                split = trace.start + s.house_train_hours * HOUR
            self._traces[key] = (trace, split)
        return self._traces[key]

    def baseline_alerts(
        self, dataset: str, trial: int, backend: str = "dice"
    ) -> List[Alert]:
        """Alerts from streaming the *unperturbed* live segment."""
        key = (dataset, trial, backend)
        if key not in self._baselines:
            trace, split = self.base(dataset, trial)
            alerts, _stats = _stream(
                trace, split, self.settings, refresh=False, backend=backend
            )
            self._baselines[key] = alerts
        return self._baselines[key]


def _stream(
    trace: Trace,
    split: float,
    settings: ScenarioSettings,
    refresh: bool,
    backend: str = "dice",
) -> Tuple[List[Alert], dict]:
    """Fit on the training prefix, stream the live segment.

    Returns the alert list and the refresher stats.  A fresh backend per
    run: refresh mutates the model in place, so sharing a fitted detector
    across runs would leak groups between cells.
    """
    impl = create_backend(
        backend, trace.registry, metrics=telemetry.NULL_REGISTRY
    ).fit(trace.slice(trace.start, split))
    runtime = HardenedOnlineDice(
        impl,
        start=split,
        lateness_seconds=settings.lateness_seconds,
        policy=settings.policy,
        refresh=RefreshPolicy(enabled=refresh),
    )
    alerts = runtime.replay(trace.slice(split, trace.end))
    return alerts, runtime.refresher.stats()


def _eligible_sensors(trace: Trace, split: float) -> List[str]:
    """Sensors active enough in the live segment to carry a fault."""
    live = trace.slice(split, trace.end)
    out = []
    for device in trace.registry:
        if device.is_actuator:
            continue
        times, _ = live.events_for(device.device_id)
        if len(times) >= MIN_VICTIM_EVENTS:
            out.append(device.device_id)
    if not out:
        raise ValueError("no sensor is active enough to be a fault victim")
    return sorted(out)


def _pick(rng: np.random.Generator, pool: Sequence[str], count: int) -> List[str]:
    chosen = rng.choice(list(pool), size=min(count, len(pool)), replace=False)
    return sorted(str(d) for d in chosen)


def _numeric_pool(trace: Trace, prefix: Optional[str] = None) -> List[str]:
    pool = [
        d.device_id
        for d in trace.registry
        if not d.is_actuator and not d.is_binary
    ]
    if prefix:
        prefixed = [d for d in pool if d.startswith(prefix)]
        pool = prefixed or pool
    if not pool:
        raise ValueError("dataset has no numeric sensors for this attack")
    return sorted(pool)


def _inject(
    cell: ScenarioCell,
    trace: Trace,
    split: float,
    rng: np.random.Generator,
) -> Tuple[Trace, List[str], float]:
    """Perturb the base trace per the cell; returns (trace, victims, onset).

    The returned onset is the *earliest* one — the moment from which a
    detection counts and from which detection time is measured.
    """
    live_span = trace.end - split
    onset = split + float(rng.uniform(0.35, 0.55)) * live_span
    if cell.kind == KIND_FAULT:
        if cell.variant == ACTUATOR_VARIANT:
            actuators = sorted(
                d.device_id for d in trace.registry if d.is_actuator
            )
            if not actuators:
                raise ValueError(f"{cell.cell_id}: dataset has no actuators")
            victims = _pick(rng, actuators, 1)
            # A stuck-active actuator: spurious activations around the
            # clock, caught by the G2A transition check.
            return inject_stuck_at(trace, victims[0], onset, rng), victims, onset
        fault_type = FaultType(cell.variant)
        victims = _pick(rng, _eligible_sensors(trace, split), 2 if cell.multi else 1)
        faulty = trace
        for i, victim in enumerate(victims):
            # Stagger simultaneous faults by a tenth of the live span so
            # the second onset still leaves room to detect.
            faulty = apply_fault(
                faulty,
                InjectedFault(victim, fault_type, onset + i * 0.1 * live_span),
                rng,
            )
        return faulty, victims, onset
    if cell.kind == KIND_ATTACK:
        if cell.variant == "temperature":
            victims = _pick(rng, _numeric_pool(trace, "t_"), 1)
            attacked, _attack = temperature_attack(trace, victims[0], onset)
        elif cell.variant == "light":
            victims = _pick(rng, _numeric_pool(trace, "l_"), 1)
            attacked, _attack = light_attack(trace, victims[0], onset)
        elif cell.variant == "coordinated":
            victims = _pick(rng, _numeric_pool(trace), 2)
            attacked, _attacks = coordinated_attack(trace, victims, onset)
        else:
            raise ValueError(f"unknown attack variant {cell.variant!r}")
        return attacked, victims, onset
    if cell.kind == KIND_DRIFT:
        drifted, drift = apply_drift(trace, DriftType(cell.variant), onset, rng)
        return drifted, list(drift.devices), onset
    raise ValueError(f"unknown cell kind {cell.kind!r}")


def run_cell(
    cell: ScenarioCell,
    seed: int = 7,
    settings: Optional[ScenarioSettings] = None,
    cache: Optional[_TraceCache] = None,
    backend: str = "dice",
) -> dict:
    """Run one cell for ``settings.trials`` trials; returns the report row."""
    settings = settings or ScenarioSettings()
    cache = cache or _TraceCache(seed, settings)
    detection = DetectionCounts()
    identification = IdentificationCounts()
    timing = TimingStats()
    victims_per_trial: List[List[str]] = []
    onset_hours: List[float] = []
    sustained_rates: List[float] = []
    refresh_totals = {"declared": 0, "applied": 0, "groups_added": 0}
    for trial in range(settings.trials):
        trace, split = cache.base(cell.dataset, trial)
        rng = _cell_rng(seed, trial, cell.injection_id)
        faulty, victims, onset = _inject(cell, trace, split, rng)
        victims_per_trial.append(victims)
        onset_hours.append(round(onset / HOUR, 4))
        alerts, stats = _stream(
            faulty, split, settings, refresh=cell.refresh, backend=backend
        )
        detections = sorted(
            a.time for a in alerts if a.kind == "detection" and a.time >= onset
        )
        if detections:
            detection.true_positives += 1
            timing.add((detections[0] - onset) / 60.0)
        else:
            detection.false_negatives += 1
        named = set()
        for alert in alerts:
            if alert.kind == "identification" and alert.time >= onset:
                named.update(alert.devices)
        identification.correct += len(named & set(victims))
        identification.named += len(named)
        identification.actual += len(victims)
        baseline = cache.baseline_alerts(cell.dataset, trial, backend)
        if any(a.kind == "detection" for a in baseline):
            detection.false_positives += 1
        else:
            detection.true_negatives += 1
        if cell.kind == KIND_DRIFT:
            rate = alerts_per_hour(
                detections, onset + settings.settle_seconds, trace.end
            )
            if rate is not None:
                sustained_rates.append(rate)
            for key in refresh_totals:
                refresh_totals[key] += int(stats.get(key, 0))
    result = {
        "id": cell.cell_id,
        "backend": backend,
        "kind": cell.kind,
        "variant": cell.variant,
        "dataset": cell.dataset,
        "multi": cell.multi,
        "refresh_enabled": cell.refresh,
        "trials": settings.trials,
        "victims": victims_per_trial,
        "onset_hours": onset_hours,
        "detection": detection_as_dict(detection),
        "detection_minutes": {
            "samples": [round(m, 4) for m in timing.samples],
            "mean": _round_or_none(mean_or_none(timing.samples)),
            "median": round(timing.median, 4) if len(timing) else None,
        },
        "identification": identification_as_dict(identification),
        "sustained_alerts_per_hour": _round_or_none(
            mean_or_none(sustained_rates)
        )
        if cell.kind == KIND_DRIFT
        else None,
        "refresh": dict(refresh_totals) if cell.kind == KIND_DRIFT else None,
    }
    return result


def _round_or_none(value: Optional[float]) -> Optional[float]:
    return None if value is None else round(float(value), 4)


def run_matrix(
    cells: Sequence[ScenarioCell],
    seed: int = 7,
    settings: Optional[ScenarioSettings] = None,
    backends: Sequence[str] = ("dice",),
) -> List[dict]:
    """Run every cell through every backend, sharing the trace cache.

    Rows come out grouped by backend (the order *backends* lists them),
    each backend covering the full *cells* sequence — so the report's
    per-backend baselines table compares every backend over the exact
    same seeded injections.  Faultless baseline runs are cached per
    ``(dataset, trial, backend)``; base traces are shared by all.
    """
    settings = settings or ScenarioSettings()
    if not backends:
        raise ValueError("backends must name at least one backend")
    if len(set(backends)) != len(backends):
        raise ValueError(f"backends must not repeat a name: {list(backends)}")
    cache = _TraceCache(seed, settings)
    results = []
    for backend in backends:
        for cell in cells:
            _log.info(
                "scenario_cell_start", cell=cell.cell_id, backend=backend
            )
            row = run_cell(
                cell, seed=seed, settings=settings, cache=cache, backend=backend
            )
            _log.info(
                "scenario_cell_done",
                cell=cell.cell_id,
                backend=backend,
                recall=row["detection"]["recall"],
            )
            results.append(row)
    return results
