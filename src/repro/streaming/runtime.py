"""The online DICE runtime: what actually runs on the home gateway.

:class:`OnlineDice` wraps a fitted :class:`~repro.core.DiceDetector` with
the event-at-a-time windower and exposes a push API; alerts (detections
and concluded identifications) come back from every ``push`` call as they
happen, with the same semantics as the batch ``process`` path — a property
the test suite checks by replaying traces through both.

:class:`HardenedOnlineDice` is the production-grade variant: it fronts the
same detector with an ingest guard (malformed events become structured
drop records instead of exceptions), a bounded reorder buffer (late events
within the lateness budget are re-sorted into their window), a device
supervisor (silent or error-spewing devices are quarantined and masked out
of the correlation check), and versioned checkpoint/restore so a gateway
can crash mid-window and resume deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple, Union

from .. import telemetry
from ..core import (
    WINDOWS_TOTAL,
    BackendAlert,
    DetectorBackend,
    DiceDetector,
    TransitionCase,
    as_backend,
)
from ..core.detector import CACHE_HITS_TOTAL, CACHE_MISSES_TOTAL
from ..model import Event, Trace
from .guard import DropLog, IngestGuard
from .refresh import ContextRefresher, NullRefresher, RefreshPolicy
from .reorder import ReorderBuffer
from .supervisor import (
    ERRORS,
    DeviceStatus,
    DeviceSupervisor,
    HealthTransition,
    SupervisorPolicy,
)
from .windower import OnlineWindower, WindowSnapshot

#: Alert kinds emitted by the supervising runtime, beyond the paper's
#: "detection"/"identification".
DEVICE_SILENCE = "device_silence"
DEVICE_ERRORS = "device_errors"
DEVICE_RECOVERED = "device_recovered"

#: Counter of alerts raised by the runtime, labelled by kind.
ALERTS_TOTAL = "dice_alerts_total"

#: Histogram of event-time detection latency: seconds between a deciding
#: window closing and the arrival of the event that closed it.
DETECTION_LATENCY_SECONDS = "dice_detection_latency_seconds"

#: Detection latency runs on event time (window-close lag), so the default
#: sub-second telemetry buckets are useless here — these span one second
#: to an hour.
DETECTION_LATENCY_BUCKETS = (
    0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0, 600.0, 1800.0, 3600.0,
)

_log = telemetry.get_logger("repro.streaming.runtime")


@dataclass(frozen=True)
class Alert:
    """One real-time notification from the gateway."""

    kind: str  # "detection", "identification", or a device_* health kind
    time: float
    check: Optional[str] = None
    cases: Tuple[TransitionCase, ...] = ()
    devices: FrozenSet[str] = frozenset()
    converged: bool = True


def _streaming_alert(b: BackendAlert) -> Alert:
    """A backend alert as the gateway publishes it.  It leaves out the
    session's ``windows_used`` and ``weighted_early``, so streaming output,
    checkpoints and provenance records keep their bytes."""
    return Alert(b.kind, b.time, b.check, b.cases, b.devices, b.converged)


class OnlineDice:
    """Streaming facade over a fitted detector backend.

    Accepts either a fitted :class:`~repro.core.DiceDetector` (wrapped in
    the reference :class:`~repro.core.DiceBackend` — the historical API)
    or any fitted :class:`~repro.core.DetectorBackend`.
    """

    def __init__(
        self,
        detector: Union[DiceDetector, DetectorBackend],
        start: float = 0.0,
        provenance: Optional["telemetry.ProvenanceRecorder"] = None,
    ) -> None:
        backend = as_backend(detector)
        if not backend.is_fitted:
            raise ValueError("detector must be fitted")
        self.backend = backend
        #: The wrapped :class:`DiceDetector` for DICE-based backends,
        #: ``None`` otherwise.  Shared-context interning, context refresh
        #: and ``repro.fleet`` memory accounting key off it.
        self.detector = backend.dice_detector
        self.windower = OnlineWindower(backend.encoder, start=start)
        self.alerts: List[Alert] = []
        #: Alerts raised so far by kind, in first-raised order: what
        #: ``health()`` reports without walking :attr:`alerts`.
        self.alert_counts: Dict[str, int] = {}
        #: Evidence recorder; the plain facade defaults off (cost parity
        #: with the pre-provenance runtime), the hardened one defaults on.
        self.provenance = (
            provenance if provenance is not None else telemetry.NULL_PROVENANCE
        )
        #: Timestamp of the input (event or clock advance) whose arrival is
        #: closing windows right now — the event-time side of the
        #: detection-latency measurement.
        self._detected_ts = float(start)
        # Telemetry: the runtime shares its backend's registry, and exports
        # the backend's stage clock before the first window closes.
        self.metrics = backend.metrics
        backend.stage_clock
        self._windows_counter = self.metrics.counter(
            WINDOWS_TOTAL, "Windows run through the real-time phase"
        )
        self._alerts_counter = self.metrics.counter(
            ALERTS_TOTAL, "Alerts raised by the streaming runtime", labelnames=("kind",)
        )
        self._cache_hits_counter = self.metrics.counter(
            CACHE_HITS_TOTAL, "Correlation-memo hits"
        )
        self._cache_misses_counter = self.metrics.counter(
            CACHE_MISSES_TOTAL, "Correlation-memo misses"
        )
        self._latency_obs = self.metrics.histogram(
            DETECTION_LATENCY_SECONDS,
            "Event-time seconds between a deciding window closing and the "
            "event that closed it",
            buckets=DETECTION_LATENCY_BUCKETS,
        )

    @property
    def _session(self):
        """The backend's open identification session (read-only view)."""
        return self.backend._session

    # ------------------------------------------------------------------ #

    def push(self, event: Event) -> List[Alert]:
        """Feed one event; returns alerts raised by completed windows."""
        self._detected_ts = event.timestamp
        fresh: List[Alert] = []
        for snapshot in self.windower.push(event):
            fresh.extend(self._handle_window(snapshot))
        return fresh

    def push_many(self, events: Iterable[Event]) -> List[Alert]:
        fresh: List[Alert] = []
        for event in events:
            fresh.extend(self.push(event))
        return fresh

    def advance_to(self, timestamp: float) -> List[Alert]:
        """Account for the passage of (possibly event-free) time."""
        self._detected_ts = timestamp
        fresh: List[Alert] = []
        for snapshot in self.windower.advance_to(timestamp):
            fresh.extend(self._handle_window(snapshot))
        return fresh

    def replay(self, trace: Trace) -> List[Alert]:
        """Convenience: stream a whole trace, including its quiet tail.

        Returns only the alerts raised *by this call* (matching ``push`` /
        ``advance_to``); the cumulative history stays in ``self.alerts``.
        """
        fresh = self.push_many(trace)
        fresh.extend(self.advance_to(trace.end))
        fresh.extend(self.finish(trace.end))
        return fresh

    def finish(self, end: Optional[float] = None) -> List[Alert]:
        """End-of-stream: report any identification session still open
        (mirrors the batch driver's segment-end flush).

        With *end*, the trailing **partial** window is force-closed first,
        exactly when the batch encoder would emit one: ``encode`` rounds a
        segment up to ``ceil(span / window - 1e-9)`` windows, so a stream
        ending mid-window owes one more (shortened) window before the
        session flush.  Without *end* (the default) no window is closed —
        a caller that only wants to conclude the session keeps the old
        behaviour.
        """
        fresh: List[Alert] = []
        if end is not None:
            self._detected_ts = max(self._detected_ts, end)
            windower = self.windower
            tail = end - windower.current_window_start
            if tail > 1e-9 * windower.window_seconds:
                fresh.extend(self._handle_window(windower.flush()))
        tail_alert = self.backend.finish_segment(
            self.windower.current_window_start
        )
        if tail_alert is None:
            return fresh
        alert = _streaming_alert(tail_alert)
        self.alerts.append(alert)
        prov = self.provenance
        if prov.enabled:
            # End-of-stream conclusion: the chain so far is the whole
            # evidence (no window closed to conclude the session).
            prov.record(
                alert,
                windows=list(prov.chain),
                latency=0.0,
                context=self._provenance_context(),
            )
            prov.chain = []
        self._note_alerts([alert])
        fresh.append(alert)
        return fresh

    def _note_alerts(self, fresh: List[Alert]) -> None:
        counts = self.alert_counts
        for alert in fresh:
            counts[alert.kind] = counts.get(alert.kind, 0) + 1
            self._alerts_counter.labels(kind=alert.kind).inc()
            _log.info(
                "alert",
                kind=alert.kind,
                time=alert.time,
                check=alert.check,
                devices=",".join(sorted(alert.devices)),
            )

    # ------------------------------------------------------------------ #

    def _current_qbits(self) -> int:
        """Hook: state-set bits to mask out of the checks (quarantine)."""
        return 0

    def _handle_window(self, snapshot: WindowSnapshot) -> List[Alert]:
        hits0, misses0 = self.backend.cache_counters()
        outcome = self.backend.observe_window(snapshot, self._current_qbits())
        fresh = [_streaming_alert(b) for b in outcome.alerts]
        if fresh:
            latency = max(0.0, self._detected_ts - snapshot.end)
            for _ in fresh:
                self._latency_obs.observe(latency)
        prov = self.provenance
        if prov.enabled and (fresh or prov.chain):
            self._note_provenance(snapshot, fresh)
        self.alerts.extend(fresh)
        self._observe_window(snapshot, outcome)
        self._windows_counter.inc()
        # Attribute only this window's memo activity, so a detector shared
        # with a batch ``process`` call is never double-counted.
        hits1, misses1 = self.backend.cache_counters()
        if hits1 > hits0:
            self._cache_hits_counter.inc(hits1 - hits0)
        if misses1 > misses0:
            self._cache_misses_counter.inc(misses1 - misses0)
        self._note_alerts(fresh)
        return fresh

    def _note_provenance(
        self, snapshot: WindowSnapshot, fresh: List[Alert]
    ) -> None:
        """Accumulate the open session's evidence chain and seal a record
        per alert.  Called only with provenance enabled and something to
        note (an alert fired, or a session chain is accumulating), so the
        healthy steady state never builds evidence dicts."""
        prov = self.provenance
        evidence = self._window_evidence(snapshot)
        if any(alert.kind == "detection" for alert in fresh):
            # A detection (re)starts the chain at its triggering window.
            prov.chain = [evidence]
        elif prov.chain:
            prov.chain.append(evidence)
        if not fresh:
            return
        latency = max(0.0, self._detected_ts - snapshot.end)
        context = self._provenance_context()
        for alert in fresh:
            if alert.kind == "detection":
                prov.record(
                    alert, windows=[evidence], latency=latency, context=context
                )
            else:  # identification concluded on this window
                windows = list(prov.chain) if prov.chain else [evidence]
                prov.record(
                    alert, windows=windows, latency=latency, context=context
                )
                prov.chain = []

    def _window_evidence(self, snapshot: WindowSnapshot) -> dict:
        """JSON evidence for one completed window (deterministic)."""
        return self.backend.window_evidence(snapshot)

    def _provenance_context(self) -> dict:
        """Hook: runtime context stamped into provenance records."""
        return self.backend.context_summary()

    def _observe_window(self, snapshot: WindowSnapshot, outcome) -> None:
        """Hook: subclasses may watch completed-window outcomes (the
        hardened runtime feeds its drift monitor here)."""

    # ------------------------------------------------------------------ #
    # Checkpoint support
    # ------------------------------------------------------------------ #

    def state_dict(self) -> dict:
        """JSON-serializable detector-side streaming state (the backend's
        transient keys are merged in flat)."""
        state = {"windower": self.windower.state_dict()}
        state.update(self.backend.checkpoint_state())
        state["provenance"] = self.provenance.state_dict()
        return state

    def load_state(self, state: dict) -> None:
        self.windower.load_state(state["windower"])
        self.backend.load_state(state)
        self.provenance.load_state(state["provenance"])


class HardenedOnlineDice(OnlineDice):
    """The resilient gateway runtime: guard → reorder → supervise → detect.

    Feed raw pipe output through :meth:`ingest`; call :meth:`finish_stream`
    at end-of-stream (or :meth:`checkpoint` any time in between).  Unlike
    the plain :class:`OnlineDice`, out-of-order events within
    ``lateness_seconds`` are tolerated, malformed events are counted and
    dropped, and devices that go silent beyond the supervisor's budget are
    quarantined — their bits are ignored by the correlation check until
    they recover, so one dead sensor does not flood the detector.
    """

    def __init__(
        self,
        detector: Union[DiceDetector, DetectorBackend],
        start: float = 0.0,
        *,
        lateness_seconds: float = 120.0,
        policy: SupervisorPolicy = SupervisorPolicy(),
        refresh: Optional[RefreshPolicy] = None,
        provenance: Optional["telemetry.ProvenanceRecorder"] = None,
    ) -> None:
        # The hardened runtime records provenance by default — it is the
        # production-facing path; pass telemetry.NULL_PROVENANCE to opt out.
        super().__init__(
            detector,
            start=start,
            provenance=(
                provenance
                if provenance is not None
                else telemetry.ProvenanceRecorder()
            ),
        )
        backend = self.backend
        # The content hash of the *base* fitted model, captured before any
        # refresh mutates it: a checkpoint records it, and a restore proves
        # the re-fitted detector is byte-for-byte that model before it
        # re-applies the carried refresh history.
        self.base_context_hash = backend.context_hash()
        # While draining staged windows, the quarantine bits captured at
        # staging time; ``None`` outside a drain (live bits are used).
        self._pinned_qbits: Optional[int] = None
        # Likewise the quarantined-device names stamped into provenance
        # context: a batched tick advances every home's supervisor before
        # any window drains, so the live set at drain time can already
        # contain the future — records must see the staging-time set.
        self._pinned_quarantined: Optional[List[str]] = None
        registry = backend.registry
        self.drops = DropLog(metrics=self.metrics)
        self.guard = IngestGuard(registry, self.drops, start=start)
        self.reorder = ReorderBuffer(
            lateness_seconds, log=self.drops, metrics=self.metrics
        )
        self.supervisor = DeviceSupervisor(
            registry, policy, start=start, metrics=self.metrics
        )
        # Context refresh mutates the DICE model in place; for backends
        # without one, the null refresher keeps the interface (stats,
        # checkpoint keys) with refresh permanently off.
        if backend.dice_detector is not None:
            self.refresher = ContextRefresher(
                backend.dice_detector,
                refresh if refresh is not None else RefreshPolicy(),
                metrics=self.metrics,
            )
        else:
            self.refresher = NullRefresher()
        self._register_telemetry()

    def _register_telemetry(self) -> None:
        """Publish buffer depth and supervisor occupancy at snapshot time."""
        metrics = self.metrics
        if not metrics.enabled:
            return
        pending = metrics.gauge(
            "dice_reorder_pending", "Events currently held in the reorder buffer"
        )
        lag = metrics.gauge(
            "dice_reorder_watermark_lag_seconds",
            "Newest event timestamp seen minus the release watermark",
        )
        devices = metrics.gauge(
            "dice_supervisor_devices",
            "Supervised devices per health state",
            labelnames=("state",),
        )

        def collect() -> None:
            pending.set(self.reorder.pending)
            lag.set(self.reorder.watermark_lag)
            for state, count in self.supervisor.state_counts().items():
                devices.labels(state=state).set(count)

        metrics.register_collector("runtime", collect)

    def health(self) -> dict:
        """Point-in-time health report of the gateway runtime.

        JSON-serializable; this is what an operator (or the supervising
        process) polls to decide whether the gateway needs attention,
        independent of the metrics export.
        """
        watermark = self.reorder.watermark
        states = {}
        for device in self.backend.registry:
            health = self.supervisor.health_of(device.device_id)
            if health is not None:
                states[device.device_id] = health.status.value
        states = dict(sorted(states.items()))
        return {
            "devices": states,
            "supervisor_states": self.supervisor.state_counts(),
            "quarantined": sorted(self.supervisor.quarantined),
            "watermark": None if watermark == float("-inf") else watermark,
            "watermark_lag_seconds": self.reorder.watermark_lag,
            "reorder_pending": self.reorder.pending,
            "reorder_capacity": self.reorder.max_pending,
            "force_released": self.reorder.force_released,
            "drops": {
                "total": self.drops.total,
                "by_reason": self.drops.summary(),
            },
            "refresh": self.refresher.stats(),
            "alerts": dict(self.alert_counts),
        }

    # ------------------------------------------------------------------ #

    def ingest(self, event: Event) -> List[Alert]:
        """Feed one raw event from the pipe; never raises on bad input."""
        staged: List[tuple] = []
        self.stage_event(event, staged)
        return self.drain_staged(staged)

    # -- staged ingest (the batched fleet tick's building blocks) -------- #
    #
    # ``ingest`` is stage-then-drain over a single event, so the immediate
    # and batched paths run the exact same code.  The fleet gateway's
    # batched tick stages every home's events first (guard, reorder and
    # supervisor state *must* advance in arrival order), pre-warms each
    # shared correlation memo once across homes, then drains per home.
    # Per-home alert streams are byte-identical either way: every staged
    # window pins the quarantine bits as of its staging moment — exactly
    # what an immediate ``_handle_window`` would have observed — and the
    # memo warm-up is a pure cache fill that never changes check results.

    def stage_event(self, event: Event, staged: List[tuple]) -> None:
        """Run one raw event's ingest bookkeeping now; defer window
        handling and alert emission into *staged* (see :meth:`drain_staged`)."""
        dropped = self.guard.admit(event)
        if dropped is not None:
            if event.device_id in self.backend.registry:
                # A known device emitting garbage counts against its health.
                transitions = self.supervisor.record_error(
                    event.device_id, self._stream_time(event)
                )
                if transitions:
                    staged.append(
                        ("health", transitions, self._quarantined_now())
                    )
            return
        self._stage_released(self.reorder.push(event), staged)

    def _quarantined_now(self) -> List[str]:
        """The supervisor's quarantine set as of this staging moment."""
        return sorted(self.supervisor.quarantined)

    def _stage_released(
        self, events: List[Event], staged: List[tuple]
    ) -> None:
        for event in events:
            transitions = self.supervisor.observe(event)
            if transitions:
                staged.append(("health", transitions, self._quarantined_now()))
            transitions = self.supervisor.check_silence(event.timestamp)
            if transitions:
                staged.append(("health", transitions, self._quarantined_now()))
            for snapshot in self.windower.push(event):
                staged.append(
                    (
                        "window",
                        self._quarantine_bits(),
                        snapshot,
                        event.timestamp,
                        self._quarantined_now(),
                    )
                )

    def drain_staged(self, staged: List[tuple]) -> List[Alert]:
        """Turn staged items into alerts, in staging order."""
        fresh: List[Alert] = []
        for item in staged:
            if item[0] == "health":
                _tag, transitions, quarantined = item
                self._pinned_quarantined = quarantined
                try:
                    fresh.extend(self._health_alerts(transitions))
                finally:
                    self._pinned_quarantined = None
            else:
                _tag, qbits, snapshot, detected_ts, quarantined = item
                self._detected_ts = detected_ts
                self._pinned_qbits = qbits
                self._pinned_quarantined = quarantined
                try:
                    fresh.extend(self._handle_window(snapshot))
                finally:
                    self._pinned_qbits = None
                    self._pinned_quarantined = None
        return fresh

    @staticmethod
    def staged_window_masks(staged: List[tuple]) -> List[int]:
        """Masks of staged windows that will take the memoised check path
        (no quarantine bits pinned) — what a batched tick pre-warms."""
        return [
            item[2].mask
            for item in staged
            if item[0] == "window" and item[1] == 0
        ]

    def _stream_time(self, event: Event) -> float:
        """Best current estimate of event time for health bookkeeping."""
        watermark = self.reorder.watermark
        if watermark != float("-inf"):
            return watermark
        if math.isfinite(event.timestamp):
            return event.timestamp
        return self.guard.start

    def ingest_many(self, events: Iterable[Event]) -> List[Alert]:
        fresh: List[Alert] = []
        for event in events:
            fresh.extend(self.ingest(event))
        return fresh

    def advance_to(self, timestamp: float) -> List[Alert]:
        """Wall clock reached *timestamp*: release what the watermark allows
        and account for event-free time (silence detection included)."""
        fresh = self._process_released(self.reorder.advance_to(timestamp))
        watermark = self.reorder.watermark
        horizon = max(watermark, timestamp - self.reorder.lateness_seconds)
        if horizon > float("-inf"):
            self._detected_ts = horizon
            for snapshot in self.windower.advance_to(horizon):
                fresh.extend(self._handle_window(snapshot))
            fresh.extend(
                self._health_alerts(self.supervisor.check_silence(horizon))
            )
        return fresh

    def finish_stream(self, end: Optional[float] = None) -> List[Alert]:
        """End-of-stream: flush the reorder buffer, close the quiet tail up
        to *end*, and conclude any open identification session."""
        fresh = self._process_released(self.reorder.flush())
        if end is not None:
            self._detected_ts = max(self._detected_ts, end)
            for snapshot in self.windower.advance_to(end):
                fresh.extend(self._handle_window(snapshot))
            fresh.extend(self._health_alerts(self.supervisor.check_silence(end)))
        fresh.extend(self.finish(end))
        return fresh

    def replay(self, trace: Trace) -> List[Alert]:
        """Stream a whole trace through the hardened path."""
        fresh = self.ingest_many(trace)
        fresh.extend(self.finish_stream(trace.end))
        return fresh

    # ------------------------------------------------------------------ #

    def _process_released(self, events: List[Event]) -> List[Alert]:
        staged: List[tuple] = []
        self._stage_released(events, staged)
        return self.drain_staged(staged)

    def _health_alerts(
        self, transitions: List[HealthTransition]
    ) -> List[Alert]:
        fresh: List[Alert] = []
        for edge in transitions:
            if edge.current is DeviceStatus.QUARANTINED:
                kind = DEVICE_ERRORS if edge.reason == ERRORS else DEVICE_SILENCE
            elif edge.current is DeviceStatus.RECOVERED:
                kind = DEVICE_RECOVERED
            else:
                continue  # degraded/healthy edges are internal
            alert = Alert(kind, edge.time, devices=frozenset({edge.device_id}))
            fresh.append(alert)
            prov = self.provenance
            if prov.enabled:
                prov.record(
                    alert,
                    windows=[],
                    latency=0.0,
                    context={
                        **self._provenance_context(),
                        "device": edge.device_id,
                        "previous": edge.previous.value,
                        "current": edge.current.value,
                        "reason": edge.reason,
                    },
                )
        self.alerts.extend(fresh)
        self._note_alerts(fresh)
        return fresh

    def _quarantine_bits(self) -> int:
        """State-set bits owned by currently quarantined sensors."""
        bits = 0
        layout = self.windower.layout
        registry = self.backend.registry
        for device_id in self.supervisor.quarantined:
            device = registry.get(device_id)
            if device is None or device.is_actuator:
                continue
            for bit in layout.bits_of_device(device_id):
                bits |= 1 << bit
        return bits

    def _current_qbits(self) -> int:
        """Quarantine bits the backend's checks must ignore: the bits
        pinned at staging time while draining, the live set otherwise."""
        pinned = self._pinned_qbits
        return self._quarantine_bits() if pinned is None else pinned

    def _window_evidence(self, snapshot) -> dict:
        evidence = super()._window_evidence(snapshot)
        evidence["quarantine_bits"] = format(self._current_qbits(), "x")
        return evidence

    def _provenance_context(self) -> dict:
        context = super()._provenance_context()
        pinned = self._pinned_quarantined
        context["quarantined"] = (
            self._quarantined_now() if pinned is None else list(pinned)
        )
        context["refresh_applied"] = self.refresher.applied_total
        return context

    def _observe_window(self, snapshot: WindowSnapshot, outcome) -> None:
        """Feed the drift monitor; a sustained drift signal (for DICE, a
        correlation-violation streak) declares drift and eventually
        refreshes the context in place."""
        self.refresher.observe(
            snapshot.mask,
            snapshot.actuator_activations,
            outcome.drift_signal,
            snapshot.end,
        )

    # ------------------------------------------------------------------ #
    # Checkpoint support (see repro.streaming.checkpoint)
    # ------------------------------------------------------------------ #

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["guard"] = {"start": self.guard.start}
        state["drops"] = self.drops.state_dict()
        state["reorder"] = self.reorder.state_dict()
        state["supervisor"] = self.supervisor.state_dict()
        state["refresh"] = self.refresher.state_dict()
        return state

    def load_state(self, state: dict) -> None:
        super().load_state(state)
        self.drops = DropLog.from_state_dict(state["drops"], metrics=self.metrics)
        self.guard = IngestGuard(
            self.backend.registry, self.drops, start=state["guard"]["start"]
        )
        self.reorder.log = self.drops
        self.reorder.load_state(state["reorder"])
        self.supervisor.load_state(state["supervisor"])
        self.refresher.load_state(state["refresh"])

    def checkpoint(self) -> dict:
        """Versioned, JSON-serializable snapshot of the full online state."""
        from .checkpoint import checkpoint_state

        return checkpoint_state(self)
