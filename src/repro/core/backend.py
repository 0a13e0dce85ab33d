"""Pluggable streaming detector backends.

The streaming runtime used to be welded to the DICE pipeline: the window
loop called the correlation checker, the transition checker and the
identifier directly.  :class:`DetectorBackend` extracts the seam — a
backend owns *what to check per window and whom to blame*, while the
runtime keeps everything transport-level (windowing, reorder, supervision,
checkpoints, provenance, telemetry).

The contract per backend:

* ``fit(trace)`` — precomputation on fault-free data;
* ``encoder`` / ``encode_window`` — the state-set encoding the windower
  drives (all backends reuse the paper's Eq. 3.1-3.4 encoding);
* ``check(snapshot, qbits)`` — one window's verdict.  ``qbits`` are
  state-set bits owned by quarantined sensors; a backend must ignore them;
* ``identify(verdict, snapshot)`` — the probable-faulty device set a
  violating window contributes to the shared identification session;
* ``checkpoint_state()`` / ``load_state(state)`` — JSON round-trip of the
  backend's transient streaming state (the fitted model is *not* included,
  mirroring the runtime checkpoint contract);
* ``fingerprint()`` / ``context_hash()`` — cheap invariants and a content
  hash of the fitted model, so checkpoints and fleet manifests can refuse
  restores onto the wrong model.

Three backends register here:

* ``dice`` — the paper's pipeline, byte-identical to every golden fixture
  that predates the backend seam;
* ``markov`` — a per-device Markov-process transition detector (the WSN
  anomaly-framework restriction of DICE's transition check): one state
  chain per device, a violation whenever a device takes a transition never
  observed in training;
* ``ensemble`` — N child backends voting on alerts with a quorum.

Every registered backend is automatically run through the conformance
suite in ``tests/backends/``.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from .. import telemetry
from ..model import DeviceRegistry, Trace
from .checks import CorrelationResult, TransitionCase
from .config import DEFAULT_CONFIG, KNOWN_BACKENDS, DiceConfig
from .detector import (
    CORRELATION_CHECK,
    STAGE_SECONDS_HISTOGRAM,
    TRANSITION_CHECK,
    DiceDetector,
)
from .encoding import StateSetEncoder, WindowedTrace
from .identification import IdentificationSession, ProbableFaultSet
from .transitions import TransitionMatrix
from .weights import DeviceWeights

#: Check labels for the non-DICE backends (DICE keeps the paper's
#: "correlation"/"transition").
MARKOV_CHECK = "markov"
ENSEMBLE_CHECK = "ensemble"


@dataclass(frozen=True)
class BackendAlert:
    """One alert a backend raises; the runtime re-wraps it as a streaming
    :class:`~repro.streaming.Alert` without touching any field."""

    kind: str  # "detection" or "identification"
    time: float
    check: Optional[str] = None
    cases: Tuple[TransitionCase, ...] = ()
    devices: FrozenSet[str] = frozenset()
    converged: bool = True


@dataclass(frozen=True)
class WindowVerdict:
    """One window's check outcome.

    ``payload`` is backend-private evidence (whatever ``identify`` and
    ``window_evidence`` need); ``drift_signal`` feeds the context-refresh
    drift monitor and is deliberately distinct from ``violation`` — for
    DICE only *correlation* violations indicate drifted contexts.
    """

    violation: bool
    check: Optional[str] = None
    cases: Tuple[TransitionCase, ...] = ()
    payload: object = None
    drift_signal: bool = False


@dataclass(frozen=True)
class WindowOutcome:
    """What one completed window produced, for the runtime to publish."""

    alerts: Tuple[BackendAlert, ...] = ()
    violation: bool = False
    drift_signal: bool = False


@dataclass(frozen=True)
class _BatchWindow:
    """Duck-typed window snapshot for the batch replay path (kept local so
    ``repro.core`` never imports ``repro.streaming``)."""

    index: int
    start: float
    end: float
    mask: int
    actuator_activations: FrozenSet[str] = field(default_factory=frozenset)


class DetectorBackend:
    """Base class: the shared identification-session state machine plus the
    checkpoint plumbing; subclasses supply ``fit``/``check``/``identify``.

    The session template in :meth:`observe_window` is *the* semantics both
    the batch driver and the streaming runtime agree on — subclassing it is
    what makes streaming==batch parity hold for free for a new backend.
    """

    #: Registry name; subclasses override.
    name = "abstract"

    def __init__(
        self,
        registry: DeviceRegistry,
        config: DiceConfig = DEFAULT_CONFIG,
        weights: Optional[DeviceWeights] = None,
        metrics: Optional["telemetry.MetricsRegistry"] = None,
    ) -> None:
        self.registry = registry
        self.config = config
        self.weights = weights
        self.metrics = telemetry.resolve(metrics)
        self.tracer = telemetry.Tracer(self.metrics)
        self._session: Optional[IdentificationSession] = None
        self._session_trigger: str = CORRELATION_CHECK
        stage_hist = self.metrics.histogram(
            STAGE_SECONDS_HISTOGRAM,
            "Wall-clock seconds per streamed window, by real-time stage",
            labelnames=("stage",),
        )
        self._stage_obs = {
            stage: stage_hist.labels(stage=stage)
            for stage in ("correlation", "transition", "identification")
        }

    # -- fitting -------------------------------------------------------- #

    @property
    def is_fitted(self) -> bool:
        raise NotImplementedError

    def fit(self, trace: Trace) -> "DetectorBackend":
        raise NotImplementedError

    @property
    def encoder(self) -> StateSetEncoder:
        """The fitted state-set encoder the streaming windower drives."""
        raise NotImplementedError

    def encode_window(self, trace: Trace) -> WindowedTrace:
        """Encode a segment into the per-window view this backend checks."""
        return self.encoder.encode(trace)

    # -- per-window checking -------------------------------------------- #

    def check(self, snapshot, qbits: int = 0) -> WindowVerdict:
        """Check one completed window (must not mutate streaming state)."""
        raise NotImplementedError

    def identify(self, verdict: WindowVerdict, snapshot) -> ProbableFaultSet:
        """Probable faulty devices a violating window contributes (§3.4)."""
        raise NotImplementedError

    def _post_window(self, snapshot, verdict: WindowVerdict, qbits: int) -> None:
        """Hook: advance backend streaming state after a window concludes."""

    def observe_window(self, snapshot, qbits: int = 0) -> WindowOutcome:
        """Run one window through check + the identification session.

        This is the exact state machine of the paper's real-time phase
        (and of ``DiceDetector.process``): a violation with no session
        open raises a detection and opens a session; while a session is
        open every window feeds it probable-faulty evidence; a converged
        (or exhausted) session concludes with an identification.
        """
        verdict = self.check(snapshot, qbits)
        alerts: List[BackendAlert] = []
        t0 = time.perf_counter()
        if self._session is None:
            if verdict.violation:
                alerts.append(
                    BackendAlert(
                        "detection",
                        snapshot.end,
                        check=verdict.check,
                        cases=verdict.cases,
                    )
                )
                probable = self.identify(verdict, snapshot)
                self._session = IdentificationSession(
                    self.config, probable, self.weights
                )
                self._session_trigger = verdict.check
        else:
            if verdict.violation:
                probable = self.identify(verdict, snapshot)
            else:
                probable = ProbableFaultSet(frozenset())
            self._session.update(probable)

        if self._session is not None and self._session.is_done:
            outcome = self._session.outcome
            alerts.append(
                BackendAlert(
                    "identification",
                    snapshot.end,
                    check=self._session_trigger,
                    devices=outcome.devices,
                    converged=outcome.converged,
                )
            )
            self._session = None
        self._stage_obs["identification"].observe(time.perf_counter() - t0)
        self._post_window(snapshot, verdict, qbits)
        return WindowOutcome(
            tuple(alerts), verdict.violation, verdict.drift_signal
        )

    def finish_segment(self, end_time: float) -> Optional[BackendAlert]:
        """End-of-segment: conclude an open session with its best guess."""
        if self._session is None:
            return None
        alert = BackendAlert(
            "identification",
            end_time,
            check=self._session_trigger,
            devices=self._session.intersection,
            converged=False,
        )
        self._session = None
        return alert

    # -- batch replay (the differential oracle's other arm) -------------- #

    def batch_twin(self) -> "DetectorBackend":
        """A backend sharing this one's fitted model but with fresh
        transient streaming state — what :meth:`process_batch` drives."""
        raise NotImplementedError

    def process_batch(self, trace: Trace) -> List[BackendAlert]:
        """Replay a segment through the window loop in one batch pass.

        Default implementation: encode the whole segment, then run the
        same :meth:`observe_window` template per window on a fresh twin.
        Backends with a genuinely different batch path (DICE's vectorised
        ``check_many``) override this — that difference is exactly what
        the conformance suite's parity oracle exercises.
        """
        twin = self.batch_twin()
        windowed = twin.encode_window(trace)
        seconds = windowed.window_seconds
        alerts: List[BackendAlert] = []
        for i, (mask, acts) in enumerate(windowed):
            start = windowed.window_start(i)
            window = _BatchWindow(i, start, start + seconds, mask, acts)
            alerts.extend(twin.observe_window(window).alerts)
        last_end = (
            windowed.window_start(len(windowed) - 1) + seconds
            if len(windowed)
            else trace.start
        )
        tail = twin.finish_segment(last_end)
        if tail is not None:
            alerts.append(tail)
        return alerts

    # -- evidence / telemetry ------------------------------------------- #

    def window_evidence(self, snapshot) -> dict:
        """Deterministic JSON evidence for the last checked window."""
        return {
            "window": snapshot.index,
            "start": snapshot.start,
            "end": snapshot.end,
            "mask": format(snapshot.mask, "x"),
            "actuators": sorted(snapshot.actuator_activations),
        }

    def context_summary(self) -> dict:
        """One-line fitted-context summary stamped into provenance."""
        return {"backend": self.name}

    def cache_counters(self) -> Tuple[int, int]:
        """(hits, misses) of whatever per-window memo the backend keeps."""
        return (0, 0)

    #: The underlying :class:`DiceDetector` when this backend has one
    #: (``None`` otherwise); the fleet's shared-context interning and the
    #: context refresher only apply to DICE-backed runtimes.
    dice_detector: Optional[DiceDetector] = None

    #: The live correlation checker for memo pre-warming (``None`` when the
    #: backend has no correlation memo).
    correlation_checker = None

    # -- checkpointing --------------------------------------------------- #

    def state_payload(self) -> Optional[dict]:
        """Backend-private transient state beyond the shared session."""
        return None

    def load_payload(self, payload: Optional[dict]) -> None:
        """Inverse of :meth:`state_payload` (``None`` = fresh state)."""

    def checkpoint_state(self) -> dict:
        """JSON-serializable transient streaming state (flat keys, merged
        into the runtime checkpoint)."""
        state = {
            "session": (
                None if self._session is None else self._session.state_dict()
            ),
            "session_trigger": self._session_trigger,
        }
        payload = self.state_payload()
        if payload is not None:
            state[self.name] = payload
        return state

    def load_state(self, state: dict) -> None:
        session = state["session"]
        self._session = (
            None
            if session is None
            else IdentificationSession.from_state_dict(
                self.config, session, self.weights
            )
        )
        self._session_trigger = state["session_trigger"]
        self.load_payload(state.get(self.name))

    # -- model identity --------------------------------------------------- #

    def fingerprint(self) -> dict:
        """Cheap invariants of the fitted model; checkpoints must match."""
        raise NotImplementedError

    def context_hash(self) -> str:
        """Content hash of the fitted model (fleet manifests record it)."""
        raise NotImplementedError


class DiceBackend(DetectorBackend):
    """The paper's pipeline as the reference backend.

    Wraps a :class:`DiceDetector`; every checker is read through the
    detector on each access, so shared-context interning, copy-on-write
    forks and context refreshes keep working unchanged.  Its transient
    state (previous and anchor group, previous actuator set) checkpoints
    as the ``dice`` payload of the shared backend layout.
    """

    name = "dice"

    def __init__(self, detector: DiceDetector) -> None:
        super().__init__(
            detector.registry,
            detector.config,
            detector.weights,
            metrics=detector.metrics,
        )
        # Share the detector's tracer so spans nest as before.
        self.tracer = detector.tracer
        self.dice_detector = detector
        self._prev_group: Optional[int] = None
        self._anchor_group: Optional[int] = None
        self._prev_acts: FrozenSet[str] = frozenset()
        self._last_check: Tuple[CorrelationResult, tuple] = (
            CorrelationResult(0, None, ()),
            (),
        )

    @property
    def is_fitted(self) -> bool:
        return self.dice_detector.model is not None

    def fit(self, trace: Trace) -> "DiceBackend":
        self.dice_detector.fit(trace)
        return self

    @property
    def encoder(self) -> StateSetEncoder:
        return self.dice_detector._require_fitted().encoder

    @property
    def correlation_checker(self):
        return self.dice_detector._correlation_checker

    # -- checking --------------------------------------------------------- #

    def _check_correlation(self, mask: int, qbits: int) -> CorrelationResult:
        """The correlation check, quarantine-aware.

        With no quarantine active this is the fast memoised/vectorised
        path; while devices are quarantined, Hamming distances are
        computed over the remaining (visible) bits only — still one
        vectorised XOR+AND+popcount pass via ``masked_distances`` — so a
        dead sensor's permanently-zero bits cannot turn every window into
        a correlation violation.  Masked results bypass the memo: they
        depend on the quarantine set, not just the mask.
        """
        checker = self.dice_detector._correlation_checker
        if qbits == 0:
            return checker.check(mask)
        visible = ~qbits
        dists = checker.groups.masked_distances(mask, visible)
        main: Optional[int] = None
        probable: List[Tuple[int, int]] = []
        zero = np.nonzero(dists == 0)[0]
        if len(zero):
            main = int(zero[0])
        near = np.nonzero((dists > 0) & (dists <= checker.max_distance))[0]
        order = np.lexsort((near, dists[near]))
        for g in near[order]:
            probable.append((int(g), int(dists[g])))
        return CorrelationResult(mask & visible, main, tuple(probable))

    def check(self, snapshot, qbits: int = 0) -> WindowVerdict:
        detector = self.dice_detector
        observe = self._stage_obs
        with self.tracer.trace("correlation"):
            t0 = time.perf_counter()
            corr = self._check_correlation(snapshot.mask, qbits)
            observe["correlation"].observe(time.perf_counter() - t0)
        violations: tuple = ()
        if not corr.is_violation:
            with self.tracer.trace("transition"):
                t0 = time.perf_counter()
                violations = tuple(
                    detector._transition_checker.check(
                        self._prev_group,
                        corr.main_group,
                        self._prev_acts,
                        snapshot.actuator_activations,
                    )
                )
                observe["transition"].observe(time.perf_counter() - t0)
        self._last_check = (corr, violations)
        if corr.is_violation:
            return WindowVerdict(
                True,
                CORRELATION_CHECK,
                payload=(corr, violations),
                drift_signal=True,
            )
        if violations:
            return WindowVerdict(
                True,
                TRANSITION_CHECK,
                cases=tuple(v.case for v in violations),
                payload=(corr, violations),
            )
        return WindowVerdict(False, payload=(corr, violations))

    def identify(self, verdict: WindowVerdict, snapshot) -> ProbableFaultSet:
        corr, violations = verdict.payload
        identifier = self.dice_detector._identifier
        if corr.is_violation:
            return identifier.from_correlation_violation(
                corr, self._anchor_group
            )
        return identifier.from_transition_violations(
            violations, snapshot.mask, self._prev_group
        )

    def _post_window(self, snapshot, verdict: WindowVerdict, qbits: int) -> None:
        corr, _ = verdict.payload
        self._prev_group = corr.main_group
        if corr.main_group is not None:
            self._anchor_group = corr.main_group
        self._prev_acts = snapshot.actuator_activations

    # -- batch ------------------------------------------------------------ #

    def batch_twin(self) -> "DiceBackend":
        # A fresh wrap over the same fitted detector: clean transient
        # streaming state, shared trained model.  Used when DICE runs as
        # an ensemble child — the standalone batch path below goes
        # through the vectorised report driver instead.
        return DiceBackend(self.dice_detector)

    def process_batch(self, trace: Trace) -> List[BackendAlert]:
        """The genuinely different arm of the differential oracle: DICE's
        batch driver resolves every correlation check through one
        vectorised ``check_many`` matrix pass, then merges the report back
        into window order."""
        report = self.dice_detector.process(trace, publish=False)
        alerts: List[BackendAlert] = []
        detections = report.detections
        identifications = report.identifications
        di = ii = 0
        while di < len(detections) or ii < len(identifications):
            take_detection = ii >= len(identifications) or (
                di < len(detections)
                and detections[di].window <= identifications[ii].window
            )
            if take_detection:
                r = detections[di]
                di += 1
                alerts.append(
                    BackendAlert(
                        "detection", r.time, check=r.check, cases=r.cases
                    )
                )
            else:
                r = identifications[ii]
                ii += 1
                alerts.append(
                    BackendAlert(
                        "identification",
                        r.time,
                        check=r.triggered_by,
                        devices=r.devices,
                        converged=r.converged,
                    )
                )
        return alerts

    # -- evidence / telemetry --------------------------------------------- #

    def window_evidence(self, snapshot) -> dict:
        from .checks import correlation_evidence, violation_evidence

        detector = self.dice_detector
        corr, violations = self._last_check
        return {
            "window": snapshot.index,
            "start": snapshot.start,
            "end": snapshot.end,
            "mask": format(snapshot.mask, "x"),
            "actuators": sorted(snapshot.actuator_activations),
            "correlation": correlation_evidence(
                corr, detector._correlation_checker.max_distance
            ),
            "transitions": [
                violation_evidence(detector.model.transitions, v)
                for v in violations
            ],
        }

    def context_summary(self) -> dict:
        return self.dice_detector.context_summary()

    def cache_counters(self) -> Tuple[int, int]:
        checker = self.dice_detector._correlation_checker
        return (checker.cache_hits, checker.cache_misses)

    # -- checkpointing ----------------------------------------------------- #

    def state_payload(self) -> dict:
        return {
            "prev_group": self._prev_group,
            "anchor_group": self._anchor_group,
            "prev_acts": sorted(self._prev_acts),
        }

    def load_payload(self, payload: dict) -> None:
        self._prev_group = payload["prev_group"]
        self._anchor_group = payload["anchor_group"]
        self._prev_acts = frozenset(payload["prev_acts"])

    # -- model identity ----------------------------------------------------- #

    def fingerprint(self) -> dict:
        model = self.dice_detector.model
        if model is None:
            raise ValueError("detector must be fitted")
        return {
            "num_bits": model.encoder.layout.num_bits,
            "num_groups": len(model.groups),
            "window_seconds": model.encoder.window_seconds,
            "num_devices": len(self.registry),
        }

    def context_hash(self) -> str:
        from .context import context_hash

        detector = self.dice_detector
        return detector._interned_hash or context_hash(detector)


class MarkovBackend(DetectorBackend):
    """Per-device Markov-process transition detector.

    A restriction of DICE's transition check: each device gets its own
    state chain (a binary sensor's window state is its activation bit, a
    numeric sensor's its three derived bits, an actuator's its per-window
    activation), and a window violates when any device takes a transition
    whose training count is zero while its source state is trusted
    (``min_row_observations``).  No cross-device context is extracted —
    which is exactly what makes it a useful baseline for the paper's
    correlated-group claim.
    """

    name = "markov"

    def __init__(
        self,
        registry: DeviceRegistry,
        config: DiceConfig = DEFAULT_CONFIG,
        weights: Optional[DeviceWeights] = None,
        metrics: Optional["telemetry.MetricsRegistry"] = None,
    ) -> None:
        super().__init__(registry, config, weights, metrics=metrics)
        self._encoder: Optional[StateSetEncoder] = None
        self._chains: Optional[Dict[str, TransitionMatrix]] = None
        self._training_windows = 0
        self._sensor_ids: Tuple[str, ...] = ()
        self._actuator_ids: Tuple[str, ...] = ()
        self._device_order: Tuple[str, ...] = ()
        self._prev_states: Dict[str, Optional[int]] = {}
        self._last_violating: Tuple[str, ...] = ()

    @property
    def is_fitted(self) -> bool:
        return self._chains is not None

    @property
    def encoder(self) -> StateSetEncoder:
        if self._encoder is None:
            raise RuntimeError("backend not fitted; call fit() first")
        return self._encoder

    def fit(self, trace: Trace) -> "MarkovBackend":
        encoder = StateSetEncoder(self.registry, self.config.window_seconds)
        encoder.fit(trace)
        self._encoder = encoder
        self._sensor_ids = tuple(
            sorted(
                d.device_id
                for d in self.registry
                if not d.is_actuator
            )
        )
        self._actuator_ids = tuple(
            sorted(d.device_id for d in self.registry if d.is_actuator)
        )
        self._device_order = self._sensor_ids + self._actuator_ids
        chains = {device: TransitionMatrix() for device in self._device_order}
        prev: Optional[Dict[str, int]] = None
        windowed = encoder.encode(trace)
        for mask, acts in windowed:
            states = self._window_states(mask, acts)
            if prev is not None:
                for device, cur in states.items():
                    chains[device].observe(prev[device], cur)
            prev = states
        self._chains = chains
        self._training_windows = len(windowed)
        self._prev_states = {}
        return self

    def _window_states(self, mask: int, acts: FrozenSet[str]) -> Dict[str, int]:
        """Each tracked device's window state (sensor bits / activation)."""
        layout = self.encoder.layout
        states: Dict[str, int] = {}
        for device in self._sensor_ids:
            state = 0
            for k, bit in enumerate(layout.bits_of_device(device)):
                state |= ((mask >> bit) & 1) << k
            states[device] = state
        for device in self._actuator_ids:
            states[device] = 1 if device in acts else 0
        return states

    def check(self, snapshot, qbits: int = 0) -> WindowVerdict:
        self._require_fitted()
        with self.tracer.trace("transition"):
            t0 = time.perf_counter()
            layout = self.encoder.layout
            states: Dict[str, Optional[int]] = dict(
                self._window_states(snapshot.mask, snapshot.actuator_activations)
            )
            if qbits:
                # Quarantined sensors are unknowns: no violation can be
                # charged to (or through) their masked bits.
                for device in self._sensor_ids:
                    if any(
                        (qbits >> bit) & 1
                        for bit in layout.bits_of_device(device)
                    ):
                        states[device] = None
            min_row = self.config.min_row_observations
            violating: List[str] = []
            for device in self._device_order:
                cur = states[device]
                prev = self._prev_states.get(device)
                if prev is None or cur is None:
                    continue
                chain = self._chains[device]
                if (
                    chain.row_total(prev) >= min_row
                    and chain.count(prev, cur) == 0
                ):
                    violating.append(device)
            self._stage_obs["transition"].observe(time.perf_counter() - t0)
        self._last_violating = tuple(violating)
        payload = (tuple(violating), states)
        if violating:
            return WindowVerdict(True, MARKOV_CHECK, payload=payload)
        return WindowVerdict(False, payload=payload)

    def identify(self, verdict: WindowVerdict, snapshot) -> ProbableFaultSet:
        violating, _states = verdict.payload
        return ProbableFaultSet(frozenset(violating))

    def _post_window(self, snapshot, verdict: WindowVerdict, qbits: int) -> None:
        _violating, states = verdict.payload
        self._prev_states = dict(states)

    def _require_fitted(self) -> None:
        if self._chains is None:
            raise RuntimeError("backend not fitted; call fit() first")

    # -- batch ------------------------------------------------------------ #

    def batch_twin(self) -> "MarkovBackend":
        twin = MarkovBackend(
            self.registry, self.config, self.weights, metrics=self.metrics
        )
        twin._encoder = self._encoder
        twin._chains = self._chains
        twin._training_windows = self._training_windows
        twin._sensor_ids = self._sensor_ids
        twin._actuator_ids = self._actuator_ids
        twin._device_order = self._device_order
        return twin

    # -- evidence / telemetry --------------------------------------------- #

    def window_evidence(self, snapshot) -> dict:
        evidence = super().window_evidence(snapshot)
        evidence["markov"] = {"violations": sorted(self._last_violating)}
        return evidence

    def context_summary(self) -> dict:
        self._require_fitted()
        return {
            "backend": self.name,
            "chains": len(self._chains),
            "training_windows": self._training_windows,
        }

    # -- checkpointing ----------------------------------------------------- #

    def state_payload(self) -> Optional[dict]:
        return {"prev": dict(sorted(self._prev_states.items()))}

    def load_payload(self, payload: Optional[dict]) -> None:
        self._prev_states = dict(payload["prev"]) if payload else {}

    # -- model identity ----------------------------------------------------- #

    def fingerprint(self) -> dict:
        if self._chains is None:
            raise ValueError("detector must be fitted")
        return {
            "backend": self.name,
            "num_bits": self.encoder.layout.num_bits,
            "window_seconds": self.encoder.window_seconds,
            "num_devices": len(self.registry),
            "num_chains": len(self._chains),
        }

    def context_hash(self) -> str:
        self._require_fitted()
        digest = hashlib.blake2b(digest_size=16)
        digest.update(repr(self.encoder.window_seconds).encode())
        digest.update(repr(self._device_order).encode())
        thresholds = self.encoder._value_thresholds
        if thresholds is not None:
            digest.update(repr(thresholds.tolist()).encode())
        for device in self._device_order:
            chain = self._chains[device]
            for row in sorted(chain._counts):
                for col, count in sorted(chain._counts[row].items()):
                    digest.update(
                        f"{device}:{row}->{col}={count};".encode()
                    )
        return digest.hexdigest()


class EnsembleBackend(DetectorBackend):
    """N child backends voting on alerts with a configurable quorum.

    Every child observes every window (quarantine bits included); the
    ensemble raises a detection when at least ``quorum`` children detect
    in the same window, and an identification when at least ``quorum``
    children conclude one in the same window — blaming the devices named
    by at least ``quorum`` of those concluding children.  A single noisy
    child can therefore never dominate a quorum of two or more.
    """

    name = "ensemble"

    #: Child backends of the default registered ensemble.
    DEFAULT_CHILDREN = ("dice", "markov")
    DEFAULT_QUORUM = 2

    def __init__(
        self,
        registry: DeviceRegistry,
        config: DiceConfig = DEFAULT_CONFIG,
        weights: Optional[DeviceWeights] = None,
        metrics: Optional["telemetry.MetricsRegistry"] = None,
        *,
        children: Optional[Sequence[DetectorBackend]] = None,
        quorum: Optional[int] = None,
    ) -> None:
        super().__init__(registry, config, weights, metrics=metrics)
        if children is None:
            children = [
                create_backend(
                    name, registry, config, weights=weights, metrics=metrics
                )
                for name in self.DEFAULT_CHILDREN
            ]
        self.children: List[DetectorBackend] = list(children)
        if not self.children:
            raise ValueError("ensemble needs at least one child backend")
        self.quorum = self.DEFAULT_QUORUM if quorum is None else int(quorum)
        if not 1 <= self.quorum <= len(self.children):
            raise ValueError(
                f"quorum must be in [1, {len(self.children)}], "
                f"got {self.quorum}"
            )

    @property
    def is_fitted(self) -> bool:
        return all(child.is_fitted for child in self.children)

    @property
    def encoder(self) -> StateSetEncoder:
        # All children fit the same deterministic encoding on the same
        # training trace, so the first child's encoder drives the windower
        # for everyone.
        return self.children[0].encoder

    def fit(self, trace: Trace) -> "EnsembleBackend":
        for child in self.children:
            child.fit(trace)
        return self

    # -- voting ----------------------------------------------------------- #

    def observe_window(self, snapshot, qbits: int = 0) -> WindowOutcome:
        detect_votes = 0
        ident_votes: List[BackendAlert] = []
        drift_votes = 0
        violation_votes = 0
        for child in self.children:
            outcome = child.observe_window(snapshot, qbits)
            if any(a.kind == "detection" for a in outcome.alerts):
                detect_votes += 1
            concluded = [
                a for a in outcome.alerts if a.kind == "identification"
            ]
            if concluded:
                ident_votes.append(concluded[-1])
            if outcome.violation:
                violation_votes += 1
            if outcome.drift_signal:
                drift_votes += 1
        alerts: List[BackendAlert] = []
        if detect_votes >= self.quorum:
            alerts.append(
                BackendAlert("detection", snapshot.end, check=ENSEMBLE_CHECK)
            )
        if len(ident_votes) >= self.quorum:
            alerts.append(
                BackendAlert(
                    "identification",
                    snapshot.end,
                    check=ENSEMBLE_CHECK,
                    devices=self._vote_devices(ident_votes),
                    converged=(
                        sum(1 for a in ident_votes if a.converged)
                        >= self.quorum
                    ),
                )
            )
        return WindowOutcome(
            tuple(alerts),
            violation_votes >= self.quorum,
            drift_votes >= self.quorum,
        )

    def _vote_devices(
        self, ident_votes: Sequence[BackendAlert]
    ) -> FrozenSet[str]:
        counts: Dict[str, int] = {}
        for alert in ident_votes:
            for device in alert.devices:
                counts[device] = counts.get(device, 0) + 1
        return frozenset(
            device for device, votes in counts.items() if votes >= self.quorum
        )

    def finish_segment(self, end_time: float) -> Optional[BackendAlert]:
        tails = [child.finish_segment(end_time) for child in self.children]
        votes = [tail for tail in tails if tail is not None]
        if len(votes) < self.quorum:
            return None
        return BackendAlert(
            "identification",
            end_time,
            check=ENSEMBLE_CHECK,
            devices=self._vote_devices(votes),
            converged=False,
        )

    # -- batch ------------------------------------------------------------ #

    def batch_twin(self) -> "EnsembleBackend":
        return EnsembleBackend(
            self.registry,
            self.config,
            self.weights,
            metrics=self.metrics,
            children=[child.batch_twin() for child in self.children],
            quorum=self.quorum,
        )

    # -- evidence / telemetry --------------------------------------------- #

    def context_summary(self) -> dict:
        return {
            "backend": self.name,
            "quorum": self.quorum,
            "children": [child.name for child in self.children],
        }

    def cache_counters(self) -> Tuple[int, int]:
        hits = misses = 0
        for child in self.children:
            h, m = child.cache_counters()
            hits += h
            misses += m
        return (hits, misses)

    # -- checkpointing ----------------------------------------------------- #

    def checkpoint_state(self) -> dict:
        return {
            "ensemble": {
                "quorum": self.quorum,
                "children": [
                    {"name": child.name, "state": child.checkpoint_state()}
                    for child in self.children
                ],
            }
        }

    def load_state(self, state: dict) -> None:
        payload = state.get("ensemble")
        if payload is None:
            return
        entries = payload.get("children", [])
        if len(entries) != len(self.children):
            raise ValueError(
                f"ensemble checkpoint has {len(entries)} children, "
                f"runtime has {len(self.children)}"
            )
        for entry, child in zip(entries, self.children):
            if entry.get("name") != child.name:
                raise ValueError(
                    f"ensemble child mismatch: checkpoint has "
                    f"{entry.get('name')!r}, runtime has {child.name!r}"
                )
            child.load_state(entry["state"])

    # -- model identity ----------------------------------------------------- #

    def fingerprint(self) -> dict:
        return {
            "backend": self.name,
            "quorum": self.quorum,
            "children": [child.fingerprint() for child in self.children],
        }

    def context_hash(self) -> str:
        digest = hashlib.blake2b(digest_size=16)
        digest.update(f"quorum={self.quorum};".encode())
        for child in self.children:
            digest.update(f"{child.name}:{child.context_hash()};".encode())
        return digest.hexdigest()


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #

BackendFactory = Callable[..., DetectorBackend]

_BACKENDS: Dict[str, BackendFactory] = {}


def register_backend(name: str, factory: BackendFactory) -> None:
    """Register a backend constructor under *name* (overwrites allowed, so
    tests can shadow a backend and restore it)."""
    _BACKENDS[name] = factory


def available_backends() -> Tuple[str, ...]:
    """Registered backend names, sorted for stable error messages."""
    return tuple(sorted(_BACKENDS))


def create_backend(
    name: Optional[str],
    registry: DeviceRegistry,
    config: DiceConfig = DEFAULT_CONFIG,
    *,
    weights: Optional[DeviceWeights] = None,
    metrics: Optional["telemetry.MetricsRegistry"] = None,
) -> DetectorBackend:
    """Instantiate a registered backend (unfitted).

    ``name=None`` selects ``config.backend``.  An unknown name raises
    ``ValueError`` with one line naming the valid backends — the CLI
    surfaces it verbatim and exits 2.
    """
    if name is None:
        name = config.backend
    factory = _BACKENDS.get(name)
    if factory is None:
        valid = ", ".join(available_backends())
        raise ValueError(f"unknown backend {name!r}; valid backends: {valid}")
    return factory(registry, config, weights=weights, metrics=metrics)


def as_backend(obj) -> DetectorBackend:
    """Coerce a detector-or-backend into a :class:`DetectorBackend`.

    A :class:`DiceDetector` is wrapped in a fresh :class:`DiceBackend`
    (each wrap carries its own transient streaming state, exactly like the
    pre-backend runtime kept that state per-runtime); a backend passes
    through unchanged.
    """
    if isinstance(obj, DetectorBackend):
        return obj
    if isinstance(obj, DiceDetector):
        return DiceBackend(obj)
    raise TypeError(
        f"expected a DetectorBackend or DiceDetector, got {type(obj).__name__}"
    )


def _dice_factory(registry, config=DEFAULT_CONFIG, *, weights=None, metrics=None):
    return DiceBackend(DiceDetector(registry, config, weights, metrics=metrics))


def _markov_factory(registry, config=DEFAULT_CONFIG, *, weights=None, metrics=None):
    return MarkovBackend(registry, config, weights, metrics=metrics)


def _ensemble_factory(registry, config=DEFAULT_CONFIG, *, weights=None, metrics=None):
    return EnsembleBackend(registry, config, weights, metrics=metrics)


register_backend("dice", _dice_factory)
register_backend("markov", _markov_factory)
register_backend("ensemble", _ensemble_factory)

# The config-side name list must cover the built-in registry, so a bad
# ``DiceConfig(backend=...)`` fails at construction with the same message
# shape as ``create_backend``.
assert set(KNOWN_BACKENDS) == set(_BACKENDS), (
    "KNOWN_BACKENDS out of sync with the backend registry"
)
