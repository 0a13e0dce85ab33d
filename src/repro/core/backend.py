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
* ``check_windows(windowed, timings)`` — optional batch-check hook: a
  whole segment's verdicts in one call (DICE: one vectorised
  ``check_many``); without it a segment is checked window by window;
* ``identify(verdict, snapshot)`` — the probable-faulty device set a
  violating window contributes to the shared identification session.  It
  reads what it needs from the verdict: on the batch path the backend's
  streaming state has already moved past the window;
* ``checkpoint_state()`` / ``load_state(state)`` — JSON round-trip of the
  backend's transient streaming state (the fitted model is *not* included,
  mirroring the runtime checkpoint contract);
* ``context_hash()`` — a content hash of the fitted model, the one
  identity a checkpoint records, so a restore onto any other model is
  refused.

Three backends register here:

* ``dice`` — the paper's pipeline, byte-identical to every golden fixture
  that predates the backend seam;
* ``markov`` — a per-device Markov-process transition detector (the WSN
  anomaly-framework restriction of DICE's transition check): one state
  chain per device, a violation whenever a device takes a transition never
  observed in training;
* ``ensemble`` — N child backends voting on alerts with a quorum.

The five Table 2.1 comparators register in :mod:`repro.core.comparators`.

The base class owns the only detect-then-identify loop (§3.3-3.4,
Fig. 3.2): :meth:`DetectorBackend.observe_window` runs it on one streamed
window, :meth:`DetectorBackend.run_segment` on a whole batch segment.
Every registered backend is automatically run through the conformance
suite in ``tests/backends/``.
"""

from __future__ import annotations

import functools
import hashlib
import time
from dataclasses import dataclass
from types import MappingProxyType
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from .. import telemetry
from ..model import DeviceRegistry, Trace
from .checks import CorrelationResult, TransitionCase
from .config import DEFAULT_CONFIG, MIN_ROW_OBSERVATIONS, DiceConfig
from .detector import (
    CORRELATION_CHECK,
    STAGE_SECONDS_HISTOGRAM,
    TRANSITION_CHECK,
    DiceDetector,
    StageTimings,
)
from .encoding import StateSetEncoder, WindowedTrace
from .identification import IdentificationSession, ProbableFaultSet
from .transitions import TransitionMatrix, _pairs_in_order
from .weights import DeviceWeights

#: Check labels for the non-DICE backends (DICE keeps the paper's
#: "correlation"/"transition").
MARKOV_CHECK = "markov"
ENSEMBLE_CHECK = "ensemble"


@dataclass(frozen=True)
class BackendAlert:
    """One alert the detect-then-identify loop raises at the end of its
    deciding window.  An identification also carries its session's
    ``windows_used`` and whether a criticality weight fired it early
    (Ch. VI); the streaming :class:`~repro.streaming.Alert` drops both."""

    kind: str  # "detection" or "identification"
    time: float
    check: Optional[str] = None
    cases: Tuple[TransitionCase, ...] = ()
    devices: FrozenSet[str] = frozenset()
    converged: bool = True
    windows_used: int = 0
    weighted_early: bool = False


class WindowVerdict(NamedTuple):
    """One window's check outcome.

    ``payload`` is backend-private evidence (whatever ``identify`` and
    ``window_evidence`` need); ``drift_signal`` feeds the context-refresh
    drift monitor and is deliberately distinct from ``violation`` — for
    DICE only *correlation* violations indicate drifted contexts.  A named
    tuple: one is built per streamed window, too often for a dataclass.
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


#: The window means of a window nobody computed them for.
_NO_MEANS: Mapping[str, float] = MappingProxyType({})


class _BatchWindow(NamedTuple):
    """Duck-typed window snapshot for the batch path (kept local so
    ``repro.core`` never imports ``repro.streaming``)."""

    index: int
    start: float
    end: float
    mask: int
    actuator_activations: FrozenSet[str] = frozenset()
    means: Mapping[str, float] = _NO_MEANS


class _SegmentWindows:
    """A segment's :class:`_BatchWindow` snapshots, built on demand (the
    loop only looks at windows that alert or feed identify)."""

    def __init__(self, windowed: WindowedTrace) -> None:
        self.windowed = windowed

    def __getitem__(self, i: int) -> _BatchWindow:
        w = self.windowed
        start = w.window_start(i)
        end = start + w.window_seconds
        means = _NO_MEANS if w.means is None else w.means[i]
        return _BatchWindow(
            i, start, end, w.masks[i], w.actuator_activations[i], means
        )


#: What a window without a violation feeds an open session (§3.4).
_NO_EVIDENCE = ProbableFaultSet(frozenset())

#: DICE's batch verdict for a window without a violation: nothing reads
#: its payload, so every such window shares it.
_PASS = WindowVerdict(False)

#: DICE's correlation result for a window with every sensor quarantined:
#: no main group, and nothing checked.
_BLIND = CorrelationResult(0, None, ())


class DetectorBackend:
    """Base class: the detect-then-identify loop plus the checkpoint
    plumbing; subclasses supply ``fit``/``check``/``identify``.

    :meth:`_session_loop` is *the* semantics the batch path and the
    streaming runtime agree on — subclassing it is what makes
    streaming==batch parity hold for free for a new backend.
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
        self._session: Optional[IdentificationSession] = None
        self._session_trigger: str = CORRELATION_CHECK

    @functools.cached_property
    def stage_clock(self) -> dict:
        """The streamed path's per-window timers: the ``correlation``,
        ``transition`` and ``identification`` children of
        ``dice_stage_seconds``.  Resolved on first use, so a segment
        checked in one :meth:`check_windows` pass never creates them."""
        stage_hist = self.metrics.histogram(
            STAGE_SECONDS_HISTOGRAM,
            "Wall-clock seconds per streamed window, by real-time stage",
            labelnames=("stage",),
        )
        return {
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

    def check_windows(
        self, windowed: WindowedTrace, timings: StageTimings
    ) -> Optional[List[WindowVerdict]]:
        """Batch-check hook: every window's verdict in one call, advancing
        the streaming state past the whole segment (so ``identify`` must
        read what it needs from the verdict).  ``None``, the default: the
        backend checks one window at a time with :meth:`check`."""
        return None

    def identify(self, verdict: WindowVerdict, snapshot) -> ProbableFaultSet:
        """Probable faulty devices a violating window contributes (§3.4)."""
        raise NotImplementedError

    def _post_window(self, snapshot, verdict: WindowVerdict, qbits: int) -> None:
        """Hook: advance backend streaming state after a window concludes."""

    def _session_loop(
        self, windows, verdicts: Sequence[WindowVerdict]
    ) -> Tuple[List[BackendAlert], float]:
        """The paper's real-time state machine over a run of checked windows.

        A violation with no session open raises a detection and opens an
        identification session; while a session is open every window feeds
        it probable-faulty evidence (§3.4: fresh detections are skipped); a
        converged (or exhausted) session concludes with an identification.
        ``windows[i]`` is looked up only for a window that alerts or feeds
        :meth:`identify`.  Returns the alerts and the seconds spent in
        ``identify`` and the session.
        """
        alerts: List[BackendAlert] = []
        session = self._session
        trigger = self._session_trigger
        clock = time.perf_counter
        spent = 0.0
        for i, verdict in enumerate(verdicts):
            if session is None:
                if not verdict.violation:
                    continue
                window = windows[i]
                alerts.append(
                    BackendAlert("detection", window.end, verdict.check, verdict.cases)
                )
                t0 = clock()
                session = IdentificationSession(
                    self.config, self.identify(verdict, window), self.weights
                )
                spent += clock() - t0
                trigger = verdict.check
            else:
                t0 = clock()
                session.update(
                    self.identify(verdict, windows[i])
                    if verdict.violation
                    else _NO_EVIDENCE
                )
                spent += clock() - t0
            if session.is_done:
                outcome = session.outcome
                alerts.append(
                    BackendAlert(
                        "identification",
                        windows[i].end,
                        check=trigger,
                        devices=outcome.devices,
                        converged=outcome.converged,
                        windows_used=outcome.windows_used,
                        weighted_early=outcome.weighted_early,
                    )
                )
                session = None
        self._session = session
        self._session_trigger = trigger
        return alerts, spent

    def observe_window(self, snapshot, qbits: int = 0) -> WindowOutcome:
        """Check one streamed window and run it through the loop.  The
        identification clock observes only a window that opened or fed an
        identification session."""
        verdict = self.check(snapshot, qbits)
        identifying = verdict.violation or self._session is not None
        alerts, seconds = self._session_loop((snapshot,), (verdict,))
        if identifying:
            self.stage_clock["identification"].observe(seconds)
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
            windows_used=self._session.windows_used,
        )
        self._session = None
        return alert

    # -- batch segments -------------------------------------------------- #

    def run_segment(
        self, windowed: WindowedTrace, timings: StageTimings
    ) -> List[BackendAlert]:
        """A whole segment through the loop, then the tail flush: checked
        in one :meth:`check_windows` call when the backend has one, else
        window by window (:meth:`stream_segment`).  Adds the window count
        and the identification seconds to *timings*."""
        timings.windows += len(windowed)
        verdicts = self.check_windows(windowed, timings)
        if verdicts is None:
            return self.stream_segment(windowed)
        alerts, seconds = self._session_loop(_SegmentWindows(windowed), verdicts)
        timings.identification_s += seconds
        return self._flush(windowed, alerts)

    def stream_segment(self, windowed: WindowedTrace) -> List[BackendAlert]:
        """A segment window by window through :meth:`observe_window` (the
        streamed path), then the tail flush."""
        windows = _SegmentWindows(windowed)
        alerts: List[BackendAlert] = []
        for i in range(len(windowed)):
            alerts.extend(self.observe_window(windows[i]).alerts)
        return self._flush(windowed, alerts)

    def _flush(
        self, windowed: WindowedTrace, alerts: List[BackendAlert]
    ) -> List[BackendAlert]:
        # The segment ends where its last window does.
        end = windowed.window_start(len(windowed) - 1) + windowed.window_seconds
        tail = self.finish_segment(end)
        if tail is not None:
            alerts.append(tail)
        return alerts

    def batch_twin(self) -> "DetectorBackend":
        """A backend sharing this one's fitted model but with fresh
        transient streaming state — what :meth:`process_batch` drives."""
        raise NotImplementedError

    def process_batch(self, trace: Trace) -> List[BackendAlert]:
        """Encode a segment and run it through :meth:`run_segment` on a
        fresh twin (the batch arm of the differential oracle)."""
        twin = self.batch_twin()
        return twin.run_segment(twin.encode_window(trace), StageTimings())

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

    def load_payload(self, payload: dict) -> None:
        """Inverse of :meth:`state_payload`."""

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
        if self.state_payload() is not None:
            # A backend that writes a payload needs it back: a snapshot
            # without one is corrupt, not a fresh start.
            self.load_payload(state[self.name])

    # -- model identity --------------------------------------------------- #

    def context_hash(self) -> str:
        """Content hash of the fitted model (checkpoints record it)."""
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

    #: Whether the transition check runs (``correlation-only`` drops it).
    checks_transitions = True

    def __init__(self, detector: DiceDetector) -> None:
        super().__init__(
            detector.registry,
            detector.config,
            detector.weights,
            metrics=detector.metrics,
        )
        self.dice_detector = detector
        self._prev_group: Optional[int] = None
        self._anchor_group: Optional[int] = None
        self._prev_acts: FrozenSet[str] = frozenset()
        self._last_check: Tuple[CorrelationResult, tuple] = (_BLIND, ())

    @classmethod
    def create(
        cls, registry, config=DEFAULT_CONFIG, *, weights=None, metrics=None
    ) -> "DiceBackend":
        """Registry factory: this backend over a fresh :class:`DiceDetector`."""
        return cls(DiceDetector(registry, config, weights, metrics=metrics))

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

        With no quarantine active this is the memoised check; while devices
        are quarantined, Hamming distances count the remaining (visible)
        bits only, so a dead sensor's permanently-zero bits cannot turn
        every window into a correlation violation.  Masked results bypass
        the memo: they depend on the quarantine set, not just the mask.
        """
        checker = self.dice_detector._correlation_checker
        if qbits == 0:
            return checker.check(mask)
        return checker.scan(mask, ~qbits)

    def check(self, snapshot, qbits: int = 0) -> WindowVerdict:
        detector = self.dice_detector
        if qbits and not ~qbits & ((1 << self.encoder.layout.num_bits) - 1):
            # Every sensor bit is quarantined, so no evidence is left and
            # no check runs.  The next window then has no previous group;
            # the anchor group stays.
            self._last_check = (_BLIND, ())
            return WindowVerdict(
                False, payload=(_BLIND, (), self._prev_group, self._anchor_group)
            )
        observe = self.stage_clock
        t0 = time.perf_counter()
        corr = self._check_correlation(snapshot.mask, qbits)
        observe["correlation"].observe(time.perf_counter() - t0)
        violations: tuple = ()
        if not corr.is_violation and self.checks_transitions:
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
        # The verdict carries the groups identify uses: on the batch path
        # the streaming state has moved on by the time identify runs.
        payload = (corr, violations, self._prev_group, self._anchor_group)
        if corr.is_violation:
            return WindowVerdict(
                True, CORRELATION_CHECK, payload=payload, drift_signal=True
            )
        if violations:
            return WindowVerdict(
                True,
                TRANSITION_CHECK,
                cases=tuple(v.case for v in violations),
                payload=payload,
            )
        return WindowVerdict(False, payload=payload)

    def check_windows(
        self, windowed: WindowedTrace, timings: StageTimings
    ) -> List[WindowVerdict]:
        """The segment's correlation checks in one vectorised
        ``check_many`` matrix pass, then the per-window transition checks.
        A window without a violation shares one payload-free verdict."""
        checker = self.dice_detector._correlation_checker
        transition_check = self.dice_detector._transition_checker.check
        clock = time.perf_counter
        hits, misses = checker.cache_hits, checker.cache_misses
        t0 = clock()
        results = checker.check_many(windowed.masks)
        timings.correlation_s += clock() - t0
        timings.correlation_cache_hits += checker.cache_hits - hits
        timings.correlation_cache_misses += checker.cache_misses - misses
        # The anchor is the last main group: identify prunes probable
        # groups by their transition probability from it, and it stays
        # valid across a run of violating windows.
        prev_group, anchor_group, prev_acts = (
            self._prev_group, self._anchor_group, self._prev_acts
        )
        verdicts: List[WindowVerdict] = []
        t0 = clock()
        for corr, acts in zip(results, windowed.actuator_activations):
            group = corr.main_group
            if group is None:
                payload = (corr, (), prev_group, anchor_group)
                verdict = WindowVerdict(True, CORRELATION_CHECK, (), payload, True)
            else:
                violations = transition_check(prev_group, group, prev_acts, acts)
                verdict = _PASS
                if violations:
                    violations = tuple(violations)
                    cases = tuple(v.case for v in violations)
                    payload = (corr, violations, prev_group, anchor_group)
                    verdict = WindowVerdict(True, TRANSITION_CHECK, cases, payload)
                anchor_group = group
            verdicts.append(verdict)
            prev_group, prev_acts = group, acts
        timings.transition_s += clock() - t0
        self._prev_group, self._anchor_group, self._prev_acts = (
            prev_group, anchor_group, prev_acts
        )
        return verdicts

    def identify(self, verdict: WindowVerdict, snapshot) -> ProbableFaultSet:
        corr, violations, prev_group, anchor_group = verdict.payload
        identifier = self.dice_detector._identifier
        if corr.is_violation:
            return identifier.from_correlation_violation(corr, anchor_group)
        return identifier.from_transition_violations(
            violations, snapshot.mask, prev_group
        )

    def _post_window(self, snapshot, verdict: WindowVerdict, qbits: int) -> None:
        corr = verdict.payload[0]
        self._prev_group = corr.main_group
        if corr.main_group is not None:
            self._anchor_group = corr.main_group
        self._prev_acts = snapshot.actuator_activations

    # -- batch ------------------------------------------------------------ #

    def batch_twin(self) -> "DiceBackend":
        # A fresh wrap over the same fitted detector: clean transient
        # streaming state, shared trained model.
        return type(self)(self.dice_detector)

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
    (``MIN_ROW_OBSERVATIONS``).  No cross-device context is extracted —
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
        words = encoder.encode_words(trace)
        activations = encoder._actuator_activations(trace, len(words))
        chains = {}
        for device, states in zip(
            self._device_order, self._training_states(words, activations)
        ):
            # Each distinct (previous, current) pair counted once and
            # inserted in order of first appearance, as one observe() per
            # window would.
            chain = chains[device] = TransitionMatrix()
            for prev, cur, count in _pairs_in_order(
                states[:-1], states[1:], int(states.max(initial=0)) + 1
            ):
                chain.observe(prev, cur, count)
        self._chains = chains
        self._training_windows = len(words)
        self._prev_states = {}
        return self

    def _training_states(
        self, words: np.ndarray, activations: Sequence[FrozenSet[str]]
    ) -> List[np.ndarray]:
        """Per device in ``_device_order``, its state in every window: a
        sensor's bits packed in layout order (as :meth:`_window_states`
        packs them), an actuator's activation."""
        layout = self.encoder.layout
        states = []
        for device in self._sensor_ids:
            state = np.zeros(len(words), dtype=np.int64)
            for k, bit in enumerate(layout.bits_of_device(device)):
                column = words[:, bit >> 6] >> np.uint64(bit & 63) & np.uint64(1)
                state |= column.astype(np.int64) << k
            states.append(state)
        # The windows' activation sets are interned: test membership once
        # per distinct set.
        kinds = {acts: k for k, acts in enumerate(dict.fromkeys(activations))}
        kind_of = np.fromiter(
            map(kinds.__getitem__, activations), dtype=np.int64, count=len(words)
        )
        for device in self._actuator_ids:
            member = np.array([device in acts for acts in kinds], dtype=np.int64)
            states.append(member[kind_of])
        return states

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
        violating: List[str] = []
        for device in self._device_order:
            cur = states[device]
            prev = self._prev_states.get(device)
            if prev is None or cur is None:
                continue
            chain = self._chains[device]
            if (
                chain.row_total(prev) >= MIN_ROW_OBSERVATIONS
                and chain.count(prev, cur) == 0
            ):
                violating.append(device)
        self.stage_clock["transition"].observe(time.perf_counter() - t0)
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

    def load_payload(self, payload: dict) -> None:
        self._prev_states = dict(payload["prev"])

    # -- model identity ----------------------------------------------------- #

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
        entries = state["ensemble"]["children"]
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
    name: str,
    registry: DeviceRegistry,
    config: DiceConfig = DEFAULT_CONFIG,
    *,
    weights: Optional[DeviceWeights] = None,
    metrics: Optional["telemetry.MetricsRegistry"] = None,
) -> DetectorBackend:
    """Instantiate a registered backend (unfitted).

    An unknown name raises ``ValueError`` with one line naming the valid
    backends — the CLI surfaces it verbatim and exits 2.
    """
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


register_backend("dice", DiceBackend.create)
register_backend("markov", MarkovBackend)
register_backend("ensemble", EnsembleBackend)
