"""The Table 2.1 comparators as detector backends.

The paper argues that single-check and per-device monitors miss what DICE
catches (Table 2.1, Fig. 5.4).  Five comparators make the claim
measurable (experiment E12), and as registered backends they stream,
checkpoint, run in fleets and pass the conformance suite like any other:

* ``correlation-only`` and ``markov-only`` — DICE with one check removed.
  They reuse DICE's fitted model, context interning and refresh, and
  identify through §3.4's narrowing session; they check one window at a
  time.  ``correlation-only`` notices only unseen sensor combinations;
  ``markov-only`` is a 6thSense-style transition monitor that maps an
  unseen state set to its nearest group instead of flagging it.
* ``majority-vote``, ``timeseries-ar`` and ``clean-lcs`` — the WSN and
  outlier families of §2.2-2.3, on :class:`WindowComparator`.  They have
  no narrowing step: a violating window raises a detection and an
  identification naming the devices that window blames.
"""

from __future__ import annotations

import copy
import hashlib
import json
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..model import Trace
from .backend import (
    BackendAlert,
    DetectorBackend,
    DiceBackend,
    WindowOutcome,
    WindowVerdict,
    register_backend,
)
from .bitset import mask_from_bits
from .checks import CorrelationResult
from .config import DEFAULT_CONFIG
from .encoding import StateSetEncoder, WindowedTrace


class CorrelationOnlyBackend(DiceBackend):
    """DICE without its transition check."""

    name = "correlation-only"
    checks_transitions = False

    def check_windows(self, windowed, timings) -> None:
        return None


class MarkovOnlyBackend(DiceBackend):
    """DICE without its correlation check: each window maps to its exact
    or else its nearest group, and only the transition check can fire."""

    name = "markov-only"

    #: The nearest-group lookup never reads the correlation memo, so
    #: there is nothing to warm.
    correlation_checker = None

    def check_windows(self, windowed, timings) -> None:
        return None

    def _check_correlation(self, mask: int, qbits: int) -> CorrelationResult:
        groups = self.dice_detector.model.groups
        nearest = None if qbits else groups.lookup(mask)
        if nearest is None:
            # Lowest group id at the smallest visible distance.
            nearest = int(np.argmin(groups.distances_many([mask], ~qbits)[0]))
        return CorrelationResult(mask & ~qbits, nearest, ())


#: What a window that raised nothing produces.
_QUIET = WindowOutcome()


class WindowComparator(DetectorBackend):
    """Base of the comparators that judge each window on its own.

    It holds the fitted encoder, each sensor's state-set bits as one mask
    (built at fit time), and the transient state: one JSON value per
    device, which is also the checkpoint payload.  ``check`` returns the
    devices a window blames plus the state updates it implies, and
    :meth:`observe_window` applies them.
    """

    def __init__(self, registry, config=DEFAULT_CONFIG, weights=None, metrics=None):
        super().__init__(registry, config, weights, metrics=metrics)
        self._encoder: Optional[StateSetEncoder] = None
        self._bits: Dict[str, int] = {}
        self._state: Dict[str, object] = {}

    @property
    def is_fitted(self) -> bool:
        return self._encoder is not None

    @property
    def encoder(self) -> StateSetEncoder:
        if self._encoder is None:
            raise RuntimeError("backend not fitted; call fit() first")
        return self._encoder

    def fit(self, trace: Trace) -> "WindowComparator":
        encoder = StateSetEncoder(self.registry, self.config.window_seconds)
        encoder.fit(trace)
        layout = encoder.layout
        self._bits = {
            d.device_id: mask_from_bits(layout.bits_of_device(d.device_id))
            for d in self.registry.sensors()
        }
        self._fit_model(encoder, trace)
        self._encoder = encoder
        self._state = {}
        return self

    def _fit_model(self, encoder: StateSetEncoder, trace: Trace) -> None:
        raise NotImplementedError

    def _model(self) -> dict:
        """The fitted model as JSON (what :meth:`context_hash` covers)."""
        raise NotImplementedError

    def _verdict(self, blamed: List[str], updates: dict) -> WindowVerdict:
        payload = (blamed, updates)
        if blamed:
            return WindowVerdict(True, self.name, payload=payload)
        return WindowVerdict(False, payload=payload)

    def observe_window(self, snapshot, qbits: int = 0) -> WindowOutcome:
        verdict = self.check(snapshot, qbits)
        blamed, updates = verdict.payload
        self._state.update(updates)
        if not verdict.violation:
            return _QUIET
        detection = BackendAlert("detection", snapshot.end, self.name)
        identification = BackendAlert(
            "identification",
            snapshot.end,
            self.name,
            devices=frozenset(blamed),
            windows_used=1,
        )
        return WindowOutcome((detection, identification), violation=True)

    def batch_twin(self) -> "WindowComparator":
        twin = copy.copy(self)
        twin._state = {}
        return twin

    def state_payload(self) -> dict:
        return dict(sorted(self._state.items()))

    def load_payload(self, payload: dict) -> None:
        self._state = dict(payload)

    def context_hash(self) -> str:
        encoder = self.encoder
        fitted = {
            "window_seconds": encoder.window_seconds,
            "value_thresholds": encoder._value_thresholds.tolist(),
            "model": self._model(),
        }
        text = json.dumps(fitted, sort_keys=True)
        return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


class MajorityVoteBackend(WindowComparator):
    """Homogeneous majority vote (§2.2).

    Sensors of one modality that live close together should agree; a
    sensor that disagrees with the majority of its peers for
    ``DISAGREEMENT_WINDOWS`` windows running is flagged, once per run.
    Peers are the same-type sensors of its room, else of the whole house.
    A sensor with fewer than ``MIN_PEERS`` peers is unprotected, so
    deployments without redundant same-type sensors (houseA) defeat it.
    """

    name = "majority-vote"
    MIN_PEERS = 2
    DISAGREEMENT_WINDOWS = 3

    def _fit_model(self, encoder: StateSetEncoder, trace: Trace) -> None:
        sensors = self.registry.sensors()
        self._peers: Dict[str, List[str]] = {}
        for sensor in sensors:
            same_type = [
                other
                for other in sensors
                if other.device_id != sensor.device_id
                and other.sensor_type == sensor.sensor_type
            ]
            peers = [o.device_id for o in same_type if o.room == sensor.room]
            if len(peers) < self.MIN_PEERS:
                peers = [o.device_id for o in same_type]
            if len(peers) >= self.MIN_PEERS:
                self._peers[sensor.device_id] = peers
        # Votes are counted on activity masks (see _activity), where each
        # sensor is its first state-set bit.
        layout = encoder.layout

        def head(device: str) -> int:
            return layout.bits_of_device(device)[0]

        self._first_numeric = len(self.registry.binary_sensors())
        self._numeric_heads = mask_from_bits(
            range(0, 3 * len(self.registry.numeric_sensors()), 3)
        )
        self._ballots = {
            device: (1 << head(device), mask_from_bits(map(head, peers)), len(peers))
            for device, peers in self._peers.items()
        }

    def _model(self) -> dict:
        return {"peers": self._peers}

    def _activity(self, mask: int) -> int:
        """*mask* with each sensor reduced to its first bit, set when any
        of the sensor's bits is (a numeric sensor has three)."""
        shift = self._first_numeric
        numeric = mask >> shift
        numeric = (numeric | numeric >> 1 | numeric >> 2) & self._numeric_heads
        return (mask & ((1 << shift) - 1)) | numeric << shift

    def check(self, snapshot, qbits: int = 0) -> WindowVerdict:
        active = self._activity(snapshot.mask)
        out = self._activity(qbits) if qbits else 0
        streaks = self._state
        blamed: List[str] = []
        updates: Dict[str, int] = {}
        for device, (mine, peers, voters) in self._ballots.items():
            if out:
                # Quarantined sensors neither get judged nor vote.
                if out & mine:
                    continue
                peers &= ~out
                voters = peers.bit_count()
                if not voters:
                    continue
            before = streaks.get(device, 0)
            majority = (active & peers).bit_count() * 2 > voters
            if bool(active & mine) == majority:
                streak = 0
            else:
                streak = before + 1
                if streak == self.DISAGREEMENT_WINDOWS:
                    blamed.append(device)
            if streak != before:
                updates[device] = streak
        return self._verdict(blamed, updates)


def _window_means(
    trace: Trace, device_id: str, window_seconds: float
) -> Tuple[np.ndarray, np.ndarray]:
    """One sensor's mean reading per window that has readings: returns
    ``(window_index, mean)``."""
    times, values = trace.events_for(device_id)
    if len(times) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0)
    win = np.floor((times - trace.start) / window_seconds).astype(np.int64)
    order = np.argsort(win, kind="stable")
    win, values = win[order], values[order]
    boundary = np.empty(len(win), dtype=bool)
    boundary[0] = True
    boundary[1:] = win[1:] != win[:-1]
    starts = np.nonzero(boundary)[0]
    counts = np.append(starts[1:], len(win)) - starts
    sums = np.add.reduceat(values, starts)
    return win[starts], sums / counts


def _fit_ar1(series: np.ndarray) -> Optional[Tuple[float, float, float]]:
    """``(intercept, slope, residual sigma)`` of an AR(1) fit, or ``None``
    with fewer than 8 points."""
    if len(series) < 8:
        return None
    x, y = series[:-1], series[1:]
    var = np.var(x)
    if var < 1e-12:
        slope = 0.0
        intercept = float(np.mean(y))
    else:
        slope = float(np.cov(x, y, bias=True)[0, 1] / var)
        intercept = float(np.mean(y) - slope * np.mean(x))
    residuals = y - (intercept + slope * x)
    return intercept, slope, max(float(np.std(residuals)), 1e-6)


class TimeSeriesARBackend(WindowComparator):
    """Per-sensor AR(1) residual monitor (§2.2, Sharma et al. style).

    Each numeric sensor gets an AR(1) model over its per-window mean
    readings.  A window's mean that strays from the one-step prediction
    off the sensor's previous reported mean by more than
    ``THRESHOLD_SIGMAS`` training residual deviations blames the sensor.
    Windows without readings are skipped: the model judges only values a
    sensor reports, so fail-stop faults are invisible to it by design.
    Streamed windows carry their means; :meth:`encode_window` computes
    them for a batch segment.
    """

    name = "timeseries-ar"
    THRESHOLD_SIGMAS = 6.0

    def _fit_model(self, encoder: StateSetEncoder, trace: Trace) -> None:
        self._models: Dict[str, Tuple[float, float, float]] = {}
        for device in self.registry.numeric_sensors():
            _, means = _window_means(
                trace, device.device_id, self.config.window_seconds
            )
            model = _fit_ar1(means)
            if model is not None:
                self._models[device.device_id] = model

    def _model(self) -> dict:
        return {"ar1": self._models}

    def encode_window(self, trace: Trace) -> WindowedTrace:
        windowed = self.encoder.encode(trace)
        means: List[Dict[str, float]] = [{} for _ in range(len(windowed))]
        for device in self.registry.numeric_sensors():
            windows, values = _window_means(
                trace, device.device_id, windowed.window_seconds
            )
            for window, mean in zip(windows.tolist(), values.tolist()):
                if window < len(means):
                    means[window][device.device_id] = mean
        windowed.means = means
        return windowed

    def check(self, snapshot, qbits: int = 0) -> WindowVerdict:
        last = self._state
        blamed: List[str] = []
        updates: Dict[str, float] = {}
        for device, mean in snapshot.means.items():
            model = self._models.get(device)
            if model is None or qbits & self._bits[device]:
                continue
            previous = last.get(device)
            if previous is not None:
                intercept, slope, sigma = model
                residual = abs(mean - (intercept + slope * previous))
                if residual > self.THRESHOLD_SIGMAS * sigma:
                    blamed.append(device)
            updates[device] = mean
        return self._verdict(blamed, updates)


class LcsCleanBackend(WindowComparator):
    """CLEAN-style co-activation outlier detection (§2.3).

    Training pairs each sensor with its *partners*: sensors whose
    window-level activations overlap with its own by a Jaccard similarity
    of at least ``PARTNER_SIMILARITY``.  Two counters per partnered
    sensor — windows where a partner is active, and windows where both
    are — give its run-time co-activation rate.  A sensor whose rate falls
    below ``DROP_RATIO`` of its training rate is an outlier.  The verdict
    needs the whole segment, so :meth:`finish_segment` gives it: at
    segment end in batch mode, at stream end when streamed.  No single
    window is a violation.
    """

    name = "clean-lcs"
    PARTNER_SIMILARITY = 0.3
    DROP_RATIO = 0.3
    MIN_ACTIVE_WINDOWS = 5

    def _fit_model(self, encoder: StateSetEncoder, trace: Trace) -> None:
        masks = encoder.encode(trace).masks
        active: Dict[str, Set[int]] = {
            device: {i for i, mask in enumerate(masks) if mask & bits}
            for device, bits in self._bits.items()
        }
        self._partners: Dict[str, List[str]] = {}
        self._train_rate: Dict[str, float] = {}
        for device, windows in active.items():
            if len(windows) < self.MIN_ACTIVE_WINDOWS:
                continue
            # Jaccard similarity; *windows* is never empty here.
            partners = [
                other
                for other, theirs in active.items()
                if other != device
                and len(windows & theirs) / len(windows | theirs)
                >= self.PARTNER_SIMILARITY
            ]
            if not partners:
                continue
            partner_windows = set().union(*(active[p] for p in partners))
            self._partners[device] = partners
            self._train_rate[device] = len(windows & partner_windows) / len(
                partner_windows
            )
        # Sensors' bits are disjoint, so summing masks takes their union.
        self._partner_bits = {
            device: sum(self._bits[p] for p in partners)
            for device, partners in self._partners.items()
        }

    def _model(self) -> dict:
        return {"partners": self._partners, "train_rate": self._train_rate}

    def check(self, snapshot, qbits: int = 0) -> WindowVerdict:
        mask = snapshot.mask & ~qbits
        counts = self._state
        updates: Dict[str, List[int]] = {}
        for device, partner_bits in self._partner_bits.items():
            mine = self._bits[device]
            if qbits & mine or not mask & partner_bits:
                continue
            partner, both = counts.get(device, (0, 0))
            updates[device] = [partner + 1, both + (1 if mask & mine else 0)]
        return self._verdict([], updates)

    def finish_segment(self, end_time: float) -> Optional[BackendAlert]:
        counts, self._state = self._state, {}
        dropped = frozenset(
            device
            for device, (partner, both) in counts.items()
            if partner >= self.MIN_ACTIVE_WINDOWS
            and both / partner < self.DROP_RATIO * self._train_rate[device]
        )
        if not dropped:
            return None
        return BackendAlert("identification", end_time, self.name, devices=dropped)


register_backend(CorrelationOnlyBackend.name, CorrelationOnlyBackend.create)
register_backend(MarkovOnlyBackend.name, MarkovOnlyBackend.create)
register_backend(MajorityVoteBackend.name, MajorityVoteBackend)
register_backend(TimeSeriesARBackend.name, TimeSeriesARBackend)
register_backend(LcsCleanBackend.name, LcsCleanBackend)
