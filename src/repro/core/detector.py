"""The DICE detector: precomputation + real-time phases (Fig. 3.2).

:class:`DiceDetector` is the library's main entry point:

>>> detector = DiceDetector(registry).fit(training_trace)
>>> report = detector.process(live_trace)
>>> report.first_identification.devices
frozenset({'kitchen_motion'})

``fit`` runs the precomputation phase — state-set encoding, group
extraction and transition extraction — on fault-free data.  ``process``
runs the real-time phase over a segment through the detect-then-identify
loop that :class:`~repro.core.backend.DetectorBackend` owns (the streaming
runtime runs the same loop one window at a time): one vectorised
correlation check over the segment, the transition checks, and (on a
violation) an identification session that narrows the probable faulty
devices window by window.  The :class:`SegmentReport` it returns is a view
over the loop's alerts, with the segment's :class:`StageTimings`.

The batch path writes nothing to the metrics registry: the per-window
``dice_stage_seconds`` histogram is the streamed path's clock, and
``StageTimings`` is a plain value the evaluation runner merges across
segment pairs for Fig. 5.3.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, FrozenSet, List, Optional

from .. import telemetry
from ..model import DeviceRegistry, Trace
from .checks import CorrelationChecker, TransitionChecker
from .config import DEFAULT_CONFIG, DiceConfig
from .encoding import StateSetEncoder, WindowedTrace
from .groups import GroupRegistry
from .identification import Identifier
from .transitions import TransitionModel
from .weights import DeviceWeights

if TYPE_CHECKING:
    from .backend import BackendAlert

#: Detection-check labels used throughout evaluation (Fig. 5.4).
CORRELATION_CHECK = "correlation"
TRANSITION_CHECK = "transition"

#: Real-time stage labels, in pipeline order.
STAGES = ("encoding", "correlation", "transition", "identification")

#: Telemetry metric families the streamed path reports into.
STAGE_SECONDS_HISTOGRAM = "dice_stage_seconds"
WINDOWS_TOTAL = "dice_windows_total"
CACHE_HITS_TOTAL = "dice_correlation_cache_hits_total"
CACHE_MISSES_TOTAL = "dice_correlation_cache_misses_total"


@dataclass
class StageTimings:
    """Accumulated wall-clock cost per real-time stage (Fig. 5.3).

    Also carries the correlation-memo hit/miss counters, so evaluation
    results expose how much of the dominant scan cost the cache absorbed.

    A plain value: each batch segment returns one, and the evaluation
    runner sums them with :meth:`merge` across pairs.
    """

    encoding_s: float = 0.0
    correlation_s: float = 0.0
    transition_s: float = 0.0
    identification_s: float = 0.0
    windows: int = 0
    correlation_cache_hits: int = 0
    correlation_cache_misses: int = 0

    def per_window(self) -> Optional[dict]:
        """Average seconds per processed window for each stage.

        ``None`` when no window was processed — zero windows means nothing
        was measured, not that the stages were instantaneous.
        """
        n = self.windows
        if n == 0:
            return None
        return {
            "encoding": self.encoding_s / n,
            "correlation_check": self.correlation_s / n,
            "transition_check": self.transition_s / n,
            "identification": self.identification_s / n,
        }

    @property
    def correlation_cache_hit_rate(self) -> float:
        total = self.correlation_cache_hits + self.correlation_cache_misses
        return self.correlation_cache_hits / total if total else 0.0

    def merge(self, other: "StageTimings") -> None:
        self.encoding_s += other.encoding_s
        self.correlation_s += other.correlation_s
        self.transition_s += other.transition_s
        self.identification_s += other.identification_s
        self.windows += other.windows
        self.correlation_cache_hits += other.correlation_cache_hits
        self.correlation_cache_misses += other.correlation_cache_misses


@dataclass
class SegmentReport:
    """Everything DICE raised over one real-time segment: a view over the
    detect-then-identify loop's alerts, in the order it raised them."""

    n_windows: int
    window_seconds: float
    start: float
    alerts: List["BackendAlert"] = field(default_factory=list)
    timings: StageTimings = field(default_factory=StageTimings)

    @property
    def detections(self) -> List["BackendAlert"]:
        return [a for a in self.alerts if a.kind == "detection"]

    @property
    def identifications(self) -> List["BackendAlert"]:
        return [a for a in self.alerts if a.kind == "identification"]

    @property
    def detected(self) -> bool:
        return bool(self.detections)

    @property
    def first_detection(self) -> Optional["BackendAlert"]:
        return self.detections[0] if self.detections else None

    @property
    def first_identification(self) -> Optional["BackendAlert"]:
        return self.identifications[0] if self.identifications else None

    def identified_devices(self) -> FrozenSet[str]:
        """Union of every session's verdict."""
        devices: set = set()
        for record in self.identifications:
            devices |= record.devices
        return frozenset(devices)


@dataclass
class DiceModel:
    """The artefacts of the precomputation phase."""

    encoder: StateSetEncoder
    groups: GroupRegistry
    transitions: TransitionModel
    training_windows: int

    @property
    def correlation_degree(self) -> float:
        return self.groups.correlation_degree()


class DiceDetector:
    """Detection & Identification with Context Extraction."""

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
        #: Telemetry sink; ``None`` selects the process-global registry,
        #: ``telemetry.NULL_REGISTRY`` turns recording off entirely.
        self.metrics = telemetry.resolve(metrics)
        self.model: Optional[DiceModel] = None
        self._correlation_checker: Optional[CorrelationChecker] = None
        self._transition_checker: Optional[TransitionChecker] = None
        self._identifier: Optional[Identifier] = None
        #: The interned :class:`~repro.core.context.SharedContext` this
        #: detector references, if any (``None`` = privately owned state).
        self._shared = None
        #: Content hash stamped at interning; cleared on fork.
        self._interned_hash: Optional[str] = None
        #: Baselines for the delta-published telemetry counters.
        self._telemetry_last = {"evictions": 0, "xor": 0}

    # ------------------------------------------------------------------ #
    # Precomputation phase
    # ------------------------------------------------------------------ #

    @property
    def is_fitted(self) -> bool:
        return self.model is not None

    def fit(self, trace: Trace) -> "DiceDetector":
        """Run the precomputation phase on fault-free training data."""
        encoder = StateSetEncoder(self.registry, self.config.window_seconds)
        encoder.fit(trace)
        windowed = encoder.encode(trace)
        return self.fit_windows(encoder, windowed)

    def fit_windows(
        self, encoder: StateSetEncoder, windowed: WindowedTrace
    ) -> "DiceDetector":
        """Precomputation from an already-encoded training trace."""
        groups, sequence = GroupRegistry.from_windows(windowed)
        transitions = TransitionModel.extract(
            sequence, windowed.actuator_activations
        )
        self._install_model(
            DiceModel(encoder, groups, transitions, len(windowed))
        )
        self._register_telemetry()
        return self

    @classmethod
    def from_model(
        cls,
        registry: DeviceRegistry,
        model: DiceModel,
        config: DiceConfig = DEFAULT_CONFIG,
        weights: Optional[DeviceWeights] = None,
        metrics: Optional["telemetry.MetricsRegistry"] = None,
    ) -> "DiceDetector":
        """A fitted detector wrapped around an existing precomputed model.

        Used wherever the fit artefacts come from elsewhere — the capacity
        bench synthesises one archetype model and stamps out detectors per
        home without re-running the precomputation phase."""
        detector = cls(registry, config, weights, metrics=metrics)
        detector._install_model(model)
        detector._register_telemetry()
        return detector

    def _install_model(self, model: DiceModel) -> None:
        """Build the real-time checkers over *model* (privately owned)."""
        self.model = model
        self._correlation_checker = CorrelationChecker(model.groups, self.config)
        self._transition_checker = TransitionChecker(
            model.transitions, self.config, model.groups
        )
        self._identifier = Identifier(
            model.groups, model.transitions, self._correlation_checker, self.config
        )
        self._shared = None
        self._interned_hash = None
        self._telemetry_last = {"evictions": 0, "xor": 0}

    # ------------------------------------------------------------------ #
    # Shared contexts (copy-on-write)
    # ------------------------------------------------------------------ #

    def adopt_context(self, shared) -> None:
        """Reference an interned :class:`~repro.core.context.SharedContext`.

        Drops this detector's private model/checkers in favour of the
        shared ones (including the correlation memo, which is keyed only
        on mask + group set + config, so results are home-independent).
        Called by :meth:`SharedContextStore.intern`."""
        self._require_fitted()
        if self._shared is not None:
            self._shared.holders -= 1
            if self._shared.owner is self:
                self._shared.owner = None
        self.model = shared.model
        self._correlation_checker = shared.correlation_checker
        self._transition_checker = shared.transition_checker
        self._identifier = shared.identifier
        self._shared = shared
        self._interned_hash = shared.hash
        self._telemetry_last = {"evictions": 0, "xor": 0}
        shared.holders += 1

    def fork_context(self) -> bool:
        """Copy-on-write: take a private copy of a shared trained context.

        No-op (returns ``False``) when the state is already private.  The
        copy reproduces group ids, counts and transition counts exactly,
        so a forked home's subsequent mutations (context refresh) behave
        byte-identically to a home that never shared.  The other holders
        keep the canonical objects untouched."""
        shared = self._shared
        if shared is None:
            return False
        model = self._require_fitted()
        groups = model.groups.copy()
        transitions = model.transitions.copy()
        self._install_model(
            DiceModel(model.encoder, groups, transitions, model.training_windows)
        )
        shared.holders -= 1
        if shared.owner is self:
            shared.owner = None
        return True

    def _register_telemetry(self) -> None:
        """Expose memo occupancy/evictions and scan passes as metrics.

        The hot paths keep plain-int counters (zero overhead); a snapshot
        collector publishes their deltas, so the registry only pays at
        export time.
        """
        metrics = self.metrics
        if not metrics.enabled:
            return
        # Created eagerly so every family is present in snapshots even
        # before the first window is processed.
        metrics.counter(CACHE_HITS_TOTAL, "Correlation-memo hits")
        metrics.counter(CACHE_MISSES_TOTAL, "Correlation-memo misses")
        cache_size = metrics.gauge(
            "dice_correlation_cache_size", "Entries currently in the correlation memo"
        )
        evictions = metrics.counter(
            "dice_correlation_cache_evictions_total",
            "LRU evictions from the correlation memo",
        )
        kernels = metrics.counter(
            "dice_bitset_kernel_calls_total",
            "Hamming scan passes (XOR + popcount over the group rows)",
            labelnames=("kernel",),
        )
        groups_gauge = metrics.gauge(
            "dice_groups", "Groups in the fitted registry"
        )

        def collect() -> None:
            # Read the *current* checker/groups through self: a context
            # adoption or copy-on-write fork swaps them out from under a
            # collector registered at fit time.
            checker = self._correlation_checker
            if checker is None or self.model is None:
                return
            groups = self.model.groups
            cache_size.set(checker.cache_info()["size"])
            groups_gauge.set(len(groups))
            shared = self._shared
            if shared is not None and shared.owner is not self:
                # The shared eviction/kernel tallies are published by
                # exactly one holder (the context owner); every other
                # holder repeating the same deltas would double-count
                # them in merged fleet snapshots.
                return
            last = self._telemetry_last
            evictions.inc(checker.cache_evictions - last["evictions"])
            last["evictions"] = checker.cache_evictions
            passes = groups.kernel_call_counts()["xor"]
            kernels.labels(kernel="xor").inc(passes - last["xor"])
            last["xor"] = passes

        metrics.register_collector("detector", collect)

    def _require_fitted(self) -> DiceModel:
        if self.model is None:
            raise RuntimeError("detector not fitted; call fit() first")
        return self.model

    def context_summary(self) -> dict:
        """Deterministic one-line summary of the fitted context.

        The detection-side context an alert's provenance record stamps:
        how many groups the check ran against, the candidate Hamming bound
        in force, and the training support behind them.  Reads the
        *current* model, so a context refresh or copy-on-write fork is
        reflected immediately.
        """
        model = self._require_fitted()
        return {
            "groups": len(model.groups),
            "max_distance": self._correlation_checker.max_distance,
            "training_windows": model.training_windows,
        }

    # ------------------------------------------------------------------ #
    # Real-time phase
    # ------------------------------------------------------------------ #

    def process(self, trace: Trace) -> SegmentReport:
        """Run the real-time phase over a segment trace."""
        model = self._require_fitted()
        # backend.py builds on this module, so the import waits until here.
        from .backend import DiceBackend

        timings = StageTimings()
        t0 = time.perf_counter()
        windowed = model.encoder.encode(trace)
        timings.encoding_s += time.perf_counter() - t0
        alerts = DiceBackend(self).run_segment(windowed, timings)
        return SegmentReport(
            len(windowed), windowed.window_seconds, windowed.start, alerts, timings
        )
