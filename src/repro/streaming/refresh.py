"""Online context refresh: graceful degradation under concept drift.

DICE's precomputed context (group registry + transition matrices) assumes
a stationary home.  When the home drifts — a seasonal routine change, a
replaced device — every live window stops matching the learned groups and
the detector raises correlation violations *forever*: the fault never
clears because there is no fault, the context is simply stale.

:class:`ContextRefresher` gives :class:`~repro.streaming.runtime.HardenedOnlineDice`
an adaptation path, deliberately staged so a genuine fault cannot retrain
the detector around itself:

1. **Monitor** — a sliding window of recent correlation-check outcomes.
   Faults produce violations too, but fault violations either stop (the
   device is quarantined, the session concludes) or stay below the
   sustained-rate threshold; drift pushes the violation *rate* above
   ``violation_threshold`` for a whole observation window.
2. **Declare** — once the sustained rate trips, the refresher starts
   *collecting*: the next ``collect_windows`` completed windows' state-set
   masks and actuator activations are recorded verbatim.  Detection keeps
   running unchanged while collecting — alerts are degraded, not
   suppressed.
3. **Re-fit** — the collected windows are folded into the live model:
   masks are interned into the group registry (new groups appear, known
   groups gain observation count) and a transition model extracted from
   the collected sequence is merged into the fitted matrices.  The
   correlation memo invalidates itself via ``GroupRegistry.version``; the
   transition checker's ``min_group_observations`` gate keeps the freshly
   learned groups out of violation *evidence* until they recur enough to
   be trusted.
4. **Cool down** — no new declaration for ``cooldown_windows`` windows, so
   one drift episode triggers one refresh, not a refresh per window.

Every applied batch is kept (masks + activations, JSON-serializable) so a
checkpoint can carry the refresh history: restore re-applies the batches
to a freshly fitted detector in order, which reproduces the exact same
group ids and transition counts — alert-stream parity holds across a
crash even when the context was refreshed mid-stream.

Telemetry: ``dice_context_refresh_total`` counts ``declared``/``applied``
stage events; ``dice_context_refresh_groups_total`` counts groups added.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, FrozenSet, List, Optional, Tuple

from .. import telemetry
from ..core import DiceDetector
from ..core.transitions import TransitionModel

#: Counter of refresh lifecycle events, labelled by stage.
REFRESH_TOTAL = "dice_context_refresh_total"
#: Counter of groups added to the registry by refreshes.
REFRESH_GROUPS_TOTAL = "dice_context_refresh_groups_total"

_log = telemetry.get_logger("repro.streaming.refresh")

_IDLE = "idle"
_COLLECTING = "collecting"
_COOLDOWN = "cooldown"


@dataclass(frozen=True)
class RefreshPolicy:
    """Knobs for drift detection and staged re-fit.

    Disabled by default: refresh mutates the fitted model, so a runtime
    must opt in explicitly (the scenario matrix compares both stances).
    """

    enabled: bool = False
    #: Sliding observation window, in completed windows.
    violation_window: int = 20
    #: Fraction of the observation window that must be correlation
    #: violations before drift is declared.
    violation_threshold: float = 0.6
    #: Completed windows collected after a declaration before the re-fit.
    collect_windows: int = 30
    #: Windows after an applied refresh during which no new drift may be
    #: declared.
    cooldown_windows: int = 60

    def __post_init__(self) -> None:
        if self.violation_window < 1:
            raise ValueError("violation_window must be at least 1")
        if not 0.0 < self.violation_threshold <= 1.0:
            raise ValueError("violation_threshold must be in (0, 1]")
        if self.collect_windows < 2:
            raise ValueError("collect_windows must be at least 2")
        if self.cooldown_windows < 0:
            raise ValueError("cooldown_windows must be non-negative")


#: One collected window: (state-set mask, sorted actuator activations).
_CollectedWindow = Tuple[int, Tuple[str, ...]]


class ContextRefresher:
    """Drift monitor + staged re-fit for one runtime's detector."""

    def __init__(
        self,
        detector: DiceDetector,
        policy: RefreshPolicy,
        metrics: Optional["telemetry.MetricsRegistry"] = None,
    ) -> None:
        if detector.model is None:
            raise ValueError("detector must be fitted")
        self.detector = detector
        self.policy = policy
        self._phase = _IDLE
        self._recent: Deque[int] = deque(maxlen=policy.violation_window)
        self._collected: List[_CollectedWindow] = []
        self._cooldown_left = 0
        #: Applied batches, oldest first — the checkpoint-carried history.
        self.applied_batches: List[List[_CollectedWindow]] = []
        self.declared_total = 0
        self.applied_total = 0
        self.groups_added_total = 0
        registry = telemetry.NULL_REGISTRY if metrics is None else metrics
        stage_counter = registry.counter(
            REFRESH_TOTAL,
            "Context-refresh lifecycle events, by stage",
            labelnames=("stage",),
        )
        self._declared_series = stage_counter.labels(stage="declared")
        self._applied_series = stage_counter.labels(stage="applied")
        self._groups_counter = registry.counter(
            REFRESH_GROUPS_TOTAL, "Groups added to the registry by refreshes"
        )

    # ------------------------------------------------------------------ #

    @property
    def phase(self) -> str:
        return self._phase

    @property
    def collecting(self) -> bool:
        return self._phase == _COLLECTING

    def observe(
        self,
        mask: int,
        actuator_activations: FrozenSet[str],
        is_violation: bool,
        time: float,
    ) -> Optional[str]:
        """Feed one completed window's outcome.

        Returns ``"declared"`` when drift is declared, ``"applied"`` when
        a collected refresh is folded into the model, else ``None``.
        """
        if not self.policy.enabled:
            return None
        if self._phase == _COLLECTING:
            self._collected.append((mask, tuple(sorted(actuator_activations))))
            if len(self._collected) >= self.policy.collect_windows:
                self._apply(self._collected, time)
                return "applied"
            return None
        if self._phase == _COOLDOWN:
            self._cooldown_left -= 1
            if self._cooldown_left <= 0:
                self._phase = _IDLE
                self._recent.clear()
            return None
        self._recent.append(1 if is_violation else 0)
        window = self.policy.violation_window
        if (
            len(self._recent) >= window
            and sum(self._recent) >= self.policy.violation_threshold * window
        ):
            self._phase = _COLLECTING
            self._collected = []
            self.declared_total += 1
            self._declared_series.inc()
            _log.warning(
                "context_drift_declared",
                time=time,
                violation_rate=sum(self._recent) / len(self._recent),
                window=window,
            )
            return "declared"
        return None

    # ------------------------------------------------------------------ #

    def _apply(
        self, batch: List[_CollectedWindow], time: float, count: bool = True
    ) -> None:
        """Fold one collected batch into the live model (idempotent given
        the same detector state and batch order — restore relies on it)."""
        # Copy-on-write: a detector pointing at an interned shared context
        # must fork a private copy before the first mutation — the shared
        # registry is frozen and referenced by every other holder.
        if self.detector.fork_context():
            _log.info("context_refresh_forked_shared_context")
        model = self.detector.model
        groups = model.groups
        before = len(groups)
        sequence = [groups.add(mask) for mask, _acts in batch]
        activations = [frozenset(acts) for _mask, acts in batch]
        model.transitions.merge(TransitionModel.extract(sequence, activations))
        added = len(groups) - before
        self.applied_batches.append(list(batch))
        self._collected = []
        self._phase = _COOLDOWN
        self._cooldown_left = self.policy.cooldown_windows
        self._recent.clear()
        if count:
            self.applied_total += 1
            self.groups_added_total += added
            self._applied_series.inc()
            if added:
                self._groups_counter.inc(added)
        _log.warning(
            "context_refresh_applied",
            time=time,
            windows=len(batch),
            groups_added=added,
            groups_total=len(groups),
        )

    # ------------------------------------------------------------------ #
    # Checkpoint support
    # ------------------------------------------------------------------ #

    def state_dict(self) -> dict:
        """JSON-serializable refresh state, including applied history."""

        def encode(batch: List[_CollectedWindow]) -> list:
            return [[mask, list(acts)] for mask, acts in batch]

        return {
            "phase": self._phase,
            "recent": list(self._recent),
            "collected": encode(self._collected),
            "cooldown_left": self._cooldown_left,
            "applied_batches": [encode(b) for b in self.applied_batches],
            "declared_total": self.declared_total,
            "applied_total": self.applied_total,
            "groups_added_total": self.groups_added_total,
        }

    def load_state(self, state: Optional[dict]) -> None:
        """Restore from :meth:`state_dict`, re-applying history.

        The detector handed to a restore is freshly fitted (checkpoints
        never carry the model); re-applying the recorded batches in order
        reproduces the same interned group ids and merged transition
        counts as the original run.  ``None`` (a snapshot taken without a
        refresher) resets to idle.  Telemetry counters are restored
        separately via the checkpoint's counters snapshot, so re-apply does
        not count.
        """
        self._phase = _IDLE
        self._recent.clear()
        self._collected = []
        self._cooldown_left = 0
        self.applied_batches = []
        self.declared_total = 0
        self.applied_total = 0
        self.groups_added_total = 0
        if state is None:
            return

        def decode(batch: list) -> List[_CollectedWindow]:
            return [(int(mask), tuple(acts)) for mask, acts in batch]

        for batch in state["applied_batches"]:
            self._apply(decode(batch), time=float("nan"), count=False)
        self.applied_batches = [decode(b) for b in state["applied_batches"]]
        self._phase = str(state["phase"])
        self._recent = deque(
            (int(v) for v in state["recent"]),
            maxlen=self.policy.violation_window,
        )
        self._collected = decode(state["collected"])
        self._cooldown_left = int(state["cooldown_left"])
        self.declared_total = int(state["declared_total"])
        self.applied_total = int(state["applied_total"])
        self.groups_added_total = int(state["groups_added_total"])

    def stats(self) -> dict:
        """Point-in-time refresh accounting for health/report surfaces."""
        return {
            "enabled": self.policy.enabled,
            "phase": self._phase,
            "declared": self.declared_total,
            "applied": self.applied_total,
            "groups_added": self.groups_added_total,
        }


class NullRefresher:
    """Refresh stand-in for backends without a refreshable DICE context.

    Context refresh folds collected windows back into a fitted
    :class:`~repro.core.detector.DiceDetector` model; backends that do not
    carry one (Markov chains, ensembles) get this permanently-disabled
    object so the hardened runtime's refresh surface (health stats,
    checkpoint state) keeps a uniform shape.
    """

    detector = None
    policy = RefreshPolicy()
    phase = _IDLE
    collecting = False
    declared_total = 0
    applied_total = 0
    groups_added_total = 0

    def observe(
        self,
        mask: int,
        actuator_activations: FrozenSet[str],
        is_violation: bool,
        time: float,
    ) -> Optional[str]:
        return None

    def state_dict(self) -> None:
        return None

    def load_state(self, state: Optional[dict]) -> None:
        if state:
            raise ValueError(
                "checkpoint carries refresh history but this backend "
                "has no refreshable context"
            )

    def stats(self) -> dict:
        return {
            "enabled": False,
            "phase": _IDLE,
            "declared": 0,
            "applied": 0,
            "groups_added": 0,
        }
