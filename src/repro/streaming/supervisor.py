"""Per-device health supervision for the gateway runtime.

A sensor that goes silent is itself a fault signal (the paper's fail-stop
class), but to the correlation check it looks like *every window* missing
that device's bits — one dead sensor floods the detector with correlation
violations and drowns real faults.  The :class:`DeviceSupervisor` tracks a
heartbeat per device and runs a small circuit-breaker state machine:

``HEALTHY → DEGRADED → QUARANTINED → RECOVERED → HEALTHY``

* silent longer than ``silence_seconds`` → **DEGRADED** (internal, no alert);
* silent longer than ``quarantine_seconds`` → **QUARANTINED** — the runtime
  emits ``Alert(kind="device_silence")`` and masks the device's bits out of
  the correlation check until it speaks again;
* malformed events (guard rejects) increment an error counter; crossing
  ``error_threshold`` also quarantines (``Alert(kind="device_errors")``);
* a valid event from a quarantined device → **RECOVERED** — the runtime
  emits ``Alert(kind="device_recovered")`` and unmasks it; the next valid
  event settles it back to **HEALTHY**.

All time is *event time* (the stream's watermark), never wall clock, so the
supervisor is deterministic and checkpointable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional

from .. import telemetry
from ..model import DeviceRegistry, Event

#: Transition reasons.
SILENCE = "silence"
ERRORS = "errors"
RECOVERY = "recovery"

#: Counter of state-machine edges, labelled by destination state + reason.
TRANSITIONS_TOTAL = "dice_supervisor_transitions_total"

_log = telemetry.get_logger("repro.streaming.supervisor")


class DeviceStatus(enum.Enum):
    HEALTHY = "healthy"
    DEGRADED = "degraded"
    QUARANTINED = "quarantined"
    RECOVERED = "recovered"


@dataclass(frozen=True)
class SupervisorPolicy:
    """Knobs of the circuit breaker."""

    #: Silence beyond this marks a device DEGRADED (no alert yet).
    silence_seconds: float = 900.0
    #: Silence beyond this quarantines the device and raises an alert.
    quarantine_seconds: float = 1800.0
    #: Cumulative malformed events before an error quarantine.
    error_threshold: int = 10
    #: Actuators are often legitimately silent for hours (a bulb nobody
    #: toggles), so silence tracking covers sensors only unless enabled.
    watch_actuators: bool = False

    def __post_init__(self) -> None:
        if self.silence_seconds <= 0:
            raise ValueError("silence_seconds must be positive")
        if self.quarantine_seconds < self.silence_seconds:
            raise ValueError("quarantine_seconds must be >= silence_seconds")
        if self.error_threshold < 1:
            raise ValueError("error_threshold must be at least 1")


@dataclass
class DeviceHealth:
    """Mutable per-device record."""

    status: DeviceStatus = DeviceStatus.HEALTHY
    last_seen: float = 0.0
    errors: int = 0
    silences: int = 0  # lifetime count of silence quarantines
    recoveries: int = 0


@dataclass(frozen=True)
class HealthTransition:
    """One state-machine edge, for the runtime to turn into alerts."""

    device_id: str
    previous: DeviceStatus
    current: DeviceStatus
    time: float
    reason: str


class DeviceSupervisor:
    """Heartbeat tracking + quarantine state machine over one registry."""

    def __init__(
        self,
        registry: DeviceRegistry,
        policy: SupervisorPolicy = SupervisorPolicy(),
        start: float = 0.0,
        metrics: Optional["telemetry.MetricsRegistry"] = None,
    ) -> None:
        self.registry = registry
        self.policy = policy
        self._health: Dict[str, DeviceHealth] = {}
        for device in registry:
            if device.is_sensor or policy.watch_actuators:
                self._health[device.device_id] = DeviceHealth(last_seen=float(start))
        self._metrics = telemetry.NULL_REGISTRY if metrics is None else metrics
        self._transitions_counter = self._metrics.counter(
            TRANSITIONS_TOTAL,
            "Supervisor state-machine edges, by destination state and reason",
            labelnames=("to", "reason"),
        )
        #: Conservative lower bound on the earliest event time at which any
        #: device could cross a silence threshold; :meth:`check_silence`
        #: returns immediately while ``now`` has not reached it, making the
        #: per-event silence check O(1) amortised instead of O(devices).
        self._next_check = self._earliest_deadline()

    # ------------------------------------------------------------------ #

    def _deadline(self, health: DeviceHealth) -> float:
        """Earliest event time at which *health* could transition on silence."""
        if health.status is DeviceStatus.QUARANTINED:
            return float("inf")
        if health.status is DeviceStatus.DEGRADED:
            return health.last_seen + self.policy.quarantine_seconds
        return health.last_seen + self.policy.silence_seconds

    def _earliest_deadline(self) -> float:
        if not self._health:
            return float("inf")
        return min(self._deadline(h) for h in self._health.values())

    def health_of(self, device_id: str) -> Optional[DeviceHealth]:
        return self._health.get(device_id)

    @property
    def quarantined(self) -> FrozenSet[str]:
        return frozenset(
            d for d, h in self._health.items()
            if h.status is DeviceStatus.QUARANTINED
        )

    def state_counts(self) -> Dict[str, int]:
        """Supervised devices per state (every state present, maybe 0)."""
        counts = {status.value: 0 for status in DeviceStatus}
        for health in self._health.values():
            counts[health.status.value] += 1
        return counts

    def observe(self, event: Event) -> List[HealthTransition]:
        """A valid event from a device arrived (heartbeat)."""
        health = self._health.get(event.device_id)
        if health is None:
            return []
        transitions: List[HealthTransition] = []
        if event.timestamp > health.last_seen:
            health.last_seen = event.timestamp
        if health.status is DeviceStatus.QUARANTINED:
            transitions.append(
                self._transition(
                    event.device_id, health, DeviceStatus.RECOVERED,
                    event.timestamp, RECOVERY,
                )
            )
            health.recoveries += 1
            health.errors = 0
            # The device re-entered silence tracking with a possibly old
            # last_seen; keep the fast-path bound conservative.
            self._next_check = min(self._next_check, self._deadline(health))
        elif health.status in (DeviceStatus.DEGRADED, DeviceStatus.RECOVERED):
            self._transition(
                event.device_id, health, DeviceStatus.HEALTHY,
                event.timestamp, RECOVERY,
            )
            self._next_check = min(self._next_check, self._deadline(health))
        return transitions

    def record_error(self, device_id: str, timestamp: float) -> List[HealthTransition]:
        """A malformed event from a known device was rejected upstream."""
        health = self._health.get(device_id)
        if health is None:
            return []
        health.errors += 1
        if (
            health.errors >= self.policy.error_threshold
            and health.status is not DeviceStatus.QUARANTINED
        ):
            return [
                self._transition(
                    device_id, health, DeviceStatus.QUARANTINED, timestamp, ERRORS
                )
            ]
        return []

    def check_silence(self, now: float) -> List[HealthTransition]:
        """Advance event time; quarantine devices silent beyond budget."""
        if now <= self._next_check:
            # No device can have crossed a threshold yet (transitions
            # require strictly exceeding their budget), so the full scan
            # below would provably do nothing — including internal
            # DEGRADED edges, which the bound also covers.
            return []
        transitions: List[HealthTransition] = []
        for device in self.registry:  # registry order keeps this deterministic
            health = self._health.get(device.device_id)
            if health is None or health.status is DeviceStatus.QUARANTINED:
                continue
            silent = now - health.last_seen
            if silent > self.policy.quarantine_seconds:
                health.silences += 1
                transitions.append(
                    self._transition(
                        device.device_id, health, DeviceStatus.QUARANTINED,
                        now, SILENCE,
                    )
                )
            elif silent > self.policy.silence_seconds and health.status in (
                DeviceStatus.HEALTHY,
                DeviceStatus.RECOVERED,
            ):
                self._transition(
                    device.device_id, health, DeviceStatus.DEGRADED, now, SILENCE
                )
        self._next_check = self._earliest_deadline()
        return transitions

    def _transition(
        self,
        device_id: str,
        health: DeviceHealth,
        status: DeviceStatus,
        time: float,
        reason: str,
    ) -> HealthTransition:
        edge = HealthTransition(device_id, health.status, status, time, reason)
        health.status = status
        self._transitions_counter.labels(to=status.value, reason=reason).inc()
        level = "warning" if status is DeviceStatus.QUARANTINED else "info"
        _log.log(
            level,
            f"device_{status.value}",
            device=device_id,
            previous=edge.previous.value,
            reason=reason,
            time=time,
        )
        return edge

    # -- checkpoint support ---------------------------------------------- #

    def state_dict(self) -> dict:
        return {
            "policy": {
                "silence_seconds": self.policy.silence_seconds,
                "quarantine_seconds": self.policy.quarantine_seconds,
                "error_threshold": self.policy.error_threshold,
                "watch_actuators": self.policy.watch_actuators,
            },
            "devices": {
                device_id: {
                    "status": health.status.value,
                    "last_seen": health.last_seen,
                    "errors": health.errors,
                    "silences": health.silences,
                    "recoveries": health.recoveries,
                }
                for device_id, health in self._health.items()
            },
        }

    def load_state(self, state: dict) -> None:
        self.policy = SupervisorPolicy(**state["policy"])
        for device_id, data in state["devices"].items():
            health = self._health.get(device_id)
            if health is None:
                continue
            health.status = DeviceStatus(data["status"])
            health.last_seen = float(data["last_seen"])
            health.errors = int(data["errors"])
            health.silences = int(data["silences"])
            health.recoveries = int(data["recoveries"])
        self._next_check = self._earliest_deadline()
