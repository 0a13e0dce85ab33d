"""Online, event-at-a-time DICE runtime (the gateway deployment)."""

from .checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    checkpoint_state,
    load_checkpoint,
    model_fingerprint,
    restore_runtime,
    save_checkpoint,
)
from .guard import (
    ALL_DROP_REASONS,
    BEFORE_START,
    DUPLICATE,
    EMPTY_DEVICE_ID,
    NON_FINITE_TIMESTAMP,
    NON_FINITE_VALUE,
    TOO_LATE,
    UNKNOWN_DEVICE,
    DropLog,
    DroppedEvent,
    IngestGuard,
)
from .refresh import (
    REFRESH_GROUPS_TOTAL,
    REFRESH_TOTAL,
    ContextRefresher,
    RefreshPolicy,
)
from .reorder import ReorderBuffer
from .runtime import (
    ALERTS_TOTAL,
    DEVICE_ERRORS,
    DEVICE_RECOVERED,
    DEVICE_SILENCE,
    Alert,
    HardenedOnlineDice,
    OnlineDice,
)
from .supervisor import (
    DeviceHealth,
    DeviceStatus,
    DeviceSupervisor,
    HealthTransition,
    SupervisorPolicy,
)
from .windower import OnlineWindower, WindowSnapshot

__all__ = [
    "ALERTS_TOTAL",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "checkpoint_state",
    "load_checkpoint",
    "model_fingerprint",
    "restore_runtime",
    "save_checkpoint",
    "ALL_DROP_REASONS",
    "BEFORE_START",
    "DUPLICATE",
    "EMPTY_DEVICE_ID",
    "NON_FINITE_TIMESTAMP",
    "NON_FINITE_VALUE",
    "TOO_LATE",
    "UNKNOWN_DEVICE",
    "DropLog",
    "DroppedEvent",
    "IngestGuard",
    "REFRESH_GROUPS_TOTAL",
    "REFRESH_TOTAL",
    "ContextRefresher",
    "RefreshPolicy",
    "ReorderBuffer",
    "DEVICE_ERRORS",
    "DEVICE_RECOVERED",
    "DEVICE_SILENCE",
    "Alert",
    "HardenedOnlineDice",
    "OnlineDice",
    "DeviceHealth",
    "DeviceStatus",
    "DeviceSupervisor",
    "HealthTransition",
    "SupervisorPolicy",
    "OnlineWindower",
    "WindowSnapshot",
]
