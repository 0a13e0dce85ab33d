"""DICE core: context extraction, real-time checks, identification."""

from .backend import (
    ENSEMBLE_CHECK,
    MARKOV_CHECK,
    BackendAlert,
    DetectorBackend,
    DiceBackend,
    EnsembleBackend,
    MarkovBackend,
    WindowOutcome,
    WindowVerdict,
    as_backend,
    available_backends,
    create_backend,
    register_backend,
)
# Importing the module registers the five Table 2.1 comparator backends.
from .comparators import WindowComparator
from .bitset import PackedBitsets, hamming, mask_from_bits, popcount, set_bits
from .checks import (
    CorrelationChecker,
    CorrelationResult,
    TransitionCase,
    TransitionChecker,
    TransitionViolation,
    correlation_evidence,
    violation_evidence,
)
from .config import (
    BITS_PER_BINARY_DEVICE,
    BITS_PER_NUMERIC_SENSOR,
    DEFAULT_CONFIG,
    DiceConfig,
)
from .context import (
    SharedContext,
    SharedContextStore,
    context_hash,
    trained_context_nbytes,
)
from .detector import (
    CORRELATION_CHECK,
    STAGE_SECONDS_HISTOGRAM,
    STAGES,
    TRANSITION_CHECK,
    WINDOWS_TOTAL,
    DiceDetector,
    DiceModel,
    SegmentReport,
    StageTimings,
)
from .encoding import (
    BINARY_ROLE,
    NUMERIC_ROLES,
    BitLayout,
    BitSpec,
    StateSetEncoder,
    WindowedTrace,
)
from .groups import GroupRegistry
from .identification import (
    Identifier,
    IdentificationOutcome,
    IdentificationSession,
    ProbableFaultSet,
)
from .transitions import TransitionMatrix, TransitionModel
from .weights import DeviceWeights

__all__ = [
    "ENSEMBLE_CHECK",
    "MARKOV_CHECK",
    "BackendAlert",
    "DetectorBackend",
    "DiceBackend",
    "EnsembleBackend",
    "MarkovBackend",
    "WindowOutcome",
    "WindowVerdict",
    "as_backend",
    "available_backends",
    "create_backend",
    "register_backend",
    "WindowComparator",
    "PackedBitsets",
    "hamming",
    "mask_from_bits",
    "popcount",
    "set_bits",
    "CorrelationChecker",
    "CorrelationResult",
    "TransitionCase",
    "TransitionChecker",
    "TransitionViolation",
    "correlation_evidence",
    "violation_evidence",
    "BITS_PER_BINARY_DEVICE",
    "BITS_PER_NUMERIC_SENSOR",
    "DEFAULT_CONFIG",
    "DiceConfig",
    "SharedContext",
    "SharedContextStore",
    "context_hash",
    "trained_context_nbytes",
    "CORRELATION_CHECK",
    "STAGE_SECONDS_HISTOGRAM",
    "STAGES",
    "TRANSITION_CHECK",
    "WINDOWS_TOTAL",
    "DiceDetector",
    "DiceModel",
    "SegmentReport",
    "StageTimings",
    "BINARY_ROLE",
    "NUMERIC_ROLES",
    "BitLayout",
    "BitSpec",
    "StateSetEncoder",
    "WindowedTrace",
    "GroupRegistry",
    "Identifier",
    "IdentificationOutcome",
    "IdentificationSession",
    "ProbableFaultSet",
    "TransitionMatrix",
    "TransitionModel",
    "DeviceWeights",
]
