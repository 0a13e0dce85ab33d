"""Fault injection (Ch. IV.2) and security attacks (Ch. VI).

The chaos harnesses are imported from their own modules,
:mod:`repro.faults.crash` and :mod:`repro.faults.net`: they drive the
durable gateway and the ingest service, and re-exporting them here would
load those stacks into every importer of the fault models.
"""

from .attacks import (
    Attack,
    attack_events,
    coordinated_attack,
    light_attack,
    spoof_sensor_high,
    temperature_attack,
)
from .drift import (
    ALL_DRIFT_TYPES,
    DriftType,
    InjectedDrift,
    apply_drift,
    inject_device_replacement,
    inject_seasonal_shift,
)
from .injector import FaultInjector, InjectionPolicy
from .models import (
    ALL_FAULT_TYPES,
    NON_FAIL_STOP_TYPES,
    FaultType,
    InjectedFault,
    apply_fault,
    inject_fail_stop,
    inject_high_noise,
    inject_outlier,
    inject_spike,
    inject_stuck_at,
)
from .pipe import (
    ALL_PIPE_FAULT_TYPES,
    PipeFaultInjector,
    PipeFaultSpec,
    PipeFaultType,
    apply_pipe_fault,
    corrupt_values,
    delay_events,
    drop_events,
    duplicate_events,
    reorder_events,
)
from .segments import (
    SegmentPair,
    iter_segment_pairs,
    make_segment_pairs,
    segment_starts,
    split_precompute,
)

__all__ = [
    "ALL_PIPE_FAULT_TYPES",
    "PipeFaultInjector",
    "PipeFaultSpec",
    "PipeFaultType",
    "apply_pipe_fault",
    "corrupt_values",
    "delay_events",
    "drop_events",
    "duplicate_events",
    "reorder_events",
    "Attack",
    "attack_events",
    "coordinated_attack",
    "light_attack",
    "spoof_sensor_high",
    "temperature_attack",
    "ALL_DRIFT_TYPES",
    "DriftType",
    "InjectedDrift",
    "apply_drift",
    "inject_device_replacement",
    "inject_seasonal_shift",
    "FaultInjector",
    "InjectionPolicy",
    "ALL_FAULT_TYPES",
    "NON_FAIL_STOP_TYPES",
    "FaultType",
    "InjectedFault",
    "apply_fault",
    "inject_fail_stop",
    "inject_high_noise",
    "inject_outlier",
    "inject_spike",
    "inject_stuck_at",
    "SegmentPair",
    "iter_segment_pairs",
    "make_segment_pairs",
    "segment_starts",
    "split_precompute",
]
