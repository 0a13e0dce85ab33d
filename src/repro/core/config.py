"""DICE configuration.

All tunables named in the paper live here with their paper defaults:

* ``window_seconds`` — duration of a sensor state set (``d``).  §VI found
  one minute optimal; shorter windows split correlated sensors whose
  reactions are offset in time, longer windows merge uncorrelated sensors.
* ``num_faults`` — how many simultaneous faults the deployment guards
  against.  Drives both the candidate-group distance bound in the
  correlation check (§3.3.1) and ``numThre``, the identification
  convergence threshold (§3.4): 1 in the single-fault evaluation, 3 in the
  multi-fault experiment of Ch. VI.
* ``max_candidate_distance`` — optional override of the Hamming bound used
  to collect candidate groups.  When ``None`` it is derived from
  ``num_faults`` × the widest bit footprint of a single device (1 bit for a
  binary device, 3 for a numeric sensor), which generalises the paper's
  "groups with less than two distance" rule for the binary single-fault
  case to deployments with numeric sensors.
* ``max_identification_windows`` — safety bound on how many windows an
  identification session may consume before reporting its best guess.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

#: Bits contributed per device class (Eq. 3.1 vs Eqs. 3.2-3.4).
BITS_PER_BINARY_DEVICE = 1
BITS_PER_NUMERIC_SENSOR = 3

#: Minimum observations before a transition row is trusted; rows observed
#: fewer times than this never raise transition violations.  The paper's
#: rule is 1: any observed row counts.
MIN_ROW_OBSERVATIONS = 1

#: A group only qualifies as a skipped middle in the two-step G2G closure
#: (``DiceConfig.g2g_two_step_closure``) if its training self-loop
#: probability is at most this (short dwell).
CLOSURE_MAX_SELF_LOOP = 0.4


@dataclass(frozen=True)
class DiceConfig:
    """Immutable bundle of DICE tunables."""

    window_seconds: float = 60.0
    num_faults: int = 1
    max_candidate_distance: Optional[int] = None
    max_identification_windows: int = 120
    #: Confidence guard for G2G transition violations: both endpoint groups
    #: must have been observed at least this many times in training before a
    #: zero-probability transition between them counts as a violation.
    #: Rare boundary groups (an activity hand-over split oddly across a
    #: window edge) otherwise dominate false positives; genuinely faulty
    #: transitions connect *common* groups (e.g. stuck-at holds a frequent
    #: state), so recall is unaffected.
    min_group_observations: int = 3
    #: Absorb window-boundary aliasing in the G2G check: a transition a→c
    #: is only a violation if c is not even reachable through one
    #: intermediate group b (a→b→c observed).  Sensor state sets "retain
    #: their value for several rounds" (§5.2), so a legal hand-over a→b→c
    #: whose short-dwell boundary group b happens to be skipped by the
    #: window grid is indistinguishable from a→c; without the closure these
    #: alias pairs dominate false positives.  The paper's zero-probability
    #: rule corresponds to False.
    g2g_two_step_closure: bool = True
    #: LRU entries for the mask → correlation-result memo.  Smart-home state
    #: sets "retain their value for several rounds" (§5.2), so live traffic
    #: repeats a small working set of masks heavily; a hit skips the group
    #: scan entirely.  0 disables memoisation (every check scans).
    correlation_cache_size: int = 4096

    def __post_init__(self) -> None:
        if self.window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if self.num_faults < 1:
            raise ValueError("num_faults must be at least 1")
        if self.max_candidate_distance is not None and self.max_candidate_distance < 1:
            raise ValueError("max_candidate_distance must be at least 1")
        if self.max_identification_windows < 1:
            raise ValueError("max_identification_windows must be at least 1")
        if self.min_group_observations < 1:
            raise ValueError("min_group_observations must be at least 1")
        if self.correlation_cache_size < 0:
            raise ValueError("correlation_cache_size must be non-negative")

    @property
    def num_thre(self) -> int:
        """``numThre`` — identification stops once the intersection of
        probable faulty devices is at most this size (§3.4)."""
        return self.num_faults

    def candidate_distance(self, has_numeric_sensors: bool) -> int:
        """Hamming bound for candidate groups in the correlation check.

        A single faulty binary device flips at most one bit; a faulty
        numeric sensor can flip up to its three derived bits.
        """
        if self.max_candidate_distance is not None:
            return self.max_candidate_distance
        per_device = (
            BITS_PER_NUMERIC_SENSOR if has_numeric_sensors else BITS_PER_BINARY_DEVICE
        )
        return self.num_faults * per_device

    def with_(self, **changes) -> "DiceConfig":
        """A copy with *changes* applied (``dataclasses.replace`` sugar)."""
        return replace(self, **changes)


DEFAULT_CONFIG = DiceConfig()
