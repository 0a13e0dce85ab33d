"""Real-time detection checks (§3.3).

The **correlation check** matches each incoming sensor state set against the
training groups: an exact match is the *main group*; near matches (within a
Hamming bound derived from the assumed fault count) are *probable groups*.
No main group ⇒ a correlation violation — a sensor combination never seen in
training.  Every path that checks correlation — the memoised check, the
batch ``check_many``, the gateway's ``warm``, the quarantine-masked scan and
identification's widened ``nearest`` search — takes its distances from the
one Hamming kernel (``GroupRegistry.distances_many``) and its main and
probable groups from the one :func:`candidate_rule`.

The **transition check** runs only when a main group exists, because
non-fail-stop faults (notably stuck-at) often preserve the correlation
structure; it flags transitions with zero learned probability:

* case 1 — previous group → current group unseen in G2G;
* case 2 — previous group → currently activated actuator unseen in G2A;
* case 3 — previously activated actuator → current group unseen in A2G.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from .config import CLOSURE_MAX_SELF_LOOP, MIN_ROW_OBSERVATIONS, DiceConfig
from .groups import GroupRegistry
from .transitions import TransitionModel


@dataclass(frozen=True)
class CorrelationResult:
    """Outcome of the correlation check for one window."""

    mask: int
    main_group: Optional[int]
    #: Candidate groups other than the main group: (group_id, distance),
    #: nearest first.
    probable_groups: Tuple[Tuple[int, int], ...]

    @property
    def is_violation(self) -> bool:
        return self.main_group is None


class TransitionCase(enum.Enum):
    """Which matrix a transition violation came from (§3.3.2 cases 1-3)."""

    G2G = "g2g"
    G2A = "g2a"
    A2G = "a2g"


@dataclass(frozen=True)
class TransitionViolation:
    """A zero-probability transition observed at run time."""

    case: TransitionCase
    prev_group: Optional[int]
    cur_group: Optional[int]
    actuator: Optional[str] = None


def correlation_evidence(result: CorrelationResult, max_distance: int) -> dict:
    """JSON-serializable evidence of one correlation check, for provenance.

    Captures the verdict *and* the numbers behind it: the candidate groups
    with their Hamming distances against the bound in force, so an alert
    can later show how close the window came to matching.
    """
    return {
        "mask": format(result.mask, "x"),
        "violation": result.is_violation,
        "main_group": result.main_group,
        "candidates": [[g, d] for g, d in result.probable_groups],
        "max_distance": int(max_distance),
    }


def violation_evidence(
    model: TransitionModel, violation: TransitionViolation
) -> dict:
    """JSON-serializable evidence of one transition violation.

    Joins the violation's edge with the fitted matrices' probability terms
    (count, row total, probability) — the exact quantities
    :meth:`TransitionChecker.check` gated on.
    """
    case = violation.case
    if case is TransitionCase.G2G:
        edge = model.edge_stats("g2g", violation.prev_group, violation.cur_group)
    elif case is TransitionCase.G2A:
        edge = model.edge_stats("g2a", violation.prev_group, violation.actuator)
    else:
        edge = model.edge_stats("a2g", violation.actuator, violation.cur_group)
    return {
        "case": case.value,
        "prev_group": violation.prev_group,
        "cur_group": violation.cur_group,
        "actuator": violation.actuator,
        **edge,
    }


def candidate_rule(
    masks: Sequence[int],
    dist: np.ndarray,
    bound: int,
    visible: Optional[int] = None,
) -> List[CorrelationResult]:
    """The §3.3.1 candidate rule: turn each row of a ``(W, G)`` distance
    matrix into its window's main group and probable groups.

    The main group is the lowest group id at distance 0.  Unmasked, at
    most one group sits there; under a *visible* mask several may tie, and
    the others are then neither main nor probable.  The probable groups are
    those at ``0 < d <= bound``, ordered by (distance, group id).  A window
    with no group at distance 0 is a correlation violation.
    """
    flat = dist.ravel()
    hit = (flat <= bound).nonzero()[0]
    width = dist.shape[1]
    hits: List[List[Tuple[int, int]]] = [[] for _ in masks]
    for index, distance in zip(hit.tolist(), flat[hit].tolist()):
        row, group = divmod(index, width)
        hits[row].append((distance, group))
    results: List[CorrelationResult] = []
    for mask, near in zip(masks, hits):
        near.sort()
        main: Optional[int] = None
        probable: List[Tuple[int, int]] = []
        for distance, group in near:
            if distance:
                probable.append((group, distance))
            elif main is None:
                main = group
        if visible is not None:
            mask &= visible
        results.append(CorrelationResult(mask, main, tuple(probable)))
    return results


class CorrelationChecker:
    """§3.3.1 — main/probable group search over the group registry.

    Live traffic repeats a small working set of state-set masks heavily
    (state sets "retain their value for several rounds", §5.2), so results
    are memoised in an LRU mask → :class:`CorrelationResult` cache: a hit
    skips the group scan entirely.  The cache is keyed on the fitted
    registry — it drops itself whenever :attr:`GroupRegistry.version`
    changes (i.e. on refit), so stale results can never be served.

    :meth:`check_many` is the batch path: all misses of a whole segment are
    resolved in one ``(W, G)`` XOR + popcount matrix pass instead of one
    scan per window, with results identical to the scalar :meth:`check`.
    """

    def __init__(
        self,
        groups: GroupRegistry,
        config: DiceConfig,
        cache_size: Optional[int] = None,
    ) -> None:
        self.groups = groups
        self.config = config
        self.max_distance = config.candidate_distance(groups.layout.has_numeric)
        self._cache_size = (
            config.correlation_cache_size if cache_size is None else cache_size
        )
        self._cache: "OrderedDict[int, CorrelationResult]" = OrderedDict()
        self._cache_version = groups.version
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0

    # -- cache plumbing -------------------------------------------------- #

    def cache_info(self) -> Dict[str, int]:
        """Hit/miss counters and current cache occupancy."""
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "evictions": self.cache_evictions,
            "size": len(self._cache),
            "max_size": self._cache_size,
        }

    def clear_cache(self) -> None:
        self._cache.clear()
        self._cache_version = self.groups.version

    def _cache_lookup(self, mask: int) -> Optional[CorrelationResult]:
        if self.groups.version != self._cache_version:
            self.clear_cache()
        result = self._cache.get(mask)
        if result is not None:
            self._cache.move_to_end(mask)
        return result

    def _cache_store(self, mask: int, result: CorrelationResult) -> None:
        self._cache[mask] = result
        if len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)
            self.cache_evictions += 1

    # -- scalar path ----------------------------------------------------- #

    def scan(self, mask: int, visible: Optional[int] = None) -> CorrelationResult:
        """Uncached single-mask scan, over the *visible* bits only when
        given (the quarantine-masked check, whose result depends on the
        quarantine set and so never enters the memo)."""
        return self._scan_many([mask], visible)[0]

    def check(self, mask: int) -> CorrelationResult:
        if not self._cache_size:
            self.cache_misses += 1
            return self.scan(mask)
        cached = self._cache_lookup(mask)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        result = self.scan(mask)
        self._cache_store(mask, result)
        return result

    # -- batch path ------------------------------------------------------ #

    def check_many(self, masks: Sequence[int]) -> List[CorrelationResult]:
        """Correlation checks for a whole segment's windows at once.

        Result-identical to calling :meth:`check` per window; cache-miss
        masks are resolved through one batched distance-matrix pass.
        """
        masks = list(masks)
        if not masks:
            return []
        if not self._cache_size:
            self.cache_misses += len(masks)
            return self._scan_many(masks)
        if self.groups.version != self._cache_version:
            self.clear_cache()
        cache = self._cache
        hits = 0
        results: List[Optional[CorrelationResult]] = [None] * len(masks)
        pending: Dict[int, List[int]] = {}
        for i, mask in enumerate(masks):
            cached = cache.get(mask)
            if cached is not None:
                hits += 1
                cache.move_to_end(mask)
                results[i] = cached
            elif mask in pending:
                # The scalar loop would have hit the entry stored by the
                # first occurrence; count it the same way.
                hits += 1
                pending[mask].append(i)
            else:
                pending[mask] = [i]
        self.cache_hits += hits
        if pending:
            unique = list(pending)
            self.cache_misses += len(unique)
            for mask, result in zip(unique, self._scan_many(unique)):
                cache[mask] = result
                for i in pending[mask]:
                    results[i] = result
            while len(cache) > self._cache_size:
                cache.popitem(last=False)
                self.cache_evictions += 1
        return results  # type: ignore[return-value]

    def warm(self, masks: Sequence[int]) -> int:
        """Prefill the memo for *masks* without touching hit/miss counters.

        The cross-home batched tick stacks the pending windows of every
        home sharing this checker into one ``(W, G)`` matrix pass, then
        each home's in-order drain consults the memo as usual.  Because
        the memo is a pure cache, warming changes *which pass* resolves a
        mask, never the result — per-home alerts are byte-identical to
        the unwarmed path.  Returns the number of masks actually scanned.
        """
        if not self._cache_size:
            return 0
        if self.groups.version != self._cache_version:
            self.clear_cache()
        cache = self._cache
        fresh: List[int] = []
        seen = set()
        for mask in masks:
            if mask in cache:
                cache.move_to_end(mask)
            elif mask not in seen:
                seen.add(mask)
                fresh.append(mask)
        if not fresh:
            return 0
        for mask, result in zip(fresh, self._scan_many(fresh)):
            cache[mask] = result
        while len(cache) > self._cache_size:
            cache.popitem(last=False)
            self.cache_evictions += 1
        return len(fresh)

    def _scan_many(
        self, masks: List[int], visible: Optional[int] = None
    ) -> List[CorrelationResult]:
        """One ``(W, G)`` distance pass, then the candidate rule per row."""
        dist = self.groups.distances_many(masks, visible)
        return candidate_rule(masks, dist, self.max_distance, visible)

    def nearest(self, mask: int, limit_distance: int) -> Tuple[Tuple[int, int], ...]:
        """Candidates of a widened bound, for identification when no
        candidate lies within the standard one.

        The bound widens from ``max_distance + 1`` until some group at a
        non-zero distance falls inside it, or past *limit_distance*; the
        result is every group within that bound (zero distance excluded),
        nearest first.  One distance row answers every widening step.
        """
        dist = self.groups.distances_many([mask])
        apart = dist[dist > 0]
        if not apart.size:
            return ()
        bound = max(self.max_distance + 1, int(apart.min()))
        if bound > limit_distance:
            return ()
        return candidate_rule([mask], dist, bound)[0].probable_groups


class TransitionChecker:
    """§3.3.2 — zero-probability transition detection.

    When constructed with a group registry, G2G violations additionally
    require both endpoint groups to be frequent (``min_group_observations``)
    — see :class:`~repro.core.config.DiceConfig` for the rationale.
    """

    def __init__(
        self,
        transitions: TransitionModel,
        config: DiceConfig,
        groups: Optional[GroupRegistry] = None,
    ) -> None:
        self.transitions = transitions
        self.config = config
        self.groups = groups

    def _group_is_confident(self, group_id: Optional[int]) -> bool:
        if self.groups is None or group_id is None:
            return True
        return self.groups.count_of(group_id) >= self.config.min_group_observations

    def _two_step_reachable(self, prev_group: int, cur_group: int) -> bool:
        """Whether cur is reachable from prev through one intermediate group
        (window-boundary aliasing absorption; see ``DiceConfig``)."""
        if not self.config.g2g_two_step_closure:
            return False
        g2g = self.transitions.g2g
        for middle in g2g.successors(prev_group):
            if middle == prev_group or middle == cur_group:
                continue
            # Only genuine hand-over groups qualify as skipped middles: they
            # dwell for about one window, so their self-loop probability is
            # low.  Long-dwell hubs (most of all the all-quiet group) would
            # otherwise make every pair reachable and blind the check.
            if g2g.probability(middle, middle) > CLOSURE_MAX_SELF_LOOP:
                continue
            if g2g.probability(middle, cur_group) > 0.0:
                return True
        return False

    def check(
        self,
        prev_group: Optional[int],
        cur_group: int,
        prev_actuators: FrozenSet[str],
        cur_actuators: FrozenSet[str],
    ) -> List[TransitionViolation]:
        """All violations for the window transition *prev* → *cur*.

        ``prev_group`` is ``None`` when the previous window had no main
        group (detection is re-anchoring after a violation); G2G and G2A
        are then skipped, A2G still applies.
        """
        violations: List[TransitionViolation] = []
        model = self.transitions
        if prev_group is not None:
            if (
                model.g2g.row_total(prev_group) >= MIN_ROW_OBSERVATIONS
                and model.g2g.probability(prev_group, cur_group) == 0.0
                and self._group_is_confident(prev_group)
                and self._group_is_confident(cur_group)
                and not self._two_step_reachable(prev_group, cur_group)
            ):
                violations.append(
                    TransitionViolation(TransitionCase.G2G, prev_group, cur_group)
                )
            for act in sorted(cur_actuators):
                if (
                    model.g2a.probability(prev_group, act) == 0.0
                    and self._group_is_confident(prev_group)
                ):
                    violations.append(
                        TransitionViolation(
                            TransitionCase.G2A, prev_group, cur_group, actuator=act
                        )
                    )
        for act in sorted(prev_actuators):
            if (
                model.a2g.row_total(act) >= MIN_ROW_OBSERVATIONS
                and model.a2g.probability(act, cur_group) == 0.0
                and self._group_is_confident(cur_group)
            ):
                violations.append(
                    TransitionViolation(
                        TransitionCase.A2G, prev_group, cur_group, actuator=act
                    )
                )
        return violations
