"""Real-time detection checks (§3.3).

The **correlation check** matches each incoming sensor state set against the
training groups: an exact match is the *main group*; near matches (within a
Hamming bound derived from the assumed fault count) are *probable groups*.
No main group ⇒ a correlation violation — a sensor combination never seen in
training.

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

from .config import DiceConfig
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

    def scan(self, mask: int) -> CorrelationResult:
        """Uncached single-mask scan (the pre-memoisation seed path)."""
        candidates = self.groups.candidates(mask, self.max_distance)
        main: Optional[int] = None
        probable: List[Tuple[int, int]] = []
        for group_id, distance in candidates:
            if distance == 0 and main is None:
                main = group_id
            else:
                probable.append((group_id, distance))
        return CorrelationResult(mask, main, tuple(probable))

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
        the memo is a pure cache, warming changes *which kernel* resolves
        a mask, never the result — per-home alerts are byte-identical to
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

    def _scan_many(self, masks: List[int]) -> List[CorrelationResult]:
        """One (W, G) matrix pass; per-row candidate extraction mirrors
        :meth:`PackedBitsets.within` (distance order, ties by group id)."""
        if len(self.groups) == 0:
            return [CorrelationResult(mask, None, ()) for mask in masks]
        dist = self.groups.distances_many(masks)
        rows, cols = np.nonzero(dist <= self.max_distance)
        ds = dist[rows, cols]
        order = np.lexsort((cols, ds, rows))
        rows = rows[order]
        bounds = np.searchsorted(rows, np.arange(len(masks) + 1)).tolist()
        cols = cols[order].tolist()
        ds = ds[order].tolist()
        results: List[CorrelationResult] = []
        for i, mask in enumerate(masks):
            lo, hi = bounds[i], bounds[i + 1]
            if lo == hi:
                # No group within the bound: a correlation violation.
                results.append(CorrelationResult(mask, None, ()))
                continue
            main: Optional[int] = None
            probable: List[Tuple[int, int]] = []
            for k in range(lo, hi):
                if ds[k] == 0 and main is None:
                    main = cols[k]
                else:
                    probable.append((cols[k], ds[k]))
            results.append(CorrelationResult(mask, main, tuple(probable)))
        return results

    def nearest(self, mask: int, limit_distance: int) -> Tuple[Tuple[int, int], ...]:
        """Groups at the smallest non-zero distance ≤ *limit_distance*.

        Fallback for identification when no candidate lies within the
        standard bound: widen the search until some group is comparable.
        """
        for distance in range(self.max_distance + 1, limit_distance + 1):
            candidates = self.groups.candidates(mask, distance)
            hits = tuple((g, d) for g, d in candidates if d > 0)
            if hits:
                return hits
        return ()


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
        max_self = self.config.closure_max_self_loop
        for middle in g2g.successors(prev_group):
            if middle == prev_group or middle == cur_group:
                continue
            # Only genuine hand-over groups qualify as skipped middles: they
            # dwell for about one window, so their self-loop probability is
            # low.  Long-dwell hubs (most of all the all-quiet group) would
            # otherwise make every pair reachable and blind the check.
            if g2g.probability(middle, middle) > max_self:
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
        min_obs = self.config.min_row_observations
        if prev_group is not None:
            if (
                model.g2g.row_total(prev_group) >= min_obs
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
                model.a2g.row_total(act) >= min_obs
                and model.a2g.probability(act, cur_group) == 0.0
                and self._group_is_confident(cur_group)
            ):
                violations.append(
                    TransitionViolation(
                        TransitionCase.A2G, prev_group, cur_group, actuator=act
                    )
                )
        return violations
