"""Every correlation-check entry point against one pure-Python candidate rule.

The rule (§3.3.1): a window's distance to a group is
``popcount((mask ^ group) & visible)``; the lowest group id at distance 0 is
the main group (any other group at 0 is neither main nor probable); the
probable groups are those at ``0 < d <= bound``, sorted by (distance, id).
``check``, ``check_many``, ``warm``-then-``check`` and ``scan`` (with and
without a visibility mask) must all agree with it on random registries at
the 64-bit word boundaries.

The widened search and the Markov-only comparator's nearest group are
checked against the per-bound scans they replaced.  Each ``loop_*``
function below is the former production code, kept verbatim as an oracle:
``PackedBitsets.distances``/``masked_distances``/``within``,
``GroupRegistry.candidates`` and the widening loop of
``CorrelationChecker.nearest``.
"""

import random

import numpy as np
import pytest

from repro.core import (
    BitLayout,
    CorrelationChecker,
    DiceBackend,
    DiceConfig,
    DiceDetector,
    StateSetEncoder,
)
from repro.core.bitset import PackedBitsets, pack_int
from repro.core.checks import CorrelationResult
from repro.core.comparators import MarkovOnlyBackend
from repro.core.encoding import WindowedTrace
from repro.model import DeviceRegistry, SensorType, binary_sensor

SEED = 20261018
WIDTHS = [1, 7, 63, 64, 65, 127, 128, 130]


def reference_rule(group_masks, mask, bound, visible=None):
    keep = -1 if visible is None else visible
    dists = [bin((mask ^ group) & keep).count("1") for group in group_masks]
    main = next((g for g, d in enumerate(dists) if d == 0), None)
    probable = sorted(
        ((g, d) for g, d in enumerate(dists) if 0 < d <= bound),
        key=lambda pair: (pair[1], pair[0]),
    )
    return CorrelationResult(mask & keep, main, tuple(probable))


def loop_distances(self: PackedBitsets, mask: int) -> np.ndarray:
    if not self._masks:
        return np.empty(0, dtype=np.int64)
    probe = pack_int(mask, self.num_words)
    xored = self.rows ^ probe[None, :]
    return np.bitwise_count(xored).sum(axis=1).astype(np.int64)


def loop_masked_distances(self: PackedBitsets, mask: int, visible) -> np.ndarray:
    if visible is None:
        return loop_distances(self, mask)
    if not self._masks:
        return np.empty(0, dtype=np.int64)
    probe = pack_int(mask, self.num_words)
    keep = pack_int(
        visible & ((1 << (64 * self.num_words)) - 1), self.num_words
    )
    xored = (self.rows ^ probe[None, :]) & keep[None, :]
    return np.bitwise_count(xored).sum(axis=1).astype(np.int64)


def loop_within(self: PackedBitsets, mask: int, max_distance: int):
    dists = loop_distances(self, mask)
    hit = np.nonzero(dists <= max_distance)[0]
    order = np.lexsort((hit, dists[hit]))
    hit = hit[order]
    return hit, dists[hit]


def loop_candidates(self, mask: int, max_distance: int):
    ids, dists = loop_within(self._bitsets, mask, max_distance)
    return [(int(g), int(d)) for g, d in zip(ids, dists)]


def loop_nearest(self: CorrelationChecker, mask: int, limit_distance: int):
    for distance in range(self.max_distance + 1, limit_distance + 1):
        candidates = loop_candidates(self.groups, mask, distance)
        hits = tuple((g, d) for g, d in candidates if d > 0)
        if hits:
            return hits
    return ()


def loop_markov_nearest(groups, mask: int, qbits: int) -> int:
    if qbits:
        return int(np.argmin(loop_masked_distances(groups._bitsets, mask, ~qbits)))
    nearest = groups.lookup(mask)
    if nearest is None:
        nearest = loop_candidates(groups, mask, groups.layout.num_bits)[0][0]
    return nearest


def _fitted(num_bits, group_masks, config=DiceConfig()):
    registry = DeviceRegistry(
        [
            binary_sensor(f"s{i:03d}", SensorType.MOTION, f"room{i % 4}")
            for i in range(num_bits)
        ]
    )
    windowed = WindowedTrace(
        BitLayout(registry), 60.0, 0.0, group_masks,
        [frozenset()] * len(group_masks),
    )
    return DiceDetector(registry, config).fit_windows(
        StateSetEncoder(registry), windowed
    )


def _trial(rng, num_bits):
    """Clustered groups and probes, and quarantine bits that some of the
    groups differ in (so a visibility mask makes ties)."""
    hidden = [rng.randrange(num_bits) for _ in range(rng.randint(1, 1 + num_bits // 16))]

    def flipped(mask, flips):
        for _ in range(flips):
            bit = rng.choice(hidden) if rng.random() < 0.5 else rng.randrange(num_bits)
            mask ^= 1 << bit
        return mask

    bases = [rng.getrandbits(num_bits) for _ in range(rng.randint(1, 3))]
    pool = {flipped(rng.choice(bases), rng.randrange(4)) for _ in range(rng.randint(1, 30))}
    groups = sorted(pool, key=lambda _: rng.random())
    probes = [
        flipped(
            rng.choice(groups) if rng.random() < 0.6 else rng.getrandbits(num_bits),
            rng.randrange(6),
        )
        for _ in range(12)
    ]
    qbits = 0
    for bit in hidden:
        qbits |= 1 << bit
    return groups, probes, qbits


@pytest.mark.parametrize("num_bits", WIDTHS)
def test_every_entry_point_follows_the_rule(num_bits):
    rng = random.Random(SEED + num_bits)
    ties = 0
    for _ in range(6):
        groups, probes, qbits = _trial(rng, num_bits)
        config = DiceConfig(max_candidate_distance=rng.randint(1, 4))
        detector = _fitted(num_bits, groups, config)
        model = detector.model
        bound = detector._correlation_checker.max_distance
        masks = model.groups.masks
        want = [reference_rule(masks, m, bound) for m in probes]
        visible = ~qbits
        want_masked = [reference_rule(masks, m, bound, visible) for m in probes]
        ties += sum(
            sum(bin((m ^ g) & visible).count("1") == 0 for g in masks) > 1
            for m in probes
        )

        checker = CorrelationChecker(model.groups, config)
        assert [checker.check(m) for m in probes] == want
        assert CorrelationChecker(model.groups, config).check_many(probes) == want
        warmed = CorrelationChecker(model.groups, config)
        warmed.warm(probes)
        assert [warmed.check(m) for m in probes] == want
        assert warmed.cache_info()["misses"] == 0
        assert [checker.scan(m) for m in probes] == want
        assert [checker.scan(m, visible) for m in probes] == want_masked
        backend = DiceBackend(detector)
        assert [backend._check_correlation(m, qbits) for m in probes] == want_masked
    assert ties > 0


@pytest.mark.parametrize("num_bits", WIDTHS)
def test_nearest_matches_the_widening_loop(num_bits):
    rng = random.Random(SEED - num_bits)
    for _ in range(6):
        groups, probes, _ = _trial(rng, num_bits)
        config = DiceConfig(max_candidate_distance=rng.randint(1, 3))
        checker = _fitted(num_bits, groups, config)._correlation_checker
        for mask in probes:
            for limit in (checker.max_distance, checker.max_distance + 2, num_bits):
                assert checker.nearest(mask, limit) == loop_nearest(
                    checker, mask, limit
                )


@pytest.mark.parametrize("num_bits", WIDTHS)
def test_markov_only_nearest_group_matches_the_sorted_scan(num_bits):
    rng = random.Random(SEED * 3 + num_bits)
    for _ in range(6):
        groups, probes, qbits = _trial(rng, num_bits)
        backend = MarkovOnlyBackend(_fitted(num_bits, groups))
        registry = backend.dice_detector.model.groups
        for mask in probes:
            for hidden in (0, qbits):
                result = backend._check_correlation(mask, hidden)
                assert result.main_group == loop_markov_nearest(
                    registry, mask, hidden
                )
                assert result.mask == mask & ~hidden
                assert result.probable_groups == ()
