"""Tests for the correlation and transition checks (§3.3)."""

import random

from repro.core import (
    BitLayout,
    CorrelationChecker,
    DiceBackend,
    DiceConfig,
    DiceDetector,
    GroupRegistry,
    StateSetEncoder,
    TransitionCase,
    TransitionChecker,
    TransitionModel,
)
from repro.core.encoding import WindowedTrace
from repro.model import DeviceRegistry, SensorType, binary_sensor


def groups_with(registry, masks):
    groups = GroupRegistry(BitLayout(registry))
    for mask in masks:
        groups.add(mask)
    return groups


class TestCorrelationChecker:
    def test_exact_match_is_main_group(self, registry):
        groups = groups_with(registry, [0b01, 0b11])
        checker = CorrelationChecker(groups, DiceConfig())
        result = checker.check(0b01)
        assert not result.is_violation
        assert groups.mask_of(result.main_group) == 0b01

    def test_near_misses_are_probable_groups(self, registry):
        groups = groups_with(registry, [0b01, 0b11])
        checker = CorrelationChecker(groups, DiceConfig())
        result = checker.check(0b01)
        probable_masks = [groups.mask_of(g) for g, _ in result.probable_groups]
        assert 0b11 in probable_masks

    def test_no_match_is_violation(self, registry):
        groups = groups_with(registry, [0b11000])
        checker = CorrelationChecker(groups, DiceConfig(max_candidate_distance=1))
        result = checker.check(0b00001)
        assert result.is_violation
        assert result.probable_groups == ()

    def test_candidate_distance_derives_from_fault_count(self, registry):
        # Numeric sensors present: one fault may flip three bits.
        checker = CorrelationChecker(groups_with(registry, [0]), DiceConfig())
        assert checker.max_distance == 3
        two_fault = CorrelationChecker(
            groups_with(registry, [0]), DiceConfig(num_faults=2)
        )
        assert two_fault.max_distance == 6

    def test_nearest_widens_search(self, registry):
        groups = groups_with(registry, [0b11111])
        checker = CorrelationChecker(groups, DiceConfig(max_candidate_distance=1))
        hits = checker.nearest(0, limit_distance=5)
        assert hits and hits[0][1] == 5


class TestQuarantineTieRule:
    def test_lowest_id_is_main_when_visible_bits_tie(self, registry):
        # Groups 0 and 1 differ only in the bedroom motion bit.  With that
        # device quarantined both sit at distance 0 from a window equal to
        # group 1: the lower id is the main group, and group 1 is neither
        # main nor probable.
        layout = BitLayout(registry)
        kitchen = 1 << layout.bits_of_device("motion_kitchen")[0]
        bedroom = 1 << layout.bits_of_device("motion_bedroom")[0]
        masks = [kitchen, kitchen | bedroom] * 3
        detector = DiceDetector(registry).fit_windows(
            StateSetEncoder(registry),
            WindowedTrace(layout, 60.0, 0.0, masks, [frozenset()] * len(masks)),
        )
        groups = detector.model.groups
        assert groups.lookup(kitchen) == 0 and groups.lookup(kitchen | bedroom) == 1
        mask, qbits = kitchen | bedroom, bedroom
        visible = ~qbits
        assert detector._correlation_checker.check(mask).main_group == 1
        for result in (
            detector._correlation_checker.scan(mask, visible),
            DiceBackend(detector)._check_correlation(mask, qbits),
        ):
            assert result.main_group == 0
            assert 1 not in [g for g, _ in result.probable_groups]
            assert result.mask == mask & visible


def _candidates(result):
    """The main group (distance 0) and every probable group."""
    main = () if result.main_group is None else ((result.main_group, 0),)
    return set(main + result.probable_groups)


class TestHammingBound:
    def test_raising_the_bound_never_removes_a_candidate(self):
        # Metamorphic: a group within Hamming distance d of a window is also
        # within d + 1, so widening the bound may only add candidates, on
        # the scalar and the batched path alike.
        rng = random.Random(20261017)
        checks = widened = 0
        for _ in range(24):
            num_bits = rng.choice([6, 12, 40, 70])
            registry = DeviceRegistry(
                [
                    binary_sensor(f"s{i}", SensorType.MOTION, f"room{i % 4}")
                    for i in range(num_bits)
                ]
            )
            masks = sorted(
                {
                    rng.getrandbits(num_bits) & rng.getrandbits(num_bits)
                    for _ in range(rng.randrange(1, 80))
                }
            )
            groups = groups_with(registry, masks)
            probes = []
            for _ in range(rng.choice([20, 100])):
                mask = rng.choice(masks)
                for _ in range(rng.randrange(5)):
                    mask ^= 1 << rng.randrange(num_bits)
                probes.append(mask)
            for d in range(1, 6):

                def narrow_and_wide():
                    return [
                        CorrelationChecker(groups, DiceConfig(max_candidate_distance=n))
                        for n in (d, d + 1)
                    ]

                narrow, wide = narrow_and_wide()
                pairs = list(zip(narrow.check_many(probes), wide.check_many(probes)))
                narrow, wide = narrow_and_wide()
                pairs += [(narrow.check(mask), wide.check(mask)) for mask in probes]
                for small, large in pairs:
                    assert small.main_group == large.main_group
                    assert _candidates(small) <= _candidates(large)
                    widened += _candidates(small) < _candidates(large)
                checks += 2 * len(pairs)
        assert checks > 10_000 and widened > 0


def model_from(sequence, activations=None):
    activations = activations or [frozenset()] * len(sequence)
    return TransitionModel.extract(sequence, activations)


class TestCorrelationCache:
    def test_repeat_check_hits_cache(self, registry):
        groups = groups_with(registry, [0b01, 0b11])
        checker = CorrelationChecker(groups, DiceConfig())
        first = checker.check(0b01)
        second = checker.check(0b01)
        assert first == second
        assert checker.cache_info() == {
            "hits": 1,
            "misses": 1,
            "size": 1,
            "max_size": DiceConfig().correlation_cache_size,
            "evictions": 0,
        }

    def test_cache_size_zero_disables_memoisation(self, registry):
        groups = groups_with(registry, [0b01])
        checker = CorrelationChecker(groups, DiceConfig(correlation_cache_size=0))
        checker.check(0b01)
        checker.check(0b01)
        info = checker.cache_info()
        assert info["hits"] == 0
        assert info["misses"] == 2
        assert info["size"] == 0

    def test_lru_evicts_oldest_entry(self, registry):
        groups = groups_with(registry, [0b01, 0b10, 0b11])
        checker = CorrelationChecker(groups, DiceConfig(correlation_cache_size=2))
        checker.check(0b01)
        checker.check(0b10)
        checker.check(0b01)  # touch 0b01 so 0b10 is now the LRU entry
        checker.check(0b11)  # evicts 0b10
        assert set(checker._cache) == {0b01, 0b11}
        checker.check(0b10)
        assert checker.cache_misses == 4  # 0b10 had to be re-scanned

    def test_registry_growth_invalidates_cache(self, registry):
        groups = groups_with(registry, [0b11])
        checker = CorrelationChecker(groups, DiceConfig())
        assert checker.check(0b01).main_group is None
        groups.add(0b01)  # bumps GroupRegistry.version
        result = checker.check(0b01)
        assert result.main_group is not None
        assert groups.mask_of(result.main_group) == 0b01

    def test_check_many_matches_scalar_results_and_counters(self, registry):
        groups = groups_with(registry, [0b001, 0b011, 0b110])
        probes = [0b001, 0b111, 0b001, 0b011, 0b111, 0b000]
        scalar = CorrelationChecker(groups, DiceConfig())
        scalar_results = [scalar.check(mask) for mask in probes]
        batch = CorrelationChecker(groups, DiceConfig())
        batch_results = batch.check_many(probes)
        assert batch_results == scalar_results
        assert batch.cache_info() == scalar.cache_info()

    def test_check_many_without_cache_matches_scan(self, registry):
        groups = groups_with(registry, [0b001, 0b011])
        probes = [0b001, 0b010, 0b001]
        checker = CorrelationChecker(groups, DiceConfig(correlation_cache_size=0))
        assert checker.check_many(probes) == [checker.scan(m) for m in probes]

    def test_check_many_empty_registry(self, registry):
        groups = groups_with(registry, [])
        checker = CorrelationChecker(groups, DiceConfig())
        results = checker.check_many([0b01, 0b10])
        assert all(r.is_violation for r in results)

    def test_clear_cache_resets_entries_not_counters(self, registry):
        groups = groups_with(registry, [0b01])
        checker = CorrelationChecker(groups, DiceConfig())
        checker.check(0b01)
        checker.check(0b01)
        checker.clear_cache()
        info = checker.cache_info()
        assert info["size"] == 0
        assert info["hits"] == 1 and info["misses"] == 1


class TestTransitionChecker:
    def config(self, **kw):
        defaults = dict(min_group_observations=1, g2g_two_step_closure=False)
        defaults.update(kw)
        return DiceConfig(**defaults)

    def test_known_transition_passes(self):
        checker = TransitionChecker(model_from([0, 1]), self.config())
        assert checker.check(0, 1, frozenset(), frozenset()) == []

    def test_unknown_g2g_transition_violates(self):
        checker = TransitionChecker(model_from([0, 1, 0, 1]), self.config())
        violations = checker.check(1, 1, frozenset(), frozenset())
        assert [v.case for v in violations] == [TransitionCase.G2G]

    def test_none_prev_group_skips_g2g(self):
        checker = TransitionChecker(model_from([0, 1]), self.config())
        assert checker.check(None, 1, frozenset(), frozenset()) == []

    def test_g2a_violation_for_unseen_activation(self):
        model = model_from([0, 1], [frozenset(), frozenset({"hue"})])
        checker = TransitionChecker(model, self.config())
        violations = checker.check(1, 0, frozenset(), frozenset({"hue"}))
        assert any(v.case is TransitionCase.G2A for v in violations)
        assert violations[0].actuator == "hue"

    def test_g2a_known_activation_passes(self):
        model = model_from([0, 1], [frozenset(), frozenset({"hue"})])
        checker = TransitionChecker(model, self.config())
        assert checker.check(0, 1, frozenset(), frozenset({"hue"})) == []

    def test_a2g_violation(self):
        model = model_from([0, 1, 2], [frozenset({"hue"}), frozenset(), frozenset()])
        checker = TransitionChecker(model, self.config())
        violations = checker.check(0, 2, frozenset({"hue"}), frozenset())
        assert any(v.case is TransitionCase.A2G for v in violations)

    def test_a2g_known_passes(self):
        model = model_from([0, 1, 2], [frozenset({"hue"}), frozenset(), frozenset()])
        checker = TransitionChecker(model, self.config())
        assert checker.check(0, 1, frozenset({"hue"}), frozenset()) == []

    def test_min_group_observations_guard(self, registry):
        groups = groups_with(registry, [0b01, 0b10])
        model = model_from([0, 1, 0, 1])
        checker = TransitionChecker(
            model, self.config(min_group_observations=5), groups
        )
        # Both groups observed only twice -> below confidence -> no violation.
        assert checker.check(1, 1, frozenset(), frozenset()) == []

    def test_two_step_closure_absorbs_aliased_pair(self):
        # Training: a -> b -> c (b is a short-dwell hand-over group).
        model = model_from([0, 1, 2, 0, 1, 2])
        strict = TransitionChecker(model, self.config())
        assert strict.check(0, 2, frozenset(), frozenset())
        closed = TransitionChecker(
            model, self.config(g2g_two_step_closure=True)
        )
        assert closed.check(0, 2, frozenset(), frozenset()) == []

    def test_closure_ignores_long_dwell_middles(self):
        # b self-loops heavily: it is a hub, not a skipped boundary group.
        sequence = [0, 1, 1, 1, 1, 1, 1, 1, 1, 2] * 2
        model = model_from(sequence)
        closed = TransitionChecker(model, self.config(g2g_two_step_closure=True))
        violations = closed.check(0, 2, frozenset(), frozenset())
        assert [v.case for v in violations] == [TransitionCase.G2G]
