"""Randomized differential tests: two implementations, one truth.

Two oracle pairs are cross-checked on fixed-seed random inputs
(stdlib ``random`` only, so the suite stays deterministic across
platforms and numpy versions):

* **streaming vs batch** — :class:`~repro.streaming.OnlineDice` replaying
  a live segment event-at-a-time must raise exactly the alerts that
  :meth:`DiceDetector.process` derives from the same segment in one
  vectorised pass: same times, checks, transition cases, device sets and
  convergence flags, in the same order.  Fifty random deployments
  (1-5 binary sensors, optional numeric sensor and actuator, varying
  phase structure and window alignment) are each run through one of five
  live-segment perturbations (identity / drop a device / drop random
  events / duplicate events / corrupt values) so the comparison covers
  healthy and faulty streams alike.  Twenty more run under Ch. VI device
  weights and twenty under the multi-fault configuration (numThre 3).

* **packed vs scalar Hamming** — :meth:`PackedBitsets.distances_many`
  (one probe or many, over every bit or only a visibility mask) must agree
  with the obvious ``((a ^ b) & visible).bit_count()`` oracle for every bit
  width straddling the 64-bit word boundaries.

The detector core has no independent twin for absolute time or for
device order, so two metamorphic relations cover them: shifting a
deployment's training trace and live segment by a whole number of windows
shifts every batch and streamed alert by the same amount and changes
nothing else; and permuting the device registry (which relabels the
state-set bits) leaves the fitted groups, the G2G matrix and every alert
on the Ch. V segments unchanged.
"""

import random

import numpy as np
import pytest

from repro.core import DEFAULT_CONFIG, DeviceWeights, DiceConfig, DiceDetector
from repro.core.bitset import PackedBitsets
from repro.datasets import load_dataset
from repro.faults.segments import make_segment_pairs
from repro.model import (
    DeviceRegistry,
    Event,
    SensorType,
    Trace,
    actuator,
    binary_sensor,
    numeric_sensor,
)
from repro.streaming import OnlineDice

HOUR = 3600.0
SEED = 20260806
TRIALS = 50
PARITY_VARIANT_TRIALS = 20
PERTURBATIONS = ["identity", "drop_device", "drop_random", "duplicate", "corrupt"]


# ---------------------------------------------------------------------------
# Random deployment generator
# ---------------------------------------------------------------------------


def _build_registry(k_binary, with_numeric, with_actuator):
    devices = [
        binary_sensor(f"m{i}", SensorType.MOTION, f"room{i % 3}")
        for i in range(k_binary)
    ]
    if with_numeric:
        devices.append(numeric_sensor("temp0", SensorType.TEMPERATURE, "room0"))
    if with_actuator:
        devices.append(actuator("act0", SensorType.BULB, "room0"))
    return DeviceRegistry(devices)


def _build_trace(rng, registry, hours, phase):
    """Phased activity: one device active per phase, at a random cadence."""
    events = []
    horizon = hours * HOUR
    ids = registry.device_ids
    t = 0.0
    while t < horizon:
        active = ids[rng.randrange(len(ids))]
        step = rng.choice([20.0, 30.0, 45.0])
        s = t
        while s < min(t + phase, horizon):
            if active.startswith("temp"):
                events.append(Event(s, active, 20.0 + 5.0 * rng.random()))
            elif active.startswith("act"):
                events.append(Event(s, active, 1.0))
                events.append(Event(min(s + step / 2, horizon), active, 0.0))
            else:
                events.append(Event(s, active, 1.0))
            s += step
        t += phase
    return Trace.from_events(registry, events, start=0.0, end=horizon)


def _perturb(rng, live, kind):
    """Inject a fault into the live segment (or none, for ``identity``)."""
    if kind == "identity":
        return live
    if kind == "drop_device":
        return live.without_device(rng.choice(live.registry.device_ids))
    events = list(live)
    if kind == "drop_random":
        events = [e for e in events if rng.random() > 0.25]
    elif kind == "duplicate":
        events = events + [e for e in events if rng.random() < 0.1]
    elif kind == "corrupt":
        events = [
            Event(e.timestamp, e.device_id, 0.0 if rng.random() < 0.1 else e.value)
            for e in events
        ]
    return Trace.from_events(live.registry, events, start=live.start, end=live.end)


def _alert_views(online, batch):
    """Project streaming alerts and a batch report onto comparable tuples."""
    s_det = [(a.time, a.check, a.cases) for a in online.alerts if a.kind == "detection"]
    b_det = [(r.time, r.check, r.cases) for r in batch.detections]
    s_idn = [
        (a.time, tuple(sorted(a.devices)), a.converged, a.check)
        for a in online.alerts
        if a.kind == "identification"
    ]
    b_idn = [
        (r.time, tuple(sorted(r.devices)), r.converged, r.check)
        for r in batch.identifications
    ]
    return s_det, b_det, s_idn, b_idn


# ---------------------------------------------------------------------------
# Part A: streaming runtime vs batch detector
# ---------------------------------------------------------------------------


def _parity_trials(seed, trials, config=DEFAULT_CONFIG, weights=None):
    """Streaming vs batch on *trials* random deployments; returns the
    batch reports."""
    # One sequential RNG across all trials: each trial's deployment depends
    # on the seed alone, and any failure message names the trial to replay.
    rng = random.Random(seed)
    reports = []
    for trial in range(trials):
        # Trial 0 pins the degenerate single-sensor deployment.
        k = 1 if trial == 0 else rng.randrange(1, 6)
        registry = _build_registry(
            k,
            trial != 0 and rng.random() < 0.5,
            trial != 0 and rng.random() < 0.5,
        )
        hours = rng.choice([4.0, 6.0, 8.0])
        phase = rng.choice([300.0, 600.0, 900.0])
        trace = _build_trace(rng, registry, hours, phase)
        # A fractional split leaves the live segment unaligned with the
        # window grid, exercising the trailing-partial-window semantics.
        split = hours * HOUR * rng.uniform(0.6, 0.75)
        detector = DiceDetector(registry, config, weights).fit(
            trace.slice(0.0, split)
        )
        live = _perturb(
            rng,
            trace.slice(split, hours * HOUR),
            PERTURBATIONS[trial % len(PERTURBATIONS)],
        )

        batch = detector.process(live)
        online = OnlineDice(detector, start=live.start)
        online.replay(live)

        s_det, b_det, s_idn, b_idn = _alert_views(online, batch)
        assert s_det == b_det, f"trial {trial}: detection streams diverged"
        assert s_idn == b_idn, f"trial {trial}: identification streams diverged"
        reports.append(batch)
    return reports


def test_streaming_matches_batch_on_random_traces():
    reports = _parity_trials(SEED, TRIALS)
    # The corpus must actually exercise the pipeline, not compare silence.
    assert sum(len(report.alerts) for report in reports) > 50


def test_streaming_matches_batch_under_weights_and_multi_fault():
    # Ch. VI criticality weights (an early alarm once the critical sensor
    # is a suspect) and the E9 multi-fault setting (numThre 3), on the
    # same deployments.
    configs = {
        "weights": (DEFAULT_CONFIG, DeviceWeights.for_safety_sensors(["m0"])),
        "multi_fault": (DiceConfig(num_faults=3), None),
    }
    verdicts = []
    for config, weights in configs.values():
        reports = _parity_trials(SEED + 2, PARITY_VARIANT_TRIALS, config, weights)
        for report in reports:
            verdicts.extend(report.identifications)
    # Neither setting may compare silence: each must shape some verdict.
    assert any(v.weighted_early for v in verdicts)
    assert any(len(v.devices) > 1 for v in verdicts)


def test_streaming_matches_batch_across_silent_gaps():
    # A live segment that goes completely dark mid-stream: every window in
    # the gap is empty, and both sides must step through the same number of
    # (empty) windows and agree on everything raised around the gap.
    rng = random.Random(SEED + 1)
    registry = _build_registry(3, True, False)
    trace = _build_trace(rng, registry, 6.0, 600.0)
    split = 4.0 * HOUR
    detector = DiceDetector(registry).fit(trace.slice(0.0, split))
    live = trace.slice(split, 6.0 * HOUR)
    gap_start, gap_end = split + 0.4 * HOUR, split + 1.1 * HOUR
    gapped = Trace.from_events(
        registry,
        [e for e in live if not gap_start <= e.timestamp < gap_end],
        start=live.start,
        end=live.end,
    )

    batch = detector.process(gapped)
    online = OnlineDice(detector, start=gapped.start)
    online.replay(gapped)

    s_det, b_det, s_idn, b_idn = _alert_views(online, batch)
    assert s_det == b_det
    assert s_idn == b_idn


# ---------------------------------------------------------------------------
# Part B: packed Hamming kernels vs the scalar oracle
# ---------------------------------------------------------------------------


def _random_masks(rng, num_bits, count):
    masks = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.1:
            masks.append(0)
        elif roll < 0.2:
            masks.append((1 << num_bits) - 1)
        else:
            masks.append(rng.getrandbits(num_bits))
    return masks


@pytest.mark.parametrize("num_bits", [1, 7, 64, 65, 130])
def test_distances_many_matches_scalar_hamming(num_bits):
    # Widths straddle the packing boundaries: sub-word, exactly one word,
    # one word + 1 bit, two words + 2 bits.  Visibility masks come as the
    # runtime passes them (``~quarantined_bits``, negative) and as plain
    # non-negative masks; ``None`` counts every bit.
    rng = random.Random(SEED + num_bits)
    for n_rows in [1, 5, 40]:
        rows = _random_masks(rng, num_bits, n_rows)
        packed = PackedBitsets(num_bits, rows)
        for n_probes in [1, 3, 80]:
            probes = _random_masks(rng, num_bits, n_probes)
            for visible in (
                None,
                ~rng.getrandbits(num_bits),
                rng.getrandbits(num_bits),
            ):
                got = packed.distances_many(probes, visible)
                assert got.shape == (n_probes, n_rows)
                keep = -1 if visible is None else visible
                for i, probe in enumerate(probes):
                    for j, row in enumerate(rows):
                        assert got[i, j] == bin((probe ^ row) & keep).count("1"), (
                            f"bits={num_bits} probe#{i} row#{j} visible={visible}"
                        )


def test_distances_many_counts_scan_passes():
    rng = random.Random(SEED)
    packed = PackedBitsets(130, _random_masks(rng, 130, 8))
    packed.distances_many(_random_masks(rng, 130, 3))
    packed.distances_many(_random_masks(rng, 130, 1), visible=~1)
    packed.distances_many(_random_masks(rng, 130, 64))
    assert packed.scan_passes == 3


def test_distances_many_degenerate_shapes():
    packed = PackedBitsets(16, [0xBEEF, 0x0])
    assert packed.distances_many([]).shape == (0, 2)
    empty = PackedBitsets(16)
    assert empty.distances_many([1, 2]).shape == (2, 0)
    # Degenerate calls return early without counting a scan pass.
    assert packed.scan_passes == 0
    assert empty.scan_passes == 0


# ---------------------------------------------------------------------------
# Part C: shifting time by whole windows shifts the alerts
# ---------------------------------------------------------------------------


def _shift_views(alerts, dt):
    """Alerts without their times, and their times with *dt* taken off."""
    views = [
        (a.kind, a.check, a.cases, tuple(sorted(a.devices)), a.converged)
        for a in alerts
    ]
    return views, [a.time - dt for a in alerts]


def test_time_shift_shifts_alerts_by_the_same_amount():
    rng = random.Random(SEED + 3)
    totals = {"batch": 0, "streamed": 0}
    for trial in range(TRIALS):
        registry = _build_registry(
            rng.randrange(1, 6), rng.random() < 0.5, rng.random() < 0.5
        )
        hours = rng.choice([4.0, 6.0, 8.0])
        trace = _build_trace(rng, registry, hours, rng.choice([300.0, 600.0, 900.0]))
        split = hours * HOUR * rng.uniform(0.6, 0.75)
        train = trace.slice(0.0, split)
        live = _perturb(
            rng,
            trace.slice(split, hours * HOUR),
            PERTURBATIONS[trial % len(PERTURBATIONS)],
        )
        dt = 60.0 * rng.randrange(1, 100_000)
        runs = []
        for shift in (0.0, dt):
            detector = DiceDetector(registry).fit(train.shifted(shift))
            segment = live.shifted(shift)
            online = OnlineDice(detector, start=segment.start)
            online.replay(segment)
            runs.append(
                {
                    "batch": _shift_views(detector.process(segment).alerts, shift),
                    "streamed": _shift_views(online.alerts, shift),
                }
            )
        for path in totals:
            (views, times), (moved_views, moved_times) = runs[0][path], runs[1][path]
            assert moved_views == views, f"trial {trial}: {path} alerts changed"
            # The fractional split rounds differently once shifted.
            assert moved_times == pytest.approx(times, abs=1e-6), (
                f"trial {trial}: {path} alert times moved by other than {dt} s"
            )
            totals[path] += len(views)
    # The relation must be checked on alerts, not on silence.
    assert min(totals.values()) > 50, totals


# ---------------------------------------------------------------------------
# Part D: device registration order is a relabelling, not a behaviour
# ---------------------------------------------------------------------------


def _relabel(trace, registry, new_index):
    """*trace* over *registry*, a permutation of its own registry."""
    return Trace(
        registry, trace.timestamps, new_index[trace.device_indices],
        trace.values, start=trace.start, end=trace.end,
    )


def _order_views(alerts):
    return [
        (a.kind, a.time, a.check, a.cases, a.devices, a.converged, a.windows_used)
        for a in alerts
    ]


@pytest.mark.parametrize("name", ["houseA", "D_houseA", "hh102"])
def test_registration_order_leaves_alerts_unchanged(name):
    # Registry order lays out the state-set bits and orders the actuator
    # codes of the fit, but Hamming distances, first-appearance group ids
    # and device sets do not depend on it: a permuted registry must fit the
    # same groups and transitions and raise the same alerts on the same
    # Ch. V segments, faultless and faulty.
    trace = load_dataset(name, seed=1, hours=400.0).trace
    training, pairs = make_segment_pairs(trace, np.random.default_rng(1), count=8)
    segments = [s for pair in pairs for s in (pair.faultless, pair.faulty)]
    reference = DiceDetector(trace.registry).fit(training)
    expected = [_order_views(reference.process(s).alerts) for s in segments]
    devices = list(trace.registry)
    rng = random.Random(SEED + 4)
    for trial in range(3):
        order = list(range(len(devices)))
        rng.shuffle(order)
        registry = DeviceRegistry([devices[i] for i in order])
        new_index = np.empty(len(order), dtype=np.int32)
        new_index[order] = np.arange(len(order))
        detector = DiceDetector(registry).fit(
            _relabel(training, registry, new_index)
        )
        groups, ref_groups = detector.model.groups, reference.model.groups
        assert groups.masks != ref_groups.masks, "the bit layout must move"
        assert groups._counts == ref_groups._counts
        assert detector.model.transitions.g2g._counts == (
            reference.model.transitions.g2g._counts
        )
        for index, (segment, views) in enumerate(zip(segments, expected)):
            got = detector.process(_relabel(segment, registry, new_index))
            assert _order_views(got.alerts) == views, (
                f"{name} permutation {trial}, segment {index}"
            )
    assert sum(len(views) for views in expected) > 100
