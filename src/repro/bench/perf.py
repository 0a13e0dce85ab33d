"""Timing harness for the detection hot paths (``repro bench``).

The paper singles out "obtaining probable groups" — the Hamming scan over
all training groups — as the dominant real-time cost (Fig. 5.3); this
module times exactly the paths successive PRs optimise and writes the
results to ``BENCH_perf.json`` so future changes have a trajectory to
regress against:

* **fit** — group interning (``GroupRegistry.from_windows``) over growing
  synthetic traces; linear thanks to the capacity-doubled bitset storage;
* **scan** — the per-window correlation check over ``G`` groups ×
  ``W`` windows, four ways: uncached scalar (the seed path), memoised
  scalar cold/warm, and the batched ``check_many`` matrix pass;
* **telemetry** — the streamed per-window segment path with a live
  metrics registry vs the disabled ``NULL_REGISTRY`` twin, so the stage
  clock's cost stays visible (budget: ≤ 5 % overhead);
* **provenance** — the alert-evidence recorder's hot-path cost: the same
  live stream with ``NULL_PROVENANCE`` vs the default recorder (budget:
  ≤ 1.1x events/s — evidence capture must be nearly free because it only
  does work when an alert actually fires);
* **capacity** — the estate-scale question: H homes stamped from K
  archetypes, run shared+batched (content-addressed contexts, cross-home
  memo-prewarming tick) vs fully replicated with per-home event loops,
  with per-home alert parity asserted, trained-state bytes/home from the
  deterministic estimator, and a memory projection out to 100k homes.

All workloads are seeded and synthetic — the harness needs no dataset
files and produces no timing *assertions* (CI runs it as a smoke test;
regressions are judged by humans reading the JSON trajectory).
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import telemetry
from ..core import DiceBackend, DiceConfig, DiceDetector
from ..core.checks import CorrelationChecker
from ..core.encoding import BitLayout, WindowedTrace
from ..core.groups import GroupRegistry
from ..model import DeviceRegistry, SensorType, binary_sensor

#: /2 added the ``telemetry`` overhead section; /3 added the ``fleet``
#: homes x shards scaling section; /4 added the ``journal`` write-ahead
#: journal overhead section; /5 added the ``scenarios`` matrix section;
#: /6 added the ``capacity`` shared-context section, per-kernel scan
#: accounting, and effective worker counts in ``eval``; /7 added the
#: ``provenance`` evidence-recorder overhead section; /8 added the
#: ``backends`` per-backend streaming comparison section; /9 added the
#: ``service`` loopback ingest-service overhead + overload section; /10
#: dropped ``eval``, ``fleet``, ``journal``, ``scenarios``, ``backends``
#: and ``service``, which perfbench and the test suite measure and hold;
#: /11 dropped the scan rows' kernel-choice fields (``kernel``,
#: ``kernel_calls``, the crossover and the forced-kernel timings): one
#: Hamming kernel is left; /12 times ``telemetry`` on the streamed path
#: (``stream_segment``), the only path that writes to the registry.
BENCH_SCHEMA = "dice-bench-perf/12"
DEFAULT_OUTPUT = "BENCH_perf.json"


# --------------------------------------------------------------------- #
# Synthetic workloads
# --------------------------------------------------------------------- #


def _synthetic_layout(num_bits: int) -> BitLayout:
    registry = DeviceRegistry(
        [
            binary_sensor(f"s{i:03d}", SensorType.MOTION, f"room{i % 8}")
            for i in range(num_bits)
        ]
    )
    return BitLayout(registry)


def _random_mask(rng: np.random.Generator, num_bits: int, density: float) -> int:
    bits = np.nonzero(rng.random(num_bits) < density)[0]
    mask = 0
    for b in bits:
        mask |= 1 << int(b)
    return mask


def _group_pool(
    rng: np.random.Generator, num_bits: int, count: int, density: float = 0.08
) -> List[int]:
    """*count* distinct synthetic group masks."""
    pool: List[int] = []
    seen = set()
    while len(pool) < count:
        mask = _random_mask(rng, num_bits, density)
        if mask not in seen:
            seen.add(mask)
            pool.append(mask)
    return pool


def _probe_stream(
    rng: np.random.Generator, pool: Sequence[int], num_bits: int, count: int
) -> List[int]:
    """A window-mask stream with smart-home repetition structure.

    State sets "retain their value for several rounds" (§5.2): ~70 % of
    windows repeat a known group mask, ~20 % are near misses (1-2 bits
    flipped), ~10 % are novel — so the stream exercises cache hits, probable
    groups, and violations alike.
    """
    probes: List[int] = []
    for _ in range(count):
        roll = rng.random()
        base = pool[int(rng.integers(len(pool)))]
        if roll < 0.7:
            probes.append(base)
        elif roll < 0.9:
            for b in rng.integers(0, num_bits, size=int(rng.integers(1, 3))):
                base ^= 1 << int(b)
            probes.append(base)
        else:
            probes.append(_random_mask(rng, num_bits, 0.1))
    return probes


# --------------------------------------------------------------------- #
# Sections
# --------------------------------------------------------------------- #


def bench_fit(
    sizes: Sequence[int], num_bits: int, seed: int
) -> List[Dict]:
    """Group interning over growing synthetic traces (amortised append)."""
    layout = _synthetic_layout(num_bits)
    results = []
    for n_windows in sizes:
        rng = np.random.default_rng(seed)
        # ~60 % unique masks so the registry itself grows with the trace.
        pool = _group_pool(rng, num_bits, max(2, int(n_windows * 0.6)))
        masks = [pool[int(rng.integers(len(pool)))] for _ in range(n_windows)]
        windowed = WindowedTrace(
            layout, 60.0, 0.0, masks, [frozenset()] * n_windows
        )
        t0 = time.perf_counter()
        registry, _ = GroupRegistry.from_windows(windowed)
        seconds = time.perf_counter() - t0
        results.append(
            {
                "windows": int(n_windows),
                "groups": len(registry),
                "seconds": seconds,
            }
        )
    return results


def _best_of(repeats: int, make_timed):
    """Run ``make_timed()`` *repeats* times; return (best seconds, result).

    Taking the minimum is the standard defence against scheduler noise on
    loaded machines — every run does identical work, so the fastest run is
    the closest to the true cost.
    """
    best_s = float("inf")
    result = None
    for i in range(repeats):
        t0 = time.perf_counter()
        out = make_timed()
        seconds = time.perf_counter() - t0
        if seconds < best_s:
            best_s = seconds
        if i == 0:
            result = out
    return best_s, result


def bench_scan(
    n_groups: int, n_windows: int, num_bits: int, seed: int, repeats: int = 3
) -> Dict:
    """The correlation check four ways over G groups × W windows."""
    rng = np.random.default_rng(seed)
    layout = _synthetic_layout(num_bits)
    groups = GroupRegistry(layout)
    for mask in _group_pool(rng, num_bits, n_groups):
        groups.add(mask)
    probes = _probe_stream(rng, groups.masks, num_bits, n_windows)
    config = DiceConfig(max_candidate_distance=2)

    # Seed scalar path: one uncached scan per window.
    scalar = CorrelationChecker(groups, config, cache_size=0)
    scalar_s, scalar_results = _best_of(
        repeats, lambda: [scalar.scan(mask) for mask in probes]
    )

    # Memoised scalar: cold pass fills the LRU, warm pass mostly hits it.
    def _memo_cold():
        checker = CorrelationChecker(groups, config)
        return checker, [checker.check(mask) for mask in probes]

    memo_cold_s, (memo, memo_results) = _best_of(repeats, _memo_cold)
    memo_warm_s, _ = _best_of(
        repeats, lambda: [memo.check(mask) for mask in probes]
    )

    # Batch + memoised: one (W, G) matrix pass over the cache misses.
    def _batch_cold():
        checker = CorrelationChecker(groups, config)
        return checker, checker.check_many(probes)

    batch_cold_s, (batch, batch_results) = _best_of(repeats, _batch_cold)
    cold_info = batch.cache_info()  # counters from the first cold pass only
    batch_warm_s, _ = _best_of(repeats, lambda: batch.check_many(probes))

    if not (scalar_results == memo_results == batch_results):
        raise AssertionError("scalar, memoised and batch paths disagree")

    def _speedup(base: float, new: float) -> float:
        return base / new if new > 0 else float("inf")

    return {
        "groups": int(n_groups),
        "windows": int(n_windows),
        "num_bits": int(num_bits),
        "scalar_s": scalar_s,
        "memoized_cold_s": memo_cold_s,
        "memoized_warm_s": memo_warm_s,
        "batch_cold_s": batch_cold_s,
        "batch_warm_s": batch_warm_s,
        "cache_hits": cold_info["hits"],
        "cache_misses": cold_info["misses"],
        "per_window_us": {
            "scalar": 1e6 * scalar_s / n_windows,
            "memoized_warm": 1e6 * memo_warm_s / n_windows,
            "batch_cold": 1e6 * batch_cold_s / n_windows,
        },
        "speedup_batch_vs_scalar": _speedup(scalar_s, batch_cold_s),
        "speedup_warm_vs_scalar": _speedup(scalar_s, batch_warm_s),
    }


def _fitted_segment(
    n_groups: int, n_windows: int, num_bits: int, seed: int, metrics=None
):
    """A fitted synthetic detector plus a probe segment to replay into it."""
    rng = np.random.default_rng(seed)
    layout = _synthetic_layout(num_bits)
    pool = _group_pool(rng, num_bits, n_groups)
    training_masks = [pool[int(rng.integers(len(pool)))] for _ in range(n_groups * 3)]
    from ..core.encoding import StateSetEncoder

    encoder = StateSetEncoder(layout.registry)
    encoder._value_thresholds = np.zeros(len(layout.registry))
    training = WindowedTrace(
        layout, 60.0, 0.0, training_masks, [frozenset()] * len(training_masks)
    )
    detector = DiceDetector(layout.registry, metrics=metrics).fit_windows(
        encoder, training
    )
    probes = _probe_stream(rng, pool, num_bits, n_windows)
    segment = WindowedTrace(layout, 60.0, 0.0, probes, [frozenset()] * len(probes))
    return detector, segment


def bench_detector_segment(
    n_groups: int, n_windows: int, num_bits: int, seed: int
) -> Dict:
    """Full segment pipeline (all four stages): the per-window streamed
    path (``observe_window``, memoised scalar check) vs ``process_windows``
    (one ``check_many`` pass), both through the same loop."""
    # NULL_REGISTRY keeps these trajectory numbers telemetry-free; the
    # instrumentation cost is measured separately by :func:`bench_telemetry`.
    detector, segment = _fitted_segment(
        n_groups, n_windows, num_bits, seed, metrics=telemetry.NULL_REGISTRY
    )

    # Clear the memo before each timed run so both paths start cold.
    detector._correlation_checker.clear_cache()
    t0 = time.perf_counter()
    scalar_alerts = DiceBackend(detector).stream_segment(segment)
    scalar_s = time.perf_counter() - t0
    detector._correlation_checker.clear_cache()
    t0 = time.perf_counter()
    batch_report = detector.process_windows(segment)
    batch_s = time.perf_counter() - t0
    if scalar_alerts != batch_report.alerts:
        raise AssertionError("streamed and batch segment alerts disagree")
    return {
        "groups": int(n_groups),
        "windows": int(n_windows),
        "scalar_s": scalar_s,
        "batch_s": batch_s,
        "detections": len(batch_report.detections),
        "speedup": scalar_s / batch_s if batch_s > 0 else float("inf"),
    }


def bench_telemetry(
    n_groups: int, n_windows: int, num_bits: int, seed: int, repeats: int = 5
) -> Dict:
    """Instrumentation overhead: the streamed segment path
    (``DiceBackend.stream_segment``, which observes the per-window
    ``dice_stage_seconds`` children) with a live
    :class:`~repro.telemetry.MetricsRegistry` vs the disabled
    ``NULL_REGISTRY`` twin.  The batch path writes nothing to the registry,
    so it has no instrumentation to time.  The acceptance budget is ≤ 5 %
    overhead.

    Enabled and disabled runs are *interleaved* (off, on, off, on, ...) so
    slow drift in machine load — thermal throttling, a background task
    spinning up — hits both sides equally instead of being booked as
    telemetry overhead; best-of then suppresses the per-run jitter."""
    enabled, seg_on = _fitted_segment(
        n_groups, n_windows, num_bits, seed, metrics=telemetry.MetricsRegistry()
    )
    disabled, seg_off = _fitted_segment(
        n_groups, n_windows, num_bits, seed, metrics=telemetry.NULL_REGISTRY
    )

    def _timed(detector, segment):
        detector._correlation_checker.clear_cache()
        t0 = time.perf_counter()
        alerts = DiceBackend(detector).stream_segment(segment)
        return time.perf_counter() - t0, alerts

    enabled_s = disabled_s = float("inf")
    enabled_alerts = disabled_alerts = None
    for i in range(repeats):
        seconds, alerts = _timed(disabled, seg_off)
        disabled_s = min(disabled_s, seconds)
        if i == 0:
            disabled_alerts = alerts
        seconds, alerts = _timed(enabled, seg_on)
        enabled_s = min(enabled_s, seconds)
        if i == 0:
            enabled_alerts = alerts

    if enabled_alerts != disabled_alerts:
        raise AssertionError("telemetry changed the segment alerts")
    ratio = enabled_s / disabled_s if disabled_s > 0 else float("inf")
    return {
        "groups": int(n_groups),
        "windows": int(n_windows),
        "enabled_s": enabled_s,
        "disabled_s": disabled_s,
        "overhead_ratio": ratio,
        "overhead_pct": (ratio - 1.0) * 100.0,
    }


def bench_provenance(seed: int, hours: float = 24.0, repeats: int = 5) -> Dict:
    """Evidence-recorder overhead on the hardened streaming hot path.

    Streams one seeded chaos deployment's live events through a
    :class:`~repro.streaming.HardenedOnlineDice` twice: with the recorder
    replaced by ``NULL_PROVENANCE`` (the zero-cost twin) and with the
    default :class:`~repro.telemetry.ProvenanceRecorder`.  Arms are
    interleaved like :func:`bench_telemetry` so machine-load drift hits
    both equally, and the enabled arm's alert stream is asserted identical
    to the baseline's — evidence capture must observe, never steer.  The
    acceptance budget is ≤ 1.1x wall clock: the recorder only does real
    work when an alert fires, which is rare relative to events.
    """
    from ..faults.crash import (
        LATENESS_SECONDS,
        POLICY,
        build_chaos_deployment,
        canonical_alerts,
    )
    from ..streaming import HardenedOnlineDice

    deployment = build_chaos_deployment(seed, hours=hours)
    events = deployment.events

    def _timed(recorder_factory):
        detector = deployment.fit_detector(metrics=telemetry.NULL_REGISTRY)
        runtime = HardenedOnlineDice(
            detector, start=deployment.split,
            lateness_seconds=LATENESS_SECONDS, policy=POLICY,
            provenance=recorder_factory(),
        )
        t0 = time.perf_counter()
        alerts = runtime.ingest_many(events)
        alerts += runtime.finish_stream(deployment.end)
        return time.perf_counter() - t0, alerts, runtime

    disabled_s = enabled_s = float("inf")
    baseline_canon: Optional[str] = None
    identical = True
    records = 0
    for i in range(repeats):
        seconds, alerts, _ = _timed(lambda: telemetry.NULL_PROVENANCE)
        disabled_s = min(disabled_s, seconds)
        if baseline_canon is None:
            baseline_canon = canonical_alerts(alerts)
        seconds, alerts, runtime = _timed(telemetry.ProvenanceRecorder)
        enabled_s = min(enabled_s, seconds)
        if canonical_alerts(alerts) != baseline_canon:
            identical = False
        if i == 0:
            records = len(runtime.provenance.records())
    if not identical:
        raise AssertionError("provenance recording changed the alert stream")

    ratio = enabled_s / disabled_s if disabled_s > 0 else float("inf")
    return {
        "events": len(events),
        "alerts": len(alerts),
        "records": int(records),
        "disabled_s": disabled_s,
        "enabled_s": enabled_s,
        "events_per_s_disabled": (
            len(events) / disabled_s if disabled_s > 0 else 0.0
        ),
        "events_per_s_enabled": (
            len(events) / enabled_s if enabled_s > 0 else 0.0
        ),
        "overhead_ratio": ratio,
        "overhead_pct": (ratio - 1.0) * 100.0,
        "alerts_identical": identical,
    }


def _capacity_canon(alerts) -> str:
    """One home's alert canon — kind/time/check/cases/devices/convergence."""
    return repr(
        [
            (a.kind, a.time, a.check, a.cases, tuple(sorted(a.devices)), a.converged)
            for a in alerts
        ]
    )


def bench_capacity(
    num_homes: int,
    archetypes: int,
    windows_per_home: int,
    n_groups: int,
    num_bits: int = 96,
    seed: int = 0,
) -> Dict:
    """Estate-scale A/B: shared+batched fleet vs fully replicated.

    *num_homes* homes are stamped from *archetypes* canonical fits — the
    structure :func:`~repro.fleet.build_fleet_homes` models with
    ``unique_homes``, built synthetically here so ``H`` can be large
    without simulating ``H`` distinct lives.  Both arms stream the same
    events in the same per-window order:

    * **shared** — a :class:`~repro.fleet.FleetGateway`: ``K`` trained
      states resident, one memo pre-warm pass per tick across every home
      on a context;
    * **replicated** — one standalone runtime per home on a private
      clone, fed event by event: ``H`` private trained states, per-event
      scalar checks (the pre-capacity fleet).

    Per-home alert parity across the arms is *asserted*, memory comes
    from the deterministic estimator via :meth:`FleetGateway.memory_report`
    (every clone has the same size, so its replicated figure is the
    replicated arm's), and the measured per-context bytes project the
    resident footprint out to 1k/10k/100k homes.  Detector construction
    and interning are untimed setup — the timed region is event flow only.
    """
    from ..core.detector import DiceDetector as _Detector, DiceModel
    from ..core.encoding import StateSetEncoder
    from ..fleet import FleetGateway
    from ..streaming import HardenedOnlineDice, SupervisorPolicy

    rng = np.random.default_rng(seed)
    layout = _synthetic_layout(num_bits)
    config = DiceConfig(max_candidate_distance=2)
    # Effectively-disabled supervision: the A/B measures window flow, not
    # silence bookkeeping (quick smoke streams would trip real deadlines).
    policy = SupervisorPolicy(silence_seconds=1e15, quarantine_seconds=1e15)

    # One canonical fit plus one event stream per archetype.  Low mask
    # density keeps events-per-window realistic (~2-3 active sensors).
    density = 2.5 / num_bits
    canonical: List[DiceModel] = []
    window_events: List[List[List]] = []
    from ..model import Event

    for _ in range(archetypes):
        pool = _group_pool(rng, num_bits, n_groups, density=density)
        training_masks = [
            pool[int(rng.integers(len(pool)))] for _ in range(n_groups * 3)
        ]
        training = WindowedTrace(
            layout, 60.0, 0.0, training_masks, [frozenset()] * len(training_masks)
        )
        encoder = StateSetEncoder(layout.registry)
        encoder._value_thresholds = np.zeros(len(layout.registry))
        fitted = _Detector(
            layout.registry, config, metrics=telemetry.NULL_REGISTRY
        ).fit_windows(encoder, training)
        canonical.append(fitted.model)
        probes = _probe_stream(rng, pool, num_bits, windows_per_home)
        stream: List[List] = []
        for w, mask in enumerate(probes):
            if mask == 0:
                mask = 1  # a window needs at least one active sensor
            events = []
            j = 0
            while mask:
                bit = (mask & -mask).bit_length() - 1
                mask &= mask - 1
                events.append(
                    Event(w * 60.0 + 1.0 + 0.5 * j, f"s{bit:03d}", 1.0)
                )
                j += 1
            stream.append(events)
        window_events.append(stream)

    home_ids = [f"cap-{i:05d}" for i in range(num_homes)]

    def _clone(model: DiceModel) -> _Detector:
        clone = DiceModel(
            model.encoder,
            model.groups.copy(),
            model.transitions.copy(),
            model.training_windows,
        )
        return _Detector.from_model(
            layout.registry, clone, config=config,
            metrics=telemetry.NULL_REGISTRY,
        )

    runtime_options = {"start": 0.0, "lateness_seconds": 0.0, "policy": policy}
    end = windows_per_home * 60.0

    shared_gw = FleetGateway(1, metrics=telemetry.NULL_REGISTRY)
    for i, home_id in enumerate(home_ids):
        shared_gw.add_home(
            home_id, _clone(canonical[i % archetypes]), **runtime_options
        )
    events = 0
    t0 = time.perf_counter()
    for w in range(windows_per_home):
        batch = []
        for i, home_id in enumerate(home_ids):
            for event in window_events[i % archetypes][w]:
                batch.append((home_id, event))
        events += len(batch)
        shared_gw.dispatch(batch)
    shared_gw.finish(end)
    shared_s = time.perf_counter() - t0

    replicated = [
        HardenedOnlineDice(_clone(canonical[i % archetypes]), **runtime_options)
        for i in range(num_homes)
    ]
    replicated_alerts: List[List] = [[] for _ in home_ids]
    t0 = time.perf_counter()
    for w in range(windows_per_home):
        for i, runtime in enumerate(replicated):
            for event in window_events[i % archetypes][w]:
                replicated_alerts[i] += runtime.ingest(event)
    for i, runtime in enumerate(replicated):
        replicated_alerts[i] += runtime.finish_stream(end)
    replicated_s = time.perf_counter() - t0

    for home_id, alerts in zip(home_ids, replicated_alerts):
        if _capacity_canon(shared_gw.alerts_of(home_id)) != _capacity_canon(alerts):
            raise AssertionError(
                f"shared+batched fleet changed {home_id}'s alerts vs replicated"
            )

    shared_mem = shared_gw.memory_report()
    per_context = (
        shared_mem["trained_bytes_shared"] / shared_mem["distinct_contexts"]
    )
    projection = []
    for target in (1_000, 10_000, 100_000):
        shared_bytes = archetypes * per_context
        projection.append(
            {
                "homes": target,
                "shared_bytes": int(shared_bytes),
                "replicated_bytes": int(target * per_context),
                "shared_bytes_per_home": shared_bytes / target,
                "replicated_bytes_per_home": per_context,
            }
        )
    reduction = (
        shared_mem["replicated_bytes_per_home"]
        / shared_mem["trained_bytes_per_home"]
        if shared_mem["trained_bytes_per_home"]
        else float("inf")
    )
    alerts = sum(len(shared_gw.alerts_of(h)) for h in home_ids)
    return {
        "homes": int(num_homes),
        "archetypes": int(archetypes),
        "windows_per_home": int(windows_per_home),
        "groups": int(n_groups),
        "num_bits": int(num_bits),
        "events": int(events),
        "alerts": int(alerts),
        "shared_s": shared_s,
        "replicated_s": replicated_s,
        "events_per_s_shared": events / shared_s if shared_s > 0 else 0.0,
        "events_per_s_replicated": (
            events / replicated_s if replicated_s > 0 else 0.0
        ),
        "speedup_shared_vs_replicated": (
            replicated_s / shared_s if shared_s > 0 else float("inf")
        ),
        "bytes_per_home_shared": shared_mem["trained_bytes_per_home"],
        "bytes_per_home_replicated": shared_mem["replicated_bytes_per_home"],
        "bytes_per_home_reduction": reduction,
        "dedup": shared_mem["store"],
        "rss_bytes": shared_mem["rss_bytes"],
        "projection": projection,
        "alerts_identical": True,
    }


# --------------------------------------------------------------------- #
# Driver
# --------------------------------------------------------------------- #


def run_benchmarks(
    quick: bool = False,
    seed: int = 0,
    groups: Optional[int] = None,
    windows: Optional[int] = None,
    num_bits: int = 96,
    capacity_homes: Optional[int] = None,
) -> Dict:
    """Run every section; returns the ``BENCH_perf.json`` document."""
    if quick:
        default_groups, default_windows, fit_sizes = 120, 800, [500, 2000]
        cap_homes, cap_archetypes, cap_windows, cap_groups = 200, 3, 12, 1024
    else:
        default_groups, default_windows, fit_sizes = 500, 5000, [2000, 8000, 16000]
        cap_homes, cap_archetypes, cap_windows, cap_groups = 1000, 4, 24, 4096
    groups = default_groups if groups is None else groups
    windows = default_windows if windows is None else windows
    if capacity_homes is not None:
        cap_homes = int(capacity_homes)
    doc = {
        "schema": BENCH_SCHEMA,
        "quick": bool(quick),
        "seed": int(seed),
        "machine": {
            "cpus": os.cpu_count() or 1,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "fit": bench_fit(fit_sizes, num_bits, seed),
        "scan": [bench_scan(groups, windows, num_bits, seed)],
        "segment": bench_detector_segment(groups, windows, num_bits, seed),
        "telemetry": bench_telemetry(groups, windows, num_bits, seed),
        # The recorder's cost is per *alert*, so the gate needs enough
        # events for the per-event ratio to dominate setup jitter (the run
        # is still ~2 s).
        "provenance": bench_provenance(seed, hours=24.0),
        "capacity": bench_capacity(
            cap_homes, cap_archetypes, cap_windows, cap_groups,
            num_bits=num_bits, seed=seed,
        ),
    }
    validate_document(doc)
    return doc


def write_document(doc: Dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --------------------------------------------------------------------- #
# Schema validation (no external dependency)
# --------------------------------------------------------------------- #


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(f"BENCH_perf.json schema violation: {message}")


def validate_document(doc: Dict) -> Dict:
    """Structurally validate a ``BENCH_perf.json`` document.

    Raises :class:`ValueError` on any shape mismatch; returns *doc* so the
    call can be chained.  Checks structure and value domains only — never
    timings — so CI validation cannot flake.
    """
    _require(isinstance(doc, dict), "top level must be an object")
    _require(doc.get("schema") == BENCH_SCHEMA, f"schema must be {BENCH_SCHEMA!r}")
    _require(isinstance(doc.get("quick"), bool), "quick must be a bool")
    machine = doc.get("machine")
    _require(isinstance(machine, dict), "machine must be an object")
    _require(
        isinstance(machine.get("cpus"), int) and machine["cpus"] >= 1,
        "machine.cpus must be a positive int",
    )
    for key in ("python", "numpy"):
        _require(isinstance(machine.get(key), str), f"machine.{key} must be a string")

    fit = doc.get("fit")
    _require(isinstance(fit, list) and fit, "fit must be a non-empty list")
    for row in fit:
        for key in ("windows", "groups"):
            _require(
                isinstance(row.get(key), int) and row[key] > 0,
                f"fit[].{key} must be a positive int",
            )
        _require(
            isinstance(row.get("seconds"), (int, float)) and row["seconds"] >= 0,
            "fit[].seconds must be a non-negative number",
        )

    scan = doc.get("scan")
    _require(isinstance(scan, list) and scan, "scan must be a non-empty list")
    for row in scan:
        for key in ("groups", "windows", "num_bits"):
            _require(
                isinstance(row.get(key), int) and row[key] > 0,
                f"scan[].{key} must be a positive int",
            )
        for key in (
            "scalar_s",
            "memoized_cold_s",
            "memoized_warm_s",
            "batch_cold_s",
            "batch_warm_s",
            "speedup_batch_vs_scalar",
            "speedup_warm_vs_scalar",
        ):
            _require(
                isinstance(row.get(key), (int, float)) and row[key] >= 0,
                f"scan[].{key} must be a non-negative number",
            )
        for key in ("cache_hits", "cache_misses"):
            _require(
                isinstance(row.get(key), int) and row[key] >= 0,
                f"scan[].{key} must be a non-negative int",
            )

    segment = doc.get("segment")
    _require(isinstance(segment, dict), "segment must be an object")
    for key in ("scalar_s", "batch_s", "speedup"):
        _require(
            isinstance(segment.get(key), (int, float)) and segment[key] >= 0,
            f"segment.{key} must be a non-negative number",
        )

    tel = doc.get("telemetry")
    _require(isinstance(tel, dict), "telemetry must be an object")
    for key in ("groups", "windows"):
        _require(
            isinstance(tel.get(key), int) and tel[key] > 0,
            f"telemetry.{key} must be a positive int",
        )
    for key in ("enabled_s", "disabled_s", "overhead_ratio"):
        _require(
            isinstance(tel.get(key), (int, float)) and tel[key] >= 0,
            f"telemetry.{key} must be a non-negative number",
        )
    _require(
        isinstance(tel.get("overhead_pct"), (int, float)),
        "telemetry.overhead_pct must be a number",
    )

    prov = doc.get("provenance")
    _require(isinstance(prov, dict), "provenance must be an object")
    for key in ("events", "alerts", "records"):
        _require(
            isinstance(prov.get(key), int) and prov[key] >= 0,
            f"provenance.{key} must be a non-negative int",
        )
    _require(prov.get("events", 0) > 0, "provenance.events must be positive")
    for key in (
        "disabled_s",
        "enabled_s",
        "events_per_s_disabled",
        "events_per_s_enabled",
        "overhead_ratio",
    ):
        _require(
            isinstance(prov.get(key), (int, float)) and prov[key] >= 0,
            f"provenance.{key} must be a non-negative number",
        )
    _require(
        isinstance(prov.get("overhead_pct"), (int, float)),
        "provenance.overhead_pct must be a number",
    )
    _require(
        prov.get("alerts_identical") is True,
        "provenance.alerts_identical must be true "
        "(evidence capture changed the alert stream)",
    )

    cap = doc.get("capacity")
    _require(isinstance(cap, dict), "capacity must be an object")
    for key in ("homes", "archetypes", "windows_per_home", "groups",
                "num_bits", "events"):
        _require(
            isinstance(cap.get(key), int) and cap[key] >= 1,
            f"capacity.{key} must be a positive int",
        )
    _require(
        isinstance(cap.get("alerts"), int) and cap["alerts"] >= 0,
        "capacity.alerts must be a non-negative int",
    )
    for key in (
        "shared_s",
        "replicated_s",
        "events_per_s_shared",
        "events_per_s_replicated",
        "speedup_shared_vs_replicated",
        "bytes_per_home_shared",
        "bytes_per_home_replicated",
    ):
        _require(
            isinstance(cap.get(key), (int, float)) and cap[key] >= 0,
            f"capacity.{key} must be a non-negative number",
        )
    # The memory claim is deterministic (estimator bytes, not timings), so
    # it *is* enforced: homes stamped from archetypes must dedup at least
    # 5x per home, the acceptance floor for the capacity work.
    _require(
        isinstance(cap.get("bytes_per_home_reduction"), (int, float))
        and cap["bytes_per_home_reduction"] >= 5.0,
        "capacity.bytes_per_home_reduction must be >= 5 "
        "(shared contexts failed to dedup the fleet)",
    )
    dedup = cap.get("dedup")
    _require(isinstance(dedup, dict), "capacity.dedup must be an object")
    for key in ("contexts", "holders", "intern_hits", "intern_misses"):
        _require(
            isinstance(dedup.get(key), int) and dedup[key] >= 0,
            f"capacity.dedup.{key} must be a non-negative int",
        )
    _require(
        isinstance(dedup.get("dedup_ratio"), (int, float))
        and dedup["dedup_ratio"] >= 1.0,
        "capacity.dedup.dedup_ratio must be >= 1",
    )
    projection = cap.get("projection")
    _require(
        isinstance(projection, list) and projection,
        "capacity.projection must be a non-empty list",
    )
    for row in projection:
        _require(isinstance(row, dict), "capacity.projection[] must be objects")
        for key in ("homes", "shared_bytes", "replicated_bytes"):
            _require(
                isinstance(row.get(key), int) and row[key] >= 1,
                f"capacity.projection[].{key} must be a positive int",
            )
        for key in ("shared_bytes_per_home", "replicated_bytes_per_home"):
            _require(
                isinstance(row.get(key), (int, float)) and row[key] > 0,
                f"capacity.projection[].{key} must be a positive number",
            )
    _require(
        cap.get("alerts_identical") is True,
        "capacity.alerts_identical must be true "
        "(shared contexts changed per-home alerts)",
    )
    return doc
