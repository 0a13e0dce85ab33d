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
* **telemetry** — the batched segment pipeline with a live metrics
  registry vs the disabled ``NULL_REGISTRY`` twin, so the instrumentation
  cost stays visible (budget: ≤ 5 % overhead);
* **eval** — the end-to-end Ch. V protocol with the process-parallel
  ``EvaluationRunner``, checking that worker counts do not change the
  aggregate results;
* **fleet** — the sharded multi-home gateway over a homes x shards grid,
  asserting per-home alerts stay byte-identical across shard counts;
* **journal** — the durable gateway's write-ahead journal cost: the same
  live stream through a plain hardened runtime vs a journaled one under
  each fsync policy (budget: ≤ 1.5x under ``fsync=never``);
* **provenance** — the alert-evidence recorder's hot-path cost: the same
  live stream with ``NULL_PROVENANCE`` vs the default recorder (budget:
  ≤ 1.1x events/s — evidence capture must be nearly free because it only
  does work when an alert actually fires);
* **scenarios** — the scenario-matrix harness (``repro scenarios``) over
  the drift refresh A/B cells, so the cost of a robustness sweep and the
  graceful-degradation delta both stay on the trajectory;
* **service** — the network front-end's cost: the same live stream
  in-process vs over a loopback ingest socket (framing + asyncio + the
  thread hop) with alert parity asserted, plus an overload arm proving
  the bounded queue sheds structurally and a retrying client still lands
  the complete stream;
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
#: ``service`` loopback ingest-service overhead + overload section.
BENCH_SCHEMA = "dice-bench-perf/9"
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
    def _kernel_delta(before: Dict[str, int]) -> Dict[str, int]:
        calls = groups._bitsets.kernel_calls
        return {name: calls[name] - before[name] for name in calls}

    def _dominant(delta: Dict[str, int]) -> str:
        if not any(delta.values()):
            return "none"
        return max(delta, key=lambda name: delta[name])

    def _batch_cold():
        checker = CorrelationChecker(groups, config)
        return checker, checker.check_many(probes)

    before = dict(groups._bitsets.kernel_calls)
    batch_cold_s, (batch, batch_results) = _best_of(repeats, _batch_cold)
    cold_calls = _kernel_delta(before)
    cold_info = batch.cache_info()  # counters from the first cold pass only
    before = dict(groups._bitsets.kernel_calls)
    batch_warm_s, _ = _best_of(repeats, lambda: batch.check_many(probes))
    warm_calls = _kernel_delta(before)

    if not (scalar_results == memo_results == batch_results):
        raise AssertionError("scalar, memoised and batch paths disagree")

    # The registry's kernel crossover, both ways: force the GEMM kernel and
    # the XOR+popcount kernel for the same cold batch pass.  Results must
    # not move — the kernel choice is a pure performance decision.
    default_min_rows = groups.gemm_min_rows
    forced_kernel_s: Dict[str, float] = {}
    try:
        for label, min_rows in (("gemm", 0), ("xor", 1 << 30)):
            groups.gemm_min_rows = min_rows
            seconds, (_, forced_results) = _best_of(repeats, _batch_cold)
            if forced_results != batch_results:
                raise AssertionError(
                    f"forced {label} kernel changed correlation results"
                )
            forced_kernel_s[label] = seconds
    finally:
        groups.gemm_min_rows = default_min_rows

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
        "gemm_min_rows": int(default_min_rows),
        "kernel": _dominant(cold_calls),
        "kernel_calls": {"batch_cold": cold_calls, "batch_warm": warm_calls},
        "forced_kernel_s": forced_kernel_s,
        "per_window_us": {
            "scalar": 1e6 * scalar_s / n_windows,
            "memoized_warm": 1e6 * memo_warm_s / n_windows,
            "batch_cold": 1e6 * batch_cold_s / n_windows,
        },
        "speedup_batch_vs_scalar": _speedup(scalar_s, batch_cold_s),
        "speedup_warm_vs_scalar": _speedup(scalar_s, batch_warm_s),
    }


def bench_eval(
    dataset: str,
    hours: float,
    precompute_hours: float,
    pairs: int,
    seed: int,
    workers_list: Sequence[int],
) -> Dict:
    """End-to-end Ch. V protocol wall clock per worker count."""
    from ..datasets import load_dataset
    from ..eval import EvaluationRunner

    data = load_dataset(dataset, seed=seed, hours=hours)
    runs = []
    fingerprints = []
    for workers in workers_list:
        runner = EvaluationRunner(
            precompute_hours=precompute_hours,
            pairs=pairs,
            seed=seed,
            workers=workers,
        )
        t0 = time.perf_counter()
        result = runner.evaluate(dataset, data.trace)
        seconds = time.perf_counter() - t0
        fingerprints.append(result.aggregate_fingerprint())
        runs.append(
            {
                "workers": int(workers),
                # The runner caps worker pools at os.cpu_count(); record
                # what actually ran so trajectories on small machines are
                # honest about it.
                "effective_workers": int(runner.workers),
                "seconds": seconds,
                "fingerprint": fingerprints[-1],
                "cache_hit_rate": result.timings.correlation_cache_hit_rate,
            }
        )
    return {
        "dataset": dataset,
        "hours": float(hours),
        "pairs": int(pairs),
        "runs": runs,
        "aggregates_identical": len(set(fingerprints)) <= 1,
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
    """Instrumentation overhead: the batched segment pipeline with a live
    :class:`~repro.telemetry.MetricsRegistry` vs the disabled
    ``NULL_REGISTRY`` twin.  The acceptance budget is ≤ 5 % overhead.

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
        # publish=True is the production configuration: timings land in
        # the registry once per segment, inside the measured region.
        detector._correlation_checker.clear_cache()
        t0 = time.perf_counter()
        report = detector.process_windows(segment)
        return time.perf_counter() - t0, report

    enabled_s = disabled_s = float("inf")
    enabled_report = disabled_report = None
    for i in range(repeats):
        seconds, report = _timed(disabled, seg_off)
        disabled_s = min(disabled_s, seconds)
        if i == 0:
            disabled_report = report
        seconds, report = _timed(enabled, seg_on)
        enabled_s = min(enabled_s, seconds)
        if i == 0:
            enabled_report = report

    if (
        enabled_report.detections != disabled_report.detections
        or enabled_report.identifications != disabled_report.identifications
    ):
        raise AssertionError("telemetry changed the segment report")
    ratio = enabled_s / disabled_s if disabled_s > 0 else float("inf")
    return {
        "groups": int(n_groups),
        "windows": int(n_windows),
        "enabled_s": enabled_s,
        "disabled_s": disabled_s,
        "overhead_ratio": ratio,
        "overhead_pct": (ratio - 1.0) * 100.0,
    }


def bench_fleet(
    homes_list: Sequence[int],
    shards_list: Sequence[int],
    hours: float,
    train_hours: float,
    seed: int,
) -> Dict:
    """Sharded multi-home gateway scaling: homes x shards wall clock.

    The fleet layer's contract is that sharding is *invisible* — per-home
    alert sequences are byte-identical for any shard count — so besides
    the scaling curve this section re-asserts parity on every cell and
    records the result (CI fails the document if it ever goes false).
    """
    from ..fleet import FleetGateway, build_fleet_homes, replay_fleet

    runs = []
    parity = True
    for num_homes in homes_list:
        homes = build_fleet_homes(
            num_homes, seed=seed, hours=hours, train_hours=train_hours
        )
        detectors = {
            home.home_id: home.fit_detector(metrics=telemetry.NULL_REGISTRY)
            for home in homes
        }
        events = sum(len(home.live) for home in homes)
        baseline: Optional[Dict[str, str]] = None
        for num_shards in shards_list:
            gateway = FleetGateway(num_shards, metrics=telemetry.NULL_REGISTRY)
            for home in homes:
                detector = detectors[home.home_id]
                detector._correlation_checker.clear_cache()
                gateway.add_home(home.home_id, detector, start=home.split)
            t0 = time.perf_counter()
            replay_fleet(gateway, homes)
            seconds = time.perf_counter() - t0
            canon = {
                home.home_id: repr(
                    [
                        (a.kind, a.time, a.check, a.cases,
                         tuple(sorted(a.devices)), a.converged)
                        for a in gateway.alerts_of(home.home_id)
                    ]
                )
                for home in homes
            }
            if baseline is None:
                baseline = canon
            elif canon != baseline:
                parity = False
            alerts = sum(len(gateway.alerts_of(h.home_id)) for h in homes)
            runs.append(
                {
                    "homes": int(num_homes),
                    "shards": int(num_shards),
                    "events": int(events),
                    "alerts": int(alerts),
                    "seconds": seconds,
                    "events_per_s": events / seconds if seconds > 0 else 0.0,
                    "alerts_per_s": alerts / seconds if seconds > 0 else 0.0,
                }
            )
    return {
        "hours": float(hours),
        "train_hours": float(train_hours),
        "runs": runs,
        "alerts_identical_across_shards": parity,
    }


def bench_journal(seed: int, hours: float = 4.5, repeats: int = 3) -> Dict:
    """Write-ahead journal overhead on the durable gateway.

    Streams one seeded chaos deployment's live events through a plain
    :class:`~repro.streaming.HardenedOnlineDice` and through a one-home
    :class:`~repro.durability.DurableFleetGateway` under every fsync policy.
    Baseline and journaled runs are interleaved (like
    :func:`bench_telemetry`) so machine-load drift hits all arms equally,
    and every arm's alert stream is asserted identical to the baseline's.
    The acceptance budget: ``fsync=never`` stays within 1.5x of no journal.
    """
    import tempfile

    from ..durability import DurableFleetGateway, FSYNC_POLICIES
    from ..faults.crash import (
        LATENESS_SECONDS,
        POLICY,
        _fresh_fleet,
        build_chaos_deployment,
        canonical_alerts,
        one_home_stream,
    )
    from ..streaming import HardenedOnlineDice

    deployment = build_chaos_deployment(seed, hours=hours)
    events = deployment.events
    stream = one_home_stream(deployment)

    def _timed_plain():
        detector = deployment.fit_detector(metrics=telemetry.NULL_REGISTRY)
        runtime = HardenedOnlineDice(
            detector, start=deployment.split,
            lateness_seconds=LATENESS_SECONDS, policy=POLICY,
        )
        t0 = time.perf_counter()
        alerts = runtime.ingest_many(events)
        alerts += runtime.finish_stream(deployment.end)
        return time.perf_counter() - t0, alerts

    def _timed_journal(fsync: str, journal_dir: str):
        detectors = {
            deployment.home_id: deployment.fit_detector(
                metrics=telemetry.NULL_REGISTRY
            )
        }
        durable = DurableFleetGateway(
            _fresh_fleet([deployment], detectors, 1), journal_dir, fsync=fsync
        )
        t0 = time.perf_counter()
        durable.dispatch(stream)
        durable.finish(deployment.end)
        seconds = time.perf_counter() - t0
        durable.close()
        return seconds, durable.alerts_of(deployment.home_id)

    baseline_s = float("inf")
    journal_s = {policy: float("inf") for policy in FSYNC_POLICIES}
    baseline_canon: Optional[str] = None
    identical = True
    with tempfile.TemporaryDirectory(prefix="dice-bench-journal-") as base:
        for i in range(repeats):
            seconds, alerts = _timed_plain()
            baseline_s = min(baseline_s, seconds)
            if baseline_canon is None:
                baseline_canon = canonical_alerts(alerts)
            for policy in FSYNC_POLICIES:
                seconds, alerts = _timed_journal(
                    policy, os.path.join(base, f"{policy}-{i}")
                )
                journal_s[policy] = min(journal_s[policy], seconds)
                if canonical_alerts(alerts) != baseline_canon:
                    identical = False
    if not identical:
        raise AssertionError("journaling changed the alert stream")

    def _ratio(seconds: float) -> float:
        return seconds / baseline_s if baseline_s > 0 else float("inf")

    return {
        "events": len(events),
        "alerts": len(alerts),
        "baseline_s": baseline_s,
        "journal_s": dict(journal_s),
        "overhead_ratio": {p: _ratio(s) for p, s in journal_s.items()},
        "overhead_pct_never": (_ratio(journal_s["never"]) - 1.0) * 100.0,
        "alerts_identical": identical,
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


def bench_scenarios(seed: int, trials: int = 1) -> Dict:
    """Scenario-matrix wall clock over the drift refresh A/B cells.

    Runs the graceful-degradation pair(s) through the full harness —
    seeded injection, streaming runtime, report assembly, schema
    validation — and records both the cost and the sustained-alert-rate
    delta the refresh buys, so a regression in either shows up on the
    trajectory."""
    from ..scenarios import (
        ScenarioCell,
        ScenarioSettings,
        build_report,
        refresh_pairs,
        run_matrix,
        validate_report,
    )

    cells = [
        ScenarioCell("drift", variant, "synthetic", refresh=refresh)
        for variant in ("seasonal_shift", "device_replacement")
        for refresh in (False, True)
    ]
    settings = ScenarioSettings(trials=trials)
    t0 = time.perf_counter()
    results = run_matrix(cells, seed=seed, settings=settings)
    seconds = time.perf_counter() - t0
    doc = validate_report(
        build_report(results, seed=seed, settings=settings)
    )
    return {
        "cells": len(cells),
        "trials": int(trials),
        "seconds": seconds,
        "cells_per_s": len(cells) / seconds if seconds > 0 else 0.0,
        "report_valid": True,
        "refresh_pairs": refresh_pairs(doc),
    }


def bench_backends(
    seed: int, hours: float = 9.0, train_hours: float = 3.0
) -> List[Dict]:
    """Per-backend streaming cost over one synthetic home.

    Every registered backend fits on the same training prefix and streams
    the same live segment through the hardened runtime, so the entries
    compare fit cost and event throughput like-for-like.  Alert counts
    ride along as a coarse behavioural fingerprint (structure only — the
    schema never pins measured numbers)."""
    from ..core import available_backends, create_backend
    from ..faults.crash import _chaos_registry, _cyclic_trace
    from ..streaming import HardenedOnlineDice

    rng = np.random.default_rng((int(seed), 23))
    phase = float(rng.choice([480.0, 600.0, 720.0]))
    trace = _cyclic_trace(_chaos_registry(), hours, phase)
    split = trace.start + train_hours * 3600.0
    train = trace.slice(trace.start, split)
    live = trace.slice(split, trace.end)
    events = sum(1 for _ in live)
    entries: List[Dict] = []
    for name in available_backends():
        backend = create_backend(
            name, trace.registry, metrics=telemetry.NULL_REGISTRY
        )
        t0 = time.perf_counter()
        backend.fit(train)
        fit_seconds = time.perf_counter() - t0
        runtime = HardenedOnlineDice(backend, start=split)
        t0 = time.perf_counter()
        alerts = runtime.replay(live)
        stream_seconds = time.perf_counter() - t0
        entries.append(
            {
                "backend": name,
                "fit_seconds": fit_seconds,
                "stream_seconds": stream_seconds,
                "events": events,
                "events_per_s": (
                    events / stream_seconds if stream_seconds > 0 else 0.0
                ),
                "alerts": len(alerts),
            }
        )
    return entries


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


def bench_service(
    seed: int, hours: float = 4.5, overload_events: int = 200
) -> Dict:
    """Loopback ingest-service cost and overload shedding.

    Three arms over one seeded chaos home:

    * **inprocess** — the live stream dispatched straight into a
      :class:`~repro.durability.DurableFleetGateway`, the no-network
      baseline;
    * **service** — the same stream through a real loopback
      :class:`~repro.service.IngestServer` on a :class:`ServiceThread`
      (framing + asyncio + the thread hop), per-home alert parity with the
      baseline *asserted*;
    * **overload** — a prefix re-sent against a tiny queue with an
      artificial per-event dispatch delay, so the offered rate is far
      above the drain rate on any machine: the queue depth must stay
      bounded by its capacity, every rejected event must surface as a
      structured OVERLOAD drop (shed, never buffered or lost silently),
      and the retrying client must still land the complete stream —
      overload degrades throughput, not correctness.
    """
    import tempfile

    from ..durability import DurableFleetGateway
    from ..faults.crash import (
        LATENESS_SECONDS,
        POLICY,
        build_chaos_deployment,
        canonical_alerts,
    )
    from ..fleet import FleetGateway
    from ..service import (
        IngestServer,
        ServiceClient,
        ServiceConfig,
        ServiceThread,
    )
    from ..streaming import HardenedOnlineDice
    from ..streaming.guard import OVERLOAD

    deployment = build_chaos_deployment(seed, hours=hours)
    events = deployment.events
    home = deployment.home_id

    def _gateway(journal_dir: str) -> DurableFleetGateway:
        gateway = FleetGateway(1, metrics=telemetry.NULL_REGISTRY)
        gateway.add_runtime(
            home,
            HardenedOnlineDice(
                deployment.fit_detector(metrics=telemetry.NULL_REGISTRY),
                start=deployment.split,
                lateness_seconds=LATENESS_SECONDS,
                policy=POLICY,
            ),
        )
        return DurableFleetGateway(gateway, journal_dir)

    queue_capacity = 8
    dispatch_delay_s = 0.002
    with tempfile.TemporaryDirectory(prefix="dice-bench-service-") as base:
        durable = _gateway(os.path.join(base, "inprocess"))
        t0 = time.perf_counter()
        for event in events:
            durable.dispatch([(home, event)])
        durable.finish_home(home, deployment.end)
        inprocess_s = time.perf_counter() - t0
        baseline_canon = canonical_alerts(durable.alerts_of(home))
        alerts = len(durable.alerts_of(home))
        durable.close()

        durable = _gateway(os.path.join(base, "service"))
        handle = ServiceThread(IngestServer(durable, ServiceConfig())).start()
        client = ServiceClient("127.0.0.1", handle.port, jitter_seed=seed)
        t0 = time.perf_counter()
        client.send_stream(home, events, end=deployment.end)
        service_s = time.perf_counter() - t0
        handle.drain()
        if canonical_alerts(durable.alerts_of(home)) != baseline_canon:
            raise AssertionError("the ingest service changed the alert stream")

        durable = _gateway(os.path.join(base, "overload"))
        server = IngestServer(
            durable,
            ServiceConfig(
                queue_capacity=queue_capacity,
                dispatch_delay_s=dispatch_delay_s,
                ack_every=16,
            ),
        )
        handle = ServiceThread(server).start()
        patient = ServiceClient(
            "127.0.0.1",
            handle.port,
            max_attempts=400,
            base_delay=0.002,
            max_delay=0.05,
            jitter_seed=seed,
        )
        subset = events[: min(overload_events, len(events))]
        t0 = time.perf_counter()
        report = patient.send_stream(home, subset, finish=False)
        overload_s = time.perf_counter() - t0
        sheds = handle.call(
            lambda: durable.runtime_of(home).drops.count(OVERLOAD)
        )
        max_depth = handle.call(lambda: server.max_queue_depth)
        applied = handle.call(lambda: durable.ingest_seqs.get(home, 0))
        handle.kill()

    return {
        "events": len(events),
        "alerts": alerts,
        "inprocess_s": inprocess_s,
        "service_s": service_s,
        "events_per_s_inprocess": (
            len(events) / inprocess_s if inprocess_s > 0 else 0.0
        ),
        "events_per_s_service": (
            len(events) / service_s if service_s > 0 else 0.0
        ),
        "overhead_ratio": (
            service_s / inprocess_s if inprocess_s > 0 else float("inf")
        ),
        "alerts_identical": True,
        "overload": {
            "events": len(subset),
            "queue_capacity": queue_capacity,
            "dispatch_delay_s": dispatch_delay_s,
            "seconds": overload_s,
            "events_per_s": len(subset) / overload_s if overload_s > 0 else 0.0,
            "sheds": int(sheds),
            "max_queue_depth": int(max_depth),
            "reconnects": report.connects,
            "applied": int(applied),
            "complete": applied == len(subset),
        },
    }


# --------------------------------------------------------------------- #
# Driver
# --------------------------------------------------------------------- #


def run_benchmarks(
    quick: bool = False,
    seed: int = 0,
    dataset: str = "houseA",
    groups: Optional[int] = None,
    windows: Optional[int] = None,
    workers_list: Optional[Sequence[int]] = None,
    num_bits: int = 96,
    capacity_homes: Optional[int] = None,
) -> Dict:
    """Run every section; returns the ``BENCH_perf.json`` document."""
    if quick:
        groups = groups or 120
        windows = windows or 800
        fit_sizes = [500, 2000]
        eval_hours, eval_precompute, eval_pairs = 100.0, 72.0, 4
        fleet_homes, fleet_shards = [2, 4], [1, 2, 4]
        fleet_hours, fleet_train = 30.0, 24.0
        journal_hours = 4.5
        scenario_trials = 1
        cap_homes, cap_archetypes, cap_windows, cap_groups = 200, 3, 12, 1024
    else:
        groups = groups or 500
        windows = windows or 5000
        fit_sizes = [2000, 8000, 16000]
        eval_hours, eval_precompute, eval_pairs = 120.0, 72.0, 12
        fleet_homes, fleet_shards = [4, 8, 16], [1, 2, 4, 8]
        fleet_hours, fleet_train = 48.0, 36.0
        journal_hours = 8.0
        scenario_trials = 3
        cap_homes, cap_archetypes, cap_windows, cap_groups = 1000, 4, 24, 4096
    if capacity_homes is not None:
        cap_homes = int(capacity_homes)
    cpus = os.cpu_count() or 1
    if workers_list is None:
        # Never request more workers than cores: the runner would cap them
        # anyway, and duplicate counts would just re-run identical cells.
        workers_list = sorted({w for w in (1, 2, cpus) if w <= cpus}) or [1]
    doc = {
        "schema": BENCH_SCHEMA,
        "quick": bool(quick),
        "seed": int(seed),
        "machine": {
            "cpus": cpus,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "fit": bench_fit(fit_sizes, num_bits, seed),
        "scan": [bench_scan(groups, windows, num_bits, seed)],
        "segment": bench_detector_segment(groups, windows, num_bits, seed),
        "telemetry": bench_telemetry(groups, windows, num_bits, seed),
        "eval": bench_eval(
            dataset, eval_hours, eval_precompute, eval_pairs, seed, workers_list
        ),
        "fleet": bench_fleet(
            fleet_homes, fleet_shards, fleet_hours, fleet_train, seed
        ),
        "journal": bench_journal(seed, hours=journal_hours),
        # A longer stream than the journal section: the recorder's cost is
        # per *alert*, so the gate needs enough events for the per-event
        # ratio to dominate setup jitter (the run is still ~2 s).
        "provenance": bench_provenance(seed, hours=24.0),
        "scenarios": bench_scenarios(seed, trials=scenario_trials),
        "backends": bench_backends(seed),
        "service": bench_service(seed),
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
        _require(
            row.get("kernel") in ("gemm", "xor", "none"),
            "scan[].kernel must be one of gemm/xor/none",
        )
        _require(
            isinstance(row.get("gemm_min_rows"), int)
            and row["gemm_min_rows"] >= 0,
            "scan[].gemm_min_rows must be a non-negative int",
        )
        calls = row.get("kernel_calls")
        _require(
            isinstance(calls, dict)
            and set(calls) == {"batch_cold", "batch_warm"},
            "scan[].kernel_calls must map batch_cold/batch_warm",
        )
        for pass_name, delta in calls.items():
            _require(
                isinstance(delta, dict)
                and all(
                    isinstance(n, int) and n >= 0 for n in delta.values()
                ),
                f"scan[].kernel_calls.{pass_name} must count kernel calls",
            )
        forced = row.get("forced_kernel_s")
        _require(
            isinstance(forced, dict) and set(forced) == {"gemm", "xor"},
            "scan[].forced_kernel_s must time both forced kernels",
        )
        for name, seconds in forced.items():
            _require(
                isinstance(seconds, (int, float)) and seconds >= 0,
                f"scan[].forced_kernel_s.{name} must be a non-negative number",
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

    ev = doc.get("eval")
    _require(isinstance(ev, dict), "eval must be an object")
    _require(isinstance(ev.get("dataset"), str), "eval.dataset must be a string")
    _require(
        isinstance(ev.get("pairs"), int) and ev["pairs"] > 0,
        "eval.pairs must be a positive int",
    )
    runs = ev.get("runs")
    _require(isinstance(runs, list) and runs, "eval.runs must be a non-empty list")
    for run in runs:
        _require(
            isinstance(run.get("workers"), int) and run["workers"] >= 1,
            "eval.runs[].workers must be >= 1",
        )
        _require(
            isinstance(run.get("effective_workers"), int)
            and 1 <= run["effective_workers"] <= run["workers"],
            "eval.runs[].effective_workers must be in [1, workers]",
        )
        _require(
            isinstance(run.get("seconds"), (int, float)) and run["seconds"] >= 0,
            "eval.runs[].seconds must be a non-negative number",
        )
        _require(
            isinstance(run.get("fingerprint"), str) and len(run["fingerprint"]) == 64,
            "eval.runs[].fingerprint must be a sha256 hex digest",
        )
    _require(
        ev.get("aggregates_identical") is True,
        "eval.aggregates_identical must be true (worker counts changed results)",
    )

    fleet = doc.get("fleet")
    _require(isinstance(fleet, dict), "fleet must be an object")
    for key in ("hours", "train_hours"):
        _require(
            isinstance(fleet.get(key), (int, float)) and fleet[key] > 0,
            f"fleet.{key} must be a positive number",
        )
    fleet_runs = fleet.get("runs")
    _require(
        isinstance(fleet_runs, list) and fleet_runs,
        "fleet.runs must be a non-empty list",
    )
    for run in fleet_runs:
        for key in ("homes", "shards"):
            _require(
                isinstance(run.get(key), int) and run[key] >= 1,
                f"fleet.runs[].{key} must be >= 1",
            )
        for key in ("events", "alerts"):
            _require(
                isinstance(run.get(key), int) and run[key] >= 0,
                f"fleet.runs[].{key} must be a non-negative int",
            )
        for key in ("seconds", "events_per_s", "alerts_per_s"):
            _require(
                isinstance(run.get(key), (int, float)) and run[key] >= 0,
                f"fleet.runs[].{key} must be a non-negative number",
            )
    _require(
        fleet.get("alerts_identical_across_shards") is True,
        "fleet.alerts_identical_across_shards must be true "
        "(sharding changed per-home alerts)",
    )

    journal = doc.get("journal")
    _require(isinstance(journal, dict), "journal must be an object")
    for key in ("events", "alerts"):
        _require(
            isinstance(journal.get(key), int) and journal[key] >= 0,
            f"journal.{key} must be a non-negative int",
        )
    _require(journal.get("events", 0) > 0, "journal.events must be positive")
    _require(
        isinstance(journal.get("baseline_s"), (int, float))
        and journal["baseline_s"] >= 0,
        "journal.baseline_s must be a non-negative number",
    )
    for section in ("journal_s", "overhead_ratio"):
        block = journal.get(section)
        _require(isinstance(block, dict), f"journal.{section} must be an object")
        for policy in ("never", "interval", "always"):
            _require(
                isinstance(block.get(policy), (int, float)) and block[policy] >= 0,
                f"journal.{section}.{policy} must be a non-negative number",
            )
    _require(
        isinstance(journal.get("overhead_pct_never"), (int, float)),
        "journal.overhead_pct_never must be a number",
    )
    _require(
        journal.get("alerts_identical") is True,
        "journal.alerts_identical must be true (journaling changed alerts)",
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

    scenarios = doc.get("scenarios")
    _require(isinstance(scenarios, dict), "scenarios must be an object")
    for key in ("cells", "trials"):
        _require(
            isinstance(scenarios.get(key), int) and scenarios[key] >= 1,
            f"scenarios.{key} must be a positive int",
        )
    for key in ("seconds", "cells_per_s"):
        _require(
            isinstance(scenarios.get(key), (int, float)) and scenarios[key] >= 0,
            f"scenarios.{key} must be a non-negative number",
        )
    _require(
        scenarios.get("report_valid") is True,
        "scenarios.report_valid must be true (scenario report failed validation)",
    )
    pairs = scenarios.get("refresh_pairs")
    _require(
        isinstance(pairs, list) and pairs,
        "scenarios.refresh_pairs must be a non-empty list",
    )
    for pair in pairs:
        _require(
            isinstance(pair, dict) and isinstance(pair.get("variant"), str),
            "scenarios.refresh_pairs[].variant must be a string",
        )
        for key in ("plain", "refresh"):
            _require(
                pair.get(key) is None
                or (isinstance(pair[key], (int, float)) and pair[key] >= 0),
                f"scenarios.refresh_pairs[].{key} must be a "
                "non-negative number or null",
            )

    backends = doc.get("backends")
    _require(
        isinstance(backends, list) and backends,
        "backends must be a non-empty list",
    )
    backend_names = [entry.get("backend") for entry in backends]
    _require(
        backend_names == sorted(set(backend_names))
        and all(isinstance(n, str) and n for n in backend_names),
        "backends[].backend must be unique sorted names",
    )
    _require(
        "dice" in backend_names,
        "backends must include the dice reference backend",
    )
    for entry in backends:
        name = entry.get("backend")
        for key in ("fit_seconds", "stream_seconds", "events_per_s"):
            _require(
                isinstance(entry.get(key), (int, float)) and entry[key] >= 0,
                f"backends[{name}].{key} must be a non-negative number",
            )
        for key in ("events", "alerts"):
            _require(
                isinstance(entry.get(key), int) and entry[key] >= 0,
                f"backends[{name}].{key} must be a non-negative int",
            )

    service = doc.get("service")
    _require(isinstance(service, dict), "service must be an object")
    for key in ("events", "alerts"):
        _require(
            isinstance(service.get(key), int) and service[key] >= 0,
            f"service.{key} must be a non-negative int",
        )
    _require(service.get("events", 0) > 0, "service.events must be positive")
    for key in (
        "inprocess_s",
        "service_s",
        "events_per_s_inprocess",
        "events_per_s_service",
        "overhead_ratio",
    ):
        _require(
            isinstance(service.get(key), (int, float)) and service[key] >= 0,
            f"service.{key} must be a non-negative number",
        )
    _require(
        service.get("alerts_identical") is True,
        "service.alerts_identical must be true "
        "(the ingest service changed the alert stream)",
    )
    overload = service.get("overload")
    _require(isinstance(overload, dict), "service.overload must be an object")
    for key in ("events", "queue_capacity", "reconnects", "applied"):
        _require(
            isinstance(overload.get(key), int) and overload[key] >= 1,
            f"service.overload.{key} must be a positive int",
        )
    for key in ("seconds", "events_per_s", "dispatch_delay_s"):
        _require(
            isinstance(overload.get(key), (int, float)) and overload[key] >= 0,
            f"service.overload.{key} must be a non-negative number",
        )
    # The shedding claims are load-shaped by construction (offered rate
    # >> drain rate), so they *are* enforced: the queue must actually
    # overflow, depth must stay bounded, and the stream must complete.
    _require(
        isinstance(overload.get("sheds"), int) and overload["sheds"] >= 1,
        "service.overload.sheds must be >= 1 (the overload arm never shed)",
    )
    _require(
        isinstance(overload.get("max_queue_depth"), int)
        and 1 <= overload["max_queue_depth"] <= overload["queue_capacity"],
        "service.overload.max_queue_depth must stay within queue_capacity",
    )
    _require(
        overload.get("complete") is True,
        "service.overload.complete must be true "
        "(the retrying client never landed the full stream)",
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
