"""The two ``repro bench`` sections no other harness holds.

perfbench (``perfbench/``) is the benchmark of record: it times the
served and evaluation paths layer by layer, in alternating pairs of runs,
and the tier-1 tests hold every parity the detector's fast paths promise.
What is left here needs neither a server nor a dataset, and CI gates on
it:

* **provenance** — the alert-evidence recorder's hot-path cost: the same
  live stream with ``NULL_PROVENANCE`` vs the default recorder (budget:
  ≤ 1.1x events/s — evidence capture must be nearly free because it only
  does work when an alert actually fires);
* **capacity** — the estate-scale question: H homes stamped from K
  archetypes, run shared+batched (content-addressed contexts, cross-home
  memo-prewarming tick) vs fully replicated with per-home event loops,
  with per-home alert parity asserted, trained-state bytes/home from the
  deterministic estimator, and a memory projection out to 100k homes.

Both workloads are seeded and synthetic.  The harness asserts parity,
never a timing: CI's provenance gate reads ``overhead_ratio``, and its
capacity gate reads the deterministic byte accounting.
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import telemetry
from ..core import DiceConfig
from ..core.encoding import BitLayout, WindowedTrace
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
#: (``stream_segment``), the only path that writes to the registry; /13
#: dropped ``fit``, ``scan``, ``segment`` and ``telemetry``, which
#: perfbench times and tier-1 holds, and rejects any other top-level key.
BENCH_SCHEMA = "dice-bench-perf/13"
DEFAULT_OUTPUT = "BENCH_perf.json"

#: Every top-level key of a document, and no others.
_DOCUMENT_KEYS = frozenset(
    {"schema", "quick", "seed", "machine", "provenance", "capacity"}
)


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


def bench_provenance(seed: int, hours: float = 24.0, repeats: int = 5) -> Dict:
    """Evidence-recorder overhead on the hardened streaming hot path.

    Streams one seeded chaos deployment's live events through a
    :class:`~repro.streaming.HardenedOnlineDice` twice: with the recorder
    replaced by ``NULL_PROVENANCE`` (the zero-cost twin) and with the
    default :class:`~repro.telemetry.ProvenanceRecorder`.  Arms are
    interleaved (off, on, off, on, ...) so slow drift in machine load hits
    both equally, best-of then suppresses the per-run jitter, and the
    enabled arm's alert stream is asserted identical to the baseline's —
    evidence capture must observe, never steer.  The acceptance budget is
    ≤ 1.1x wall clock: the recorder only does real work when an alert
    fires, which is rare relative to events.
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
    from ..faults.crash import canonical_alerts
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
        if canonical_alerts(shared_gw.alerts_of(home_id)) != canonical_alerts(alerts):
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
    num_bits: int = 96,
    capacity_homes: Optional[int] = None,
) -> Dict:
    """Run both sections; returns the ``BENCH_perf.json`` document."""
    if quick:
        cap_homes, cap_archetypes, cap_windows, cap_groups = 200, 3, 12, 1024
    else:
        cap_homes, cap_archetypes, cap_windows, cap_groups = 1000, 4, 24, 4096
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
    _require(
        set(doc) == _DOCUMENT_KEYS,
        f"top-level keys must be {sorted(_DOCUMENT_KEYS)}, got {sorted(doc)}",
    )
    _require(isinstance(doc.get("quick"), bool), "quick must be a bool")
    machine = doc.get("machine")
    _require(isinstance(machine, dict), "machine must be an object")
    _require(
        isinstance(machine.get("cpus"), int) and machine["cpus"] >= 1,
        "machine.cpus must be a positive int",
    )
    for key in ("python", "numpy"):
        _require(isinstance(machine.get(key), str), f"machine.{key} must be a string")

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
