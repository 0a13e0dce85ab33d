"""Crash-injection chaos harness for the durability layer.

The durability contract says: kill the gateway anywhere — between events,
right after a checkpoint, or **mid-journal-write** (a torn tail) — and
``checkpoint + journal-tail replay`` reproduces the exact alert stream of
an uninterrupted run, with every alert delivered to the sink at least
once.  This module *tests that by doing it*: seeded synthetic
deployments, randomized kill points, torn-tail simulation via literal
byte truncation of the newest segment, recovery, and alert-stream
comparison.  Every trial runs the one durable path,
:class:`DurableFleetGateway` — a single home runs as a one-home fleet —
and judges each home against its uninterrupted run on a plain
:class:`HardenedOnlineDice`, an independent twin with no fleet, journal
or outbox (multi-home trials also reshard on restore).

Crash model
-----------
A *process* crash (``kill -9``) loses what the process had not yet handed
to the OS and nothing else.  The harness ends a gateway's life with
``close(drop=True)``, which drops every journal record no commit has
written instead of flushing it.  The gateway commits at the end of every
dispatch, finish and delivery, so what survives is exactly what it had
acknowledged (``tests/durability/test_kill.py`` checks the same claim on
a real child process that dies by ``os._exit``).  A *power* crash can
also tear the last journal record mid-write; the harness simulates that
by chopping bytes off the end of the newest segment — strictly fewer
than the final record's frame, so the CRC check must detect and discard
it.  The write-ahead discipline makes the torn case recoverable: the
journal append precedes processing, so a record torn on disk corresponds
to an event whose effects the recovered state must not contain — the
source re-feeds it, exactly as a resumed pipe would.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from ..core import DiceDetector
from ..durability import (
    AlertOutbox,
    DurableFleetGateway,
    FileSink,
    FlakySink,
    alert_record,
    encode_record,
    event_to_record,
    list_segments,
)
from ..telemetry.provenance import canonical_record_bytes
from ..fleet import FleetGateway
from ..model import DeviceRegistry, Event, SensorType, Trace, actuator, binary_sensor, numeric_sensor
from ..streaming import Alert, HardenedOnlineDice, SupervisorPolicy
from .models import FaultType, InjectedFault, apply_fault
from .pipe import PipeFaultInjector, PipeFaultSpec, PipeFaultType

_log = telemetry.get_logger("repro.faults.crash")

HOUR = 3600.0

#: Runtime knobs every chaos run (baseline and crashed) shares — parity
#: only means anything when both sides run the same configuration.
LATENESS_SECONDS = 120.0
POLICY = SupervisorPolicy(silence_seconds=400.0, quarantine_seconds=800.0)

ALERTS_TOTAL = "dice_alerts_total"


# --------------------------------------------------------------------- #
# Synthetic chaos deployments
# --------------------------------------------------------------------- #


def _chaos_registry(prefix: str = "") -> DeviceRegistry:
    return DeviceRegistry(
        [
            binary_sensor(f"{prefix}motion_kitchen", SensorType.MOTION, "kitchen"),
            binary_sensor(f"{prefix}motion_bedroom", SensorType.MOTION, "bedroom"),
            numeric_sensor(f"{prefix}temp_kitchen", SensorType.TEMPERATURE, "kitchen"),
            actuator(f"{prefix}hue_kitchen", SensorType.BULB, "kitchen"),
        ]
    )


def _cyclic_trace(
    registry: DeviceRegistry, hours: float, phase_seconds: float
) -> Trace:
    """Alternating kitchen/bedroom phases with a temperature ramp and a
    bulb activation — enough context structure for every DICE stage."""
    times: List[float] = []
    devs: List[int] = []
    vals: List[float] = []
    horizon = hours * HOUR
    t = 0.0
    while t < horizon:
        half = phase_seconds / 2.0
        for s in np.arange(t, t + half, 30.0):
            times.append(float(s)), devs.append(0), vals.append(1.0)
        for s in np.arange(t, t + half, 20.0):
            times.append(float(s)), devs.append(2), vals.append(25.0 + (s - t) / 60.0)
        times.append(t + 70.0), devs.append(3), vals.append(1.0)
        times.append(t + half), devs.append(3), vals.append(0.0)
        for s in np.arange(t + half, t + phase_seconds, 30.0):
            times.append(float(s)), devs.append(1), vals.append(1.0)
        for s in np.arange(t + half, t + phase_seconds, 20.0):
            times.append(float(s))
            devs.append(2)
            vals.append(25.0 + (t + phase_seconds - s) / 60.0)
        t += phase_seconds
    arr_t = np.array(times)
    keep = arr_t < horizon  # the final phase may overshoot the horizon
    return Trace(
        registry,
        arr_t[keep],
        np.array(devs, dtype=np.int32)[keep],
        np.array(vals)[keep],
        start=0.0,
        end=horizon,
    )


@dataclass
class ChaosDeployment:
    """One seeded synthetic home plus the adversarial live arrival stream."""

    home_id: str
    registry: DeviceRegistry
    trace: Trace
    split: float  # training is [start, split); live is [split, end)
    events: List[Event]  # live arrival sequence, pipe faults applied
    fault_device: str
    fault_time: float
    fault_class: FaultType = FaultType.FAIL_STOP
    backend: str = "dice"

    @property
    def end(self) -> float:
        return self.trace.end

    def fit_detector(
        self, metrics: Optional["telemetry.MetricsRegistry"] = None
    ):
        """A fresh fitted detector (fresh metrics, so trial runs never
        share counters or memo state with each other).

        A ``dice`` deployment returns the bare :class:`DiceDetector` —
        byte-compatible with every pre-backend chaos seed — while other
        backends return the fitted :class:`~repro.core.DetectorBackend`.
        """
        if metrics is None:
            metrics = telemetry.MetricsRegistry()
        train = self.trace.slice(self.trace.start, self.split)
        if self.backend == "dice":
            return DiceDetector(self.registry, metrics=metrics).fit(train)
        from ..core import create_backend

        return create_backend(self.backend, self.registry, metrics=metrics).fit(
            train
        )


def build_chaos_deployment(
    seed: int,
    home_id: str = "home-0000",
    *,
    hours: float = 4.5,
    fault_class: FaultType = FaultType.FAIL_STOP,
    backend: str = "dice",
) -> ChaosDeployment:
    """A pure function of ``(seed, home_id, hours, fault_class, backend)``.

    The live segment carries a seeded device fault — fail-stop by default
    (one motion sensor goes silent), or any Ch. IV.2 class via
    *fault_class* — plus reorder/duplicate/corrupt pipe faults, so crash
    points land among detections, open identification sessions,
    quarantines and guarded drops — the states a recovery must reproduce.
    """
    rng = np.random.default_rng(seed)
    phase = float(rng.choice([480.0, 600.0, 720.0]))
    registry = _chaos_registry(prefix=f"{home_id}_")
    trace = _cyclic_trace(registry, hours, phase)
    split = 3.0 * HOUR
    live = list(trace.slice(split, trace.end))
    sensors = [d.device_id for d in registry if not d.is_actuator][:2]
    victim = sensors[int(rng.integers(len(sensors)))]
    fault_time = split + (0.3 + 0.4 * float(rng.random())) * (trace.end - split)
    if fault_class is FaultType.FAIL_STOP:
        # Kept as the original event-list filter so pre-existing seeds
        # reproduce byte-identical deployments.
        live = [
            e
            for e in live
            if not (e.device_id == victim and e.timestamp >= fault_time)
        ]
    else:
        faulty = apply_fault(
            trace,
            InjectedFault(victim, fault_class, fault_time),
            np.random.default_rng(seed + 2),
        )
        live = list(faulty.slice(split, faulty.end))
    injector = PipeFaultInjector(
        np.random.default_rng(seed + 1),
        [
            PipeFaultSpec(PipeFaultType.REORDER, max_delay_seconds=60.0),
            PipeFaultSpec(PipeFaultType.DUPLICATE, rate=0.08, max_delay_seconds=60.0),
            PipeFaultSpec(PipeFaultType.CORRUPT_VALUE, rate=0.02),
        ],
    )
    return ChaosDeployment(
        home_id=home_id,
        registry=registry,
        trace=trace,
        split=split,
        events=injector.apply(live),
        fault_device=victim,
        fault_time=fault_time,
        fault_class=fault_class,
        backend=backend,
    )


# --------------------------------------------------------------------- #
# Canonicalization & counters
# --------------------------------------------------------------------- #


def canonical_alerts(alerts: Sequence[Alert]) -> str:
    """Byte rendering independent of the process hash seed."""
    return repr(
        [
            (a.kind, a.time, a.check, a.cases, tuple(sorted(a.devices)), a.converged)
            for a in alerts
        ]
    )


def canonical_provenance(records: Sequence[dict]) -> Dict[str, bytes]:
    """Trace id → exact journal bytes, the form provenance parity compares.

    Keyed by id (not ordered) because the recovered archive interleaves
    pre-crash appends with replay-regenerated ones; the contract is that
    every record exists exactly once with byte-identical evidence, not
    that append order survives the crash."""
    return {record["id"]: canonical_record_bytes(record) for record in records}


def _expected_ids(home_id: str, alerts: Sequence[Alert]) -> List[str]:
    return [
        alert_record(home_id, seq, alert)["id"]
        for seq, alert in enumerate(alerts, start=1)
    ]


def tear_final_record(journal_dir: str, last_event: Event, rng) -> int:
    """Chop bytes off the newest segment so its final record fails CRC.

    Removes between 1 and ``frame_size - 1`` bytes — never the whole
    frame, so the file provably ends in a *partial* record that the
    reader must detect and discard.  Returns the number of bytes cut.
    """
    segments = list_segments(journal_dir)
    if not segments:
        return 0
    path = segments[-1][1]
    frame = len(encode_record(event_to_record(last_event)))
    size = os.path.getsize(path)
    if size < frame:
        return 0
    cut = int(rng.integers(1, frame))
    with open(path, "ab") as handle:
        handle.truncate(size - cut)
    return cut


# --------------------------------------------------------------------- #
# Trial results
# --------------------------------------------------------------------- #


@dataclass
class CrashTrialResult:
    """One kill-and-recover cycle, judged against the uninterrupted run."""

    mode: str  # "standalone", "fleet" or "service"
    deploy_seed: int
    kill_index: int
    total_events: int
    checkpointed: bool
    torn: bool
    parity: bool
    counters_monotone: bool
    delivery_ok: bool
    replayed_alerts: int
    delivered: int
    dead_letters: int
    shards_before: int = 1
    shards_after: int = 1
    #: Every provenance record in the recovered archive is byte-identical
    #: to the uninterrupted run's evidence (True when no oracle was given).
    provenance_parity: bool = True
    #: Every home's ``runtime.drops.summary()`` equals the uninterrupted
    #: run's (True when no oracle was given).
    drops_parity: bool = True

    @property
    def ok(self) -> bool:
        return (
            self.parity
            and self.counters_monotone
            and self.delivery_ok
            and self.provenance_parity
            and self.drops_parity
        )


@dataclass
class ChaosReport:
    """Aggregate verdict over a batch of trials."""

    trials: List[CrashTrialResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.trials) and all(t.ok for t in self.trials)

    def summary(self) -> dict:
        return {
            "trials": len(self.trials),
            "ok": self.ok,
            "parity_failures": sum(1 for t in self.trials if not t.parity),
            "counter_failures": sum(
                1 for t in self.trials if not t.counters_monotone
            ),
            "delivery_failures": sum(1 for t in self.trials if not t.delivery_ok),
            "provenance_failures": sum(
                1 for t in self.trials if not t.provenance_parity
            ),
            "drop_failures": sum(1 for t in self.trials if not t.drops_parity),
            "torn_trials": sum(1 for t in self.trials if t.torn),
            "checkpointed_trials": sum(1 for t in self.trials if t.checkpointed),
            "delivered": sum(t.delivered for t in self.trials),
            "dead_letters": sum(t.dead_letters for t in self.trials),
        }


# --------------------------------------------------------------------- #
# Fleets and the oracle
# --------------------------------------------------------------------- #


def one_home_stream(deployment: ChaosDeployment) -> List[Tuple[str, Event]]:
    """A deployment's live arrival sequence as a one-home fleet's stream."""
    return [(deployment.home_id, event) for event in deployment.events]


def build_chaos_fleet(
    seed: int,
    num_homes: int = 3,
    fault_class: FaultType = FaultType.FAIL_STOP,
) -> Tuple[List[ChaosDeployment], List[Tuple[str, Event]]]:
    """*num_homes* chaos deployments plus their merged arrival stream."""
    deployments = [
        build_chaos_deployment(
            seed * 100 + i, home_id=f"home-{i:04d}", fault_class=fault_class
        )
        for i in range(num_homes)
    ]
    merged: List[Tuple[float, int, str, Event]] = []
    for order, dep in enumerate(deployments):
        for event in dep.events:
            merged.append((event.timestamp, order, dep.home_id, event))
    merged.sort(key=lambda item: (item[0], item[1]))
    return deployments, [(home_id, event) for _, _, home_id, event in merged]


def _fresh_fleet(
    deployments: Sequence[ChaosDeployment],
    detectors: Dict[str, DiceDetector],
    num_shards: int,
) -> FleetGateway:
    gateway = FleetGateway(num_shards, metrics=telemetry.NULL_REGISTRY)
    for dep in deployments:
        gateway.add_runtime(
            dep.home_id,
            HardenedOnlineDice(
                detectors[dep.home_id],
                start=dep.split,
                lateness_seconds=LATENESS_SECONDS,
                policy=POLICY,
            ),
        )
    return gateway


class FleetOracle(NamedTuple):
    """Per-home results of the uninterrupted run a trial is judged by."""

    alerts: Dict[str, List[Alert]]
    provenance: Dict[str, Dict[str, bytes]]
    drops: Dict[str, Dict[str, int]]


def run_fleet_oracle(
    deployments: Sequence[ChaosDeployment],
    merged: Sequence[Tuple[str, Event]],
) -> FleetOracle:
    """Per-home oracle alert streams, evidence archives and drop counts.

    Each home's events from *merged*, in order, run uninterrupted through
    a plain :class:`HardenedOnlineDice` — no fleet, journal or outbox, so
    the durable gateway is judged against an independent twin.
    """
    alerts: Dict[str, List[Alert]] = {}
    provenance: Dict[str, Dict[str, bytes]] = {}
    drops: Dict[str, Dict[str, int]] = {}
    for dep in deployments:
        runtime = HardenedOnlineDice(
            dep.fit_detector(metrics=telemetry.NULL_REGISTRY),
            start=dep.split,
            lateness_seconds=LATENESS_SECONDS,
            policy=POLICY,
        )
        # Match the gateway's home stamping so trace ids line up.
        runtime.provenance.home_id = dep.home_id
        home_alerts = runtime.ingest_many(
            [event for home_id, event in merged if home_id == dep.home_id]
        )
        home_alerts += runtime.finish_stream(dep.end)
        alerts[dep.home_id] = home_alerts
        provenance[dep.home_id] = canonical_provenance(runtime.provenance.records())
        drops[dep.home_id] = runtime.drops.summary()
    return FleetOracle(alerts, provenance, drops)


def fleet_oracle(
    deployments: Sequence[ChaosDeployment],
    merged: Sequence[Tuple[str, Event]],
) -> Tuple[Dict[str, List[Alert]], Dict[str, Dict[str, bytes]]]:
    """The ``(alerts, provenance)`` pair of :func:`run_fleet_oracle`."""
    oracle = run_fleet_oracle(deployments, merged)
    return oracle.alerts, oracle.provenance


class SimulatedCrash(Exception):
    """Raised by a fault hook to kill the gateway mid-operation."""


# --------------------------------------------------------------------- #
# Trials
# --------------------------------------------------------------------- #


def run_fleet_trial(
    deployments: Sequence[ChaosDeployment],
    merged: Sequence[Tuple[str, Event]],
    expected: Dict[str, List[Alert]],
    workdir: str,
    *,
    kill_index: int,
    checkpoint_index: Optional[int] = None,
    torn: bool = False,
    shards_before: int = 2,
    shards_after: int = 2,
    fsync: str = "never",
    flaky_failures: int = 1,
    max_attempts: int = 4,
    rng=None,
    expected_provenance: Optional[Dict[str, Dict[str, bytes]]] = None,
    expected_drops: Optional[Dict[str, Dict[str, int]]] = None,
    save_at_kill: bool = False,
) -> CrashTrialResult:
    """Run a durable fleet, kill it at *kill_index*, recover (possibly
    resharded), finish; judge every home against *expected*.

    With *torn*, the final journal record (event ``kill_index - 1``, in
    its home's journal) is byte-truncated after the crash; the source
    then re-feeds from that event, as a resumed pipe would — the
    recovered streams must still match the oracle exactly.

    With *save_at_kill* (and a *checkpoint_index*), a second checkpoint
    save starts at *kill_index* and the crash is the
    :class:`SimulatedCrash` a caller's fault hook raises inside it; a
    save that completes is a crash right after it.  Recovery must then
    come back from either the first checkpoint or the second, never a
    mix of the two.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    os.makedirs(workdir, exist_ok=True)
    journal_root = os.path.join(workdir, "journals")
    ckpt_dir = os.path.join(workdir, "fleet-ckpt")
    outbox_dir = os.path.join(workdir, "outbox")
    delivered_path = os.path.join(workdir, "delivered.jsonl")
    homes = [dep.home_id for dep in deployments]
    ends = {dep.home_id: dep.end for dep in deployments}

    def make_outbox() -> AlertOutbox:
        return AlertOutbox(
            outbox_dir,
            FlakySink(FileSink(delivered_path), failures=flaky_failures),
            max_attempts=max_attempts,
            sleep=lambda _s: None,
            metrics=telemetry.NULL_REGISTRY,
        )

    def alerts_total(gateway, home_id: str) -> float:
        return telemetry.counter_total(
            gateway.runtime_of(home_id).metrics.snapshot(), ALERTS_TOTAL
        )

    # --- life before the crash ---------------------------------------- #
    detectors = {dep.home_id: dep.fit_detector() for dep in deployments}
    durable = DurableFleetGateway(
        _fresh_fleet(deployments, detectors, shards_before),
        journal_root,
        fsync=fsync,
        outbox=make_outbox(),
    )
    # Restore does not resurrect alert *history* (those alerts were
    # already delivered); each home's stream is prefix + recovered, the
    # prefix being the alerts the restored checkpoint accounts for.
    prefix: Dict[str, List[Alert]] = {home_id: [] for home_id in homes}
    prefixes = [prefix]
    at_checkpoint = {home_id: 0.0 for home_id in homes}
    if checkpoint_index is not None and 0 < checkpoint_index < kill_index:
        durable.dispatch(merged[:checkpoint_index])
        durable.save_checkpoint(ckpt_dir)
        for home_id in homes:
            prefix[home_id] = durable.alerts_of(home_id)
            at_checkpoint[home_id] = alerts_total(durable, home_id)
        durable.dispatch(merged[checkpoint_index:kill_index])
        if save_at_kill:
            prefixes.append(
                {home_id: durable.alerts_of(home_id) for home_id in homes}
            )
            try:
                durable.save_checkpoint(ckpt_dir)
            except SimulatedCrash:
                pass
    else:
        checkpoint_index = None
        durable.dispatch(merged[:kill_index])
    durable.deliver_pending()  # some alerts reach the sink pre-crash
    durable.close(drop=True)  # kill -9: uncommitted records die unwritten

    resume_from = kill_index
    if torn:
        torn_home, torn_event = merged[kill_index - 1]
        cut = tear_final_record(
            os.path.join(journal_root, torn_home),
            torn_event,
            np.random.default_rng(int(rng.integers(1 << 31))),
        )
        if cut:
            # The torn record's event never durably happened: re-feed it.
            resume_from = kill_index - 1

    # --- the next life ------------------------------------------------- #
    detectors = {dep.home_id: dep.fit_detector() for dep in deployments}
    outbox = make_outbox()
    recovered, replayed = DurableFleetGateway.recover(
        detectors,
        journal_root,
        checkpoint_dir=ckpt_dir if checkpoint_index is not None else None,
        gateway=(
            None
            if checkpoint_index is not None
            else _fresh_fleet(deployments, detectors, shards_after)
        ),
        num_shards=shards_after,
        fsync=fsync,
        outbox=outbox,
        lateness_seconds=LATENESS_SECONDS,
        policy=POLICY,
    )
    after_replay = {home_id: alerts_total(recovered, home_id) for home_id in homes}
    recovered.dispatch(merged[resume_from:])
    recovered.finish(ends)
    recovered.deliver_pending()
    provenance_parity = expected_provenance is None or all(
        canonical_provenance(recovered.provenance_log_of(home_id).records())
        == expected_provenance[home_id]
        for home_id in expected_provenance
    )
    drops_parity = expected_drops is None or all(
        recovered.runtime_of(home_id).drops.summary() == expected_drops[home_id]
        for home_id in expected_drops
    )
    recovered.close()

    parity = any(
        all(
            canonical_alerts(before[home_id] + recovered.alerts_of(home_id))
            == canonical_alerts(expected[home_id])
            for home_id in expected
        )
        for before in prefixes
    )
    counters_monotone = all(
        after_replay[home_id] >= at_checkpoint[home_id]
        and alerts_total(recovered, home_id) == float(len(expected[home_id]))
        for home_id in expected
    )
    expected_ids = set()
    for home_id, alerts in expected.items():
        expected_ids.update(_expected_ids(home_id, alerts))
    acked = set(outbox.delivered_ids())
    dead = outbox.dead_letters()
    dead_ids = {entry["record"]["id"] for entry in dead}
    delivery_ok = parity and expected_ids == (acked | dead_ids)
    if flaky_failures < max_attempts:
        delivery_ok = delivery_ok and not dead_ids
    return CrashTrialResult(
        mode="fleet",  # batch runners stamp their own mode
        deploy_seed=-1,  # caller stamps it
        kill_index=kill_index,
        total_events=len(merged),
        checkpointed=checkpoint_index is not None,
        torn=torn and resume_from != kill_index,
        parity=parity,
        counters_monotone=counters_monotone,
        delivery_ok=delivery_ok,
        replayed_alerts=len(replayed),
        delivered=len(acked),
        dead_letters=len(dead),
        shards_before=shards_before,
        shards_after=shards_after,
        provenance_parity=provenance_parity,
        drops_parity=drops_parity,
    )


def _chaos_batch(
    base_dir: str,
    mode: str,
    fleets: Iterable[Tuple[int, List[ChaosDeployment], List[Tuple[str, Event]]]],
    kills: int,
    rng,
    shard_choices: Optional[Sequence[int]],
    fsync: str,
) -> ChaosReport:
    """*kills* random kill points per ``(seed, deployments, merged)``
    fleet; shard counts are drawn only when *shard_choices* is given."""
    report = ChaosReport()
    for fleet_seed, deployments, merged in fleets:
        oracle = run_fleet_oracle(deployments, merged)
        for k in range(kills):
            kill_index = int(rng.integers(2, len(merged)))
            checkpoint_index: Optional[int] = None
            if rng.random() < 0.5 and kill_index > 2:
                checkpoint_index = int(rng.integers(1, kill_index))
            torn = bool(rng.random() < 0.34)
            shards_before = shards_after = 1
            if shard_choices is not None:
                shards_before = int(rng.choice(shard_choices))
                shards_after = int(rng.choice(shard_choices))
            result = run_fleet_trial(
                deployments,
                merged,
                oracle.alerts,
                os.path.join(base_dir, f"{mode}-{fleet_seed}-{k}"),
                kill_index=kill_index,
                checkpoint_index=checkpoint_index,
                torn=torn,
                shards_before=shards_before,
                shards_after=shards_after,
                fsync=fsync,
                rng=rng,
                expected_provenance=oracle.provenance,
                expected_drops=oracle.drops,
            )
            result.mode = mode
            result.deploy_seed = fleet_seed
            report.trials.append(result)
            _log.info(
                "chaos_trial",
                mode=mode,
                seed=fleet_seed,
                kill_index=kill_index,
                shards=f"{shards_before}->{shards_after}",
                torn=result.torn,
                checkpointed=result.checkpointed,
                ok=result.ok,
            )
    return report


def run_chaos_one_home(
    base_dir: str,
    *,
    deployments: int = 5,
    kills_per_deployment: int = 5,
    seed: int = 0,
    fsync: str = "never",
    fault_class: FaultType = FaultType.FAIL_STOP,
) -> ChaosReport:
    """Single-home chaos (``--mode standalone``): seeded deployments ×
    random kill points, each home run as a one-home fleet."""

    def homes():
        for d in range(deployments):
            deployment = build_chaos_deployment(seed * 1000 + d, fault_class=fault_class)
            yield seed * 1000 + d, [deployment], one_home_stream(deployment)

    return _chaos_batch(
        base_dir, "standalone", homes(), kills_per_deployment,
        np.random.default_rng(seed), None, fsync,
    )


def run_chaos_fleet(
    base_dir: str,
    *,
    fleets: int = 2,
    kills_per_fleet: int = 4,
    num_homes: int = 3,
    seed: int = 0,
    fsync: str = "never",
    shard_choices: Sequence[int] = (1, 2, 4),
    fault_class: FaultType = FaultType.FAIL_STOP,
) -> ChaosReport:
    """The fleet chaos batch, resharding on roughly half the restores."""

    def fleet_batches():
        for f in range(fleets):
            deployments, merged = build_chaos_fleet(
                seed * 1000 + f, num_homes=num_homes, fault_class=fault_class
            )
            yield seed * 1000 + f, deployments, merged

    return _chaos_batch(
        base_dir, "fleet", fleet_batches(), kills_per_fleet,
        np.random.default_rng(seed + 7), shard_choices, fsync,
    )
