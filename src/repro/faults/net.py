"""Network fault injection and the service chaos harness.

Where :mod:`repro.faults.pipe` perturbs the *event* stream (reorder,
duplicate, corrupt values) and :mod:`repro.faults.crash` kills the
*process*, this module attacks the layer the ingest service adds: the
**byte stream between client and server**.  :class:`NetFaultInjector`
plugs into :class:`~repro.service.ServiceClient`'s send path and injects
the transport failures a real deployment sees:

* **torn writes / disconnect mid-frame** — a frame's prefix is written,
  then the connection dies; the server must discard the partial frame;
* **clean disconnects** between frames;
* **garbage bytes** — line noise that must kill the connection at the
  CRC/length check, never the server;
* **slowloris** — a frame dribbled out in tiny chunks (the server's
  frame-completion deadline bounds how long it will humour this);
* **duplicate sends** — the at-least-once failure mode a retrying client
  actually produces: after a reconnect it resumes *below* the server's
  applied count and re-sends a suffix the server has already journaled
  (the server skips exactly those frames).

The harness half extends the crash-chaos contract across the network:
:func:`run_service_trial` streams seeded chaos deployments through a real
loopback :class:`~repro.service.IngestServer`, kills it at a randomized
applied-count point (optionally checkpointing first and tearing the
journal tail, the mid-append death), restarts it from recovery on the
same port, lets the retrying clients heal, and judges the outcome with
the crash harness's own instruments: per-home canonical alert parity
against the uninterrupted in-process oracle, monotone alert counters,
at-least-once outbox delivery, and — new here — **exact ingest
accounting**: the restarted server holds every event the killed one had
counted applied (one fewer on the home whose journal tail was torn),
and every event is journaled exactly once (the final ``ingest_seqs``
equal each home's stream length, with zero sheds).
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import telemetry
from ..durability import AlertOutbox, DurableFleetGateway, FileSink, FlakySink
from ..service import IngestServer, ServiceClient, ServiceConfig, ServiceThread
from ..streaming import Alert
from ..streaming.guard import OVERLOAD
from ..streaming.runtime import ALERTS_TOTAL
from .crash import (
    LATENESS_SECONDS,
    POLICY,
    ChaosDeployment,
    ChaosReport,
    CrashTrialResult,
    _expected_ids,
    _fresh_fleet,
    build_chaos_fleet,
    canonical_alerts,
    fleet_oracle,
    tear_final_record,
)

__all__ = [
    "NetFaultInjector",
    "SimulatedDisconnect",
    "run_service_trial",
    "run_chaos_service",
]

_log = telemetry.get_logger("repro.faults.net")


class SimulatedDisconnect(ConnectionError):
    """The injector cut the connection (possibly mid-frame)."""


#: Per-frame fault rates.  They apply independently to each outgoing
#: *event* frame; the handshake frames stay clean so every connection at
#: least reaches the resume negotiation (handshake corruption is covered
#: by the decoder fuzz tests, which need no live server).
TORN_WRITE_RATE = 0.01  # partial frame, then disconnect
DISCONNECT_RATE = 0.005  # clean cut between frames
GARBAGE_RATE = 0.002  # line noise injected before the frame
SLOWLORIS_RATE = 0.005  # frame dribbled in tiny chunks
DUPLICATE_RATE = 0.3  # chance a reconnect rewinds its resume
DUPLICATE_DEPTH = 6  # max frames re-sent below ``applied``
SLOW_CHUNK_BYTES = 5
SLOW_DELAY_S = 0.001


@dataclass
class _FaultCounts:
    torn_writes: int = 0
    disconnects: int = 0
    garbage: int = 0
    slowloris: int = 0
    duplicates: int = 0  # frames deliberately re-sent below applied


class NetFaultInjector:
    """Seeded byte-level fault source for one client's send path."""

    def __init__(self, rng) -> None:
        if isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(int(rng))
        self.rng = rng
        self.counts = _FaultCounts()

    # -- ServiceClient hooks ------------------------------------------- #

    def on_connect(self) -> None:
        """A new connection opened; nothing to reset (rates are per-frame)."""

    def resume_from(self, applied: int) -> int:
        """Possibly rewind the resume point: the duplicate-sends fault."""
        if applied > 0 and self.rng.random() < DUPLICATE_RATE:
            rewind = min(applied, 1 + int(self.rng.integers(DUPLICATE_DEPTH)))
            self.counts.duplicates += rewind
            return applied - rewind
        return applied

    def send(self, sock, data: bytes, kind: str) -> None:
        """Deliver one frame's bytes, possibly perturbed."""
        if kind != "event":
            sock.sendall(data)
            return
        roll = float(self.rng.random())
        edge = TORN_WRITE_RATE
        if roll < edge and len(data) > 1:
            cut = 1 + int(self.rng.integers(len(data) - 1))
            sock.sendall(data[:cut])
            self.counts.torn_writes += 1
            raise SimulatedDisconnect(f"torn write after {cut} bytes")
        edge += DISCONNECT_RATE
        if roll < edge:
            self.counts.disconnects += 1
            raise SimulatedDisconnect("disconnect between frames")
        edge += GARBAGE_RATE
        if roll < edge:
            noise = self.rng.integers(0, 256, size=16, dtype=np.uint8).tobytes()
            self.counts.garbage += 1
            sock.sendall(noise)
            # The server will kill this connection at the CRC check; keep
            # writing until it does — the client recovers via its retry loop.
            sock.sendall(data)
            return
        edge += SLOWLORIS_RATE
        if roll < edge:
            self.counts.slowloris += 1
            for offset in range(0, len(data), SLOW_CHUNK_BYTES):
                sock.sendall(data[offset : offset + SLOW_CHUNK_BYTES])
                time.sleep(SLOW_DELAY_S)
            return
        sock.sendall(data)


# --------------------------------------------------------------------- #
# The service chaos harness
# --------------------------------------------------------------------- #


@dataclass
class _ClientOutcome:
    home_id: str
    error: Optional[BaseException] = None
    applied: int = 0
    connects: int = 0
    retries: int = 0
    resent: int = 0


def _service_gateway(
    deployments: Sequence[ChaosDeployment],
    detectors: Dict[str, object],
    num_shards: int,
    journal_root: str,
    outbox: AlertOutbox,
) -> DurableFleetGateway:
    return DurableFleetGateway(
        _fresh_fleet(deployments, detectors, num_shards),
        journal_root,
        outbox=outbox,
    )


def run_service_trial(
    deployments: Sequence[ChaosDeployment],
    expected: Dict[str, List[Alert]],
    workdir: str,
    *,
    kill_at: int,
    checkpoint_at: Optional[int] = None,
    torn: bool = False,
    faults: bool = True,
    shards_before: int = 2,
    shards_after: int = 2,
    flaky_failures: int = 1,
    max_attempts: int = 4,
    rng=None,
    queue_capacity: int = 8192,
) -> CrashTrialResult:
    """One network kill-and-recover cycle against a live loopback server.

    Phase 1 streams every home concurrently through retrying clients
    (barrier-synced, streams left open).  When the fleet-wide applied
    count crosses *kill_at* the server dies abruptly — after an optional
    mid-run checkpoint at *checkpoint_at*, and with an optional torn
    journal tail (*torn*, the mid-append death; the client re-sends the
    torn event because the recovered ``applied`` count excludes it).  A
    recovered server takes over the same port; once every client reports
    its full stream applied, phase 2 closes each home's stream and the
    verdict compares prefix + recovered alerts per home against the
    uninterrupted oracle, plus outbox delivery and exact ingest
    accounting.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    os.makedirs(workdir, exist_ok=True)
    journal_root = os.path.join(workdir, "journals")
    ckpt_dir = os.path.join(workdir, "fleet-ckpt")
    outbox_dir = os.path.join(workdir, "outbox")
    delivered_path = os.path.join(workdir, "delivered.jsonl")
    total_events = sum(len(dep.events) for dep in deployments)
    kill_at = max(1, min(int(kill_at), total_events))
    trial_seed = int(rng.integers(1 << 31))

    def make_outbox() -> AlertOutbox:
        sink = FlakySink(FileSink(delivered_path), failures=flaky_failures)
        return AlertOutbox(
            outbox_dir,
            sink,
            max_attempts=max_attempts,
            sleep=lambda _s: None,
            jitter_seed=trial_seed,
            metrics=telemetry.NULL_REGISTRY,
        )

    # Fit both generations up front so the restart gap stays short.
    detectors_before = {dep.home_id: dep.fit_detector() for dep in deployments}
    detectors_after = {dep.home_id: dep.fit_detector() for dep in deployments}

    config = ServiceConfig(
        queue_capacity=queue_capacity,
        read_timeout_s=5.0,
        frame_timeout_s=5.0,
        ack_every=16,
    )
    durable = _service_gateway(
        deployments, detectors_before, shards_before, journal_root, make_outbox()
    )
    handle = ServiceThread(IngestServer(durable, config)).start()
    port = handle.port

    outcomes = [_ClientOutcome(dep.home_id) for dep in deployments]

    # The checkpoint must land between two known applied counts or the
    # consumer can race past it (even to the end of every stream) before
    # the checkpoint callback runs on the loop, truncating away the very
    # tail a ``torn`` trial wants to damage.  So when a checkpoint is
    # requested the clients send in two waves: wave 1 is each home's
    # proportional prefix of *checkpoint_at* events, confirmed applied
    # before the checkpoint is taken with nothing in flight; wave 2
    # resumes by sequence and the kill lands mid-wave, guaranteeing
    # post-checkpoint journal bytes exist to tear.
    want_checkpoint = checkpoint_at is not None and 0 < checkpoint_at < kill_at
    wave1_counts = {
        dep.home_id: (
            (len(dep.events) * int(checkpoint_at)) // total_events
            if want_checkpoint
            else 0
        )
        for dep in deployments
    }
    wave1_done = [threading.Event() for _ in deployments]
    wave2_gate = threading.Event()

    def client_main(index: int, dep: ChaosDeployment) -> None:
        outcome = outcomes[index]
        injector = None
        if faults:
            injector = NetFaultInjector(
                np.random.default_rng(trial_seed * 7919 + index)
            )
        client = ServiceClient(
            "127.0.0.1",
            port,
            max_attempts=400,
            base_delay=0.002,
            max_delay=0.05,
            jitter_seed=trial_seed + index,
            io_timeout=5.0,
            fault_injector=injector,
        )
        try:
            if want_checkpoint:
                head = dep.events[: wave1_counts[dep.home_id]]
                if head:
                    client.send_stream(dep.home_id, head, finish=False)
                wave1_done[index].set()
                wave2_gate.wait()
            report = client.send_stream(dep.home_id, dep.events, finish=False)
            outcome.applied = report.applied
            outcome.connects = report.connects
            outcome.retries = report.retries
            outcome.resent = report.resent
        except BaseException as exc:  # judged by the trial, not raised here
            outcome.error = exc
            wave1_done[index].set()

    threads = [
        threading.Thread(target=client_main, args=(i, dep), daemon=True)
        for i, dep in enumerate(deployments)
    ]
    for thread in threads:
        thread.start()

    def fleet_applied() -> int:
        return handle.call(lambda: sum(durable.ingest_seqs.values()))

    prefix: Dict[str, List[Alert]] = {dep.home_id: [] for dep in deployments}
    checkpointed = False
    if want_checkpoint:
        for flag in wave1_done:
            flag.wait()

        def do_checkpoint() -> Dict[str, List[Alert]]:
            durable.save_checkpoint(ckpt_dir)
            return {
                dep.home_id: durable.alerts_of(dep.home_id)
                for dep in deployments
            }

        prefix = handle.call(do_checkpoint)
        checkpointed = True
        wave2_gate.set()
    while fleet_applied() < kill_at:
        time.sleep(0.002)
    handle.kill()
    applied_at_kill = dict(durable.ingest_seqs)

    torn_home: Optional[str] = None
    if torn:
        candidates = [
            dep for dep in deployments if applied_at_kill.get(dep.home_id, 0) > 0
        ]
        # A home whose client stalled after the checkpoint leaves an empty
        # newest segment (nothing to tear), so walk the candidates in a
        # seeded order and tear the first journal that actually has a
        # final record to damage.
        order = rng.permutation(len(candidates)) if candidates else []
        for index in order:
            victim = candidates[int(index)]
            last = victim.events[applied_at_kill[victim.home_id] - 1]
            cut = tear_final_record(
                os.path.join(journal_root, victim.home_id),
                last,
                np.random.default_rng(trial_seed ^ 0x5EED),
            )
            if cut > 0:
                torn_home = victim.home_id
                break

    # --- the next life: recover onto the same port --------------------- #
    outbox2 = make_outbox()
    recovered, replayed = DurableFleetGateway.recover(
        detectors_after,
        journal_root,
        checkpoint_dir=ckpt_dir if checkpointed else None,
        gateway=(
            None
            if checkpointed
            else _fresh_fleet(deployments, detectors_after, shards_after)
        ),
        num_shards=shards_after,
        outbox=outbox2,
        lateness_seconds=LATENESS_SECONDS,
        policy=POLICY,
    )
    # What the kill spared: every event an ``applied`` count had covered,
    # less the one record a torn tail cut.
    survived = all(
        recovered.ingest_seqs.get(dep.home_id, 0)
        == applied_at_kill.get(dep.home_id, 0) - (1 if dep.home_id == torn_home else 0)
        for dep in deployments
    )
    config2 = ServiceConfig(
        port=port,
        queue_capacity=queue_capacity,
        read_timeout_s=5.0,
        frame_timeout_s=5.0,
        ack_every=16,
    )
    handle2 = ServiceThread(IngestServer(recovered, config2)).start()

    for thread in threads:
        thread.join(timeout=120.0)
    client_errors = [o.error for o in outcomes if o.error is not None]

    # Phase 2: close every stream (exactly once, on the surviving server).
    finish_errors: List[BaseException] = []
    if not client_errors:
        for dep in deployments:
            closer = ServiceClient(
                "127.0.0.1",
                port,
                max_attempts=50,
                base_delay=0.002,
                max_delay=0.05,
                jitter_seed=trial_seed ^ 0xF1,
                io_timeout=10.0,
            )
            try:
                closer.send_stream(
                    dep.home_id, dep.events, end=dep.end, finish=True
                )
            except BaseException as exc:
                finish_errors.append(exc)
    handle2.drain()

    # --- judgement ------------------------------------------------------ #
    healthy = not client_errors and not finish_errors
    parity = healthy and all(
        canonical_alerts(prefix[home_id] + recovered.alerts_of(home_id))
        == canonical_alerts(expected[home_id])
        for home_id in expected
    )
    counters_monotone = healthy and all(
        telemetry.counter_total(
            recovered.gateway.runtime_of(home_id).metrics.snapshot(), ALERTS_TOTAL
        )
        == float(len(expected[home_id]))
        for home_id in expected
    )
    expected_ids = set()
    for home_id, alerts in expected.items():
        expected_ids.update(_expected_ids(home_id, alerts))
    acked = set(outbox2.delivered_ids())
    dead = outbox2.dead_letters()
    dead_ids = {entry["record"]["id"] for entry in dead}
    # Exact ingest accounting: the restart held what the kill spared, every
    # event was journaled exactly once, and no overload sheds at any point
    # (the queue was never allowed to fill, so every shed here would be a
    # resume-arithmetic bug, not backpressure).
    seqs_exact = healthy and survived and all(
        recovered.ingest_seqs.get(dep.home_id, 0) == len(dep.events)
        for dep in deployments
    )
    overload_drops = sum(
        gw.runtime_of(dep.home_id).drops.count(OVERLOAD)
        for gw in (durable.gateway, recovered.gateway)
        for dep in deployments
    )
    delivery_ok = (
        parity
        and seqs_exact
        and overload_drops == 0
        and expected_ids == (acked | dead_ids)
    )
    if flaky_failures < max_attempts:
        delivery_ok = delivery_ok and not dead_ids
    result = CrashTrialResult(
        mode="service",
        deploy_seed=-1,
        kill_index=kill_at,
        total_events=total_events,
        checkpointed=checkpointed,
        torn=torn_home is not None,
        parity=parity,
        counters_monotone=counters_monotone,
        delivery_ok=delivery_ok,
        replayed_alerts=len(replayed),
        delivered=len(acked),
        dead_letters=len(dead),
        shards_before=shards_before,
        shards_after=shards_after,
    )
    if client_errors or finish_errors:
        _log.error(
            "service_trial_client_failure",
            errors=[repr(e) for e in (client_errors + finish_errors)],
        )
    return result


def run_chaos_service(
    base_dir: str,
    *,
    fleets: int = 2,
    kills_per_fleet: int = 10,
    num_homes: int = 2,
    seed: int = 0,
    shard_choices: Sequence[int] = (1, 2, 4),
    fault_rate: float = 0.7,
) -> ChaosReport:
    """The network chaos batch: seeded fleets × randomized kill points.

    Each trial kills the live server at a random fleet-wide applied count
    (mid-frame as far as the clients are concerned — they are writing
    while it dies), optionally after a checkpoint and with a torn journal
    tail, and with byte-level transport faults active on most trials.
    """
    report = ChaosReport()
    rng = np.random.default_rng(seed + 13)
    for f in range(fleets):
        fleet_seed = seed * 1000 + f
        deployments, merged = build_chaos_fleet(fleet_seed, num_homes=num_homes)
        expected, _ = fleet_oracle(deployments, merged)
        total = sum(len(dep.events) for dep in deployments)
        for k in range(kills_per_fleet):
            kill_at = int(rng.integers(2, total))
            checkpoint_at: Optional[int] = None
            if rng.random() < 0.5 and kill_at > 2:
                checkpoint_at = int(rng.integers(1, kill_at))
            torn = bool(rng.random() < 0.34)
            faults = bool(rng.random() < fault_rate)
            shards_before = int(rng.choice(shard_choices))
            shards_after = int(rng.choice(shard_choices))
            workdir = os.path.join(base_dir, f"service-{fleet_seed}-{k}")
            result = run_service_trial(
                deployments,
                expected,
                workdir,
                kill_at=kill_at,
                checkpoint_at=checkpoint_at,
                torn=torn,
                faults=faults,
                shards_before=shards_before,
                shards_after=shards_after,
                rng=rng,
            )
            result.deploy_seed = fleet_seed
            report.trials.append(result)
            _log.info(
                "chaos_trial",
                mode="service",
                fleet_seed=fleet_seed,
                kill_at=kill_at,
                shards=f"{shards_before}->{shards_after}",
                faults=faults,
                torn=result.torn,
                checkpointed=result.checkpointed,
                ok=result.ok,
            )
    return report
