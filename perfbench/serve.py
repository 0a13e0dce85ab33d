"""The two served workloads: spawn the program, drive it, judge it.

``serve-durable`` follows the CI serve-smoke lifecycle on two ISLA homes
with ``fsync=always``: open-loop phase → SIGTERM drain → resume →
saturating phase → ``sync`` → ``kill -9`` → restart (recovery) → tail →
``end``.  ``serve-faults`` runs two testbed homes with injected device
and pipe faults and ``fsync=never``: saturating phase → open-loop phase
→ ``end``.

Once per invocation, before any server starts, the same events go
through an in-process ``DurableFleetGateway`` (untimed); its alert ids
are the oracle the delivered ids must match.
"""

from __future__ import annotations

import gc
import json
import math
import os
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

import numpy as np

import ledger
import tracing
import workloads
from loadgen import Generator

HERE = os.path.dirname(os.path.abspath(__file__))

#: Fresh server starts per run; ``setup_s`` is their median.
SETUP_RUNS = 3
#: A run whose generator handed events over later than this (p99) ran
#: off its schedule: its latency figures are marked invalid.
LATENESS_BOUND_MS = 50.0
SPAWN_TIMEOUT_S = 120.0
#: Counters that hold a high-water mark, not a running total.
HIGH_WATER_COUNTERS = ("reorder.pending_max", "checkpoint.bytes")


class ServeError(RuntimeError):
    pass


class _Proc:
    def __init__(self, name: str, popen: subprocess.Popen, t_spawn: float, prefix: str):
        self.name = name
        self.popen = popen
        self.t_spawn = t_spawn
        self.prefix = prefix
        self.ports: Optional[dict] = None


class Session:
    """Every server process of one run, so all are stopped on exit."""

    def __init__(self, workload: str, seed: int, rundir: str, trace: bool):
        self.workload = workload
        self.seed = seed
        self.rundir = rundir
        self.trace = trace
        self.procs: List[_Proc] = []

    def spawn(self, name: str, journal: str, checkpoint: Optional[str] = None,
              resume: Optional[str] = None) -> _Proc:
        prefix = os.path.join(self.rundir, name)
        cmd = [
            sys.executable, os.path.join(HERE, "launcher.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--out", prefix, "--journal-dir", journal,
            "--trace", "1" if self.trace else "0",
        ]
        if checkpoint:
            cmd += ["--checkpoint-dir", checkpoint]
        if resume:
            cmd += ["--resume", resume]
        log = open(prefix + ".log", "wb")
        t_spawn = time.monotonic()
        try:
            popen = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT)
        finally:
            log.close()
        proc = _Proc(name, popen, t_spawn, prefix)
        self.procs.append(proc)
        path = prefix + ".ports.json"
        deadline = t_spawn + SPAWN_TIMEOUT_S
        while not os.path.exists(path):
            if popen.poll() is not None:
                raise ServeError(f"server {name} exited with {popen.returncode}: "
                                 + _tail(prefix + ".log"))
            if time.monotonic() > deadline:
                raise ServeError(f"server {name} did not start listening")
            time.sleep(0.005)
        with open(path, "r", encoding="utf-8") as handle:
            proc.ports = json.load(handle)
        return proc

    def stop(self, proc: _Proc) -> None:
        """SIGTERM: the server drains (delivers, checkpoints) and exits 0."""
        proc.popen.send_signal(signal.SIGTERM)
        try:
            code = proc.popen.wait(timeout=SPAWN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise ServeError(f"server {proc.name} did not drain") from None
        if code != 0:
            raise ServeError(f"server {proc.name} drained with exit code {code}: "
                             + _tail(proc.prefix + ".log"))

    def flush_and_kill(self, proc: _Proc) -> float:
        """Flush the server's records, then ``kill -9`` it; returns when."""
        marker = proc.prefix + ".flushed"
        proc.popen.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + SPAWN_TIMEOUT_S
        while not os.path.exists(marker):
            if time.monotonic() > deadline or proc.popen.poll() is not None:
                raise ServeError(f"server {proc.name} did not flush")
            time.sleep(0.005)
        t_kill = time.monotonic()
        proc.popen.kill()
        proc.popen.wait(timeout=SPAWN_TIMEOUT_S)
        return t_kill

    def close(self) -> None:
        for proc in self.procs:
            if proc.popen.poll() is None:
                proc.popen.kill()
            proc.popen.wait()


def _tail(path: str, lines: int = 5) -> str:
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as handle:
            return " | ".join(handle.read().strip().splitlines()[-lines:])
    except OSError:
        return ""


def _oracle(homes, end_time: float, workdir: str) -> Dict[str, Dict[str, dict]]:
    """Alert records of an uninterrupted in-process durable run over the
    same per-home event sequences, keyed by home then alert id."""
    from repro.durability import DurableFleetGateway, alert_record
    from repro.fleet import FleetGateway
    from repro.streaming import SupervisorPolicy

    detectors = {home.home_id: workloads.fit_detector(home) for home in homes}
    gateway = FleetGateway(4)
    policy = SupervisorPolicy()
    for home in homes:
        gateway.add_home(
            home.home_id, detectors[home.home_id], start=home.start,
            lateness_seconds=workloads.LATENESS_S, policy=policy,
        )
    durable, _ = DurableFleetGateway.recover(
        detectors, workdir, gateway=gateway, fsync="never"
    )
    merged = sorted(
        (clock, h, i)
        for h, home in enumerate(homes)
        for i, clock in enumerate(home.arrival)
    )
    batch = []
    for _clock, h, i in merged:
        batch.append((homes[h].home_id, homes[h].stream[i]))
        if len(batch) == 256:
            durable.dispatch(batch)
            batch = []
    if batch:
        durable.dispatch(batch)
    for home in homes:
        durable.finish_home(home.home_id, end_time)
    durable.close()
    out: Dict[str, Dict[str, dict]] = {}
    for home in homes:
        records = {}
        for seq, alert in enumerate(durable.alerts_of(home.home_id), 1):
            record = alert_record(home.home_id, seq, alert)
            records[record["id"]] = record
        out[home.home_id] = records
    return out


def _read_final(proc: _Proc) -> dict:
    with open(proc.prefix + ".json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def _deliveries(procs: List[_Proc]) -> Dict[str, List[dict]]:
    """Every sink delivery, per home, in delivery order."""
    out: Dict[str, List[dict]] = {}
    for proc in procs:
        path = proc.prefix + ".sink.jsonl"
        if not os.path.exists(path):
            continue
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                if line.strip():
                    row = json.loads(line)
                    out.setdefault(row["home"], []).append(row)
    for rows in out.values():
        rows.sort(key=lambda row: row["t"])
    return out


class Prepared:
    """A run's inputs and oracle, built once per invocation (untimed)."""

    def __init__(self, workload: str, seed: int, seconds: float, workdir: str):
        from repro.durability.runtime import encode_event_frame

        self.workload = workload
        self.seed = seed
        self.homes = workloads.build_homes(workload, seed, with_streams=True)
        self.phases, self.end_time = workloads.plan_phases(workload, self.homes, seconds)
        self.frames = {
            home.home_id: [encode_event_frame(e) for e in home.stream]
            for home in self.homes
        }
        self.expected = _oracle(self.homes, self.end_time, workdir)
        # Inputs and oracle live for the whole invocation: keep the cyclic
        # collector from walking them while the generator keeps its schedule.
        gc.collect()
        gc.freeze()


def aborted_accounting(prepared: Prepared) -> dict:
    """Accounting of a run that stopped early: with no final count to
    judge by, every event and every expected alert counts as failed."""
    return ledger.failure_accounting(
        {home.home_id: len(home.stream) for home in prepared.homes},
        {},
        {home_id: records.keys() for home_id, records in prepared.expected.items()},
        {},
    )


def run(prepared: Prepared, rundir: str, trace: bool) -> dict:
    """One run; returns measurements, correctness and (traced) the ledger."""
    session = Session(prepared.workload, prepared.seed, rundir, trace)
    try:
        return _lifecycle(
            session, workloads.SPECS[prepared.workload], prepared.homes,
            prepared.phases, prepared.end_time, prepared.frames, prepared.expected,
        )
    finally:
        session.close()


def _phase_homes(homes, frames, phase):
    return [
        (home.home_id, frames[home.home_id], *phase.ranges[home.home_id])
        for home in homes
    ]


def _lifecycle(session, spec, homes, phases, end_time, frames, expected) -> dict:
    rundir = session.rundir
    wal = os.path.join(rundir, "wal")
    ckpt = os.path.join(rundir, "ckpt")
    setups: List[float] = []
    for k in range(SETUP_RUNS - 1):
        proc = session.spawn(f"w{k}", os.path.join(rundir, f"w{k}-wal"))
        setups.append(proc.ports["t_listen"] - proc.t_spawn)
        session.stop(proc)
    durable_lifecycle = session.workload == workloads.SERVE_DURABLE
    proc = session.spawn("s1", wal, checkpoint=ckpt if durable_lifecycle else None)
    setups.append(proc.ports["t_listen"] - proc.t_spawn)
    served = [proc]
    reconnects = 0
    errors: Dict[str, int] = {}
    out: dict = {"setups_s": setups}
    applied: Dict[str, int] = {}
    end_sent: Dict[str, float] = {}
    open_result = None
    open_window = None
    recovery_s = None
    chunks: List[dict] = []

    def generator(phase) -> Generator:
        return Generator(proc.ports["port"], _phase_homes(homes, frames, phase))

    def done(gen: Generator) -> None:
        nonlocal reconnects
        reconnects += gen.reconnects
        for reason, n in gen.errors().items():
            errors[reason] = errors.get(reason, 0) + n
        for conn in gen.conns:
            applied[conn.home_id] = conn.reply
        gen.close()

    for index, phase in enumerate(phases):
        last = index == len(phases) - 1
        gen = generator(phase)
        if phase.kind == "open":
            schedule = workloads.open_schedule(homes, phase, spec.offered_rate)
            start = time.monotonic() + 0.2
            open_result = gen.run_open(schedule, start)
            if last:
                end_sent = gen.finish("end", end_time)
            else:
                gen.finish("sync")
            open_window = (start, time.monotonic())
            done(gen)
            if durable_lifecycle:
                session.stop(proc)
                proc = session.spawn("s2", wal, checkpoint=ckpt, resume=ckpt)
                served.append(proc)
        elif phase.kind == "saturate":
            chunks.append(gen.run_closed())
            done(gen)
            if durable_lifecycle and phases[index + 1].kind != "saturate":
                t_kill = session.flush_and_kill(proc)
                proc = session.spawn("s3", wal, checkpoint=ckpt, resume=ckpt)
                served.append(proc)
                recovery_s = proc.ports["t_listen"] - t_kill
        else:  # tail: resume after the crash and close the streams
            gen.run_closed()
            end_sent = gen.finish("end", end_time)
            done(gen)
    session.stop(proc)

    finals = {p.name: _read_final(p) for p in session.procs}
    deliveries = _deliveries(served)
    out.update(
        saturate_rates=[c["applied"] / c["wall_s"] for c in chunks],
        recovery_s=recovery_s,
        reconnects=reconnects,
        client_errors=errors,
        peak_rss_mb=max(f["rss_kb"] for f in finals.values()) / 1024.0,
    )
    # -- correctness ---------------------------------------------------- #
    out["accounting"] = ledger.failure_accounting(
        {home.home_id: len(home.stream) for home in homes},
        applied,
        {home_id: records.keys() for home_id, records in expected.items()},
        {home_id: [row["id"] for row in rows] for home_id, rows in deliveries.items()},
    )
    # -- latency ---------------------------------------------------------- #
    out["latency"] = _latency(homes, expected, finals, served, deliveries,
                              open_result, open_window, end_sent)
    lateness_ms = [x * 1000.0 for x in open_result["lateness_s"]]
    out["generator"] = {
        "lateness_ms": ledger.latency_summary(lateness_ms),
        "cpu_share": open_result["cpu_share"],
        "offered_rate": spec.offered_rate,
        "open_wall_s": open_result["wall_s"],
    }
    p99 = out["generator"]["lateness_ms"]["p99"]
    out["valid"] = p99 is not None and p99 <= LATENESS_BOUND_MS
    if session.trace:
        out["ledger"] = _serve_ledger(session, served, finals, out)
    return out


def _latency(homes, expected, finals, served, deliveries, open_result,
             open_window, end_sent) -> dict:
    """Alert and detect latency of the alerts the open phase raised."""
    lo, hi = open_window
    offered: Dict[str, float] = {}
    for proc in served:
        for alert_id, _home, t in finals[proc.name]["offers"]:
            if lo <= t <= hi and alert_id not in offered:
                offered[alert_id] = t
    delivered: Dict[str, float] = {}
    for rows in deliveries.values():
        for row in rows:
            delivered.setdefault(row["id"], row["t"])
    alert_ms: List[float] = []
    detect_ms: List[float] = []
    lag_ms: List[float] = []
    anomalies = 0
    by_end = 0
    for home in homes:
        records = expected[home.home_id]
        home_ids = [i for i in offered if i in records]
        sent_ts = [e.timestamp for e in home.stream]
        admitted = [math.isfinite(e.value) for e in home.stream]
        triggers = ledger.trigger_indices(
            [records[i]["time"] for i in home_ids], sent_ts, admitted,
            workloads.LATENESS_S,
        )
        due = open_result["due"][home.home_id]
        for alert_id, trigger in zip(home_ids, triggers):
            if trigger is None:
                start = end_sent.get(home.home_id)
                by_end += start is not None
            else:
                start = due.get(trigger)
            t_offer = offered[alert_id]
            if start is None or t_offer < start:
                anomalies += 1
                continue
            detect_ms.append((t_offer - start) * 1000.0)
            if alert_id in delivered:
                alert_ms.append((delivered[alert_id] - start) * 1000.0)
                lag_ms.append((delivered[alert_id] - t_offer) * 1000.0)
    return {
        "alert_ms": ledger.latency_summary(alert_ms),
        "detect_ms": ledger.latency_summary(detect_ms),
        "delivery_lag_ms": ledger.latency_summary(lag_ms),
        "concluded_by_end": by_end,
        "unattributed": anomalies,
    }


def _serve_ledger(session, served, finals, out) -> dict:
    """Per-layer self times and counters of a traced run."""
    totals: Dict[str, float] = {}  # layer -> self ns inside the windows
    calls: Dict[str, int] = {}  # span name -> calls inside the windows
    inclusive: Dict[str, float] = {}  # span name -> duration ns, whole life
    counts: Dict[str, int] = {}  # span name -> calls, whole life
    busy_ns = wall_ns = cpu_s = 0.0
    memo_hits = 0
    counters: Dict[str, float] = {}
    for proc in session.procs:
        meta, rows = tracing.read_spans(proc.prefix)
        names = meta["names"]
        for key, value in meta["counters"].items():
            if key in HIGH_WATER_COUNTERS:
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value
        window = meta["window"]
        w0, w1 = window["start"]["ns"], window["end"]["ns"]
        wall_ns += w1 - w0
        busy_ns += (w1 - w0) - (window["end"]["idle_ns"] - window["start"]["idle_ns"])
        cpu_s += window["end"]["cpu_s"] - window["start"]["cpu_s"]
        memo_hits += window["end"]["memo_hits"] - window["start"]["memo_hits"]
        if not len(rows):
            continue
        done = rows[:, 2] > 0
        ends = np.where(done, rows[:, 2], rows[:, 1])
        durations = ends - rows[:, 1]
        selfs = ledger.self_times(np.column_stack([rows[:, 1], ends, rows[:, 3]]))
        in_window = done & (rows[:, 1] >= w0) & (rows[:, 2] <= w1)
        for nid, name in enumerate(names):
            mine = done & (rows[:, 0] == nid)
            inclusive[name] = inclusive.get(name, 0) + int(durations[mine].sum())
            counts[name] = counts.get(name, 0) + int(mine.sum())
            layer = tracing.SPAN_LAYERS.get(name)
            if layer is not None:
                mine &= in_window
                totals[layer] = totals.get(layer, 0) + float(selfs[mine].sum())
                calls[name] = calls.get(name, 0) + int(mine.sum())
    events = counters.get("server.events", 0)
    windows = calls.get("session.observe_window", 0)
    last = finals[served[-1].name]

    def per(value, n, scale=1e-3):
        return value * scale / n if n else 0.0

    layer_us = {layer: per(ns, events) for layer, ns in totals.items()}
    busy_us = per(busy_ns, events)
    residual = busy_us - sum(layer_us.values())
    lat = out["latency"]
    gen = out["generator"]
    metrics = {
        "protocol.frames": counters.get("protocol.frames", 0),
        "protocol.decode_us_per_frame": per(totals.get("protocol", 0), counters.get("protocol.frames", 0)),
        "server.cpu_busy_ratio": cpu_s / (wall_ns * 1e-9) if wall_ns else 0.0,
        "server.events_per_dispatch": events / counters["server.dispatches"] if counters.get("server.dispatches") else 0.0,
        "server.queue_depth_max": max(f["queue_depth_max"] for f in finals.values()),
        "server.sheds": sum(f["sheds"] for f in finals.values()),
        "server.busy_us_per_event": busy_us,
        "journal.appends": counters.get("journal.appends", 0),
        "journal.bytes_per_event": counters.get("journal.bytes", 0) / counters["journal.appends"] if counters.get("journal.appends") else 0.0,
        "journal.append_us_per_event": per(totals.get("journal", 0), calls.get("journal.append", 0)),
        "journal.replay_records": counters.get("journal.replay_records", 0),
        "journal.replay_us_per_record": per(inclusive.get("journal.replay", 0), counters.get("journal.replay_records", 0)),
        "checkpoint.save_s": per(inclusive.get("checkpoint.save", 0), counts.get("checkpoint.save", 0), 1e-9),
        "checkpoint.restore_s": per(inclusive.get("checkpoint.restore", 0), counts.get("checkpoint.restore", 0), 1e-9),
        "checkpoint.bytes": counters.get("checkpoint.bytes", 0),
        "recover.ingest_us_per_event": per(inclusive.get("recover.ingest", 0), counts.get("recover.ingest", 0)),
        "durable.self_us_per_event": layer_us.get("durable", 0.0),
        "gateway.self_us_per_event": layer_us.get("gateway", 0.0),
        "gateway.memo_warm_masks": counters.get("gateway.memo_warm_masks", 0),
        "runtime.stage_self_us_per_event": layer_us.get("runtime.stage", 0.0),
        "runtime.drain_self_us_per_window": per(totals.get("runtime.drain", 0), windows),
        "guard.admit_us_per_event": layer_us.get("guard", 0.0),
        "guard.drops.duplicate": last["drops"].get("duplicate", 0),
        "guard.drops.non_finite_value": last["drops"].get("non_finite_value", 0),
        "guard.drops.too_late": last["drops"].get("too_late", 0),
        "reorder.push_us_per_event": layer_us.get("reorder", 0.0),
        "reorder.pending_max": counters.get("reorder.pending_max", 0),
        "reorder.force_released": max(f["force_released"] for f in finals.values()),
        "supervisor.us_per_event": layer_us.get("supervisor", 0.0),
        "supervisor.quarantined_window_ratio": counters.get("session.quarantined_windows", 0) / counters["session.windows"] if counters.get("session.windows") else 0.0,
        "windower.windows": windows,
        "windower.us_per_window": per(totals.get("windower", 0), windows),
        "session.self_us_per_window": per(totals.get("session", 0), windows),
        "checks.us_per_window": per(totals.get("checks", 0), calls.get("checks.check", 0)),
        "checks.memo_hit_ratio": memo_hits / calls["checks.check"] if calls.get("checks.check") else 0.0,
        "checks.violations": counters.get("checks.violations", 0),
        "identification.sessions": counters.get("identification.sessions", 0),
        "identification.us_per_window": per(totals.get("identification", 0), windows),
        "provenance.records": calls.get("provenance.record", 0),
        "provenance.record_us_per_alert": per(totals.get("provenance", 0), calls.get("provenance.record", 0)),
        "provenance.wal_us_per_record": per(totals.get("provenance.wal", 0), calls.get("provenance.append", 0)),
        "outbox.offers": calls.get("outbox.offer", 0),
        "outbox.offer_us_per_alert": per(inclusive.get("outbox.offer", 0), counts.get("outbox.offer", 0)),
        "outbox.delivered": counters.get("outbox.delivered", 0),
        "outbox.dead_letters": counters.get("outbox.dead_letters", 0),
        "outbox.delivery_lag_ms_p50": lat["delivery_lag_ms"]["p50"],
        "outbox.delivery_lag_ms_p99": lat["delivery_lag_ms"]["p99"],
        "generator.lateness_ms_p99": gen["lateness_ms"]["p99"],
        "generator.lateness_ms_max": gen["lateness_ms"]["max"],
        "generator.cpu_share": gen["cpu_share"],
        "client.reconnects": out["reconnects"],
        "residual.us_per_event": residual,
    }
    identity = {
        "busy_us_per_event": busy_us,
        "layers_us_per_event": layer_us,
        "residual_us_per_event": residual,
        "events": events,
    }
    return {"metrics": metrics, "identity": identity, "sample_counts": {
        "outbox.delivery_lag_ms": lat["delivery_lag_ms"]["n"],
        "generator.lateness_ms": gen["lateness_ms"]["n"],
    }}

