"""Command-line interface: ``python -m repro <command>``.

The subcommands cover the everyday workflows:

* ``list`` — the Table 4.1 dataset registry;
* ``generate`` — render a dataset to CSV (plus its device registry);
* ``evaluate`` — run the Ch. V protocol on one dataset and print the
  headline metrics;
* ``experiment`` — regenerate one of the paper's artifacts (accuracy,
  timing, check-timing, computation, degree, ratio) as a table;
* ``stream`` — exercise the hardened gateway runtime on one dataset,
  hosted as a one-home fleet: optional pipe faults on the delivery
  channel, ingest-guard drop accounting, device supervision, checkpoint
  save/resume (a checkpoint is a directory), and a ``--metrics-out``
  telemetry snapshot;
* ``fleet`` — run the sharded multi-home gateway over a generated fleet:
  ``--homes`` deterministic homes hashed onto ``--shards`` workers, with
  fleet-wide checkpoint/restore (``--save-checkpoint``/``--resume``),
  merged telemetry (``--metrics-out``), archetype stamping
  (``--unique-homes``) and shared-context memory accounting
  (``--report-memory``);
* ``serve`` — run the durable fleet as a long-lived network service:
  a binary CRC-framed ingest port with bounded-queue admission control
  plus an HTTP surface (``/metrics`` Prometheus exposition, ``/health``,
  ``/ready``); SIGTERM/SIGINT drain gracefully (flush, optional
  checkpoint, exit 0), and ``--resume`` restarts from checkpoint +
  journal tails;
* ``send`` — stream a deterministically regenerated home's events into a
  running ``serve`` with reconnect-and-resume retries, optionally through
  the network fault injector (``--faults``);
* ``chaos`` — crash-injection harness: run seeded deployments, kill the
  runtime at randomized points (including mid-journal-write), recover
  from checkpoint + journal tail, and verify the alert stream matches an
  uninterrupted run — one-home fleets (``--mode standalone``), multi-home
  fleets, and ``--mode service`` (kill a
  live loopback server under network faults, restart it, let retrying
  clients heal, verify byte-identical per-home alerts and exact
  at-least-once accounting); exit 1 on any mismatch;
* ``metrics`` — render a telemetry snapshot as a table, Prometheus text
  exposition, or JSON (``top`` re-reads one live, with rates);
* ``explain`` — render the causal evidence chain behind one alert (by
  trace-id prefix, ``--seq`` or ``--last``) from a ``--provenance-out``
  file or every home's ``provenance.wal`` under a journal root;
* ``top`` — live terminal dashboard over a re-read metrics snapshot:
  events/s per shard, alert/drop rates, detection-latency percentiles,
  reorder lag and SLO burn;
* ``scenarios`` — the robustness matrix: sweep fault class x dataset x
  arity x attacks x drift x refresh stance through the streaming runtime
  and print per-cell precision/recall/detection-time (``-o`` writes the
  schema-validated deterministic report JSON);
* ``bench`` — the provenance-overhead and estate-scale capacity A/B
  sections CI gates, written to ``BENCH_perf.json``; ``perfbench/`` is
  the benchmark of record for the served and evaluation paths.

Primary results go to **stdout**; diagnostics (resume/checkpoint notices,
errors, state changes) go through the structured logger on stderr —
``--log-level``/``--log-format`` control them, and ``--log-format json``
makes every record one machine-parsable JSON object.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional, Sequence

from . import telemetry

_log = telemetry.get_logger("repro.cli")


def _worker_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("worker count must be at least 1")
    return value


#: ``repro.durability.FSYNC_POLICIES``, spelled out so that building the
#: parser does not import the durable stack (a test pins the two equal).
FSYNC_POLICIES = ("never", "always")


def _build_parser() -> argparse.ArgumentParser:
    from .faults import models as fault_models

    parser = argparse.ArgumentParser(
        prog="repro",
        description="DICE reproduction: faulty-IoT-device detection in smart homes",
    )
    parser.add_argument(
        "--log-level", choices=sorted(telemetry.LEVELS, key=telemetry.LEVELS.get),
        default="info", help="threshold for diagnostic records on stderr",
    )
    parser.add_argument(
        "--log-format", choices=[telemetry.HUMAN_FORMAT, telemetry.JSON_FORMAT],
        default=telemetry.HUMAN_FORMAT,
        help="human-readable lines or one JSON object per record",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the ten Table 4.1 datasets")

    generate = sub.add_parser("generate", help="render a dataset to CSV")
    generate.add_argument("dataset")
    generate.add_argument("--hours", type=float, default=None)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("-o", "--output", required=True, help="events CSV path")

    evaluate = sub.add_parser("evaluate", help="run the Ch. V protocol")
    evaluate.add_argument("dataset")
    evaluate.add_argument("--scale", type=float, default=0.5, help="duration scale")
    evaluate.add_argument("--pairs", type=int, default=30)
    evaluate.add_argument("--seed", type=int, default=0)
    evaluate.add_argument(
        "--actuators", action="store_true", help="inject actuator faults only"
    )
    evaluate.add_argument(
        "--workers", type=_worker_count, default=1,
        help="worker processes for the segment-pair fan-out (results are "
        "identical for any count)",
    )

    experiment = sub.add_parser(
        "experiment", help="regenerate one of the paper's tables/figures"
    )
    experiment.add_argument(
        "name",
        choices=["accuracy", "timing", "check-timing", "computation", "degree", "ratio"],
    )
    experiment.add_argument("--datasets", nargs="*", default=None)
    experiment.add_argument("--scale", type=float, default=0.5)
    experiment.add_argument("--pairs", type=int, default=30)
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument("--workers", type=_worker_count, default=1)

    bench = sub.add_parser(
        "bench",
        help="time provenance overhead and the capacity A/B; write "
        "BENCH_perf.json",
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="small workloads for CI smoke (~seconds instead of minutes)",
    )
    bench.add_argument(
        "-o", "--output", default="BENCH_perf.json", help="output JSON path"
    )
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument(
        "--capacity-homes", type=int, default=None, metavar="H",
        help="capacity section: fleet size for the shared-vs-replicated A/B "
        "(default 200 quick / 1000 full)",
    )

    # Flags shared by stream, fleet and serve, declared once.
    runtime_flags = argparse.ArgumentParser(add_help=False)
    runtime_flags.add_argument(
        "--lateness", type=float, default=120.0,
        help="per-home reorder-buffer lateness budget in seconds",
    )
    runtime_flags.add_argument(
        "--silence", type=float, default=900.0,
        help="supervisor: silence before a device degrades (seconds)",
    )
    runtime_flags.add_argument(
        "--quarantine", type=float, default=1800.0,
        help="supervisor: silence before a device is quarantined (seconds)",
    )
    durability_flags = argparse.ArgumentParser(add_help=False)
    durability_flags.add_argument(
        "--resume", default=None, metavar="DIR",
        help="restore from a checkpoint directory instead of starting fresh "
        "(with --journal-dir, also replay each home's journal tail past it)",
    )
    durability_flags.add_argument(
        "--fsync", choices=FSYNC_POLICIES, default="never",
        help="with --journal-dir: 'never' writes each dispatch batch to the "
        "OS before acknowledging it (survives kill -9), 'always' also fsyncs "
        "it (survives a power cut)",
    )
    durability_flags.add_argument(
        "--alerts-out", default=None, metavar="PATH",
        help="deliver alerts at-least-once to PATH as JSON lines via the "
        "outbox (requires --journal-dir)",
    )

    stream = sub.add_parser(
        "stream", parents=[runtime_flags, durability_flags],
        help="run the hardened gateway runtime over one dataset",
    )
    stream.add_argument("dataset")
    stream.add_argument("--hours", type=float, default=96.0, help="total recording")
    stream.add_argument(
        "--train-hours", type=float, default=72.0, help="precomputation prefix"
    )
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument(
        "--pipe-faults", default=None,
        help="comma-separated channel perturbations to inject "
        "(drop,delay,duplicate,reorder,corrupt_value)",
    )
    stream.add_argument(
        "--pipe-rate", type=float, default=0.05, help="pipe-fault event fraction"
    )
    stream.add_argument(
        "--save-checkpoint", default=None, metavar="DIR",
        help="write the end-of-stream checkpoint (one manifest.json) to DIR",
    )
    stream.add_argument(
        "--journal-dir", default=None, metavar="DIR",
        help="write-ahead journal root: every event is journaled before "
        "processing, so a crashed run resumes exactly via --resume",
    )
    stream.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the end-of-run telemetry snapshot to PATH as JSON",
    )
    stream.add_argument(
        "--input-csv", default=None, metavar="PATH",
        help="replay a recorded trace CSV (with its *.devices.csv sidecar) "
        "instead of simulating; DATASET then only names the home",
    )
    stream.add_argument(
        "--provenance-out", default=None, metavar="PATH",
        help="write each alert's evidence record as one JSON line "
        "(see 'repro explain')",
    )
    stream.add_argument(
        "--backend", default="dice", metavar="NAME",
        help="detector backend to host (see 'repro scenarios --backend'; "
        "default: dice)",
    )

    fleet = sub.add_parser(
        "fleet", parents=[runtime_flags, durability_flags],
        help="run the sharded multi-home gateway over a generated fleet",
    )
    fleet.add_argument(
        "--homes", type=int, default=8, help="number of generated homes"
    )
    fleet.add_argument(
        "--unique-homes", type=int, default=None, metavar="K",
        help="cap distinct simulated lives at K archetypes; homes beyond K "
        "reuse an archetype's trace and fit to identical trained state "
        "(what the shared-context store dedups); default: all unique",
    )
    fleet.add_argument(
        "--report-memory", action="store_true",
        help="print the fleet memory report: trained-state bytes/home "
        "shared vs replicated, dedup ratio, RSS",
    )
    fleet.add_argument(
        "--shards", type=int, default=None,
        help="worker shard count (default 4; on --resume the manifest's count)",
    )
    fleet.add_argument(
        "--hours", type=float, default=48.0, help="per-home recording length"
    )
    fleet.add_argument(
        "--train-hours", type=float, default=36.0, help="precomputation prefix"
    )
    fleet.add_argument("--seed", type=int, default=0, help="fleet seed")
    fleet.add_argument(
        "--tick", type=float, default=300.0,
        help="dispatch tick width in seconds",
    )
    fleet.add_argument(
        "--save-checkpoint", default=None, metavar="DIR",
        help="write the fleet checkpoint (one manifest.json) to DIR",
    )
    fleet.add_argument(
        "--journal-dir", default=None, metavar="DIR",
        help="per-home write-ahead journal root: routed events are journaled "
        "before dispatch, so a crashed fleet resumes exactly via --resume",
    )
    fleet.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the merged fleet telemetry snapshot to PATH as JSON",
    )

    serve = sub.add_parser(
        "serve",
        parents=[runtime_flags, durability_flags],
        help="run the durable fleet as a long-lived network service "
        "(binary ingest port + /metrics /health /ready; SIGTERM drains)",
    )
    serve.add_argument(
        "--homes", type=int, default=4, help="number of generated homes"
    )
    serve.add_argument(
        "--unique-homes", type=int, default=None, metavar="K",
        help="cap distinct simulated lives at K archetypes (see 'repro fleet')",
    )
    serve.add_argument(
        "--hours", type=float, default=48.0, help="per-home recording length"
    )
    serve.add_argument(
        "--train-hours", type=float, default=36.0, help="precomputation prefix"
    )
    serve.add_argument("--seed", type=int, default=0, help="fleet seed")
    serve.add_argument(
        "--shards", type=int, default=None,
        help="worker shard count (default 4; on --resume the manifest's count)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="ingest port (default 0 = ephemeral; see --ports-out)",
    )
    serve.add_argument(
        "--http-port", type=int, default=0,
        help="HTTP port for /metrics /health /ready (default 0 = ephemeral)",
    )
    serve.add_argument(
        "--ports-out", default=None, metavar="PATH",
        help="write the bound ports as JSON to PATH once listening "
        "(lets scripts use ephemeral ports)",
    )
    serve.add_argument(
        "--journal-dir", required=True, metavar="DIR",
        help="per-home write-ahead journal root (the service's durability)",
    )
    serve.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="write a fleet checkpoint to DIR during graceful drain",
    )
    serve.add_argument(
        "--queue-capacity", type=int, default=4096,
        help="global admitted-event bound; beyond it the server sheds",
    )
    serve.add_argument(
        "--read-timeout", type=float, default=10.0,
        help="per-connection idle read bound in seconds",
    )

    send = sub.add_parser(
        "send",
        help="stream generated home events into a running 'repro serve' "
        "with reconnect-and-resume retries",
    )
    send.add_argument(
        "--homes", type=int, default=4,
        help="fleet size the server was started with (events are "
        "regenerated deterministically from the same parameters)",
    )
    send.add_argument("--unique-homes", type=int, default=None, metavar="K")
    send.add_argument("--hours", type=float, default=48.0)
    send.add_argument("--train-hours", type=float, default=36.0)
    send.add_argument("--seed", type=int, default=0, help="fleet seed")
    send.add_argument("--host", default="127.0.0.1")
    send.add_argument(
        "--port", type=int, default=None, help="server ingest port"
    )
    send.add_argument(
        "--ports-file", default=None, metavar="PATH",
        help="read the port from a 'repro serve --ports-out' JSON file",
    )
    send.add_argument(
        "--home", default=None, metavar="ID",
        help="send only this home's stream (default: every home in turn)",
    )
    send.add_argument(
        "--no-finish", action="store_true",
        help="barrier instead of closing the stream (a later send resumes)",
    )
    send.add_argument(
        "--max-attempts", type=int, default=10,
        help="consecutive no-progress attempts before giving up",
    )
    send.add_argument(
        "--faults", action="store_true",
        help="inject network faults into the send path (torn writes, "
        "disconnects, garbage, slowloris, duplicate sends)",
    )
    send.add_argument(
        "--fault-seed", type=int, default=0, help="fault injector seed"
    )

    chaos = sub.add_parser(
        "chaos",
        help="crash-injection harness: kill seeded runs at random points, "
        "recover, and verify alert-stream parity",
    )
    chaos.add_argument(
        "--mode",
        choices=["standalone", "fleet", "service", "both", "all"],
        default="both",
        help="'standalone' = one-home fleets; 'both' = standalone+fleet "
        "(the in-process harnesses); "
        "'service' = network kill/fault trials against a live loopback "
        "server; 'all' = everything",
    )
    chaos.add_argument(
        "--deployments", type=int, default=5, help="standalone chaos homes"
    )
    chaos.add_argument(
        "--kills", type=int, default=5, help="kill points per standalone home"
    )
    chaos.add_argument("--fleets", type=int, default=2, help="chaos fleets")
    chaos.add_argument(
        "--fleet-kills", type=int, default=4, help="kill points per fleet"
    )
    chaos.add_argument(
        "--homes", type=int, default=3, help="homes per chaos fleet"
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--fault-class",
        choices=[t.value for t in fault_models.ALL_FAULT_TYPES],
        default=fault_models.FaultType.FAIL_STOP.value,
        help="device fault injected into every chaos victim "
        "(default: fail_stop, the original harness behaviour)",
    )
    chaos.add_argument(
        "--fsync", choices=FSYNC_POLICIES, default="never"
    )
    chaos.add_argument(
        "--workdir", default=None, metavar="DIR",
        help="keep trial artifacts under DIR (default: a temp dir)",
    )

    scenarios = sub.add_parser(
        "scenarios",
        help="scenario-matrix robustness sweep: fault classes, attacks and "
        "concept drift through the streaming runtime",
    )
    scenarios.add_argument("--seed", type=int, default=7)
    scenarios.add_argument(
        "--trials", type=int, default=3, help="trials per cell"
    )
    scenarios.add_argument(
        "--cells", default=None, metavar="FILTERS",
        help="comma-separated substrings matched against cell ids "
        "(e.g. 'drift,attack:temperature'); default: the full matrix",
    )
    scenarios.add_argument(
        "-o", "--out", default=None, metavar="PATH",
        help="write the validated report JSON to PATH",
    )
    scenarios.add_argument(
        "--list", action="store_true", dest="list_cells",
        help="print the cell ids of the (filtered) matrix and exit",
    )
    scenarios.add_argument(
        "--backend", action="append", default=None, dest="backends",
        metavar="NAME",
        help="detector backend to sweep; repeatable for a side-by-side "
        "baselines table (default: dice)",
    )

    metrics = sub.add_parser(
        "metrics", help="render a telemetry snapshot (see stream --metrics-out)"
    )
    metrics.add_argument("snapshot", help="metrics snapshot JSON path")
    metrics.add_argument(
        "--format", choices=["table", "prom", "json"], default="table",
        help="pretty table (default), Prometheus text exposition, or JSON",
    )

    explain = sub.add_parser(
        "explain",
        help="render the causal evidence chain behind one alert "
        "(see stream --provenance-out / --journal-dir)",
    )
    explain.add_argument(
        "selector", nargs="?", default=None,
        help="alert trace-id prefix (as stamped on delivered alerts)",
    )
    explain.add_argument(
        "--last", action="store_true", help="explain the newest record"
    )
    explain.add_argument(
        "--seq", type=int, default=None,
        help="select by per-home alert sequence number",
    )
    explain.add_argument(
        "--provenance", default=None, metavar="PATH",
        help="provenance records file: 'stream --provenance-out' JSON lines "
        "or a journal directory's provenance.wal (auto-detected)",
    )
    explain.add_argument(
        "--journal-dir", default=None, metavar="DIR",
        help="read every home's DIR/<home>/provenance.wal (the durable "
        "archive)",
    )
    explain.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the raw evidence record instead of the narrative",
    )

    top = sub.add_parser(
        "top",
        help="live terminal dashboard over a metrics snapshot file "
        "(events/s per shard, alert/drop rates, latency percentiles, "
        "SLO burn)",
    )
    top.add_argument(
        "--metrics", required=True, metavar="PATH",
        help="metrics snapshot JSON re-read every refresh "
        "(see stream/fleet --metrics-out)",
    )
    top.add_argument(
        "--interval", type=float, default=2.0, help="refresh period in seconds"
    )
    top.add_argument(
        "--iterations", type=int, default=None,
        help="stop after N refreshes (default: until ^C)",
    )
    top.add_argument(
        "--once", action="store_true", help="render a single frame and exit"
    )
    return parser


def _cmd_list() -> int:
    from .datasets import DATASETS
    from .eval.report import format_table

    rows = [
        [
            info.name,
            int(info.hours),
            info.binary_sensors,
            info.numeric_sensors,
            info.actuators,
            info.activities,
            info.residents,
            info.family,
        ]
        for info in DATASETS.values()
    ]
    print(
        format_table(
            ["dataset", "hours", "binary", "numeric", "actuators", "activities",
             "residents", "family"],
            rows,
        )
    )
    return 0


def _cmd_generate(args) -> int:
    from .datasets import load_dataset, write_trace

    checks = [
        (args.hours is None or _positive(args.hours),
         "--hours must be positive and finite"),
    ]
    if not _flags_ok("bad_generate", checks):
        return 2
    data = load_dataset(args.dataset, seed=args.seed, hours=args.hours)
    write_trace(data.trace, args.output)
    print(
        f"wrote {len(data.trace)} events "
        f"({data.trace.duration_hours:.1f} h of {data.name}) to {args.output}"
    )
    return 0


def _protocol_checks(args) -> list:
    """Range checks of the Ch. V protocol flags ``evaluate`` and
    ``experiment`` share, run before any trace is generated."""
    return [
        (_positive(args.scale), "--scale must be positive and finite"),
        (args.pairs >= 1, "--pairs must be at least 1"),
    ]


def _cmd_evaluate(args) -> int:
    from .datasets import load_dataset
    from .eval import EvaluationRunner

    if not _flags_ok("bad_evaluate", _protocol_checks(args)):
        return 2
    hours = None if args.scale == 1.0 else data_hours(args.dataset, args.scale)
    data = load_dataset(args.dataset, seed=args.seed, hours=hours)
    runner = EvaluationRunner(
        precompute_hours=300.0 * args.scale, pairs=args.pairs, seed=args.seed,
        workers=args.workers,
    )
    devices = data.trace.registry.actuators() if args.actuators else None
    result = runner.evaluate(args.dataset, data.trace, devices=devices)
    detection = result.detection_counts()
    identification = result.identification_counts()
    print(f"dataset:             {args.dataset} (scale {args.scale}, {args.pairs} pairs)")
    print(f"correlation degree:  {result.correlation_degree:.2f}")
    print(f"groups:              {result.num_groups}")
    print(
        f"detection:           precision {100 * detection.precision:.1f}%  "
        f"recall {100 * detection.recall:.1f}%"
    )
    print(
        f"identification:      precision {100 * identification.precision:.1f}%  "
        f"recall {100 * identification.recall:.1f}%"
    )
    print(
        f"detection time:      {result.detection_time().mean:.1f} min mean "
        f"({result.detection_time().median:.1f} median)"
    )
    print(
        f"identification time: {result.identification_time().mean:.1f} min mean"
    )
    return 0


def data_hours(name: str, scale: float) -> float:
    from .datasets import dataset_info

    return dataset_info(name).hours * scale


def _cmd_experiment(args) -> int:
    from .eval import report
    from .eval.experiments import (
        ProtocolSettings,
        accuracy,
        computation,
        correlation_degree,
        detection_ratio,
        timing,
    )

    if not _flags_ok("bad_experiment", _protocol_checks(args)):
        return 2
    settings = ProtocolSettings(
        hours_scale=args.scale, pairs=args.pairs, seed=args.seed,
        workers=args.workers,
    )
    datasets = args.datasets or None
    if args.name == "accuracy":
        print(report.format_accuracy(accuracy.run(datasets, settings)))
    elif args.name == "timing":
        print(report.format_timing(timing.run(datasets, settings)))
    elif args.name == "check-timing":
        print(report.format_check_timing(timing.run_by_check(datasets, settings)))
    elif args.name == "computation":
        print(report.format_computation(computation.run(datasets, settings)))
    elif args.name == "degree":
        print(report.format_degree(correlation_degree.run(datasets, settings)))
    elif args.name == "ratio":
        print(report.format_detection_ratio(detection_ratio.run(datasets, settings)))
    return 0


def _flags_ok(event: str, checks) -> bool:
    """Whether every ``(ok, reason)`` check holds; else log one *event*
    line with the first failing reason (each names its flag)."""
    for ok, reason in checks:
        if not ok:
            _log.error(event, reason=reason)
            return False
    return True


def _positive(size: float) -> bool:
    """Whether a size flag is a positive finite number (``inf`` and
    ``nan`` parse as floats but size no trace)."""
    return math.isfinite(size) and size > 0


def _runtime_checks(args) -> list:
    """Range checks of the per-home runtime flags, run before any fit:
    the reorder buffer's and the supervisor policy's own rules."""
    return [
        (args.lateness >= 0, "--lateness must be non-negative"),
        (args.silence > 0, "--silence must be positive"),
        (args.quarantine >= args.silence, "--quarantine must be at least --silence"),
    ]


def _open_gateway(args, detectors, starts, num_shards):
    """Build or recover the gateway ``stream``, ``fleet`` and ``serve`` host.

    *detectors* and *starts* map each home to its fitted detector and
    live-segment start.  With ``--journal-dir`` the gateway is a
    :class:`~repro.durability.DurableFleetGateway` recovered from
    ``--resume`` (or from a fresh gateway) plus every home's journal
    tail; without one it is restored from ``--resume`` or built fresh.
    *num_shards* ``None`` means 4 fresh, or the checkpoint's count.

    Returns ``(gateway, durable)`` — *durable* is the gateway itself when
    journaled, else ``None`` — or ``None`` after logging one
    ``resume_failed`` (with ``--resume``) or ``journal_replay_failed``
    line.
    """
    import os

    from .durability import AlertOutbox, DurableFleetGateway, FileSink
    from .fleet import FleetGateway, restore_fleet
    from .streaming import CheckpointError, SupervisorPolicy

    runtime_options = {
        "lateness_seconds": args.lateness,
        "policy": SupervisorPolicy(
            silence_seconds=args.silence, quarantine_seconds=args.quarantine
        ),
    }

    def fresh_gateway() -> FleetGateway:
        gateway = FleetGateway(num_shards or 4)
        for home_id, detector in detectors.items():
            gateway.add_home(
                home_id, detector, start=starts[home_id], **runtime_options
            )
        return gateway

    if not args.journal_dir and not args.resume:
        return fresh_gateway(), None
    outbox = None
    if args.journal_dir and args.alerts_out:
        outbox = AlertOutbox(
            os.path.join(args.journal_dir, "outbox"), FileSink(args.alerts_out)
        )
    gateway = None if args.resume else fresh_gateway()
    try:
        if args.journal_dir:
            gateway, replayed = DurableFleetGateway.recover(
                detectors, args.journal_dir,
                checkpoint_dir=args.resume, gateway=gateway,
                num_shards=num_shards, fsync=args.fsync, outbox=outbox,
                **runtime_options,
            )
        else:
            gateway = restore_fleet(
                detectors, args.resume, num_shards=num_shards, **runtime_options
            )
            replayed = []
    except (OSError, ValueError, KeyError, CheckpointError) as exc:
        if args.resume:
            _log.error("resume_failed", path=args.resume, error=str(exc))
        else:
            _log.error(
                "journal_replay_failed", path=args.journal_dir, error=str(exc)
            )
        return None
    if args.resume:
        _log.info(
            "resumed from checkpoint"
            + (" + journal tail" if args.journal_dir else ""),
            path=args.resume, journal=args.journal_dir,
            replayed_alerts=len(replayed), homes=len(gateway),
            shards=gateway.num_shards,
        )
    return gateway, (gateway if args.journal_dir else None)


def _cmd_stream(args) -> int:
    import numpy as np

    from .datasets import load_dataset
    from .faults import PipeFaultInjector, PipeFaultSpec, PipeFaultType

    checks = _runtime_checks(args) + [
        (_positive(args.hours), "--hours must be positive and finite"),
        (0 <= args.pipe_rate <= 1, "--pipe-rate must be within [0, 1]"),
    ]
    if not _flags_ok("bad_stream", checks):
        return 2
    if args.input_csv:
        from .datasets.io import read_trace

        try:
            trace = read_trace(args.input_csv)
        except (OSError, ValueError) as exc:
            _log.error("bad_input_csv", path=args.input_csv, error=str(exc))
            return 2
    else:
        try:
            trace = load_dataset(args.dataset, seed=args.seed, hours=args.hours).trace
        except KeyError as exc:
            _log.error("bad_stream", reason=exc.args[0])
            return 2
    split = trace.start + args.train_hours * 3600.0
    if not trace.start < split < trace.end:
        _log.error("bad_split", reason="train-hours must leave a non-empty live segment")
        return 2
    from .core import available_backends, create_backend

    if args.backend not in available_backends():
        valid = ", ".join(available_backends())
        _log.error("unknown_backend", backend=args.backend, valid=valid)
        return 2
    detector = create_backend(args.backend, trace.registry).fit(
        trace.slice(trace.start, split)
    )
    live = trace.slice(split, trace.end)
    if args.alerts_out and not args.journal_dir:
        _log.error("bad_stream", reason="--alerts-out requires --journal-dir")
        return 2

    # The dataset name is the home: trace ids and delivered alert ids hash
    # it, so they agree between fresh, resumed and durable runs.
    home = args.dataset
    opened = _open_gateway(args, {home: detector}, {home: live.start}, 1)
    if opened is None:
        return 2
    gateway, durable = opened
    runtime = gateway.runtime_of(home)

    events = [e for e in live if e.timestamp > runtime.reorder.watermark]
    if args.pipe_faults:
        specs = []
        for name in args.pipe_faults.split(","):
            try:
                fault_type = PipeFaultType(name.strip())
            except ValueError:
                valid = ", ".join(t.value for t in PipeFaultType)
                _log.error(
                    "unknown_pipe_fault", fault=name.strip(), valid=valid
                )
                return 2
            specs.append(
                PipeFaultSpec(
                    fault_type,
                    rate=args.pipe_rate,
                    max_delay_seconds=args.lateness,
                )
            )
        injector = PipeFaultInjector(np.random.default_rng(args.seed), specs)
        events = injector.apply(events)

    # SIGTERM/SIGINT request a drain: stop at a chunk boundary, leave the
    # stream open (checkpoint/journal carry the resume state) and exit 0.
    from .service import GracefulShutdown

    # Without a journal nothing drains the runtime's evidence buffer, which
    # keeps only the newest records: gather them by id as the stream runs
    # (the buffer stays whole, so a checkpoint still carries it).
    evidence: dict = {}

    def gather_evidence() -> None:
        for record in runtime.provenance.records():
            evidence[record["id"]] = record

    alerts = []
    sent = 0
    with GracefulShutdown() as shutdown:
        chunk_size = 512
        for offset in range(0, len(events), chunk_size):
            if shutdown.requested:
                break
            chunk = events[offset : offset + chunk_size]
            alerts += gateway.dispatch([(home, event) for event in chunk])
            sent += len(chunk)
            gather_evidence()
    drained = shutdown.requested
    if drained:
        _log.info(
            "drain_requested", signal=shutdown.signal_name, ingested=sent,
            remaining=len(events) - sent,
        )
    if args.save_checkpoint:
        gateway.save_checkpoint(args.save_checkpoint)
        _log.info("checkpoint saved, stream left open", path=args.save_checkpoint)
    elif not drained:
        alerts += gateway.finish(live.end)

    print(
        f"streamed {sent} events "
        f"({live.duration_hours:.1f} h live segment of {args.dataset})"
        + (" [drained early]" if drained else "")
    )
    kinds: dict = {}
    for fleet_alert in alerts:
        kind = fleet_alert.alert.kind
        kinds[kind] = kinds.get(kind, 0) + 1
    for kind in ("detection", "identification", "device_silence",
                 "device_errors", "device_recovered"):
        if kind in kinds:
            print(f"alerts[{kind}]: {kinds[kind]}")
    drops = runtime.drops.summary()
    print(f"dropped events: {runtime.drops.total}"
          + (f" ({', '.join(f'{k}={v}' for k, v in drops.items())})" if drops else ""))
    quarantined = sorted(runtime.supervisor.quarantined)
    if quarantined:
        print(f"quarantined devices: {', '.join(quarantined)}")
    if durable is not None:
        if durable.outbox is not None:
            delivery = durable.deliver_pending()
            print(
                f"alerts delivered: {delivery['delivered']} "
                f"(dead-lettered {delivery['dead']}) to {args.alerts_out}"
            )
        durable.close()
    if args.provenance_out:
        from .telemetry.provenance import canonical_record_bytes

        if durable is not None:
            records = durable.provenance_log_of(home).records()
        else:
            gather_evidence()
            records = evidence.values()
        records = sorted(records, key=lambda r: r["alert"]["seq"])
        with open(args.provenance_out, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(canonical_record_bytes(record).decode("utf-8"))
                handle.write("\n")
        print(f"wrote {len(records)} provenance records to {args.provenance_out}")
    if args.metrics_out:
        import json

        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            json.dump(runtime.metrics.snapshot(), handle, indent=2, sort_keys=True)
        print(f"wrote metrics snapshot to {args.metrics_out}")
    return 0


def _fleet_homes(args):
    """The generated fleet and its fitted detectors, or ``None`` after
    logging one ``bad_fleet`` line."""
    from .fleet import build_fleet_homes, fit_fleet_detectors

    try:
        homes = build_fleet_homes(
            args.homes, seed=args.seed, hours=args.hours,
            train_hours=args.train_hours, unique_homes=args.unique_homes,
        )
    except ValueError as exc:
        _log.error("bad_fleet", reason=str(exc))
        return None
    return homes, fit_fleet_detectors(homes)


def _cmd_fleet(args) -> int:
    from .fleet import replay_fleet

    checks = _runtime_checks(args) + [
        (args.homes >= 1, "--homes must be at least 1"),
        (args.shards is None or args.shards >= 1, "--shards must be at least 1"),
        (args.tick > 0, "--tick must be positive"),
        (not args.alerts_out or args.journal_dir,
         "--alerts-out requires --journal-dir"),
    ]
    if not _flags_ok("bad_fleet", checks):
        return 2
    built = _fleet_homes(args)
    if built is None:
        return 2
    homes, detectors = built
    opened = _open_gateway(
        args, detectors, {home.home_id: home.split for home in homes},
        args.shards,
    )
    if opened is None:
        return 2
    gateway, durable = opened

    # SIGTERM/SIGINT request a drain: replay stops at a tick boundary with
    # streams left open; a checkpoint (when requested) makes the resume
    # explicit, and with --journal-dir the journals alone are enough.
    from .service import GracefulShutdown

    with GracefulShutdown() as shutdown:
        alerts = replay_fleet(
            gateway, homes, tick_seconds=args.tick,
            finish=not args.save_checkpoint,
            stop=lambda: shutdown.requested,
        )
    if shutdown.requested:
        _log.info("drain_requested", signal=shutdown.signal_name)
    if args.save_checkpoint:
        gateway.save_checkpoint(args.save_checkpoint)
        _log.info(
            "fleet checkpoint saved, streams left open", path=args.save_checkpoint
        )

    entry = gateway.metrics_snapshot()["metrics"].get("dice_fleet_events_total")
    events = int(sum(row["value"] for row in entry["series"])) if entry else 0
    print(
        f"fleet: {len(gateway)} homes on {gateway.num_shards} shards "
        f"({args.hours:.0f} h each, {args.train_hours:.0f} h training)"
    )
    print(f"dispatched {events} events in {args.tick:.0f} s ticks")
    kinds: dict = {}
    for fleet_alert in alerts:
        kind = fleet_alert.alert.kind
        kinds[kind] = kinds.get(kind, 0) + 1
    for kind in ("detection", "identification", "device_silence",
                 "device_errors", "device_recovered"):
        if kind in kinds:
            print(f"alerts[{kind}]: {kinds[kind]}")
    per_shard = gateway.health()["homes_per_shard"]
    print(
        "homes per shard: "
        + ", ".join(
            f"{index}:{count}"
            for index, count in sorted(
                per_shard.items(), key=lambda item: int(item[0])
            )
        )
    )
    if gateway.unrouted:
        print(f"unrouted events: {gateway.unrouted}")
    if args.report_memory:
        inner = durable.gateway if durable is not None else gateway
        report = inner.memory_report()
        print(
            f"trained contexts: {report['distinct_contexts']} distinct for "
            f"{report['homes']} homes "
            f"(dedup {report['store']['dedup_ratio']:.1f}x, "
            f"intern hits {report['store']['intern_hits']})"
        )
        print(
            f"trained bytes/home: {report['trained_bytes_per_home']:.0f} shared "
            f"vs {report['replicated_bytes_per_home']:.0f} replicated "
            f"({report['savings_ratio']:.1f}x saved)"
        )
        if report["rss_bytes"] is not None:
            print(f"process RSS: {report['rss_bytes'] / 2**20:.1f} MiB")
    if durable is not None:
        if durable.outbox is not None:
            delivery = durable.deliver_pending()
            print(
                f"alerts delivered: {delivery['delivered']} "
                f"(dead-lettered {delivery['dead']}) to {args.alerts_out}"
            )
        durable.close()
    if args.metrics_out:
        import json

        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            json.dump(
                gateway.metrics_snapshot(), handle, indent=2, sort_keys=True
            )
        print(f"wrote merged metrics snapshot to {args.metrics_out}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio
    import json
    import os
    import signal

    from .service import IngestServer, ServiceConfig

    checks = _runtime_checks(args) + [
        (args.shards is None or args.shards >= 1, "--shards must be at least 1"),
        (0 <= args.port <= 65535, "--port must be within [0, 65535]"),
        (0 <= args.http_port <= 65535, "--http-port must be within [0, 65535]"),
        (args.queue_capacity >= 1, "--queue-capacity must be at least 1"),
        (args.read_timeout > 0, "--read-timeout must be positive"),
    ]
    if not _flags_ok("bad_serve", checks):
        return 2
    config = ServiceConfig(
        host=args.host, port=args.port, http_port=args.http_port,
        queue_capacity=args.queue_capacity, read_timeout_s=args.read_timeout,
        frame_timeout_s=args.read_timeout,
    )
    built = _fleet_homes(args)
    if built is None:
        return 2
    homes, detectors = built
    opened = _open_gateway(
        args, detectors, {home.home_id: home.split for home in homes},
        args.shards,
    )
    if opened is None:
        return 2
    durable, _ = opened
    server = IngestServer(durable, config, checkpoint_dir=args.checkpoint_dir)

    async def serve() -> None:
        # Handlers go in before the ports file appears: a script may send
        # SIGTERM the moment it can read the ports, and that must drain.
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        await server.start()
        print(
            f"serving {len(durable)} homes on {durable.num_shards} shards: "
            f"ingest {args.host}:{server.port}  "
            f"http {args.host}:{server.http_port}",
            flush=True,
        )
        if args.ports_out:
            # Write-then-rename: a poller never reads a half-written file.
            tmp = f"{args.ports_out}.tmp"
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(
                    {"port": server.port, "http_port": server.http_port}, handle
                )
            os.replace(tmp, args.ports_out)
        await stop.wait()
        _log.info("shutdown_signal_received")
        await server.drain()

    asyncio.run(serve())
    print(
        "drained: streams left open "
        + (
            f"(checkpoint at {args.checkpoint_dir})"
            if args.checkpoint_dir
            else "(journal only)"
        ),
        flush=True,
    )
    return 0


def _cmd_send(args) -> int:
    import json

    from .fleet import build_fleet_homes
    from .service import ServiceClient, ServiceError

    port = args.port
    if port is None and args.ports_file:
        try:
            with open(args.ports_file, "r", encoding="utf-8") as handle:
                port = int(json.load(handle)["port"])
        except (OSError, ValueError, KeyError) as exc:
            _log.error("bad_ports_file", path=args.ports_file, error=str(exc))
            return 2
    checks = [
        (port is not None, "one of --port or --ports-file is required"),
        (args.max_attempts >= 1, "--max-attempts must be at least 1"),
    ]
    if not _flags_ok("bad_send", checks):
        return 2
    try:
        homes = build_fleet_homes(
            args.homes, seed=args.seed, hours=args.hours,
            train_hours=args.train_hours, unique_homes=args.unique_homes,
        )
    except ValueError as exc:
        _log.error("bad_fleet", reason=str(exc))
        return 2
    if args.home is not None:
        homes = [home for home in homes if home.home_id == args.home]
        if not homes:
            _log.error("unknown_home", home=args.home)
            return 2
    failed = 0
    for index, home in enumerate(homes):
        injector = None
        if args.faults:
            import numpy as np

            from .faults.net import NetFaultInjector

            injector = NetFaultInjector(
                np.random.default_rng(args.fault_seed * 7919 + index)
            )
        client = ServiceClient(
            args.host, port,
            max_attempts=args.max_attempts,
            jitter_seed=args.fault_seed + index,
            fault_injector=injector,
        )
        events = list(home.live)
        try:
            report = client.send_stream(
                home.home_id, events,
                end=home.trace.end, finish=not args.no_finish,
            )
        except (ServiceError, OSError) as exc:
            failed += 1
            print(f"{home.home_id}: FAILED ({exc})")
            continue
        line = (
            f"{home.home_id}: {report.applied}/{report.total_events} applied"
            f"  connects {report.connects}  retries {report.retries}"
            f"  resent {report.resent}"
        )
        if report.finished:
            line += "  finished"
        if injector is not None:
            counts = injector.counts
            line += (
                f"  faults[torn={counts.torn_writes} disc={counts.disconnects}"
                f" garbage={counts.garbage} slow={counts.slowloris}"
                f" dup={counts.duplicates}]"
            )
        print(line)
    return 1 if failed else 0


def _print_chaos_report(mode: str, report) -> int:
    """Print one chaos batch's verdict line plus a line per failed trial;
    returns the number of failed trials."""
    summary = report.summary()
    verdict = "OK" if report.ok else "FAIL"
    failures = [
        f"{name[: -len('_failures')]} {count}"
        for name, count in summary.items()
        if name.endswith("_failures") and count
    ]
    if failures:
        verdict += f" ({', '.join(failures)})"
    print(
        f"{mode}: {summary['trials']} trials "
        f"({summary['torn_trials']} torn, "
        f"{summary['checkpointed_trials']} checkpointed), "
        f"{summary['delivered']} alerts delivered, "
        f"{summary['dead_letters']} dead-lettered -> {verdict}"
    )
    failed = [trial for trial in report.trials if not trial.ok]
    for trial in failed:
        print(
            f"  FAIL {mode} seed={trial.deploy_seed} "
            f"kill={trial.kill_index}/{trial.total_events} "
            f"shards={trial.shards_before}->{trial.shards_after} "
            f"torn={trial.torn} checkpointed={trial.checkpointed} "
            f"parity={trial.parity} counters={trial.counters_monotone} "
            f"delivery={trial.delivery_ok} "
            f"provenance={trial.provenance_parity} drops={trial.drops_parity}"
        )
    return len(failed)


def _cmd_chaos(args) -> int:
    import os
    import tempfile

    from .faults.crash import run_chaos_fleet, run_chaos_one_home
    from .faults.models import FaultType

    fault_class = FaultType(args.fault_class)

    def run(base: str) -> int:
        failed = 0
        if args.mode in ("standalone", "both", "all"):
            report = run_chaos_one_home(
                os.path.join(base, "standalone"),
                deployments=args.deployments,
                kills_per_deployment=args.kills,
                seed=args.seed,
                fsync=args.fsync,
                fault_class=fault_class,
            )
            failed += _print_chaos_report("standalone", report)
        if args.mode in ("fleet", "both", "all"):
            report = run_chaos_fleet(
                os.path.join(base, "fleet"),
                fleets=args.fleets,
                kills_per_fleet=args.fleet_kills,
                num_homes=args.homes,
                seed=args.seed,
                fsync=args.fsync,
                fault_class=fault_class,
            )
            failed += _print_chaos_report("fleet", report)
        if args.mode in ("service", "all"):
            from .faults.net import run_chaos_service

            report = run_chaos_service(
                os.path.join(base, "service"),
                fleets=args.fleets,
                kills_per_fleet=args.fleet_kills,
                num_homes=args.homes,
                seed=args.seed,
            )
            failed += _print_chaos_report("service", report)
        return 1 if failed else 0

    if args.workdir:
        os.makedirs(args.workdir, exist_ok=True)
        return run(args.workdir)
    with tempfile.TemporaryDirectory(prefix="dice-chaos-") as base:
        return run(base)


def _cmd_scenarios(args) -> int:
    from .core import available_backends
    from .scenarios import (
        ScenarioSettings,
        build_report,
        default_matrix,
        refresh_pairs,
        render_baselines,
        render_table,
        run_matrix,
        select_cells,
        write_report,
    )

    backends = tuple(args.backends) if args.backends else ("dice",)
    checks = [
        (args.trials >= 1, "--trials must be at least 1"),
        (len(set(backends)) == len(backends), "--backend must not repeat a name"),
    ]
    if not _flags_ok("bad_scenarios", checks):
        return 2
    for backend in backends:
        if backend not in available_backends():
            valid = ", ".join(available_backends())
            _log.error("unknown_backend", backend=backend, valid=valid)
            return 2
    filters = args.cells.split(",") if args.cells else None
    try:
        cells = select_cells(default_matrix(), filters)
    except ValueError as exc:
        _log.error("bad_cell_filter", error=str(exc))
        return 2
    if args.list_cells:
        for cell in cells:
            print(cell.cell_id)
        return 0
    settings = ScenarioSettings(trials=args.trials)
    results = run_matrix(
        cells, seed=args.seed, settings=settings, backends=backends
    )
    doc = build_report(results, seed=args.seed, settings=settings)
    print(render_table(doc))
    print()
    print(render_baselines(doc))
    for pair in refresh_pairs(doc):
        print(
            f"drift {pair['variant']}: sustained alerts/h "
            f"{pair['plain']} (plain) -> {pair['refresh']} (refresh)"
        )
    if args.out:
        write_report(doc, args.out)
        print(f"wrote scenario report to {args.out}")
    return 0


def _read_snapshot(path: str) -> Optional[dict]:
    import json

    try:
        with open(path, "r", encoding="utf-8") as handle:
            snapshot = json.load(handle)
    except (OSError, ValueError) as exc:
        _log.error("bad_snapshot", path=path, error=str(exc))
        return None
    if not isinstance(snapshot, dict) or "metrics" not in snapshot:
        _log.error("bad_snapshot", path=path, error="not a metrics snapshot")
        return None
    return snapshot


def _render_snapshot(snapshot: dict, fmt: str) -> str:
    import json

    from .eval.report import format_table
    from .telemetry import to_prometheus

    if fmt == "json":
        return json.dumps(snapshot, indent=2, sort_keys=True)
    if fmt == "prom":
        return to_prometheus(snapshot).rstrip("\n")
    rows = []
    for name, entry in sorted(snapshot["metrics"].items()):
        for row in entry["series"]:
            labels = ",".join(f"{k}={v}" for k, v in row.get("labels", {}).items())
            if entry["type"] == "histogram":
                value = (
                    f"count={row['count']} sum={row['sum']:.6g}"
                )
            else:
                value = f"{row['value']:g}"
            rows.append([name, entry["type"], labels or "-", value])
    return format_table(["metric", "type", "labels", "value"], rows)


def _cmd_metrics(args) -> int:
    snapshot = _read_snapshot(args.snapshot)
    if snapshot is None:
        return 2
    print(_render_snapshot(snapshot, args.format))
    return 0


def _cmd_explain(args) -> int:
    import glob
    import json
    import os

    from .durability import PROVENANCE_WAL, SegmentReader
    from .telemetry import render_explanation

    if args.provenance is not None:
        paths = [args.provenance]
    elif args.journal_dir:
        # Every home archives under <root>/<home_id>/; trace ids hash the
        # home, so an id prefix still selects one record across homes.
        paths = sorted(
            glob.glob(
                os.path.join(glob.escape(args.journal_dir), "*", PROVENANCE_WAL)
            )
        )
    else:
        _log.error(
            "bad_explain", reason="one of --provenance or --journal-dir is required"
        )
        return 2
    if args.selector is None and not args.last and args.seq is None:
        _log.error(
            "bad_explain", reason="give a trace-id prefix, --last or --seq"
        )
        return 2
    source = args.provenance or args.journal_dir
    if not paths:
        _log.error(
            "bad_provenance", path=source, error="no provenance archive found"
        )
        return 2

    def archive(path):
        # 'stream --provenance-out' files are JSON lines (first byte '{');
        # the durable archive is length+CRC framed (first byte is a frame
        # header, never '{').
        with open(path, "rb") as handle:
            first = handle.read(1)
        if first == b"{":
            with open(path, "r", encoding="utf-8") as handle:
                for line in handle:
                    if line.strip():
                        yield json.loads(line)
        else:
            yield from SegmentReader(path)

    def wanted(candidate: dict) -> bool:
        if args.seq is not None:
            return candidate.get("alert", {}).get("seq") == args.seq
        if args.selector is not None:
            return candidate.get("id", "").startswith(args.selector)
        return True  # --last

    # Stream every archive and keep only the newest match.
    record = None
    records = 0
    for path in paths:
        try:
            for candidate in archive(path):
                records += 1
                if wanted(candidate):
                    record = candidate
        except (OSError, ValueError) as exc:
            _log.error("bad_provenance", path=path, error=str(exc))
            return 2
    if record is None:
        _log.error(
            "no_such_alert", path=source, selector=args.selector, seq=args.seq,
            records=records,
        )
        return 1
    if args.as_json:
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        print(render_explanation(record))
    return 0


def _cmd_top(args) -> int:
    import time

    from .telemetry import SnapshotSampler, render_dashboard

    if args.interval <= 0:
        _log.error("bad_top", reason="--interval must be positive")
        return 2
    sampler = SnapshotSampler()
    max_iterations = 1 if args.once else args.iterations
    iteration = 0
    try:
        while True:
            snapshot = _read_snapshot(args.metrics)
            if snapshot is None:
                return 2
            sampler.add(time.monotonic(), snapshot)
            if sys.stdout.isatty() and iteration > 0:  # pragma: no cover
                sys.stdout.write("\033[2J\033[H")
            print(render_dashboard(sampler))
            iteration += 1
            if max_iterations is not None and iteration >= max_iterations:
                break
            time.sleep(args.interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    return 0


def _cmd_bench(args) -> int:
    from .bench import run_benchmarks
    from .bench.perf import write_document

    checks = [
        (
            args.capacity_homes is None or args.capacity_homes >= 1,
            "--capacity-homes must be at least 1",
        )
    ]
    if not _flags_ok("bad_bench", checks):
        return 2
    doc = run_benchmarks(
        quick=args.quick, seed=args.seed, capacity_homes=args.capacity_homes
    )
    write_document(doc, args.output)
    cap = doc["capacity"]
    print(
        f"capacity: {cap['homes']} homes from {cap['archetypes']} archetypes  "
        f"shared+batched {cap['events_per_s_shared']:.0f} events/s vs "
        f"replicated {cap['events_per_s_replicated']:.0f} "
        f"({cap['speedup_shared_vs_replicated']:.2f}x), "
        f"parity {cap['alerts_identical']}"
    )
    print(
        f"capacity memory: {cap['bytes_per_home_shared'] / 1024:.1f} KiB/home "
        f"shared vs {cap['bytes_per_home_replicated'] / 1024:.1f} KiB/home "
        f"replicated ({cap['bytes_per_home_reduction']:.0f}x)"
    )
    for proj in cap["projection"]:
        print(
            f"capacity projection: {proj['homes']} homes -> "
            f"{proj['shared_bytes'] / 2**20:.1f} MiB trained state shared vs "
            f"{proj['replicated_bytes'] / 2**20:.1f} MiB replicated"
        )
    print(f"wrote {args.output}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    previous = telemetry.configure(level=args.log_level, format=args.log_format)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "evaluate":
            return _cmd_evaluate(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        if args.command == "stream":
            return _cmd_stream(args)
        if args.command == "fleet":
            return _cmd_fleet(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "send":
            return _cmd_send(args)
        if args.command == "chaos":
            return _cmd_chaos(args)
        if args.command == "scenarios":
            return _cmd_scenarios(args)
        if args.command == "metrics":
            return _cmd_metrics(args)
        if args.command == "explain":
            return _cmd_explain(args)
        if args.command == "top":
            return _cmd_top(args)
        if args.command == "bench":
            return _cmd_bench(args)
        raise AssertionError(f"unhandled command {args.command!r}")
    finally:
        # Restore the library default so embedding callers (and tests) are
        # not left with the CLI's log policy.
        telemetry.configure(level=previous.level, format=previous.format)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
