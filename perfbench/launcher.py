"""The program under test: one ``repro serve``-style process.

Run by the benchmark, never by hand::

    python3 perfbench/launcher.py --workload serve-durable --seed 0 \\
        --out RUNDIR/s1 --journal-dir RUNDIR/wal --checkpoint-dir RUNDIR/ckpt

It makes the same public calls ``repro serve`` makes — generate the
homes, fit their detectors, ``FleetGateway.add_home``,
``DurableFleetGateway.recover``, ``IngestServer`` with the default
``ServiceConfig`` — and drains on SIGTERM.  Differences are the
benchmark's instruments, all installed from outside the program:

* the outbox sink appends ``time.monotonic()`` of every delivery to
  ``<out>.sink.jsonl`` (flushed per delivery, so it survives ``kill -9``);
* a thin wrapper on ``AlertOutbox.offer`` records when each alert id was
  offered (detect latency), in every run;
* with ``--trace 1`` the layer wrappers of :mod:`tracing` record spans,
  and the event loop's selector counts idle time, so busy time is wall
  time minus time waiting in ``select``.

``<out>.ports.json`` is written once listening, with the monotonic time,
which is the end of set-up.  SIGUSR1 flushes the records (spans, offers,
peak RSS) and touches ``<out>.flushed`` — the benchmark does that after
``sync`` and before ``kill -9``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import selectors
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


class TimingSelector(selectors.DefaultSelector):
    """The loop's selector, counting the time spent waiting in select."""

    idle_ns = 0

    def select(self, timeout=None):
        t0 = time.perf_counter_ns()
        try:
            return super().select(timeout)
        finally:
            self.idle_ns += time.perf_counter_ns() - t0


def _counter_total(snapshot: dict, name: str) -> float:
    entry = snapshot["metrics"].get(name)
    return sum(row["value"] for row in entry["series"]) if entry else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="output path prefix")
    parser.add_argument("--journal-dir", required=True)
    parser.add_argument("--checkpoint-dir", default=None)
    parser.add_argument("--resume", default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from repro.durability import AlertOutbox, DurableFleetGateway
    from repro.durability.outbox import AlertSink
    from repro.fleet import FleetGateway
    from repro.service import IngestServer, ServiceConfig
    from repro.streaming import SupervisorPolicy

    rec = tracing.Recorder()
    offers = []
    original_offer = AlertOutbox.offer

    def offer(self, record):
        offers.append((record["id"], record["home"], time.monotonic()))
        return original_offer(self, record)

    AlertOutbox.offer = offer
    if args.trace:
        tracing.install_serve_layers(rec)
        rec.wrap(AlertOutbox, "offer", "outbox.offer")

    class RecordingSink(AlertSink):
        def __init__(self, path: str) -> None:
            self.handle = open(path, "a", encoding="utf-8")

        def deliver(self, record: dict) -> None:
            self.handle.write(
                json.dumps(
                    {"id": record["id"], "home": record["home"], "t": time.monotonic()}
                )
                + "\n"
            )
            self.handle.flush()

    spec = workloads.SPECS[args.workload]
    homes = workloads.build_homes(args.workload, args.seed, with_streams=False)
    detectors = {home.home_id: workloads.fit_detector(home) for home in homes}
    policy = SupervisorPolicy()

    def fresh_gateway() -> FleetGateway:
        gateway = FleetGateway(4)
        for home in homes:
            gateway.add_home(
                home.home_id, detectors[home.home_id], start=home.start,
                lateness_seconds=workloads.LATENESS_S, policy=policy,
            )
        return gateway

    sink = RecordingSink(args.out + ".sink.jsonl")
    outbox = AlertOutbox(os.path.join(args.journal_dir, "outbox"), sink)
    durable, _replayed = DurableFleetGateway.recover(
        detectors, args.journal_dir,
        checkpoint_dir=args.resume,
        gateway=None if args.resume else fresh_gateway(),
        num_shards=None, fsync=spec.fsync, outbox=outbox,
        lateness_seconds=workloads.LATENESS_S, policy=policy,
    )
    server = IngestServer(durable, ServiceConfig(), checkpoint_dir=args.checkpoint_dir)
    selector = TimingSelector() if args.trace else None
    window: dict = {}

    def checkers():
        seen = {}
        for home_id in durable.home_ids:
            checker = durable.runtime_of(home_id).backend.correlation_checker
            seen[id(checker)] = checker
        return list(seen.values())

    def memo_hits() -> int:
        return sum(checker.cache_info()["hits"] for checker in checkers())

    def mark(key: str) -> None:
        window[key] = {
            "ns": time.perf_counter_ns(),
            "cpu_s": time.process_time(),
            "idle_ns": selector.idle_ns if selector is not None else 0,
            "memo_hits": memo_hits(),
        }

    def flush() -> None:
        if "end" not in window:
            mark("end")
        snapshot = durable.metrics_snapshot()
        drops: dict = {}
        force_released = 0
        for home_id in durable.home_ids:
            runtime = durable.runtime_of(home_id)
            for reason, n in runtime.drops.summary().items():
                drops[reason] = drops.get(reason, 0) + n
            force_released += runtime.reorder.force_released
        rec.write(
            args.out,
            {
                "offers": offers,
                "rss_kb": tracing.peak_rss_kb(),
                "window": window,
                "queue_depth_max": server.max_queue_depth,
                "sheds": _counter_total(snapshot, "dice_service_shed_total"),
                "drops": drops,
                "force_released": force_released,
            },
        )
        with open(args.out + ".flushed", "w", encoding="ascii"):
            pass

    async def serve() -> None:
        await server.start()
        mark("start")
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()

        def request_stop() -> None:
            if "end" not in window:
                mark("end")
            stop.set()

        # Handlers go in before the ports file appears: the benchmark may
        # send SIGTERM the moment it sees the file.
        loop.add_signal_handler(signal.SIGTERM, request_stop)
        loop.add_signal_handler(signal.SIGINT, request_stop)
        loop.add_signal_handler(signal.SIGUSR1, flush)
        ports = {
            "port": server.port,
            "http_port": server.http_port,
            "t_listen": time.monotonic(),
            "pid": os.getpid(),
        }
        with open(args.out + ".ports.tmp", "w", encoding="utf-8") as handle:
            json.dump(ports, handle)
        os.replace(args.out + ".ports.tmp", args.out + ".ports.json")
        await stop.wait()
        await server.drain()

    if selector is None:
        asyncio.run(serve())
    else:
        loop = asyncio.SelectorEventLoop(selector)
        try:
            loop.run_until_complete(serve())
        finally:
            loop.close()
    flush()
    sink.handle.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
