"""The asyncio ingest service: a long-running front-end for a durable fleet.

:class:`IngestServer` owns one :class:`~repro.durability.DurableFleetGateway`
and exposes it on two loopback-friendly listeners:

* a **binary ingest port** speaking the CRC-framed protocol of
  :mod:`repro.service.protocol` — one connection per home stream, with a
  hello/welcome handshake whose ``applied`` count (the home's journaled
  event total) is the client's authoritative resume point;
* an **HTTP port** serving the existing Prometheus exposition at
  ``/metrics`` plus ``/health`` (the gateway health report) and ``/ready``
  (flips to 503 the moment a drain starts).

Single-threaded by construction: every frame, journal append, dispatch and
checkpoint runs on the event loop, so the gateway needs no locks and the
crash-recovery contract of the durability layer carries over unchanged.

Admission control and graceful degradation
------------------------------------------

All decoded events funnel through one bounded :class:`asyncio.Queue`
(``queue_capacity``); its depth is exported as the
``dice_ingest_queue_depth`` gauge.  When an event arrives to a full queue
the server **sheds**: the event is recorded as a structured ``overload``
drop in its home's :class:`~repro.streaming.DropLog` (the same accounting
every ingest reject uses), the connection gets a best-effort
``error("overloaded")`` frame and is dropped — slowing the client down to
a reconnect-with-backoff instead of letting it grow server memory.
Because the shed event was never journaled, the home's ``applied`` count
does not advance past it and the welcome handshake makes the client
re-send exactly the shed suffix: overload degrades throughput, never
correctness.

Per-connection bounds: the frame decoder refuses oversized frames, reads
are idle-capped (``read_timeout_s``) and a partial frame that fails to
complete within ``frame_timeout_s`` disconnects the slow-loris client.

Ordering and exactness
----------------------

A home has at most one live connection (a newer hello preempts the older
connection).  Control messages ride the same FIFO queue as events via
barrier items, so a ``welcome``/``synced``/``fin`` count is computed only
after everything enqueued before it has been journaled and dispatched —
the reply is exact, and a client that resumes from it never duplicates an
event into the journal.  Stale resends (``resume from < applied``) are
skipped frame-by-frame and counted in
``dice_service_duplicate_frames_total``.

Drain (SIGTERM path)
--------------------

:meth:`drain` stops accepting, drops live connections, lets the consumer
finish everything already admitted, delivers the alert-outbox backlog,
writes a checkpoint (when a checkpoint directory is configured) and closes
the journals — after which the process exits 0.  Streams are *not*
finished: a drained service resumes mid-stream exactly like a crashed one,
just without replay work.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from .. import telemetry
from ..durability.fleet import DurableFleetGateway
from ..model import Event
from ..streaming.guard import OVERLOAD, DroppedEvent
from ..telemetry import to_prometheus
from . import protocol
from .protocol import FrameDecoder, ProtocolError

__all__ = [
    "QUEUE_DEPTH_GAUGE",
    "CONNECTIONS_TOTAL",
    "DISCONNECTS_TOTAL",
    "FRAMES_TOTAL",
    "SHED_TOTAL",
    "DUPLICATE_FRAMES_TOTAL",
    "ServiceConfig",
    "IngestServer",
    "ServiceThread",
]

#: Gauge of events admitted but not yet journaled+dispatched.
QUEUE_DEPTH_GAUGE = "dice_ingest_queue_depth"
CONNECTIONS_TOTAL = "dice_service_connections_total"
DISCONNECTS_TOTAL = "dice_service_disconnects_total"
FRAMES_TOTAL = "dice_service_frames_total"
SHED_TOTAL = "dice_service_shed_total"
DUPLICATE_FRAMES_TOTAL = "dice_service_duplicate_frames_total"

#: Events dispatched per gateway batch (amortises the batched tick).
_DISPATCH_BATCH = 256

_log = telemetry.get_logger("repro.service.server")


@dataclass
class ServiceConfig:
    """Tunables for one :class:`IngestServer` (defaults suit loopback)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is ``server.port``
    http_port: int = 0
    #: Global admitted-event bound; beyond it the server sheds.
    queue_capacity: int = 4096
    #: Idle bound: a connection delivering no bytes for this long is dropped.
    read_timeout_s: float = 10.0
    #: Slow-loris bound: a partial frame pending longer than this is dropped.
    frame_timeout_s: float = 10.0
    #: Send an advisory ack every this many admitted event frames.
    ack_every: int = 64
    #: Artificial per-event dispatch cost — the bench/test hook that makes
    #: overload reproducible without depending on machine speed.
    dispatch_delay_s: float = 0.0

    def __post_init__(self) -> None:
        # asyncio.Queue(maxsize<=0) is unbounded: the server would never shed.
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be at least 1")
        if self.read_timeout_s <= 0:
            raise ValueError("read_timeout_s must be positive")
        if self.frame_timeout_s <= 0:
            raise ValueError("frame_timeout_s must be positive")


class _Disconnect(Exception):
    """Internal: drop the current connection for *reason*."""

    def __init__(self, reason: str, notify: bool = True) -> None:
        super().__init__(reason)
        self.reason = reason
        self.notify = notify


class _Connection:
    """Per-connection state for the ingest listener."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.home: Optional[str] = None
        self.alive = True
        self.to_skip = 0  # known-duplicate frames left to swallow
        self.since_ack = 0
        self.task: Optional[asyncio.Task] = None

    def send(self, message: dict) -> None:
        if not self.writer.is_closing():
            self.writer.write(protocol.encode_message(message))

    def close(self) -> None:
        self.alive = False
        try:
            self.writer.close()
        except OSError:  # pragma: no cover - platform dependent
            pass


class IngestServer:
    """One durable fleet behind an ingest socket and an HTTP surface."""

    def __init__(
        self,
        durable: DurableFleetGateway,
        config: Optional[ServiceConfig] = None,
        *,
        checkpoint_dir: Optional[str] = None,
    ) -> None:
        self.durable = durable
        self.config = config or ServiceConfig()
        self.checkpoint_dir = checkpoint_dir
        self.metrics = durable.gateway.metrics
        self.port: Optional[int] = None
        self.http_port: Optional[int] = None
        self.ready = False
        self.draining = False
        self.max_queue_depth = 0
        self._queue: Optional[asyncio.Queue] = None
        self._ingest_listener: Optional[asyncio.base_events.Server] = None
        self._http_listener: Optional[asyncio.base_events.Server] = None
        self._consumer: Optional[asyncio.Task] = None
        self._connections: Set[_Connection] = set()
        self._home_conns: Dict[str, _Connection] = {}
        self._finished: Set[str] = set()
        self._conn_counter = self.metrics.counter(
            CONNECTIONS_TOTAL, "Ingest connections accepted"
        )
        self._disc_counter = self.metrics.counter(
            DISCONNECTS_TOTAL,
            "Ingest connections dropped by the server, by reason",
            labelnames=("reason",),
        )
        self._frames_counter = self.metrics.counter(
            FRAMES_TOTAL, "Protocol frames received, by type", labelnames=("type",)
        )
        self._shed_counter = self.metrics.counter(
            SHED_TOTAL, "Events shed because the ingest queue was full"
        )
        self._dup_counter = self.metrics.counter(
            DUPLICATE_FRAMES_TOTAL,
            "Event frames skipped as known duplicates (stale resume resends)",
        )
        if self.metrics.enabled:
            gauge = self.metrics.gauge(
                QUEUE_DEPTH_GAUGE, "Events admitted but not yet dispatched"
            )

            def collect() -> None:
                gauge.set(0 if self._queue is None else self._queue.qsize())

            self.metrics.register_collector("service_queue", collect)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        config = self.config
        self._queue = asyncio.Queue(maxsize=config.queue_capacity)
        self._consumer = asyncio.create_task(self._consume())
        self._ingest_listener = await asyncio.start_server(
            self._handle_ingest, config.host, config.port
        )
        self.port = self._ingest_listener.sockets[0].getsockname()[1]
        self._http_listener = await asyncio.start_server(
            self._handle_http, config.host, config.http_port
        )
        self.http_port = self._http_listener.sockets[0].getsockname()[1]
        self.ready = True
        _log.info(
            "service_started",
            port=self.port,
            http_port=self.http_port,
            homes=len(self.durable),
            queue_capacity=config.queue_capacity,
        )

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, flush, checkpoint, close."""
        if self.draining:
            return
        self.draining = True
        self.ready = False
        _log.info("service_draining", port=self.port)
        if self._ingest_listener is not None:
            self._ingest_listener.close()
            await self._ingest_listener.wait_closed()
        for conn in list(self._connections):
            self._drop(conn, "draining")
        # FIFO barrier: everything admitted before this point is journaled
        # and dispatched once the future resolves.
        await self._barrier()
        self._consumer.cancel()
        self.durable.deliver_pending()
        if self.checkpoint_dir is not None:
            self.durable.save_checkpoint(self.checkpoint_dir)
            _log.info("drain_checkpoint_saved", directory=self.checkpoint_dir)
        self.durable.close()
        if self._http_listener is not None:
            self._http_listener.close()
            await self._http_listener.wait_closed()
        _log.info("service_drained", port=self.port)

    async def kill(self) -> None:
        """Abrupt death for chaos harnesses, as ``kill -9`` would have it:
        the journal records no commit has written are dropped, not
        flushed, and there is no checkpoint and no goodbye.  What survives
        is what the last commit wrote, which is every event an ``applied``
        count has covered.  (A power cut's torn final record is modelled by
        the harness tearing the journal tail afterwards, as the crash
        harness does.)"""
        self.ready = False
        self.draining = True
        if self._ingest_listener is not None:
            self._ingest_listener.close()
        if self._http_listener is not None:
            self._http_listener.close()
        for conn in list(self._connections):
            conn.close()
        if self._consumer is not None:
            self._consumer.cancel()
        self.durable.close(drop=True)

    async def _barrier(self) -> int:
        if self._consumer is None or self._consumer.done():
            raise RuntimeError("ingest consumer is not running")
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        await self._queue.put(("barrier", future))
        return await future

    # ------------------------------------------------------------------ #
    # Consumer: the single writer into the gateway
    # ------------------------------------------------------------------ #

    async def _consume(self) -> None:
        config = self.config
        queue = self._queue
        while True:
            item = await queue.get()
            batch: List[Tuple[str, Event]] = []
            control = None
            while True:
                if item[0] == "event":
                    batch.append((item[1], item[2]))
                else:
                    control = item
                    break
                if len(batch) >= _DISPATCH_BATCH or queue.empty():
                    break
                item = queue.get_nowait()
            if batch:
                try:
                    self.durable.dispatch(batch)
                except Exception as exc:  # keep the service alive; the
                    # journal already holds whatever was appended, so a
                    # recovery replay sees a consistent prefix.
                    _log.error("dispatch_failed", error=str(exc))
                if config.dispatch_delay_s > 0.0:
                    await asyncio.sleep(config.dispatch_delay_s * len(batch))
            if control is not None:
                self._handle_control(control)

    def _handle_control(self, item: tuple) -> None:
        kind = item[0]
        if kind == "barrier":
            future = item[1]
            if not future.done():
                future.set_result(sum(self.durable.ingest_seqs.values()))
        elif kind == "end":
            _, home, end_time, future = item
            try:
                # Idempotent within this process: a client retrying a lost
                # ``fin`` must not finish the stream (and re-emit its
                # end-of-stream alerts) twice.
                if home not in self._finished:
                    self.durable.finish_home(home, end_time)
                    self._finished.add(home)
                self.durable.deliver_pending()
            except Exception as exc:  # surface to the requesting connection
                if not future.done():
                    future.set_exception(exc)
                return
            if not future.done():
                future.set_result(self.applied(home))

    def applied(self, home_id: str) -> int:
        """The home's journaled event count — the client resume point."""
        return self.durable.ingest_seqs.get(home_id, 0)

    # ------------------------------------------------------------------ #
    # Ingest connections
    # ------------------------------------------------------------------ #

    def _drop(self, conn: _Connection, reason: str, notify: bool = True) -> None:
        if not conn.alive:
            return
        if notify:
            try:
                conn.send(protocol.error(reason))
            except OSError:  # pragma: no cover - peer already gone
                pass
        self._disc_counter.labels(reason=reason).inc()
        conn.close()
        if conn.task is not None and conn.task is not asyncio.current_task():
            conn.task.cancel()

    async def _handle_ingest(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(reader, writer)
        conn.task = asyncio.current_task()
        self._connections.add(conn)
        self._conn_counter.inc()
        config = self.config
        decoder = FrameDecoder()
        loop = asyncio.get_running_loop()
        partial_since: Optional[float] = None
        try:
            while conn.alive:
                try:
                    data = await asyncio.wait_for(
                        reader.read(65536), config.read_timeout_s
                    )
                except asyncio.TimeoutError:
                    raise _Disconnect("slow_client")
                if not data:
                    break  # clean EOF
                try:
                    messages = decoder.feed(data)
                except ProtocolError as exc:
                    _log.warning(
                        "protocol_error", home=conn.home, error=str(exc)
                    )
                    raise _Disconnect("protocol_error")
                for message in messages:
                    await self._on_message(conn, message)
                if decoder.buffered:
                    now = loop.time()
                    if partial_since is None:
                        partial_since = now
                    elif now - partial_since > config.frame_timeout_s:
                        raise _Disconnect("slow_client")
                else:
                    partial_since = None
        except _Disconnect as exc:
            self._drop(conn, exc.reason, notify=exc.notify)
        except RuntimeError:  # barrier refused: the server is going down
            self._drop(conn, "shutting_down", notify=False)
        except (
            asyncio.CancelledError,
            ConnectionError,
            OSError,
        ):  # peer vanished or server is going down
            pass
        finally:
            conn.alive = False
            self._connections.discard(conn)
            if conn.home is not None and self._home_conns.get(conn.home) is conn:
                del self._home_conns[conn.home]
            try:
                writer.close()
            except OSError:  # pragma: no cover - platform dependent
                pass

    async def _on_message(self, conn: _Connection, message: dict) -> None:
        kind = message["type"]
        self._frames_counter.labels(type=kind).inc()
        if kind == "event":
            self._on_event(conn, message)
            return
        if kind == "hello":
            await self._on_hello(conn, message)
        elif kind == "resume":
            self._on_resume(conn, message)
        elif kind == "sync":
            self._require_home(conn)
            applied = await self._home_barrier(conn)
            conn.send(protocol.synced(applied))
            await self._flush(conn)
        elif kind == "end":
            self._require_home(conn)
            future = asyncio.get_running_loop().create_future()
            await self._queue.put(("end", conn.home, message.get("end"), future))
            try:
                applied = await future
            except Exception as exc:
                _log.error("finish_failed", home=conn.home, error=str(exc))
                raise _Disconnect("finish_failed")
            conn.send(protocol.fin(applied))
            await self._flush(conn)
        else:
            raise _Disconnect("unexpected_frame")

    def _require_home(self, conn: _Connection) -> None:
        if conn.home is None:
            raise _Disconnect("hello_required")

    async def _home_barrier(self, conn: _Connection) -> int:
        await self._barrier()
        return self.applied(conn.home)

    async def _on_hello(self, conn: _Connection, message: dict) -> None:
        if conn.home is not None:
            raise _Disconnect("duplicate_hello")
        home = message.get("home")
        if not isinstance(home, str) or home not in self.durable:
            raise _Disconnect("unknown_home")
        previous = self._home_conns.get(home)
        if previous is not None and previous is not conn:
            # A newer client for the same home preempts the older one; the
            # barrier below waits out anything it already admitted.
            self._drop(previous, "superseded")
        conn.home = home
        self._home_conns[home] = conn
        applied = await self._home_barrier(conn)
        conn.send(protocol.welcome(applied))
        await self._flush(conn)

    def _on_resume(self, conn: _Connection, message: dict) -> None:
        self._require_home(conn)
        applied = self.applied(conn.home)
        from_index = message.get("from")
        if not isinstance(from_index, int) or not 0 <= from_index <= applied:
            raise _Disconnect("bad_resume")
        conn.to_skip = applied - from_index

    def _on_event(self, conn: _Connection, message: dict) -> None:
        self._require_home(conn)
        if conn.to_skip > 0:
            conn.to_skip -= 1
            self._dup_counter.inc()
            return
        try:
            event = Event(
                float(message["t"]), str(message["d"]), float(message["v"])
            )
        except (KeyError, TypeError, ValueError, OverflowError):
            raise _Disconnect("bad_event")
        try:
            self._queue.put_nowait(("event", conn.home, event))
        except asyncio.QueueFull:
            # Shed: structured drop + counter, then slow the client down by
            # dropping the connection (it resumes from the journaled point).
            self.durable.runtime_of(conn.home).drops.record(
                DroppedEvent(
                    event.timestamp, event.device_id, event.value, OVERLOAD
                )
            )
            self._shed_counter.inc()
            raise _Disconnect("overloaded")
        depth = self._queue.qsize()
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth
        conn.since_ack += 1
        if conn.since_ack >= self.config.ack_every:
            conn.since_ack = 0
            conn.send(protocol.ack(self.applied(conn.home)))

    async def _flush(self, conn: _Connection) -> None:
        try:
            await conn.writer.drain()
        except (ConnectionError, OSError):
            raise _Disconnect("peer_gone", notify=False)

    # ------------------------------------------------------------------ #
    # HTTP surface
    # ------------------------------------------------------------------ #

    async def _handle_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                head = await asyncio.wait_for(
                    reader.readuntil(b"\r\n\r\n"), self.config.read_timeout_s
                )
            except (
                asyncio.TimeoutError,
                asyncio.IncompleteReadError,
                asyncio.LimitOverrunError,
            ):
                return
            request_line = head.split(b"\r\n", 1)[0].decode("latin-1")
            parts = request_line.split()
            if len(parts) != 3 or parts[0] not in ("GET", "HEAD"):
                self._http_reply(writer, 405, "text/plain", "method not allowed\n")
                return
            path = parts[1].split("?", 1)[0]
            if path == "/metrics":
                body = to_prometheus(self.durable.metrics_snapshot())
                self._http_reply(
                    writer, 200, "text/plain; version=0.0.4", body
                )
            elif path == "/health":
                import json

                health = self.durable.health()
                health["service"] = {
                    "ready": self.ready,
                    "draining": self.draining,
                    "connections": len(self._connections),
                    "queue_depth": 0 if self._queue is None else self._queue.qsize(),
                    "queue_capacity": self.config.queue_capacity,
                    "max_queue_depth": self.max_queue_depth,
                }
                self._http_reply(
                    writer,
                    200,
                    "application/json",
                    json.dumps(health, sort_keys=True) + "\n",
                )
            elif path == "/ready":
                if self.ready:
                    self._http_reply(writer, 200, "text/plain", "ready\n")
                else:
                    self._http_reply(writer, 503, "text/plain", "draining\n")
            else:
                self._http_reply(writer, 404, "text/plain", "not found\n")
            await writer.drain()
        except (ConnectionError, OSError):  # peer gone mid-reply
            pass
        finally:
            try:
                writer.close()
            except OSError:  # pragma: no cover - platform dependent
                pass

    @staticmethod
    def _http_reply(
        writer: asyncio.StreamWriter, status: int, ctype: str, body: str
    ) -> None:
        reasons = {200: "OK", 404: "Not Found", 405: "Method Not Allowed",
                   503: "Service Unavailable"}
        payload = body.encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {reasons.get(status, 'OK')}\r\n"
            f"Content-Type: {ctype}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + payload)


class ServiceThread:
    """Run an :class:`IngestServer` on a private event loop in a daemon
    thread — the harness tests, the bench and the chaos suite all drive a
    real socket server this way while staying synchronous themselves.

    All interaction with the server object after :meth:`start` must go
    through :meth:`call` / :meth:`run`, which execute on the loop thread.
    """

    def __init__(self, server: IngestServer) -> None:
        self.server = server
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def start(self, timeout: float = 30.0) -> "ServiceThread":
        def main() -> None:
            loop = asyncio.new_event_loop()
            self._loop = loop
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(self.server.start())
            except BaseException as exc:  # startup failed; report and bail
                self._startup_error = exc
                self._started.set()
                loop.close()
                return
            self._started.set()
            try:
                loop.run_forever()
            finally:
                pending = asyncio.all_tasks(loop)
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
                loop.run_until_complete(loop.shutdown_asyncgens())
                loop.close()

        self._thread = threading.Thread(
            target=main, name="dice-ingest-service", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("service thread failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError(
                f"service failed to start: {self._startup_error!r}"
            ) from self._startup_error
        return self

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def http_port(self) -> int:
        return self.server.http_port

    def call(self, fn: Callable, timeout: float = 30.0):
        """Run ``fn()`` on the loop thread and return its result."""
        import concurrent.futures

        result: concurrent.futures.Future = concurrent.futures.Future()

        def runner() -> None:
            try:
                result.set_result(fn())
            except BaseException as exc:
                result.set_exception(exc)

        self._loop.call_soon_threadsafe(runner)
        return result.result(timeout)

    def run(self, coro, timeout: float = 60.0):
        """Run a coroutine on the loop thread and return its result."""
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(timeout)

    def _stop_loop(self) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30.0)

    def drain(self) -> None:
        """Graceful stop: drain the server, then stop the loop thread."""
        self.run(self.server.drain())
        self._stop_loop()

    def kill(self) -> None:
        """Abrupt stop (chaos): no drain, no checkpoint, loop torn down."""
        try:
            self.run(self.server.kill(), timeout=30.0)
        finally:
            self._stop_loop()
