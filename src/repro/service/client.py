"""The retrying ingest client: reconnect-and-resume by sequence.

:class:`ServiceClient` drives one home's event stream into an
:class:`~repro.service.server.IngestServer` with the same delivery
discipline the alert outbox uses in the other direction — exponential
backoff with seedable jitter, a bounded attempt budget that resets on
progress, and resume-by-sequence so a crashed, restarted or overloaded
server costs a reconnect, never a lost or duplicated event:

1. connect, ``hello`` → the server's ``welcome`` carries ``applied``, the
   number of this home's events already journaled — the authoritative
   resume point (computed behind a queue barrier, so it is exact);
2. ``resume from=applied`` then stream ``events[applied:]`` through the
   journal fast-path frames, draining advisory acks opportunistically;
3. close with ``end`` (finish the home's stream server-side) or ``sync``
   (barrier only), and treat the returned exact count as completion;
4. any socket error, protocol violation, shed (``error: overloaded``) or
   timeout tears the connection down and re-enters step 1 after backoff.

A :class:`~repro.faults.net.NetFaultInjector` can be threaded into the
send path to perturb the byte stream (torn writes, garbage, slowloris,
stale-resume duplicate sends) — the client's own retry loop is the
recovery mechanism under test.
"""

from __future__ import annotations

import random
import select
import socket
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .. import telemetry
from ..durability.runtime import encode_event_frame
from ..model import Event
from . import protocol
from .protocol import FrameDecoder, ProtocolError

__all__ = ["ServiceError", "SendReport", "ServiceClient"]

_log = telemetry.get_logger("repro.service.client")


class ServiceError(RuntimeError):
    """The attempt budget ran out without completing the stream."""


class _Retry(Exception):
    """Internal: tear this connection down and start over."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass
class SendReport:
    """What one :meth:`ServiceClient.send_stream` call actually did."""

    home_id: str
    total_events: int
    applied: int = 0
    connects: int = 0
    retries: int = 0
    resent: int = 0  # frames re-sent at/below the server's applied count
    finished: bool = False
    errors: Dict[str, int] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return self.applied >= self.total_events


class _ClientIO:
    """One connection's framed reader/writer, with the fault hook."""

    def __init__(self, sock: socket.socket, injector=None) -> None:
        self.sock = sock
        self.injector = injector
        self.decoder = FrameDecoder()

    def send_frame(self, data: bytes, kind: str) -> None:
        if self.injector is not None:
            self.injector.send(self.sock, data, kind)
        else:
            self.sock.sendall(data)

    def send_message(self, message: dict) -> None:
        self.send_frame(protocol.encode_message(message), message["type"])

    def send_event(self, event: Event) -> None:
        self.send_frame(encode_event_frame(event), "event")

    def _feed(self, data: bytes) -> List[dict]:
        if not data:
            raise _Retry("server_closed")
        try:
            return self.decoder.feed(data)
        except ProtocolError as exc:
            raise _Retry(f"bad_reply:{exc}")

    def poll(self) -> List[dict]:
        """Drain whatever reply frames are ready, without blocking."""
        messages: List[dict] = []
        while True:
            readable, _, _ = select.select([self.sock], [], [], 0)
            if not readable:
                return messages
            messages.extend(self._feed(self.sock.recv(65536)))

    def recv(self) -> List[dict]:
        """Block (up to the socket timeout) for at least one frame."""
        while True:
            try:
                data = self.sock.recv(65536)
            except socket.timeout:
                raise _Retry("reply_timeout")
            messages = self._feed(data)
            if messages:
                return messages


class ServiceClient:
    """Backoff-retrying, resume-by-sequence sender for one ingest service.

    Parameters mirror :class:`~repro.durability.AlertOutbox` where they
    mean the same thing: attempt *n* (since the last progress) backs off
    ``min(max_delay, base_delay * 2**(n-1)) * (1 + jitter * U[0,1))``.
    *jitter_seed* makes the schedule byte-deterministic for chaos trials.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        max_attempts: int = 10,
        base_delay: float = 0.05,
        max_delay: float = 2.0,
        jitter: float = 0.5,
        jitter_seed: Optional[int] = None,
        io_timeout: float = 10.0,
        sleep=time.sleep,
        fault_injector=None,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        self.host = host
        self.port = int(port)
        self.max_attempts = int(max_attempts)
        self.base_delay = float(base_delay)
        self.max_delay = float(max_delay)
        self.jitter = float(jitter)
        self.rng = random.Random(0 if jitter_seed is None else jitter_seed)
        self.io_timeout = float(io_timeout)
        self.sleep = sleep
        self.fault_injector = fault_injector

    def _backoff(self, attempt: int) -> float:
        delay = min(self.max_delay, self.base_delay * (2 ** (attempt - 1)))
        return delay * (1.0 + self.jitter * self.rng.random())

    # ------------------------------------------------------------------ #

    def send_stream(
        self,
        home_id: str,
        events: Sequence[Event],
        *,
        end: Optional[float] = None,
        finish: bool = True,
    ) -> SendReport:
        """Deliver *events* for *home_id*; return the delivery report.

        With *finish* the server closes the home's stream at *end* after
        the last event (emitting any end-of-stream alerts); without it the
        call just barriers, leaving the stream open for a later session.
        Raises :class:`ServiceError` when ``max_attempts`` consecutive
        no-progress attempts fail.
        """
        report = SendReport(home_id=home_id, total_events=len(events))
        attempt = 0
        while True:
            sock = None
            try:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=self.io_timeout
                )
                sock.settimeout(self.io_timeout)
                report.connects += 1
                if self.fault_injector is not None:
                    self.fault_injector.on_connect()
                io = _ClientIO(sock, self.fault_injector)
                io.send_message(protocol.hello(home_id))
                applied = self._await(io, report, "welcome")
                if applied > report.applied:
                    attempt = 0  # the stream moved forward: fresh budget
                report.applied = max(report.applied, applied)
                start = applied
                if self.fault_injector is not None:
                    start = self.fault_injector.resume_from(applied)
                io.send_message(protocol.resume(start))
                report.resent += applied - start
                for index in range(start, len(events)):
                    io.send_event(events[index])
                    for message in io.poll():
                        self._note(report, attempt, message)
                        if message["type"] == "ack":
                            if message["applied"] > report.applied:
                                report.applied = message["applied"]
                                attempt = 0
                if finish:
                    io.send_message(protocol.end(end))
                    final = self._await(io, report, "fin")
                else:
                    io.send_message(protocol.sync())
                    final = self._await(io, report, "synced")
                report.applied = max(report.applied, final)
                if final >= len(events):
                    report.finished = finish
                    return report
                raise _Retry("incomplete")
            except (_Retry, ConnectionError, OSError) as exc:
                reason = exc.reason if isinstance(exc, _Retry) else type(exc).__name__
                report.errors[reason] = report.errors.get(reason, 0) + 1
                attempt += 1
                report.retries += 1
                if attempt >= self.max_attempts:
                    raise ServiceError(
                        f"gave up on {home_id} after {attempt} attempts "
                        f"without progress (applied {report.applied}/"
                        f"{len(events)}, last error: {reason})"
                    )
                delay = self._backoff(attempt)
                _log.debug(
                    "send_retry",
                    home=home_id,
                    attempt=attempt,
                    reason=reason,
                    delay=round(delay, 4),
                )
                self.sleep(delay)
            finally:
                if sock is not None:
                    try:
                        sock.close()
                    except OSError:  # pragma: no cover
                        pass

    def _await(self, io: "_ClientIO", report: SendReport, want: str) -> int:
        """Block for the *want* reply; fold acks in, fail on error frames."""
        while True:
            for message in io.recv():
                kind = message["type"]
                if kind == want:
                    return int(message["applied"])
                self._note(report, 0, message)
                if kind == "ack":
                    report.applied = max(report.applied, int(message["applied"]))

    @staticmethod
    def _note(report: SendReport, _attempt: int, message: dict) -> None:
        if message["type"] == "error":
            raise _Retry(str(message.get("reason", "server_error")))
