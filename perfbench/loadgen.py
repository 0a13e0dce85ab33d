"""The load generator: one thread, one connection per home.

Frames are encoded once, up front, with the journal's own
``encode_event_frame``, so sending is a ``bytes`` join and one
``send`` per connection per wake-up.  Sockets are non-blocking and the
generator keeps unsent bytes itself, so a slow server never delays the
schedule of an open-loop phase — it only delays delivery, which the
latency figures then include.

The client side of the protocol follows ``repro send``: ``hello``, then
resume from ``welcome``'s applied count.  A shed (``error: overloaded``)
or any drop of the connection reconnects and resumes from the new
``welcome``; events keep their original due times, so time lost to a
shed counts toward latency.
"""

from __future__ import annotations

import gc
import selectors
import socket
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.service import protocol
from repro.service.protocol import FrameDecoder, ProtocolError

#: Closed-loop phases keep at most this many unacknowledged events in
#: flight per connection (two homes stay under the server's 4096-event
#: admission bound, so a closed loop never sheds).
WINDOW = 1536
#: A phase that makes no progress for this long has failed.
STALL_S = 60.0


class GeneratorError(RuntimeError):
    pass


class _Conn:
    def __init__(self, home_id: str, frames: Sequence[bytes], lo: int, hi: int):
        self.home_id = home_id
        self.frames = frames
        self.lo = lo
        self.hi = hi
        self.sock: Optional[socket.socket] = None
        self.decoder: Optional[FrameDecoder] = None
        self.out = bytearray()
        self.ready = False
        self.next = lo
        self.limit = lo
        self.acked = lo
        self.control: Optional[bytes] = None  # sync/end to send once caught up
        self.control_sent = False
        self.control_sent_at: Optional[float] = None
        self.reply: Optional[int] = None
        self.errors: Dict[str, int] = {}


class Generator:
    """Drives one phase's per-home streams into one server port."""

    def __init__(
        self,
        port: int,
        homes: Sequence[Tuple[str, Sequence[bytes], int, int]],
    ) -> None:
        self.port = port
        self.selector = selectors.DefaultSelector()
        self.conns = [_Conn(*home) for home in homes]
        self.reconnects = 0
        for conn in self.conns:
            self._connect(conn)

    # -- connections ---------------------------------------------------- #

    def _connect(self, conn: _Conn) -> None:
        sock = socket.create_connection(("127.0.0.1", self.port), timeout=10.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        conn.sock = sock
        conn.decoder = FrameDecoder()
        conn.ready = False
        conn.control_sent = False
        conn.out = bytearray(protocol.encode_message(protocol.hello(conn.home_id)))
        self.selector.register(sock, selectors.EVENT_READ | selectors.EVENT_WRITE, conn)

    def _lost(self, conn: _Conn) -> None:
        self.selector.unregister(conn.sock)
        conn.sock.close()
        conn.sock = None
        self.reconnects += 1
        self._connect(conn)

    def close(self) -> None:
        for conn in self.conns:
            if conn.sock is not None:
                self.selector.unregister(conn.sock)
                conn.sock.close()
                conn.sock = None
        self.selector.close()

    # -- I/O -------------------------------------------------------------- #

    def _on_message(self, conn: _Conn, message: dict) -> None:
        kind = message["type"]
        if kind == "welcome":
            applied = int(message["applied"])
            if not 0 <= applied <= conn.hi:
                raise GeneratorError(
                    f"{conn.home_id}: server applied {applied}, "
                    f"past this phase's end {conn.hi}"
                )
            conn.ready = True
            conn.next = applied
            conn.acked = applied
            conn.out += protocol.encode_message(protocol.resume(applied))
        elif kind == "ack":
            conn.acked = max(conn.acked, int(message["applied"]))
        elif kind in ("synced", "fin"):
            conn.reply = int(message["applied"])
            conn.acked = max(conn.acked, conn.reply)
        elif kind == "error":
            reason = str(message.get("reason"))
            conn.errors[reason] = conn.errors.get(reason, 0) + 1

    def _read(self, conn: _Conn) -> None:
        try:
            data = conn.sock.recv(65536)
        except BlockingIOError:
            return
        except OSError:
            self._lost(conn)
            return
        if not data:
            self._lost(conn)
            return
        try:
            messages = conn.decoder.feed(data)
        except ProtocolError as exc:
            raise GeneratorError(f"{conn.home_id}: bad frame from server: {exc}")
        for message in messages:
            self._on_message(conn, message)

    def _write(self, conn: _Conn) -> None:
        if not conn.out:
            return
        try:
            sent = conn.sock.send(conn.out)
        except BlockingIOError:
            return
        except OSError:
            self._lost(conn)
            return
        del conn.out[:sent]

    def _hand_over(self, conn: _Conn, upto: int) -> int:
        """Queue frames ``[next, upto)``; returns how many were queued."""
        if not conn.ready or upto <= conn.next:
            return 0
        count = upto - conn.next
        conn.out += b"".join(conn.frames[conn.next:upto])
        conn.next = upto
        return count

    def _send_controls(self) -> None:
        for conn in self.conns:
            if (
                conn.control is not None
                and conn.ready
                and not conn.control_sent
                and conn.next == conn.hi
            ):
                conn.out += conn.control
                conn.control_sent = True
                conn.control_sent_at = time.monotonic()

    def _pump(self, timeout: float) -> None:
        self._send_controls()
        for conn in self.conns:
            if conn.out:
                self._write(conn)
        for key, mask in self.selector.select(timeout):
            conn = key.data
            if conn.sock is None or key.fileobj is not conn.sock:
                continue
            if mask & selectors.EVENT_READ:
                self._read(conn)
            if conn.sock is not None and mask & selectors.EVENT_WRITE:
                self._write(conn)
        for conn in self.conns:
            if conn.sock is not None:
                want = selectors.EVENT_READ
                if conn.out:
                    want |= selectors.EVENT_WRITE
                self.selector.modify(conn.sock, want, conn)

    def _wait_ready(self) -> None:
        deadline = time.monotonic() + STALL_S
        while not all(conn.ready for conn in self.conns):
            if time.monotonic() > deadline:
                raise GeneratorError("no welcome from the server")
            self._pump(0.05)

    # -- phases ----------------------------------------------------------- #

    def finish(self, control: str, end_time: Optional[float] = None) -> Dict[str, float]:
        """Send ``sync`` or ``end`` on every connection once its events are
        all queued, and wait for each ``synced``/``fin`` count.  A count
        short of the phase's end is recorded, not raised: the final count
        decides which events failed.  Returns when each control frame was
        handed to the socket."""
        for conn in self.conns:
            message = protocol.sync() if control == "sync" else protocol.end(end_time)
            conn.control = protocol.encode_message(message)
            conn.control_sent = False
            conn.reply = None
        deadline = time.monotonic() + STALL_S
        while any(conn.reply is None for conn in self.conns):
            if time.monotonic() > deadline:
                raise GeneratorError(f"no reply to {control}")
            for conn in self.conns:
                self._hand_over(conn, conn.hi)
            self._pump(0.05)
        return {conn.home_id: conn.control_sent_at for conn in self.conns}

    def run_open(
        self, schedule: Sequence[Tuple[float, int, int]], start: float
    ) -> dict:
        """Send each event when due (``start`` + offset), all due events in
        one write per connection per wake-up, without waiting for the
        server.  Returns due times and the generator's own lateness."""
        self._wait_ready()
        gc.disable()
        try:
            return self._run_open(schedule, start)
        finally:
            gc.enable()

    def _run_open(self, schedule, start: float) -> dict:
        due: Dict[str, Dict[int, float]] = {conn.home_id: {} for conn in self.conns}
        lateness: List[float] = []
        pending: List[List[float]] = [[] for _ in self.conns]
        ptr = 0
        n = len(schedule)
        cpu0, wall0 = time.process_time(), time.monotonic()
        last_progress = wall0
        while True:
            now = time.monotonic()
            while ptr < n and start + schedule[ptr][0] <= now:
                offset, h, i = schedule[ptr]
                conn = self.conns[h]
                conn.limit = max(conn.limit, i + 1)
                due[conn.home_id][i] = start + offset
                pending[h].append(start + offset)
                ptr += 1
            for h, conn in enumerate(self.conns):
                if self._hand_over(conn, conn.limit):
                    handed = time.monotonic()
                    lateness.extend(handed - t for t in pending[h])
                    pending[h].clear()
                    last_progress = handed
            if ptr == n and all(conn.next == conn.hi for conn in self.conns):
                break
            if now - last_progress > STALL_S:
                raise GeneratorError("open-loop phase stalled")
            timeout = 0.05 if ptr == n else max(0.0, start + schedule[ptr][0] - now)
            self._pump(min(timeout, 0.05))
        wall = time.monotonic() - wall0
        return {
            "due": due,
            "lateness_s": lateness,
            "cpu_share": (time.process_time() - cpu0) / wall if wall > 0 else 0.0,
            "wall_s": wall,
        }

    def run_closed(self) -> dict:
        """Send as fast as the server acknowledges (at most :data:`WINDOW`
        unacknowledged events per connection), then ``sync``.  Returns
        events applied and the wall time from first frame to last
        ``synced``."""
        self._wait_ready()
        t0 = time.monotonic()
        applied0 = sum(conn.next for conn in self.conns)
        deadline = t0 + STALL_S
        while not all(conn.next == conn.hi for conn in self.conns):
            for conn in self.conns:
                self._hand_over(conn, min(conn.hi, conn.acked + WINDOW))
            if time.monotonic() > deadline:
                raise GeneratorError("closed-loop phase stalled")
            self._pump(0.05)
        self.finish("sync")
        wall = time.monotonic() - t0
        applied = sum(conn.reply for conn in self.conns) - applied0
        return {"applied": applied, "wall_s": wall}

    def errors(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for conn in self.conns:
            for reason, n in conn.errors.items():
                out[reason] = out.get(reason, 0) + n
        return out
