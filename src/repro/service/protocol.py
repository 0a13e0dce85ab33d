"""The ingest wire protocol: CRC-framed JSON messages over a byte stream.

The service speaks exactly the durability layer's journal framing —
``u32 payload length + u32 CRC32 + compact sorted-key JSON`` (see
:func:`repro.durability.journal.frame_payload`) — so an event frame on the
wire is byte-identical to the journal record the server will append for
it, and the hot send path reuses
:func:`repro.durability.runtime.encode_event_frame` unchanged.

Message vocabulary (``"type"`` field):

================  =========  ==================================================
type              direction  meaning
================  =========  ==================================================
``hello``         C → S      open a home stream: ``{"home": id}``
``welcome``       S → C      authoritative resume point: ``{"applied": N}``
``resume``        C → S      the client's next frame is stream index
                             ``{"from": K}`` with ``K <= applied``; the server
                             skips ``applied - K`` frames as known duplicates
``event``         C → S      one telemetry event (the journal fast path)
``sync``          C → S      barrier request; server answers ``synced``
``synced``        S → C      ``{"applied": N}`` — exact, all prior frames
                             committed: written to the OS under
                             ``fsync="never"``, fsynced under ``"always"``
``ack``           S → C      advisory progress ``{"applied": N}`` (may lag)
``end``           C → S      close the home stream at ``{"end": t}``;
                             server answers ``fin``
``fin``           S → C      ``{"applied": N}`` — stream finished, alerts flushed
``error``         S → C      ``{"reason": r}`` best-effort before a disconnect
================  =========  ==================================================

:class:`FrameDecoder` is the strict incremental half: it buffers arbitrary
byte chunks and yields complete messages, rejecting oversized lengths,
CRC mismatches and undecodable payloads with :class:`ProtocolError` *per
connection* — a poisoned stream kills its connection, never the server.
A partial frame is simply held until more bytes arrive (or the connection
ends), so torn writes cost only the torn frame.
"""

from __future__ import annotations

import json
from typing import List, Optional

from ..durability.journal import FRAME_HEADER, MAX_RECORD_BYTES, decode_payload, frame_payload

__all__ = [
    "DEFAULT_MAX_FRAME_BYTES",
    "ProtocolError",
    "FrameDecoder",
    "encode_message",
    "hello",
    "welcome",
    "resume",
    "sync",
    "synced",
    "ack",
    "end",
    "fin",
    "error",
]

#: Service-side frame-size bound — far above any event/control frame but
#: far below the journal's 1 MiB record cap, so a garbage length field is
#: rejected before it can make the decoder buffer a meaningless megabyte.
DEFAULT_MAX_FRAME_BYTES = 1 << 16

HEADER_SIZE = FRAME_HEADER.size


class ProtocolError(ValueError):
    """A malformed frame; scoped to the connection that sent it."""


def encode_message(message: dict) -> bytes:
    """Frame one control message (events use ``encode_event_frame``)."""
    payload = json.dumps(
        message, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return frame_payload(payload)


def hello(home_id: str) -> dict:
    return {"home": home_id, "type": "hello"}


def welcome(applied: int) -> dict:
    return {"applied": int(applied), "type": "welcome"}


def resume(from_index: int) -> dict:
    return {"from": int(from_index), "type": "resume"}


def sync() -> dict:
    return {"type": "sync"}


def synced(applied: int) -> dict:
    return {"applied": int(applied), "type": "synced"}


def ack(applied: int) -> dict:
    return {"applied": int(applied), "type": "ack"}


def end(end_time: Optional[float]) -> dict:
    return {"end": end_time, "type": "end"}


def fin(applied: int) -> dict:
    return {"applied": int(applied), "type": "fin"}


def error(reason: str) -> dict:
    return {"reason": reason, "type": "error"}


class FrameDecoder:
    """Incremental strict decoder for one connection's byte stream.

    ``feed(data)`` returns every message completed by *data*, in order.
    The first malformed frame raises :class:`ProtocolError` and poisons
    the decoder — the transport layer must drop the connection, because a
    length-prefixed stream cannot resynchronise past corruption.  Frames
    decoded *before* the corruption point are always preserved (returned
    by earlier ``feed`` calls or inspectable via the exception's
    ``messages`` attribute for the current call).
    """

    def __init__(self, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> None:
        if not 0 < max_frame_bytes <= MAX_RECORD_BYTES:
            raise ValueError(
                f"max_frame_bytes must be in (0, {MAX_RECORD_BYTES}]"
            )
        self.max_frame_bytes = int(max_frame_bytes)
        self._buffer = bytearray()
        self._dead = False

    @property
    def buffered(self) -> int:
        """Bytes held waiting for a frame to complete."""
        return len(self._buffer)

    @property
    def dead(self) -> bool:
        return self._dead

    def _fail(self, reason: str, messages: List[dict]) -> "ProtocolError":
        self._dead = True
        self._buffer.clear()
        exc = ProtocolError(reason)
        exc.messages = messages  # frames decoded before the poison frame
        return exc

    def feed(self, data: bytes) -> List[dict]:
        """Consume *data*; return the messages it completed."""
        if self._dead:
            raise ProtocolError("decoder is poisoned; drop the connection")
        self._buffer.extend(data)
        messages: List[dict] = []
        while True:
            if len(self._buffer) < HEADER_SIZE:
                return messages
            length, crc = FRAME_HEADER.unpack_from(self._buffer)
            if length > self.max_frame_bytes:
                raise self._fail(
                    f"frame of {length} bytes exceeds {self.max_frame_bytes}",
                    messages,
                )
            frame_end = HEADER_SIZE + length
            if len(self._buffer) < frame_end:
                return messages
            payload = bytes(self._buffer[HEADER_SIZE:frame_end])
            try:
                message = decode_payload(payload, crc)
            except ValueError as exc:
                raise self._fail(str(exc), messages)
            if not isinstance(message, dict) or not isinstance(
                message.get("type"), str
            ):
                raise self._fail("frame payload is not a typed object", messages)
            del self._buffer[:frame_end]
            messages.append(message)
