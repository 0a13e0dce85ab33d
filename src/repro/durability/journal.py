"""Per-home append-only write-ahead journal (the durability backbone).

Between two checkpoints, everything the gateway has accepted lives only in
process memory — a crash silently loses buffered windows and in-flight
alerts, which is exactly the fault class DICE exists to surface.  The
journal closes that hole: every **accepted** event is appended here
*before* it touches any windowing state, so that

    restore(checkpoint) + replay(journal tail)  ==  uninterrupted run

holds exactly (the chaos harness in :mod:`repro.faults.crash` kills
runtimes at random points and asserts it).

Wire format — one record::

    +----------------+----------------+------------------+
    | length (u32 BE)| CRC32 (u32 BE) | payload (JSON)   |
    +----------------+----------------+------------------+

The payload is compact UTF-8 JSON with sorted keys; floats survive the
round trip losslessly (``json`` uses ``repr``, shortest-round-trip in
Python 3).  The CRC covers the payload bytes, so a torn tail — the
half-written record a power cut leaves behind — is detected and safely
discarded rather than replayed as garbage.

One reader, :class:`SegmentReader`, reads every log of the package in
this framing: journal segments and the side logs (``provenance.wal``,
``outbox.wal``, ``acks.wal``).  It streams one decoded record at a time,
stops at the first torn frame, and reports where the valid prefix ends,
so a log can cut its torn tail before anything is appended behind it.

Segments rotate on checkpoint epochs: the writer appends to
``journal-<epoch>.wal``; a checkpoint at epoch *e* supersedes every
record in segments ≤ *e*, so they are truncated and a fresh segment
*e*+1 is opened.  Recovery replays only the segments **after** the
checkpoint's epoch, in epoch order.  :func:`replay_records` reads the
tail's frames once, to validate and count them, and returns a
:class:`JournalTail` that decodes them again one at a time as recovery
ingests them: a restart holds one journal record, not the whole tail.

One writer, :class:`AppendLog`, writes every log of the package.  It
keeps one descriptor per file and collects appended frames in memory
until the durable gateway's commit point
(:meth:`~repro.durability.fleet.DurableFleetGateway.commit`) flushes them,
so what the gateway acknowledges is what a restart finds.  The fsync
policy decides only what that commit adds:

* ``"never"``  — write to the OS (default; survives a process crash,
  ``kill -9`` included, not a power cut);
* ``"always"`` — write, then ``os.fsync`` every log the batch touched
  (survives a power cut too).
"""

from __future__ import annotations

import itertools
import json
import os
import re
import struct
import zlib
from typing import Iterator, List, Optional, Tuple, Union

from .. import telemetry

PathLike = Union[str, os.PathLike]

#: Legal fsync policies, loosest to strictest.
FSYNC_POLICIES = ("never", "always")

SEGMENT_PREFIX = "journal-"
SEGMENT_SUFFIX = ".wal"
_SEGMENT_RE = re.compile(r"^journal-(\d{8})\.wal$")

#: The frame header: payload length and CRC32 of the payload.
FRAME_HEADER = struct.Struct(">II")

#: A single journal record may not exceed this (sanity bound: a frame
#: whose length field decodes past it is corruption, not a real record).
MAX_RECORD_BYTES = 1 << 20

JOURNAL_APPENDS_TOTAL = "dice_journal_appends_total"
JOURNAL_REPLAYED_TOTAL = "dice_journal_replayed_total"
JOURNAL_TORN_TOTAL = "dice_journal_torn_records_total"
JOURNAL_TRUNCATED_TOTAL = "dice_journal_truncated_segments_total"
JOURNAL_ROTATIONS_TOTAL = "dice_journal_rotations_total"

_log = telemetry.get_logger("repro.durability.journal")


class JournalError(ValueError):
    """The journal is corrupt beyond the recoverable torn-tail case."""


def frame_payload(payload: bytes) -> bytes:
    """Wrap already-serialized payload bytes in the record frame."""
    if len(payload) > MAX_RECORD_BYTES:
        raise JournalError(f"record of {len(payload)} bytes exceeds {MAX_RECORD_BYTES}")
    return FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def decode_payload(payload: bytes, crc: int) -> object:
    """The JSON value a frame's *payload* holds, checked against the
    *crc* its header carries.

    A CRC mismatch or a payload that is not UTF-8 JSON raises
    :class:`ValueError` naming which.  The log reader and the service's
    wire decoder both check frames here; each bounds the length before
    reading a payload and decides what a failed frame means.
    """
    if zlib.crc32(payload) != crc:
        raise ValueError("frame CRC mismatch")
    try:
        return json.loads(payload.decode("utf-8"))
    except (ValueError, RecursionError):
        # ValueError covers UnicodeDecodeError and JSONDecodeError; a
        # payload nested past the recursion limit raises RecursionError.
        raise ValueError("frame payload is not valid JSON") from None


def encode_record(record: dict) -> bytes:
    """Frame one record: length prefix + CRC32 + compact JSON payload."""
    return frame_payload(
        json.dumps(
            record, sort_keys=True, separators=(",", ":"), ensure_ascii=False
        ).encode("utf-8")
    )


class SegmentReader:
    """Stream the well-formed records of one framed log file, in order.

    Every log of this package — journal segments, ``provenance.wal``,
    ``outbox.wal`` and ``acks.wal`` — is read through this one reader.
    Iterating decodes one record at a time and stops at the first torn
    frame (short header, short payload, a length past
    :data:`MAX_RECORD_BYTES`, CRC mismatch or undecodable JSON); bytes
    after it are never interpreted, since a partial write means the writer
    died *there*.  Once iteration ends, :attr:`count` is the number of
    records yielded, :attr:`valid_bytes` the length of the well-formed
    prefix and :attr:`torn` whether anything followed it.  A missing file
    reads as empty: every log is created by its first append.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = os.fspath(path)
        self.count = 0
        self.valid_bytes = 0
        self.torn = False

    def __iter__(self) -> Iterator[dict]:
        self.count = self.valid_bytes = 0
        self.torn = False
        if not os.path.exists(self.path):
            return
        with open(self.path, "rb") as handle:
            while True:
                header = handle.read(FRAME_HEADER.size)
                if not header:
                    return
                frame = _read_frame(handle, header)
                if frame is None:
                    self.torn = True
                    return
                record, size = frame
                self.count += 1
                self.valid_bytes += size
                yield record

    def cut(self) -> bool:
        """Truncate a torn file to its well-formed prefix (after iterating).

        A log that will be appended to again must lose its torn tail first:
        readers stop at the torn frame, so a record appended behind it would
        be on disk yet never read back.  Returns whether anything was cut.
        """
        if not self.torn:
            return False
        os.truncate(self.path, self.valid_bytes)
        return True


def _read_frame(handle, header: bytes) -> Optional[Tuple[object, int]]:
    """``(record, frame size)`` of the frame *header* opens; None if torn."""
    if len(header) < FRAME_HEADER.size:
        return None
    length, crc = FRAME_HEADER.unpack(header)
    if length > MAX_RECORD_BYTES:
        return None
    payload = handle.read(length)
    if len(payload) < length:
        return None
    try:
        return decode_payload(payload, crc), FRAME_HEADER.size + length
    except ValueError:
        return None


def read_segment(path: PathLike) -> Tuple[List[dict], bool]:
    """All well-formed records of a segment, plus a torn-tail flag."""
    reader = SegmentReader(path)
    records = list(reader)
    return records, reader.torn


def segment_name(epoch: int) -> str:
    return f"{SEGMENT_PREFIX}{epoch:08d}{SEGMENT_SUFFIX}"


def list_segments(directory: PathLike) -> List[Tuple[int, str]]:
    """Sorted ``(epoch, path)`` for every segment under *directory*."""
    directory = os.fspath(directory)
    if not os.path.isdir(directory):
        return []
    found = []
    for name in os.listdir(directory):
        match = _SEGMENT_RE.match(name)
        if match:
            found.append((int(match.group(1)), os.path.join(directory, name)))
    return sorted(found)


class AppendLog:
    """One append-only log file: the package's only writer.

    One descriptor, opened unbuffered so that a log dropped without
    :meth:`close` closes it when collected.  :meth:`append` copies frames
    into a buffer the log keeps across flushes, as a ``BufferedWriter``
    keeps its own, so a flush allocates nothing; :meth:`flush` writes them
    with one ``os.write``, and :meth:`sync` flushes and then fsyncs.
    ``close(drop=True)`` drops the unwritten frames, as ``kill -9`` would.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = os.fspath(path)
        self._file = open(self.path, "ab", buffering=0)
        self._buffer = bytearray()
        self._used = 0  # bytes of the buffer not yet written
        self._unsynced = False  # written to since the last fsync

    def append(self, frame: bytes) -> None:
        end = self._used + len(frame)
        self._buffer[self._used : end] = frame
        self._used = end

    def flush(self) -> None:
        if not self._used:
            return
        used, self._used = self._used, 0
        with memoryview(self._buffer) as view:
            written = self._file.write(view[:used])
            while written < used:  # a short write: the rest follows it
                written += self._file.write(view[written:used])
        self._unsynced = True

    def sync(self, *, force: bool = False) -> None:
        """Flush, then fsync if this log wrote since its last fsync, or
        with *force*: the file may hold bytes an earlier life wrote and
        never fsynced."""
        self.flush()
        if force or self._unsynced:
            os.fsync(self._file.fileno())
            self._unsynced = False

    def close(self, *, drop: bool = False) -> None:
        if not drop:
            self.flush()
        self._used = 0
        self._file.close()


class EventJournal:
    """Append-only, segmented, CRC-checked journal for one home.

    Appends collect in the current segment's :class:`AppendLog`
    (:attr:`log`) until the durable gateway commits it.

    Parameters
    ----------
    directory:
        The journal directory (created if missing).  One journal per home;
        a fleet keeps one directory per home under a shared root.
    metrics:
        Telemetry registry for append/rotate/truncate counters; defaults
        to the disabled registry so library use records nothing.
    """

    def __init__(
        self,
        directory: PathLike,
        *,
        metrics: Optional["telemetry.MetricsRegistry"] = None,
    ) -> None:
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.metrics = metrics if metrics is not None else telemetry.NULL_REGISTRY
        self._appends_counter = self.metrics.counter(
            JOURNAL_APPENDS_TOTAL, "Records appended to the event journal"
        )
        self._rotations_counter = self.metrics.counter(
            JOURNAL_ROTATIONS_TOTAL, "Journal segment rotations"
        )
        self._truncated_counter = self.metrics.counter(
            JOURNAL_TRUNCATED_TOTAL, "Journal segments truncated by checkpoints"
        )
        existing = list_segments(self.directory)
        self.epoch = existing[-1][0] if existing else 0
        #: The current segment's writer, opened by the first append.
        self.log: Optional[AppendLog] = None

    # ------------------------------------------------------------------ #

    @property
    def current_segment_path(self) -> str:
        return os.path.join(self.directory, segment_name(self.epoch))

    def segments(self) -> List[Tuple[int, str]]:
        return list_segments(self.directory)

    def _open(self) -> AppendLog:
        if self.log is None:
            self.log = AppendLog(self.current_segment_path)
        return self.log

    def append(self, record: dict) -> None:
        """Append one record to the current segment."""
        self.append_frame(encode_record(record))

    def append_frame(self, frame: bytes) -> None:
        """Append an already-framed record (see :func:`frame_payload`).

        The ingest hot path pays an append per event; callers that can
        pre-encode (cached device ids, direct float formatting) skip the
        generic ``json.dumps`` here.
        """
        log = self.log
        if log is None:
            log = self._open()
        log.append(frame)
        self._appends_counter.inc()

    def rotate(self, epoch: Optional[int] = None) -> int:
        """Close the current segment and start a new one at *epoch*
        (default: current + 1).  Returns the new epoch."""
        if epoch is None:
            epoch = self.epoch + 1
        if epoch <= self.epoch and self.segments():
            raise ValueError(
                f"cannot rotate backwards: epoch {epoch} <= current {self.epoch}"
            )
        self.close()
        self.epoch = int(epoch)
        # Create the new segment eagerly: the epoch is re-derived from the
        # directory on restart, so it must be recorded on disk even if the
        # process dies before the first post-rotation append — otherwise a
        # rotate + truncate cycle that empties the directory would restart
        # at an epoch the checkpoint has already superseded, and appends
        # made there would be skipped on the next recovery.
        self._open()
        self._rotations_counter.inc()
        _log.debug("journal_rotated", directory=self.directory, epoch=self.epoch)
        return self.epoch

    def truncate_through(self, epoch: int) -> int:
        """Delete every segment with epoch ≤ *epoch* (superseded by a
        checkpoint at that epoch).  Returns the number removed."""
        removed = 0
        for seg_epoch, path in self.segments():
            if seg_epoch <= epoch and path != self.current_segment_path:
                os.remove(path)
                removed += 1
        if removed:
            self._truncated_counter.inc(removed)
            _log.debug(
                "journal_truncated",
                directory=self.directory,
                through_epoch=epoch,
                segments=removed,
            )
        return removed

    def close(self) -> None:
        if self.log is not None:
            self.log.close()
            self.log = None


class JournalTail:
    """The records a replay covers: sized up front, decoded on iteration.

    :func:`replay_records` has already read every frame, so corruption
    raises before anything is ingested and ``len()`` is exact.  Iterating
    reads the segments again and holds one decoded record at a time, so a
    restart's memory does not grow with the tail.
    """

    def __init__(self, segments: List[Tuple[str, int]]) -> None:
        #: ``(path, records)`` per replayed segment, in epoch order.
        self.segments = segments
        self._count = sum(count for _path, count in segments)

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[dict]:
        for path, count in self.segments:
            yield from itertools.islice(SegmentReader(path), count)


def replay_records(
    directory: PathLike,
    *,
    after_epoch: int = -1,
    metrics: Optional["telemetry.MetricsRegistry"] = None,
) -> Tuple[JournalTail, int]:
    """The records in segments with epoch > *after_epoch*, in order.

    Returns ``(tail, torn)`` where *tail* is a :class:`JournalTail` and
    *torn* counts discarded torn-tail records.  A torn tail is legal only in
    the **final** segment — that is where a crash can land mid-write — and
    is cut off here, so the segment still reads whole once a later life's
    segments follow it.  A torn record in any earlier segment means records
    after it were already lost when later segments were written, so
    replaying across the gap would silently reorder history: that raises
    :class:`JournalError` instead.
    """
    registry = metrics if metrics is not None else telemetry.NULL_REGISTRY
    replayed_counter = registry.counter(
        JOURNAL_REPLAYED_TOTAL, "Journal records replayed during recovery"
    )
    torn_counter = registry.counter(
        JOURNAL_TORN_TOTAL, "Torn (CRC-failed) journal records discarded"
    )
    segments = [
        (epoch, path)
        for epoch, path in list_segments(directory)
        if epoch > after_epoch
    ]
    counted: List[Tuple[str, int]] = []
    torn = 0
    for index, (epoch, path) in enumerate(segments):
        reader = SegmentReader(path)
        for _record in reader:
            pass
        if reader.torn:
            if index != len(segments) - 1:
                raise JournalError(
                    f"segment {path} has a torn record but is not the newest "
                    f"segment — the journal is corrupt, not merely crash-cut"
                )
            reader.cut()
            torn += 1
            _log.warning(
                "journal_torn_tail_discarded", segment=path, epoch=epoch
            )
        counted.append((path, reader.count))
    tail = JournalTail(counted)
    if len(tail):
        replayed_counter.inc(len(tail))
    if torn:
        torn_counter.inc(torn)
    return tail, torn
