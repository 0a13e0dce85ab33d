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

Fsync policy is the classic durability/throughput dial:

* ``"never"``   — rely on the OS page cache (default; survives process
  crashes, not power loss);
* ``"interval"`` — ``os.fsync`` every *fsync_interval* appends (bounded
  loss under power failure);
* ``"always"``  — ``os.fsync`` after every append (no loss, slowest).
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
FSYNC_POLICIES = ("never", "interval", "always")

SEGMENT_PREFIX = "journal-"
SEGMENT_SUFFIX = ".wal"
_SEGMENT_RE = re.compile(r"^journal-(\d{8})\.wal$")

_HEADER = struct.Struct(">II")  # (payload length, CRC32 of payload)

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
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


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
                header = handle.read(_HEADER.size)
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
        with open(self.path, "r+b") as handle:
            handle.truncate(self.valid_bytes)
        return True


def _read_frame(handle, header: bytes) -> Optional[Tuple[object, int]]:
    """``(record, frame size)`` of the frame *header* opens; None if torn."""
    if len(header) < _HEADER.size:
        return None
    length, crc = _HEADER.unpack(header)
    if length > MAX_RECORD_BYTES:
        return None
    payload = handle.read(length)
    if len(payload) < length or zlib.crc32(payload) != crc:
        return None
    try:
        return json.loads(payload.decode("utf-8")), _HEADER.size + length
    except (UnicodeDecodeError, ValueError):
        return None


def read_segment(path: PathLike) -> Tuple[List[dict], bool]:
    """All well-formed records of a segment, plus a torn-tail flag."""
    reader = SegmentReader(path)
    records = list(reader)
    return records, reader.torn


def sync_file(path: PathLike) -> None:
    """Fsync the file at *path*; a missing file has nothing to sync.

    For the side logs, whose appends open and close their file: no handle
    outlives a write, so a sync opens the file again.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except FileNotFoundError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


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


class EventJournal:
    """Append-only, segmented, CRC-checked journal for one home.

    Parameters
    ----------
    directory:
        The journal directory (created if missing).  One journal per home;
        a fleet keeps one directory per home under a shared root.
    fsync:
        One of :data:`FSYNC_POLICIES`; see the module docstring.
    fsync_interval:
        Appends between ``fsync`` calls under the ``"interval"`` policy.
    metrics:
        Telemetry registry for append/rotate/truncate counters; defaults
        to the disabled registry so library use records nothing.
    """

    def __init__(
        self,
        directory: PathLike,
        *,
        fsync: str = "never",
        fsync_interval: int = 64,
        metrics: Optional["telemetry.MetricsRegistry"] = None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}")
        if fsync_interval < 1:
            raise ValueError("fsync_interval must be at least 1")
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.fsync = fsync
        self.fsync_interval = int(fsync_interval)
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
        self._handle = None
        self._since_sync = 0

    # ------------------------------------------------------------------ #

    @property
    def current_segment_path(self) -> str:
        return os.path.join(self.directory, segment_name(self.epoch))

    def segments(self) -> List[Tuple[int, str]]:
        return list_segments(self.directory)

    def _open(self):
        if self._handle is None:
            self._handle = open(self.current_segment_path, "ab")
        return self._handle

    def append(self, record: dict) -> None:
        """Durably (per policy) append one record to the current segment."""
        self.append_frame(encode_record(record))

    def append_frame(self, frame: bytes) -> None:
        """Append an already-framed record (see :func:`frame_payload`).

        The ingest hot path pays an append per event; callers that can
        pre-encode (cached device ids, direct float formatting) skip the
        generic ``json.dumps`` here.
        """
        handle = self._handle
        if handle is None:
            handle = self._open()
        handle.write(frame)
        if self.fsync == "always":
            handle.flush()
            os.fsync(handle.fileno())
        elif self.fsync == "interval":
            self._since_sync += 1
            if self._since_sync >= self.fsync_interval:
                handle.flush()
                os.fsync(handle.fileno())
                self._since_sync = 0
        self._appends_counter.inc()

    def sync(self) -> None:
        """Flush and fsync the current segment regardless of policy."""
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._since_sync = 0

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
        if self._handle is not None:
            self._handle.flush()
            self._handle.close()
            self._handle = None
        self._since_sync = 0

    def __enter__(self) -> "EventJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


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
