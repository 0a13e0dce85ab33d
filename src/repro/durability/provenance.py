"""Durable provenance archive: evidence records journaled beside alerts.

The in-memory :class:`~repro.telemetry.provenance.ProvenanceRecorder` ring
forgets old records by design; the durable gateway drains it into a
``provenance.wal`` file in the home's journal directory so ``repro
explain`` works long after the alert scrolled out of the ring — and after
a crash.  The file uses the event journal's length+CRC framing, is
append-only, and is **never truncated** by checkpoints: it is the audit
archive, not replay state.

The archive is indexed by id.  Opening it streams the file once through
:class:`~repro.durability.journal.SegmentReader` and keeps only the trace
ids, so a restart holds one decoded record at a time however old the
archive is; :meth:`ProvenanceLog.find` and :meth:`ProvenanceLog.records`
read the file again when asked.

Deduplication is the crash-safety story.  Recovery replays the journal
tail, the runtime regenerates byte-identical evidence records (everything
in them derives from event time and fitted state), and the log skips ids
it already holds — so a record written before the crash is never
duplicated, and one lost in a torn tail is simply re-written from the
replay.
"""

from __future__ import annotations

import os
from typing import List, Optional, Set, Union

from .. import telemetry
from ..telemetry.provenance import canonical_record_bytes
from .journal import SegmentReader, frame_payload

PathLike = Union[str, os.PathLike]

PROVENANCE_WAL = "provenance.wal"

PROVENANCE_RECORDS_TOTAL = "dice_provenance_records_total"
PROVENANCE_DEDUPED_TOTAL = "dice_provenance_deduped_total"

_log = telemetry.get_logger("repro.durability.provenance")


class ProvenanceLog:
    """Append-only, deduplicating archive of alert evidence records.

    One per home, living next to the event journal.  ``append`` is
    idempotent over trace ids; a torn tail (crash mid-append) loses at
    most the record being written, which the recovery replay regenerates.
    """

    def __init__(
        self,
        directory: PathLike,
        *,
        metrics: Optional["telemetry.MetricsRegistry"] = None,
    ) -> None:
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.path = os.path.join(self.directory, PROVENANCE_WAL)
        self.metrics = metrics if metrics is not None else telemetry.NULL_REGISTRY
        self._appended_counter = self.metrics.counter(
            PROVENANCE_RECORDS_TOTAL, "Evidence records appended to the provenance log"
        )
        self._deduped_counter = self.metrics.counter(
            PROVENANCE_DEDUPED_TOTAL,
            "Evidence-record appends suppressed as duplicates",
        )
        self._ids: Set[str] = set()
        self._load()

    def _load(self) -> None:
        reader = SegmentReader(self.path)
        for record in reader:
            self._ids.add(record["id"])
        # Shear the partial frame off, so an append does not land behind it.
        if reader.cut():
            _log.warning(
                "provenance_log_torn_tail", path=self.path, kept_records=reader.count
            )

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, record_id: str) -> bool:
        return record_id in self._ids

    def append(self, record: dict) -> bool:
        """Archive one evidence record; returns False for known ids."""
        if record["id"] in self._ids:
            self._deduped_counter.inc()
            return False
        with open(self.path, "ab") as handle:
            handle.write(frame_payload(canonical_record_bytes(record)))
        self._ids.add(record["id"])
        self._appended_counter.inc()
        return True

    def append_many(self, records: List[dict]) -> int:
        appended = 0
        for record in records:
            if self.append(record):
                appended += 1
        return appended

    def records(self) -> List[dict]:
        """All archived records, append order (re-read from disk)."""
        return list(SegmentReader(self.path))

    def find(self, selector: str) -> Optional[dict]:
        """Newest archived record whose trace id starts with *selector*."""
        match: Optional[dict] = None
        for record in SegmentReader(self.path):
            if record["id"].startswith(selector):
                match = record
        return match
