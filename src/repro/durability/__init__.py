"""Durability layer: write-ahead journal, at-least-once alert outbox,
and crash recovery for the durable gateway (a single home runs as a
one-home fleet).

The contract, pinned by the chaos harness (:mod:`repro.faults.crash`):
for any crash point — including one that tears the final journal record
mid-write — ``checkpoint + journal-tail replay`` reproduces the exact
alert stream of an uninterrupted run, and every alert is delivered to its
sink at least once (with dead-letters recorded after retry exhaustion).
"""

from .. import _lazy_exports

#: Each exported name, by the submodule that defines it.  The package
#: imports them on first access, so a reader of the frame codec in
#: :mod:`.journal` (the wire protocol, the CLI parser) does not load the
#: gateway stack behind :mod:`.fleet` and :mod:`.outbox`.
__all__, __getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "journal": (
            "FSYNC_POLICIES",
            "JOURNAL_APPENDS_TOTAL",
            "JOURNAL_REPLAYED_TOTAL",
            "JOURNAL_ROTATIONS_TOTAL",
            "JOURNAL_TORN_TOTAL",
            "JOURNAL_TRUNCATED_TOTAL",
            "MAX_RECORD_BYTES",
            "EventJournal",
            "JournalError",
            "SegmentReader",
            "encode_record",
            "frame_payload",
            "list_segments",
            "read_segment",
            "replay_records",
            "segment_name",
        ),
        "outbox": (
            "OUTBOX_DEAD_LETTER_TOTAL",
            "OUTBOX_DEDUPED_TOTAL",
            "OUTBOX_DELIVERED_TOTAL",
            "OUTBOX_OFFERED_TOTAL",
            "OUTBOX_RETRIES_TOTAL",
            "AlertOutbox",
            "AlertSink",
            "CallbackSink",
            "FileSink",
            "FlakySink",
            "alert_record",
        ),
        "provenance": (
            "PROVENANCE_DEDUPED_TOTAL",
            "PROVENANCE_RECORDS_TOTAL",
            "PROVENANCE_WAL",
            "ProvenanceLog",
        ),
        "runtime": (
            "RECOVERY_SECONDS_HISTOGRAM",
            "encode_event_frame",
            "event_to_record",
            "record_to_event",
        ),
        "fleet": ("DurableFleetGateway",),
    },
)
