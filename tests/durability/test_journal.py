"""The write-ahead journal: framing, fsync policy, rotation, torn tails.

The journal's one job is that what was appended is what replays — byte
round trips (including non-finite floats from corrupt pipe values),
epoch bookkeeping that survives restarts, and CRC detection of the
partial record a crash mid-write leaves behind.
"""

import math
import os
import random

import pytest

from repro.durability import (
    FSYNC_POLICIES,
    MAX_RECORD_BYTES,
    DurableFleetGateway,
    EventJournal,
    JournalError,
    encode_event_frame,
    encode_record,
    event_to_record,
    frame_payload,
    list_segments,
    read_segment,
    record_to_event,
    replay_records,
    segment_name,
)
from repro.faults.crash import _fresh_fleet, build_chaos_deployment, one_home_stream
from repro.fleet import FleetGateway
from repro.model import Event
from repro.telemetry import MetricsRegistry


def _records(path):
    records, torn = read_segment(path)
    assert not torn
    return records


class TestFraming:
    def test_round_trip(self, tmp_path):
        journal = EventJournal(tmp_path)
        records = [
            {"type": "event", "t": 1.5, "d": "motion_kitchen", "v": 1.0},
            {"type": "event", "t": 2.25, "d": "temp", "v": -273.15},
            {"type": "mark", "note": "unicode éè€"},
        ]
        for record in records:
            journal.append(record)
        journal.close()
        assert _records(journal.current_segment_path) == records

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf"), 1e-310, 1e308, -0.0]
    )
    def test_non_finite_and_extreme_floats_round_trip(self, tmp_path, value):
        # Corrupt pipe faults produce NaN/inf values; the journal must
        # carry them to the guard (which is what drops them) unchanged.
        journal = EventJournal(tmp_path)
        journal.append(event_to_record(Event(10.0, "d", value)))
        journal.close()
        (record,) = _records(journal.current_segment_path)
        out = record_to_event(record).value
        if math.isnan(value):
            assert math.isnan(out)
        else:
            assert out == value

    def test_fast_event_frame_is_byte_identical(self):
        rng = random.Random(11)
        events = [
            Event(0.0, "motion_kitchen", 1.0),
            Event(1234.5678, 'temp_röom "x"', -3.25),
            Event(float("nan"), "d", float("inf")),
            Event(float("-inf"), "d", float("nan")),
            Event(-0.0, "d", 0.1 + 0.2),
        ] + [
            Event(rng.uniform(-1e9, 1e9), f"dev_{rng.randrange(8)}", rng.uniform(-1e6, 1e6))
            for _ in range(200)
        ]
        for event in events:
            assert encode_event_frame(event) == encode_record(event_to_record(event))

    def test_oversize_record_rejected(self):
        with pytest.raises(JournalError, match="exceeds"):
            frame_payload(b"x" * (MAX_RECORD_BYTES + 1))

    def test_append_frame_equals_append(self, tmp_path):
        a = EventJournal(tmp_path / "a")
        b = EventJournal(tmp_path / "b")
        event = Event(5.0, "motion_kitchen", 1.0)
        a.append(event_to_record(event))
        b.append_frame(encode_event_frame(event))
        a.close(), b.close()
        assert (
            open(a.current_segment_path, "rb").read()
            == open(b.current_segment_path, "rb").read()
        )


class TestPolicy:
    """The fsync policy is the durable gateway's: it decides what the
    commit at the end of every dispatch adds to writing the batch."""

    @pytest.fixture(scope="class")
    def deployment(self):
        return build_chaos_deployment(42)

    def test_rejects_unknown_fsync_policy(self, tmp_path):
        with pytest.raises(ValueError, match="fsync"):
            DurableFleetGateway(FleetGateway(1), tmp_path, fsync="sometimes")

    @pytest.mark.parametrize("fsync", FSYNC_POLICIES)
    def test_policies_all_persist(self, deployment, tmp_path, fsync):
        detectors = {deployment.home_id: deployment.fit_detector()}
        durable = DurableFleetGateway(
            _fresh_fleet([deployment], detectors, 1), tmp_path, fsync=fsync
        )
        durable.dispatch(one_home_stream(deployment)[:5])
        # Whatever was not committed dies with the gateway, as under kill -9.
        durable.close(drop=True)
        (segment,) = list_segments(tmp_path / deployment.home_id)
        assert _records(segment[1]) == [
            event_to_record(event) for event in deployment.events[:5]
        ]


class TestRotation:
    def test_rotate_and_truncate(self, tmp_path):
        journal = EventJournal(tmp_path)
        journal.append({"epoch": 0})
        journal.rotate(1)
        journal.append({"epoch": 1})
        assert [e for e, _ in journal.segments()] == [0, 1]
        removed = journal.truncate_through(0)
        assert removed == 1
        assert [e for e, _ in journal.segments()] == [1]
        journal.close()

    def test_rotate_persists_epoch_without_appends(self, tmp_path):
        # The checkpoint cycle is rotate(e+1) + truncate_through(e); if the
        # fresh segment were created lazily on first append, a crash right
        # after the cycle would leave an empty directory and the next life
        # would restart at the superseded epoch 0 — whose appends a later
        # recovery (after_epoch from the checkpoint) silently skips.
        journal = EventJournal(tmp_path)
        journal.append({"i": 0})
        journal.rotate(1)
        journal.truncate_through(0)
        journal.close()
        assert os.path.exists(tmp_path / segment_name(1))
        reopened = EventJournal(tmp_path)
        assert reopened.epoch == 1
        reopened.close()

    def test_rotate_backwards_rejected(self, tmp_path):
        journal = EventJournal(tmp_path)
        journal.append({"i": 0})
        journal.rotate(3)
        with pytest.raises(ValueError, match="backwards"):
            journal.rotate(2)
        journal.close()

    def test_replay_respects_after_epoch(self, tmp_path):
        journal = EventJournal(tmp_path)
        journal.append({"epoch": 0})
        journal.rotate(1)
        journal.append({"epoch": 1})
        journal.rotate(2)
        journal.append({"epoch": 2})
        journal.close()
        records, torn = replay_records(tmp_path, after_epoch=0)
        assert torn == 0
        assert list(records) == [{"epoch": 1}, {"epoch": 2}]

    def test_counters(self, tmp_path):
        registry = MetricsRegistry()
        journal = EventJournal(tmp_path, metrics=registry)
        journal.append({"i": 0})
        journal.append({"i": 1})
        journal.rotate(1)
        journal.truncate_through(0)
        journal.close()
        snapshot = registry.snapshot()["metrics"]

        def total(name):
            return sum(row["value"] for row in snapshot[name]["series"])

        assert total("dice_journal_appends_total") == 2
        assert total("dice_journal_rotations_total") == 1
        assert total("dice_journal_truncated_segments_total") == 1


class TestTornTail:
    def _tear(self, path, cut):
        size = os.path.getsize(path)
        with open(path, "ab") as handle:
            handle.truncate(size - cut)

    def test_torn_tail_detected_and_discarded(self, tmp_path):
        journal = EventJournal(tmp_path)
        frames = [event_to_record(Event(float(i), "d", 1.0)) for i in range(4)]
        for record in frames:
            journal.append(record)
        journal.close()
        last_frame = len(encode_record(frames[-1]))
        for cut in (1, last_frame // 2, last_frame - 1):
            journal2 = EventJournal(tmp_path / f"cut{cut}")
            for record in frames:
                journal2.append(record)
            journal2.close()
            self._tear(journal2.current_segment_path, cut)
            records, torn = read_segment(journal2.current_segment_path)
            assert torn
            assert records == frames[:-1]

    def test_torn_tail_counted_in_replay(self, tmp_path):
        registry = MetricsRegistry()
        journal = EventJournal(tmp_path)
        journal.append({"i": 0})
        journal.append({"i": 1})
        journal.close()
        self._tear(journal.current_segment_path, 3)
        records, torn = replay_records(tmp_path, metrics=registry)
        assert list(records) == [{"i": 0}]
        assert torn == 1
        entry = registry.snapshot()["metrics"]["dice_journal_torn_records_total"]
        assert sum(row["value"] for row in entry["series"]) == 1

    def test_torn_record_in_non_final_segment_raises(self, tmp_path):
        # A torn record is only legal where a crash can land: the newest
        # segment.  Anywhere earlier means history was lost before later
        # segments were written — replaying across the gap would silently
        # reorder the stream, so it must refuse.
        journal = EventJournal(tmp_path)
        journal.append({"epoch": 0})
        journal.log.flush()
        self._tear(journal.current_segment_path, 2)
        journal.rotate(1)
        journal.append({"epoch": 1})
        journal.close()
        with pytest.raises(JournalError, match="not the newest"):
            replay_records(tmp_path)

    def test_garbage_length_field_is_torn(self, tmp_path):
        path = tmp_path / segment_name(0)
        with open(path, "wb") as handle:
            handle.write(encode_record({"ok": 1}))
            handle.write(b"\xff\xff\xff\xff\x00\x00\x00\x00garbage")
        records, torn = read_segment(path)
        assert records == [{"ok": 1}]
        assert torn

    def test_crc_mismatch_is_torn(self, tmp_path):
        path = tmp_path / segment_name(0)
        frame = bytearray(encode_record({"ok": 1}))
        frame[-1] ^= 0xFF  # flip one payload bit: CRC must catch it
        with open(path, "wb") as handle:
            handle.write(bytes(frame))
        records, torn = read_segment(path)
        assert records == []
        assert torn


def test_list_segments_orders_and_filters(tmp_path):
    for epoch in (3, 0, 12):
        (tmp_path / segment_name(epoch)).write_bytes(b"")
    (tmp_path / "not-a-segment.wal").write_bytes(b"")
    (tmp_path / "journal-0001.wal").write_bytes(b"")  # wrong width
    assert [e for e, _ in list_segments(tmp_path)] == [0, 3, 12]
    assert list_segments(tmp_path / "missing") == []
