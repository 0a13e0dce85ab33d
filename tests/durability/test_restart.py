"""What a restart reads and holds: the journal tail, the evidence
archive and the alert outbox are streamed from disk, so reopening them
costs memory for what is still live, not for the deployment's history.

The memory pins compare tracemalloc peaks of the same restart over a
short and a ten times longer history; the allowed growth is a constant
picked from measurement, well under what decoding the history costs.
"""

import numpy as np
import pytest

from repro.durability import (
    AlertOutbox,
    CallbackSink,
    DurableFleetGateway,
    EventJournal,
    ProvenanceLog,
    alert_record,
    frame_payload,
    replay_records,
)
from repro.durability.provenance import PROVENANCE_WAL
from repro.faults import (
    build_chaos_deployment,
    canonical_alerts,
    fleet_oracle,
    one_home_stream,
    tear_final_record,
)
from repro.faults.crash import _fresh_fleet
from repro.streaming import Alert
from repro.telemetry.provenance import canonical_record_bytes
from tests.conftest import traced_peak

#: Allowed peak growth from 200 to 2,000 records of history.  Holding
#: the ids measured 0.26 MiB (archive) and 0.54 MiB (outbox: journaled
#: ids plus ack outcomes); decoding the history, 5.7 and 3.1 MiB.
ARCHIVE_GROWTH_BYTES = 1 << 20  # 1 MiB
OUTBOX_GROWTH_BYTES = 3 << 19  # 1.5 MiB


def _evidence(seq: int) -> dict:
    """An evidence record with a short window chain (~0.5 KB of JSON)."""
    return {
        "schema": "dice-provenance/1",
        "id": f"{seq:032x}",
        "alert": {"home": "home-0000", "seq": seq, "kind": "detection"},
        "windows": [
            {"start": seq * 60.0 + i, "mask": f"{seq * 31 + i:064b}", "candidates": [[i, 2]]}
            for i in range(4)
        ],
    }


def _archive(directory, records: int) -> None:
    directory.mkdir()
    with open(directory / PROVENANCE_WAL, "wb") as handle:
        for seq in range(records):
            handle.write(frame_payload(canonical_record_bytes(_evidence(seq))))


def _alert_record(seq: int) -> dict:
    alert = Alert(
        kind="detection",
        time=100.0 + seq,
        check="order",
        devices=frozenset({f"motion_{seq % 7}", f"door_{seq % 5}"}),
    )
    return alert_record("home-0000", seq, alert)


def _delivered_outbox(directory, alerts: int) -> None:
    outbox = AlertOutbox(directory, CallbackSink(lambda _record: None))
    for seq in range(1, alerts + 1):
        outbox.offer(_alert_record(seq))
    outbox.deliver_pending()


class TestBoundedMemory:
    def test_archive_open_does_not_grow_with_history(self, tmp_path):
        peaks = []
        for records in (200, 2000):
            log_dir = tmp_path / str(records)
            _archive(log_dir, records)
            peak, log = traced_peak(lambda: ProvenanceLog(log_dir))
            assert len(log) == records
            peaks.append(peak)
        assert peaks[1] - peaks[0] <= ARCHIVE_GROWTH_BYTES, peaks

    def test_outbox_reopen_does_not_grow_with_history(self, tmp_path):
        peaks = []
        for alerts in (200, 2000):
            outbox_dir = tmp_path / str(alerts)
            _delivered_outbox(outbox_dir, alerts)
            sink = CallbackSink(lambda _record: None)
            peak, reopened = traced_peak(lambda: AlertOutbox(outbox_dir, sink))
            assert reopened.pending == []
            assert len(reopened.delivered_ids()) == alerts
            peaks.append(peak)
        assert peaks[1] - peaks[0] <= OUTBOX_GROWTH_BYTES, peaks


class TestJournalTail:
    def test_len_is_the_record_count_before_iteration(self, tmp_path):
        journal = EventJournal(tmp_path)
        for i in range(5):
            journal.append({"i": i})
        journal.rotate(1)
        for i in range(5, 8):
            journal.append({"i": i})
        journal.close()
        tail, torn = replay_records(tmp_path)
        assert (len(tail), torn) == (8, 0)
        assert [record["i"] for record in tail] == list(range(8))
        # A view, not a copy: it reads the same records again.
        assert [record["i"] for record in tail] == list(range(8))

    def test_len_excludes_the_torn_record(self, tmp_path):
        journal = EventJournal(tmp_path)
        for i in range(4):
            journal.append({"i": i})
        journal.close()
        path = journal.current_segment_path
        with open(path, "r+b") as handle:
            handle.truncate(handle.seek(0, 2) - 3)
        tail, torn = replay_records(tmp_path)
        assert (len(tail), torn) == (3, 1)
        assert [record["i"] for record in tail] == [0, 1, 2]


@pytest.fixture(scope="module")
def deployment():
    return build_chaos_deployment(42)


def test_second_crash_after_a_torn_recovery_still_recovers(deployment, tmp_path):
    # Life 1 dies mid-append; life 2 recovers, re-feeds the torn event and
    # dies too before any checkpoint.  Life 3 must replay both lives'
    # segments: the torn tail of life 1's segment, no longer the newest,
    # must have been cut on the way.
    home = deployment.home_id
    stream = one_home_stream(deployment)
    expected, _ = fleet_oracle([deployment], stream)
    assert expected[home]
    root = tmp_path / "journal"
    first_cut, second_cut = len(stream) // 3, 2 * len(stream) // 3

    def fresh():
        detectors = {home: deployment.fit_detector()}
        return detectors, _fresh_fleet([deployment], detectors, 1)

    first = DurableFleetGateway(fresh()[1], root)
    first.dispatch(stream[:first_cut])
    first.close()
    assert tear_final_record(
        str(root / home), stream[first_cut - 1][1], np.random.default_rng(0)
    )
    detectors, gateway = fresh()
    second, _ = DurableFleetGateway.recover(detectors, root, gateway=gateway)
    second.dispatch(stream[first_cut - 1:second_cut])
    second.close()
    detectors, gateway = fresh()
    third, _ = DurableFleetGateway.recover(detectors, root, gateway=gateway)
    third.dispatch(stream[second_cut:])
    third.finish({home: deployment.end})
    third.close()
    assert canonical_alerts(third.alerts_of(home)) == canonical_alerts(expected[home])
