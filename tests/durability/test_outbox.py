"""The alert outbox: journal-then-deliver, retries, dedup, dead letters.

At-least-once means exactly: every offered alert ends up acked either as
delivered or as dead (a dead letter), never silently dropped — across
flaky sinks, retry exhaustion, duplicate offers and process restarts.
"""

import json
import os

import pytest

from repro.durability import (
    AlertOutbox,
    CallbackSink,
    FileSink,
    FlakySink,
    alert_record,
)
from repro.durability.outbox import ACKS_WAL, OUTBOX_WAL
from repro.streaming import Alert
from repro.telemetry import MetricsRegistry


def _alert(time=100.0, kind="detection", devices=("motion_kitchen",)):
    return Alert(kind=kind, time=time, check="order", devices=frozenset(devices))


def _record(seq=1, **kwargs):
    return alert_record("home-0000", seq, _alert(**kwargs))


class RecordingSleep:
    def __init__(self):
        self.delays = []

    def __call__(self, seconds):
        self.delays.append(seconds)


class TestAlertRecord:
    def test_id_is_deterministic(self):
        assert _record()["id"] == _record()["id"]

    def test_id_covers_content_and_sequence(self):
        base = _record()["id"]
        assert _record(seq=2)["id"] != base
        assert _record(time=101.0)["id"] != base
        assert _record(devices=("motion_bedroom",))["id"] != base
        assert alert_record("home-0001", 1, _alert())["id"] != base


class TestDelivery:
    def test_file_sink_receives_every_alert(self, tmp_path):
        out_path = tmp_path / "alerts.jsonl"
        outbox = AlertOutbox(tmp_path / "outbox", FileSink(out_path))
        records = [_record(seq=i) for i in range(1, 4)]
        for record in records:
            assert outbox.offer(record)
        stats = outbox.deliver_pending()
        assert stats == {"delivered": 3, "dead": 0}
        lines = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert [line["id"] for line in lines] == [r["id"] for r in records]
        assert outbox.pending == []

    def test_flaky_sink_retries_with_backoff(self, tmp_path):
        sleep = RecordingSleep()
        sink = FlakySink(FileSink(tmp_path / "alerts.jsonl"), failures=2)
        outbox = AlertOutbox(
            tmp_path / "outbox",
            sink,
            max_attempts=4,
            base_delay=0.1,
            jitter=0.0,
            sleep=sleep,
        )
        outbox.offer(_record())
        assert outbox.deliver_pending() == {"delivered": 1, "dead": 0}
        # two failures → two backoff sleeps, exponentially spaced
        assert sleep.delays == [0.1, 0.2]
        assert len(sink.delivered) == 1

    def test_backoff_is_capped_and_jittered(self, tmp_path):
        outbox = AlertOutbox(
            tmp_path / "outbox",
            FileSink(tmp_path / "alerts.jsonl"),
            base_delay=1.0,
            max_delay=2.0,
            jitter=0.5,
        )
        for attempt in range(1, 8):
            delay = outbox._backoff(attempt)
            assert delay <= 2.0 * 1.5
            assert delay >= min(2.0, 1.0 * 2 ** (attempt - 1))

    def test_exhaustion_dead_letters(self, tmp_path):
        registry = MetricsRegistry()
        sink = FlakySink(FileSink(tmp_path / "alerts.jsonl"), failures=99)
        outbox = AlertOutbox(
            tmp_path / "outbox",
            sink,
            max_attempts=3,
            sleep=lambda _s: None,
            metrics=registry,
        )
        record = _record()
        outbox.offer(record)
        assert outbox.deliver_pending() == {"delivered": 0, "dead": 1}
        (entry,) = outbox.dead_letters()
        assert entry["record"]["id"] == record["id"]
        assert entry["attempts"] == 3
        assert "flaky sink" in entry["error"]
        # dead alerts are acked (as dead) so they stop blocking the queue
        assert outbox.pending == []
        assert outbox.delivered_ids() == []
        snapshot = registry.snapshot()["metrics"]
        assert (
            sum(r["value"] for r in snapshot["dice_outbox_dead_letter_total"]["series"])
            == 1
        )

    def test_duplicate_offers_suppressed(self, tmp_path):
        delivered = []
        outbox = AlertOutbox(tmp_path / "outbox", CallbackSink(delivered.append))
        record = _record()
        assert outbox.offer(record) is True
        assert outbox.offer(record) is False  # a replay re-offering history
        outbox.deliver_pending()
        assert len(delivered) == 1

    def test_invalid_max_attempts_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_attempts"):
            AlertOutbox(tmp_path, FileSink(tmp_path / "a"), max_attempts=0)

    def test_jitter_seed_makes_backoff_deterministic(self, tmp_path):
        """Chaos trials pin the retry schedule byte-for-byte: the same
        jitter_seed replays identical jittered delays, a different seed
        diverges (so trials don't accidentally share a schedule)."""

        def schedule(directory, seed):
            sleep = RecordingSleep()
            sink = FlakySink(FileSink(directory / "alerts.jsonl"), failures=3)
            outbox = AlertOutbox(
                directory / "outbox",
                sink,
                max_attempts=5,
                base_delay=0.1,
                jitter=0.5,
                sleep=sleep,
                jitter_seed=seed,
            )
            outbox.offer(_record())
            outbox.deliver_pending()
            return sleep.delays

        first = schedule(tmp_path / "a", seed=7)
        assert len(first) == 3
        assert any(delay > base for delay, base in zip(first, (0.1, 0.2, 0.4)))
        assert schedule(tmp_path / "b", seed=7) == first
        assert schedule(tmp_path / "c", seed=8) != first


class TestRestart:
    def test_unacked_alerts_redeliver_after_restart(self, tmp_path):
        # Crash between journal and delivery: the next incarnation of the
        # outbox must re-send exactly the unacked alerts.
        outbox_dir = tmp_path / "outbox"
        delivered = []
        first = AlertOutbox(outbox_dir, CallbackSink(delivered.append))
        acked_record, lost_record = _record(seq=1), _record(seq=2)
        first.offer(acked_record)
        first.deliver_pending()  # seq 1 delivered and acked
        first.offer(lost_record)  # seq 2 journaled, then "crash"

        second = AlertOutbox(outbox_dir, CallbackSink(delivered.append))
        assert [r["id"] for r in second.pending] == [lost_record["id"]]
        assert second.deliver_pending() == {"delivered": 1, "dead": 0}
        assert [r["id"] for r in delivered] == [acked_record["id"], lost_record["id"]]
        assert set(second.delivered_ids()) == {acked_record["id"], lost_record["id"]}

    def test_restart_does_not_resend_acked(self, tmp_path):
        outbox_dir = tmp_path / "outbox"
        delivered = []
        first = AlertOutbox(outbox_dir, CallbackSink(delivered.append))
        record = _record()
        first.offer(record)
        first.deliver_pending()

        second = AlertOutbox(outbox_dir, CallbackSink(delivered.append))
        assert second.pending == []
        assert second.deliver_pending() == {"delivered": 0, "dead": 0}
        assert len(delivered) == 1

    @staticmethod
    def _tear(path, cut=3):
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - cut)

    def test_offer_after_a_torn_outbox_log_survives_the_next_restart(self, tmp_path):
        # A crash tore the last outbox.wal frame.  The next life must cut
        # the partial frame before journaling, or its own alerts land
        # behind it, where no later restart can read them.
        outbox_dir = tmp_path / "outbox"
        delivered = []
        first = AlertOutbox(outbox_dir, CallbackSink(delivered.append))
        first.offer(_record(seq=1))
        first.offer(_record(seq=2))
        first.deliver_pending()
        self._tear(outbox_dir / OUTBOX_WAL)

        second = AlertOutbox(outbox_dir, CallbackSink(delivered.append))
        late = _record(seq=3)
        assert second.offer(late) is True

        third = AlertOutbox(outbox_dir, CallbackSink(delivered.append))
        assert [r["id"] for r in third.pending] == [late["id"]]
        assert third.deliver_pending() == {"delivered": 1, "dead": 0}
        assert delivered[-1]["id"] == late["id"]

    def test_ack_after_a_torn_ack_log_survives_the_next_restart(self, tmp_path):
        # The torn ack is redelivered once (at-least-once); its new ack
        # must be readable, or every later restart redelivers it again.
        outbox_dir = tmp_path / "outbox"
        delivered = []
        first = AlertOutbox(outbox_dir, CallbackSink(delivered.append))
        kept, torn = _record(seq=1), _record(seq=2)
        first.offer(kept)
        first.offer(torn)
        first.deliver_pending()
        self._tear(outbox_dir / ACKS_WAL)

        second = AlertOutbox(outbox_dir, CallbackSink(delivered.append))
        assert [r["id"] for r in second.pending] == [torn["id"]]
        assert second.deliver_pending() == {"delivered": 1, "dead": 0}

        third = AlertOutbox(outbox_dir, CallbackSink(delivered.append))
        assert third.pending == []
        assert set(third.delivered_ids()) == {kept["id"], torn["id"]}
        assert [r["id"] for r in delivered] == [kept["id"], torn["id"], torn["id"]]
