"""Provenance recorder: trace ids, ring bounds, state round trip, rendering."""

import json

import pytest

from repro.core.checks import TransitionCase
from repro.streaming import Alert
from repro.telemetry.provenance import (
    DEFAULT_CAPACITY,
    NULL_PROVENANCE,
    PROVENANCE_SCHEMA,
    ProvenanceRecorder,
    alert_body,
    canonical_record_bytes,
    render_explanation,
    trace_id,
)


def _alert(time=10.0, kind="detection", **kw):
    return Alert(kind, time, check="correlation", **kw)


class TestTraceId:
    def test_id_is_stable_over_key_order(self):
        body = alert_body("h", 1, _alert())
        shuffled = dict(reversed(list(body.items())))
        assert trace_id(body) == trace_id(shuffled)

    def test_id_depends_on_home_seq_and_content(self):
        a = _alert()
        base = trace_id(alert_body("h", 1, a))
        assert trace_id(alert_body("g", 1, a)) != base
        assert trace_id(alert_body("h", 2, a)) != base
        assert trace_id(alert_body("h", 1, _alert(time=11.0))) != base

    def test_id_matches_outbox_record_id(self):
        # The whole point of the shared scheme: ids read off a delivered
        # alerts file select the matching evidence record verbatim.
        from repro.durability import alert_record

        alert = _alert(
            kind="identification",
            cases=(TransitionCase.G2G,),
            devices=frozenset({"fridge"}),
        )
        record = alert_record("houseA", 7, alert)
        assert record["id"] == trace_id(alert_body("houseA", 7, alert))

    def test_canonical_bytes_are_compact_and_sorted(self):
        payload = json.loads(
            canonical_record_bytes({"b": 1, "a": [2.5]}).decode("utf-8")
        )
        assert payload == {"a": [2.5], "b": 1}
        assert canonical_record_bytes({"b": 1, "a": [2.5]}) == b'{"a":[2.5],"b":1}'


class TestRecorder:
    def test_record_seals_schema_id_and_seq(self):
        rec = ProvenanceRecorder(home_id="houseA")
        record = rec.record(_alert(), windows=[{"window": 3}], latency=2.5)
        assert record["schema"] == PROVENANCE_SCHEMA
        assert record["alert"]["seq"] == 1
        assert record["alert"]["home"] == "houseA"
        assert record["detection_latency_seconds"] == 2.5
        assert record["id"] == trace_id(record["alert"])
        assert rec.records() == [record]
        assert rec.last() is record

    def test_negative_latency_clamps_to_zero(self):
        rec = ProvenanceRecorder()
        assert rec.record(_alert(), windows=[], latency=-1.0)[
            "detection_latency_seconds"
        ] == 0.0

    def test_ring_is_bounded(self):
        rec = ProvenanceRecorder(capacity=3)
        for i in range(5):
            rec.record(_alert(time=float(i)), windows=[])
        kept = rec.records()
        assert len(kept) == 3
        assert [r["alert"]["seq"] for r in kept] == [3, 4, 5]
        assert rec.seq == 5  # seq keeps counting past evictions

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ProvenanceRecorder(capacity=0)

    def test_find_by_prefix_returns_newest_match(self):
        rec = ProvenanceRecorder()
        first = rec.record(_alert(time=1.0), windows=[])
        second = rec.record(_alert(time=2.0), windows=[])
        assert rec.find(second["id"][:8]) == second
        assert rec.find(first["id"]) == first
        assert rec.find("nope") is None

    def test_drain_unjournaled_clears_the_queue(self):
        rec = ProvenanceRecorder()
        a = rec.record(_alert(time=1.0), windows=[])
        assert rec.drain_unjournaled() == [a]
        assert rec.drain_unjournaled() == []
        b = rec.record(_alert(time=2.0), windows=[])
        assert rec.drain_unjournaled() == [b]

    def test_state_round_trip_is_exact(self):
        rec = ProvenanceRecorder(home_id="h", capacity=8)
        rec.record(_alert(time=1.0), windows=[{"window": 1}], context={"k": 2})
        rec.chain = [{"window": 2}]
        state = json.loads(json.dumps(rec.state_dict()))  # via JSON, as a checkpoint
        restored = ProvenanceRecorder(home_id="h", capacity=8)
        restored.load_state(state)
        assert restored.seq == rec.seq
        assert restored.records() == rec.records()
        assert restored.chain == rec.chain
        # Restored records wait for an archive like fresh ones: the next
        # drain hands them over (an archive dedups by id).
        assert restored.drain_unjournaled() == rec.records()
        assert restored.records() == []

    def test_load_state_none_resets(self):
        rec = ProvenanceRecorder()
        rec.record(_alert(), windows=[])
        rec.chain = [{"window": 1}]
        rec.load_state(None)  # a snapshot taken with provenance off
        assert rec.seq == 0
        assert rec.records() == []
        assert rec.chain == []

    def test_default_capacity(self):
        assert ProvenanceRecorder().capacity == DEFAULT_CAPACITY


class TestNullProvenance:
    def test_every_operation_is_a_noop(self):
        assert NULL_PROVENANCE.enabled is False
        assert NULL_PROVENANCE.record(_alert(), windows=[], latency=1.0) is None
        assert NULL_PROVENANCE.records() == []
        assert NULL_PROVENANCE.last() is None
        assert NULL_PROVENANCE.find("x") is None
        assert NULL_PROVENANCE.drain_unjournaled() == []
        assert NULL_PROVENANCE.state_dict() is None
        NULL_PROVENANCE.load_state({"seq": 9})  # ignored


class TestRendering:
    def _detection_record(self):
        rec = ProvenanceRecorder(home_id="houseA")
        return rec.record(
            _alert(),
            windows=[
                {
                    "window": 495,
                    "start": 100.0,
                    "end": 160.0,
                    "mask": "1008",
                    "actuators": [],
                    "correlation": {
                        "violation": True,
                        "main_group": None,
                        "candidates": [[5, 1]],
                        "max_distance": 1,
                    },
                    "transitions": [],
                }
            ],
            latency=3.0,
            context={"groups": 10, "max_distance": 1, "quarantined": []},
        )

    def test_detection_narrative(self):
        text = render_explanation(self._detection_record())
        assert "correlation violation" in text
        assert "group 5 at Hamming distance 1" in text
        assert "mask 0x1008" in text
        assert "detection latency: 3.0 s" in text
        assert "10 trained groups" in text

    def test_transition_narrative(self):
        rec = ProvenanceRecorder()
        record = rec.record(
            Alert("identification", 20.0, check="transition",
                  devices=frozenset({"fridge"})),
            windows=[
                {
                    "window": 1,
                    "start": 0.0,
                    "end": 60.0,
                    "mask": "3",
                    "actuators": ["hue"],
                    "correlation": {
                        "violation": False,
                        "main_group": 2,
                        "candidates": [],
                        "max_distance": 1,
                    },
                    "transitions": [
                        {
                            "case": "g2g",
                            "prev_group": 1,
                            "cur_group": 2,
                            "probability": 0.0,
                            "count": 0,
                            "row_total": 14,
                        }
                    ],
                }
            ],
        )
        text = render_explanation(record)
        assert "probable faulty device(s): fridge" in text
        assert "transition violation (g2g)" in text
        assert "group 1 -> group 2" in text
        assert "0/14 observations" in text

    def test_health_narrative(self):
        rec = ProvenanceRecorder()
        record = rec.record(
            Alert("device_silence", 30.0, devices=frozenset({"fridge"})),
            windows=[],
            context={
                "device": "fridge",
                "previous": "degraded",
                "current": "quarantined",
                "reason": "silence",
            },
        )
        text = render_explanation(record)
        assert "device fridge: degraded -> quarantined" in text
        assert "no window evidence" in text
