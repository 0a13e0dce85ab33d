"""The benchmark's own arithmetic, on synthetic inputs.

Run with ``python3 -m pytest perfbench/tests -q`` from the repo root.
"""

import math

import pytest

import ledger
import workloads


# -- triggering-event attribution -------------------------------------- #


def test_in_order_trigger_is_first_event_past_the_lateness_budget():
    sent = [0.0, 10.0, 20.0, 60.0, 70.0, 89.0, 90.0, 95.0]
    ok = [True] * len(sent)
    # Alert at 55: the first event at or after it is 60, and 60 is released
    # once an event >= 60 + 30 arrives -> 90 at index 6.
    assert ledger.trigger_indices([55.0], sent, ok, 30.0) == [6]
    # An alert exactly at an event time uses that event.
    assert ledger.trigger_indices([60.0], sent, ok, 30.0) == [6]


def test_reordered_arrivals_use_send_order():
    # 100 arrives before 90: it is the first sent event >= 90.
    sent = [0.0, 60.0, 100.0, 90.0, 130.0]
    assert ledger.trigger_indices([55.0], sent, [True] * 5, 30.0) == [2]


def test_trigger_waits_for_the_decisive_event_itself():
    # 95 (>= 60 + 30) arrives before the event at 60 that closes the window.
    sent = [0.0, 95.0, 60.0, 120.0]
    assert ledger.trigger_indices([55.0], sent, [True] * 4, 30.0) == [2]


def test_duplicate_arrivals_count_once():
    sent = [0.0, 60.0, 60.0, 90.0, 90.0]
    assert ledger.trigger_indices([55.0], sent, [True] * 5, 30.0) == [3]


def test_events_the_guard_drops_never_trigger():
    sent = [0.0, 60.0, 95.0, 97.0]
    ok = [True, True, False, True]  # the 95 carried a non-finite value
    assert ledger.trigger_indices([55.0], sent, ok, 30.0) == [3]
    # ...nor define T: the first admitted event at or after 90 is 97.
    assert ledger.trigger_indices([90.0], sent, ok, 30.0) == [None]


def test_alerts_concluded_by_end_have_no_trigger():
    sent = [0.0, 60.0, 80.0]
    ok = [True] * 3
    # No event >= 60 + 30 was ever sent; nothing at or after 100 either.
    assert ledger.trigger_indices([55.0, 100.0], sent, ok, 30.0) == [None, None]


# -- percentiles --------------------------------------------------------- #


def test_p99_needs_ten_samples_beyond_it():
    assert ledger.percentile(list(range(999)), 99.0) is None
    values = [float(v) for v in range(1, 1001)]
    assert ledger.samples_beyond(1000, 99.0) == 10
    assert ledger.percentile(values, 99.0) == pytest.approx(990.01)


def test_p50_needs_twenty_samples():
    assert ledger.percentile(list(range(19)), 50.0) is None
    assert ledger.percentile([float(v) for v in range(20)], 50.0) == pytest.approx(9.5)


def test_latency_summary_reports_counts():
    summary = ledger.latency_summary([1.0] * 25)
    assert summary == {"n": 25, "p50": 1.0, "p99": None, "max": 1.0}
    assert ledger.latency_summary([]) == {"n": 0, "p50": None, "p99": None, "max": None}


# -- self time of nested spans ----------------------------------------- #


def test_self_time_subtracts_children_once():
    spans = [
        (0, 100, -1),  # root
        (10, 30, 0),
        (40, 50, 0),
        (12, 20, 1),  # grandchild: counts against its parent only
    ]
    assert ledger.self_times(spans).tolist() == [70, 12, 10, 8]


# -- failed_ratio accounting ------------------------------------------- #


def test_failure_accounting_counts_events_and_alert_ids():
    acc = ledger.failure_accounting(
        events_sent={"a": 100, "b": 50},
        events_applied={"a": 100, "b": 48},
        expected_ids={"a": ["x", "y"], "b": ["z"]},
        delivered_ids={"a": ["x", "x", "y", "q"], "b": []},
    )
    assert acc["attempted"] == 100 + 50 + 3
    assert acc["unapplied_events"] == 2
    assert acc["missing_alerts"] == 1  # z
    assert acc["unknown_alerts"] == 1  # q
    assert acc["duplicate_deliveries"] == 1  # x twice: at-least-once
    assert acc["failed"] == 4
    assert acc["failed_ratio"] == pytest.approx(4 / 153)


def test_failure_accounting_clean_run_is_zero():
    acc = ledger.failure_accounting({"a": 3}, {"a": 3}, {"a": ["x"]}, {"a": ["x"]})
    assert acc["failed"] == 0 and acc["failed_ratio"] == 0.0


# -- open-loop schedule ---------------------------------------------------- #


def test_open_schedule_keeps_bursts_at_a_fixed_mean_rate():
    home = workloads.ServedHome("h", None, None, 0.0)
    home.arrival = [0.0, 1.0, 2.0, 100.0, 101.0, 200.0]
    phase = workloads.Phase("open", {"h": (1, 6)})
    schedule = workloads.open_schedule([home], phase, rate=10.0)
    offsets = [offset for offset, _h, _i in schedule]
    # Five events at 10/s span 0.5 s; event-time gaps keep their ratios.
    assert offsets[0] == 0.0
    assert offsets[-1] == pytest.approx(0.5)
    assert offsets[1] == pytest.approx(0.5 * 1.0 / 199.0)
    assert [i for _o, _h, i in schedule] == [1, 2, 3, 4, 5]
    assert all(math.isfinite(o) for o in offsets)
