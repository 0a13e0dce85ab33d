"""The benchmark's own arithmetic, kept free of I/O so it can be tested.

* :func:`percentile` — a percentile is reported only when at least ten
  samples lie beyond it (p99 needs 1000 samples, p50 needs 20).
* :func:`trigger_indices` — which sent event made the gateway emit an
  alert (the start point of alert and detect latency).
* :func:`self_times` — a span's duration minus its child spans'.
* :func:`failure_accounting` — attempted and failed operations of a
  served run, judged against the in-process oracle.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

#: Samples that must lie beyond a reported percentile.
MIN_SAMPLES_BEYOND = 10


def samples_beyond(n: int, q: float) -> int:
    """How many of *n* sorted samples lie above the *q*-th percentile rank."""
    return n - math.ceil(n * q / 100.0 - 1e-9)


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The *q*-th percentile (linear interpolation between closest ranks),
    or ``None`` when fewer than :data:`MIN_SAMPLES_BEYOND` samples lie
    beyond it."""
    n = len(values)
    if n == 0 or samples_beyond(n, q) < MIN_SAMPLES_BEYOND:
        return None
    ordered = sorted(values)
    rank = (n - 1) * q / 100.0
    lo = int(math.floor(rank))
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def latency_summary(values: Sequence[float]) -> dict:
    """p50/p99/max with the sample count; unsupported percentiles are None."""
    return {
        "n": len(values),
        "p50": percentile(values, 50.0),
        "p99": percentile(values, 99.0),
        "max": max(values) if values else None,
    }


# --------------------------------------------------------------------- #
# Triggering-event attribution
# --------------------------------------------------------------------- #


def trigger_indices(
    alert_times: Sequence[float],
    sent_timestamps: Sequence[float],
    admitted: Sequence[bool],
    lateness: float,
) -> List[Optional[int]]:
    """Index (in send order) of the event that let each alert fire.

    The gateway decides an alert at time *t* when it releases the first
    event at or after *t*; call that event's timestamp T.  The reorder
    buffer releases T only once an event with timestamp ``>= T + lateness``
    has arrived, so the triggering event is the first sent event with such
    a timestamp — and, when arrivals are reordered, not before the event
    at T itself was sent.  Events the ingest guard drops (non-finite
    values) reach neither the windower nor the reorder buffer and are
    skipped.  Duplicate arrivals change nothing: the first copy counts.

    Returns ``None`` for an alert no sent event can trigger — one that
    the stream's ``end`` concluded.
    """
    admitted_ts = [ts for ts, ok in zip(sent_timestamps, admitted) if ok]
    ordered_ts = sorted(admitted_ts)
    # First send index of each admitted timestamp, and the running maximum
    # of admitted timestamps in send order (non-decreasing, so bisectable).
    first_sent: Dict[float, int] = {}
    running: List[float] = []
    running_index: List[int] = []
    high = -math.inf
    for index, (ts, ok) in enumerate(zip(sent_timestamps, admitted)):
        if not ok:
            continue
        first_sent.setdefault(ts, index)
        if ts > high:
            high = ts
            running.append(ts)
            running_index.append(index)
    out: List[Optional[int]] = []
    for t in alert_times:
        k = bisect.bisect_left(ordered_ts, t)
        if k == len(ordered_ts):
            out.append(None)
            continue
        first_t = ordered_ts[k]
        j = bisect.bisect_left(running, first_t + lateness)
        if j == len(running):
            out.append(None)
            continue
        out.append(max(running_index[j], first_sent[first_t]))
    return out


# --------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------- #


def self_times(spans) -> "np.ndarray":
    """Self time of each ``(start, end, parent_index)`` span: its duration
    minus the durations of its direct children.

    ``parent_index`` is -1 for a root span.  The recorder's wrappers are
    synchronous and stack-based, so children run one after another inside
    their parent and never overlap.  Accepts a sequence of triples or an
    ``(n, 3)`` integer array.
    """
    arr = np.asarray(spans, dtype=np.int64).reshape(-1, 3)
    durations = arr[:, 1] - arr[:, 0]
    parents = arr[:, 2]
    kids = parents >= 0
    own = durations.astype(np.float64)
    own -= np.bincount(parents[kids], weights=durations[kids], minlength=len(own))
    return own


# --------------------------------------------------------------------- #
# Correctness accounting
# --------------------------------------------------------------------- #


def failure_accounting(
    events_sent: Dict[str, int],
    events_applied: Dict[str, int],
    expected_ids: Dict[str, Iterable[str]],
    delivered_ids: Dict[str, Sequence[str]],
) -> dict:
    """Attempted/failed operations of one served run.

    Operations are the events of every home plus the alerts the oracle
    expects.  An event fails when the server never applied it (the final
    ``fin``/``synced`` count falls short).  An expected alert that was
    never delivered fails, and so does a delivered id the oracle does not
    know.  Repeated deliveries of a known id are at-least-once delivery:
    counted as duplicates, not failures.
    """
    homes = sorted(set(events_sent) | set(expected_ids) | set(delivered_ids))
    unapplied = missing = unknown = duplicates = 0
    attempted = 0
    for home in homes:
        sent = int(events_sent.get(home, 0))
        applied = int(events_applied.get(home, 0))
        unapplied += max(0, sent - applied)
        expected = set(expected_ids.get(home, ()))
        delivered = list(delivered_ids.get(home, ()))
        seen = set(delivered)
        missing += len(expected - seen)
        unknown += len(seen - expected)
        duplicates += len(delivered) - len(seen)
        attempted += sent + len(expected)
    failed = unapplied + missing + unknown
    return {
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted if attempted else 0.0,
        "unapplied_events": unapplied,
        "missing_alerts": missing,
        "unknown_alerts": unknown,
        "duplicate_deliveries": duplicates,
    }
