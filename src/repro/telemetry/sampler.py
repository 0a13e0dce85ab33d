"""Time-series sampling over metrics snapshots (the dashboard's engine).

A :class:`~repro.telemetry.MetricsRegistry` snapshot is a point-in-time
document; a dashboard needs *rates* and *percentiles*.  The
:class:`SnapshotSampler` keeps a bounded ring of ``(t, snapshot)`` pairs
and derives both on demand:

* counter **rates** — the delta between the two newest samples divided by
  their time gap (optionally split per label value, e.g. events/s per
  fleet shard);
* histogram **quantiles** — linear interpolation over the cumulative
  bucket counts of the newest snapshot, Prometheus ``histogram_quantile``
  style;
* **SLO burn** — an observed bad/total ratio divided by the budgeted
  ratio, so ``1.0`` means "burning exactly the error budget".

Everything is a pure function of the sampled snapshots: the sampler never
reads clocks or counters itself, which keeps it trivially testable.
``repro top`` is the one live viewer: it feeds the sampler a re-read
snapshot per refresh and prints :func:`render_dashboard`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

#: Default ring capacity: at the dashboard's default 2 s refresh this is
#: four minutes of history.
DEFAULT_SAMPLES = 120


def _series_rows(snapshot: dict, name: str) -> List[dict]:
    entry = snapshot.get("metrics", {}).get(name)
    if entry is None:
        return []
    return entry.get("series", [])


def _matches(row: dict, labels: Optional[dict]) -> bool:
    if not labels:
        return True
    have = row.get("labels", {})
    return all(have.get(k) == v for k, v in labels.items())


def counter_total(snapshot: dict, name: str, labels: Optional[dict] = None) -> float:
    """Sum of a counter/gauge family's matching series in one snapshot."""
    return sum(
        row.get("value", 0.0)
        for row in _series_rows(snapshot, name)
        if _matches(row, labels)
    )


def label_totals(snapshot: dict, name: str, label: str) -> Dict[str, float]:
    """Per-label-value totals of one family (e.g. events per shard)."""
    totals: Dict[str, float] = {}
    for row in _series_rows(snapshot, name):
        key = row.get("labels", {}).get(label)
        if key is None:
            continue
        totals[key] = totals.get(key, 0.0) + row.get("value", 0.0)
    return totals


def histogram_quantile(
    snapshot: dict, name: str, q: float, labels: Optional[dict] = None
) -> Optional[float]:
    """Prometheus-style quantile from cumulative bucket counts.

    Linear interpolation within the bucket that crosses the target rank;
    the open-ended overflow bucket reports the largest finite bound (there
    is nothing sound to interpolate towards).  ``None`` when the family is
    missing or has no observations.
    """
    entry = snapshot.get("metrics", {}).get(name)
    if entry is None or entry.get("type") != "histogram":
        return None
    bounds = entry.get("buckets", [])
    counts = [0] * (len(bounds) + 1)
    for row in entry.get("series", []):
        if not _matches(row, labels):
            continue
        for i, c in enumerate(row.get("bucket_counts", [])):
            counts[i] += c
    total = sum(counts)
    if total == 0:
        return None
    q = min(1.0, max(0.0, q))
    rank = q * total
    cumulative = 0
    for i, count in enumerate(counts):
        if count == 0:
            continue
        if cumulative + count >= rank:
            if i >= len(bounds):
                return float(bounds[-1]) if bounds else None
            lower = bounds[i - 1] if i > 0 else 0.0
            upper = bounds[i]
            within = (rank - cumulative) / count
            return float(lower + (upper - lower) * within)
        cumulative += count
    return float(bounds[-1]) if bounds else None


class SnapshotSampler:
    """Bounded ring of timestamped snapshots with rate/quantile views."""

    def __init__(self, capacity: int = DEFAULT_SAMPLES) -> None:
        if capacity < 2:
            raise ValueError("capacity must be at least 2 (rates need a pair)")
        self.capacity = int(capacity)
        self._samples: Deque[Tuple[float, dict]] = deque(maxlen=self.capacity)

    def add(self, t: float, snapshot: dict) -> None:
        """Record one snapshot taken at time *t* (monotone in practice;
        out-of-order samples simply yield ``None`` rates)."""
        self._samples.append((float(t), snapshot))

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def latest(self) -> Optional[dict]:
        return self._samples[-1][1] if self._samples else None

    @property
    def span_seconds(self) -> float:
        """Time covered by the retained samples."""
        if len(self._samples) < 2:
            return 0.0
        return self._samples[-1][0] - self._samples[0][0]

    # -- rates ----------------------------------------------------------- #

    def _newest_pair(self) -> Optional[Tuple[Tuple[float, dict], Tuple[float, dict]]]:
        if len(self._samples) < 2:
            return None
        return self._samples[-2], self._samples[-1]

    def counter_rate(
        self, name: str, labels: Optional[dict] = None
    ) -> Optional[float]:
        """Per-second increase between the two newest samples.

        ``None`` without two samples or with a non-positive time gap; a
        negative delta (counter reset upstream) clamps to ``0.0`` rather
        than reporting a nonsense negative rate.
        """
        pair = self._newest_pair()
        if pair is None:
            return None
        (t0, s0), (t1, s1) = pair
        dt = t1 - t0
        if dt <= 0:
            return None
        delta = counter_total(s1, name, labels) - counter_total(s0, name, labels)
        return max(0.0, delta) / dt

    def label_rates(self, name: str, label: str) -> Dict[str, float]:
        """Per-label-value rates (e.g. ``{"0": 812.0, "1": 790.5}``)."""
        pair = self._newest_pair()
        if pair is None:
            return {}
        (t0, s0), (t1, s1) = pair
        dt = t1 - t0
        if dt <= 0:
            return {}
        before = label_totals(s0, name, label)
        after = label_totals(s1, name, label)
        return {
            key: max(0.0, after[key] - before.get(key, 0.0)) / dt
            for key in sorted(after)
        }

    def gauge_value(self, name: str, labels: Optional[dict] = None) -> float:
        """Latest value of a gauge family (summed over matching series)."""
        latest = self.latest
        if latest is None:
            return 0.0
        return counter_total(latest, name, labels)

    def quantiles(
        self, name: str, qs: Sequence[float], labels: Optional[dict] = None
    ) -> Dict[float, Optional[float]]:
        """Quantiles of a histogram family in the newest snapshot."""
        latest = self.latest
        if latest is None:
            return {q: None for q in qs}
        return {q: histogram_quantile(latest, name, q, labels) for q in qs}

    def burn_rate(
        self, bad_name: str, total_name: str, budget_ratio: float
    ) -> Optional[float]:
        """SLO burn over the newest interval: (bad/total) / budget.

        ``1.0`` = consuming the error budget exactly as provisioned,
        ``>1`` = burning faster.  ``None`` without two samples; an idle
        interval (no total traffic) reports ``0.0`` — no traffic burns no
        budget.
        """
        if budget_ratio <= 0:
            raise ValueError("budget_ratio must be positive")
        pair = self._newest_pair()
        if pair is None:
            return None
        (_, s0), (_, s1) = pair
        bad = counter_total(s1, bad_name) - counter_total(s0, bad_name)
        total = counter_total(s1, total_name) - counter_total(s0, total_name)
        if total <= 0:
            return 0.0
        return max(0.0, bad) / total / budget_ratio


# ---------------------------------------------------------------------- #
# Dashboard rendering (``repro top``)
# ---------------------------------------------------------------------- #

#: Ingest-drop error budget the burn line is measured against: one drop
#: per hundred dispatched events.
DROP_BUDGET_RATIO = 0.01

_LATENCY_QS = (0.5, 0.95, 0.99)


def _fmt_rate(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{value:.1f}/s"


def _fmt_seconds(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{value:.3g} s"


def render_dashboard(sampler: SnapshotSampler) -> str:
    """The ``repro top`` screen: one multi-line text frame per refresh.

    Pure function of the sampler's contents — rates need two samples, so
    the first frame after startup shows ``n/a`` where a delta is required.
    """
    lines = [
        f"DICE top — {len(sampler)} sample(s), "
        f"{sampler.span_seconds:.1f} s of history"
    ]
    shard_rates = sampler.label_rates("dice_fleet_events_total", "shard")
    if shard_rates:
        total = sum(shard_rates.values())
        per_shard = "  ".join(
            f"shard {shard}: {rate:.1f}/s" for shard, rate in shard_rates.items()
        )
        lines.append(f"events:    {total:.1f}/s total  ({per_shard})")
    else:
        lines.append(
            f"windows:   {_fmt_rate(sampler.counter_rate('dice_windows_total'))}"
        )
    alert_rates = sampler.label_rates("dice_alerts_total", "kind")
    if alert_rates:
        per_kind = "  ".join(
            f"{kind}: {rate:.2f}/s" for kind, rate in alert_rates.items()
        )
        lines.append(f"alerts:    {sum(alert_rates.values()):.2f}/s total  ({per_kind})")
    else:
        lines.append(
            f"alerts:    {_fmt_rate(sampler.counter_rate('dice_alerts_total'))}"
        )
    lines.append(
        f"drops:     {_fmt_rate(sampler.counter_rate('dice_ingest_dropped_total'))}"
        f"  force-released: "
        f"{_fmt_rate(sampler.counter_rate('dice_reorder_force_released_total'))}"
    )
    qs = sampler.quantiles("dice_detection_latency_seconds", _LATENCY_QS)
    lines.append(
        "latency:   "
        + "  ".join(
            f"p{int(q * 100)}: {_fmt_seconds(qs[q])}" for q in _LATENCY_QS
        )
    )
    lines.append(
        f"reorder:   lag {sampler.gauge_value('dice_reorder_watermark_lag_seconds'):.1f} s"
        f"  pending {sampler.gauge_value('dice_reorder_pending'):.0f}"
    )
    total_name = (
        "dice_fleet_events_total" if shard_rates else "dice_windows_total"
    )
    burn = sampler.burn_rate(
        "dice_ingest_dropped_total", total_name, DROP_BUDGET_RATIO
    )
    budget_pct = DROP_BUDGET_RATIO * 100
    lines.append(
        f"SLO burn:  "
        + ("n/a" if burn is None else f"{burn:.2f}x")
        + f" of the {budget_pct:g}% drop budget"
    )
    return "\n".join(lines)
