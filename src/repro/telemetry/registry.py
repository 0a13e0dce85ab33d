"""Zero-dependency metrics registry: counters, gauges, histograms.

The gateway runs unattended, so every subsystem that matters at 3 a.m. —
the correlation-scan hot path, the ingest guard, the reorder buffer, the
device supervisor — records what it does into one
:class:`MetricsRegistry`.  Three metric families cover the needs:

* :class:`Counter` — monotone totals (events ingested, drops by reason,
  cache hits).  Counters survive gateway restarts via the versioned
  checkpoint (:meth:`MetricsRegistry.counters_snapshot` /
  :meth:`MetricsRegistry.restore_counters`).
* :class:`Gauge` — point-in-time levels (reorder-buffer depth, devices
  per supervisor state).  Gauges are refreshed by *collectors* — callbacks
  that run at snapshot time — so hot paths never pay for them.
* :class:`Histogram` — fixed-bucket latency distributions (per-window
  stage cost).  Buckets are cumulative at export time, Prometheus-style.

Everything is thread-safe behind one registry lock, snapshot-able as plain
JSON (:meth:`MetricsRegistry.snapshot`), and mergeable
(:func:`merge_snapshots`), so a fleet's per-home registries sum to one
snapshot.  :func:`counter_total` and :func:`histogram_quantile` read a
snapshot back.  :data:`NULL_REGISTRY` is the disabled twin: every
operation is a no-op, which is what the telemetry-parity tests compare
against.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

SNAPSHOT_SCHEMA = "dice-metrics/1"

#: Default latency buckets (seconds): 100 µs .. 10 s, roughly 1-2.5-5 per
#: decade — wide enough for a Raspberry-Py-class gateway, fine enough to
#: see the correlation scan move.
DEFAULT_SECONDS_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_NAME_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")


def _check_name(name: str) -> str:
    if not name or name[0].isdigit() or not set(name) <= _NAME_OK:
        raise ValueError(f"invalid metric name {name!r}")
    return name


class _Series:
    """One (metric, label-values) time series; the object hot paths hold.

    Instances are handed out by :meth:`_Metric.labels` and cached there, so
    an instrumented loop resolves its series once and then pays one lock +
    one float op per update.
    """

    __slots__ = ("_metric", "_labels", "value", "bucket_counts", "sum", "count")

    def __init__(self, metric: "_Metric", labels: Tuple[str, ...]) -> None:
        self._metric = metric
        self._labels = labels
        self.value = 0.0
        if metric.kind == "histogram":
            self.bucket_counts = [0] * (len(metric.buckets) + 1)
            self.sum = 0.0
            self.count = 0

    # -- counter / gauge ------------------------------------------------- #

    def inc(self, amount: float = 1.0) -> None:
        with self._metric._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def set(self, value: float) -> None:
        with self._metric._lock:
            self.value = float(value)

    def get(self) -> float:
        return self.value

    # -- histogram ------------------------------------------------------- #

    def observe(self, value: float) -> None:
        metric = self._metric
        index = bisect_left(metric.buckets, value)
        with metric._lock:
            self.bucket_counts[index] += 1
            self.sum += value
            self.count += 1


class _NullSeries:
    """No-op series handed out by a disabled registry."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def get(self) -> float:
        return 0.0

    def observe(self, value: float) -> None:
        pass


class _Metric:
    """One metric family: a name, a kind, and its labelled series."""

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str,
        kind: str,
        labelnames: Tuple[str, ...],
        buckets: Tuple[float, ...] = (),
    ) -> None:
        self._lock = registry._lock
        self.name = _check_name(name)
        self.help = help
        self.kind = kind
        self.labelnames = labelnames
        self.buckets = buckets
        self._series: Dict[Tuple[str, ...], _Series] = {}
        if not labelnames:
            # Label-less families materialise their single series eagerly so
            # it shows up in exports even before the first update.
            self._series[()] = _Series(self, ())

    def labels(self, **labels: str) -> _Series:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, got {tuple(labels)}"
            )
        key = tuple(str(labels[n]) for n in self.labelnames)
        series = self._series.get(key)
        if series is None:
            with self._lock:
                series = self._series.setdefault(key, _Series(self, key))
        return series

    # Convenience pass-throughs for label-less families.

    def inc(self, amount: float = 1.0) -> None:
        self._series[()].inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._series[()].dec(amount)

    def set(self, value: float) -> None:
        self._series[()].set(value)

    def get(self) -> float:
        return self._series[()].get()

    def observe(self, value: float) -> None:
        self._series[()].observe(value)

    # -- export ---------------------------------------------------------- #

    def _snapshot_series(self) -> List[dict]:
        rows = []
        for key in sorted(self._series):
            series = self._series[key]
            row: dict = {"labels": dict(zip(self.labelnames, key))}
            if self.kind == "histogram":
                row["bucket_counts"] = list(series.bucket_counts)
                row["sum"] = series.sum
                row["count"] = series.count
            else:
                row["value"] = series.value
            rows.append(row)
        return rows


class _NullMetric:
    """No-op metric family handed out by a disabled registry."""

    __slots__ = ()
    _null = _NullSeries()

    def labels(self, **labels: str) -> _NullSeries:
        return self._null

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def get(self) -> float:
        return 0.0

    def observe(self, value: float) -> None:
        pass


_NULL_METRIC = _NullMetric()


class MetricsRegistry:
    """Thread-safe registry of counters, gauges and histograms.

    ``counter``/``gauge``/``histogram`` are get-or-create: instrumenting
    modules can declare the same family independently and share it.  A
    disabled registry (``enabled=False``) returns no-op metrics — the
    telemetry-off configuration costs nothing and records nothing.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.RLock()
        self._metrics: "Dict[str, _Metric]" = {}
        self._collectors: "Dict[str, Callable[[], None]]" = {}

    # -- family creation -------------------------------------------------- #

    def _family(
        self,
        name: str,
        help: str,
        kind: str,
        labelnames: Iterable[str],
        buckets: Tuple[float, ...] = (),
    ):
        if not self.enabled:
            return _NULL_METRIC
        labelnames = tuple(labelnames)
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = _Metric(self, name, help, kind, labelnames, buckets)
                self._metrics[name] = metric
            elif metric.kind != kind or metric.labelnames != labelnames:
                raise ValueError(
                    f"metric {name!r} re-registered as {kind}{labelnames} "
                    f"but exists as {metric.kind}{metric.labelnames}"
                )
            return metric

    def counter(self, name: str, help: str = "", labelnames: Iterable[str] = ()):
        return self._family(name, help, "counter", labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Iterable[str] = ()):
        return self._family(name, help, "gauge", labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        buckets: Iterable[float] = DEFAULT_SECONDS_BUCKETS,
    ):
        buckets = tuple(sorted(float(b) for b in buckets))
        if not buckets:
            raise ValueError("histogram needs at least one bucket bound")
        return self._family(name, help, "histogram", labelnames, buckets)

    # -- collectors -------------------------------------------------------- #

    def register_collector(self, key: str, fn: Callable[[], None]) -> None:
        """Register a callback run before every snapshot (gauge refresh).

        Keyed registration: a new pipeline registering under an existing key
        replaces the previous collector, so re-fitting in one process does
        not accumulate dead callbacks.
        """
        if self.enabled:
            self._collectors[key] = fn

    def collect(self) -> None:
        for fn in list(self._collectors.values()):
            fn()

    # -- export ------------------------------------------------------------ #

    def snapshot(self) -> dict:
        """JSON-serializable snapshot of every family and series."""
        self.collect()
        with self._lock:
            metrics = {}
            for name in sorted(self._metrics):
                metric = self._metrics[name]
                entry = {
                    "type": metric.kind,
                    "help": metric.help,
                    "labelnames": list(metric.labelnames),
                    "series": metric._snapshot_series(),
                }
                if metric.kind == "histogram":
                    entry["buckets"] = list(metric.buckets)
                metrics[name] = entry
        return {"schema": SNAPSHOT_SCHEMA, "metrics": metrics}

    def counters_snapshot(self) -> dict:
        """Snapshot restricted to counter families (checkpoint payload)."""
        full = self.snapshot()
        full["metrics"] = {
            name: entry
            for name, entry in full["metrics"].items()
            if entry["type"] == "counter"
        }
        return full

    def restore_counters(self, snapshot: dict) -> None:
        """Set counter series to the values of a prior snapshot.

        Used by checkpoint resume on a fresh process so monotonic totals
        continue instead of resetting; restoring onto a registry that has
        already counted would overwrite, not add.
        """
        if not self.enabled:
            return
        for name, entry in snapshot.get("metrics", {}).items():
            if entry.get("type") != "counter":
                continue
            family = self.counter(name, entry.get("help", ""), entry.get("labelnames", ()))
            for row in entry.get("series", []):
                family.labels(**row.get("labels", {})).set(row.get("value", 0.0))

    def reset(self) -> None:
        """Drop every family, series and collector (test isolation)."""
        with self._lock:
            self._metrics.clear()
            self._collectors.clear()


#: The disabled registry: a shared, importable "telemetry off" switch.
NULL_REGISTRY = MetricsRegistry(enabled=False)


def merge_snapshots(base: dict, other: dict) -> dict:
    """Sum two snapshots: counters and histograms add, gauges take *other*.

    Merging the snapshots of registries that each counted part of a run
    yields the totals one registry would have recorded.  Families present
    on either side survive; mismatched kinds or bucket layouts are an
    error.
    """
    merged = {"schema": SNAPSHOT_SCHEMA, "metrics": {}}
    names = sorted(set(base.get("metrics", {})) | set(other.get("metrics", {})))
    for name in names:
        a = base.get("metrics", {}).get(name)
        b = other.get("metrics", {}).get(name)
        if a is None or b is None:
            merged["metrics"][name] = _copy_entry(a if a is not None else b)
            continue
        if a["type"] != b["type"]:
            raise ValueError(f"cannot merge {name!r}: {a['type']} vs {b['type']}")
        if a["type"] == "histogram" and a.get("buckets") != b.get("buckets"):
            raise ValueError(f"cannot merge {name!r}: bucket layouts differ")
        entry = _copy_entry(a)
        series = {_label_key(row): dict(row) for row in entry["series"]}
        for row in b["series"]:
            key = _label_key(row)
            mine = series.get(key)
            if mine is None:
                series[key] = dict(row)
            elif a["type"] == "histogram":
                mine["bucket_counts"] = [
                    x + y for x, y in zip(mine["bucket_counts"], row["bucket_counts"])
                ]
                mine["sum"] += row["sum"]
                mine["count"] += row["count"]
            elif a["type"] == "counter":
                mine["value"] += row["value"]
            else:  # gauge: point-in-time, the newer snapshot wins
                mine["value"] = row["value"]
        entry["series"] = [series[k] for k in sorted(series)]
        merged["metrics"][name] = entry
    return merged


def merge_many(snapshots: Sequence[dict]) -> dict:
    """Fold any number of snapshots with :func:`merge_snapshots`.

    The fleet-join convenience: a gateway hosting hundreds of homes (one
    registry each) produces one fleet-wide snapshot.  An empty sequence
    yields an empty snapshot, one snapshot is copied unchanged.
    """
    merged = {"schema": SNAPSHOT_SCHEMA, "metrics": {}}
    for snapshot in snapshots:
        merged = merge_snapshots(merged, snapshot)
    return merged


def _matching_series(
    snapshot: dict, name: str, labels: Optional[dict]
) -> Iterator[dict]:
    entry = snapshot.get("metrics", {}).get(name) or {}
    for row in entry.get("series", []):
        have = row.get("labels", {})
        if not labels or all(have.get(k) == v for k, v in labels.items()):
            yield row


def counter_total(snapshot: dict, name: str, labels: Optional[dict] = None) -> float:
    """Sum of a counter or gauge family's series in one snapshot, over the
    series whose labels include *labels*; 0 when the family is missing."""
    return sum(row.get("value", 0.0) for row in _matching_series(snapshot, name, labels))


def histogram_quantile(
    snapshot: dict, name: str, q: float, labels: Optional[dict] = None
) -> Optional[float]:
    """Prometheus-style quantile from cumulative bucket counts.

    Linear interpolation within the bucket that crosses the target rank;
    the open-ended overflow bucket reports the largest finite bound (there
    is nothing sound to interpolate towards).  ``None`` when the family is
    missing or its matching series have no observations.
    """
    entry = snapshot.get("metrics", {}).get(name)
    if entry is None or entry.get("type") != "histogram":
        return None
    bounds = entry.get("buckets", [])
    counts = [0] * (len(bounds) + 1)
    for row in _matching_series(snapshot, name, labels):
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


def _label_key(row: dict) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted(row.get("labels", {}).items()))


def _copy_entry(entry: Optional[dict]) -> dict:
    assert entry is not None
    out = dict(entry)
    out["series"] = [dict(row) for row in entry["series"]]
    return out
