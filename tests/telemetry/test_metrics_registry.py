"""MetricsRegistry: families, series, snapshots, merging, concurrency,
and the snapshot readers."""

import threading

import pytest

from repro.telemetry import (
    NULL_REGISTRY,
    SNAPSHOT_SCHEMA,
    MetricsRegistry,
    counter_total,
    histogram_quantile,
    merge_snapshots,
)


@pytest.fixture
def reg():
    return MetricsRegistry()


class TestFamilies:
    def test_counter_inc_and_get(self, reg):
        c = reg.counter("events_total", "events seen")
        c.inc()
        c.inc(2.5)
        assert c.get() == 3.5

    def test_labelled_series_are_independent(self, reg):
        c = reg.counter("drops_total", labelnames=("reason",))
        c.labels(reason="late").inc()
        c.labels(reason="late").inc()
        c.labels(reason="dup").inc(5)
        assert c.labels(reason="late").get() == 2
        assert c.labels(reason="dup").get() == 5

    def test_labels_returns_cached_series(self, reg):
        c = reg.counter("x_total", labelnames=("k",))
        assert c.labels(k="a") is c.labels(k="a")

    def test_wrong_labelnames_rejected(self, reg):
        c = reg.counter("x_total", labelnames=("k",))
        with pytest.raises(ValueError):
            c.labels(nope="a")

    def test_gauge_set_and_dec(self, reg):
        g = reg.gauge("depth")
        g.set(7)
        g.dec(2)
        assert g.get() == 5

    def test_histogram_bucket_placement(self, reg):
        h = reg.histogram("lat_seconds", buckets=(0.01, 0.1, 1.0))
        h.observe(0.005)  # -> first bucket
        h.observe(0.5)    # -> third bucket
        h.observe(50.0)   # -> overflow
        row = reg.snapshot()["metrics"]["lat_seconds"]["series"][0]
        assert row["bucket_counts"] == [1, 0, 1, 1]
        assert row["count"] == 3
        assert row["sum"] == pytest.approx(50.505)

    def test_histogram_needs_buckets(self, reg):
        with pytest.raises(ValueError):
            reg.histogram("h", buckets=())

    def test_get_or_create_shares_family(self, reg):
        assert reg.counter("shared_total") is reg.counter("shared_total")

    def test_kind_conflict_rejected(self, reg):
        reg.counter("thing")
        with pytest.raises(ValueError):
            reg.gauge("thing")

    def test_labelnames_conflict_rejected(self, reg):
        reg.counter("thing", labelnames=("a",))
        with pytest.raises(ValueError):
            reg.counter("thing", labelnames=("b",))

    def test_invalid_name_rejected(self, reg):
        with pytest.raises(ValueError):
            reg.counter("1bad")
        with pytest.raises(ValueError):
            reg.counter("has space")


class TestSnapshot:
    def test_schema_and_sorted_names(self, reg):
        reg.counter("z_total").inc()
        reg.counter("a_total").inc()
        snap = reg.snapshot()
        assert snap["schema"] == SNAPSHOT_SCHEMA
        assert list(snap["metrics"]) == ["a_total", "z_total"]

    def test_labelless_family_exports_before_first_update(self, reg):
        reg.counter("quiet_total")
        snap = reg.snapshot()
        assert snap["metrics"]["quiet_total"]["series"] == [
            {"labels": {}, "value": 0.0}
        ]

    def test_collectors_run_at_snapshot(self, reg):
        g = reg.gauge("depth")
        reg.register_collector("src", lambda: g.set(42))
        assert reg.snapshot()["metrics"]["depth"]["series"][0]["value"] == 42

    def test_collector_key_replaces(self, reg):
        g = reg.gauge("depth")
        reg.register_collector("src", lambda: g.set(1))
        reg.register_collector("src", lambda: g.set(2))
        assert reg.snapshot()["metrics"]["depth"]["series"][0]["value"] == 2

    def test_counters_snapshot_and_restore(self, reg):
        reg.counter("n_total", labelnames=("k",)).labels(k="a").inc(9)
        reg.gauge("depth").set(4)
        partial = reg.counters_snapshot()
        assert list(partial["metrics"]) == ["n_total"]

        fresh = MetricsRegistry()
        fresh.restore_counters(partial)
        assert fresh.counter("n_total", labelnames=("k",)).labels(k="a").get() == 9


class TestConcurrency:
    def test_threaded_increments_are_exact(self, reg):
        c = reg.counter("hits_total", labelnames=("who",))
        threads, per_thread = 8, 5000

        def work(i):
            series = c.labels(who=f"t{i % 2}")
            for _ in range(per_thread):
                series.inc()

        pool = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        total = sum(
            row["value"]
            for row in reg.snapshot()["metrics"]["hits_total"]["series"]
        )
        assert total == threads * per_thread

    def test_threaded_observations_are_exact(self, reg):
        h = reg.histogram("lat_seconds", buckets=(0.5,))
        threads, per_thread = 4, 2000

        def work():
            for i in range(per_thread):
                h.observe(i % 2)  # alternate below/above the bound

        pool = [threading.Thread(target=work) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        row = reg.snapshot()["metrics"]["lat_seconds"]["series"][0]
        assert row["count"] == threads * per_thread
        # Half at 0 land in the single finite bucket, half at 1 overflow.
        assert row["bucket_counts"] == [threads * per_thread // 2] * 2


class TestNullRegistry:
    def test_all_operations_are_noops(self):
        c = NULL_REGISTRY.counter("x_total", labelnames=("k",))
        c.inc()
        c.labels(k="a").inc()
        NULL_REGISTRY.gauge("g").set(3)
        NULL_REGISTRY.histogram("h").observe(1.0)
        NULL_REGISTRY.register_collector("k", lambda: 1 / 0)
        snap = NULL_REGISTRY.snapshot()
        assert snap["metrics"] == {}
        NULL_REGISTRY.restore_counters({"metrics": {}})


class TestMergeSnapshots:
    def _snap(self, build):
        reg = MetricsRegistry()
        build(reg)
        return reg.snapshot()

    def test_counters_add_and_gauges_take_other(self):
        a = self._snap(
            lambda r: (r.counter("n_total").inc(2), r.gauge("depth").set(1))
        )
        b = self._snap(
            lambda r: (r.counter("n_total").inc(3), r.gauge("depth").set(9))
        )
        merged = merge_snapshots(a, b)
        assert merged["metrics"]["n_total"]["series"][0]["value"] == 5
        assert merged["metrics"]["depth"]["series"][0]["value"] == 9

    def test_histograms_sum_per_bucket(self):
        def build(r):
            r.histogram("h", buckets=(1.0,)).observe(0.5)

        merged = merge_snapshots(self._snap(build), self._snap(build))
        row = merged["metrics"]["h"]["series"][0]
        assert row["bucket_counts"] == [2, 0]
        assert row["count"] == 2
        assert row["sum"] == 1.0

    def test_one_sided_families_survive(self):
        a = self._snap(lambda r: r.counter("only_a_total").inc())
        b = self._snap(lambda r: r.counter("only_b_total").inc())
        merged = merge_snapshots(a, b)
        assert set(merged["metrics"]) == {"only_a_total", "only_b_total"}

    def test_disjoint_label_sets_union(self):
        a = self._snap(
            lambda r: r.counter("n_total", labelnames=("k",)).labels(k="x").inc()
        )
        b = self._snap(
            lambda r: r.counter("n_total", labelnames=("k",)).labels(k="y").inc(4)
        )
        rows = merge_snapshots(a, b)["metrics"]["n_total"]["series"]
        assert {tuple(r["labels"].items()): r["value"] for r in rows} == {
            (("k", "x"),): 1,
            (("k", "y"),): 4,
        }

    def test_kind_mismatch_rejected(self):
        a = self._snap(lambda r: r.counter("thing").inc())
        b = self._snap(lambda r: r.gauge("thing").set(1))
        with pytest.raises(ValueError):
            merge_snapshots(a, b)

    def test_bucket_mismatch_rejected(self):
        a = self._snap(lambda r: r.histogram("h", buckets=(1.0,)).observe(0.5))
        b = self._snap(lambda r: r.histogram("h", buckets=(2.0,)).observe(0.5))
        with pytest.raises(ValueError):
            merge_snapshots(a, b)


def _counter(value, labels=None):
    row = {"value": value}
    if labels:
        row["labels"] = labels
    return row


def _snapshot(**families):
    """families: name -> list of series rows, or a (bounds, bucket_counts) tuple."""
    metrics = {}
    for name, spec in families.items():
        if isinstance(spec, tuple):
            bounds, bucket_counts = spec
            metrics[name] = {
                "type": "histogram",
                "buckets": list(bounds),
                "series": [{"bucket_counts": list(bucket_counts)}],
            }
        else:
            metrics[name] = {"type": "counter", "series": spec}
    return {"metrics": metrics}


class TestSnapshotFunctions:
    def test_counter_total_sums_matching_series(self):
        snap = _snapshot(
            dice_alerts_total=[
                _counter(3.0, {"kind": "detection"}),
                _counter(2.0, {"kind": "identification"}),
            ]
        )
        assert counter_total(snap, "dice_alerts_total") == 5.0
        assert counter_total(
            snap, "dice_alerts_total", {"kind": "detection"}
        ) == 3.0
        assert counter_total(snap, "missing_family") == 0.0

    def test_histogram_quantile_interpolates_within_bucket(self):
        # 10 observations spread over buckets [0,1] and (1,2]: the median
        # ranks 5th of 8 in the first bucket -> 1.0 * 5/8.
        snap = _snapshot(lat=((1.0, 2.0), (8, 2, 0)))
        assert histogram_quantile(snap, "lat", 0.5) == pytest.approx(0.625)
        # p95 ranks 9.5, i.e. 1.5 of the 2 in (1,2].
        assert histogram_quantile(snap, "lat", 0.95) == pytest.approx(1.75)

    def test_histogram_quantile_overflow_reports_last_bound(self):
        snap = _snapshot(lat=((1.0, 2.0), (0, 0, 4)))
        assert histogram_quantile(snap, "lat", 0.5) == 2.0

    def test_histogram_quantile_empty_or_missing_is_none(self):
        assert histogram_quantile(_snapshot(), "lat", 0.5) is None
        snap = _snapshot(lat=((1.0,), (0, 0)))
        assert histogram_quantile(snap, "lat", 0.5) is None
