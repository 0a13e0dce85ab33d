"""Router behaviour: registration, stray tenants, health, merged telemetry."""

import pytest

from repro import telemetry
from repro.fleet import (
    FLEET_EVENTS_TOTAL,
    FLEET_UNROUTED_TOTAL,
    FleetGateway,
    replay_fleet,
    shard_of,
)


@pytest.fixture()
def gateway(fleet_homes, fleet_detectors):
    gw = FleetGateway(2)
    for home in fleet_homes:
        gw.add_home(home.home_id, fleet_detectors[home.home_id], start=home.split)
    return gw


def test_rejects_bad_shard_count():
    with pytest.raises(ValueError):
        FleetGateway(0)


def test_rejects_duplicate_home(gateway, fleet_homes, fleet_detectors):
    home = fleet_homes[0]
    with pytest.raises(ValueError, match="already hosted"):
        gateway.add_home(home.home_id, fleet_detectors[home.home_id])


def test_membership_and_layout(gateway, fleet_homes):
    assert len(gateway) == len(fleet_homes)
    for home in fleet_homes:
        assert home.home_id in gateway
        assert gateway.shard_index_of(home.home_id) == shard_of(home.home_id, 2)
    assert "home-9999" not in gateway
    assert gateway.home_ids == sorted(h.home_id for h in fleet_homes)


def test_unrouted_events_are_counted_not_fatal(gateway, fleet_homes):
    stray = next(iter(fleet_homes[0].live))
    fresh = gateway.dispatch([("no-such-home", stray)])
    assert fresh == []
    assert gateway.unrouted == 1
    snapshot = gateway.metrics.snapshot()["metrics"]
    assert snapshot[FLEET_UNROUTED_TOTAL]["series"][0]["value"] == 1


def test_dispatch_counts_events_per_shard(gateway, fleet_homes):
    replay_fleet(gateway, fleet_homes)
    series = gateway.metrics.snapshot()["metrics"][FLEET_EVENTS_TOTAL]["series"]
    per_shard = {row["labels"]["shard"]: row["value"] for row in series}
    total_live = sum(len(home.live) for home in fleet_homes)
    assert sum(per_shard.values()) == total_live


def test_health_rollup(gateway, fleet_homes):
    alerts = replay_fleet(gateway, fleet_homes)
    health = gateway.health()
    assert health["num_shards"] == 2
    assert health["num_homes"] == len(fleet_homes)
    assert sum(health["homes_per_shard"].values()) == len(fleet_homes)
    assert health["unrouted"] == 0
    assert set(health["homes"]) == set(gateway.home_ids)
    for home_id, entry in health["homes"].items():
        assert entry["shard"] == gateway.shard_index_of(home_id)
        assert entry["alerts"] == len(gateway.alerts_of(home_id))
    # Counted from the runtimes, it matches what dispatch and finish returned.
    kinds: dict = {}
    for fleet_alert in alerts:
        kinds[fleet_alert.alert.kind] = kinds.get(fleet_alert.alert.kind, 0) + 1
    assert health["alerts"] == kinds


def test_metrics_snapshot_merges_router_and_homes(gateway, fleet_homes):
    replay_fleet(gateway, fleet_homes)
    merged = gateway.metrics_snapshot()["metrics"]
    # Router families and per-home detection families land in one document.
    assert FLEET_EVENTS_TOTAL in merged
    assert "dice_alerts_total" in merged


def test_metrics_snapshot_counts_shared_registries_once(fleet_homes):
    # Two homes deliberately sharing one registry: the shared counter must
    # appear in the merged snapshot with its value, not doubled.
    from repro.core import DiceDetector

    shared = telemetry.MetricsRegistry()
    shared.counter("test_shared_total", "shared sink sentinel").inc(7)
    gw = FleetGateway(2)
    for home in fleet_homes[:2]:
        detector = DiceDetector(home.trace.registry, metrics=shared).fit(
            home.training
        )
        gw.add_home(home.home_id, detector, start=home.split)
    merged = gw.metrics_snapshot()["metrics"]
    assert merged["test_shared_total"]["series"][0]["value"] == 7


def test_finish_accepts_scalar_and_mapping(fleet_homes, fleet_detectors):
    ends = {home.home_id: home.trace.end for home in fleet_homes}
    by_map = FleetGateway(2)
    by_scalar = FleetGateway(2)
    for gw in (by_map, by_scalar):
        for home in fleet_homes:
            gw.add_home(
                home.home_id, fleet_detectors[home.home_id], start=home.split
            )
        replay_fleet(gw, fleet_homes, finish=False)
    by_map.finish(ends)
    by_scalar.finish(max(ends.values()))
    # Same end timestamp for every home here, so both spellings agree.
    for home_id in by_map.home_ids:
        assert by_map.alerts_of(home_id) == by_scalar.alerts_of(home_id)
