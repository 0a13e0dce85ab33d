"""The acceptance guarantee: sharding is an invisible scaling layer.

A fleet run with shard count 1, 2 or 4 must produce, per home, exactly
the alert sequence that home's runtime produces standalone — same kinds,
times, checks, cases, devices, convergence flags, in the same order.
"""

import pytest

from repro.fleet import FleetGateway, replay_fleet
from repro.streaming import HardenedOnlineDice
from tests.fleet.conftest import canon


@pytest.fixture(scope="module")
def standalone_alerts(fleet_homes, fleet_detectors):
    """Per-home baselines: each home replayed alone, no fleet involved."""
    expected = {}
    for home in fleet_homes:
        runtime = HardenedOnlineDice(
            fleet_detectors[home.home_id], start=home.split
        )
        alerts = runtime.ingest_many(list(home.live))
        alerts += runtime.finish_stream(home.trace.end)
        expected[home.home_id] = canon(alerts)
    return expected


@pytest.mark.parametrize("num_shards", [1, 2, 4])
def test_fleet_matches_standalone(
    num_shards, fleet_homes, fleet_detectors, standalone_alerts
):
    gateway = FleetGateway(num_shards)
    for home in fleet_homes:
        gateway.add_home(
            home.home_id, fleet_detectors[home.home_id], start=home.split
        )
    replay_fleet(gateway, fleet_homes)
    for home in fleet_homes:
        assert canon(gateway.alerts_of(home.home_id)) == (
            standalone_alerts[home.home_id]
        ), f"{home.home_id} diverged at {num_shards} shards"
    assert gateway.unrouted == 0


@pytest.mark.parametrize("tick_seconds", [60.0, 1800.0])
def test_tick_width_is_invisible_too(
    tick_seconds, fleet_homes, fleet_detectors, standalone_alerts
):
    # Dispatch batching is an implementation detail of the driver, not of
    # the detection semantics.
    gateway = FleetGateway(2)
    for home in fleet_homes:
        gateway.add_home(
            home.home_id, fleet_detectors[home.home_id], start=home.split
        )
    replay_fleet(gateway, fleet_homes, tick_seconds=tick_seconds)
    for home in fleet_homes:
        assert canon(gateway.alerts_of(home.home_id)) == (
            standalone_alerts[home.home_id]
        )


def test_fleet_alerts_attribute_their_home(fleet_homes, fleet_detectors):
    gateway = FleetGateway(4)
    for home in fleet_homes:
        gateway.add_home(
            home.home_id, fleet_detectors[home.home_id], start=home.split
        )
    alerts = replay_fleet(gateway, fleet_homes)
    assert alerts, "the fixture fleet is expected to raise alerts"
    hosted = set(gateway.home_ids)
    assert {fa.home_id for fa in alerts} <= hosted
    total = sum(len(gateway.alerts_of(home_id)) for home_id in hosted)
    assert total == len(alerts)
    for home_id in hosted:
        assert gateway.alerts_of(home_id) == [
            fa.alert for fa in alerts if fa.home_id == home_id
        ]
