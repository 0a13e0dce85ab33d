"""Fleet checkpoint/restore: one manifest holding every home's snapshot.

The property under test mirrors the single-gateway one, lifted to the
fleet:  restore(checkpoint(mid-stream)) + replay(tail) produces exactly
the alerts of an uninterrupted run — per home, byte-identical — for
randomized cut points and even when the shard count changes across the
restore.
"""

import json
import os
import random

import pytest

from repro.fleet import (
    MANIFEST_NAME,
    MANIFEST_SCHEMA,
    FleetGateway,
    build_fleet_homes,
    load_fleet_manifest,
    merged_ticks,
    replay_fleet,
    restore_fleet,
)
from repro.streaming import CheckpointError, RefreshPolicy
from tests.fleet.conftest import canon


def _fresh_gateway(homes, detectors, num_shards=2):
    gateway = FleetGateway(num_shards)
    for home in homes:
        gateway.add_home(home.home_id, detectors[home.home_id], start=home.split)
    return gateway


@pytest.fixture(scope="module")
def uninterrupted(fleet_homes, fleet_detectors):
    gateway = _fresh_gateway(fleet_homes, fleet_detectors)
    replay_fleet(gateway, fleet_homes)
    return {h.home_id: canon(gateway.alerts_of(h.home_id)) for h in fleet_homes}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("restore_shards", [None, 5])
def test_random_cut_round_trip(
    seed, restore_shards, fleet_homes, fleet_detectors, uninterrupted, tmp_path
):
    ticks = list(merged_ticks(fleet_homes))
    cut = random.Random(seed).randrange(1, len(ticks))
    first = _fresh_gateway(fleet_homes, fleet_detectors)
    for _, batch in ticks[:cut]:
        first.dispatch(batch)
    first.save_checkpoint(tmp_path)

    resumed = restore_fleet(
        fleet_detectors, tmp_path, num_shards=restore_shards
    )
    assert resumed.num_shards == (restore_shards or first.num_shards)
    replay_fleet(resumed, fleet_homes)
    for home in fleet_homes:
        head = first.alerts_of(home.home_id)
        tail = resumed.alerts_of(home.home_id)
        assert canon(head + tail) == uninterrupted[home.home_id], (
            f"{home.home_id} diverged after cut at tick {cut}"
        )


def test_restore_after_a_context_refresh(tmp_path):
    # A home entry records the pre-refresh model the snapshot was taken
    # against, so a home whose context refreshed mid-stream restores onto
    # a fresh fit and re-applies the refresh from its carried history.
    homes = build_fleet_homes(2, seed=29, hours=24.0, train_hours=18.0)
    policy = RefreshPolicy(
        enabled=True, violation_window=5, violation_threshold=0.2,
        collect_windows=2, cooldown_windows=5,
    )

    def fresh():
        gateway = FleetGateway(2)
        for home in homes:
            gateway.add_home(
                home.home_id, home.fit_detector(), start=home.split, refresh=policy
            )
        return gateway

    full = fresh()
    replay_fleet(full, homes)
    first = fresh()
    for _, batch in merged_ticks(homes):
        first.dispatch(batch)
        if any(
            first.runtime_of(h.home_id).refresher.stats()["applied"] for h in homes
        ):
            break
    else:
        pytest.fail("the stream was expected to trigger a refresh")
    first.save_checkpoint(tmp_path)

    detectors = {home.home_id: home.fit_detector() for home in homes}
    resumed = restore_fleet(detectors, tmp_path, refresh=policy)
    replay_fleet(resumed, homes)
    for home in homes:
        head = first.alerts_of(home.home_id)
        tail = resumed.alerts_of(home.home_id)
        assert canon(head + tail) == canon(full.alerts_of(home.home_id))


def test_fleet_counter_totals_survive_restart(tmp_path):
    # Fresh homes/detectors (not the session fixtures): counter restoration
    # writes into the detectors' registries, which must not be shared with
    # other scenarios for totals to be comparable.
    homes = build_fleet_homes(2, seed=11, hours=28.0, train_hours=24.0)
    detectors = {h.home_id: h.fit_detector() for h in homes}
    full = _fresh_gateway(homes, detectors)
    replay_fleet(full, homes)
    expected_events = _fleet_events_total(full)
    expected_alerts = _alerts_total(full)

    detectors2 = {h.home_id: h.fit_detector() for h in homes}
    ticks = list(merged_ticks(homes))
    head = ticks[: len(ticks) // 2]
    first = _fresh_gateway(homes, detectors2)
    for _, batch in head:
        first.dispatch(batch)
    first.save_checkpoint(tmp_path)
    # Delivery across a restore is at-least-once: events newer than the
    # watermark were checkpointed inside the reorder buffer AND get
    # re-sent by the tail replay (the ingest path dedupes them, so alerts
    # and alert counters are exact; the router's routed-events counter
    # legitimately counts the re-delivery).
    watermarks = {
        h.home_id: first.runtime_of(h.home_id).reorder.watermark for h in homes
    }
    redelivered = sum(
        1
        for _, batch in head
        for home_id, event in batch
        if event.timestamp > watermarks[home_id]
    )
    resumed = restore_fleet(detectors2, tmp_path)
    replay_fleet(resumed, homes)
    assert _fleet_events_total(resumed) == expected_events + redelivered
    assert _alerts_total(resumed) == expected_alerts


def _fleet_events_total(gateway) -> float:
    entry = gateway.metrics_snapshot()["metrics"].get("dice_fleet_events_total")
    return sum(row["value"] for row in entry["series"]) if entry else 0.0


def _alerts_total(gateway) -> float:
    entry = gateway.metrics_snapshot()["metrics"].get("dice_alerts_total")
    return sum(row["value"] for row in entry["series"]) if entry else 0.0


def test_checkpoint_layout(fleet_homes, fleet_detectors, tmp_path):
    gateway = _fresh_gateway(fleet_homes, fleet_detectors)
    replay_fleet(gateway, fleet_homes, finish=False)
    gateway.save_checkpoint(tmp_path)
    assert os.listdir(tmp_path) == [MANIFEST_NAME]
    manifest = load_fleet_manifest(tmp_path)
    assert set(manifest["homes"]) == set(gateway.home_ids)
    for home_id, entry in manifest["homes"].items():
        # The entry is exactly the home's runtime snapshot: the shard is a
        # pure hash of the home id, so it is not stored.
        snapshot = json.loads(json.dumps(gateway.runtime_of(home_id).checkpoint()))
        assert entry == snapshot
        assert "shard" not in entry


def test_restore_requires_every_detector(
    fleet_homes, fleet_detectors, tmp_path
):
    gateway = _fresh_gateway(fleet_homes, fleet_detectors)
    replay_fleet(gateway, fleet_homes, finish=False)
    gateway.save_checkpoint(tmp_path)
    partial = dict(fleet_detectors)
    dropped = fleet_homes[0].home_id
    del partial[dropped]
    with pytest.raises(CheckpointError, match=dropped):
        restore_fleet(partial, tmp_path)


def test_restore_names_home_with_fingerprint_mismatch(
    fleet_homes, fleet_detectors, tmp_path
):
    gateway = _fresh_gateway(fleet_homes, fleet_detectors)
    replay_fleet(gateway, fleet_homes, finish=False)
    gateway.save_checkpoint(tmp_path)
    manifest = load_fleet_manifest(tmp_path)
    victim = sorted(manifest["homes"])[1]
    manifest["homes"][victim]["context"] = "0" * 32
    (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
    with pytest.raises(CheckpointError, match=f"{victim}.*different\\s+model"):
        restore_fleet(fleet_detectors, tmp_path)


def test_manifest_validation_rejects_garbage(tmp_path):
    path = tmp_path / MANIFEST_NAME
    # Only the current schema restores; earlier manifests are refused by
    # name, like any foreign document.
    for schema in (
        "something-else/9",
        "dice-fleet-manifest/1",
        "dice-fleet-manifest/2",
        "dice-fleet-manifest/3",
    ):
        path.write_text(
            json.dumps({"schema": schema, "num_shards": 2, "homes": {}})
        )
        with pytest.raises(CheckpointError, match="not a fleet manifest") as exc:
            load_fleet_manifest(tmp_path)
        assert schema in str(exc.value) and str(path) in str(exc.value)

    # The durability block a durable gateway stores beside the homes is
    # held to its shape the same way.
    path.write_text(
        json.dumps(
            {"schema": MANIFEST_SCHEMA, "num_shards": 2, "homes": {}, "durability": []}
        )
    )
    with pytest.raises(CheckpointError, match="durability block"):
        load_fleet_manifest(tmp_path)
