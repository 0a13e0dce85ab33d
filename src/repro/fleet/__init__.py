"""Sharded multi-home fleet gateway (``repro fleet``).

One process hosting many homes: a router in front of shared-nothing
per-home :class:`~repro.streaming.HardenedOnlineDice` instances, each
labelled with a hash shard (:func:`~repro.fleet.sharding.shard_of`), with
fleet-wide checkpoint/restore and merged telemetry.  Sharding is an
invisible scaling layer — per-home alert sequences are byte-identical to
standalone runs for any shard count (pinned by ``tests/fleet``).
"""

from .checkpoint import (
    MANIFEST_NAME,
    MANIFEST_SCHEMA,
    load_fleet_manifest,
    restore_fleet,
    save_fleet_checkpoint,
)
from .gateway import (
    FLEET_DISPATCHES_TOTAL,
    FLEET_EVENTS_TOTAL,
    FLEET_HOMES_GAUGE,
    FLEET_UNROUTED_TOTAL,
    FleetAlert,
    FleetGateway,
)
from .loadgen import (
    FleetHome,
    build_fleet_homes,
    fit_fleet_detectors,
    home_seed,
    merged_ticks,
    replay_fleet,
)
from .sharding import shard_assignments, shard_of

__all__ = [
    "MANIFEST_NAME",
    "MANIFEST_SCHEMA",
    "load_fleet_manifest",
    "restore_fleet",
    "save_fleet_checkpoint",
    "FLEET_DISPATCHES_TOTAL",
    "FLEET_EVENTS_TOTAL",
    "FLEET_HOMES_GAUGE",
    "FLEET_UNROUTED_TOTAL",
    "FleetAlert",
    "FleetGateway",
    "FleetHome",
    "build_fleet_homes",
    "fit_fleet_detectors",
    "home_seed",
    "merged_ticks",
    "replay_fleet",
    "shard_assignments",
    "shard_of",
]
