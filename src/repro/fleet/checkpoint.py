"""Fleet-wide checkpoint/restore: one JSON document per checkpoint.

A fleet checkpoint is a *directory* holding one file::

    <dir>/manifest.json    schema dice-fleet-manifest/5

The manifest records the shard count and, per home, exactly the
versioned runtime snapshot :func:`repro.streaming.checkpoint_state`
produces (``version``, ``backend``, ``context``, ``runtime`` and, with
telemetry on, ``telemetry``) — the fleet layer adds no per-home state of
its own.  A durable gateway adds a ``durability`` block (journal epochs,
alert and ingest sequences) to the same document; its homes' evidence
records live in their ``provenance.wal`` archives, so their snapshots
carry none.  A single home runs as a fleet of one, so its checkpoint is
a directory too.

The document is written once: to a temporary file that is fsynced, then
renamed over ``manifest.json``, then the directory is fsynced.  A crash
at any point leaves either the previous checkpoint or the new one, never
a mix, and once the save returns the new one is on disk.

The shard count is the one the checkpoint was taken with, but a restore
may override it: the home → shard map is a pure hash of the home id, so
resharding relabels homes without touching any detection state.

Fitted detector models are *not* serialized (large, immutable; the
fleet's homes are refit or loaded from their own artefacts) — the caller
hands ``restore_fleet`` one fitted detector per home, and every home
entry's backend name and base-context **content hash**
(:func:`~repro.core.context_hash`, captured pre-refresh) are verified
against it.  A restore refuses any home whose re-fit does not reproduce
the recorded bytes — then re-interns the detectors in the restored
gateway's shared-context store under that hash, so dedup (and
copy-on-write refresh replay) survives a restart and any reshard.  Only
the current manifest schema is accepted.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional, Union

from .. import telemetry
from ..core import DetectorBackend, DiceDetector, as_backend
from ..streaming import CheckpointError, checkpoint_state
from ..streaming.checkpoint import check_snapshot, load_runtime
from .gateway import FleetGateway

MANIFEST_SCHEMA = "dice-fleet-manifest/5"
MANIFEST_NAME = "manifest.json"

_log = telemetry.get_logger("repro.fleet.checkpoint")

PathLike = Union[str, os.PathLike]


def save_fleet_checkpoint(
    gateway: FleetGateway,
    directory: PathLike,
    *,
    durability: Optional[dict] = None,
) -> None:
    """Write *gateway*'s checkpoint as ``<directory>/manifest.json``.

    *durability*, when given, is stored as the document's ``durability``
    block.  The temporary file is fsynced before it replaces the manifest
    and the directory after, so the checkpoint is durable on return.
    """
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    homes = {
        home_id: checkpoint_state(gateway.runtime_of(home_id))
        for home_id in gateway.home_ids
    }
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "num_shards": gateway.num_shards,
        "homes": homes,
    }
    # Fleet-level routing counters survive a restart just like the
    # per-home detection counters do (gauges are point-in-time and restart).
    if gateway.metrics.enabled:
        manifest["telemetry"] = gateway.metrics.counters_snapshot()
    if durability is not None:
        manifest["durability"] = durability
    path = os.path.join(directory, MANIFEST_NAME)
    payload = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
    _log.info(
        "checkpoint_saved",
        path=path,
        bytes=len(payload),
        homes=len(homes),
        shards=gateway.num_shards,
    )


def load_fleet_manifest(directory: PathLike) -> dict:
    """Read and structurally validate a fleet manifest.

    A missing, unreadable, truncated or non-JSON manifest raises
    :class:`CheckpointError` naming the path — callers (and the CLI) get
    one actionable line instead of a raw ``JSONDecodeError`` traceback.
    """
    path = os.path.join(os.fspath(directory), MANIFEST_NAME)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except OSError as exc:
        raise CheckpointError(f"cannot read fleet manifest {path}: {exc}") from exc
    except ValueError as exc:
        raise CheckpointError(f"corrupt fleet manifest {path}: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("schema") != MANIFEST_SCHEMA:
        schema = manifest.get("schema") if isinstance(manifest, dict) else None
        raise CheckpointError(
            f"{path} is not a fleet manifest (schema {schema!r}, "
            f"expected {MANIFEST_SCHEMA!r})"
        )
    if not isinstance(manifest.get("homes"), dict):
        raise CheckpointError("fleet manifest has no homes mapping")
    if not isinstance(manifest.get("num_shards"), int) or manifest["num_shards"] < 1:
        raise CheckpointError("fleet manifest num_shards must be a positive int")
    if not isinstance(manifest.get("durability", {}), dict):
        raise CheckpointError("fleet manifest durability block is malformed")
    return manifest


def restore_fleet(
    detectors: Dict[str, Union[DiceDetector, DetectorBackend]],
    checkpoint: Union[PathLike, dict],
    *,
    num_shards: Optional[int] = None,
    metrics: Optional["telemetry.MetricsRegistry"] = None,
    **runtime_kwargs,
) -> FleetGateway:
    """Rebuild a :class:`FleetGateway` from a checkpoint.

    *checkpoint* is a checkpoint directory or the manifest
    :func:`load_fleet_manifest` already read from one.  *detectors* maps
    every manifest home to its fitted detector (extra detectors are
    ignored; missing ones are an error).  *num_shards* defaults to the
    manifest's count; ``runtime_kwargs`` configure each restored
    :class:`~repro.streaming.HardenedOnlineDice` (lateness, supervisor
    policy, ...) exactly as :func:`~repro.streaming.restore_runtime` does.

    Each validated DICE detector is re-interned **before** its snapshot
    is replayed, so restored homes dedup exactly like freshly added ones
    and a carried refresh history forks its private copy on re-apply —
    even when *num_shards* moved the home to a different shard.
    """
    if isinstance(checkpoint, dict):
        manifest = checkpoint
    else:
        manifest = load_fleet_manifest(checkpoint)
    homes = manifest["homes"]
    missing = sorted(set(homes) - set(detectors))
    if missing:
        raise CheckpointError(
            f"no detector supplied for checkpointed homes: {', '.join(missing)}"
        )
    # Validate every home against its supplied detector *before* restoring
    # anything: a mismatch should name its home up front, not explode
    # halfway through a partially-built gateway.
    backends: Dict[str, DetectorBackend] = {}
    for home_id in sorted(homes):
        backends[home_id] = backend = as_backend(detectors[home_id])
        try:
            check_snapshot(backend, homes[home_id])
        except CheckpointError as exc:
            raise CheckpointError(f"home {home_id!r}: {exc}") from exc
    gateway = FleetGateway(
        num_shards=num_shards or manifest["num_shards"], metrics=metrics
    )
    for home_id, backend in backends.items():
        entry = homes[home_id]
        if backend.dice_detector is not None:
            # Intern (under the hash just verified) before replaying the
            # snapshot: refresh-history re-apply must fork off the shared
            # copy exactly as the original run did.
            gateway.context_store.intern(
                backend.dice_detector, key=entry["context"]
            )
        gateway.add_runtime(
            home_id, load_runtime(backend, entry, **runtime_kwargs)
        )
    fleet_counters = manifest.get("telemetry")
    if fleet_counters is not None and gateway.metrics.enabled:
        gateway.metrics.restore_counters(fleet_counters)
    _log.info("fleet_resumed", homes=len(homes), shards=gateway.num_shards)
    return gateway
