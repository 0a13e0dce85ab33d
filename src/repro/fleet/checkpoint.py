"""Fleet-wide checkpoint/restore: one manifest plus per-home snapshots.

A fleet checkpoint is a *directory*::

    <dir>/manifest.json          the fleet layout (schema dice-fleet-manifest/3)
    <dir>/<home-file>.json       one versioned runtime snapshot per home

Each per-home file is exactly the versioned snapshot
:func:`repro.streaming.checkpoint.checkpoint_state` produces — the fleet
layer adds no per-home state of its own.  A single home runs as a fleet
of one, so its checkpoint is a directory too.

The manifest records the shard count the checkpoint was taken with, but a
restore may override it: the home → shard map is a pure hash of the home
id, so resharding relabels homes without touching any detection state.

Fitted detector models are *not* serialized (large, immutable; the
fleet's homes are refit or loaded from their own artefacts) — the caller
hands ``restore_fleet`` one fitted detector per home, and every home
entry's backend name, ``model`` fingerprint and base-context **content
hash** (:func:`~repro.core.context_hash`, captured pre-refresh) are
verified against it.  A restore refuses any home whose re-fit does not
reproduce the recorded bytes — then re-interns the detectors in the
restored gateway's shared-context store, so dedup (and copy-on-write
refresh replay) survives a restart and any reshard.  Only the current
manifest schema is accepted.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional, Union

from .. import telemetry
from ..core import DetectorBackend, DiceDetector, as_backend
from ..streaming import (
    CheckpointError,
    load_checkpoint,
    restore_runtime,
    save_checkpoint,
)
from ..streaming.checkpoint import write_json_atomic
from .gateway import FleetGateway

MANIFEST_SCHEMA = "dice-fleet-manifest/3"
MANIFEST_NAME = "manifest.json"

_log = telemetry.get_logger("repro.fleet.checkpoint")

PathLike = Union[str, os.PathLike]


def _home_filename(index: int) -> str:
    return f"home-{index:05d}.json"


def save_fleet_checkpoint(gateway: FleetGateway, directory: PathLike) -> None:
    """Write the manifest and every home's snapshot under *directory*.

    Per-home snapshots are written first (each atomically, via the
    streaming layer's write-then-rename), the manifest last — a crash
    mid-save leaves no manifest pointing at missing homes.
    """
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    homes: Dict[str, dict] = {}
    for index, home_id in enumerate(gateway.home_ids):
        runtime = gateway.runtime_of(home_id)
        filename = _home_filename(index)
        save_checkpoint(runtime, os.path.join(directory, filename))
        homes[home_id] = {
            "shard": gateway.shard_index_of(home_id),
            "file": filename,
            "backend": runtime.backend.name,
            "model": runtime.backend.fingerprint(),
            # The content hash of the *base* trained context (pre-refresh),
            # captured at runtime construction; restore validates the
            # re-fitted detector against it byte-for-byte.
            "context": getattr(runtime, "base_context_hash", None),
        }
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "version": 1,
        "num_shards": gateway.num_shards,
        "homes": homes,
    }
    # Fleet-level routing counters survive a restart just like the
    # per-home detection counters do (gauges are point-in-time and restart).
    if gateway.metrics.enabled:
        manifest["telemetry"] = gateway.metrics.counters_snapshot()
    write_json_atomic(manifest, os.path.join(directory, MANIFEST_NAME))
    _log.info(
        "fleet_checkpoint_saved",
        directory=directory,
        homes=len(homes),
        shards=gateway.num_shards,
    )


def load_fleet_manifest(directory: PathLike) -> dict:
    """Read and structurally validate a fleet manifest.

    Unreadable or non-JSON manifests raise :class:`CheckpointError` naming
    the path, matching the streaming layer's :func:`load_checkpoint`.
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
    homes = manifest.get("homes")
    if not isinstance(homes, dict):
        raise CheckpointError("fleet manifest has no homes mapping")
    if not isinstance(manifest.get("num_shards"), int) or manifest["num_shards"] < 1:
        raise CheckpointError("fleet manifest num_shards must be a positive int")
    for home_id, entry in homes.items():
        if not isinstance(entry, dict) or not isinstance(entry.get("file"), str):
            raise CheckpointError(f"manifest entry for {home_id!r} is malformed")
        if os.path.basename(entry["file"]) != entry["file"]:
            raise CheckpointError(
                f"manifest entry for {home_id!r} escapes the checkpoint directory"
            )
    return manifest


def restore_fleet(
    detectors: Dict[str, Union[DiceDetector, DetectorBackend]],
    directory: PathLike,
    *,
    num_shards: Optional[int] = None,
    metrics: Optional["telemetry.MetricsRegistry"] = None,
    **runtime_kwargs,
) -> FleetGateway:
    """Rebuild a :class:`FleetGateway` from a checkpoint directory.

    *detectors* maps every manifest home to its fitted detector (extra
    detectors are ignored; missing ones are an error).  *num_shards*
    defaults to the manifest's count; ``runtime_kwargs`` configure each
    restored :class:`~repro.streaming.HardenedOnlineDice` (lateness,
    supervisor policy, ...) exactly as :func:`~repro.streaming.restore_runtime`
    does.

    Each validated DICE detector is re-interned **before** its snapshot
    is replayed, so restored homes dedup exactly like freshly added ones
    and a carried refresh history forks its private copy on re-apply —
    even when *num_shards* moved the home to a different shard.
    """
    directory = os.fspath(directory)
    manifest = load_fleet_manifest(directory)
    missing = sorted(set(manifest["homes"]) - set(detectors))
    if missing:
        raise CheckpointError(
            f"no detector supplied for checkpointed homes: {', '.join(missing)}"
        )
    # Validate the whole manifest against the filesystem and the supplied
    # detectors *before* restoring anything: a missing snapshot file or a
    # fingerprint mismatch should name its home up front, not explode
    # halfway through a partially-built gateway.
    refit_hashes: Dict[str, str] = {}
    backends: Dict[str, DetectorBackend] = {}
    for home_id in sorted(manifest["homes"]):
        entry = manifest["homes"][home_id]
        snapshot_path = os.path.join(directory, entry["file"])
        if not os.path.exists(snapshot_path):
            raise CheckpointError(
                f"fleet manifest references a missing snapshot for home "
                f"{home_id!r}: {snapshot_path}"
            )
        backends[home_id] = backend = as_backend(detectors[home_id])
        recorded_backend = entry.get("backend")
        if recorded_backend != backend.name:
            raise CheckpointError(
                f"snapshot for home {home_id!r} was written by backend "
                f"{recorded_backend!r} but restore targets backend "
                f"{backend.name!r}"
            )
        expected = backend.fingerprint()
        recorded = entry.get("model")
        if recorded != expected:
            raise CheckpointError(
                f"snapshot for home {home_id!r} was taken against a different "
                f"model: {recorded} != {expected}"
            )
        recorded_hash = entry.get("context")
        refit_hashes[home_id] = refit = backend.context_hash()
        if refit != recorded_hash:
            raise CheckpointError(
                f"shared context mismatch for home {home_id!r}: the "
                f"checkpoint recorded base context {recorded_hash}, but "
                f"the supplied detector re-fit to {refit}"
            )
    gateway = FleetGateway(
        num_shards=num_shards or manifest["num_shards"], metrics=metrics
    )
    for home_id in sorted(manifest["homes"]):
        entry = manifest["homes"][home_id]
        try:
            state = load_checkpoint(os.path.join(directory, entry["file"]))
        except CheckpointError as exc:
            raise CheckpointError(f"home {home_id!r}: {exc}") from exc
        backend = backends[home_id]
        if backend.dice_detector is not None:
            # Intern before replaying the snapshot: refresh-history re-apply
            # must fork off the shared copy exactly as the original run did.
            gateway.context_store.intern(
                backend.dice_detector, key=refit_hashes[home_id]
            )
        runtime = restore_runtime(backend, state, **runtime_kwargs)
        gateway.add_runtime(home_id, runtime)
    fleet_counters = manifest.get("telemetry")
    if fleet_counters is not None and gateway.metrics.enabled:
        gateway.metrics.restore_counters(fleet_counters)
    _log.info(
        "fleet_resumed",
        directory=directory,
        homes=len(manifest["homes"]),
        shards=gateway.num_shards,
    )
    return gateway
