"""Versioned checkpoint/restore for the hardened gateway runtime.

A gateway can lose power mid-window.  A checkpoint captures *everything*
the online path accumulates between events — the windower's in-flight
accumulators, the detector-side group/anchor/session state, the reorder
buffer's pending events, and the supervisor's health counters — as plain
JSON, so that::

    restore(checkpoint(mid-stream)) + replay(tail)  ==  uninterrupted replay

holds exactly (the test suite checks byte-identical alert sequences).
Floats survive the round-trip losslessly because ``json`` serializes them
via ``repr``, which is shortest-round-trip in Python 3.

The snapshot does **not** include the fitted detector model (fit artefacts
are large and immutable; persist them separately) nor the alert history
(alerts already raised have been delivered).  It records the backend name
and the content hash of the base fitted model (``context``, captured
before any refresh), and a restore refuses any detector that does not
hash to it.  Snapshots reach disk only inside a fleet checkpoint
(:mod:`repro.fleet.checkpoint`), one entry per home.
"""

from __future__ import annotations

from typing import Union

from ..core import DetectorBackend, DiceDetector, as_backend

#: The only snapshot version restore accepts.  Version 7 names its model
#: by content hash alone (``context``); snapshots written by earlier
#: versions are rejected.
CHECKPOINT_VERSION = 7


class CheckpointError(ValueError):
    """A snapshot is malformed, from a different version, from a different
    fitted model, or from a different detector backend."""


def checkpoint_state(runtime) -> dict:
    """The full versioned snapshot for a :class:`HardenedOnlineDice`.

    Includes the telemetry *counter* families (monotone totals survive a
    gateway restart); gauges and histograms are point-in-time/process-local
    and restart from zero.
    """
    # The *base* hash (captured at construction, before any context
    # refresh): restore fits the model fresh and re-applies the carried
    # refresh history, so the snapshot names the pre-refresh model.
    state = {
        "version": CHECKPOINT_VERSION,
        "backend": runtime.backend.name,
        "context": runtime.base_context_hash,
        "runtime": runtime.state_dict(),
    }
    metrics = getattr(runtime, "metrics", None)
    if metrics is not None and metrics.enabled:
        state["telemetry"] = metrics.counters_snapshot()
    return state


def check_snapshot(backend: DetectorBackend, state: dict) -> None:
    """Raise :class:`CheckpointError` unless *state* is a current-version
    snapshot written by *backend*'s name against its fitted model."""
    if not isinstance(state, dict) or "version" not in state:
        raise CheckpointError("not a checkpoint snapshot")
    if state["version"] != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {state['version']} is not the supported "
            f"version {CHECKPOINT_VERSION}"
        )
    recorded = state.get("backend")
    if recorded != backend.name:
        raise CheckpointError(
            f"checkpoint was written by backend {recorded!r} but restore "
            f"targets backend {backend.name!r}"
        )
    expected = backend.context_hash()
    if state.get("context") != expected:
        raise CheckpointError(
            f"checkpoint was taken against a different model: context "
            f"{state.get('context')} != {expected}"
        )


def restore_runtime(
    detector: Union[DiceDetector, DetectorBackend], state: dict, **runtime_kwargs
):
    """Rebuild a :class:`HardenedOnlineDice` from a snapshot.

    ``runtime_kwargs`` pass through to the :class:`HardenedOnlineDice`
    constructor.  The snapshot itself restores the reorder buffer's
    lateness/capacity and the supervisor policy, so those overrides only
    shape the runtime until its state loads.
    """
    backend = as_backend(detector)
    check_snapshot(backend, state)
    return load_runtime(backend, state, **runtime_kwargs)


def load_runtime(backend: DetectorBackend, state: dict, **runtime_kwargs):
    """:func:`restore_runtime` without the check: *state* must already
    have passed :func:`check_snapshot` against *backend*."""
    from .runtime import HardenedOnlineDice

    runtime = HardenedOnlineDice(backend, **runtime_kwargs)
    runtime.load_state(state["runtime"])
    telemetry_state = state.get("telemetry")
    if telemetry_state is not None:
        runtime.metrics.restore_counters(telemetry_state)
    return runtime
