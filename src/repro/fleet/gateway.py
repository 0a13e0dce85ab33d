"""The sharded multi-home gateway: one process hosting a fleet of homes.

:class:`FleetGateway` is the router the ROADMAP's fleet-scale deployments
put in front of many per-home :class:`~repro.streaming.HardenedOnlineDice`
instances.  Each home carries a shard label, a pure hash of its id
(:func:`~repro.fleet.sharding.shard_of`).  The label places the home in
the checkpoint layout and the per-shard telemetry; it holds no state, so
resharding only relabels homes.

The load-bearing guarantee, pinned by the test suite: **sharding is an
invisible scaling layer**.  For any event stream, a fleet run with any
shard count produces, per home, exactly the alert sequence that home's
runtime would produce standalone.  The router therefore never reorders a
home's events, never routes across homes, and never injects synthetic
time: :meth:`dispatch` only feeds events, and :meth:`finish` closes the
streams the way a standalone ``finish_stream`` would.  (The fleet-level
*interleaving* of different homes' alerts is deliberately unspecified.)

Telemetry stays shared-nothing too: every home's runtime records into its
own detector's registry, and :meth:`metrics_snapshot` joins them with
:func:`~repro.telemetry.merge_many` — the same worker-join primitive the
parallel evaluation runner uses.

Two capacity layers ride on the invisibility guarantee, both always on
and both per-home-parity-preserving:

* **Shared contexts** — :meth:`add_home` interns each fitted DICE
  detector in the gateway's :class:`~repro.core.SharedContextStore`;
  homes whose trained state is content-identical reference one frozen
  copy (copy-on-write: the first context refresh forks a private one).
  :meth:`memory_report` accounts for the savings.
* **Batched tick** — :meth:`dispatch` stages the whole batch once,
  pre-warms each distinct correlation memo once across all homes in the
  batch (one vectorised ``distances_many`` pass instead of per-home
  scalar scans), then drains per home.  Only the fleet-level alert
  interleaving — unspecified anyway — differs from feeding each home's
  standalone runtime event by event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .. import telemetry
from ..core import (
    CorrelationChecker,
    DetectorBackend,
    DiceDetector,
    SharedContextStore,
    as_backend,
    trained_context_nbytes,
)
from ..model import Event
from ..streaming import Alert, HardenedOnlineDice
from .sharding import shard_of

#: Fleet-router counters/gauges.
FLEET_EVENTS_TOTAL = "dice_fleet_events_total"
FLEET_UNROUTED_TOTAL = "dice_fleet_unrouted_total"
FLEET_DISPATCHES_TOTAL = "dice_fleet_dispatches_total"
FLEET_HOMES_GAUGE = "dice_fleet_homes"

_log = telemetry.get_logger("repro.fleet.gateway")


def _rss_bytes() -> Optional[int]:
    """Process resident set size (Linux), informational only — allocator
    behaviour makes RSS unfit for CI budgets, unlike the estimator."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


@dataclass(frozen=True)
class FleetAlert:
    """One alert, attributed to the home whose runtime raised it."""

    home_id: str
    alert: Alert


class FleetGateway:
    """Shard router + per-home runtime registry for one fleet process.

    Parameters
    ----------
    num_shards:
        Shard label count.  Any positive value is legal for any fleet;
        the home → shard map is a pure hash, so changing the count between
        runs (including across a checkpoint/restore cycle) only relabels
        homes.
    metrics:
        Registry for the *router's* counters (events routed, unrouted
        drops, homes per shard).  Defaults to a fresh private registry so
        fleet-level numbers never mix with any single home's; pass
        ``telemetry.NULL_REGISTRY`` to disable.
    """

    def __init__(
        self,
        num_shards: int = 4,
        *,
        metrics: Optional["telemetry.MetricsRegistry"] = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        self.num_shards = int(num_shards)
        #: Content-addressed trained contexts of every hosted DICE home.
        self.context_store = SharedContextStore()
        self._runtimes: Dict[str, HardenedOnlineDice] = {}
        #: home id → shard label, fixed when the home attaches.
        self._shard_labels: Dict[str, str] = {}
        self.unrouted = 0
        self.metrics = (
            metrics if metrics is not None else telemetry.MetricsRegistry()
        )
        self._events_counter = self.metrics.counter(
            FLEET_EVENTS_TOTAL,
            "Events routed to a shard, by shard index",
            labelnames=("shard",),
        )
        self._unrouted_counter = self.metrics.counter(
            FLEET_UNROUTED_TOTAL, "Events addressed to homes this fleet does not host"
        )
        self._dispatch_counter = self.metrics.counter(
            FLEET_DISPATCHES_TOTAL, "dispatch() batches processed"
        )
        if self.metrics.enabled:
            homes_gauge = self.metrics.gauge(
                FLEET_HOMES_GAUGE, "Homes hosted per shard", labelnames=("shard",)
            )

            def collect() -> None:
                for shard, count in self.homes_per_shard().items():
                    homes_gauge.labels(shard=shard).set(count)

            self.metrics.register_collector("fleet", collect)

    # ------------------------------------------------------------------ #
    # Home management
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._runtimes)

    def __contains__(self, home_id: str) -> bool:
        return home_id in self._runtimes

    @property
    def home_ids(self) -> List[str]:
        """Hosted homes, sorted."""
        return sorted(self._runtimes)

    def runtime_of(self, home_id: str) -> HardenedOnlineDice:
        return self._runtimes[home_id]

    def shard_index_of(self, home_id: str) -> int:
        return shard_of(home_id, self.num_shards)

    def add_home(
        self,
        home_id: str,
        detector: Union[DiceDetector, DetectorBackend],
        *,
        start: float = 0.0,
        **runtime_kwargs,
    ) -> HardenedOnlineDice:
        """Create and register a hardened runtime for *home_id*.

        *detector* is a fitted :class:`DiceDetector` or any fitted
        :class:`~repro.core.DetectorBackend`.  ``runtime_kwargs`` pass
        through to :class:`HardenedOnlineDice` (lateness budget, supervisor
        policy, ...).  A DICE detector is interned *before* the runtime
        captures its base hash — an adopted detector reuses the canonical
        copy's.  Backends without a DICE context (Markov, ensembles) skip
        interning.
        """
        backend = as_backend(detector)
        if backend.dice_detector is not None:
            self.context_store.intern(backend.dice_detector)
        runtime = HardenedOnlineDice(backend, start=start, **runtime_kwargs)
        return self.add_runtime(home_id, runtime)

    def add_runtime(
        self, home_id: str, runtime: HardenedOnlineDice
    ) -> HardenedOnlineDice:
        """Register an existing runtime (checkpoint restore path)."""
        if home_id in self._runtimes:
            raise ValueError(f"home {home_id!r} is already hosted")
        # Alert provenance trace ids hash the home id; stamp it the moment
        # home identity attaches, before any event can reach the runtime.
        if runtime.provenance.enabled:
            runtime.provenance.home_id = home_id
        shard = str(shard_of(home_id, self.num_shards))
        self._runtimes[home_id] = runtime
        self._shard_labels[home_id] = shard
        _log.debug("home_added", home=home_id, shard=shard)
        return runtime

    def homes_per_shard(self) -> Dict[str, int]:
        """Hosted homes per shard label (every label, empty ones too)."""
        counts = {str(index): 0 for index in range(self.num_shards)}
        for shard in self._shard_labels.values():
            counts[shard] += 1
        return counts

    # ------------------------------------------------------------------ #
    # Event flow
    # ------------------------------------------------------------------ #

    def dispatch(
        self, events: Iterable[Tuple[str, Event]]
    ) -> List[FleetAlert]:
        """Route one tick's batch of ``(home_id, event)`` pairs.

        Each home sees its events in arrival order.  The whole batch is
        staged first, each distinct correlation memo is warmed once with
        every staged window that will consult it, and then every home
        drains its staged items — alerts come out grouped by home, an
        interleaving the gateway contract leaves unspecified.  Staging
        pins quarantine bits per window and warming is a pure cache fill,
        so per-home alert sequences match the home's standalone runtime
        fed event by event.  Events addressed to homes this fleet does
        not host are counted (``dice_fleet_unrouted_total``) and dropped —
        a router must never crash on a stray tenant id.
        """
        runtimes = self._runtimes
        labels = self._shard_labels
        routed: Dict[str, int] = {}
        staged: Dict[str, List[tuple]] = {}
        fresh: List[FleetAlert] = []
        for home_id, event in events:
            runtime = runtimes.get(home_id)
            if runtime is None:
                self.unrouted += 1
                self._unrouted_counter.inc()
                continue
            shard = labels[home_id]
            routed[shard] = routed.get(shard, 0) + 1
            items = staged.get(home_id)
            if items is None:
                items = staged[home_id] = []
            runtime.stage_event(event, items)
        warm: Dict[int, Tuple[CorrelationChecker, List[int]]] = {}
        for home_id, items in staged.items():
            runtime = runtimes[home_id]
            checker = runtime.backend.correlation_checker
            if checker is None:  # backend has no correlation memo to warm
                continue
            masks = runtime.staged_window_masks(items)
            if not masks:
                continue
            entry = warm.get(id(checker))
            if entry is None:
                warm[id(checker)] = (checker, masks)
            else:
                entry[1].extend(masks)
        for checker, masks in warm.values():
            checker.warm(masks)
        for home_id, items in staged.items():
            for alert in runtimes[home_id].drain_staged(items):
                fresh.append(FleetAlert(home_id, alert))
        for shard, count in routed.items():
            self._events_counter.labels(shard=shard).inc(count)
        self._dispatch_counter.inc()
        return fresh

    def advance_to(self, timestamp: float) -> List[FleetAlert]:
        """Account for wall-clock time on every home.

        Alert *content* is the same as an event-driven run would produce,
        but quiet-tail windows and silence verdicts may surface earlier;
        the parity-pinned drivers (tests, bench, CLI) are therefore purely
        event-driven and call :meth:`finish` once at end-of-stream.
        """
        return [
            FleetAlert(home_id, alert)
            for home_id, runtime in self._runtimes.items()
            for alert in runtime.advance_to(timestamp)
        ]

    def finish(
        self, ends: Union[None, float, Dict[str, float]] = None
    ) -> List[FleetAlert]:
        """End-of-stream for every home.

        *ends* is one timestamp for the whole fleet, a per-home mapping,
        or ``None`` (flush buffers and conclude sessions without closing
        a quiet tail).
        """
        single = ends is None or isinstance(ends, (int, float))
        return [
            FleetAlert(home_id, alert)
            for home_id, runtime in self._runtimes.items()
            for alert in runtime.finish_stream(
                ends if single else ends.get(home_id)
            )
        ]

    def finish_home(
        self, home_id: str, end: Optional[float] = None
    ) -> List[FleetAlert]:
        """End-of-stream for a single home (the ingest service's per-stream
        close), leaving every other home's stream open."""
        runtime = self._runtimes[home_id]
        return [FleetAlert(home_id, alert) for alert in runtime.finish_stream(end)]

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #

    def alerts_of(self, home_id: str) -> List[Alert]:
        """A copy of one home's alert sequence (its runtime's history), in
        emission order."""
        return list(self._runtimes[home_id].alerts)

    def memory_report(self) -> dict:
        """Fleet memory accounting: trained-state bytes as hosted (shared)
        vs what per-home replication would cost, plus store dedup stats.

        The byte numbers come from the deterministic
        :func:`~repro.core.trained_context_nbytes` estimator — an adopted
        detector reports the canonical copy's size, so summing over homes
        *is* the replicated cost.  RSS rides along informationally.
        """
        per_context: Dict[int, int] = {}
        replicated = 0
        for home_id in sorted(self._runtimes):
            detector = self._runtimes[home_id].detector
            if detector is None:  # backend without a DICE trained context
                continue
            nbytes = trained_context_nbytes(detector)
            replicated += nbytes
            per_context.setdefault(id(detector.model), nbytes)
        shared = sum(per_context.values())
        homes = len(self._runtimes)
        return {
            "homes": homes,
            "distinct_contexts": len(per_context),
            "trained_bytes_shared": shared,
            "trained_bytes_replicated": replicated,
            "trained_bytes_per_home": (shared / homes) if homes else 0.0,
            "replicated_bytes_per_home": (replicated / homes) if homes else 0.0,
            "savings_ratio": (replicated / shared) if shared else 1.0,
            "store": self.context_store.stats(),
            "rss_bytes": _rss_bytes(),
        }

    def metrics_snapshot(self) -> dict:
        """One fleet-wide snapshot: router registry + every home's, merged.

        Homes sharing a registry object (e.g. all defaulted to the
        process-global one) are merged exactly once — counters must not be
        double-counted just because tenants share a sink.
        """
        snapshots = [self.metrics.snapshot()]
        seen = {id(self.metrics)}
        for home_id in sorted(self._runtimes):
            registry = self._runtimes[home_id].metrics
            if id(registry) in seen:
                continue
            seen.add(id(registry))
            snapshots.append(registry.snapshot())
        return telemetry.merge_many(snapshots)

    def health(self) -> dict:
        """JSON-serializable fleet health: routing totals plus a per-home
        rollup of the numbers an operator triages by."""
        alert_counts: Dict[str, int] = {}
        homes = {}
        for home_id in sorted(self._runtimes):
            runtime = self._runtimes[home_id]
            for alert in runtime.alerts:
                alert_counts[alert.kind] = alert_counts.get(alert.kind, 0) + 1
            homes[home_id] = {
                "shard": self.shard_index_of(home_id),
                "backend": runtime.backend.name,
                "alerts": len(runtime.alerts),
                "drops": runtime.drops.total,
                "quarantined": sorted(runtime.supervisor.quarantined),
            }
        return {
            "num_shards": self.num_shards,
            "num_homes": len(self._runtimes),
            "homes_per_shard": self.homes_per_shard(),
            "alerts": alert_counts,
            "unrouted": self.unrouted,
            "contexts": self.context_store.stats(),
            "homes": homes,
        }

    # ------------------------------------------------------------------ #
    # Checkpoint (see repro.fleet.checkpoint)
    # ------------------------------------------------------------------ #

    def save_checkpoint(self, directory) -> None:
        from .checkpoint import save_fleet_checkpoint

        save_fleet_checkpoint(self, directory)
