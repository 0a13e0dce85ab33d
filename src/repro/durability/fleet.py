"""The durable gateway: per-home journals, a shared outbox, crash recovery.

:class:`DurableFleetGateway` wraps a :class:`~repro.fleet.FleetGateway`
so that a crash anywhere loses nothing.  A single home runs as a fleet of
one, so this is the only durable path:

* each hosted home owns one :class:`~repro.durability.journal.EventJournal`
  under a shared root (``<root>/<home_id>/``) — journals are keyed by
  *home*, not by shard, so resharding on restore replays correctly (the
  home → shard map is a pure hash and carries no journal state);
* every routed event is journaled before dispatch; unrouted events are
  dropped by the router as always and never journaled (they carry no
  state to recover);
* a gateway never appends to a segment from an earlier life: every home
  whose journal already has segments starts a fresh one (such a segment
  may end in a torn record, and replay stops there);
* fleet alerts get per-home sequence numbers and flow into one shared
  :class:`~repro.durability.outbox.AlertOutbox`, with home-qualified ids;
* :meth:`save_checkpoint` writes the fleet checkpoint — one
  ``manifest.json`` that also carries a ``durability`` block (per-home
  journal epochs, alert and ingest sequences) — then rotates and
  truncates every home journal;
* :meth:`recover` = restore fleet checkpoint + replay every home's
  journal tail, home by home — per-home alert streams are reproduced
  exactly for any shard count (chaos-harness pinned).
"""

from __future__ import annotations

import os
import time
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .. import telemetry
from ..core import DiceDetector
from ..model import Event
from ..streaming import CheckpointError
from ..fleet import (
    MANIFEST_NAME,
    FleetAlert,
    FleetGateway,
    load_fleet_manifest,
    restore_fleet,
    save_fleet_checkpoint,
)
from .journal import EventJournal, replay_records
from .outbox import AlertOutbox, alert_record
from .provenance import ProvenanceLog
from .runtime import (
    RECOVERY_BUCKETS,
    RECOVERY_SECONDS_HISTOGRAM,
    encode_event_frame,
    record_to_event,
)

PathLike = Union[str, os.PathLike]

_log = telemetry.get_logger("repro.durability.fleet")


class DurableFleetGateway:
    """A :class:`FleetGateway` wrapped with per-home journals + outbox."""

    def __init__(
        self,
        gateway: FleetGateway,
        journal_root: PathLike,
        *,
        fsync: str = "never",
        outbox: Optional[AlertOutbox] = None,
        alert_seqs: Optional[Dict[str, int]] = None,
        ingest_seqs: Optional[Dict[str, int]] = None,
    ) -> None:
        self.gateway = gateway
        self.journal_root = os.fspath(journal_root)
        self.fsync = fsync
        self.outbox = outbox
        self.alert_seqs: Dict[str, int] = dict(alert_seqs or {})
        #: Per-home count of journaled events — advances exactly when a
        #: routed event's frame hits its journal, so it doubles as the
        #: ingest service's exact resume sequence.
        self.ingest_seqs: Dict[str, int] = dict(ingest_seqs or {})
        self.journals: Dict[str, EventJournal] = {}
        self.provenance_logs: Dict[str, ProvenanceLog] = {}
        for home_id in gateway.home_ids:
            self._journal_of(home_id)

    def _journal_of(self, home_id: str) -> EventJournal:
        """The home's journal, opened on a fresh segment whenever earlier
        segments exist — never appended to a segment from an earlier life."""
        journal = self.journals.get(home_id)
        if journal is None:
            journal = EventJournal(
                os.path.join(self.journal_root, home_id),
                fsync=self.fsync,
                metrics=self.gateway.runtime_of(home_id).metrics,
            )
            if journal.segments():
                journal.rotate(journal.epoch + 1)
            self.journals[home_id] = journal
        return journal

    def provenance_log_of(self, home_id: str) -> ProvenanceLog:
        """The home's evidence archive (``<root>/<home_id>/provenance.wal``)."""
        log = self.provenance_logs.get(home_id)
        if log is None:
            log = ProvenanceLog(
                os.path.join(self.journal_root, home_id),
                metrics=self.gateway.runtime_of(home_id).metrics,
            )
            self.provenance_logs[home_id] = log
        return log

    # ------------------------------------------------------------------ #

    @property
    def alerts(self) -> List[FleetAlert]:
        return self.gateway.alerts

    @property
    def num_shards(self) -> int:
        return self.gateway.num_shards

    def __len__(self) -> int:
        return len(self.gateway)

    def __contains__(self, home_id: str) -> bool:
        return home_id in self.gateway

    @property
    def home_ids(self) -> List[str]:
        return self.gateway.home_ids

    @property
    def unrouted(self) -> int:
        return self.gateway.unrouted

    def runtime_of(self, home_id: str):
        return self.gateway.runtime_of(home_id)

    def metrics_snapshot(self) -> dict:
        return self.gateway.metrics_snapshot()

    def alerts_of(self, home_id: str):
        return self.gateway.alerts_of(home_id)

    def _publish(self, fresh: List[FleetAlert]) -> List[FleetAlert]:
        homes: List[str] = []
        for fleet_alert in fresh:
            seq = self.alert_seqs.get(fleet_alert.home_id, 0) + 1
            self.alert_seqs[fleet_alert.home_id] = seq
            if self.outbox is not None:
                self.outbox.offer(
                    alert_record(fleet_alert.home_id, seq, fleet_alert.alert)
                )
            if fleet_alert.home_id not in homes:
                homes.append(fleet_alert.home_id)
        # Archive each involved home's sealed evidence records beside its
        # event journal (dedup makes recovery re-publishes idempotent).
        for home_id in homes:
            recorder = self.gateway.runtime_of(home_id).provenance
            if not recorder.enabled:
                continue
            log = self.provenance_log_of(home_id)
            for record in recorder.drain_unjournaled():
                log.append(record)
        return fresh

    def dispatch(self, events: Iterable[Tuple[str, Event]]) -> List[FleetAlert]:
        """Journal each routed event into its home's journal, then route.

        The batch is materialised so the journal write strictly precedes
        the dispatch that consumes it — the write-ahead invariant.
        """
        batch = list(events)
        for home_id, event in batch:
            if home_id in self.gateway:
                self._journal_of(home_id).append_frame(encode_event_frame(event))
                self.ingest_seqs[home_id] = self.ingest_seqs.get(home_id, 0) + 1
        return self._publish(self.gateway.dispatch(batch))

    def finish(self, ends=None) -> List[FleetAlert]:
        return self._publish(self.gateway.finish(ends))

    def finish_home(self, home_id: str, end=None) -> List[FleetAlert]:
        """Close one home's stream (the service's per-connection ``end``)."""
        return self._publish(self.gateway.finish_home(home_id, end))

    def deliver_pending(self) -> dict:
        if self.outbox is None:
            return {"delivered": 0, "dead": 0}
        return self.outbox.deliver_pending()

    def health(self) -> dict:
        report = self.gateway.health()
        report["durability"] = {
            "journal_epochs": {
                home_id: journal.epoch
                for home_id, journal in sorted(self.journals.items())
            },
            "alert_seqs": dict(sorted(self.alert_seqs.items())),
            "ingest_seqs": dict(sorted(self.ingest_seqs.items())),
            "outbox_pending": 0 if self.outbox is None else len(self.outbox.pending),
        }
        return report

    def close(self) -> None:
        for journal in self.journals.values():
            journal.close()

    # ------------------------------------------------------------------ #
    # Checkpoint & recovery
    # ------------------------------------------------------------------ #

    def save_checkpoint(self, directory: PathLike) -> None:
        """Fleet checkpoint with its durability block, then rotate/truncate.

        Order is the crash-safety argument: journals are synced first
        (every event the checkpoint accounts for is on disk), then the one
        manifest is written and made durable by a single rename, and only
        then are superseded segments dropped — a crash at any point leaves
        either the old checkpoint with its full journals, or the new one
        with at worst some not-yet-truncated (ignored) segments.
        """
        for journal in self.journals.values():
            journal.sync()
        epochs = {
            home_id: journal.epoch for home_id, journal in self.journals.items()
        }
        save_fleet_checkpoint(
            self.gateway,
            directory,
            durability={
                "journal_epochs": epochs,
                "alert_seqs": dict(self.alert_seqs),
                "ingest_seqs": dict(self.ingest_seqs),
            },
        )
        for home_id, journal in self.journals.items():
            superseded = epochs[home_id]
            journal.rotate(superseded + 1)
            journal.truncate_through(superseded)

    @classmethod
    def recover(
        cls,
        detectors: Dict[str, DiceDetector],
        journal_root: PathLike,
        *,
        checkpoint_dir: Optional[PathLike] = None,
        gateway: Optional[FleetGateway] = None,
        num_shards: Optional[int] = None,
        fsync: str = "never",
        outbox: Optional[AlertOutbox] = None,
        metrics: Optional["telemetry.MetricsRegistry"] = None,
        **runtime_kwargs,
    ) -> Tuple["DurableFleetGateway", List[FleetAlert]]:
        """Fleet-wide checkpoint + journal-tail restart.

        When *checkpoint_dir* holds a manifest, the fleet is restored from
        it (optionally resharded via *num_shards* — journals are per-home,
        so the replay is shard-layout independent); otherwise the caller
        must supply a freshly built *gateway* to replay into (the
        crashed-before-first-checkpoint case).

        Returns ``(durable_fleet, replayed_alerts)``.
        """
        t0 = time.perf_counter()
        durability: dict = {}
        if checkpoint_dir is not None and os.path.exists(
            os.path.join(os.fspath(checkpoint_dir), MANIFEST_NAME)
        ):
            manifest = load_fleet_manifest(checkpoint_dir)
            durability = manifest.get("durability", {})
            gateway = restore_fleet(
                detectors,
                manifest,
                num_shards=num_shards,
                metrics=metrics,
                **runtime_kwargs,
            )
            # The parsed snapshots are dead once restored: free them before
            # the journal-tail replay reaches its memory peak.
            del manifest
        elif gateway is None:
            raise CheckpointError(
                "no fleet checkpoint to restore and no fresh gateway supplied"
            )
        epochs = durability.get("journal_epochs", {})
        ingest_seqs = dict(durability.get("ingest_seqs", {}))
        # Replay every home's tail before the journals open: a torn tail is
        # legal only in the newest segment, and opening a journal over old
        # segments starts a fresh one.  The tail streams from disk, one
        # decoded record at a time.
        replayed: List[FleetAlert] = []
        total_records = 0
        for home_id in gateway.home_ids:
            runtime = gateway.runtime_of(home_id)
            tail, _ = replay_records(
                os.path.join(os.fspath(journal_root), home_id),
                after_epoch=epochs.get(home_id, -1),
                metrics=runtime.metrics,
            )
            total_records += len(tail)
            replayed_events = 0
            for record in tail:
                if record.get("type") != "event":
                    continue
                replayed_events += 1
                for alert in runtime.ingest(record_to_event(record)):
                    replayed.append(FleetAlert(home_id, alert))
            if replayed_events:
                # The journal tail holds events appended after the
                # checkpoint — the resume sequence advances past them.
                ingest_seqs[home_id] = ingest_seqs.get(home_id, 0) + replayed_events
        gateway.alerts.extend(replayed)
        durable = cls(
            gateway,
            journal_root,
            fsync=fsync,
            outbox=outbox,
            alert_seqs=durability.get("alert_seqs", {}),
            ingest_seqs=ingest_seqs,
        )
        durable._publish(replayed)
        elapsed = time.perf_counter() - t0
        gateway.metrics.histogram(
            RECOVERY_SECONDS_HISTOGRAM,
            "Wall-clock seconds to restore checkpoint and replay the journal tail",
            buckets=RECOVERY_BUCKETS,
        ).observe(elapsed)
        _log.info(
            "fleet_recovered",
            journal_root=os.fspath(journal_root),
            homes=len(gateway),
            replayed=total_records,
            seconds=round(elapsed, 6),
        )
        return durable, replayed
