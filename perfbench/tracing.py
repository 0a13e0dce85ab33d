"""Spans and counters recorded around calls into the program's layers.

The benchmark never edits the program: it replaces a layer's public
method (or a module-level function binding) with a wrapper that times
the call and hands it on.  Each span records its name, start, end,
parent span and trace id; a root span opens a new trace id and its
descendants inherit it, so every span of one dispatch batch shares one
id.  Spans stay in memory (a flat ``array('q')``) and are written out
when the run ends — or, for a process about to be killed, when the
benchmark asks for a flush.
"""

from __future__ import annotations

import functools
import json
import os
import time
from array import array
from typing import Callable, Dict, List, Optional

#: Span name → ledger layer.  The layer rows of the per-layer ledger sum
#: the self times of their spans.
SPAN_LAYERS = {
    "protocol.feed": "protocol",
    "durable.dispatch": "durable",
    "journal.append": "journal",
    "gateway.dispatch": "gateway",
    "gateway.warm": "gateway",
    "runtime.stage": "runtime.stage",
    "runtime.drain": "runtime.drain",
    "guard.admit": "guard",
    "reorder.push": "reorder",
    "supervisor.observe": "supervisor",
    "supervisor.check_silence": "supervisor",
    "windower.push": "windower",
    "session.observe_window": "session",
    "checks.check": "checks",
    "identification.identify": "identification",
    "identification.update": "identification",
    "provenance.record": "provenance",
    "provenance.append": "provenance.wal",
    "outbox.offer": "outbox",
    "outbox.deliver": "outbox",
}

FIELDS = 5  # name id, start ns, end ns, parent index, trace id


class Recorder:
    """In-memory spans plus named counters for one process."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.spans = array("q")
        self._stack: List[int] = []
        self.counters: Dict[str, float] = {}

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def high(self, name: str, value: float) -> None:
        if value > self.counters.get(name, float("-inf")):
            self.counters[name] = value

    def inside(self, name: str) -> bool:
        """Whether a span called *name* is open on the current stack."""
        nid = self._name_ids.get(name)
        spans = self.spans
        return nid is not None and any(
            spans[index * FIELDS] == nid for index in self._stack
        )

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(
        self,
        owner,
        attr: str,
        span: Optional[str] = None,
        observe: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper.

        With *span* each call records a span; *observe*
        runs after the call as ``observe(args, kwargs, result)`` to update
        counters at the same boundary.
        """
        original = owner.__dict__[attr]
        if span is None:
            if observe is None:
                return

            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                observe(args, kwargs, result)
                return result

        else:
            nid = self._name_id(span)
            spans = self.spans
            stack = self._stack
            clock = time.perf_counter_ns

            def wrapper(*args, **kwargs):
                index = len(spans) // FIELDS
                parent = stack[-1] if stack else -1
                trace = spans[parent * FIELDS + 4] if parent >= 0 else index
                spans.extend((nid, clock(), 0, parent, trace))
                stack.append(index)
                try:
                    result = original(*args, **kwargs)
                finally:
                    spans[index * FIELDS + 2] = clock()
                    stack.pop()
                if observe is not None:
                    observe(args, kwargs, result)
                return result

        functools.update_wrapper(wrapper, original)
        setattr(owner, attr, wrapper)

    def write(self, prefix: str, extra: dict) -> None:
        """Write spans (``<prefix>.spans``, int64) and the rest as JSON."""
        with open(prefix + ".spans.tmp", "wb") as handle:
            self.spans.tofile(handle)
        os.replace(prefix + ".spans.tmp", prefix + ".spans")
        payload = {"names": self.names, "counters": self.counters, **extra}
        with open(prefix + ".json.tmp", "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(prefix + ".json.tmp", prefix + ".json")


def peak_rss_kb() -> int:
    """This process's peak resident set (``VmHWM``), in KiB."""
    with open("/proc/self/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def read_spans(prefix: str):
    """``(names, rows)`` of a written span file; rows are 5-int lists."""
    import numpy as np

    with open(prefix + ".json", "r", encoding="utf-8") as handle:
        meta = json.load(handle)
    rows = np.fromfile(prefix + ".spans", dtype=np.int64).reshape(-1, FIELDS)
    return meta, rows


def install_serve_layers(rec: Recorder) -> None:
    """Wrap the served path's layer entry points (traced server runs)."""
    from repro.core.backend import DetectorBackend, DiceBackend
    from repro.core.checks import CorrelationChecker
    from repro.core.identification import IdentificationSession
    from repro.durability import fleet as durable_fleet
    from repro.durability.fleet import DurableFleetGateway
    from repro.durability.journal import EventJournal
    from repro.durability.outbox import AlertOutbox
    from repro.durability.provenance import ProvenanceLog
    from repro.fleet.gateway import FleetGateway
    from repro.service.protocol import FrameDecoder
    from repro.streaming.guard import IngestGuard
    from repro.streaming.reorder import ReorderBuffer
    from repro.streaming.runtime import HardenedOnlineDice
    from repro.streaming.supervisor import DeviceSupervisor
    from repro.streaming.windower import OnlineWindower
    from repro.telemetry.provenance import ProvenanceRecorder

    def frames(args, kwargs, result):
        rec.count("protocol.frames", len(result))

    def dispatched(args, kwargs, result):
        rec.count("server.events", len(args[1]))
        rec.count("server.dispatches")

    def appended(args, kwargs, result):
        rec.count("journal.appends")
        rec.count("journal.bytes", len(args[1]))

    def replayed(args, kwargs, result):
        rec.count("journal.replay_records", len(result[0]))

    def saved(args, kwargs, result):
        directory = os.fspath(args[1])
        size = 0
        for name in os.listdir(directory):
            path = os.path.join(directory, name)
            if os.path.isfile(path):
                size += os.path.getsize(path)
        rec.high("checkpoint.bytes", size)

    def warmed(args, kwargs, result):
        rec.count("gateway.memo_warm_masks", result)

    def pushed(args, kwargs, result):
        rec.high("reorder.pending_max", args[0].pending)

    def observed(args, kwargs, result):
        qbits = args[2] if len(args) > 2 else kwargs.get("qbits", 0)
        rec.count("session.windows")
        if qbits:
            rec.count("session.quarantined_windows")

    def checked(args, kwargs, result):
        if result.violation:
            rec.count("checks.violations")

    def session_opened(args, kwargs, result):
        rec.count("identification.sessions")

    def delivered(args, kwargs, result):
        rec.count("outbox.delivered", result["delivered"])
        rec.count("outbox.dead_letters", result["dead"])

    w = rec.wrap
    w(FrameDecoder, "feed", "protocol.feed", frames)
    w(DurableFleetGateway, "dispatch", "durable.dispatch", dispatched)
    w(EventJournal, "append_frame", "journal.append", appended)
    w(durable_fleet, "replay_records", "journal.replay", replayed)
    w(DurableFleetGateway, "save_checkpoint", "checkpoint.save", saved)
    w(durable_fleet, "restore_fleet", "checkpoint.restore")
    w(HardenedOnlineDice, "ingest", "recover.ingest")
    w(FleetGateway, "dispatch", "gateway.dispatch")
    w(CorrelationChecker, "warm", "gateway.warm", warmed)
    w(HardenedOnlineDice, "stage_event", "runtime.stage")
    w(HardenedOnlineDice, "drain_staged", "runtime.drain")
    w(IngestGuard, "admit", "guard.admit")
    w(ReorderBuffer, "push", "reorder.push", pushed)
    w(DeviceSupervisor, "observe", "supervisor.observe")
    w(DeviceSupervisor, "check_silence", "supervisor.check_silence")
    w(OnlineWindower, "push", "windower.push")
    w(DetectorBackend, "observe_window", "session.observe_window", observed)
    w(DiceBackend, "check", "checks.check", checked)
    w(DiceBackend, "identify", "identification.identify")
    w(IdentificationSession, "update", "identification.update")
    w(IdentificationSession, "__init__", None, session_opened)
    w(ProvenanceRecorder, "record", "provenance.record")
    w(ProvenanceLog, "append", "provenance.append")
    w(AlertOutbox, "deliver_pending", "outbox.deliver", delivered)


def install_eval_layers(rec: Recorder, checkers: Dict[int, object]) -> None:
    """Wrap the batch path's entry points (traced paper-eval runs).

    *checkers* collects every correlation checker ``check_many`` ran on,
    so memo and kernel counters can be read once the protocol ends.
    """
    from repro.core.checks import CorrelationChecker
    from repro.core.detector import DiceDetector
    from repro.core.encoding import StateSetEncoder
    from repro.core.identification import IdentificationSession, Identifier

    def encoded(args, kwargs, result):
        if not rec.inside("eval.fit"):
            rec.count("eval.encoded_windows", len(result))

    def checked(args, kwargs, result):
        checkers[id(args[0])] = args[0]
        rec.count("eval.checked_windows", len(result))

    def processed(args, kwargs, result):
        rec.count("eval.events", len(args[1]))

    w = rec.wrap
    w(DiceDetector, "process", None, processed)
    w(DiceDetector, "fit", "eval.fit")
    w(StateSetEncoder, "encode", "eval.encode", encoded)
    w(CorrelationChecker, "check_many", "eval.check_many", checked)
    w(Identifier, "from_correlation_violation", "eval.identify")
    w(Identifier, "from_transition_violations", "eval.identify")
    w(IdentificationSession, "update", "eval.identify")
