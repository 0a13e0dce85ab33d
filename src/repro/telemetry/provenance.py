"""Alert provenance: stable trace ids + per-alert evidence chains.

An alert that only says *what* was detected is a dead end at 3 a.m.; the
operator's question is always *why* — which windows, which group distances,
which zero-probability transition, what quarantine/refresh state.  The
:class:`ProvenanceRecorder` answers it: every alert a runtime emits gets a
stable ``trace_id`` (blake2b over ``home/seq`` + alert content — the exact
id scheme the durable outbox stamps on delivered alerts, so the two always
agree) and a compact, schema-versioned evidence record:

* the contributing window(s): index, bounds, encoded state-set mask;
* the correlation check's verdict: main group, candidate groups with their
  Hamming distances, the distance bound in force;
* every transition violation with its probability terms (count, row total,
  probability) straight from the fitted :class:`TransitionModel`;
* runtime context at emission time: trained-group count, quarantine set,
  applied refresh batches;
* event-time detection latency (alert time minus the violating window's
  close).

Records wait in one bounded per-home buffer until an archive takes them,
and are **byte deterministic**: every field derives from event time and
fitted state, never wall clock, so two identical runs — or a run cut by a
checkpoint, or a crash-recovery replay — produce identical records.  The
durability layer drains them into an archive next to the alerts; ``repro
explain`` renders one as a causal narrative.  :data:`NULL_PROVENANCE` is
the disabled twin (cf. ``NULL_REGISTRY``): recording costs nothing when
off.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from typing import Deque, List, Optional

PROVENANCE_SCHEMA = "dice-provenance/1"

#: Default buffer capacity: the most recent alerts whose evidence an
#: operator can still pull from a live runtime that nothing drains.
DEFAULT_CAPACITY = 256


def alert_body(home_id: str, seq: int, alert) -> dict:
    """Canonical JSON body of one alert, keyed by its home and sequence.

    Duck-typed over the alert (``kind``/``time``/``check``/``cases``/
    ``devices``/``converged``) so this module stays import-cycle-free of
    the streaming layer.  The durable outbox builds its delivery records
    from the same body, which is what makes :func:`trace_id` stable across
    the in-memory buffer, the provenance journal and the outbox WAL.
    """
    return {
        "home": home_id,
        "seq": int(seq),
        "kind": alert.kind,
        "time": alert.time,
        "check": alert.check,
        "cases": [case.value for case in alert.cases],
        "devices": sorted(alert.devices),
        "converged": alert.converged,
    }


def trace_id(body: dict) -> str:
    """Stable content id of one alert body (32 hex chars).

    blake2b over the compact sorted-keys JSON encoding — the same digest
    the outbox uses for delivery dedup, so ``repro explain <id>`` accepts
    ids read off an alerts file verbatim.
    """
    payload = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()


def canonical_record_bytes(record: dict) -> bytes:
    """The byte encoding determinism is asserted against (journal payload)."""
    return json.dumps(
        record, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")


class ProvenanceRecorder:
    """Bounded per-home evidence recorder for one runtime's alerts.

    The runtime drives it: window evidence accumulates in :attr:`chain`
    while an identification session is open, and :meth:`record` seals a
    finished record per alert, in emission order.  ``seq`` counts exactly
    the alerts the runtime emits, which provably matches the durable
    layer's ``alert_seq`` (both count the same alerts in the same order) —
    so the trace id computed here equals the outbox record id.

    Sealed records wait in one bounded buffer until
    :meth:`drain_unjournaled` hands them to an archive.  A runtime that
    nothing drains keeps its newest ``capacity`` records there (and in its
    checkpoints); a durable one drains after every dispatch, so its
    buffer — and its checkpoints — hold only records no archive has.
    """

    enabled = True

    def __init__(
        self, home_id: str = "home", capacity: int = DEFAULT_CAPACITY
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.home_id = home_id
        self.capacity = int(capacity)
        self.seq = 0
        #: Records no archive has taken yet, oldest first.
        self._records: Deque[dict] = deque(maxlen=self.capacity)
        #: Open-session window evidence, oldest first (trigger window → the
        #: window that concludes the identification).
        self.chain: List[dict] = []

    # ------------------------------------------------------------------ #

    def record(
        self,
        alert,
        *,
        windows: List[dict],
        latency: float = 0.0,
        context: Optional[dict] = None,
    ) -> dict:
        """Seal one alert's evidence record and append it to the buffer."""
        self.seq += 1
        body = alert_body(self.home_id, self.seq, alert)
        record = {
            "schema": PROVENANCE_SCHEMA,
            "id": trace_id(body),
            "alert": body,
            "detection_latency_seconds": max(0.0, float(latency)),
            "context": dict(context) if context else {},
            "windows": list(windows),
        }
        self._records.append(record)
        return record

    def records(self) -> List[dict]:
        """Buffered records, oldest first."""
        return list(self._records)

    def last(self) -> Optional[dict]:
        return self._records[-1] if self._records else None

    def find(self, selector: str) -> Optional[dict]:
        """Newest buffered record whose trace id starts with *selector*."""
        for record in reversed(self._records):
            if record["id"].startswith(selector):
                return record
        return None

    def drain_unjournaled(self) -> List[dict]:
        """Hand the buffered records to an archive (empties the buffer)."""
        drained = list(self._records)
        self._records.clear()
        return drained

    # -- checkpoint support ---------------------------------------------- #

    def state_dict(self) -> dict:
        """JSON-serializable state: seq, buffered records, open chain."""
        return {
            "seq": self.seq,
            "records": list(self._records),
            "chain": list(self.chain),
        }

    def load_state(self, state: Optional[dict]) -> None:
        """Restore from :meth:`state_dict`; ``None`` (a snapshot taken with
        provenance off) resets to empty.  Restored records stay buffered,
        so the next drain archives them (an archive dedups by id)."""
        self._records.clear()
        self.chain = []
        self.seq = 0
        if state is None:
            return
        self.seq = int(state["seq"])
        self._records.extend(state["records"])
        self.chain = list(state["chain"])


class _NullProvenance:
    """Disabled twin: every operation is a no-op (cf. ``NULL_REGISTRY``).

    Runtimes guard all chain mutation behind :attr:`enabled`, so the shared
    singleton's ``chain`` is never written to.
    """

    enabled = False
    home_id = "home"
    seq = 0
    capacity = 0
    chain: List[dict] = []

    def record(self, alert, *, windows, latency=0.0, context=None) -> None:
        return None

    def records(self) -> List[dict]:
        return []

    def last(self) -> None:
        return None

    def find(self, selector: str) -> None:
        return None

    def drain_unjournaled(self) -> List[dict]:
        return []

    def state_dict(self) -> None:
        return None

    def load_state(self, state) -> None:
        pass


#: The shared "provenance off" switch.
NULL_PROVENANCE = _NullProvenance()


# ---------------------------------------------------------------------- #
# Narrative rendering (``repro explain``)
# ---------------------------------------------------------------------- #

_HEALTH_KINDS = ("device_silence", "device_errors", "device_recovered")


def _fmt_devices(devices: List[str]) -> str:
    return ", ".join(devices) if devices else "(none narrowed)"


def _render_window(evidence: dict, indent: str = "    ") -> List[str]:
    lines: List[str] = []
    corr = evidence.get("correlation", {})
    bound = corr.get("max_distance")
    head = (
        f"{indent}window {evidence.get('window')} "
        f"[{evidence.get('start')}, {evidence.get('end')}) "
        f"mask 0x{evidence.get('mask')}"
    )
    lines.append(head)
    if corr.get("violation"):
        candidates = corr.get("candidates", [])
        if candidates:
            near = ", ".join(
                f"group {g} at Hamming distance {d}" for g, d in candidates
            )
            lines.append(
                f"{indent}  correlation violation: no trained group within "
                f"distance {bound}; nearest: {near}"
            )
        else:
            lines.append(
                f"{indent}  correlation violation: no trained group within "
                f"distance {bound} (no candidates at all)"
            )
    else:
        lines.append(
            f"{indent}  matched trained group {corr.get('main_group')} "
            f"(distance 0, bound {bound})"
        )
    for violation in evidence.get("transitions", []):
        case = violation.get("case")
        if case == "g2g":
            edge = (
                f"group {violation.get('prev_group')} -> "
                f"group {violation.get('cur_group')}"
            )
        elif case == "g2a":
            edge = (
                f"group {violation.get('prev_group')} -> "
                f"actuator {violation.get('actuator')}"
            )
        else:
            edge = (
                f"actuator {violation.get('actuator')} -> "
                f"group {violation.get('cur_group')}"
            )
        lines.append(
            f"{indent}  transition violation ({case}): {edge} has learned "
            f"probability {violation.get('probability')} "
            f"({violation.get('count')}/{violation.get('row_total')} "
            f"observations in that row)"
        )
    return lines


def render_explanation(record: dict) -> str:
    """Human-readable causal narrative for one provenance record."""
    alert = record.get("alert", {})
    kind = alert.get("kind")
    lines = [
        f"alert {record.get('id')}",
        f"  {kind} at t={alert.get('time')} "
        f"(home {alert.get('home')}, seq {alert.get('seq')})",
    ]
    context = record.get("context", {})
    if kind == "detection":
        lines.append(
            f"  raised by the {alert.get('check')} check on the window below"
        )
    elif kind == "identification":
        devices = _fmt_devices(alert.get("devices", []))
        state = "converged" if alert.get("converged") else "did not converge"
        lines.append(
            f"  probable faulty device(s): {devices} — session {state}, "
            f"triggered by the {alert.get('check')} check"
        )
    elif kind in _HEALTH_KINDS:
        device = context.get("device", "?")
        reason = context.get("reason", "?")
        lines.append(
            f"  device {device}: {context.get('previous')} -> "
            f"{context.get('current')} (reason: {reason})"
        )
    latency = record.get("detection_latency_seconds", 0.0)
    lines.append(
        f"  detection latency: {latency} s between the deciding window "
        f"closing and the event that closed it"
    )
    ctx_bits = []
    if "groups" in context:
        ctx_bits.append(f"{context['groups']} trained groups")
    if "max_distance" in context:
        ctx_bits.append(f"candidate distance bound {context['max_distance']}")
    quarantined = context.get("quarantined")
    if quarantined is not None:
        ctx_bits.append(
            "quarantined: " + (", ".join(quarantined) if quarantined else "none")
        )
    if "refresh_applied" in context:
        ctx_bits.append(f"refresh batches applied: {context['refresh_applied']}")
    if ctx_bits:
        lines.append("  context: " + "; ".join(ctx_bits))
    windows = record.get("windows", [])
    if windows:
        lines.append(f"  evidence chain ({len(windows)} window(s)):")
        for evidence in windows:
            lines.extend(_render_window(evidence))
    else:
        lines.append("  evidence chain: (no window evidence — health alert)")
    return "\n".join(lines)
