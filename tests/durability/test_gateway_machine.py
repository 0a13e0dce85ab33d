"""A stateful property test of the durable gateway.

Hypothesis drives one durable gateway through random interleavings of
dispatch, barrier, checkpoint, kill, recover and delivery.  A kill may
land inside a dispatch, after its records were appended and before its
commit: those records die unwritten, as under ``kill -9``, and the source
re-sends them from the recovered count, as ``repro send`` does.  The twin
is a plain :class:`HardenedOnlineDice` fed the same accepted events, with
no fleet, journal or outbox.  The invariants:

* no acknowledged event is lost: a recovered count covers every event a
  barrier read (the count ``synced`` answers), and every dispatch that
  returned;
* the alert stream (what the restored checkpoint accounts for, plus this
  life's) equals the twin's, and every alert id has a provenance record;
* after a delivery, every alert was delivered at least once or
  dead-lettered.
"""

import copy
import os
import shutil
import tempfile

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import telemetry
from repro.durability import (
    FSYNC_POLICIES,
    AlertOutbox,
    AlertSink,
    DurableFleetGateway,
    alert_record,
    encode_event_frame,
)
from repro.faults.crash import (
    LATENESS_SECONDS,
    POLICY,
    _fresh_fleet,
    build_chaos_deployment,
    canonical_alerts,
    one_home_stream,
)
from repro.streaming import HardenedOnlineDice

DEPLOYMENT = build_chaos_deployment(1)
HOME = DEPLOYMENT.home_id
STREAM = one_home_stream(DEPLOYMENT)
#: Fitted once per module; every life and the twin get their own copy.
DETECTOR = DEPLOYMENT.fit_detector(metrics=telemetry.NULL_REGISTRY)


def _detector():
    return copy.deepcopy(DETECTOR)


class RefusingSink(AlertSink):
    """Refuses every attempt for a fixed third of the alert ids (those
    dead-letter), and accepts every other alert at its first attempt."""

    def __init__(self) -> None:
        self.received = set()

    def deliver(self, record: dict) -> None:
        if int(record["id"], 16) % 3 == 0:
            raise ConnectionError("refused")
        self.received.add(record["id"])


class DurableGatewayMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="durable-machine-")
        self.journals = os.path.join(self.root, "journals")
        self.checkpoint_dir = os.path.join(self.root, "checkpoint")
        self.sink = RefusingSink()
        self.twin = HardenedOnlineDice(
            _detector(),
            start=DEPLOYMENT.split,
            lateness_seconds=LATENESS_SECONDS,
            policy=POLICY,
        )
        self.twin_alerts = []
        self.sent = 0  # events dispatched, every one acknowledged on return
        self.acked = 0  # the count the last barrier read
        self.checkpoint_prefix = None  # alerts the newest checkpoint covers
        self.life_prefix = []  # alerts the restored checkpoint covers
        self.fsync = "never"
        self.durable = None

    def _outbox(self) -> AlertOutbox:
        return AlertOutbox(
            os.path.join(self.root, "outbox"),
            self.sink,
            max_attempts=2,
            sleep=lambda _s: None,
            metrics=telemetry.NULL_REGISTRY,
        )

    def _alerts(self):
        return self.life_prefix + list(self.durable.alerts_of(HOME))

    @staticmethod
    def _ids(alerts):
        return [alert_record(HOME, seq, alert)["id"] for seq, alert in enumerate(alerts, 1)]

    def alive(self) -> bool:
        return self.durable is not None

    @initialize(fsync=st.sampled_from(FSYNC_POLICIES))
    def start(self, fsync):
        self.fsync = fsync
        self.durable = DurableFleetGateway(
            _fresh_fleet([DEPLOYMENT], {HOME: _detector()}, 1),
            self.journals,
            fsync=fsync,
            outbox=self._outbox(),
        )

    @precondition(lambda self: self.alive() and self.sent < len(STREAM))
    @rule(size=st.integers(1, 128))
    def dispatch(self, size):
        batch = STREAM[self.sent : self.sent + size]
        self.durable.dispatch(batch)
        self.sent += len(batch)
        self.twin_alerts += self.twin.ingest_many([event for _home, event in batch])

    @precondition(alive)
    @rule()
    def barrier(self):
        self.acked = self.durable.ingest_seqs.get(HOME, 0)
        assert self.acked == self.sent

    @precondition(alive)
    @rule()
    def checkpoint(self):
        self.durable.save_checkpoint(self.checkpoint_dir)
        self.checkpoint_prefix = self._alerts()

    @precondition(alive)
    @rule(unacked=st.integers(0, 8))
    def kill(self, unacked):
        # A dispatch that dies before its commit has appended its records
        # and acknowledged none of them.
        journal = self.durable.journals[HOME]
        for _home, event in STREAM[self.sent : self.sent + unacked]:
            journal.append_frame(encode_event_frame(event))
        self.durable.close(drop=True)
        self.durable = None

    @precondition(lambda self: not self.alive())
    @rule()
    def recover(self):
        checkpointed = self.checkpoint_prefix is not None
        self.durable, _replayed = DurableFleetGateway.recover(
            {HOME: _detector()},
            self.journals,
            checkpoint_dir=self.checkpoint_dir if checkpointed else None,
            gateway=None if checkpointed else _fresh_fleet([DEPLOYMENT], {HOME: _detector()}, 1),
            fsync=self.fsync,
            outbox=self._outbox(),
            lateness_seconds=LATENESS_SECONDS,
            policy=POLICY,
        )
        self.life_prefix = list(self.checkpoint_prefix) if checkpointed else []
        recovered = self.durable.ingest_seqs.get(HOME, 0)
        assert recovered >= self.acked
        assert recovered == self.sent

    @precondition(alive)
    @rule()
    def deliver(self):
        self.durable.deliver_pending()
        outbox = self.durable.outbox
        delivered = set(outbox.delivered_ids())
        dead = {entry["record"]["id"] for entry in outbox.dead_letters()}
        assert delivered <= self.sink.received
        assert set(self._ids(self._alerts())) <= delivered | dead

    @invariant()
    def alerts_match_the_twin_and_have_evidence(self):
        if not self.alive():
            return
        alerts = self._alerts()
        assert canonical_alerts(alerts) == canonical_alerts(self.twin_alerts)
        if alerts:
            archive = self.durable.provenance_log_of(HOME)
            assert [i for i in self._ids(alerts) if i not in archive] == []

    def teardown(self):
        if self.durable is not None:
            self.durable.close()
        shutil.rmtree(self.root, ignore_errors=True)


DurableGatewayMachine.TestCase.settings = settings(
    max_examples=40,
    stateful_step_count=30,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestDurableGateway = DurableGatewayMachine.TestCase
