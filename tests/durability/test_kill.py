"""An acknowledged event survives ``kill -9``.

The first life runs in a forked child.  It dispatches one chaos
deployment through a durable gateway in batches, as the ingest service's
consumer does, and dies by ``os._exit(0)``: nothing is closed, flushed
or finalised.  Every event it dispatched was acknowledged, since the
service reads ``ingest_seqs`` for ``welcome``, ``synced`` and ``fin`` only
after ``dispatch`` returns.  The parent then recovers from the journal
alone, resumes the source from the recovered count as ``repro send``
does, and finishes the stream.
"""

import os
import signal
import time

import pytest

from repro.durability import (
    FSYNC_POLICIES,
    AlertOutbox,
    CallbackSink,
    DurableFleetGateway,
    SegmentReader,
    alert_record,
)
from repro.durability.outbox import OUTBOX_WAL
from repro.faults.crash import (
    LATENESS_SECONDS,
    POLICY,
    _fresh_fleet,
    build_chaos_deployment,
    canonical_alerts,
    one_home_stream,
    run_fleet_oracle,
)

#: The service consumer's batch size is up to 256; 64 leaves several
#: batches, and the kill lands after a partial one.
BATCH = 64


@pytest.fixture(scope="module")
def deployment():
    return build_chaos_deployment(42)


@pytest.fixture(scope="module")
def oracle(deployment):
    return run_fleet_oracle([deployment], one_home_stream(deployment))


def _outbox(directory) -> AlertOutbox:
    return AlertOutbox(directory, CallbackSink(lambda _record: None))


def _first_life(deployment, root, fsync: str, count: int) -> None:
    """Fork a child that dispatches *count* events, then dies unclosed."""
    pid = os.fork()
    if pid == 0:  # the child: never returns into pytest
        status = 1
        try:
            durable = DurableFleetGateway(
                _fresh_fleet([deployment], {deployment.home_id: deployment.fit_detector()}, 1),
                root / "journals",
                fsync=fsync,
                outbox=_outbox(root / "outbox"),
            )
            stream = one_home_stream(deployment)[:count]
            for start in range(0, count, BATCH):
                durable.dispatch(stream[start : start + BATCH])
            status = 0 if durable.ingest_seqs[deployment.home_id] == count else 2
        finally:
            os._exit(status)
    deadline = time.monotonic() + 60.0
    while True:
        done, wait_status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the first life did not finish within 60 s")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(wait_status) == 0


@pytest.mark.parametrize("fsync", FSYNC_POLICIES)
def test_acked_events_survive_kill_9(deployment, oracle, tmp_path, fsync):
    home = deployment.home_id
    stream = one_home_stream(deployment)
    count = (3 * len(stream)) // 4
    assert count % BATCH, "the kill must follow a partial batch"
    _first_life(deployment, tmp_path, fsync, count)

    detectors = {home: deployment.fit_detector()}
    recovered, _replayed = DurableFleetGateway.recover(
        detectors,
        tmp_path / "journals",
        gateway=_fresh_fleet([deployment], detectors, 1),
        fsync=fsync,
        outbox=_outbox(tmp_path / "outbox"),
        lateness_seconds=LATENESS_SECONDS,
        policy=POLICY,
    )
    assert recovered.ingest_seqs[home] == count
    recovered.dispatch(stream[recovered.ingest_seqs[home] :])
    recovered.finish({home: deployment.end})
    alerts = recovered.alerts_of(home)
    assert canonical_alerts(alerts) == canonical_alerts(oracle.alerts[home])

    ids = [alert_record(home, seq, alert)["id"] for seq, alert in enumerate(alerts, 1)]
    assert ids, "the deployment must raise alerts"
    archive = recovered.provenance_log_of(home)
    assert [i for i in ids if i not in archive] == []
    offered = {record["id"] for record in SegmentReader(tmp_path / "outbox" / OUTBOX_WAL)}
    assert [i for i in ids if i not in offered] == []
    recovered.close()
