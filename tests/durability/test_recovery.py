"""Single-home crash recovery: checkpoint + journal tail == uninterrupted.

A single home runs as a one-home durable fleet.  The chaos harness is the
test: seeded deployments, randomized kill points (some mid-journal-write),
recovery, byte-level alert-stream comparison against the home's plain
uninterrupted runtime.  The targeted tests underneath pin the individual
failure modes — torn tails, crash-before-first-checkpoint, counter
exactness — so a chaos regression localizes.
"""

import numpy as np
import pytest

from repro.durability import DurableFleetGateway, replay_records
from repro.faults import ALL_FAULT_TYPES, FaultType
from repro.faults.crash import (
    ALERTS_TOTAL,
    LATENESS_SECONDS,
    POLICY,
    _counter_total,
    _fresh_fleet,
    build_chaos_deployment,
    canonical_alerts,
    fleet_oracle,
    one_home_stream,
    run_chaos_one_home,
    run_fleet_trial,
    tear_final_record,
)


@pytest.fixture(scope="module")
def deployment():
    return build_chaos_deployment(42)


@pytest.fixture(scope="module")
def oracle(deployment):
    return fleet_oracle([deployment], one_home_stream(deployment))


@pytest.fixture(scope="module")
def expected(oracle):
    return oracle[0]


def _trial(deployment, expected, tmp_path, **kwargs):
    """One kill-and-recover cycle of *deployment* as a one-home fleet."""
    return run_fleet_trial(
        [deployment],
        one_home_stream(deployment),
        expected,
        str(tmp_path),
        shards_before=1,
        shards_after=1,
        **kwargs,
    )


def _durable(deployment, journal_root):
    """A fresh (non-recovery) one-home durable gateway."""
    detectors = {deployment.home_id: deployment.fit_detector()}
    return DurableFleetGateway(
        _fresh_fleet([deployment], detectors, 1), journal_root
    )


class TestChaosBatch:
    def test_25_seeded_kill_points_all_recover(self, tmp_path):
        report = run_chaos_one_home(
            str(tmp_path), deployments=5, kills_per_deployment=5, seed=0
        )
        summary = report.summary()
        assert summary["trials"] == 25
        assert report.ok, summary
        # The batch must actually exercise the interesting regimes.
        assert summary["torn_trials"] >= 3
        assert summary["checkpointed_trials"] >= 5
        assert summary["delivered"] > 0
        assert summary["dead_letters"] == 0


class TestFaultClasses:
    """Chaos victims can fail in any Ni et al. rendering, not just fail-stop."""

    def _victim_events_after_onset(self, dep):
        return [
            e
            for e in dep.events
            if e.device_id == dep.fault_device and e.timestamp >= dep.fault_time
        ]

    def test_fail_stop_victim_goes_silent(self, deployment):
        assert deployment.fault_class is FaultType.FAIL_STOP
        assert not self._victim_events_after_onset(deployment)

    @pytest.mark.parametrize(
        "fault_class",
        [t for t in ALL_FAULT_TYPES if t is not FaultType.FAIL_STOP],
        ids=lambda t: t.value,
    )
    def test_non_fail_stop_victim_keeps_reporting(self, fault_class):
        dep = build_chaos_deployment(42, fault_class=fault_class)
        assert dep.fault_class is fault_class
        assert self._victim_events_after_onset(dep)

    def test_fail_stop_build_unchanged_by_refactor(self, deployment):
        # The explicit-kwarg path must reproduce the historical seed-42
        # deployment byte for byte (golden chaos seeds depend on it).
        rebuilt = build_chaos_deployment(42, fault_class=FaultType.FAIL_STOP)
        assert rebuilt.fault_device == deployment.fault_device
        assert rebuilt.fault_time == deployment.fault_time
        assert [
            (e.timestamp, e.device_id, e.value) for e in rebuilt.events
        ] == [(e.timestamp, e.device_id, e.value) for e in deployment.events]

    def test_stuck_at_deployment_recovers_with_parity(self, tmp_path):
        dep = build_chaos_deployment(42, fault_class=FaultType.STUCK_AT)
        expected, _ = fleet_oracle([dep], one_home_stream(dep))
        result = _trial(
            dep,
            expected,
            tmp_path,
            kill_index=len(dep.events) // 2,
            checkpoint_index=len(dep.events) // 3,
        )
        assert result.ok
        assert result.checkpointed


class TestProvenanceParity:
    """Evidence records survive the crash byte-for-byte (or regenerate so)."""

    def test_recovered_archive_matches_oracle_bytes(
        self, deployment, oracle, tmp_path
    ):
        expected_alerts, expected_provenance = oracle
        assert expected_provenance[deployment.home_id], (
            "the chaos scenario must produce evidence"
        )
        n = len(deployment.events)
        result = _trial(
            deployment,
            expected_alerts,
            tmp_path,
            kill_index=(3 * n) // 4,
            checkpoint_index=n // 2,
            expected_provenance=expected_provenance,
        )
        assert result.provenance_parity
        assert result.ok

    def test_parity_detects_a_tampered_record(self, deployment, oracle, tmp_path):
        expected_alerts, expected_provenance = oracle
        tampered = dict(expected_provenance[deployment.home_id])
        victim = next(iter(tampered))
        tampered[victim] = tampered[victim] + b"x"
        result = _trial(
            deployment,
            expected_alerts,
            tmp_path,
            kill_index=len(deployment.events) // 2,
            expected_provenance={deployment.home_id: tampered},
        )
        assert not result.provenance_parity
        assert not result.ok

    def test_oracle_ids_match_the_delivered_alert_ids(self, deployment, oracle):
        # Shared id scheme end to end: every id in the provenance oracle is
        # the trace id the outbox would stamp on the delivered alert.
        from repro.durability import alert_record

        expected_alerts, expected_provenance = oracle
        home = deployment.home_id
        outbox_ids = {
            alert_record(home, seq, alert)["id"]
            for seq, alert in enumerate(expected_alerts[home], start=1)
        }
        assert set(expected_provenance[home]) <= outbox_ids


class TestTargetedTrials:
    def test_crash_without_checkpoint(self, deployment, expected, tmp_path):
        result = _trial(
            deployment,
            expected,
            tmp_path,
            kill_index=len(deployment.events) // 2,
        )
        assert result.ok
        assert not result.checkpointed

    def test_crash_after_checkpoint(self, deployment, expected, tmp_path):
        n = len(deployment.events)
        result = _trial(
            deployment,
            expected,
            tmp_path,
            kill_index=(3 * n) // 4,
            checkpoint_index=n // 2,
        )
        assert result.ok
        assert result.checkpointed

    def test_torn_final_record_is_discarded_and_refed(self, deployment, expected, tmp_path):
        result = _trial(
            deployment,
            expected,
            tmp_path,
            kill_index=len(deployment.events) // 2,
            torn=True,
        )
        assert result.ok
        assert result.torn

    @pytest.mark.parametrize("fsync", ["always"])
    def test_stricter_fsync_policies_recover_too(
        self, deployment, expected, tmp_path, fsync
    ):
        result = _trial(
            deployment,
            expected,
            tmp_path,
            kill_index=len(deployment.events) // 3,
            fsync=fsync,
        )
        assert result.ok

    def test_retry_exhaustion_dead_letters_instead_of_losing(
        self, deployment, expected, tmp_path
    ):
        # Sink worse than the attempt budget: nothing is delivered, but
        # every expected alert is accounted for as a dead letter.
        result = _trial(
            deployment,
            expected,
            tmp_path,
            kill_index=len(deployment.events) // 2,
            flaky_failures=99,
            max_attempts=2,
        )
        assert result.parity
        assert result.delivery_ok
        assert result.delivered == 0
        assert result.dead_letters == len(expected[deployment.home_id])


class TestDurableRuntime:
    def test_recover_counters_match_uninterrupted(self, deployment, expected, tmp_path):
        home = deployment.home_id
        stream = one_home_stream(deployment)
        cut = len(stream) // 2
        durable = _durable(deployment, tmp_path / "journal")
        durable.dispatch(stream[:cut])
        durable.save_checkpoint(tmp_path / "ckpt")
        at_ckpt = _counter_total(durable.runtime_of(home).metrics, ALERTS_TOTAL)
        prefix = list(durable.alerts_of(home))
        durable.dispatch(stream[cut : cut + 5])
        durable.close()

        recovered, replayed = DurableFleetGateway.recover(
            {home: deployment.fit_detector()},
            tmp_path / "journal",
            checkpoint_dir=tmp_path / "ckpt",
            lateness_seconds=LATENESS_SECONDS,
            policy=POLICY,
        )
        metrics = recovered.runtime_of(home).metrics
        assert _counter_total(metrics, ALERTS_TOTAL) >= at_ckpt
        recovered.dispatch(stream[cut + 5 :])
        recovered.finish(deployment.end)
        recovered.close()
        assert canonical_alerts(prefix + recovered.alerts_of(home)) == (
            canonical_alerts(expected[home])
        )
        assert _counter_total(metrics, ALERTS_TOTAL) == float(len(expected[home]))

    def test_fresh_runtime_over_dirty_journal_rotates(self, deployment, tmp_path):
        home = deployment.home_id
        first = _durable(deployment, tmp_path / "journal")
        first.dispatch(one_home_stream(deployment)[:10])
        first.close()
        epoch_before = first.journals[home].epoch
        # A *fresh* (non-recovery) gateway must never extend a segment
        # from an earlier life.
        second = _durable(deployment, tmp_path / "journal")
        assert second.journals[home].epoch == epoch_before + 1
        second.close()

    def test_fresh_gateway_over_torn_journal_keeps_every_append(
        self, deployment, tmp_path
    ):
        # An earlier life died mid-append: 9 intact records, 1 torn.  A
        # fresh gateway over that journal must journal its own events
        # where replay can read them — not after the torn record, where
        # the reader stops.
        home = deployment.home_id
        stream = one_home_stream(deployment)
        home_dir = str(tmp_path / "journal" / home)
        first = _durable(deployment, tmp_path / "journal")
        first.dispatch(stream[:10])
        first.close()
        assert tear_final_record(home_dir, stream[9][1], np.random.default_rng(0))
        second = _durable(deployment, tmp_path / "journal")
        fresh_epoch = second.journals[home].epoch
        second.dispatch(stream[10:60])
        second.close()
        records, torn = replay_records(home_dir, after_epoch=fresh_epoch - 1)
        assert (len(records), torn) == (50, 0)

    def test_tear_helper_cuts_partial_frame(self, deployment, tmp_path):
        home = deployment.home_id
        stream = one_home_stream(deployment)
        durable = _durable(deployment, tmp_path / "journal")
        durable.dispatch(stream[:10])
        durable.close()
        cut = tear_final_record(
            str(tmp_path / "journal" / home),
            deployment.events[9],
            np.random.default_rng(0),
        )
        assert cut > 0
        # Recovery discards exactly the torn record and replays the rest.
        detectors = {home: deployment.fit_detector()}
        recovered, _ = DurableFleetGateway.recover(
            detectors,
            tmp_path / "journal",
            gateway=_fresh_fleet([deployment], detectors, 1),
        )
        metrics = recovered.runtime_of(home).metrics
        replayed = _counter_total(metrics, "dice_journal_replayed_total")
        torn = _counter_total(metrics, "dice_journal_torn_records_total")
        assert replayed == 9.0
        assert torn == 1.0
        recovered.close()

    def test_health_reports_durability_section(self, deployment, tmp_path):
        home = deployment.home_id
        durable = _durable(deployment, tmp_path / "journal")
        durable.dispatch(one_home_stream(deployment)[:5])
        report = durable.health()
        assert report["durability"]["journal_epochs"] == {
            home: durable.journals[home].epoch
        }
        assert report["durability"]["alert_seqs"] == dict(durable.alert_seqs)
        durable.close()
