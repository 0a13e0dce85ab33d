"""Fleet crash recovery: per-home journals, resharding, at-least-once.

Journals are keyed by home, not shard, so a fleet may come back with a
different shard count and still replay every home's tail exactly —
the chaos batch randomizes shard layouts across the crash to prove it.
"""

import json
import os
import stat

import pytest

from repro.durability import DurableFleetGateway, EventJournal, ProvenanceLog
from repro.streaming import CheckpointError
from repro.faults import (
    build_chaos_fleet,
    fleet_oracle,
    run_chaos_fleet,
    run_fleet_trial,
)
from repro.faults.crash import SimulatedCrash, _fresh_fleet, run_fleet_oracle
from repro.fleet import MANIFEST_NAME, MANIFEST_SCHEMA
from repro.telemetry.provenance import alert_body, trace_id


@pytest.fixture(scope="module")
def fleet():
    deployments, merged = build_chaos_fleet(7, num_homes=3)
    return deployments, merged, fleet_oracle(deployments, merged)[0]


class TestChaosBatch:
    def test_randomized_kills_across_shard_layouts(self, tmp_path):
        report = run_chaos_fleet(
            str(tmp_path),
            fleets=2,
            kills_per_fleet=4,
            num_homes=3,
            seed=0,
            shard_choices=(1, 2, 4),
        )
        summary = report.summary()
        assert summary["trials"] == 8
        assert report.ok, summary
        # At least one trial must have actually changed shard layout
        # across the crash (reshard-on-restore).
        assert any(t.shards_before != t.shards_after for t in report.trials)


class TestTargetedTrials:
    @pytest.mark.parametrize("shards_after", [1, 2, 4])
    def test_reshard_on_restore(self, fleet, tmp_path, shards_after):
        deployments, merged, expected = fleet
        result = run_fleet_trial(
            deployments,
            merged,
            expected,
            str(tmp_path),
            kill_index=len(merged) // 2,
            checkpoint_index=len(merged) // 4,
            shards_before=2,
            shards_after=shards_after,
        )
        assert result.ok, result
        assert result.checkpointed

    def test_torn_home_journal(self, fleet, tmp_path):
        deployments, merged, expected = fleet
        result = run_fleet_trial(
            deployments,
            merged,
            expected,
            str(tmp_path),
            kill_index=len(merged) // 2,
            torn=True,
        )
        assert result.ok, result
        assert result.torn

    def test_dead_letters_account_for_every_alert(self, fleet, tmp_path):
        deployments, merged, expected = fleet
        result = run_fleet_trial(
            deployments,
            merged,
            expected,
            str(tmp_path),
            kill_index=len(merged) // 2,
            flaky_failures=99,
            max_attempts=2,
        )
        assert result.parity
        assert result.delivery_ok
        assert result.delivered == 0
        assert result.dead_letters == sum(len(a) for a in expected.values())


class TestRecoverGuards:
    def test_recover_without_checkpoint_or_gateway_fails(self, tmp_path):
        with pytest.raises(CheckpointError, match="no fleet checkpoint"):
            DurableFleetGateway.recover({}, tmp_path / "journals")

    def test_durability_block_in_manifest(self, fleet, tmp_path):
        deployments, merged, _ = fleet
        detectors = {dep.home_id: dep.fit_detector() for dep in deployments}
        durable = DurableFleetGateway(
            _fresh_fleet(deployments, detectors, 2), tmp_path / "journals"
        )
        durable.dispatch(merged[: len(merged) // 4])
        durable.save_checkpoint(tmp_path / "ckpt")
        durable.close()
        assert os.listdir(tmp_path / "ckpt") == [MANIFEST_NAME]
        with open(tmp_path / "ckpt" / MANIFEST_NAME, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        assert manifest["schema"] == MANIFEST_SCHEMA
        durability = manifest["durability"]
        assert set(durability["journal_epochs"]) == {d.home_id for d in deployments}

    def test_checkpoint_leaves_evidence_to_the_archive(self, fleet, tmp_path):
        # Each home's evidence is drained into its provenance.wal as it is
        # sealed, so a durable checkpoint carries none of it.
        deployments, merged, _ = fleet
        detectors = {dep.home_id: dep.fit_detector() for dep in deployments}
        journals = tmp_path / "journals"
        durable = DurableFleetGateway(
            _fresh_fleet(deployments, detectors, 2), journals
        )
        raised = durable.dispatch(merged[: len(merged) // 2])
        durable.save_checkpoint(tmp_path / "ckpt")
        durable.close()
        assert raised, "scenario must raise alerts"
        with open(tmp_path / "ckpt" / MANIFEST_NAME, "r", encoding="utf-8") as handle:
            homes = json.load(handle)["homes"]
        for dep in deployments:
            entry = homes[dep.home_id]
            assert entry["runtime"]["provenance"]["records"] == []
            alerts = [a.alert for a in raised if a.home_id == dep.home_id]
            expected = [
                trace_id(alert_body(dep.home_id, seq, alert))
                for seq, alert in enumerate(alerts, start=1)
            ]
            archived = ProvenanceLog(journals / dep.home_id).records()
            assert [record["id"] for record in archived] == expected

    def test_health_reports_per_home_epochs(self, fleet, tmp_path):
        deployments, merged, _ = fleet
        detectors = {dep.home_id: dep.fit_detector() for dep in deployments}
        durable = DurableFleetGateway(
            _fresh_fleet(deployments, detectors, 2), tmp_path / "journals"
        )
        durable.dispatch(merged[:50])
        report = durable.health()
        assert set(report["durability"]["journal_epochs"]) == {
            d.home_id for d in deployments
        }
        durable.close()


class _SaveSpy:
    """Logs ``os.fsync``, ``os.replace`` and
    ``EventJournal.truncate_through`` calls in order, and raises
    :class:`SimulatedCrash` in place of call number *at* of *target*
    (``"replace"`` or ``"truncate"``; never when *target* is ``None``)."""

    def __init__(self, monkeypatch, target=None, at=0):
        self.log = []
        self.target, self.at = target, at
        self.fired = False
        real_fsync, real_replace = os.fsync, os.replace
        real_truncate = EventJournal.truncate_through

        def fsync(fd):
            info = os.fstat(fd)
            self.log.append(("fsync", stat.S_ISDIR(info.st_mode), info.st_ino))
            real_fsync(fd)

        def replace(src, dst):
            self._call("replace", os.path.basename(dst))
            real_replace(src, dst)

        def truncate_through(journal, epoch):
            self._call("truncate")
            return real_truncate(journal, epoch)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(EventJournal, "truncate_through", truncate_through)

    def count(self, kind):
        return sum(1 for call in self.log if call[0] == kind)

    def _call(self, kind, *detail):
        self.log.append((kind, *detail))
        if kind == self.target and self.count(kind) == self.at:
            self.target = None  # the process is dead: fire once
            self.fired = True
            raise SimulatedCrash(f"killed at {kind} #{self.at}")


class TestKillInsideSave:
    """A kill anywhere inside a checkpoint save recovers from the old
    checkpoint or the new one, never a mix of the two."""

    def test_every_kill_point_recovers_exactly(self, fleet, tmp_path, monkeypatch):
        deployments, merged, _ = fleet
        oracle = run_fleet_oracle(deployments, merged)

        def trial(name, target=None, at=0):
            with monkeypatch.context() as patch:
                spy = _SaveSpy(patch, target, at)
                result = run_fleet_trial(
                    deployments,
                    merged,
                    oracle.alerts,
                    str(tmp_path / name),
                    kill_index=len(merged) // 2,
                    checkpoint_index=len(merged) // 4,
                    save_at_kill=True,
                    expected_provenance=oracle.provenance,
                    expected_drops=oracle.drops,
                )
            assert spy.fired == (target is not None)
            return result, spy

        # An unkilled run counts the calls: both saves make the same ones.
        _, spy = trial("count")
        per_save = {kind: spy.count(kind) // 2 for kind in ("replace", "truncate")}
        assert per_save["replace"] >= 1 and per_save["truncate"] == len(deployments)
        # Each rename of the second save, then the gap between its last
        # rename and its first truncation.
        kill_points = [("replace", k) for k in range(1, per_save["replace"] + 1)]
        kill_points.append(("truncate", 1))
        failed = []
        for target, k in kill_points:
            result, _ = trial(f"{target}-{k}", target, per_save[target] + k)
            if not result.ok:
                failed.append(
                    f"{target} {k} of {per_save[target]}: parity={result.parity} "
                    f"delivery={result.delivery_ok} "
                    f"provenance={result.provenance_parity} "
                    f"drops={result.drops_parity}"
                )
        assert not failed, failed

    def test_checkpoint_is_durable_before_the_journal_drops_its_copy(
        self, fleet, tmp_path, monkeypatch
    ):
        deployments, merged, _ = fleet
        detectors = {dep.home_id: dep.fit_detector() for dep in deployments}
        durable = DurableFleetGateway(
            _fresh_fleet(deployments, detectors, 2), tmp_path / "journals"
        )
        durable.dispatch(merged[: len(merged) // 4])
        spy = _SaveSpy(monkeypatch)
        ckpt = tmp_path / "ckpt"
        durable.save_checkpoint(ckpt)
        monkeypatch.undo()
        durable.close()

        calls = spy.log
        kinds = [call[0] for call in calls]
        assert kinds.count("replace") == 1
        rename = kinds.index("replace")
        assert calls[rename] == ("replace", MANIFEST_NAME)
        # The temp file that became the manifest is fsynced before the
        # rename, the directory after it, and only then is any journal
        # segment dropped.
        assert calls[rename - 1] == ("fsync", False, os.stat(ckpt / MANIFEST_NAME).st_ino)
        assert calls[rename + 1] == ("fsync", True, os.stat(ckpt).st_ino)
        assert kinds.index("truncate") > rename + 1
        assert kinds.count("truncate") == len(deployments)
