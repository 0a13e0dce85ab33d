"""Network chaos: kill-and-recover through a live loopback ingest service.

The heavyweight 20-trial acceptance run lives behind ``repro chaos --mode
service``; these tests keep a small seeded slice of it in tier 1 so the
contract — byte-identical per-home alerts, exact at-least-once ingest
accounting, at-least-once outbox delivery — is pinned on every run.
"""

import os

import pytest

from repro.faults.crash import build_chaos_fleet, fleet_oracle
from repro.faults.net import run_chaos_service, run_service_trial


@pytest.fixture(scope="module")
def fleet():
    deployments, merged = build_chaos_fleet(7, num_homes=2)
    expected, _ = fleet_oracle(deployments, merged)
    return deployments, expected


class TestServiceTrial:
    def test_kill_and_recover_is_exact(self, fleet, tmp_path):
        deployments, expected = fleet
        total = sum(len(dep.events) for dep in deployments)
        result = run_service_trial(
            deployments,
            expected,
            os.fspath(tmp_path),
            kill_at=total // 2,
            faults=True,
        )
        assert result.ok, result
        assert result.mode == "service"
        assert not result.checkpointed

    def test_checkpoint_torn_tail_and_reshard(self, fleet, tmp_path):
        deployments, expected = fleet
        total = sum(len(dep.events) for dep in deployments)
        result = run_service_trial(
            deployments,
            expected,
            os.fspath(tmp_path),
            kill_at=(2 * total) // 3,
            checkpoint_at=total // 3,
            torn=True,
            shards_before=1,
            shards_after=4,
        )
        assert result.ok, result
        assert result.checkpointed
        assert result.torn

    def test_faultless_baseline(self, fleet, tmp_path):
        deployments, expected = fleet
        total = sum(len(dep.events) for dep in deployments)
        result = run_service_trial(
            deployments,
            expected,
            os.fspath(tmp_path),
            kill_at=total // 2,
            faults=False,
        )
        assert result.ok, result


class TestChaosBatch:
    def test_randomized_batch_is_green(self, tmp_path):
        report = run_chaos_service(
            os.fspath(tmp_path),
            fleets=1,
            kills_per_fleet=3,
            num_homes=2,
            seed=5,
        )
        summary = report.summary()
        assert summary["trials"] == 3
        assert report.ok, summary
        assert summary["delivered"] > 0
