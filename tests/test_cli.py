"""Tests for the ``python -m repro`` command-line interface."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _one_error_line(err: str, event: str, flag: str) -> None:
    """The error contract: exactly one stderr line, naming the flag."""
    (line,) = err.splitlines()
    assert event in line and flag in line, line


class TestList:
    def test_lists_all_datasets(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("houseA", "twor", "hh102", "D_houseA", "D_hh102"):
            assert name in out


class TestGenerate:
    def test_writes_csv(self, tmp_path, capsys):
        out_path = tmp_path / "trace.csv"
        code = main(
            ["generate", "houseA", "--hours", "6", "--seed", "1", "-o", str(out_path)]
        )
        assert code == 0
        assert out_path.exists()
        assert (tmp_path / "trace.devices.csv").exists()
        assert "wrote" in capsys.readouterr().out

    def test_roundtrips_through_io(self, tmp_path):
        out_path = tmp_path / "trace.csv"
        main(["generate", "houseA", "--hours", "6", "--seed", "1", "-o", str(out_path)])
        from repro.datasets import read_trace

        trace = read_trace(str(out_path))
        assert len(trace.registry) == 14

    @pytest.mark.parametrize("hours", ["0", "-2", "inf", "nan"])
    def test_bad_parameters_exit_2(self, hours, tmp_path, capsys):
        out_path = tmp_path / "trace.csv"
        argv = ["generate", "houseA", "--hours", hours, "-o", str(out_path)]
        assert main(argv) == 2
        _one_error_line(capsys.readouterr().err, "bad_generate", "--hours")
        assert not out_path.exists()


class TestEvaluate:
    def test_prints_metrics(self, capsys):
        code = main(
            ["evaluate", "houseA", "--scale", "0.2", "--pairs", "4", "--seed", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "detection:" in out
        assert "identification:" in out
        assert "correlation degree:" in out

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["evaluate", "houseA", "--scale", "0"], "--scale"),
            (["evaluate", "houseA", "--scale", "-1"], "--scale"),
            (["evaluate", "houseA", "--pairs", "0"], "--pairs"),
            (["evaluate", "houseA", "--pairs", "-3"], "--pairs"),
            (["evaluate", "houseA", "--scale", "inf"], "--scale"),
            (["evaluate", "houseA", "--scale", "nan"], "--scale"),
        ],
    )
    def test_bad_parameters_exit_2(self, argv, flag, capsys):
        assert main(argv) == 2
        _one_error_line(capsys.readouterr().err, "bad_evaluate", flag)


class TestStream:
    # Live window 30-40 h lands in daytime, where houseA actually has events.
    ARGS = [
        "stream", "houseA",
        "--hours", "40", "--train-hours", "30", "--seed", "3",
    ]

    def test_clean_stream_prints_summary(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "streamed" in out
        assert "dropped events: 0" in out

    def test_pipe_faults_are_survived_and_counted(self, capsys):
        code = main(
            self.ARGS
            + ["--pipe-faults", "reorder,duplicate,corrupt_value",
               "--pipe-rate", "0.1", "--lateness", "120"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "non_finite_value" in out

    def test_checkpoint_save_then_resume(self, tmp_path, capsys):
        ckpt = tmp_path / "gateway-ckpt"
        assert main(self.ARGS + ["--save-checkpoint", str(ckpt)]) == 0
        assert (ckpt / "manifest.json").exists()
        # Diagnostics go through the structured logger on stderr; stdout
        # stays reserved for the stream summary.
        captured = capsys.readouterr()
        assert "checkpoint saved" in captured.err
        assert "checkpoint saved" not in captured.out
        assert main(self.ARGS + ["--resume", str(ckpt)]) == 0
        captured = capsys.readouterr()
        assert "resumed from" in captured.err
        assert "streamed" in captured.out

    def test_bad_split_rejected(self, capsys):
        code = main(
            ["stream", "houseA", "--hours", "10", "--train-hours", "20"]
        )
        assert code == 2

    def test_journal_and_alert_delivery(self, tmp_path, capsys):
        import json

        journal = tmp_path / "journal"
        alerts_out = tmp_path / "alerts.jsonl"
        code = main(
            self.ARGS
            + ["--journal-dir", str(journal), "--alerts-out", str(alerts_out)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "alerts delivered:" in out
        assert journal.is_dir()
        if alerts_out.exists():  # only created when alerts actually fired
            for line in alerts_out.read_text().splitlines():
                assert "id" in json.loads(line)

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["stream", "houseA", "--lateness", "-1"], "--lateness"),
            (["stream", "houseA", "--silence", "-1"], "--silence"),
            (["stream", "houseA", "--quarantine", "10", "--silence", "100"],
             "--quarantine"),
            (["stream", "houseA", "--pipe-faults", "reorder", "--pipe-rate", "2"],
             "--pipe-rate"),
            (["stream", "houseA", "--hours", "0", "--train-hours", "0"], "--hours"),
            (["stream", "nosuch"], "nosuch"),
            (["stream", "houseA", "--hours", "inf"], "--hours"),
            (["stream", "houseA", "--hours", "nan"], "--hours"),
        ],
    )
    def test_bad_parameters_exit_2(self, argv, flag, capsys):
        assert main(argv) == 2
        _one_error_line(capsys.readouterr().err, "bad_stream", flag)

    def test_unusable_journal_dir_names_the_journal(self, tmp_path, capsys):
        # No --resume: the failure is the journal's, never a resume's.
        journal = tmp_path / "not-a-dir"
        journal.write_text("x")
        assert main(self.ARGS + ["--journal-dir", str(journal)]) == 2
        _one_error_line(capsys.readouterr().err, "journal_replay_failed", str(journal))

    def test_alerts_out_requires_journal_dir(self, tmp_path):
        assert (
            main(self.ARGS + ["--alerts-out", str(tmp_path / "alerts.jsonl")]) == 2
        )

    def test_journal_checkpoint_then_resume(self, tmp_path, capsys):
        journal = tmp_path / "journal"
        ckpt = tmp_path / "gateway-ckpt"
        args = self.ARGS + ["--journal-dir", str(journal)]
        assert main(args + ["--save-checkpoint", str(ckpt)]) == 0
        capsys.readouterr()
        assert main(args + ["--resume", str(ckpt)]) == 0
        captured = capsys.readouterr()
        assert "resumed from checkpoint + journal tail" in captured.err
        assert "streamed" in captured.out

    def test_provenance_out_without_journal_keeps_every_record(
        self, tmp_path, capsys
    ):
        # 170 live hours raise more alerts than the runtime's evidence
        # buffer holds: without a journal the file must still list every
        # record, byte-equal to what a journaled run archives.
        from repro.telemetry.provenance import DEFAULT_CAPACITY

        args = [
            "stream", "houseA",
            "--hours", "200", "--train-hours", "30", "--seed", "3",
        ]
        plain = tmp_path / "plain.jsonl"
        journaled = tmp_path / "journaled.jsonl"
        assert main(args + ["--provenance-out", str(plain)]) == 0
        assert main(
            args
            + ["--journal-dir", str(tmp_path / "wal"),
               "--provenance-out", str(journaled)]
        ) == 0
        capsys.readouterr()
        seqs = [
            json.loads(line)["alert"]["seq"]
            for line in plain.read_text().splitlines()
        ]
        assert len(seqs) > DEFAULT_CAPACITY
        assert seqs == list(range(1, len(seqs) + 1))
        assert plain.read_bytes() == journaled.read_bytes()

    def test_corrupt_checkpoint_is_one_actionable_line(self, tmp_path, capsys):
        import json

        ckpt = tmp_path / "bad-ckpt"
        assert main(self.ARGS + ["--save-checkpoint", str(ckpt)]) == 0
        capsys.readouterr()
        manifest_path = ckpt / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        (home,) = manifest["homes"].values()
        del home["runtime"]["dice"]
        corruptions = [
            ("{torn mid-write", "corrupt fleet manifest"),
            # Valid JSON whose home entry lost the backend payload.
            (json.dumps(manifest), "'dice'"),
        ]
        for i, (text, reason) in enumerate(corruptions):
            manifest_path.write_text(text)
            journal = tmp_path / f"journal-{i}"
            code = main(
                self.ARGS
                + ["--journal-dir", str(journal), "--resume", str(ckpt)]
            )
            assert code == 2
            err = capsys.readouterr().err
            (line,) = [ln for ln in err.splitlines() if "resume_failed" in ln]
            assert reason in line
            assert str(ckpt) in line

    def test_metrics_out_writes_snapshot(self, tmp_path, capsys):
        import json

        from repro.telemetry import SNAPSHOT_SCHEMA

        out = tmp_path / "metrics.json"
        assert main(self.ARGS + ["--metrics-out", str(out)]) == 0
        assert "wrote metrics snapshot" in capsys.readouterr().out
        snap = json.loads(out.read_text())
        assert snap["schema"] == SNAPSHOT_SCHEMA
        windows = snap["metrics"]["dice_windows_total"]["series"][0]["value"]
        assert windows > 0

    def test_json_log_format(self, tmp_path, capsys):
        import json

        ckpt = tmp_path / "gateway-ckpt"
        code = main(
            ["--log-format", "json"]
            + self.ARGS
            + ["--save-checkpoint", str(ckpt)]
        )
        assert code == 0
        err_lines = capsys.readouterr().err.splitlines()
        records = [json.loads(line) for line in err_lines if line.strip()]
        assert any(r["event"] == "checkpoint_saved" for r in records)


class TestFleet:
    ARGS = [
        "fleet", "--homes", "2",
        "--hours", "28", "--train-hours", "24", "--seed", "5",
    ]

    def test_fleet_prints_summary(self, capsys):
        assert main(self.ARGS + ["--shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "2 homes on 2 shards" in out
        assert "dispatched" in out
        assert "homes per shard:" in out
        assert "unrouted" not in out  # only printed when non-zero

    def test_checkpoint_save_then_resume(self, tmp_path, capsys):
        ckpt = tmp_path / "fleet-ckpt"
        assert main(self.ARGS + ["--save-checkpoint", str(ckpt)]) == 0
        assert (ckpt / "manifest.json").exists()
        # Resume onto a different shard count: sharding is a scaling knob,
        # not part of the checkpointed state.
        assert main(self.ARGS + ["--shards", "3", "--resume", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "2 homes on 3 shards" in out

    def test_metrics_out_writes_merged_snapshot(self, tmp_path, capsys):
        import json

        out = tmp_path / "metrics.json"
        assert main(self.ARGS + ["--metrics-out", str(out)]) == 0
        snap = json.loads(out.read_text())
        assert "dice_fleet_events_total" in snap["metrics"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["fleet", "--homes", "0"],
            ["fleet", "--homes", "2", "--shards", "0"],
            ["fleet", "--homes", "2", "--shards", "-3"],
            ["fleet", "--homes", "2", "--hours", "10", "--train-hours", "10"],
            ["fleet", "--homes", "2", "--tick", "0"],
            ["fleet", "--homes", "2", "--lateness", "-1"],
            ["fleet", "--homes", "2", "--silence", "-1"],
            ["fleet", "--homes", "2", "--quarantine", "10", "--silence", "100"],
            ["fleet", "--homes", "2", "--hours", "inf"],
            ["fleet", "--homes", "2", "--hours", "nan"],
            ["fleet", "--homes", "2", "--train-hours", "inf"],
            ["fleet", "--homes", "2", "--train-hours", "nan"],
        ],
    )
    def test_bad_parameters_exit_2(self, argv, capsys):
        assert main(argv) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert "bad_fleet" in line

    def test_resume_garbage_exit_2(self, tmp_path):
        assert main(self.ARGS + ["--resume", str(tmp_path / "nope")]) == 2


class TestServe:
    ARGS = ["serve", "--homes", "1", "--hours", "6", "--train-hours", "4"]

    @pytest.mark.parametrize(
        "extra, flag",
        [
            (["--port", "99999"], "--port"),
            (["--lateness", "-1"], "--lateness"),
            (["--silence", "-1"], "--silence"),
        ],
    )
    def test_bad_parameters_exit_2(self, extra, flag, tmp_path, capsys):
        argv = self.ARGS + ["--journal-dir", str(tmp_path / "wal")] + extra
        assert main(argv) == 2
        _one_error_line(capsys.readouterr().err, "bad_serve", flag)

    @pytest.mark.parametrize(
        "extra, flag",
        [
            (["--shards", "0"], "--shards"),
            (["--queue-capacity", "0"], "--queue-capacity"),
            (["--read-timeout", "0"], "--read-timeout"),
        ],
    )
    def test_misconfigured_server_never_starts(self, extra, flag, tmp_path):
        # A subprocess with a timeout: a server that accepts one of these
        # flags starts misconfigured and keeps serving until it is killed.
        argv = self.ARGS + ["--journal-dir", str(tmp_path / "wal")] + extra
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        _one_error_line(proc.stderr, "bad_serve", flag)


class TestSend:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["send", "--homes", "1"], "--port"),
            (["send", "--port", "1", "--max-attempts", "0"], "--max-attempts"),
        ],
    )
    def test_bad_parameters_exit_2(self, argv, flag, capsys):
        assert main(argv) == 2
        _one_error_line(capsys.readouterr().err, "bad_send", flag)


class TestExplain:
    def test_journal_root_covers_every_fleet_home(self, tmp_path, capsys):
        from repro.durability import ProvenanceLog

        journal = tmp_path / "wal"
        assert main(TestFleet.ARGS + ["--journal-dir", str(journal)]) == 0
        capsys.readouterr()
        for home in ("home-0000", "home-0001"):
            records = ProvenanceLog(journal / home).records()
            assert records, f"{home} must archive evidence"
            record = records[-1]
            code = main(
                ["explain", record["id"][:16], "--journal-dir", str(journal), "--json"]
            )
            assert code == 0
            assert json.loads(capsys.readouterr().out) == record

    def test_journal_root_without_archives_exit_2(self, tmp_path):
        assert main(["explain", "--last", "--journal-dir", str(tmp_path)]) == 2


class TestChaos:
    def test_standalone_smoke(self, tmp_path, capsys):
        code = main(
            [
                "chaos", "--mode", "standalone",
                "--deployments", "1", "--kills", "2", "--seed", "0",
                "--workdir", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "standalone: 2 trials" in out
        assert "OK" in out
        assert "FAIL" not in out

    def test_fleet_smoke(self, tmp_path, capsys):
        code = main(
            [
                "chaos", "--mode", "fleet",
                "--fleets", "1", "--fleet-kills", "2", "--homes", "2",
                "--seed", "0", "--workdir", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet: 2 trials" in out
        assert "OK" in out

    def test_non_fail_stop_fault_class(self, tmp_path, capsys):
        code = main(
            [
                "chaos", "--mode", "standalone",
                "--deployments", "1", "--kills", "1", "--seed", "0",
                "--fault-class", "stuck_at", "--workdir", str(tmp_path),
            ]
        )
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_unknown_fault_class_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["chaos", "--fault-class", "gremlins"])
        assert excinfo.value.code == 2


@pytest.mark.parametrize("command", ["stream", "fleet", "serve", "chaos"])
def test_fsync_choices_are_the_gateway_policies(command):
    # The parser spells the policies out, so building it does not import
    # the durable stack; the gateway's tuple is the one that counts.
    from repro.cli import _build_parser
    from repro.durability import FSYNC_POLICIES

    (subcommands,) = [a for a in _build_parser()._actions if a.dest == "command"]
    (fsync,) = [a for a in subcommands.choices[command]._actions if a.dest == "fsync"]
    assert tuple(fsync.choices) == FSYNC_POLICIES


class TestScenarios:
    def test_list_prints_cell_ids(self, capsys):
        assert main(["scenarios", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fault:fail_stop:houseA:single:plain" in out
        assert "drift:seasonal_shift:synthetic:single:refresh" in out

    def test_mini_matrix_writes_valid_report(self, tmp_path, capsys):
        out_path = tmp_path / "scenario-report.json"
        code = main(
            [
                "scenarios", "--seed", "7", "--trials", "1",
                "--cells", "drift:seasonal_shift", "-o", str(out_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "drift seasonal_shift: sustained alerts/h" in out
        from repro.scenarios import validate_report

        with open(out_path, encoding="utf-8") as fh:
            doc = validate_report(json.load(fh))
        assert {row["id"] for row in doc["cells"]} == {
            "drift:seasonal_shift:synthetic:single:plain",
            "drift:seasonal_shift:synthetic:single:refresh",
        }

    def test_bad_cell_filter_exits_2(self):
        assert main(["scenarios", "--cells", "no_such_cell"]) == 2

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--trials", "0"], "--trials"),
            (["--trials", "-1"], "--trials"),
            (
                [
                    "--backend", "dice", "--backend", "dice",
                    "--cells", "fault:stuck_at:houseA:single",
                ],
                "--backend",
            ),
        ],
        ids=["0", "-1", "repeated-backend"],
    )
    def test_bad_parameters_exit_2(self, argv, flag, capsys):
        assert main(["scenarios"] + argv) == 2
        _one_error_line(capsys.readouterr().err, "bad_scenarios", flag)


class TestMetrics:
    def _snapshot(self, tmp_path):
        out = tmp_path / "metrics.json"
        assert main(TestStream.ARGS + ["--metrics-out", str(out)]) == 0
        return out

    def test_table_format(self, tmp_path, capsys):
        path = self._snapshot(tmp_path)
        capsys.readouterr()
        assert main(["metrics", str(path)]) == 0
        out = capsys.readouterr().out
        assert "dice_windows_total" in out
        assert "dice_stage_seconds" in out

    def test_prom_format_is_valid_exposition(self, tmp_path, capsys):
        from repro.telemetry.prometheus import validate_prometheus_text

        path = self._snapshot(tmp_path)
        capsys.readouterr()
        assert main(["metrics", str(path), "--format", "prom"]) == 0
        text = capsys.readouterr().out
        assert validate_prometheus_text(text) > 0

    def test_json_format_round_trips(self, tmp_path, capsys):
        import json

        path = self._snapshot(tmp_path)
        capsys.readouterr()
        assert main(["metrics", str(path), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == json.loads(path.read_text())

    def test_bad_snapshot_rejected(self, tmp_path, capsys):
        bad = tmp_path / "nope.json"
        bad.write_text("{not json")
        assert main(["metrics", str(bad)]) == 2
        assert main(["metrics", str(tmp_path / "missing.json")]) == 2


class TestTop:
    def test_once_prints_one_dashboard_frame(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        assert main(TestStream.ARGS + ["--metrics-out", str(path)]) == 0
        capsys.readouterr()
        assert main(["top", "--metrics", str(path), "--once"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("DICE top — 1 sample(s)")
        assert out.count("DICE top") == 1
        for row in ("windows:", "alerts:", "drops:", "latency:", "SLO burn:"):
            assert row in out

    def test_missing_snapshot_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["top", "--metrics", str(missing), "--once"]) == 2
        _one_error_line(capsys.readouterr().err, "bad_snapshot", str(missing))


class TestExperiment:
    def test_degree_table(self, capsys):
        code = main(
            [
                "experiment", "degree",
                "--datasets", "houseA",
                "--scale", "0.2",
                "--pairs", "4",
            ]
        )
        assert code == 0
        assert "correlation degree" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "nope"])

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["experiment", "accuracy", "--scale", "0"], "--scale"),
            (["experiment", "accuracy", "--scale", "-1"], "--scale"),
            (["experiment", "accuracy", "--pairs", "0"], "--pairs"),
            (["experiment", "accuracy", "--scale", "inf"], "--scale"),
            (["experiment", "accuracy", "--scale", "nan"], "--scale"),
        ],
    )
    def test_bad_parameters_exit_2(self, argv, flag, capsys):
        assert main(argv) == 2
        _one_error_line(capsys.readouterr().err, "bad_experiment", flag)


class TestBench:
    def test_quick_bench_writes_valid_document(self, tmp_path, capsys):
        import json

        from repro.bench import BENCH_SCHEMA, validate_document

        out = tmp_path / "bench.json"
        assert main(["bench", "--quick", "-o", str(out)]) == 0
        assert "capacity:" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["schema"] == BENCH_SCHEMA
        assert validate_document(doc) is doc
        assert sorted(doc) == [
            "capacity", "machine", "provenance", "quick", "schema", "seed"
        ]
        assert doc["provenance"]["alerts_identical"] is True
        assert doc["provenance"]["events"] > 0
        assert doc["provenance"]["overhead_ratio"] >= 0

        # The validator is what CI gates on: it must reject mutations.
        bad = dict(doc, schema="nope")
        with pytest.raises(ValueError):
            validate_document(bad)
        bad = json.loads(out.read_text())
        bad["capacity"]["alerts_identical"] = False
        with pytest.raises(ValueError):
            validate_document(bad)
        # A section the harness no longer writes must not ride along.
        bad = dict(doc, scan=[{"groups": 500, "windows": 5000, "num_bits": 96}])
        with pytest.raises(ValueError, match="top-level keys"):
            validate_document(bad)

    @pytest.mark.parametrize("flag, value", [("--capacity-homes", "0")])
    def test_bad_parameters_exit_2(self, flag, value, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(["bench", "--quick", flag, value, "-o", str(out)]) == 2
        _one_error_line(capsys.readouterr().err, "bad_bench", flag)
        assert not out.exists()

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
