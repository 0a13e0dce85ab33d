"""GracefulShutdown: signals request a drain; the loop stops between items.

``repro serve`` gets the same contract end to end: SIGTERM drains to a
checkpoint and exits 0, even when it lands the moment the ports file
appears.
"""

import os
import signal
import subprocess
import sys
import time

import repro
from repro.service import GracefulShutdown, drain_iter


def _fire(signum=signal.SIGTERM):
    os.kill(os.getpid(), signum)


class TestGracefulShutdown:
    def test_sigterm_sets_requested(self):
        with GracefulShutdown() as shutdown:
            assert not shutdown.requested
            _fire(signal.SIGTERM)
            assert shutdown.requested
            assert shutdown.signal_name == "SIGTERM"

    def test_sigint_sets_requested(self):
        with GracefulShutdown() as shutdown:
            _fire(signal.SIGINT)
            assert shutdown.requested
            assert shutdown.signal_name == "SIGINT"

    def test_handlers_restored_on_exit(self):
        before = signal.getsignal(signal.SIGTERM)
        with GracefulShutdown():
            assert signal.getsignal(signal.SIGTERM) != before
        assert signal.getsignal(signal.SIGTERM) == before

    def test_drain_iter_stops_between_items(self):
        """The signal lands mid-stream; the item in flight completes and
        nothing after it is yielded — the checkpoint-consistent prefix."""
        with GracefulShutdown() as shutdown:
            seen = []
            for item in drain_iter(range(10), shutdown):
                seen.append(item)
                if item == 3:
                    _fire(signal.SIGTERM)
            assert seen == [0, 1, 2, 3]

    def test_drain_iter_without_shutdown_passes_through(self):
        assert list(drain_iter(range(4), None)) == [0, 1, 2, 3]

    def test_drain_iter_idle_stream_untouched(self):
        with GracefulShutdown() as shutdown:
            assert list(drain_iter(range(3), shutdown)) == [0, 1, 2]


class TestServeDrain:
    def test_sigterm_as_soon_as_ports_file_exists_drains(self, tmp_path):
        ports = tmp_path / "ports.json"
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--homes", "1", "--shards", "1",
                "--hours", "6", "--train-hours", "4", "--seed", "3",
                "--journal-dir", str(tmp_path / "wal"),
                "--checkpoint-dir", str(tmp_path / "ckpt"),
                "--ports-out", str(ports),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 120.0
            while not ports.exists():
                assert proc.poll() is None, "server exited before listening"
                assert time.monotonic() < deadline, "no ports file"
                time.sleep(0.001)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=120) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert (tmp_path / "ckpt" / "manifest.json").exists()
