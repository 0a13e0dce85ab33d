"""GracefulShutdown: signals request a drain, and the handlers it swapped
in are restored on exit.

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
from repro.service import GracefulShutdown


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
