"""Misuse errors: every wrong-backend path fails loud, early, and named.

The contract: an unknown backend name — in ``create_backend`` or on the
CLI — produces one line naming the valid backends (CLI exit code 2);
restoring a checkpoint written by a different backend raises
:class:`CheckpointError` naming both backends; a backend state that lost
its payload raises ``KeyError`` instead of restoring fresh state.
"""

import random

import pytest

from repro.cli import main
from repro.core import available_backends, create_backend
from repro.streaming import (
    CheckpointError,
    HardenedOnlineDice,
    restore_runtime,
)
from tests.backends.conftest import SEED, build_deployment, fit_backend


class TestUnknownBackendName:
    def test_create_backend_rejects_unknown_name(self):
        rng = random.Random(SEED)
        registry, _, _ = build_deployment(rng)
        with pytest.raises(ValueError) as excinfo:
            create_backend("nope", registry)
        message = str(excinfo.value)
        assert "nope" in message
        for name in available_backends():
            assert name in message

    def test_stream_cli_exits_2(self, capsys):
        code = main(
            [
                "stream", "houseA",
                "--hours", "8", "--train-hours", "6",
                "--backend", "nope",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "nope" in err
        for name in available_backends():
            assert name in err

    def test_scenarios_cli_exits_2(self, capsys):
        code = main(["scenarios", "--trials", "1", "--backend", "nope"])
        assert code == 2
        err = capsys.readouterr().err
        assert "nope" in err
        for name in available_backends():
            assert name in err


class TestCrossBackendRestore:
    def test_restore_names_both_backends(self):
        rng = random.Random(SEED + 7)
        registry, trace, split = build_deployment(rng)
        writer = HardenedOnlineDice(
            fit_backend("dice", registry, trace, split), start=split
        )
        writer.ingest_many(list(trace.slice(split, trace.end))[:50])
        snapshot = writer.checkpoint()
        target = fit_backend("markov", registry, trace, split)
        with pytest.raises(CheckpointError) as excinfo:
            restore_runtime(target, snapshot)
        message = str(excinfo.value)
        assert "'dice'" in message
        assert "'markov'" in message

    def test_same_backend_restore_still_works(self):
        # The guard must not reject the legitimate path it sits on.
        rng = random.Random(SEED + 7)
        registry, trace, split = build_deployment(rng)
        writer = HardenedOnlineDice(
            fit_backend("markov", registry, trace, split), start=split
        )
        writer.ingest_many(list(trace.slice(split, trace.end))[:50])
        snapshot = writer.checkpoint()
        resumed = restore_runtime(
            fit_backend("markov", registry, trace, split), snapshot
        )
        assert resumed.backend.name == "markov"


class TestMissingPayload:
    def test_state_without_payload_raises_key_error(self, backend_name):
        # Every registered backend writes a payload under its own name; a
        # state without it is corrupt and must not restore as a fresh start.
        rng = random.Random(SEED + 11)
        registry, trace, split = build_deployment(rng)
        writer = HardenedOnlineDice(
            fit_backend(backend_name, registry, trace, split), start=split
        )
        writer.ingest_many(list(trace.slice(split, trace.end))[:50])
        state = writer.backend.checkpoint_state()
        del state[backend_name]
        target = fit_backend(backend_name, registry, trace, split)
        with pytest.raises(KeyError) as excinfo:
            target.load_state(state)
        assert excinfo.value.args == (backend_name,)
