"""The backend conformance battery: every registered backend, one contract.

Five properties, each an oracle the DICE pipeline already passes:

1. **streaming == batch** — replaying a live segment event-at-a-time
   through :class:`OnlineDice` raises exactly the alerts the backend's
   batch driver derives from the same segment in one pass;
2. **checkpoint-cut determinism** — cut the stream at a seeded-random
   event, serialize, restore onto a freshly fitted backend, replay the
   tail: the alert sequence and the *end-of-stream checkpoint bytes*
   match an uninterrupted run;
3. **quarantine masking** — a window checked with every sensor bit
   quarantined can never be a violation, and a segment of them ends
   without a verdict;
4. **hardened supervision** — a fail-stop victim under an aggressive
   supervisor policy quarantines cleanly and the stream completes;
5. **chaos crash-recovery** — the durability harness (journal + outbox +
   kill/recover) reaches alert parity with the uninterrupted oracle.

Fleet shard parity has its own module (``test_fleet_conformance.py``).
"""

import json
import random

import pytest

from repro import telemetry
from repro.core import create_backend
from repro.core.backend import _SegmentWindows
from repro.faults.crash import (
    build_chaos_deployment,
    fleet_oracle,
    one_home_stream,
    run_fleet_trial,
)
from repro.streaming import (
    HardenedOnlineDice,
    OnlineDice,
    SupervisorPolicy,
    restore_runtime,
)
from tests.backends.conftest import (
    ALERTING_BACKENDS,
    HOUR,
    PERTURBATIONS,
    SEED,
    build_deployment,
    canon,
    fit_backend,
    perturbed_live,
)

PARITY_TRIALS = 10

#: The quarantine-masking corpora as (seed offset, perturbation, deployment
#: options): the original corpus first, then a sweep.  Odd seeds build
#: busier homes (4 h, six binary sensors), so correlation checks fire too.
QUARANTINE_CORPORA = [(26, "drop_device", {})] + [
    (
        offset,
        PERTURBATIONS[offset % len(PERTURBATIONS)],
        {"hours": 4.0, "k_binary": 6} if offset % 2 else {},
    )
    for offset in range(12)
]


class TestStreamingBatchParity:
    def test_streaming_matches_batch_on_perturbed_traces(self, backend_name):
        rng = random.Random(SEED)
        total = 0
        for trial in range(PARITY_TRIALS):
            registry, trace, split = build_deployment(
                rng,
                hours=rng.choice([6.0, 8.0]),
                phase=rng.choice([300.0, 600.0]),
                k_binary=rng.randrange(2, 5),
            )
            live = perturbed_live(
                rng, trace, split, PERTURBATIONS[trial % len(PERTURBATIONS)]
            )
            streamed = fit_backend(backend_name, registry, trace, split)
            batched = fit_backend(backend_name, registry, trace, split)
            s = canon(OnlineDice(streamed, start=live.start).replay(live))
            b = canon(batched.process_batch(live))
            assert s == b, f"{backend_name} diverged on trial {trial}"
            total += s.count("'detection'") + s.count("'identification'")
        if backend_name in ALERTING_BACKENDS:
            # The corpus must exercise the pipeline, not compare silence.
            assert total > 0, f"{backend_name} never alerted on the corpus"

    def test_clean_lcs_segment_verdict_streams(self, small_house):
        # clean-lcs decides at segment or stream end, and the corpus above
        # never co-activates sensors, so it gives clean-lcs no partners.
        # This houseA segment, with fridge removed, gives it a verdict.
        trace = small_house.trace
        training = trace.slice(0.0, 72 * HOUR)
        live = trace.slice(78 * HOUR, 102 * HOUR).without_device("fridge")
        streamed = create_backend("clean-lcs", trace.registry).fit(training)
        batched = create_backend("clean-lcs", trace.registry).fit(training)
        s = OnlineDice(streamed, start=live.start).replay(live)
        b = batched.process_batch(live)
        assert canon(s) == canon(b)
        assert any("fridge" in alert.devices for alert in b)


class TestCheckpointCut:
    def _policy(self):
        return SupervisorPolicy(
            silence_seconds=4 * HOUR, quarantine_seconds=8 * HOUR
        )

    def _runtime(self, backend, start):
        return HardenedOnlineDice(
            backend,
            start=start,
            lateness_seconds=120.0,
            policy=self._policy(),
            provenance=telemetry.NULL_PROVENANCE,
        )

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_cut_restore_is_byte_identical(self, backend_name, seed):
        rng = random.Random(SEED + seed)
        registry, trace, split = build_deployment(rng)
        kind = PERTURBATIONS[seed % len(PERTURBATIONS)]
        events = list(perturbed_live(rng, trace, split, kind))
        assert len(events) > 2

        def fitted():
            # NULL metrics: checkpoint bytes then carry no counter state,
            # so byte-comparison pins the runtime/model sections exactly.
            return fit_backend(
                backend_name,
                registry,
                trace,
                split,
                metrics=telemetry.NULL_REGISTRY,
            )

        full = self._runtime(fitted(), split)
        expected = full.ingest_many(events)
        expected += full.finish_stream(trace.end)

        cut = rng.randrange(1, len(events))
        first = self._runtime(fitted(), split)
        head = first.ingest_many(events[:cut])
        # Force a genuine serialize -> parse cycle, as a crash would.
        snapshot = json.loads(json.dumps(first.checkpoint()))
        assert snapshot["backend"] == backend_name
        resumed = restore_runtime(
            fitted(),
            snapshot,
            policy=self._policy(),
            provenance=telemetry.NULL_PROVENANCE,
        )
        tail = resumed.ingest_many(events[cut:])
        tail += resumed.finish_stream(trace.end)

        assert canon(head + tail) == canon(expected), f"cut at {cut}"
        assert json.dumps(resumed.checkpoint(), sort_keys=True) == json.dumps(
            full.checkpoint(), sort_keys=True
        )


class TestQuarantineMasking:
    def test_full_quarantine_masks_every_violation(self, backend_name):
        # With every sensor bit quarantined a backend has no evidence left;
        # whatever its internal state, no window may be called a violation
        # and the segment end may raise nothing.  (No actuators: actuator
        # activations are not quarantinable bits.)  Over the sweep every
        # backend but clean-lcs violates with quarantine off, so the
        # masking assertion is never vacuous.
        open_violations = 0
        for offset, kind, options in QUARANTINE_CORPORA:
            rng = random.Random(SEED + offset)
            registry, trace, split = build_deployment(
                rng, with_actuator=False, **options
            )
            live = perturbed_live(rng, trace, split, kind)
            masked = fit_backend(backend_name, registry, trace, split)
            open_eyes = fit_backend(backend_name, registry, trace, split)
            windowed = masked.encode_window(live)
            assert len(windowed) > 0
            windows = _SegmentWindows(windowed)
            qbits = (1 << masked.encoder.layout.num_bits) - 1
            masked_violations = 0
            for i in range(len(windowed)):
                masked_violations += masked.observe_window(
                    windows[i], qbits
                ).violation
                open_violations += open_eyes.observe_window(
                    windows[i], 0
                ).violation
            corpus = f"SEED + {offset}"
            assert masked_violations == 0, corpus
            assert masked.finish_segment(live.end) is None, corpus
        if backend_name != "clean-lcs":  # its check never violates
            assert open_violations > 0

    def test_fail_stop_victim_quarantines_and_stream_completes(
        self, backend_name
    ):
        rng = random.Random(SEED + 23)
        registry, trace, split = build_deployment(rng)
        victim = registry.device_ids[0]
        live = [
            e
            for e in trace.slice(split, trace.end)
            if e.device_id != victim
        ]
        backend = fit_backend(backend_name, registry, trace, split)
        runtime = HardenedOnlineDice(
            backend,
            start=split,
            policy=SupervisorPolicy(
                silence_seconds=600.0, quarantine_seconds=1200.0
            ),
        )
        runtime.ingest_many(live)
        runtime.finish_stream(trace.end)
        health = runtime.health()
        assert victim in health["quarantined"]
        assert health["drops"]["total"] == 0


class TestChaosRecovery:
    def test_crash_recovery_reaches_alert_parity(self, backend_name, tmp_path):
        deployment = build_chaos_deployment(42, backend=backend_name)
        stream = one_home_stream(deployment)
        expected, _ = fleet_oracle([deployment], stream)
        n = len(deployment.events)
        result = run_fleet_trial(
            [deployment],
            stream,
            expected,
            str(tmp_path),
            kill_index=(3 * n) // 4,
            checkpoint_index=n // 2,
        )
        assert result.ok, f"{backend_name} lost parity after crash-recovery"
        assert result.checkpointed
