"""Markov backend vs a hand-rolled scalar transition-probability oracle.

The same differential shape as the packed-Hamming sweep in
``tests/test_differential.py``: the production implementation (per-device
:class:`TransitionMatrix` chains, vector-ish window-state extraction) is
cross-checked against the obvious dict-of-dicts reimplementation on
seeded random deployments — training counts, row totals, and the
per-window violation decision, quarantine included.
"""

import random

from repro.core.backend import MarkovBackend, _BatchWindow
from repro.core.config import MIN_ROW_OBSERVATIONS
from tests.backends.conftest import (
    PERTURBATIONS,
    SEED,
    build_deployment,
    perturbed_live,
)

TRIALS = 20


class ScalarMarkovOracle:
    """The obvious scalar model: one ``{prev: {cur: count}}`` dict per
    device, trained by walking windows in order; a window violates for a
    device when its previous state is trusted (row total at or above
    ``min_row``) and the taken transition was never counted."""

    def __init__(self, registry, layout, min_row):
        self.layout = layout
        self.min_row = min_row
        self.sensors = sorted(
            d.device_id for d in registry if not d.is_actuator
        )
        self.actuators = sorted(
            d.device_id for d in registry if d.is_actuator
        )
        self.order = self.sensors + self.actuators
        self.counts = {device: {} for device in self.order}

    def n_states(self, device):
        if device in self.actuators:
            return 2
        return 1 << len(self.layout.bits_of_device(device))

    def states(self, mask, acts, quarantined=()):
        states = {}
        for device in self.sensors:
            if device in quarantined:
                states[device] = None
                continue
            value = 0
            for k, bit in enumerate(self.layout.bits_of_device(device)):
                if mask & (1 << bit):
                    value += 1 << k
            states[device] = value
        for device in self.actuators:
            states[device] = 1 if device in acts else 0
        return states

    def train(self, windows):
        prev = None
        for mask, acts in windows:
            cur = self.states(mask, acts)
            if prev is not None:
                for device in self.order:
                    row = self.counts[device].setdefault(prev[device], {})
                    row[cur[device]] = row.get(cur[device], 0) + 1
            prev = cur

    def count(self, device, prev, cur):
        return self.counts[device].get(prev, {}).get(cur, 0)

    def row_total(self, device, prev):
        return sum(self.counts[device].get(prev, {}).values())

    def violations(self, prev, states):
        if prev is None:
            return ()
        out = []
        for device in self.order:
            p, c = prev.get(device), states[device]
            if p is None or c is None:
                continue
            if self.row_total(device, p) >= self.min_row and (
                self.count(device, p, c) == 0
            ):
                out.append(device)
        return tuple(out)


def _deployment(rng, trial):
    return build_deployment(
        rng,
        hours=rng.choice([4.0, 6.0]),
        phase=rng.choice([300.0, 600.0]),
        k_binary=1 if trial == 0 else rng.randrange(1, 5),
        with_numeric=trial != 0 and rng.random() < 0.7,
        with_actuator=trial != 0 and rng.random() < 0.5,
    )


def _oracle_for(backend, registry, training):
    oracle = ScalarMarkovOracle(
        registry, backend.encoder.layout, MIN_ROW_OBSERVATIONS
    )
    oracle.train(backend.encode_window(training))
    return oracle


def test_trained_chains_match_scalar_counts():
    rng = random.Random(SEED)
    nonzero = 0
    for trial in range(TRIALS):
        registry, trace, split = _deployment(rng, trial)
        training = trace.slice(trace.start, split)
        backend = MarkovBackend(registry).fit(training)
        oracle = _oracle_for(backend, registry, training)
        assert tuple(oracle.order) == backend._device_order
        for device in oracle.order:
            chain = backend._chains[device]
            n = oracle.n_states(device)
            # Exhaustive over the state square: equal counts everywhere
            # also proves the chain holds no transitions the oracle missed.
            for p in range(n):
                assert chain.row_total(p) == oracle.row_total(device, p)
                for c in range(n):
                    assert chain.count(p, c) == oracle.count(device, p, c), (
                        f"trial {trial} {device} {p}->{c}"
                    )
                    nonzero += oracle.count(device, p, c) > 0
    assert nonzero > 0, "the corpus never trained a transition"


def test_live_verdicts_match_scalar_oracle():
    rng = random.Random(SEED + 1)
    total_violations = 0
    for trial in range(TRIALS):
        registry, trace, split = _deployment(rng, trial)
        training = trace.slice(trace.start, split)
        backend = MarkovBackend(registry).fit(training)
        oracle = _oracle_for(backend, registry, training)
        live = perturbed_live(
            rng, trace, split, PERTURBATIONS[trial % len(PERTURBATIONS)]
        )
        # Half the trials quarantine one random sensor mid-sweep coverage:
        # the oracle treats its state as unknown, exactly like the backend
        # must treat its masked bits.
        quarantined = ()
        qbits = 0
        if oracle.sensors and rng.random() < 0.5:
            victim = rng.choice(oracle.sensors)
            quarantined = (victim,)
            for bit in backend.encoder.layout.bits_of_device(victim):
                qbits |= 1 << bit
        windows = backend.encode_window(live)
        seconds = windows.window_seconds
        prev = None
        for i, (mask, acts) in enumerate(windows):
            start = windows.window_start(i)
            snap = _BatchWindow(i, start, start + seconds, mask, acts)
            verdict = backend.check(snap, qbits)
            states = oracle.states(mask, acts, quarantined)
            expected = oracle.violations(prev, states)
            assert verdict.payload[0] == expected, (
                f"trial {trial} window {i}"
            )
            assert verdict.violation == bool(expected)
            backend.observe_window(snap, qbits)
            prev = states
            total_violations += len(expected)
    assert total_violations > 0, "the corpus never produced a violation"
