"""Activity footprints and effect snapping against the per-item code
they replaced.

``loop_apply_activities`` is the former ``HomeSimulator._apply_activities``,
kept verbatim as an oracle: it masks every trigger's event times to
``[0, horizon)``.  The production code checks the first and the last
(sorted) time and masks only when one falls outside.  Both must hand out
the same event chunks and effect intervals, in the same dict order, from
the same random draws.

``loop_add`` is the former ``NumericSignalBuilder.add``, one effect at a
time with ``round()``; ``add_many`` snaps every effect in array passes and
must keep the same ``(start, end, delta)`` tuples, in order.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smarthome import HomeSimulator, NumericProfile, NumericSignalBuilder
from repro.smarthome.activities import ActivityInstance, ActivitySpec, NumericEffect
from repro.smarthome.effects import BinaryTrigger, EffectInterval, binary_events


def loop_apply_activities(self, schedule, horizon, rng, numeric_effects, binary_times):
    for inst in schedule:
        for trigger in inst.spec.binary_triggers:
            times = binary_events(trigger, inst.start, min(inst.end, horizon), rng)
            times = times[(times >= 0) & (times < horizon)]
            if len(times):
                binary_times.setdefault(trigger.device_id, []).append(times)
        for effect in inst.spec.numeric_effects:
            if (
                self.spec.response_miss_probability > 0.0
                and rng.random() < self.spec.response_miss_probability
            ):
                continue
            start, end = inst.start, min(inst.end, horizon)
            if end > start:
                numeric_effects.setdefault(effect.device_id, []).append(
                    EffectInterval(effect.device_id, start, end, effect.delta)
                )


def _specs(rng):
    patterns = ["continuous", "start", "end", "random"]
    return [
        ActivitySpec(
            f"act{k}",
            "room",
            (1.0, 2.0),
            binary_triggers=tuple(
                BinaryTrigger(
                    f"b{rng.integers(4)}",
                    patterns[rng.integers(4)],
                    float(rng.choice([7.0, 20.0, 25.0, 61.5])),
                    float(rng.choice([0.3, 1.0])),
                )
                for _ in range(rng.integers(0, 3))
            ),
            numeric_effects=tuple(
                NumericEffect(f"n{rng.integers(3)}", float(rng.normal(0.0, 5.0)))
                for _ in range(rng.integers(0, 3))
            ),
        )
        for k in range(4)
    ]


@settings(max_examples=150, deadline=None)
@given(
    n_instances=st.integers(0, 40),
    horizon=st.floats(600.0, 20_000.0),
    miss=st.sampled_from([0.0, 0.4]),
    seed=st.integers(0, 2**32 - 1),
)
def test_activity_footprints_match_the_loop(n_instances, horizon, miss, seed):
    rng = np.random.default_rng(seed)
    specs = _specs(rng)
    # Instances may start before 0 and run past the horizon.
    schedule = []
    for _ in range(n_instances):
        start = float(rng.uniform(-300.0, horizon + 300.0))
        end = start + float(rng.choice([0.5, 40.0, rng.uniform(1.0, 3000.0)]))
        schedule.append(ActivityInstance(specs[rng.integers(4)], start, end))
    simulator = HomeSimulator(SimpleNamespace(response_miss_probability=miss))

    results = []
    for apply in (simulator._apply_activities, loop_apply_activities.__get__(simulator)):
        draws = np.random.default_rng(seed + 1)
        numeric, binary = {}, {}
        apply(schedule, horizon, draws, numeric, binary)
        results.append((numeric, binary, draws.bit_generator.state))
    (fast_numeric, fast_binary, fast_state), (loop_numeric, loop_binary, loop_state) = results

    assert list(fast_numeric.items()) == list(loop_numeric.items())
    assert list(fast_binary) == list(loop_binary)
    for device, chunks in loop_binary.items():
        assert [c.dtype.str + c.tobytes().hex() for c in fast_binary[device]] == [
            c.dtype.str + c.tobytes().hex() for c in chunks
        ]
    assert fast_state == loop_state


def loop_add(self, start: float, end: float, delta: float) -> None:
    if end < start:
        raise ValueError("effect must not end before it starts")
    snap = self.profile.snap_seconds
    if snap > 0:
        start = round(start / snap) * snap
        end = round(end / snap) * snap
        if end == start:
            end = start + snap
    if end > start and delta != 0.0:
        self._effects.append((start, end, delta))


@settings(max_examples=150, deadline=None)
@given(
    n_effects=st.integers(0, 60),
    snap=st.sampled_from([0.0, 1.0, 45.0, 60.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_add_many_matches_the_add_loop(n_effects, snap, seed):
    rng = np.random.default_rng(seed)
    # Starts on and between snap points, halves (ties round to even),
    # zero and negative zero; spans from empty to long; some zero deltas.
    starts = rng.choice(
        [0.0, -0.0, -20.0, 30.0, 90.0, 29.9, 150.0, rng.uniform(-100, 5000)],
        n_effects,
    )
    ends = starts + rng.choice([0.0, 10.0, 30.0, 59.0, rng.uniform(0, 900)], n_effects)
    deltas = rng.choice([0.0, 2.5, -1.0, rng.normal(0.0, 50.0)], n_effects)
    profile = NumericProfile(base=20.0, quantum=0.5, noise_sigma=0.1, snap_seconds=snap)
    fast = NumericSignalBuilder(profile)
    fast.add_many(starts, ends, deltas)
    loop = NumericSignalBuilder(profile)
    for start, end, delta in zip(starts.tolist(), ends.tolist(), deltas.tolist()):
        loop_add(loop, start, end, delta)
    assert fast._effects == loop._effects
    assert [tuple(map(str, e)) for e in fast._effects] == [
        tuple(map(str, e)) for e in loop._effects
    ]
