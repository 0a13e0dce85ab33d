"""The column-wise precomputation against the per-window loops it replaced.

Each ``loop_*`` function below is the former production code, kept
verbatim as an oracle: the word-by-word ``_words_to_masks``, the per-window
``set`` build of ``_actuator_activations``, one ``GroupRegistry.add`` per
window and one ``TransitionMatrix.observe`` per window and actuator.  The
production code must agree with them exactly — the same Python ints, the
same group ids and counts, and the same dict insertion order in all three
transition matrices (``successors()`` order feeds identification's
reference groups).
"""

from typing import FrozenSet, List, Sequence

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GroupRegistry, StateSetEncoder, TransitionModel
from repro.core.encoding import BitLayout, WindowedTrace, _words_to_masks
from repro.model import (
    DeviceRegistry,
    SensorType,
    Trace,
    actuator,
    binary_sensor,
    numeric_sensor,
)


def loop_words_to_masks(words: np.ndarray) -> List[int]:
    n_windows, n_words = words.shape
    masks = [0] * n_windows
    for w in range(n_words):
        shift = 64 * w
        col = words[:, w]
        for i in np.nonzero(col)[0]:
            masks[int(i)] |= int(col[i]) << shift
    return masks


def loop_actuator_activations(
    self: StateSetEncoder, trace: Trace, n_windows: int
) -> List[FrozenSet[str]]:
    activations: List[set] = [set() for _ in range(n_windows)]
    if n_windows:
        for device in self.registry.actuators():
            dev_idx = self.registry.index_of(device.device_id)
            mask = (trace.device_indices == dev_idx) & (trace.values > 0)
            if not mask.any():
                continue
            wins = np.floor(
                (trace.timestamps[mask] - trace.start) / self.window_seconds
            ).astype(np.int64)
            np.clip(wins, 0, n_windows - 1, out=wins)
            for w in np.unique(wins):
                activations[int(w)].add(device.device_id)
    return [frozenset(s) for s in activations]


def loop_from_windows(windowed: WindowedTrace):
    registry = GroupRegistry(windowed.layout)
    sequence = [registry.add(mask) for mask in windowed.masks]
    return registry, sequence


def loop_extract(
    group_sequence: Sequence[int],
    actuator_activations: Sequence[FrozenSet[str]],
) -> TransitionModel:
    if len(group_sequence) != len(actuator_activations):
        raise ValueError("group sequence and activations must align")
    model = TransitionModel()
    for i in range(1, len(group_sequence)):
        prev_g = group_sequence[i - 1]
        cur_g = group_sequence[i]
        model.g2g.observe(prev_g, cur_g)
        for act in actuator_activations[i]:
            model.g2a.observe(prev_g, act)
        for act in actuator_activations[i - 1]:
            model.a2g.observe(act, cur_g)
    return model


def _typed(items):
    """Items with their key/value types: an int and a numpy int compare
    equal but pickle, hash into contexts and serialise differently."""
    return [
        (
            type(k).__name__, k, type(v).__name__,
            _typed(v.items()) if isinstance(v, dict) else v,
        )
        for k, v in items
    ]


def _matrices(model: TransitionModel):
    return [
        (_typed(m._counts.items()), _typed(m._row_totals.items()))
        for m in (model.g2g, model.g2a, model.a2g)
    ]


# --------------------------------------------------------------------- #
# Hypothesis draws the sizes and a seed; numpy builds the bulk inputs
# from the seed, which keeps each example cheap.


@settings(max_examples=100, deadline=None)
@given(
    n_windows=st.integers(0, 60),
    n_words=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_words_to_masks_matches_the_loop(n_windows, n_words, seed):
    rng = np.random.default_rng(seed)
    words = rng.integers(0, 2**64, (n_windows, n_words), dtype=np.uint64)
    words[rng.random(words.shape) < 0.5] = 0
    fast = _words_to_masks(words)
    assert fast == loop_words_to_masks(words)
    assert all(type(mask) is int for mask in fast)


def _actuator_trace(n_act, n_windows, window, n_events, seed):
    """A registry with *n_act* actuators (the numeric sensor somewhere
    among them) and a trace over it with off-grid times and zero or
    negative values mixed in."""
    rng = np.random.default_rng(seed)
    kinds = ["hue", "plug", "fan", "tv"]
    devices = [binary_sensor("motion", SensorType.MOTION, "hall")] + [
        actuator(f"{kinds[rng.integers(4)]}_{i}", SensorType.BULB, "hall")
        for i in range(n_act)
    ]
    devices.insert(
        int(rng.integers(len(devices) + 1)),
        numeric_sensor("temp", SensorType.TEMPERATURE, "hall"),
    )
    registry = DeviceRegistry(devices)
    horizon = n_windows * window
    trace = Trace(
        registry,
        rng.uniform(0.0, horizon, n_events),
        rng.integers(0, len(registry), n_events),
        rng.choice([1.0, 1.0, 0.0, -1.0, 3.5], n_events),
        start=0.0,
        end=horizon,
    )
    return registry, trace


@settings(max_examples=100, deadline=None)
@given(
    n_act=st.integers(0, 9),
    n_windows=st.integers(1, 12),
    window=st.sampled_from([60.0, 30.0, 45.5]),
    n_events=st.integers(0, 80),
    seed=st.integers(0, 2**32 - 1),
)
def test_actuator_activations_match_the_loop(n_act, n_windows, window, n_events, seed):
    registry, trace = _actuator_trace(n_act, n_windows, window, n_events, seed)
    encoder = StateSetEncoder(registry, window)
    n_windows = encoder.num_windows(trace)
    fast = encoder._actuator_activations(trace, n_windows)
    loop = loop_actuator_activations(encoder, trace, n_windows)
    assert fast == loop
    # Iteration order too: the transition matrices insert in it.
    assert [list(acts) for acts in fast] == [list(acts) for acts in loop]


def test_crowded_windows_keep_the_loop_iteration_order():
    # From five members up, frozenset(iterable) and frozenset(set) lay out
    # their hash tables differently; string hashes vary per process, so
    # hundreds of crowded windows make a layout difference show.
    names = [f"act_{i}" for i in range(9)]
    registry = DeviceRegistry(
        [binary_sensor("motion", SensorType.MOTION, "hall")]
        + [actuator(name, SensorType.BULB, "hall") for name in names]
    )
    rng = np.random.default_rng(0)
    times, devices = [], []
    for w in range(300):
        for k in rng.choice(9, size=rng.integers(5, 10), replace=False):
            times.append(w * 60.0 + rng.uniform(0.0, 60.0))
            devices.append(1 + k)
    trace = Trace(
        registry, np.array(times), np.array(devices), np.ones(len(times)),
        start=0.0, end=300 * 60.0,
    )
    encoder = StateSetEncoder(registry, 60.0)
    fast = encoder._actuator_activations(trace, 300)
    loop = loop_actuator_activations(encoder, trace, 300)
    assert [list(acts) for acts in fast] == [list(acts) for acts in loop]


def _windowed(masks: List[int], num_bits: int) -> WindowedTrace:
    registry = DeviceRegistry(
        [binary_sensor(f"s{i}", SensorType.MOTION) for i in range(num_bits)]
    )
    return WindowedTrace(
        BitLayout(registry), 60.0, 0.0, masks, [frozenset()] * len(masks)
    )


@settings(max_examples=100, deadline=None)
@given(
    num_bits=st.sampled_from([3, 64, 70, 130]),
    n_windows=st.integers(0, 120),
    seed=st.integers(0, 2**32 - 1),
)
def test_from_windows_matches_per_window_add(num_bits, n_windows, seed):
    rng = np.random.default_rng(seed)
    pool = [0] + [
        int.from_bytes(rng.bytes(17), "little") % (1 << num_bits)
        for _ in range(11)
    ]
    windowed = _windowed(
        [pool[p] for p in rng.integers(0, 12, n_windows)], num_bits
    )
    fast, fast_seq = GroupRegistry.from_windows(windowed)
    loop, loop_seq = loop_from_windows(windowed)
    assert fast_seq == loop_seq
    assert all(type(g) is int for g in fast_seq)
    assert list(fast._by_mask.items()) == list(loop._by_mask.items())
    assert _typed(enumerate(fast._counts)) == _typed(enumerate(loop._counts))
    assert fast.masks == loop.masks
    assert fast._bitsets.rows.tobytes() == loop._bitsets.rows.tobytes()
    assert fast.version == loop.version
    # Interning keeps working on a built registry.
    fresh = (1 << num_bits) - 1
    assert fast.add(fresh) == loop.add(fresh)


_ACTUATORS = [f"act_{i}" for i in range(9)]


@settings(max_examples=100, deadline=None)
@given(
    n_windows=st.integers(0, 150),
    n_groups=st.integers(1, 16),
    active=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_extract_matches_the_loop(n_windows, n_groups, active, seed):
    rng = np.random.default_rng(seed)
    sequence = rng.integers(0, n_groups, n_windows).tolist()
    # Activation sets are built the way the encoder builds them (a set in
    # registry order, then frozenset), with up to nine members per window.
    activations = []
    for _ in sequence:
        k = int(rng.integers(1, 10)) if rng.random() < active else 0
        members = set(rng.choice(_ACTUATORS, k, replace=False).tolist())
        activations.append(
            frozenset(set(name for name in _ACTUATORS if name in members))
        )
    fast = TransitionModel.extract(sequence, activations)
    loop = loop_extract(sequence, activations)
    assert _matrices(fast) == _matrices(loop)
    for group in set(sequence):
        assert list(fast.g2g.successors(group).items()) == list(
            loop.g2g.successors(group).items()
        )


def test_extract_accepts_an_array_sequence():
    activations = [frozenset(), frozenset({"hue"}), frozenset()]
    fast = TransitionModel.extract(np.array([2, 0, 2]), activations)
    loop = loop_extract([2, 0, 2], activations)
    assert _matrices(fast) == _matrices(loop)


def test_fit_matches_the_loops_end_to_end(registry, cyclic_trace):
    encoder = StateSetEncoder(registry, 60.0).fit(cyclic_trace)
    windowed = encoder.encode(cyclic_trace)
    loop_acts = loop_actuator_activations(
        encoder, cyclic_trace, len(windowed)
    )
    assert [list(a) for a in windowed.actuator_activations] == [
        list(a) for a in loop_acts
    ]
    fast_groups, fast_seq = GroupRegistry.from_windows(windowed)
    loop_groups, loop_seq = loop_from_windows(windowed)
    assert fast_seq == loop_seq
    assert fast_groups._counts == loop_groups._counts
    assert _matrices(
        TransitionModel.extract(fast_seq, windowed.actuator_activations)
    ) == _matrices(loop_extract(loop_seq, loop_acts))
