"""The array-pass encoder against the per-device loops it replaced.

``LoopStateSetEncoder`` keeps the former production code verbatim as an
oracle: ``np.add.at`` for ``valueThre``, one full-trace pass per binary
sensor and per actuator, and a ``lexsort`` by (device, window) with three
bit-setting calls per numeric sensor.  :class:`~repro.core.StateSetEncoder`
looks every device up in one table pass, sorts numeric readings by device
alone and sets all numeric bits in one call; it must produce the same
thresholds, the same Python-int masks, and the same activation sets in
the same iteration order (the transition matrices insert in it).
"""

from typing import FrozenSet, List

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import StateSetEncoder
from repro.core.encoding import WindowedTrace, _words_to_masks
from repro.model import (
    DeviceRegistry,
    SensorType,
    Trace,
    actuator,
    binary_sensor,
    numeric_sensor,
)


class LoopStateSetEncoder(StateSetEncoder):
    def fit(self, trace: Trace) -> "LoopStateSetEncoder":
        """Learn per-numeric-sensor ``valueThre`` from fault-free data."""
        if trace.registry is not self.registry:
            raise ValueError("trace registry differs from encoder registry")
        n = len(self.registry)
        sums = np.zeros(n, dtype=np.float64)
        counts = np.zeros(n, dtype=np.int64)
        np.add.at(sums, trace.device_indices, trace.values)
        np.add.at(counts, trace.device_indices, 1)
        thresholds = np.zeros(n, dtype=np.float64)
        nonzero = counts > 0
        thresholds[nonzero] = sums[nonzero] / counts[nonzero]
        self._value_thresholds = thresholds
        return self

    # -- encoding (former production code) ------------------------------ #

    def encode(self, trace: Trace) -> WindowedTrace:
        """Encode every window of *trace* (windows are ``[t, t+d)``)."""
        self._require_fitted()
        if trace.registry is not self.registry:
            raise ValueError("trace registry differs from encoder registry")
        n_windows = self.num_windows(trace)
        layout = self.layout
        words = np.zeros((n_windows, layout.num_words), dtype=np.uint64)
        if n_windows and len(trace):
            window_of = np.floor(
                (trace.timestamps - trace.start) / self.window_seconds
            ).astype(np.int64)
            np.clip(window_of, 0, n_windows - 1, out=window_of)
            self._encode_binary(trace, window_of, words)
            self._encode_numeric(trace, window_of, words)
        masks = _words_to_masks(words)
        activations = self._actuator_activations(trace, n_windows)
        return WindowedTrace(
            layout, self.window_seconds, trace.start, masks, activations
        )

    def _encode_binary(
        self, trace: Trace, window_of: np.ndarray, words: np.ndarray
    ) -> None:
        for device in self.registry.binary_sensors():
            dev_idx = self.registry.index_of(device.device_id)
            mask = (trace.device_indices == dev_idx) & (trace.values > 0)
            if not mask.any():
                continue
            bit = self.layout.bits_of_device(device.device_id)[0]
            _set_bit(words, window_of[mask], bit)

    def _encode_numeric(
        self, trace: Trace, window_of: np.ndarray, words: np.ndarray
    ) -> None:
        numeric = self.registry.numeric_sensors()
        if not numeric:
            return
        numeric_indices = np.array(
            [self.registry.index_of(d.device_id) for d in numeric], dtype=np.int64
        )
        is_numeric = np.zeros(len(self.registry), dtype=bool)
        is_numeric[numeric_indices] = True
        sel = is_numeric[trace.device_indices]
        if not sel.any():
            return
        dev = trace.device_indices[sel].astype(np.int64)
        win = window_of[sel]
        val = trace.values[sel]

        # Stable sort by (device, window); within a segment events keep the
        # trace's time order, so first/last per segment are genuine
        # window-start and window-end readings (Eq. 3.3).
        order = np.lexsort((win, dev))
        dev, win, val = dev[order], win[order], val[order]
        boundary = np.empty(len(dev), dtype=bool)
        boundary[0] = True
        boundary[1:] = (dev[1:] != dev[:-1]) | (win[1:] != win[:-1])
        seg_start = np.nonzero(boundary)[0]
        seg_dev = dev[seg_start]
        seg_win = win[seg_start]
        seg_end = np.append(seg_start[1:], len(dev)) - 1

        count = (seg_end - seg_start + 1).astype(np.float64)
        s1 = np.add.reduceat(val, seg_start)
        s2 = np.add.reduceat(val * val, seg_start)
        s3 = np.add.reduceat(val * val * val, seg_start)
        first = val[seg_start]
        last = val[seg_end]
        mean = s1 / count

        # Third central moment: E[(x-mu)^3] = (s3 - 3 mu s2 + 2 n mu^3) / n.
        # Its sign equals the sign of the skewness in Eq. 3.2 (sigma > 0).
        # mu^3 is spelled out as multiplies: numpy's vectorised pow can be
        # an ulp off libm's, and after the cancellation above that ulp is
        # enough to flip the bit relative to the streaming windower, which
        # must reproduce this computation exactly with scalar arithmetic.
        m3 = (s3 - 3.0 * mean * s2 + 2.0 * count * (mean * mean * mean)) / count
        variance = s2 / count - mean**2
        # Single-sample windows have no spread: skewness must read False by
        # construction, not by trusting s2/n - mu^2 to cancel to exactly 0.
        skew_bit = (m3 > 1e-12) & (variance > 1e-12) & (count > 1)
        trend_bit = last - first > 0
        thresholds = self._value_thresholds[seg_dev]
        mean_bit = mean > thresholds

        for device in numeric:
            dev_idx = self.registry.index_of(device.device_id)
            here = seg_dev == dev_idx
            if not here.any():
                continue
            wins = seg_win[here]
            skew_b, trend_b, mean_b = self.layout.bits_of_device(device.device_id)
            _set_bit(words, wins[skew_bit[here]], skew_b)
            _set_bit(words, wins[trend_bit[here]], trend_b)
            _set_bit(words, wins[mean_bit[here]], mean_b)

    def _actuator_activations(
        self, trace: Trace, n_windows: int
    ) -> List[FrozenSet[str]]:
        """Per window, the actuators activated in it.

        Each window gets one bit code over the actuators in registry order,
        and each distinct code maps to one interned frozenset, so the many
        windows without an activation share a single empty set.
        """
        actuators = [device.device_id for device in self.registry.actuators()]
        codes = [0] * n_windows
        if n_windows:
            for bit, device_id in enumerate(actuators):
                dev_idx = self.registry.index_of(device_id)
                mask = (trace.device_indices == dev_idx) & (trace.values > 0)
                if not mask.any():
                    continue
                wins = np.floor(
                    (trace.timestamps[mask] - trace.start) / self.window_seconds
                ).astype(np.int64)
                np.clip(wins, 0, n_windows - 1, out=wins)
                for w in np.unique(wins).tolist():
                    codes[w] |= 1 << bit
        # frozenset(set(...)) rather than frozenset(...): above four members
        # the two lay out their tables differently, and the transition
        # matrices insert actuators in the set's iteration order.
        interned = {
            code: frozenset(
                set(a for bit, a in enumerate(actuators) if code >> bit & 1)
            )
            for code in set(codes)
        }
        return [interned[code] for code in codes]


def _set_bit(words: np.ndarray, window_indices: np.ndarray, bit: int) -> None:
    """OR the given bit into the listed window rows."""
    if len(window_indices) == 0:
        return
    word, pos = divmod(bit, 64)
    np.bitwise_or.at(words[:, word], window_indices, np.uint64(1 << pos))


def _registry(n_binary, n_numeric, n_act, rng):
    devices = (
        [binary_sensor(f"b{i}", SensorType.MOTION, "hall") for i in range(n_binary)]
        + [
            numeric_sensor(f"n{i}", SensorType.TEMPERATURE, "hall")
            for i in range(n_numeric)
        ]
        + [actuator(f"a{i}", SensorType.BULB, "hall") for i in range(n_act)]
    )
    # Registry order is not layout order: binary bits come first whatever
    # the registry says.
    return DeviceRegistry([devices[k] for k in rng.permutation(len(devices))])


def _trace(registry, n_events, horizon, rng):
    """Off-grid, time-sorted events; values mix zero, negative, repeated
    and not-a-number readings."""
    values = rng.choice([0.0, 1.0, 1.0, -2.5, 21.5, 22.0, 22.5, np.nan], n_events)
    values[rng.random(n_events) < 0.3] = rng.normal(20.0, 3.0)
    return Trace(
        registry,
        np.sort(rng.uniform(0.0, horizon, n_events)),
        rng.integers(0, len(registry), n_events),
        values,
        start=0.0,
        end=horizon,
    )


def _iteration_order(activations: List[FrozenSet[str]]):
    return [list(acts) for acts in activations]


@settings(max_examples=150, deadline=None)
@example(  # the last numeric sensor's bits straddle 127
    n_binary=54, n_numeric=25, n_act=2, n_events=600, window=60.0,
    n_windows=10, seed=2,
)
@given(
    n_binary=st.integers(0, 70),
    n_numeric=st.integers(0, 25),
    n_act=st.integers(0, 9),
    n_events=st.integers(0, 600),
    window=st.sampled_from([60.0, 30.0, 45.5]),
    n_windows=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_encoder_matches_the_loops(
    n_binary, n_numeric, n_act, n_events, window, n_windows, seed
):
    rng = np.random.default_rng(seed)
    registry = _registry(n_binary, n_numeric, n_act, rng)
    if not len(registry):
        return
    trace = _trace(registry, n_events, n_windows * window, rng)
    fast = StateSetEncoder(registry, window).fit(trace)
    loop = LoopStateSetEncoder(registry, window).fit(trace)
    assert fast._value_thresholds.tobytes() == loop._value_thresholds.tobytes()

    fast_w = fast.encode(trace)
    loop_w = loop.encode(trace)
    assert fast_w.masks == loop_w.masks
    assert all(type(mask) is int for mask in fast_w.masks)
    assert fast_w.actuator_activations == loop_w.actuator_activations
    assert _iteration_order(fast_w.actuator_activations) == _iteration_order(
        loop_w.actuator_activations
    )
    # The packed rows hold the same bits as the masks.
    assert _words_to_masks(fast.encode_words(trace)) == loop_w.masks
