"""Sensor-state-set construction (§3.2.1, Eqs. 3.1-3.4).

Raw sensor data is cut into fixed-duration windows (default one minute) and
each window is summarised as a *sensor state set* — a bit vector over the
deployment's sensors:

* a **binary** sensor contributes one bit: 1 iff it activated at least once
  in the window (Eq. 3.1, a bitwise OR over its readings);
* a **numeric** sensor contributes three bits: sample skewness positive
  (Eq. 3.2), rising trend across the window (Eq. 3.3), and window mean above
  the sensor's training-period mean ``valueThre`` (Eq. 3.4).

Actuators do not appear in the state set; their activations are tracked per
window separately to feed the G2A/A2G transition matrices.

The encoder is fully vectorised: a device-to-bit table lookup sets every
binary bit in one pass, and one stable sort by device followed by
segmented reductions produces every numeric bit, for a multi-million
event trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..model import DeviceRegistry, Trace
from .bitset import words_needed

#: Roles of the three numeric-sensor bits, in layout order.
NUMERIC_ROLES = ("skew", "trend", "mean")
BINARY_ROLE = "active"


@dataclass(frozen=True)
class BitSpec:
    """One bit of the state set: which device and which derived feature."""

    bit: int
    device_id: str
    role: str


class BitLayout:
    """Mapping between sensors and state-set bit positions.

    Binary sensors are laid out first (one bit each, registry order), then
    numeric sensors (three consecutive bits each: skew, trend, mean).
    """

    def __init__(self, registry: DeviceRegistry) -> None:
        self.registry = registry
        self._specs: List[BitSpec] = []
        self._device_bits: Dict[str, Tuple[int, ...]] = {}
        bit = 0
        for device in registry.binary_sensors():
            self._specs.append(BitSpec(bit, device.device_id, BINARY_ROLE))
            self._device_bits[device.device_id] = (bit,)
            bit += 1
        for device in registry.numeric_sensors():
            bits = []
            for role in NUMERIC_ROLES:
                self._specs.append(BitSpec(bit, device.device_id, role))
                bits.append(bit)
                bit += 1
            self._device_bits[device.device_id] = tuple(bits)
        self.num_bits = bit
        self.num_words = words_needed(self.num_bits)

    def __len__(self) -> int:
        return self.num_bits

    @property
    def specs(self) -> List[BitSpec]:
        return list(self._specs)

    def spec(self, bit: int) -> BitSpec:
        return self._specs[bit]

    def device_of_bit(self, bit: int) -> str:
        """The sensor a bit belongs to — the identification step's map from
        differing bits back to probable faulty devices (§3.4)."""
        return self._specs[bit].device_id

    def bits_of_device(self, device_id: str) -> Tuple[int, ...]:
        return self._device_bits[device_id]

    def devices_of_mask(self, mask: int) -> List[str]:
        """Distinct sensors owning the set bits of *mask*, layout order."""
        seen: Dict[str, None] = {}
        bit = 0
        while mask:
            if mask & 1:
                seen.setdefault(self._specs[bit].device_id, None)
            mask >>= 1
            bit += 1
        return list(seen)

    @property
    def has_numeric(self) -> bool:
        return any(len(bits) > 1 for bits in self._device_bits.values())

    def describe(self, mask: int) -> str:
        """Human-readable rendering of a state set, for reports/debugging."""
        parts = []
        for spec in self._specs:
            if mask >> spec.bit & 1:
                suffix = "" if spec.role == BINARY_ROLE else f".{spec.role}"
                parts.append(f"{spec.device_id}{suffix}")
        return "{" + ", ".join(parts) + "}"


class WindowedTrace:
    """The per-window view DICE consumes: one state-set mask per window plus
    the set of actuators activated in that window."""

    def __init__(
        self,
        layout: BitLayout,
        window_seconds: float,
        start: float,
        masks: Sequence[int],
        actuator_activations: Sequence[FrozenSet[str]],
    ) -> None:
        if len(masks) != len(actuator_activations):
            raise ValueError("masks and actuator activations must align")
        self.layout = layout
        self.window_seconds = float(window_seconds)
        self.start = float(start)
        self.masks = list(masks)
        self.actuator_activations = list(actuator_activations)
        #: Per window, the mean reading of each numeric sensor that
        #: reported in it; only a backend that reads them fills this in.
        self.means: Optional[List[Dict[str, float]]] = None

    def __len__(self) -> int:
        return len(self.masks)

    def window_start(self, index: int) -> float:
        return self.start + index * self.window_seconds

    def __iter__(self) -> Iterator[Tuple[int, FrozenSet[str]]]:
        return iter(zip(self.masks, self.actuator_activations))


class StateSetEncoder:
    """Turns traces into :class:`WindowedTrace`.

    ``fit`` learns each numeric sensor's ``valueThre`` (its mean value over
    the precomputation data, §3.2.1); ``encode`` applies Eqs. 3.1-3.4 per
    window.
    """

    def __init__(self, registry: DeviceRegistry, window_seconds: float = 60.0) -> None:
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        self.registry = registry
        self.layout = BitLayout(registry)
        self.window_seconds = float(window_seconds)
        self._value_thresholds: Optional[np.ndarray] = None  # per device index

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #

    @property
    def is_fitted(self) -> bool:
        return self._value_thresholds is not None

    def fit(self, trace: Trace) -> "StateSetEncoder":
        """Learn per-numeric-sensor ``valueThre`` from fault-free data."""
        if trace.registry is not self.registry:
            raise ValueError("trace registry differs from encoder registry")
        n = len(self.registry)
        # bincount adds each event's value in trace order, as a per-event
        # loop would, so the sums are the same doubles.
        sums = np.bincount(trace.device_indices, trace.values, minlength=n)
        counts = np.bincount(trace.device_indices, minlength=n)
        thresholds = np.zeros(n, dtype=np.float64)
        nonzero = counts > 0
        thresholds[nonzero] = sums[nonzero] / counts[nonzero]
        self._value_thresholds = thresholds
        return self

    def value_threshold(self, device_id: str) -> float:
        """The learned ``valueThre`` for one sensor."""
        self._require_fitted()
        return float(self._value_thresholds[self.registry.index_of(device_id)])

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise RuntimeError("encoder not fitted; call fit() on training data")

    # ------------------------------------------------------------------ #
    # Encoding
    # ------------------------------------------------------------------ #

    def num_windows(self, trace: Trace) -> int:
        span = trace.duration
        return max(0, int(np.ceil(span / self.window_seconds - 1e-9)))

    def encode(self, trace: Trace) -> WindowedTrace:
        """Encode every window of *trace* (windows are ``[t, t+d)``)."""
        words = self.encode_words(trace)
        masks = _words_to_masks(words)
        activations = self._actuator_activations(trace, len(words))
        return WindowedTrace(
            self.layout, self.window_seconds, trace.start, masks, activations
        )

    def encode_words(self, trace: Trace) -> np.ndarray:
        """Every window's state set as a row of ``uint64`` words (bit *b*
        in word ``b // 64``): :meth:`encode`'s masks before they become
        Python ints."""
        self._require_fitted()
        if trace.registry is not self.registry:
            raise ValueError("trace registry differs from encoder registry")
        n_windows = self.num_windows(trace)
        words = np.zeros((n_windows, self.layout.num_words), dtype=np.uint64)
        if n_windows and len(trace):
            window_of = np.floor(
                (trace.timestamps - trace.start) / self.window_seconds
            ).astype(np.int64)
            np.clip(window_of, 0, n_windows - 1, out=window_of)
            self._encode_binary(trace, window_of, words)
            self._encode_numeric(trace, window_of, words)
        return words

    # -- binary sensors -------------------------------------------------- #

    def _encode_binary(
        self, trace: Trace, window_of: np.ndarray, words: np.ndarray
    ) -> None:
        bit_of = _lookup_table(
            len(self.registry),
            (
                (self.registry.index_of(d.device_id), self.layout.bits_of_device(d.device_id)[0])
                for d in self.registry.binary_sensors()
            ),
        )
        bits = bit_of[trace.device_indices]
        on = (bits >= 0) & (trace.values > 0)
        _set_bits(words, window_of[on], bits[on])

    # -- numeric sensors -------------------------------------------------- #

    def _encode_numeric(
        self, trace: Trace, window_of: np.ndarray, words: np.ndarray
    ) -> None:
        numeric = self.registry.numeric_sensors()
        if not numeric:
            return
        # Each numeric sensor's first bit (skew); trend and mean follow it.
        first_bit = _lookup_table(
            len(self.registry),
            (
                (self.registry.index_of(d.device_id), self.layout.bits_of_device(d.device_id)[0])
                for d in numeric
            ),
        )
        sel = first_bit[trace.device_indices] >= 0
        if not sel.any():
            return
        dev = trace.device_indices[sel]
        win = window_of[sel]
        val = trace.values[sel]

        # Stable sort by device: the trace is time-sorted, so windows never
        # decrease within a device and each (device, window) segment keeps
        # the trace's time order; first/last per segment are genuine
        # window-start and window-end readings (Eq. 3.3).  Device indices
        # fit a small unsigned type, whose stable sort is a radix sort.
        order = np.argsort(
            dev.astype(np.min_scalar_type(len(self.registry))), kind="stable"
        )
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
        squares = val * val
        s2 = np.add.reduceat(squares, seg_start)
        s3 = np.add.reduceat(squares * val, seg_start)
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

        base = first_bit[seg_dev].astype(np.int64)  # base + 2 may not fit
        _set_bits(
            words,
            np.concatenate(
                (seg_win[skew_bit], seg_win[trend_bit], seg_win[mean_bit])
            ),
            np.concatenate(
                (base[skew_bit], base[trend_bit] + 1, base[mean_bit] + 2)
            ),
        )

    # -- actuators -------------------------------------------------------- #

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
        if n_windows and actuators:
            bit_of = _lookup_table(
                len(self.registry),
                ((self.registry.index_of(a), bit) for bit, a in enumerate(actuators)),
            )
            bits = bit_of[trace.device_indices]
            on = (bits >= 0) & (trace.values > 0)
            wins = np.floor(
                (trace.timestamps[on] - trace.start) / self.window_seconds
            ).astype(np.int64)
            np.clip(wins, 0, n_windows - 1, out=wins)
            # One Python step per distinct (window, actuator) pair.
            pairs = np.unique(wins * len(actuators) + bits[on])
            pair_windows, pair_bits = np.divmod(pairs, len(actuators))
            for w, bit in zip(pair_windows.tolist(), pair_bits.tolist()):
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
        return list(map(interned.__getitem__, codes))


def _lookup_table(size: int, entries: Iterable[Tuple[int, int]]) -> np.ndarray:
    """A table over device indices holding each ``(index, value)`` entry
    and -1 elsewhere, in the smallest signed type that fits: a lookup
    through it costs one or two bytes per event."""
    entries = list(entries)
    top = max((value for _index, value in entries), default=0)
    table = np.full(size, -1, dtype=np.min_scalar_type(-top - 1))
    for index, value in entries:
        table[index] = value
    return table


def _set_bits(words: np.ndarray, windows: np.ndarray, bits: np.ndarray) -> None:
    """OR bit ``bits[k]`` into window row ``windows[k]``, for every *k*,
    in one pass over the (C-contiguous) rows viewed as one flat array.
    *windows* is a fresh array the caller hands over: it becomes the flat
    index in place."""
    windows *= words.shape[1]
    windows += bits >> 6
    np.bitwise_or.at(
        words.reshape(-1),
        windows,
        np.left_shift(np.uint64(1), (bits & 63).astype(np.uint8)),
    )


def _words_to_masks(words: np.ndarray) -> List[int]:
    """Convert packed rows back into Python int bitmasks, one word column
    at a time."""
    masks = words[:, 0].tolist()
    for w in range(1, words.shape[1]):
        shift = 64 * w
        masks = [
            mask | word << shift if word else mask
            for mask, word in zip(masks, words[:, w].tolist())
        ]
    return masks
