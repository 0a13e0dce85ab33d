"""Signal synthesis: effect intervals → sensor readings.

Activities, occupancy, daylight and actuators all influence sensors through
the same abstraction — an :class:`EffectInterval` that shifts a numeric
sensor's level by a delta over a time span, or a :class:`BinaryTrigger` that
fires a binary sensor while a span is active.  The builders below turn a
bag of intervals into the actual event stream a real deployment would emit:
ramps while the physical quantity moves, confirmations on settling, silence
(or a slow held-report cadence) on a plateau.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .profiles import NumericProfile


@dataclass(frozen=True)
class EffectInterval:
    """An additive shift of one numeric sensor's level during ``[start, end)``."""

    device_id: str
    start: float
    end: float
    delta: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError("effect must not end before it starts")


@dataclass(frozen=True)
class BinaryTrigger:
    """Firing pattern of one binary sensor during an active span.

    ``pattern`` is one of:

    * ``"continuous"`` — events every ``period`` seconds for the whole span
      (motion sensors, pressure mats);
    * ``"start"`` — a single event when the span begins (a door opening);
    * ``"end"`` — a single event when the span ends (a flush, a door
      closing);
    * ``"random"`` — per ``period`` slot, an event with ``probability``
      (restless-sleep motion, occasional cupboard use).
    """

    device_id: str
    pattern: str = "continuous"
    period: float = 25.0
    probability: float = 1.0

    _PATTERNS = ("continuous", "start", "end", "random")

    def __post_init__(self) -> None:
        if self.pattern not in self._PATTERNS:
            raise ValueError(f"unknown pattern {self.pattern!r}")
        if self.period <= 0:
            raise ValueError("period must be positive")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")


def binary_events(
    trigger: BinaryTrigger,
    start: float,
    end: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Timestamps at which *trigger* fires over the active span."""
    if end <= start and trigger.pattern not in ("start", "end"):
        return np.empty(0)
    if trigger.pattern == "start":
        return np.array([start])
    if trigger.pattern == "end":
        return np.array([end])
    times = np.arange(start, end, trigger.period)
    if trigger.pattern == "random":
        times = times[rng.random(len(times)) < trigger.probability]
    return times


class NumericSignalBuilder:
    """Accumulates effect intervals for one sensor and renders readings."""

    def __init__(self, profile: NumericProfile) -> None:
        self.profile = profile
        self._effects: List[Tuple[float, float, float]] = []

    def add(self, start: float, end: float, delta: float) -> None:
        self.add_many([start], [end], [delta])

    def add_many(self, starts, ends, deltas) -> None:
        """:meth:`add` for every ``(starts[k], ends[k], deltas[k])``, in
        order, in array passes."""
        starts = np.asarray(starts, dtype=np.float64)
        ends = np.asarray(ends, dtype=np.float64)
        deltas = np.asarray(deltas, dtype=np.float64)
        if (ends < starts).any():
            raise ValueError("effect must not end before it starts")
        snap = self.profile.snap_seconds
        if snap > 0:
            # np.round rounds half to even, as round() does; adding 0.0
            # turns a rounded -0.0 into the 0 that round() returns.
            starts = np.round(starts / snap) * snap + 0.0
            ends = np.round(ends / snap) * snap + 0.0
            ends = np.where(ends == starts, starts + snap, ends)
        keep = (ends > starts) & (deltas != 0.0)
        self._effects.extend(
            zip(starts[keep].tolist(), ends[keep].tolist(), deltas[keep].tolist())
        )

    # ------------------------------------------------------------------ #

    def levels(self, horizon: float) -> List[Tuple[float, float]]:
        """Piecewise-constant target level as ``(time, level)`` breakpoints.

        The first breakpoint is ``(0, base)``; levels are the base plus the
        sum of all active effect deltas.
        """
        times, levels = self._breakpoints(horizon)
        return list(zip(times.tolist(), levels.tolist()))

    def _breakpoints(self, horizon: float) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`levels` as two arrays."""
        base = self.profile.base
        effects = np.array(self._effects, dtype=np.float64).reshape(-1, 3)
        effects = effects[effects[:, 0] < horizon]
        # Each effect steps the level by +delta at its start and -delta at
        # its end; changes at equal times apply together, in add order.
        times = np.clip(effects[:, :2], 0.0, horizon).ravel()
        deltas = np.outer(effects[:, 2], [1.0, -1.0]).ravel()
        order = np.argsort(times, kind="stable")
        times = times[order]
        level = np.cumsum(np.concatenate(([base], deltas[order])))[1:]
        last = np.ones(len(times), dtype=bool)
        last[:-1] = times[1:] != times[:-1]
        times, level = times[last], level[last]
        start = base
        if len(times) and times[0] == 0.0:
            start, times, level = level[0], times[1:], level[1:]
        keep = level != np.concatenate(([start], level[:-1]))
        return (
            np.concatenate(([0.0], times[keep])),
            np.concatenate(([start], level[keep])),
        )

    def render(
        self, horizon: float, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Emit ``(timestamps, readings)`` for the sensor over ``[0, horizon)``.

        Readings follow the profile: a ramp of ``sample_interval``-spaced
        samples whenever the target level changes, ``hold_reports``
        confirmations after settling, periodic held reports while away from
        base (if the profile asks for them), silence otherwise.

        All transitions render in one numpy pass.  Samples are emitted
        transition by transition (ramp, confirmations, held reports), and
        that order fixes which noise draw each sample gets and how the
        final stable sort breaks ties.
        """
        profile = self.profile
        if not self._effects:
            return np.empty(0), np.empty(0)
        times, levels = self._breakpoints(horizon)
        if len(times) < 2:
            return np.empty(0), np.empty(0)
        t_change, old, new = times[1:], levels[:-1], levels[1:]
        t_next = np.append(times[2:], horizon)
        step = profile.sample_interval
        settle = np.minimum(t_change + profile.ramp_seconds, t_next)

        ramp_of, ramp_t = _arange_many(t_change, settle, step)
        if profile.ramp_seconds > 0:
            frac = np.clip(
                (ramp_t - t_change[ramp_of]) / profile.ramp_seconds, 0.0, 1.0
            )
        else:
            frac = np.ones_like(ramp_t)
        # Quadratic approach: physical quantities accelerate towards the new
        # level, which also gives ramp windows a deterministic skewness sign
        # (Eq. 3.2) instead of a noise-driven coin flip.
        ramp_v = old[ramp_of] + (new[ramp_of] - old[ramp_of]) * frac**2

        confirm = settle[:, None] + step * np.arange(1, profile.hold_reports + 1)
        kept = confirm < t_next[:, None]
        hold_of = np.nonzero(kept)[0]
        hold_t = confirm[kept]

        held_of, held_t = np.empty(0, dtype=np.int64), np.empty(0)
        if profile.held_interval > 0:
            # Held reports follow the last confirmation (or the settle
            # point), while the level is away from base.
            away = np.nonzero(new != profile.base)[0]
            held_from = settle[away] + step * kept[away].sum(axis=1)
            held_of, held_t = _arange_many(
                held_from + profile.held_interval,
                t_next[away],
                profile.held_interval,
            )
            held_of = away[held_of]

        owner = np.concatenate((ramp_of, hold_of, held_of))
        emitted = np.argsort(owner, kind="stable")
        t = np.concatenate((ramp_t, hold_t, held_t))[emitted]
        v = np.concatenate((ramp_v, new[hold_of], new[held_of]))[emitted]
        keep = t < horizon
        if not keep.all():
            t, v = t[keep], v[keep]
        if profile.noise_sigma > 0 and len(v):
            v = v + rng.normal(0.0, profile.noise_sigma, size=len(v))
        v = np.round(v / profile.quantum) * profile.quantum
        # Transitions emit in time order, so the samples are almost always
        # sorted already, and a stable sort would leave them as they are.
        if np.all(t[1:] >= t[:-1]):
            return t, v
        order = np.argsort(t, kind="stable")
        return t[order], v[order]


def _arange_many(
    start: np.ndarray, stop: np.ndarray, step: float
) -> Tuple[np.ndarray, np.ndarray]:
    """``np.arange(start[k], stop[k], step)`` for every *k*, concatenated,
    with the *k* each sample came from.

    The arithmetic is arange's own: ``ceil((stop - start) / step)``
    samples (one if a positive span underflows the division) valued
    ``start + i * ((start + step) - start)``."""
    span = stop - start
    counts = np.ceil(span / step)
    counts[(counts == 0) & (span > 0)] = 1
    counts = np.maximum(counts, 0).astype(np.int64)
    owner = np.repeat(np.arange(len(counts)), counts)
    i = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    first = start[owner]
    return owner, first + i * ((first + step) - first)
