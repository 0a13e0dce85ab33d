"""The vectorised numeric renderer against the per-transition loop it
replaced.

``LoopSignalBuilder`` is the loop renderer kept verbatim as an oracle:
``levels`` walks the sorted level changes one at a time and
``_render_transition`` builds each transition's ramp, confirmations and
held reports with its own ``np.arange`` calls.  The production
:class:`~repro.smarthome.NumericSignalBuilder` renders a whole sensor in
one numpy pass and must emit the same samples, in the same order, from
the same random stream: ``tobytes()`` equality, not closeness.
"""

from typing import List, Tuple

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.smarthome import NumericProfile, NumericSignalBuilder
from repro.smarthome.effects import _arange_many


class LoopSignalBuilder(NumericSignalBuilder):
    """The loop renderer: one ``_render_transition`` call per breakpoint."""

    def levels(self, horizon: float) -> List[Tuple[float, float]]:
        base = self.profile.base
        changes: List[Tuple[float, float]] = []
        for start, end, delta in self._effects:
            if start >= horizon:
                continue
            changes.append((max(0.0, start), delta))
            changes.append((min(end, horizon), -delta))
        changes.sort(key=lambda c: c[0])
        breakpoints: List[Tuple[float, float]] = [(0.0, base)]
        level = base
        i = 0
        while i < len(changes):
            t = changes[i][0]
            while i < len(changes) and changes[i][0] == t:
                level += changes[i][1]
                i += 1
            if t == 0.0:
                breakpoints[0] = (0.0, level)
            elif level != breakpoints[-1][1]:
                breakpoints.append((t, level))
        return breakpoints

    def render(
        self, horizon: float, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        profile = self.profile
        breakpoints = self.levels(horizon)
        times: List[np.ndarray] = []
        values: List[np.ndarray] = []
        for idx in range(1, len(breakpoints)):
            t_change, new_level = breakpoints[idx]
            old_level = breakpoints[idx - 1][1]
            t_next = (
                breakpoints[idx + 1][0] if idx + 1 < len(breakpoints) else horizon
            )
            seg_t, seg_v = self._render_transition(
                t_change, old_level, new_level, t_next, horizon
            )
            times.append(seg_t)
            values.append(seg_v)
        if not times:
            return np.empty(0), np.empty(0)
        t = np.concatenate(times)
        v = np.concatenate(values)
        keep = t < horizon
        t, v = t[keep], v[keep]
        if profile.noise_sigma > 0 and len(v):
            v = v + rng.normal(0.0, profile.noise_sigma, size=len(v))
        v = np.round(v / profile.quantum) * profile.quantum
        order = np.argsort(t, kind="stable")
        return t[order], v[order]

    def _render_transition(
        self,
        t_change: float,
        old_level: float,
        new_level: float,
        t_next: float,
        horizon: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        profile = self.profile
        ramp_end = t_change + profile.ramp_seconds
        ramp_t = np.arange(t_change, min(ramp_end, t_next), profile.sample_interval)
        if profile.ramp_seconds > 0:
            frac = np.clip((ramp_t - t_change) / profile.ramp_seconds, 0.0, 1.0)
        else:
            frac = np.ones_like(ramp_t)
        ramp_v = old_level + (new_level - old_level) * frac**2

        hold_start = min(ramp_end, t_next)
        hold_t = hold_start + profile.sample_interval * np.arange(
            1, profile.hold_reports + 1
        )
        hold_t = hold_t[hold_t < t_next]
        hold_v = np.full(len(hold_t), new_level)

        segments_t = [ramp_t, hold_t]
        segments_v = [ramp_v, hold_v]
        if profile.held_interval > 0 and new_level != profile.base:
            held_from = hold_t[-1] if len(hold_t) else hold_start
            held_t = np.arange(
                held_from + profile.held_interval, t_next, profile.held_interval
            )
            segments_t.append(held_t)
            segments_v.append(np.full(len(held_t), new_level))
        return np.concatenate(segments_t), np.concatenate(segments_v)


# Durations mix the simulator's round values with arbitrary floats, so the
# renderer's arange arithmetic is exercised off the grid as well as on it.
_seconds = st.one_of(
    st.sampled_from([0.0, 10.0, 20.0, 30.0, 45.0, 60.0]),
    st.floats(0.0, 400.0, allow_subnormal=False),
)
_interval = st.one_of(
    st.sampled_from([1.0, 7.5, 10.0, 45.0, 1.0 / 3.0]),
    st.floats(0.05, 200.0),
)
_profiles = st.builds(
    NumericProfile,
    base=st.floats(-50.0, 200.0),
    quantum=st.sampled_from([0.05, 0.1, 0.5, 1.0, 2.0, 10.0, 0.3]),
    noise_sigma=st.sampled_from([0.0, 0.0, 0.05, 0.5, 2.0]),
    ramp_seconds=_seconds,
    sample_interval=_interval,
    hold_reports=st.integers(0, 4),
    held_interval=st.one_of(st.just(0.0), _interval),
    snap_seconds=st.one_of(
        st.sampled_from([0.0, 30.0, 60.0]), st.floats(1.0, 400.0)
    ),
)


def _build(cls, profile, n_effects, seed):
    """A builder with *n_effects* effects drawn from *seed*: starts and
    lengths on and off the minute grid, deltas round and arbitrary."""
    rng = np.random.default_rng(seed)
    builder = cls(profile)
    for _ in range(n_effects):
        on_grid = rng.random() < 0.5
        start = 60.0 * rng.integers(0, 340) if on_grid else rng.uniform(0, 20_000)
        length = 60.0 * rng.integers(0, 100) if on_grid else rng.uniform(0, 6_000)
        if rng.random() < 0.5:
            delta = float(rng.choice([-5.0, -1.0, 0.5, 1.0, 5.0, 10.0]))
        else:
            delta = rng.uniform(-30.0, 30.0)
        builder.add(float(start), float(start + length), delta)
    return builder


@settings(max_examples=200, deadline=None)
@given(
    profile=_profiles,
    n_effects=st.integers(0, 25),
    horizon=st.one_of(
        st.sampled_from([3600.0, 18_000.0, 86_400.0]),
        st.floats(1.0, 25_000.0),
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_render_is_byte_identical_to_the_loop(profile, n_effects, horizon, seed):
    fast = _build(NumericSignalBuilder, profile, n_effects, seed)
    loop = _build(LoopSignalBuilder, profile, n_effects, seed)
    assert fast.levels(horizon) == loop.levels(horizon)
    rng_fast = np.random.default_rng(seed)
    rng_loop = np.random.default_rng(seed)
    t_fast, v_fast = fast.render(horizon, rng_fast)
    t_loop, v_loop = loop.render(horizon, rng_loop)
    assert t_fast.dtype == t_loop.dtype and v_fast.dtype == v_loop.dtype
    assert t_fast.tobytes() == t_loop.tobytes()
    assert v_fast.tobytes() == v_loop.tobytes()
    # Both consumed the same draws: the next sensor sees the same stream.
    assert rng_fast.bit_generator.state == rng_loop.bit_generator.state


def _magnitudes(low: float):
    """Floats from *low* up to 1e7 across many magnitudes: arange's float
    arithmetic, not the simulator's round numbers, is what the helper must
    reproduce."""
    return st.builds(
        lambda mantissa, exponent: mantissa * 10.0**exponent,
        st.floats(low, 1e3),
        st.integers(-6, 4),
    )


@settings(max_examples=100, deadline=None)
@given(
    # Starts are sample times, never negative; stops may lie anywhere.
    bounds=st.lists(st.tuples(_magnitudes(0.0), _magnitudes(-1e3)), max_size=12),
    step=st.one_of(
        _interval, st.floats(1e-3, 1e6), st.sampled_from([0.1, 1.0 / 7.0])
    ),
)
def test_arange_many_is_arange_per_row(bounds, step):
    start = np.array([b[0] for b in bounds], dtype=np.float64)
    stop = np.array([b[1] for b in bounds], dtype=np.float64)
    assume(not len(bounds) or np.ceil((stop - start) / step).max() < 50_000)
    owner, samples = _arange_many(start, stop, step)
    rows = [np.arange(a, b, step) for a, b in bounds]
    assert samples.tobytes() == np.concatenate([np.empty(0)] + rows).tobytes()
    assert owner.tolist() == [k for k, row in enumerate(rows) for _ in row]


def test_levels_keep_their_list_of_tuples_type():
    builder = NumericSignalBuilder(
        NumericProfile(base=20.0, quantum=1.0, noise_sigma=0.0)
    )
    builder.add(120.0, 300.0, 5.0)
    levels = builder.levels(600.0)
    assert levels == [(0.0, 20.0), (120.0, 25.0), (300.0, 20.0)]
    assert all(
        type(t) is float and type(level) is float for t, level in levels
    )
