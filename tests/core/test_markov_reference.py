"""The Markov comparator's array-pass fit against the window loop it
replaced.

``loop_fit`` is the former ``MarkovBackend.fit``, kept verbatim as an
oracle: it encodes the training trace and walks every window and, through
``_window_states``, every device, one ``observe`` per device and window.
The production fit derives each device's states from the packed words
and counts (previous, current) pairs with ``np.unique``; its chains must
hold the same Python-int states and counts in the same dict order, so the
context hash and every check are unchanged.
"""

from typing import Dict, Optional

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backend import MarkovBackend
from repro.core.encoding import StateSetEncoder
from repro.core.transitions import TransitionMatrix
from repro.model import Trace

from tests.core.test_encode_reference import _registry, _trace


def loop_fit(self: MarkovBackend, trace: Trace) -> MarkovBackend:
    encoder = StateSetEncoder(self.registry, self.config.window_seconds)
    encoder.fit(trace)
    self._encoder = encoder
    self._sensor_ids = tuple(
        sorted(
            d.device_id
            for d in self.registry
            if not d.is_actuator
        )
    )
    self._actuator_ids = tuple(
        sorted(d.device_id for d in self.registry if d.is_actuator)
    )
    self._device_order = self._sensor_ids + self._actuator_ids
    chains = {device: TransitionMatrix() for device in self._device_order}
    prev: Optional[Dict[str, int]] = None
    windowed = encoder.encode(trace)
    for mask, acts in windowed:
        states = self._window_states(mask, acts)
        if prev is not None:
            for device, cur in states.items():
                chains[device].observe(prev[device], cur)
        prev = states
    self._chains = chains
    self._training_windows = len(windowed)
    self._prev_states = {}
    return self


def _typed(matrix: TransitionMatrix):
    return [
        (type(row).__name__, row, [(type(c).__name__, c, n) for c, n in cols.items()])
        for row, cols in matrix._counts.items()
    ], list(matrix._row_totals.items())


@settings(max_examples=100, deadline=None)
@given(
    n_binary=st.integers(0, 70),
    n_numeric=st.integers(0, 12),
    n_act=st.integers(0, 9),
    n_events=st.integers(0, 800),
    n_windows=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_matches_the_window_loop(
    n_binary, n_numeric, n_act, n_events, n_windows, seed
):
    rng = np.random.default_rng(seed)
    registry = _registry(n_binary, n_numeric, n_act, rng)
    if not len(registry):
        return
    trace = _trace(registry, n_events, n_windows * 60.0, rng)
    fast = MarkovBackend(registry).fit(trace)
    loop = loop_fit(MarkovBackend(registry), trace)
    assert fast._device_order == loop._device_order
    assert list(fast._chains) == list(loop._chains)
    for device in loop._device_order:
        assert _typed(fast._chains[device]) == _typed(loop._chains[device])
    assert fast._training_windows == loop._training_windows
    assert fast.context_hash() == loop.context_hash()
