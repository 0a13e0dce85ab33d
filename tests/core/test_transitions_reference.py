"""Transition extraction against the per-window actuator loop it replaced.

``loop_extract`` is the former ``TransitionModel.extract``, kept verbatim
as an oracle: G2G counted with ``np.unique`` over int64 keys, then one
``observe`` per window and actuator for G2A and A2G.  The production code
counts every matrix's distinct pairs in array passes (over the smallest
key type that holds them) and must give the same Python-int group ids,
counts and dict insertion order, for group counts past one and two bytes
and for activation sets that are equal but not the same object.
"""

from typing import FrozenSet, Sequence

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TransitionModel
from tests.core.test_fit_reference import _matrices


def loop_extract(
    group_sequence: Sequence[int],
    actuator_activations: Sequence[FrozenSet[str]],
) -> TransitionModel:
    if len(group_sequence) != len(actuator_activations):
        raise ValueError("group sequence and activations must align")
    model = TransitionModel()
    ids = np.asarray(group_sequence, dtype=np.int64)
    if len(ids) > 1:
        # Count each (previous, current) pair once, then insert pairs in
        # order of first appearance: rows and columns land in the same
        # dict order as one observe() per window, so successors() and
        # everything that iterates it are unchanged.
        span = int(ids.max()) + 1
        pairs, first, counts = np.unique(
            ids[:-1] * span + ids[1:], return_index=True, return_counts=True
        )
        order = np.argsort(first)
        rows, cols = np.divmod(pairs[order], span)
        for row, col, count in zip(
            rows.tolist(), cols.tolist(), counts[order].tolist()
        ):
            model.g2g.observe(row, col, count)
    sequence = ids.tolist()
    last = len(sequence) - 1
    for i, acts in enumerate(actuator_activations):
        if not acts:
            continue
        for act in acts:
            if i > 0:
                model.g2a.observe(sequence[i - 1], act)
            if i < last:
                model.a2g.observe(act, sequence[i + 1])
    return model


_ACTUATORS = [f"act_{i}" for i in range(12)]


@settings(max_examples=150, deadline=None)
@given(
    n_windows=st.integers(0, 400),
    n_groups=st.sampled_from([1, 3, 17, 300, 70_000]),
    active=st.sampled_from([0.0, 0.05, 0.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_extract_matches_the_replaced_code(n_windows, n_groups, active, seed):
    rng = np.random.default_rng(seed)
    sequence = rng.integers(0, n_groups, n_windows).tolist()
    # Each window builds its own set, in a shuffled insertion order, so
    # equal sets are distinct objects and may iterate differently.
    activations = []
    for _ in sequence:
        k = int(rng.integers(1, 10)) if rng.random() < active else 0
        activations.append(
            frozenset(set(rng.choice(_ACTUATORS, k, replace=False).tolist()))
        )
    fast = TransitionModel.extract(sequence, activations)
    loop = loop_extract(sequence, activations)
    assert _matrices(fast) == _matrices(loop)
