"""Transition extraction (§3.2.2, Fig. 3.4).

DICE learns three Markov-chain transition matrices over the training
windows:

* **G2G** — group at window *i-1* → group at window *i*;
* **G2A** — group at window *i-1* → actuator activated in window *i*;
* **A2G** — actuator activated in window *i-1* → group at window *i*.

Actuator-to-actuator transitions are deliberately not modelled: actuators
influence sensor readings, so the three matrices above subsume A2A (the
paper skips it to save computation).  Matrices are sparse dict-of-dicts;
a *zero* probability for an observed row is a transition violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Generic, Hashable, List, Sequence, TypeVar

import numpy as np

Row = TypeVar("Row", bound=Hashable)
Col = TypeVar("Col", bound=Hashable)


class TransitionMatrix(Generic[Row, Col]):
    """Sparse transition-count matrix with row-normalised probabilities."""

    def __init__(self) -> None:
        self._counts: Dict[Row, Dict[Col, int]] = {}
        self._row_totals: Dict[Row, int] = {}

    def observe(self, row: Row, col: Col, weight: int = 1) -> None:
        if weight < 1:
            raise ValueError("weight must be positive")
        cols = self._counts.setdefault(row, {})
        cols[col] = cols.get(col, 0) + weight
        self._row_totals[row] = self._row_totals.get(row, 0) + weight

    def copy(self) -> "TransitionMatrix[Row, Col]":
        """Independent copy (rows/cols are immutable keys; counts are ints)."""
        twin: "TransitionMatrix[Row, Col]" = TransitionMatrix()
        twin._counts = {row: dict(cols) for row, cols in self._counts.items()}
        twin._row_totals = dict(self._row_totals)
        return twin

    def count(self, row: Row, col: Col) -> int:
        return self._counts.get(row, {}).get(col, 0)

    def row_total(self, row: Row) -> int:
        return self._row_totals.get(row, 0)

    def probability(self, row: Row, col: Col) -> float:
        """P(col | row); 0.0 when the pair was never observed.

        A row that was itself never observed also yields 0.0 — callers that
        must distinguish "unknown row" from "known row, unseen column"
        should check :meth:`row_total` first (the transition check does).
        """
        total = self._row_totals.get(row, 0)
        if total == 0:
            return 0.0
        return self._counts[row].get(col, 0) / total

    def successors(self, row: Row) -> Dict[Col, float]:
        """All observed next-states of *row* with their probabilities."""
        total = self._row_totals.get(row, 0)
        if total == 0:
            return {}
        return {col: c / total for col, c in self._counts[row].items()}

    @property
    def rows(self) -> List[Row]:
        return list(self._counts)

    @property
    def num_observations(self) -> int:
        return sum(self._row_totals.values())

    def __len__(self) -> int:
        """Number of distinct (row, col) pairs with support."""
        return sum(len(cols) for cols in self._counts.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TransitionMatrix({len(self._counts)} rows, {len(self)} entries, "
            f"{self.num_observations} observations)"
        )


@dataclass
class TransitionModel:
    """The three matrices of §3.2.2 plus bookkeeping for violation checks."""

    g2g: TransitionMatrix = field(default_factory=TransitionMatrix)
    g2a: TransitionMatrix = field(default_factory=TransitionMatrix)
    a2g: TransitionMatrix = field(default_factory=TransitionMatrix)

    @classmethod
    def extract(
        cls,
        group_sequence: Sequence[int],
        actuator_activations: Sequence[FrozenSet[str]],
    ) -> "TransitionModel":
        """Learn the matrices from one training pass.

        ``group_sequence[i]`` is the (non-negative) group id of window
        *i*; ``actuator_activations[i]`` names the actuators activated in
        window *i*.
        """
        if len(group_sequence) != len(actuator_activations):
            raise ValueError("group sequence and activations must align")
        model = cls()
        ids = np.asarray(group_sequence, dtype=np.int64)
        if len(ids) < 2:
            return model
        # Each matrix counts each distinct (previous, current) pair once and
        # inserts the pairs in order of first appearance: rows and columns
        # land in the same dict order as one observe() per window and
        # actuator, so successors() and everything that iterates it are
        # unchanged.
        span = int(ids.max()) + 1
        for row, col, count in _pairs_in_order(ids[:-1], ids[1:], span):
            model.g2g.observe(row, col, count)
        # One (window, actuator) observation per activation, in window
        # order and, within a window, in its set's iteration order.
        sizes = np.fromiter(
            map(len, actuator_activations), dtype=np.int64, count=len(ids)
        )
        windows = np.repeat(np.arange(len(ids)), sizes)
        if not len(windows):
            return model
        names: Dict[str, int] = {}
        codes = np.fromiter(
            (
                names.setdefault(act, len(names))
                for i in np.flatnonzero(sizes).tolist()
                for act in actuator_activations[i]
            ),
            dtype=np.int64,
            count=len(windows),
        )
        acts = list(names)
        later = windows > 0
        for row, col, count in _pairs_in_order(
            ids[windows[later] - 1], codes[later], len(acts)
        ):
            model.g2a.observe(row, acts[col], count)
        earlier = windows < len(ids) - 1
        for row, col, count in _pairs_in_order(
            codes[earlier], ids[windows[earlier] + 1], span
        ):
            model.a2g.observe(acts[row], col, count)
        return model

    def copy(self) -> "TransitionModel":
        """Independent copy of all three matrices (copy-on-write forks)."""
        return TransitionModel(self.g2g.copy(), self.g2a.copy(), self.a2g.copy())

    def edge_stats(self, matrix: str, row, col) -> dict:
        """Probability terms of one edge, for alert provenance.

        *matrix* names one of ``g2g``/``g2a``/``a2g``.  The returned dict
        is JSON-serializable and deterministic: integer counts plus the
        row-normalised probability — exactly the numbers the transition
        check gated on when it flagged (or passed) the edge.
        """
        if matrix not in ("g2g", "g2a", "a2g"):
            raise ValueError(f"unknown transition matrix {matrix!r}")
        m: TransitionMatrix = getattr(self, matrix)
        return {
            "count": m.count(row, col),
            "row_total": m.row_total(row),
            "probability": m.probability(row, col),
        }

    def merge(self, other: "TransitionModel") -> None:
        """Fold another model's observations into this one (used when
        precomputation data arrives in several chunks)."""
        for src, dst in (
            (other.g2g, self.g2g),
            (other.g2a, self.g2a),
            (other.a2g, self.a2g),
        ):
            for row in src.rows:
                for col, count in src._counts[row].items():
                    dst.observe(row, col, count)


def _pairs_in_order(rows: np.ndarray, cols: np.ndarray, span: int):
    """The distinct ``(row, col)`` pairs of two aligned code arrays, with
    their counts, in order of first appearance (*cols* are below *span*)."""
    keys = rows * span + cols
    # The smallest unsigned type that holds the keys: np.unique's stable
    # sort of 8- and 16-bit integers is a radix sort.
    keys = keys.astype(np.min_scalar_type(int(keys.max()) if len(keys) else 0))
    keys, first, counts = np.unique(keys, return_index=True, return_counts=True)
    order = np.argsort(first)
    pair_rows, pair_cols = np.divmod(keys[order].astype(np.int64), span)
    return zip(pair_rows.tolist(), pair_cols.tolist(), counts[order].tolist())
