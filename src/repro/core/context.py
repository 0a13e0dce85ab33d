"""Content-addressed shared detector contexts (the fleet capacity layer).

A fitted detector's trained state — the group registry with its packed
context bitsets, the three transition matrices, the encoder thresholds
and the device weights — is *identical* across homes that fit the same
floor plan / dataset / config, which is the common case in a large fleet
(``build_fleet_homes`` stamps out a handful of archetypes).  Replicating
that state per home is what makes a million-home fleet not fit in memory.

This module makes the trained state **content-addressed**:

* :func:`context_hash` — a blake2b digest over a canonical serialization
  of everything the real-time phase reads from a fitted model.  Two
  detectors hash equal iff their detection behaviour is identical.
* :class:`SharedContextStore` — interns fitted detectors by hash: the
  first detector with a given hash donates its model and checkers as the
  canonical :class:`SharedContext` (its registry is frozen); later
  detectors with the same hash drop their private copies and point at
  the shared one, including the correlation memo, which is keyed only on
  (mask, group set, config) and is therefore home-independent.
* **Copy-on-write** — sharing is broken the moment a home mutates: the
  first :class:`~repro.streaming.refresh.ContextRefresher` apply calls
  :meth:`DiceDetector.fork_context`, which copies the registry and
  matrices onto a private unfrozen context.  A frozen registry raises on
  ``add``, so a missed fork is a loud error, never silent corruption.
* :func:`trained_context_nbytes` — a deterministic estimate of the
  trained state's resident bytes, used by the capacity bench and
  ``repro fleet --report-memory`` (RSS is reported separately as an
  informational number; the estimator is what CI budgets gate on,
  because it cannot flake with allocator behaviour).
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
import sys
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .checks import CorrelationChecker, TransitionChecker
from .detector import DiceDetector, DiceModel
from .transitions import TransitionMatrix


def _hash_config(h, config) -> None:
    h.update(repr(dataclasses.astuple(config)).encode())


def _hash_devices(h, registry) -> None:
    for device in registry:
        h.update(
            f"{device.device_id}\x00{device.kind.value}\x00"
            f"{device.sensor_type.value}\x00{device.room}\x01".encode()
        )


def _hash_encoder(h, encoder) -> None:
    h.update(struct.pack("<d", encoder.window_seconds))
    thresholds = encoder._value_thresholds
    if thresholds is None:
        h.update(b"unfitted")
    else:
        h.update(np.ascontiguousarray(thresholds, dtype=np.float64).tobytes())


def _hash_groups(h, groups) -> None:
    for group_id, mask in enumerate(groups.masks):
        nbytes = max(1, (mask.bit_length() + 7) // 8)
        h.update(struct.pack("<qq", groups.count_of(group_id), nbytes))
        h.update(mask.to_bytes(nbytes, "little"))


def _hash_matrix(h, name: str, matrix: TransitionMatrix) -> None:
    # Rows/cols are ints (group ids) or strings (actuator ids); sort by
    # repr so mixed key types cannot break ordering.
    canonical = sorted(
        (
            (repr(row), sorted((repr(col), n) for col, n in cols.items()))
            for row, cols in matrix._counts.items()
        )
    )
    h.update(name.encode())
    h.update(repr(canonical).encode())


def _hash_weights(h, weights) -> None:
    if weights is None:
        h.update(b"no-weights")
        return
    h.update(
        repr(
            (
                sorted(weights.criticality.items()),
                sorted(weights.failure.items()),
                weights.alarm_threshold,
            )
        ).encode()
    )


def context_hash(detector: DiceDetector) -> str:
    """Blake2b digest of everything detection reads from the fitted state.

    Covers the config, the device census, the encoder's learned
    thresholds, every group mask with its observation count, all three
    transition matrices, and the device weights — so equal hashes imply
    byte-identical detection behaviour, and any divergence (a refresh, a
    different fit) changes the hash.
    """
    model = detector.model
    if model is None:
        raise ValueError("detector must be fitted before hashing its context")
    h = hashlib.blake2b(digest_size=16)
    _hash_config(h, detector.config)
    _hash_devices(h, detector.registry)
    _hash_encoder(h, model.encoder)
    _hash_groups(h, model.groups)
    _hash_matrix(h, "g2g", model.transitions.g2g)
    _hash_matrix(h, "g2a", model.transitions.g2a)
    _hash_matrix(h, "a2g", model.transitions.a2g)
    _hash_weights(h, detector.weights)
    h.update(struct.pack("<q", model.training_windows))
    return h.hexdigest()


def _matrix_nbytes(matrix: TransitionMatrix) -> int:
    total = sys.getsizeof(matrix._counts) + sys.getsizeof(matrix._row_totals)
    for cols in matrix._counts.values():
        total += sys.getsizeof(cols)
    return total


def trained_context_nbytes(detector: DiceDetector) -> int:
    """Deterministic resident-byte estimate of one fitted trained state.

    Sums the numpy buffers exactly (``nbytes``) and the Python container
    overheads via ``sys.getsizeof`` — stable across runs, unlike RSS, so
    the CI capacity budget can gate on it.  Interned ints/strings shared
    between contexts are deliberately *not* chased: the estimate is the
    marginal cost of one more unshared context.
    """
    model = detector.model
    if model is None:
        raise ValueError("detector must be fitted")
    groups = model.groups
    bitsets = groups._bitsets
    total = bitsets._buf.nbytes
    total += sys.getsizeof(bitsets._masks)
    total += sum(sys.getsizeof(m) for m in bitsets._masks)
    total += sys.getsizeof(groups._by_mask)
    total += sys.getsizeof(groups._counts)
    for matrix in (model.transitions.g2g, model.transitions.g2a,
                   model.transitions.a2g):
        total += _matrix_nbytes(matrix)
    thresholds = model.encoder._value_thresholds
    if thresholds is not None:
        total += thresholds.nbytes
    checker = detector._correlation_checker
    if checker is not None:
        total += sys.getsizeof(checker._cache)
    return total


@dataclass
class SharedContext:
    """One interned trained context plus the checkers built over it.

    All holders reference the *same* model, checkers and correlation
    memo; the memo is safe to share because its entries depend only on
    (mask, group set, config), never on which home asked.
    """

    hash: str
    model: DiceModel
    correlation_checker: CorrelationChecker
    transition_checker: TransitionChecker
    identifier: object
    #: Detectors currently pointing at this context.
    holders: int = 0
    #: The holder that publishes the shared delta counters (evictions,
    #: kernel calls) into telemetry — exactly one, to avoid double counting
    #: in merged fleet snapshots.  ``None`` after that holder forks.
    owner: Optional[DiceDetector] = field(default=None, repr=False)


class SharedContextStore:
    """Interns fitted detectors by :func:`context_hash`.

    One store per fleet gateway; :meth:`intern` either adopts the
    detector onto an existing context (dropping its private trained
    state) or registers the detector's own state as the new canonical
    context and freezes its registry.
    """

    def __init__(self) -> None:
        self._by_hash: Dict[str, SharedContext] = {}
        self.intern_hits = 0
        self.intern_misses = 0

    def __len__(self) -> int:
        return len(self._by_hash)

    def get(self, key: str) -> Optional[SharedContext]:
        return self._by_hash.get(key)

    def intern(
        self, detector: DiceDetector, key: Optional[str] = None
    ) -> SharedContext:
        """Point *detector* at the canonical context for its trained state.

        *key* short-circuits hashing when the caller already computed the
        detector's :func:`context_hash` (e.g. fleet restore validation).
        """
        if key is None:
            key = detector._interned_hash or context_hash(detector)
        shared = self._by_hash.get(key)
        if shared is None:
            self.intern_misses += 1
            shared = SharedContext(
                key,
                detector.model,
                detector._correlation_checker,
                detector._transition_checker,
                detector._identifier,
                owner=detector,
            )
            shared.model.groups.freeze()
            self._by_hash[key] = shared
        else:
            self.intern_hits += 1
        detector.adopt_context(shared)
        return shared

    def stats(self) -> dict:
        """Interning accounting for memory reports and the capacity bench."""
        holders = sum(ctx.holders for ctx in self._by_hash.values())
        return {
            "contexts": len(self._by_hash),
            "holders": holders,
            "intern_hits": self.intern_hits,
            "intern_misses": self.intern_misses,
            "dedup_ratio": (holders / len(self._by_hash)) if self._by_hash else 0.0,
        }
