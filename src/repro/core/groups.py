"""Group registry (§3.2.1, Fig. 3.3b).

Every *unique* sensor state set observed during the precomputation phase
becomes a **group** with a stable integer id.  The registry answers the two
queries the real-time phase needs:

* exact lookup — does an incoming state set match a known group (the
  *main group*)?
* neighbourhood scan — the Hamming distance from the incoming set to every
  group, from which the *candidate/probable groups* are drawn.

The scan is the dominant real-time cost (Fig. 5.3); it is one vectorised
pass of :meth:`~repro.core.bitset.PackedBitsets.distances_many`, and
:class:`~repro.core.checks.CorrelationChecker` applies the candidate rule.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bitset import PackedBitsets
from .encoding import BitLayout, WindowedTrace


class GroupRegistry:
    """Interned collection of the groups extracted from training data."""

    def __init__(self, layout: BitLayout) -> None:
        self.layout = layout
        self._by_mask: Dict[int, int] = {}
        self._bitsets = PackedBitsets(layout.num_bits)
        self._counts: List[int] = []
        #: Frozen registries refuse mutation: a registry interned into a
        #: :class:`~repro.core.context.SharedContextStore` is referenced by
        #: many homes, so writing to it would corrupt every holder — homes
        #: must fork a private copy first (``DiceDetector.fork_context``).
        self._frozen = False

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_windows(
        cls, windowed: WindowedTrace
    ) -> Tuple["GroupRegistry", List[int]]:
        """Intern every window of *windowed*; returns the registry and the
        per-window group-id sequence (the input to transition extraction)."""
        registry = cls(windowed.layout)
        ids = registry._by_mask
        sequence = [ids.setdefault(mask, len(ids)) for mask in windowed.masks]
        registry._bitsets.extend(ids)
        registry._counts = np.bincount(
            np.asarray(sequence, dtype=np.int64), minlength=len(ids)
        ).tolist()
        return registry, sequence

    def add(self, mask: int) -> int:
        """Intern *mask*; returns its group id, counting the observation."""
        if self._frozen:
            raise RuntimeError(
                "cannot add to a frozen (shared) GroupRegistry; fork a "
                "private copy first"
            )
        group_id = self._by_mask.get(mask)
        if group_id is None:
            group_id = self._bitsets.append(mask)
            self._by_mask[mask] = group_id
            self._counts.append(1)
        else:
            self._counts[group_id] += 1
        return group_id

    def freeze(self) -> None:
        """Make the registry immutable (interned shared contexts)."""
        self._frozen = True

    @property
    def frozen(self) -> bool:
        return self._frozen

    def copy(self) -> "GroupRegistry":
        """Unfrozen independent copy — the copy-on-write fork target.

        The copy reproduces group ids, masks and observation counts
        exactly, so a forked home's future ``add`` calls intern the same
        ids the unshared run would have."""
        twin = GroupRegistry(self.layout)
        twin._by_mask = dict(self._by_mask)
        twin._bitsets = self._bitsets.copy()
        twin._counts = list(self._counts)
        return twin

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._counts)

    @property
    def version(self) -> int:
        """Monotone token that changes whenever a new group is interned.

        Correlation results depend only on the *set* of group masks, so
        caches keyed on a fitted registry stay valid exactly while this
        value is unchanged (observation counts may still grow).
        """
        return len(self._bitsets)

    def __contains__(self, mask: int) -> bool:
        return mask in self._by_mask

    def lookup(self, mask: int) -> Optional[int]:
        """Group id of an exact match (the main group), if any."""
        return self._by_mask.get(mask)

    def mask_of(self, group_id: int) -> int:
        return self._bitsets[group_id]

    def count_of(self, group_id: int) -> int:
        """How many training windows mapped to this group."""
        return self._counts[group_id]

    @property
    def masks(self) -> List[int]:
        return self._bitsets.masks

    def distances_many(
        self, masks: Sequence[int], visible: Optional[int] = None
    ) -> np.ndarray:
        """Hamming distances from every probe mask to every group: ``(W, G)``,
        over the *visible* bits only when given (§3.3.1 neighbourhood scan;
        :class:`~repro.core.checks.CorrelationChecker` turns them into the
        main and probable groups)."""
        return self._bitsets.distances_many(masks, visible)

    def kernel_call_counts(self) -> Dict[str, int]:
        """Scan passes so far, under the kernel's name (``xor``)."""
        return {"xor": self._bitsets.scan_passes}

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #

    def activated_sensor_counts(self) -> np.ndarray:
        """Number of distinct activated sensors per group."""
        return np.array(
            [len(self.layout.devices_of_mask(m)) for m in self._bitsets.masks],
            dtype=np.int64,
        )

    def correlation_degree(self) -> float:
        """Average activated sensors per unique group (§5.4, Table 5.2).

        The paper's indicator of how strongly sensors co-react: higher means
        richer groups, which the evaluation links to better accuracy and
        faster detection.
        """
        if not self._counts:
            return 0.0
        return float(self.activated_sensor_counts().mean())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GroupRegistry({len(self)} groups over {self.layout.num_bits} bits, "
            f"degree={self.correlation_degree():.1f})"
        )
