"""Group registry (§3.2.1, Fig. 3.3b).

Every *unique* sensor state set observed during the precomputation phase
becomes a **group** with a stable integer id.  The registry answers the two
queries the real-time phase needs:

* exact lookup — does an incoming state set match a known group (the
  *main group*)?
* neighbourhood scan — which groups lie within a Hamming-distance bound of
  the incoming set (the *candidate/probable groups*)?

The scan is the dominant real-time cost (Fig. 5.3) and is vectorised via
:class:`~repro.core.bitset.PackedBitsets`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

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
        return self._bitsets.masks[group_id]

    def count_of(self, group_id: int) -> int:
        """How many training windows mapped to this group."""
        return self._counts[group_id]

    @property
    def masks(self) -> List[int]:
        return self._bitsets.masks

    def candidates(self, mask: int, max_distance: int) -> List[Tuple[int, int]]:
        """Groups within *max_distance* of *mask* as ``(group_id, distance)``
        pairs, nearest first (§3.3.1)."""
        ids, dists = self._bitsets.within(mask, max_distance)
        return [(int(g), int(d)) for g, d in zip(ids, dists)]

    def distances_many(
        self, masks: Union[Sequence[int], np.ndarray]
    ) -> np.ndarray:
        """Hamming distances from every probe mask to every group: ``(W, G)``.

        One XOR + popcount matrix pass — the batch form of the per-window
        neighbourhood scan."""
        return self._bitsets.distances_many(masks)

    def masked_distances(self, mask: int, visible: Optional[int]) -> np.ndarray:
        """Distances from *mask* to every group over *visible* bits only."""
        return self._bitsets.masked_distances(mask, visible)

    def kernel_call_counts(self) -> Dict[str, int]:
        """How often each ``distances_many`` kernel ran (``gemm``/``xor``)."""
        return dict(self._bitsets.kernel_calls)

    @property
    def gemm_min_rows(self) -> int:
        """Batch height at which ``distances_many`` switches to GEMM."""
        return self._bitsets.gemm_min_rows

    @gemm_min_rows.setter
    def gemm_min_rows(self, value: int) -> None:
        self._bitsets.gemm_min_rows = int(value)

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
