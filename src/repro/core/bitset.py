"""Packed bitset arithmetic for sensor state sets.

A sensor state set is a vector of activation bits (one per binary device,
three per numeric sensor).  Deployments can exceed 64 bits (hh102 encodes
270), so state sets are stored as Python ints for hashing/interning and as
rows of ``uint64`` words for the vectorised Hamming-distance scan that
dominates the correlation check (the "obtaining probable groups" cost the
paper measures in Fig. 5.3).

Storage grows by capacity doubling: ``append`` writes into a preallocated
backing array instead of reallocating per call, so interning ``n`` groups
costs O(n) words copied in total rather than the O(n²) a per-append
``np.vstack`` would.  ``distances_many`` batches the scan — one
XOR + popcount matrix pass answers every window of a segment at once.

Requires numpy >= 2.0 for ``np.bitwise_count`` (pinned in pyproject.toml).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

#: Probe rows per block in the batched scan; bounds each XOR temporary to
#: ``_BLOCK_ROWS × n`` words regardless of segment length.
_BLOCK_ROWS = 2048

#: Batches at least this tall go through the float32 bit-plane GEMM kernel
#: (``d(a,b) = |a| + |b| - 2·a·b``); below it the per-word XOR+popcount
#: accumulation wins (no unpack/setup cost).
_GEMM_MIN_ROWS = 64


def _unpack_planes(words: np.ndarray) -> np.ndarray:
    """Unpack ``(k, num_words)`` uint64 rows into ``(k, 64·num_words)``
    float32 0/1 bit planes (bit order is consistent across calls, which is
    all Hamming arithmetic needs)."""
    return np.unpackbits(
        np.ascontiguousarray(words).view(np.uint8), axis=1
    ).astype(np.float32)


def words_needed(num_bits: int) -> int:
    """uint64 words required to hold *num_bits*."""
    if num_bits < 0:
        raise ValueError("num_bits must be non-negative")
    return max(1, (num_bits + 63) // 64)


def pack_int(mask: int, num_words: int) -> np.ndarray:
    """Split a non-negative int bitmask into little-endian uint64 words."""
    if mask < 0:
        raise ValueError("mask must be non-negative")
    words = np.empty(num_words, dtype=np.uint64)
    for w in range(num_words):
        words[w] = (mask >> (64 * w)) & 0xFFFFFFFFFFFFFFFF
    if mask >> (64 * num_words):
        raise ValueError("mask does not fit in the given number of words")
    return words


def unpack_int(words: np.ndarray) -> int:
    """Inverse of :func:`pack_int`."""
    mask = 0
    for w, word in enumerate(np.asarray(words, dtype=np.uint64)):
        mask |= int(word) << (64 * w)
    return mask


def popcount(mask: int) -> int:
    """Number of set bits in a Python int.

    The single popcount entry point for the whole codebase.
    """
    if mask < 0:
        raise ValueError("mask must be non-negative")
    return mask.bit_count()


def hamming(a: int, b: int) -> int:
    """Hamming distance between two int bitmasks (§3.3.1 group distance)."""
    return popcount(a ^ b)


def set_bits(mask: int) -> List[int]:
    """Indices of set bits, ascending."""
    bits = []
    i = 0
    while mask:
        if mask & 1:
            bits.append(i)
        mask >>= 1
        i += 1
    return bits


def mask_from_bits(bits: Iterable[int]) -> int:
    """Bitmask with the given bit indices set."""
    mask = 0
    for bit in bits:
        if bit < 0:
            raise ValueError("bit indices must be non-negative")
        mask |= 1 << bit
    return mask


class PackedBitsets:
    """A growable collection of equal-width bitsets supporting bulk queries.

    Rows are packed into a capacity-doubled ``(capacity, num_words)`` uint64
    backing array; :attr:`rows` exposes the live ``(n, num_words)`` prefix.
    Distances from one probe mask to *all* rows is a single vectorised
    XOR + popcount pass; :meth:`distances_many` does the same for a whole
    batch of probes as one ``(W, n)`` matrix pass.
    """

    def __init__(
        self,
        num_bits: int,
        masks: Sequence[int] = (),
        gemm_min_rows: Optional[int] = None,
    ) -> None:
        self.num_bits = int(num_bits)
        self.num_words = words_needed(self.num_bits)
        self._masks: List[int] = []
        self._buf = np.empty((0, self.num_words), dtype=np.uint64)
        #: Lazily-built float32 bit planes of the rows for the GEMM kernel,
        #: tagged with the row count they were built at.
        self._planes: Optional[Tuple[int, np.ndarray, np.ndarray]] = None
        #: Plain-int tallies of which batch kernel ran, read by the
        #: telemetry collector (``dice_bitset_kernel_calls_total``).
        self.kernel_calls: Dict[str, int] = {"gemm": 0, "xor": 0}
        #: Scalar/GEMM crossover for :meth:`distances_many`; ``None`` keeps
        #: the module heuristic (a registry overrides it through
        #: ``GroupRegistry.gemm_min_rows``).
        self.gemm_min_rows = (
            _GEMM_MIN_ROWS if gemm_min_rows is None else int(gemm_min_rows)
        )
        if masks:
            self.extend(masks)

    def copy(self) -> "PackedBitsets":
        """Independent twin with the same rows and fresh kernel tallies."""
        twin = PackedBitsets(self.num_bits, gemm_min_rows=self.gemm_min_rows)
        twin._masks = list(self._masks)
        twin._buf = self._buf[: len(self._masks)].copy()
        return twin

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_planes"] = None  # derived; rebuilt on demand
        return state

    def __len__(self) -> int:
        return len(self._masks)

    @property
    def masks(self) -> List[int]:
        """The stored masks, in insertion order."""
        return list(self._masks)

    @property
    def rows(self) -> np.ndarray:
        """Live ``(n, num_words)`` view of the packed rows (no copy)."""
        return self._buf[: len(self._masks)]

    def _reserve(self, extra: int) -> None:
        """Ensure capacity for *extra* more rows, doubling on growth."""
        need = len(self._masks) + extra
        capacity = self._buf.shape[0]
        if need <= capacity:
            return
        new_capacity = max(16, capacity)
        while new_capacity < need:
            new_capacity *= 2
        buf = np.empty((new_capacity, self.num_words), dtype=np.uint64)
        buf[: len(self._masks)] = self.rows
        self._buf = buf

    def append(self, mask: int) -> int:
        """Add one mask; returns its row index.  Amortised O(num_words)."""
        self._reserve(1)
        index = len(self._masks)
        self._buf[index] = pack_int(mask, self.num_words)
        self._masks.append(mask)
        return index

    def extend(self, masks: Iterable[int]) -> None:
        masks = list(masks)
        if not masks:
            return
        self._reserve(len(masks))
        base = len(self._masks)
        for i, mask in enumerate(masks):
            self._buf[base + i] = pack_int(mask, self.num_words)
        self._masks.extend(masks)

    def pack_many(self, masks: Sequence[int]) -> np.ndarray:
        """Pack a sequence of int masks into a ``(len, num_words)`` matrix."""
        probes = np.empty((len(masks), self.num_words), dtype=np.uint64)
        for i, mask in enumerate(masks):
            probes[i] = pack_int(mask, self.num_words)
        return probes

    def distances(self, mask: int) -> np.ndarray:
        """Hamming distance from *mask* to every stored row."""
        if not self._masks:
            return np.empty(0, dtype=np.int64)
        probe = pack_int(mask, self.num_words)
        xored = self.rows ^ probe[None, :]
        return np.bitwise_count(xored).sum(axis=1).astype(np.int64)

    def distances_many(
        self, masks: Union[Sequence[int], np.ndarray]
    ) -> np.ndarray:
        """Hamming distances from every probe to every row: ``(W, n)``.

        *masks* is either a sequence of int bitmasks or an already-packed
        ``(W, num_words)`` uint64 matrix.  Probes are processed in blocks
        so the XOR temporary stays bounded for arbitrarily long segments.
        """
        probes = (
            np.asarray(masks, dtype=np.uint64)
            if isinstance(masks, np.ndarray)
            else self.pack_many(masks)
        )
        n = len(self._masks)
        out = np.empty((probes.shape[0], n), dtype=np.int64)
        if probes.shape[0] == 0 or n == 0:
            return out
        if probes.shape[0] >= self.gemm_min_rows:
            self.kernel_calls["gemm"] += 1
            return self._distances_gemm(probes, out)
        self.kernel_calls["xor"] += 1
        rows = self.rows
        # Accumulate word by word over 2D (block, n) temporaries: far
        # friendlier to the cache than one 3D (block, n, words) broadcast.
        for lo in range(0, probes.shape[0], _BLOCK_ROWS):
            block = probes[lo : lo + _BLOCK_ROWS]
            acc = np.bitwise_count(
                block[:, 0, None] ^ rows[None, :, 0]
            ).astype(np.int64)
            for w in range(1, self.num_words):
                acc += np.bitwise_count(block[:, w, None] ^ rows[None, :, w])
            out[lo : lo + block.shape[0]] = acc
        return out

    def _row_planes(self) -> Tuple[np.ndarray, np.ndarray]:
        """Float32 bit planes of the stored rows (and their popcounts),
        rebuilt whenever the row count has changed since last use."""
        n = len(self._masks)
        if self._planes is None or self._planes[0] != n:
            planes = _unpack_planes(self.rows)
            self._planes = (n, planes, planes.sum(axis=1))
        return self._planes[1], self._planes[2]

    def _distances_gemm(self, probes: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Hamming distances via one float32 GEMM on unpacked bit planes.

        ``d(a, b) = |a| + |b| - 2·a·b`` — every quantity is a small
        integer (≤ 64·num_words), exactly representable in float32, so the
        result is exact.  A single BLAS matrix multiply beats elementwise
        XOR+popcount passes once the batch is tall enough.
        """
        row_planes, row_pops = self._row_planes()
        probe_planes = _unpack_planes(probes)
        probe_pops = probe_planes.sum(axis=1)
        for lo in range(0, probes.shape[0], _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, probes.shape[0])
            prod = probe_planes[lo:hi] @ row_planes.T
            np.multiply(prod, -2.0, out=prod)
            prod += probe_pops[lo:hi, None]
            prod += row_pops[None, :]
            out[lo:hi] = prod
        return out

    def masked_distances(self, mask: int, visible: Optional[int] = None) -> np.ndarray:
        """Distances from *mask* to every row over *visible* bits only.

        ``visible`` is a bitmask of the positions that count (quarantined
        devices' bits are masked out of the gateway's correlation check);
        ``None`` means all bits, identical to :meth:`distances`.
        """
        if visible is None:
            return self.distances(mask)
        if not self._masks:
            return np.empty(0, dtype=np.int64)
        probe = pack_int(mask, self.num_words)
        keep = pack_int(
            visible & ((1 << (64 * self.num_words)) - 1), self.num_words
        )
        xored = (self.rows ^ probe[None, :]) & keep[None, :]
        return np.bitwise_count(xored).sum(axis=1).astype(np.int64)

    def within(self, mask: int, max_distance: int) -> Tuple[np.ndarray, np.ndarray]:
        """Row indices (and distances) of rows within *max_distance* of *mask*.

        Results are sorted by ascending distance, ties by row index, so the
        closest candidate group always comes first.
        """
        dists = self.distances(mask)
        hit = np.nonzero(dists <= max_distance)[0]
        order = np.lexsort((hit, dists[hit]))
        hit = hit[order]
        return hit, dists[hit]
