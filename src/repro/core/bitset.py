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
``np.vstack`` would.  ``distances_many`` is the one Hamming kernel: one
XOR + popcount pass answers a single window or every window of a segment,
over all bits or only the visible ones.

Requires numpy >= 2.0 for ``np.bitwise_count`` (pinned in pyproject.toml).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

#: Probe rows per block in the batched scan; bounds each XOR temporary to
#: ``_BLOCK_ROWS × n`` words regardless of segment length.
_BLOCK_ROWS = 2048


def words_needed(num_bits: int) -> int:
    """uint64 words required to hold *num_bits*."""
    if num_bits < 0:
        raise ValueError("num_bits must be non-negative")
    return max(1, (num_bits + 63) // 64)


def pack_int(mask: int, num_words: int) -> np.ndarray:
    """Split a non-negative int bitmask into little-endian uint64 words."""
    return _pack_rows([mask], num_words)[0]


def _pack_rows(masks: Sequence[int], num_words: int) -> np.ndarray:
    """Pack non-negative int bitmasks into a read-only ``(len, num_words)``
    matrix of little-endian uint64 words, one row per mask."""
    try:
        raw = b"".join([mask.to_bytes(8 * num_words, "little") for mask in masks])
    except OverflowError:
        raise ValueError(
            "masks must be non-negative and fit in the given number of words"
        ) from None
    return np.frombuffer(raw, dtype="<u8").reshape(len(masks), num_words)


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
    :meth:`distances_many` answers a batch of probes against *all* rows as
    one ``(W, n)`` XOR + popcount pass.
    """

    def __init__(self, num_bits: int, masks: Sequence[int] = ()) -> None:
        self.num_bits = int(num_bits)
        self.num_words = words_needed(self.num_bits)
        self._masks: List[int] = []
        self._buf = np.empty((0, self.num_words), dtype=np.uint64)
        #: Plain-int tally of scan passes, read by the telemetry collector
        #: (``dice_bitset_kernel_calls_total``).
        self.scan_passes = 0
        if masks:
            self.extend(masks)

    def copy(self) -> "PackedBitsets":
        """Independent twin with the same rows and a fresh pass tally."""
        twin = PackedBitsets(self.num_bits)
        twin._masks = list(self._masks)
        twin._buf = self._buf[: len(self._masks)].copy()
        return twin

    def __len__(self) -> int:
        return len(self._masks)

    def __getitem__(self, index: int) -> int:
        """The mask stored at row *index* (no copy of the list)."""
        return self._masks[index]

    @property
    def masks(self) -> List[int]:
        """A copy of the stored masks, in insertion order."""
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
        self._buf[base : base + len(masks)] = _pack_rows(masks, self.num_words)
        self._masks.extend(masks)

    def distances_many(
        self, masks: Sequence[int], visible: Optional[int] = None
    ) -> np.ndarray:
        """Hamming distances from every probe to every row: ``(W, n)``.

        ``visible`` limits the count to the bits it sets, as
        ``popcount((probe ^ row) & visible)``: quarantined devices' bits
        are masked out of the gateway's correlation check this way.  It may
        be negative (``~quarantined_bits``); ``None`` counts every bit.
        """
        probes = _pack_rows(masks, self.num_words)
        n = len(self._masks)
        if probes.shape[0] == 0 or n == 0:
            return np.empty((probes.shape[0], n), dtype=np.int64)
        self.scan_passes += 1
        rows = self.rows
        if visible is not None:
            # (p ^ r) & v == (p & v) ^ (r & v): mask both sides once.
            keep = _pack_rows(
                [visible & ((1 << (64 * self.num_words)) - 1)], self.num_words
            )
            rows = rows & keep
            probes = probes & keep
        if probes.shape[0] == 1:
            # A single window (every served check): one (n, words)
            # broadcast costs fewer numpy calls than the word loop below.
            return np.bitwise_count(rows ^ probes).sum(axis=1, dtype=np.int64)[None]
        # Accumulate word by word over 2D (block, n) temporaries: far
        # friendlier to the cache than one 3D (block, n, words) broadcast.
        # Probe blocks bound each temporary for arbitrarily long segments.
        out = np.empty((probes.shape[0], n), dtype=np.int64)
        for lo in range(0, probes.shape[0], _BLOCK_ROWS):
            block = probes[lo : lo + _BLOCK_ROWS]
            acc = out[lo : lo + block.shape[0]]
            acc[...] = np.bitwise_count(block[:, 0, None] ^ rows[None, :, 0])
            for w in range(1, self.num_words):
                acc += np.bitwise_count(block[:, w, None] ^ rows[None, :, w])
        return out
