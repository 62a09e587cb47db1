"""Exact minimum-shadow enumeration kernel.

For one level with n elements and per-element shadow bitmasks, compute
for every cardinality q the minimum popcount of the OR over all
q-subsets, plus the first subset (in ascending binary order) achieving
it.  This is the hot loop of the whole package: 2^n subsets per level.

One vectorised numpy kernel (numpy >= 2.0 for ``np.bitwise_count``).
The subsets are split into a low and a high half of the level; the OR
of each half-subset is tabled once, and the 2^n full subsets are walked
in blocks of ``BLOCK_SUBSETS`` so the working arrays stay cache-sized.
"""

from __future__ import annotations

import numpy as np

# subsets per block: at n = 24, 2^12 is slower and 2^16 no faster, and
# larger blocks grow peak memory (2^20 costs about 40 MB)
BLOCK_SUBSETS = 1 << 14


def _or_table(masks: np.ndarray) -> np.ndarray:
    """OR of the masks of every subset of ``masks``' rows, by doubling."""
    table = np.zeros((1 << len(masks), masks.shape[1]), dtype=np.uint64)
    for i, m in enumerate(masks):
        table[1 << i:2 << i] = table[:1 << i] | m
    return table


def level_min_shadows(masks: np.ndarray):
    """Per-cardinality minimum shadow sizes for one level.

    ``masks`` is a (n, w) uint64 array of shadow bitmasks over the next
    level.  Returns (mins, argmins) as int64 arrays of length n+1; the
    argmin is the first subset in ascending binary order achieving the
    minimum, encoded as a bitmask over level positions.
    """
    masks = np.ascontiguousarray(masks, dtype=np.uint64)
    if masks.ndim != 2:
        raise ValueError("masks must be 2-D (n, words)")
    n, w = masks.shape
    # subset s = (row << lo_bits) | col; one block is a run of whole
    # high-half rows, i.e. a contiguous range of subsets
    lo_bits = (n + 1) // 2
    lo = _or_table(masks[:lo_bits])
    hi = _or_table(masks[lo_bits:])
    if w == 1:
        lo, hi = lo[:, 0], hi[:, 0]
    rows = min(len(hi), max(1, BLOCK_SUBSETS >> lo_bits))
    ramp = np.arange(rows << lo_bits, dtype=np.int64)
    ramp_card = np.bitwise_count(ramp).astype(np.intp)
    # key = (size << n) | subset: its minimum per cardinality is the
    # smallest shadow, ties going to the smallest subset
    best = np.full(n + 1, np.iinfo(np.int64).max, dtype=np.int64)
    for r0 in range(0, len(hi), rows):
        sizes = np.bitwise_count(hi[r0:r0 + rows, None] | lo[None, :])
        if w > 1:
            sizes = sizes.sum(axis=-1, dtype=np.int64)
        key = sizes.reshape(-1).astype(np.int64, copy=False)
        key <<= n
        key |= ramp[:len(key)]
        # the block's high bits are disjoint from the ramp's
        key |= r0 << lo_bits
        np.minimum.at(best, ramp_card[:len(key)] + r0.bit_count(), key)
    return best >> n, best & ((1 << n) - 1)
