"""Exact minimum-shadow enumeration kernel.

For one level with n elements and per-element shadow bitmasks, compute
for every cardinality q the minimum popcount of the OR over all
q-subsets.  This is the hot loop of the whole package: 2^n subsets per
level.

One vectorised numpy kernel (numpy >= 2.0 for ``np.bitwise_count``).
A subset is split into a high and a low half of the level (from n = 17
on, at least 12 low bits); the OR of every half-subset is tabled once.
Below n = 17 each half's table is sorted by cardinality and every pair
of half-subsets is crossed.  From n = 17 on each half keeps only its
distinct unions, each tagged with the most of the half's elements whose
union it is, sorted by tag; on the levels of boxes and their relatives
most half-subsets share their union with another (the 22-wide middle
level of box(2,3,4,5) has 561 distinct low unions of 4096).
The crossed pairs are walked in blocks of ``BLOCK_SUBSETS``, and each
block costs three passes: OR a run of high rows into the low table,
count bits, and take each row's minimum over every run of equal low
cardinality (or tag).  That leaves a small matrix of group minima (rows
x low runs), whose minimum over each high run is the minimum per (high,
low) cardinality.  Tagged minima become those by a suffix minimum over
both tags: any j elements of a set whose union is v have a union inside
v, so a pair of unions tagged (c', j') bounds every (c, j) below it.
The minimum over each q's groups is the row of minima.  No minimising
subset is kept: a caller that needs one rebuilds it from rows of
smaller levels.

From n = 17 on a call crosses far fewer pairs than the 2^n subsets it
stands for, so a time per nominal subset (the benchmark's
``kernels.ns_per_subset.w17-24``) is not a time per crossed pair.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

# crossed pairs per block: at n = 24 with every half-subset crossed,
# 2^12 is slower and 2^16 no faster, and larger blocks grow peak memory
BLOCK_SUBSETS = 1 << 14


def _frozen(*arrays):
    """The arrays, read-only: cached ones are shared by every call."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.cache
def _card_runs(bits: int):
    """Half-subsets 0..2^bits-1 sorted stably by cardinality, and where
    each cardinality's run starts.  Plain Python: numpy's sorting
    routines would add their code to the resident memory of every
    process."""
    order = sorted(range(1 << bits), key=int.bit_count)
    starts = itertools.accumulate((math.comb(bits, k) for k in range(bits)), initial=0)
    return _frozen(np.array(order), np.array(list(starts)))


@functools.cache
def _plan(n: int):
    """What a level of n elements needs besides its masks: lo_bits, the
    low and high cardinality orders and run starts, or None where each
    half is reduced to its distinct unions, and the (high card, low
    card) groups listed by q."""
    if n >= 17:
        # 12 low bits: at 2^9-2^11 columns numpy's broadcast OR costs
        # about 3x as much per element as at 2^12.  Only here do the
        # halves shrink to their distinct unions: below, the sorts cost
        # more than the repeats they save
        lo_bits, runs = max(12, (n + 1) // 2), None
    else:
        lo_bits = (n + 1) // 2
        runs = (*_card_runs(lo_bits), *_card_runs(n - lo_bits))
    hi_bits = n - lo_bits
    # group g = c * (lo_bits + 1) + j holds the subsets with c high and
    # j low elements, of cardinality q = c + j
    cs = [range(max(0, q - lo_bits), min(hi_bits, q) + 1) for q in range(n + 1)]
    diag = [c * lo_bits + q for q, r in enumerate(cs) for c in r]
    diag_starts = list(itertools.accumulate(map(len, cs[:-1]), initial=0))
    return lo_bits, runs, *_frozen(np.array(diag), np.array(diag_starts))


def _distinct(unions: np.ndarray, masks: np.ndarray):
    """A half's distinct unions sorted by tag, where each present tag's
    run starts, and those tags.  ``unions`` is the half's OR table and
    ``masks`` its elements' masks.  A union's tag is the most of the
    half's elements whose union it is: all those whose masks lie inside
    it."""
    unions = np.sort(unions)
    unions = unions[np.concatenate(([True], unions[1:] != unions[:-1]))]
    tags = ((masks[:, None] & ~unions) == 0).sum(axis=0, dtype=np.uint8)
    counts = np.bincount(tags)
    present = np.flatnonzero(counts)
    runs = (np.cumsum(counts) - counts)[present]
    # stable: a radix sort, for uint8 keys
    return unions[np.argsort(tags, kind="stable")], runs, present


def level_min_shadows(masks) -> np.ndarray:
    """Per-cardinality minimum shadow sizes for one level.

    ``masks`` holds the n shadow bitmasks over the next level, one
    64-bit word each.  Returns the minima, q = 0..n, as an int64 array
    of length n+1.
    """
    masks = np.asarray(masks, dtype=np.uint64)
    if masks.ndim != 1:
        raise ValueError("masks must be 1-D, one word per element")
    n = len(masks)
    lo_bits, runs, diag, diag_starts = _plan(n)
    # OR tables of the low and the high rows, doubled side by side
    pairs = np.zeros((2, lo_bits), dtype=np.uint64)
    pairs.reshape(-1)[:n] = masks
    table = np.zeros((1 << lo_bits, 2), dtype=np.uint64)
    for i in range(lo_bits):
        np.bitwise_or(table[:1 << i], pairs[:, i], out=table[1 << i:2 << i])
    lo, hi = table[:, 0], table[:1 << (n - lo_bits), 1]
    if runs is None:
        lo_s, starts, lo_tags = _distinct(lo, masks[:lo_bits])
        hi_s, hi_starts, hi_tags = _distinct(hi, masks[lo_bits:])
    else:
        order, starts, hi_order, hi_starts = runs
        lo_s, hi_s = lo[order], hi[hi_order]
    hi_s = hi_s[:, None]
    rows = min(len(hi_s), max(1, BLOCK_SUBSETS // len(lo_s)))
    # a size is at most 64, below the uint8 sentinel of the tag table
    group = np.empty((len(hi_s), len(starts)), dtype=np.uint8)
    for r0 in range(0, len(hi_s), rows):
        # the block's three passes: OR, popcount, minimum per low run
        sizes = np.bitwise_count(hi_s[r0:r0 + rows] | lo_s)
        group[r0:r0 + rows] = np.minimum.reduceat(sizes, starts, axis=1)
    best = np.minimum.reduceat(group, hi_starts, axis=0)
    if runs is None:
        # suffix minima over both tags: a pair tagged (c', j') bounds
        # every (c, j) below it
        tagged = np.full((n - lo_bits + 1, lo_bits + 1), 255, np.uint8)
        tagged[hi_tags[:, None], lo_tags] = best
        flipped = np.minimum.accumulate(tagged[::-1, ::-1], axis=0)
        best = np.minimum.accumulate(flipped, axis=1)[::-1, ::-1]
    return np.minimum.reduceat(best.reshape(-1)[diag], diag_starts).astype(np.int64)
