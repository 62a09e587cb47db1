"""Macaulay decision procedures: minimum-shadow tables, the given-order
check, the order-existence search, new shadows, and additivity.

A poset is Macaulay for an order family when, level by level, every
initial segment has the minimum shadow size over equal-size subsets and
its shadow is again an initial segment.  The exact minima come from
exhaustive subset enumeration (see kernels); the search then builds
orders level by level, since the prefix-shadow chain of level d pins
level d+1 down to interleavings of its difference sets.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import kernels
from .core import LevelSubset, PosetError, RankedPoset, Verdict, Witness
from .orders import LevelOrderFamily, order_from_lists

DEFAULT_LEVEL_CAP = 24
DEFAULT_BUDGET = 20_000_000
# memoised rows, of whole levels and of components alike: room for the
# 4912 distinct levels of the 1600 random-search instances.  A full cache
# holds about 6 MB of 12-wide rows and 11 MB of 24-wide rows, their keys
# included (tracemalloc, masks of 20 and 40 bits)
LEVEL_ROW_CACHE = 8192
# levels at least this wide are split into connected components; below
# it a kernel call's fixed cost is as much as the subsets a split saves
SPLIT_MIN = 17


class LevelCapExceeded(PosetError):
    pass


@dataclass(frozen=True)
class MinShadowTable:
    """mins[d][q] = exact minimum of |shadow(A)| over |A| = q at level d.

    ``subsets_enumerated`` is nominal: 2^n for each level of n elements,
    whether the level's row came from the memo, from its components'
    rows or from the kernel.
    """

    mins: tuple
    subsets_enumerated: int


def shadow_masks(p: RankedPoset, d: int) -> tuple:
    """Per-position bitmasks of up-cover positions in level d+1, derived
    once per poset."""
    masks = p._shadow_masks()
    return masks[d] if 0 <= d < len(masks) else ()


def _components(masks):
    """The connected components of a level over shared cover bits, as
    mask tuples in position order, each re-indexed densely over its own
    covers.  Elements with empty masks belong to none."""
    parts = []  # (cover bits, positions), pairwise disjoint in their bits
    for k, m in enumerate(masks):
        if m:
            bits, ks = m, [k]
            for joined in [part for part in parts if part[0] & m]:
                parts.remove(joined)
                bits |= joined[0]
                ks += joined[1]
            parts.append((bits, ks))
    out = []
    for bits, ks in parts:
        cols = [b for b in range(bits.bit_length()) if bits >> b & 1]
        out.append(tuple(sum(1 << j for j, b in enumerate(cols) if masks[k] >> b & 1)
                         for k in sorted(ks)))
    return out


def _min_plus(a, b):
    """(min, +) convolution: the row of two levels with disjoint covers.
    Rows never decrease, so a[-1] + b[-1] bounds every entry."""
    out = [a[-1] + b[-1]] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = min(out[i + j], x + y)
    return tuple(out)


@functools.lru_cache(maxsize=LEVEL_ROW_CACHE)
def _level_row(masks: tuple[int, ...]) -> tuple[int, ...]:
    """Minimum shadow sizes, q = 0..n, of a level whose shadow masks are
    ``masks``.  A level of at least ``SPLIT_MIN`` elements that is not one
    connected piece is split: a subset's shadow is the disjoint union of
    its pieces' shadows, so the row is the (min, +) join of its
    components' rows, each memoised here too, and every element with an
    empty mask adds one 0."""
    if len(masks) >= SPLIT_MIN:
        parts = _components(masks)
        if len(parts) != 1 or len(parts[0]) < len(masks):
            row = (0,) * (len(masks) - sum(map(len, parts)) + 1)
            for part in parts:
                row = _min_plus(row, _level_row(part))
            return row
    if not masks:
        return (0,)
    return tuple(kernels.level_min_shadows(masks).tolist())


def _first_minimiser(masks: tuple[int, ...], q: int, best: int) -> int:
    """The first q-subset, in ascending binary order, of a level whose
    shadow masks are ``masks`` and whose minimum at q is ``best``, as a
    bitmask of positions.  Positions are decided from the top: k stays
    out when the positions below it can still complete the subset to a
    shadow of ``best`` elements, a question the row of those positions,
    less the shadow already taken, answers."""
    chosen = shadow = 0
    for k in range(len(masks) - 1, -1, -1):
        need = q - chosen.bit_count()
        if not need:
            break
        rest = tuple(m & ~shadow for m in masks[:k])
        if need > k or _level_row(rest)[need] + shadow.bit_count() != best:
            chosen |= 1 << k
            shadow |= masks[k]
    return chosen


def _check_level_cap(p: RankedPoset, level_cap: int) -> None:
    # a shadow mask has one bit per element of the level above, so the
    # cap of 30 is what keeps every mask the kernel reads to one word
    if level_cap > 30:
        raise LevelCapExceeded("level cap above 30 is not supported")
    if max(map(len, p.levels), default=0) <= level_cap:
        return
    d, lv = next((d, lv) for d, lv in enumerate(p.levels) if len(lv) > level_cap)
    raise LevelCapExceeded(f"level {d} has {len(lv)} elements, cap is {level_cap}; "
                           "raise --level-cap if this is intended")


def _table(level_masks) -> MinShadowTable:
    """The table of the levels whose shadow masks are ``level_masks``."""
    return MinShadowTable(tuple(map(_level_row, level_masks)),
                          sum(1 << len(masks) for masks in level_masks))


def min_shadow_table(p: RankedPoset,
                     level_cap: int = DEFAULT_LEVEL_CAP) -> MinShadowTable:
    """Exact per-level minima by enumerating all subsets of each level.

    Each level's row is memoised on its shadow masks, so a level met
    again, in this poset or another, is not enumerated again while it
    is among the ``LEVEL_ROW_CACHE`` most recently used rows.  So no
    function takes a table: the check and the search read the rows
    themselves.
    """
    _check_level_cap(p, level_cap)
    return _table(p._shadow_masks())


def _first_failure(level_masks, orders, mins):
    """The first (level d, size q, shadow), in lexicographic order, whose
    initial q-segment of ``orders[d]``, level d's positions largest first,
    has a shadow above the minimum ``mins[d][q]`` (condition (1)) or not
    an initial segment of level d+1 (condition (2)); None if there is none.
    The check runs it on the order it is given, and the search on the
    positions it placed, before it stores them."""
    for d, (masks, order) in enumerate(zip(level_masks, orders)):
        prefix_of_size = [0]
        for k in orders[d + 1] if d + 1 < len(orders) else ():
            prefix_of_size.append(prefix_of_size[-1] | 1 << k)
        shadow = 0
        for q, k in enumerate(order, 1):
            shadow |= masks[k]
            size = shadow.bit_count()
            if size != mins[d][q] or shadow != prefix_of_size[size]:
                return d, q, shadow
    return None


def check_macaulay(p: RankedPoset, o: LevelOrderFamily,
                   level_cap: int = DEFAULT_LEVEL_CAP) -> Verdict:
    """Decide whether the given order family witnesses Macaulayness.

    Scans (level, prefix size) pairs in lexicographic order and returns
    the first violation: either some equal-size subset beats the
    initial segment's shadow, or the segment's shadow fails to be an
    initial segment of the next level.  Each level's minima are its
    memoised row, so a check after a search of p enumerates nothing.
    """
    if o.poset is not p:
        raise PosetError("order family belongs to a different poset")
    _check_level_cap(p, level_cap)
    pos, level_masks = p.pos_in_level, p._shadow_masks()
    orders = [[pos[i] for i in o.descending(d)] for d in range(len(p.levels))]
    mins = _table(level_masks).mins
    failure = _first_failure(level_masks, orders, mins)
    if failure is None:
        return Verdict.passing()
    d, q, shadow = failure
    size, best = shadow.bit_count(), mins[d][q]
    if size != best:
        # the rival is the first minimiser in ascending binary order; the
        # rows keep no minimisers, so it is rebuilt from the memoised
        # rows of the level's lower positions
        rival = _first_minimiser(level_masks[d], q, best)
        return Verdict.failing(Witness(
            "min-shadow-beaten", level=d, q=q,
            elements=tuple(o.descending(d)[:q]),
            rival=LevelSubset(p, d, rival).ids(),
            sizes=(size, best),
            detail=f"initial segment of size {q} at level {d} has shadow "
                   f"{size}, minimum is {best}"))
    return Verdict.failing(Witness(
        "shadow-not-initial", level=d, q=q,
        elements=LevelSubset(p, d + 1, shadow).ids(),
        rival=tuple(o.descending(d + 1)[:size]),
        sizes=(size,),
        detail=f"shadow of the size-{q} initial segment at level {d} "
               f"is not an initial segment of level {d + 1}"))


@dataclass
class SearchStats:
    """Work counters of one search.  ``nodes`` is nominal: it counts
    every node of the search, and ``charged`` counts those of them that
    were counted without being visited (twins and dead prefixes).
    Reports carry only the nominal counts."""

    nodes: int = 0
    subsets_enumerated: int = 0
    charged: int = 0

    def to_json(self):
        return {"search_nodes": self.nodes,
                "subsets_enumerated": self.subsets_enumerated}


@dataclass
class SearchResult:
    """One search's outcome for the poset asked about.  ``placed`` lists
    each level's positions, largest first, when an order was found, and
    is None otherwise.  ``order`` is that order family: it is built from
    ``placed`` through ``order_from_lists`` on its first read and cached,
    so a caller that reads only the status builds no order; the grids
    read only statuses and counters, and build none."""

    status: str  # found | none | budget-exceeded
    stats: SearchStats
    poset: RankedPoset
    placed: tuple | None

    @functools.cached_property
    def order(self) -> LevelOrderFamily | None:
        if self.placed is None:
            return None
        return order_from_lists(self.poset, [[lv[k] for k in ks] for lv, ks
                                             in zip(self.poset.levels, self.placed)])


def _upper_twins(masks: tuple[int, ...]) -> tuple[int, ...]:
    """Per position k of a level whose shadow masks are ``masks``, the
    bitmask of the positions above k with k's mask: k's twins."""
    out, above = [0] * len(masks), {}
    for k in range(len(masks) - 1, -1, -1):
        out[k] = above.get(masks[k], 0)
        above[masks[k]] = out[k] | 1 << k
    return tuple(out)


def find_macaulay_order(p: RankedPoset, budget: int | None = DEFAULT_BUDGET,
                        level_cap: int = DEFAULT_LEVEL_CAP) -> SearchResult:
    """Search for an order family certifying Macaulayness.

    The level cap is checked before p's shadow masks are derived.  The
    search sees p only through those masks and is memoised on them and
    the budget; a search that passes the cap does not depend on it, so
    the cap is not in the key.  Every poset with the same masks gets the
    same status, nominal counters and placed positions, and fresh stats.
    No order is built here: the result's ``order`` is built for p from
    the placed positions when it is first read.  The rows searched
    against stay memoised, so a ``check_macaulay`` of p that follows,
    such as the heart grid's check of its recommended orders, reads
    them and enumerates nothing.
    """
    _check_level_cap(p, level_cap)
    status, nodes, charged, subsets, placed = _search(p._shadow_masks(), budget)
    return SearchResult(status, SearchStats(nodes, subsets, charged), p, placed)


def _shadow_of(masks: tuple[int, ...], bits: int) -> int:
    """The shadow of the positions in ``bits`` of a level whose shadow
    masks are ``masks``."""
    out = 0
    while bits:
        low = bits & -bits
        bits ^= low
        out |= masks[low.bit_length() - 1]
    return out


def _count(masks, row, twins, blocks, placed, shadow, room, memo):
    """(nodes, completions) of the search of one level from the placed
    positions ``placed``, whose shadow is ``shadow``: the nodes it tries
    and the ways it places every position of ``blocks``.  The level's
    shadow masks are ``masks``, its table row ``row`` and its upper twins
    ``twins``; the current block is the first one that ``placed`` does
    not hold.  Twins in the current block have matching subtrees, so the
    lowest is counted as many times as there are.  The count stops, and
    the result is None, as soon as its nodes and completions pass
    ``room``; a completion stands for at least one node of the search
    above it.  ``memo`` holds the complete counts on these blocks, keyed
    on the placed positions."""
    for block in blocks:
        if rest := block & ~placed:
            break
    else:
        return 0, 1
    if placed in memo:
        return memo[placed]
    need = row[placed.bit_count() + 1]
    nodes = completions = 0
    while rest:
        low = rest & -rest
        k = low.bit_length() - 1
        same = twins[k] & rest
        rest ^= low | same
        r = 1 + same.bit_count()
        nodes += r
        sh = shadow | masks[k]
        if sh.bit_count() == need:
            sub = _count(masks, row, twins, blocks, placed | low, sh,
                         room - nodes - completions, memo)
            if sub is None:
                return None
            nodes += r * sub[0]
            completions += r * sub[1]
        if nodes + completions > room:
            return None
    memo[placed] = nodes, completions
    return nodes, completions


def _steps(shadows) -> list[int]:
    """The steps of a chain of prefix shadows: the positions each
    distinct nonempty shadow adds to the one before it, in order."""
    steps, seen = [], 0
    for s in shadows:
        if s != seen:
            steps.append(s ^ seen)
            seen = s
    return steps


@functools.lru_cache(maxsize=LEVEL_ROW_CACHE)
def _search(level_masks: tuple, budget: int | None) -> tuple:
    """The search of ``find_macaulay_order`` on the levels whose shadow
    masks are ``level_masks``: (status, nominal nodes, charged, nominal
    subsets, placed), where the subsets are those of the table searched
    against and ``placed`` lists each level's positions, largest first,
    for a found order, certified against the table, and is None
    otherwise.  Memoised as the rows are, in a cache of the same size.

    Level orders are built top-down by rank.  Condition (1) forces every
    prefix of a level order to achieve the table minimum, which prunes
    placements immediately; condition (2) forces the next level's order
    to interleave the successive difference sets of the prefix-shadow
    chain, so only those interleavings are explored.  Ties are always
    broken by ascending position, making the outcome deterministic.
    An exhausted search is a definitive "none"; hitting the node budget
    is reported as its own outcome.

    The search is one flat loop over depths, so no input is too deep for
    it.  Depth t is the number of elements placed so far, over all
    levels; an empty level has no depths.  Lists allocated once per call
    hold each depth's state: its level ``LV[t]``, that level's shadow
    masks ``MASKS[t]``, the table minimum ``NEED[t]`` for the prefix it
    completes, the candidates ``U[t]`` not yet tried (a bitmask of level
    positions, lowest first), the positions ``R[t]`` of its block not
    yet placed, the block's index ``B[t]`` in ``blocks[LV[t]]``, the
    shadow ``S[t]`` of its level's order so far, the position ``K[t]``
    placed and the node count ``N[t]`` when it was placed.  Each
    candidate tried is one search node, and rejected candidates are
    skipped in an inner loop.  An accepted candidate moves the search to
    depth t+1; an exhausted depth moves it back to t-1, whose untried
    candidates are still recorded.  When a level is complete, the next
    level's blocks are the steps of the prefix shadows recorded at its
    depths, then the rest of that level.

    Some subtrees are counted rather than searched: ``charged`` is the
    nominal nodes counted without being visited (twins and dead
    prefixes).  If a charge takes the count past the budget, the search
    stops at a count of budget + 1, as the full search would.  So the
    node count is nominal: at every budget it equals that of the search
    without the charges.

    Two positions of one block with equal shadow masks are twins:
    swapping them maps the subtree below one onto the subtree below the
    other, so when one fails the other fails too, after as many nodes.
    So when the candidate placed at depth t fails, its untried twins
    join ``TW[t]`` and its subtree's node count is kept in ``COST``
    under t and its mask.  A twin in ``TW[t]`` that meets the table
    minimum is not searched: that count is added to the nodes instead.
    A level's twins are derived at their first use, once per level and
    search, and are not memoised.

    A placement at level d that adds a step S to the level's chain of
    prefix shadows is dead when |shadow(S)| is not the table minimum of
    level d+1 at |S|: condition (2) makes S an initial segment of level
    d+1, so no order of level d+1 gets past S.  Its subtree is counted
    by ``_count``, once for the rest of level d and once for level d+1
    on the chain's blocks up to S, and its twins are charged the same:
    if level d tries W nodes below it and completes in C ways, and level
    d+1 tries L nodes on the chain's blocks up to S, the charge is
    W + C·L.  ``_count`` stops once its count passes what is left of the
    budget, so it never does more work than the search it replaces.
    Level d's lookahead is on once the search has opened a level above
    it, ``top``: so from the search's first backtrack from level d+1
    into level d, and a search that never fails across levels pays
    nothing for it.
    """
    table = _table(level_masks)
    mins, subsets = table.mins, table.subsets_enumerated
    level_twins = [None] * len(level_masks)  # derived at their first use
    memo = {}  # _count's, per level and blocks

    def twins_of(d):
        level_twins[d] = _upper_twins(level_masks[d])
        return level_twins[d]

    LV = [d for d, masks in enumerate(level_masks) for _ in masks]
    MASKS = [level_masks[d] for d in LV]
    NEED = [m for row in mins for m in row[1:]]  # minimum at each depth
    n = len(LV)
    U, R, K, B, N, S = [0] * n, [0] * n, [0] * n, [0] * n, [0] * n, [0] * (n + 1)
    TW, COST = [0] * (n + 1), {}
    blocks = [None] * len(level_masks)
    limit = float("inf") if budget is None else budget
    nodes = charged = t = top = 0  # top: the highest level opened so far
    if n:  # the lowest level is one block
        blocks[LV[0]] = [(1 << len(MASKS[0])) - 1]
        U[0] = R[0] = blocks[LV[0]][0]
    while t < n:
        untried, masks, need, shadow, twins = U[t], MASKS[t], NEED[t], S[t], TW[t]
        while untried:
            low = untried & -untried
            untried ^= low
            nodes += 1
            if nodes > limit:
                return "budget-exceeded", nodes, charged, subsets, None
            k = low.bit_length() - 1
            sh = shadow | masks[k]
            if sh.bit_count() == need:
                if not low & twins:
                    break
                cost = COST[t, masks[k]]
                if nodes + cost > limit:
                    return ("budget-exceeded", limit + 1, charged + limit + 1 - nodes,
                            subsets, None)
                nodes += cost
                charged += cost
        else:
            t -= 1
            if t < 0:
                return "none", nodes, charged, subsets, None
            if U[t]:  # charge the untried twins of k what k cost
                k, e = K[t], LV[t]
                if same := (level_twins[e] or twins_of(e))[k] & U[t]:
                    COST[t, MASKS[t][k]] = nodes - N[t]
                    TW[t] |= same
            continue
        U[t], K[t], N[t], d, b, rem = untried, k, nodes, LV[t], B[t], R[t] ^ low
        if d < top and sh != shadow and _shadow_of(
                level_masks[d + 1], sh).bit_count() != mins[d + 1][sh.bit_count()]:
            # a dead prefix: count its subtree, and charge its twins the same
            room, bl = limit - nodes, tuple(blocks[d])
            placed = sum(bl[:b + 1]) ^ R[t]  # the positions placed before k
            below = _count(masks, mins[d], level_twins[d] or twins_of(d), bl,
                           placed | low, sh, room, memo.setdefault((d, bl), {}))
            cost = room + 1 if below is None else below[0]
            if below and below[1]:  # each completion fails on level d+1's blocks to sh
                chain = (*_steps(S[t - placed.bit_count() + 1:t + 1]), sh ^ shadow)
                above = _count(level_masks[d + 1], mins[d + 1],
                               level_twins[d + 1] or twins_of(d + 1), chain,
                               0, 0, room - cost, memo.setdefault((d + 1, chain), {}))
                cost = room + 1 if above is None else cost + below[1] * above[0]
            if nodes + cost > limit:
                return ("budget-exceeded", limit + 1, charged + limit + 1 - nodes,
                        subsets, None)
            nodes += cost
            charged += cost
            if same := level_twins[d][k] & untried:
                COST[t, masks[k]] = cost
                TW[t] |= same
            continue
        t += 1
        S[t], TW[t] = sh, 0
        if rem:
            U[t] = R[t] = rem
            B[t] = b
        elif b + 1 < len(blocks[d]):
            U[t] = R[t] = blocks[d][b + 1]
            B[t] = b + 1
        elif t < n:  # level d is complete: open the next nonempty level
            e = LV[t]
            if e > top:
                top = e
            bl = blocks[e] = _steps(S[t - len(level_masks[d]) + 1:t + 1])  # level d's chain
            if rest := ((1 << len(level_masks[e])) - 1) ^ S[t]:
                bl.append(rest)
            U[t] = R[t] = bl[0]
            S[t] = B[t] = 0
    rest = iter(K)  # positions, level by level
    placed = tuple(tuple(next(rest) for _ in masks) for masks in level_masks)
    if failure := _first_failure(level_masks, placed, mins):  # cannot happen
        raise RuntimeError(f"search produced an uncertified order: {failure}")
    return "found", nodes, charged, subsets, placed


def _new_shadows(o: LevelOrderFamily, d: int) -> list:
    """new[s][q]: the new shadow, as a bitmask over level d+1, of the
    q-segment at position s of level d's order, largest first: the
    shadow of positions [s, s+q) less the shadow of the positions above
    s.  Row s is one pass of ORs from s onward, so a level of n elements
    costs O(n^2)."""
    p = o.poset
    masks = shadow_masks(p, d)
    order = [masks[p.pos_in_level[i]] for i in o.descending(d)]
    new, above = [], 0
    for s, m in enumerate(order):
        row, own = [0], 0
        for later in order[s:]:
            own |= later
            row.append(own & ~above)
        new.append(row)
        above |= m
    return new


def new_shadow(o: LevelOrderFamily, d: int, start: int, stop: int) -> LevelSubset:
    """Shadow of the segment at positions [start, stop) of level d, minus
    the shadow of everything strictly larger."""
    if not (0 <= start <= stop <= len(o.descending(d))):
        raise PosetError(f"segment [{start},{stop}) out of range for level {d}")
    bits = _new_shadows(o, d)[start][stop - start] if start < stop else 0
    return LevelSubset(o.poset, d + 1, bits)


def is_additive(p: RankedPoset, o: LevelOrderFamily,
                level_cap: int = DEFAULT_LEVEL_CAP) -> Verdict:
    """Check the two new-shadow inequalities over every segment.

    Defined only for Macaulay pairs: raises if check_macaulay fails.
    For each level and size q the initial segment's new shadow must be
    largest and the final segment's smallest among all q-element
    segments.  Sizes q are scanned in increasing order, and for each q
    the segments from the top, so the first failure is the witness.
    The sizes come from one ``_new_shadows`` table per level, so the
    test is quadratic in the level width.
    """
    pre = check_macaulay(p, o, level_cap=level_cap)
    if not pre.ok:
        raise PosetError("additivity is defined for Macaulay posets; "
                         f"check failed: {pre.witness.detail}")
    for d in range(p.max_rank + 1):
        lv, new = o.descending(d), _new_shadows(o, d)
        n = len(new)
        for q in range(1, n + 1):
            first, last = new[0][q].bit_count(), new[n - q][q].bit_count()
            for s in range(n - q + 1):
                mid = new[s][q].bit_count()
                if mid > first:
                    rival, bound, beyond = lv[:q], first, "> initial"
                elif mid < last:
                    rival, bound, beyond = lv[n - q:], last, "< final"
                else:
                    continue
                return Verdict.failing(Witness(
                    "segment-inequality", level=d, q=q,
                    elements=tuple(lv[s:s + q]), rival=tuple(rival),
                    sizes=(mid, bound),
                    detail=f"segment at positions [{s},{s + q}) of level {d} has "
                           f"new shadow {mid} {beyond} segment's {bound}"))
    return Verdict.passing()
