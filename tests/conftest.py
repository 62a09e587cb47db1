"""Shared fixtures and independent brute-force oracles.

The oracles reimplement the definitions with plain loops over element
ids (no bitmask machinery) so they stay independent of the code paths
they check.  The exceptions are ``reference_search``, the previous
order search kept unchanged, against which the current search is
checked node for node; ``reference_glue``, the previous union, wedge
and diamond builders, against which the one glue builder is checked
byte for byte; ``reference_shadow_masks`` and
``reference_cartesian_product``, the previous shadow-mask formula and
the previous pair-keyed cartesian product, against which the current
ones are checked mask for mask and byte for byte; and the previous
heart-row builders, ``reference_ranked_poset`` (eager ``down``),
``reference_monomial_poset``, ``reference_heart_cells``,
``reference_lex_order`` and ``reference_twist_order``, against which
the current ones are checked field for field; and
``reference_heart_rows``, the previous heart grid, which settled every
row afresh, against which the current one is checked byte for byte.

Three groups of helpers live here because only the tests use them:
``are_isomorphic`` (with ``PosetIso``), the isomorphism oracle behind
the construction identities; ``restrict_to_factors`` /
``restrict_order``, which restrict an operation output and an order
family to some factors for the paper's restriction claims; and the
round-trip oracles ``print_expression`` / ``print_order``, whose output
parses back to the same tree, and ``read_poset_text``, which reads back
what ``build`` writes.  ``relabel_swap_xy`` builds the mirrored copy of
a heart that heart orders once read; it is the oracle for reading the
heart's own labels mirrored.
"""

import itertools
from dataclasses import dataclass
from types import SimpleNamespace

import pytest
from hypothesis import strategies as st

from macposet import (InducedSubposet, LevelSubset, PosetError, RankedPoset,
                      Verdict, Witness, box, induced_subposet, path, spider,
                      wedge)
from macposet import classify
from macposet.construct import Provenance, _cover_pairs
from macposet.expr import Explicit, FileRef, Mono
from macposet.ideals import box_cells
from macposet.macaulay import (DEFAULT_BUDGET, DEFAULT_LEVEL_CAP, SearchResult,
                               SearchStats, check_macaulay, min_shadow_table,
                               shadow_masks)
from macposet.orders import LevelOrderFamily


def naive_upper_shadow(p, ids):
    out = set()
    for a in ids:
        out.update(p.up[a])
    return out


def naive_lower_shadow(p, ids):
    out = set()
    for a in ids:
        out.update(p.down[a])
    return out


def brute_min_shadow(p, d):
    """Minimum shadow size per cardinality, by enumerating combinations."""
    level = p.level(d)
    mins = [0] * (len(level) + 1)
    for q in range(1, len(level) + 1):
        mins[q] = min(len(naive_upper_shadow(p, comb))
                      for comb in itertools.combinations(level, q))
    return mins


def definition_check(p, per_level):
    """The Macaulay definition, verbatim: for every level and size, the
    initial segment's shadow is minimal and is again an initial segment."""
    for d in range(p.max_rank + 1):
        level = p.level(d)
        order = per_level[d]
        nxt = per_level[d + 1] if d + 1 <= p.max_rank else []
        for q in range(len(level) + 1):
            seg = order[:q]
            sh = naive_upper_shadow(p, seg)
            for comb in itertools.combinations(level, q):
                if len(naive_upper_shadow(p, comb)) < len(sh):
                    return False
            if set(nxt[:len(sh)]) != sh:
                return False
    return True


def brute_order_exists(p):
    """Try every per-level order tuple; feasible only for tiny levels."""
    pools = [list(itertools.permutations(p.level(d)))
             for d in range(p.max_rank + 1)]
    for combo in itertools.product(*pools):
        if definition_check(p, [list(c) for c in combo]):
            return True
    return False


def layered_order_exists(p):
    """Order existence one level at a time.  Level d's condition involves
    only the orders of levels d and d+1, so keep the set of level-(d+1)
    orders reachable from some valid level-d order; an order family
    exists exactly when that set never runs empty."""
    reach = set(itertools.permutations(p.level(0)))
    for d in range(p.max_rank + 1):
        mins = brute_min_shadow(p, d)

        def valid(order, nxt):
            for q in range(len(order) + 1):
                sh = naive_upper_shadow(p, order[:q])
                if len(sh) != mins[q] or set(nxt[:len(sh)]) != sh:
                    return False
            return True

        reach = {nxt for nxt in itertools.permutations(p.level(d + 1))
                 if any(valid(order, nxt) for order in reach)}
        if not reach:
            return False
    return True


@st.composite
def small_ranked_posets(draw, max_width=6, levels=None, twins=False):
    """Random covers between consecutive levels of 1 to 4 levels, or of
    exactly ``levels`` levels.  With ``twins`` the elements of a level
    take their up-cover sets, with repeats, from one to three distinct
    sets drawn for that level, so equal shadow masks are common."""
    sizes = draw(st.lists(st.integers(1, max_width), min_size=levels or 1,
                          max_size=levels or 4))
    starts = [sum(sizes[:d]) for d in range(len(sizes))]
    ranks = [d for d, s in enumerate(sizes) for _ in range(s)]
    covers = []
    for d in range(len(sizes) - 1):
        up_sets = st.frozensets(st.integers(0, sizes[d + 1] - 1))
        if twins:
            up_sets = st.sampled_from(draw(st.lists(up_sets, min_size=1, max_size=3,
                                                    unique=True)))
        for i in range(sizes[d]):
            ups = draw(up_sets)
            covers += [(starts[d] + i, starts[d + 1] + u) for u in sorted(ups)]
    return RankedPoset(ranks, covers)


def dealt_out(p, perm):
    """(ranks, covers) of p with element i renamed perm[i], so the ids
    need not be in rank order."""
    ranks = [0] * p.n
    for i, j in enumerate(perm):
        ranks[j] = p.rank[i]
    return ranks, [(perm[a], perm[b]) for a in range(p.n) for b in p.up[a]]


@st.composite
def twin_heavy_posets(draw, max_width=6):
    """3 or 4 levels whose elements take their up-cover sets from one to
    three distinct nonempty sets drawn for their level, the first one
    taken widened by whatever the taken sets leave out, so every element
    above level 0 is covered.  Every level has twins, and the
    search's blocks hold runs of them, so dead prefixes are counted
    over twin groups on both sides of a level."""
    sizes = draw(st.lists(st.integers(1, max_width), min_size=3, max_size=4))
    starts = [sum(sizes[:d]) for d in range(len(sizes))]
    ranks = [d for d, s in enumerate(sizes) for _ in range(s)]
    covers = []
    for d in range(len(sizes) - 1):
        sets = draw(st.lists(st.frozensets(st.integers(0, sizes[d + 1] - 1), min_size=1),
                             min_size=1, max_size=3, unique=True))
        picks = draw(st.lists(st.integers(0, len(sets) - 1), min_size=sizes[d],
                              max_size=sizes[d]))
        sets[picks[0]] |= frozenset(range(sizes[d + 1])).difference(
            *(sets[i] for i in set(picks)))
        for i, pick in enumerate(picks):
            covers += [(starts[d] + i, starts[d + 1] + u) for u in sorted(sets[pick])]
    return RankedPoset(ranks, covers)


def reference_search(p, budget=DEFAULT_BUDGET, level_cap=DEFAULT_LEVEL_CAP):
    """The frame-stack order search that ``find_macaulay_order`` replaced,
    kept as an oracle: the two must give the same status, node count and
    level orders on every input and budget.

    The search is one loop over an explicit stack of frames, so no input
    is too deep for it.  A frame ``[d, bi, blocks, remaining, untried,
    shadow]`` places the next element of level d: ``blocks`` are the
    bitmasks of level d's forced partition, ``remaining`` the positions
    of block ``bi`` not yet placed, ``untried`` those not yet tried by
    this frame (lowest position first), and ``shadow`` the shadow of
    level d's order so far.  Each candidate tried is one search node.  A
    candidate whose shadow meets the table minimum is appended to level
    d's order and the frame for the next position is pushed; that is
    the next level's first frame when level d is complete, and ``None``
    past the top level.  An exhausted frame is popped, which undoes the
    placement made by the frame below it.
    """
    table = min_shadow_table(p, level_cap=level_cap)
    stats = SearchStats(subsets_enumerated=table.subsets_enumerated)
    height = p.max_rank + 1
    level_masks = [shadow_masks(p, d) for d in range(height)]
    chosen = [[] for _ in range(height)]  # level orders, as positions

    def blocks_for(d: int):
        # partition of level-d positions forced by the order below
        blocks = []
        seen = acc = 0
        if d:
            for k in chosen[d - 1]:
                acc |= level_masks[d - 1][k]
                if acc != seen:
                    blocks.append(acc & ~seen)
                    seen = acc
        rest = ((1 << len(p.level(d))) - 1) & ~seen
        if rest:
            blocks.append(rest)
        return blocks

    def first_frame(d: int):
        # empty levels have no frame: their order is empty
        for d in range(d, height):
            blocks = blocks_for(d)
            if blocks:
                return [d, 0, blocks, blocks[0], blocks[0], 0]
        return None

    stack = [first_frame(0)]
    while stack[-1] is not None:
        frame = stack[-1]
        d, bi, blocks, remaining, untried, shadow = frame
        if not untried:
            stack.pop()
            if not stack:
                return SearchResult("none", stats, p, None)
            chosen[stack[-1][0]].pop()
            continue
        low = untried & -untried
        frame[4] = untried ^ low
        stats.nodes += 1
        if budget is not None and stats.nodes > budget:
            return SearchResult("budget-exceeded", stats, p, None)
        k = low.bit_length() - 1
        sh = shadow | level_masks[d][k]
        order = chosen[d]
        if sh.bit_count() != table.mins[d][len(order) + 1]:
            continue
        order.append(k)
        remaining ^= low
        if remaining:
            stack.append([d, bi, blocks, remaining, remaining, sh])
        elif bi + 1 < len(blocks):
            stack.append([d, bi + 1, blocks, blocks[bi + 1], blocks[bi + 1], sh])
        else:
            stack.append(first_frame(d + 1))
    res = SearchResult("found", stats, p, tuple(map(tuple, chosen)))
    verdict = check_macaulay(p, res.order, level_cap=level_cap)
    if not verdict.ok:  # the construction guarantees this cannot happen
        raise RuntimeError(f"search produced an uncertified order: {verdict.witness}")
    return res


def reference_shadow_masks(p):
    """The shadow masks as ``RankedPoset._shadow_masks`` summed them,
    one generator of position bits per element, kept as an oracle."""
    pos = p.pos_in_level
    return tuple(tuple(sum(1 << pos[b] for b in p.up[i]) for i in lv)
                 for lv in p.levels)


def _reference_prefix_masks(o: LevelOrderFamily, d: int):
    """Order-position shadow masks for level d of the family."""
    p = o.poset
    masks = shadow_masks(p, d)
    return [masks[p.pos_in_level[i]] for i in o.descending(d)]


def reference_new_shadow(o: LevelOrderFamily, d: int, start: int, stop: int) -> LevelSubset:
    """The previous ``new_shadow``, which ORed the positions above the
    segment and the segment's own, kept as an oracle."""
    lv = o.descending(d)
    if not (0 <= start <= stop <= len(lv)):
        raise PosetError(f"segment [{start},{stop}) out of range for level {d}")
    p = o.poset
    masks = _reference_prefix_masks(o, d)
    above = 0
    for k in range(start):
        above |= masks[k]
    own = 0
    for k in range(start, stop):
        own |= masks[k]
    return LevelSubset(p, d + 1, own & ~above)


def reference_is_additive(p: RankedPoset, o: LevelOrderFamily,
                          level_cap: int = DEFAULT_LEVEL_CAP) -> Verdict:
    """The previous ``is_additive``, which ORed every segment afresh,
    cubic in the level width, kept as an oracle: the two must give the
    same verdict and witness, or raise the same message."""
    pre = check_macaulay(p, o, level_cap=level_cap)
    if not pre.ok:
        raise PosetError("additivity is defined for Macaulay posets; "
                         f"check failed: {pre.witness.detail}")
    for d in range(p.max_rank + 1):
        masks = _reference_prefix_masks(o, d)
        n = len(masks)
        prefix = [0]
        for m in masks:
            prefix.append(prefix[-1] | m)

        def nsh(start, stop):
            own = 0
            for k in range(start, stop):
                own |= masks[k]
            return (own & ~prefix[start]).bit_count()

        for q in range(1, n + 1):
            first = nsh(0, q)
            last = nsh(n - q, n)
            for s in range(n - q + 1):
                mid = nsh(s, s + q)
                if mid > first:
                    return Verdict.failing(Witness(
                        "segment-inequality", level=d, q=q,
                        elements=tuple(o.descending(d)[s:s + q]),
                        rival=tuple(o.descending(d)[:q]),
                        sizes=(mid, first),
                        detail=f"segment at positions [{s},{s + q}) of level {d} has "
                               f"new shadow {mid} > initial segment's {first}"))
                if mid < last:
                    return Verdict.failing(Witness(
                        "segment-inequality", level=d, q=q,
                        elements=tuple(o.descending(d)[s:s + q]),
                        rival=tuple(o.descending(d)[n - q:]),
                        sizes=(mid, last),
                        detail=f"segment at positions [{s},{s + q}) of level {d} has "
                               f"new shadow {mid} < final segment's {last}"))
    return Verdict.passing()


def reference_cartesian_product(p, q) -> RankedPoset:
    """The cartesian product that sorted its pairs with a key function
    and indexed them in a dict keyed on the pair, kept as an oracle: the
    current one must give the same ids, covers, labels, name and
    provenance."""
    pairs = sorted(((a, b) for a in range(p.n) for b in range(q.n)),
                   key=lambda ab: (p.rank[ab[0]] + q.rank[ab[1]], ab[0], ab[1]))
    idx = {ab: k for k, ab in enumerate(pairs)}
    ranks = [p.rank[a] + q.rank[b] for a, b in pairs]
    covers = []
    for (a, b), k in idx.items():
        for a2 in p.up[a]:
            covers.append((k, idx[(a2, b)]))
        for b2 in q.up[b]:
            covers.append((k, idx[(a, b2)]))
    labels = None
    var_names = None
    if (p.labels is not None and q.labels is not None and p.var_names and q.var_names
            and not set(p.var_names) & set(q.var_names)):
        labels = [p.labels[a] + q.labels[b] for a, b in pairs]
        var_names = p.var_names + q.var_names
    sources = tuple(((0, a), (1, b)) for a, b in pairs)
    name = f"cart({p.name or '?'},{q.name or '?'})"
    return RankedPoset(ranks, covers, labels=labels, var_names=var_names, name=name,
                       provenance=Provenance("cartesian", sources))


def reference_ranked_poset(ranks, covers, labels=None, var_names=None, name=""):
    """The previous ``RankedPoset.__init__``, which checked each cover's
    bounds as it appended it to ``up`` and ``down`` and built ``down``
    eagerly, kept as an oracle: returns the fields it set."""
    self = SimpleNamespace()
    self.rank = tuple(map(int, ranks))
    self.n = len(self.rank)
    if min(self.rank, default=0) < 0:
        raise PosetError("ranks must be nonnegative")
    up = [[] for _ in range(self.n)]
    down = [[] for _ in range(self.n)]
    for a, b in sorted(set(covers)):  # b covers a; up and down come out sorted
        if not (0 <= a < self.n and 0 <= b < self.n):
            raise PosetError(f"cover ({a},{b}) references unknown element")
        up[a].append(b)
        down[b].append(a)
    self.up = tuple(map(tuple, up))
    self.down = tuple(map(tuple, down))
    lv = [[] for _ in range(max(self.rank, default=-1) + 1)]
    pos = [0] * self.n
    for i, r in enumerate(self.rank):
        pos[i] = len(lv[r])
        lv[r].append(i)
    self.levels = tuple(map(tuple, lv))
    self.pos_in_level = tuple(pos)
    self.labels = tuple(tuple(v) for v in labels) if labels is not None else None
    self.var_names = tuple(var_names) if var_names is not None else None
    self.name = name
    return self


def poset_fields(p) -> tuple:
    """What ``reference_ranked_poset`` sets, read from either poset."""
    return (p.rank, p.up, p.down, p.levels, p.pos_in_level, p.labels,
            p.var_names, p.name)


def reference_monomial_poset(cells, var_names, name):
    """The previous ``monomial_poset``, which sliced each cell around one
    raised coordinate, kept as an oracle on ``reference_ranked_poset``."""
    index = {m: k for k, m in enumerate(cells)}
    ranks = [sum(m) for m in cells]
    covers = []
    for m, a in index.items():
        for v in range(len(var_names)):
            b = index.get(m[:v] + (m[v] + 1,) + m[v + 1:])
            if b is not None:
                covers.append((a, b))
    return reference_ranked_poset(ranks, covers, labels=cells, var_names=var_names,
                                  name=name)


def reference_heart_cells(a0: int, a1: int, b0: int, b1: int) -> list:
    """The previous ``heart_cells``, which enumerated the three boxes'
    cells afresh and dropped the overlap's through a set, kept as an
    oracle."""
    base = box_cells((min(a0, b0), min(a1, b1)))
    seen = set(base)
    return base + [m for dims in ((a0, a1), (b0, b1))
                   for m in box_cells(dims) if m not in seen]


def _reference_labels_read_by(p, priority) -> list:
    if p.labels is None:
        raise PosetError("this order needs exponent labels")
    names = p.var_names or ()
    priority = names if priority is None else tuple(priority)
    if sorted(priority) != sorted(names):
        raise PosetError(f"priority {priority} does not permute variables {names}")
    perm = [names.index(v) for v in priority]
    return [tuple(lab[k] for k in perm) for lab in p.labels]


def reference_lex_order(p, priority=None) -> LevelOrderFamily:
    """The previous ``lex_order``, which read every label through a
    generator and sorted with a lambda, kept as an oracle."""
    key = _reference_labels_read_by(p, priority)
    per_level = []
    for d, lv in enumerate(p.levels):
        if len({key[i] for i in lv}) != len(lv):
            raise PosetError(f"duplicate labels within level {d}")
        per_level.append(tuple(sorted(lv, key=lambda i: key[i], reverse=True)))
    return LevelOrderFamily(p, tuple(per_level))


def reference_twist_order(heart, a0: int, a1: int, b0: int, b1: int,
                          priority=("y", "x")) -> LevelOrderFamily:
    """The previous ``twist_order``, which compared the labels' set with
    the set of the rebuilt heart cells, kept as an oracle: the current
    check must accept exactly the same labels."""
    if b1 < a1:
        raise PosetError("twist order expects parameters with b1 >= a1")
    key = _reference_labels_read_by(heart, priority)
    if {(k1, k0) for k0, k1 in key} != set(reference_heart_cells(a0, a1, b0, b1)):
        raise PosetError("labels are not the heart poset of these parameters")

    def sort_key(i):
        k0, k1 = key[i]
        return (1, (-k0, -k1)) if k0 >= a1 else (0, key[i])

    return LevelOrderFamily(heart, tuple(tuple(sorted(lv, key=sort_key, reverse=True))
                                         for lv in heart.levels))


def reference_heart_rows(bounds, budget, level_cap):
    """The previous heart-grid rows, which built, searched and checked
    the heart of every parameter tuple, kept as an oracle.  It reads
    ``classify``'s names when called, so a test's monkeypatch of them
    reaches both grids."""
    for t in itertools.product(classify._span(bounds["side"]), repeat=4):
        pred = classify.heart_predicate(*t)
        hp = classify.build_heart(*t)
        row = {"params": list(t), "predicate": pred,
               **classify._searched(hp, budget, level_cap, pred)}
        if pred and row["agree"] is not None:
            choice = classify.heart_order_choice(*t)
            order = classify.resolve_heart_order(hp, choice)
            row["recommended_ok"] = classify.check_macaulay(hp, order, level_cap).ok
            row["agree"] = row["agree"] and row["recommended_ok"]
            row["recommended"] = choice.to_json()
        yield row


def reference_glue(ps, operation):
    """The separate disjoint union, wedge and diamond builders that the
    one glue builder replaced, kept as an oracle: the two must give the
    same ids, covers, names, provenance and errors."""
    return {"disjoint_union": _reference_union, "wedge": _reference_wedge,
            "diamond": _reference_diamond}[operation](ps)


def _reference_union(ps) -> RankedPoset:
    ps = list(ps)
    covers, ranks, sources = [], [], []
    offset = 0
    for k, p in enumerate(ps):
        ranks.extend(p.rank)
        covers.extend((a + offset, b + offset) for a, b in _cover_pairs(p))
        sources.extend(((k, i),) for i in range(p.n))
        offset += p.n
    name = "union(" + ",".join(p.name or "?" for p in ps) + ")"
    return RankedPoset(ranks, covers, name=name,
                       provenance=Provenance("disjoint_union", tuple(sources)))


def _unique_min(p: RankedPoset, k: int) -> int:
    mins = p.minimal_elements()
    if len(mins) != 1:
        raise PosetError(f"factor {k} has {len(mins)} minimal elements, needs exactly 1")
    return mins[0]


def _unique_max(p: RankedPoset, k: int) -> int:
    maxs = p.maximal_elements()
    if len(maxs) != 1:
        raise PosetError(f"factor {k} has {len(maxs)} maximal elements, needs exactly 1")
    return maxs[0]


def _reference_wedge(ps) -> RankedPoset:
    ps = list(ps)
    mins = [_unique_min(p, k) for k, p in enumerate(ps)]
    glue_rank = ps[0].rank[mins[0]]
    for k, p in enumerate(ps):
        if p.rank[mins[k]] != glue_rank:
            raise PosetError(f"factor {k} minimum has rank {p.rank[mins[k]]}, "
                             f"expected {glue_rank}")
    ranks = [glue_rank]
    sources = [tuple((k, mins[k]) for k in range(len(ps)))]
    covers = []
    new_id = {}
    nxt = 1
    for k, p in enumerate(ps):
        for i in range(p.n):
            if i == mins[k]:
                new_id[(k, i)] = 0
            else:
                new_id[(k, i)] = nxt
                ranks.append(p.rank[i])
                sources.append(((k, i),))
                nxt += 1
        covers.extend((new_id[(k, a)], new_id[(k, b)]) for a, b in _cover_pairs(p))
    name = "wedge(" + ",".join(p.name or "?" for p in ps) + ")"
    return RankedPoset(ranks, covers, name=name,
                       provenance=Provenance("wedge", tuple(sources)))


def _reference_diamond(ps) -> RankedPoset:
    ps = list(ps)
    mins = [_unique_min(p, k) for k, p in enumerate(ps)]
    maxs = [_unique_max(p, k) for k, p in enumerate(ps)]
    for k, p in enumerate(ps):
        if mins[k] == maxs[k]:
            raise PosetError(f"factor {k} has its minimum equal to its maximum")
    bot_rank = ps[0].rank[mins[0]]
    top_rank = ps[0].rank[maxs[0]]
    for k, p in enumerate(ps):
        if p.rank[mins[k]] != bot_rank:
            raise PosetError(f"factor {k} minimum rank differs")
        if p.rank[maxs[k]] != top_rank:
            raise PosetError(f"factor {k} maximum has rank {p.rank[maxs[k]]}, "
                             f"expected {top_rank}")
    ranks = [bot_rank]
    sources = [tuple((k, mins[k]) for k in range(len(ps)))]
    covers = []
    new_id = {}
    nxt = 1
    for k, p in enumerate(ps):
        for i in range(p.n):
            if i == mins[k]:
                new_id[(k, i)] = 0
            elif i == maxs[k]:
                continue
            else:
                new_id[(k, i)] = nxt
                ranks.append(p.rank[i])
                sources.append(((k, i),))
                nxt += 1
    top = nxt
    ranks.append(top_rank)
    sources.append(tuple((k, maxs[k]) for k in range(len(ps))))
    for k, p in enumerate(ps):
        new_id[(k, maxs[k])] = top
        covers.extend((new_id[(k, a)], new_id[(k, b)]) for a, b in _cover_pairs(p))
    name = "diamond(" + ",".join(p.name or "?" for p in ps) + ")"
    return RankedPoset(ranks, covers, name=name,
                       provenance=Provenance("diamond", tuple(sources)))


@dataclass(frozen=True)
class PosetIso:
    """A rank- and cover-preserving bijection between two posets."""

    mapping: tuple  # mapping[i] = image of i

    def inverse(self) -> "PosetIso":
        inv = [0] * len(self.mapping)
        for i, j in enumerate(self.mapping):
            inv[j] = i
        return PosetIso(tuple(inv))

    def compose(self, other: "PosetIso") -> "PosetIso":
        """self after other: i -> self(other(i))."""
        return PosetIso(tuple(self.mapping[j] for j in other.mapping))

    def is_valid(self, p: RankedPoset, q: RankedPoset) -> bool:
        m = self.mapping
        if len(m) != p.n or p.n != q.n or sorted(m) != list(range(q.n)):
            return False
        for i in range(p.n):
            if p.rank[i] != q.rank[m[i]]:
                return False
            if sorted(m[b] for b in p.up[i]) != list(q.up[m[i]]):
                return False
        return True


def _refined_signatures(p: RankedPoset, rounds: int = 2):
    sig = [(p.rank[i], len(p.up[i]), len(p.down[i])) for i in range(p.n)]
    for _ in range(rounds):
        sig = [
            (sig[i], tuple(sorted(sig[b] for b in p.up[i])),
             tuple(sorted(sig[b] for b in p.down[i])))
            for i in range(p.n)
        ]
    return sig


def are_isomorphic(p: RankedPoset, q: RankedPoset) -> PosetIso | None:
    """Search for an isomorphism; None when provably absent.

    Backtracking over rank-respecting candidate maps, pruned by refined
    (rank, up-degree, down-degree) signatures.  Candidates are tried in
    ascending id order, so the returned map is deterministic.
    """
    if p.n != q.n or p.level_sizes() != q.level_sizes():
        return None
    sp = _refined_signatures(p)
    sq = _refined_signatures(q)
    if sorted(map(repr, sp)) != sorted(map(repr, sq)):
        return None
    by_sig: dict = {}
    for j in range(q.n):
        by_sig.setdefault(repr(sq[j]), []).append(j)
    cands = [by_sig.get(repr(sp[i]), []) for i in range(p.n)]
    # most-constrained-first, ties by id for determinism
    order = sorted(range(p.n), key=lambda i: (len(cands[i]), i))
    mapping = [-1] * p.n
    used = [False] * q.n

    def fits(i, j):
        for b in p.up[i]:
            jb = mapping[b]
            if jb >= 0 and jb not in q.up[j]:
                return False
        for b in p.down[i]:
            jb = mapping[b]
            if jb >= 0 and j not in q.up[jb]:
                return False
        # mapped q-covers of j must be hit by covers of i
        for jb in q.up[j]:
            if used[jb]:
                src = mapping.index(jb)
                if src not in p.up[i]:
                    return False
        for jb in q.down[j]:
            if used[jb]:
                src = mapping.index(jb)
                if src not in p.down[i]:
                    return False
        return True

    def extend(k):
        if k == p.n:
            return True
        i = order[k]
        for j in cands[i]:
            if not used[j] and fits(i, j):
                mapping[i] = j
                used[j] = True
                if extend(k + 1):
                    return True
                mapping[i] = -1
                used[j] = False
        return False

    if extend(0):
        iso = PosetIso(tuple(mapping))
        assert iso.is_valid(p, q)
        return iso
    return None


def restrict_to_factors(p: RankedPoset, factor_indices) -> InducedSubposet:
    """Induced subposet of an operation output on the elements coming
    from the given factors.

    Glue points whose sources meet the chosen factors are kept, so the
    restriction of a diamond to two factors is again their diamond.
    """
    wanted = set(factor_indices)
    ids = [i for i, rec in enumerate(p.provenance.sources)
           if any(f in wanted for f, _ in rec)]
    return induced_subposet(p, ids)


def restrict_order(o: LevelOrderFamily, sub: InducedSubposet) -> LevelOrderFamily:
    """Filter each level list to the surviving elements, order preserved."""
    keep = sub.new_of_old
    per_level = []
    for d in range(sub.poset.max_rank + 1):
        per_level.append(tuple(keep[i] for i in o.descending(d) if i in keep))
    return LevelOrderFamily(sub.poset, tuple(per_level))


def relabel_swap_xy(p: RankedPoset) -> RankedPoset:
    """Mirror a two-variable labeled poset by swapping exponent coordinates."""
    if p.labels is None or len(p.var_names or ()) != 2:
        raise PosetError("swap needs a two-variable labeled poset")
    labels = [(b, a) for a, b in p.labels]
    return RankedPoset(p.rank, _cover_pairs(p), labels=labels,
                       var_names=p.var_names, name=f"swapxy({p.name or '?'})")


def print_expression(node) -> str:
    if isinstance(node, int):
        return str(node)
    if isinstance(node, FileRef):
        return f'"{node.path}"'
    if isinstance(node, Mono):
        if not node.factors:
            return "1"
        return "*".join(v if e == 1 else f"{v}^{e}" for v, e in node.factors)
    if isinstance(node, Explicit):
        ranks = " ".join(str(r) for r in node.ranks)
        covers = ", ".join(f"{a} {b}" for a, b in node.covers)
        return f"explicit{{{node.count}; {ranks}; {covers}}}"
    return f"{node.fn}(" + ", ".join(print_expression(a) for a in node.args) + ")"


def print_order(node) -> str:
    if node.fn == "twist":
        return "twist"
    if node.fn == "lex":
        return "lex(" + ", ".join(node.args) + ")"
    if node.fn == "us":
        return "us(" + ", ".join(print_order(a) for a in node.args) + ")"
    return f'lists("{node.args[0].path}")'


def read_poset_text(text):
    """The poset, provenance included, that ``serialize.poset_to_text``
    wrote; it trusts its input, which only that writer makes."""
    lines = iter(text.splitlines())
    assert next(lines) == "macposet 1"
    line, name = next(lines), ""
    if line.startswith("name "):
        line, name = next(lines), line[5:]
    n = int(line.split()[1])
    ranks = [int(t) for t in next(lines).split()[1:]]
    covers = [tuple(int(t) for t in next(lines).split())
              for _ in range(int(next(lines).split()[1]))]
    labels = var_names = provenance = None
    for line in lines:
        head = line.split()
        if head[0] == "labels":
            var_names = tuple(head[2:])
            labels = [tuple(int(t) for t in next(lines).split()) for _ in range(n)]
        else:  # provenance OP N
            provenance = Provenance(head[1], tuple(
                tuple(tuple(int(t) for t in item.split(":"))
                      for item in next(lines).split())
                for _ in range(int(head[2]))))
    return RankedPoset(ranks, covers, labels=labels, var_names=var_names, name=name,
                       provenance=provenance)


@pytest.fixture
def small_corpus():
    return [
        path(3),
        box(2, 2),
        box(2, 3),
        spider(1, 2),
        spider(2, 2),
        wedge([box(2, 2), box(2, 2)]),
    ]
