"""Per-level total orders: explicit lists, lexicographic, union
simplicial, and the twist order on heart-shaped posets.

Only same-rank comparisons ever matter to the Macaulay and additivity
checks, so a family stores one descending list per level; initial
segments are prefixes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .construct import OperationResult, heart_cells
from .core import LevelSubset, PosetError, RankedPoset


@dataclass(frozen=True)
class LevelOrderFamily:
    """One total order per level, each listed from largest to smallest."""

    poset: RankedPoset
    per_level: tuple  # per_level[d] = ids of level d, descending

    def descending(self, d: int) -> tuple:
        if 0 <= d < len(self.per_level):
            return self.per_level[d]
        return ()

    def position(self, i: int) -> int:
        """Index of element i in its level's descending list (0 = largest)."""
        return self.descending(self.poset.rank[i]).index(i)

    def to_lists(self):
        return [list(l) for l in self.per_level]


def order_from_lists(p: RankedPoset, lists) -> LevelOrderFamily:
    """Wrap explicit per-level lists, rejecting anything but a permutation."""
    if isinstance(lists, dict):
        lists = [lists.get(d, []) for d in range(p.max_rank + 1)]
    lists = [list(l) for l in lists]
    if len(lists) != p.max_rank + 1:
        raise PosetError(f"expected {p.max_rank + 1} level lists, got {len(lists)}")
    for d, l in enumerate(lists):
        if sorted(l) != sorted(p.level(d)):
            raise PosetError(f"level {d} list is not a permutation of that level")
    return LevelOrderFamily(p, tuple(tuple(l) for l in lists))


def lex_order(p: RankedPoset, priority=None) -> LevelOrderFamily:
    """Sort each level descending by lex on exponent labels.

    ``priority`` permutes the variables; the first listed variable is
    compared first (so lex with y > x compares the y-exponent first).
    """
    if p.labels is None:
        raise PosetError("lex order needs exponent labels")
    names = p.var_names or ()
    if priority is None:
        priority = names
    priority = tuple(priority)
    if sorted(priority) != sorted(names):
        raise PosetError(f"priority {priority} does not permute variables {names}")
    perm = [names.index(v) for v in priority]
    key = {i: tuple(p.labels[i][k] for k in perm) for i in range(p.n)}
    per_level = []
    for d in range(p.max_rank + 1):
        lv = p.level(d)
        if len({key[i] for i in lv}) != len(lv):
            raise PosetError(f"duplicate labels within level {d}")
        per_level.append(tuple(sorted(lv, key=lambda i: key[i], reverse=True)))
    return LevelOrderFamily(p, tuple(per_level))


def union_simplicial_order(result: OperationResult, factor_orders) -> LevelOrderFamily:
    """Within each level, later factors sit above earlier ones and each
    factor keeps its own order; built inductively for any arity.

    Merged glue points are normally alone in their level; if one ever
    shares a level it is placed last.
    """
    if result.operation not in ("disjoint_union", "wedge", "diamond"):
        raise PosetError(f"union simplicial order undefined for {result.operation}")
    prov = result.provenance
    if prov is None:
        raise PosetError("operation result carries no provenance")
    factor_orders = list(factor_orders)
    arity = prov.arity()
    if len(factor_orders) != arity:
        raise PosetError(f"need {arity} factor orders, got {len(factor_orders)}")
    p = result.poset

    def sort_key(i):
        rec = prov.sources[i]
        if len(rec) > 1:
            return (-1, 0)
        k, src = rec[0]
        return (k, -factor_orders[k].position(src))

    per_level = []
    for d in range(p.max_rank + 1):
        lv = sorted(p.level(d), key=sort_key, reverse=True)
        per_level.append(tuple(lv))
    return LevelOrderFamily(p, tuple(per_level))


def twist_order(heart: RankedPoset, a0: int, a1: int, b0: int, b1: int) -> LevelOrderFamily:
    """Twist order on a heart-shaped poset, for parameters with b1 >= a1.

    The low strip (y-exponent below a1) is ordered by lex with y > x,
    the high strip by reversed lex, and every low-strip element sits
    below every high-strip element of its rank.
    """
    if heart.labels is None or len(heart.var_names or ()) != 2:
        raise PosetError("twist order needs a two-variable labeled poset")
    if b1 < a1:
        raise PosetError("twist order expects parameters with b1 >= a1")
    if set(heart.labels) != set(heart_cells(a0, a1, b0, b1)):
        raise PosetError("labels are not the heart poset of these parameters")
    lexkey = {i: (heart.labels[i][1], heart.labels[i][0]) for i in range(heart.n)}

    def sort_key(i):
        high = heart.labels[i][1] >= a1
        if high:
            return (1, tuple(-c for c in lexkey[i]))
        return (0, lexkey[i])

    per_level = []
    for d in range(heart.max_rank + 1):
        per_level.append(tuple(sorted(heart.level(d), key=sort_key, reverse=True)))
    return LevelOrderFamily(heart, tuple(per_level))


def initial_segment(o: LevelOrderFamily, d: int, q: int) -> LevelSubset:
    """The q largest rank-d elements."""
    lv = o.descending(d)
    if not 0 <= q <= len(lv):
        raise PosetError(f"segment size {q} out of range for level {d} of size {len(lv)}")
    return LevelSubset.of(o.poset, lv[:q], level=d)


def final_segment(o: LevelOrderFamily, d: int, q: int) -> LevelSubset:
    """The q smallest rank-d elements."""
    lv = o.descending(d)
    if not 0 <= q <= len(lv):
        raise PosetError(f"segment size {q} out of range for level {d} of size {len(lv)}")
    return LevelSubset.of(o.poset, lv[len(lv) - q:], level=d)
