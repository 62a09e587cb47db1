"""Per-level total orders: explicit lists, lexicographic, union
simplicial, and the twist order on heart-shaped posets.

Only same-rank comparisons ever matter to the Macaulay and additivity
checks, so a family stores one descending list per level; initial
segments are prefixes.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

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
    key = _labels_read_by(p, priority)
    per_level = []
    for d, lv in enumerate(p.levels):
        if len({key[i] for i in lv}) != len(lv):
            raise PosetError(f"duplicate labels within level {d}")
        per_level.append(tuple(sorted(lv, key=key.__getitem__, reverse=True)))
    return LevelOrderFamily(p, tuple(per_level))


def _labels_read_by(p: RankedPoset, priority):
    """Each element's exponent label with its coordinates in ``priority``
    order (all of ``p.var_names``, permuted; None keeps their order).
    The identity permutation returns ``p.labels`` itself; any other
    permutes at least two coordinates, so one ``itemgetter`` reads each
    label as a tuple."""
    if p.labels is None:
        raise PosetError("this order needs exponent labels")
    names = p.var_names or ()
    priority = names if priority is None else tuple(priority)
    if sorted(priority) != sorted(names):
        raise PosetError(f"priority {priority} does not permute variables {names}")
    if priority == names:
        return p.labels
    return list(map(itemgetter(*map(names.index, priority)), p.labels))


def union_simplicial_order(p: RankedPoset, factor_orders) -> LevelOrderFamily:
    """On a disjoint union, wedge or diamond ``p``, read through its
    provenance: within each level, later factors sit above earlier ones
    and each factor keeps its own order; built inductively for any arity.

    Merged glue points are normally alone in their level; if one ever
    shares a level it is placed last.
    """
    prov = p.provenance
    operation = getattr(prov, "operation", "a poset no operation built")
    if operation not in ("disjoint_union", "wedge", "diamond"):
        raise PosetError(f"union simplicial order undefined for {operation}")
    factor_orders = list(factor_orders)
    arity = prov.arity()
    if len(factor_orders) != arity:
        raise PosetError(f"need {arity} factor orders, got {len(factor_orders)}")

    def sort_key(i):
        rec = prov.sources[i]
        if len(rec) > 1:
            return (-1, 0)
        k, src = rec[0]
        return (k, -factor_orders[k].position(src))

    return LevelOrderFamily(p, tuple(tuple(sorted(lv, key=sort_key, reverse=True))
                                     for lv in p.levels))


def twist_order(heart: RankedPoset, a0: int, a1: int, b0: int, b1: int,
                priority=("y", "x")) -> LevelOrderFamily:
    """Twist order on a heart-shaped poset, for parameters with b1 >= a1.

    Labels are read in ``priority`` order, as ``lex_order`` reads them:
    the variable named first is compared first and its exponent splits
    the strips, so (x, y) reads the heart's labels mirrored.
    The low strip (first exponent below a1) is ordered by lex, the high
    strip by reversed lex, and every low-strip element sits below every
    high-strip element of its rank.
    """
    if b1 < a1:
        raise PosetError("twist order expects parameters with b1 >= a1")
    key = _labels_read_by(heart, priority)
    # the labels' set is the heart's cells when every label (k0, k1)
    # is a cell (k1, k0) of one of the two boxes and there are as many
    # distinct labels as cells.  As b1 >= a1, rows k0 < a1 reach the
    # wider box's side and rows a1 <= k0 < b1 the second box's; a
    # negative side holds no cell
    a0, a1, b0, b1 = (max(side, 0) for side in (a0, a1, b0, b1))
    wide = max(a0, b0)
    if (len(set(key)) != a0 * a1 + b0 * b1 - min(a0, b0) * min(a1, b1)
            or not all(0 <= k0 < b1 and 0 <= k1 < (wide if k0 < a1 else b0)
                       for k0, k1 in key)):
        raise PosetError("labels are not the heart poset of these parameters")

    def sort_key(i):
        k0, k1 = key[i]
        return (1, (-k0, -k1)) if k0 >= a1 else (0, key[i])

    return LevelOrderFamily(heart, tuple(tuple(sorted(lv, key=sort_key, reverse=True))
                                         for lv in heart.levels))


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
