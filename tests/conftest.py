"""Shared fixtures and independent brute-force oracles.

The oracles reimplement the definitions with plain loops over element
ids (no bitmask machinery) so they stay independent of the code paths
they check.
"""

import itertools

import pytest

from macposet import box, path, spider, wedge


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


@pytest.fixture
def small_corpus():
    return [
        path(3),
        box(2, 2),
        box(2, 3),
        spider(1, 2).poset,
        spider(2, 2).poset,
        wedge([box(2, 2), box(2, 2)]).poset,
    ]
