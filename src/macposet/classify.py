"""Closed-form classification predicates, recommended-order selection,
and the grid harness that cross-checks predicates against exhaustive
search."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .construct import (adjoin_extreme, box, build_heart, cartesian_product,
                        diamond, disjoint_union, heart_cells, path,
                        remove_extreme, spider, wedge)
from .core import PosetError, RankedPoset
from .expr import evaluate, parse_expression
from .ideals import monomial_poset
from .macaulay import (DEFAULT_BUDGET, DEFAULT_LEVEL_CAP, check_macaulay,
                       find_macaulay_order)
from .orders import LevelOrderFamily, lex_order, twist_order


# ---------------------------------------------------------------- predicates

def heart_predicate(a0: int, a1: int, b0: int, b1: int) -> bool:
    """Macaulayness of the fiber product of an a0 x a1 and a b0 x b1 box
    over their coordinatewise-minimum box, as a literal disjunction."""
    if min(a0, a1, b0, b1) < 1:
        raise PosetError("heart parameters must be >= 1")
    if a0 <= b0 and a1 <= b1:
        return True
    if b0 <= a0 and b1 <= a1:
        return True
    if b0 < a0 and a1 < b1:
        return (a0 == b1
                or (b1 < a0 and b1 + b0 <= a0 + a1)
                or (a0 < b1 and a0 + a1 <= b0 + b1))
    if a0 < b0 and b1 < a1:
        return (b0 == a1
                or (a1 < b0 and a1 + a0 <= b0 + b1)
                or (b0 < a1 and b0 + b1 <= a0 + a1))
    return False


@dataclass(frozen=True)
class HeartOrderChoice:
    """Which order certifies a Macaulay heart, after normalization.

    ``kind`` is "lex" or "twist", both with priority y > x on the
    normalized labels; ``swap_xy`` says the labels are read mirrored
    (x-exponent first).  ``params`` are the normalized (a0, a1, b0, b1).
    """

    kind: str
    swap_xy: bool
    params: tuple

    def to_json(self):
        return {"kind": self.kind, "swap_xy": self.swap_xy,
                "params": list(self.params)}


def heart_order_choice(a0: int, a1: int, b0: int, b1: int) -> HeartOrderChoice:
    """Pick lex or twist per the classification's order-choice rule.

    Nested parameters collapse to a box, which takes lex with the
    shorter side first.  Otherwise normalize so a0 >= b1 and
    a0+a1 >= b0+b1 (mirroring x and y and relabeling the factors when
    needed); then lex when a1+b0 > b1, twist when a1+b0 <= b1.
    """
    if not heart_predicate(a0, a1, b0, b1):
        raise PosetError(f"heart({a0},{a1},{b0},{b1}) is not Macaulay")
    nested_ab = a0 <= b0 and a1 <= b1
    nested_ba = b0 <= a0 and b1 <= a1
    if nested_ab or nested_ba:
        m0, m1 = (b0, b1) if nested_ab else (a0, a1)
        # lex with y > x is the sorted Clements-Lindstrom order iff m1 <= m0
        return HeartOrderChoice("lex", swap_xy=m1 > m0, params=(m0, m1, m0, m1))
    if a0 < b0 and b1 < a1:  # factor relabeling only; the poset is unchanged
        a0, a1, b0, b1 = b0, b1, a0, a1
    swap = not (a0 >= b1 and a0 + a1 >= b0 + b1)
    if swap:
        a0, a1, b0, b1 = b1, b0, a1, a0
    kind = "lex" if a1 + b0 > b1 else "twist"
    return HeartOrderChoice(kind, swap_xy=swap, params=(a0, a1, b0, b1))


def resolve_heart_order(heart: RankedPoset, choice: HeartOrderChoice) -> LevelOrderFamily:
    """Materialize the chosen order on a heart poset built by build_heart,
    reading its labels mirrored when the choice says so."""
    prio = ("x", "y") if choice.swap_xy else ("y", "x")
    if choice.kind == "lex":
        return lex_order(heart, prio)
    return twist_order(heart, *choice.params, priority=prio)


def diamond_box_predicate(dims_p, dims_q) -> bool:
    """Macaulayness of the diamond of two boxes of equal top rank.

    Sides of length one are trivial factors and are dropped before the
    dimension counts.
    """
    p = tuple(sorted(d for d in dims_p if d > 1))
    q = tuple(sorted(d for d in dims_q if d > 1))
    rank_p = sum(d - 1 for d in p)
    rank_q = sum(d - 1 for d in q)
    if rank_p != rank_q:
        raise PosetError(f"boxes have ranks {rank_p} and {rank_q}; "
                         "the diamond product needs equal top ranks")
    if p == q:
        return True
    if len(p) == 1 and len(q) == 2 and 2 in q:
        return True
    if len(q) == 1 and len(p) == 2 and 2 in p:
        return True
    return False


def wedge_box_predicate(kind: str, params) -> bool:
    """Wedge classifications: two 2-D boxes, or a path and a 2-D box."""
    if kind == "2d":
        m, n, m2, n2 = params
        if not (1 < m <= n and 1 < m2 <= n2):
            raise PosetError("2d wedge predicate needs m<=n, m'<=n', sides > 1")
        return (m <= m2 and n <= n2) or (m2 <= m and n2 <= n)
    if kind == "path":
        n, m2, n2 = params
        if not (n >= 1 and 1 <= m2 <= n2):
            raise PosetError("path wedge predicate needs n >= 1 and m' <= n'")
        return n <= n2 or m2 in (1, 2)
    raise PosetError(f"unknown wedge predicate kind {kind!r}")


# ------------------------------------------------------------------ harness

@dataclass
class GridReport:
    family: str
    rows: list = field(default_factory=list)

    @property
    def disagreements(self) -> list:
        return [r for r in self.rows if r.get("agree") is False]

    @property
    def inconclusive(self) -> list:
        return [r for r in self.rows if "budget-exceeded" in (
            r.get("search"), r.get("base"), r.get("hat"), *r.get("forms", {}).values())]

    @property
    def all_agree(self) -> bool:
        return not self.disagreements

    @property
    def counters(self) -> dict:
        return {"search_nodes": sum(r.get("nodes", 0) for r in self.rows),
                "subsets_enumerated": sum(r.get("subsets", 0) for r in self.rows)}

    def to_json(self):
        return {
            "family": self.family,
            "rows": self.rows,
            "disagreements": self.disagreements,
            "inconclusive": self.inconclusive,
            "counters": self.counters,
        }


def _agree(claim, *statuses):
    """A row's agreement: its claim, or None (inconclusive) when any
    search the row rests on ran out of budget."""
    return None if "budget-exceeded" in statuses else claim


def _searched(poset, budget, level_cap, expect=None) -> dict:
    """One search as grid-row fields: its status, nodes and subsets and,
    given whether an order is expected, whether the search agrees."""
    sr = find_macaulay_order(poset, budget=budget, level_cap=level_cap)
    row = {"search": sr.status, "nodes": sr.stats.nodes,
           "subsets": sr.stats.subsets_enumerated}
    if expect is not None:
        row["agree"] = _agree(expect == (sr.status == "found"), sr.status)
    return row


def _span(bound):
    lo, hi = bound
    return range(lo, hi + 1)


def _heart_rows(bounds, budget, level_cap):
    """heart(a0, a1, b0, b1), every parameter in the side bound; where the
    predicate says Macaulay and the search is conclusive, the recommended
    order is checked too, and the row disagrees if it does not certify
    the heart.

    Nested rectangles give the same heart for several parameter tuples,
    so rows are keyed on the heart's cells and the order choice (None
    where the predicate fails, so the key fixes the predicate too).  The
    first row with a key builds, searches and checks its heart; the rows
    that repeat the key copy its fields.  This is exact: equal cells
    make posets equal in all but their name, which no row reads."""
    settled = {}
    for t in itertools.product(_span(bounds["side"]), repeat=4):
        pred = heart_predicate(*t)
        choice = heart_order_choice(*t) if pred else None
        key = (tuple(heart_cells(*t)), choice)
        if key not in settled:
            hp = build_heart(*t)
            fields = _searched(hp, budget, level_cap, pred)
            if pred and fields["agree"] is not None:
                order = resolve_heart_order(hp, choice)
                fields["recommended_ok"] = check_macaulay(hp, order, level_cap).ok
                fields["agree"] = fields["agree"] and fields["recommended_ok"]
                fields["recommended"] = choice.to_json()
            settled[key] = fields
        yield {"params": list(t), "predicate": pred, **settled[key]}


def _diamond_rows(bounds, budget, level_cap):
    """Pairs of boxes of equal top rank, sides and dimension counts in
    their bounds, with the diamond's size (|P| + |Q| - 2) in its bound."""
    boxes = [dims for nd in _span(bounds["dims"])
             for dims in itertools.combinations_with_replacement(
                 _span(bounds["side"]), nd)]
    sizes = _span(bounds["elements"])
    for i, dp in enumerate(boxes):
        for dq in boxes[i:]:
            if (sum(d - 1 for d in dp) == sum(d - 1 for d in dq)
                    and math.prod(dp) + math.prod(dq) - 2 in sizes):
                pred = diamond_box_predicate(dp, dq)
                res = diamond([box(*dp), box(*dq)])
                yield {"params": [list(dp), list(dq)], "predicate": pred,
                       **_searched(res, budget, level_cap, pred)}


def _wedge_2d_rows(bounds, budget, level_cap):
    """Two 2-D boxes m x n <= m' x n' (lexicographically), every side in
    the bound, m <= n and m' <= n'."""
    for t in itertools.product(_span(bounds["side"]), repeat=4):
        m, n, m2, n2 = t
        if m <= n and m2 <= n2 and (m, n) <= (m2, n2):
            pred = wedge_box_predicate("2d", t)
            res = wedge([box(m, n), box(m2, n2)])
            yield {"kind": "2d", "params": list(t), "predicate": pred,
                   **_searched(res, budget, level_cap, pred)}


def _wedge_path_rows(bounds, budget, level_cap):
    """A path of n elements and an m' x n' box, m' <= n'."""
    long_lo, long_hi = bounds["pb_long"]
    for n in _span(bounds["path"]):
        for m2 in _span(bounds["pb_short"]):
            for n2 in range(max(m2, long_lo), long_hi + 1):
                pred = wedge_box_predicate("path", (n, m2, n2))
                res = wedge([path(n - 1), box(m2, n2)])
                yield {"kind": "path", "params": [n, m2, n2], "predicate": pred,
                       **_searched(res, budget, level_cap, pred)}


# ------------------------------------------------- union/wedge/diamond suite

def union_simplicial_equivalence_check(ps, budget=DEFAULT_BUDGET,
                                       level_cap=DEFAULT_LEVEL_CAP) -> dict:
    """Order existence across the three equivalent forms and the one-way chain.

    Forms (1)(2)(3): disjoint union of the min-removed factors, the
    wedge, and the diamond of the top-adjoined factors must agree
    whenever defined.  Chain (1')(2')(3'): plain union => wedge =>
    diamond, Macaulayness may only appear, never disappear.  Each form
    maps to its search status, or "undefined"; only the forms whose
    search finished are compared.  ``nodes`` and ``subsets`` sum the
    counters of the forms' searches.
    """
    ps = list(ps)
    counters = {"nodes": 0, "subsets": 0}

    def status(build):
        try:
            target = build()
        except PosetError:
            return "undefined"
        row = _searched(target, budget, level_cap)
        for key in counters:
            counters[key] += row[key]
        return row["search"]

    forms = {
        "union-of-min-removed": status(
            lambda: disjoint_union([remove_extreme(p, "bottom") for p in ps])),
        "wedge": status(lambda: wedge(ps)),
        "diamond-of-hats": status(
            lambda: diamond([adjoin_extreme(p, "top") for p in ps])),
        "union": status(lambda: disjoint_union(ps)),
        "diamond": status(lambda: diamond(ps)),
    }
    finished = {k: v for k, v in forms.items() if v in ("found", "none")}
    equiv = {finished[k] for k in ("union-of-min-removed", "wedge", "diamond-of-hats")
             if k in finished}
    equivalent = len(equiv) <= 1
    # found after none is allowed along the chain, none after found is not
    chain = [finished[k] == "found" for k in ("union", "wedge", "diamond")
             if k in finished]
    chain_holds = chain == sorted(chain)
    return {"agree": _agree(equivalent and chain_holds, *forms.values()),
            "equivalent_forms_agree": equivalent, "chain_holds": chain_holds,
            "forms": forms, **counters}


def _random_hat_corpus(count=50, max_elements=20, seed=20240511):
    """Deterministic corpus of ranked posets whose maxima share one rank."""
    import random
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        depth = rng.randint(1, 3)
        sizes = [rng.randint(1, 4) for _ in range(depth + 1)]
        if sum(sizes) > max_elements:
            continue
        ranks = []
        for d, s in enumerate(sizes):
            ranks += [d] * s
        starts = [sum(sizes[:d]) for d in range(depth + 1)]
        covers = []
        for d in range(depth):
            for i in range(sizes[d]):
                a = starts[d] + i
                ups = rng.sample(range(sizes[d + 1]),
                                 rng.randint(1, sizes[d + 1]))
                covers += [(a, starts[d + 1] + u) for u in ups]
        p = RankedPoset(ranks, covers, name=f"rand{len(out)}")
        if {p.rank[m] for m in p.maximal_elements()} == {depth}:
            out.append(p)  # a hat needs all maxima at one rank
    return out


def _equivalence_rows(bounds, budget, level_cap):
    """The named union/wedge/diamond instances, then the hat corpus,
    where adjoining a top element must preserve order existence."""
    b22 = box(2, 2)
    instances = [
        ("two-box(2,2)", [b22, b22]),
        ("two-box(2,3)", [box(2, 3), box(2, 3)]),
        ("two-spider(1,2)", [spider(1, 2), spider(1, 2)]),
        ("hat-uhat-box(2,2)", [adjoin_extreme(b22, "bottom"),
                               adjoin_extreme(b22, "top")]),
        ("path1-path2", [path(1), path(2)]),
    ]
    for name, ps in instances:
        yield {"instance": name,
               **union_simplicial_equivalence_check(ps, budget, level_cap)}
    for p in _random_hat_corpus():
        base = _searched(p, budget, level_cap)
        hat = _searched(adjoin_extreme(p, "top"), budget, level_cap)
        yield {"poset": p.name, "elements": p.n,
               "base": base["search"], "hat": hat["search"],
               "nodes": base["nodes"] + hat["nodes"],
               "subsets": base["subsets"] + hat["subsets"],
               "agree": _agree(base["search"] == hat["search"],
                               base["search"], hat["search"])}


# ------------------------------------------------------- named counterexamples

# the named cartesian products that have no Macaulay order, keyed by the
# reproduce target that searches each: the grid row's name, the label
# the target prints, the product's expression and its element count.
# Y = uhat(spider(1,1)) is a bottom under two incomparable tops over a
# stem; the explicit factor is the monomial poset of
# K[y,z]/(y^2 - z^2, y^3, z^3), 1 < {y, z} < {w, yz}, where w
# identifies y^2 with z^2.
CARTESIAN_TARGETS = {
    "prop61-product": ("path(1) x Y", "path(1) x Y",
                       "cart(path(1), uhat(spider(1,1)))", 8),
    "conj66-counterexample": (
        "conj66 quotient x path(1)", "poset(y^3,y^2z,yz^2,z^3) x path(1)",
        "cart(poset(ideal(y^3, y^2*z, y*z^2, z^3)), path(1))", 12),
    "prop61-ring-product": (
        "ring factor x path(1)", "ring-factor x path(1)",
        "cart(explicit{5; 0 1 1 2 2; 0 1, 0 2, 1 3, 2 3, 1 4, 2 4}, path(1))", 10),
}


def _cartesian_rows(bounds, budget, level_cap):
    """The named cartesian counterexamples; none may have an order."""
    for name, _, expression, expected_n in CARTESIAN_TARGETS.values():
        poset = evaluate(parse_expression(expression)).poset
        found = _searched(poset, budget, level_cap, expect=False)
        yield {"instance": name, "elements": poset.n,
               "expected_elements": expected_n, **found,
               "agree": poset.n == expected_n and found["agree"]}


class Family(NamedTuple):
    """A verify-family entry: the name its report carries, its row source
    ``rows(bounds, budget, level_cap)`` and the bounds that source reads,
    with their defaults.  A bound (lo, hi) keeps lo <= value <= hi; the
    default's lo is also the least value the key takes."""

    report: str
    rows: Callable
    bounds: dict


_WEDGE_PATH_BOUNDS = {"path": (1, 6), "pb_short": (1, 3), "pb_long": (1, 6)}
FAMILIES = {
    "heart": Family("heart", _heart_rows, {"side": (1, 5)}),
    "diamond-box": Family("diamond-box", _diamond_rows,
                          {"side": (2, 5), "dims": (1, 3), "elements": (0, 80)}),
    "wedge-box": Family(
        "wedge-box",
        lambda *a: itertools.chain(_wedge_2d_rows(*a), _wedge_path_rows(*a)),
        {"side": (2, 5), **_WEDGE_PATH_BOUNDS}),
    "wedge-2d-box": Family("wedge-box", _wedge_2d_rows, {"side": (2, 5)}),
    "wedge-path-box": Family("wedge-box", _wedge_path_rows, _WEDGE_PATH_BOUNDS),
    "union-wedge-diamond-equiv": Family("union-wedge-diamond-equiv",
                                        _equivalence_rows, {}),
    "cartesian-counterexamples": Family("cartesian-counterexamples",
                                        _cartesian_rows, {}),
}

# the reproduce targets that run a family's grid with its default bounds
GRID_TARGETS = {"thmA-grid": "union-wedge-diamond-equiv",
                "thmB-wedge-grid": "wedge-box",
                "thmB-diamond-grid": "diamond-box",
                "thmC-grid": "heart"}


def verify_family(family: str, bounds: dict | None = None,
                  budget: int | None = DEFAULT_BUDGET,
                  level_cap: int = DEFAULT_LEVEL_CAP) -> GridReport:
    """Check the family's bounds, fill in their defaults and run its grid."""
    if family not in FAMILIES:
        raise PosetError(f"unknown family {family!r}")
    entry = FAMILIES[family]
    bounds = bounds or {}
    for key, (lo, hi) in bounds.items():
        if key not in entry.bounds:
            reads = ", ".join(f"{k}={a}:{b}" for k, (a, b) in entry.bounds.items())
            raise PosetError(f"{family} reads no bound {key!r}; " + (
                f"its bounds and defaults: {reads}" if reads else "it takes no bounds"))
        if lo > hi:
            raise PosetError(f"bound {key}={lo}:{hi} is empty (lo > hi)")
        if lo < entry.bounds[key][0]:
            raise PosetError(f"bound {key}={lo}:{hi} starts below "
                             f"{entry.bounds[key][0]}, the least value of {key}")
    return GridReport(entry.report,
                      list(entry.rows({**entry.bounds, **bounds}, budget, level_cap)))


# ----------------------------------------------------------- conjecture scan

def two_variable_quotients(max_exp: int):
    """All finite 2-variable monomial quotients with pure powers <= max_exp,
    as staircases: partitions with at most max_exp parts, each at most
    max_exp, column i keeping the h_i cells x^i y^j (j < h_i), which are
    the standard monomials of the ideal of the staircase's corners.  Each
    is yielded, then its extensions by one more part, smallest new first.
    """
    stack = [(h,) for h in range(max_exp, 0, -1)]
    while stack:
        heights = stack.pop()
        yield heights
        if len(heights) < max_exp:
            stack.extend(heights + (h,) for h in range(heights[-1], 0, -1))


def staircase_poset(heights) -> RankedPoset:
    """Divisibility poset of {x^i y^j : j < heights[i]}, the standard monomials
    of the ideal of the staircase's corners, in ``box_cells`` order."""
    cells = [(i, j) for i, h in enumerate(heights) for j in range(h)]
    return monomial_poset(sorted(cells[::-1], key=sum), ("x", "y"),
                          "staircase" + "".join(map(str, heights)))


def conjecture_6_7_search(max_exp: int = 4, extra_steps: int = 3,
                          include_special: bool = True,
                          budget: int | None = DEFAULT_BUDGET,
                          level_cap: int = DEFAULT_LEVEL_CAP) -> GridReport:
    """Scan products of Macaulay quotient posets with paths.

    Each quotient S is a staircase, built by :func:`staircase_poset` from
    its cells, the standard monomials of the ideal generated by its
    corners, in ``box_cells`` order.  For each S with an order and each
    n above S's top degree, the product with a path of n elements is
    searched; a Macaulay S whose product lacks an order would be a
    counterexample and is flagged as one.  The special 3-generator
    quotient from the known n = top-degree counterexample is included,
    along with a regression row confirming that known failure (not a
    counterexample: there n is not above the top degree).
    """
    report = GridReport("conjecture-6-7")
    quotients = ((ps.name, ps) for ps in map(staircase_poset,
                                             two_variable_quotients(max_exp)))
    if include_special:
        # the quotient of the known counterexample, and that product
        special = evaluate(parse_expression(
            CARTESIAN_TARGETS["conj66-counterexample"][2]))
        quotients = itertools.chain(
            quotients, [("special(y3,y2z,yz2,z3)", special.children[0].poset)])

    for name, ps in quotients:
        base = _searched(ps, budget, level_cap)
        if base["search"] != "found" or not extra_steps:
            report.rows.append({"quotient": name, "slice": "base",
                                "base": base["search"], "agree": None,
                                "nodes": base["nodes"], "subsets": base["subsets"],
                                "note": {"found": "no product rows at 0 steps",
                                         "none": "not in conjecture scope"}.get(
                                    base["search"], "base search inconclusive")})
            continue
        top = ps.max_rank
        for n in range(top + 1, top + 1 + extra_steps):
            prod = cartesian_product(ps, path(n - 1))
            row = {"quotient": name, "slice": "conjecture67", "n": n,
                   "elements": prod.n, **_searched(prod, budget, level_cap, True)}
            row["counterexample"] = row["search"] == "none"
            if n == top + 1:  # a found base has no row: its first product row counts it
                row["nodes"] += base["nodes"]
                row["subsets"] += base["subsets"]
            report.rows.append(row)

    if include_special:
        # known failure at n = top degree, kept as a regression row
        report.rows.append({"quotient": "special(y3,y2z,yz2,z3)",
                            "slice": "conj66-regression", "n": 2,
                            "elements": special.poset.n,
                            **_searched(special.poset, budget, level_cap, False)})
    return report
