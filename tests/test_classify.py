import itertools
import json
import pathlib
import re

import pytest

from macposet import (LevelSubset, PosetError, RankedPoset, box, check_macaulay,
                      disjoint_union, find_macaulay_order, ideal_from_generators,
                      lex_order, standard_monomial_poset, twist_order,
                      upper_shadow)
from macposet import classify
from macposet.classify import (CARTESIAN_TARGETS, FAMILIES, GridReport,
                               build_heart, conjecture_6_7_search,
                               diamond_box_predicate, heart_order_choice,
                               heart_predicate,
                               resolve_heart_order, staircase_poset,
                               two_variable_quotients,
                               union_simplicial_equivalence_check,
                               verify_family)
from macposet.construct import heart_cells
from macposet.expr import evaluate, parse_expression
from macposet.macaulay import DEFAULT_BUDGET, DEFAULT_LEVEL_CAP
from macposet.orders import initial_segment

from conftest import reference_heart_rows, relabel_swap_xy


def swapped_macaulay_hearts():
    """(heart, choice) for each Macaulay heart with sides in 1..5 whose
    order is read mirrored: 198 take lex and 42 twist."""
    return [(build_heart(*t), c) for t in itertools.product(range(1, 6), repeat=4)
            if heart_predicate(*t) and (c := heart_order_choice(*t)).swap_xy]


class TestHeartPredicate:
    def test_paper_examples(self):
        assert heart_predicate(4, 1, 3, 3) is False
        assert heart_predicate(5, 2, 2, 5) is True
        for a0, a1 in itertools.product(range(1, 5), repeat=2):
            assert heart_predicate(a0, a1, a0, a1) is True

    def test_symmetries(self):
        for t in itertools.product(range(1, 5), repeat=4):
            a0, a1, b0, b1 = t
            assert heart_predicate(*t) == heart_predicate(b0, b1, a0, a1)
            assert heart_predicate(*t) == heart_predicate(a1, a0, b1, b0)

    def test_rejects_bad_params(self):
        with pytest.raises(PosetError):
            heart_predicate(0, 1, 1, 1)


class TestHeartOrderChoice:
    def test_twist_case(self):
        c = heart_order_choice(5, 2, 2, 5)
        assert c.kind == "twist" and not c.swap_xy

    def test_lex_case(self):
        c = heart_order_choice(4, 3, 3, 4)
        assert c.kind == "lex" and not c.swap_xy

    def test_degenerate_box(self):
        assert heart_order_choice(3, 2, 3, 2).kind == "lex"

    def test_error_when_not_macaulay(self):
        with pytest.raises(PosetError):
            heart_order_choice(4, 1, 3, 3)

    def test_recommended_order_certifies(self):
        for t in itertools.product(range(1, 5), repeat=4):
            if not heart_predicate(*t):
                continue
            hp = build_heart(*t)
            fam = resolve_heart_order(hp, heart_order_choice(*t))
            assert check_macaulay(hp, fam).ok, t

    def test_mirrored_orders_match_relabeled_copies(self):
        hearts = swapped_macaulay_hearts()
        assert len(hearts) == 240
        assert sum(c.kind == "twist" for _, c in hearts) == 42
        for hp, c in hearts:
            mirror = relabel_swap_xy(hp)
            ref = (lex_order(mirror, ("y", "x")) if c.kind == "lex"
                   else twist_order(mirror, *c.params))
            fam = resolve_heart_order(hp, c)
            assert fam.poset is hp
            assert fam.per_level == ref.per_level, hp.name

    def test_resolving_builds_no_poset(self, monkeypatch):
        hearts = swapped_macaulay_hearts()
        built = []
        init = RankedPoset.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("name", ""))
            init(self, *args, **kwargs)

        monkeypatch.setattr(RankedPoset, "__init__", counting_init)
        for hp, c in hearts:
            resolve_heart_order(hp, c)
        assert built == []
        relabel_swap_xy(hearts[0][0])  # the counter sees a build
        assert len(built) == 1


class TestDiamondBoxPredicate:
    def test_isomorphic(self):
        assert diamond_box_predicate((3, 4), (3, 4)) is True
        assert diamond_box_predicate((3, 4), (4, 3)) is True

    def test_path_and_2xk(self):
        assert diamond_box_predicate((6,), (2, 5)) is True
        assert diamond_box_predicate((6,), (3, 4)) is False

    def test_dimension_gap(self):
        assert diamond_box_predicate((2, 2, 2), (4,)) is False

    def test_rank_mismatch_rejected(self):
        with pytest.raises(PosetError, match="equal top ranks"):
            diamond_box_predicate((2, 2), (4,))

    def test_ones_are_dropped(self):
        assert diamond_box_predicate((6, 1), (2, 5)) is True
        assert diamond_box_predicate((2, 1), (2,)) is True

    def test_symmetry(self):
        assert diamond_box_predicate((2, 5), (6,)) is True


class TestWedgeBoxPredicate:
    def test_2d_examples(self):
        from macposet.classify import wedge_box_predicate
        assert wedge_box_predicate("2d", (2, 3, 3, 4)) is True
        assert wedge_box_predicate("2d", (2, 5, 3, 4)) is False
        assert wedge_box_predicate("path", (4, 2, 9)) is True
        assert wedge_box_predicate("path", (6, 3, 4)) is False

    def test_malformed(self):
        from macposet.classify import wedge_box_predicate
        with pytest.raises(PosetError):
            wedge_box_predicate("2d", (3, 2, 2, 3))
        with pytest.raises(PosetError):
            wedge_box_predicate("weird", (1, 2, 3))


def monomial_shadow_size(a, b, m, n):
    # upper shadow of x^m y^n inside the a x b box
    if m == a - 1 and n == b - 1:
        return 0
    if m < a - 1 and n < b - 1:
        return 2
    return 1


class TestBoxShadowLemmas:
    """Shadow-size formulas for 2-D boxes, against brute force."""

    def segment_ids(self, fam, d, s, e):
        return list(fam.descending(d)[s:e])

    @pytest.mark.parametrize("a,b", [(a, b) for a in range(1, 6)
                                     for b in range(1, 6)])
    def test_monomial_formula(self, a, b):
        p = box(a, b)
        for i, (m, n) in enumerate(p.labels):
            got = len(upper_shadow(p, LevelSubset.of(p, [i])))
            assert got == monomial_shadow_size(a, b, m, n)

    @pytest.mark.parametrize("a,b", [(3, 3), (4, 3), (5, 2), (5, 5)])
    def test_segment_sum_formula(self, a, b):
        p = box(a, b)
        for priority in (("x", "y"), ("y", "x")):
            fam = lex_order(p, priority)
            for d in range(p.max_rank + 1):
                nd = len(p.level(d))
                for s in range(nd):
                    for e in range(s + 1, nd + 1):
                        ids = self.segment_ids(fam, d, s, e)
                        sh = len(upper_shadow(p, LevelSubset.of(p, ids, level=d)))
                        parts = sum(
                            len(upper_shadow(p, LevelSubset.of(p, [i])))
                            for i in ids)
                        assert sh == parts - len(ids) + 1

    @pytest.mark.parametrize("a,b", [(3, 3), (4, 3), (5, 5)])
    def test_new_shadow_formula(self, a, b):
        from macposet import new_shadow
        p = box(a, b)
        for priority in (("x", "y"), ("y", "x")):
            fam = lex_order(p, priority)
            for d in range(p.max_rank + 1):
                nd = len(p.level(d))
                for s in range(nd):
                    for e in range(s + 1, nd + 1):
                        ids = self.segment_ids(fam, d, s, e)
                        sh = len(upper_shadow(p, LevelSubset.of(p, ids, level=d)))
                        got = len(new_shadow(fam, d, s, e))
                        assert got == (sh if s == 0 else sh - 1)

    @pytest.mark.parametrize("a,b", [(3, 3), (4, 3), (3, 4), (5, 2), (4, 4)])
    def test_box_segment_classes(self, a, b):
        # proper nonempty segments only: the closed formulas do not
        # cover a full level inside the shrinking band (shadow capped
        # by the next level) nor the top rank (shadow empty)
        p = box(a, b)
        for priority in (("y", "x"), ("x", "y")):
            fam = lex_order(p, priority)
            swap = priority == ("x", "y")
            init_break = (b if not swap else a) - 2
            fin_break = (a if not swap else b) - 2
            for d in range(p.max_rank + 1):
                nd = len(p.level(d))
                for s in range(nd):
                    for e in range(s + 1, nd + 1):
                        if s == 0 and e == nd:
                            continue
                        ids = self.segment_ids(fam, d, s, e)
                        sh = len(upper_shadow(p, LevelSubset.of(p, ids, level=d)))
                        q = e - s
                        if s == 0:
                            expect = q + 1 if d <= init_break else q
                        elif e == nd:
                            expect = q + 1 if d <= fin_break else q
                        else:
                            expect = q + 1
                        assert sh == expect, (a, b, priority, d, s, e)


class TestInitialSegmentsGeneralLemma:
    def test_inequality_spot_check(self):
        # hypotheses: a0 > b0, b1 > a1, a0 >= b1, a0+a1 >= b0+b1;
        # the second factor is the b1 x b0 box, lex y > x throughout
        tuples = [(5, 2, 2, 5), (5, 3, 2, 4), (6, 2, 3, 5), (4, 3, 2, 4)]
        for a0, a1, b0, b1 in tuples:
            assert a0 > b0 and b1 > a1 and a0 >= b1 and a0 + a1 >= b0 + b1
            P = box(a0, a1)
            Q = box(b1, b0)
            M = disjoint_union([P, Q])  # Q's elements sit on top
            po = lex_order(P, ("y", "x"))
            qo = lex_order(Q, ("y", "x"))
            from macposet import union_simplicial_order
            fam = union_simplicial_order(M, [po, qo])
            prov = M.provenance.sources
            of_p = {s: i for i, rec in enumerate(prov)
                    for f, s in rec if f == 0}
            of_q = {s: i for i, rec in enumerate(prov)
                    for f, s in rec if f == 1}
            for d in range(a1 + b0 - 1, a0 + a1 - 1):
                np_, nq = len(P.level(d)), len(Q.level(d))
                for q0 in range(np_ + 1):
                    for q1 in range(nq + 1):
                        seg = initial_segment(fam, d, q0 + q1)
                        sp = upper_shadow(M, seg)
                        sa = upper_shadow(M, LevelSubset.of(
                            M, [of_p[i] for i in po.descending(d)[:q0]], level=d))
                        sb = upper_shadow(M, LevelSubset.of(
                            M, [of_q[i] for i in qo.descending(d)[:q1]], level=d))
                        assert len(sp) <= len(sa) + len(sb), (a0, a1, b0, b1, d, q0, q1)


class TestHarness:
    def test_heart_grid_small(self):
        rep = verify_family("heart", {"side": (1, 3)})
        assert rep.all_agree and not rep.inconclusive
        assert len(rep.rows) == 81

    def test_equivalence_instances(self):
        res = union_simplicial_equivalence_check([box(2, 2), box(2, 2)])
        assert res["agree"]
        forms = {k: v for k, v in res["forms"].items() if v != "undefined"}
        assert set(forms.values()) == {"found"}

    def test_diamond_not_wedge_instance(self):
        from macposet.construct import adjoin_extreme
        b = box(2, 2)
        res = union_simplicial_equivalence_check(
            [adjoin_extreme(b, "bottom"), adjoin_extreme(b, "top")])
        assert res["agree"]
        assert res["forms"]["wedge"] == "none"
        assert res["forms"]["diamond"] == "found"

    def test_cartesian_counterexamples(self):
        rep = verify_family("cartesian-counterexamples")
        assert rep.all_agree
        assert [r["search"] for r in rep.rows] == ["none"] * 3
        assert [r["elements"] for r in rep.rows] == [8, 12, 10]

    def test_ring_factor_is_macaulay_alone(self):
        # each factor of each named counterexample has an order alone:
        # path(1), Y, the conj66 quotient and the ring factor
        for _, _, expression, _ in CARTESIAN_TARGETS.values():
            for factor in evaluate(parse_expression(expression)).children:
                assert find_macaulay_order(factor.poset).status == "found"

    @pytest.mark.parametrize("grid", [
        ("heart", {"side": (1, 3)}),
        ("diamond-box", {"side": (2, 3)}),
        ("wedge-box", {"side": (2, 3), "path": (1, 3)}),
        ("union-wedge-diamond-equiv", {}),
        ("cartesian-counterexamples", {}),
        ("conjecture-6-7", {"max_exp": 2}),
        pytest.param(("conjecture-6-7", {"max_exp": 2, "extra_steps": 0}),
                     id="conjecture-6-7-no-steps"),
    ], ids=lambda grid: grid[0])
    def test_counters_sum_every_search(self, grid, monkeypatch):
        # every search a grid makes, a memo hit and a found base of the
        # conjecture scan included, adds its nominal counters to the grid's
        made = []
        real = classify.find_macaulay_order

        def counted(*args, **kwargs):
            r = real(*args, **kwargs)
            made.append(r.stats)
            return r

        monkeypatch.setattr(classify, "find_macaulay_order", counted)
        name, bounds = grid
        rep = (conjecture_6_7_search(**bounds) if name == "conjecture-6-7"
               else verify_family(name, bounds))
        if name == "heart":
            # a heart is searched once; the rows that repeat it copy its
            # counters, so every row's own search must sum to the grid's
            hearts = [build_heart(*r["params"]) for r in rep.rows]
            assert len(made) == len({h.labels for h in hearts})
            made = [find_macaulay_order(h).stats for h in hearts]
        assert made and rep.counters == {
            "search_nodes": sum(s.nodes for s in made),
            "subsets_enumerated": sum(s.subsets_enumerated for s in made)}

    def test_recommended_orders_go_through_check_macaulay(self, monkeypatch):
        # one check per distinct (heart, recommended order); the rows
        # that repeat one copy its verdict, which a fresh check confirms
        checked = []
        real = classify.check_macaulay

        def spy(*args, **kwargs):
            checked.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(classify, "check_macaulay", spy)
        rep = verify_family("heart", {"side": (1, 3)})
        rows = [r for r in rep.rows if "recommended_ok" in r]
        keys = {(tuple(heart_cells(*r["params"])), json.dumps(r["recommended"]))
                for r in rows}
        assert rows and len(checked) == len(keys) < len(rows)
        for r in rows:
            hp = build_heart(*r["params"])
            order = resolve_heart_order(hp, heart_order_choice(*r["params"]))
            assert r["recommended_ok"] == check_macaulay(hp, order).ok

    @pytest.mark.parametrize("bounds,budget,lex", [
        *[({"side": side}, budget, False)
          for side in ((1, 3), (2, 5)) for budget in (None, 0, 3, 50)],
        ({}, DEFAULT_BUDGET, False),
        # lex with y > x fails heart(5,2,2,5), so that row disagrees
        ({"side": (2, 5)}, DEFAULT_BUDGET, True),
    ], ids=str)
    def test_heart_grid_matches_reference(self, bounds, budget, lex, monkeypatch):
        if lex:
            monkeypatch.setattr(classify, "resolve_heart_order",
                                lambda hp, choice: lex_order(hp, ("y", "x")))
        ref = GridReport("heart", list(reference_heart_rows(
            {**FAMILIES["heart"].bounds, **bounds}, budget, DEFAULT_LEVEL_CAP)))
        rep = verify_family("heart", bounds, budget)
        assert json.dumps(rep.to_json()) == json.dumps(ref.to_json())
        assert ([5, 2, 2, 5] in [r["params"] for r in rep.disagreements]) == lex

    def test_heart_grid_settles_each_distinct_heart_once(self, monkeypatch):
        # 625 rows, 367 distinct (cells, order choice) keys
        calls = {"build_heart": 0, "find_macaulay_order": 0}
        for name in calls:
            def spy(*args, _name=name, _real=getattr(classify, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(classify, name, spy)
        rep = verify_family("heart")
        assert len(rep.rows) == 625
        assert calls == {"build_heart": 367, "find_macaulay_order": 367}

    def test_failing_recommended_order_disagrees(self, monkeypatch):
        # lex with y > x does not certify heart(5,2,2,5), which takes twist
        monkeypatch.setattr(classify, "resolve_heart_order",
                            lambda hp, choice: lex_order(hp, ("y", "x")))
        rep = verify_family("heart", {"side": (2, 5)})
        row = next(r for r in rep.rows if r["params"] == [5, 2, 2, 5])
        assert row["search"] == "found"
        assert row["recommended_ok"] is False and row["agree"] is False
        assert row in rep.disagreements

    def test_unknown_family(self):
        with pytest.raises(PosetError):
            verify_family("nope")

    def test_readme_family_table_matches_families(self):
        """README's verify-family table lists every family with the
        defaults of the bounds it reads; "none" is no bound, and
        wedge-box reads the keys of both wedge rows."""
        readme = pathlib.Path(__file__).parent.parent / "README.md"
        table = readme.read_text().split("| family | bounds |\n")[1].split("\n\n")[0]
        cells = dict(re.findall(r"^\| `([\w-]+)` \| (.*) \|$", table, re.M))

        def bounds(cell):
            found = {k: (int(lo), int(hi))
                     for k, lo, hi in re.findall(r"`(\w+)=(\d+):(\d+)`", cell)}
            assert bool(found) != (cell == "none"), cell
            return found

        documented = {name: bounds(cell) for name, cell in cells.items()
                      if name != "wedge-box"}
        documented["wedge-box"] = {**documented["wedge-2d-box"],
                                   **documented["wedge-path-box"]}
        assert cells.keys() == FAMILIES.keys()
        assert documented == {name: f.bounds for name, f in FAMILIES.items()}


class TestConjectureScan:
    def test_quotient_enumeration(self):
        assert len(list(two_variable_quotients(4))) == 69
        assert len(list(two_variable_quotients(2))) == 5

    def test_quotient_enumeration_order(self):
        # the recursive definition: each partition, then its extensions
        # by one more part, smallest new part first
        def partitions(prefix, last, max_exp):
            for h in range(1, last + 1):
                yield prefix + (h,)
                if len(prefix) + 1 < max_exp:
                    yield from partitions(prefix + (h,), h, max_exp)

        for max_exp in range(0, 7):
            assert (list(two_variable_quotients(max_exp))
                    == list(partitions((), max_exp, max_exp)))

    def test_quotients_are_yielded_lazily(self):
        # 1100 parts would pass the recursion limit if the parts recursed
        first = list(itertools.islice(two_variable_quotients(1100), 1101))
        assert first[-2] == (1,) * 1100 and first[-1] == (2,)

    def test_staircase_poset_matches_corner_ideal(self):
        # the reference: the quotient by the ideal of the staircase's
        # corners, built through the ideal route
        def corner_ideal(hs):
            corners = [(i, h) for i, h in enumerate(hs) if i == 0 or h < hs[i - 1]]
            return ideal_from_generators([(len(hs), 0)] + corners, ("x", "y"))

        for max_exp in range(1, 6):
            for hs in two_variable_quotients(max_exp):
                got = staircase_poset(hs)
                want = standard_monomial_poset(corner_ideal(hs))
                for attr in ("rank", "up", "labels", "var_names", "levels"):
                    assert getattr(got, attr) == getattr(want, attr), (hs, attr)

    def test_small_scan(self):
        rep = conjecture_6_7_search(max_exp=2, extra_steps=2,
                                    include_special=False)
        assert not rep.inconclusive
        assert not [r for r in rep.rows if r.get("counterexample")]

    def test_zero_steps_reports_each_found_base(self):
        # with no product row to ride on, a found base's search is a row
        rep = conjecture_6_7_search(max_exp=2, extra_steps=0,
                                    include_special=False)
        assert [(r["slice"], r["base"], r["agree"]) for r in rep.rows] == [
            ("base", "found", None)] * 5
        assert rep.all_agree and not rep.inconclusive

    def test_special_quotient_regression(self):
        rep = conjecture_6_7_search(max_exp=2, extra_steps=1,
                                    include_special=True)
        reg = [r for r in rep.rows if r.get("slice") == "conj66-regression"]
        assert len(reg) == 1 and reg[0]["search"] == "none"
