"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All comparisons are exact integers; run with -s (or see captured output)
for the per-criterion lines.
"""

import hashlib
import itertools
import time

import pytest

from macposet import (LevelSubset, box, check_macaulay, diamond,
                      disjoint_union, find_macaulay_order,
                      ideal_from_generators, ideal_intersection, lex_order,
                      new_shadow, pure_power_ideal, spider,
                      standard_monomial_poset, union_simplicial_order,
                      upper_shadow, wedge)
from macposet.classify import conjecture_6_7_search, verify_family
from macposet.cli import run_command
from macposet.construct import adjoin_extreme


def report_line(num, ok, text, t0):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2} {status} {text} ({time.time() - t0:.1f}s)")
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_clements_lindstrom_regression():
    t0 = time.time()
    boxes = []
    for nd in range(1, 4):
        boxes += [dims for dims in
                  itertools.combinations_with_replacement(range(1, 5), nd)]
    boxes += [(m, n) for m in range(1, 9) for n in range(m, 9)]
    ok = True
    for dims in boxes:
        b = box(*dims)
        if not check_macaulay(b, lex_order(b)).ok:
            ok = False
            break
    report_line(1, ok, f"Clements-Lindstrom regression over {len(boxes)} boxes", t0)


def _segment_ids(fam, d, s, e):
    return list(fam.descending(d)[s:e])


def test_criterion_02_shadow_formula_lemmas():
    t0 = time.time()
    checked = 0
    ok = True
    for a in range(1, 9):
        for b in range(1, 9):
            p = box(a, b)
            sh1 = {}
            for i, (m, n) in enumerate(p.labels):
                got = len(upper_shadow(p, LevelSubset.of(p, [i])))
                if m == a - 1 and n == b - 1:
                    want = 0
                elif m < a - 1 and n < b - 1:
                    want = 2
                else:
                    want = 1
                sh1[i] = got
                ok &= got == want
                checked += 1
            for priority in (("y", "x"), ("x", "y")):
                fam = lex_order(p, priority)
                swap = priority == ("x", "y")
                init_break = (b if not swap else a) - 2
                fin_break = (a if not swap else b) - 2
                for d in range(p.max_rank + 1):
                    nd = len(p.level(d))
                    for s in range(nd):
                        for e in range(s + 1, nd + 1):
                            ids = _segment_ids(fam, d, s, e)
                            sh = len(upper_shadow(p, LevelSubset.of(p, ids, level=d)))
                            # segment-sum formula
                            ok &= sh == sum(sh1[i] for i in ids) - len(ids) + 1
                            # new-shadow formula
                            got_new = len(new_shadow(fam, d, s, e))
                            ok &= got_new == (sh if s == 0 else sh - 1)
                            # box-segment classes, proper segments only
                            if not (s == 0 and e == nd):
                                q = e - s
                                if s == 0:
                                    want = q + 1 if d <= init_break else q
                                elif e == nd:
                                    want = q + 1 if d <= fin_break else q
                                else:
                                    want = q + 1
                                ok &= sh == want
                            checked += 3
    report_line(2, ok, f"2-D box shadow lemmas, {checked} instances", t0)


def test_criterion_03_heart_classification_grid():
    t0 = time.time()
    rep = verify_family("heart", {"side": (1, 5)})
    recommended_ok = all(r.get("recommended_ok", True) for r in rep.rows)
    ok = rep.all_agree and not rep.inconclusive and recommended_ok
    report_line(3, ok, f"heart grid 1..5: {len(rep.rows)} tuples, "
                       f"{len(rep.disagreements)} disagreements", t0)


def test_criterion_04_heart_example():
    t0 = time.time()
    i1 = pure_power_ideal((4, 1), ("x", "y"))
    i2 = pure_power_ideal((3, 3), ("x", "y"))
    inter = ideal_intersection(i1, i2)
    expect = ideal_from_generators([(4, 0), (0, 3), (3, 1)], ("x", "y"))
    p = standard_monomial_poset(inter)
    sr = find_macaulay_order(p)
    ok = inter == expect and str(inter) == "(x^4, x^3*y, y^3)" and sr.status == "none"
    report_line(4, ok, "heart-example intersection generators and no-order verdict", t0)


def test_criterion_05_twist_figure():
    t0 = time.time()
    from macposet.classify import build_heart
    from macposet import twist_order
    h = build_heart(5, 2, 2, 5)
    v_twist = check_macaulay(h, twist_order(h, 5, 2, 2, 5))
    v_lex = check_macaulay(h, lex_order(h, ("y", "x")))  # recorded, not asserted
    ok = v_twist.ok
    report_line(5, ok, f"heart(5,2,2,5): twist={v_twist.status}, "
                       f"lex={v_lex.status} (recorded)", t0)


def test_criterion_06_diamond_classification_grid():
    t0 = time.time()
    rep = verify_family("diamond-box")
    ok = rep.all_agree and not rep.inconclusive
    report_line(6, ok, f"diamond-box grid: {len(rep.rows)} pairs, "
                       f"{len(rep.disagreements)} disagreements", t0)


def test_criterion_07_wedge_classification_grids():
    t0 = time.time()
    rep = verify_family("wedge-box")
    ok = rep.all_agree and not rep.inconclusive
    kinds = {r["kind"] for r in rep.rows}
    ok &= kinds == {"2d", "path"}
    report_line(7, ok, f"wedge grids: {len(rep.rows)} tuples, "
                       f"{len(rep.disagreements)} disagreements", t0)


def test_criterion_08_section3_equivalence_suite():
    t0 = time.time()
    ok = True
    # boxes: all three operations Macaulay under the union simplicial order
    for dims in [(2, 2), (2, 3)]:
        b = box(*dims)
        o = lex_order(b)
        for op in (disjoint_union, wedge, diamond):
            res = op([b, b])
            fam = union_simplicial_order(res, [o, o])
            ok &= check_macaulay(res, fam).ok
    # spider(1,2): wedge square has an order, union square has none
    sp = spider(1, 2)
    ok &= find_macaulay_order(wedge([sp, sp])).status == "found"
    ok &= find_macaulay_order(disjoint_union([sp, sp])).status == "none"
    # diamond-not-wedge: hat(2x2) and uhat(2x2)
    b = box(2, 2)
    hat, uhat = adjoin_extreme(b, "top"), adjoin_extreme(b, "bottom")
    us_ok = False
    for factors in ([hat, uhat], [uhat, hat]):
        res = diamond(factors)
        fams = []
        from macposet import order_from_lists
        for f in factors:
            fams.append(order_from_lists(
                f, [list(f.level(d)) for d in range(f.max_rank + 1)]))
        us_ok |= check_macaulay(res, union_simplicial_order(res, fams)).ok
    ok &= us_ok
    ok &= find_macaulay_order(wedge([hat, uhat])).status == "none"
    # hat preservation across the random corpus
    hats = [r for r in verify_family("union-wedge-diamond-equiv").rows
            if "poset" in r]
    ok &= len(hats) == 50 and all(r["agree"] is True for r in hats)
    report_line(8, ok, "section-3 suite: boxes, spider, diamond-not-wedge, "
                       "hat corpus (50 posets)", t0)


def test_criterion_09_section6_counterexamples():
    t0 = time.time()
    rep = verify_family("cartesian-counterexamples")
    sizes = [r["elements"] for r in rep.rows]
    verdicts = [r["search"] for r in rep.rows]
    ok = sizes == [8, 12, 10] and verdicts == ["none"] * 3
    report_line(9, ok, f"prop61-product/conj66/prop61-ring-product: "
                       f"sizes {sizes}, verdicts {verdicts}", t0)


def test_criterion_10_conjecture_scan():
    t0 = time.time()
    rep = conjecture_6_7_search(max_exp=4, extra_steps=3, include_special=True)
    hits = [r for r in rep.rows if r.get("counterexample")]
    for h in hits:  # a counterexample is a headline, not a failure
        print(f"ACCEPTANCE 10 HEADLINE counterexample found: {h}")
    ok = not rep.inconclusive and len(rep.rows) > 200
    report_line(10, ok, f"conjecture-6.7 scan: {len(rep.rows)} rows, "
                        f"{len(hits)} counterexamples", t0)


TARGETS = ["heart-example", "twist-figure", "prop61-product",
           "prop61-ring-product", "conj66-counterexample", "diamond-not-wedge",
           "spider-union-fails", "thmA-grid", "thmB-wedge-grid",
           "thmB-diamond-grid", "thmC-grid", "conj67-scan"]


# each target's exit code and the sha256 of its stdout and of its
# --report bytes, counters included; a change that alters a report on
# purpose updates its pin and says so
PINNED = {
    "heart-example": (1,
        "b04f4eb75a876b0b912f19b41fa86d795b354342cd88481d2fb4620e0b6033d1",
        "78a5d4ca17fa71c8251db8d04f807d9641c3d3a3a313b01c05dd308c07825806"),
    "twist-figure": (0,
        "cae59fceafaf5201b6846b8b3252c59e93caefe90818174d55e1f6d1928bba33",
        "7e0aadd281c61cac2de835c3f8d2cdb27eb4ad42273e710254b797e0c6509301"),
    "prop61-product": (1,
        "1d22f6c45d7cb46584589bed7a928c117425929b9b62a551d764543368e108d3",
        "ef73b801dc8ccb75ca345908ea955c46dd90a5e0b4e0fde8a9b1640b7cdbdd62"),
    "prop61-ring-product": (1,
        "24bd177b7043037a8724d7bc2c36985a7fcc6a17dda74867ec166cc1e087f0e0",
        "30d9d46a59d4961f035d1830cf16dfaf347e2a85b081bc9e6bf4a72ce1962dea"),
    "conj66-counterexample": (1,
        "c9d95e2a9756cfb5dd3cd219ccf20036a34fc90e8a3c1ad5435db4cd02075744",
        "0d0c2f020217a072b731d15183f602b3c05de5dcd249719976753d12a50c95dc"),
    "diamond-not-wedge": (1,
        "05c332ae5c71627b91c1a553fdaf4c71b8f8d6ebca04ebd7a9fd414ee02cb0b0",
        "38ca3fd485e1386fd7d3ae363e384d9bc694b41c5fc1308ff114f79af1427bb2"),
    "spider-union-fails": (1,
        "15f3a022e66bfbb6298603c2eb8f1bc92e6de3605dff9199658276a3ef132060",
        "5b2d114bbf62c7a0f1dbfe943186c791b185d0a7e1f4e393439b71547ff6f055"),
    "thmA-grid": (0,
        "6ccc5f085d0376603c59259b26d6dfe490eabf3d9d5dfb01e86b140271897fb4",
        "f1319257568441cfa998b986fb0f7c856491d007d2e025a6b5adaf0e9d6eec74"),
    "thmB-wedge-grid": (0,
        "9514043ce4d02b845380dbaa7b20b44fd54899c2287094cbcc2a53d0f791f98b",
        "c5f359a32aa1e05c3991e875b7ef552a7ff40a682a7eef8e73b55c5636526b3d"),
    "thmB-diamond-grid": (0,
        "4e0da2b163030f877931ac769374707e7225b379b158c1160e40c884f1874e6a",
        "ecff6b80617855c9d3e798042de7b15c3f71e2cc7a4985316989a272d871c97a"),
    "thmC-grid": (0,
        "ba598c2cab23a8b2ee30108525176223918f9ab9895d500d05eb9a88d39c3e33",
        "6a76ca9a648b8a1a27f267789eea83020263063aaff0bcbd5d15ab88827acd70"),
    "conj67-scan": (0,
        "d50839e200cc39bc25814e233b81778488633f45337f0f013cc910dd93ac1ea3",
        "9082753f5549ff32dbc5e58a86c2aefd56b5dad4eda4d7f6d93fb1e3c638c065"),
}


def test_criterion_11_reproduce_determinism(tmp_path, capsys):
    t0 = time.time()
    ok = True
    for name in TARGETS:
        runs = []
        for rnd in "ab":
            report = tmp_path / f"{name}-{rnd}.json"
            code = run_command(["reproduce", name, "--report", str(report)])
            out = capsys.readouterr().out.encode()
            runs.append((code, hashlib.sha256(out).hexdigest(),
                         hashlib.sha256(report.read_bytes()).hexdigest()))
        same = runs[0] == runs[1] == PINNED[name]
        if not same:
            print(f"ACCEPTANCE 11 MISMATCH in target {name}: {runs}")
        ok &= same
    report_line(11, ok, f"pinned stdout, exit codes and reports across runs "
                        f"({len(TARGETS)} targets x 2 runs)", t0)
