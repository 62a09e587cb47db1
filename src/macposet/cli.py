"""Command-line surface.

Exit codes: 0 = ok / all agree, 1 = violation or disagreement found
(scientifically meaningful), 2 = usage or input error, 3 = node budget
exceeded (inconclusive), 4 = internal error (a defect in macposet, never
a verdict).

A command prints its lines and returns its exit code, the report's
input text and the report fields it sets.  ``run_command`` alone turns
the exit code into the report's verdict, and ``VERDICTS`` is that
contract: each command's verdict on exit 0 and exit 1, with exit 3
always ``budget-exceeded``.
"""

from __future__ import annotations

import argparse
import functools
import sys
import traceback

from . import __version__, classify
from .construct import (adjoin_extreme, box, diamond, disjoint_union,
                        spider, wedge)
from .core import LevelSubset, PosetError, lower_shadow, upper_shadow
from .expr import (evaluate, parse_expression, parse_monomial, parse_order,
                   resolve_order)
from .ideals import ideal_intersection, pure_power_ideal, standard_monomial_poset
from .macaulay import (DEFAULT_BUDGET, DEFAULT_LEVEL_CAP, check_macaulay,
                       find_macaulay_order, is_additive, min_shadow_table)
from .orders import order_from_lists, union_simplicial_order
from .serialize import build_report, poset_to_text, write_report

SEARCH_EXIT = {"found": 0, "none": 1, "budget-exceeded": 3}

# each command's report verdict on exit 0 and on exit 1; on exit 3 it is
# "budget-exceeded", and exits 2 and 4 write no report
VERDICTS = {
    "build": ("ok",), "show": ("ok",), "shadow": ("ok",),
    "check": ("ok", "violation"), "additive": ("ok", "violation"),
    "search-order": ("found", "none"),
    "verify-family": ("agree", "disagree"),
    "conjecture67": ("no-counterexample", "counterexample"),
    "reproduce": ("ok", "violation"),
}


def _build(text):
    return evaluate(parse_expression(text))


def _resolve_order(order_text, ev):
    return resolve_order(parse_order(order_text), ev)


def _ascii_int(text):
    """``text`` as an int if it is ASCII digits only, else None: int()
    also reads other scripts' digits, "_" separators, signs and spaces."""
    return int(text) if text.isascii() and text.isdigit() else None


def _parse_set(text, poset):
    ids = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            raise PosetError(f"--set {text!r} has an empty item")
        if item.startswith("#"):
            k = _ascii_int(item[1:])
            if k is None or k >= poset.n:
                raise PosetError(f"element {item} is not in this poset "
                                 f"of {poset.n} elements")
            ids.append(k)
            continue
        if poset.labels is None:
            raise PosetError(f"poset is unlabeled; name elements as #id, not {item!r}")
        exps = parse_monomial(item)
        vec = tuple(exps.pop(v, 0) for v in poset.var_names)
        if exps:  # a variable the poset lacks
            raise PosetError(f"variable {next(iter(exps))!r} in {item!r} is not one "
                             f"of this poset's variables {', '.join(poset.var_names)}")
        try:
            ids.append(poset.labels.index(vec))
        except ValueError:
            raise PosetError(f"monomial {item!r} is not an element of this poset")
    return ids


# ------------------------------------------------------------------- commands

def cmd_build(args):
    text = poset_to_text(_build(args.expr).poset)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0, args.expr, {}


def cmd_show(args):
    p = _build(args.expr).poset
    print(f"{p.name or 'poset'}: {p.n} elements, ranks 0..{p.max_rank}")
    print("level sizes: " + " ".join(str(s) for s in p.level_sizes()))
    for d in range(p.max_rank + 1):
        names = ", ".join(p.element_name(i) for i in p.level(d))
        print(f"  level {d}: {names}")
    print("covers:")
    for a in range(p.n):
        for b in p.up[a]:
            print(f"  {p.element_name(a)} < {p.element_name(b)}")
    return 0, args.expr, {"grid": {"level_sizes": list(p.level_sizes())}}


def cmd_shadow(args):
    p = _build(args.expr).poset
    sub = LevelSubset.of(p, _parse_set(args.set, p))
    shade = lower_shadow(p, sub) if args.lower else upper_shadow(p, sub)
    names = [p.element_name(i) for i in shade.ids()]
    print(("lower" if args.lower else "upper") + " shadow: "
          + (", ".join(names) if names else "(empty)"))
    return 0, f"{args.expr} --set {args.set}", {
        "grid": {"shadow": names, "size": len(names)}}


def cmd_order_verdict(args):
    ev = _build(args.expr)
    fam = _resolve_order(args.order, ev)
    table = min_shadow_table(ev.poset, level_cap=args.level_cap)
    # called by their module names, so a function wrapped there is seen
    if args.command == "check":
        verdict = check_macaulay(ev.poset, fam, level_cap=args.level_cap)
        ok_message = "the order certifies the poset Macaulay"
    else:
        verdict = is_additive(ev.poset, fam, level_cap=args.level_cap)
        ok_message = "the poset is additive for this order"
    if verdict.ok:
        print(f"ok: {ok_message}")
    else:
        print(f"violation: {verdict.witness.detail}")
    return (0 if verdict.ok else 1), f"{args.expr} --order {args.order}", {
        "witness": verdict.witness.to_json() if verdict.witness else None,
        "timings": {"search_nodes": 0,
                    "subsets_enumerated": table.subsets_enumerated}}


def cmd_search_order(args):
    p = _build(args.expr).poset
    sr = find_macaulay_order(p, budget=args.budget, level_cap=args.level_cap)
    fields = {"timings": sr.stats.to_json()}
    if sr.status == "found":
        print("found a Macaulay order:")
        for d, lst in enumerate(sr.order.per_level):
            names = " > ".join(p.element_name(i) for i in lst)
            print(f"  level {d}: {names}")
        fields["grid"] = {"order": sr.order.to_lists()}
    elif sr.status == "none":
        print("no Macaulay order exists (search space exhausted)")
    else:
        print("inconclusive: node budget exceeded")
    return SEARCH_EXIT[sr.status], args.expr, fields


def _parse_bounds(pairs):
    bounds = {}
    for item in pairs or []:
        key, _, rng = item.partition("=")
        lo, _, hi = rng.partition(":")
        lo, hi = _ascii_int(lo), _ascii_int(hi)
        if lo is None or hi is None:
            raise PosetError(f"--bound {item!r}: expected key=lo:hi "
                             "with lo and hi in ASCII digits")
        if key in bounds:
            raise PosetError(f"--bound {item!r}: bound {key!r} is given twice")
        bounds[key] = (lo, hi)
    return bounds


def _grid(args, family=None, **options):
    """Run a family's grid, or the conjecture 6.7 scan when ``family`` is
    None, within ``args``' budget and level cap.  Print its summary line
    (a scan counts its counterexamples, a grid its disagreements) and,
    unless it is a family grid run by ``reproduce``, every disagreeing
    row, a counterexample labelled as one.  Return its exit code (1 if a
    row disagrees, else 3 if a row is inconclusive, else 0) and its
    report fields."""
    limits = {"budget": args.budget, "level_cap": args.level_cap}
    if family is None:
        rep = classify.conjecture_6_7_search(**options, **limits)
        title, noun = "conjecture 6.7 scan", "counterexample"
        counted = [r for r in rep.rows if r.get("counterexample")]
    else:
        rep = classify.verify_family(family, **options, **limits)
        title, noun, counted = rep.family, "disagreement", rep.disagreements
    print(f"{title}: {len(rep.rows)} rows, {len(counted)} {noun}s, "
          f"{len(rep.inconclusive)} inconclusive")
    if family is None or args.command == "verify-family":
        for row in rep.disagreements:
            label = "COUNTEREXAMPLE" if row.get("counterexample") else "DISAGREEMENT"
            print(f"  {label}: {row}")
    code = 1 if rep.disagreements else 3 if rep.inconclusive else 0
    return code, {"grid": rep.to_json(), "timings": rep.counters}


def cmd_verify_family(args):
    code, fields = _grid(args, args.family, bounds=_parse_bounds(args.bound))
    return code, args.family, fields


def cmd_conjecture67(args):
    code, fields = _grid(args, max_exp=args.max_exp, extra_steps=args.steps,
                         include_special=not args.skip_special)
    return code, f"max_exp={args.max_exp} steps={args.steps}", fields


# ------------------------------------------------------------------ reproduce
#
# A target prints its lines and returns its exit code and report fields.

def _reproduce_heart_example(args):
    i1 = pure_power_ideal((4, 1), ("x", "y"))
    i2 = pure_power_ideal((3, 3), ("x", "y"))
    inter = ideal_intersection(i1, i2)
    p = standard_monomial_poset(inter)
    sr = find_macaulay_order(p, budget=args.budget, level_cap=args.level_cap)
    gens = [str(inter)[1:-1]]
    print(f"(x^4, y) n (x^3, y^3) = {inter}")
    print(f"quotient poset: {p.n} elements, level sizes "
          + " ".join(str(s) for s in p.level_sizes()))
    print(f"search verdict: {sr.status}")
    grid = {"intersection_generators": gens, "elements": p.n,
            "level_sizes": list(p.level_sizes()), "search": sr.status}
    return SEARCH_EXIT[sr.status], {"grid": grid, "timings": sr.stats.to_json()}


def _reproduce_twist_figure(args):
    ev = _build("heart(5, 2, 2, 5)")
    twist = _resolve_order("twist", ev)
    lex = _resolve_order("lex(y,x)", ev)
    v_twist = check_macaulay(ev.poset, twist, level_cap=args.level_cap)
    v_lex = check_macaulay(ev.poset, lex, level_cap=args.level_cap)
    print(f"heart(5,2,2,5) with twist order: {v_twist.status}")
    print(f"heart(5,2,2,5) with lex order (recorded, not asserted): {v_lex.status}")
    grid = {"twist": v_twist.status, "lex": v_lex.status,
            "lex_witness": v_lex.witness.to_json() if v_lex.witness else None}
    return (0 if v_twist.ok else 1), {"grid": grid}


def _search_target(label, expression, args):
    poset = _build(expression).poset
    sr = find_macaulay_order(poset, budget=args.budget, level_cap=args.level_cap)
    print(f"{label}: {poset.n} elements, search verdict: {sr.status}")
    grid = {"elements": poset.n, "search": sr.status}
    return SEARCH_EXIT[sr.status], {"grid": grid, "timings": sr.stats.to_json()}


def _reproduce_diamond_not_wedge(args):
    b = box(2, 2)
    hat = adjoin_extreme(b, "top")
    uhat = adjoin_extreme(b, "bottom")
    rows = {}
    # the union simplicial order depends on the factor listing; the
    # example's claim is that one listing certifies the diamond
    ok_any = False
    for tag, factors in (("hat,uhat", [hat, uhat]), ("uhat,hat", [uhat, hat])):
        res = diamond(factors)
        fams = [order_from_lists(f, f.levels) for f in factors]
        us = union_simplicial_order(res, fams)
        v = check_macaulay(res, us, level_cap=args.level_cap)
        rows[f"diamond[{tag}]"] = v.status
        ok_any = ok_any or v.ok
    wr = find_macaulay_order(wedge([hat, uhat]), budget=args.budget,
                             level_cap=args.level_cap)
    rows["wedge-search"] = wr.status
    rows["expected_pattern"] = ok_any and wr.status == "none"
    for k, v in rows.items():
        print(f"{k}: {v}")
    return SEARCH_EXIT[wr.status], {"grid": rows, "timings": wr.stats.to_json()}


def _reproduce_spider_union_fails(args):
    sp = spider(1, 2)
    wr = find_macaulay_order(wedge([sp, sp]), budget=args.budget,
                             level_cap=args.level_cap)
    ur = find_macaulay_order(disjoint_union([sp, sp]), budget=args.budget,
                             level_cap=args.level_cap)
    print(f"spider(1,2) wedge spider(1,2): {wr.status}")
    print(f"spider(1,2) disjoint-union spider(1,2): {ur.status}")
    grid = {"wedge": wr.status, "union": ur.status,
            "expected_pattern": wr.status == "found" and ur.status == "none"}
    code = 3 if "budget-exceeded" in (wr.status, ur.status) else (
        1 if ur.status == "none" else 0)
    return code, {"grid": grid, "timings": {
        "search_nodes": wr.stats.nodes + ur.stats.nodes,
        "subsets_enumerated": wr.stats.subsets_enumerated
        + ur.stats.subsets_enumerated}}


REPRODUCE = {
    "heart-example": _reproduce_heart_example,
    "twist-figure": _reproduce_twist_figure,
    **{target: functools.partial(_search_target, label, expression)
       for target, (_, label, expression, _) in classify.CARTESIAN_TARGETS.items()},
    "diamond-not-wedge": _reproduce_diamond_not_wedge,
    "spider-union-fails": _reproduce_spider_union_fails,
    **{target: functools.partial(_grid, family=family)
       for target, family in classify.GRID_TARGETS.items()},
    "conj67-scan": _grid,
}


def cmd_reproduce(args):
    if args.name not in REPRODUCE:
        raise PosetError(f"unknown reproduce target {args.name!r}; known: "
                         + ", ".join(sorted(REPRODUCE)))
    code, fields = REPRODUCE[args.name](args)
    return code, args.name, fields


# ----------------------------------------------------------------- entrypoint

def _count(text: str) -> int:
    """argparse type of the count flags: ASCII digits only, so a negative
    count is a usage error."""
    value = _ascii_int(text)
    if value is None:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer in ASCII digits, got {text!r}")
    return value


def _add_flags(sp, level_cap=True, budget=True):
    """--report, plus --level-cap and --budget where the command honours them."""
    sp.add_argument("--report", help="write a JSON report to this file")
    if budget:
        sp.add_argument("--budget", type=_count, default=DEFAULT_BUDGET,
                        help="search node budget")
    if level_cap:
        sp.add_argument("--level-cap", type=_count, default=DEFAULT_LEVEL_CAP,
                        help="largest level size enumerable")


@functools.cache
def build_parser():
    """The command-line parser, built once per process and reused by
    every ``run_command``."""
    ap = argparse.ArgumentParser(
        prog="macposet",
        description="Ranked-poset algebra with Macaulay decision procedures")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("build", help="build a poset and write its file form")
    sp.add_argument("expr")
    sp.add_argument("--out")
    _add_flags(sp, level_cap=False, budget=False)
    sp.set_defaults(fn=cmd_build)

    sp = sub.add_parser("show", help="print levels, covers, level sizes")
    sp.add_argument("expr")
    _add_flags(sp, level_cap=False, budget=False)
    sp.set_defaults(fn=cmd_show)

    sp = sub.add_parser("shadow", help="upper or lower shadow of a set")
    sp.add_argument("expr")
    sp.add_argument("--set", required=True,
                    help="comma-separated monomials or #ids, one level")
    sp.add_argument("--lower", action="store_true")
    _add_flags(sp, level_cap=False, budget=False)
    sp.set_defaults(fn=cmd_shadow)

    sp = sub.add_parser("check", help="check Macaulayness for a given order")
    sp.add_argument("expr")
    sp.add_argument("--order", required=True)
    _add_flags(sp, budget=False)
    sp.set_defaults(fn=cmd_order_verdict)

    sp = sub.add_parser("search-order", help="search for a certifying order")
    sp.add_argument("expr")
    _add_flags(sp)
    sp.set_defaults(fn=cmd_search_order)

    sp = sub.add_parser("additive", help="check additivity for a given order")
    sp.add_argument("expr")
    sp.add_argument("--order", required=True)
    _add_flags(sp, budget=False)
    sp.set_defaults(fn=cmd_order_verdict)

    sp = sub.add_parser("verify-family", help="predicate vs search over a grid")
    sp.add_argument("family", choices=list(classify.FAMILIES))
    sp.add_argument("--bound", action="append", metavar="key=lo:hi")
    _add_flags(sp)
    sp.set_defaults(fn=cmd_verify_family)

    sp = sub.add_parser("conjecture67", help="scan quotient x path products")
    sp.add_argument("--max-exp", type=_count, default=4)
    sp.add_argument("--steps", type=_count, default=3)
    sp.add_argument("--skip-special", action="store_true")
    _add_flags(sp)
    sp.set_defaults(fn=cmd_conjecture67)

    sp = sub.add_parser("reproduce", help="run a named paper artifact")
    sp.add_argument("name")
    _add_flags(sp)
    sp.set_defaults(fn=cmd_reproduce)
    return ap


def run_command(argv) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        code, input_text, fields = args.fn(args)
        if args.report:
            verdict = ("budget-exceeded" if code == 3
                       else VERDICTS[args.command][code])
            write_report(build_report(args.command, input_text, verdict, **fields),
                         args.report)
    except (OSError, ValueError) as e:  # the input errors subclass ValueError
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # a crash must not read as a verdict (exit 1)
        traceback.print_exc()
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 4
    return code


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
