import argparse
import functools
import hashlib
import importlib.util
import json
import math
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macposet import RankedPoset, box, classify, cli, validate_poset, wedge
from macposet.classify import CARTESIAN_TARGETS, FAMILIES, GRID_TARGETS
from macposet.cli import REPRODUCE, run_command
from macposet.expr import CALLS, MAX_NESTING
from macposet.macaulay import _level_row, _search
from macposet.serialize import poset_to_text


ROOT = pathlib.Path(__file__).resolve().parent.parent


def run(argv):
    return run_command(argv)


# an order file listing level 0 as [0], level 1 as [1, 2], level 2 as [3]
ORDER_0_12_3 = "macorder 1\nlevel 0: 0\nlevel 1: 1 2\nlevel 2: 3\n"


class TestExitCodes:
    def test_check_ok_exits_zero(self):
        assert run(["check", "box(3,4)", "--order", "lex(x,y)"]) == 0

    def test_check_violation_exits_one(self):
        assert run(["check", "poset(ideal(x^4, y^3, x^3*y))",
                    "--order", "lex(y,x)"]) == 1

    def test_search_none_exits_one(self):
        assert run(["search-order", "poset(ideal(x^4, y^3, x^3*y))"]) == 1

    def test_search_found_exits_zero(self):
        assert run(["search-order", "wedge(box(2,2), box(2,2))"]) == 0

    def test_usage_error_exits_two(self):
        assert run(["check", "diamond(path(3), box(2,3)", "--order", "lex(x,y)"]) == 2
        assert run(["search-order", "pyramid(3)"]) == 2
        assert run(["reproduce", "not-a-target"]) == 2

    def test_budget_exceeded_exits_three(self):
        assert run(["search-order", "diamond(box(2,3), box(3,2))",
                    "--budget", "3"]) == 3

    @pytest.mark.parametrize("argv", [
        ["search-order", "box(2,2)", "--budget", "-1"],
        ["search-order", "box(2,2)", "--level-cap", "-1"],
        ["check", "box(2,2)", "--order", "lex(x,y)", "--level-cap=-3"],
        ["conjecture67", "--max-exp", "-1"],
        ["conjecture67", "--max-exp", "1", "--steps", "-1"],
        ["conjecture67", "--budget", "x"],
    ])
    def test_negative_count_is_usage_error(self, argv, capsys):
        # a negative budget used to exit 3 after one node, and a negative
        # --max-exp to exit 0 after a 4-row scan
        assert run(argv) == 2
        assert "argument --" in capsys.readouterr().err

    def test_zero_counts_are_accepted(self):
        assert run(["search-order", "box(2,2)", "--budget", "0"]) == 3
        assert run(["conjecture67", "--max-exp", "0", "--steps", "0"]) == 0

    @pytest.mark.parametrize("budget", ["0", "3"])
    @pytest.mark.parametrize(
        "argv", [["verify-family", family] for family in FAMILIES]
        + [["reproduce", target] for target in GRID_TARGETS]
        + [["conjecture67", "--max-exp", "2", "--steps", "1"]],
        ids=lambda argv: argv[0] if argv[0] == "conjecture67" else argv[1])
    def test_search_out_of_budget_is_never_a_verdict(self, argv, budget, tmp_path):
        # the equivalence rows agreed (exit 0) and disagreed (exit 1) on
        # searches that had run out of budget, the cartesian rows
        # disagreed (exit 1), and the scan left its base rows out of
        # the inconclusive ones
        out = tmp_path / "r.json"
        assert run(argv + ["--budget", budget, "--report", str(out)]) == 3
        grid = json.loads(out.read_text())["grid"]
        held = [r for r in grid["rows"] if "budget-exceeded" in json.dumps(r)]
        assert held and all(r["agree"] is None for r in held)
        assert grid["inconclusive"] == held

    @pytest.mark.parametrize("argv, default_verdict", [
        (["verify-family", "heart"], "agree"),
        (["conjecture67", "--max-exp", "2", "--steps", "1"], "no-counterexample"),
    ], ids=["verify-family", "conjecture67"])
    def test_out_of_budget_report_verdict_is_budget_exceeded(
            self, argv, default_verdict, tmp_path):
        # both wrote their default verdict while exiting 3
        out = tmp_path / "r.json"
        assert run(argv + ["--budget", "0", "--report", str(out)]) == 3
        assert json.loads(out.read_text())["verdict"] == "budget-exceeded"
        assert run(argv + ["--report", str(out)]) == 0
        assert json.loads(out.read_text())["verdict"] == default_verdict

    @pytest.mark.parametrize("argv", [
        ["search-order", "box(2,2)", "--budget", "\u0661\u0660"],
        ["search-order", "box(2,2)", "--budget", "1_0"],
        ["search-order", "box(2,2)", "--budget", " 5 "],
        ["search-order", "box(2,2)", "--budget", "+5"],
        ["conjecture67", "--max-exp", "\u0662"],
        ["verify-family", "heart", "--bound", "side=1:\u0662"],
        ["verify-family", "heart", "--bound", "side=0_1:2"],
        ["verify-family", "heart", "--bound", "side=1:2", "--bound", "side=1:3"],
    ], ids=["arabic-indic-budget", "underscore-budget", "spaced-budget",
            "signed-budget", "arabic-indic-max-exp", "arabic-indic-bound",
            "underscore-bound", "repeated-bound"])
    def test_counts_and_bounds_are_ascii_digits_given_once(self, argv, capsys):
        # int() read each of these: the commands ran (exit 0), the
        # heart bounds ran 16 rows and the repeated key kept its last value,
        # running 81 rows
        assert run(argv) == 2
        err = capsys.readouterr().err
        if argv[-2:] == ["--bound", "side=1:3"]:
            assert err == "error: --bound 'side=1:3': bound 'side' is given twice\n"
        else:
            assert "ASCII digits" in err

    @pytest.mark.parametrize("argv, char, pos", [
        (["show", "path(\u0663)"], "\u0663", 5),
        (["show", "path(\u00b2)"], "\u00b2", 5),
        (["shadow", "box(4,4)", "--set", "x^\u0663"], "\u0663", 2),
    ], ids=["arabic-indic-three", "superscript-two", "set-exponent"])
    def test_non_ascii_digit_is_unexpected_character(self, argv, char, pos, capsys):
        # an Arabic-Indic three was read as 3 (path(3), x^3: exit 0) and
        # a superscript two failed in int() with no position
        assert run(argv) == 2
        assert one_error_line(capsys) == (
            f"error: unexpected character {char!r} (at position {pos})\n")

    def test_over_long_integer_literal_is_input_error(self, capsys):
        # int() raises a plain ValueError past Python's digit limit
        assert run(["show", "path(" + "9" * 5000 + ")"]) == 2
        one_error_line(capsys)

    @pytest.mark.parametrize("bound", ["dims=0:1", "side=1:2"])
    def test_bound_below_its_domain_names_the_bound(self, bound, capsys):
        # these reached the builders, whose errors named the empty box
        # and a one-element diamond factor, not the bound
        assert run(["verify-family", "diamond-box", "--bound", bound]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bound {bound} starts below")
        assert err.count("\n") == 1

    def test_additive_on_non_macaulay_is_input_error(self):
        assert run(["additive", "poset(ideal(x^4, y^3, x^3*y))",
                    "--order", "lex(y,x)"]) == 2

    def test_additive_violation_exits_one(self, tmp_path):
        # spider(1,2) is Macaulay but not additive; ids: glue 0, leg-1 top
        # 1, leg-2 elements 2 < 3
        f = tmp_path / "o.txt"
        f.write_text(ORDER_0_12_3)
        assert run(["additive", "wedge(path(1), path(2))",
                    "--order", f'lists("{f}")']) == 1

    def test_bad_order_file_is_input_error(self):
        assert run(["additive", "wedge(path(1), path(2))",
                    "--order", 'lists("/dev/null")']) == 2

    @pytest.mark.parametrize("triples, message", [
        ("1\n0 9 0\n", "out of range"),
        ("2\n0 0 0\n1 0 0\n", "not distinct"),
    ], ids=["out-of-range", "repeated"])
    def test_bad_fiber_map_factor_a_ids_are_input_errors(
            self, tmp_path, capsys, triples, message):
        # an out-of-range id used to exit 4 with an IndexError, and a
        # repeated one to exit 0 with one of its base elements dropped
        f = tmp_path / "m.txt"
        f.write_text("macposet-fibermap 1\n" + triples)
        assert run(["show", f'fiber(path(2), box(2,2), "{f}")']) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and message in err

    def test_fiber_map_with_only_its_header_is_input_error(self, tmp_path, capsys):
        # used to exit 4 with an IndexError
        f = tmp_path / "m.txt"
        f.write_text("macposet-fibermap 1\n")
        assert run(["show", f'fiber(path(2), box(2,2), "{f}")']) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 2:") and err.count("\n") == 1

    @pytest.mark.parametrize("item", ["#99", "#4", "#-1", "#1_0", "# 3",
                                      "#\u0663", "#"])
    def test_shadow_set_id_out_of_range_is_input_error(self, item, capsys):
        # #99 used to exit 4 with an IndexError, and #-1 to pick the
        # last element; int() read "# 3" and "#\u0663" (an Arabic-Indic
        # three) as element 3 and "#1_0" as element 10, and refused "#"
        # with its own message
        assert run(["shadow", "box(2,2)", "--set", item]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: element {item} is not in this poset")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("text", ["", "#0,", "x,,y"])
    def test_shadow_set_empty_item_is_input_error(self, text, capsys):
        # an empty item used to reach the monomial parser, whose error
        # named neither the flag nor the item
        assert run(["shadow", "box(2,2)", "--set", text]) == 2
        err = one_error_line(capsys)
        assert err == f"error: --set {text!r} has an empty item\n"

    @pytest.mark.parametrize("item", ["z", "x*z^5"])
    def test_shadow_set_foreign_variable_is_input_error(self, item, capsys):
        # z was dropped, so these named the elements 1 and x and exited 0
        assert run(["shadow", "box(2,2)", "--set", item]) == 2
        err = one_error_line(capsys)
        assert "variable 'z'" in err and "x, y" in err

    @pytest.mark.parametrize("expr, item, message", [
        ("path(2)", "x", "poset is unlabeled; name elements as #id, not 'x'"),
        ("box(2,2)", "x^5", "monomial 'x^5' is not an element of this poset"),
    ], ids=["unlabeled", "not-an-element"])
    def test_shadow_set_monomial_naming_no_element_is_input_error(
            self, expr, item, message, capsys):
        assert run(["shadow", expr, "--set", item]) == 2
        assert one_error_line(capsys) == f"error: {message}\n"

    @pytest.mark.parametrize("line, message", [
        ("level  : 0", "expected 'level d: ids'"),
        ("level x: 0", "expected integer level number, got 'x'"),
        ("level 0: 0 a", "expected integer ids, got '0 a'"),
    ], ids=["no-level-number", "non-integer-level", "non-integer-id"])
    def test_malformed_order_file_line_is_named(self, tmp_path, capsys, line, message):
        # the first exited 4 with an IndexError, the others 2 with
        # Python's own message and no line number
        f = tmp_path / "o.txt"
        f.write_text(f"macorder 1\n\n{line}\n")
        assert run(["check", "box(2,2)", "--order", f'lists("{f}")']) == 2
        assert one_error_line(capsys) == f"error: line 3: {message}\n"

    @pytest.mark.parametrize("lines, message", [
        ("2\n0 0 0\n1 1", "line 5: expected 'c a b', got 2 ids"),
        ("1\n0 0 0 0", "line 4: expected 'c a b', got 4 ids"),
        ("1\n0 0 y", "line 4: expected integer ids, got '0 0 y'"),
        ("one\n0 0 0", "line 3: expected integer count of base elements, got 'one'"),
        ("1\n0 0 0\n1 1 1", "line 3: the count is 1, but 2 triples follow"),
    ], ids=["short-triple", "long-triple", "non-integer-id", "non-integer-count",
            "past-the-count"])
    def test_malformed_fiber_map_line_is_named(self, tmp_path, capsys, lines, message):
        # these exited 2 with Python's own message and no line number,
        # and a line past the counted triples was ignored (exit 0)
        f = tmp_path / "m.txt"
        f.write_text(f"macposet-fibermap 1\n# base, factor-a and factor-b ids\n{lines}\n")
        assert run(["show", f'fiber(path(2), path(2), "{f}")']) == 2
        assert one_error_line(capsys) == f"error: {message}\n"

    def test_verify_family_ok(self):
        assert run(["verify-family", "cartesian-counterexamples"]) == 0

    def test_threads_flag_is_usage_error(self):
        assert run(["check", "box(2,2)", "--order", "lex(x,y)",
                    "--threads", "2"]) == 2

    def test_unwritable_report_is_input_error(self, tmp_path):
        assert run(["check", "box(2,2)", "--order", "lex(x,y)", "--report",
                    str(tmp_path / "missing" / "r.json")]) == 2
        assert run(["check", "box(2,2)", "--order", "lex(x,y)", "--report",
                    str(tmp_path)]) == 2

    def test_crash_exits_four_not_one(self, monkeypatch, capsys):
        # the parser is built once per process and holds the cmd_*
        # functions, so the crash is planted in what cmd_search_order calls
        def crash(p, depth=500, **kwargs):
            if depth:
                return crash(p, depth - 1)
            raise ZeroDivisionError("planted")

        monkeypatch.setattr(cli, "find_macaulay_order", crash)
        assert run(["search-order", "path(2)"]) == 4
        err = capsys.readouterr().err
        assert "internal error: ZeroDivisionError: planted" in err
        # the traceback folds the 500 repeated frames into one line
        assert len(err.splitlines()) < 100

    def test_unit_ideal_is_the_empty_poset(self, capsys):
        assert run(["show", "poset(ideal(1))"]) == 0
        assert capsys.readouterr().out.startswith("poset(1): 0 elements")
        # these named "maximal elements at mixed ranks []" and "minimal
        # elements at ranks [], need all 0"
        for fn, which in (("hat", "top"), ("uhat", "bottom")):
            assert run(["show", f"{fn}(poset(ideal(1)))"]) == 2
            assert one_error_line(capsys) == (
                f"error: cannot adjoin a {which} to the empty poset\n")

    def test_long_staircases_reach_the_level_cap(self, capsys):
        # staircases with up to 1100 parts: the scan meets the level cap
        # instead of passing the recursion limit
        assert run(["conjecture67", "--max-exp", "1100", "--level-cap", "8"]) == 2
        assert capsys.readouterr().err.startswith("error: level 8 has 9 elements")

    def test_fiber_over_different_variable_orders_is_input_error(self, capsys):
        # y-first generators used to be read as x-first ones: exit 0
        # with a 6-element fiber over poset(x^2, y^3)
        assert run(["show", "fiber(poset(ideal(x^2, y^3)), "
                    "poset(ideal(y^2, x^3)))"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: variable names differ") and err.count("\n") == 1
        assert run(["show", "fiber(poset(ideal(x^2, y^3)), "
                    "poset(ideal(x^3, y^2)))"]) == 0
        assert ": 8 elements," in capsys.readouterr().out

    def test_deep_search_gets_a_verdict(self):
        assert run(["search-order", "path(600)"]) == 0

    @pytest.mark.parametrize("argv, named", [
        (["search-order", "explicit{6; 0 0 1 2 2 2; 2 5, 3 2, 4 0, 5 4}"],
         "cover (3,2) raises rank by -1"),
        (["search-order", "explicit{2; 0 2; 0 1}"], "cover (0,1) raises rank by 2"),
        (["show", "explicit{3; 0 1 2; 0 0, 0 1, 0 2}"], "element 0 covers itself"),
    ], ids=["search-none", "search-index-error", "show-self-cover"])
    def test_literal_breaking_the_rank_law_is_input_error(self, argv, named, capsys):
        # these exited 1 ("no Macaulay order exists"), 4 (an IndexError
        # in the certifying check) and 0 (printing `#0 < #0`)
        assert run(argv) == 2
        assert one_error_line(capsys) == f"error: explicit literal: {named}\n"

    def test_cover_of_unknown_element_is_input_error(self, capsys):
        assert run(["show", "explicit{2; 0 1; 0 2}"]) == 2
        assert one_error_line(capsys) == "error: cover (0,2) references unknown element\n"

    @pytest.mark.parametrize("expr", [
        "wedge(1)", "hat(3)", "cart(1, path(1))", "path(box(2,2))",
        "box(path(1))", "spider(path(1))", 'path("x")', 'union("a")',
        "poset(3)", "heart(1,2,3,path(1))"])
    def test_argument_of_the_wrong_kind_is_usage_error(self, expr, capsys):
        # each exited 4 with a TypeError or an AttributeError
        assert run(["show", expr]) == 2
        err = one_error_line(capsys)
        assert " argument " in err and "(at position " in err

    @pytest.mark.parametrize("argv, message", [
        (["show", "path(1,2)"], "path takes 1 arguments (at position 7)"),
        (["show", "path(1, 2)"], "path takes 1 arguments (at position 8)"),
        (["check", "cart(path(1),path(1),path(1))", "--order", "lex(x,y)"],
         "cart takes 2 arguments (at position 21)"),
        (["show", "poset(ideal(2))"],
         "only the monomial 1 may be a bare integer (at position 12)"),
    ])
    def test_surplus_argument_and_bare_integer_are_input_errors(
            self, argv, message, capsys):
        # the position is the surplus argument's or the bare integer's
        assert run(argv) == 2
        assert one_error_line(capsys) == f"error: {message}\n"

    # without the limit, `show` evaluated up to 493 deep and crashed
    # past that; the limit refuses both alike
    @pytest.mark.parametrize("depth", [MAX_NESTING, 493, 500])
    def test_deep_expression_is_usage_error(self, depth, capsys):
        deep = "hat(" * depth + "path(2)" + ")" * depth
        assert run(["show", deep]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: expression nested more than 100 deep")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["show", "box(30,30)", "--level-cap", "1"],
        ["build", "box(3,3)", "--budget", "0", "--level-cap", "1"],
        ["shadow", "box(2,2)", "--set", "x", "--budget", "0"],
        ["check", "box(2,2)", "--order", "lex(x,y)", "--budget", "0"],
        ["additive", "box(2,2)", "--order", "lex(x,y)", "--budget", "0"],
    ], ids=lambda argv: argv[0])
    def test_flag_the_command_ignores_is_usage_error(self, argv):
        assert run(argv) == 2

    @pytest.mark.parametrize("argv", [["reproduce", name] for name in REPRODUCE]
                             + [["verify-family", "union-wedge-diamond-equiv"],
                                ["verify-family", "cartesian-counterexamples"]],
                             ids=lambda argv: argv[-1])
    def test_level_cap_honoured_everywhere(self, argv, capsys):
        assert run(argv + ["--level-cap", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


_INT = st.integers(0, 3).map(str)
_MONO = st.tuples(st.integers(0, 3), st.integers(0, 3)).map(
    lambda e: "*".join(v if k == 1 else f"{v}^{k}" for v, k in zip("xy", e) if k) or "1")
_IDEAL = st.lists(_MONO, min_size=1, max_size=3).map(lambda m: f"ideal({', '.join(m)})")


def _call(fn, args):
    return f"{fn}({', '.join(args)})"


@st.composite
def _explicit(draw):
    """A literal of 1-6 elements with arbitrary ranks and covers, one id
    past the end included."""
    n = draw(st.integers(1, 6))
    ranks = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    covers = draw(st.lists(st.tuples(st.integers(0, n), st.integers(0, n)), max_size=6))
    return (f"explicit{{{n}; {' '.join(map(str, ranks))}; "
            f"{', '.join(f'{a} {b}' for a, b in covers)}}}")


_LEAF = st.one_of(
    _INT.map(lambda n: f"path({n})"),
    st.lists(_INT, min_size=1, max_size=2).map(lambda a: _call("box", a)),
    st.lists(_INT, min_size=1, max_size=3).map(lambda a: _call("spider", a)),
    st.lists(_INT, min_size=4, max_size=4).map(lambda a: _call("heart", a)),
    _IDEAL.map(lambda i: f"poset({i})"),
    _explicit())


def _calls(children):
    """Calls over ``children``: well-typed ones, and any call on
    arguments of any kind and number."""
    typed = st.one_of(
        st.tuples(st.sampled_from(["union", "wedge", "diamond"]),
                  st.lists(children, min_size=1, max_size=3)),
        st.tuples(st.sampled_from(["hat", "uhat", "bar", "ubar"]),
                  st.lists(children, min_size=1, max_size=1)),
        st.tuples(st.just("fiber"), st.lists(children, min_size=2, max_size=2)))
    any_kind = st.tuples(
        st.sampled_from(sorted(CALLS)),
        st.lists(st.one_of(_INT, children, _IDEAL, _MONO, st.just('"no-such-map"')),
                 max_size=4))
    return st.one_of(typed, any_kind).map(lambda t: _call(*t))


# cart only over leaves, so that no input has more than a few thousand
# elements
_EXPR = st.recursive(
    st.one_of(_LEAF, st.lists(_LEAF, min_size=2, max_size=2).map(
        lambda a: _call("cart", a))),
    _calls, max_leaves=4)


@st.composite
def _edited(draw, texts):
    """A text drawn from ``texts``, or one with one character replaced,
    inserted or deleted."""
    text = draw(texts)
    if draw(st.booleans()):
        return text
    k = draw(st.integers(0, len(text) - 1))
    c = draw(st.sampled_from('(){},;^*"0123456789 xyz'))
    edit = draw(st.sampled_from([c, text[k] + c, ""]))
    return text[:k] + edit + text[k + 1:]


_ORDER = st.recursive(
    st.one_of(st.permutations("xy").map(lambda v: _call("lex", v)),
              st.just("twist"), st.just('lists("no-such-order")')),
    lambda kids: st.lists(kids, min_size=1, max_size=3).map(lambda a: _call("us", a)),
    max_leaves=4)
_SET = st.lists(st.one_of(_MONO, st.integers(0, 9).map(lambda k: f"#{k}")),
                min_size=1, max_size=3).map(", ".join)


class TestGrammarFuzz:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_edited(st.one_of(_explicit(), _EXPR)))
    def test_exit_codes_keep_their_meaning(self, text):
        """No input crashes (exit 4), and exit 1, a scientific verdict,
        comes only from a poset that validates."""
        for argv in (["show", text], ["shadow", text, "--set", "#0"],
                     ["check", text, "--order", "lex(x,y)", "--level-cap", "8"],
                     ["search-order", text, "--level-cap", "8", "--budget", "300"]):
            code = run(argv)
            assert code in (0, 1, 2, 3), argv
            if code == 1:
                assert validate_poset(cli._build(text).poset).ok, argv

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_edited(_ORDER))
    def test_order_exit_codes_keep_their_meaning(self, text):
        for expr in ("union(box(2,2), box(2,3))", "heart(5,2,2,5)"):
            for command in ("check", "additive"):
                argv = [command, expr, "--order", text]
                assert run(argv) in (0, 1, 2, 3), argv

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_edited(_SET))
    def test_set_exit_codes_keep_their_meaning(self, text):
        for expr in ("box(3,3)", "path(2)"):
            for lower in ([], ["--lower"]):
                argv = ["shadow", expr, "--set", text] + lower
                assert run(argv) in (0, 2), argv


# valid files to edit: box(2,3)'s lex order, and a fiber map whose base
# is the chain 0 < 1 of the first box(2,2) mapped onto the same chain of
# the second
ORDER_BOX_2_3 = "macorder 1\nlevel 0: 0\nlevel 1: 1 2\nlevel 2: 3 4\nlevel 3: 5\n"
FIBER_MAP_CHAIN = "macposet-fibermap 1\n# c a b\n2\n0 0 0\n1 1 1\n"


@st.composite
def _one_line_edited(draw, text):
    """``text`` with one line changed: one character replaced, inserted
    or deleted, or the line deleted or repeated."""
    lines = text.splitlines()
    k = draw(st.integers(0, len(lines) - 1))
    line = lines[k]
    j = draw(st.integers(0, len(line)))
    c = draw(st.sampled_from("0123456789 :-x#\t"))
    edit = draw(st.sampled_from([[line[:j] + c + line[j + 1:]], [line[:j] + c + line[j:]],
                                 [line[:j] + line[j + 1:]], [], [line, line]]))
    return "\n".join(lines[:k] + edit + lines[k + 1:]) + "\n"


class TestFileFuzz:
    """No edited order or fiber-map file crashes (exit 4)."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_one_line_edited(ORDER_BOX_2_3))
    def test_order_file(self, tmp_path_factory, text):
        f = tmp_path_factory.mktemp("order") / "o.txt"
        f.write_text(text)
        for command in ("check", "additive"):
            argv = [command, "box(2,3)", "--order", f'lists("{f}")']
            assert run(argv) in (0, 1, 2), (argv, text)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_one_line_edited(FIBER_MAP_CHAIN))
    def test_fiber_map_file(self, tmp_path_factory, text):
        f = tmp_path_factory.mktemp("map") / "m.txt"
        f.write_text(text)
        expr = f'fiber(box(2,2), box(2,2), "{f}")'
        for argv in (["show", expr], ["search-order", expr, "--budget", "300"]):
            assert run(argv) in (0, 1, 2, 3), (argv, text)


class TestVerifyFamilyBounds:
    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_unknown_key_and_explicit_defaults(self, family, tmp_path, capsys):
        # an unknown key used to be ignored; the defaults written out
        # must give the report that no bound gives
        defaults = FAMILIES[family].bounds
        assert run(["verify-family", family, "--bound", "sides=1:2"]) == 2
        err = one_error_line(capsys)
        assert "'sides'" in err and all(f"{k}=" in err for k in defaults)
        explicit = [a for k, (lo, hi) in defaults.items()
                    for a in ("--bound", f"{k}={lo}:{hi}")]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["verify-family", family, "--report", str(a)]) == 0
        assert run(["verify-family", family, *explicit, "--report", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("bounds, rows, check", [
        (["path=5:6", "pb_short=1:1", "pb_long=1:1"], 2,
         lambda r: r["params"][0] >= 5),
        (["path=1:1", "pb_short=2:3", "pb_long=3:3"], 2,
         lambda r: r["params"][1:] in ([2, 3], [3, 3])),
    ], ids=["path", "pb"])
    def test_lower_bounds_honoured_on_wedge_path_box(self, bounds, rows, check,
                                                     tmp_path):
        # only the upper ends were read: the first case ran 6 rows
        out = tmp_path / "r.json"
        argv = ["verify-family", "wedge-path-box", "--report", str(out)]
        for b in bounds:
            argv += ["--bound", b]
        assert run(argv) == 0
        got = json.loads(out.read_text())["grid"]["rows"]
        assert len(got) == rows and all(check(r) for r in got)

    def test_lower_bounds_honoured_on_diamond_box(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["verify-family", "diamond-box", "--bound", "dims=2:3",
                    "--bound", "elements=20:80", "--report", str(out)]) == 0
        got = json.loads(out.read_text())["grid"]["rows"]
        assert got and all(
            len(p) >= 2 and len(q) >= 2
            and math.prod(p) + math.prod(q) - 2 >= 20 for p, q in
            (r["params"] for r in got))

    def test_empty_range_is_input_error(self, capsys):
        # used to "agree" on 0 rows
        assert run(["verify-family", "heart", "--bound", "side=3:1"]) == 2
        assert "side=3:1" in one_error_line(capsys)

    @pytest.mark.parametrize("item", ["side", "side=1:", "side=a:b"])
    def test_malformed_bound_names_the_form(self, item, capsys):
        assert run(["verify-family", "heart", "--bound", item]) == 2
        assert "key=lo:hi" in one_error_line(capsys)


# each operation kind's `build` expression and the sha256 of its stdout;
# ``{map}`` is a file holding FIBER_MAP_CHAIN
BUILD_PINNED = {
    "union": ("union(box(2,2), path(1))",
              "29b551d9af9a25a36a02d0e2d4a58c82a65d2f7bfc28fac119fc11b1a27b2ba9"),
    "wedge": ("wedge(box(2,2), box(2,3))",
              "a5fc25a26fbcc14408d838a40dc5fc76a5ef38b1cbafeca58bec60659c1a5921"),
    "diamond": ("diamond(box(2,2), box(2,2))",
                "4c2605411831e0b8231c3268c1e7e3d2f95f99eb09c70ff0f78c2a357ec1206d"),
    "spider": ("spider(1,2,3)",
               "c10306374eec8c3904d1f400a387206bd5463a06c94e1261135a6ce9a24114d8"),
    "cart": ("cart(poset(ideal(x^2, y)), poset(ideal(z^2)))",
             "6d6349ffeef0c1e54212a72124e76d16ef7c04caf6d150f1bbc790252606fd78"),
    "fiber-ideals": ("fiber(poset(ideal(x^2, y^3)), poset(ideal(x^3, y^2)))",
                     "a8ca8725f73df161f5b5d5fef4c4ab043b8d0ece8e176ad3853aa781668f4d51"),
    "fiber-map": ('fiber(box(2,2), box(2,3), "{map}")',
                  "d73f71d21c690d15c29b09975b2f14c556b2f3c245bea113a40225d331546f8b"),
}


class TestReports:
    def test_report_written(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["reproduce", "heart-example", "--report", str(out)])
        assert code == 1
        doc = json.loads(out.read_text())
        assert doc["command"] == "reproduce"
        assert doc["verdict"] == "violation"
        assert doc["grid"]["search"] == "none"
        assert doc["grid"]["intersection_generators"] == ["x^4, x^3*y, y^3"]

    def test_build_and_reload(self, tmp_path):
        out = tmp_path / "p.poset"
        assert run(["build", "wedge(box(2,2), box(2,3))", "--out", str(out)]) == 0
        res = wedge([box(2, 2), box(2, 3)])
        assert out.read_text() == poset_to_text(res)

    @pytest.mark.parametrize("kind", list(BUILD_PINNED))
    def test_build_output_is_pinned(self, kind, tmp_path, capsys):
        # the file form of each operation kind, its provenance lines included
        m = tmp_path / "m.txt"
        m.write_text(FIBER_MAP_CHAIN)
        expression, digest = BUILD_PINNED[kind]
        assert run(["build", expression.format(map=m)]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_order_lists_file(self, tmp_path):
        f = tmp_path / "o.txt"
        f.write_text(ORDER_0_12_3)
        code = run(["check", "box(2,2)", "--order", f'lists("{f}")'])
        assert code == 0

    def test_fiber_map_file(self, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("macposet-fibermap 1\n1\n0 0 0\n")
        assert run(["search-order", f'fiber(path(2), path(2), "{f}")']) == 0

    @pytest.mark.parametrize("target", list(CARTESIAN_TARGETS))
    def test_cartesian_target_searches_its_expression(self, target, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        expression = CARTESIAN_TARGETS[target][2]
        code = run(["reproduce", target, "--report", str(a)])
        assert run(["search-order", expression, "--report", str(b)]) == code
        assert (json.loads(a.read_text())["timings"]
                == json.loads(b.read_text())["timings"])

    @pytest.mark.parametrize("command, name", [("check", "check_macaulay"),
                                               ("additive", "is_additive")])
    def test_order_verdict_calls_through_cli_names(self, command, name, monkeypatch):
        # a function wrapped in cli, as a tracer wraps it, is the one called
        real, calls = getattr(cli, name), []

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, name, spy)
        assert run([command, "box(2,3)", "--order", "lex(x,y)"]) == 0
        assert len(calls) == 1

    def test_conjecture67_skip_special(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["conjecture67", "--max-exp", "2", "--steps", "1", "--skip-special",
                    "--report", str(out)]) == 0
        rows = json.loads(out.read_text())["grid"]["rows"]
        assert rows and not any(r["quotient"].startswith("special(") for r in rows)

    def test_fuzzed_files_are_valid_before_editing(self, tmp_path):
        o, m = tmp_path / "o.txt", tmp_path / "m.txt"
        o.write_text(ORDER_BOX_2_3)
        m.write_text(FIBER_MAP_CHAIN)
        assert run(["check", "box(2,3)", "--order", f'lists("{o}")']) == 0
        assert run(["show", f'fiber(box(2,2), box(2,2), "{m}")']) == 0


class TestFlaggedRows:
    """verify-family and the conjecture 6.7 scan print their flagged rows;
    a family grid run by reproduce prints only its summary line."""

    HEART_ROW = {"params": [1, 1, 1, 1], "predicate": False, "search": "found",
                 "nodes": 1, "subsets": 2, "agree": False}

    @pytest.fixture
    def flipped_heart_predicate(self, monkeypatch):
        real = classify.heart_predicate
        monkeypatch.setattr(classify, "heart_predicate", lambda *t: not real(*t))

    @staticmethod
    def rig_searches(monkeypatch, expect, status):
        """Searches of grid rows that expect ``expect`` report ``status``
        and disagree."""
        real = classify._searched

        def searched(poset, budget, level_cap, expected=None):
            row = real(poset, budget, level_cap, expected)
            if expected is expect:
                row.update(search=status, agree=False)
            return row

        monkeypatch.setattr(classify, "_searched", searched)

    def test_verify_family_prints_its_disagreement(
            self, flipped_heart_predicate, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run(["verify-family", "heart", "--bound", "side=1:1",
                    "--report", str(out)]) == 1
        assert capsys.readouterr().out == (
            "heart: 1 rows, 1 disagreements, 0 inconclusive\n"
            f"  DISAGREEMENT: {self.HEART_ROW}\n")
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "disagree"
        assert doc["grid"]["disagreements"] == [self.HEART_ROW]

    def test_reproduced_grid_prints_only_its_summary(
            self, flipped_heart_predicate, monkeypatch, tmp_path, capsys):
        heart = classify.FAMILIES["heart"]
        monkeypatch.setitem(classify.FAMILIES, "heart",
                            heart._replace(bounds={"side": (1, 1)}))
        out = tmp_path / "r.json"
        assert run(["reproduce", "thmC-grid", "--report", str(out)]) == 1
        assert capsys.readouterr().out == (
            "heart: 1 rows, 1 disagreements, 0 inconclusive\n")
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "violation"
        assert doc["grid"]["disagreements"] == [self.HEART_ROW]

    @pytest.mark.parametrize("argv", [
        ["conjecture67", "--max-exp", "1", "--steps", "1", "--skip-special"],
        ["reproduce", "conj67-scan"]])
    def test_scan_prints_its_counterexample(self, argv, monkeypatch, tmp_path,
                                            capsys):
        self.rig_searches(monkeypatch, True, "none")
        # the scan reproduce runs, cut to the one-element quotient
        monkeypatch.setattr(classify, "conjecture_6_7_search", functools.partial(
            classify.conjecture_6_7_search, max_exp=1, extra_steps=1,
            include_special=False))
        out = tmp_path / "r.json"
        assert run(argv + ["--report", str(out)]) == 1
        row = {"quotient": "staircase1", "slice": "conjecture67", "n": 1,
               "elements": 1, "search": "none", "nodes": 2, "subsets": 4,
               "agree": False, "counterexample": True}
        assert capsys.readouterr().out == (
            "conjecture 6.7 scan: 1 rows, 1 counterexamples, 0 inconclusive\n"
            f"  COUNTEREXAMPLE: {row}\n")
        verdict = "counterexample" if argv[0] == "conjecture67" else "violation"
        assert json.loads(out.read_text())["verdict"] == verdict

    def test_scan_disagreeing_without_a_counterexample_reports_one(
            self, monkeypatch, tmp_path, capsys):
        # only the regression row disagrees, by finding an order: exit 1,
        # so the verdict is the scan's exit-1 word, and stdout prints the
        # row that says why
        self.rig_searches(monkeypatch, False, "found")
        out = tmp_path / "r.json"
        assert run(["conjecture67", "--max-exp", "1", "--steps", "1",
                    "--report", str(out)]) == 1
        row = {"quotient": "special(y3,y2z,yz2,z3)", "slice": "conj66-regression",
               "n": 2, "elements": 12, "search": "found", "nodes": 12,
               "subsets": 50, "agree": False}
        assert capsys.readouterr().out == (
            "conjecture 6.7 scan: 3 rows, 0 counterexamples, 0 inconclusive\n"
            f"  DISAGREEMENT: {row}\n")
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "counterexample"
        assert doc["grid"]["disagreements"] == [row]


class TestDeterminism:
    FAST_TARGETS = ["heart-example", "twist-figure", "prop61-product",
                    "prop61-ring-product", "conj66-counterexample",
                    "diamond-not-wedge", "spider-union-fails"]

    @pytest.mark.parametrize("name", FAST_TARGETS)
    def test_reports_identical_across_runs(self, name, tmp_path):
        # the first run starts from cold level-row and search memos, the
        # second finds every row and search memoised
        _level_row.cache_clear()
        _search.cache_clear()
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(["reproduce", name, "--report", str(a)])
        run(["reproduce", name, "--report", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestSubprocess:
    def test_module_entrypoint(self):
        proc = subprocess.run(
            [sys.executable, "-m", "macposet", "check", "box(2,3)",
             "--order", "lex(x,y)"],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0
        assert "ok" in proc.stdout

    def test_version_flag(self):
        proc = subprocess.run([sys.executable, "-m", "macposet", "--version"],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "1.0.0"


class TestDocsMatchCode:
    README = (ROOT / "README.md").read_text()

    def test_reproduce_targets_are_listed_alike(self):
        listed = self.README.split("\nTargets: ", 1)[1].split("\n\n", 1)[0]
        readme = re.findall(r"`([^`]+)`", listed)
        spec = importlib.util.spec_from_file_location(
            "workloads", ROOT / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        assert len(readme) == len(set(readme)) == 12
        assert readme == list(workloads.REPRODUCE_TARGETS)
        assert set(readme) == set(REPRODUCE)

    def test_grammar_names_the_calls(self):
        def names(rule):
            text = self.README.split(f"\n{rule}", 1)[1].split(";", 1)[0]
            return set(re.findall(r'"([a-z]\w*)"', text))
        assert names("name      =") == {fn for fn, (kind, *_) in CALLS.items()
                                        if kind in ("poset", "ideal")}
        assert names("order     =") == {fn for fn, (kind, *_) in CALLS.items()
                                        if kind == "order"}

    def test_library_layout_names_resolve(self):
        head = "| module | contents |\n| --- | --- |\n"
        table = self.README.split(head, 1)[1].split("\n\n", 1)[0]
        rows = re.findall(r"^\| `(macposet\.\w+)` \| (.*) \|$", table, re.M)
        assert len(rows) == len(table.splitlines()) == 10
        for module, contents in rows:
            home = importlib.import_module(module)
            for name in re.findall(r"`(\w+)`", contents):
                assert hasattr(home, name) or hasattr(RankedPoset, name), (module, name)

    def test_readme_verdict_table_is_verdicts(self):
        head = "| command | exit 0 | exit 1 |\n| --- | --- | --- |\n"
        table = self.README.split(head, 1)[1].split("\n\n", 1)[0]
        documented = {}
        for line in table.splitlines():
            commands, *words = (cell.strip() for cell in line.strip("|").split("|"))
            for command in re.findall(r"`([^`]+)`", commands):
                documented[command] = tuple(w.strip("`") for w in words if w != "—")
        assert documented == cli.VERDICTS
        subcommands = next(a for a in cli.build_parser()._actions
                           if isinstance(a, argparse._SubParsersAction))
        assert set(cli.VERDICTS) == set(subcommands.choices)
