import json
import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import are_isomorphic, print_expression, print_order
from macposet import (box, check_macaulay, ideal_from_generators, path, spider,
                      standard_monomial_poset, wedge)
from macposet.cli import run_command
from macposet.expr import (CALLS, MAX_NESTING, Explicit, FileRef, Mono, Node,
                           ParseError, evaluate, parse_expression,
                           parse_monomial, parse_order, resolve_order)


class TestParsing:
    def test_wedge_of_boxes(self):
        ast = parse_expression("wedge(box(2,3), box(2,4))")
        assert ast.fn == "wedge" and len(ast.args) == 2
        assert ast.args[0] == Node("box", (2, 3))

    def test_ideal_quotient(self):
        ast = parse_expression("poset(ideal(x^4, y^3, x^3*y))")
        assert ast.fn == "poset"
        inner = ast.args[0]
        assert inner.fn == "ideal"
        assert inner.args[2] == Mono((("x", 3), ("y", 1)))

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_expression("diamond(path(3), box(2,3)")
        assert "position" in str(err.value)

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown function"):
            parse_expression("pyramid(3)")

    def test_arity_errors(self):
        with pytest.raises(ParseError, match="arguments"):
            parse_expression("cart(path(1))")
        with pytest.raises(ParseError, match="arguments"):
            parse_expression("heart(1,2,3)")

    def test_explicit_literal(self):
        ast = parse_expression("explicit{4; 0 1 2 2; 0 1, 1 2, 1 3}")
        assert isinstance(ast, Explicit)
        assert ast.ranks == (0, 1, 2, 2)
        assert ast.covers == ((0, 1), (1, 2), (1, 3))

    def test_explicit_count_mismatch(self):
        with pytest.raises(ParseError, match="ranks"):
            parse_expression("explicit{3; 0 1; 0 1}")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_expression("path(3) path(2)")

    def test_nesting_limit(self):
        def nested(fn, n, leaf):
            return f"{fn}(" * n + leaf + ")" * n

        assert parse_expression(nested("hat", MAX_NESTING - 1, "path(2)"))
        for n in (MAX_NESTING, 500, 5000):
            with pytest.raises(ParseError, match="nested more than"):
                parse_expression(nested("hat", n, "path(2)"))
        assert parse_order(nested("us", MAX_NESTING - 1, "twist"))
        with pytest.raises(ParseError, match="order nested more than 100 deep"):
            parse_order(nested("us", 5000, "twist"))

    @pytest.mark.parametrize("parse, text, message, pos", [
        (parse_expression, "hat(lex(x))", "expected a poset expression as hat", 4),
        (parse_order, "path(1)", "expected an order expression, found 'path'", 0),
        (parse_order, "us(twist, hat(path(1)))", "expected an order expression as us", 10),
        (parse_order, "explicit{1; 0;}", "unknown order 'explicit'", 0),
        (parse_order, "lex(x, 1)", "expected a variable name as lex argument 2", 7),
    ])
    def test_call_of_another_kind_is_rejected_at_its_position(
            self, parse, text, message, pos):
        with pytest.raises(ParseError, match=re.escape(message)) as err:
            parse(text)
        assert err.value.pos == pos

    def test_readme_grammar_names_the_calls(self):
        """The README's grammar lists the poset and ideal calls as
        ``name`` and the order calls as ``order``."""
        readme = pathlib.Path(__file__).parent.parent / "README.md"
        block = readme.read_text().split("```ebnf\n")[1].split("```")[0]

        def alternatives(rule):
            rhs = re.search(rf"^{rule}\s*=(.*?);\s*$", block, re.M | re.S)[1]
            return {re.match(r'\s*"(\w+)"', alt)[1] for alt in rhs.split("|")}

        def calls(*kinds):
            return {fn for fn, (result, *_) in CALLS.items() if result in kinds}

        assert alternatives("name") == calls("poset", "ideal")
        assert alternatives("order") == calls("order")


CORPUS = [
    "path(0)",
    "box(2, 3, 4)",
    "spider(1, 2, 2)",
    "heart(5, 2, 2, 5)",
    "poset(ideal(x^4, y^3, x^3*y))",
    "poset(ideal(1))",
    "union(path(1), path(2), box(2, 2))",
    "wedge(poset(ideal(x^2)), poset(ideal(y^3)))",
    "diamond(hat(box(2, 2)), uhat(box(2, 2)))",
    "cart(path(1), explicit{4; 0 1 2 2; 0 1, 1 2, 1 3})",
    "fiber(poset(ideal(x^4, y)), poset(ideal(x^3, y^3)))",
    "bar(hat(spider(2, 2)))",
    "ubar(box(2, 2))",
]


class TestRoundTrip:
    @pytest.mark.parametrize("text", CORPUS)
    def test_parse_print_parse(self, text):
        ast = parse_expression(text)
        printed = print_expression(ast)
        assert parse_expression(printed) == ast
        assert print_expression(parse_expression(printed)) == printed


class TestEvaluation:
    def test_heart_via_fiber_matches_ideal_route(self):
        lhs = evaluate(parse_expression(
            "fiber(poset(ideal(x^4, y)), poset(ideal(x^3, y^3)))")).poset
        rhs = evaluate(parse_expression("poset(ideal(x^4, y^3, x^3*y))")).poset
        assert are_isomorphic(lhs, rhs) is not None

    def test_heart_expression(self):
        h = evaluate(parse_expression("heart(5,2,2,5)"))
        assert h.poset.level_sizes() == (1, 2, 3, 4, 4, 2)

    def test_operations(self):
        ev = evaluate(parse_expression("wedge(path(1), path(2))"))
        assert are_isomorphic(ev.poset, spider(1, 2)) is not None
        ev = evaluate(parse_expression("cart(path(2), path(3))"))
        assert are_isomorphic(ev.poset, box(3, 4)) is not None

    def test_extremes(self):
        ev = evaluate(parse_expression("bar(hat(box(2,2)))"))
        assert are_isomorphic(ev.poset, box(2, 2)) is not None

    def test_ideal_exponents_add_up(self):
        ev = evaluate(parse_expression("poset(ideal(y^2*x, x*x^2, y*y, x*y))"))
        # variables in the order first written: (y, x)
        want = ideal_from_generators([(2, 1), (0, 3), (2, 0), (1, 1)], ("y", "x"))
        assert ev.poset.var_names == ("y", "x")
        assert ev.poset.labels == standard_monomial_poset(want).labels

    def test_ideal_rejects_non_identifier_names(self):
        from macposet import PosetError
        with pytest.raises(PosetError, match="bad variable name"):
            evaluate(parse_expression("poset(ideal(x\u00b2, y))"))
        with pytest.raises(PosetError, match="bad variable name"):
            parse_monomial("y*x\u00b2")

    def test_monomial_exponents_add_up(self):
        assert parse_monomial("y^2*x*y") == {"y": 3, "x": 1}
        assert parse_monomial("1") == {}

    def test_fiber_needs_ideals_or_map(self):
        from macposet import PosetError
        with pytest.raises(PosetError, match="ideal containment"):
            evaluate(parse_expression("fiber(path(2), path(2))"))

    @pytest.mark.parametrize("factor", ["explicit{1; 0;}", "hat(poset(ideal(x)))"])
    def test_fiber_needs_quotient_nodes(self, factor, capsys):
        # a factor with no ideal of its own is an input error, however
        # its node is built
        assert run_command(["show", f"fiber({factor}, poset(ideal(x)))"]) == 2
        assert capsys.readouterr().err == (
            "error: fiber over ideal containment needs poset(ideal(...)) factors; "
            "otherwise pass an explicit map file\n")


# order ASTs; a variable may share its name with a call
_ORDER_NODES = st.recursive(
    st.one_of(st.just(Node("twist", ())),
              st.lists(st.sampled_from(["x", "y", "x1", "lex", "twist"]),
                       min_size=1, max_size=3).map(lambda v: Node("lex", tuple(v))),
              st.text(st.characters(exclude_characters='"'), max_size=6).map(
                  lambda f: Node("lists", (FileRef(f),)))),
    lambda kids: st.lists(kids, min_size=1, max_size=3).map(
        lambda a: Node("us", tuple(a))),
    max_leaves=6)


class TestFiles:
    """The library reads the map and order files the CLI reads."""

    def test_library_reads_what_the_cli_reads(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        pathlib.Path("m.txt").write_text("macposet-fibermap 1\n# c a b\n2\n0 0 0\n1 1 1\n")
        # box(2,3) with y before x at level 1: y's shadow is not minimal
        pathlib.Path("o.txt").write_text(
            "macorder 1\nlevel 0: 0\nlevel 1: 2 1\nlevel 2: 3 4\nlevel 3: 5\n")
        fiber = 'fiber(box(2,2), box(2,2), "m.txt")'
        p = evaluate(parse_expression(fiber)).poset
        assert run_command(["show", fiber, "--report", "show.json"]) == 0
        head = capsys.readouterr().out.splitlines()[:2]
        assert head == [f"{p.name}: {p.n} elements, ranks 0..{p.max_rank}",
                        "level sizes: " + " ".join(map(str, p.level_sizes()))]
        ev = evaluate(parse_expression("box(2,3)"))
        verdict = check_macaulay(ev.poset, resolve_order(parse_order('lists("o.txt")'), ev))
        assert run_command(["check", "box(2,3)", "--order", 'lists("o.txt")',
                            "--report", "check.json"]) == 1
        report = json.loads(pathlib.Path("check.json").read_text())
        assert (report["verdict"], report["witness"]) == (verdict.status,
                                                          verdict.witness.to_json())

    def test_missing_file_is_an_input_error(self, tmp_path):
        fiber = f'fiber(box(2,2), box(2,2), "{tmp_path / "none.txt"}")'
        with pytest.raises(OSError):
            evaluate(parse_expression(fiber))
        assert run_command(["show", fiber]) == 2
        order = f'lists("{tmp_path / "none.txt"}")'
        with pytest.raises(OSError):
            resolve_order(parse_order(order), evaluate(parse_expression("box(2,2)")))
        assert run_command(["check", "box(2,2)", "--order", order]) == 2


class TestOrderExpressions:
    def test_round_trip(self):
        for text in ["lex(x, y)", "twist", "us(lex(x, y), lex(x, y))",
                     'lists("order.txt")']:
            node = parse_order(text)
            assert print_order(parse_order(print_order(node))) == print_order(node)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_ORDER_NODES)
    def test_generated_round_trip(self, node):
        assert parse_order(print_order(node)) == node

    def test_lex_resolution(self):
        ev = evaluate(parse_expression("box(3,4)"))
        fam = resolve_order(parse_order("lex(x,y)"), ev)
        assert check_macaulay(ev.poset, fam).ok

    def test_twist_resolution(self):
        ev = evaluate(parse_expression("heart(5,2,2,5)"))
        fam = resolve_order(parse_order("twist"), ev)
        assert check_macaulay(ev.poset, fam).ok

    def test_twist_on_mirrored_params(self):
        ev = evaluate(parse_expression("heart(2,5,5,2)"))
        fam = resolve_order(parse_order("twist"), ev)
        assert check_macaulay(ev.poset, fam).ok

    def test_nested_twist_reads_each_heart(self, tmp_path):
        # each factor's twist reads its own heart's parameters, in both
        # factor orders
        report = tmp_path / "r.json"
        assert run_command(["check", "wedge(heart(5,2,2,5), heart(2,5,5,2))",
                            "--order", "us(twist, twist)",
                            "--report", str(report)]) == 0
        assert json.loads(report.read_text())["verdict"] == "ok"

    def test_us_resolution_and_arity(self):
        ev = evaluate(parse_expression("wedge(box(2,2), box(2,2))"))
        fam = resolve_order(parse_order("us(lex(x,y), lex(x,y))"), ev)
        assert check_macaulay(ev.poset, fam).ok
        from macposet import PosetError
        with pytest.raises(PosetError, match="arity"):
            resolve_order(parse_order("us(lex(x,y))"), ev)

    @pytest.mark.parametrize("fn", ["union", "diamond"])  # wedge: the test above
    def test_us_resolves_on_union_and_diamond(self, fn):
        ev = evaluate(parse_expression(f"{fn}(box(2,2), box(2,2))"))
        fam = resolve_order(parse_order("us(lex(x,y), lex(x,y))"), ev)
        assert check_macaulay(ev.poset, fam).ok

    @pytest.mark.parametrize("expression, order", [
        ("cart(box(2,2), box(2,2))", "us(lex(x,y))"),
        ("cart(box(2,2), box(2,2))", "us(lex(x,y), lex(x,y))"),
        ("fiber(poset(ideal(x^2,y^2)), poset(ideal(x^2,y^3)))", "us(lex(x,y), lex(x,y))"),
        ('fiber(box(2,2), box(2,2), "m.txt")', "us(lex(x,y), lex(x,y))"),
        ("box(2,2)", "us(lex(x,y))"),
        ("spider(1,1)", "us(lex(x,y), lex(x,y))"),
    ])
    def test_us_rejected_outside_union_wedge_diamond(self, expression, order,
                                                     tmp_path, monkeypatch, capsys):
        # cart and fiber carry provenance and factors too, but no
        # union simplicial order, whatever the arity
        monkeypatch.chdir(tmp_path)
        pathlib.Path("m.txt").write_text("macposet-fibermap 1\n2\n0 0 0\n1 1 1\n")
        assert run_command(["check", expression, "--order", order]) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == (
            "", "error: us(...) applies to union/wedge/diamond expressions\n")

    def test_twist_rejected_outside_hearts(self):
        from macposet import PosetError
        ev = evaluate(parse_expression("box(3,4)"))
        with pytest.raises(PosetError, match="heart"):
            resolve_order(parse_order("twist"), ev)
