"""Surface syntax for posets and orders: a small recursive-descent DSL.

Poset expressions::

    path(3)  box(2,3,4)  spider(1,2,2)  heart(5,2,2,5)
    poset(ideal(x^4, y^3, x^3*y))
    union(e,...)  wedge(e,...)  diamond(e,...)  cart(e,e)
    fiber(poset(ideal(...)), poset(ideal(...)))      # glued over the ideal sum
    fiber(e, e, "maps.txt")                          # explicit map file
    hat(e)  uhat(e)  bar(e)  ubar(e)
    explicit{5; 0 1 1 2 2; 0 1, 0 2, 1 3, 2 3, 1 4, 2 4}

Order expressions::

    lex(x,y)   us(lex(x,y), lex(x,y))   twist   lists("order.txt")

One table (``CALLS``) gives each call, order calls included, its result
kind (poset, ideal or order) and its argument kinds: integers, posets,
one ``ideal(...)``, monomials, orders, variable names, or a file-name
string.  So one parser reads expressions, orders and ``--set``
monomials, with the same kind checks and the same nesting limit
(``MAX_NESTING``).  It enters a call only where its result kind is asked
for, so ``hat(lex(x))`` is an error at ``lex``, and rejects an argument
of the wrong kind at its position; ``parse_monomial`` reads a monomial
with the same grammar.

``evaluate`` returns a built poset with the node it was built from (every
node, ``explicit`` included, answers ``.fn``) and its poset arguments'
results, so ``twist`` and ``fiber`` read a heart's parameters and a
quotient's ideal from the tree.  It rejects an ``explicit`` literal
whose covers break the rank law.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import construct, ideals
from .core import PosetError, RankedPoset, induced_subposet, validate_poset
from .orders import lex_order, order_from_lists, twist_order, union_simplicial_order
from .serialize import fibermap_from_text, order_lists_from_text


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


@dataclass(frozen=True)
class Node:
    fn: str
    args: tuple


@dataclass(frozen=True)
class Mono:
    factors: tuple  # ((name, exponent), ...) in written order


@dataclass(frozen=True)
class FileRef:
    path: str


@dataclass(frozen=True)
class Explicit:
    fn = "explicit"  # a class attribute, so every node answers .fn
    count: int
    ranks: tuple
    covers: tuple


_PUNCT = "(){},;^*"
_DIGITS = "0123456789"  # not str.isdigit, which takes other scripts and superscripts


class _Tokens:
    def __init__(self, text: str):
        self.toks: list = []
        i = 0
        while i < len(text):
            c = text[i]
            if c.isspace():
                i += 1
                continue
            if c in _PUNCT:
                self.toks.append((c, c, i))
                i += 1
                continue
            if c == '"':
                j = text.find('"', i + 1)
                if j < 0:
                    raise ParseError("unterminated string", i)
                self.toks.append(("STR", text[i + 1:j], i))
                i = j + 1
                continue
            if c in _DIGITS:
                j = i
                while j < len(text) and text[j] in _DIGITS:
                    j += 1
                self.toks.append(("INT", int(text[i:j]), i))
                i = j
                continue
            if c.isalpha() or c == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.toks.append(("NAME", text[i:j], i))
                i = j
                continue
            raise ParseError(f"unexpected character {c!r}", i)
        self.toks.append(("EOF", None, len(text)))
        self.k = 0

    def peek(self):
        return self.toks[self.k]

    def next(self):
        t = self.toks[self.k]
        self.k += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t[0] != kind:
            raise ParseError(f"expected {kind!r}, found {t[1]!r}", t[2])
        return t


# deepest nesting of calls the parser accepts; deeper input is a
# ParseError, not a RecursionError
MAX_NESTING = 100

# each call's (result kind, argument kinds, fewest, most arguments);
# argument i has kind kinds[min(i, len(kinds) - 1)], most=None means no
# limit, and a call that takes no arguments is written bare
CALLS = {"path": ("poset", ("int",), 1, 1), "box": ("poset", ("int",), 1, None),
         "spider": ("poset", ("int",), 1, None), "heart": ("poset", ("int",), 4, 4),
         "poset": ("poset", ("ideal",), 1, 1), "ideal": ("ideal", ("mono",), 1, None),
         "union": ("poset", ("poset",), 1, None), "wedge": ("poset", ("poset",), 1, None),
         "diamond": ("poset", ("poset",), 1, None), "cart": ("poset", ("poset",), 2, 2),
         "fiber": ("poset", ("poset", "poset", "str"), 2, 3),
         "hat": ("poset", ("poset",), 1, 1), "uhat": ("poset", ("poset",), 1, 1),
         "bar": ("poset", ("poset",), 1, 1), "ubar": ("poset", ("poset",), 1, 1),
         "lex": ("order", ("name",), 1, None), "us": ("order", ("order",), 1, None),
         "twist": ("order", (), 0, 0), "lists": ("order", ("str",), 1, 1)}
_KIND_NAMES = {"int": "an integer", "poset": "a poset expression",
               "ideal": "ideal(...)", "mono": "a monomial",
               "str": "a file-name string", "order": "an order expression",
               "name": "a variable name"}


def parse_expression(text: str) -> Node | Explicit:
    return _parse_text(text, "poset")


def parse_order(text: str) -> Node:
    return _parse_text(text, "order")


def parse_monomial(text: str) -> dict:
    """Each variable of a monomial such as ``x^2*y`` with its exponent,
    in the order first written; ``1`` has none."""
    return _exponents(_parse_text(text, "mono"))


def _parse_text(text: str, kind: str):
    toks = _Tokens(text)
    node = _parse_arg(toks, kind, "", 0)
    t = toks.peek()
    if t[0] != "EOF":
        raise ParseError(f"trailing input {t[1]!r}", t[2])
    return node


def _parse_call(toks: _Tokens, depth: int) -> Node:
    _, fn, pos = toks.next()
    _, kinds, lo, hi = CALLS[fn]
    if hi == 0:
        return Node(fn, ())
    toks.expect("(")
    args = []
    if toks.peek()[0] != ")":
        while True:
            if len(args) == hi:
                raise ParseError(f"{fn} takes {_arity(lo, hi)} arguments",
                                 toks.peek()[2])
            kind = kinds[min(len(args), len(kinds) - 1)]
            args.append(_parse_arg(toks, kind, f" as {fn} argument {len(args) + 1}",
                                   depth + 1))
            if toks.peek()[0] == ",":
                toks.next()
                continue
            break
    close = toks.next()
    if close[0] != ")":
        raise ParseError(f"expected ')' or ',', found {close[1]!r}", close[2])
    if len(args) < lo:
        raise ParseError(f"{fn} takes {_arity(lo, hi)} arguments, got {len(args)}", pos)
    return Node(fn, tuple(args))


def _arity(lo: int, hi: int | None) -> str:
    return f"{lo}{'' if hi == lo else '+' if hi is None else f'..{hi}'}"


def _parse_arg(toks: _Tokens, kind: str, where: str, depth: int):
    """One argument of the given kind, a call nested ``depth`` deep;
    ``where`` names its place in the error for another kind."""
    tok, val, pos = toks.peek()
    if kind == "int" and tok == "INT":
        return toks.next()[1]
    if kind == "str" and tok == "STR":
        return FileRef(toks.next()[1])
    if kind == "name" and tok == "NAME":
        return toks.next()[1]
    if kind == "mono" and tok == "INT":
        # a bare integer in a monomial's place is the monomial 1
        toks.next()
        if val != 1:
            raise ParseError("only the monomial 1 may be a bare integer", pos)
        return Mono(())
    if kind == "mono" and tok == "NAME":
        return _parse_monomial(toks)
    if tok == "NAME" and kind in ("poset", "ideal", "order"):
        if depth >= MAX_NESTING:
            raise ParseError(f"{'order' if kind == 'order' else 'expression'} "
                             f"nested more than {MAX_NESTING} deep", pos)
        if val == "explicit" and kind == "poset":
            return _parse_explicit(toks)
        if val in CALLS and CALLS[val][0] == kind:
            return _parse_call(toks, depth)
        if val not in CALLS and kind != "ideal":
            raise ParseError(f"unknown {'order' if kind == 'order' else 'function'} "
                             f"{val!r}", pos)
    raise ParseError(f"expected {_KIND_NAMES[kind]}{where}, found {val!r}", pos)


def _parse_monomial(toks: _Tokens) -> Mono:
    factors = []
    while True:
        name = toks.expect("NAME")[1]
        exp = 1
        if toks.peek()[0] == "^":
            toks.next()
            exp = toks.expect("INT")[1]
        factors.append((name, exp))
        if toks.peek()[0] == "*":
            toks.next()
            continue
        break
    return Mono(tuple(factors))


def _parse_explicit(toks: _Tokens) -> Explicit:
    toks.expect("NAME")
    toks.expect("{")
    count = toks.expect("INT")[1]
    toks.expect(";")
    ranks = []
    while toks.peek()[0] == "INT":
        ranks.append(toks.next()[1])
    toks.expect(";")
    covers = []
    if toks.peek()[0] == "INT":
        while True:
            a = toks.expect("INT")[1]
            b = toks.expect("INT")[1]
            covers.append((a, b))
            if toks.peek()[0] == ",":
                toks.next()
                continue
            break
    t = toks.expect("}")
    if len(ranks) != count:
        raise ParseError(f"explicit lists {len(ranks)} ranks for {count} elements", t[2])
    return Explicit(count, tuple(ranks), tuple(covers))


# ------------------------------------------------------------------ evaluator

@dataclass
class EvalResult:
    """A built poset with the node it was built from and the results of
    that node's poset arguments, in order; ``twist`` reads a heart's
    parameters from the node, and ``fiber`` a quotient's ideal."""
    poset: RankedPoset
    node: Node | Explicit
    children: list


def _exponents(mono: Mono) -> dict:
    """A monomial's exponent of each variable, summed over its factors."""
    exps: dict = {}
    for v, e in mono.factors:
        if not v.isidentifier():
            raise PosetError(f"bad variable name {v!r}")
        exps[v] = exps.get(v, 0) + e
    return exps


def _eval_ideal(node: Node) -> ideals.MonomialIdeal:
    raw = [_exponents(m) for m in node.args]
    names = tuple(dict.fromkeys(v for exps in raw for v in exps))
    gens = [tuple(exps.get(v, 0) for v in names) for exps in raw]
    return ideals.ideal_from_generators(gens, names)


def _read(path_, parse):
    """The file at ``path_``, read by ``parse``; a missing file raises
    OSError, an input error."""
    with open(path_) as fh:
        return parse(fh.read())


def evaluate(node) -> EvalResult:
    """Build the poset an expression denotes, reading the map file of an
    explicit ``fiber`` from the filesystem."""
    if isinstance(node, Explicit):
        p = RankedPoset(node.ranks, node.covers, name="explicit")
        verdict = validate_poset(p)
        if not verdict.ok:
            raise PosetError(f"explicit literal: {verdict.witness.detail}")
        return EvalResult(p, node, [])
    fn, args = node.fn, node.args
    children = [evaluate(a) for a in args
                if isinstance(a, (Node, Explicit)) and a.fn != "ideal"]
    posets = [c.poset for c in children]
    # the builder tables below are built per call: perfbench's tracer rebinds
    # module attributes, so a table built at import would keep unwrapped ones
    if fn == "poset":
        p = ideals.standard_monomial_poset(_eval_ideal(args[0]))
    elif fn == "fiber":
        p = _fiber(args, children)
    elif fn in ("hat", "uhat", "bar", "ubar"):
        op = construct.adjoin_extreme if fn in ("hat", "uhat") else construct.remove_extreme
        p = op(posets[0], "top" if fn in ("hat", "bar") else "bottom")
    elif fn in ("union", "wedge", "diamond"):
        p = {"union": construct.disjoint_union, "wedge": construct.wedge,
             "diamond": construct.diamond}[fn](posets)
    elif fn == "cart":
        p = construct.cartesian_product(*posets)
    else:
        p = {"path": construct.path, "box": construct.box, "spider": construct.spider,
             "heart": construct.build_heart}[fn](*args)
    return EvalResult(p, node, children)


def _fiber(args, children) -> RankedPoset:
    """The fiber product of two built factors, glued over the base of
    the map file ``args[2]`` or, with no file, of the ideal sum."""
    pa, pb = (c.poset for c in children)
    if len(args) == 3:
        triples = _read(args[2].path, fibermap_from_text)
        ids_a = [a for _, a, _ in triples]
        # the base is induced on these ids, so each must name its own element
        for a in ids_a:
            if not 0 <= a < pa.n:
                raise PosetError(f"fiber map: factor-a id {a} out of range "
                                 f"0..{pa.n - 1}")
        if len(set(ids_a)) != len(ids_a):
            raise PosetError("fiber map: factor-a ids are not distinct")
        sub = induced_subposet(pa, ids_a)
        pc = sub.poset
        into_a = {sub.new_of_old[a]: a for _, a, _ in triples}
        into_b = {sub.new_of_old[a]: b for _, a, b in triples}
    else:
        if any(c.node.fn != "poset" for c in children):
            raise PosetError("fiber over ideal containment needs poset(ideal(...)) "
                             "factors; otherwise pass an explicit map file")
        ia, ib = (_eval_ideal(c.node.args[0]) for c in children)
        base = ideals.ideal_sum(ia, ib)
        pc = ideals.standard_monomial_poset(base)
        into_a = ideals.inclusion_map(ia, base, poset_i=pa, poset_j=pc)
        into_b = ideals.inclusion_map(ib, base, poset_i=pb, poset_j=pc)
    return construct.fiber_product(pa, pb, pc, into_a, into_b)


# ------------------------------------------------------------- order language

def resolve_order(node: Node, ev: EvalResult):
    """Resolve an order expression against the structure of a built poset."""
    if node.fn == "lex":
        return lex_order(ev.poset, node.args)
    if node.fn == "twist":
        if ev.node.fn != "heart":
            raise PosetError("twist order applies to heart(...) expressions")
        a0, a1, b0, b1 = ev.node.args
        if b1 < a1:  # relabel the factors; the poset is unchanged
            a0, a1, b0, b1 = b0, b1, a0, a1
        return twist_order(ev.poset, a0, a1, b0, b1)
    if node.fn == "us":
        if ev.node.fn not in ("union", "wedge", "diamond"):
            raise PosetError("us(...) applies to union/wedge/diamond expressions")
        if len(node.args) != len(ev.children):
            raise PosetError(f"us arity {len(node.args)} does not match "
                             f"operation arity {len(ev.children)}")
        factor_orders = [resolve_order(sub, child)
                         for sub, child in zip(node.args, ev.children)]
        return union_simplicial_order(ev.poset, factor_orders)
    if node.fn == "lists":
        return order_from_lists(ev.poset, _read(node.args[0].path, order_lists_from_text))
    raise PosetError(f"cannot resolve order {node.fn!r}")
