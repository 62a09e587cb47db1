"""Monomial-ideal arithmetic and standard-monomial posets.

Monomials are exponent tuples; an ideal keeps its minimal generators as
an antichain in canonical (lex-descending) order.  Quotients with a pure
power of every variable are finite, and their standard monomials form a
ranked poset under divisibility.  Nothing here parses text:
``macposet.expr`` reads monomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import le

from .core import PosetError, RankedPoset, format_monomial


def default_var_names(n: int) -> tuple:
    if n <= 3:
        return ("x", "y", "z")[:n]
    return tuple(f"x{i + 1}" for i in range(n))


def divides(a, b) -> bool:
    """Componentwise a <= b, i.e. x^a divides x^b."""
    if len(a) != len(b):
        raise PosetError(f"arity mismatch: {len(a)} vs {len(b)}")
    return all(map(le, a, b))


def lcm(a, b):
    if len(a) != len(b):
        raise PosetError(f"arity mismatch: {len(a)} vs {len(b)}")
    return tuple(max(ai, bi) for ai, bi in zip(a, b))


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal given by its minimal generators.

    Construct through :func:`ideal_from_generators`, which drops
    redundant generators and sorts the rest lex-descending so equal
    ideals compare equal.
    """

    arity: int
    generators: tuple  # antichain of exponent tuples, lex descending
    var_names: tuple

    def member(self, m) -> bool:
        if len(m) != self.arity:
            raise PosetError(f"arity mismatch: {len(m)} vs {self.arity}")
        return any(all(map(le, g, m)) for g in self.generators)

    def is_zero(self) -> bool:
        return not self.generators

    def __str__(self):
        if not self.generators:
            return "(0)"
        return "(" + ", ".join(format_monomial(g, self.var_names) for g in self.generators) + ")"


def ideal_from_generators(gens, var_names=None) -> MonomialIdeal:
    """Minimalize and canonicalize a generating set."""
    gens = [tuple(int(e) for e in g) for g in gens]
    arity = len(gens[0]) if gens else (len(var_names) if var_names else 0)
    for g in gens:
        if len(g) != arity:
            raise PosetError("generators have mixed arities")
        if any(e < 0 for e in g):
            raise PosetError("exponents must be nonnegative")
    if var_names is None:
        var_names = default_var_names(arity)
    if len(var_names) != arity:
        raise PosetError("variable name count disagrees with arity")
    uniq = sorted(set(gens))
    minimal = [g for g in uniq
               if not any(h != g and divides(h, g) for h in uniq)]
    minimal.sort(reverse=True)  # lex descending on exponent vectors
    return MonomialIdeal(arity, tuple(minimal), tuple(var_names))


def pure_power_ideal(caps, var_names=None) -> MonomialIdeal:
    """(x1^d1, ..., xn^dn); its quotient is the d1 x ... x dn box."""
    caps = list(caps)
    n = len(caps)
    gens = []
    for i, d in enumerate(caps):
        g = [0] * n
        g[i] = int(d)
        gens.append(tuple(g))
    return ideal_from_generators(gens, var_names)


def _same_ring(i: MonomialIdeal, j: MonomialIdeal, what: str):
    """Binary ideal operations read generators position by position, so
    both ideals need the same variables in the same order."""
    if i.arity != j.arity:
        raise PosetError(f"arity mismatch in {what}")
    if i.var_names != j.var_names:
        raise PosetError(f"variable names differ in {what}: "
                         f"{','.join(i.var_names)} vs {','.join(j.var_names)}")


def ideal_sum(i: MonomialIdeal, j: MonomialIdeal) -> MonomialIdeal:
    _same_ring(i, j, "ideal sum")
    return ideal_from_generators(i.generators + j.generators, i.var_names)


def ideal_intersection(i: MonomialIdeal, j: MonomialIdeal) -> MonomialIdeal:
    """Pairwise lcms of generators, minimalized."""
    _same_ring(i, j, "ideal intersection")
    if i.is_zero() or j.is_zero():
        return ideal_from_generators([], i.var_names)
    gens = [lcm(g, h) for g in i.generators for h in j.generators]
    return ideal_from_generators(gens, i.var_names)


def ideal_contains(i: MonomialIdeal, j: MonomialIdeal) -> bool:
    """i is contained in j, i.e. every generator of i is a member of j.
    Both need the same variable names in the same order."""
    _same_ring(i, j, "containment test")
    return all(j.member(g) for g in i.generators)


def quotient_is_finite(i: MonomialIdeal) -> bool:
    """True iff for every variable some generator is a pure power of it."""
    return None not in _pure_power_caps(i)


def _pure_power_caps(i: MonomialIdeal) -> list:
    """Each variable's exponent in the generator that is a pure power of
    it (generators are an antichain, so there is at most one), None
    where there is none; the unit ideal caps every variable at 0."""
    caps = [None] * i.arity
    for g in i.generators:
        nz = [k for k, e in enumerate(g) if e > 0]
        if not nz:
            return [0] * i.arity
        if len(nz) == 1:
            caps[nz[0]] = g[nz[0]]
    return caps


def box_cells(dims, ideal=None) -> list:
    """Exponent vectors below ``dims`` and outside ``ideal`` (if given),
    by degree, lex-descending within a degree.  A coordinate rises only
    until the zero-padded vector lies in the ideal, so the work follows
    the cells kept, not the size of the box."""
    cells = [()]
    for v, d in enumerate(dims):
        pad = (0,) * (len(dims) - v - 1)
        grown = []
        for m in cells:
            top = 0
            while top < d and not (ideal and ideal.member(m + (top,) + pad)):
                top += 1
            grown.extend(m + (e,) for e in range(top - 1, -1, -1))
        cells = grown
    return sorted(cells, key=sum)  # stable: lex-descending within a degree


def monomial_poset(cells, var_names, name) -> RankedPoset:
    """Divisibility poset of a down-set of exponent vectors: ids in the
    order of ``cells``, ranks the degrees, covers unit steps, found one
    variable at a time.  The one down-set builder: boxes, hearts and
    standard-monomial posets are all built by it."""
    index = {m: k for k, m in enumerate(cells)}
    covers = []
    for v in range(len(var_names)):
        covers += [(a, b) for m, a in index.items()
                   if (b := index.get(m[:v] + (m[v] + 1,) + m[v + 1:])) is not None]
    return RankedPoset(map(sum, cells), covers, labels=cells,
                       var_names=var_names, name=name)


def standard_monomial_poset(i: MonomialIdeal, name="") -> RankedPoset:
    """Divisibility poset of the monomials outside a finite-quotient ideal,
    listed as :func:`box_cells` lists them."""
    caps = _pure_power_caps(i)
    if None in caps:
        raise PosetError(f"quotient of {i} is not finite")
    cells = [] if i.member((0,) * i.arity) else box_cells(caps, i)
    return monomial_poset(cells, i.var_names, name or f"poset{i}")


def inclusion_map(i: MonomialIdeal, j: MonomialIdeal,
                  poset_i: RankedPoset | None = None,
                  poset_j: RankedPoset | None = None) -> dict:
    """Embedding of the quotient poset of j into the quotient poset of i.

    Requires i contained in j (so R/j has fewer standard monomials); each
    standard monomial of R/j maps to the same monomial in R/i.  Returns
    id-in-poset(j) -> id-in-poset(i).
    """
    if not ideal_contains(i, j):
        raise PosetError(f"{i} is not contained in {j}")
    pi = poset_i if poset_i is not None else standard_monomial_poset(i)
    pj = poset_j if poset_j is not None else standard_monomial_poset(j)
    of_label = {m: k for k, m in enumerate(pi.labels)}
    return {a: of_label[m] for a, m in enumerate(pj.labels)}
