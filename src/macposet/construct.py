"""Poset constructors and operations: paths, boxes, hearts, spiders,
disjoint union, wedge, diamond, fiber and cartesian products, extreme-element
transforms.  Every gluing or product operation returns a poset whose
``provenance`` records which factor each element came from, so
downstream orders can tell."""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .core import PosetError, RankedPoset, validate_poset
from .ideals import box_cells, default_var_names, monomial_poset


@dataclass(frozen=True)
class Provenance:
    """Per-element origin records for an operation output.

    ``operation`` is disjoint_union, wedge, diamond, fiber or cartesian.
    ``sources[i]`` is a tuple of (factor_index, source_id) pairs; glue
    points created by identifying factor extremes carry one pair per
    factor.  Fiber products additionally record the base-poset id with
    the sentinel factor index -2.
    """

    operation: str
    sources: tuple

    def arity(self) -> int:
        return 1 + max(f for rec in self.sources for f, _ in rec if f >= 0)


# paths and boxes are memoised on their arguments, since their posets
# are immutable: one pass of the 12 reproduce targets asks for 9
# distinct paths and 45 distinct boxes (the hearts' among them), and
# each memo holds 64
BUILD_CACHE = 64


@functools.lru_cache(maxsize=BUILD_CACHE, typed=True)
def path(d: int) -> RankedPoset:
    """Chain of d+1 elements at ranks 0..d.  Memoised on ``d``, so
    equal arguments give the same immutable poset."""
    if d < 0:
        raise PosetError("path length must be >= 0")
    return RankedPoset(range(d + 1), [(i, i + 1) for i in range(d)],
                       name=f"path({d})")


@functools.lru_cache(maxsize=BUILD_CACHE, typed=True)
def box(*dims) -> RankedPoset:
    """Box poset: exponent vectors below the given caps, ordered by
    divisibility.  Memoised on the caps, so equal arguments give the
    same immutable poset."""
    if not dims or any(d < 1 for d in dims):
        raise PosetError("box needs side lengths >= 1")
    tag = "box(" + ",".join(str(d) for d in dims) + ")"
    return monomial_poset(box_cells(dims), default_var_names(len(dims)), tag)


def heart_cells(a0: int, a1: int, b0: int, b1: int) -> list:
    """Cells of the a0 x a1 and b0 x b1 boxes: those of their overlap
    box, then those only in the first, then those only in the second.
    Sides are at least 1.  The cells are read from the memoised boxes'
    labels: a box's cell lies outside the overlap box exactly when one
    coordinate reaches the overlap's side."""
    c0, c1 = min(a0, b0), min(a1, b1)
    return [*box(c0, c1).labels] + [m for dims in ((a0, a1), (b0, b1))
                                    for m in box(*dims).labels
                                    if m[0] >= c0 or m[1] >= c1]


def build_heart(a0: int, a1: int, b0: int, b1: int) -> RankedPoset:
    """Heart-shaped poset: the union of an a0 x a1 and a b0 x b1 box in
    N^2, which is their fiber product over the overlap box, with the
    same element ids."""
    if min(a0, a1, b0, b1) < 1:
        raise PosetError("heart needs side lengths >= 1")
    return monomial_poset(heart_cells(a0, a1, b0, b1), ("x", "y"),
                          f"heart({a0},{a1},{b0},{b1})")


def spider(*legs) -> RankedPoset:
    """Wedge of paths sharing their minimum."""
    if not legs or any(l < 1 for l in legs):
        raise PosetError("spider needs leg lengths >= 1")
    return _glue([path(l) for l in legs], "wedge",
                 "spider(" + ",".join(str(l) for l in legs) + ")")


def _cover_pairs(p: RankedPoset):
    return [(a, b) for a in range(p.n) for b in p.up[a]]


# each gluing operation's output name and the factor extremes it identifies
GLUED = {"disjoint_union": ("union", ()), "wedge": ("wedge", ("minimum",)),
         "diamond": ("diamond", ("minimum", "maximum"))}


def _glue(ps, operation: str, name=None) -> RankedPoset:
    """Side-by-side copies of the factors, with the extremes that
    ``operation`` identifies glued into one element each: none for a
    disjoint union, the minima for a wedge (and a spider), the minima
    and the maxima for a diamond.  Element ids:
    the glued minimum, then every other element by factor and id, then
    the glued maximum."""
    ps = list(ps)
    tag, glued = GLUED[operation]
    if glued and not ps:
        raise PosetError(f"{operation} needs at least one factor")
    ext = {which: [] for which in glued}
    for which, ids in ext.items():
        for k, p in enumerate(ps):
            found = p.minimal_elements() if which == "minimum" else p.maximal_elements()
            if len(found) != 1:
                raise PosetError(f"factor {k} has {len(found)} {which[:3]}imal elements, "
                                 "needs exactly 1")
            ids += found
    skip = [{ids[k] for ids in ext.values()} for k in range(len(ps))]
    for k, glued_ids in enumerate(skip):
        if len(glued_ids) < len(ext):
            raise PosetError(f"factor {k} has its minimum equal to its maximum")
    for k, p in enumerate(ps):
        for which, ids in ext.items():
            r, r0 = p.rank[ids[k]], ps[0].rank[ids[0]]
            if r != r0:
                raise PosetError(f"factor {k} {which} has rank {r}, expected {r0}")
    glue = [tuple(enumerate(ids)) for ids in ext.values()]  # minimum, maximum
    sources = glue[:1] + [((k, i),) for k, p in enumerate(ps) for i in range(p.n)
                          if i not in skip[k]] + glue[1:]
    new_id, ranks = [[0] * p.n for p in ps], []
    for n, rec in enumerate(sources):
        for k, i in rec:
            new_id[k][i] = n
        ranks.append(ps[k].rank[i])
    covers = [(ids[a], ids[b]) for p, ids in zip(ps, new_id) for a, b in _cover_pairs(p)]
    name = name or tag + "(" + ",".join(p.name or "?" for p in ps) + ")"
    return RankedPoset(ranks, covers, name=name,
                       provenance=Provenance(operation, tuple(sources)))


def disjoint_union(ps) -> RankedPoset:
    """Side-by-side copies with no cross relations; ranks preserved."""
    return _glue(ps, "disjoint_union")


def wedge(ps) -> RankedPoset:
    """Disjoint union with the unique factor minima identified."""
    return _glue(ps, "wedge")


def diamond(ps) -> RankedPoset:
    """Disjoint union with minima identified and maxima identified."""
    return _glue(ps, "diamond")


def _validate_embedding(pc: RankedPoset, px: RankedPoset, inj: dict, which: str):
    if sorted(inj.keys()) != list(range(pc.n)):
        raise PosetError(f"{which}: map must be defined on every base element")
    img = list(inj.values())
    if len(set(img)) != len(img):
        raise PosetError(f"{which}: map is not injective")
    for c, x in inj.items():
        if not 0 <= x < px.n:
            raise PosetError(f"{which}: image {x} out of range")
        if pc.rank[c] != px.rank[x]:
            raise PosetError(f"{which}: not rank-preserving at base element {c}")
    for c1 in range(pc.n):
        for c2 in range(pc.n):
            if pc.leq(c1, c2) != px.leq(inj[c1], inj[c2]):
                raise PosetError(f"{which}: not an order embedding at ({c1},{c2})")
    image = set(img)
    for x in image:
        for b in px.down[x]:
            if b not in image:
                raise PosetError(f"{which}: image is not a down-set "
                                 f"(element {x} covers {b} outside the image)")


def fiber_product(pa: RankedPoset, pb: RankedPoset, pc: RankedPoset,
                  into_a: dict, into_b: dict) -> RankedPoset:
    """Glue pa and pb along rank-preserving embeddings of the base pc.

    Both images must be order-embedded down-sets, which every
    ideal-containment inclusion satisfies; without it the glued relation
    can skip ranks.  With it, nothing in one remainder lies below the
    other's, so the glued order is the union of the two factor orders
    and its covers are the factors' covers under the new ids.
    """
    _validate_embedding(pc, pa, into_a, "into_a")
    _validate_embedding(pc, pb, into_b, "into_b")
    img_a = set(into_a.values())
    img_b = set(into_b.values())
    rest_a = [i for i in range(pa.n) if i not in img_a]
    rest_b = [i for i in range(pb.n) if i not in img_b]
    ranks = [pc.rank[c] for c in range(pc.n)]
    ranks += [pa.rank[i] for i in rest_a]
    ranks += [pb.rank[i] for i in rest_b]
    a_new = {x: c for c, x in into_a.items()}
    a_new.update((a, pc.n + k) for k, a in enumerate(rest_a))
    b_new = {x: c for c, x in into_b.items()}
    b_new.update((b, pc.n + len(rest_a) + k) for k, b in enumerate(rest_b))
    covers = [(a_new[x], a_new[y]) for x, y in _cover_pairs(pa)]
    covers += [(b_new[x], b_new[y]) for x, y in _cover_pairs(pb)]
    sources = [((0, into_a[c]), (1, into_b[c]), (-2, c)) for c in range(pc.n)]
    sources += [((0, a),) for a in rest_a]
    sources += [((1, b),) for b in rest_b]

    labels = None
    var_names = None
    if (pa.labels is not None and pb.labels is not None and pc.labels is not None
            and pa.var_names == pb.var_names == pc.var_names):
        consistent = all(pc.labels[c] == pa.labels[into_a[c]] == pb.labels[into_b[c]]
                         for c in range(pc.n))
        if consistent:
            labels = [pc.labels[c] for c in range(pc.n)]
            labels += [pa.labels[a] for a in rest_a]
            labels += [pb.labels[b] for b in rest_b]
            var_names = pa.var_names

    name = f"fiber({pa.name or '?'},{pb.name or '?'};{pc.name or '?'})"
    poset = RankedPoset(ranks, covers, labels=labels, var_names=var_names, name=name,
                        provenance=Provenance("fiber", tuple(sources)))
    verdict = validate_poset(poset)
    if not verdict.ok:
        raise PosetError(f"fiber product violates rank law: {verdict.witness.detail}")
    return poset


def cartesian_product(p: RankedPoset, q: RankedPoset) -> RankedPoset:
    """Pairs ordered componentwise; covers step one coordinate, ranks
    add.  Element ids are the pairs in (rank sum, a, b) order."""
    # ids by (rank sum, a, b); idx is keyed on the pair code a * q.n + b
    triples = sorted((ra + rb, a, b) for a, ra in enumerate(p.rank)
                     for b, rb in enumerate(q.rank))
    pairs = [(a, b) for _, a, b in triples]
    ranks = [r for r, _, _ in triples]
    m = q.n
    idx = [0] * (p.n * m)
    for k, (a, b) in enumerate(pairs):
        idx[a * m + b] = k
    covers = []
    for k, (a, b) in enumerate(pairs):
        for a2 in p.up[a]:
            covers.append((k, idx[a2 * m + b]))
        for b2 in q.up[b]:
            covers.append((k, idx[a * m + b2]))
    labels = None
    var_names = None
    if (p.labels is not None and q.labels is not None and p.var_names and q.var_names
            and not set(p.var_names) & set(q.var_names)):
        labels = [p.labels[a] + q.labels[b] for a, b in pairs]
        var_names = p.var_names + q.var_names
    sources = tuple(((0, a), (1, b)) for a, b in pairs)
    name = f"cart({p.name or '?'},{q.name or '?'})"
    return RankedPoset(ranks, covers, labels=labels, var_names=var_names, name=name,
                       provenance=Provenance("cartesian", sources))


def adjoin_extreme(p: RankedPoset, which: str) -> RankedPoset:
    """Add a new top above all maxima, or a new bottom below all minima.

    Adding a top needs every maximal element at one rank; adding a
    bottom shifts all ranks up by one and needs every minimal element
    at old rank 0, so the new rank-0 minimum covers them lawfully.
    """
    if p.n == 0:
        raise PosetError(f"cannot adjoin a {which} to the empty poset")
    covers = _cover_pairs(p)
    if which == "top":
        maxs = p.maximal_elements()
        ranks_seen = {p.rank[i] for i in maxs}
        if len(ranks_seen) != 1:
            raise PosetError(f"maximal elements at mixed ranks {sorted(ranks_seen)}")
        r = ranks_seen.pop()
        ranks = list(p.rank) + [r + 1]
        covers += [(i, p.n) for i in maxs]
        return RankedPoset(ranks, covers, name=f"hat({p.name or '?'})")
    if which == "bottom":
        mins = p.minimal_elements()
        ranks_seen = {p.rank[i] for i in mins}
        if ranks_seen != {0}:
            raise PosetError(f"minimal elements at ranks {sorted(ranks_seen)}, need all 0")
        ranks = [r + 1 for r in p.rank] + [0]
        covers += [(p.n, i) for i in mins]
        return RankedPoset(ranks, covers, name=f"uhat({p.name or '?'})")
    raise PosetError(f"which must be 'top' or 'bottom', not {which!r}")


def remove_extreme(p: RankedPoset, which: str) -> RankedPoset:
    """Drop the unique top or bottom; surviving ranks are unchanged."""
    if which == "top":
        ext = p.maximal_elements()
    elif which == "bottom":
        ext = p.minimal_elements()
    else:
        raise PosetError(f"which must be 'top' or 'bottom', not {which!r}")
    if len(ext) != 1:
        raise PosetError(f"poset has {len(ext)} {which} extremes, needs exactly 1")
    gone = ext[0]
    keep = [i for i in range(p.n) if i != gone]
    renum = {o: k for k, o in enumerate(keep)}
    ranks = [p.rank[o] for o in keep]
    covers = [(renum[a], renum[b]) for a, b in _cover_pairs(p)
              if a != gone and b != gone]
    labels = [p.labels[o] for o in keep] if p.labels is not None else None
    tag = "bar" if which == "top" else "ubar"
    return RankedPoset(ranks, covers, labels=labels, var_names=p.var_names,
                       name=f"{tag}({p.name or '?'})")

