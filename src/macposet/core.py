"""Finite ranked posets: data model, validation, shadow calculus, induced
subposets."""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter


class PosetError(ValueError):
    """Raised when an operation's preconditions are violated."""


@dataclass(frozen=True)
class Witness:
    """Replayable evidence for a failed check.

    ``kind`` is one of: cover-rank, self-cover, min-shadow-beaten,
    shadow-not-initial, segment-inequality.  ``elements`` carries the
    offending element ids, ``rival`` the competing set (the beating
    subset, the expected prefix, ...), ``sizes`` the measured numbers.
    """

    kind: str
    level: int | None = None
    q: int | None = None
    elements: tuple = ()
    rival: tuple = ()
    sizes: tuple = ()
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "level": self.level,
            "q": self.q,
            "elements": list(self.elements),
            "rival": list(self.rival),
            "sizes": list(self.sizes),
            "detail": self.detail,
        }


@dataclass(frozen=True)
class Verdict:
    status: str  # "ok" | "violation"
    witness: Witness | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @staticmethod
    def passing() -> "Verdict":
        return Verdict("ok")

    @staticmethod
    def failing(witness: Witness) -> "Verdict":
        return Verdict("violation", witness)


class RankedPoset:
    """Finite poset presented by a rank function and a cover relation.

    Elements are dense ids ``0..n-1``.  ``levels[d]`` lists the ids of
    rank ``d`` in ascending id order, which makes every derived object
    (orders, tables, witnesses) deterministic.  A level may be empty:
    removing a unique minimum, for instance, leaves the survivors at
    their old ranks.  Values are immutable after construction.

    ``provenance`` is the ``construct.Provenance`` that a gluing or
    product operation sets on its output, recording which factor each
    element came from; it is None on every other poset.
    """

    __slots__ = ("n", "rank", "up", "_down", "levels", "labels", "var_names",
                 "name", "provenance", "pos_in_level", "_leq", "_shadow")

    def __init__(self, ranks, covers, labels=None, var_names=None, name="",
                 provenance=None):
        self.rank = tuple(map(int, ranks))
        self.n = n = len(self.rank)
        if min(self.rank, default=0) < 0:
            raise PosetError("ranks must be nonnegative")
        covers = sorted(set(covers))  # b covers a; up comes out sorted
        if covers and not (0 <= covers[0][0] and covers[-1][0] < n
                           and 0 <= min(map(itemgetter(1), covers))
                           and max(map(itemgetter(1), covers)) < n):
            a, b = next((a, b) for a, b in covers if not (0 <= a < n and 0 <= b < n))
            raise PosetError(f"cover ({a},{b}) references unknown element")
        up = [[] for _ in range(n)]
        for a, b in covers:
            up[a].append(b)
        self.up = tuple(map(tuple, up))
        lv = [[] for _ in range(max(self.rank, default=-1) + 1)]
        pos = [0] * n
        for i, r in enumerate(self.rank):
            pos[i] = len(lv[r])
            lv[r].append(i)
        self.levels = tuple(map(tuple, lv))
        self.pos_in_level = tuple(pos)
        self.labels = tuple(map(tuple, labels)) if labels is not None else None
        self.var_names = tuple(var_names) if var_names is not None else None
        self.name = name
        self.provenance = provenance
        self._down = None
        self._leq = None
        self._shadow = None

    @property
    def down(self) -> tuple:
        """``down[b]``: the ids that b covers, ascending.  Derived on the
        first read, not at construction, from ``up``."""
        if self._down is None:
            down = [[] for _ in range(self.n)]
            for a, bs in enumerate(self.up):
                for b in bs:
                    down[b].append(a)
            self._down = tuple(map(tuple, down))
        return self._down

    @property
    def max_rank(self) -> int:
        return len(self.levels) - 1

    def level(self, d: int) -> tuple:
        if 0 <= d < len(self.levels):
            return self.levels[d]
        return ()

    def level_sizes(self) -> tuple:
        return tuple(len(l) for l in self.levels)

    def minimal_elements(self) -> tuple:
        return tuple(i for i, below in enumerate(self.down) if not below)

    def maximal_elements(self) -> tuple:
        return tuple(i for i in range(self.n) if not self.up[i])

    def leq(self, a: int, b: int) -> bool:
        """Partial-order comparison, a <= b (reflexive-transitive closure of covers)."""
        return bool(self._leq_masks()[a] >> b & 1)

    def _leq_masks(self):
        # _leq[a] = bitmask over ids b with a <= b; computed once on demand.
        if self._leq is None:
            masks = [1 << i for i in range(self.n)]
            order = sorted(range(self.n), key=lambda i: -self.rank[i])
            for a in order:
                m = masks[a]
                for b in self.up[a]:
                    m |= masks[b]
                masks[a] = m
            self._leq = tuple(masks)
        return self._leq

    def _shadow_masks(self):
        """``_shadow[d][k]`` is the bitmask of the level-(d+1) positions
        covering the k-th element of level d.  Derived on the first call,
        not at construction: one OR of a precomputed position bit per
        cover."""
        if self._shadow is None:
            bit = [1 << k for k in self.pos_in_level]
            up, masks = self.up, []
            for lv in self.levels:
                row = []
                for i in lv:
                    m = 0
                    for b in up[i]:
                        m |= bit[b]
                    row.append(m)
                masks.append(tuple(row))
            self._shadow = tuple(masks)
        return self._shadow

    def element_name(self, i: int) -> str:
        if self.labels is not None:
            return format_monomial(self.labels[i], self.var_names)
        return f"#{i}"

    def __repr__(self):
        tag = self.name or "poset"
        return f"<RankedPoset {tag}: {self.n} elements, ranks 0..{self.max_rank}>"


def format_monomial(exps, names) -> str:
    parts = []
    for e, v in zip(exps, names):
        if e == 1:
            parts.append(v)
        elif e > 1:
            parts.append(f"{v}^{e}")
    return "*".join(parts) if parts else "1"


def validate_poset(p: RankedPoset) -> Verdict:
    """Check the ranked-poset invariants, reporting the first violation.

    Covers must raise rank by exactly one and may not be loops; levels
    and the up/down maps are consistent by construction.  Acyclicity
    (hence antisymmetry) follows from the rank condition.
    """
    for a in range(p.n):
        for b in p.up[a]:
            if a == b:
                return Verdict.failing(Witness(
                    "self-cover", level=p.rank[a], elements=(a,),
                    detail=f"element {a} covers itself"))
            delta = p.rank[b] - p.rank[a]
            if delta != 1:
                return Verdict.failing(Witness(
                    "cover-rank", level=p.rank[a], elements=(a, b),
                    sizes=(delta,),
                    detail=f"cover ({a},{b}) raises rank by {delta}"))
    return Verdict.passing()


class LevelSubset:
    """A set of elements within one level, as a bitmask over level positions.

    Membership is O(1).  These are the shadows, segments and new shadows
    handed to callers (the ``shadow`` command, ``initial_segment``,
    ``new_shadow``); the Macaulay kernel and the order search work on
    plain integer masks instead.
    """

    __slots__ = ("poset", "level", "bits")

    def __init__(self, poset: RankedPoset, level: int, bits: int = 0):
        self.poset = poset
        self.level = level
        self.bits = bits

    @classmethod
    def of(cls, poset: RankedPoset, ids, level: int | None = None) -> "LevelSubset":
        ids = list(ids)
        if not ids:
            if level is None:
                raise PosetError("empty LevelSubset needs an explicit level")
            return cls(poset, level, 0)
        lvl = poset.rank[ids[0]]
        bits = 0
        for i in ids:
            if poset.rank[i] != lvl:
                raise PosetError(f"elements {ids[0]} and {i} are not of the same rank")
            bits |= 1 << poset.pos_in_level[i]
        if level is not None and level != lvl:
            raise PosetError(f"members have rank {lvl}, not {level}")
        return cls(poset, lvl, bits)

    def ids(self) -> tuple:
        lv = self.poset.level(self.level)
        return tuple(lv[k] for k in _bit_positions(self.bits))

    def __len__(self):
        return self.bits.bit_count()

    def __contains__(self, i: int) -> bool:
        return (self.poset.rank[i] == self.level
                and self.bits >> self.poset.pos_in_level[i] & 1 == 1)

    def __eq__(self, other):
        return (isinstance(other, LevelSubset) and self.poset is other.poset
                and self.level == other.level and self.bits == other.bits)

    def __hash__(self):
        return hash((id(self.poset), self.level, self.bits))

    def __repr__(self):
        names = ", ".join(self.poset.element_name(i) for i in self.ids())
        return f"{{{names}}}@rank{self.level}"


def _bit_positions(bits: int):
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def upper_shadow(p: RankedPoset, a: LevelSubset) -> LevelSubset:
    """Elements covering some element of ``a``; lives one level up.
    Read from the level's shadow masks, an OR of one mask per member."""
    if a.poset is not p:
        raise PosetError("subset belongs to a different poset")
    masks = p._shadow_masks()
    level = masks[a.level] if 0 <= a.level < len(masks) else ()
    out = 0
    for k in _bit_positions(a.bits):
        out |= level[k]
    return LevelSubset(p, a.level + 1, out)


def lower_shadow(p: RankedPoset, a: LevelSubset) -> LevelSubset:
    """Elements covered by some element of ``a``; lives one level down."""
    if a.poset is not p:
        raise PosetError("subset belongs to a different poset")
    out = 0
    lv = p.level(a.level)
    for k in _bit_positions(a.bits):
        for b in p.down[lv[k]]:
            out |= 1 << p.pos_in_level[b]
    return LevelSubset(p, a.level - 1, out)


@dataclass(frozen=True)
class InducedSubposet:
    """A subposet on a subset of elements, with covers of the induced order."""

    poset: RankedPoset
    old_of_new: tuple
    new_of_old: dict = field(hash=False)


def induced_subposet(p: RankedPoset, ids, name="") -> InducedSubposet:
    """Restrict p to ``ids``; covers are recomputed from the induced order."""
    old = tuple(sorted(set(ids)))
    new_of_old = {o: k for k, o in enumerate(old)}
    masks = p._leq_masks()
    keep = 0
    for o in old:
        keep |= 1 << o
    # strict induced relation, then transitive reduction
    rel = [(masks[o] & keep) & ~(1 << o) for o in old]
    covers = []
    for a, o in enumerate(old):
        above = rel[a]
        for b_old in _bit_positions(above):
            b = new_of_old[b_old]
            mid = False
            for c_old in _bit_positions(above & ~(1 << b_old)):
                if masks[c_old] >> b_old & 1:
                    mid = True
                    break
            if not mid:
                covers.append((a, b))
    labels = [p.labels[o] for o in old] if p.labels is not None else None
    sub = RankedPoset([p.rank[o] for o in old], covers, labels=labels,
                      var_names=p.var_names, name=name or f"sub({p.name})")
    return InducedSubposet(sub, old, new_of_old)
