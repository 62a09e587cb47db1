"""The benchmark's workloads: each is a list of ``macposet`` argv lists.

Every op goes through ``macposet.cli.run_command`` exactly as a user's
command line would.  A workload's op list depends only on its name and
the seed, so the same seed always gives the same inputs.
"""

from __future__ import annotations

import hashlib
import random

REPRODUCE_TARGETS = (
    "heart-example", "twist-figure", "prop61-product", "prop61-ring-product",
    "conj66-counterexample", "diamond-not-wedge", "spider-union-fails",
    "thmA-grid", "thmB-wedge-grid", "thmB-diamond-grid", "thmC-grid",
    "conj67-scan",
)

# Posets whose widest level has 18-24 elements; one command each, so a
# pass builds every wide table once.
WIDE_OPS = (
    ("check", "box(2,3,4,5)", "lex(x1,x2,x3,x4)"),
    ("check", "box(3,3,3,3)", "lex(x1,x2,x3,x4)"),
    ("additive", "box(5,5,5)", "lex(x,y,z)"),
    ("additive", "box(2,2,2,2,2,2)", "lex(x1,x2,x3,x4,x5,x6)"),
    ("search-order", "wedge(box(4,4,4), box(4,4,4))", None),
    ("search-order", "spider(" + ",".join(["5"] * 18) + ")", None),
)

# random-search: SLOTS instances per pass.  Slot s holds one fixed
# random poset; the seed picks one of VARIANTS relabelings of it (ids
# shuffled within each level).  A relabeling changes the expression,
# the element ids, the search's tie-breaks and its node count, but not
# the poset's shape, so a pass costs about the same on every seed and a
# seed change does not read as a speed change.  The finite pool lets
# every instance have a recorded golden.
SLOTS = 200
VARIANTS = 8
SEARCH_BUDGET = 20_000
# Every SLICE_EVERY-th slot is a slice of a box instead of random
# covers.  Slices of boxes are Macaulay, so these searches end in
# "found" and their orders get replayed.
SLICE_EVERY = 8

WORKLOADS = ("paper-reproduce", "wide-levels", "random-search")


def _explicit(ranks, covers) -> str:
    return "explicit{%d; %s; %s}" % (
        len(ranks), " ".join(map(str, ranks)),
        ", ".join(f"{a} {b}" for a, b in sorted(covers)))


def _random_covers(widths, rng):
    ranks, ids, covers = [], [], set()
    for d, w in enumerate(widths):
        ids.append(list(range(len(ranks), len(ranks) + w)))
        ranks += [d] * w
    for d in range(1, len(widths)):
        below, hit = ids[d - 1], set()
        for j in ids[d]:
            for i in rng.sample(below, rng.randint(1, 2)):
                covers.add((i, j))
                hit.add(i)
        for i in below:
            if i not in hit:
                covers.add((i, rng.choice(ids[d])))
    return ranks, covers


def _box_slice(dims, lo, height):
    """Levels lo..lo+height-1 of box(dims), re-ranked from 0."""
    vecs = [()]
    for cap in dims:
        vecs = [v + (e,) for v in vecs for e in range(cap)]
    vecs = sorted((v for v in vecs if lo <= sum(v) < lo + height), key=sum)
    index = {v: i for i, v in enumerate(vecs)}
    covers = set()
    for v, i in index.items():
        for k in range(len(v)):
            u = v[:k] + (v[k] + 1,) + v[k + 1:]
            if u in index:
                covers.add((i, index[u]))
    return [sum(v) - lo for v in vecs], covers


def _shuffle_levels(ranks, covers, rng):
    """The same poset with ids shuffled within each level."""
    new_id, nid = {}, 0
    for d in range(max(ranks) + 1):
        level = [i for i, r in enumerate(ranks) if r == d]
        rng.shuffle(level)
        for i in level:
            new_id[i] = nid
            nid += 1
    ranks_out = sorted(ranks)
    return ranks_out, {(new_id[a], new_id[b]) for a, b in covers}


# box dims, first rank and height of slices whose levels are 5-12 wide
_SLICES = (((3, 4, 5), 2, 3), ((3, 4, 5), 2, 5), ((4, 4, 4), 2, 4),
           ((2, 3, 3, 3), 2, 4), ((3, 3, 6), 2, 5), ((3, 4, 5), 3, 4))


def random_instance(slot: int, variant: int) -> str:
    shape = random.Random(f"macposet-random-search/slot{slot}")
    if slot % SLICE_EVERY == SLICE_EVERY - 1:
        poset = _box_slice(*shape.choice(_SLICES))
    else:
        widths = [shape.randint(5, 12) for _ in range(shape.randint(3, 5))]
        poset = _random_covers(widths, shape)
    relabel = random.Random(f"macposet-random-search/slot{slot}/variant{variant}")
    return _explicit(*_shuffle_levels(*poset, relabel))


def random_search_variants(seed: int):
    pick = random.Random(seed)
    return [pick.randrange(VARIANTS) for _ in range(SLOTS)]


def ops(workload: str, seed: int):
    """Argv lists of one pass.  Only random-search depends on the seed;
    the fixed workloads keep one op order, because the first ops of a
    process pay one-time costs and a reordering would move them."""
    if workload == "paper-reproduce":
        return [["reproduce", t] for t in REPRODUCE_TARGETS]
    if workload == "wide-levels":
        return [[cmd, e] + (["--order", o] if o else []) for cmd, e, o in WIDE_OPS]
    if workload == "random-search":
        return [["search-order", random_instance(s, v), "--budget", str(SEARCH_BUDGET)]
                for s, v in enumerate(random_search_variants(seed))]
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def op_key(argv) -> str:
    """Golden lookup key of one op."""
    return hashlib.sha256("\0".join(argv).encode()).hexdigest()[:20]


def digest(op_list) -> str:
    return hashlib.sha256("\n".join("\0".join(a) for a in op_list).encode()).hexdigest()[:16]


def all_golden_ops():
    """Every op any seed can produce, for recording goldens."""
    out = ops("paper-reproduce", 0) + ops("wide-levels", 0)
    out += [["search-order", random_instance(s, v), "--budget", str(SEARCH_BUDGET)]
            for s in range(SLOTS) for v in range(VARIANTS)]
    return out
