import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from macposet import (LevelSubset, PosetError, RankedPoset, box,
                      cartesian_product, check_macaulay, diamond,
                      disjoint_union, find_macaulay_order, ideal_from_generators,
                      induced_subposet, is_additive, lex_order,
                      min_shadow_table, new_shadow, order_from_lists, path,
                      pure_power_ideal, spider, standard_monomial_poset,
                      union_simplicial_order, upper_shadow, wedge)
from macposet.construct import adjoin_extreme, remove_extreme
from macposet.classify import (_random_hat_corpus, build_heart,
                               conjecture_6_7_search, verify_family)
from macposet.cli import run_command
from macposet.expr import evaluate, parse_expression
from macposet.macaulay import LevelCapExceeded, _level_row
from macposet.orders import initial_segment
from macposet import kernels, macaulay

from conftest import (brute_min_shadow, brute_order_exists, definition_check,
                      layered_order_exists, naive_upper_shadow,
                      reference_is_additive, reference_new_shadow, reference_search,
                      restrict_order, restrict_to_factors, small_ranked_posets,
                      twin_heavy_posets)


def heart_example_poset():
    return standard_monomial_poset(
        ideal_from_generators([(4, 0), (3, 1), (0, 3)], ("x", "y")))


class TestMinShadowTable:
    def test_2x2_box_level_one(self):
        t = min_shadow_table(box(2, 2))
        # in the 2x2 box x^2 = 0, so the shadow of {x} is just {xy}
        assert t.mins[1] == (0, 1, 1)

    def test_top_level_zeros(self):
        t = min_shadow_table(box(3, 4))
        assert all(v == 0 for v in t.mins[5])

    def test_path_entries(self):
        t = min_shadow_table(path(4))
        for d in range(4):
            assert t.mins[d] == (0, 1)
        assert t.mins[4] == (0, 0)

    def test_matches_brute_force(self, small_corpus):
        for p in small_corpus:
            t = min_shadow_table(p)
            for d in range(p.max_rank + 1):
                assert list(t.mins[d]) == brute_min_shadow(p, d)

    def test_argmin_is_first_in_ascending_order(self):
        # the table keeps mins only; _first_minimiser, which gives a
        # min-shadow-beaten witness its rival, finds the first minimiser
        p = wedge([box(2, 2), box(2, 3)])
        t = min_shadow_table(p)
        for d in range(p.max_rank + 1):
            masks = []
            lv = p.level(d)
            for i in lv:
                m = 0
                for b in p.up[i]:
                    m |= 1 << p.pos_in_level[b]
                masks.append(m)
            for q in range(len(lv) + 1):
                best = None
                first = None
                for s in range(1 << len(lv)):
                    if bin(s).count("1") != q:
                        continue
                    acc = 0
                    for k in range(len(lv)):
                        if s >> k & 1:
                            acc |= masks[k]
                    sz = bin(acc).count("1")
                    if best is None or sz < best:
                        best, first = sz, s
                assert t.mins[d][q] == best
                assert macaulay._first_minimiser(tuple(masks), q, best) == first

    def test_level_cap(self):
        wide = disjoint_union([path(0)] * 25)
        with pytest.raises(LevelCapExceeded, match="raise --level-cap"):
            min_shadow_table(wide, level_cap=24)
        t = min_shadow_table(wide, level_cap=25)
        assert t.mins[0] == tuple([0] * 26)

    def test_entries_nondecreasing(self, small_corpus):
        for p in small_corpus:
            t = min_shadow_table(p)
            for row in t.mins:
                assert list(row) == sorted(row)


@pytest.fixture
def kernel_calls(monkeypatch):
    """The width of every kernel call, from empty row and search memos,
    so that no search is answered without building its table."""
    _level_row.cache_clear()
    macaulay._search.cache_clear()
    calls = []
    real = kernels.level_min_shadows

    def counted(masks):
        calls.append(len(masks))
        return real(masks)

    monkeypatch.setattr(kernels, "level_min_shadows", counted)
    return calls


class TestLevelRowMemo:
    """Level rows are memoised on their ordered shadow masks."""

    def test_one_kernel_call_per_distinct_level(self, kernel_calls, monkeypatch):
        # two checks of heart(5,2,2,5), whose 6 levels are all distinct,
        # make 6 table calls; the rival of the level where lex fails is
        # rebuilt from rows of its lower positions, 2 of them not memoised
        rival_calls = []
        real = macaulay._first_minimiser

        def counted(masks, q, best):
            seen = len(kernel_calls)
            rival = real(masks, q, best)
            rival_calls.append(len(kernel_calls) - seen)
            return rival

        monkeypatch.setattr(macaulay, "_first_minimiser", counted)
        assert run_command(["reproduce", "twist-figure"]) == 0
        assert (len(kernel_calls) - sum(rival_calls), rival_calls) == (6, [2])

    def test_check_after_search_calls_no_kernel(self, kernel_calls):
        p = box(3, 4)
        r = find_macaulay_order(p)
        seen = len(kernel_calls)
        assert seen > 0
        assert check_macaulay(p, r.order).ok
        assert len(kernel_calls) == seen

    def test_key_keeps_mask_order(self):
        # level 0 of both posets has the masks 0b011 and 0b100, in
        # opposite orders; the rivals differ as positions do
        _level_row.cache_clear()
        ranks = [0, 0, 1, 1, 1]
        for covers, masks, one_cover in (([(0, 2), (0, 3), (1, 4)], [3, 4], 1),
                                         ([(0, 4), (1, 2), (1, 3)], [4, 3], 0)):
            p = RankedPoset(ranks, covers)
            mins = kernels.level_min_shadows(masks)
            assert min_shadow_table(p).mins[0] == tuple(int(v) for v in mins)
            # the two-cover element first: the one-cover element beats it
            order = order_from_lists(p, [[1 - one_cover, one_cover], [2, 3, 4]])
            w = check_macaulay(p, order).witness
            assert (w.kind, w.q, w.rival, w.sizes) == (
                "min-shadow-beaten", 1, (one_cover,), (2, 1))

    def test_second_round_past_1024_levels_calls_no_kernel(self, kernel_calls):
        # more distinct levels than the old 1024-row cache: least recently
        # used eviction over a longer cycle evicted every row in turn
        levels = [(k, k + 1) for k in range(1, 1301)]
        for _ in range(2):
            for masks in levels:
                _level_row(masks)
        assert len(kernel_calls) == len(levels)

    def test_wedge_of_equal_boxes_needs_no_wide_call(self, kernel_calls):
        # levels 3-6 are 20 and 24 wide, two equal halves each; the
        # halves, re-indexed over their own covers, share one call
        p = wedge([box(4, 4, 4), box(4, 4, 4)])
        assert list(map(len, p.levels)) == [1, 6, 12, 20, 24, 24, 20, 12, 6, 2]
        t = min_shadow_table(p)
        assert kernel_calls == [1, 6, 12, 10, 12, 12, 10, 12, 6, 2]
        for d in range(p.max_rank + 1):
            masks = macaulay.shadow_masks(p, d)
            assert t.mins[d] == tuple(kernels.level_min_shadows(masks).tolist())

    def test_warm_row_does_not_pass_the_cap(self):
        p = box(2, 2)
        min_shadow_table(p)
        with pytest.raises(LevelCapExceeded):
            min_shadow_table(p, level_cap=1)


# one bottom covered by 31 elements: its shadow mask has 31 bits
FAN_31 = ("explicit{32; 0" + " 1" * 31 + "; "
          + ", ".join(f"0 {k}" for k in range(1, 32)) + "}")


class TestLevelCapKeepsOneWord:
    """The cap of 30 is what keeps a shadow mask to one kernel word: a
    level of 31 elements is refused before any kernel call."""

    @pytest.mark.parametrize("cap, message", [
        ([], "level 1 has 31 elements, cap is 24"),
        (["--level-cap", "30"], "level 1 has 31 elements, cap is 30"),
        (["--level-cap", "31"], "level cap above 30 is not supported"),
    ], ids=["default", "30", "31"])
    def test_31_wide_level_is_refused(self, kernel_calls, capsys, cap, message):
        assert run_command(["search-order", FAN_31] + cap) == 2
        assert message in capsys.readouterr().err
        assert kernel_calls == []


def reference_min_shadows(masks):
    """Plain-Python twin of ``kernels.level_min_shadows``: walk every
    subset in ascending binary order and keep the first strict minimum
    per cardinality."""
    words = [int(m) for m in masks]
    n = len(words)
    mins = [0] + [None] * n
    argm = [0] * (n + 1)
    for s in range(1 << n):
        union = 0
        for i in range(n):
            if s >> i & 1:
                union |= words[i]
        q, size = s.bit_count(), union.bit_count()
        if mins[q] is None or size < mins[q]:
            mins[q], argm[q] = size, s
    return mins, argm


def doubling_oracle(masks):
    """Mins and first minimisers of n one-word masks from a numpy table
    of every subset's union, built by doubling in ascending binary
    order."""
    n = len(masks)
    unions = np.zeros(1 << n, dtype=np.uint64)
    for i in range(n):
        unions[1 << i:2 << i] = unions[:1 << i] | np.uint64(masks[i])
    sizes = np.bitwise_count(unions)
    cards = np.bitwise_count(np.arange(1 << n, dtype=np.uint64))
    firsts = []
    for q in range(n + 1):
        subsets = np.flatnonzero(cards == q)
        firsts.append(int(subsets[sizes[subsets].argmin()]))
    return [int(sizes[s]) for s in firsts], firsts


def assert_matches(masks, oracle=reference_min_shadows):
    """The kernel's minima and, for every q, ``_first_minimiser``'s
    rival against the oracle's mins and argmins."""
    mins, argm = oracle(masks)
    assert kernels.level_min_shadows(masks).tolist() == mins
    words = tuple(map(int, masks))
    assert [macaulay._first_minimiser(words, q, m) for q, m in enumerate(mins)] == argm


class TestKernelBackends:
    def test_selected_backend_matches_reference(self):
        # mins and rivals against a plain-Python enumeration: n = 0, and
        # levels wide enough that the kernel walks more than one block of
        # subsets
        wide = kernels.BLOCK_SUBSETS.bit_length()
        rng = np.random.default_rng(5)
        levels = [rng.integers(0, 2**50, size=n, dtype=np.uint64) for n in (1, 6, 11, 13)]
        # sparse masks over few bits, so sizes tie across blocks
        levels.append(rng.integers(0, 2**10, size=wide, dtype=np.uint64))
        # all-zero masks: every q-subset ties at an empty shadow, so the
        # argmin is the low q bits, whichever block holds it
        zeros = np.zeros(wide, dtype=np.uint64)
        assert reference_min_shadows(zeros)[1] == [(1 << q) - 1 for q in range(wide + 1)]
        for masks in levels + [zeros, np.zeros(0, dtype=np.uint64)]:
            assert_matches(masks)

    def test_masks_are_one_word_each(self):
        with pytest.raises(ValueError, match="1-D"):
            kernels.level_min_shadows(np.zeros((3, 1), dtype=np.uint64))

    def test_wide_sizes_do_not_wrap(self):
        # full-range words: a size reaches 64 and stays in its uint8,
        # below the 255 that fills the tag table's absent tags; on both
        # crossing paths
        full = 2**64 - 1
        masks = np.array([full, 2**63, full >> 1, 7, 0, 1], dtype=np.uint64)
        assert_matches(masks)
        assert kernels.level_min_shadows(masks)[6] == 64
        masks = np.array([full] * 16 + [2**63, 0], dtype=np.uint64)
        assert_matches(masks, doubling_oracle)
        assert kernels.level_min_shadows(masks).tolist() == [0, 0] + [1] + [64] * 16

    @pytest.mark.parametrize("n", [17, 19, 21])
    def test_twelve_low_bits_match_full_enumeration(self, n):
        # from n = 17 on the low half keeps 12 bits; the oracle tables
        # every subset's union by doubling, in ascending binary order
        masks = np.random.default_rng(n).integers(0, 2**8, size=n, dtype=np.uint64)
        assert_matches(masks, doubling_oracle)

    def test_box_middle_level_matches_lex_shadows(self):
        # lex is Macaulay on boxes, so the shadow sizes of its initial
        # segments are the row: an oracle at a width no enumeration in
        # this suite reaches, where 561 distinct low unions stand for
        # 4096 low half-subsets
        p = box(2, 3, 4, 5)
        o = lex_order(p)
        d = 5
        assert len(p.level(d)) == 22
        masks = macaulay.shadow_masks(p, d)
        sizes = [len(upper_shadow(p, initial_segment(o, d, q))) for q in range(23)]
        assert kernels.level_min_shadows(masks).tolist() == sizes

    def test_numpy_backend_table(self, small_corpus):
        for p in small_corpus[:3]:
            t = min_shadow_table(p)
            for d in range(p.max_rank + 1):
                assert list(t.mins[d]) == brute_min_shadow(p, d)


# words drawn over a few bits tie often; full-range words rarely do
_mask_words = st.one_of(st.integers(0, 15), st.integers(0, 2**64 - 1))


@st.composite
def level_masks(draw):
    n = draw(st.integers(0, 10))
    return np.array(draw(st.lists(_mask_words, min_size=n, max_size=n)), dtype=np.uint64)


@st.composite
def wide_level_masks(draw):
    """Levels of 11 to 15 elements, so several high rows, and at 15 two
    blocks: rows repeat a few tie-heavy words, all-zero among them."""
    n = draw(st.integers(11, kernels.BLOCK_SUBSETS.bit_length()))
    pool = draw(st.lists(st.integers(0, 15), min_size=1, max_size=4)) + [0]
    rows = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    return np.array(rows, dtype=np.uint64)


@st.composite
def distinct_union_levels(draw):
    """Levels of 17 to 20 elements, where the kernel crosses each half's
    distinct unions: dense full-range words, whose unions saturate, and
    few-bit words, which tie, in rows drawn from a pool so that rows
    repeat, all-zero among them."""
    n = draw(st.integers(17, 20))
    pool = draw(st.lists(_mask_words, min_size=1, max_size=n)) + [0]
    rows = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    return np.array(rows, dtype=np.uint64)


@st.composite
def split_levels(draw):
    """Levels of SPLIT_MIN to 20 elements glued from a few component
    templates, each copy on cover bits of its own, with one-element
    components and empty masks, in a shuffled position order."""
    n = draw(st.integers(macaulay.SPLIT_MIN, 20))
    template = st.lists(st.integers(1, 7), min_size=1, max_size=5)
    pool = draw(st.lists(template, min_size=1, max_size=3))
    parts = st.one_of(st.sampled_from(pool), st.just([0]), st.just([1]))
    masks = []
    while len(masks) < n:  # 3 cover bits per copy, so up to 60 bits
        masks += [m << 3 * len(masks) for m in draw(parts)]
    return tuple(draw(st.permutations(masks[:n])))


class TestKernelProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(level_masks())
    def test_kernel_matches_reference(self, masks):
        assert_matches(masks)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(wide_level_masks())
    def test_wide_kernel_matches_reference(self, masks):
        # ties between rows and within a low run pin the first subset
        assert_matches(masks)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(distinct_union_levels())
    def test_distinct_union_kernel_matches_full_enumeration(self, masks):
        # from n = 17 on the kernel crosses distinct unions; the oracle
        # tables every subset's union, and the rivals are rebuilt too
        assert_matches(masks, doubling_oracle)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(split_levels())
    def test_split_row_matches_kernel(self, masks):
        # the (min, +) join of component rows against the whole level,
        # and the rival, rebuilt through those rows, against the oracle
        assert _level_row(masks) == tuple(kernels.level_min_shadows(masks).tolist())
        assert_matches(masks, doubling_oracle)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(small_ranked_posets())
    def test_table_matches_brute_force(self, p):
        t = min_shadow_table(p)
        for d in range(p.max_rank + 1):
            assert list(t.mins[d]) == brute_min_shadow(p, d)


class TestCheckMacaulay:
    def test_boxes_with_sorted_lex(self):
        for dims in [(2,), (3, 4), (2, 3, 4), (4, 4)]:
            b = box(*dims)
            assert check_macaulay(b, lex_order(b)).ok

    def test_heart_example_lex_violation(self):
        p = heart_example_poset()
        v = check_macaulay(p, lex_order(p, ("y", "x")))
        assert not v.ok
        w = v.witness
        # replay the witness: the rival set truly beats the segment
        seg = LevelSubset.of(p, w.elements, level=w.level)
        rival = LevelSubset.of(p, w.rival, level=w.level)
        assert len(rival) == len(seg)
        assert len(upper_shadow(p, rival)) < len(upper_shadow(p, seg))

    def test_first_witness_is_golden(self):
        # (level, q)-lexicographic scan order makes the first witness a
        # stable artifact: x^3 (empty shadow) beats the lex-top x y^2
        p = heart_example_poset()
        w = check_macaulay(p, lex_order(p, ("y", "x"))).witness
        assert (w.kind, w.level, w.q, w.sizes) == ("min-shadow-beaten", 3, 1, (1, 0))
        assert [p.element_name(i) for i in w.elements] == ["x*y^2"]
        assert [p.element_name(i) for i in w.rival] == ["x^3"]

    def test_split_level_witness(self):
        # level 0 is 18 wide and splits into 18 one-element components;
        # the rival is still the whole level's first minimiser, a path
        # minimum, whose single cover beats a box minimum's two
        expr = "union(" + ", ".join(["box(2,2)"] * 6 + ["path(4)"] * 12) + ")"
        p = evaluate(parse_expression(expr)).poset
        assert len(p.level(0)) == 18 >= macaulay.SPLIT_MIN
        assert len(macaulay._components(macaulay.shadow_masks(p, 0))) == 18
        w = check_macaulay(p, order_from_lists(p, [sorted(lv) for lv in p.levels])).witness
        assert (w.kind, w.level, w.q, w.elements, w.rival, w.sizes) == (
            "min-shadow-beaten", 0, 1, (0,), (24,), (2, 1))

    def test_split_level_rival_needs_no_wide_call(self, kernel_calls):
        # level 0 is 24 wide: four box minima with two covers each, then
        # twenty elements with none.  The rival is rebuilt from rows of
        # the level's lower positions, split where 17 or more wide, so no
        # kernel call covers more than 16 positions
        expr = "union(" + ", ".join(["box(2,2)"] * 4 + ["path(0)"] * 20) + ")"
        p = evaluate(parse_expression(expr)).poset
        assert len(p.level(0)) == 24
        w = check_macaulay(p, order_from_lists(p, [sorted(lv) for lv in p.levels])).witness
        assert (w.kind, w.level, w.q, w.rival, w.sizes) == (
            "min-shadow-beaten", 0, 1, (16,), (2, 0))
        assert max(kernel_calls) <= 16

    def test_shadow_not_initial_witness(self):
        # mixing priorities across levels of box(3,3) keeps the shadow
        # sizes minimal but breaks the prefix condition at (1, 1)
        p = box(3, 3)
        lab = p.labels.index
        fam = order_from_lists(p, [
            [lab((0, 0))],
            [lab((0, 1)), lab((1, 0))],                        # y > x
            [lab((2, 0)), lab((1, 1)), lab((0, 2))],           # x^2 > xy > y^2
            [lab((2, 1)), lab((1, 2))],
            [lab((2, 2))],
        ])
        v = check_macaulay(p, fam)
        assert not v.ok
        assert v.witness.kind == "shadow-not-initial"
        assert (v.witness.level, v.witness.q) == (1, 1)

    def test_both_level_one_orders_work_on_2x2(self):
        p = box(2, 2)
        x = p.labels.index((1, 0))
        y = p.labels.index((0, 1))
        for pair in ([x, y], [y, x]):
            fam = order_from_lists(p, [[0], pair, [3]])
            assert check_macaulay(p, fam).ok

    def test_mismatched_family_rejected(self):
        # boxes are memoised, so q is an equal copy of p built by hand
        p = box(2, 2)
        q = RankedPoset(p.rank, [(a, b) for a in range(p.n) for b in p.up[a]],
                        p.labels, p.var_names, p.name)
        with pytest.raises(PosetError):
            check_macaulay(p, lex_order(q))

    def test_oracle_agreement_random_samples(self):
        p = box(3, 4)
        fam = lex_order(p)
        assert check_macaulay(p, fam).ok
        rng = random.Random(99)
        for _ in range(1000):
            d = rng.randrange(p.max_rank + 1)
            lv = p.level(d)
            ids = rng.sample(lv, rng.randint(0, len(lv)))
            a = LevelSubset.of(p, ids, level=d)
            seg = initial_segment(fam, d, len(ids))
            assert len(upper_shadow(p, seg)) <= len(upper_shadow(p, a))


class TestFindOrder:
    def test_path_found(self):
        assert find_macaulay_order(path(5)).status == "found"

    def test_heart_example_none(self):
        assert find_macaulay_order(heart_example_poset()).status == "none"

    def test_prop61_product_none(self):
        y = adjoin_extreme(spider(1, 1), "bottom")
        prod = cartesian_product(path(1), y)
        assert find_macaulay_order(prod).status == "none"

    def test_budget_exceeded_status(self):
        p = diamond([box(2, 3), box(3, 2)])
        r = find_macaulay_order(p, budget=3)
        assert r.status == "budget-exceeded" and r.order is None

    def test_found_order_is_certified(self):
        p = wedge([box(2, 2), box(2, 3)])
        r = find_macaulay_order(p)
        assert r.status == "found"
        assert check_macaulay(p, r.order).ok
        assert definition_check(
            p, [list(l) for l in r.order.per_level] + [[]])

    def test_matches_brute_force_on_corpus(self):
        corpus = [
            path(3),
            box(2, 2),
            spider(1, 2),
            disjoint_union([spider(1, 2), spider(1, 2)]),
            wedge([path(1), path(2), path(2)]),
            diamond([path(2), path(2), path(2)]),
            adjoin_extreme(spider(1, 1), "bottom"),
            cartesian_product(path(1), adjoin_extreme(spider(1, 1),
                                                      "bottom")),
            heart_example_poset(),
        ]
        for p in corpus:
            assert p.n <= 40
            got = find_macaulay_order(p).status == "found"
            assert got == brute_order_exists(p), p.name

    def test_deterministic_output(self):
        p = wedge([box(2, 3), box(2, 3)])
        r1 = find_macaulay_order(p)
        r2 = find_macaulay_order(p)
        assert r1.order.per_level == r2.order.per_level
        assert r1.stats.nodes == r2.stats.nodes


def search_tally(posets):
    statuses, nodes = [], 0
    for p in posets:
        r = find_macaulay_order(p)
        statuses.append(r.status)
        nodes += r.stats.nodes
    return statuses, nodes


class TestSearchPinned:
    """Verdicts and node counts recorded with the recursive search that
    the iterative one replaced; the nodes pin its visiting order."""

    def test_heart_grid(self):
        statuses, nodes = search_tally(
            build_heart(*t) for t in itertools.product(range(1, 6), repeat=4))
        assert (statuses.count("found"), statuses.count("none"), nodes) == (605, 20, 10842)

    def test_random_hat_corpus_matches_layered_oracle(self):
        corpus = _random_hat_corpus(300, 14, 7)
        statuses, nodes = search_tally(corpus)
        assert (statuses.count("found"), statuses.count("none"), nodes) == (236, 64, 2423)
        assert [s == "found" for s in statuses] == [layered_order_exists(p)
                                                    for p in corpus]

    def test_budget_counts_the_node_that_overruns(self):
        r = find_macaulay_order(box(3, 3, 3), budget=5)
        assert (r.status, r.stats.nodes) == ("budget-exceeded", 6)

    def test_wedge_of_cubes(self):
        r = find_macaulay_order(wedge([box(4, 4, 4), box(4, 4, 4)]))
        assert (r.status, r.stats.nodes) == ("found", 127)

    def test_deep_path_has_no_depth_limit(self):
        r = find_macaulay_order(path(5000))
        assert (r.status, r.stats.nodes) == ("found", 5001)

    @pytest.mark.parametrize("expr, nodes, per_level", [
        ("explicit{3; 0 0 2; }", 3, ((0, 1), (), (2,))),
        ("explicit{5; 0 0 2 3 3; 2 3, 2 4}", 5, ((0, 1), (), (2,), (3, 4))),
        ("explicit{3; 1 1 2; }", 3, ((), (0, 1), (2,))),
    ])
    def test_rank_gap(self, expr, nodes, per_level):
        # recorded with reference_search: an empty level places nothing,
        # and the level above it is one block
        r = find_macaulay_order(evaluate(parse_expression(expr)).poset)
        assert (r.status, r.stats.nodes, r.order.per_level) == ("found", nodes, per_level)


class TestSearchProperties:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(small_ranked_posets(max_width=4))
    def test_status_matches_layered_oracle(self, p):
        assert (find_macaulay_order(p).status == "found") == layered_order_exists(p)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(small_ranked_posets(max_width=4))
    def test_found_order_is_certified(self, p):
        r = find_macaulay_order(p)
        if r.status == "found":
            assert check_macaulay(p, r.order).ok
            assert definition_check(p, [list(l) for l in r.order.per_level] + [[]])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(small_ranked_posets(max_width=6),
           st.sampled_from([0, 1, 5, 37, 500, None]))
    def test_matches_reference_search(self, p, budget):
        # the same nodes in the same order: status, count and orders agree
        got, want = find_macaulay_order(p, budget), reference_search(p, budget)
        assert (got.status, got.stats.nodes) == (want.status, want.stats.nodes)
        assert (got.order and got.order.per_level) == (want.order and want.order.per_level)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(small_ranked_posets(max_width=6, twins=True),
           st.sampled_from([0, 1, 5, 37, 500, None]))
    def test_twin_charges_match_reference_search(self, p, budget):
        # levels with repeated up-cover sets are full of twins, whose
        # charged counts must add up to the nodes the reference visits
        got, want = find_macaulay_order(p, budget), reference_search(p, budget)
        assert (got.status, got.stats.nodes) == (want.status, want.stats.nodes)
        assert (got.order and got.order.per_level) == (want.order and want.order.per_level)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(twin_heavy_posets(), st.sampled_from([0, 1, 5, 37, 500, None]))
    def test_dead_prefix_charges_match_reference_search(self, p, budget):
        # every level is covered from below and full of twins, so dead
        # prefixes are counted over twin runs on both of their levels:
        # a count that drops a twin or a completion's failure above moves
        # the nominal nodes away from the reference's
        got, want = find_macaulay_order(p, budget), reference_search(p, budget)
        assert (got.status, got.stats.nodes) == (want.status, want.stats.nodes)
        assert (got.order and got.order.per_level) == (want.order and want.order.per_level)


@st.composite
def same_mask_pairs(draw):
    """A small ranked poset and a copy whose ids are dealt out to the
    levels in another drawn order, each level keeping its own order, so
    the copy's shadow masks equal the poset's."""
    p = draw(small_ranked_posets(max_width=4))
    ranks = draw(st.permutations(p.rank))
    ids = [[i for i, r in enumerate(ranks) if r == d] for d in range(len(p.levels))]
    new = {i: ids[d][k] for d, lv in enumerate(p.levels) for k, i in enumerate(lv)}
    q = RankedPoset(ranks, [(new[a], new[b]) for a in range(p.n) for b in p.up[a]])
    assert q._shadow_masks() == p._shadow_masks()
    return p, q


class TestSearchMemo:
    """Searches are memoised on (shadow masks, budget); the level cap is
    checked before the masks are derived."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(same_mask_pairs(), st.sampled_from([0, 3, 37, None]))
    def test_memo_matches_the_search_body(self, pair, budget):
        # the copy, and then the poset again, are answered from the memo
        macaulay._search.cache_clear()
        for p in (*pair, pair[0]):
            got = find_macaulay_order(p, budget)
            status, nodes, charged, subsets, placed = macaulay._search.__wrapped__(
                p._shadow_masks(), budget)
            assert (got.status, got.stats.nodes, got.stats.charged) == (status, nodes, charged)
            assert got.stats.subsets_enumerated == subsets
            if got.status == "found":
                assert got.order.poset is p
                assert tuple(tuple(p.pos_in_level[i] for i in lv)
                             for lv in got.order.per_level) == placed
                assert check_macaulay(p, got.order).ok
            else:
                assert got.order is None and placed is None
        assert macaulay._search.cache_info().misses == 1

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(small_ranked_posets(max_width=4))
    def test_budget_is_in_the_key(self, p):
        macaulay._search.cache_clear()
        find_macaulay_order(p)
        for budget in (0, 3):
            got = find_macaulay_order(p, budget)
            want = macaulay._search.__wrapped__(p._shadow_masks(), budget)
            assert (got.status, got.stats.nodes) == want[:2]
        with pytest.raises(LevelCapExceeded):
            find_macaulay_order(p, level_cap=max(map(len, p.levels)) - 1)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(small_ranked_posets(max_width=4))
    def test_a_passing_level_cap_is_not_in_the_key(self, p):
        macaulay._search.cache_clear()
        a = find_macaulay_order(p, level_cap=max(map(len, p.levels)))
        b = find_macaulay_order(p)
        assert (a.status, a.stats.nodes) == (b.status, b.stats.nodes)
        assert macaulay._search.cache_info().misses == 1

    def test_level_cap_is_checked_before_the_masks(self):
        # a fresh poset whose widest level has 3 elements, searched at a
        # cap of 2, is refused before its shadow masks are derived
        p = evaluate(parse_expression("explicit{4; 0 1 1 1; 0 1, 0 2, 0 3}")).poset
        with pytest.raises(LevelCapExceeded):
            find_macaulay_order(p, level_cap=2)
        assert p._shadow is None

    def test_hit_on_the_empty_poset_has_an_order(self):
        # a found order with no levels places no position at all
        p = evaluate(parse_expression("poset(ideal(1))")).poset
        macaulay._search.cache_clear()
        for _ in range(2):
            r = find_macaulay_order(p)
            assert (r.status, r.order.poset, r.order.per_level) == ("found", p, ())


@pytest.fixture
def orders_built(monkeypatch):
    """The posets of every order family built from a search's placed
    positions, from an empty search memo."""
    macaulay._search.cache_clear()
    built = []
    real = macaulay.order_from_lists

    def counted(p, lists):
        built.append(p)
        return real(p, lists)

    monkeypatch.setattr(macaulay, "order_from_lists", counted)
    return built


class TestLazyOrder:
    """A search result builds its order family from the placed positions
    on the first read of ``order``, for the poset asked about; that a
    memo hit reads its own poset's order is checked in
    ``TestSearchMemo.test_memo_matches_the_search_body``."""

    def test_found_order_is_built_once_on_first_read(self, orders_built):
        p = wedge([box(2, 2), box(2, 3)])
        r = find_macaulay_order(p)
        assert r.status == "found" and orders_built == []
        order = r.order
        assert r.order is order and orders_built == [p]
        assert order.poset is p and check_macaulay(p, order).ok

    @pytest.mark.parametrize("p, budget, status", [
        (heart_example_poset(), macaulay.DEFAULT_BUDGET, "none"),
        (diamond([box(2, 3), box(3, 2)]), 3, "budget-exceeded")])
    def test_no_order_reads_none(self, p, budget, status, orders_built):
        r = find_macaulay_order(p, budget)
        assert (r.status, r.order, r.order) == (status, None, None)
        assert orders_built == []

    def test_heart_grid_builds_no_order(self, orders_built):
        report = verify_family("heart", {"side": (1, 3)})
        assert any(row["search"] == "found" for row in report.rows)
        assert orders_built == []

    def test_conjecture_scan_builds_no_order(self, orders_built):
        report = conjecture_6_7_search(max_exp=2)
        assert any(row.get("search") == "found" for row in report.rows)
        assert orders_built == []


class TestTwinCharge:
    """Level 0 is two pairs of twins: 0 and 1 are covered by 4, which
    covers all of level 2, and 2 and 3 by 5, which covers nothing.
    Placing 0 first fails after a subtree of C = 9 nodes, two of them
    charged for a twin inside it.  Its twin 1 is node 11, and its charge
    brings the count to N = 20."""

    EXPR = "explicit{9; 0 0 0 0 1 1 2 2 2; 0 4, 1 4, 2 5, 3 5, 4 6, 4 7, 4 8}"
    N, C = 20, 9

    def poset(self):
        return evaluate(parse_expression(self.EXPR)).poset

    def test_found_with_charged_nodes(self):
        r = find_macaulay_order(self.poset(), budget=None)
        assert (r.status, r.stats.nodes, r.stats.charged) == ("found", 31, 2 + self.C)
        assert r.order.per_level == ((2, 3, 0, 1), (5, 4), (6, 7, 8))
        assert r.stats.to_json() == {"search_nodes": 31, "subsets_enumerated": 28}

    @pytest.mark.parametrize("budget", range(N - C - 1, N + 2))
    def test_budgets_around_the_charge(self, budget):
        # below N the charge overruns the budget and the count stops at
        # budget + 1, as in the reference; at N and above it fits
        p = self.poset()
        got, want = find_macaulay_order(p, budget), reference_search(p, budget)
        assert (got.status, got.stats.nodes) == (want.status, want.stats.nodes)
        assert (got.order and got.order.per_level) == (want.order and want.order.per_level)
        first = self.N - self.C - 1  # the node count before the twin's own node
        assert got.stats.charged == 2 + min(self.C, budget - first)

    def test_reentered_depth_forgets_earlier_charges(self):
        # a depth entered again under another prefix holds other blocks,
        # so twins charged at its earlier entry are no longer charged;
        # nodes recorded with reference_search.  The charged nodes take
        # in dead prefixes as well as twins: 71 of them are twins' alone
        p = evaluate(parse_expression(
            "explicit{16; 0 0 1 1 1 1 2 2 2 2 2 3 3 3 3 3; 0 2, 0 3, 0 5, 1 3, "
            "1 4, 1 5, 2 8, 2 9, 3 8, 3 9, 4 6, 4 8, 4 9, 5 8, 5 9, 6 12, 6 13, "
            "6 14, 6 15, 7 11, 7 13, 7 14, 8 13, 8 15, 9 13, 9 15, 10 11, 10 13, "
            "10 14}")).poset
        r = find_macaulay_order(p, budget=None)
        assert (r.status, r.stats.nodes, r.stats.charged) == ("none", 94, 78)


def levels_poset(levels):
    """The poset whose level d lists, per element, the positions it
    covers in level d+1."""
    starts = list(itertools.accumulate(map(len, levels), initial=0))
    ranks = [d for d, lv in enumerate(levels) for _ in lv]
    return RankedPoset(ranks, [(starts[d] + i, starts[d + 1] + j)
                               for d, lv in enumerate(levels[:-1])
                               for i, ups in enumerate(lv) for j in ups])


@pytest.fixture
def count_calls(monkeypatch):
    """The shadow masks of every call of the dead-prefix count, from an
    empty search memo."""
    macaulay._search.cache_clear()
    calls = []
    real = macaulay._count

    def counted(masks, *args):
        calls.append(masks)
        return real(masks, *args)

    monkeypatch.setattr(macaulay, "_count", counted)
    return calls


class TestDeadPrefixCharge:
    """A placement whose new prefix-shadow step is not optimal in the
    next level is counted, not searched, by ``macaulay._count``.  Every
    status and node count below was recorded with the search that
    searched each such subtree node by node; the count's own calls are
    bounded by the nodes that search visited."""

    @staticmethod
    def dead_step(t):
        # level 0 is a, covering J, and b, covering T, whose up-covers
        # in level 2 are ``t``; both have |T| elements.  J is j0,
        # covering level-2 element 0, then junk covering pairs of a path
        # of new elements, so a's step fails at its second element.  The
        # search then turns to b, whose step T is dead once T holds an
        # element x that adds two where j0 adds one
        k, top = len(t) - 1, max(map(max, t)) + 1
        junk = [[top + i, top + i + 1] for i in range(k)]
        return levels_poset([[list(range(k + 1)), list(range(k + 1, 2 * k + 2))],
                             [[0]] + junk + t, [[]] * (top + k + 1)])

    @pytest.mark.parametrize("budget, status, nodes", [
        (20_000, "budget-exceeded", 20_001),
        (macaulay.DEFAULT_BUDGET, "budget-exceeded", macaulay.DEFAULT_BUDGET + 1),
        (None, "none", 217_010_250)])
    def test_twin_step_counts_each_twin_run_once(self, budget, status, nodes, count_calls):
        # T is 11 twins covering 0, then x covering 0 and 1, in a level
        # of 24: level 1 tries all 11! orders of the twins on T and fails
        # at x after each.  The count takes the twins as one run: one
        # call per number of them placed, not one per subset
        p = self.dead_step([[0]] * 11 + [[0, 1]])
        r = find_macaulay_order(p, budget)
        assert (r.status, r.stats.nodes) == (status, nodes)
        level1 = p._shadow_masks()[1]
        assert 0 < sum(masks == level1 for masks in count_calls) <= len(level1) + 1

    @pytest.mark.parametrize("budget, status, nodes", [
        (100, "budget-exceeded", 101),
        (20_000, "budget-exceeded", 20_001),
        (macaulay.DEFAULT_BUDGET, "none", 19_728_226)])
    def test_one_bit_step_counts_within_the_budget(self, budget, status, nodes, count_calls):
        # T is 10 elements covering one distinct element each, then x
        # covering two more: level 1 tries all 10! orders on T, with no
        # twins to charge, so the search being replaced visits every
        # node it counts.  The count stops as soon as it passes what is
        # left of the budget, so it makes fewer calls than that search
        # visits nodes; counted through, it would make 5123
        r = find_macaulay_order(self.dead_step([[1 + i] for i in range(10)] + [[11, 12]]),
                                budget)
        assert (r.status, r.stats.nodes) == (status, nodes)
        assert 0 < len(count_calls) < nodes

    @pytest.mark.parametrize("budget", [20_000, macaulay.DEFAULT_BUDGET])
    def test_one_bit_level_counts_within_the_budget(self, budget, count_calls):
        # level 0 has 20 distinct one-bit masks, element k covering k; in
        # level 1, 0 covers two elements and every other element one, so
        # every prefix of level 0 that holds 0, short of the whole level,
        # is dead.  The search being replaced visits budget + 1 nodes
        w = 20
        p = levels_poset([[[k] for k in range(w)], [[0, 1]] + [[j + 1] for j in range(1, w)],
                          [[]] * (w + 1)])
        r = find_macaulay_order(p, budget)
        assert (r.status, r.stats.nodes) == ("budget-exceeded", budget + 1)
        assert 0 < len(count_calls) < budget + 1


@st.composite
def posets_with_orders(draw):
    """A small ranked poset and one drawn permutation of each level."""
    p = draw(small_ranked_posets(max_width=4))
    return p, [draw(st.permutations(p.level(d))) for d in range(p.max_rank + 1)]


class TestWitnessProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(posets_with_orders())
    def test_every_witness_replays(self, drawn):
        p, lists = drawn
        v = check_macaulay(p, order_from_lists(p, lists))
        assert v.ok == definition_check(p, lists)
        if v.ok:
            return
        w = v.witness
        seg = lists[w.level][:w.q]
        if w.kind == "min-shadow-beaten":
            # the segment's shadow is beaten by a rival of the same size
            assert tuple(w.elements) == tuple(seg)
            assert len(w.rival) == w.q
            assert all(p.rank[i] == w.level for i in w.rival)
            assert len(naive_upper_shadow(p, w.rival)) == w.sizes[1]
            assert w.sizes[1] < w.sizes[0] == len(naive_upper_shadow(p, seg))
        else:
            # the segment's shadow is not the next level's prefix of its size
            assert w.kind == "shadow-not-initial"
            shadow = naive_upper_shadow(p, seg)
            assert set(w.elements) == shadow and len(w.elements) == len(shadow)
            nxt = lists[w.level + 1]
            assert tuple(w.rival) == tuple(nxt[:len(shadow)])
            assert set(w.rival) != shadow


class TestNewShadow:
    def test_initial_segment_full_shadow(self):
        p = box(4, 4)
        fam = lex_order(p)
        full = upper_shadow(p, initial_segment(fam, 2, 2))
        assert new_shadow(fam, 2, 0, 2) == full

    def test_box_non_initial_segment_drops_one(self):
        p = box(5, 5)
        fam = lex_order(p)
        for d in range(1, 7):
            n = len(p.level(d))
            for s in range(1, n):
                for e in range(s + 1, n + 1):
                    seg_ids = fam.descending(d)[s:e]
                    sh = upper_shadow(p, LevelSubset.of(p, seg_ids, level=d))
                    assert len(new_shadow(fam, d, s, e)) == len(sh) - 1

    def test_degree8_segment_in_truncation(self):
        # the three-monomial lex segment below x^8 > x^7 y at degree 8
        p = box(9, 9)
        fam = lex_order(p)
        row = [p.element_name(i) for i in fam.descending(8)]
        assert row[:5] == ["x^8", "x^7*y", "x^6*y^2", "x^5*y^3", "x^4*y^4"]
        ns = new_shadow(fam, 8, 2, 5)
        sh = upper_shadow(p, LevelSubset.of(p, fam.descending(8)[2:5], level=8))
        above = upper_shadow(p, LevelSubset.of(p, fam.descending(8)[:2], level=8))
        assert set(ns.ids()) == set(sh.ids()) - set(above.ids())

    def test_range_errors(self):
        fam = lex_order(box(3, 3))
        with pytest.raises(PosetError):
            new_shadow(fam, 1, 1, 5)


@st.composite
def additivity_pairs(draw):
    """A small ranked poset and an order family on it: the order the
    search finds, when it finds one, or a drawn permutation of each
    level, which is mostly not Macaulay."""
    p = draw(small_ranked_posets())
    found = find_macaulay_order(p)
    if found.status == "found" and draw(st.booleans()):
        return p, found.order
    return p, order_from_lists(p, [draw(st.permutations(lv)) for lv in p.levels])


def additivity_outcome(verdict_of, p, o):
    """The verdict, or the message of the PosetError raised instead."""
    try:
        return verdict_of(p, o)
    except PosetError as e:
        return str(e)


class TestAdditive:
    def test_box_with_lex_is_additive(self):
        b = box(2, 3)
        assert is_additive(b, lex_order(b)).ok

    def test_spider_12_not_additive(self):
        p = spider(1, 2)
        r = find_macaulay_order(p)
        assert r.status == "found"
        v = is_additive(p, r.order)
        assert not v.ok
        assert v.witness.kind == "segment-inequality"

    def test_singleton_levels_always_additive(self):
        p = path(6)
        assert is_additive(p, find_macaulay_order(p).order).ok

    def test_error_on_non_macaulay_pair(self):
        p = heart_example_poset()
        with pytest.raises(PosetError, match="Macaulay"):
            is_additive(p, lex_order(p, ("y", "x")))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(additivity_pairs())
    def test_matches_reference_is_additive(self, drawn):
        p, o = drawn
        assert additivity_outcome(is_additive, p, o) == additivity_outcome(
            reference_is_additive, p, o)
        for d in range(p.max_rank + 1):
            n = len(o.descending(d))
            for s, e in itertools.combinations_with_replacement(range(n + 1), 2):
                assert new_shadow(o, d, s, e) == reference_new_shadow(o, d, s, e)

    @pytest.mark.parametrize("dims", [(5, 5, 5), (2, 2, 2, 2, 2, 2)])
    def test_wide_boxes_match_reference_is_additive(self, dims):
        b = box(*dims)
        o = lex_order(b)
        got = additivity_outcome(is_additive, b, o)
        assert got == additivity_outcome(reference_is_additive, b, o) and got.ok


class TestSectionThreeSuite:
    def test_clements_positive_direction(self):
        # additive boxes: copies are Macaulay under union simplicial order
        for dims in [(2, 2), (2, 3)]:
            b = box(*dims)
            o = lex_order(b)
            for op in (disjoint_union, wedge, diamond):
                res = op([b, b])
                fam = union_simplicial_order(res, [o, o])
                assert check_macaulay(res, fam).ok, (dims, op.__name__)

    def test_clements_converse_on_non_additive_poset(self):
        p = spider(1, 2)
        assert find_macaulay_order(disjoint_union([p, p])).status == "none"

    def test_equivalence_of_three_forms(self):
        # underline-union, wedge, diamond-of-hats agree whenever defined
        instances = [
            [box(2, 2), box(2, 2)],
            [box(2, 3), box(2, 3)],
            [spider(2, 2), box(2, 2)],
            [adjoin_extreme(box(2, 2), "bottom"), adjoin_extreme(box(2, 2), "top")],
        ]
        for ps in instances:
            unions = find_macaulay_order(
                disjoint_union([remove_extreme(p, "bottom") for p in ps]))
            wedges = find_macaulay_order(wedge(ps))
            assert unions.status == wedges.status
            try:
                hats = [adjoin_extreme(p, "top") for p in ps]
                dia = diamond(hats)
            except PosetError:
                continue
            assert find_macaulay_order(dia).status == wedges.status

    def test_one_way_chain(self):
        # union Macaulay => wedge Macaulay => diamond Macaulay
        rank = {"none": 0, "found": 1}
        instances = [
            [box(2, 2), box(2, 2)],
            [spider(1, 2), spider(1, 2)],
            [adjoin_extreme(box(2, 2), "bottom"), adjoin_extreme(box(2, 2), "top")],
            [box(2, 3), box(3, 2)],
        ]
        for ps in instances:
            seq = []
            seq.append(find_macaulay_order(disjoint_union(ps)).status)
            try:
                seq.append(find_macaulay_order(wedge(ps)).status)
            except PosetError:
                seq.append(None)
            try:
                seq.append(find_macaulay_order(diamond(ps)).status)
            except PosetError:
                seq.append(None)
            known = [s for s in seq if s is not None]
            assert all(rank[a] <= rank[b] for a, b in zip(known, known[1:])), (
                [p.name for p in ps], seq)

    def test_hat_preservation_small(self):
        # heart(5,2,2,5) has a unique max; the heart-example poset does
        # not (x^3 and x^2 y^2 are both maximal), so hat is undefined there
        from macposet.classify import build_heart
        for p in [box(2, 2), spider(2, 2), build_heart(5, 2, 2, 5),
                  diamond([path(3), path(3)])]:
            base = find_macaulay_order(p).status
            hatted = find_macaulay_order(adjoin_extreme(p, "top")).status
            assert base == hatted

    def test_wedge_macaulay_restricts_to_factors(self):
        # a Macaulay wedge order whose level-1 prefix is one factor's atoms
        # restricts to Macaulay orders on both factors
        b1, b2 = box(2, 3), box(2, 3)
        res = wedge([b1, b2])
        o = lex_order(b1)
        fam = union_simplicial_order(res, [o, o])
        assert check_macaulay(res, fam).ok
        prov = res.provenance.sources
        level1 = fam.descending(1)
        prefix_factors = {prov[i][0][0] for i in level1[:len(b2.level(1))]}
        assert prefix_factors == {1}
        for factor in (0, 1):
            ids = [i for i, rec in enumerate(prov)
                   if any(f == factor for f, _ in rec)]
            sub = induced_subposet(res, ids)
            rfam = restrict_order(fam, sub)
            assert check_macaulay(sub.poset, rfam).ok

    def test_diamond_restriction_to_last_two_factors(self):
        b = box(2, 2)
        res = diamond([b, b, b])
        o = lex_order(b)
        fam = union_simplicial_order(res, [o, o, o])
        assert check_macaulay(res, fam).ok
        sub = restrict_to_factors(res, [1, 2])
        rfam = restrict_order(fam, sub)
        assert check_macaulay(sub.poset, rfam).ok
