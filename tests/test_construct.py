import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (are_isomorphic, dealt_out, poset_fields,
                      reference_cartesian_product, reference_glue,
                      reference_heart_cells, reference_lex_order,
                      reference_monomial_poset, reference_twist_order,
                      restrict_to_factors, small_ranked_posets)
from macposet import (PosetError, RankedPoset, box, cartesian_product,
                      construct, diamond, disjoint_union, fiber_product,
                      lex_order, path, pure_power_ideal, spider, twist_order,
                      validate_poset, wedge)
from macposet.cli import REPRODUCE, run_command
from macposet.construct import (BUILD_CACHE, GLUED, adjoin_extreme,
                                build_heart, heart_cells, remove_extreme)
from macposet.core import induced_subposet
from macposet.expr import evaluate, parse_expression
from macposet.ideals import (box_cells, inclusion_map, monomial_poset,
                             standard_monomial_poset)
from macposet.serialize import poset_to_text


class TestConstructors:
    def test_path(self):
        p = path(2)
        assert p.n == 3 and p.up[0] == (1,) and p.up[1] == (2,)
        assert path(0).n == 1
        assert path(4).level_sizes() == (1, 1, 1, 1, 1)

    def test_box(self):
        b = box(3, 4)
        assert b.n == 12 and b.max_rank == 5
        assert are_isomorphic(box(2), path(1)) is not None

    def test_box_is_product_of_paths(self):
        prod = cartesian_product(path(2), path(3))
        assert are_isomorphic(prod, box(3, 4)) is not None
        prod3 = cartesian_product(cartesian_product(path(1), path(1)), path(2))
        assert are_isomorphic(prod3, box(2, 2, 3)) is not None

    def test_spider(self):
        s = spider(1, 1)
        assert s.n == 3 and s.level_sizes() == (1, 2)
        assert spider(2, 2, 2).level_sizes() == (1, 3, 3)
        assert are_isomorphic(spider(3), path(3)) is not None


class TestBuildMemo:
    def test_same_arguments_same_poset(self):
        assert box(2, 3) is box(2, 3)
        assert path(4) is path(4)
        assert box(2, 3) is not box(3, 2)

    def test_gluing_and_hatting_leave_a_memoised_box_unchanged(self):
        b = box(2, 3)
        before = poset_to_text(b)
        for op in (disjoint_union, wedge, diamond):
            op([b, b])
        cartesian_product(b, b)
        for which in ("top", "bottom"):
            remove_extreme(adjoin_extreme(b, which), which)
            remove_extreme(b, which)
        assert poset_to_text(box(2, 3)) == before

    def test_reproduce_pass_evicts_no_box(self, tmp_path, capsys):
        # the hearts read their cells from the memoised boxes, so a pass
        # of the reproduce targets must find every box it asked for again
        box.cache_clear()
        path.cache_clear()
        for name in REPRODUCE:
            run_command(["reproduce", name, "--report", str(tmp_path / "r.json")])
        capsys.readouterr()
        for memo in (box, path):
            info = memo.cache_info()
            assert info.misses == info.currsize <= BUILD_CACHE, info


class TestDisjointUnion:
    def test_two_paths(self):
        res = disjoint_union([path(1), path(1)])
        assert res.n == 4
        assert res.level_sizes() == (2, 2)

    def test_level_sizes_add(self):
        res = disjoint_union([box(2, 2), box(2, 3)])
        assert res.level_sizes() == tuple(
            a + b for a, b in zip((1, 2, 1, 0), (1, 2, 2, 1)))

    def test_underline_wedge_is_union_of_underlines(self):
        ps = [box(2, 2), spider(2, 2)]
        lhs = remove_extreme(wedge(ps), "bottom")
        rhs = disjoint_union([remove_extreme(p, "bottom") for p in ps])
        assert are_isomorphic(lhs, rhs) is not None


class TestWedge:
    def test_paths(self):
        res = wedge([path(1), path(2)])
        assert res.n == 4
        assert res.level_sizes() == (1, 2, 1)

    def test_single_factor_identity(self):
        p = box(2, 3)
        res = wedge([p])
        assert are_isomorphic(res, p) is not None

    def test_wedge_of_paths_is_spider(self):
        assert are_isomorphic(wedge([path(1), path(2), path(2)]),
                              spider(1, 2, 2)) is not None

    def test_rejects_multiple_minima(self):
        two_min = disjoint_union([path(1), path(1)])
        with pytest.raises(PosetError, match="factor 0 has 2 minimal"):
            wedge([two_min, path(1)])

    def test_glue_rank_subtraction(self):
        res = wedge([box(2, 2), box(2, 2), box(2, 2)])
        assert res.level_sizes() == (1, 6, 3)  # 3 - (n-1) at rank 0


class TestDiamond:
    def test_diamond_poset(self):
        res = diamond([path(1), path(1)])
        assert res.n == 2  # both extremes merged: 2+2-2
        res = diamond([path(2), path(2)])
        assert res.level_sizes() == (1, 2, 1)

    def test_discrete_torus(self):
        res = diamond([path(3), path(3)])
        assert res.level_sizes() == (1, 2, 2, 1)

    def test_mismatched_top_ranks_rejected(self):
        with pytest.raises(PosetError, match="maximum has rank"):
            diamond([path(1), path(2)])

    def test_degenerate_factor_rejected(self):
        with pytest.raises(PosetError, match="minimum equal to its maximum"):
            diamond([path(0), path(0)])

    def test_top_and_bottom_counts(self):
        res = diamond([box(2, 3), box(2, 3)])
        assert res.level_sizes() == (1, 4, 4, 1)

    def test_mismatched_bottom_ranks_rejected(self):
        # the bottom-removed path(3) has its minimum at rank 1
        with pytest.raises(PosetError, match="factor 1 minimum has rank 1, expected 0"):
            diamond([path(3), remove_extreme(path(3), "bottom")])


@st.composite
def glue_factors(draw):
    """One to three small ranked posets, most of them with the same
    number of levels.  Each element gets a cover in every neighbouring
    level, so a bottom and a top can always be adjoined, and each is
    adjoined with probability 3/4: glued operations of these factors
    are often defined."""
    height = draw(st.integers(1, 4))
    ps = []
    for _ in range(draw(st.integers(1, 3))):
        levels = height if draw(st.integers(0, 3)) < 3 else draw(st.integers(1, 4))
        p = draw(small_ranked_posets(max_width=4, levels=levels))
        covers = construct._cover_pairs(p)
        for d in range(1, p.max_rank + 1):
            covers += [(p.level(d - 1)[0], i) for i in p.level(d) if not p.down[i]]
            covers += [(i, p.level(d)[0]) for i in p.level(d - 1) if not p.up[i]]
        p = RankedPoset(p.rank, sorted(set(covers)))
        for which in ("bottom", "top"):
            if draw(st.integers(0, 3)) < 3:
                p = adjoin_extreme(p, which)
        ps.append(p)
    return ps


def glued_text(build):
    """The file form of a glued result, or PosetError if it raises one."""
    try:
        res = build()
    except PosetError:
        return PosetError
    return poset_to_text(res)


class TestGlueMatchesReference:
    @pytest.mark.parametrize("op", [wedge, diamond])
    def test_no_factors_rejected(self, op):
        with pytest.raises(PosetError, match="needs at least one factor"):
            op([])

    def test_union_of_no_factors_is_empty(self):
        res = disjoint_union([])
        assert res.n == 0 and res.name == "union()"

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(glue_factors(), st.sampled_from(sorted(GLUED)))
    def test_matches_reference_glue(self, ps, operation):
        # ids, covers, name and provenance all show in the file form
        got = glued_text(lambda: getattr(construct, operation)(ps))
        assert got == glued_text(lambda: reference_glue(ps, operation))

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    def test_spider_is_the_renamed_wedge_of_paths(self, legs):
        res = spider(*legs)
        ref = reference_glue([path(l) for l in legs], "wedge")
        renamed = RankedPoset(ref.rank, construct._cover_pairs(ref),
                              name="spider(" + ",".join(map(str, legs)) + ")",
                              provenance=ref.provenance)
        assert poset_to_text(res) == poset_to_text(renamed)


@st.composite
def fiber_inputs(draw):
    """(pa, pb, pc, into_a, into_b): pc is induced on a down-set of pa;
    pb is pc with new elements stacked on it (each covering only
    elements one rank down), its ids shuffled."""
    pa = draw(small_ranked_posets(max_width=4))
    tops = draw(st.sets(st.integers(0, pa.n - 1), max_size=3))
    sub = induced_subposet(pa, [x for x in range(pa.n)
                                if any(pa.leq(x, t) for t in tops)])
    pc = sub.poset
    ranks = list(pc.rank)
    covers = [(a, b) for a in range(pc.n) for b in pc.up[a]]
    for r in draw(st.lists(st.integers(0, pa.max_rank + 1), max_size=6)):
        below = [i for i, s in enumerate(ranks) if s == r - 1]
        if below:
            covers += [(i, len(ranks)) for i in draw(st.sets(st.sampled_from(below)))]
        ranks.append(r)
    perm = draw(st.permutations(range(len(ranks))))
    pb_ranks = [0] * len(ranks)
    for old, new in enumerate(perm):
        pb_ranks[new] = ranks[old]
    pb = RankedPoset(pb_ranks, [(perm[a], perm[b]) for a, b in covers])
    return (pa, pb, pc, dict(enumerate(sub.old_of_new)),
            {c: perm[c] for c in range(pc.n)})


class TestFiber:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(fiber_inputs())
    def test_covers_are_rank_one_pairs_of_the_glued_order(self, inputs):
        pa, pb, pc, into_a, into_b = inputs
        p = fiber_product(pa, pb, pc, into_a, into_b)
        # each glued element's id in pa and in pb, where it has one
        in_a = [dict(rec).get(0) for rec in p.provenance.sources]
        in_b = [dict(rec).get(1) for rec in p.provenance.sources]
        leq = [[(in_a[x] is not None and in_a[y] is not None
                 and pa.leq(in_a[x], in_a[y]))
                or (in_b[x] is not None and in_b[y] is not None
                    and pb.leq(in_b[x], in_b[y]))
                for y in range(p.n)] for x in range(p.n)]
        for z, x, y in itertools.product(range(p.n), repeat=3):
            leq[x][y] = leq[x][y] or (leq[x][z] and leq[z][y])
        assert p.rank == tuple(pa.rank[a] if a is not None else pb.rank[b]
                               for a, b in zip(in_a, in_b))
        assert {(x, y) for x in range(p.n) for y in p.up[x]} == {
            (x, y) for x in range(p.n) for y in range(p.n)
            if leq[x][y] and p.rank[y] == p.rank[x] + 1}

    def test_over_a_point_is_wedge(self):
        for pa, pb in [(box(2, 2), box(2, 3)), (path(2), box(2, 2))]:
            star = path(0)
            res = fiber_product(pa, pb, star,
                                {0: pa.minimal_elements()[0]},
                                {0: pb.minimal_elements()[0]})
            assert are_isomorphic(res, wedge([pa, pb])) is not None

    def test_two_paths_over_a_stem(self):
        # |A| + |B| - |C| = 3 + 3 - 2 = 4: a V on a stem
        pa, pb, pc = path(2), path(2), path(1)
        res = fiber_product(pa, pb, pc, {0: 0, 1: 1}, {0: 0, 1: 1})
        assert res.n == 4
        assert res.level_sizes() == (1, 1, 2)

    def test_heart_level_size_identity(self):
        a0, a1, b0, b1 = 4, 2, 2, 5
        c0, c1 = min(a0, b0), min(a1, b1)
        pa, pb, pc = box(a0, a1), box(b0, b1), box(c0, c1)
        ia = inclusion_map(pure_power_ideal((a0, a1), ("x", "y")),
                           pure_power_ideal((c0, c1), ("x", "y")),
                           poset_i=pa, poset_j=pc)
        ib = inclusion_map(pure_power_ideal((b0, b1), ("x", "y")),
                           pure_power_ideal((c0, c1), ("x", "y")),
                           poset_i=pb, poset_j=pc)
        res = fiber_product(pa, pb, pc, ia, ib)
        for d in range(res.max_rank + 1):
            assert len(res.level(d)) == (
                len(pa.level(d)) + len(pb.level(d)) - len(pc.level(d)))

    def test_invalid_injection_rejected(self):
        pa = path(2)
        with pytest.raises(PosetError, match="not rank-preserving"):
            fiber_product(pa, pa, path(1), {0: 0, 1: 2}, {0: 0, 1: 1})
        with pytest.raises(PosetError, match="not injective"):
            fiber_product(pa, pa, path(1), {0: 0, 1: 0}, {0: 0, 1: 1})

    def test_non_embedding_rejected(self):
        # 0 < 1 in the base, but their images sit in different components
        pa = disjoint_union([path(1), path(1)])
        with pytest.raises(PosetError,
                           match=r"^into_a: not an order embedding at \(0,1\)$"):
            fiber_product(pa, path(1), path(1), {0: 0, 1: 3}, {0: 0, 1: 1})

    def test_non_downset_image_rejected(self):
        from macposet import RankedPoset
        pa = path(2)
        pc = RankedPoset([1], [])  # lone rank-1 base element
        with pytest.raises(PosetError, match="down-set"):
            fiber_product(pa, pa, pc, {0: 1}, {0: 1})


class TestMonomialPosets:
    """The direct box and heart builders against their definitions."""

    @pytest.mark.parametrize("nd", [1, 2, 3, 4])
    def test_box_matches_divisibility(self, nd):
        # labels by degree, then lex-descending; a <= b exactly when the
        # label of a divides the label of b.  Sides 1-4, 1-3 in 4-D.
        for dims in itertools.product(range(1, 5 if nd < 4 else 4), repeat=nd):
            cells = sorted(itertools.product(*(range(d) for d in dims)),
                           key=lambda m: (sum(m), [-e for e in m]))
            p = box(*dims)
            assert list(p.labels) == cells, dims
            assert p.rank == tuple(sum(m) for m in cells)
            assert len(p.var_names) == nd
            below = {(a, b) for a, b in itertools.product(range(p.n), repeat=2)
                     if p.leq(a, b)}
            assert below == {(a, b) for a, b in itertools.product(range(p.n), repeat=2)
                             if all(x <= y for x, y in zip(cells[a], cells[b]))}, dims

    def test_heart_is_the_fiber_product_of_boxes(self):
        # the paper's definition: the two boxes glued over their overlap
        xy = ("x", "y")
        for a0, a1, b0, b1 in itertools.product(range(1, 6), repeat=4):
            c0, c1 = min(a0, b0), min(a1, b1)
            pa, pb, pc = box(a0, a1), box(b0, b1), box(c0, c1)
            ia = inclusion_map(pure_power_ideal((a0, a1), xy),
                               pure_power_ideal((c0, c1), xy),
                               poset_i=pa, poset_j=pc)
            ib = inclusion_map(pure_power_ideal((b0, b1), xy),
                               pure_power_ideal((c0, c1), xy),
                               poset_i=pb, poset_j=pc)
            want = fiber_product(pa, pb, pc, ia, ib)
            got = build_heart(a0, a1, b0, b1)
            assert ((got.rank, got.up, got.labels, got.var_names)
                    == (want.rank, want.up, want.labels, want.var_names)), (a0, a1, b0, b1)
            assert got.name == f"heart({a0},{a1},{b0},{b1})"

    def test_every_heart_row_matches_reference(self):
        # cells, posets and the lex and twist families of every heart
        # with sides 1-6, against the builders that rebuilt each box
        xy, yx = ("x", "y"), ("y", "x")
        for a0, a1, b0, b1 in itertools.product(range(1, 7), repeat=4):
            cells = heart_cells(a0, a1, b0, b1)
            assert cells == reference_heart_cells(a0, a1, b0, b1)
            h = build_heart(a0, a1, b0, b1)
            ref = reference_monomial_poset(cells, xy, f"heart({a0},{a1},{b0},{b1})")
            assert poset_fields(h) == poset_fields(ref), (a0, a1, b0, b1)
            for prio in (yx, xy):
                assert (lex_order(h, prio).per_level
                        == reference_lex_order(ref, prio).per_level)
            # the heart read x-first is heart(a1, a0, b1, b0)
            for prio, params in ((yx, (a0, a1, b0, b1)), (xy, (a1, a0, b1, b0))):
                if params[3] < params[1]:
                    params = params[2:] + params[:2]
                assert (twist_order(h, *params, priority=prio).per_level
                        == reference_twist_order(ref, *params, prio).per_level)

    def test_heart_needs_positive_sides(self):
        with pytest.raises(PosetError, match="side lengths"):
            build_heart(0, 1, 1, 1)


@st.composite
def product_factors(draw):
    """A small cartesian factor: an ``explicit{...}`` literal whose ids
    are dealt out to the ranks in a drawn order, so they need not be in
    rank order, or, twice as often, a labelled box of one or two sides
    whose variables are drawn from w, x, y, z, so two factors' variables
    are sometimes disjoint and sometimes not."""
    if not draw(st.integers(0, 2)):
        p = draw(small_ranked_posets(max_width=3))
        ranks, covers = dealt_out(p, draw(st.permutations(range(p.n))))
        return evaluate(parse_expression(
            f"explicit{{{p.n}; {' '.join(map(str, ranks))}; "
            + ", ".join(f"{a} {b}" for a, b in covers) + "}")).poset
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    names = draw(st.permutations("wxyz"))[:len(dims)]
    return monomial_poset(box_cells(dims), tuple(names), "b" + "".join(map(str, dims)))


class TestCartesian:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(product_factors(), product_factors())
    def test_matches_reference_product(self, p, q):
        # ids, ranks, covers, labels, name and provenance all show in the file form
        res, ref = cartesian_product(p, q), reference_cartesian_product(p, q)
        assert poset_to_text(res) == poset_to_text(ref)

    def test_identity_factor(self):
        p = box(2, 3)
        assert are_isomorphic(cartesian_product(p, path(0)), p) is not None

    def test_rank_and_updegree_laws(self):
        res = cartesian_product(box(2, 2), path(2))
        p, q = box(2, 2), path(2)
        for k, rec in enumerate(res.provenance.sources):
            (_, a), (_, b) = rec
            assert res.rank[k] == p.rank[a] + q.rank[b]
            assert len(res.up[k]) == len(p.up[a]) + len(q.up[b])

    def test_path_times_y_has_8_elements(self):
        y = adjoin_extreme(spider(1, 1), "bottom")
        assert cartesian_product(path(1), y).n == 8


class TestExtremes:
    def test_adjoin_top_to_box(self):
        p = adjoin_extreme(box(2, 2), "top")
        assert p.n == 5 and p.max_rank == 3

    def test_adjoin_bottom_makes_y(self):
        y = adjoin_extreme(spider(1, 1), "bottom")
        assert y.level_sizes() == (1, 1, 2)
        assert validate_poset(y).ok

    def test_hat_uhat_equal_top_rank(self):
        b = box(2, 2)
        assert adjoin_extreme(b, "top").max_rank == adjoin_extreme(b, "bottom").max_rank == 3

    def test_diamond_of_hats_is_hat_of_wedge(self):
        ps = [box(2, 2), box(2, 2)]
        lhs = diamond([adjoin_extreme(p, "top") for p in ps])
        rhs = adjoin_extreme(wedge(ps), "top")
        assert are_isomorphic(lhs, rhs) is not None

    def test_hat_overline_identities(self, small_corpus):
        for p in small_corpus:
            maxima_ranks = {p.rank[i] for i in p.maximal_elements()}
            if len(maxima_ranks) == 1:
                assert are_isomorphic(
                    p, remove_extreme(adjoin_extreme(p, "top"), "top")) is not None
            if len(p.maximal_elements()) == 1:
                assert are_isomorphic(
                    p, adjoin_extreme(remove_extreme(p, "top"), "top")) is not None

    def test_underline_box(self):
        u = remove_extreme(box(2, 2), "bottom")
        assert u.n == 3
        assert sorted(u.rank) == [1, 1, 2]
        assert u.level_sizes() == (0, 2, 1)

    def test_remove_top_of_union_rejected(self):
        with pytest.raises(PosetError, match="2 top extremes"):
            remove_extreme(disjoint_union([path(1), path(1)]), "top")

    def test_adjoin_top_mixed_ranks_rejected(self):
        with pytest.raises(PosetError, match="mixed ranks"):
            adjoin_extreme(spider(1, 2), "top")


class TestProvenanceAndValidation:
    def test_all_outputs_validate(self, small_corpus):
        outputs = [
            disjoint_union(small_corpus[:3]),
            wedge([box(2, 2), box(2, 3)]),
            diamond([box(2, 3), box(2, 3)]),
            cartesian_product(box(2, 2), path(2)),
        ]
        for p in outputs:
            assert validate_poset(p).ok

    def test_provenance_covers_every_element(self):
        res = diamond([box(2, 2), box(2, 2)])
        assert len(res.provenance.sources) == res.n
        merged = [i for i, rec in enumerate(res.provenance.sources) if len(rec) > 1]
        assert len(merged) == 2  # glued bottom and top

    def test_restrict_to_factors_of_diamond(self):
        res = diamond([box(2, 2)] * 3)
        sub = restrict_to_factors(res, [1, 2])
        expect = diamond([box(2, 2)] * 2)
        assert are_isomorphic(sub.poset, expect) is not None
