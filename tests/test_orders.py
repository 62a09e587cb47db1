import pytest
from hypothesis import given, settings, strategies as st

from conftest import reference_twist_order, restrict_order
from macposet import (PosetError, RankedPoset, box, cartesian_product,
                      disjoint_union, induced_subposet, lex_order,
                      order_from_lists, path, spider, twist_order,
                      union_simplicial_order, wedge)
from macposet.construct import _cover_pairs
from macposet.classify import build_heart
from macposet.orders import final_segment, initial_segment


def label_row(p, fam, d):
    return [p.element_name(i) for i in fam.descending(d)]


class TestOrderFromLists:
    def test_path_singletons(self):
        p = path(2)
        fam = order_from_lists(p, [[0], [1], [2]])
        assert fam.descending(1) == (1,)

    def test_box_level_one(self):
        p = box(2, 2)
        x = p.labels.index((1, 0))
        y = p.labels.index((0, 1))
        fam = order_from_lists(p, [[0], [x, y], [p.n - 1]])
        assert initial_segment(fam, 1, 1).ids() == (x,)

    def test_duplicate_rejected(self):
        p = box(2, 2)
        x = p.labels.index((1, 0))
        with pytest.raises(PosetError, match="level 1"):
            order_from_lists(p, [[0], [x, x], [p.n - 1]])


class TestLexOrder:
    def test_degree_two_in_three_variables(self):
        p = box(3, 3, 3)
        fam = lex_order(p, ("x", "y", "z"))
        assert label_row(p, fam, 2) == ["x^2", "x*y", "x*z", "y^2", "y*z", "z^2"]
        seg = initial_segment(fam, 2, 4)
        assert {p.element_name(i) for i in seg.ids()} == {"x^2", "x*y", "x*z", "y^2"}

    def test_single_variable(self):
        p = box(4)
        fam = lex_order(p)
        assert all(len(fam.descending(d)) == 1 for d in range(4))

    def test_y_priority_on_3x2(self):
        p = box(3, 2)
        fam = lex_order(p, ("y", "x"))
        assert label_row(p, fam, 1) == ["y", "x"]

    def test_totality_strict(self):
        p = box(4, 4)
        fam = lex_order(p)
        for d in range(p.max_rank + 1):
            assert len(set(fam.descending(d))) == len(p.level(d))

    def test_needs_labels(self):
        with pytest.raises(PosetError, match="labels"):
            lex_order(path(2))

    def test_duplicate_labels_rejected(self):
        p = RankedPoset([0, 1, 1], [(0, 1), (0, 2)], labels=[(0,), (1,), (1,)],
                        var_names=("x",))
        with pytest.raises(PosetError, match="^duplicate labels within level 1$"):
            lex_order(p)


class TestUnionSimplicialOrder:
    @pytest.mark.parametrize("p, what", [
        (box(2, 2), "a poset no operation built"),
        (cartesian_product(box(2, 2), box(2, 2)), "cartesian")],
        ids=["box", "cart"])
    def test_needs_a_glued_poset(self, p, what):
        o = lex_order(box(2, 2))
        with pytest.raises(PosetError, match=f"undefined for {what}$"):
            union_simplicial_order(p, [o, o])

    def test_two_copies_of_box(self):
        b = box(2, 2)
        res = disjoint_union([b, b])
        o = lex_order(b, ("x", "y"))
        fam = union_simplicial_order(res, [o, o])
        # copy 2 (factor index 1) is larger throughout level 1
        prov = res.provenance.sources
        row = fam.descending(1)
        assert [prov[i][0][0] for i in row] == [1, 1, 0, 0]
        x = b.labels.index((1, 0))
        y = b.labels.index((0, 1))
        assert [prov[i][0][1] for i in row] == [x, y, x, y]

    def test_single_factor_is_own_order(self):
        b = box(2, 3)
        res = disjoint_union([b])
        o = lex_order(b)
        fam = union_simplicial_order(res, [o])
        for d in range(b.max_rank + 1):
            assert [res.provenance.sources[i][0][1] for i in fam.descending(d)] == \
                list(o.descending(d))

    def test_wedge_of_two_paths(self):
        res = wedge([path(3), path(3)])
        o = order_from_lists(path(3), [[0], [1], [2], [3]])
        fam = union_simplicial_order(res, [o, o])
        prov = res.provenance.sources
        for d in range(1, 4):
            row = fam.descending(d)
            assert len(row) == 2
            assert prov[row[0]][0][0] == 1 and prov[row[1]][0][0] == 0

    def test_clause_check(self):
        # every same-level pair is decided by exactly one clause of the
        # union simplicial definition
        b = box(2, 3)
        res = disjoint_union([b, b])
        o = lex_order(b)
        fam = union_simplicial_order(res, [o, o])
        prov = res.provenance.sources
        opos = {}
        for d in range(b.max_rank + 1):
            for k, i in enumerate(o.descending(d)):
                opos[i] = k
        for d in range(res.max_rank + 1):
            row = fam.descending(d)
            for a_pos in range(len(row)):
                for b_pos in range(a_pos + 1, len(row)):
                    hi, lo = row[a_pos], row[b_pos]
                    (fh, sh), (fl, sl) = prov[hi][0], prov[lo][0]
                    if fh != fl:
                        assert fh > fl  # clause 2: factor-2 above factor-1
                    else:
                        assert opos[sh] < opos[sl]  # clauses 3/4: factor order

    def test_arity_mismatch(self):
        b = box(2, 2)
        res = disjoint_union([b, b])
        with pytest.raises(PosetError, match="factor orders"):
            union_simplicial_order(res, [lex_order(b)])

    def test_wrong_operation(self):
        from macposet import cartesian_product
        res = cartesian_product(box(2, 2), path(1))
        with pytest.raises(PosetError, match="undefined"):
            union_simplicial_order(res, [lex_order(box(2, 2)), None])


class TestTwistOrder:
    def test_figure_rows(self):
        h = build_heart(5, 2, 2, 5)
        fam = twist_order(h, 5, 2, 2, 5)
        assert label_row(h, fam, 3) == ["x*y^2", "y^3", "x^2*y", "x^3"]
        assert label_row(h, fam, 4) == ["x*y^3", "y^4", "x^3*y", "x^4"]
        assert label_row(h, fam, 5) == ["x*y^4", "x^4*y"]

    def test_agrees_with_lex_below_a1(self):
        h = build_heart(5, 2, 2, 5)
        tw = twist_order(h, 5, 2, 2, 5)
        lx = lex_order(h, ("y", "x"))
        for d in range(2):  # ranks below a1 = 2
            assert tw.descending(d) == lx.descending(d)

    def test_degenerate_heart_rank0(self):
        h = build_heart(3, 1, 1, 3)
        fam = twist_order(h, 3, 1, 1, 3)
        assert len(fam.descending(0)) == 1

    def test_not_multiplicative(self):
        # xy < y^2 yet xy*y > y^2*y under twist on heart(5,2,2,5)
        h = build_heart(5, 2, 2, 5)
        fam = twist_order(h, 5, 2, 2, 5)
        pos = {h.labels[i]: fam.position(i) for i in range(h.n)}
        assert pos[(1, 1)] > pos[(0, 2)]      # xy smaller than y^2
        assert pos[(1, 2)] < pos[(0, 3)]      # x y^2 larger than y^3

    def test_rejects_non_heart_labels(self):
        with pytest.raises(PosetError, match="heart"):
            twist_order(box(3, 3), 3, 2, 2, 3)

    def test_rejects_relabelled_box(self):
        # box(3,3) with its top cell x^2*y^2 relabelled x^3*y, which lies
        # in neither rectangle of the 3 x 3 heart
        b = box(3, 3)
        labels = [(3, 1) if m == (2, 2) else m for m in b.labels]
        p = RankedPoset(b.rank, _cover_pairs(b), labels=labels, var_names=b.var_names)
        with pytest.raises(PosetError) as err:
            twist_order(p, 3, 3, 3, 3)
        assert str(err.value) == "labels are not the heart poset of these parameters"

    @pytest.mark.parametrize("params", [(3, 3, 3, 3), (2, 2, 2, 3), (3, 2, 2, 4),
                                        (2, 3, 3, 3), (3, 1, 2, 3)])
    def test_rejects_other_parameters(self, params):
        # heart(2,3,3,2) is twist(3,2,2,3); a box holding its cells, one
        # inside them, and hearts that differ in one cell or a strip
        h = build_heart(2, 3, 3, 2)
        assert twist_order(h, 3, 2, 2, 3).poset is h
        for twist in (twist_order, reference_twist_order):
            with pytest.raises(PosetError) as err:
                twist(h, *params)
            assert str(err.value) == "labels are not the heart poset of these parameters"

    def test_accepts_a_repeated_label_as_before(self):
        # the labels' set is still the heart's cells, so the set equality
        # accepted it, and the count of distinct labels does too
        h = build_heart(2, 3, 3, 2)
        p = RankedPoset(h.rank + (2,), _cover_pairs(h), labels=h.labels + ((1, 1),),
                        var_names=h.var_names)
        assert (twist_order(p, 3, 2, 2, 3).per_level
                == reference_twist_order(p, 3, 2, 2, 3).per_level)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_accepts_exactly_what_the_set_equality_accepted(self, data):
        # a heart, perhaps with one label moved, against parameters that
        # may be its own, may be others and may be negative
        a0, a1, b0, b1 = sides = data.draw(st.tuples(*[st.integers(1, 4)] * 4))
        h = build_heart(*sides)
        labels = list(h.labels)
        if data.draw(st.booleans()):
            labels[data.draw(st.integers(0, h.n - 1))] = data.draw(
                st.tuples(st.integers(-1, 4), st.integers(-1, 4)))
        p = RankedPoset(h.rank, _cover_pairs(h), labels=labels, var_names=h.var_names)
        prio = data.draw(st.sampled_from([("y", "x"), ("x", "y")]))
        own = (a0, a1, b0, b1) if prio == ("y", "x") else (a1, a0, b1, b0)
        params = data.draw(st.just(own) | st.just(own[2:] + own[:2])
                           | st.tuples(*[st.integers(-1, 5)] * 4))
        try:
            want = reference_twist_order(p, *params, prio).per_level
        except PosetError as e:
            with pytest.raises(PosetError) as err:
                twist_order(p, *params, priority=prio)
            assert str(err.value) == str(e)
        else:
            assert twist_order(p, *params, priority=prio).per_level == want

    @pytest.mark.parametrize("priority", [("x",), ("y", "y"), ("x", "z"),
                                          ("x", "y", "z"), ()])
    def test_rejects_priority_not_permuting_the_variables(self, priority):
        h = build_heart(5, 2, 2, 5)
        with pytest.raises(PosetError, match="does not permute variables"):
            twist_order(h, 5, 2, 2, 5, priority=priority)

    def test_priority_is_checked_against_the_heart_read_through_it(self):
        # heart(2,4,3,2) read x-first is heart(4,2,2,3)
        h = build_heart(2, 4, 3, 2)
        assert twist_order(h, 4, 2, 2, 3, priority=("x", "y")).poset is h
        with pytest.raises(PosetError, match="not the heart"):
            twist_order(h, 4, 2, 2, 3)

    def test_rejects_b1_below_a1(self):
        h = build_heart(2, 5, 5, 2)
        with pytest.raises(PosetError, match="b1 >= a1"):
            twist_order(h, 2, 5, 5, 2)


class TestRestrictOrder:
    def test_restrict_us_to_second_factor(self):
        b = box(2, 2)
        res = wedge([b, b])
        o = lex_order(b)
        fam = union_simplicial_order(res, [o, o])
        ids_q = [i for i, rec in enumerate(res.provenance.sources)
                 if any(f == 1 for f, _ in rec)]
        sub = induced_subposet(res, ids_q)
        rfam = restrict_order(fam, sub)
        # the restriction is the factor's own order under the id mapping
        back = {sub.new_of_old[i]: res.provenance.sources[i]
                for i in ids_q if len(res.provenance.sources[i]) == 1}
        for d in range(1, sub.poset.max_rank + 1):
            got = [back[i][0][1] for i in rfam.descending(d)]
            assert got == list(o.descending(d))

    def test_restrict_to_whole_poset_is_identity(self):
        p = box(3, 3)
        fam = lex_order(p)
        sub = induced_subposet(p, range(p.n))
        rfam = restrict_order(fam, sub)
        assert [tuple(sub.old_of_new[i] for i in rfam.descending(d))
                for d in range(p.max_rank + 1)] == list(fam.per_level)

    def test_restrict_lex_to_sub_box(self):
        p = box(3, 3)
        ids = [i for i, lab in enumerate(p.labels) if lab[0] < 2 and lab[1] < 2]
        sub = induced_subposet(p, ids)
        rfam = restrict_order(lex_order(p), sub)
        expect = lex_order(sub.poset)
        assert rfam.per_level == expect.per_level


class TestSegments:
    def test_prefix_law(self):
        p = box(3, 4)
        fam = lex_order(p)
        for d in range(p.max_rank + 1):
            n = len(p.level(d))
            prev = initial_segment(fam, d, 0)
            for q in range(1, n + 1):
                cur = initial_segment(fam, d, q)
                assert len(cur) == q and set(prev.ids()) <= set(cur.ids())
                prev = cur

    def test_final_segment(self):
        p = box(3, 3)
        fam = lex_order(p)
        d = 2
        n = len(p.level(d))
        assert set(final_segment(fam, d, n).ids()) == set(p.level(d))
        last = fam.descending(d)[-1]
        assert final_segment(fam, d, 1).ids() == (last,)

    def test_out_of_range(self):
        fam = lex_order(box(2, 2))
        with pytest.raises(PosetError):
            initial_segment(fam, 1, 3)
