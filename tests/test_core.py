import random

import pytest
from hypothesis import given, settings, strategies as st

from macposet import (LevelSubset, PosetError, RankedPoset, box,
                      disjoint_union, induced_subposet, lower_shadow, path,
                      spider, upper_shadow, validate_poset)
from macposet.construct import adjoin_extreme, remove_extreme

from conftest import (are_isomorphic, dealt_out, naive_lower_shadow,
                      naive_upper_shadow, poset_fields, reference_ranked_poset,
                      reference_shadow_masks, small_ranked_posets)


def degree_le_3_poset():
    # monomials of K[x,y] truncated to degree <= 3
    from macposet import ideal_from_generators, standard_monomial_poset
    gens = [(4, 0), (3, 1), (2, 2), (1, 3), (0, 4)]
    return standard_monomial_poset(ideal_from_generators(gens, ("x", "y")))


def by_label(p, *labs):
    return [p.labels.index(l) for l in labs]


class TestValidation:
    def test_path_ok(self):
        assert validate_poset(path(2)).ok

    def test_cover_skipping_a_rank(self):
        p = RankedPoset([0, 2], [(0, 1)])
        v = validate_poset(p)
        assert not v.ok
        assert v.witness.kind == "cover-rank"
        assert "raises rank by 2" in v.witness.detail

    def test_box_construction_validates(self):
        assert validate_poset(box(3, 4)).ok

    def test_self_cover(self):
        v = validate_poset(RankedPoset([0, 1], [(0, 1), (1, 1)]))
        assert not v.ok and v.witness.kind == "self-cover"


@st.composite
def _ranks_and_covers(draw):
    """Ranks and a cover list with repeats, in random order.  The covers
    keep the rank law or, as only validate_poset checks it, need not."""
    n = draw(st.integers(0, 8))
    ranks = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    lawful = [(a, b) for a in range(n) for b in range(n) if ranks[b] == ranks[a] + 1]
    if lawful and draw(st.booleans()):
        pairs = st.sampled_from(lawful)
    elif n:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    else:
        return ranks, []
    covers = draw(st.lists(pairs, max_size=16))
    repeats = draw(st.lists(st.sampled_from(covers), max_size=8)) if covers else []
    return ranks, draw(st.permutations(covers + repeats))


@st.composite
def _dealt_with_repeats(draw):
    """A small ranked poset with its ids dealt out in a drawn order, so
    they need not be in rank order, and with some covers given twice."""
    p = draw(small_ranked_posets())
    ranks, covers = dealt_out(p, draw(st.permutations(range(p.n))))
    repeats = draw(st.lists(st.sampled_from(covers), max_size=6)) if covers else []
    return RankedPoset(ranks, draw(st.permutations(covers + repeats)))


class TestConstruction:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_ranks_and_covers())
    def test_matches_sets_and_sorts(self, ranks_covers):
        ranks, covers = ranks_covers
        p = RankedPoset(ranks, covers)
        n = len(ranks)
        up = tuple(tuple(sorted({b for a, b in covers if a == i})) for i in range(n))
        down = tuple(tuple(sorted({a for a, b in covers if b == i})) for i in range(n))
        levels = tuple(tuple(i for i in range(n) if ranks[i] == d)
                       for d in range(max(ranks, default=-1) + 1))
        assert (p.up, p.down, p.levels) == (up, down, levels)
        assert p.pos_in_level == tuple(levels[ranks[i]].index(i) for i in range(n))
        if validate_poset(p).ok:  # each up list then sits in one level
            assert p._shadow_masks() == tuple(
                tuple(sum({1 << p.pos_in_level[b] for b in up[i]}) for i in lv)
                for lv in levels)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_dealt_with_repeats())
    def test_masks_match_the_summed_formula(self, p):
        assert p._shadow_masks() == reference_shadow_masks(p)

    def test_unknown_element_in_a_cover(self):
        with pytest.raises(PosetError, match="unknown element"):
            RankedPoset([0, 1], [(0, 1), (1, 2)])

    @pytest.mark.parametrize("covers, named", [
        ([(0, 1), (-1, 1)], "(-1,1)"),
        ([(0, 1), (0, -1)], "(0,-1)"),
        ([(1, 2), (0, 5), (0, 1)], "(0,5)"),
    ], ids=["negative-a", "negative-b", "first-of-two-in-sorted-order"])
    def test_bad_cover_is_named(self, covers, named):
        with pytest.raises(PosetError) as err:
            RankedPoset([0, 1], covers)
        assert str(err.value) == f"cover {named} references unknown element"

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_reference_ranked_poset(self, data):
        # covers repeat and may reach past either end of the ids; either
        # both builds give the same fields or both raise the same message
        n = data.draw(st.integers(0, 6))
        ranks = data.draw(st.lists(st.integers(-1, 3) if data.draw(st.booleans())
                                   else st.integers(0, 3), min_size=n, max_size=n))
        pairs = st.tuples(st.integers(-2, n + 1), st.integers(-2, n + 1))
        covers = data.draw(st.lists(pairs, max_size=12))
        covers += data.draw(st.lists(st.sampled_from(covers), max_size=4)) if covers else []
        labels = data.draw(st.none() | st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=n, max_size=n))
        try:
            want = poset_fields(reference_ranked_poset(ranks, covers, labels, ("x", "y")))
        except PosetError as e:
            with pytest.raises(PosetError) as err:
                RankedPoset(ranks, covers, labels, ("x", "y"))
            assert str(err.value) == str(e)
        else:
            assert poset_fields(RankedPoset(ranks, covers, labels, ("x", "y"))) == want


class TestShadows:
    def test_upper_shadow_paper_example(self):
        p = degree_le_3_poset()
        a = LevelSubset.of(p, by_label(p, (1, 1), (0, 2)))  # {xy, y^2}
        assert set(upper_shadow(p, a).ids()) == set(by_label(p, (2, 1), (1, 2), (0, 3)))

    def test_lower_shadow_paper_example(self):
        p = degree_le_3_poset()
        a = LevelSubset.of(p, by_label(p, (1, 1), (2, 0)))  # {xy, x^2}
        assert set(lower_shadow(p, a).ids()) == set(by_label(p, (1, 0), (0, 1)))

    def test_empty_set_maps_to_empty(self):
        p = box(3, 4)
        assert len(upper_shadow(p, LevelSubset(p, 2))) == 0
        assert len(lower_shadow(p, LevelSubset(p, 2))) == 0

    def test_lower_shadow_of_level_0_is_at_level_minus_1(self):
        # empty or not, a level-0 set's lower shadow lives one level down,
        # as an upper shadow lives one level up
        p = box(2, 2)
        for a in (LevelSubset(p, 0), LevelSubset(p, 0, 0b1)):
            shade = lower_shadow(p, a)
            assert (shade.level, len(shade)) == (-1, 0)

    def test_top_element_has_empty_upper_shadow(self):
        p = box(3, 4)
        top = LevelSubset.of(p, [p.labels.index((2, 3))])
        assert len(upper_shadow(p, top)) == 0

    def test_bottom_has_empty_lower_shadow(self):
        p = box(3, 4)
        one = LevelSubset.of(p, [p.labels.index((0, 0))])
        assert len(lower_shadow(p, one)) == 0

    def test_matches_naive_oracle(self, small_corpus):
        rng = random.Random(7)
        for p in small_corpus:
            for _ in range(20):
                d = rng.randrange(p.max_rank + 1)
                lv = p.level(d)
                if not lv:
                    continue
                ids = rng.sample(lv, rng.randint(1, len(lv)))
                s = LevelSubset.of(p, ids)
                assert set(upper_shadow(p, s).ids()) == naive_upper_shadow(p, ids)
                assert set(lower_shadow(p, s).ids()) == naive_lower_shadow(p, ids)

    def test_monotonicity(self, small_corpus):
        rng = random.Random(13)
        for p in small_corpus:
            for _ in range(20):
                d = rng.randrange(p.max_rank + 1)
                lv = p.level(d)
                if len(lv) < 2:
                    continue
                bids = rng.sample(lv, rng.randint(2, len(lv)))
                aids = rng.sample(bids, rng.randint(1, len(bids)))
                a, b = LevelSubset.of(p, aids), LevelSubset.of(p, bids)
                assert set(upper_shadow(p, a).ids()) <= set(upper_shadow(p, b).ids())
                assert set(lower_shadow(p, a).ids()) <= set(lower_shadow(p, b).ids())

    def test_duality(self, small_corpus):
        for p in small_corpus:
            for a in range(p.n):
                for b in p.up[a]:
                    up = upper_shadow(p, LevelSubset.of(p, [a]))
                    dn = lower_shadow(p, LevelSubset.of(p, [b]))
                    assert b in up and a in dn

    def test_shadow_splits_over_union_components(self):
        p = disjoint_union([box(2, 2), box(2, 3)])
        comp0 = [i for i, rec in enumerate(p.provenance.sources) if rec[0][0] == 0]
        for d in range(p.max_rank + 1):
            ids = [i for i in p.level(d)]
            if not ids:
                continue
            s = LevelSubset.of(p, ids, level=d)
            sh = set(upper_shadow(p, s).ids())
            part0 = naive_upper_shadow(p, [i for i in ids if i in comp0])
            part1 = naive_upper_shadow(p, [i for i in ids if i not in comp0])
            assert sh == part0 | part1 and not part0 & part1


class TestLevelSubset:
    def test_set_algebra(self):
        p = box(3, 3)
        lv = p.level(2)
        a = LevelSubset.of(p, lv[:2])
        b = LevelSubset.of(p, lv[1:])
        assert lv[0] in a and lv[0] not in b

    def test_mixed_ranks_rejected(self):
        p = box(3, 3)
        with pytest.raises(PosetError):
            LevelSubset.of(p, [p.level(1)[0], p.level(2)[0]])


class TestIsomorphism:
    def test_boxes_transposed(self):
        iso = are_isomorphic(box(2, 3), box(3, 2))
        assert iso is not None and iso.is_valid(box(2, 3), box(3, 2))

    def test_level_sizes_differ(self):
        assert are_isomorphic(box(2, 4), box(3, 3)) is None

    def test_same_sizes_not_isomorphic(self):
        # Y vs path junction: 1,1,2 levels vs spider(1,2) has levels 1,2,1
        y = adjoin_extreme(spider(1, 1), "bottom")
        other = RankedPoset([0, 1, 2, 2], [(0, 1), (1, 2), (1, 3), (0, 1)])
        assert are_isomorphic(y, other) is not None  # same shape here
        chain_plus = RankedPoset([0, 1, 2, 2], [(0, 1), (1, 2)])
        assert are_isomorphic(y, chain_plus) is None

    def test_overline_hat_roundtrip(self):
        # spider(1,2) itself has maxima at mixed ranks, so hat is undefined
        # there; a spider with equal legs exercises the same identity
        p = spider(2, 2)
        again = remove_extreme(adjoin_extreme(p, "top"), "top")
        assert are_isomorphic(p, again) is not None

    def test_equivalence_relation_properties(self, small_corpus):
        for p in small_corpus:
            iso = are_isomorphic(p, p)
            assert iso is not None
            assert iso.inverse().is_valid(p, p)
            assert iso.compose(iso.inverse()).mapping == tuple(range(p.n))


class TestInducedSubposet:
    def test_transitive_reduction_recovers_covers(self):
        p = box(3, 3)
        sub = induced_subposet(p, range(p.n))
        assert are_isomorphic(p, sub.poset) is not None

    def test_sub_box(self):
        p = box(3, 3)
        ids = [i for i, lab in enumerate(p.labels) if lab[0] < 2 and lab[1] < 2]
        sub = induced_subposet(p, ids)
        assert are_isomorphic(sub.poset, box(2, 2)) is not None

    def test_skipped_middle_creates_no_false_covers(self):
        p = path(2)
        sub = induced_subposet(p, [0, 2])
        # 0 < 2 survives as the only relation, a rank-2 jump
        assert sub.poset.up[0] == (1,)
        assert not validate_poset(sub.poset).ok

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.data())
    def test_covers_are_transitive_reduction_of_restricted_order(self, data):
        p = data.draw(small_ranked_posets())
        ids = data.draw(st.sets(st.integers(0, p.n - 1)))
        sub = induced_subposet(p, ids)
        old, new = sub.old_of_new, sub.new_of_old
        assert sorted(old) == sorted(ids) and sorted(new) == sorted(ids)
        assert all(new[old[k]] == k for k in range(len(old)))
        assert all(old[new[o]] == o for o in ids)
        expect = set()
        for a in ids:
            for b in ids:
                if a == b or not p.leq(a, b):
                    continue
                if not any(c not in (a, b) and p.leq(a, c) and p.leq(c, b)
                           for c in ids):
                    expect.add((new[a], new[b]))
        q = sub.poset
        assert {(a, b) for a in range(q.n) for b in q.up[a]} == expect
        assert q.rank == tuple(p.rank[o] for o in old)
