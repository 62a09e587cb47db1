import itertools
import random

import pytest

from conftest import are_isomorphic
from macposet import (MonomialIdeal, PosetError, box, divides, fiber_product,
                      ideal_contains, ideal_from_generators,
                      ideal_intersection, ideal_sum, inclusion_map,
                      pure_power_ideal, quotient_is_finite,
                      standard_monomial_poset, wedge)

XY = ("x", "y")


def I(*gens):
    return ideal_from_generators(list(gens), XY)


class TestDivides:
    def test_examples(self):
        assert divides((1, 1), (2, 1))
        assert not divides((2, 0), (1, 3))
        assert divides((2, 3), (2, 3))

    def test_arity_mismatch(self):
        with pytest.raises(PosetError):
            divides((1,), (1, 2))


class TestIdealConstruction:
    def test_minimalization(self):
        # {x^4, x^4 y^3, x^3 y, y^3} -> {x^4, x^3 y, y^3}
        i = I((4, 0), (4, 3), (3, 1), (0, 3))
        assert i.generators == ((4, 0), (3, 1), (0, 3))

    def test_singleton(self):
        assert I((1, 0)).generators == ((1, 0),)

    def test_zero_ideal(self):
        z = ideal_from_generators([], XY)
        assert not z.member((5, 5))

    def test_canonical_idempotent_and_order_insensitive(self):
        gens = [(4, 0), (0, 3), (3, 1), (4, 3)]
        for perm in itertools.permutations(gens):
            assert ideal_from_generators(perm, XY) == I(*gens)


class TestSumIntersection:
    def test_sum_example(self):
        assert ideal_sum(I((4, 0), (0, 1)), I((3, 0), (0, 3))) == I((3, 0), (0, 1))

    def test_sum_with_zero(self):
        z = ideal_from_generators([], XY)
        i = I((2, 1))
        assert ideal_sum(i, z) == i

    def test_sum_of_pure_powers_is_min(self):
        for a0, a1, b0, b1 in itertools.product(range(1, 4), repeat=4):
            s = ideal_sum(pure_power_ideal((a0, a1), XY),
                          pure_power_ideal((b0, b1), XY))
            assert s == pure_power_ideal((min(a0, b0), min(a1, b1)), XY)

    def test_intersection_heart_example(self):
        inter = ideal_intersection(I((4, 0), (0, 1)), I((3, 0), (0, 3)))
        assert inter == I((4, 0), (0, 3), (3, 1))
        assert str(inter) == "(x^4, x^3*y, y^3)"

    def test_intersection_idempotent(self):
        i = I((3, 0), (1, 2))
        assert ideal_intersection(i, i) == i

    def test_principal_lcm(self):
        assert ideal_intersection(I((1, 0)), I((0, 1))) == I((1, 1))

    def test_membership_oracle_on_grid(self):
        i = I((4, 0), (3, 1), (0, 3))
        j = I((2, 2), (0, 4))
        inter = ideal_intersection(i, j)
        s = ideal_sum(i, j)
        for m in itertools.product(range(6), repeat=2):
            assert inter.member(m) == (i.member(m) and j.member(m))
            assert s.member(m) == (i.member(m) or j.member(m))


class TestContainsFinite:
    def test_contains_examples(self):
        assert ideal_contains(I((4, 0), (0, 3), (3, 1)), I((3, 0), (0, 1)))
        assert not ideal_contains(I((1, 0)), I((2, 0)))
        i = I((2, 1))
        assert ideal_contains(i, i)

    @pytest.mark.parametrize("op", [ideal_sum, ideal_intersection, ideal_contains])
    def test_different_variable_names_rejected(self, op):
        # generators of (y, x) must not be read as exponents of (x, y)
        yx = ideal_from_generators([(2, 0), (0, 3)], ("y", "x"))
        with pytest.raises(PosetError, match="variable names differ"):
            op(I((2, 0), (0, 3)), yx)

    def test_quotient_is_finite(self):
        assert quotient_is_finite(I((4, 0), (0, 3), (3, 1)))
        assert not quotient_is_finite(I((1, 1)))
        assert quotient_is_finite(ideal_from_generators([(2,)], ("x",)))


class TestStandardMonomialPoset:
    def test_box_from_pure_powers(self):
        p = standard_monomial_poset(pure_power_ideal((3, 4), XY))
        assert are_isomorphic(p, box(3, 4)) is not None

    def test_heart_example_poset(self):
        p = standard_monomial_poset(I((4, 0), (0, 3), (3, 1)))
        assert p.n == 10
        assert p.level_sizes() == (1, 2, 3, 3, 1)

    def test_single_variable(self):
        p = standard_monomial_poset(ideal_from_generators([(1,)], ("x",)))
        assert p.n == 1 and p.labels == ((0,),)

    def test_infinite_quotient_rejected(self):
        with pytest.raises(PosetError, match="not finite"):
            standard_monomial_poset(I((1, 1)))

    def test_unit_ideal_is_empty(self):
        assert standard_monomial_poset(I((0, 0))).n == 0
        assert standard_monomial_poset(ideal_from_generators([()], ())).n == 0

    def test_matches_filtered_box(self):
        # the standard monomials, by degree then lex-descending, are the
        # cells of the pure powers' box that lie outside the ideal
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(1, 4)
            caps = [rng.randint(1, 6) for _ in range(n)]
            gens = [tuple(c if k == v else 0 for k in range(n))
                    for v, c in enumerate(caps)]
            gens += [tuple(rng.randint(0, 4) for _ in range(n))
                     for _ in range(rng.randint(0, 4))]
            i = ideal_from_generators(gens)
            want = sorted((m for m in itertools.product(*(range(c) for c in caps))
                           if not i.member(m)),
                          key=lambda m: (sum(m), [-e for e in m]))
            p = standard_monomial_poset(i)
            assert list(p.labels) == want, i
            assert p.rank == tuple(sum(m) for m in want)

    def test_work_follows_the_monomials_kept(self, monkeypatch):
        # 5999 standard monomials in a 3000 x 3000 box: listing them must
        # not test the box's nine million cells
        calls = []
        member = MonomialIdeal.member
        monkeypatch.setattr(MonomialIdeal, "member",
                            lambda self, m: calls.append(m) or member(self, m))
        p = standard_monomial_poset(I((3000, 0), (0, 3000), (1, 1)))
        assert p.n == 5999
        assert len(calls) <= 3 * p.n


class TestInclusionMap:
    def test_path_into_heart(self):
        i = I((4, 0), (0, 3), (3, 1))
        j = I((3, 0), (0, 1))
        pi = standard_monomial_poset(i)
        pj = standard_monomial_poset(j)
        inc = inclusion_map(i, j, poset_i=pi, poset_j=pj)
        assert pj.n == 3  # 1, x, x^2
        for a, b in inc.items():
            assert pj.labels[a] == pi.labels[b]
            assert pj.rank[a] == pi.rank[b]

    def test_identity_injection(self):
        i = I((2, 0), (0, 2))
        inc = inclusion_map(i, i)
        assert inc == {k: k for k in inc}

    def test_box_into_box(self):
        small = pure_power_ideal((2, 2), XY)
        big = pure_power_ideal((3, 4), XY)
        inc = inclusion_map(big, small)
        assert len(inc) == 4

    def test_containment_required(self):
        with pytest.raises(PosetError, match="not contained"):
            inclusion_map(I((3, 0), (0, 1)), I((4, 0), (0, 3)))

    def test_order_embedding_property(self):
        i = I((4, 0), (0, 4))
        j = I((2, 0), (1, 1), (0, 3))
        assert ideal_contains(i, j)
        pi, pj = standard_monomial_poset(i), standard_monomial_poset(j)
        inc = inclusion_map(i, j, poset_i=pi, poset_j=pj)
        for a in range(pj.n):
            for b in range(pj.n):
                assert pj.leq(a, b) == pi.leq(inc[a], inc[b])


class TestPropFP:
    def test_fiber_of_quotients_is_quotient_of_intersection(self):
        # all 2-variable pure-power pairs with exponents <= 5
        for a0, a1, b0, b1 in itertools.product(range(1, 6), repeat=4):
            ia = pure_power_ideal((a0, a1), XY)
            ib = pure_power_ideal((b0, b1), XY)
            base = ideal_sum(ia, ib)
            pa, pb, pc = (standard_monomial_poset(k) for k in (ia, ib, base))
            res = fiber_product(pa, pb, pc,
                                inclusion_map(ia, base, poset_i=pa, poset_j=pc),
                                inclusion_map(ib, base, poset_i=pb, poset_j=pc))
            target = standard_monomial_poset(ideal_intersection(ia, ib))
            assert are_isomorphic(res, target) is not None, (a0, a1, b0, b1)

    def test_wedge_as_joined_variable_quotient(self):
        # K[x]/(x^2) x_K K[y]/(y^3) presented over the joined variables
        joined = ideal_from_generators([(2, 0), (0, 3), (1, 1)], XY)
        lhs = standard_monomial_poset(joined)
        rhs = wedge([standard_monomial_poset(ideal_from_generators([(2,)], ("x",))),
                     standard_monomial_poset(ideal_from_generators([(3,)], ("y",)))])
        assert are_isomorphic(lhs, rhs) is not None

    def test_wedge_identity_two_variables_each(self):
        # K[x1,x2]/(x1^2,x2^2) x_K K[y1,y2]/(y1^2,y2^2)
        names = ("x1", "x2", "y1", "y2")
        gens = [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)]
        gens += [(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)]
        joined = ideal_from_generators(gens, names)
        lhs = standard_monomial_poset(joined)
        rhs = wedge([box(2, 2), box(2, 2)])
        assert are_isomorphic(lhs, rhs) is not None
