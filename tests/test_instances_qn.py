"""Finite rational tuples: every operation is exact and coordinatewise."""
from fractions import Fraction as F
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from rieszspec.exact import cell_bounds
from rieszspec.instances import QnSpace
from rieszspec.riesz import RieszSpace, SpaceMismatchError, in_interval, norm_cut

import oracles
from oracles import qn_sup


def _rand(space, rng, m=9):
    return space.element([F(rng.randint(-m, m), rng.choice([1, 2, 3, 4])) for _ in range(space.n)])


class TestConstruction:
    def test_element_shape(self):
        q3 = QnSpace(3)
        a = q3.element([F(1), F(2), F(3)])
        assert a.coords == (F(1), F(2), F(3))
        with pytest.raises(ValueError):
            q3.element([F(1)])
        with pytest.raises(ValueError):
            QnSpace(0)

    def test_space_identity(self):
        assert QnSpace(3) == QnSpace(3)
        assert QnSpace(3) != QnSpace(4)
        a = QnSpace(3).element([F(0), F(0), F(0)])
        b = QnSpace(4).element([F(0)] * 4)
        with pytest.raises(SpaceMismatchError):
            _ = a + b


class TestOperations:
    def test_pointwise(self):
        q2 = QnSpace(2)
        a = q2.element([F(1), F(-2)])
        b = q2.element([F(3), F(1, 2)])
        assert q2.add(a, b).coords == (F(4), F(-3, 2))
        assert q2.scale(F(-1, 2), a).coords == (F(-1, 2), F(1))
        assert q2.join(a, b).coords == (F(3), F(1, 2))
        assert q2.meet(a, b).coords == (F(1), F(-2))
        assert q2.leq(a, b) and not q2.leq(b, a)

    def test_sup_is_exact_max(self):
        rng = random.Random(20)
        q4 = QnSpace(4)
        for _ in range(100):
            a = _rand(q4, rng)
            cut = q4.sup_cut(a)
            s = cut.approx(F(1, 1 << 20))
            exact = qn_sup(a.coords)
            assert exact < s + F(1, 1 << 20) and s - F(1, 1 << 20) < exact
            # located cut contract: value in (s - eps, s]
            assert s - F(1, 1 << 20) < exact <= s

    def test_norm(self):
        q2 = QnSpace(2)
        a = q2.element([F(-5), F(3)])
        v = norm_cut(a).approx(F(1, 256))
        assert F(5) <= v < F(5) + F(1, 256)

    def test_unit_bound_one_sided(self):
        q2 = QnSpace(2)
        a = q2.element([F(-7, 2), F(3)])
        n = q2.unit_bound(a)
        assert n == 3  # bounds a from above only; the lower side uses -a
        assert q2.leq(a, q2.scale(F(n), q2.unit()))
        assert q2.unit_bound(q2.negate(a)) == 4  # ceil(7/2)
        assert q2.unit_bound(q2.scale(F(-1), q2.unit())) == 0

    def test_in_interval_support(self):
        q3 = QnSpace(3)
        a = q3.element([F(0), F(1, 2), F(1)])
        cell = in_interval(a, F(1, 4), F(3, 4))
        # positive exactly at coordinates strictly inside (1/4, 3/4)
        assert [v > 0 for v in cell.coords] == [False, True, False]


class TestHooks:
    def test_value_ranges_spot(self):
        q3 = QnSpace(3)
        a = q3.element([F(0), F(1, 2), F(1)])
        assert sorted(q3.value_ranges(a)) == [(v, v) for v in a.coords]
        # only coordinates where the context is positive
        ctx = q3.element([F(1), F(0), F(-1, 3)])
        assert q3.value_ranges(a, ctx) == [(F(0), F(0))]
        assert q3.value_ranges(a, q3.zero()) == []

    def test_cell_bound_is_sound(self):
        # the range-derived cheap bound dominates the true sup of the cell
        rng = random.Random(21)
        q3 = QnSpace(3)
        for _ in range(60):
            a = _rand(q3, rng, 3)
            lo = rng.randint(-8, 8)  # the cell (lo/4, lo/4 + 1/2)
            s, (cheap,) = cell_bounds(q3.value_ranges(a), 4, [(0, lo, lo + 2)])
            cell = in_interval(a, F(lo, 4), F(lo + 2, 4))
            true_sup = qn_sup(cell.coords)
            assert true_sup <= max(0, F(cheap, s))

    def test_dominance_ceiling(self):
        q3 = QnSpace(3)
        x = q3.element([F(3), F(0), F(0)])
        y = q3.element([F(1, 2), F(1), F(0)])
        n = q3.dominance_ceiling(x, y)
        assert n is not None and q3.leq(x, q3.scale(F(n), y))
        # support failure: x positive where y is zero
        z = q3.element([F(0), F(0), F(1)])
        assert q3.dominance_ceiling(z, y) is None


# ----- one-pass routes and plain Fraction evaluation ------------------


Q4 = QnSpace(4)
fracs = st.builds(F, st.integers(-24, 24), st.sampled_from([1, 2, 3, 4, 6, 7]))
qn_elements = st.lists(fracs, min_size=4, max_size=4).map(Q4.element)
widths = st.builds(F, st.integers(1, 16), st.sampled_from([1, 3, 4]))


class TestOnePassRoutes:
    @settings(max_examples=150, deadline=None)
    @given(qn_elements, qn_elements)
    def test_meet_matches_derived(self, a, b):
        assert Q4.meet(a, b) == RieszSpace.meet(Q4, a, b)

    @settings(max_examples=150, deadline=None)
    @given(qn_elements, fracs, widths)
    def test_in_interval_matches_derived(self, a, p, w):
        assert Q4.in_interval(a, p, p + w) == RieszSpace.in_interval(Q4, a, p, p + w)

    def test_in_interval_needs_order(self):
        with pytest.raises(ValueError):
            Q4.in_interval(Q4.unit(), F(1, 2), F(1, 3))

    @settings(max_examples=150, deadline=None)
    @given(qn_elements)
    def test_default_value_range_is_the_unit_bound_range(self, a):
        # the contract's default, for instances without their own hook:
        # one range from the unit bounds, holding every coordinate
        ((lo, hi),) = RieszSpace.value_ranges(Q4, a)
        assert (lo, hi) == (-Q4.unit_bound(Q4.negate(a)), Q4.unit_bound(a))
        assert all(lo <= v <= hi for v in a.coords)
        assert all(any(r[0] <= v <= r[1] for r in Q4.value_ranges(a)) for v in a.coords)


class TestAgainstFractionEvaluation:
    @settings(max_examples=150, deadline=None)
    @given(qn_elements, qn_elements, fracs)
    def test_linear_and_lattice(self, a, b, c):
        pairs = list(zip(a.coords, b.coords))
        assert Q4.join(a, b).coords == tuple(max(x, y) for x, y in pairs)
        assert Q4.add(a, b).coords == tuple(x + y for x, y in pairs)
        assert Q4.scale(c, a).coords == tuple(c * x for x in a.coords)
        assert Q4.leq(a, b) == all(x <= y for x, y in pairs)

    @settings(max_examples=150, deadline=None)
    @given(qn_elements, qn_elements)
    def test_dominance_ceiling(self, a, b):
        x, y = Q4.join(a, Q4.zero()), Q4.join(b, Q4.zero())
        ratio, expect = F(0), None
        for xv, yv in zip(x.coords, y.coords):
            if yv <= 0 < xv:
                break
            if yv > 0:
                ratio = max(ratio, xv / yv)
        else:
            expect = max(1, math.ceil(ratio))
        assert Q4.dominance_ceiling(x, y) == expect


# zeros, small mixed denominators and very large ones
_coord = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-8, max_value=8, max_denominator=12),
    st.builds(F, st.integers(-(1 << 70), 1 << 70), st.integers(1, 1 << 64)),
)


def _canonical(e):
    return e.den > 0 and math.gcd(e.den, *e.nums) == 1 and all(type(x) is int for x in e.nums)


class TestIntegerRouteAgainstFractionOracle:
    """Every integer Qn operation equals the ``Fraction`` routine it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_operations(self, data):
        n = data.draw(st.integers(1, 4))
        q = QnSpace(n)
        coords = st.lists(_coord, min_size=n, max_size=n).map(tuple)
        xs, ys = data.draw(coords), data.draw(coords)
        c = data.draw(_coord)
        p, r = sorted(data.draw(st.lists(_coord, min_size=2, max_size=2, unique=True)))
        a, b = q.element(xs), q.element(ys)
        O = oracles.QnFraction
        assert a.coords == xs and b.coords == ys
        results = {
            "add": (q.add(a, b), O.add(xs, ys)),
            "scale": (q.scale(c, a), O.scale(c, xs)),
            "negate": (q.negate(a), O.scale(-1, xs)),
            "join": (q.join(a, b), O.join(xs, ys)),
            "meet": (q.meet(a, b), O.meet(xs, ys)),
            "in_interval": (q.in_interval(a, p, r), O.in_interval(xs, p, r)),
        }
        for name, (got, want) in results.items():
            assert got.coords == want, name
            assert _canonical(got), name
        assert q.leq(a, b) == O.leq(xs, ys)
        assert q.leq(b, a) == O.leq(ys, xs)
        assert q.sup_cut(a).approx(F(1, 8)) == max(xs)
        assert q.unit_bound(a) == O.unit_bound(xs)
        assert q.unit_bound(q.negate(a)) == O.unit_bound(O.scale(-1, xs))
        x, y = q.join(a, q.zero()), q.join(b, q.zero())
        assert q.dominance_ceiling(x, y) == O.dominance_ceiling(x.coords, y.coords)
        assert sorted(q.value_ranges(a, b)) == sorted({(v, v) for v, m in zip(xs, ys) if m > 0})


class TestCanonicalForm:
    """gcd(nums, den) = 1 and den > 0, so equal elements have equal fields."""

    @settings(max_examples=150, deadline=None)
    @given(xs=st.lists(_coord, min_size=3, max_size=3), c=_coord.filter(bool))
    def test_equal_coordinates_give_equal_elements(self, xs, c):
        q = QnSpace(3)
        a = q.element(xs)
        assert _canonical(a)
        same = [
            q.element(list(a.coords)),
            q.scale(1 / c, q.scale(c, a)),
            q.add(q.scale(F(1, 2), a), q.scale(F(1, 2), a)),
            q.join(a, a),
            q.meet(a, q.add(a, q.unit())),
            q.negate(q.negate(a)),
        ]
        for e in same:
            assert _canonical(e)
            assert (e.nums, e.den) == (a.nums, a.den)
            assert e == a and hash(e) == hash(a)

    def test_reduced_after_join_and_sum(self):
        q = QnSpace(2)
        # (3, 1)/6 join (1, 3)/6 is (3, 3)/6, which is (1, 1)/2
        j = q.join(q.element([F(1, 2), F(1, 6)]), q.element([F(1, 6), F(1, 2)]))
        assert (j.nums, j.den) == ((1, 1), 2)
        assert j == q.scale(F(1, 2), q.unit()) and hash(j) == hash(q.scale(F(1, 2), q.unit()))
        s = q.add(q.element([F(1, 3), F(2, 3)]), q.element([F(2, 3), F(1, 3)]))
        assert (s.nums, s.den) == ((1, 1), 1) and s == q.unit()
        z = q.scale(0, q.element([F(5, 7), F(-1, 9)]))
        assert (z.nums, z.den) == ((0, 0), 1) and z == q.zero()
        assert q.element([2, F(6, 4)]) == q.element([F(4, 2), F(3, 2)])
