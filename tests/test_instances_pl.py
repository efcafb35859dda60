"""Piecewise linear functions on [0, 1]: canonical form and exact lattice ops."""
from fractions import Fraction as F
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from rieszspec.exact import RatInterval, cell_bounds
from rieszspec.instances import PLSpace
from rieszspec.riesz import RieszSpace, in_interval, norm_cut
from rieszspec.sampling import rand_pl

import oracles
from oracles import pl_max, pl_min, pl_value


PLS = PLSpace()


def _f(*pairs):
    return PLS.element([(F(x), F(y)) for x, y in pairs])


def _probe_xs(rng, k=40):
    return [F(rng.randint(0, 512), 512) for _ in range(k)]


class TestCanonicalForm:
    def test_collinear_interior_points_dropped(self):
        a = _f((0, 0), (F(1, 2), F(1, 2)), (1, 1))
        assert a.points == ((F(0), F(0)), (F(1), F(1)))

    def test_kink_kept(self):
        a = _f((0, 0), (F(1, 2), 1), (1, 0))
        assert len(a.points) == 3

    def test_equal_functions_identical_representation(self):
        a = _f((0, 1), (F(1, 3), 1), (1, 1))
        b = PLS.constant(F(1))
        assert a.points == b.points
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            _f((0, 0), (1, 1), (1, 2))  # repeated abscissa
        with pytest.raises(ValueError):
            _f((F(1, 4), 0), (1, 0))  # does not start at 0
        with pytest.raises(ValueError):
            PLS.element([])


class TestEvaluation:
    def test_interpolates(self):
        a = _f((0, 0), (F(1, 2), 1), (1, 0))
        assert PLS.eval_at(a, F(1, 4)) == F(1, 2)
        assert PLS.eval_at(a, F(3, 4)) == F(1, 2)
        assert a(F(1, 2)) == F(1)

    def test_rejects_outside_domain(self):
        a = PLS.constant(F(0))
        with pytest.raises(ValueError):
            PLS.eval_at(a, F(2))


class TestLatticeOps:
    def test_join_inserts_crossing(self):
        a = _f((0, 0), (1, 1))
        b = _f((0, 1), (1, 0))
        j = PLS.join(a, b)
        assert (F(1, 2), F(1, 2)) in j.points
        assert PLS.eval_at(j, F(1, 4)) == F(3, 4)

    def test_ops_pointwise_fuzz(self):
        rng = random.Random(30)
        for _ in range(120):
            a = rand_pl(PLS, rng, rng.randint(2, 8))
            b = rand_pl(PLS, rng, rng.randint(2, 8))
            j, m, s = PLS.join(a, b), PLS.meet(a, b), PLS.add(a, b)
            xs = _probe_xs(rng) + [p[0] for p in j.points]
            for x in xs:
                av, bv = PLS.eval_at(a, x), PLS.eval_at(b, x)
                assert PLS.eval_at(j, x) == max(av, bv)
                assert PLS.eval_at(m, x) == min(av, bv)
                assert PLS.eval_at(s, x) == av + bv

    def test_leq_matches_pointwise(self):
        rng = random.Random(31)
        for _ in range(100):
            a = rand_pl(PLS, rng, rng.randint(2, 6))
            b = rand_pl(PLS, rng, rng.randint(2, 6))
            le = PLS.leq(a, b)
            xs = {p[0] for p in a.points} | {p[0] for p in b.points}
            brute = all(PLS.eval_at(a, x) <= PLS.eval_at(b, x) for x in xs)
            assert le == brute

    def test_scale_negate(self):
        a = _f((0, 0), (F(1, 2), 1), (1, 0))
        assert PLS.eval_at(PLS.scale(F(-2), a), F(1, 2)) == F(-2)
        assert PLS.eval_at(PLS.negate(a), F(1, 2)) == F(-1)


class TestSupAndNorm:
    def test_sup_cut_exact(self):
        rng = random.Random(32)
        for _ in range(80):
            a = rand_pl(PLS, rng, rng.randint(2, 8))
            s = PLS.sup_cut(a).approx(F(1, 1 << 16))
            exact = pl_max(a.points)
            assert s - F(1, 1 << 16) < exact <= s

    def test_norm_cut(self):
        a = _f((0, -3), (1, 2))
        v = norm_cut(a).approx(F(1, 128))
        assert F(3) <= v < F(3) + F(1, 128)

    def test_unit_bound(self):
        a = _f((0, -3), (F(1, 2), F(5, 2)), (1, 0))
        n = PLS.unit_bound(a)
        assert PLS.leq(a, PLS.scale(F(n), PLS.unit()))


class TestRegions:
    def test_positive_regions(self):
        # w shape: positive on (0, 1/4) and (3/4, 1)
        a = _f((0, 1), (F(1, 4), 0), (F(3, 4), 0), (1, 1))
        regions = PLS.positive_regions(a)
        assert regions == [(F(0), F(1, 4)), (F(3, 4), F(1))]

    def test_positive_regions_merge_adjacent(self):
        a = PLS.constant(F(2))
        assert PLS.positive_regions(a) == [(F(0), F(1))]
        z = PLS.constant(F(-1))
        assert PLS.positive_regions(z) == []

    def test_range_on(self):
        a = _f((0, 0), (F(1, 2), 1), (1, 0))
        assert PLS.range_on(a, F(0), F(1)) == (F(0), F(1))
        assert PLS.range_on(a, F(0), F(1, 4)) == (F(0), F(1, 2))
        assert PLS.range_on(a, F(1, 4), F(3, 4)) == (F(1, 2), F(1))

    def test_in_interval_positive_where_expected(self):
        a = _f((0, 0), (1, 1))
        cell = in_interval(a, F(1, 4), F(1, 2))
        regions = PLS.positive_regions(cell)
        assert regions == [(F(1, 4), F(1, 2))]


class TestHooks:
    def test_value_ranges_sound(self):
        rng = random.Random(33)
        for _ in range(40):
            a = rand_pl(PLS, rng, rng.randint(2, 6))
            ctx = rand_pl(PLS, rng, rng.randint(2, 6))
            whole = PLS.value_ranges(a)
            on_ctx = PLS.value_ranges(a, ctx)
            # every value lies in a range, and every value where the
            # context is positive in a range for that context
            for x in _probe_xs(rng, 25):
                v = PLS.eval_at(a, x)
                assert any(lo <= v <= hi for lo, hi in whole)
                if PLS.eval_at(ctx, x) > 0:
                    assert any(lo <= v <= hi for lo, hi in on_ctx)
        assert PLS.value_ranges(a, PLS.zero()) == []

    def test_cell_bound_sound(self):
        rng = random.Random(34)
        for _ in range(60):
            a = rand_pl(PLS, rng, rng.randint(2, 6))
            lo = rng.randint(-24, 20)  # the cell (lo/4, lo/4 + 1/2)
            s, (cheap,) = cell_bounds(PLS.value_ranges(a), 4, [(0, lo, lo + 2)])
            cell = in_interval(a, F(lo, 4), F(lo + 2, 4))
            true_sup = pl_max(cell.points)
            assert true_sup <= max(0, F(cheap, s))

    def test_dominance_ceiling_exact(self):
        x = _f((0, 0), (F(1, 2), 1), (1, 0))
        y = _f((0, 0), (F(1, 2), F(1, 3)), (1, 0))
        n = PLS.dominance_ceiling(x, y)
        assert n == 3
        assert PLS.leq(x, PLS.scale(F(3), y))
        # support failure: x positive at an endpoint where y vanishes
        z = _f((0, 1), (1, 0))
        assert PLS.dominance_ceiling(z, y) is None

    def test_dominance_ceiling_fuzz_sound(self):
        rng = random.Random(35)
        for _ in range(60):
            a = rand_pl(PLS, rng, rng.randint(2, 6))
            pos = PLS.join(a, PLS.zero())
            base = PLS.join(rand_pl(PLS, rng, rng.randint(2, 6)), PLS.zero())
            n = PLS.dominance_ceiling(pos, base)
            if n is not None:
                assert PLS.leq(pos, PLS.scale(F(n), base))


# ----- integer triples against plain Fraction evaluation --------------


fracs = st.builds(F, st.integers(-24, 24), st.sampled_from([1, 2, 3, 4, 6, 7]))
widths = st.builds(F, st.integers(1, 16), st.sampled_from([1, 3, 4]))


@st.composite
def pl_elements(draw):
    den = draw(st.sampled_from([5, 12, 24, 35]))
    inner = draw(st.sets(st.integers(1, den - 1), max_size=6))
    xs = [F(0)] + [F(k, den) for k in sorted(inner)] + [F(1)]
    ys = draw(st.lists(fracs, min_size=len(xs), max_size=len(xs)))
    return PLS.element(list(zip(xs, ys)))


def _xs(*elems):
    return sorted({x for e in elems for x, _ in e.points})


def _xs_and_mids(*elems):
    """Breakpoints and the midpoints between them: a graph that agrees with
    max(a, b) there but misses a crossing is off at that midpoint."""
    xs = _xs(*elems)
    return xs + [(u + v) / 2 for u, v in zip(xs, xs[1:])]


def _assert_stored_form(e):
    ts = e.triples
    for x, y, d in ts:
        assert d > 0
        assert math.gcd(x, y, d) == 1
    assert ts[0][0] == 0 and ts[-1][0] == ts[-1][2]
    for (x0, _, d0), (x1, _, d1) in zip(ts, ts[1:]):
        assert x0 * d1 < x1 * d0
    for (x0, y0, d0), (x1, y1, d1), (x2, y2, d2) in zip(ts, ts[1:], ts[2:]):
        det = x0 * (y1 * d2 - y2 * d1) - y0 * (x1 * d2 - x2 * d1) + d0 * (x1 * y2 - x2 * y1)
        assert det != 0


class TestTriples:
    def test_points_view(self):
        a = _f((0, F(1, 2)), (F(1, 3), F(-2, 3)), (1, 2))
        assert a.triples == ((0, 1, 2), (1, -2, 3), (1, 2, 1))
        assert a.points == ((F(0), F(1, 2)), (F(1, 3), F(-2, 3)), (F(1), F(2)))
        with pytest.raises(AttributeError):
            a.points = ()

    @settings(max_examples=150, deadline=None)
    @given(pl_elements(), pl_elements(), fracs, fracs, widths)
    def test_stored_form(self, a, b, c, p, w):
        for e in (
            a, PLS.join(a, b), PLS.meet(a, b), PLS.add(a, b), PLS.scale(c, a),
            PLS.negate(a), PLS.in_interval(a, p, p + w), PLS.constant(c),
        ):
            _assert_stored_form(e)


class TestOnePassRoutes:
    @settings(max_examples=150, deadline=None)
    @given(pl_elements(), pl_elements())
    def test_meet_matches_derived(self, a, b):
        assert PLS.meet(a, b) == RieszSpace.meet(PLS, a, b)

    @settings(max_examples=150, deadline=None)
    @given(pl_elements(), fracs, widths)
    def test_in_interval_matches_derived(self, a, p, w):
        assert PLS.in_interval(a, p, p + w) == RieszSpace.in_interval(PLS, a, p, p + w)

    def test_in_interval_needs_order(self):
        with pytest.raises(ValueError):
            PLS.in_interval(PLS.unit(), F(1), F(1))


class TestAgainstFractionEvaluation:
    @settings(max_examples=150, deadline=None)
    @given(pl_elements(), pl_elements())
    def test_join(self, a, b):
        j = PLS.join(a, b)
        for x in _xs_and_mids(a, b, j):
            assert pl_value(j.points, x) == max(pl_value(a.points, x), pl_value(b.points, x))

    @settings(max_examples=150, deadline=None)
    @given(pl_elements(), pl_elements())
    def test_add(self, a, b):
        s = PLS.add(a, b)
        for x in _xs(a, b, s):
            assert pl_value(s.points, x) == pl_value(a.points, x) + pl_value(b.points, x)

    @settings(max_examples=150, deadline=None)
    @given(pl_elements(), fracs)
    def test_scale(self, a, c):
        s = PLS.scale(c, a)
        for x in _xs(a, s):
            assert pl_value(s.points, x) == c * pl_value(a.points, x)

    @settings(max_examples=150, deadline=None)
    @given(pl_elements(), pl_elements())
    def test_leq(self, a, b):
        brute = all(pl_value(a.points, x) <= pl_value(b.points, x) for x in _xs(a, b))
        assert PLS.leq(a, b) == brute

    @settings(max_examples=150, deadline=None)
    @given(pl_elements(), pl_elements())
    def test_dominance_ceiling(self, a, b):
        x, y = PLS.join(a, PLS.zero()), PLS.join(b, PLS.zero())
        ratio, expect = F(0), None
        for t in _xs(x, y):
            xv, yv = pl_value(x.points, t), pl_value(y.points, t)
            if yv <= 0 < xv:
                break
            if yv > 0:
                ratio = max(ratio, xv / yv)
        else:
            expect = max(1, math.ceil(ratio))
        assert PLS.dominance_ceiling(x, y) == expect


_big = st.fractions(min_value=-4, max_value=4, max_denominator=1 << 40)
_abscissa = st.fractions(min_value=0, max_value=1, max_denominator=1 << 30)


@st.composite
def _pl_and_cell(draw):
    """A PL element with large denominators and constant pieces, and an
    open cell that is free, starts or ends at a breakpoint value, or has
    one as its midpoint."""
    xs = sorted(set(draw(st.lists(_abscissa, max_size=5))) - {F(0), F(1)})
    xs = [F(0)] + xs + [F(1)]
    ys = []
    for _ in xs:
        ys.append(ys[-1] if ys and draw(st.booleans()) else draw(_big))
    a = PLS.element(list(zip(xs, ys)))
    w = draw(st.fractions(min_value=0, max_value=4, max_denominator=1 << 40).filter(bool))
    y = draw(st.sampled_from(ys))
    lo = {
        "free": draw(_big),
        "lo": y,
        "hi": y - w,
        "mid": y - w / 2,
    }[draw(st.sampled_from(["free", "lo", "hi", "mid"]))]
    return a, RatInterval(lo, lo + w)


class TestIntegerCellHooks:
    """in_interval and the cheap cell bound on integers against the
    ``Fraction`` midpoint routines they replaced."""

    @settings(max_examples=150, deadline=None)
    @given(case=_pl_and_cell())
    def test_in_interval_matches_fraction_route(self, case):
        a, iv = case
        got = PLS.in_interval(a, iv.lo, iv.hi)
        assert got == oracles.pl_in_interval_fraction(a, iv.lo, iv.hi)
        assert got.triples == PLS.element(got.points).triples

    @settings(max_examples=150, deadline=None)
    @given(case=_pl_and_cell())
    def test_cell_bound_matches_fraction_route(self, case):
        # with no context the one value range is b's whole image, and the
        # range-derived bound is the old per-breakpoint bound
        a, iv = case
        den = math.lcm(iv.lo.denominator, iv.hi.denominator)
        cell = (0, int(iv.lo * den), int(iv.hi * den))
        s, (cheap,) = cell_bounds(PLS.value_ranges(a), den, [cell])
        want = oracles.pl_interval_sup_upper_fraction(a, iv)
        assert (None if cheap <= 0 else F(cheap, s)) == want

    def test_integer_endpoints(self):
        a = _f((0, -1), (F(1, 3), 2), (1, F(1, 2)))
        assert PLS.in_interval(a, 0, 1) == oracles.pl_in_interval_fraction(a, F(0), F(1))
        with pytest.raises(ValueError):
            PLS.in_interval(a, 1, 1)
