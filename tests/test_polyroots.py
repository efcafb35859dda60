"""Sturm chain real root isolation, cross checked against sympy.

Test polynomials are ``Fraction`` coefficient tuples, the oracles' form;
``P`` builds the package's ``Poly`` from one, and package results are
read back through ``coeffs``.
"""
from fractions import Fraction as F
import math
import random
from itertools import zip_longest

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from rieszspec import polyroots
from rieszspec.polyroots import (
    Poly,
    count_roots,
    isolate_real_roots,
    poly_eval,
    poly_eval_interval,
    poly_gcd,
    refine_root,
)

import oracles

P = Poly.from_coeffs


def _boxes(p):
    """The isolating boxes of p as (lo, hi) pairs of Fractions."""
    return [(F(a, d), F(a + w, d)) for a, w, d in isolate_real_roots(P(p))]


def _chain(p):
    """The integer Sturm chain of p as Fraction tuples, the oracle's form."""
    return [tuple(map(F, q)) for q in polyroots._sturm_ints(P(p))]


def _to_sympy(p):
    x = sympy.Symbol("x")
    return sum(sympy.Rational(c.numerator, c.denominator) * x**k for k, c in enumerate(p)), x


def _rand_poly(rng, deg, lo=-5, hi=5):
    while True:
        p = [F(rng.randint(lo, hi), rng.choice([1, 2])) for _ in range(deg + 1)]
        if p[-1] != 0:
            return oracles.poly_normalize(p)


class TestPolyBasics:
    def test_normalize_strips_zeros(self):
        assert P([F(1), F(2), F(0), F(0)]).coeffs == (F(1), F(2))
        assert P([F(0)]) == Poly((), 1)  # the zero polynomial is empty
        assert P([F(0)]).coeffs == ()

    def test_eval(self):
        p = P((F(-2), F(0), F(1)))  # x^2 - 2
        assert poly_eval(p, F(2)) == F(2)
        assert poly_eval(p, F(0)) == F(-2)

    def test_gcd_divides_both(self):
        # (x-1)(x+2) and (x-1)(x-3) share exactly (x-1)
        a = P((F(-2), F(1), F(1)))
        b = P((F(3), F(-4), F(1)))
        g = poly_gcd(a, b)
        assert oracles.poly_degree(g.coeffs) == 1
        assert poly_eval(g, F(1)) == 0
        # coprime pair gives the unit
        assert poly_gcd(P((F(-2), F(-1), F(1))), b).coeffs == (F(1),)

    def test_interval_horner_encloses(self):
        rng = random.Random(11)
        for _ in range(150):
            p = _rand_poly(rng, rng.randint(0, 5))
            lo = F(rng.randint(-8, 8), 4)
            hi = lo + F(rng.randint(0, 8), 4)
            alo, ahi = poly_eval_interval(P(p), lo, hi)
            for j in range(5):
                x = lo + (hi - lo) * F(j, 4)
                assert alo <= oracles.poly_eval(p, x) <= ahi


_fractions = st.fractions(max_denominator=1 << 12).filter(lambda x: abs(x) < 64)


class TestIntegerHorner:
    """The integer interval Horner against plain Fraction Horner."""

    @settings(max_examples=150, deadline=None)
    @given(
        p=st.lists(_fractions, max_size=7),
        lo=_fractions,
        width=st.one_of(st.just(F(0)), _fractions.map(abs)),
    )
    def test_same_endpoints_as_fraction_horner(self, p, lo, width):
        hi = lo + width
        got = poly_eval_interval(P(p), lo, hi)
        want = oracles.poly_eval_interval_fraction(p, lo, hi)
        assert got == want
        assert all(isinstance(v, F) for v in got)


class TestCauchyBound:
    def test_all_roots_inside(self):
        rng = random.Random(12)
        for _ in range(40):
            p = _rand_poly(rng, rng.randint(1, 5))
            if oracles.poly_degree(p) == 0:
                continue
            bound = oracles.cauchy_bound(p)
            expr, x = _to_sympy(p)
            for r in sympy.real_roots(sympy.Poly(expr, x)):
                assert bool(sympy.simplify(abs(r) - bound) <= 0)


class TestSturm:
    def test_count_known(self):
        p = P((F(-2), F(0), F(1)))  # roots +-sqrt(2)
        assert count_roots(p, F(-2), F(2)) == 2
        assert count_roots(p, F(0), F(2)) == 1
        assert count_roots(p, F(3, 2), F(2)) == 0

    def test_isolation_against_sympy(self):
        rng = random.Random(13)
        checked = 0
        while checked < 60:
            p = _rand_poly(rng, rng.randint(1, 5))
            expr, x = _to_sympy(p)
            sp = sympy.Poly(expr, x)
            if sympy.degree(sp) < 1:
                continue
            # squarefree inputs only, same contract as the function
            if sympy.degree(sympy.gcd(sp, sp.diff(x))) > 0:
                continue
            boxes = _boxes(p)
            roots = sympy.real_roots(sp)
            assert len(boxes) == len(roots)
            for (lo, hi), r in zip(boxes, roots):
                if lo == hi:
                    assert sympy.nsimplify(r) == sympy.Rational(lo.numerator, lo.denominator)
                else:
                    assert bool(sympy.simplify(r - sympy.Rational(lo.numerator, lo.denominator)) > 0)
                    assert bool(sympy.simplify(sympy.Rational(hi.numerator, hi.denominator) - r) > 0)
            checked += 1

    def test_boxes_disjoint_and_sorted(self):
        p = (F(0), F(-1), F(0), F(1))  # x^3 - x: roots -1, 0, 1
        boxes = _boxes(p)
        assert len(boxes) == 3
        for (a1, b1), (a2, b2) in zip(boxes, boxes[1:]):
            assert b1 <= a2

    def test_exact_rational_roots_collapse(self):
        # (x - 1/2)(x + 3) has both roots rational
        p = (F(-3, 2), F(5, 2), F(1))
        boxes = _boxes(p)
        vals = set()
        for lo, hi in boxes:
            lo, hi = refine_root(P(p), lo, hi, F(1, 1 << 30))
            if lo == hi:
                vals.add(lo)
        assert vals == {F(1, 2), F(-3)} or len(boxes) == 2


class TestRefineRoot:
    def test_shrinks_and_keeps_root(self):
        p = (F(-2), F(0), F(1))
        boxes = _boxes(p)
        for lo, hi in boxes:
            rlo, rhi = refine_root(P(p), lo, hi, F(1, 1 << 24))
            assert rhi - rlo <= F(1, 1 << 24)
            if rlo != rhi:
                assert oracles.poly_eval(p, rlo) * oracles.poly_eval(p, rhi) < 0

    def test_sqrt2_value(self):
        p = (F(-2), F(0), F(1))
        (_, _), (lo, hi) = _boxes(p)
        lo, hi = refine_root(P(p), lo, hi, F(1, 1 << 40))
        # 2^(1/2) to 40 bits
        assert lo < F(1414213562373095049, 10**18) < hi


def _poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


@st.composite
def _squarefree(draw):
    """lead * prod (x - r) * prod ((x - s)**2 - k): distinct rational roots,
    dyadic ones included so bisection can land on them, and pairs s +- sqrt(k)."""
    roots = draw(st.lists(
        st.one_of(
            st.fractions(min_value=-6, max_value=6, max_denominator=12),
            st.integers(-48, 48).map(lambda v: F(v, 8)),
        ),
        unique=True, max_size=4,
    ))
    p = (draw(st.fractions(min_value=1, max_value=9, max_denominator=7)),)
    for r in roots:
        p = _poly_mul(p, (-r, F(1)))
    shifts = set()
    for k in draw(st.lists(st.sampled_from([2, 3, 5, 6, 7, 10]), unique=True, max_size=2)):
        s = draw(st.integers(-3, 3).map(lambda v: F(v, 2)).filter(lambda v: v not in shifts))
        shifts.add(s)
        p = _poly_mul(p, (s * s - k, -2 * s, F(1)))
    return p


class TestIntegerSignKernel:
    """The homogeneous Horner sign and the bisections built on it against
    the Fraction routines they replaced."""

    @settings(max_examples=200, deadline=None)
    @given(p=st.lists(_fractions, max_size=8), x=_fractions, k=st.integers(1, 5))
    def test_sign_matches_fraction_eval(self, p, x, k):
        v = oracles.poly_eval(p, x)
        ints = P(p).nums
        # unreduced numerator and denominator give the same sign
        got = polyroots._sign_at(ints, k * x.numerator, k * x.denominator)
        assert got == (v > 0) - (v < 0)

    @settings(max_examples=100, deadline=None)
    @given(p=_squarefree(), a=_fractions, w=_fractions.map(abs))
    def test_sturm_count_matches_fraction(self, p, a, w):
        chain = oracles.sturm_chain_fraction(p)
        b = a + w + F(1, 3)
        if oracles.poly_eval(p, a) == 0 or oracles.poly_eval(p, b) == 0:
            return
        assert count_roots(P(p), a, b) == oracles.count_roots_fraction(chain, a, b)

    @settings(max_examples=100, deadline=None)
    @given(p=_squarefree(), bits=st.integers(0, 60))
    def test_boxes_match_fraction_routines(self, p, bits):
        boxes = _boxes(p)
        assert boxes == oracles.isolate_real_roots_fraction(p)
        width = F(1, 1 << bits)
        for lo, hi in boxes:
            assert refine_root(P(p), lo, hi, width) == oracles.refine_root_fraction(p, lo, hi, width)


@st.composite
def _any_poly(draw):
    """Free coefficients with large denominators, sparse ones (a zero
    leading term in a division step changes how often it scales), or a
    square-free part times a repeated factor, scaled by a lead of either
    sign."""
    kind = draw(st.sampled_from(["free", "sparse", "product"]))
    if kind == "free":
        big = st.fractions(max_denominator=1 << 40).filter(lambda x: abs(x) < 1 << 20)
        return tuple(draw(st.lists(big, max_size=8)))
    if kind == "sparse":
        coeff = st.one_of(st.just(F(0)), st.integers(-9, 9).map(F))
        return tuple(draw(st.lists(coeff, max_size=9)))
    p = draw(_squarefree())
    rep = (draw(_fractions), F(1))
    for _ in range(draw(st.integers(0, 2))):
        p = _poly_mul(p, rep)
    return _poly_mul(p, (draw(_fractions.filter(bool)),))


class TestIntegerSturmChain:
    @settings(max_examples=200, deadline=None)
    @given(p=_any_poly())
    def test_chain_matches_fraction_remainders(self, p):
        assert _chain(p) == oracles.sturm_chain_fraction(p)

    @settings(max_examples=150, deadline=None)
    @given(p=_any_poly())
    def test_isolation_matches_fraction_bisection(self, p):
        # free, sparse and repeated-root inputs; boxes come reduced
        assert _boxes(p) == oracles.isolate_real_roots_fraction(p)
        for a, w, d in isolate_real_roots(P(p)):
            assert d > 0 and w >= 0 and math.gcd(a, w, d) == 1

    def test_exact_root_boxes_that_must_shrink(self):
        # a root at the first midpoint with another at a quarter offset, so
        # the box around the exact root halves before bisection goes on
        for p in [
            (F(0), F(-1), F(1)),  # x(x - 1): bound 2, roots 0 and 1
            _poly_mul((F(0), F(-1), F(1)), (F(1, 2), F(1))),
            _poly_mul((F(0), F(-1), F(1)), (F(-2), F(0), F(1))),
        ]:
            boxes = _boxes(p)
            assert boxes == oracles.isolate_real_roots_fraction(p)
            assert (F(0), F(0)) in boxes

    def test_negative_leads_keep_signs(self):
        # the first and last chains divide by members with a negative
        # leading coefficient; the pseudo-remainder must not flip signs
        for p in [(F(2), F(0), F(-1)), (F(2), F(-3), F(0), F(1, 5)), (F(1), F(-1), F(-7, 3), F(-1, 2))]:
            assert _chain(p) == oracles.sturm_chain_fraction(p)


class TestInterpolate:
    @settings(max_examples=100, deadline=None)
    @given(
        xs=st.lists(_fractions, max_size=6, unique=True),
        ys=st.lists(_fractions, min_size=6, max_size=6),
    )
    def test_passes_through_the_points(self, xs, ys):
        p = polyroots.poly_interpolate(xs, ys[: len(xs)])
        assert len(p.coeffs) <= len(xs)
        assert all(oracles.poly_eval(p.coeffs, x) == y for x, y in zip(xs, ys))
        assert p.coeffs == oracles.poly_normalize(p.coeffs)

    def test_matches_sympy(self):
        xs, ys = [F(-1), F(1, 2), F(3)], [F(2), F(-1, 3), F(5)]
        x = sympy.Symbol("x")
        want = sympy.Poly(sympy.interpolate(list(zip(xs, ys)), x), x).all_coeffs()[::-1]
        assert polyroots.poly_interpolate(xs, ys).coeffs == tuple(F(str(c)) for c in want)


@st.composite
def _gcd_pair(draw):
    """Two polynomials with a drawn common factor, so gcds of every degree
    occur; either may be zero."""
    common = draw(_any_poly())
    return _poly_mul(common, draw(_any_poly())), _poly_mul(common, draw(_any_poly()))


class TestPolyForm:
    """Poly operators and kernels against Fraction coefficient tuples."""

    @settings(max_examples=150, deadline=None)
    @given(
        pair=_gcd_pair(),
        c=_fractions,
        x=_fractions,
        width=_fractions.map(abs),
        k=st.integers(-6, 6).filter(bool),
    )
    def test_operators_against_fraction_coefficients(self, pair, c, x, width, k):
        a, b = pair
        pa, pb = P(a), P(b)

        def same(p, coeffs):
            # the canonical form, the reference's coefficients, and the
            # same value and hash as the polynomial built from them
            assert p.den > 0 and math.gcd(p.den, *p.nums) == 1
            assert not p.nums or p.nums[-1]
            assert p.coeffs == oracles.poly_normalize(coeffs)
            ref = P(coeffs)
            assert p == ref and hash(p) == hash(ref)

        same(pa, a)
        same(pb, b)
        same(pa + pb, [u + v for u, v in zip_longest(a, b, fillvalue=F(0))])
        same(pa - pb, [u - v for u, v in zip_longest(a, b, fillvalue=F(0))])
        same(pa.scale(c), [c * u for u in a])
        # the constructor takes any integer form, a negative den included
        same(Poly([k * v for v in pa.nums] + [0] * 2, k * pa.den), a)
        same(pa - pa, ())
        assert poly_eval(pa, x) == oracles.poly_eval(a, x)
        assert poly_eval_interval(pa, x, x + width) == oracles.poly_eval_interval_fraction(
            a, x, x + width
        )
        # the primitive gcd with a positive lead is the monic Euclid gcd
        # times a positive integer: the same degree and the same roots
        g = poly_gcd(pa, pb)
        want = oracles.poly_gcd_fraction(a, b)
        assert g.den == 1 and (not g.nums or (g.nums[-1] > 0 and math.gcd(*g.nums) == 1))
        assert tuple(v / g.coeffs[-1] for v in g.coeffs) == want
