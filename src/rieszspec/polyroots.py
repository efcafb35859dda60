"""Exact real root isolation and sign determination for rational polynomials.

A ``Poly`` is integer coefficients ``nums``, ascending, over one
denominator ``den`` in canonical form: den > 0, gcd(den, *nums) = 1 and
no trailing zero, so the zero polynomial is ((), 1) and equal
polynomials have equal fields and hashes.  The constructor puts any
integer form into it, ``from_coeffs`` takes ``Fraction`` values, and
``coeffs`` gives them back; other modules read ``nums`` and ``den``.

Root counting uses Sturm chains, so every answer is an exact rational
computation: isolation produces disjoint integer boxes holding exactly
one root each (a box of width 0 marks an exact rational root), and
the sign of one polynomial at a root of another is decided by an interval
enclosure over the root's isolating box first; only when that enclosure
straddles zero do a gcd test and interval refinement follow, which
terminate in every case.

Every evaluation is one integer kernel, homogeneous interval Horner on
``nums`` over a box [a/d, b/d], a point when a = b, with no division:
values, enclosures and the signs that isolation and refinement test.
Those bisect integer endpoints over one doubling denominator, so they
build no ``Fraction`` and give the boxes and exact-root hits of
``Fraction`` evaluation.  Remainders are integer pseudo-remainders made
primitive: negated, they are the primitive forms of the Sturm chain's
members, and the gcd is the last nonzero member of the primitive
remainder sequence (Collins 1967).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import gcd as int_gcd, lcm as int_lcm
from typing import Iterable, Sequence

Box = tuple[int, int, int]

__all__ = [
    "Poly",
    "Box",
    "poly_eval",
    "poly_eval_interval",
    "poly_gcd",
    "poly_interpolate",
    "count_roots",
    "isolate_real_roots",
    "refine_root",
]


@dataclass(frozen=True)
class Poly:
    """Immutable polynomial with exact rational coefficients.

    Coefficient i is nums[i] / den, in the canonical form of the module
    docstring.
    """

    nums: tuple[int, ...]
    den: int = 1

    def __post_init__(self) -> None:
        nums, den = list(self.nums), self.den
        while nums and not nums[-1]:
            nums.pop()
        if den != 1:
            if den == 0:
                raise ZeroDivisionError("polynomial denominator is zero")
            g = int_gcd(den, *nums)
            if den < 0:
                g = -g
            if g != 1:
                nums, den = [x // g for x in nums], den // g
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[Fraction]) -> "Poly":
        """The polynomial with these ascending coefficients, of any values
        ``Fraction`` accepts."""
        fracs = [Fraction(c) for c in coeffs]
        den = int_lcm(*(c.denominator for c in fracs))
        return cls([c.numerator * (den // c.denominator) for c in fracs], den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(x, den) for x in self.nums)

    def __add__(self, other: "Poly") -> "Poly":
        da, db = self.den, other.den
        d = int_lcm(da, db)
        fa, fb = d // da, d // db
        pairs = zip_longest(self.nums, other.nums, fillvalue=0)
        return Poly([x * fa + y * fb for x, y in pairs], d)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other.scale(-1)

    def scale(self, c: Fraction) -> "Poly":
        c = Fraction(c)
        return Poly([c.numerator * x for x in self.nums], c.denominator * self.den)


def _horner(nums: Sequence[int], a: int, b: int, d: int) -> tuple[int, int]:
    """Integers lo <= hi enclosing d**n * sum_i nums[i] * x**i for x in
    [a/d, b/d], d > 0, a <= b, n = len(nums) - 1; the value when a = b.

    After nums[n] .. nums[k] the accumulator encloses sum_{i >= k}
    nums[i] * x**(i-k) * d**(n-i).  Scaling by the positive d**(n-k) keeps
    the order of the candidate products, so the ends are those of interval
    Horner in ``Fraction`` arithmetic times d**n.
    """
    if not nums:
        return 0, 0
    lo = hi = nums[-1]
    pw = 1
    for c in reversed(nums[:-1]):
        pw *= d
        c *= pw
        if a == b:
            lo = hi = lo * a + c
        else:
            cands = (lo * a, lo * b, hi * a, hi * b)
            lo, hi = min(cands) + c, max(cands) + c
    return lo, hi


def poly_eval(p: Poly, x: Fraction) -> Fraction:
    return poly_eval_interval(p, x, x)[0]


def poly_eval_interval(p: Poly, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Interval Horner evaluation: encloses {p(x) : lo <= x <= hi}.

    The endpoints over their common denominator D go through the integer
    kernel, whose ends are over den * D**n: they equal those of Horner's
    rule in ``Fraction`` arithmetic, and p(lo) twice when lo = hi.
    """
    d = int_lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (d // lo.denominator)
    b = hi.numerator * (d // hi.denominator)
    vlo, vhi = _horner(p.nums, a, b, d)
    den = p.den * d ** max(len(p.nums) - 1, 0)
    flo = Fraction(vlo, den)
    return flo, (flo if vlo == vhi else Fraction(vhi, den))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """The greatest common divisor of a and b: primitive, with a positive
    leading coefficient; zero only when both are.

    The primitive remainder sequence: each pseudo-remainder is a positive
    multiple of the rational remainder and is made primitive, so the last
    nonzero member is a rational multiple of the gcd.
    """
    x, y = _content_free(list(a.nums)), _content_free(list(b.nums))
    while y:
        x, y = y, _content_free(_prem(x, y))
    if x and x[-1] < 0:
        x = [-c for c in x]
    return Poly(x)


def poly_interpolate(xs: Sequence[Fraction], ys: Sequence[Fraction]) -> Poly:
    """The polynomial of degree below len(xs) through the points (x_i, y_i).

    Newton's divided differences c_i over the distinct nodes x_i, then
    the Newton form c_0 + (x - x_0)(c_1 + (x - x_1)(c_2 + ...)) expanded
    to ascending coefficients from the inside out.
    """
    n = len(xs)
    c = [Fraction(y) for y in ys]
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            c[i] = (c[i] - c[i - 1]) / (xs[i] - xs[i - k])
    p = Poly(())
    for i in range(n - 1, -1, -1):
        # p <- p * (x - x_i) + c_i
        p = Poly((0,) + p.nums, p.den) - p.scale(xs[i]) + Poly.from_coeffs([c[i]])
    return p


def _content_free(v: list[int]) -> list[int]:
    """v divided by the gcd of its entries, a positive number."""
    g = int_gcd(*v)
    return [x // g for x in v] if g > 1 else v


def _prem(a: list[int], b: list[int]) -> list[int]:
    """A positive multiple of the remainder of a by b, in integers.

    Pseudo-division: each step scales the running remainder by |lc(b)|
    and cancels its leading term with a multiple of b, so the result is
    |lc(b)|**k times the rational remainder for some k >= 0.
    """
    r = list(a)
    n = len(b) - 1
    lead = b[-1]
    scale, sign = abs(lead), (1 if lead > 0 else -1)
    while len(r) > n:
        c = r.pop()
        if c:
            c *= sign
            shift = len(r) - n
            r = [scale * x for x in r]
            for i, y in enumerate(b[:-1]):
                r[shift + i] -= c * y
    while r and not r[-1]:
        r.pop()
    return r


def _sturm_ints(p: Poly) -> list[list[int]]:
    """The Sturm chain of p as primitive integer coefficient lists.

    Each member is the previous remainder negated and scaled by a
    positive rational, so every sign, and with it every variation count,
    is that of the rational chain.
    """
    chain = [_content_free(list(p.nums))]
    if len(chain[0]) > 1:
        chain.append(_content_free([i * c for i, c in enumerate(chain[0])][1:]))
    while len(chain[-1]) > 1:
        r = _prem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(_content_free([-x for x in r]))
    return chain


def _sign_at(ints: Sequence[int], a: int, b: int) -> int:
    """Sign of p(a/b) for b > 0, from integer coefficients of p (ascending)
    times any positive number: the sign of the Horner kernel's value."""
    v = _horner(ints, a, a, b)[0]
    return (v > 0) - (v < 0)


def _variations(chain: list[list[int]], a: int, b: int) -> int:
    """Sign variations of the chain at a/b, b > 0."""
    signs = [s for s in (_sign_at(q, a, b) for q in chain) if s]
    return sum(1 for s0, s1 in zip(signs, signs[1:]) if s0 != s1)


def count_roots(p: Poly, a: Fraction, b: Fraction) -> int:
    """Distinct real roots of p in (a, b); both endpoints must be non roots."""
    chain = _sturm_ints(p)
    va = _variations(chain, a.numerator, a.denominator)
    return va - _variations(chain, b.numerator, b.denominator)


def isolate_real_roots(p: Poly) -> list[Box]:
    """Disjoint isolating boxes for the real roots of squarefree p.

    A box (a, w, d), with d > 0 and gcd(a, w, d) = 1, is the interval
    (a/d, (a + w)/d).  w = 0 marks an exact rational root a/d; w > 0 holds
    exactly one root strictly inside and has non root endpoints.  Returned
    in ascending order.

    Bisection runs on integer endpoints over one denominator that doubles
    at each halving, as in refine_root, and starts from the Cauchy bound
    (|c_n| + max |c_i|)/|c_n| of p's primitive integer coefficients c_i,
    so the boxes are those of the same bisection in ``Fraction``
    arithmetic.
    """
    if len(p.nums) <= 1:
        return []
    chain = _sturm_ints(p)
    ip = chain[0]
    lead = abs(ip[-1])
    bound = lead + max(abs(c) for c in ip[:-1])
    out: list[Box] = []

    def count(a: int, b: int, d: int) -> int:
        return _variations(chain, a, d) - _variations(chain, b, d)

    def emit(a: int, b: int, d: int) -> None:
        g = int_gcd(a, b - a, d)
        out.append((a // g, (b - a) // g, d // g))

    def go(a: int, b: int, d: int) -> None:
        c = count(a, b, d)
        if c == 0:
            return
        if c == 1:
            emit(a, b, d)
            return
        m = a + b  # the midpoint, over 2d
        if _sign_at(ip, m, 2 * d) == 0:
            # the box (mm - t, mm + t)/e starts a quarter of (a, b) to each
            # side of the root and halves until it isolates that root alone
            e, mm, t = 8 * d, 4 * m, 2 * (b - a)
            while (
                _sign_at(ip, mm - t, e) == 0
                or _sign_at(ip, mm + t, e) == 0
                or count(mm - t, mm + t, e) != 1
            ):
                e, mm = 2 * e, 2 * mm
            go(a * (e // d), mm - t, e)
            emit(m, m, 2 * d)
            go(mm + t, b * (e // d), e)
        else:
            go(2 * a, m, 2 * d)
            go(m, 2 * b, 2 * d)

    go(-bound, bound, lead)
    return out


def refine_root(
    p: Poly, lo: Fraction, hi: Fraction, width: Fraction
) -> tuple[Fraction, Fraction]:
    """Shrink an isolating interval below width by sign bisection.

    The box is held as integers (a, b) over one denominator d, which
    doubles at each halving so the midpoint a + b stays integral; every
    sign comes from the integer kernel.
    """
    if lo == hi:
        return lo, hi
    ints = p.nums
    width = Fraction(width)
    wn, wd = width.numerator, width.denominator
    d = int_lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (d // lo.denominator)
    b = hi.numerator * (d // hi.denominator)
    slo = _sign_at(ints, a, d)
    while (b - a) * wd > wn * d:
        m = a + b
        a, b, d = 2 * a, 2 * b, 2 * d
        sm = _sign_at(ints, m, d)
        if sm == 0:
            return Fraction(m, d), Fraction(m, d)
        if (sm > 0) == (slo > 0):
            a, slo = m, sm
        else:
            b = m
    return Fraction(a, d), Fraction(b, d)
