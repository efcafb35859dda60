"""Exact real root isolation and sign determination for rational polynomials.

Polynomials are tuples of ``Fraction`` coefficients in ascending order.
Root counting uses Sturm chains, so every answer is an exact rational
computation: isolation produces disjoint integer boxes holding exactly
one root each (a box of width 0 marks an exact rational root), and
the sign of one polynomial at a root of another is decided by an interval
enclosure over the root's isolating box first; only when that enclosure
straddles zero do a gcd test and interval refinement follow, which
terminate in every case.

Root isolation and refinement decide signs with one integer kernel: the
sign of p at a/b, b > 0, is the sign of b**n * p(a/b), which homogeneous
Horner computes from the primitive integer coefficients of p with no
division.  Isolation and refinement bisect integer endpoints over one
doubling denominator, so Sturm variation counts and bisection steps build
no ``Fraction``, and give the boxes and exact-root hits of ``Fraction``
evaluation.  Sturm chains themselves come from integer
pseudo-remainders, each scaled by a positive number and made primitive,
so they are the primitive forms of the rational chain's members.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd, lcm as int_lcm
from typing import Sequence

Poly = tuple[Fraction, ...]
Box = tuple[int, int, int]

__all__ = [
    "Poly",
    "Box",
    "poly_normalize",
    "poly_eval",
    "poly_eval_interval",
    "poly_add",
    "poly_sub",
    "poly_scale",
    "poly_divmod",
    "poly_gcd",
    "poly_interpolate",
    "count_roots",
    "isolate_real_roots",
    "refine_root",
]


def poly_normalize(p: Sequence[Fraction]) -> Poly:
    out = [Fraction(c) for c in p]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_eval(p: Poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_eval_interval(p: Poly, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Interval Horner evaluation: encloses {p(x) : lo <= x <= hi}.

    Runs on integer numerators: the coefficients over their common
    denominator L and the endpoints over theirs, D.  After k steps the
    accumulator is an integer interval over L * D**k, and scaling by that
    positive number keeps the order of the candidate products, so the
    endpoints equal those of Horner's rule in ``Fraction`` arithmetic.
    """
    if not p:
        return Fraction(0), Fraction(0)
    den = int_lcm(*(c.denominator for c in p))
    nums = [c.numerator * (den // c.denominator) for c in reversed(p)]
    d = int_lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (d // lo.denominator)
    b = hi.numerator * (d // hi.denominator)
    alo = ahi = nums[0]
    pw = 1
    for c in nums[1:]:
        pw *= d
        cands = (alo * a, alo * b, ahi * a, ahi * b)
        alo, ahi = min(cands) + c * pw, max(cands) + c * pw
    den *= pw
    return Fraction(alo, den), Fraction(ahi, den)


def poly_add(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return poly_normalize(
        [
            (a[i] if i < len(a) else Fraction(0)) + (b[i] if i < len(b) else Fraction(0))
            for i in range(n)
        ]
    )


def poly_sub(a: Poly, b: Poly) -> Poly:
    return poly_add(a, poly_scale(Fraction(-1), b))


def poly_scale(c: Fraction, p: Poly) -> Poly:
    c = Fraction(c)
    return poly_normalize([c * v for v in p])


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quo = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    dl = len(b) - 1
    lead = b[-1]
    while len(rem) - 1 >= dl and any(rem):
        if rem[-1] == 0:
            rem.pop()
            continue
        shift = len(rem) - 1 - dl
        f = rem[-1] / lead
        quo[shift] = f
        for i, c in enumerate(b):
            rem[shift + i] -= f * c
        rem.pop()
    return poly_normalize(quo), poly_normalize(rem)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    a, b = poly_normalize(a), poly_normalize(b)
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, tuple(map(Fraction, _int_coeffs(r)))
    if a:
        a = poly_scale(1 / a[-1], a)  # monic
    return a


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
    p: list[Fraction] = []
    for i in range(n - 1, -1, -1):
        # p <- p * (x - x_i) + c_i
        q = [Fraction(0)] + p
        for k, v in enumerate(p):
            q[k] -= xs[i] * v
        q[0] += c[i]
        p = q
    return poly_normalize(p)


def _content_free(v: list[int]) -> list[int]:
    """v divided by the gcd of its entries, a positive number."""
    g = int_gcd(*v)
    return [x // g for x in v] if g > 1 else v


def _int_coeffs(p: Sequence[Fraction]) -> list[int]:
    """Primitive integer coefficients: p times a positive rational."""
    if not p:
        return []
    den = int_lcm(*(c.denominator for c in p))
    return _content_free([c.numerator * (den // c.denominator) for c in p])


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
    chain = [_int_coeffs(poly_normalize(p))]
    if len(chain[0]) > 1:
        chain.append(_content_free([i * c for i, c in enumerate(chain[0])][1:]))
    while len(chain[-1]) > 1:
        r = _prem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(_content_free([-x for x in r]))
    return chain


def _sign_at(ints: list[int], a: int, b: int) -> int:
    """Sign of p(a/b) for b > 0, from p's integer coefficients (ascending).

    Homogeneous Horner: after consuming c_n .. c_k the accumulator is
    sum_{i >= k} c_i a**(i-k) b**(n-i), so at the end it is
    b**n * p(a/b), which has the sign of p(a/b).
    """
    if not ints:
        return 0
    acc = ints[-1]
    pw = 1
    for c in reversed(ints[:-1]):
        pw *= b
        acc = acc * a + c * pw
    return (acc > 0) - (acc < 0)


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
    p = poly_normalize(p)
    if len(p) <= 1:
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
    ints = _int_coeffs(p)
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
