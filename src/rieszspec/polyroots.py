"""Exact real root isolation and sign determination for rational polynomials.

Polynomials are tuples of ``Fraction`` coefficients in ascending order.
Root counting uses Sturm chains, so every answer is an exact rational
computation: isolation produces disjoint intervals holding exactly one
root each (a degenerate pair (x, x) marks an exact rational root), and
the sign of one polynomial at a root of another is decided by an interval
enclosure over the root's isolating box first; only when that enclosure
straddles zero do a gcd test and interval refinement follow, which
terminate in every case.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd, lcm as int_lcm
from typing import Sequence

Poly = tuple[Fraction, ...]

__all__ = [
    "Poly",
    "poly_normalize",
    "poly_eval",
    "poly_eval_interval",
    "poly_add",
    "poly_sub",
    "poly_scale",
    "poly_deriv",
    "poly_divmod",
    "poly_gcd",
    "sturm_chain",
    "count_roots",
    "cauchy_bound",
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


def poly_deriv(p: Poly) -> Poly:
    return poly_normalize([i * c for i, c in enumerate(p)][1:])


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


def _primitive(p: Poly) -> Poly:
    """Scale by a positive rational so coefficients are coprime integers."""
    if not p:
        return p
    den = int_lcm(*(c.denominator for c in p))
    ints = [int(c * den) for c in p]
    g = 0
    for v in ints:
        g = int_gcd(g, abs(v))
    if g == 0:
        return p
    return tuple(Fraction(v, g) for v in ints)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    a, b = poly_normalize(a), poly_normalize(b)
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, _primitive(r)
    if a:
        a = poly_scale(1 / a[-1], a)  # monic
    return a


def sturm_chain(p: Poly) -> list[Poly]:
    chain = [_primitive(poly_normalize(p))]
    d = poly_deriv(chain[0])
    if d:
        chain.append(_primitive(d))
    while len(chain[-1]) > 1:
        _, r = poly_divmod(chain[-2], chain[-1])
        r = poly_scale(Fraction(-1), r)
        if not r:
            break
        chain.append(_primitive(r))
    return chain


def _variations(chain: list[Poly], x: Fraction) -> int:
    signs = []
    for q in chain:
        v = poly_eval(q, x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for s0, s1 in zip(signs, signs[1:]) if s0 != s1)


def count_roots(chain: list[Poly], a: Fraction, b: Fraction) -> int:
    """Distinct real roots in (a, b); both endpoints must be non roots."""
    return _variations(chain, a) - _variations(chain, b)


def cauchy_bound(p: Poly) -> Fraction:
    p = poly_normalize(p)
    if len(p) <= 1:
        return Fraction(1)
    lead = abs(p[-1])
    return 1 + max(abs(c) for c in p[:-1]) / lead


def isolate_real_roots(p: Poly) -> list[tuple[Fraction, Fraction]]:
    """Disjoint isolating intervals for the real roots of squarefree p.

    Pairs (x, x) are exact rational roots; pairs (a, b) with a < b hold
    exactly one root strictly inside and have non root endpoints.
    Returned in ascending order.
    """
    p = poly_normalize(p)
    if len(p) <= 1:
        return []
    chain = sturm_chain(p)
    bound = cauchy_bound(p)
    out: list[tuple[Fraction, Fraction]] = []

    def go(a: Fraction, b: Fraction) -> None:
        c = count_roots(chain, a, b)
        if c == 0:
            return
        if c == 1:
            out.append((a, b))
            return
        m = (a + b) / 2
        if poly_eval(p, m) == 0:
            out.append((m, m))
            d = (b - a) / 4
            while not (
                poly_eval(p, m - d) != 0
                and poly_eval(p, m + d) != 0
                and count_roots(chain, m - d, m + d) == 1
            ):
                d = d / 2
            go(a, m - d)
            go(m + d, b)
        else:
            go(a, m)
            go(m, b)

    go(-bound, bound)
    return sorted(out)


def refine_root(
    p: Poly, lo: Fraction, hi: Fraction, width: Fraction
) -> tuple[Fraction, Fraction]:
    """Shrink an isolating interval below width by sign bisection."""
    if lo == hi:
        return lo, hi
    slo = poly_eval(p, lo)
    while hi - lo > width:
        m = (lo + hi) / 2
        vm = poly_eval(p, m)
        if vm == 0:
            return m, m
        if (vm > 0) == (slo > 0):
            lo, slo = m, vm
        else:
            hi = m
    return lo, hi
