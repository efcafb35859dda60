"""Continuous piecewise linear functions on [0, 1] with rational breakpoints.

A breakpoint (x, y) is stored as the integer triple (X, Y, D) with
x = X/D, y = Y/D, D > 0 and gcd(X, Y, D) = 1.  Every rational point has
exactly one such triple: any other integer triple naming it is a nonzero
multiple of this one, and the sign and the gcd fix the multiple.  An
element is kept in canonical form, with abscissae strictly increasing
from 0 to 1 and no interior breakpoint collinear with its neighbours, so
equal functions have identical triples.

All kernels are integer operations on homogeneous coordinates:

- the value at abscissa x on the segment P0 P1 is lambda*P0 + mu*P1,
  with lambda and mu the cross-multiplied distances from x to the ends;
- the line through P0 and P1 is the cross product P0 x P1, and two
  lines meet at their cross product;
- three points are collinear when their 3x3 determinant vanishes;
- two values over one abscissa compare by one cross-multiplication.

Joins and meets insert the exact crossing points of the two graphs
before taking pointwise extrema, so every operation is exact.
``points`` gives the breakpoints as ``(Fraction, Fraction)`` pairs.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from ..riesz import LocatedCut, RieszElement, RieszSpace

__all__ = ["PLSpace", "PLElement"]

Point = tuple[Fraction, Fraction]
Triple = tuple[int, int, int]


def _reduced(x: int, y: int, d: int) -> Triple:
    if d < 0:
        x, y, d = -x, -y, -d
    g = gcd(x, y, d)
    if g != 1:
        return (x // g, y // g, d // g)
    return (x, y, d)


def _line(p: Triple, q: Triple) -> Triple:
    (x0, y0, d0), (x1, y1, d1) = p, q
    return (y0 * d1 - d0 * y1, d0 * x1 - x0 * d1, x0 * y1 - y0 * x1)


def _meet_lines(l0: Triple, l1: Triple) -> Triple:
    """Reduced triple of the common point of two non-parallel lines."""
    (a0, b0, c0), (a1, b1, c1) = l0, l1
    return _reduced(b0 * c1 - c0 * b1, c0 * a1 - a0 * c1, a0 * b1 - b0 * a1)


def _at(p: Triple, q: Triple, xn: int, xd: int) -> Triple:
    """Point of the segment p q over the abscissa xn/xd, not reduced."""
    x0, y0, d0 = p
    x1, y1, d1 = q
    lam = x1 * xd - xn * d1
    mu = xn * d0 - x0 * xd
    return (lam * x0 + mu * x1, lam * y0 + mu * y1, lam * d0 + mu * d1)


def _canonical(pts: Sequence[Triple]) -> tuple[Triple, ...]:
    out: list[Triple] = []
    for p in pts:
        out.append(p)
        while len(out) >= 3:
            (x0, y0, d0), (x1, y1, d1), (x2, y2, d2) = out[-3], out[-2], out[-1]
            det = (
                x0 * (y1 * d2 - y2 * d1)
                - y0 * (x1 * d2 - x2 * d1)
                + d0 * (x1 * y2 - x2 * y1)
            )
            if det == 0:
                del out[-2]
            else:
                break
    return tuple(out)


def _walk(fp: Sequence[Triple], gp: Sequence[Triple]) -> list[tuple[Triple, Triple]]:
    """(f, g) as homogeneous points over every breakpoint abscissa of either.

    A breakpoint contributes its own triple; the other function's point
    there is interpolated and not reduced.  Both lists start at 0 and end
    at 1, so they are used up together.
    """
    out: list[tuple[Triple, Triple]] = []
    i = j = 0
    n = len(fp)
    while i < n:
        pf, pg = fp[i], gp[j]
        c = pf[0] * pg[2] - pg[0] * pf[2]
        if c == 0:
            out.append((pf, pg))
            i += 1
            j += 1
        elif c < 0:
            out.append((pf, _at(gp[j - 1], pg, pf[0], pf[2])))
            i += 1
        else:
            out.append((_at(fp[i - 1], pf, pg[0], pg[2]), pg))
            j += 1
    return out


@dataclass(frozen=True)
class PLElement(RieszElement):
    space: "PLSpace"
    triples: tuple[Triple, ...]

    @property
    def points(self) -> tuple[Point, ...]:
        """Breakpoints as exact (x, y) pairs."""
        return tuple((Fraction(x, d), Fraction(y, d)) for x, y, d in self.triples)

    def __call__(self, x: Fraction) -> Fraction:
        return self.space.eval_at(self, Fraction(x))


class PLSpace(RieszSpace):
    def __eq__(self, other: object) -> bool:
        return isinstance(other, PLSpace)

    def __hash__(self) -> int:
        return hash("pl")

    def __repr__(self) -> str:
        return "PLSpace()"

    # ----- construction ---------------------------------------------

    def element(self, points: Sequence[tuple[Fraction, Fraction]]) -> PLElement:
        pts = [(Fraction(x), Fraction(y)) for x, y in points]
        if not pts:
            raise ValueError("need at least one breakpoint")
        if pts[0][0] != 0 or pts[-1][0] != 1:
            raise ValueError("breakpoints must span [0, 1]")
        for (x0, _), (x1, _) in zip(pts, pts[1:]):
            if not x0 < x1:
                raise ValueError("breakpoint abscissae must strictly increase")
        triples = []
        for x, y in pts:
            xd, yd = x.denominator, y.denominator
            d = xd * yd // gcd(xd, yd)  # over the lcm the triple is reduced
            triples.append((x.numerator * (d // xd), y.numerator * (d // yd), d))
        return PLElement(self, _canonical(triples))

    def constant(self, c: Fraction) -> PLElement:
        c = Fraction(c)
        n, d = c.numerator, c.denominator
        return PLElement(self, ((0, n, d), (d, n, d)))

    def zero(self) -> PLElement:
        return self.constant(Fraction(0))

    def unit(self) -> PLElement:
        return self.constant(Fraction(1))

    # ----- evaluation helpers ---------------------------------------

    def eval_at(self, f: PLElement, x: Fraction) -> Fraction:
        if not 0 <= x <= 1:
            raise ValueError("argument outside [0, 1]")
        pts = f.triples
        xn, xd = x.numerator, x.denominator
        lo, hi = 0, len(pts) - 1  # last breakpoint with abscissa <= x
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if pts[mid][0] * xd <= xn * pts[mid][2]:
                lo = mid
            else:
                hi = mid - 1
        if lo == len(pts) - 1:
            _, y, d = pts[-1]
        else:
            _, y, d = _at(pts[lo], pts[lo + 1], xn, xd)
        return Fraction(y, d)

    def _extremum(self, a: PLElement, b: PLElement, sign: int) -> PLElement:
        """Pointwise max (sign 1) or min (sign -1), crossings inserted."""
        out: list[Triple] = []
        prev = 0
        for pf, pg in _walk(a.triples, b.triples):
            s = (pf[1] * pg[2] - pg[1] * pf[2]) * sign
            if (s > 0 > prev) or (s < 0 < prev):
                # both are one segment since the last abscissa
                out.append(_meet_lines(_line(qf, pf), _line(qg, pg)))
            out.append(_reduced(*(pf if s >= 0 else pg)))
            prev, qf, qg = s, pf, pg
        return PLElement(self, _canonical(out))

    # ----- primitive operations -------------------------------------

    def add(self, a: PLElement, b: PLElement) -> PLElement:
        out = [
            _reduced(pf[0] * pg[2], pf[1] * pg[2] + pg[1] * pf[2], pf[2] * pg[2])
            for pf, pg in _walk(a.triples, b.triples)
        ]
        return PLElement(self, _canonical(out))

    def scale(self, c: Fraction, a: PLElement) -> PLElement:
        c = Fraction(c)
        if c == 0:
            return self.zero()
        n, d = c.numerator, c.denominator
        return PLElement(
            self, tuple(_reduced(x * d, y * n, w * d) for x, y, w in a.triples)
        )

    def negate(self, a: PLElement) -> PLElement:
        return PLElement(self, tuple((x, -y, d) for x, y, d in a.triples))

    def join(self, a: PLElement, b: PLElement) -> PLElement:
        return self._extremum(a, b, 1)

    def meet(self, a: PLElement, b: PLElement) -> PLElement:
        return self._extremum(a, b, -1)

    def in_interval(self, a: PLElement, p: Fraction, q: Fraction) -> PLElement:
        """min(a - p, q - a) in one pass over the breakpoints of a.

        The branch switches where a crosses the midpoint m = (p + q)/2;
        the value there is the half width h = (q - p)/2.  Both are kept as
        integer numerators over L = 2 * pd * qd: only the signs of y - m
        and the reduced output triples depend on them, and neither changes
        when m and h are scaled by the same positive number.
        """
        pn, pd, qn, qd = p.numerator, p.denominator, q.numerator, q.denominator
        if not pn * qd < qn * pd:
            raise ValueError("in_interval needs p < q")
        mn, hn, md = pn * qd + qn * pd, qn * pd - pn * qd, 2 * pd * qd
        out: list[Triple] = []
        prev: Optional[Triple] = None
        ps = 0
        for pt in a.triples:
            x, y, d = pt
            s = y * md - mn * d
            if (s > 0 > ps) or (s < 0 < ps):
                la, lb, lc = _line(prev, pt)
                xc = -(lb * mn + lc * md)
                dc = la * md
                out.append(_reduced(xc * md, hn * dc, dc * md))
            if s <= 0:
                out.append(_reduced(x * pd, y * pd - pn * d, d * pd))
            else:
                out.append(_reduced(x * qd, qn * d - y * qd, d * qd))
            prev, ps = pt, s
        return PLElement(self, _canonical(out))

    def leq(self, a: PLElement, b: PLElement) -> bool:
        for pf, pg in _walk(a.triples, b.triples):
            if pf[1] * pg[2] > pg[1] * pf[2]:
                return False
        return True

    def _top(self, a: PLElement) -> Triple:
        best = a.triples[0]
        for pt in a.triples:
            if pt[1] * best[2] > best[1] * pt[2]:
                best = pt
        return best

    def sup_cut(self, a: PLElement) -> LocatedCut:
        _, y, d = self._top(a)
        return LocatedCut.exact(Fraction(y, d))

    def unit_bound(self, a: PLElement) -> int:
        _, y, d = self._top(a)
        if y <= 0:
            return 0
        return -((-y) // d)

    # ----- exact structure helpers ----------------------------------

    def positive_regions(self, f: PLElement) -> list[tuple[Fraction, Fraction]]:
        """Closed intervals whose union contains {x : f(x) > 0} exactly up
        to closure; consecutive regions are merged."""
        pieces: list[tuple[Triple, Triple, bool]] = []
        pts = f.triples
        for p0, p1 in zip(pts, pts[1:]):
            y0, y1 = p0[1], p1[1]
            if (y0 > 0 > y1) or (y0 < 0 < y1):
                a, _, c = _line(p0, p1)
                t = (-c, 0, a)  # where the segment meets y = 0
                pieces.append((p0, t, y0 > 0))
                pieces.append((t, p1, y1 > 0))
            else:
                # no sign change inside: positive iff the midpoint value is
                pieces.append((p0, p1, y0 * p1[2] + y1 * p0[2] > 0))
        regions: list[tuple[Fraction, Fraction]] = []
        open_region = False
        for u, v, positive in pieces:
            if positive:
                hi = Fraction(v[0], v[2])
                if open_region:
                    regions[-1] = (regions[-1][0], hi)
                else:
                    regions.append((Fraction(u[0], u[2]), hi))
            open_region = positive
        return regions

    def range_on(self, f: PLElement, u: Fraction, v: Fraction) -> tuple[Fraction, Fraction]:
        """Exact min and max of f over the closed interval [u, v]."""
        un, ud, vn, vd = u.numerator, u.denominator, v.numerator, v.denominator
        inner = [
            pt for pt in f.triples
            if un * pt[2] < pt[0] * ud and pt[0] * vd < vn * pt[2]
        ]
        vals = [self.eval_at(f, u), self.eval_at(f, v)]
        if inner:
            lo = hi = inner[0]
            for pt in inner:
                if pt[1] * lo[2] < lo[1] * pt[2]:
                    lo = pt
                if pt[1] * hi[2] > hi[1] * pt[2]:
                    hi = pt
            vals += [Fraction(lo[1], lo[2]), Fraction(hi[1], hi[2])]
        return min(vals), max(vals)

    # ----- capability hooks -----------------------------------------

    def value_ranges(
        self,
        b: PLElement,
        context: Optional[PLElement] = None,
        tol: Fraction = Fraction(1, 4),
    ) -> list[tuple[Fraction, Fraction]]:
        """Exact image of b over each positive region of the context."""
        if context is None:
            regions = [(Fraction(0), Fraction(1))]
        else:
            regions = self.positive_regions(context)
        return [self.range_on(b, u, v) for u, v in regions]

    def dominance_ceiling(self, x: PLElement, y: PLElement) -> Optional[int]:
        """Exact for positive piecewise linear functions.

        On a common refinement both are linear per segment, so the ratio
        x/y is monotone on each segment and its sup over the whole domain
        is attained at a breakpoint with y > 0 (segments touching a common
        zero carry a constant ratio).  Support failure at any breakpoint
        with y = 0 rules every multiple out.
        """
        num, den = 0, 1
        for px, py in _walk(x.triples, y.triples):
            if py[1] <= 0:
                if px[1] > 0:
                    return None
                continue
            rn, rd = px[1] * py[2], px[2] * py[1]
            if rn * den > num * rd:
                num, den = rn, rd
        return max(1, -((-num) // den))
