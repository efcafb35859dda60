"""Exact rational tuples with pointwise order; the simplest instance.

An element is stored as integer numerators over one positive denominator,
in canonical form: gcd(nums, den) = 1 and den > 0.  Every rational tuple
has exactly one such form, so equal elements have equal fields.  Each
operation is an integer loop: operands over different denominators are
cross-multiplied, and one gcd puts the result back in canonical form.
``coords`` gives the coordinates as ``Fraction`` values.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from ..riesz import LocatedCut, RieszElement, RieszSpace

__all__ = ["QnSpace", "QnElement"]


@dataclass(frozen=True)
class QnElement(RieszElement):
    space: "QnSpace"
    nums: tuple[int, ...]
    den: int

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """Coordinates as exact rationals."""
        return tuple(Fraction(x, self.den) for x in self.nums)


def _make(space: "QnSpace", nums: Sequence[int], den: int) -> QnElement:
    """The canonical element nums/den, for den > 0."""
    g = gcd(den, *nums)
    if g != 1:
        return QnElement(space, tuple(x // g for x in nums), den // g)
    return QnElement(space, tuple(nums), den)


def _common(a: QnElement, b: QnElement) -> tuple[Sequence[int], Sequence[int], int]:
    """Numerators of a and b over one positive denominator."""
    da, db = a.den, b.den
    if da == db:
        return a.nums, b.nums, da
    return [x * db for x in a.nums], [y * da for y in b.nums], da * db


class QnSpace(RieszSpace):
    def __init__(self, n: int):
        if n < 1:
            raise ValueError("dimension must be at least 1")
        self.n = n

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QnSpace) and other.n == self.n

    def __hash__(self) -> int:
        return hash(("qn", self.n))

    def __repr__(self) -> str:
        return f"QnSpace({self.n})"

    def element(self, coords: Sequence[Fraction]) -> QnElement:
        ratios = [v.as_integer_ratio() for v in coords]
        if len(ratios) != self.n:
            raise ValueError(f"expected {self.n} coordinates, got {len(ratios)}")
        den = lcm(*(d for _, d in ratios))
        # each ratio is in lowest terms, so over the lcm the gcd is 1
        return QnElement(self, tuple(x * (den // d) for x, d in ratios), den)

    def zero(self) -> QnElement:
        return QnElement(self, (0,) * self.n, 1)

    def unit(self) -> QnElement:
        return QnElement(self, (1,) * self.n, 1)

    def add(self, a: QnElement, b: QnElement) -> QnElement:
        xs, ys, den = _common(a, b)
        return _make(self, [x + y for x, y in zip(xs, ys)], den)

    def scale(self, c: Fraction, a: QnElement) -> QnElement:
        cn, cd = Fraction(c).as_integer_ratio()
        return _make(self, [cn * x for x in a.nums], cd * a.den)

    def negate(self, a: QnElement) -> QnElement:
        return QnElement(self, tuple(-x for x in a.nums), a.den)

    def join(self, a: QnElement, b: QnElement) -> QnElement:
        xs, ys, den = _common(a, b)
        return _make(self, [x if x >= y else y for x, y in zip(xs, ys)], den)

    def meet(self, a: QnElement, b: QnElement) -> QnElement:
        xs, ys, den = _common(a, b)
        return _make(self, [x if x <= y else y for x, y in zip(xs, ys)], den)

    def in_interval(self, a: QnElement, p: Fraction, q: Fraction) -> QnElement:
        """min(x - p, q - x) per coordinate, over den * pd * qd."""
        pn, pd = Fraction(p).as_integer_ratio()
        qn, qd = Fraction(q).as_integer_ratio()
        if not pn * qd < qn * pd:
            raise ValueError("in_interval needs p < q")
        # x/den - p = (x*pd*qd - pn*qd*den) / (den*pd*qd), likewise q - x
        s, d = pd * qd, a.den * pd * qd
        lo, hi = pn * qd * a.den, qn * pd * a.den
        out = []
        for x in a.nums:
            u, v = x * s - lo, hi - x * s
            out.append(u if u <= v else v)
        return _make(self, out, d)

    def leq(self, a: QnElement, b: QnElement) -> bool:
        da, db = a.den, b.den
        return all(x * db <= y * da for x, y in zip(a.nums, b.nums))

    def sup_cut(self, a: QnElement) -> LocatedCut:
        return LocatedCut.exact(Fraction(max(a.nums), a.den))

    def unit_bound(self, a: QnElement) -> int:
        m = max(a.nums)
        if m <= 0:
            return 0
        return -((-m) // a.den)  # ceil

    # ----- capability hooks -----------------------------------------

    def value_ranges(
        self,
        b: QnElement,
        context: Optional[QnElement] = None,
        tol: Fraction = Fraction(1, 4),
    ) -> list[tuple[Fraction, Fraction]]:
        """One point range per coordinate where the context is positive."""
        nums = b.nums
        if context is not None:
            nums = [x for x, m in zip(nums, context.nums) if m > 0]
        den = b.den
        return [(v, v) for v in (Fraction(x, den) for x in set(nums))]

    def dominance_ceiling(self, x: QnElement, y: QnElement) -> Optional[int]:
        """Exact: x <= N*y for some N iff support(x+) included in support(y)."""
        # the ratio of coordinates is xv * y.den / (yv * x.den); the largest
        # xv / yv is kept as the integer pair (num, den)
        num, den = 0, 1
        for xv, yv in zip(x.nums, y.nums):
            if xv <= 0:
                continue
            if yv <= 0:
                return None
            if xv * den > num * yv:
                num, den = xv, yv
        num, den = num * y.den, den * x.den
        return max(1, -((-num) // den))
