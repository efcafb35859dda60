"""Exact rational tuples with pointwise order; the simplest instance."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from ..exact import RatInterval
from ..riesz import LocatedCut, RieszElement, RieszSpace

__all__ = ["QnSpace", "QnElement"]


@dataclass(frozen=True)
class QnElement(RieszElement):
    space: "QnSpace"
    coords: tuple[Fraction, ...]


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
        vals = tuple(Fraction(v) for v in coords)
        if len(vals) != self.n:
            raise ValueError(f"expected {self.n} coordinates, got {len(vals)}")
        return QnElement(self, vals)

    def zero(self) -> QnElement:
        return self.element([Fraction(0)] * self.n)

    def unit(self) -> QnElement:
        return self.element([Fraction(1)] * self.n)

    def add(self, a: QnElement, b: QnElement) -> QnElement:
        return QnElement(self, tuple(x + y for x, y in zip(a.coords, b.coords)))

    def scale(self, c: Fraction, a: QnElement) -> QnElement:
        c = Fraction(c)
        return QnElement(self, tuple(c * x for x in a.coords))

    def negate(self, a: QnElement) -> QnElement:
        return QnElement(self, tuple(-x for x in a.coords))

    def join(self, a: QnElement, b: QnElement) -> QnElement:
        return QnElement(self, tuple(max(x, y) for x, y in zip(a.coords, b.coords)))

    def meet(self, a: QnElement, b: QnElement) -> QnElement:
        return QnElement(self, tuple(min(x, y) for x, y in zip(a.coords, b.coords)))

    def in_interval(self, a: QnElement, p: Fraction, q: Fraction) -> QnElement:
        """min(x - p, q - x) per coordinate."""
        p, q = Fraction(p), Fraction(q)
        if not p < q:
            raise ValueError("in_interval needs p < q")
        return QnElement(self, tuple(min(x - p, q - x) for x in a.coords))

    def leq(self, a: QnElement, b: QnElement) -> bool:
        return all(x <= y for x, y in zip(a.coords, b.coords))

    def sup_cut(self, a: QnElement) -> LocatedCut:
        return LocatedCut.exact(max(a.coords))

    def unit_bound(self, a: QnElement) -> int:
        m = max(a.coords)
        if m <= 0:
            return 0
        return -((-m.numerator) // m.denominator)  # ceil

    # ----- capability hooks -----------------------------------------

    def value_ranges(
        self,
        b: QnElement,
        context: Optional[QnElement] = None,
        tol: Fraction = Fraction(1, 4),
    ) -> list[tuple[Fraction, Fraction]]:
        """One point range per coordinate where the context is positive."""
        coords = b.coords
        if context is not None:
            coords = [x for x, m in zip(coords, context.coords) if m > 0]
        return [(v, v) for v in set(coords)]

    def interval_sup_upper(self, b: QnElement, iv: RatInterval) -> Optional[Fraction]:
        best = max(min(v - iv.lo, iv.hi - v) for v in b.coords)
        return best if best > 0 else None

    def dominance_ceiling(self, x: QnElement, y: QnElement) -> Optional[int]:
        """Exact: x <= N*y for some N iff support(x+) included in support(y)."""
        ratio = Fraction(0)
        for xv, yv in zip(x.coords, y.coords):
            if xv <= 0:
                continue
            if yv <= 0:
                return None
            ratio = max(ratio, xv / yv)
        n = -((-ratio.numerator) // ratio.denominator)
        return max(1, n)
