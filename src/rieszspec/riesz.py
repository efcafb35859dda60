"""Core contract for ordered vector lattices with a strong unit.

A space object carries the operation set (linear structure, join, order
test, suprema as located cuts, integer unit bounds); element objects are
immutable value carriers that delegate to their space.  The order test is
three valued: ``True`` and ``False`` are certified answers, ``None`` means
unknown at the current tolerance and is only ever produced by instances
that track an error radius.  Exact instances never return ``None``.

Derived operations (meet, positive and negative parts, interval elements,
the norm cut) are expressed through the primitive set here, so every
instance gets them for free and can override individual ones when it has a
cheaper exact route.
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .exact import Rational

__all__ = [
    "Rational",
    "SpaceMismatchError",
    "ToleranceError",
    "MarginCollapseError",
    "CertificateError",
    "LocatedCut",
    "RieszSpace",
    "RieszElement",
    "meet",
    "decompose",
    "in_interval",
    "norm_cut",
    "unit_bound",
]


class SpaceMismatchError(ValueError):
    """Operands live in different spaces."""


class ToleranceError(RuntimeError):
    """A certified answer is not available at the requested tolerance."""


class MarginCollapseError(RuntimeError):
    """A positivity margin could not be maintained during refinement."""


class CertificateError(RuntimeError):
    """A required certificate could not be produced or fails to verify."""


class LocatedCut:
    """Upper cut of a real value, queried through one sided approximations.

    ``approx(eps)`` returns a rational s with  s - eps < value <= s.
    """

    def __init__(self, fn: Callable[[Fraction], Fraction]):
        self._fn = fn

    @classmethod
    def exact(cls, value: Fraction) -> "LocatedCut":
        v = Fraction(value)
        return cls(lambda eps: v)

    def approx(self, eps: Fraction) -> Fraction:
        eps = Fraction(eps)
        if eps <= 0:
            raise ValueError("tolerance must be positive")
        return self._fn(eps)


class RieszElement:
    """Base for concrete element types; arithmetic delegates to the space."""

    space: "RieszSpace"

    def _require_same_space(self, other: "RieszElement") -> None:
        if self.space != other.space:
            raise SpaceMismatchError(
                f"elements from {self.space!r} and {other.space!r} cannot be combined"
            )

    def __add__(self, other: "RieszElement") -> "RieszElement":
        self._require_same_space(other)
        return self.space.add(self, other)

    def __sub__(self, other: "RieszElement") -> "RieszElement":
        self._require_same_space(other)
        return self.space.add(self, self.space.negate(other))

    def __neg__(self) -> "RieszElement":
        return self.space.negate(self)

    def __mul__(self, c: Fraction) -> "RieszElement":
        return self.space.scale(Fraction(c), self)

    __rmul__ = __mul__

    def join(self, other: "RieszElement") -> "RieszElement":
        self._require_same_space(other)
        return self.space.join(self, other)

    def meet(self, other: "RieszElement") -> "RieszElement":
        self._require_same_space(other)
        return self.space.meet(self, other)

    def leq(self, other: "RieszElement") -> Optional[bool]:
        self._require_same_space(other)
        return self.space.leq(self, other)


class RieszSpace(ABC):
    """Operation set for an ordered vector lattice with strong unit."""

    # ----- primitive operations -------------------------------------

    @abstractmethod
    def zero(self) -> RieszElement: ...

    @abstractmethod
    def unit(self) -> RieszElement: ...

    @abstractmethod
    def add(self, a: RieszElement, b: RieszElement) -> RieszElement: ...

    @abstractmethod
    def scale(self, c: Fraction, a: RieszElement) -> RieszElement: ...

    @abstractmethod
    def negate(self, a: RieszElement) -> RieszElement: ...

    @abstractmethod
    def join(self, a: RieszElement, b: RieszElement) -> RieszElement: ...

    @abstractmethod
    def leq(self, a: RieszElement, b: RieszElement) -> Optional[bool]:
        """Three valued order test; None means unknown at tolerance."""

    @abstractmethod
    def sup_cut(self, a: RieszElement) -> LocatedCut:
        """Located cut for the supremum of a against the unit scale."""

    @abstractmethod
    def unit_bound(self, a: RieszElement) -> int:
        """Nonnegative integer n with a <= n * unit, minimal up to +1 slack."""

    # ----- derived operations, overridable --------------------------

    def meet(self, a: RieszElement, b: RieszElement) -> RieszElement:
        return self.negate(self.join(self.negate(a), self.negate(b)))

    def in_interval(self, a: RieszElement, p: Fraction, q: Fraction) -> RieszElement:
        """(a - p*1) meet (q*1 - a); positive exactly where a sits in (p, q)."""
        p, q = Fraction(p), Fraction(q)
        if not p < q:
            raise ValueError("in_interval needs p < q")
        pu = self.scale(p, self.unit())
        qu = self.scale(q, self.unit())
        return self.meet(self.add(a, self.negate(pu)), self.add(qu, self.negate(a)))

    # ----- capability hooks used by search routines ------------------

    def value_ranges(
        self,
        b: RieszElement,
        context: Optional[RieszElement] = None,
        tol: Fraction = Fraction(1, 4),
    ) -> list[tuple[Fraction, Fraction]]:
        """Closed rational ranges that hold b's value wherever context > 0.

        Grid cells of b that meet none of the ranges have an interval
        element <= 0 wherever context is positive, so covers and point
        evaluations never build them.  Point evaluation also bounds each
        remaining cell's supremum by its distance to the nearest range,
        and skips the cells that bound rules out.  tol is the width an
        instance may aim for when it encloses irrational values.  The
        default is the whole unit bound range of b.
        """
        lo = -self.unit_bound(self.negate(b))
        return [(Fraction(lo), Fraction(self.unit_bound(b)))]

    def cell_sups(
        self,
        a: RieszElement,
        den: int,
        cells: Sequence[tuple[int, int, int]],
        eps: Fraction,
    ) -> list[Fraction]:
        """The suprema of a's grid cells, read at eps.

        Each cell (k, lo, hi) is the interval (lo/den, hi/den), as
        ``exact.interval_grid_window`` returns it.  Its entry is exactly the
        s that sup_cut(in_interval(a, lo/den, hi/den)).approx(eps) returns,
        so a caller decides on it as on that cut query's answer.  The
        default is that route, one cell element and one cut query per cell.
        Instances whose value_ranges(a) is a's exact image return the exact
        supremum instead, the cell's tent height over the image
        (``exact.cell_bounds``), which is what their exact cut returns.
        """
        return [
            self.sup_cut(self.in_interval(a, Fraction(lo, den), Fraction(hi, den))).approx(eps)
            for _, lo, hi in cells
        ]

    def require_exact(self, *elems: RieszElement) -> None:
        """ToleranceError unless every element is exact, free of an error
        radius.  Exact instances have nothing to check."""

    @abstractmethod
    def dominance_ceiling(self, x: RieszElement, y: RieszElement) -> Optional[int]:
        """For positive x, y: an integer N >= 1 at least x/y wherever x > 0,
        or None when provably no multiple of y is above x.

        precedes verifies N with one order test.  Instances that track an
        error radius may raise ToleranceError.
        """


# ----- free functions over the contract ------------------------------


def meet(a: RieszElement, b: RieszElement) -> RieszElement:
    return a.meet(b)


def decompose(a: RieszElement) -> tuple[RieszElement, RieszElement, RieszElement]:
    """Positive part, negative part, absolute value of a."""
    sp = a.space
    zero = sp.zero()
    pos = sp.join(a, zero)
    neg = sp.join(sp.negate(a), zero)
    return pos, neg, sp.add(pos, neg)


def in_interval(a: RieszElement, p: Fraction, q: Fraction) -> RieszElement:
    return a.space.in_interval(a, p, q)


def norm_cut(a: RieszElement) -> LocatedCut:
    """Located cut of sup |a| = max(sup a, sup -a); no lattice op needed."""
    sp = a.space
    ca = sp.sup_cut(a)
    cn = sp.sup_cut(sp.negate(a))
    return LocatedCut(lambda eps: max(ca.approx(eps), cn.approx(eps)))


def unit_bound(a: RieszElement) -> int:
    return a.space.unit_bound(a)
