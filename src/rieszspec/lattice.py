"""Lattice of positive classes and certified covers.

Every element a determines a positivity class, the class of its
positive part under the dominance preorder: x is dominated by y when
x <= n * y for some natural n.  Classes form a distributive lattice
whose joins and meets are computed on representatives.  All cover
claims made here are backed by explicit dominance certificates that can
be re-verified with a single order test.

The search joins each cover's cells once, to J.  Distributivity gives
pos(J) = join of the pos(c_i), which serves the grid claim and the unit
claim, and pos(J - r) = join of the pos(c_i - r), which serves the claim
of the cover lowered by r.  :meth:`CoverCertificate.verify` does not
reuse J: it joins the positive parts of its own parts, so re-checking a
certificate (the CLI replay, ``selftest``) stays independent of the
search that found it.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

from .exact import RatInterval, interval_grid_window
from .riesz import CertificateError, Rational, RieszElement, RieszSpace

if TYPE_CHECKING:
    from .spectrum import Pos

__all__ = [
    "LatticeElement",
    "CoverCertificate",
    "ShrinkResult",
    "d_of",
    "precedes",
    "join_all",
    "certify_cover",
    "cover_range",
    "grid_cells",
    "cover_interval",
    "shrink_cover",
    "prune_cover",
]


def _pos(space: RieszSpace, a: RieszElement) -> RieszElement:
    return space.join(a, space.zero())


def join_all(space: RieszSpace, elems: Sequence[RieszElement]) -> RieszElement:
    """Join of a nonempty family, folded as a balanced tree."""
    layer = list(elems)
    if not layer:
        raise ValueError("join of an empty family")
    while len(layer) > 1:
        nxt = []
        for i in range(0, len(layer) - 1, 2):
            nxt.append(space.join(layer[i], layer[i + 1]))
        if len(layer) % 2:
            nxt.append(layer[-1])
        layer = nxt
    return layer[0]


def _join_pos(space: RieszSpace, parts: Sequence[RieszElement]) -> RieszElement:
    """Join of the positive parts; 0 for an empty family."""
    if not parts:
        return space.zero()
    return join_all(space, [_pos(space, p) for p in parts])


def precedes(space: RieszSpace, x: RieszElement, y: RieszElement) -> int | None:
    """A multiplier n with x <= n * y, or None if none was established.

    The instance's dominance ceiling proposes n and one order test
    verifies it.  None then means no multiple works: n is at least x/y
    wherever x > 0, so a failed test puts y < 0 at a point where x <= 0,
    and a larger n only makes that worse.  Instances that track an error
    radius raise ToleranceError from the ceiling instead of guessing.
    """
    n = space.dominance_ceiling(x, y)
    if n is None or space.leq(x, space.scale(n, y)) is not True:
        return None
    return n


@dataclass(frozen=True)
class LatticeElement:
    """Positivity class of an element, carried by its positive part."""

    space: RieszSpace
    rep: RieszElement

    def join(self, other: "LatticeElement") -> "LatticeElement":
        return LatticeElement(self.space, self.space.join(self.rep, other.rep))

    def meet(self, other: "LatticeElement") -> "LatticeElement":
        return LatticeElement(self.space, self.space.meet(self.rep, other.rep))

    def below(self, other: "LatticeElement") -> bool:
        return precedes(self.space, self.rep, other.rep) is not None

    def is_bottom(self) -> bool:
        return self.space.leq(self.rep, self.space.zero()) is True

    def is_top(self) -> bool:
        return precedes(self.space, self.space.unit(), self.rep) is not None


def d_of(space: RieszSpace, a: RieszElement) -> LatticeElement:
    """The positivity class determined by a."""
    return LatticeElement(space, _pos(space, a))


@dataclass(frozen=True)
class CoverCertificate:
    """Witness that the target class is below the join of the parts.

    The claim is target^+ <= multiplier * join of the parts' positive
    parts; verify joins those positive parts from the parts themselves
    and replays that single order test.  It is the re-check, independent
    of the search, which proved the same claim on pos(J) for the join J
    of the parts (equal by distributivity).
    """

    space: RieszSpace
    target: RieszElement
    parts: tuple[RieszElement, ...]
    multiplier: int

    def verify(self) -> bool:
        space = self.space
        joined = _join_pos(space, self.parts)
        return (
            space.leq(_pos(space, self.target), space.scale(self.multiplier, joined))
            is True
        )


def certify_cover(
    space: RieszSpace,
    target: RieszElement,
    parts: Sequence[RieszElement],
    joined: RieszElement,
) -> CoverCertificate:
    """Certificate that target's class is below the join of the parts' classes.

    joined is J, the join of the parts (0 when there are none).  pos(J)
    is the join of the parts' positive parts, so the multiplier that
    precedes verifies against it is one that verify accepts;
    CertificateError when none is established.
    """
    n = precedes(space, _pos(space, target), _pos(space, joined))
    if n is None:
        raise CertificateError("no dominance multiplier found for the cover")
    return CoverCertificate(space, target, tuple(parts), n)


def cover_range(
    space: RieszSpace, a: RieszElement
) -> tuple[int, int, CoverCertificate]:
    """Integer bounds p < q with the unit class covered by a in (p, q).

    The bounds leave one unit of slack on each side, so the interval
    depth is at least one everywhere and multiplier 1 certifies it.
    """
    q = space.unit_bound(a) + 1
    p = -(space.unit_bound(space.negate(a)) + 1)
    piece = space.in_interval(a, Fraction(p), Fraction(q))
    cert = CoverCertificate(space, space.unit(), (piece,), 1)
    if not cert.verify():
        raise CertificateError("range cover failed to verify")
    return p, q, cert


def grid_cells(
    space: RieszSpace,
    a: RieszElement,
    p: Rational,
    q: Rational,
    width: Rational,
) -> tuple[list[RatInterval], list[RieszElement]]:
    """The half overlapping width cells of (p, q) that may hold a value of a.

    Only the cells of the integer-index grid that meet one of a's value
    ranges are built; every other cell is <= 0 everywhere.
    """
    p, q, width = Fraction(p), Fraction(q), Fraction(width)
    ranges = space.value_ranges(a, None, width / 4)
    den, found = interval_grid_window(p, q, width, ranges)
    grid = [RatInterval(Fraction(lo, den), Fraction(hi, den)) for _, lo, hi in found]
    return grid, [space.in_interval(a, iv.lo, iv.hi) for iv in grid]


def cover_interval(
    space: RieszSpace,
    a: RieszElement,
    p: Rational,
    q: Rational,
    width: Rational,
) -> tuple[list[RatInterval], list[RieszElement], RieszElement, CoverCertificate]:
    """Cover the class of a in (p, q) by the grid cells of a.

    Returns the grid, the cells, their join J and the certificate.  One
    order test on pos(J) proves the cover, so a range that misses a
    positive cell fails closed with CertificateError.  An empty cover
    joins to 0.  J is what shrink_cover takes.
    """
    grid, cells = grid_cells(space, a, p, q, width)
    joined = join_all(space, cells) if cells else space.zero()
    cert = certify_cover(space, space.in_interval(a, p, q), cells, joined)
    return grid, cells, joined, cert


@dataclass(frozen=True)
class ShrinkResult:
    """Cells lowered by r while still covering the unit class.

    r and multiplier are what shrink_cover proved.  The lowered cells
    (parts) and their certificate (cert) are built when first read:
    nets read only r and multiplier.
    """

    r: Fraction
    multiplier: int
    space: RieszSpace
    cells: tuple[RieszElement, ...]

    @cached_property
    def parts(self) -> tuple[RieszElement, ...]:
        space = self.space
        down = space.scale(-self.r, space.unit())
        return tuple(space.add(b, down) for b in self.cells)

    @cached_property
    def cert(self) -> CoverCertificate:
        return CoverCertificate(self.space, self.space.unit(), self.parts, self.multiplier)


def shrink_cover(
    space: RieszSpace, cells: Sequence[RieszElement], joined: RieszElement
) -> ShrinkResult:
    """Lower every cell by r > 0 with the unit class still covered.

    joined is J, the join of the cells.  From the multiplier N that
    precedes verifies for 1 <= N * pos(J), rounded up to a power of two n,
    J is at least 1/n; lowering by r = 1/(2n) keeps it at least 1/(2n).
    The shrunk claim is the one order test 1 <= 2n * pos(J - r), where
    pos(J - r) is the join of the lowered cells' positive parts, so the
    certificate on the lowered cells verifies; no cell is lowered until
    the result's parts are read.  CertificateError
    when the cells do not cover the unit class or the lowered cover fails
    that test.
    """
    if not cells:
        raise CertificateError("an empty cover admits no shrink")
    unit = space.unit()
    n0 = precedes(space, unit, _pos(space, joined))
    if n0 is None:
        raise CertificateError("cells do not cover the unit class")
    n = 1
    while n < n0:
        n *= 2
    r = Fraction(1, 2 * n)
    lowered = _pos(space, space.add(joined, space.scale(-r, unit)))
    if space.leq(unit, space.scale(2 * n, lowered)) is not True:
        raise CertificateError("shrunken cover failed to verify")
    return ShrinkResult(r, 2 * n, space, tuple(cells))


def prune_cover(
    space: RieszSpace,
    cells: Sequence[RieszElement],
    r: Rational,
) -> list[tuple[int, Pos]]:
    """(index, answer) of the cells whose positivity at level r is certified.

    Cells answering Below are at most r and can be dropped from a cover
    shrunk by r without losing any covered point.  The Pos answer of each
    kept cell is returned with it, so a caller asking the same question
    again can reuse it.
    """
    from .spectrum import Pos, pos_or_below

    kept = []
    for k, cell in enumerate(cells):
        t = pos_or_below(space, cell, r)
        if isinstance(t, Pos):
            kept.append((k, t))
    return kept
