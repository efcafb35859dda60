"""Lattice of positive classes and certified covers.

Every element a determines a positivity class, the class of its
positive part under the dominance preorder: x is dominated by y when
x <= n * y for some natural n.  Classes form a distributive lattice
whose joins and meets are computed on representatives.  All cover
claims made here are backed by explicit dominance certificates that can
be re-verified with a single order test.

Net covers are proved by arithmetic in one variable, with no join.  The
cells of a's cover are c_k = in_interval(a, lo_k, hi_k) = (a - lo_k) /\
(hi_k - a), so under every representation their join J takes the value
phi(a), where phi(t) = max_k min(t - lo_k, hi_k - t): J = phi(a)
pointwise.  On S = union of [lo_k + 1/n, hi_k - 1/n] every t lies at
depth >= 1/n in some cell, so phi >= 1/n there.  The order tests
min(S) * 1 <= a, a <= max(S) * 1 and in_interval(a, g, h) <= 0 for each
gap (g, h) between the components of S put every value of a in S, hence
J >= 1/n: that proves 1 <= n * pos(J), and with r = 1/(2n) also
J - r >= 1/(2n), that is 1 <= 2n * pos(J - r).  a's value ranges only
choose n, as the power of two at or above 1/min phi over them; a range
that misses a value of a makes an order test fail closed.

Nets hand the cells over as integer grid cells (k, lo, hi) over one
denominator, as ``exact.interval_grid_window`` returns them:
shrink_cells proves r on them as they are, and prune_cover decides each
one on the space's cell_sups, so neither builds a cell element on Qn or
PL.

:meth:`CoverCertificate.verify` is the independent re-check: it joins
the positive parts of its own parts, which by distributivity is pos(J),
or pos(J - r) for the lowered cells, and replays one order test.  The
CLI replay and ``selftest`` use it; the grid multiplier that
``check-lattice`` prints still comes from a join (cover_interval).
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
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
    "shrink_cells",
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

    The bounds leave one unit of slack on each side: the order tests
    a <= (q - 1) * 1 and (p + 1) * 1 <= a put a's values in [p + 1, q - 1],
    so the interval depth is at least one everywhere and multiplier 1
    certifies the cover; verify replays that claim with a join.
    """
    q = space.unit_bound(a) + 1
    p = -(space.unit_bound(space.negate(a)) + 1)
    unit = space.unit()
    if not (
        space.leq(a, space.scale(Fraction(q - 1), unit)) is True
        and space.leq(space.scale(Fraction(p + 1), unit), a) is True
    ):
        raise CertificateError("range cover failed to verify")
    piece = space.in_interval(a, Fraction(p), Fraction(q))
    return p, q, CoverCertificate(space, unit, (piece,), 1)


def grid_cells(
    space: RieszSpace,
    a: RieszElement,
    p: Rational,
    q: Rational,
    width: Rational,
    ranges: Sequence[tuple[Fraction, Fraction]] | None = None,
) -> tuple[list[RatInterval], list[RieszElement]]:
    """The half overlapping width cells of (p, q) that may hold a value of a.

    Only the cells of the integer-index grid that meet one of a's value
    ranges are built; every other cell is <= 0 everywhere.  ranges are
    a's value ranges at width/4, read from the space when not given.
    """
    p, q, width = Fraction(p), Fraction(q), Fraction(width)
    if ranges is None:
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
) -> tuple[
    list[RatInterval],
    list[RieszElement],
    list[tuple[Fraction, Fraction]],
    CoverCertificate,
]:
    """Cover the class of a in (p, q) by the grid cells of a.

    Returns the grid, the cells, the value ranges the cells were drawn
    from (what shrink_cover takes) and the certificate.  One order test
    on pos(J), J the join of the cells, proves the cover, so a range that
    misses a positive cell fails closed with CertificateError.  An empty
    cover joins to 0.
    """
    ranges = space.value_ranges(a, None, Fraction(width) / 4)
    grid, cells = grid_cells(space, a, p, q, width, ranges)
    joined = join_all(space, cells) if cells else space.zero()
    cert = certify_cover(space, space.in_interval(a, p, q), cells, joined)
    return grid, cells, ranges, cert


@dataclass(frozen=True)
class ShrinkResult:
    """Cells lowered by r while still covering the unit class.

    r and multiplier are what shrink_cover proved.  The lowered cells
    (parts) and their certificate (cert) are built when first read:
    nets read only r and multiplier, and cert.verify() is the join-based
    re-check of the claim.
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


def _profile_min(
    los: Sequence[int], his: Sequence[int], ranges: Sequence[tuple[int, int]]
) -> int:
    """min over the ranges of phi(t) = max_k min(t - lo_k, hi_k - t), or 0
    when some range point lies in no cell (phi <= 0 there) or there is no
    range.

    All values are integers on one scale.  Cell k is the open (lo_k, hi_k);
    los and his are both nondecreasing, and every valley (lo_{k+1} + hi_k)/2
    is an integer.  The minimum over a closed range [u, v] is attained at
    u, at v or at a valley inside it: for any t in [u, v] with phi(t) = m,
    let i be the last cell with lo_i < t - m, so hi_i <= t + m and every
    later cell has lo >= t - m; then phi <= (hi_i - lo_{i+1})/2 <= m at the
    valley of (i, i+1), and when that valley lies outside [u, v], or i or
    i + 1 does not exist, phi <= m at the nearer range end.  The cells
    holding t are those with hi > t and lo < t, an index interval found by
    bisection; on a half overlapping grid it has at most two cells.
    """
    valleys = [(los[k + 1] + his[k]) // 2 for k in range(len(los) - 1)]

    def phi(t: int) -> int:
        ks = range(bisect_right(his, t), bisect_left(los, t))
        return max((min(t - los[k], his[k] - t) for k in ks), default=0)

    def candidates():
        for u, v in ranges:
            yield u
            yield v
            yield from valleys[bisect_left(valleys, u):bisect_right(valleys, v)]

    return min(map(phi, candidates()), default=0)


def shrink_cells(
    space: RieszSpace,
    a: RieszElement,
    den: int,
    cells: Sequence[tuple[int, int, int]],
    ranges: Sequence[tuple[Fraction, Fraction]],
) -> tuple[Fraction, int]:
    """(r, multiplier): the cells in_interval(a, lo/den, hi/den) of the
    integer grid cells (k, lo, hi) lowered by r > 0 still cover the unit
    class, proved with no cell built and no join.

    m is the minimum of phi over a's value ranges (module docstring), in
    integers over one denominator; n is the least power of two >= 1/m, so
    r = 1/(2n) and the multiplier is 2n, the values a join-based search
    gets wherever the instance's dominance ceiling is exact.  The order
    tests of the module docstring prove the claim 1 <= 2n * pos(J - r);
    ranges that miss a value of a fail one of them.  CertificateError when
    m <= 0 or a test fails, and ToleranceError for an element with an
    error radius, whose lowered cover the join in verify cannot re-check.
    """
    if not cells:
        raise CertificateError("an empty cover admits no shrink")
    space.require_exact(a)
    s = 2 * lcm(den, *(v.denominator for rng in ranges for v in rng))
    f = s // den
    los = [lo * f for _, lo, _ in cells]
    his = [hi * f for _, _, hi in cells]
    m = _profile_min(
        los, his,
        [(u.numerator * (s // u.denominator), v.numerator * (s // v.denominator))
         for u, v in ranges],
    )
    if m <= 0:
        raise CertificateError("cells do not cover the unit class")
    # the least power of two n >= ceil(s/m), m being over s
    n = 1 << (-(-s // m) - 1).bit_length()
    # S over s * n: each cell shrunk by 1/n, merged into closed components;
    # every range point lies at depth >= m >= 1/n in a cell, so S is not empty
    comps: list[list[int]] = []
    for lo, hi in zip(los, his):
        lo, hi = lo * n + s, hi * n - s
        if lo > hi:
            continue
        if comps and lo <= comps[-1][1]:
            comps[-1][1] = max(comps[-1][1], hi)
        else:
            comps.append([lo, hi])
    sn = s * n
    unit, zero = space.unit(), space.zero()
    covered = (
        space.leq(space.scale(Fraction(comps[0][0], sn), unit), a) is True
        and space.leq(a, space.scale(Fraction(comps[-1][1], sn), unit)) is True
        and all(
            space.leq(space.in_interval(a, Fraction(g, sn), Fraction(h, sn)), zero) is True
            for (_, g), (h, _) in zip(comps, comps[1:])
        )
    )
    if not covered:
        raise CertificateError("shrunken cover failed to verify")
    return Fraction(1, 2 * n), 2 * n


def shrink_cover(
    space: RieszSpace,
    a: RieszElement,
    grid: Sequence[RatInterval],
    cells: Sequence[RieszElement],
    ranges: Sequence[tuple[Fraction, Fraction]],
) -> ShrinkResult:
    """Lower the cells in_interval(a, lo_k, hi_k) of the grid by r > 0 with
    the unit class still covered, with no join.

    The grid is put over one integer denominator and shrink_cells proves
    r and the multiplier.  No cell is lowered until the result's parts are
    read.
    """
    den = lcm(*(v.denominator for iv in grid for v in (iv.lo, iv.hi)))
    ints = [
        (k, iv.lo.numerator * (den // iv.lo.denominator),
         iv.hi.numerator * (den // iv.hi.denominator))
        for k, iv in enumerate(grid)
    ]
    r, multiplier = shrink_cells(space, a, den, ints, ranges)
    return ShrinkResult(r, multiplier, space, tuple(cells))


def prune_cover(
    space: RieszSpace,
    cells: Sequence,
    r: Rational,
    a: RieszElement | None = None,
    den: int = 1,
) -> list[tuple[int, Pos]]:
    """(index, answer) of the cells whose positivity at level r is certified.

    Each cell is decided by pos_or_below's rule on its supremum read at
    r/4.  cells are elements, each asked one cut query; or, when a is
    given, a's integer grid cells (k, lo, hi) over den, the elements
    in_interval(a, lo/den, hi/den), whose readings space.cell_sups gives
    without building them where it can.  Cells answering Below are at
    most r and can be dropped from a cover shrunk by r without losing any
    covered point.  The Pos answer of each kept cell is returned with it,
    so a caller asking the same question again can reuse it.
    """
    from .spectrum import Pos, pos_or_below_at

    r = Fraction(r)
    if a is None:
        sups = [space.sup_cut(c).approx(r / 4) for c in cells]
    else:
        sups = space.cell_sups(a, den, cells, r / 4)
    kept = []
    for k, s in enumerate(sups):
        t = pos_or_below_at(s, r)
        if isinstance(t, Pos):
            kept.append((k, t))
    return kept
