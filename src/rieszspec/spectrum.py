"""Points of the spectrum as refinable interval filters.

A point of the spectrum is approached through finite data: a list of
constraints "element e lies in the open interval I" whose meet has a
certified positive supremum, the margin.  Evaluating a new element b at
such a point lays an overlapping dyadic grid over the certified range
of b, asks for the supremum of the current meet intersected with each
candidate cell, and keeps the cell with the largest answer (lowest index
on ties).  Candidates are found by arithmetic on grid indices: the cells
that meet the window left by earlier evaluations of b and one of b's
value ranges where the meet is positive.  They stay integer ends over one
denominator; a candidate whose bound from those ranges (half width minus
the distance from its midpoint to the nearest range) is at or under the
incumbent's answer gets no cut query, and only a queried cell is built
as an interval and an interval element.  The chosen interval's midpoint
is the evaluation; the margin shrinks by at most the query precision and
stays positive, which is what keeps the filter consistent and the future
choices sound.

Nets: for a finite family and a resolution, each element's certified
range is covered by the overlapping grid cells that meet one of its
value ranges (the rest are <= 0 everywhere), the cover is shrunk by a
positive r and pruned, and joint cells that keep a positive meet become
points.  The cells stay integer ends over one denominator.  The range
and the shrink are proved by order tests on the element itself, with r
read off the one-variable profile of its cells (lattice module
docstring): the net path joins no cell.  The pruning decides each cell
on the space's cell_sups, which Qn and PL compute from the element's
exact image without building the cell.  A first cell alone is decided
once, by the pruning, whenever the pruning ran at the joint r; its
witness is then the point's margin.  So a one-element net on Qn or PL
builds no cell element: each point builds its one cell, as its meet,
when the meet is first read.  A family of several elements builds each
kept cell once, when a meet first needs it, and the net hands each point
the meet it certified.  Each point keeps the certified range of every
family member, so evaluating a member proves no range again.  Every
representation of the space then agrees with some net point to within
the resolution on every family member.  The norm audit reads each point's window for the element
before it evaluates anything: the window bounds the point's value, so the
audit evaluates points by descending bound and stops once no bound can
beat the maximum found.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .exact import RatInterval, cell_bounds, interval_grid_window
from .lattice import cover_range, prune_cover, shrink_cells
from .riesz import (
    MarginCollapseError,
    Rational,
    RieszElement,
    RieszSpace,
    norm_cut,
)

__all__ = [
    "Pos",
    "Below",
    "pos_or_below",
    "pos_or_below_at",
    "sup_approx",
    "PointState",
    "point_new",
    "SpectrumNet",
    "epsilon_net",
    "StoneYosidaReport",
    "stone_yosida_check",
]


@dataclass(frozen=True)
class Pos:
    """Certified: the supremum exceeds the (positive) witness."""

    witness: Fraction


@dataclass(frozen=True)
class Below:
    """Certified: the element is at most the bound."""

    bound: Fraction


def pos_or_below(space: RieszSpace, a: RieszElement, r: Rational) -> Pos | Below:
    """Decide between sup(a) > r/4 and a <= r/2 with one cut query at r/4."""
    r = Fraction(r)
    if r <= 0:
        raise ValueError("r must be positive")
    return pos_or_below_at(space.sup_cut(a).approx(r / 4), r)


def pos_or_below_at(s: Fraction, r: Fraction) -> Pos | Below:
    """pos_or_below's answer from s, its cut query's reading at r/4.

    s - r/4 < sup(a) <= s, so s > r/2 certifies sup(a) > s - r/4 > r/4,
    and otherwise a <= s <= r/2.
    """
    if s > r / 2:
        return Pos(s - r / 4)
    return Below(s)


def sup_approx(space: RieszSpace, a: RieszElement, eps: Rational) -> Fraction:
    """Locate sup(a) within eps using only positivity decisions.

    Bisection on the threshold q: a Pos answer for a - q pushes the
    lower end up, a Below answer caps the supremum at q plus the
    certified bound.  Independent of the instance's own cut machinery,
    which makes it a useful cross check.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    unit = space.unit()
    hi = Fraction(space.unit_bound(a))
    lo = -Fraction(space.unit_bound(space.negate(a))) - 1
    while hi - lo > eps:
        q = (lo + hi) / 2
        t = pos_or_below(space, space.add(a, space.scale(-q, unit)), eps / 2)
        if isinstance(t, Pos):
            lo = q
        else:
            hi = q + t.bound
    return hi


def _dyadic_level(eps: Fraction) -> int:
    """The least level >= 0 with 2^-level <= eps, for positive eps.

    2^level >= 1/eps = d/n holds exactly when 2^level >= c = ceil(d/n),
    and the least such level is the bit length of c - 1.
    """
    n, d = eps.numerator, eps.denominator
    return (-(-d // n) - 1).bit_length()


def _constraint_meet(
    space: RieszSpace, constraints: Sequence[tuple[RieszElement, Fraction, Fraction]]
) -> RieszElement:
    """Meet of the interval elements of the constraints, folded left."""
    m = None
    for e, lo, hi in constraints:
        cell = space.in_interval(e, lo, hi)
        m = cell if m is None else space.meet(m, cell)
    if m is None:
        raise ValueError("a point needs at least one constraint")
    return m


class PointState:
    """A spectrum point under refinement; not safe for concurrent use.

    meet is the meet of the constraints' interval elements, the element
    whose supremum certified the margin.  point_new and a net of several
    elements hand it over; a point of a one-element net builds it from its
    one constraint when it is first read.  eval replaces it with the meet
    that certified the new margin.
    """

    def __init__(
        self,
        space: RieszSpace,
        constraints: Sequence[tuple[RieszElement, Fraction, Fraction]],
        margin: Fraction,
        meet: RieszElement | None = None,
        ident: int = 0,
        ranges: Mapping[RieszElement, tuple[int, int]] | None = None,
    ) -> None:
        if margin <= 0:
            raise MarginCollapseError(f"initial margin {margin} is not positive")
        self.space = space
        self.constraints = list(constraints)
        self.margin = Fraction(margin)
        self.ident = ident
        self._meet = meet
        self._evals: dict[tuple[RieszElement, int], Fraction] = {}
        # certified integer bounds (p, q) of evaluated elements, per point
        self._ranges: dict[RieszElement, tuple[int, int]] = dict(ranges or {})

    @property
    def meet(self) -> RieszElement:
        if self._meet is None:
            self._meet = _constraint_meet(self.space, self.constraints)
        return self._meet

    def _window(self, b: RieszElement) -> tuple[int, int, Fraction, Fraction]:
        """(p, q, lo, hi): b's certified integer range (p, q), proved once
        per point, and the window (lo, hi) that earlier evaluations of b
        pin it to, (p, q) cut down by every constraint on b.

        Every value eval(b, eps) returns, cached or new, is the midpoint of
        a grid cell at most w = 2^-level wide (level as in eval) that meets
        the window, so it lies strictly inside (lo - w/2, hi + w/2).
        """
        rng = self._ranges.get(b)
        if rng is None:
            p, q, _ = cover_range(self.space, b)
            self._ranges[b] = (p, q)
        else:
            p, q = rng
        lo, hi = Fraction(p), Fraction(q)
        for e, lo2, hi2 in self.constraints:
            if e == b:
                lo, hi = max(lo, lo2), min(hi, hi2)
        return p, q, lo, hi

    def eval(self, b: RieszElement, eps: Rational) -> Fraction:
        """Value of b at this point within eps; narrows the filter.

        The winning cell is the candidate with the largest supremum of
        (current meet) /\\ (b in cell) at precision min(margin, w/2)/8,
        ties resolved toward the lowest cell index.  Candidates whose
        bound from b's value ranges on the meet (``exact.cell_bounds``) is at
        or under the incumbent's answer are skipped without a cut query,
        and only the queried cells are built.
        """
        eps = Fraction(eps)
        if eps <= 0:
            raise ValueError("eps must be positive")
        level = _dyadic_level(eps)
        key = (b, level)
        cached = self._evals.get(key)
        if cached is not None:
            return cached
        space = self.space
        w = Fraction(1, 1 << level)
        # only cells meeting the window and one of b's value ranges on the
        # meet can win
        p, q, wlo, whi = self._window(b)
        meet_cur = self.meet
        ranges: list[tuple[Fraction, Fraction]] = []
        den, cells = 1, []
        if wlo < whi:
            ranges = space.value_ranges(b, meet_cur, w / 4)
            den, cells = interval_grid_window(p, q, w, ranges, (wlo, whi))
        s, bounds = cell_bounds(ranges, den, cells)
        delta = min(self.margin, w / 2) / 8
        best_k: int | None = None
        best_iv: RatInterval | None = None
        best_mu: Fraction | None = None
        best_meet: RieszElement | None = None
        for (k, lo, hi), cheap in zip(cells, bounds):
            # cells come in increasing index order, so k exceeds best_k and
            # (cheap, -k) <= (best_mu, -best_k) exactly when cheap <= best_mu
            if best_mu is not None and (
                cheap <= 0 or cheap * best_mu.denominator <= best_mu.numerator * s
            ):
                continue
            iv = RatInterval(Fraction(lo, den), Fraction(hi, den))
            met = space.meet(meet_cur, space.in_interval(b, iv.lo, iv.hi))
            mu = space.sup_cut(met).approx(delta)
            if best_mu is None or (mu, -k) > (best_mu, -best_k):
                best_mu, best_k, best_iv, best_meet = mu, k, iv, met
        if best_iv is None or best_mu - delta <= 0:
            raise MarginCollapseError(
                f"no cell kept a positive margin while evaluating at level {level}"
            )
        iv = best_iv
        self.constraints.append((b, iv.lo, iv.hi))
        self._meet = best_meet
        self.margin = best_mu - delta
        val = iv.midpoint
        self._evals[key] = val
        return val


def point_new(
    space: RieszSpace,
    constraints: Sequence[tuple[RieszElement, Rational, Rational]],
    ident: int = 0,
    floor: Rational | None = None,
) -> PointState:
    """Start a point from interval constraints, certifying its margin.

    The margin is the supremum of the constraints' meet read at delta,
    less delta.  delta starts at an eighth of the narrowest constraint and,
    on a miss, is halved while it stays at or above floor (no halving when
    floor is None), one cut query each; MarginCollapseError when no delta
    leaves a positive margin.  A delta under the meet's supremum always
    does, and the last delta tried is under twice the floor, so a floor
    at most half that supremum always certifies the point.
    """
    cs = [(e, Fraction(lo), Fraction(hi)) for e, lo, hi in constraints]
    m = _constraint_meet(space, cs)
    cut = space.sup_cut(m)
    delta = min(hi - lo for _, lo, hi in cs) / 8
    stop = delta if floor is None else min(delta, Fraction(floor))
    while True:
        margin = cut.approx(delta) - delta
        if margin > 0:
            return PointState(space, cs, margin, m, ident)
        delta /= 2
        if delta < stop:
            raise MarginCollapseError("constraints do not certify a point")


@dataclass(frozen=True)
class SpectrumNet:
    """Points approximating every representation on a finite family."""

    space: RieszSpace
    elements: tuple[RieszElement, ...]
    eps: Fraction
    resolution: Fraction
    points: tuple[PointState, ...]
    shrink_info: tuple[tuple[Fraction, int], ...]


def epsilon_net(
    space: RieszSpace,
    elements: Sequence[RieszElement],
    eps: Rational,
) -> SpectrumNet:
    """Cover, shrink, prune, and combine per element cells into points.

    Per element the certified range is covered by half overlapping cells
    of dyadic width at most eps, kept as integer ends over one
    denominator; the cover is lowered by a positive r while still
    covering the unit class (shrink_cells), and cells certified at most r
    are discarded (prune_cover on the space's cell_sups).  Joint points
    then come from a depth first product of the surviving cells, keeping
    a tuple only while the meet of its cells stays certifiably positive.
    A kept cell is built as an element only when such a meet needs it,
    once; a one-element net builds none of its own, and each point builds
    its cell as its meet when that is first read.  Every representation ends up
    within the resolution of some point on every family member.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not elements:
        raise ValueError("net needs at least one element")
    w = Fraction(1, 1 << _dyadic_level(eps))

    # per element, its kept cells as (lo, hi, Pos answer at its own r)
    per_elem: list[list[tuple[Fraction, Fraction, Pos]]] = []
    shrink_info: list[tuple[Fraction, int]] = []
    ranges: dict[RieszElement, tuple[int, int]] = {}
    for e in elements:
        p, q, _ = cover_range(space, e)
        ranges[e] = (p, q)
        values = space.value_ranges(e, None, w / 4)
        den, cells = interval_grid_window(Fraction(p), Fraction(q), w, values)
        r, multiplier = shrink_cells(space, e, den, cells, values)
        kept = prune_cover(space, cells, r, e, den)
        per_elem.append(
            [(Fraction(cells[i][1], den), Fraction(cells[i][2], den), t) for i, t in kept]
        )
        shrink_info.append((r, multiplier))
    r_joint = min(r for r, _ in shrink_info)
    # a first cell alone is the meet prune_cover already decided at the
    # first element's r; when that r is r_joint, its answer is reused
    reuse = shrink_info[0][0] == r_joint
    # kept cells, each built once, when a meet first needs it
    built: list[list[RieszElement | None]] = [[None] * len(cs) for cs in per_elem]

    def cell(i: int, j: int) -> RieszElement:
        c = built[i][j]
        if c is None:
            lo, hi, _ = per_elem[i][j]
            c = built[i][j] = space.in_interval(elements[i], lo, hi)
        return c

    points: list[PointState] = []

    def extend(
        i: int, meet: RieszElement | None, t: Pos | Below, chosen: list[int]
    ) -> None:
        if isinstance(t, Below):
            return
        if i == len(elements):
            cs = [(elements[k], *per_elem[k][j][:2]) for k, j in enumerate(chosen)]
            points.append(
                PointState(space, cs, t.witness, meet, ident=len(points), ranges=ranges)
            )
            return
        for j in range(len(per_elem[i])):
            nxt = space.meet(meet, cell(i, j))
            chosen.append(j)
            extend(i + 1, nxt, pos_or_below(space, nxt, r_joint), chosen)
            chosen.pop()

    for j, (_, _, t) in enumerate(per_elem[0]):
        if len(elements) == 1:
            # the point builds its one cell as its meet if it is evaluated
            extend(1, None, t, [j])
        else:
            first = cell(0, j)
            extend(1, first, t if reuse else pos_or_below(space, first, r_joint), [j])
    return SpectrumNet(
        space=space,
        elements=tuple(elements),
        eps=eps,
        resolution=w,
        points=tuple(points),
        shrink_info=tuple(shrink_info),
    )


@dataclass(frozen=True)
class StoneYosidaReport:
    """Norm of an element versus its largest net evaluation."""

    norm_value: Fraction
    net_value: Fraction
    points: int
    eps: Fraction
    bound: Fraction
    ok: bool


def stone_yosida_check(
    space: RieszSpace,
    a: RieszElement,
    eps: Rational,
    net: SpectrumNet | None = None,
) -> StoneYosidaReport:
    """Compare the unit norm of a with its maximum over a net.

    The norm query is eps/2 accurate, each point evaluation eps/4, and
    the net resolution is eps, so the two readings of sup |value| can
    differ by less than 2 * eps.

    The maximum is found by branch and bound.  A point's evaluation at
    eps/4 is the midpoint of a cell at most w = 2^-level wide that meets
    the point's window (lo, hi) for a, so its absolute value is under
    B = max(|lo|, |hi|) + w/2.  Points are visited by descending B (net
    order on ties), and the visit stops at the first point whose B is at
    most the running maximum: no later point can raise it, so net_value
    is the maximum over every point.  A net passed in by the caller is
    read the same way: the points the audit skips are left unevaluated,
    so their constraints on a are not narrowed, while the points it
    visits are refined as eval refines them.
    """
    eps = Fraction(eps)
    if net is None:
        net = epsilon_net(space, [a], eps)
    norm_value = norm_cut(a).approx(eps / 2)
    half = Fraction(1, 2 << _dyadic_level(eps / 4))  # w/2
    tops = []
    for pt in net.points:
        _, _, lo, hi = pt._window(a)
        tops.append((max(abs(lo), abs(hi)) + half, pt))
    net_value = Fraction(0)
    for top, pt in sorted(tops, key=lambda t: t[0], reverse=True):
        if top <= net_value:
            break
        net_value = max(net_value, abs(pt.eval(a, eps / 4)))
    bound = 2 * eps
    return StoneYosidaReport(
        norm_value=norm_value,
        net_value=net_value,
        points=len(net.points),
        eps=eps,
        bound=bound,
        ok=abs(norm_value - net_value) < bound,
    )
