"""Built-in invariant suites, runnable from the command line.

``run("quick")`` exercises the fast exact-instance laws and a handful of
matrix certificates; ``run("full")`` adds net construction, norm
comparisons and the multiplicativity audit.  Every check returns a
structured record so reports stay machine readable; any failed record
makes the whole run fail.
"""
from __future__ import annotations

import random
import sys
from fractions import Fraction
from typing import Callable

from .exact import RatInterval, RationalMatrix, interval_grid_window, psd_check
from .falgebra import gelfand_check, product_positive, sqrt_psd, sum_of_squares
from .instances import HermSpace, PLSpace, QnSpace
from .lattice import cover_interval, cover_range, d_of, precedes, shrink_cover
from .riesz import RieszSpace, decompose, norm_cut
from .sampling import rand_diagonal_family, rand_pl, rand_qn, rand_rational
from .spectrum import Below, Pos, epsilon_net, pos_or_below, stone_yosida_check, sup_approx

__all__ = ["run", "CHECKS_QUICK", "CHECKS_FULL"]

F = Fraction


def _check_exact_kernel() -> str | None:
    # width 1/2 over (0, 1): cells (0, 1/2), (1/4, 3/4), (1/2, 1), over 4
    full = [(F(0), F(1))]
    if interval_grid_window(F(0), F(1), F(1, 2), full) != (4, [(0, 0, 2), (1, 1, 3), (2, 2, 4)]):
        return "grid window"
    if interval_grid_window(F(0), F(1), F(1, 2), full, (F(3, 4), F(1))) != (4, [(2, 2, 4)]):
        return "grid window clipped"
    if not psd_check(RationalMatrix.from_rows([[2, 1], [1, 2]])):
        return "psd accept"
    if psd_check(RationalMatrix.from_rows([[1, 2], [2, 1]])):
        return "psd reject"
    return None


def _check_cell_sups() -> str | None:
    # every cell of the full grid, so some miss the image and some sit at
    # its ends; the instance's exact sups against the default route
    rng = random.Random(10)
    qn, pl = QnSpace(3), PLSpace()
    for space, a in ((qn, rand_qn(qn, rng)), (pl, rand_pl(pl, rng, 6))):
        p, q, _ = cover_range(space, a)
        den, cells = interval_grid_window(F(p), F(q), F(1, 8), [(F(p), F(q))])
        got = space.cell_sups(a, den, cells, F(1, 32))
        if got != RieszSpace.cell_sups(space, a, den, cells, F(1, 32)):
            return f"{space!r} cell sups differ from the cut route"
    return None


def _lattice_relations(space, pairs) -> str | None:
    unit = d_of(space, space.unit())
    if not unit.is_top():
        return "D(1) = 1"
    for a, b in pairs:
        da, db = d_of(space, a), d_of(space, b)
        neg = d_of(space, space.negate(a))
        if space.leq(a, space.zero()) is True and not da.is_bottom():
            return "D(a) = 0 for a <= 0"
        if not da.meet(neg).is_bottom():
            return "D(a) /\\ D(-a) = 0"
        if not d_of(space, space.add(a, b)).below(da.join(db)):
            return "D(a+b) <= D(a) \\/ D(b)"
        dj = d_of(space, space.join(a, b))
        if not (dj.below(da.join(db)) and da.join(db).below(dj)):
            return "D(a \\/ b) = D(a) \\/ D(b)"
    return None


def _check_lattice_qn() -> str | None:
    rng = random.Random(11)
    space = QnSpace(3)
    pairs = [(rand_qn(space, rng), rand_qn(space, rng)) for _ in range(40)]
    return _lattice_relations(space, pairs)


def _check_lattice_pl() -> str | None:
    rng = random.Random(12)
    space = PLSpace()
    pairs = [(rand_pl(space, rng, 8), rand_pl(space, rng, 8)) for _ in range(25)]
    return _lattice_relations(space, pairs)


def _check_covers() -> str | None:
    rng = random.Random(13)
    space = QnSpace(3)
    for _ in range(10):
        a = rand_qn(space, rng)
        p, q, cert = cover_range(space, a)
        if not cert.verify():
            return "range certificate"
        grid, cells, ranges, cov = cover_interval(space, a, F(p), F(q), F(1, 2))
        if not cov.verify():
            return "grid certificate"
        shrunk = shrink_cover(space, a, grid, cells, ranges)
        if not shrunk.cert.verify():
            return "shrink certificate"
    # the cells (1, 0, 0) and (0, 1, 1) of a = (0, 1, 1) on (-1, 1) and (0, 2)
    a = space.element([0, 1, 1])
    grid = [RatInterval(F(-1), F(1)), RatInterval(F(0), F(2))]
    two = [space.in_interval(a, iv.lo, iv.hi) for iv in grid]
    if shrink_cover(space, a, grid, two, space.value_ranges(a)).r != F(1, 2):
        return "shrink r on a unit cover"
    return None


def _check_pos_trichotomy() -> str | None:
    rng = random.Random(14)
    space = QnSpace(4)
    for _ in range(60):
        a = rand_qn(space, rng)
        r = F(1, rng.choice([1, 2, 4, 8]))
        out = pos_or_below(space, a, r)
        native = max(a.coords)
        if isinstance(out, Pos):
            if not (0 < out.witness <= native):
                return f"pos witness {out.witness} vs sup {native}"
        else:
            if space.leq(a, space.scale(out.bound, space.unit())) is not True:
                return "below bound not an upper bound"
            if out.bound > r / 2:
                return "below bound above r/2"
    return None


def _check_decompose() -> str | None:
    space = QnSpace(2)
    a = space.element([1, -2])
    pos, neg, absval = decompose(a)
    if pos.coords != (F(1), F(0)) or neg.coords != (F(0), F(2)):
        return "positive/negative parts"
    if absval.coords != (F(1), F(2)):
        return "absolute value"
    return None


def _check_sqrt_exact() -> str | None:
    space = HermSpace([RationalMatrix.from_rows([[4]])])
    s, trace = sqrt_psd(space.element([[4]]), F(1, 1024))
    if s.matrix.entries != ((F(2),),):
        return f"sqrt of [[4]] returned {s.matrix.entries}"
    diag = RationalMatrix.diagonal([F(1), F(4)])
    space2 = HermSpace([diag])
    s2, _ = sqrt_psd(space2.element(diag), F(1, 1024))
    want = RationalMatrix.diagonal([F(1), F(2)])
    gap = s2.matrix - want
    if any(abs(gap.entries[i][i]) > F(1, 1024) for i in range(2)):
        return "sqrt of diag(1,4) off by more than tol"
    if trace.certified_residual is None:
        return "missing residual certificate"
    return None


def _check_sum_of_squares() -> str | None:
    space = HermSpace([RationalMatrix.from_rows([[F(1, 2)]])])
    out = sum_of_squares(space.element([[F(1, 2)]]), F(1, 8))
    got = [p.matrix.entries[0][0] for p in out.parts[:3]]
    if got != [F(1, 2), F(1, 4), F(3, 16)]:
        return f"iterate prefix {got}"
    total = sum(p.matrix.entries[0][0] ** 2 for p in out.parts)
    if total + out.remainder.matrix.entries[0][0] != F(1, 2):
        return "prefix identity"
    # a generic 2x2 runs the kernel on every entry; RationalMatrix
    # arithmetic re-derives the iterates and the identity
    a = RationalMatrix.from_rows([[F(1, 3), F(1, 5)], [F(1, 5), F(1, 2)]])
    out = sum_of_squares(HermSpace([a]).element(a), F(1, 8))
    m, total = a, RationalMatrix.zeros(2)
    for p in out.parts:
        if p.matrix != m:
            return "2x2 iterate differs from M - M*M"
        total, m = total + m @ m, m - m @ m
    if out.remainder.matrix != m or total + m != a:
        return "2x2 identity"
    return None


def _check_product_positive() -> str | None:
    rng = random.Random(15)
    for _ in range(10):
        fam = rand_diagonal_family(rng, 3, 2)
        space = HermSpace(fam.members)
        a = space.element(fam.members[0])
        b = space.element(fam.members[1])
        if not product_positive(a, b):
            return "positive product rejected"
    return None


def _check_qn_net() -> str | None:
    space = QnSpace(2)
    a = space.element([0, 1])
    net = epsilon_net(space, [a], F(1, 4))
    vals = sorted(pt.eval(a, F(1, 16)) for pt in net.points)
    if not vals or abs(vals[0] - 0) > F(1, 4) or abs(vals[-1] - 1) > F(1, 4):
        return f"net evaluations {vals}"
    return None


def _check_herm_sup() -> str | None:
    m = RationalMatrix.from_rows([[2, 1], [1, 2]])
    space = HermSpace([m])
    s = space.sup_cut(space.element(m)).approx(F(1, 1024))
    if not (F(3) <= s < F(3) + F(1, 1024)):
        return f"sup of [[2,1],[1,2]] was {s}"
    m2 = RationalMatrix.from_rows([[5, 3], [3, 5]])
    space2 = HermSpace([m2])
    nv = norm_cut(space2.element(m2)).approx(F(1, 256))
    if not (F(8) <= nv < F(8) + F(1, 256)):
        return f"norm of [[5,3],[3,5]] was {nv}"
    return None


def _check_sup_cross() -> str | None:
    rng = random.Random(16)
    eps = F(1, 64)
    space = QnSpace(3)
    for _ in range(25):
        a = rand_qn(space, rng)
        if abs(sup_approx(space, a, eps) - max(a.coords)) > eps:
            return "generic sup off on rational tuples"
    pls = PLSpace()
    for _ in range(10):
        f = rand_pl(pls, rng, 6)
        native = pls.sup_cut(f).approx(eps)
        if abs(sup_approx(pls, f, eps) - native) > 2 * eps:
            return "generic sup off on piecewise linear"
    return None


def _check_stone_yosida() -> str | None:
    rng = random.Random(17)
    eps = F(1, 64)
    space = QnSpace(3)
    for _ in range(6):
        rep = stone_yosida_check(space, rand_qn(space, rng), eps)
        if not rep.ok:
            return f"rational tuples: gap {rep.norm_value - rep.net_value}"
    pls = PLSpace()
    for _ in range(4):
        rep = stone_yosida_check(pls, rand_pl(pls, rng, 6), eps)
        if not rep.ok:
            return f"piecewise linear: gap {rep.norm_value - rep.net_value}"
    fam = rand_diagonal_family(rng, 2, 1)
    space3 = HermSpace(fam.members)
    rep = stone_yosida_check(space3, space3.element(fam.members[0]), F(1, 16))
    if not rep.ok:
        return f"matrices: gap {rep.norm_value - rep.net_value}"
    return None


def _check_herm_irrational() -> str | None:
    # characteristic polynomial x^3 - 2x^2 - 3x + 5 is irreducible, so all
    # three characters are irrational: about -1.651, 1.274 and 2.377
    m = RationalMatrix.from_rows([[2, 1, 0], [1, -1, 1], [0, 1, 1]])
    space = HermSpace([m])
    a = space.element(m)
    rep = stone_yosida_check(space, a, F(1, 16))
    if not rep.ok:
        return f"irrational spectrum: gap {rep.norm_value - rep.net_value}"
    one = space.unit()
    above1 = d_of(space, space.add(a, space.negate(one)))
    above2 = d_of(space, space.add(a, space.scale(-2, one)))
    if not above2.below(above1):
        return "D(a - 2) not below D(a - 1)"
    if above1.below(above2):
        return "D(a - 1) below D(a - 2) with an eigenvalue in (1, 2)"
    return None


def _check_deep_join_chain() -> str | None:
    # a left-folded join chain deeper than the interpreter's recursion
    # limit: nets and points key their state by element, so hashing and
    # evaluating the chain must not recurse per join
    depth = sys.getrecursionlimit() + 100
    m = RationalMatrix.from_rows([[1, 0], [0, -2]])
    space = HermSpace([m])
    a = space.element(m)
    chain = space.scale(0, a)
    for k in range(1, depth + 1):
        chain = space.join(chain, space.scale(F(k, depth), a))
    eps = F(1, 4)
    rep = stone_yosida_check(space, chain, eps, epsilon_net(space, [chain], eps))
    if not rep.ok:
        return f"gap {rep.norm_value - rep.net_value} on a {depth}-join chain"
    # the chain is the positive part of diag(1, -2), whose norm is 1
    if abs(rep.net_value - 1) >= rep.bound:
        return f"net maximum {rep.net_value} of a {depth}-join chain, expected 1"
    return None


def _check_net_history() -> str | None:
    # root enclosures are fixed nodes of one dyadic tree per character, so
    # a net does not depend on the queries that ran before on its space
    m = RationalMatrix.from_rows([[1, 1], [1, 0]])

    def margins(space: HermSpace) -> list[Fraction]:
        net = epsilon_net(space, [space.element(m)], F(1, 2))
        return [pt.margin for pt in net.points]

    fresh = margins(HermSpace([m]))
    space = HermSpace([m])
    epsilon_net(space, [space.element(m)], F(1, 16))
    after = margins(space)
    if after != fresh:
        return f"margins {[str(x) for x in after]} after a finer net, {[str(x) for x in fresh]} fresh"
    return None


def _check_sqrt_oracle() -> str | None:
    rng = random.Random(18)
    tol = F(1, 1024)
    for _ in range(4):
        fam = rand_diagonal_family(rng, 3, 1)
        space = HermSpace(fam.members)
        s, _ = sqrt_psd(space.element(fam.members[0]), tol)
        roots = [_exact_root(v) for v in fam.eigs[0]]
        oracle = fam.sqrt_of(0, roots)
        bound = norm_cut(space.element(s.matrix - oracle)).approx(tol)
        if bound > 10 * tol:
            return f"oracle distance {bound}"
    return None


def _exact_root(v: Fraction) -> Fraction:
    from math import isqrt

    return Fraction(isqrt(v.numerator), isqrt(v.denominator))


def _check_gelfand() -> str | None:
    rng = random.Random(19)
    fam = rand_diagonal_family(rng, 2, 2, palette=[F(1), F(2), F(3)])
    space = HermSpace(fam.members)
    rep = gelfand_check(
        space,
        [space.element(m) for m in fam.members],
        F(1, 32),
    )
    if not rep.ok:
        return (
            f"defect {rep.max_defect} over bound {rep.defect_bound}, "
            f"{len(rep.key_inequality_failures)} order failures"
        )
    return None


def _check_representation_contract() -> str | None:
    rng = random.Random(20)
    space = QnSpace(4)
    eps = F(1, 256)
    tau = 4 * eps
    seed_elem = space.element([0, 0, 0, 1])
    out = pos_or_below(space, seed_elem, F(1, 2))
    if not isinstance(out, Pos):
        return "seed element not positive"
    from .spectrum import point_new

    pt = point_new(
        space,
        [(seed_elem, out.witness / 2, F(space.unit_bound(seed_elem) + 1))],
    )
    if abs(pt.eval(space.unit(), eps) - 1) > eps:
        return "unit does not evaluate to 1"
    for _ in range(10):
        a, b = rand_qn(space, rng), rand_qn(space, rng)
        va = pt.eval(a, eps)
        vb = pt.eval(b, eps)
        if abs(pt.eval(space.add(a, b), eps) - va - vb) > tau:
            return "additivity gap"
        if abs(pt.eval(space.join(a, b), eps) - max(va, vb)) > tau:
            return "join gap"
    return None


CheckFn = Callable[[], "str | None"]

CHECKS_QUICK: list[tuple[str, CheckFn]] = [
    ("exact-kernel", _check_exact_kernel),
    ("cell-sups", _check_cell_sups),
    ("lattice-relations-qn", _check_lattice_qn),
    ("lattice-relations-pl", _check_lattice_pl),
    ("cover-certificates", _check_covers),
    ("pos-trichotomy", _check_pos_trichotomy),
    ("decompose", _check_decompose),
    ("sqrt-exact", _check_sqrt_exact),
    ("sum-of-squares", _check_sum_of_squares),
    ("product-positive", _check_product_positive),
    ("net-two-projections", _check_qn_net),
]

CHECKS_FULL: list[tuple[str, CheckFn]] = CHECKS_QUICK + [
    ("herm-sup", _check_herm_sup),
    ("sup-cross-validation", _check_sup_cross),
    ("stone-yosida", _check_stone_yosida),
    ("herm-irrational", _check_herm_irrational),
    ("net-history", _check_net_history),
    ("deep-join-chain", _check_deep_join_chain),
    ("sqrt-oracle", _check_sqrt_oracle),
    ("gelfand", _check_gelfand),
    ("representation-contract", _check_representation_contract),
]


def run(level: str = "quick") -> dict:
    if level not in ("quick", "full"):
        raise ValueError("level must be quick or full")
    checks = CHECKS_QUICK if level == "quick" else CHECKS_FULL
    records = []
    for name, fn in checks:
        try:
            detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            detail = f"{type(exc).__name__}: {exc}"
        records.append({"name": name, "ok": detail is None, "detail": detail or ""})
    return {
        "level": level,
        "checks": records,
        "ok": all(r["ok"] for r in records),
    }
