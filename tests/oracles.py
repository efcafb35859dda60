"""Independent reference computations used to cross check the package.

Everything here deliberately avoids the package's own decision procedures:
determinants and eigenvalues come from sympy, matrix arithmetic is plain
list-of-list Fractions, and suprema are direct maxima.  The full interval
grid is a plain stepping loop, and element files load through the
package's own ``attach``.  The rational elimination psd test, the Sturm
chain, isolation and bisection in ``Fraction`` arithmetic, and the
``Fraction`` elimination that builds a commuting algebra are the
routines the package ran before its integer kernels, and so are
``Fraction`` coefficient polynomials with their long division and
Euclid's gcd, the piecewise linear ``in_interval`` and cell bound with ``Fraction``
midpoints and the Qn operations on ``Fraction`` coordinates.  The
three-join cover route is the one the package ran before it joined each
cover once, and the point evaluation that queries every grid cell is
``PointState.eval`` without its candidate filters and skip bound; the
norm audit that evaluates every net point is ``stone_yosida_check``
without its branch and bound.  The square root and sum of squares loops
on ``Fraction`` entries are ``_sqrt_core`` and ``sum_of_squares`` as the
package ran them before its integer kernels.  Tests that compare a package result against
one of these functions are exercising two genuinely different routes to
the same value.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Sequence

import sympy

from rieszspec.exact import RatInterval
from rieszspec.instances.pl import PLElement, _canonical, _line, _reduced
from rieszspec.lattice import cover_range
from rieszspec.riesz import norm_cut
from rieszspec.serialize import attach, space_for
from rieszspec.spectrum import StoneYosidaReport, epsilon_net

Mat = Sequence[Sequence[Fraction]]


def to_sympy(rows: Mat) -> sympy.Matrix:
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row] for row in rows])


def sym_eigenvalues(rows: Mat) -> list:
    """Exact eigenvalues with multiplicity, as sympy expressions."""
    out = []
    for val, mult in to_sympy(rows).eigenvals().items():
        out.extend([sympy.nsimplify(val)] * mult)
    return out


def sym_minpoly_degree(rows: Mat) -> int:
    # symmetric matrices are diagonalizable, so the minimal polynomial
    # has one linear factor per distinct eigenvalue
    return len(to_sympy(rows).eigenvals())


def psd_by_minors(rows: Mat) -> bool:
    """All principal minors nonnegative; exact, exponential, independent."""
    m = to_sympy(rows)
    n = m.rows
    for size in range(1, n + 1):
        for idx in combinations(range(n), size):
            sub = m[list(idx), list(idx)]
            if sub.det() < 0:
                return False
    return True


def psd_check_fraction(rows: Mat) -> bool:
    """Symmetric rational elimination on the first positive diagonal pivot."""
    a = [[Fraction(v) for v in row] for row in rows]
    active = list(range(len(a)))
    while active:
        if any(a[i][i] < 0 for i in active):
            return False
        pivots = [i for i in active if a[i][i] > 0]
        if not pivots:
            return all(a[i][j] == 0 for i in active for j in active)
        p = pivots[0]
        rest = [i for i in active if i != p]
        for i in rest:
            f = a[i][p] / a[p][p]
            for j in rest:
                a[i][j] -= f * a[p][j]
        active = rest
    return True


def contains_exact(lo: Fraction, hi: Fraction, value) -> bool:
    """Whether a sympy real number lies in [lo, hi]; decided symbolically."""
    v = sympy.nsimplify(value)
    lower = sympy.Rational(lo.numerator, lo.denominator)
    upper = sympy.Rational(hi.numerator, hi.denominator)
    return bool(sympy.simplify(v - lower) >= 0) and bool(sympy.simplify(upper - v) >= 0)


# ----- plain Fraction matrix arithmetic ------------------------------


def matmul(a: Mat, b: Mat) -> list[list[Fraction]]:
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def matadd(a: Mat, b: Mat) -> list[list[Fraction]]:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def matsub(a: Mat, b: Mat) -> list[list[Fraction]]:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def matscale(c: Fraction, a: Mat) -> list[list[Fraction]]:
    return [[c * x for x in row] for row in a]


def transpose(a: Mat) -> list[list[Fraction]]:
    return [list(col) for col in zip(*a)]


def sandwich(frame: Mat, diag: Sequence[Fraction]) -> list[list[Fraction]]:
    """frame * diag(values) * frame^T with plain Fraction arithmetic."""
    n = len(frame)
    mid = [[diag[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    return matmul(matmul(frame, mid), transpose(frame))


def max_abs_entry(rows: Mat) -> Fraction:
    return max(abs(v) for row in rows for v in row)


def operator_norm_exact(rows: Mat) -> Fraction:
    """Largest |eigenvalue|; exact only when all eigenvalues are rational."""
    eigs = sym_eigenvalues(rows)
    vals = []
    for e in eigs:
        r = sympy.nsimplify(e)
        if not r.is_rational:
            raise ValueError("irrational spectrum; no exact rational norm")
        vals.append(abs(Fraction(int(r.p), int(r.q))))
    return max(vals)


def frame_diagonal(frame: Mat, rows: Mat) -> list[Fraction]:
    """Eigenvalues of a matrix diagonalized by an orthogonal frame.

    Conjugates with plain fractions and insists the result is exactly
    diagonal, which certifies that rows really lives in the frame's
    eigenbasis; avoids factoring huge characteristic polynomials.
    Entry i belongs to column i of the frame.
    """
    conj = matmul(matmul(transpose(frame), rows), frame)
    n = len(conj)
    for i in range(n):
        for j in range(n):
            if i != j and conj[i][j] != 0:
                raise ValueError("matrix is not diagonal in this frame")
    return [conj[i][i] for i in range(n)]


def frame_norm_exact(frame: Mat, rows: Mat) -> Fraction:
    """Largest |eigenvalue| of a matrix diagonalized by an orthogonal frame."""
    return max(abs(v) for v in frame_diagonal(frame, rows))


# ----- scalar helpers -------------------------------------------------


def qn_sup(coords: Sequence[Fraction]) -> Fraction:
    return max(coords)


class QnFraction:
    """Qn operations on ``Fraction`` coordinate tuples: the routines the
    package ran before it held integer numerators over one denominator."""

    @staticmethod
    def add(xs, ys):
        return tuple(x + y for x, y in zip(xs, ys))

    @staticmethod
    def scale(c, xs):
        c = Fraction(c)
        return tuple(c * x for x in xs)

    @staticmethod
    def join(xs, ys):
        return tuple(max(x, y) for x, y in zip(xs, ys))

    @staticmethod
    def meet(xs, ys):
        return tuple(min(x, y) for x, y in zip(xs, ys))

    @staticmethod
    def in_interval(xs, p, q):
        p, q = Fraction(p), Fraction(q)
        return tuple(min(x - p, q - x) for x in xs)

    @staticmethod
    def leq(xs, ys):
        return all(x <= y for x, y in zip(xs, ys))

    @staticmethod
    def unit_bound(xs):
        m = max(xs)
        return 0 if m <= 0 else -((-m.numerator) // m.denominator)

    @staticmethod
    def dominance_ceiling(xs, ys):
        ratio = Fraction(0)
        for xv, yv in zip(xs, ys):
            if xv <= 0:
                continue
            if yv <= 0:
                return None
            ratio = max(ratio, xv / yv)
        return max(1, -((-ratio.numerator) // ratio.denominator))


def pl_max(points: Sequence[tuple[Fraction, Fraction]]) -> Fraction:
    return max(y for _, y in points)


def pl_min(points: Sequence[tuple[Fraction, Fraction]]) -> Fraction:
    return min(y for _, y in points)


def poly_eval_interval_fraction(
    p: Sequence[Fraction], lo: Fraction, hi: Fraction
) -> tuple[Fraction, Fraction]:
    """Interval Horner evaluation in plain Fraction arithmetic."""
    alo = ahi = Fraction(0)
    for c in reversed(p):
        cands = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo, ahi = min(cands) + c, max(cands) + c
    return alo, ahi


def element_from_json(obj: dict):
    """Load one freestanding element file into a fresh space of its own."""
    return attach(space_for([obj]), obj)


def interval_grid(p: Fraction, q: Fraction, width: Fraction) -> list[RatInterval]:
    """Every cell of the half overlapping width grid over (p, q), stepping.

    Each interval starts width/2 after the one before, the first at p, and
    is width long, truncated at q; the interval that reaches q is the last.
    A plain loop that accumulates the position, with no index arithmetic:
    a cell (lo, hi) is followed by (mid, hi + width/2), mid = lo + width/2.
    """
    p, q, width = Fraction(p), Fraction(q), Fraction(width)
    if not p < q:
        raise ValueError("need p < q")
    if width <= 0:
        raise ValueError("need positive width")
    out = []
    half = width / 2
    lo, mid = p, p + half
    while True:
        hi = mid + half
        if not hi < q:
            out.append(RatInterval(lo, q))
            return out
        out.append(RatInterval(lo, hi))
        lo, mid = mid, hi


def pl_in_interval_fraction(a: PLElement, p: Fraction, q: Fraction) -> PLElement:
    """PL min(a - p, q - a) with the midpoint and half width as reduced
    ``Fraction`` values; the routine the package ran before its integer
    numerators over 2 * pd * qd."""
    p, q = Fraction(p), Fraction(q)
    if not p < q:
        raise ValueError("in_interval needs p < q")
    m, h = (p + q) / 2, (q - p) / 2
    pn, pd, qn, qd = p.numerator, p.denominator, q.numerator, q.denominator
    mn, md, hn, hd = m.numerator, m.denominator, h.numerator, h.denominator
    out = []
    prev = None
    ps = 0
    for pt in a.triples:
        x, y, d = pt
        s = y * md - mn * d
        if (s > 0 > ps) or (s < 0 < ps):
            la, lb, lc = _line(prev, pt)
            xc = -(lb * mn + lc * md)
            dc = la * md
            out.append(_reduced(xc * hd, hn * dc, dc * hd))
        if s <= 0:
            out.append(_reduced(x * pd, y * pd - pn * d, d * pd))
        else:
            out.append(_reduced(x * qd, qn * d - y * qd, d * qd))
        prev, ps = pt, s
    return PLElement(a.space, _canonical(out))


def pl_interval_sup_upper_fraction(b: PLElement, iv: RatInterval):
    """PL cheap cell bound with a ``Fraction`` midpoint and half width."""
    half = (iv.hi - iv.lo) / 2
    mid = iv.lo + half
    mn, md = mid.numerator, mid.denominator
    near_n, near_d = None, 1
    prev = None
    for _, y, d in b.triples:
        dev = y * md - mn * d
        if prev is not None and (dev <= 0 <= prev or prev <= 0 <= dev):
            return half
        if near_n is None or abs(dev) * near_d < near_n * d:
            near_n, near_d = abs(dev), d
        prev = dev
    best = half - Fraction(near_n, near_d * md)
    return best if best > 0 else None


def eval_no_skip(pt, b, eps: Fraction):
    """(value, margin, constraint) that ``PointState.eval(b, eps)`` should
    give, or None where it should raise: every cell of the full stepping
    grid over b's range gets a cut query, with no window, no value ranges
    and no cheap bound.  Cells those leave out have a supremum <= 0, so on
    an instance whose cuts are exact the winner is the same.  pt is not
    changed."""
    space = pt.space
    level = 0
    while Fraction(1, 1 << level) > eps:
        level += 1
    w = Fraction(1, 1 << level)
    rng = pt._ranges.get(b)
    p, q = rng if rng is not None else cover_range(space, b)[:2]
    delta = min(pt.margin, w / 2) / 8
    best = None
    for k, iv in enumerate(interval_grid(p, q, w)):
        met = space.meet(pt.meet, space.in_interval(b, iv.lo, iv.hi))
        mu = space.sup_cut(met).approx(delta)
        if best is None or mu > best[0]:
            best = (mu, iv)
    mu, iv = best
    if mu - delta <= 0:
        return None
    return (iv.lo + iv.hi) / 2, mu - delta, (b, iv.lo, iv.hi)


def stone_yosida_all_points(space, a, eps, net=None):
    """``stone_yosida_check`` as it ran before its branch and bound: every
    net point is evaluated and the largest |value| kept."""
    eps = Fraction(eps)
    if net is None:
        net = epsilon_net(space, [a], eps)
    norm_value = norm_cut(a).approx(eps / 2)
    net_value = Fraction(0)
    for pt in net.points:
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


def poly_degree(p: Sequence[Fraction]) -> int:
    """Degree of a normalized coefficient tuple; -1 for the zero polynomial."""
    return len(p) - 1


def pl_value(points: Sequence[tuple[Fraction, Fraction]], x: Fraction) -> Fraction:
    """Value of a piecewise linear function at x by plain Fraction interpolation."""
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x0 <= x <= x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    raise ValueError("argument outside the breakpoints")


# ----- polynomials as Fraction coefficient tuples ----------------------


def poly_normalize(p: Sequence) -> tuple[Fraction, ...]:
    """Ascending Fraction coefficients with trailing zeros stripped; the
    zero polynomial is ()."""
    out = [Fraction(c) for c in p]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_eval(p: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_divmod(a, b) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Quotient and remainder of long division in Fraction arithmetic."""
    a, b = poly_normalize(a), poly_normalize(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quo = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(rem) >= len(b):
        f = rem[-1] / b[-1]
        shift = len(rem) - len(b)
        quo[shift] = f
        for i, c in enumerate(b):
            rem[shift + i] -= f * c
        rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
    return poly_normalize(quo), tuple(rem)


def poly_gcd_fraction(a, b) -> tuple[Fraction, ...]:
    """Monic gcd by Euclid's algorithm on Fraction remainders."""
    a, b = poly_normalize(a), poly_normalize(b)
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return tuple(c / a[-1] for c in a) if a else a


# ----- Sturm isolation and bisection in Fraction arithmetic -----------


def _primitive_fraction(p):
    """p scaled by a positive rational to coprime integer coefficients."""
    den = 1
    for c in p:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in p]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    return tuple(Fraction(v, g) for v in ints) if g else tuple(p)


def sturm_chain_fraction(p):
    """Sturm chain by Fraction remainders, each made primitive."""
    chain = [_primitive_fraction(poly_normalize(p))]
    d = poly_normalize([i * c for i, c in enumerate(chain[0])][1:])
    if d:
        chain.append(_primitive_fraction(d))
    while len(chain[-1]) > 1:
        r = tuple(-c for c in poly_divmod(chain[-2], chain[-1])[1])
        if not r:
            break
        chain.append(_primitive_fraction(r))
    return chain


def count_roots_fraction(chain, a: Fraction, b: Fraction) -> int:
    def variations(x):
        signs = [v > 0 for v in (poly_eval(q, x) for q in chain) if v]
        return sum(1 for s0, s1 in zip(signs, signs[1:]) if s0 != s1)

    return variations(a) - variations(b)


def cauchy_bound(p) -> Fraction:
    """1 + max |c_i| / |c_n|: every real root lies in [-bound, bound]."""
    p = poly_normalize(p)
    if len(p) <= 1:
        return Fraction(1)
    lead = abs(p[-1])
    return 1 + max(abs(c) for c in p[:-1]) / lead


def isolate_real_roots_fraction(p) -> list[tuple[Fraction, Fraction]]:
    """Isolating boxes of a squarefree p by Sturm bisection with Fraction Horner."""
    p = poly_normalize(p)
    if len(p) <= 1:
        return []
    chain = sturm_chain_fraction(p)
    bound = cauchy_bound(p)
    out = []

    def go(a, b):
        c = count_roots_fraction(chain, a, b)
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
                and count_roots_fraction(chain, m - d, m + d) == 1
            ):
                d = d / 2
            go(a, m - d)
            go(m + d, b)
        else:
            go(a, m)
            go(m, b)

    go(-bound, bound)
    return sorted(out)


def refine_root_fraction(p, lo: Fraction, hi: Fraction, width: Fraction):
    """Bisection of an isolating box with Fraction Horner signs."""
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


# ----- a commuting algebra by Fraction elimination ---------------------


def invert_fraction(rows: Mat) -> list[list[Fraction]]:
    """Gauss-Jordan inverse of an invertible matrix, plain Fractions."""
    n = len(rows)
    aug = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    for c in range(n):
        p = next(i for i in range(c, n) if aug[i][c])
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [v / aug[c][c] for v in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[c])]
    return [r[n:] for r in aug]


class FractionAlgebra:
    """Basis, table, separating member and value polynomials of the algebra
    generated by commuting symmetric matrices, by Fraction elimination.

    Rows are flattened basis matrices normalized to 1 at their pivot and
    reduced in insertion order; the minimal polynomial tracks each Krylov
    row's combination of powers in a dict; the power basis change is a
    Gauss-Jordan inverse.
    """

    def __init__(self, gens: Sequence[Mat], dim: int):
        gens = [[[Fraction(v) for v in r] for r in g] for g in gens]
        self.dim = dim
        self.rows: list[tuple[list[Fraction], int]] = []
        self.basis: list[list[list[Fraction]]] = []
        eye = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
        self._insert(eye)
        for g in gens:
            self._insert(g)
        queue = list(self.basis[1:])
        while queue:
            m = queue.pop(0)
            for g in gens:
                if self._insert(matmul(m, g)):
                    queue.append(self.basis[-1])
        self.size = s = len(self.basis)
        self.basis_norm_sum = sum(
            (max(sum(abs(v) for v in r) for r in e) for e in self.basis), Fraction(0)
        )
        self.table = {
            (i, j): self.coords_of(matmul(self.basis[i], self.basis[j]))
            for i in range(s)
            for j in range(i, s)
        }
        for t in range(64):
            sep = [[Fraction(0)] * dim for _ in range(dim)]
            for k, e in enumerate(self.basis):
                w = Fraction((t + 1) ** k)
                sep = [[a + w * b for a, b in zip(ra, rb)] for ra, rb in zip(sep, e)]
            mp = self._minpoly_of(sep)
            if len(mp) - 1 == s:
                break
        self.sep, self.minpoly = sep, mp
        cols, power = [], eye
        for _ in range(s):
            cols.append(self.coords_of(power))
            power = matmul(power, sep)
        self.power_inv = invert_fraction([[cols[i][r] for i in range(s)] for r in range(s)])

    def _insert(self, m: Mat) -> bool:
        vec = [c for row in m for c in row]
        for rvec, piv in self.rows:
            f = vec[piv]
            if f:
                vec = [v - f * w for v, w in zip(vec, rvec)]
        piv = next((k for k, v in enumerate(vec) if v), None)
        if piv is None:
            return False
        vec = [v / vec[piv] for v in vec]
        self.rows.append((vec, piv))
        d = self.dim
        self.basis.append([vec[r * d : (r + 1) * d] for r in range(d)])
        return True

    def coords_of(self, m: Mat):
        vec = [Fraction(c) for row in m for c in row]
        coords = []
        for rvec, piv in self.rows:
            f = vec[piv]
            coords.append(f)
            if f:
                vec = [v - f * w for v, w in zip(vec, rvec)]
        return None if any(vec) else tuple(coords)

    def _minpoly_of(self, m: Mat):
        rows = []
        power = [[Fraction(int(i == j)) for j in range(self.dim)] for i in range(self.dim)]
        k = 0
        while True:
            vec = list(self.coords_of(power))
            combo = {k: Fraction(1)}
            for rvec, piv, cmb in rows:
                f = vec[piv]
                if f:
                    vec = [v - f * w for v, w in zip(vec, rvec)]
                    for i, c in cmb.items():
                        combo[i] = combo.get(i, Fraction(0)) - f * c
            piv = next((t for t, v in enumerate(vec) if v), None)
            if piv is None:
                return poly_normalize([combo.get(i, Fraction(0)) for i in range(k + 1)])
            inv = 1 / vec[piv]
            rows.append(([v * inv for v in vec], piv, {i: c * inv for i, c in combo.items()}))
            power = matmul(power, m)
            k += 1

    def value_poly_of(self, m: Mat):
        coords = self.coords_of(m)
        if coords is None:
            return None
        return poly_normalize(
            [sum(r[t] * coords[t] for t in range(self.size)) for r in self.power_inv]
        )


def shrink_cover_three_joins(space, target, cells) -> tuple[int, Fraction, int]:
    """The grid multiplier, r and unit multiplier of the three-join route.

    The grid claim joins the cells' positive parts, the unit claim joins
    the raw cells, and the lowered claim joins the positive parts of the
    lowered cells; each multiplier is proposed and checked by
    ``precedes``.  CertificateError where that route failed.
    """
    from rieszspec.lattice import CoverCertificate, join_all, precedes
    from rieszspec.riesz import CertificateError

    zero, unit = space.zero(), space.unit()

    def pos(x):
        return space.join(x, zero)

    def join_pos(parts):
        return join_all(space, [pos(x) for x in parts]) if parts else zero

    grid = precedes(space, pos(target), join_pos(cells))
    if grid is None:
        raise CertificateError("no dominance multiplier found for the cover")
    if not cells:
        raise CertificateError("an empty cover admits no shrink")
    n0 = precedes(space, unit, pos(join_all(space, list(cells))))
    if n0 is None:
        raise CertificateError("cells do not cover the unit class")
    n = 1
    while n < n0:
        n *= 2
    r = Fraction(1, 2 * n)
    lowered = [space.add(b, space.scale(-r, unit)) for b in cells]
    if space.leq(pos(unit), space.scale(2 * n, join_pos(lowered))) is not True:
        raise CertificateError("shrunken cover failed to verify")
    return grid, r, 2 * n


# ----- spectral references for the absolute value ---------------------


def idempotents(alg):
    """Spectral idempotents E_j of an algebra whose character roots are
    all rational, in character order.

    E_j = prod_{k != j} (G - r_k I) / (r_j - r_k) for the separating
    member G with roots r_k: E_j is 1 at character j and 0 at every
    other, so any member b equals sum_j b(j) E_j.
    """
    from rieszspec.exact import RationalMatrix

    roots = [alg.rational_root(j) for j in range(alg.char_count)]
    if None in roots:
        raise ValueError("an irrational character root has no rational idempotent")
    eye = RationalMatrix.identity(alg.dim)
    out = []
    for j, rj in enumerate(roots):
        e = eye
        for k, rk in enumerate(roots):
            if k != j:
                e = e @ (alg._sep - eye.scale(rk)).scale(1 / (rj - rk))
        out.append(e)
    return out


def eigen_values_of(gen: Mat, rows: Mat) -> list:
    """(lambda, v^T M v / v^T v) for every exact eigenpair (lambda, v) of
    gen, M = rows: the value of a member M of the algebra gen generates at
    the character of lambda, as sympy numbers."""
    g, m = to_sympy(gen), to_sympy(rows)
    out = []
    for lam, _, vecs in g.eigenvects():
        for v in vecs:
            out.append((lam, sympy.simplify((v.T * m * v)[0] / (v.T * v)[0])))
    return out


def within_exact(x, target, err: Fraction) -> bool:
    """|x - target| <= err for sympy reals, decided symbolically."""
    d = sympy.simplify(x - target)
    e = sympy.Rational(err.numerator, err.denominator)
    return bool(sympy.simplify(e - d) >= 0) and bool(sympy.simplify(e + d) >= 0)


# ----- Fraction references for the f-algebra iterations -----------------


def _ceil_log2(x: Fraction) -> int:
    e = 0
    while Fraction(2) ** e < x:
        e += 1
    while Fraction(2) ** (e - 1) >= x:
        e -= 1
    return e


def _round_grid(q: Fraction, k: int, up: bool) -> Fraction:
    n, d = (q * (1 << k)).numerator, (q * (1 << k)).denominator
    return Fraction(-(-n // d) if up else n // d, 1 << k)


def sqrt_core_fraction(alg: "FractionAlgebra", amat: Mat, tol: Fraction):
    """The square root iteration on Fraction coordinates: (S rows, trace).

    ``falgebra._sqrt_core`` as the package ran it before its integer
    kernel: products through the Fraction table, every iterate rounded
    down to the grid one coordinate at a time, the majorant rounded up
    one step at a time, and the residual tests by rational elimination on
    the matrix built from the Fraction basis.
    """
    from rieszspec.falgebra import SqrtTrace
    from rieszspec.riesz import CertificateError

    n_dim = len(amat)
    amat = [[Fraction(v) for v in row] for row in amat]
    eye = [[Fraction(int(i == j)) for j in range(n_dim)] for i in range(n_dim)]
    if not any(v for row in amat for v in row):
        trace = SqrtTrace(0, 0, (Fraction(0), Fraction(1, 2)), Fraction(2), tol, tol)
        return [[Fraction(0)] * n_dim for _ in range(n_dim)], trace
    k = 0
    while not psd_check_fraction(matsub([[v * (1 << (2 * k)) for v in r] for r in eye], amat)):
        k += 1
    mu = Fraction(1 << (2 * k))
    ap = [c / mu for c in alg.coords_of(amat)]
    size = alg.size
    theta = tol / mu
    need = -(-16 * theta.denominator // theta.numerator)
    m = 0
    while m * m < need:
        m += 1
    ncap = m + 2
    rho_unit = max(alg.basis_norm_sum, Fraction(1))
    grid = max(8, _ceil_log2(8 * ncap * rho_unit * (1 << k) / tol))
    rho_step = _round_grid(rho_unit / (1 << grid), grid, True)

    def mult(a, b):
        out = [Fraction(0)] * size
        for i in range(size):
            for j in range(size):
                t = alg.table[(i, j) if i <= j else (j, i)]
                for c in range(size):
                    out[c] += a[i] * b[j] * t[c]
        return out

    def mat_of(coords):
        out = [[Fraction(0)] * n_dim for _ in range(n_dim)]
        for c, e in zip(coords, alg.basis):
            out = [[x + c * y for x, y in zip(ro, re)] for ro, re in zip(out, e)]
        return out

    b = [Fraction(0)] * size
    rs = [Fraction(0)]
    n = 0
    while True:
        n += 1
        sq = mult(b, b)
        exact_next = [((1 if i == 0 else 0) - ap[i] + sq[i]) / 2 for i in range(size)]
        b = [_round_grid(c, grid, False) for c in exact_next]
        if b != exact_next:
            b[0] -= rho_step
        rs.append(min(Fraction(1), _round_grid((1 + rs[-1] ** 2) / 2, grid, True)))
        fired = 2 * (rs[-1] - rs[-2]) * mu <= tol
        sched = n & (n - 1) == 0 or (n % 3 == 0 and (n // 3) & (n // 3 - 1) == 0)
        if sched or fired or n >= ncap:
            smat = mat_of([((1 if i == 0 else 0) - b[i]) * (1 << k) for i in range(size)])
            resid = matsub(matmul(smat, smat), amat)
            shift = [[tol * v for v in r] for r in eye]
            plus = [[x + y for x, y in zip(rs_, rr)] for rs_, rr in zip(shift, resid)]
            if psd_check_fraction(matsub(shift, resid)) and psd_check_fraction(plus):
                break
            if n >= ncap:
                raise CertificateError(f"square root failed to certify within {ncap} iterations")
    while len(rs) < n + 2:
        rs.append(min(Fraction(1), _round_grid((1 + rs[-1] ** 2) / 2, grid, True)))
    trace = SqrtTrace(
        scale_exp=k,
        iterations=n,
        majorant=tuple(rs[: n + 2]),
        majorant_bound=2 * (rs[n + 1] - rs[n]) * mu,
        certified_residual=tol,
        certified_distance=None,
    )
    return smat, trace


def sum_of_squares_fraction(a: Mat, tol: Fraction, max_iter: int = 64):
    """(parts, remainder, steps, bound) of M -> M - M*M on Fraction rows.

    ``falgebra.sum_of_squares`` as the package ran it before its integer
    kernel, with rational elimination for the stopping test; None where
    the remainder stays above tol after max_iter steps.
    """
    n_dim = len(a)
    m = [[Fraction(v) for v in row] for row in a]
    eye = [[Fraction(int(i == j)) for j in range(n_dim)] for i in range(n_dim)]
    shift = [[tol * v for v in r] for r in eye]
    parts = []
    for _ in range(max_iter):
        if psd_check_fraction(matsub(shift, m)):
            break
        parts.append(m)
        m = matsub(m, matmul(m, m))
    else:
        if not psd_check_fraction(matsub(shift, m)):
            return None
    bound = tol
    if parts:
        # the smallest dyadic 2**-j with (2**-j)**2 >= 1/n
        j = 0
        while Fraction(1, 1 << (2 * (j + 1))) >= Fraction(1, len(parts)):
            j += 1
        bound = min(bound, Fraction(1, 1 << j))
    return parts, m, len(parts), bound
