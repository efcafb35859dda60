"""Multiplicative structure on the matrix instance.

The centerpiece is an iterative square root for positive semidefinite
members of a commuting algebra.  After scaling A by 4**-k so its norm is
at most one, the iteration

    B_0 = 0,    B_{n+1} = (I - A' + B_n * B_n) / 2

increases to I - sqrt(A').  It runs on coefficient vectors over the
algebra basis with all coefficients rounded down to a fixed dyadic grid,
held as integers over that grid's one denominator, so iterates stay
exactly representable and below the true orbit; a
scalar majorant sequence r_{n+1} = (1 + r_n^2) / 2, rounded up and
capped at one, dominates every iterate.  Each scheduled check tests that
bound, B_n <= r_n * I, exactly, so an iterate that breaks it (only
corrupted state can) fails closed at once.  Termination never trusts the
analysis: the result is accepted only when the exact positive
semidefiniteness certificates |S*S - A| <= tol * I pass.  ``sqrt_psd``
then certifies S within an operator distance t of the true square root
by tS + A - S*S >= 0 and (S + tI)^2 - A >= 0 (S*S - A <= tS forces
S - sqrt(A) <= t on each joint eigenvalue, and (S + t)^2 >= A forces
sqrt(A) <= S + t).

Beside the square root sit a materialized absolute value, a sum of
squares decomposition for elements between 0 and 1, and a
multiplicativity check for point evaluations.

The kernels read a matrix's integer ``rows`` over its ``den`` (the one
form of ``exact.RationalMatrix``) as they are, and hand their integer
results to its constructor, which reduces them; the distance and
absolute value certificates are matrix sums and products on the same
integers.

The absolute value has one route, on every spectrum: |a| is the join of
a and -a, materialized by ``HermSpace.materialize`` as the polynomial in
the separating member that interpolates its character values (the
interpolation definition of a matrix function, Higham, Functions of
Matrices, 2008, section 1.2), then accepted only after exact matrix
checks that hold character by character.  On a rational spectrum the
result is |A| exactly.  ``sqrt_psd`` runs the paper's iteration, and so
stays the independent cross-check of that route: sqrt_psd(A*A) lies
within the sum of the two errs of abs_element(A).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import Sequence

from .exact import RationalMatrix, _psd_integer, psd_check
from .instances.herm import HermElement, HermSpace
from .riesz import CertificateError, Rational, SpaceMismatchError, ToleranceError

__all__ = [
    "SqrtTrace",
    "SumOfSquares",
    "GelfandReport",
    "sqrt_psd",
    "abs_element",
    "product_positive",
    "sum_of_squares",
    "gelfand_check",
]


def _pow2_geq(e: int, n: int, d: int) -> bool:
    """2**e >= n/d for positive integers n, d."""
    return (d << e) >= n if e >= 0 else d >= (n << -e)


def _ceil_log2(x: Fraction) -> int:
    """Smallest integer e with 2**e >= x > 0."""
    n, d = x.numerator, x.denominator
    e = n.bit_length() - d.bit_length() + 1
    while not _pow2_geq(e, n, d):  # pragma: no cover - start value suffices
        e += 1
    while _pow2_geq(e - 1, n, d):
        e -= 1
    return e


def _sqrt_upper(e: Fraction) -> Fraction:
    """A dyadic upper bound on sqrt(e) for e >= 0."""
    if e == 0:
        return Fraction(0)
    j = -(-_ceil_log2(e) // 2)
    return Fraction(1 << j) if j >= 0 else Fraction(1, 1 << -j)


@dataclass(frozen=True)
class SqrtTrace:
    """Audit data for one square root run.

    majorant holds r_0 .. r_{N+1}; every iterate B_n satisfies
    B_n <= r_n * I, and 2 * (r_{N+1} - r_N) * 4**scale_exp is the bound
    the scalar analysis alone would certify for the final residual.
    """

    scale_exp: int
    iterations: int
    majorant: tuple[Fraction, ...]
    majorant_bound: Fraction
    certified_residual: Fraction | None
    certified_distance: Fraction | None


def _check_schedule(n: int) -> bool:
    # powers of two and 3 * powers of two keep certificate checks sparse
    return n & (n - 1) == 0 or (n % 3 == 0 and (n // 3) & (n // 3 - 1) == 0)


def _square(a: list[list[int]]) -> list[list[int]]:
    """a @ a for a symmetric integer matrix a: each row is its column."""
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i, row in enumerate(a):
        for j in range(i, n):
            out[i][j] = out[j][i] = sum(map(mul, row, a[j]))
    return out


def _psd_minus(c: int, a: list[list[int]], f: int) -> bool:
    """Whether c * I - f * a is psd, for a symmetric integer matrix a."""
    return _psd_integer(
        [[(c if i == j else 0) - f * x for j, x in enumerate(row)] for i, row in enumerate(a)]
    )


def _sqrt_core(
    space: HermSpace, amat: RationalMatrix, tol: Fraction
) -> tuple[RationalMatrix, SqrtTrace]:
    alg = space.algebra
    if amat.is_zero():
        trace = SqrtTrace(0, 0, (Fraction(0), Fraction(1, 2)), Fraction(2), tol, tol)
        return RationalMatrix.zeros(space.dim), trace
    coords = alg.coords_of(amat)
    if coords is None:
        raise SpaceMismatchError("element outside the algebra")
    arows, aden = amat.rows, amat.den

    # smallest k with amat <= 4^k, decided exactly; keeps mu = 4^k with a
    # rational square root 2^k
    k = 0
    while not _psd_minus(aden << (2 * k), arows, 1):
        k += 1
    mu = 1 << (2 * k)

    theta = tol / mu
    need = -(-16 * theta.denominator // theta.numerator)
    m = math.isqrt(need)
    if m * m < need:
        m += 1
    ncap = m + 2
    rho_unit = max(alg.basis_norm_sum, Fraction(1))
    grid = max(8, _ceil_log2(8 * ncap * rho_unit * (1 << k) / tol))
    tn, td = tol.numerator, tol.denominator

    # Integers on the grid 2^-grid, w = 2^grid: the iterate b is the
    # coordinate vector B / w and the majorant r_n is R_n / w.  amat / mu
    # has coordinates cv / aps and the table is over tden, so w times the
    # exact next iterate (e_0 - cv / aps + B*B / (w^2 tden)) / 2 is
    # (const + aps * B*B) / step.  Rounding it down to the grid is one
    # floor division, and the rounding moved something when a remainder
    # is nonzero.  The recentring shift 2^-grid * rho_unit, rounded up, is
    # ceil(rho_unit) / w, and min(1, (1 + r^2) / 2) rounded up is
    # min(w, ceil((w^2 + R^2) / (2w))) / w.
    w = 1 << grid
    cden = math.lcm(*(c.denominator for c in coords))
    cv = [c.numerator * (cden // c.denominator) for c in coords]
    aps, tden = cden * mu, alg.table_den
    const = [w * w * tden * ((aps if i == 0 else 0) - c) for i, c in enumerate(cv)]
    step = 2 * w * tden * aps
    rho_step = -(-rho_unit.numerator // rho_unit.denominator)
    sden = w * alg.basis_den

    def majorant(r: int) -> int:
        return min(w, -(-(w * w + r * r) // (2 * w)))

    b = [0] * alg.size
    rs = [0]
    n = 0
    while True:
        n += 1
        sq = alg.square_coords(b)
        moved = False
        for i, (c, q) in enumerate(zip(const, sq)):
            b[i], r = divmod(c + aps * q, step)
            moved = moved or r != 0
        if moved:
            # recenter only when rounding moved something, so clean inputs
            # (integer spectra on the grid) come out exactly
            b[0] -= rho_step
        rs.append(majorant(rs[-1]))
        majorant_fired = 2 * (rs[-1] - rs[-2]) * mu * td <= tn * w
        if _check_schedule(n) or majorant_fired or n >= ncap:
            # B_n <= r_n * I holds for every iterate (SqrtTrace), times
            # sden: an iterate past it means corrupted state, and failing
            # here stops it before its bits double for ncap steps
            if not _psd_minus(rs[-1] * alg.basis_den, alg.combine(b), 1):
                raise CertificateError(f"square root iterate {n} exceeds its majorant")
            # S = (I - b) * 2^k is s / sden over the integer basis rows and
            # x = (S*S - A) * sden^2 * aden: the residual tests
            # tol * I -+ (S*S - A) >= 0, times sden^2 * aden * td
            coeffs = [(w if i == 0 else 0) - x for i, x in enumerate(b)]
            s = [[v << k for v in row] for row in alg.combine(coeffs)]
            ss, sd2 = _square(s), sden * sden
            x = [[aden * u - sd2 * v for u, v in zip(ru, rv)] for ru, rv in zip(ss, arows)]
            y = tn * sd2 * aden
            if _psd_minus(y, x, td) and _psd_minus(y, x, -td):
                break
            if n >= ncap:
                raise CertificateError(
                    f"square root failed to certify within {ncap} iterations"
                )
    while len(rs) < n + 2:
        rs.append(majorant(rs[-1]))
    smat = alg.mat_of([Fraction(c << k, w) for c in coeffs])
    trace = SqrtTrace(
        scale_exp=k,
        iterations=n,
        majorant=tuple(Fraction(r, w) for r in rs[: n + 2]),
        majorant_bound=Fraction(2 * (rs[n + 1] - rs[n]) * mu, w),
        certified_residual=tol,
        certified_distance=None,
    )
    return smat, trace


def _require_plain(a: HermElement) -> None:
    if a.matrix is None:
        raise TypeError("materialize lattice results before this operation")


def sqrt_psd(a: HermElement, tol: Rational) -> tuple[HermElement, SqrtTrace]:
    """Square root with a certified residual: |S*S - A| <= tol * I.

    The returned element's err additionally bounds the operator distance
    to the true square root, found by doubling the tolerance in the
    distance certificates until they pass.
    """
    _require_plain(a)
    space = a.space
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not psd_check(a.matrix):
        raise ValueError("matrix must be positive semidefinite")
    smat, trace = _sqrt_core(space, a.matrix, tol)
    eye = RationalMatrix.identity(space.dim)
    dist = None
    t = tol
    for _ in range(64):
        lowm = smat + eye.scale(t)
        if psd_check(smat.scale(t) + a.matrix - smat @ smat) and psd_check(
            lowm @ lowm - a.matrix
        ):
            dist = t
            break
        t *= 2
    if dist is None:  # pragma: no cover - large t always certifies
        raise CertificateError("no operator distance certificate found")
    trace = SqrtTrace(
        trace.scale_exp,
        trace.iterations,
        trace.majorant,
        trace.majorant_bound,
        trace.certified_residual,
        dist,
    )
    return HermElement(space, smat, dist + _sqrt_upper(a.err)), trace


def abs_element(a: HermElement, tol: Rational) -> HermElement:
    """Materialized absolute value, with err at most a.err + tol.

    S materializes the join of a and -a at tol/2.  That join's ball at
    character j is [|a_j| - a.err, |a_j| + a.err], so d = S.err - a.err
    bounds |s_j - |a_j|| at every j.  With t = 2d, the exact checks
    S + tI >= 0, (S + tI)**2 >= A**2 and A**2 + tS - S**2 + 2t**2 I >= 0
    prove |a_j| - t <= s_j <= |a_j| + 2t at every character, so the err
    returned is a.err + 2t; CertificateError when one fails.  At t = 0,
    which every rational spectrum gives, they say S >= 0 and S**2 = A**2:
    S is then |A| exactly and err stays a.err.
    """
    _require_plain(a)
    space = a.space
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    s = space.materialize(space.join(a, space.negate(a)), tol / 2)
    t = 2 * (s.err - a.err)
    eye = RationalMatrix.identity(space.dim)
    m = s.matrix
    # (S + tI)**2 - A**2 = D + 2tS + t**2 I with D = S**2 - A**2
    d = m @ m - a.matrix @ a.matrix
    if not (
        psd_check(m + eye.scale(t))
        and psd_check(d + m.scale(2 * t) + eye.scale(t * t))
        and psd_check(m.scale(t) - d + eye.scale(2 * t * t))
    ):
        raise CertificateError("absolute value failed its certificate")
    return HermElement(space, m, a.err + 2 * t)


def product_positive(a: HermElement, b: HermElement) -> bool:
    """Exact check that the product of two positive elements is positive."""
    _require_plain(a)
    _require_plain(b)
    if a.err or b.err:
        raise ToleranceError("product positivity needs err free operands")
    if not (psd_check(a.matrix) and psd_check(b.matrix)):
        raise ValueError("operands must be positive semidefinite")
    return psd_check(a.matrix @ b.matrix)


@dataclass(frozen=True)
class SumOfSquares:
    """A = sum of parts[i]**2 + remainder with |remainder| <= bound."""

    parts: tuple[HermElement, ...]
    remainder: HermElement
    steps: int
    bound: Fraction


def sum_of_squares(a: HermElement, tol: Rational, max_iter: int = 64) -> SumOfSquares:
    """Decompose 0 <= a <= 1 into squares by iterating M -> M - M*M.

    Each pass peels off one square exactly; the loop stops as soon as the
    remainder is certified at most tol.  The remainder norm shrinks
    roughly like 1/n, and the iterates are kept exact: M = A / D is one
    integer matrix over one denominator, a step is A <- A*D - A*A and
    D <- D**2 with the common content of D and A divided out, so the
    denominators square and their bits about double at every step.  Keep
    tolerances modest; ROADMAP item 1(a) plans a bit budget.  The stopping
    test tol * I - M >= 0 is the integer test tol_num * D * I - tol_den * A
    >= 0.  The identity a = sum of squares + remainder is checked again
    from squares taken afresh, over one common denominator, and a
    mismatch raises CertificateError.
    """
    _require_plain(a)
    if a.err:
        raise ToleranceError("sum of squares needs an err free element")
    space = a.space
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    eye = RationalMatrix.identity(space.dim)
    if not psd_check(a.matrix):
        raise ValueError("element must be positive semidefinite")
    if not psd_check(eye - a.matrix):
        raise ValueError("element must be at most the unit")
    tn, td = tol.numerator, tol.denominator
    arows, aden = a.matrix.rows, a.matrix.den
    parts: list[tuple[list[list[int]], int]] = []
    m, den = arows, aden
    done = False
    for _ in range(max_iter):
        if _psd_minus(tn * den, m, td):
            done = True
            break
        parts.append((m, den))
        m = [[den * x - y for x, y in zip(rm, rs)] for rm, rs in zip(m, _square(m))]
        # every prime of D divides a's denominator, so the content of D**2
        # and the entries is 1 when a's denominator and the entries are
        # coprime, a test of small gcds
        if math.gcd(aden, *(x for row in m for x in row)) > 1:
            g = math.gcd(den * den, *(x for row in m for x in row))
            m = [[x // g for x in row] for row in m]
            den = den * den // g
        else:
            den *= den
    if not done and not _psd_minus(tn * den, m, td):
        raise ToleranceError(f"remainder above {tol} after {max_iter} iterations")
    # a = sum p_k**2 + m over the lcm of the squared part denominators and
    # the remainder's (often the remainder's alone), from squares taken
    # again, against a's integer rows
    squares = [d * d for _, d in parts]
    common = den if all(den % q == 0 for q in squares) else math.lcm(den, *squares)
    total = [[x * (common // den) for x in row] for row in m]
    for (p, _), q in zip(parts, squares):
        f = common // q
        total = [[t + f * y for t, y in zip(rt, rs)] for rt, rs in zip(total, _square(p))]
    if any(t * aden != x * common for rt, ra in zip(total, arows) for t, x in zip(rt, ra)):
        raise CertificateError("sum of squares identity failed")
    bound = tol
    if parts:
        # the iterates also obey the a priori rate |remainder|^2 <= 1/n
        bound = min(bound, _sqrt_upper(Fraction(1, len(parts))))
    return SumOfSquares(
        parts=tuple(HermElement(space, RationalMatrix(p, d), Fraction(0)) for p, d in parts),
        remainder=HermElement(space, RationalMatrix(m, den), Fraction(0)),
        steps=len(parts),
        bound=bound,
    )


@dataclass(frozen=True)
class GelfandReport:
    """Outcome of the multiplicativity audit over an element family."""

    pairs: int
    key_inequality_failures: tuple[tuple[int, int, Fraction], ...]
    points: int
    max_defect: Fraction
    defect_bound: Fraction
    ok: bool


def gelfand_check(
    space: HermSpace,
    elements: Sequence[HermElement],
    eps: Rational,
    ratios: Sequence[Rational] = (Fraction(1, 2), Fraction(1, 4)),
) -> GelfandReport:
    """Audit that point evaluations respect products.

    Two independent obligations: the exact lattice inequality

        (a - r) ^ + /\\ b ^ + <= (1 / r) * (a b) ^ +      for r > 0

    which ties positive parts of factors to the positive part of the
    product, and near multiplicativity of evaluations on an eps net:
    |ev(ab) - ev(a) ev(b)| <= 2 * eps * (1 + |a| + |b|), where |.| is the
    unit norm bound.  Evaluations are eps accurate readings of a true
    representation, which is exactly multiplicative; one eps is spent on
    ev(ab) and the rest scales with the factor norms, giving the stated
    constant 2 for eps <= 1.
    """
    from .spectrum import epsilon_net

    eps = Fraction(eps)
    for e in elements:
        _require_plain(e)
        if e.err:
            raise ToleranceError("multiplicativity audit needs err free elements")
    zero = space.zero()
    unit = space.unit()

    def pos(x: HermElement) -> HermElement:
        return space.join(x, zero)

    failures: list[tuple[int, int, Fraction]] = []
    npairs = 0
    for i, j in combinations(range(len(elements)), 2):
        a, b = elements[i], elements[j]
        prod = space.multiply(a, b)
        for r in ratios:
            r = Fraction(r)
            npairs += 1
            lhs = space.meet(pos(space.add(a, space.scale(-r, unit))), pos(b))
            rhs = space.scale(1 / r, pos(prod))
            if space.leq(lhs, rhs) is not True:
                failures.append((i, j, r))

    family: list[HermElement] = list(elements)
    prods: dict[tuple[int, int], int] = {}
    for i, j in combinations(range(len(elements)), 2):
        family.append(space.multiply(elements[i], elements[j]))
        prods[(i, j)] = len(family) - 1
    net = epsilon_net(space, family, eps)
    max_defect = Fraction(0)
    bound = Fraction(0)
    for i, j in combinations(range(len(elements)), 2):
        a, b = elements[i], elements[j]
        na = Fraction(max(space.unit_bound(a), space.unit_bound(space.negate(a))))
        nb = Fraction(max(space.unit_bound(b), space.unit_bound(space.negate(b))))
        bound = max(bound, 2 * eps * (1 + na + nb))
        prod = family[prods[(i, j)]]
        for pt in net.points:
            va = pt.eval(a, eps / 4)
            vb = pt.eval(b, eps / 4)
            vab = pt.eval(prod, eps / 4)
            max_defect = max(max_defect, abs(vab - va * vb))
    ok = not failures and max_defect <= bound
    return GelfandReport(
        pairs=npairs,
        key_inequality_failures=tuple(failures),
        points=len(net.points),
        max_defect=max_defect,
        defect_bound=bound,
        ok=ok,
    )
