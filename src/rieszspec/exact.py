"""Exact rational substrate: intervals, grid windows, and square matrices.

Everything in this module is float free.  Rationals are stdlib ``Fraction``
values (arbitrary precision, canonical lowest terms, positive denominator),
and every decision procedure is an exact computation.  The positive
semidefinite test is the single trusted primitive that the rest of the
package reduces order questions to.

A ``RationalMatrix`` is integer ``rows`` over one denominator ``den``, in
canonical form: den > 0 and gcd(den, every entry) = 1.  Every rational
matrix has exactly one such form, so equal matrices have equal fields and
equal hashes.  Each operation is an integer loop: operands over different
denominators are put over their lcm, and one gcd puts the result back in
canonical form.  Other modules read ``rows`` and ``den`` and build their
results through the constructor; ``entries`` gives the ``Fraction``
entries.  The psd test is fraction-free (Bareiss) elimination on the
integer rows, one private core, ``_psd_integer``, that the f-algebra
kernels also hand their integer iterates.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import add, mul, sub
from typing import Iterable, Sequence

Rational = Fraction

__all__ = [
    "Rational",
    "parse_rational",
    "format_rational",
    "RenderError",
    "RatInterval",
    "interval_grid_window",
    "cell_bounds",
    "RationalMatrix",
    "psd_check",
    "invert",
]


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or ``"p"``.  Decimal notation is rejected on purpose."""
    s = text.strip()
    if "." in s or "e" in s.lower():
        raise ValueError(f"rational expected in p/q form, got {text!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {text!r}") from exc


class RenderError(ValueError):
    """A rational too long for the interpreter's int to str digit limit."""


def format_rational(q: Fraction) -> str:
    """``"p/q"`` or ``"p"``; RenderError when a part exceeds the digit limit."""
    try:
        return str(Fraction(q))
    except ValueError as exc:
        limit = sys.get_int_max_str_digits()
        raise RenderError(f"a rational has more than {limit} digits; not rendered") from exc


@dataclass(frozen=True)
class RatInterval:
    """Open interval (lo, hi) with rational endpoints, lo < hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"empty interval ({self.lo}, {self.hi})")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __repr__(self) -> str:
        return f"({self.lo}, {self.hi})"


def interval_grid_window(
    p: Fraction,
    q: Fraction,
    width: Fraction,
    ranges: Iterable[tuple[Fraction, Fraction]],
    window: tuple[Fraction, Fraction] | None = None,
) -> tuple[int, list[tuple[int, int, int]]]:
    """The cells of the width grid over (p, q) that meet a range, over one
    integer denominator: (D, [(k, lo, hi), ...]), cell k being (lo/D, hi/D).

    With h = width/2, cell k is (p + k*h, min(p + (k+2)*h, q)) for
    0 <= k < K = max(1, ceil((q-p)/h) - 1): consecutive cells overlap by
    h, so every value of (p, q) sits at depth >= width/4 inside some cell,
    except within width/4 of the two outer endpoints.  A cell meets (lo,
    hi) when cell.lo < hi and lo < cell.hi; the cells meeting one range
    are the index interval [floor((lo-p)/h) - 1, ceil((hi-p)/h)), clipped
    to [0, K).  A cell is returned when it meets some range and, if given,
    the window, in increasing index order.  The range (p, q) gives the
    full grid.  Indices do not depend on the ranges, so callers that
    resolve ties by index see the same winners.

    p, q and h are put over one integer denominator D, the lcm of their
    denominators, as P, Q and H; every comparison and every span is then
    integer arithmetic, and cell k has the integer ends P + k*H and
    min(P + (k+2)*H, Q).  No ``Fraction`` is built: callers build one only
    for a cell they use.
    """
    pn, pd = p.numerator, p.denominator
    qn, qd = q.numerator, q.denominator
    hn, hd = width.numerator, 2 * width.denominator
    if not pn * qd < qn * pd:
        raise ValueError("need p < q")
    if hn <= 0:
        raise ValueError("need positive width")
    den = lcm(pd, qd, hd)
    P, Q, H = pn * (den // pd), qn * (den // qd), hn * (den // hd)
    count = max(1, -((P - Q) // H) - 1)

    def span(lo: Rational, hi: Rational) -> tuple[int, int]:
        # lo = a/b and hi = c/e over D: a*D/b against P, Q in integers
        a, b, c, e = lo.numerator, lo.denominator, hi.numerator, hi.denominator
        if not (a * den < Q * b and P * e < c * den):
            return 0, 0
        start = (a * den - P * b) // (H * b) - 1
        stop = -((P * e - c * den) // (H * e))
        return max(0, start), min(count, stop)

    wa, wb = span(*window) if window is not None else (0, count)
    out: list[tuple[int, int, int]] = []
    done = 0  # cells below this index are already out (ranges overlap)
    for start, stop in sorted(span(lo, hi) for lo, hi in ranges):
        stop = min(stop, wb)
        for k in range(max(start, wa, done), stop):
            out.append((k, P + k * H, Q if k == count - 1 else P + (k + 2) * H))
        done = max(done, stop)
    return den, out


def cell_bounds(
    ranges: Sequence[tuple[Fraction, Fraction]],
    den: int,
    cells: Sequence[tuple[int, int, int]],
) -> tuple[int, list[int]]:
    """(S, [B_k]): the tent height of each cell over the ranges, as integers
    over one denominator S.

    Cell (k, lo, hi) is (lo/den, hi/den), as ``interval_grid_window``
    returns it.  Its interval element takes the value h - |t - m| where b
    takes the value t, h the half width and m the midpoint, so wherever b's
    value lies in one of the closed ranges that element is at most
    B_k / S = h - (the distance from m to the nearest range).  When the
    ranges are b's exact image, B_k / S is the element's supremum, and
    B_k <= 0 says the element is <= 0.  Over S = 2*den*E, E the lcm of the
    range denominators, m is (lo + hi)*E and h is (hi - lo)*E, so every
    bound is integer arithmetic.
    """
    e = lcm(*(v.denominator for rng in ranges for v in rng))
    s = 2 * den * e
    ends = [(u.numerator * (s // u.denominator), v.numerator * (s // v.denominator))
            for u, v in ranges]
    bounds = []
    for _, lo, hi in cells:
        mid = (lo + hi) * e
        bounds.append((hi - lo) * e - min(max(u - mid, mid - v, 0) for u, v in ends))
    return s, bounds


@dataclass(frozen=True)
class RationalMatrix:
    """Immutable square matrix with exact rational entries.

    Entry (i, j) is rows[i][j] / den, in the canonical form of the module
    docstring; the constructor puts any integer rows over any nonzero
    den into it.  ``entries`` gives the entries as ``Fraction`` values.
    """

    rows: tuple[tuple[int, ...], ...]
    den: int

    def __post_init__(self) -> None:
        rows, den = tuple(map(tuple, self.rows)), self.den
        if not rows:
            raise ValueError("empty matrix")
        if set(map(len, rows)) != {len(rows)}:
            raise ValueError("matrix must be square")
        if den != 1:
            if den == 0:
                raise ZeroDivisionError("matrix denominator is zero")
            g = gcd(den, *chain.from_iterable(rows))
            if den < 0:
                g = -g
            if g != 1:
                rows, den = tuple(tuple(x // g for x in row) for row in rows), den // g
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "den", den)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[Fraction]]) -> "RationalMatrix":
        """The matrix of any values ``Fraction`` accepts."""
        fracs = [[Fraction(v) for v in row] for row in rows]
        den = lcm(*(v.denominator for row in fracs for v in row))
        return cls([[v.numerator * (den // v.denominator) for v in row] for row in fracs], den)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)], 1)

    @classmethod
    def zeros(cls, n: int) -> "RationalMatrix":
        return cls([[0] * n for _ in range(n)], 1)

    @classmethod
    def diagonal(cls, values: Sequence[Fraction]) -> "RationalMatrix":
        n = len(values)
        return cls.from_rows([[values[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        den = self.den
        return tuple(tuple(Fraction(x, den) for x in row) for row in self.rows)

    def _common(self, other: "RationalMatrix") -> tuple[Sequence, Sequence, int]:
        """The rows of self and other over one denominator."""
        self._check_dim(other)
        da, db = self.den, other.den
        if da == db:
            return self.rows, other.rows, da
        d = lcm(da, db)
        fa, fb = d // da, d // db
        return (
            [[x * fa for x in row] for row in self.rows],
            [[x * fb for x in row] for row in other.rows],
            d,
        )

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        a, b, d = self._common(other)
        return RationalMatrix([list(map(add, ra, rb)) for ra, rb in zip(a, b)], d)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        a, b, d = self._common(other)
        return RationalMatrix([list(map(sub, ra, rb)) for ra, rb in zip(a, b)], d)

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix([[-x for x in row] for row in self.rows], self.den)

    def scale(self, c: Fraction) -> "RationalMatrix":
        c = Fraction(c)
        cn = c.numerator
        return RationalMatrix([[cn * x for x in row] for row in self.rows], c.denominator * self.den)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        # integer dot products over the product of the denominators
        self._check_dim(other)
        cols = tuple(zip(*other.rows))
        return RationalMatrix(
            [[sum(map(mul, row, col)) for col in cols] for row in self.rows],
            self.den * other.den,
        )

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(tuple(zip(*self.rows)), self.den)

    def is_symmetric(self) -> bool:
        return self.rows == tuple(zip(*self.rows))

    def is_zero(self) -> bool:
        return not any(map(any, self.rows))

    def commutator(self, other: "RationalMatrix") -> "RationalMatrix":
        return self @ other - other @ self

    def row_sum_bound(self) -> Fraction:
        """Max absolute row sum; an upper bound for the operator norm."""
        return Fraction(max(sum(map(abs, row)) for row in self.rows), self.den)

    def _check_dim(self, other: "RationalMatrix") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch {self.dim} vs {other.dim}")

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "entries": [[format_rational(v) for v in row] for row in self.entries],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "RationalMatrix":
        rows = [[parse_rational(v) for v in row] for row in obj["entries"]]
        mat = cls.from_rows(rows)
        if mat.dim != int(obj["dim"]):
            raise ValueError("matrix dim field disagrees with entries")
        return mat


def psd_check(m: RationalMatrix) -> bool:
    """Exact positive semidefiniteness for a symmetric rational matrix.

    Symmetric elimination: pick the first strictly positive pivot on the
    diagonal and eliminate its row and column; a matrix with no positive
    diagonal left is positive semidefinite iff it is zero.  Any negative
    diagonal entry, or a zero diagonal entry with a nonzero residual row,
    witnesses a direction of negativity.  Non symmetric input is rejected.

    The elimination is fraction-free (Bareiss 1968) on the integer matrix
    A = den * m, den > 0, which is psd exactly when m is.  With pivots
    p_1 .. p_k taken so far, P = {p_1 .. p_k} and d_k = det A[P, P]
    (d_0 = 1), the step a_ij <- (d_k * a_ij - a_ip_k * a_p_kj) / d_(k-1)
    leaves a_ij = det A[P + i, P + j]: by Sylvester's identity the division
    is exact.  That minor is d_k times entry (i, j) of the Schur complement
    that rational elimination of A holds after the same k pivots, and d_k
    is the product of that elimination's k pivot values, each positive.
    So every diagonal sign, every zero residual row, and hence every pivot
    choice and the answer are those of the rational elimination.
    """
    if not m.is_symmetric():
        raise ValueError("psd_check requires a symmetric matrix")
    return _psd_integer([list(row) for row in m.rows])


def _psd_integer(a: list[list[int]]) -> bool:
    """Whether the symmetric integer matrix a is psd; a is overwritten.

    The Bareiss elimination of ``psd_check``, which states why it decides
    exactly; symmetry is the caller's to ensure.
    """
    active = list(range(len(a)))
    prev = 1
    while active:
        if any(a[i][i] < 0 for i in active):
            return False
        p = next((i for i in active if a[i][i] > 0), None)
        if p is None:
            # all remaining diagonal entries are zero
            return all(a[i][j] == 0 for i in active for j in active)
        d, row_p = a[p][p], a[p]
        active.remove(p)
        for i in active:
            row_i = a[i]
            f = row_i[p]
            for j in active:
                row_i[j] = (d * row_i[j] - f * row_p[j]) // prev
        prev = d
    return True


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [v / pv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def invert(m: RationalMatrix) -> RationalMatrix:
    """Exact inverse via Gauss-Jordan; raises ValueError when singular."""
    n = m.dim
    aug = [list(row) + [Fraction(1) if i == j else Fraction(0) for j in range(n)] for i, row in enumerate(m.entries)]
    rows, pivots = _rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return RationalMatrix.from_rows([row[n:] for row in rows])
