"""Exact rational substrate: intervals, dyadic rounding, and symmetric matrices.

Everything in this module is float free.  Rationals are stdlib ``Fraction``
values (arbitrary precision, canonical lowest terms, positive denominator),
matrices are immutable tuples of tuples, and every decision procedure is an
exact computation.  The positive semidefinite test is the single trusted
primitive that the rest of the package reduces order questions to.

The two matrix hot paths run on integers: a matrix is put over the lcm of
its entry denominators, products are integer dot products with one reduced
``Fraction`` built per output entry, and the psd test is fraction-free
(Bareiss) elimination on that integer matrix.  That elimination is one
private integer core, ``_psd_integer``: ``psd_check`` hands it
``_integer_rows`` of its argument, and the f-algebra kernels, which hold
their iterates as integer matrices over one denominator, hand it theirs.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Sequence

Rational = Fraction

__all__ = [
    "Rational",
    "parse_rational",
    "format_rational",
    "RenderError",
    "round_dyadic",
    "RatInterval",
    "interval_combine",
    "interval_distance",
    "interval_grid_window",
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


def round_dyadic(q: Fraction, k: int, mode: str = "down") -> Fraction:
    """Round to the dyadic grid 2**-k, toward -inf ("down") or +inf ("up")."""
    if k < 0:
        raise ValueError("grid exponent must be nonnegative")
    scaled = Fraction(q) * (1 << k)
    if mode == "down":
        n = scaled.numerator // scaled.denominator
    elif mode == "up":
        n = -((-scaled.numerator) // scaled.denominator)
    else:
        raise ValueError(f"mode must be 'down' or 'up', got {mode!r}")
    return Fraction(n, 1 << k)


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


def interval_combine(i: RatInterval, j: RatInterval, mode: str) -> RatInterval:
    """Endpointwise sum or join of open intervals."""
    if mode == "sum":
        return RatInterval(i.lo + j.lo, i.hi + j.hi)
    if mode == "join":
        return RatInterval(max(i.lo, j.lo), max(i.hi, j.hi))
    raise ValueError(f"mode must be 'sum' or 'join', got {mode!r}")


def interval_distance(i: RatInterval, j: RatInterval) -> Fraction:
    """Gap between two open intervals; 0 exactly when they overlap."""
    return max(j.lo - i.hi, i.lo - j.hi, Fraction(0))


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


def _integer_rows(
    entries: tuple[tuple[Fraction, ...], ...]
) -> tuple[list[list[int]], int]:
    """(rows, den) with entries[i][j] == rows[i][j] / den, den the lcm of the denominators."""
    den = lcm(*(v.denominator for row in entries for v in row))
    if den == 1:
        return [[v.numerator for v in row] for row in entries], 1
    return [[v.numerator * (den // v.denominator) for v in row] for row in entries], den


def _as_fraction_rows(rows: Iterable[Iterable[Fraction]]) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


@dataclass(frozen=True)
class RationalMatrix:
    """Immutable square matrix with exact rational entries."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        if n == 0:
            raise ValueError("empty matrix")
        if any(len(row) != n for row in self.entries):
            raise ValueError("matrix must be square")

    def __hash__(self) -> int:
        # entry hashing is the hot path in caches keyed by matrices
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(self.entries)
            object.__setattr__(self, "_hash", h)
        return h

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[Fraction]]) -> "RationalMatrix":
        return cls(_as_fraction_rows(rows))

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        one, zero = Fraction(1), Fraction(0)
        return cls(tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, n: int) -> "RationalMatrix":
        zero = Fraction(0)
        return cls(tuple(tuple(zero for _ in range(n)) for _ in range(n)))

    @classmethod
    def diagonal(cls, values: Sequence[Fraction]) -> "RationalMatrix":
        vals = [Fraction(v) for v in values]
        zero = Fraction(0)
        n = len(vals)
        return cls(tuple(tuple(vals[i] if i == j else zero for j in range(n)) for i in range(n)))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def get(self, i: int, j: int) -> Fraction:
        return self.entries[i][j]

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._check_dim(other)
        return RationalMatrix(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._check_dim(other)
        return RationalMatrix(
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix(tuple(tuple(-a for a in row) for row in self.entries))

    def scale(self, c: Fraction) -> "RationalMatrix":
        c = Fraction(c)
        return RationalMatrix(tuple(tuple(c * a for a in row) for row in self.entries))

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        # integer dot products over da * db, one reduction per output entry
        self._check_dim(other)
        a, da = _integer_rows(self.entries)
        b, db = (a, da) if other is self else _integer_rows(other.entries)
        den = da * db
        cols = tuple(zip(*b))
        return RationalMatrix(
            tuple(
                tuple(Fraction(sum(map(mul, row, col)), den) for col in cols)
                for row in a
            )
        )

    def transpose(self) -> "RationalMatrix":
        n = self.dim
        return RationalMatrix(tuple(tuple(self.entries[j][i] for j in range(n)) for i in range(n)))

    def trace(self) -> Fraction:
        return sum((self.entries[i][i] for i in range(self.dim)), Fraction(0))

    def is_symmetric(self) -> bool:
        n = self.dim
        return all(self.entries[i][j] == self.entries[j][i] for i in range(n) for j in range(i))

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.entries for v in row)

    def commutator(self, other: "RationalMatrix") -> "RationalMatrix":
        return self @ other - other @ self

    def row_sum_bound(self) -> Fraction:
        """Max absolute row sum; an upper bound for the operator norm."""
        return max(sum((abs(v) for v in row), Fraction(0)) for row in self.entries)

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
    a, _ = _integer_rows(m.entries)
    n = len(a)
    if any(a[i][j] != a[j][i] for i in range(n) for j in range(i)):
        raise ValueError("psd_check requires a symmetric matrix")
    return _psd_integer(a)


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
