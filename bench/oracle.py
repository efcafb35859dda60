"""Independent oracles for benchmark answers.

Nothing here imports rieszspec.  Exact checks use plain ``Fraction`` lists;
eigenvalues of matrices with irrational spectra come from a float Jacobi
sweep, and every float comparison is made with ``FLOAT_MARGIN``, which is
many orders of magnitude above the float error of a 3x3 symmetric
eigenproblem with small integer entries.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

FLOAT_MARGIN = 1e-9

Matrix = list[list[Fraction]]


def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def matmul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n)]
            for i in range(n)]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def add(a: Matrix, b: Matrix, cb: Fraction = Fraction(1)) -> Matrix:
    return [[x + cb * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def scale(c: Fraction, a: Matrix) -> Matrix:
    return [[c * x for x in row] for row in a]


def inverse(a: Matrix) -> Matrix:
    """Gauss-Jordan inverse of an invertible rational matrix."""
    n = len(a)
    m = [list(row) + identity(n)[i] for i, row in enumerate(a)]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [v * inv for v in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [row[n:] for row in m]


def det(a: Matrix) -> Fraction:
    m = [list(row) for row in a]
    n, out = len(m), Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            out = -out
        out *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return out


def is_psd(a: Matrix) -> bool:
    """Every principal minor nonnegative; exact, fine for n <= 4."""
    n = len(a)
    return all(
        det([[a[i][j] for j in idx] for i in idx]) >= 0
        for k in range(1, n + 1)
        for idx in combinations(range(n), k)
    )


def frame_diagonal(frame: Matrix, x: Matrix) -> list[Fraction] | None:
    """Diagonal of frame^T x frame, or None if x is not diagonal in the frame."""
    d = matmul(matmul(transpose(frame), x), frame)
    n = len(d)
    if any(d[i][j] != 0 for i in range(n) for j in range(n) if i != j):
        return None
    return [d[i][i] for i in range(n)]


def jacobi_eigenvalues(a: list[list[float]], sweeps: int = 50) -> list[float]:
    """Eigenvalues of a real symmetric matrix by cyclic Jacobi rotations."""
    m = [list(map(float, row)) for row in a]
    n = len(m)
    for _ in range(sweeps):
        off = math.fsum(m[i][j] ** 2 for i in range(n) for j in range(n) if i != j)
        if off < 1e-30:
            break
        for p in range(n):
            for q in range(p + 1, n):
                if m[p][q] == 0.0:
                    continue
                theta = (m[q][q] - m[p][p]) / (2 * m[p][q])
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1 / math.hypot(t, 1.0)
                s = t * c
                for k in range(n):
                    mkp, mkq = m[k][p], m[k][q]
                    m[k][p], m[k][q] = c * mkp - s * mkq, s * mkp + c * mkq
                for k in range(n):
                    mpk, mqk = m[p][k], m[q][k]
                    m[p][k], m[q][k] = c * mpk - s * mqk, s * mpk + c * mqk
    return sorted(m[i][i] for i in range(n))

