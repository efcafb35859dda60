"""Seeded input generation: plain rationals and matrices, no rieszspec.

Each workload round draws from ``random.Random(f"{workload}/{seed}/{round}")``
(string seeds hash with SHA-512, so draws do not depend on PYTHONHASHSEED).
The program only ever sees the data produced here.
"""
from __future__ import annotations

import random
from fractions import Fraction

from oracle import FLOAT_MARGIN, Matrix, add, identity, inverse, jacobi_eigenvalues, matmul, transpose

SQUARES = [Fraction(1, 4), Fraction(1), Fraction(9, 4), Fraction(4), Fraction(25, 4)]


def round_rng(workload: str, seed: int, rnd: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{rnd}")


def frac(rng: random.Random, max_num: int, max_den: int = 8) -> Fraction:
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def qn_coords(rng: random.Random, n: int, max_num: int) -> list[Fraction]:
    return [frac(rng, max_num) for _ in range(n)]


def pl_points(rng: random.Random, inner: int, max_num: int) -> list[tuple[Fraction, Fraction]]:
    """Breakpoints at 0, 1 and ``inner`` distinct knots k/32."""
    xs = {Fraction(0), Fraction(1)}
    while len(xs) < inner + 2:
        xs.add(Fraction(rng.randint(1, 31), 32))
    return [(x, frac(rng, max_num)) for x in sorted(xs)]


def spanning(rng: random.Random, values: list[Fraction], max_num: int) -> list[Fraction]:
    """Overwrite two entries with max_num and -max_num: the certified range,
    and with it the size of a norm audit's net, is then fixed by max_num
    rather than by luck."""
    i, j = rng.sample(range(len(values)), 2)
    out = list(values)
    out[i], out[j] = Fraction(max_num), Fraction(-max_num)
    return out


def orthogonal_frame(rng: random.Random, dim: int) -> Matrix:
    """Rational orthogonal matrix (I - S)(I + S)^-1 for a random skew S.

    No entry of S is 0, so no frame is the identity or leaves a coordinate
    fixed: such frames make much cheaper problems than the rest.
    """
    s = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            v = Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3))
            s[i][j], s[j][i] = v, -v
    eye = identity(dim)
    return matmul(add(eye, s, Fraction(-1)), inverse(add(eye, s)))


def conjugate(frame: Matrix, diag: list[Fraction]) -> Matrix:
    """frame @ diag(diag) @ frame^T."""
    n = len(diag)
    d = [[diag[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    return matmul(matmul(frame, d), transpose(frame))


def family(rng: random.Random, dim: int, spectra: list[list[Fraction]]) -> tuple[Matrix, list[Matrix]]:
    """A random frame and one commuting member per prescribed spectrum."""
    frame = orthogonal_frame(rng, dim)
    return frame, [conjugate(frame, eigs) for eigs in spectra]


def pick(rng: random.Random, palette: list[Fraction], k: int) -> list[Fraction]:
    return [palette[rng.randrange(len(palette))] for _ in range(k)]


def _cubic_has_integer_root(c: list[int]) -> bool:
    """c = [c0, c1, c2, 1] monic integer cubic; rational roots are integer divisors of c0."""
    c0 = c[0]
    if c0 == 0:
        return True
    for d in range(1, abs(c0) + 1):
        if c0 % d == 0:
            for r in (d, -d):
                if ((r + c[2]) * r + c[1]) * r + c0 == 0:
                    return True
    return False


def irrational_symmetric(rng: random.Random) -> tuple[Matrix, list[float]]:
    """Integer symmetric 3x3 matrix with three distinct irrational eigenvalues.

    The characteristic polynomial is a monic integer cubic without integer
    roots, hence irreducible over Q; its eigenvalues are kept at least 1/4
    apart so float oracles decide every comparison with room to spare.
    """
    while True:
        m = [[0] * 3 for _ in range(3)]
        for i in range(3):
            m[i][i] = rng.randint(-2, 3)
            for j in range(i + 1, 3):
                m[i][j] = m[j][i] = rng.randint(-2, 2)
        tr = m[0][0] + m[1][1] + m[2][2]
        minors = sum(m[i][i] * m[j][j] - m[i][j] * m[j][i] for i in range(3) for j in range(i + 1, 3))
        det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
               - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
               + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
        if _cubic_has_integer_root([-det, minors, -tr, 1]):
            continue
        eigs = jacobi_eigenvalues(m)
        if min(b - a for a, b in zip(eigs, eigs[1:])) < 0.25:
            continue
        return [[Fraction(v) for v in row] for row in m], eigs


def far_from(values: list[float], c: float) -> bool:
    return all(abs(v - c) > 1e-6 + FLOAT_MARGIN for v in values)
