"""Commuting symmetric rational matrices as an ordered vector space.

A :class:`CommutingAlgebra` closes a family of pairwise commuting
symmetric matrices under products and keeps an exact basis.  Because the
algebra is commutative and semisimple it is a product of evaluation
characters: every member is simultaneously diagonalized, and each joint
eigenvalue assigns a real algebraic number to every member.  We expose
those characters exactly.  A separating member g is found whose minimal
polynomial has degree equal to the algebra dimension; each character j
corresponds to one real root gamma_j, and the value of any member b at
character j is q_b(gamma_j) for a rational polynomial q_b obtained by
rewriting b in the power basis of g.  On first use each root is tested
for being rational (rational root test on the primitive integer minimal
polynomial).  A rational root is held exactly, and the values of err
free elements at its character are exact rationals; an irrational root
stays isolated by Sturm sequences.

The algebra is built without ``Fraction`` elimination.  A matrix is read
in its one integer form, rows over one denominator (see ``exact``), with
the rows laid end to end as one integer vector.  Each echelon row is a
primitive integer vector whose pivot entry is its denominator, so a
reduction step is p*v - a*r followed by one gcd.  The product closure,
the multiplication table and the separating candidates run on these
integer vectors.  For the separating member G one pass eliminates the
rows [coords(G**k) | e_k]: the first dependent row gives the minimal
polynomial, and the rows before it rewrite any member's coordinates in
the power basis of G.

Order facts (is b - a positive semidefinite, suprema of spectra, how far
an element sits inside an interval) then reduce to exact comparisons of
rationals at rational characters, and elsewhere to exact sign tests and
refinable rational enclosures of polynomial values at isolated roots.
Every root box is a node of one fixed dyadic tree under the root's
isolating interval, picked by the width asked for, so an enclosure does
not depend on the queries that ran before it.

Elements carry an error radius ``err``: the element (A, err) stands for
any member X of the algebra within operator distance err of A, that is,
any member whose value at every character lies within err of the value
of A there.  Every certified answer is required to hold for the whole
ball, and every error bound holds per character.  The ball does not hold
arbitrary symmetric matrices near A: the operator absolute value is not
Lipschitz with constant one on those (Kato 1973), while on a commuting
algebra it acts character by character, where it is.

By the Stone-Yosida representation an element is a function on the
characters, and the lattice operations act pointwise.  So the result of
a join, meet or interval depth, or a sum or multiple of such a result,
is held by its values: the exact lower and upper value of its err ball
at each character, rationals at a rational character, elsewhere
polynomials to be read at the root.  They are computed when the result
is built, by one exact sign test per bound that picks the operand, and
the result keeps no reference to its operands.  An err free element has
one value, its lower and upper bound at once.  A matrix element computes
its values on first read and keeps them.  Beyond its per character root
data, the algebra caches only one value polynomial per distinct matrix,
at most ``_VPOLY_CAP`` of them, dropping the oldest first.  ``leq``
compares bounds by exact sign tests, so it answers None only where the
balls overlap at some character, and an enclosure of an element's values
encloses its two bounds.

:meth:`HermSpace.materialize` turns a lattice result back into one
matrix by interpolating its values: p(G) for the separating member G,
with p through the characters' roots (or points of their root boxes) and
the midpoints of the bounds there.  On a rational spectrum this is
exact; elsewhere the boxes shrink until the certified distance from p to
the bounds meets the tolerance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from ..exact import RationalMatrix, psd_check
from ..polyroots import (
    Box,
    Poly,
    count_roots,
    isolate_real_roots,
    poly_eval,
    poly_eval_interval,
    poly_gcd,
    poly_interpolate,
    refine_root,
)
from ..riesz import (
    CertificateError,
    LocatedCut,
    Rational,
    RieszElement,
    RieszSpace,
    SpaceMismatchError,
    ToleranceError,
)

__all__ = ["CommutingAlgebra", "HermElement", "HermSpace"]


def _as_matrix(m: RationalMatrix | Sequence[Sequence[object]]) -> RationalMatrix:
    if isinstance(m, RationalMatrix):
        return m
    return RationalMatrix.from_rows(m)


# A value at one character: a Fraction where the character's root is
# rational, elsewhere a polynomial to be read at the root.  The operands
# of one call are values at one character, of one kind.
Value = Poly | Fraction


def _shift(x: Value, c: Fraction) -> Value:
    return x + c if isinstance(x, Fraction) else x + Poly.from_coeffs([c])


def _times(c: Rational, x: Value) -> Value:
    return c * x if isinstance(x, Fraction) else x.scale(c)


def _cmp(alg: "CommutingAlgebra", x: Value, y: Value | Rational, j: int) -> int:
    """Exact sign of x - y at character j, for a value or a rational y.

    Rationals are compared directly; polynomials go to one ``value_sign``.
    """
    if isinstance(x, Fraction):
        return (x > y) - (x < y)
    if isinstance(y, Poly):
        x, y = x - y, 0
    return alg.value_sign(x, y, j)


# Value polynomials an algebra keeps, the oldest dropped first.  A herm
# bench round reads at most about 40 distinct matrices per algebra.
_VPOLY_CAP = 1024


def _integers(vals: Sequence[Fraction]) -> tuple[list[int], int]:
    """(v, den) with vals == v / den, den the lcm of the denominators."""
    den = math.lcm(*(c.denominator for c in vals))
    return [c.numerator * (den // c.denominator) for c in vals], den


def _matmul(a: list[int], b: list[int], d: int) -> list[int]:
    """Product of two flattened integer d x d matrices."""
    cols = [b[j::d] for j in range(d)]
    return [sum(map(mul, a[i : i + d], col)) for i in range(0, d * d, d) for col in cols]


def _eye(d: int) -> list[int]:
    return [int(i == j) for i in range(d) for j in range(d)]


def _row(v: list[int], piv: int) -> list[int]:
    """v divided by its content, the sign chosen so that v[piv] > 0."""
    g = math.gcd(*v)
    if v[piv] < 0:
        g = -g
    return v if g == 1 else [x // g for x in v]


def _reduce(
    rows: list[tuple[list[int], int]],
    v: list[int],
    den: int,
    coeffs: list[int] | None = None,
) -> tuple[list[int], int, int]:
    """Eliminate the vector v / den against echelon rows.

    A row (r, piv) is a primitive integer vector whose pivot entry
    p = r[piv] > 0 is its denominator: it stands for r / p, which is 1 at
    piv.  With a = v[piv], the step v <- (p*v - a*r) / g, g the content
    of the new v, clears v at piv in integers and keeps v primitive, so
    its bit size stays bounded.  The vector v / den is tracked as
    (sn / sd) * v, and the step takes away a*sn / sd times the row.
    Returns (v, sn, sd), and appends to coeffs, if given, the multiple of
    each row taken away, as an integer over the returned sd: sd only gains
    factors, so the multiple a*sn / sd_i of step i is a*sn * (sd / sd_i).
    """
    sn, sd = 1, den
    steps: list[tuple[int, int]] = []  # (a*sn, sd) at each step
    for r, piv in rows:
        a = v[piv]
        if coeffs is not None:
            steps.append((a * sn, sd))
        if not a:
            continue
        p = r[piv]
        v = [p * x - a * y for x, y in zip(v, r)]
        g = math.gcd(*v)
        if g > 1:
            v = [x // g for x in v]
        sn, sd = sn * g, sd * p
    if coeffs is not None:
        coeffs.extend(c * (sd // d) for c, d in steps)
    return v, sn, sd


class CommutingAlgebra:
    """Unital algebra generated by commuting symmetric rational matrices.

    Use is single-threaded: the root boxes, the rational roots and the
    value polynomials are filled in lazily without locks.
    """

    def __init__(
        self,
        generators: Iterable[RationalMatrix | Sequence[Sequence[object]]] = (),
        dim: int | None = None,
    ) -> None:
        gens = tuple(_as_matrix(g) for g in generators)
        if gens:
            dim = gens[0].dim
        elif dim is None:
            dim = 1
        self.dim = dim
        for i, g in enumerate(gens):
            if g.dim != dim:
                raise ValueError(f"generator {i} has dimension {g.dim}, expected {dim}")
            if not g.is_symmetric():
                raise ValueError(f"generator {i} is not symmetric")
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                c = gens[i].commutator(gens[j])
                if not c.is_zero():
                    r, s = next(
                        (r, s)
                        for r in range(dim)
                        for s in range(dim)
                        if c.rows[r][s]
                    )
                    raise ValueError(
                        f"generators {i} and {j} fail to commute: "
                        f"commutator entry ({r},{s}) = {c.entries[r][s]}"
                    )
        self.generators = gens

        # Echelon basis of the span, closed under products.  Rows are the
        # flattened basis matrices reduced in insertion order, so later
        # rows vanish at the pivots of earlier ones; each is held as an
        # integer row (see _reduce) and basis matrix k is row k over its
        # pivot entry.
        self._rows: list[tuple[list[int], int]] = []
        ints = [[x for row in g.rows for x in row] for g in gens]
        self._insert(_eye(dim))
        for g in ints:
            self._insert(g)
        queue = [r for r, _ in self._rows[1:]]
        while queue:
            m = queue.pop(0)
            for g in ints:
                if self._insert(_matmul(m, g, dim)):
                    queue.append(self._rows[-1][0])
        self.size = len(self._rows)
        # max absolute row sum of each basis matrix, summed
        self.basis_norm_sum: Fraction = sum(
            (
                Fraction(max(sum(map(abs, r[i : i + dim])) for i in range(0, dim**2, dim)), r[piv])
                for r, piv in self._rows
            ),
            Fraction(0),
        )

        # basis matrix k is _scaled[k] / basis_den, flattened
        self.basis_den = math.lcm(*(r[piv] for r, piv in self._rows))
        self._scaled = [[x * (self.basis_den // r[piv]) for x in r] for r, piv in self._rows]

        # Multiplication table in basis coordinates, over one denominator:
        # basis_i * basis_j = sum_k _table[(i, j)][k] / table_den * basis_k
        products: dict[tuple[int, int], tuple[list[int], int]] = {}
        for i, (ri, pi) in enumerate(self._rows):
            for j in range(i, self.size):
                rj, pj = self._rows[j]
                coords = self._coords(_matmul(ri, rj, dim), ri[pi] * rj[pj])
                if coords is None:
                    raise ValueError("algebra closure failed to capture a product")
                products[(i, j)] = coords
        self.table_den = math.lcm(*(d for _, d in products.values()))
        self._table: dict[tuple[int, int], tuple[int, ...]] = {
            key: tuple(x * (self.table_den // d) for x in nums)
            for key, (nums, d) in products.items()
        }

        # value polynomial per matrix, the oldest dropped past _VPOLY_CAP
        self._vpoly: dict[RationalMatrix, Poly] = {}
        # per character, once decided: its rational root, or None
        self._exact: dict[int, Fraction | None] = {}
        self._init_characters()

    # -- linear structure ------------------------------------------------

    def _insert(self, v: list[int]) -> bool:
        """Add the flattened integer matrix v to the basis unless in the span."""
        v = _reduce(self._rows, v, 1)[0]
        piv = next((k for k, x in enumerate(v) if x), None)
        if piv is None:
            return False
        self._rows.append((_row(v, piv), piv))
        return True

    def _coords(self, v: list[int], den: int) -> tuple[list[int], int] | None:
        """Coordinates of the flattened matrix v / den as integers over one
        denominator, in lowest terms (gcd 1 with the denominator, which is
        then the lcm of the coordinates' denominators), or None if v / den
        lies outside the span."""
        nums: list[int] = []
        rest, _, sd = _reduce(self._rows, v, den, nums)
        if any(rest):
            return None
        g = math.gcd(sd, *nums)
        return [x // g for x in nums], sd // g

    def coords_of(self, m: RationalMatrix) -> tuple[Fraction, ...] | None:
        """Coordinates of m in the reduced basis, or None if outside the span."""
        coords = self._coords([x for row in m.rows for x in row], m.den)
        if coords is None:
            return None
        nums, den = coords
        return tuple(Fraction(x, den) for x in nums)

    def mat_of(self, coords: Sequence[Rational]) -> RationalMatrix:
        v, den = _integers([Fraction(c) for c in coords])
        return RationalMatrix(self.combine(v), den * self.basis_den)

    def combine(self, v: Sequence[int]) -> list[list[int]]:
        """sum_k v[k] * basis_k, as integer rows over basis_den."""
        d = self.dim
        out = [0] * (d * d)
        for c, row in zip(v, self._scaled):
            if c:
                out = [x + c * y for x, y in zip(out, row)]
        return [out[i : i + d] for i in range(0, d * d, d)]

    def square_coords(self, v: Sequence[int]) -> list[int]:
        """Coordinates of the square of sum_k v[k] * basis_k, as integers
        over table_den."""
        out = [0] * self.size
        for (i, j), t in self._table.items():
            f = v[i] * v[j]
            if not f:
                continue
            if i != j:
                f *= 2
            for k, c in enumerate(t):
                if c:
                    out[k] += f * c
        return out

    # -- characters ------------------------------------------------------

    def _init_characters(self) -> None:
        s = self.size
        for t in range(64):
            sep = RationalMatrix(self.combine([(t + 1) ** k for k in range(s)]), self.basis_den)
            mp, krylov = self._krylov_of([x for row in sep.rows for x in row], sep.den)
            if len(mp.nums) - 1 == s:
                break
        else:  # pragma: no cover - generic weights always separate
            raise ValueError("no separating combination found in the algebra")
        self._minpoly = mp
        self._krylov = krylov
        self._sep = sep
        roots = isolate_real_roots(self._minpoly)
        if len(roots) != s:  # pragma: no cover - spectra here are always real
            raise ValueError("separating member has unexpected complex spectrum")
        # root j's isolating box, as integers (a, w, d) for (a/d, (a + w)/d),
        # and the finest node of its dyadic tree refined so far, (k, i, lo, hi)
        self._roots: list[Box] = roots
        self._deep: list[tuple[int, int, Fraction, Fraction]] = [
            (0, 0, Fraction(a, d), Fraction(a + w, d)) for a, w, d in roots
        ]
        # leading coefficient of the primitive integer minimal polynomial,
        # which is monic: every rational root has a denominator dividing it
        self._lead = self._minpoly.den

    def _krylov_of(
        self, g: list[int], den: int
    ) -> tuple[Poly, list[tuple[list[int], int]]]:
        """Minimal polynomial of the member G = g / den, and its power rows.

        Row k starts as [coords(G**k) | e_k] over one denominator, and the
        rows are reduced in order.  Each row's right part records which
        combination of powers its left part is, so when the coordinates of
        some G**k reduce to zero the right part holds the minimal
        polynomial, up to a factor.  The rows of G**0 .. G**(k-1) come back
        with it.  Right parts have room for e_s: G**s is always dependent.
        """
        s, d = self.size, self.dim
        rows: list[tuple[list[int], int]] = []
        power, pden, k = _eye(d), 1, 0
        while True:
            coords = self._coords(power, pden)
            if coords is None:
                raise CertificateError("a power of the separating member left the algebra")
            v, cden = coords
            v += [cden if i == k else 0 for i in range(s + 1)]
            v = _reduce(rows, v, 1)[0]
            piv = next((i for i, x in enumerate(v[:s]) if x), None)
            if piv is None:
                return Poly(v[s : s + k + 1], v[s + k]), rows
            rows.append((_row(v, piv), piv))
            power, pden, k = _matmul(power, g, d), pden * den, k + 1

    @property
    def char_count(self) -> int:
        return len(self._roots)

    def value_poly_of(self, m: RationalMatrix) -> Poly:
        """Polynomial q with q(gamma_j) = value of m at character j.

        m's coordinates [c | 0] reduce against the power rows to [0 | -q],
        since each row's left part is the combination of the coordinates
        of powers of the separating member that its right part names.
        """
        q = self._vpoly.get(m)
        if q is not None:
            return q
        coords = self._coords([x for row in m.rows for x in row], m.den)
        if coords is None:
            raise SpaceMismatchError("matrix lies outside the generated algebra")
        s = self.size
        v, cden = coords
        v, sn, sd = _reduce(self._krylov, v + [0] * (s + 1), cden)
        q = Poly([-sn * x for x in v[s : 2 * s]], sd)
        if len(self._vpoly) >= _VPOLY_CAP:
            del self._vpoly[next(iter(self._vpoly))]
        self._vpoly[m] = q
        return q

    def rational_root(self, j: int) -> Fraction | None:
        """The root of character j if it is rational, else None.

        Decided once.  Two distinct rationals with denominators at most L
        lie at least 1/L**2 apart, so in a box narrower than 1/(2 L**2)
        the root, if rational, is the best approximation of the midpoint
        with denominator at most L.  The candidate is accepted only when
        it is an exact root; otherwise the box is left as it was.
        """
        if j in self._exact:
            return self._exact[j]
        _, _, lo, hi = self._deep[j]
        r = None
        if lo == hi:
            r = lo
        else:
            lead = self._lead
            a, b = refine_root(self._minpoly, lo, hi, Fraction(1, 2 * lead * lead))
            c = ((a + b) / 2).limit_denominator(lead)
            if a <= c <= b and poly_eval(self._minpoly, c) == 0:
                r = c
        self._exact[j] = r
        return r

    def root_box(self, j: int, width: Fraction) -> tuple[Fraction, Fraction]:
        """Box of character root j at the first depth of its tree whose
        width is at most width.

        Bisection from the isolating box (a/d, (a + w)/d) only ever
        halves, so every box it yields is a node of one fixed dyadic tree:
        node i at depth k is ((a 2**k + i w) / (d 2**k), (a 2**k + (i + 1) w)
        / (d 2**k)).  The answer is that node for the depth width asks
        for, whatever was refined before; the finest node refined so far
        is kept only so that a deeper request resumes from it.  A rational
        root is held exactly, as the one point box (r, r).
        """
        r = self.rational_root(j)
        if r is not None:
            return r, r
        return self._node(j, self._depth(j, Fraction(width)))

    def _depth(self, j: int, width: Fraction) -> int:
        """Least k >= 0 with w / (d 2**k) <= width, for positive width."""
        _, w, d = self._roots[j]
        return ((w * width.denominator - 1) // (d * width.numerator)).bit_length()

    def _node(self, j: int, k: int) -> tuple[Fraction, Fraction]:
        """Node of root j's tree at depth k on the path to the root."""
        deep, i, lo, hi = self._deep[j]
        if k == deep:
            return lo, hi
        a, w, d = self._roots[j]
        if k < deep:
            n = (a << k) + (i >> (deep - k)) * w
            return Fraction(n, d << k), Fraction(n + w, d << k)
        lo, hi = refine_root(self._minpoly, lo, hi, Fraction(w, d << k))
        i = (lo.numerator * (d << k) // lo.denominator - (a << k)) // w
        self._deep[j] = (k, i, lo, hi)
        return lo, hi

    def value_interval(
        self, q: Poly, j: int, target: Fraction
    ) -> tuple[Fraction, Fraction]:
        """Enclosure of q(gamma_j) over a root box, with width at most target.

        The boxes tried are the tree nodes at the depth of target, then
        two levels deeper at a time, so the enclosure depends on q, j and
        target only.
        """
        width = max(target, Fraction(1, 1 << 60))
        lo, hi = self.root_box(j, width)
        k = self._depth(j, width) if lo != hi else 0
        while True:
            vlo, vhi = poly_eval_interval(q, lo, hi)
            if lo == hi or vhi - vlo <= target:
                return vlo, vhi
            k += 2
            lo, hi = self._node(j, k)

    def value_sign(self, q: Poly, c: Rational, j: int) -> int:
        """Exact sign of q(gamma_j) - c.

        At a character whose root is rational, q is evaluated there
        exactly.  Elsewhere one interval enclosure of q(gamma_j) - c over
        the finest root box refined so far (at most 1/4 wide) settles
        almost every sign; only an enclosure that straddles 0 goes on to a
        gcd test against the minimal polynomial, which finds an exact
        zero, and then to interval refinement.  The sign is exact, so the
        box it starts from does not change the answer.
        """
        c = Fraction(c)
        r = self.rational_root(j)
        if r is not None:
            v = poly_eval(q, r) - c
            return (v > 0) - (v < 0)
        k = max(self._deep[j][0], self._depth(j, Fraction(1, 4)))
        lo, hi = self._node(j, k)
        d = q + Poly.from_coeffs([-c])
        vlo, vhi = poly_eval_interval(d, lo, hi)
        if vlo <= 0 <= vhi:
            if not d.nums:
                return 0
            g = poly_gcd(self._minpoly, d)
            if len(g.nums) > 1 and count_roots(g, lo, hi) >= 1:
                return 0
            while vlo <= 0 <= vhi:
                k += 2
                vlo, vhi = poly_eval_interval(d, *self._node(j, k))
        return 1 if vlo > 0 else -1


@dataclass(frozen=True)
class HermElement(RieszElement):
    """Member of the algebra with error radius, or a lattice result held
    by its bounds: vals[j] is the exact (lower, upper) value of its err
    ball at character j."""

    space: "HermSpace"
    matrix: RationalMatrix | None
    err: Fraction
    vals: tuple[tuple[Value, Value], ...] | None = None


class HermSpace(RieszSpace):
    """Riesz space of commuting symmetric matrices under the psd order."""

    def __init__(
        self,
        generators: Iterable | CommutingAlgebra = (),
        dim: int | None = None,
        lattice_tol: Rational = Fraction(1, 1 << 10),
    ) -> None:
        if isinstance(generators, CommutingAlgebra):
            self.algebra = generators
        else:
            self.algebra = CommutingAlgebra(generators, dim=dim)
        self.dim = self.algebra.dim
        self.lattice_tol = Fraction(lattice_tol)
        if self.lattice_tol <= 0:
            raise ValueError("lattice_tol must be positive")
        self._key = (self.dim, self.algebra.generators)
        self._hash = hash(("herm", self._key))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, HermSpace) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return (
            f"HermSpace(dim={self.dim}, generators={len(self.algebra.generators)}, "
            f"basis={self.algebra.size})"
        )

    # -- element construction -------------------------------------------

    def element(self, matrix, err: Rational = 0) -> HermElement:
        m = _as_matrix(matrix)
        e = Fraction(err)
        if e < 0:
            raise ValueError("err must be nonnegative")
        if m.dim != self.dim:
            raise SpaceMismatchError(f"matrix dimension {m.dim}, expected {self.dim}")
        if not m.is_symmetric():
            raise ValueError("matrix must be symmetric")
        # one elimination tests membership and leaves the value polynomial
        # that the element's first read takes
        self.algebra.value_poly_of(m)
        return HermElement(self, m, e)

    def zero(self) -> HermElement:
        return HermElement(self, RationalMatrix.zeros(self.dim), Fraction(0))

    def unit(self) -> HermElement:
        return HermElement(self, RationalMatrix.identity(self.dim), Fraction(0))

    # -- vector operations ----------------------------------------------

    def add(self, a: HermElement, b: HermElement) -> HermElement:
        self._require(a, b)
        if a.matrix is not None and b.matrix is not None:
            return HermElement(self, a.matrix + b.matrix, a.err + b.err)
        vals = []
        for (alo, ahi), (blo, bhi) in zip(self._values(a), self._values(b)):
            lo = alo + blo
            vals.append((lo, lo if alo is ahi and blo is bhi else ahi + bhi))
        return HermElement(self, None, a.err + b.err, tuple(vals))

    def scale(self, c: Rational, a: HermElement) -> HermElement:
        self._require(a)
        c = Fraction(c)
        if c == 0:
            return self.zero()
        if a.matrix is not None:
            return HermElement(self, a.matrix.scale(c), abs(c) * a.err)
        vals = []
        for blo, bhi in a.vals:
            lo = _times(c, blo)
            hi = lo if blo is bhi else _times(c, bhi)
            vals.append((lo, hi) if c > 0 else (hi, lo))
        return HermElement(self, None, abs(c) * a.err, tuple(vals))

    def negate(self, a: HermElement) -> HermElement:
        return self.scale(Fraction(-1), a)

    def multiply(self, a: HermElement, b: HermElement) -> HermElement:
        self._require(a, b)
        if a.matrix is None or b.matrix is None:
            raise TypeError("materialize lattice results before multiplying")
        na = a.matrix.row_sum_bound()
        nb = b.matrix.row_sum_bound()
        err = na * b.err + nb * a.err + a.err * b.err
        return HermElement(self, a.matrix @ b.matrix, err)

    # -- lattice operations (pointwise at the characters) ---------------

    def join(self, a: HermElement, b: HermElement) -> HermElement:
        return self._extremum(a, b, meet=False)

    def meet(self, a: HermElement, b: HermElement) -> HermElement:
        return self._extremum(a, b, meet=True)

    def _extremum(self, a: HermElement, b: HermElement, meet: bool) -> HermElement:
        """Pointwise max of a and b, or min if meet: at each character one
        exact sign test per bound picks the operand."""
        self._require(a, b)
        alg = self.algebra
        vals = []
        for j, ((alo, ahi), (blo, bhi)) in enumerate(zip(self._values(a), self._values(b))):
            lo = alo if (_cmp(alg, alo, blo, j) <= 0) == meet else blo
            if alo is ahi and blo is bhi:
                hi = lo
            else:
                hi = ahi if (_cmp(alg, ahi, bhi, j) <= 0) == meet else bhi
            vals.append((lo, hi))
        return HermElement(self, None, max(a.err, b.err), tuple(vals))

    def in_interval(self, a: HermElement, p: Rational, q: Rational) -> HermElement:
        self._require(a)
        p, q = Fraction(p), Fraction(q)
        if not p < q:
            raise ValueError(f"empty interval ({p}, {q})")
        alg = self.algebra
        vals = []
        for j, (blo, bhi) in enumerate(self._values(a)):
            # depth(x) = min(x - p, q - x) is a tent peaking at m = (p + q)/2:
            # over [blo, bhi] its least value is at the end farther from m,
            # its greatest at the end nearer m, or m itself when inside
            left = _cmp(alg, blo + bhi, p + q, j) <= 0
            lo = _shift(blo, -p) if left else _shift(_times(-1, bhi), q)
            if blo is bhi:
                hi = lo
            elif left and _cmp(alg, _times(2, bhi), p + q, j) <= 0:
                hi = _shift(bhi, -p)
            elif not left and _cmp(alg, _times(2, blo), p + q, j) >= 0:
                hi = _shift(_times(-1, blo), q)
            else:
                hi = (q - p) / 2 if isinstance(blo, Fraction) else Poly.from_coeffs([(q - p) / 2])
            vals.append((lo, hi))
        return HermElement(self, None, a.err, tuple(vals))

    # -- character evaluation -------------------------------------------

    def _values(self, e: HermElement) -> tuple[tuple[Value, Value], ...]:
        """Exact lower and upper value of e's err ball at each character.

        At a character whose root is rational each bound is a Fraction,
        elsewhere one polynomial whose value at the root is that bound.
        An err free element gives the same object twice.  A lattice result
        holds its values; a matrix element computes them on first read and
        keeps them on itself, so they live exactly as long as it does.
        """
        if e.vals is not None:
            return e.vals
        vals = e.__dict__.get("_vals")
        if vals is None:
            alg = self.algebra
            q = alg.value_poly_of(e.matrix)
            out = []
            for j in range(alg.char_count):
                r = alg.rational_root(j)
                v = q if r is None else poly_eval(q, r)
                out.append((v, v) if not e.err else (_shift(v, -e.err), _shift(v, e.err)))
            vals = tuple(out)
            object.__setattr__(e, "_vals", vals)
        return vals

    def _char_interval(
        self, e: HermElement, j: int, target: Fraction
    ) -> tuple[Fraction, Fraction]:
        """Enclosure of the value of e at character j, err ball included.

        The two exact bounds are enclosed, each to target/2 when they
        differ, so the width exceeds hi - lo by at most target.
        """
        lo, hi = self._values(e)[j]
        if isinstance(lo, Fraction):
            return lo, hi
        alg = self.algebra
        if lo is hi:
            return alg.value_interval(lo, j, target)
        return (
            alg.value_interval(lo, j, target / 2)[0],
            alg.value_interval(hi, j, target / 2)[1],
        )

    def _char_sign(self, e: HermElement, j: int) -> int:
        """Exact sign of an err free element at character j."""
        return _cmp(self.algebra, self._values(e)[j][0], 0, j)

    # -- order -----------------------------------------------------------

    def leq(self, a: HermElement, b: HermElement) -> bool | None:
        """Whether a <= b holds for the whole of both err balls.

        False when b's upper bound falls below a's lower bound at some
        character, True when b's lower bound reaches a's upper bound at
        every character, and None otherwise.
        """
        self._require(a, b)
        # Two plain err free operands take one exact psd test of b - a:
        # over 10 herm bench rounds (seed 1) its 480 calls took 28 ms,
        # against 85 ms answered character by character.
        if a.matrix is not None and b.matrix is not None and not (a.err or b.err):
            return psd_check(b.matrix - a.matrix)
        alg = self.algebra
        pending = False
        for j, ((alo, ahi), (blo, bhi)) in enumerate(zip(self._values(a), self._values(b))):
            if _cmp(alg, bhi, alo, j) < 0:
                return False
            # with both err free at j, the test above has decided it
            if (alo is not ahi or blo is not bhi) and _cmp(alg, blo, ahi, j) < 0:
                pending = True
        return None if pending else True

    def sup_cut(self, a: HermElement) -> LocatedCut:
        self._require(a)
        nchar = self.algebra.char_count

        def fn(eps: Fraction) -> Fraction:
            if 2 * a.err >= eps:
                raise ToleranceError(f"err {a.err} too coarse for sup query at {eps}")
            target = (eps - 2 * a.err) / 2
            return max(self._char_interval(a, j, target)[1] for j in range(nchar))

        return LocatedCut(fn)

    def unit_bound(self, a: HermElement) -> int:
        self._require(a)
        hi = max(
            self._char_interval(a, j, Fraction(1, 4))[1]
            for j in range(self.algebra.char_count)
        )
        return max(0, math.ceil(hi))

    # -- capability hooks ------------------------------------------------

    def value_ranges(
        self,
        b: HermElement,
        context: HermElement | None = None,
        tol: Fraction = Fraction(1, 4),
    ) -> list[tuple[Fraction, Fraction]]:
        """Enclosure of b's value, err ball included, at each character
        where the context may be positive."""
        self._require(b)
        return [
            self._char_interval(b, j, tol)
            for j in range(self.algebra.char_count)
            if context is None or self._char_interval(context, j, Fraction(1, 8))[1] > 0
        ]

    def require_exact(self, *elems: HermElement) -> None:
        if any(e.err for e in elems):
            raise ToleranceError("the operation needs err free operands")

    def dominance_ceiling(self, x: HermElement, y: HermElement) -> int | None:
        self._require(x, y)
        self.require_exact(x, y)
        signs = [
            (self._char_sign(x, j), self._char_sign(y, j))
            for j in range(self.algebra.char_count)
        ]
        pos = [j for j, (sx, _) in enumerate(signs) if sx > 0]
        if any(signs[j][1] <= 0 for j in pos):
            return None
        if not pos:
            return 1
        bound = Fraction(0)
        for j in pos:
            width = Fraction(1, 8)
            while True:
                _, xhi = self._char_interval(x, j, width)
                ylo, _ = self._char_interval(y, j, width)
                if ylo > 0:
                    bound = max(bound, xhi / ylo)
                    break
                width = width / 16
        return max(1, math.ceil(bound))

    # -- materialization -------------------------------------------------

    def materialize(self, e: HermElement, tol: Rational | None = None) -> HermElement:
        """Collapse a lattice result to one matrix, with err at most
        e.err + tol/2.

        The result is p(G) for the separating member G and the polynomial
        p of degree below the character count that interpolates e's
        values: at a rational root r_j the node is r_j and the value the
        midpoint of e's exact bounds there; elsewhere the node is the
        midpoint of the root box of width w and the value the midpoint of
        e's enclosure at width w.  The err d is the largest upper end, over
        the characters, of the enclosures of p - lo_j and hi_j - p at the
        root, exact at rational roots, so every member of e's err ball lies
        within d of p(G) at every character.  Accepted once d <= e.err +
        tol/2, with w = tol first and w/16 after each miss; ToleranceError
        after 64 rounds.  Root boxes and enclosures are nodes of fixed
        trees, so the result depends on e and tol only.
        """
        self._require(e)
        if e.matrix is not None:
            return e
        tol = Fraction(tol if tol is not None else self.lattice_tol)
        if tol <= 0:
            raise ValueError("tol must be positive")
        alg = self.algebra
        bounds = self._values(e)
        w = tol
        for _ in range(64):
            xs: list[Fraction] = []
            ys: list[Fraction] = []
            for j, (lo, hi) in enumerate(bounds):
                if isinstance(lo, Fraction):
                    xs.append(alg.rational_root(j))
                    ys.append((lo + hi) / 2)
                else:
                    xs.append(sum(alg.root_box(j, w)) / 2)
                    ys.append(sum(self._char_interval(e, j, w)) / 2)
            p = poly_interpolate(xs, ys)
            # how far e's ball reaches from p at each character
            d = Fraction(0)
            for j, (lo, hi) in enumerate(bounds):
                if isinstance(lo, Fraction):
                    d = max(d, (hi - lo) / 2)
                else:
                    d = max(
                        d,
                        alg.value_interval(p - lo, j, w)[1],
                        alg.value_interval(hi - p, j, w)[1],
                    )
            if d <= e.err + tol / 2:
                # p(G) = (sum_i nums[i] * G**i) / den
                eye = RationalMatrix.identity(self.dim)
                m = RationalMatrix.zeros(self.dim)
                for c in reversed(p.nums):
                    m = m @ alg._sep + eye.scale(c)
                return HermElement(self, m.scale(Fraction(1, p.den)), max(e.err, d))
            w /= 16
        raise ToleranceError(f"materialize did not reach tol {tol} in 64 rounds")

    def join_with_tol(self, a: HermElement, b: HermElement, tol: Rational) -> HermElement:
        return self.materialize(self.join(a, b), tol)

    # -- helpers ---------------------------------------------------------

    def _require(self, *elems: HermElement) -> None:
        for e in elems:
            if not isinstance(e, HermElement) or e.space != self:
                raise SpaceMismatchError("element belongs to a different space")
