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

Order facts (is b - a positive semidefinite, suprema of spectra, how far
an element sits inside an interval) then reduce to exact comparisons of
rationals at rational characters, and elsewhere to exact sign tests and
refinable rational enclosures of polynomial values at isolated roots.

Elements carry an error radius ``err``: the element (A, err) stands for
any member X of the algebra within operator distance err of A, that is,
any member whose value at every character lies within err of the value
of A there.  Every certified answer is required to hold for the whole
ball, and every error bound holds per character.  The ball does not hold
arbitrary symmetric matrices near A: the operator absolute value is not
Lipschitz with constant one on those (Kato 1973), while on a commuting
algebra it acts character by character, where it is.

Lattice expressions (join, meet, interval depth) are kept as formulas.
One walk resolves an element at each character to the exact lower and
upper value of its err ball: rationals at a rational character,
elsewhere polynomials to be read at the root.  An err free element has
one value, its lower and upper bound at once; at each join, meet and
interval node one exact sign test per bound picks the operand.  The
bounds are kept on the element itself, so they live exactly as long as
it does.  Beyond its per character root data, the algebra caches only
one value polynomial per distinct matrix.  ``leq`` compares bounds by
exact sign tests, so it answers None only where the balls overlap at
some character, and an enclosure of an element's values encloses its
two bounds.  :meth:`HermSpace.materialize` turns a formula back into a
single matrix through ``falgebra.abs_element``: exactly, by the spectral
idempotents, when every character root is rational, and with a
certified error radius from the square root construction otherwise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from ..exact import RationalMatrix, RatInterval, invert, psd_check
from ..polyroots import (
    Poly,
    count_roots,
    isolate_real_roots,
    poly_add,
    poly_eval,
    poly_eval_interval,
    poly_gcd,
    poly_normalize,
    poly_scale,
    poly_sub,
    refine_root,
    sturm_chain,
)
from ..riesz import (
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


def _plus(x: Value, y: Value) -> Value:
    return x + y if isinstance(x, Fraction) else poly_add(x, y)


def _shift(x: Value, c: Fraction) -> Value:
    return x + c if isinstance(x, Fraction) else poly_add(x, (c,))


def _times(c: Rational, x: Value) -> Value:
    return c * x if isinstance(x, Fraction) else poly_scale(c, x)


def _cmp(alg: "CommutingAlgebra", x: Value, y: Value | Rational, j: int) -> int:
    """Exact sign of x - y at character j, for a value or a rational y.

    Rationals are compared directly; polynomials go to one ``value_sign``.
    """
    if isinstance(x, Fraction):
        return (x > y) - (x < y)
    if isinstance(y, tuple):
        x, y = poly_sub(x, y), 0
    return alg.value_sign(x, y, j)


class CommutingAlgebra:
    """Unital algebra generated by commuting symmetric rational matrices.

    Use is single-threaded: the root boxes, the rational roots, the
    spectral idempotents and the value polynomials are filled in lazily
    without locks.
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
                        if c.entries[r][s] != 0
                    )
                    raise ValueError(
                        f"generators {i} and {j} fail to commute: "
                        f"commutator entry ({r},{s}) = {c.entries[r][s]}"
                    )
        self.generators = gens

        # Echelon basis of the span, closed under products.  Rows are the
        # flattened basis matrices reduced in insertion order, so later
        # rows vanish at the pivots of earlier ones.
        self._rows: list[tuple[list[Fraction], int]] = []
        self._basis: list[RationalMatrix] = []
        self._insert(RationalMatrix.identity(dim))
        for g in gens:
            self._insert(g)
        queue = list(self._basis[1:])
        while queue:
            m = queue.pop(0)
            for g in gens:
                if self._insert(m @ g):
                    queue.append(self._basis[-1])
        self.size = len(self._basis)
        self.basis_norm_sum: Fraction = sum(
            (e.row_sum_bound() for e in self._basis), Fraction(0)
        )

        # Multiplication table in basis coordinates.
        self._table: dict[tuple[int, int], tuple[Fraction, ...]] = {}
        for i in range(self.size):
            for j in range(i, self.size):
                coords = self.coords_of(self._basis[i] @ self._basis[j])
                if coords is None:
                    raise ValueError("algebra closure failed to capture a product")
                self._table[(i, j)] = coords

        self._vpoly: dict[RationalMatrix, Poly] = {}
        # per character, once decided: its rational root, or None
        self._exact: dict[int, Fraction | None] = {}
        # spectral idempotents, built on first use when every root is rational
        self._idem: tuple[RationalMatrix, ...] | None = None
        self._init_characters()

    # -- linear structure ------------------------------------------------

    def _insert(self, m: RationalMatrix) -> bool:
        vec = [c for row in m.entries for c in row]
        for rvec, piv in self._rows:
            f = vec[piv]
            if f:
                for k in range(len(vec)):
                    vec[k] -= f * rvec[k]
        piv = next((k for k, v in enumerate(vec) if v), None)
        if piv is None:
            return False
        inv = 1 / vec[piv]
        vec = [v * inv for v in vec]
        self._rows.append((vec, piv))
        d = self.dim
        self._basis.append(
            RationalMatrix.from_rows([vec[r * d : (r + 1) * d] for r in range(d)])
        )
        return True

    def coords_of(self, m: RationalMatrix) -> tuple[Fraction, ...] | None:
        """Coordinates of m in the reduced basis, or None if outside the span."""
        vec = [c for row in m.entries for c in row]
        coords: list[Fraction] = []
        for rvec, piv in self._rows:
            f = vec[piv]
            coords.append(f)
            if f:
                for k in range(len(vec)):
                    vec[k] -= f * rvec[k]
        if any(vec):
            return None
        return tuple(coords)

    def mat_of(self, coords: Sequence[Rational]) -> RationalMatrix:
        out = RationalMatrix.zeros(self.dim)
        for c, e in zip(coords, self._basis):
            if c:
                out = out + e.scale(Fraction(c))
        return out

    def mult_coeffs(
        self, a: Sequence[Fraction], b: Sequence[Fraction]
    ) -> tuple[Fraction, ...]:
        """Coordinates of the product of two members given in coordinates."""
        out = [Fraction(0)] * self.size
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                if not cb:
                    continue
                t = self._table[(i, j) if i <= j else (j, i)]
                f = ca * cb
                for k, ck in enumerate(t):
                    if ck:
                        out[k] += f * ck
        return tuple(out)

    # -- characters ------------------------------------------------------

    def _init_characters(self) -> None:
        s = self.size
        sep = None
        for t in range(64):
            w = Fraction(1)
            cand = RationalMatrix.zeros(self.dim)
            for e in self._basis:
                cand = cand + e.scale(w)
                w *= t + 1
            mp = self._minpoly_of(cand)
            if len(mp) - 1 == s:
                sep = cand
                self._minpoly = mp
                break
        if sep is None:  # pragma: no cover - generic weights always separate
            raise ValueError("no separating combination found in the algebra")
        self._sep = sep
        roots = isolate_real_roots(self._minpoly)
        if len(roots) != s:  # pragma: no cover - spectra here are always real
            raise ValueError("separating member has unexpected complex spectrum")
        self._roots: list[list[Fraction]] = [[lo, hi] for lo, hi in roots]
        # leading coefficient of the primitive integer minimal polynomial:
        # every rational root has a denominator dividing it
        den = math.lcm(*(c.denominator for c in self._minpoly))
        self._lead = den // math.gcd(*(int(c * den) for c in self._minpoly))

        # Power basis change: coordinates -> polynomial in the separating member.
        power = RationalMatrix.identity(self.dim)
        cols = []
        for _ in range(s):
            c = self.coords_of(power)
            assert c is not None
            cols.append(c)
            power = power @ sep
        pm = RationalMatrix.from_rows([[cols[i][r] for i in range(s)] for r in range(s)])
        self._power_inv = invert(pm)

    def _minpoly_of(self, m: RationalMatrix) -> Poly:
        rows: list[tuple[list[Fraction], int, dict[int, Fraction]]] = []
        power = RationalMatrix.identity(self.dim)
        k = 0
        while True:
            coords = self.coords_of(power)
            assert coords is not None
            vec = list(coords)
            combo = {k: Fraction(1)}
            for rvec, piv, cmb in rows:
                f = vec[piv]
                if f:
                    for t in range(len(vec)):
                        vec[t] -= f * rvec[t]
                    for i, c in cmb.items():
                        combo[i] = combo.get(i, Fraction(0)) - f * c
            piv = next((t for t, v in enumerate(vec) if v), None)
            if piv is None:
                out = [Fraction(0)] * (k + 1)
                for i, c in combo.items():
                    out[i] = c
                return poly_normalize(out)
            inv = 1 / vec[piv]
            rows.append(
                ([v * inv for v in vec], piv, {i: c * inv for i, c in combo.items()})
            )
            power = power @ m
            k += 1

    @property
    def char_count(self) -> int:
        return len(self._roots)

    def value_poly_of(self, m: RationalMatrix) -> Poly:
        """Polynomial q with q(gamma_j) = value of m at character j."""
        q = self._vpoly.get(m)
        if q is not None:
            return q
        coords = self.coords_of(m)
        if coords is None:
            raise SpaceMismatchError("matrix lies outside the algebra span")
        inv = self._power_inv.entries
        q = poly_normalize(
            [
                sum(inv[i][t] * coords[t] for t in range(self.size))
                for i in range(self.size)
            ]
        )
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
        lo, hi = self._roots[j]
        r = None
        if lo == hi:
            r = lo
        else:
            lead = self._lead
            a, b = refine_root(self._minpoly, lo, hi, Fraction(1, 2 * lead * lead))
            c = ((a + b) / 2).limit_denominator(lead)
            if a <= c <= b and poly_eval(self._minpoly, c) == 0:
                r = c
                self._roots[j] = [r, r]
        self._exact[j] = r
        return r

    def idempotents(self) -> tuple[RationalMatrix, ...] | None:
        """Spectral idempotents E_j when every character root is rational.

        E_j = prod_{k != j} (G - r_k I) / (r_j - r_k) for the separating
        member G with roots r_k: E_j is 1 at character j and 0 at every
        other, so any member b equals sum_j b(j) E_j.  Built once, on
        first use; None when some root is irrational.
        """
        if self._idem is None:
            roots = []
            for j in range(self.char_count):
                r = self.rational_root(j)
                if r is None:
                    return None
                roots.append(r)
            eye = RationalMatrix.identity(self.dim)
            idem = []
            for j, rj in enumerate(roots):
                e = eye
                for k, rk in enumerate(roots):
                    if k != j:
                        e = e @ (self._sep - eye.scale(rk)).scale(1 / (rj - rk))
                idem.append(e)
            self._idem = tuple(idem)
        return self._idem

    def root_box(self, j: int, width: Fraction) -> tuple[Fraction, Fraction]:
        """Isolating interval of character root j, refined below width.

        A rational root is held exactly, as the one point box (r, r).
        """
        self.rational_root(j)
        lo, hi = self._roots[j]
        if hi - lo > width:
            lo, hi = refine_root(self._minpoly, lo, hi, width)
            self._roots[j][0] = lo
            self._roots[j][1] = hi
        return lo, hi

    def value_interval(
        self, q: Poly, j: int, target: Fraction
    ) -> tuple[Fraction, Fraction]:
        """Enclosure of q(gamma_j), refined until its width is at most target."""
        lo, hi = self.root_box(j, max(target, Fraction(1, 1 << 60)))
        while True:
            vlo, vhi = poly_eval_interval(q, lo, hi)
            if lo == hi or vhi - vlo <= target:
                return vlo, vhi
            lo, hi = self.root_box(j, (hi - lo) / 4)

    def value_sign(self, q: Poly, c: Rational, j: int) -> int:
        """Exact sign of q(gamma_j) - c.

        At a character whose root is rational, q is evaluated there
        exactly.  Elsewhere one interval enclosure of q(gamma_j) - c over
        the current root box settles almost every sign; only an enclosure
        that straddles 0 goes on to a gcd test against the minimal
        polynomial, which finds an exact zero, and then to interval
        refinement.
        """
        c = Fraction(c)
        lo, hi = self.root_box(j, Fraction(1, 4))
        if lo == hi:
            v = poly_eval(q, lo) - c
            return (v > 0) - (v < 0)
        d = poly_sub(q, (c,))
        vlo, vhi = poly_eval_interval(d, lo, hi)
        if vlo <= 0 <= vhi:
            if not d:
                return 0
            g = poly_gcd(self._minpoly, d)
            if len(g) > 1 and count_roots(sturm_chain(g), lo, hi) >= 1:
                return 0
            while vlo <= 0 <= vhi:
                lo, hi = self.root_box(j, (hi - lo) / 4)
                vlo, vhi = poly_eval_interval(d, lo, hi)
        return 1 if vlo > 0 else -1


@dataclass(frozen=True)
class HermElement(RieszElement):
    """Member of the algebra with error radius, or a lattice formula."""

    space: "HermSpace"
    matrix: RationalMatrix | None
    err: Fraction
    formula: tuple | None = None

    def __hash__(self) -> int:
        # formula trees nest elements; hash each node once, not per lookup
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.space, self.matrix, self.err, self.formula))
            object.__setattr__(self, "_hash", h)
        return h


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
        if self.algebra.coords_of(m) is None:
            raise SpaceMismatchError("matrix lies outside the generated algebra")
        return HermElement(self, m, e)

    def zero(self) -> HermElement:
        return HermElement(self, RationalMatrix.zeros(self.dim), Fraction(0))

    def unit(self) -> HermElement:
        return HermElement(self, RationalMatrix.identity(self.dim), Fraction(0))

    # -- vector operations ----------------------------------------------

    def add(self, a: HermElement, b: HermElement) -> HermElement:
        self._require(a, b)
        if a.formula is None and b.formula is None:
            return HermElement(self, a.matrix + b.matrix, a.err + b.err)
        return HermElement(self, None, a.err + b.err, ("add", a, b))

    def scale(self, c: Rational, a: HermElement) -> HermElement:
        self._require(a)
        c = Fraction(c)
        if c == 0:
            return self.zero()
        if a.formula is None:
            return HermElement(self, a.matrix.scale(c), abs(c) * a.err)
        return HermElement(self, None, abs(c) * a.err, ("scale", c, a))

    def negate(self, a: HermElement) -> HermElement:
        return self.scale(Fraction(-1), a)

    def multiply(self, a: HermElement, b: HermElement) -> HermElement:
        self._require(a, b)
        if a.formula is not None or b.formula is not None:
            raise TypeError("materialize lattice formulas before multiplying")
        na = a.matrix.row_sum_bound()
        nb = b.matrix.row_sum_bound()
        err = na * b.err + nb * a.err + a.err * b.err
        return HermElement(self, a.matrix @ b.matrix, err)

    # -- lattice operations (formula based, exact through characters) ----

    def join(self, a: HermElement, b: HermElement) -> HermElement:
        self._require(a, b)
        return HermElement(self, None, max(a.err, b.err), ("join", a, b))

    def meet(self, a: HermElement, b: HermElement) -> HermElement:
        self._require(a, b)
        return HermElement(self, None, max(a.err, b.err), ("meet", a, b))

    def in_interval(self, a: HermElement, p: Rational, q: Rational) -> HermElement:
        self._require(a)
        p, q = Fraction(p), Fraction(q)
        if not p < q:
            raise ValueError(f"empty interval ({p}, {q})")
        return HermElement(self, None, a.err, ("ii", a, p, q))

    # -- character evaluation -------------------------------------------

    def _bounds(self, e: HermElement, j: int) -> tuple[Value, Value]:
        """Exact lower and upper value of e's err ball at character j.

        At a character whose root is rational each bound is a Fraction,
        elsewhere one polynomial whose value at the root is that bound.
        An err free element gives the same object twice.  Each max, min
        and interval tent picks its operand by one exact sign test.
        Results are kept on e itself, so they live exactly as long as the
        element.
        """
        vals = e.__dict__.get("_vals")
        if vals is None:
            vals = {}
            object.__setattr__(e, "_vals", vals)
        got = vals.get(j)
        if got is not None:
            return got
        alg = self.algebra
        f = e.formula
        if f is None:
            v = alg.value_poly_of(e.matrix)
            r = alg.rational_root(j)
            if r is not None:
                v = poly_eval(v, r)
            got = (v, v) if not e.err else (_shift(v, -e.err), _shift(v, e.err))
        elif f[0] == "add":
            alo, ahi = self._bounds(f[1], j)
            blo, bhi = self._bounds(f[2], j)
            lo = _plus(alo, blo)
            got = (lo, lo if alo is ahi and blo is bhi else _plus(ahi, bhi))
        elif f[0] == "scale":
            c = f[1]
            blo, bhi = self._bounds(f[2], j)
            lo = _times(c, blo)
            hi = lo if blo is bhi else _times(c, bhi)
            got = (lo, hi) if c > 0 else (hi, lo)
        elif f[0] == "ii":
            _, b, p, q = f
            blo, bhi = self._bounds(b, j)
            # depth(x) = min(x - p, q - x) is a tent peaking at m = (p + q)/2:
            # over [blo, bhi] its least value is at the end farther from m,
            # its greatest at the end nearer m, or m itself when inside
            left = _cmp(alg, _plus(blo, bhi), p + q, j) <= 0
            lo = _shift(blo, -p) if left else _shift(_times(-1, bhi), q)
            if blo is bhi:
                hi = lo
            elif left and _cmp(alg, _times(2, bhi), p + q, j) <= 0:
                hi = _shift(bhi, -p)
            elif not left and _cmp(alg, _times(2, blo), p + q, j) >= 0:
                hi = _shift(_times(-1, blo), q)
            else:
                hi = (q - p) / 2 if isinstance(blo, Fraction) else ((q - p) / 2,)
            got = (lo, hi)
        else:
            alo, ahi = self._bounds(f[1], j)
            blo, bhi = self._bounds(f[2], j)
            meet = f[0] == "meet"

            def pick(x: Value, y: Value) -> Value:
                return x if (_cmp(alg, x, y, j) <= 0) == meet else y

            lo = pick(alo, blo)
            got = (lo, lo if alo is ahi and blo is bhi else pick(ahi, bhi))
        vals[j] = got
        return got

    def _char_interval(
        self, e: HermElement, j: int, target: Fraction
    ) -> tuple[Fraction, Fraction]:
        """Enclosure of the value of e at character j, err ball included.

        The two exact bounds are enclosed, each to target/2 when they
        differ, so the width exceeds hi - lo by at most target.
        """
        lo, hi = self._bounds(e, j)
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
        return _cmp(self.algebra, self._bounds(e, j)[0], 0, j)

    # -- order -----------------------------------------------------------

    def leq(self, a: HermElement, b: HermElement) -> bool | None:
        """Whether a <= b holds for the whole of both err balls.

        False when b's upper bound falls below a's lower bound at some
        character, True when b's lower bound reaches a's upper bound at
        every character, and None otherwise.
        """
        self._require(a, b)
        if a.formula is None and b.formula is None and not (a.err or b.err):
            return psd_check(b.matrix - a.matrix)
        alg = self.algebra
        pending = False
        for j in range(alg.char_count):
            alo, ahi = self._bounds(a, j)
            blo, bhi = self._bounds(b, j)
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

    def interval_sup_upper(self, b: HermElement, iv: RatInterval) -> Fraction | None:
        self._require(b)
        target = iv.width / 4
        best: Fraction | None = None
        for j in range(self.algebra.char_count):
            vlo, vhi = self._char_interval(b, j, target)
            u = min(vhi - iv.lo, iv.hi - vlo)
            if best is None or u > best:
                best = u
        if best is None or best <= 0:
            return None
        return min(best, iv.width / 2)

    def dominance_ceiling(self, x: HermElement, y: HermElement) -> int | None:
        self._require(x, y)
        if x.err or y.err:
            raise ToleranceError("dominance search needs err free operands")
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

    def materialize(self, a: HermElement, tol: Rational | None = None) -> HermElement:
        """Collapse a lattice formula to one matrix with certified err.

        Each interval, meet, and join node costs one absolute value, so
        the tolerance is split evenly across the distinct such nodes.  A
        node's err is the larger err of its materialized operands plus
        half the approximation error of its absolute value.
        """
        self._require(a)
        if a.formula is None:
            return a
        tol = Fraction(tol if tol is not None else self.lattice_tol)
        if tol <= 0:
            raise ValueError("tol must be positive")
        seen: set[HermElement] = set()

        def count(e: HermElement) -> int:
            if e.formula is None or e in seen:
                return 0
            seen.add(e)
            kids = [x for x in e.formula[1:] if isinstance(x, HermElement)]
            own = 1 if e.formula[0] in ("ii", "meet", "join") else 0
            return own + sum(count(k) for k in kids)

        budget = tol / max(1, count(a))
        from ..falgebra import abs_element

        memo: dict[HermElement, HermElement] = {}

        def rec(e: HermElement) -> HermElement:
            if e.formula is None:
                return e
            got = memo.get(e)
            if got is not None:
                return got
            tag = e.formula[0]
            if tag == "add":
                out = self.add(rec(e.formula[1]), rec(e.formula[2]))
            elif tag == "scale":
                out = self.scale(e.formula[1], rec(e.formula[2]))
            else:
                if tag == "ii":
                    _, b, p, q = e.formula
                    bm = rec(b)
                    x = self.add(bm, self.scale(-p, self.unit()))
                    y = self.add(self.scale(q, self.unit()), self.negate(bm))
                else:
                    x = rec(e.formula[1])
                    y = rec(e.formula[2])
                diff = self.add(x, self.negate(y))
                d = abs_element(diff, budget)
                sign = 1 if tag == "join" else -1
                m = (x.matrix + y.matrix + d.matrix.scale(sign)).scale(Fraction(1, 2))
                # max and min move by at most max(x.err, y.err) at each
                # character; (x + y +- |x - y|) / 2 adds half the error
                # of the absolute value itself
                out = HermElement(self, m, max(x.err, y.err) + (d.err - diff.err) / 2)
            memo[e] = out
            return out

        return rec(a)

    def join_with_tol(self, a: HermElement, b: HermElement, tol: Rational) -> HermElement:
        return self.materialize(self.join(a, b), tol)

    # -- helpers ---------------------------------------------------------

    def _require(self, *elems: HermElement) -> None:
        for e in elems:
            if not isinstance(e, HermElement) or e.space != self:
                raise SpaceMismatchError("element belongs to a different space")
