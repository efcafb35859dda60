"""Commuting symmetric matrices: characters, dual order routes, formulas."""
from fractions import Fraction as F
import gc
import math
import random
import weakref

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from rieszspec.exact import RationalMatrix, psd_check
from rieszspec.instances import CommutingAlgebra, HermSpace, herm
from rieszspec.instances.herm import HermElement
from rieszspec.lattice import cover_interval, cover_range
from rieszspec.polyroots import _sturm_ints, isolate_real_roots, poly_eval_interval, poly_gcd
from rieszspec.riesz import CertificateError, SpaceMismatchError, ToleranceError, norm_cut
from rieszspec.sampling import rand_diagonal_family, rand_orthogonal
from rieszspec.spectrum import epsilon_net, pos_or_below, stone_yosida_check

import oracles


def _boxes(p):
    """The isolating boxes of p as (lo, hi) pairs of Fractions."""
    return [(F(a, d), F(a + w, d)) for a, w, d in isolate_real_roots(p)]


def _mat(rows):
    return RationalMatrix.from_rows([[F(v) for v in r] for r in rows])


class TestAlgebraConstruction:
    def test_rejects_noncommuting(self):
        a = _mat([[0, 1], [1, 0]])
        d = _mat([[1, 0], [0, 2]])
        with pytest.raises(ValueError, match="commute"):
            CommutingAlgebra([a, d])

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            CommutingAlgebra([_mat([[1, 2], [0, 1]])])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            CommutingAlgebra([_mat([[1]]), _mat([[1, 0], [0, 1]])])

    def test_trivial_algebra(self):
        alg = CommutingAlgebra([], dim=3)
        assert alg.size == 1
        assert alg.char_count == 1

    def test_span_closure_size(self):
        # distinct diagonal entries generate the full diagonal algebra
        alg = CommutingAlgebra([RationalMatrix.diagonal([F(1), F(2), F(3)])])
        assert alg.size == 3
        assert alg.char_count == 3

    def test_repeated_eigenvalue_shrinks_spectrum(self):
        alg = CommutingAlgebra([RationalMatrix.diagonal([F(2), F(2), F(5)])])
        assert alg.size == 2
        assert alg.char_count == 2


_small = st.fractions(min_value=-4, max_value=4, max_denominator=4)
_large = st.fractions(max_denominator=10**6).filter(lambda x: abs(x) < 10**4)


def _sym(draw, n, entry):
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    return [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]


def _block_sum(a, b):
    k, n = len(a), len(a) + len(b)
    out = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i < k and j < k:
                out[i][j] = a[i][j]
            elif i >= k and j >= k:
                out[i][j] = b[i - k][j - k]
    return out


@st.composite
def _commuting_family(draw):
    """(generators, dim) for dims 1-4: a rational frame conjugating
    diagonals drawn from a short palette (repeated eigenvalues), a free
    symmetric matrix with polynomials in it (irrational spectra), or a
    block sum of two such; entries small or with denominators up to 10**6."""
    n = draw(st.integers(1, 4))
    entry = draw(st.sampled_from([_small, _large]))
    kind = draw(st.sampled_from(["frame", "poly", "blocks"] if n > 1 else ["frame", "poly"]))
    if kind == "frame":
        rng = random.Random(draw(st.integers(0, 1 << 32)))
        frame = rand_orthogonal(rng, n, draw(st.integers(1, 5))).entries
        palette = draw(st.lists(entry, min_size=1, max_size=n))
        count = draw(st.integers(0, 3))
        diags = [[draw(st.sampled_from(palette)) for _ in range(n)] for _ in range(count)]
        return [oracles.sandwich(frame, d) for d in diags], n
    if kind == "poly":
        a = _sym(draw, n, entry)
        a2 = oracles.matmul(a, a)
        c0, c1, c2 = (draw(entry) for _ in range(3))
        p = [[c1 * x + c2 * y + (c0 if i == j else 0) for j, (x, y) in enumerate(zip(ra, rb))]
             for i, (ra, rb) in enumerate(zip(a, a2))]
        return [a, p][: draw(st.integers(1, 2))], n
    k = draw(st.integers(1, n - 1))
    a, b = _sym(draw, k, entry), _sym(draw, n - k, entry)
    za, zb = [[F(0)] * k for _ in range(k)], [[F(0)] * (n - k) for _ in range(n - k)]
    gens = [_block_sum(a, zb), _block_sum(za, b), _block_sum(oracles.matmul(a, a), b)]
    return gens[draw(st.integers(0, 2)) :], n


class TestIntegerAlgebraAgainstFractionOracle:
    """The integer construction against the Fraction elimination it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(
        fam=_commuting_family(),
        coeffs=st.lists(_large, min_size=4, max_size=4),
        other=st.lists(_small, min_size=16, max_size=16),
    )
    # weights (t + 1)**k at t = 0 give diag(1, 2, 1): the search goes on to t = 1
    @example(fam=([[[0, 0, 0], [0, 1, 0], [0, 0, -1]]], 3), coeffs=[F(1)] * 4, other=[F(1)] * 16)
    def test_matches_fraction_elimination(self, fam, coeffs, other):
        gens, n = fam
        alg = CommutingAlgebra([_mat(g) for g in gens], dim=n)
        ref = oracles.FractionAlgebra(gens, n)
        basis = [alg.mat_of([int(i == k) for i in range(alg.size)]) for k in range(alg.size)]
        assert [b.entries for b in basis] == [tuple(map(tuple, b)) for b in ref.basis]
        assert {
            key: tuple(F(x, alg.table_den) for x in t) for key, t in alg._table.items()
        } == ref.table
        assert alg._sep.entries == tuple(map(tuple, ref.sep))
        assert alg._minpoly.coeffs == ref.minpoly
        assert alg.basis_norm_sum == ref.basis_norm_sum
        assert [tuple(map(F, q)) for q in _sturm_ints(alg._minpoly)] == oracles.sturm_chain_fraction(
            alg._minpoly.coeffs
        )
        # each generator, a member and its square, and a symmetric matrix
        # that for n > 1 usually lies outside the algebra
        combo = alg.mat_of(coeffs[: alg.size])
        # the integer square through the table is the square of the member
        den = math.lcm(*(c.denominator for c in coeffs[: alg.size]))
        ints = [int(c * den) for c in coeffs[: alg.size]]
        got = tuple(F(x, alg.table_den * den * den) for x in alg.square_coords(ints))
        rows = [list(r) for r in combo.entries]
        assert got == ref.coords_of(oracles.matmul(rows, rows))
        free = [[other[4 * min(i, j) + max(i, j)] for j in range(n)] for i in range(n)]
        probes = [_mat(g) for g in gens] + [combo, combo @ combo, _mat(free)]
        for m in probes:
            rows = [list(r) for r in m.entries]
            assert alg.coords_of(m) == ref.coords_of(rows)
            want = ref.value_poly_of(rows)
            if want is None:
                with pytest.raises(SpaceMismatchError):
                    alg.value_poly_of(m)
            else:
                assert alg.value_poly_of(m).coeffs == want

    def test_value_polynomials_stay_bounded(self):
        alg = CommutingAlgebra([_mat(CUBIC)])
        g, eye = _mat(CUBIC), RationalMatrix.identity(3)
        members = [g.scale(F(k + 1, 3)) + eye.scale(F(k % 7)) for k in range(10_000)]
        first = [alg.value_poly_of(m) for m in members[:50]]
        for m in members[50:]:
            alg.value_poly_of(m)
        assert len(alg._vpoly) == herm._VPOLY_CAP
        assert members[0] not in alg._vpoly
        fresh = CommutingAlgebra([_mat(CUBIC)])
        assert [alg.value_poly_of(m) for m in members[:50]] == first
        assert first == [fresh.value_poly_of(m) for m in members[:50]]


class TestCharactersAgainstSympy:
    def test_rational_spectra(self):
        rng = random.Random(40)
        for _ in range(6):
            dim = rng.randint(2, 4)
            fam = rand_diagonal_family(rng, dim, rng.randint(1, 2))
            alg = CommutingAlgebra(fam.members)
            for g in fam.members:
                q = alg.value_poly_of(g)
                char_vals = set()
                for j in range(alg.char_count):
                    lo, hi = alg.value_interval(q, j, F(1, 1 << 40))
                    eigs = oracles.sym_eigenvalues(g.entries)
                    assert any(
                        oracles.contains_exact(lo, hi, lam) for lam in eigs
                    )
                    char_vals.add((lo, hi))
                # every eigenvalue of g is seen by some character
                for lam in set(oracles.sym_eigenvalues(g.entries)):
                    assert any(
                        oracles.contains_exact(lo, hi, lam) for lo, hi in char_vals
                    )

    def test_irrational_spectrum(self):
        import sympy

        g = _mat([[1, 1], [1, 0]])  # eigenvalues (1 +- sqrt 5) / 2
        alg = CommutingAlgebra([g])
        assert alg.char_count == 2
        q = alg.value_poly_of(g)
        golden = (1 + sympy.sqrt(5)) / 2
        other = (1 - sympy.sqrt(5)) / 2
        boxes = [alg.value_interval(q, j, F(1, 1 << 40)) for j in range(2)]
        assert any(oracles.contains_exact(lo, hi, golden) for lo, hi in boxes)
        assert any(oracles.contains_exact(lo, hi, other) for lo, hi in boxes)

    def test_minpoly_degree_matches_sympy(self):
        rng = random.Random(41)
        for _ in range(5):
            dim = rng.randint(2, 4)
            fam = rand_diagonal_family(rng, dim, 1)
            g = fam.members[0]
            alg = CommutingAlgebra([g])
            assert alg.size == oracles.sym_minpoly_degree(g.entries)

    def test_value_sign_exact(self):
        g = _mat([[1, 1], [1, 0]])
        alg = CommutingAlgebra([g])
        q = alg.value_poly_of(g)
        signs = sorted(alg.value_sign(q, 0, j) for j in range(2))
        assert signs == [-1, 1]  # (1 - sqrt5)/2 < 0 < (1 + sqrt5)/2
        # exact tie: character value equals the threshold
        d = RationalMatrix.diagonal([F(2), F(7)])
        alg2 = CommutingAlgebra([d])
        q2 = alg2.value_poly_of(d)
        assert sorted(alg2.value_sign(q2, F(2), j) for j in range(2)) == [0, 1]


def _sign_oracle(lam, c) -> int:
    d = sympy.simplify(sympy.nsimplify(lam) - sympy.Rational(c.numerator, c.denominator))
    return int(bool(d > 0)) - int(bool(d < 0))


class TestRationalCharacters:
    """Rational roots are held exactly; irrational ones keep Sturm boxes."""

    def _agrees_with_sympy(self, alg, members):
        for g in members:
            q = alg.value_poly_of(g)
            eigs = oracles.sym_eigenvalues(g.entries)
            for j in range(alg.char_count):
                lo, hi = alg.value_interval(q, j, F(1, 1 << 40))
                hits = [lam for lam in eigs if oracles.contains_exact(lo, hi, lam)]
                assert hits
                lam = hits[0]
                for c in {F(0), F(1), lo, hi, (lo + hi) / 2}:
                    assert alg.value_sign(q, c, j) == _sign_oracle(lam, c)

    def test_rational_non_dyadic_roots_get_point_boxes(self):
        fam = rand_diagonal_family(random.Random(6100), 3, 1)
        alg = CommutingAlgebra(fam.members)
        open_boxes = _boxes(alg._minpoly)
        assert all(lo < hi for lo, hi in open_boxes)
        roots = []
        for j in range(alg.char_count):
            lo, hi = alg.root_box(j, F(1, 4))
            assert lo == hi == alg.rational_root(j)
            assert open_boxes[j][0] < lo < open_boxes[j][1]
            roots.append(lo)
        # not reachable by bisection from the isolating boxes
        assert any(r.denominator & (r.denominator - 1) for r in roots)
        self._agrees_with_sympy(alg, fam.members)
        # values at a point box are exact
        q = alg.value_poly_of(fam.members[0])
        vals = {alg.value_interval(q, j, F(1, 4)) for j in range(alg.char_count)}
        assert all(lo == hi for lo, hi in vals)
        assert {lo for lo, _ in vals} == set(fam.eigs[0])

    def test_golden_ratio_keeps_open_boxes(self):
        g = _mat([[1, 1], [1, 0]])
        alg = CommutingAlgebra([g])
        before = _boxes(alg._minpoly)
        assert [alg.rational_root(j) for j in range(2)] == [None, None]
        assert [alg.root_box(j, F(100)) for j in range(2)] == before
        assert all(lo < hi for lo, hi in before)
        self._agrees_with_sympy(alg, [g])

    def test_root_box_is_a_node_of_the_fixed_tree(self):
        # the box for a width is the depth-k node on the path to the root,
        # k least with w / 2**k <= width, before and after deeper refinement
        alg = CommutingAlgebra([_mat(CUBIC)])
        widths = [F(1, 3), F(1, 64), F(5, 7), F(1, 1 << 20), F(1, 10), F(4)]
        first = [[alg.root_box(j, w) for w in widths] for j in range(3)]
        for j, (lo0, hi0) in enumerate(_boxes(alg._minpoly)):
            w0 = hi0 - lo0
            for w, (lo, hi) in zip(widths, first[j]):
                k = 0
                while w0 / 2**k > w:
                    k += 1
                assert hi - lo == w0 / 2**k
                i = (lo - lo0) / (hi - lo)
                assert i.denominator == 1 and 0 <= i < 2**k
                assert alg.rational_root(j) is None
                assert oracles.refine_root_fraction(alg._minpoly.coeffs, lo0, hi0, w) == (lo, hi)
        assert [[alg.root_box(j, w) for w in widths] for j in range(3)] == first

    def test_mixed_spectrum_splits_characters(self):
        # golden ratio block beside the eigenvalue 2/3
        g = _mat([[1, 1, 0], [1, 0, 0], [0, 0, F(2, 3)]])
        alg = CommutingAlgebra([g])
        exact = [alg.rational_root(j) for j in range(alg.char_count)]
        assert sorted(r is None for r in exact) == [False, True, True]
        self._agrees_with_sympy(alg, [g])


class TestElementConstruction:
    def test_span_membership_enforced(self):
        d = RationalMatrix.diagonal([F(1), F(2)])
        hs = HermSpace([d])
        hs.element(d)  # in span
        hs.element(RationalMatrix.identity(2))
        with pytest.raises(SpaceMismatchError, match="matrix lies outside the generated algebra"):
            hs.element(_mat([[0, 1], [1, 0]]))  # outside the diagonal span

    def test_one_elimination_per_matrix(self, monkeypatch):
        # the integer elimination runs once per matrix, on its integer rows
        m = _mat(CUBIC)
        hs = HermSpace([m])
        calls = []
        real = CommutingAlgebra._coords
        monkeypatch.setattr(
            CommutingAlgebra, "_coords",
            lambda alg, v, den: calls.append((tuple(v), den)) or real(alg, v, den),
        )
        a = hs.element(m @ m)
        assert hs.leq(hs.join(a, hs.zero()), hs.scale(10, hs.unit())) is True
        mm = m @ m
        assert calls.count((tuple(x for row in mm.rows for x in row), mm.den)) == 1

    def test_dim_enforced(self):
        hs = HermSpace([RationalMatrix.diagonal([F(1), F(2)])])
        with pytest.raises(SpaceMismatchError):
            hs.element(RationalMatrix.identity(3))

    def test_err_must_be_nonnegative(self):
        hs = HermSpace([RationalMatrix.diagonal([F(1), F(2)])])
        with pytest.raises(ValueError):
            hs.element(RationalMatrix.identity(2), err=F(-1, 4))


class TestArithmetic:
    def _space(self):
        rng = random.Random(42)
        fam = rand_diagonal_family(rng, 3, 2)
        return HermSpace(fam.members), fam

    def test_plain_ops_are_matrix_ops(self):
        hs, fam = self._space()
        a = hs.element(fam.members[0])
        b = hs.element(fam.members[1])
        assert hs.add(a, b).matrix == fam.members[0] + fam.members[1]
        assert hs.scale(F(-2, 3), a).matrix == fam.members[0].scale(F(-2, 3))
        assert hs.negate(a).matrix == -fam.members[0]
        assert hs.multiply(a, b).matrix == fam.members[0] @ fam.members[1]

    def test_err_adds_linearly(self):
        hs, fam = self._space()
        a = hs.element(fam.members[0], err=F(1, 8))
        b = hs.element(fam.members[1], err=F(1, 16))
        assert hs.add(a, b).err == F(3, 16)
        assert hs.scale(F(-2), a).err == F(1, 4)


class TestOrderDualRoutes:
    def test_psd_and_character_routes_agree(self):
        rng = random.Random(43)
        for _ in range(40):
            dim = rng.randint(2, 4)
            fam = rand_diagonal_family(rng, dim, 2)
            hs = HermSpace(fam.members)
            a = hs.element(fam.members[0])
            b = hs.element(fam.members[1])
            # psd route runs on plain elements; wrapping one side in a
            # trivial join forces the character route
            fast = hs.leq(a, b)
            slow = hs.leq(hs.join(a, a), b)
            assert fast == slow
            assert fast == psd_check(fam.members[1] - fam.members[0])

    def test_leq_reflexive_antisymmetric_on_family(self):
        rng = random.Random(44)
        fam = rand_diagonal_family(rng, 3, 2)
        hs = HermSpace(fam.members)
        a = hs.element(fam.members[0])
        b = hs.element(fam.members[1])
        assert hs.leq(a, a) is True
        if hs.leq(a, b) and hs.leq(b, a):
            assert fam.members[0] == fam.members[1]


class TestSupAndNorm:
    def test_two_by_two_example(self):
        hs = HermSpace([_mat([[2, 1], [1, 2]])])
        a = hs.element(_mat([[2, 1], [1, 2]]))  # eigenvalues 1 and 3
        s = hs.sup_cut(a).approx(F(1, 1024))
        assert F(3) <= s < F(3) + F(1, 1024)

    def test_sup_matches_sympy_max_eig(self):
        rng = random.Random(45)
        for _ in range(8):
            dim = rng.randint(2, 4)
            fam = rand_diagonal_family(rng, dim, 1)
            hs = HermSpace(fam.members)
            a = hs.element(fam.members[0])
            s = hs.sup_cut(a).approx(F(1, 1 << 12))
            exact = max(fam.eigs[0])
            assert exact <= s < exact + F(1, 1 << 12)

    def test_norm_example(self):
        hs = HermSpace([_mat([[5, 3], [3, 5]])])
        a = hs.element(_mat([[5, 3], [3, 5]]))  # eigenvalues 2 and 8
        v = norm_cut(a).approx(F(1, 256))
        assert F(8) <= v < F(8) + F(1, 256)

    def test_unit_bound_upper(self):
        rng = random.Random(46)
        fam = rand_diagonal_family(rng, 3, 1)
        hs = HermSpace(fam.members)
        a = hs.element(fam.members[0])
        n = hs.unit_bound(a)
        assert hs.leq(a, hs.scale(F(n), hs.unit()))
        assert n <= max(0, max(fam.eigs[0])) + 1


class TestErrBall:
    def test_tolerance_error_when_err_dominates(self):
        hs = HermSpace([RationalMatrix.diagonal([F(1), F(2)])])
        a = hs.element(RationalMatrix.diagonal([F(1), F(2)]), err=F(1, 16))
        with pytest.raises(ToleranceError):
            hs.sup_cut(a).approx(F(1, 16))
        with pytest.raises(ToleranceError):
            hs.sup_cut(a).approx(F(1, 8))  # eps == 2*err still too coarse

    def test_sup_with_slack(self):
        hs = HermSpace([RationalMatrix.diagonal([F(1), F(2)])])
        a = hs.element(RationalMatrix.diagonal([F(1), F(2)]), err=F(1, 32))
        s = hs.sup_cut(a).approx(F(1, 4))
        # centre sup is 2; the located value accounts for the err ball
        assert F(2) <= s < F(2) + F(1, 4)


class TestFormulasAndMaterialize:
    def test_join_formula_values(self):
        d1 = RationalMatrix.diagonal([F(1), F(4)])
        d2 = RationalMatrix.diagonal([F(3), F(2)])
        hs = HermSpace([d1, d2])
        j = hs.join(hs.element(d1), hs.element(d2))
        assert j.matrix is None and len(j.vals) == 2
        vals = sorted(lo for lo, hi in hs.value_ranges(j, tol=F(1, 1 << 20)))
        # pointwise maxima on the two characters: 3 and 4
        assert vals[0] <= F(3) <= vals[0] + F(1, 1 << 19)
        assert vals[1] <= F(4) <= vals[1] + F(1, 1 << 19)

    def test_materialize_close_to_oracle(self):
        rng = random.Random(47)
        for _ in range(6):
            dim = rng.randint(2, 4)
            fam = rand_diagonal_family(rng, dim, 2)
            hs = HermSpace(fam.members)
            a = hs.element(fam.members[0])
            b = hs.element(fam.members[1])
            tol = F(1, 1 << 10)
            m = hs.materialize(hs.join(a, b), tol)
            assert m.matrix is not None
            # independent oracle: joint eigenframe maxima
            want = oracles.sandwich(
                [list(r) for r in fam.frame.entries],
                [max(x, y) for x, y in zip(fam.eigs[0], fam.eigs[1])],
            )
            diff = m.matrix - RationalMatrix.from_rows(want)
            dn = oracles.operator_norm_exact(diff.entries)
            assert dn <= m.err

    def test_meet_via_join_duality(self):
        d1 = RationalMatrix.diagonal([F(1), F(4)])
        d2 = RationalMatrix.diagonal([F(3), F(2)])
        hs = HermSpace([d1, d2])
        m = hs.meet(hs.element(d1), hs.element(d2))
        vals = sorted(lo for lo, hi in hs.value_ranges(m, tol=F(1, 1 << 20)))
        assert vals[0] <= F(1) <= vals[0] + F(1, 1 << 19)
        assert vals[1] <= F(2) <= vals[1] + F(1, 1 << 19)

    def test_join_with_tol_is_plain_element(self):
        d1 = RationalMatrix.diagonal([F(1), F(0)])
        d2 = RationalMatrix.diagonal([F(0), F(1)])
        hs = HermSpace([d1, d2])
        j = hs.join_with_tol(hs.element(d1), hs.element(d2), F(1, 256))
        assert j.matrix is not None
        # disjoint projections join exactly to the identity
        assert j.matrix == RationalMatrix.identity(2)

    def test_in_interval_sign_pattern(self):
        d = RationalMatrix.diagonal([F(0), F(1, 2), F(1)])
        hs = HermSpace([d])
        cell = hs.in_interval(hs.element(d), F(1, 4), F(3, 4))
        signs = sorted(hs._char_sign(cell, j) for j in range(hs.algebra.char_count))
        # positive only on the middle character
        assert signs == [-1, -1, 1]

    @pytest.mark.parametrize(
        "rows,pos",
        [
            ([[1, 0, 0], [0, -1, 0], [0, 0, 0]], [[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
            # golden ratio spectrum: the positive part is a matrix with
            # irrational entries, so only its upper and lower bounds are
            # checked, below
            ([[1, 1], [1, 0]], None),
        ],
    )
    def test_chain_of_2000_joins(self, rows, pos):
        # join(...join(join(x_0, x_1), x_2)..., x_N) with x_k = (k/N) A
        # is the positive part of A: the chain is 2,000 formulas deep
        n = 2000
        gen = _mat(rows)
        hs = HermSpace([gen])
        a = hs.element(gen)

        def build(last):
            chain = hs.scale(0, a)
            for k in range(1, n):
                chain = hs.join(chain, hs.scale(F(k, n), a))
            return hs.join(chain, hs.scale(last, a))

        chain = build(F(1))
        # equality walks the chain on a stack too: an equal chain built
        # apart compares and looks up equal, one other leaf makes it unequal
        twin = build(F(1))
        assert twin is not chain and twin == chain and chain == twin
        assert {chain: 1}[twin] == 1
        other = build(F(n - 1, n))
        assert other != chain and chain != other
        assert other not in {chain: 1}
        plus = hs.join(a, hs.zero())
        assert hs.leq(chain, plus) is True
        assert hs.leq(plus, chain) is True
        assert hs.leq(chain, hs.scale(F(-1), hs.unit())) is False
        got = hs.materialize(chain, F(1, 1024))
        assert got.err <= F(1, 2048)
        if pos is not None:
            assert got.matrix == _mat(pos) and got.err == 0
        else:
            want = hs.materialize(plus, F(1, 1 << 20))
            for lam, v in oracles.eigen_values_of(rows, (got.matrix - want.matrix).entries):
                assert oracles.within_exact(v, 0, got.err + want.err)
        # the hash walks the chain on a stack too, so nets and the norm
        # audit, which key their state by element, answer on it
        assert isinstance(hash(chain), int)
        net = epsilon_net(hs, [chain], F(1, 4))
        rep = stone_yosida_check(hs, chain, F(1, 4), net)
        assert net.points and rep.ok


class TestHooksAndDense:
    def test_dominance_ceiling(self):
        d = RationalMatrix.diagonal([F(3), F(0)])
        e = RationalMatrix.diagonal([F(1, 2), F(0)])
        hs = HermSpace([d, e])
        n = hs.dominance_ceiling(hs.element(d), hs.element(e))
        assert n is not None and hs.leq(hs.element(d), hs.scale(F(n), hs.element(e)))
        # support failure
        f = RationalMatrix.diagonal([F(0), F(1)])
        hs2 = HermSpace([d, f])
        assert hs2.dominance_ceiling(hs2.element(f), hs2.element(d)) is None

    def test_space_equality_and_hash(self):
        d = RationalMatrix.diagonal([F(1), F(2)])
        h1, h2 = HermSpace([d]), HermSpace([d])
        assert h1 == h2 and hash(h1) == hash(h2)
        e1, e2 = h1.element(d), h2.element(d)
        assert e1 == e2 and hash(e1) == hash(e2)


class TestExactRouteAgainstEigenvalues:
    """Lattice values at rational characters against the eigenframe."""

    def test_lattice_values_match_eigenvalue_ops(self):
        p, q, c = F(1, 2), F(9, 4), F(-3, 2)
        for seed in range(6):
            rng = random.Random(4900 + seed)
            fam = rand_diagonal_family(rng, 2 + seed % 3, 2)
            hs = HermSpace(fam.members)
            a = hs.element(fam.members[0])
            b = hs.element(fam.members[1])
            elems = [
                a,
                b,
                hs.join(a, b),
                hs.meet(a, b),
                hs.in_interval(a, p, q),
                hs.add(hs.join(a, b), hs.meet(a, b)),
                hs.scale(c, hs.join(a, hs.negate(b))),
            ]
            got = set()
            for j in range(hs.algebra.char_count):
                row = tuple(hs._values(e)[j][0] for e in elems)
                assert all(isinstance(v, F) for v in row)
                for e, v in zip(elems, row):
                    assert hs.value_ranges(e, tol=F(1, 4))[j] == (v, v)
                got.add(row)
            want = {
                (x, y, max(x, y), min(x, y), min(x - p, q - x), x + y, c * max(x, -y))
                for x, y in zip(fam.eigs[0], fam.eigs[1])
            }
            assert got == want
            assert len(got) == hs.algebra.char_count
            xs = {sympy.Rational(r[0].numerator, r[0].denominator) for r in got}
            assert xs == set(oracles.sym_eigenvalues(fam.members[0].entries))
            assert hs.leq(a, hs.join(a, b)) is True
            assert hs.leq(hs.join(a, b), a) == all(
                y <= x for x, y in zip(fam.eigs[0], fam.eigs[1])
            )

    def test_err_ball_still_refuses_dominance(self):
        fam = rand_diagonal_family(random.Random(4950), 3, 2)
        hs = HermSpace(fam.members)
        a = hs.element(fam.members[0])
        b = hs.element(fam.members[1], err=F(1, 64))
        assert all(hs.algebra.rational_root(j) is not None
                   for j in range(hs.algebra.char_count))
        with pytest.raises(ToleranceError):
            hs.dominance_ceiling(b, a)
        with pytest.raises(ToleranceError):
            hs.dominance_ceiling(a, hs.join(a, b))
        # the err free pair is answered exactly
        n = hs.dominance_ceiling(a, hs.unit())
        assert n == max(1, math.ceil(max(fam.eigs[0])))


# characteristic polynomial x^3 - 2x^2 - 3x + 5, irreducible over Q
CUBIC = [[2, 1, 0], [1, -1, 1], [0, 1, 1]]


def _rat(v):
    return sympy.Rational(v.numerator, v.denominator)


def _encloses(lo, hi, value) -> bool:
    # sympy settles these comparisons at verified precision, or raises
    return bool(value >= _rat(lo)) and bool(value <= _rat(hi))


class TestIrrationalCharacters:
    """Err free formulas at irrational characters against sympy roots."""

    def _cubic(self):
        m = _mat(CUBIC)
        hs = HermSpace([m])
        x = sympy.Symbol("x")
        assert oracles.to_sympy(m.entries).charpoly(x).as_expr() == x**3 - 2 * x**2 - 3 * x + 5
        assert all(hs.algebra.rational_root(j) is None for j in range(3))
        a = hs.element(m)
        b = hs.element(m @ m - RationalMatrix.identity(3).scale(F(3)))
        # character j -> its sympy root, matched through tight boxes in a
        # second space, so the root boxes of hs stay as isolated
        roots = sympy.Poly(x**3 - 2 * x**2 - 3 * x + 5).real_roots()
        lam = []
        fresh = HermSpace([m])
        for lo, hi in fresh.value_ranges(fresh.element(m), tol=F(1, 1 << 30)):
            hits = [r for r in roots if oracles.contains_exact(lo, hi, r)]
            assert len(hits) == 1
            lam.append(hits[0])
        return hs, a, b, lam

    def test_value_range_encloses_eigenvalue_ops(self):
        hs, a, b, lam = self._cubic()
        p, q, c, h = F(1, 2), F(9, 4), F(-3, 2), F(1, 2)
        P, Q, C, H = _rat(p), _rat(q), _rat(c), _rat(h)
        ab = hs.join(a, b)
        cases = [
            (hs.join(a, b), lambda x, y: sympy.Max(x, y)),
            (hs.meet(a, b), lambda x, y: sympy.Min(x, y)),
            (hs.in_interval(a, p, q), lambda x, y: sympy.Min(x - P, Q - x)),
            (hs.add(ab, hs.meet(a, b)), lambda x, y: x + y),
            (hs.scale(c, hs.join(a, hs.negate(b))), lambda x, y: C * sympy.Max(x, -y)),
            (
                hs.in_interval(hs.join(hs.meet(a, b), hs.add(a, hs.scale(-h, hs.unit()))), p, q),
                lambda x, y: sympy.Min(sympy.Max(sympy.Min(x, y), x - H) - P,
                                       Q - sympy.Max(sympy.Min(x, y), x - H)),
            ),
        ]
        for t in (F(1, 16), F(1, 1 << 20)):
            for e, op in cases:
                for j, (lo, hi) in enumerate(hs.value_ranges(e, tol=t)):
                    assert hi - lo <= t
                    assert _encloses(lo, hi, op(lam[j], lam[j] ** 2 - 3))

    def test_err_ball_bounds_enclose_the_ball(self):
        hs, _, b, lam = self._cubic()
        m = hs.algebra.generators[0]
        ea = F(1, 64)
        a = hs.element(m, ea)
        t = F(1, 1 << 12)
        E = _rat(ea)
        # (p, q) peaks at 51/40, within ea of the middle root 1.27389...
        p, q = F(1, 2), F(41, 20)
        P, Q = _rat(p), _rat(q)
        for e, op in (
            (hs.join(a, b), sympy.Max),
            (hs.meet(a, b), sympy.Min),
            (hs.add(a, hs.scale(F(-2), b)), lambda x, y: x - 2 * y),
            (hs.in_interval(a, p, q), lambda x, y: sympy.Min(x - P, Q - x)),
            (hs.scale(F(-3, 2), hs.join(a, b)), lambda x, y: -sympy.Max(x, y) * 3 / 2),
        ):
            for j, (lo, hi) in enumerate(hs.value_ranges(e, tol=t)):
                x, y = lam[j], lam[j] ** 2 - 3
                # each op takes its extremes over x in [x - ea, x + ea] at
                # the ends or at the peak (P + Q)/2: the bounds enclose the
                # whole ball, and each is exact to within t
                peak = sympy.Max(x - E, sympy.Min((P + Q) / 2, x + E))
                vals = [op(z, y) for z in (x - E, peak, x + E)]
                for v in vals:
                    assert _encloses(lo, hi, v)
                assert bool(sympy.Min(*vals) - _rat(t) <= _rat(lo))
                assert bool(_rat(hi) <= sympy.Max(*vals) + _rat(t))
                assert hi - lo <= 2 * e.err + t
        two = hs.scale(F(2), hs.unit())
        assert hs.leq(hs.join(a, b), hs.add(a, two)) is True
        assert hs.leq(hs.add(a, two), hs.join(a, b)) is False

    def test_err_ball_order_is_exact_where_bounds_touch(self):
        # golden ratio algebra: a's upper bound G + 1/8 is b's lower bound
        g = _mat([[1, 1], [1, 0]])
        hs = HermSpace([g])
        assert [hs.algebra.rational_root(j) for j in range(2)] == [None, None]
        a = hs.element(g, F(1, 8))
        b = hs.element(g + RationalMatrix.identity(2).scale(F(1, 4)), F(1, 8))
        assert hs.leq(a, b) is True
        assert hs.leq(b, a) is None
        # deciding it refined no root box to a needless width
        for lo, hi in hs.value_ranges(hs.in_interval(a, 0, 2), tol=F(1, 1024)):
            assert max(lo.denominator, hi.denominator) <= 1 << 16

    def test_repeated_queries_grow_no_algebra_state(self):
        hs, a, _, lam = self._cubic()
        alg = hs.algebra

        def sizes():
            return {k: len(v) for k, v in vars(alg).items() if isinstance(v, (dict, list))}

        answers = []
        for k in range(2010):
            p = 2 - F(k + 1, 1009)
            answers.append(hs.leq(hs.in_interval(a, p, 2), hs.zero()))
            if k == 9:
                after_ten = sizes()
        assert sizes() == after_ten
        # nonpositive exactly when no root lies in (p, 2); no p is near one
        assert answers == [
            not any(2 - F(k + 1, 1009) < r < 2 for r in map(float, lam)) for k in range(2010)
        ]

    def test_order_and_dominance_at_irrational_characters(self):
        hs, a, b, lam = self._cubic()
        ab = hs.join(a, b)
        assert hs.leq(a, ab) is True and hs.leq(b, ab) is True
        assert hs.leq(ab, a) is False  # b > a at the smallest root
        signs = [hs._char_sign(hs.add(b, hs.negate(a)), j) for j in range(3)]
        assert signs == [int(bool(r**2 - 3 - r > 0)) - int(bool(r**2 - 3 - r < 0)) for r in lam]
        pos_a = hs.join(a, hs.zero())
        n = hs.dominance_ceiling(pos_a, hs.unit())
        assert n == math.ceil(max(float(r) for r in lam))

    def test_exact_zero_cancels_to_sign_zero(self):
        hs, a, _, _ = self._cubic()
        z = hs.add(hs.meet(a, hs.add(a, hs.unit())), hs.negate(a))
        assert [hs._char_sign(z, j) for j in range(3)] == [0, 0, 0]
        assert hs.leq(z, hs.zero()) is True and hs.leq(hs.zero(), z) is True

    def test_exact_zero_through_gcd(self, monkeypatch):
        # golden ratio block beside the silver ratio block: x^2 - x - 1
        # vanishes at the golden characters and at no other
        g = _mat([[1, 1, 0, 0], [1, 0, 0, 0], [0, 0, 2, 1], [0, 0, 1, 0]])
        eye = RationalMatrix.identity(4)
        hs = HermSpace([g])
        alg = hs.algebra
        assert alg.char_count == 4
        assert all(alg.rational_root(j) is None for j in range(4))
        z = hs.join(hs.element(g @ g - g - eye), hs.element(eye.scale(F(-5))))
        calls = []
        monkeypatch.setattr(
            "rieszspec.instances.herm.poly_gcd", lambda *xs: calls.append(xs) or poly_gcd(*xs)
        )
        signs = []
        for j in range(4):
            v = hs._values(z)[j][0]
            lo, hi = alg.root_box(j, F(1, 4))
            vlo, vhi = poly_eval_interval(v, lo, hi)
            before = len(calls)
            s = hs._char_sign(z, j)
            signs.append(s)
            if s == 0:
                # the first box straddles 0, and the gcd decides
                assert vlo <= 0 <= vhi and len(calls) == before + 1
            elif not vlo <= 0 <= vhi:
                # the first box settles the sign without a gcd
                assert len(calls) == before
        # x^2 - x - 1 = x at the roots 1 +- sqrt 2 of x^2 - 2x - 1
        assert sorted(signs) == [-1, 0, 0, 1]
        assert hs.leq(z, hs.zero()) is False and hs.leq(hs.zero(), z) is False

    def test_dropped_formula_is_freed(self):
        hs, a, b, _ = self._cubic()
        e = hs.in_interval(hs.join(a, b), F(1, 2), F(9, 4))
        hs.value_ranges(e, tol=F(1, 64))
        assert hs.leq(hs.meet(a, b), e) is False
        ref = weakref.ref(e)
        del e
        gc.collect()
        assert ref() is None

    def test_join_does_not_hold_its_operands(self):
        # a join holds its values at the characters, not its operands:
        # they are freed, and the join answers as it did while they lived
        hs, a, b, _ = self._cubic()
        b = hs.element(b.matrix, F(1, 64))
        j = hs.join(a, b)
        three = hs.scale(3, hs.unit())

        def answers():
            return (
                hs.value_ranges(j, tol=F(1, 1024)),
                hs.leq(j, three),
                hs.leq(hs.unit(), j),
                hs.materialize(j, F(1, 256)),
            )

        before = answers()
        refs = [weakref.ref(a), weakref.ref(b)]
        del a, b
        gc.collect()
        assert [r() for r in refs] == [None, None]
        assert answers() == before


class TestHistoryFreeEnclosures:
    """Root boxes, enclosures, cover multipliers and net margins at
    irrational characters are the same on a fresh space and after any
    earlier queries on the same space."""

    @staticmethod
    def _answers(hs, m):
        alg = hs.algebra
        a = hs.element(m)
        q = alg.value_poly_of(m)
        chars = range(alg.char_count)
        boxes = [alg.root_box(j, F(1, 1 << k)) for j in chars for k in (0, 3, 9)]
        encl = [alg.value_interval(q, j, t) for j in chars for t in (F(1, 8), F(1, 1000))]
        ranges = hs.value_ranges(hs.in_interval(a, F(-1), F(2)), tol=F(1, 32))
        p, r, _ = cover_range(hs, a)
        mults = [cover_interval(hs, a, p, r, w)[-1].multiplier for w in (F(1, 4), F(1, 16))]
        net = epsilon_net(hs, [a], F(1, 2))
        points = [
            ([(lo, hi) for _, lo, hi in pt.constraints], pt.margin) for pt in net.points
        ]
        return boxes, encl, ranges, mults, list(net.shrink_info), points

    @staticmethod
    def _history(hs, m, seed):
        rng = random.Random(seed)
        alg = hs.algebra
        a = hs.element(m)
        q = alg.value_poly_of(m @ m)
        unit = hs.unit()
        for _ in range(12):
            c = F(rng.randint(-96, 96), rng.choice([16, 48, 64, 96]))
            kind = rng.randrange(4)
            if kind == 0:
                hs.leq(hs.join(a, hs.zero()), hs.scale(c, unit))
            elif kind == 1:
                hs.value_ranges(hs.in_interval(a, c, c + 1), tol=F(1, 1 << rng.randint(4, 30)))
            elif kind == 2:
                pos_or_below(hs, hs.add(a, hs.scale(-c, unit)), F(1, 1 << rng.randint(2, 12)))
            else:
                alg.value_interval(q, rng.randrange(alg.char_count), F(1, 1 << rng.randint(8, 50)))
        epsilon_net(hs, [a], F(1, 16))

    @pytest.mark.parametrize("rows", [[[1, 1], [1, 0]], CUBIC], ids=["golden", "cubic"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_answers_do_not_depend_on_earlier_queries(self, rows, seed):
        m = _mat(rows)
        fresh = self._answers(HermSpace([m]), m)
        hs = HermSpace([m])
        assert all(hs.algebra.rational_root(j) is None for j in range(hs.algebra.char_count))
        self._history(hs, m, seed)
        assert self._answers(hs, m) == fresh


def test_krylov_power_outside_the_algebra_fails_closed():
    # a member whose powers leave the algebra breaks an internal invariant;
    # it raises CertificateError, also under python -O
    alg = CommutingAlgebra([_mat([[1, 0], [0, 2]])])
    with pytest.raises(CertificateError, match="left the algebra"):
        alg._krylov_of([0, 1, 1, 0], 1)
