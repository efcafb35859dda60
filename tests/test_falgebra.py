"""Square roots, squares decompositions, and multiplicative checks."""
from fractions import Fraction as F
import random
import time

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from rieszspec.exact import RationalMatrix, psd_check
from rieszspec import falgebra
from rieszspec.falgebra import (
    _sqrt_core,
    abs_element,
    gelfand_check,
    product_positive,
    sqrt_psd,
    sum_of_squares,
)
from rieszspec.instances import HermElement, HermSpace
from rieszspec.polyroots import poly_eval
from rieszspec.riesz import CertificateError, ToleranceError, norm_cut
from rieszspec.sampling import CommutingFamily, rand_diagonal_family, rand_orthogonal

import oracles


def _space(rows):
    return HermSpace([RationalMatrix.from_rows(rows)])


def _elem(space, rows):
    return space.element(RationalMatrix.from_rows(rows))


def _diag(*vals):
    return RationalMatrix.diagonal([F(v) for v in vals])


class TestSqrtPsd:
    def test_four_is_exactly_two(self):
        hs = _space([[4]])
        s, trace = sqrt_psd(_elem(hs, [[4]]), F(1, 1024))
        assert s.matrix.entries == ((F(2),),)
        assert trace.scale_exp == 1
        assert trace.iterations == 1

    def test_diagonal_example(self):
        hs = _space([[1, 0], [0, 4]])
        tol = F(1, 1024)
        s, _ = sqrt_psd(_elem(hs, [[1, 0], [0, 4]]), tol)
        diff = oracles.matsub(s.matrix.entries, _diag(1, 2).entries)
        assert oracles.operator_norm_exact(diff) <= tol
        assert oracles.operator_norm_exact(diff) <= s.err

    def test_quadratic_spectrum_example(self):
        # eigenvalues land on sqrt(2) and 2*sqrt(2) within the err bound
        hs = _space([[5, 3], [3, 5]])
        tol = F(1, 1024)
        s, _ = sqrt_psd(_elem(hs, [[5, 3], [3, 5]]), tol)
        eigs = sorted(
            float(v) for v in oracles.to_sympy(s.matrix.entries).eigenvals()
        )
        targets = (2 ** 0.5, 2 * 2 ** 0.5)
        for got, want in zip(eigs, targets):
            assert abs(got - want) <= float(s.err) + 1e-12

    def test_residual_certificate_holds(self):
        hs = _space([[5, 3], [3, 5]])
        tol = F(1, 256)
        s, trace = sqrt_psd(_elem(hs, [[5, 3], [3, 5]]), tol)
        resid = s.matrix @ s.matrix - hs.algebra.mat_of(
            hs.algebra.coords_of(RationalMatrix.from_rows([[5, 3], [3, 5]]))
        )
        eye = RationalMatrix.identity(2)
        assert oracles.psd_by_minors((eye.scale(tol) - resid).entries)
        assert oracles.psd_by_minors((eye.scale(tol) + resid).entries)
        assert trace.certified_residual == tol

    def test_result_stays_near_psd_and_commutes(self):
        rng = random.Random(51)
        tol = F(1, 1024)
        fam = rand_diagonal_family(rng, 3, 2)
        hs = HermSpace(fam.members)
        for mem in fam.members:
            s, _ = sqrt_psd(hs.element(mem), tol)
            eye = RationalMatrix.identity(3)
            assert psd_check(s.matrix + eye.scale(tol))
            for g in fam.members:
                assert s.matrix @ g == g @ s.matrix

    def test_family_against_exact_roots(self):
        roots_of = {F(1, 4): F(1, 2), F(1): F(1), F(9, 4): F(3, 2),
                    F(4): F(2), F(25, 4): F(5, 2)}
        tol = F(1, 1024)
        for seed in (52, 53, 54):
            rng = random.Random(seed)
            fam = rand_diagonal_family(rng, 3, 1)
            hs = HermSpace(fam.members)
            true = fam.sqrt_of(0, [roots_of[v] for v in fam.eigs[0]])
            s, _ = sqrt_psd(hs.element(fam.members[0]), tol)
            dist = oracles.operator_norm_exact(
                oracles.matsub(s.matrix.entries, true.entries)
            )
            assert dist <= s.err
            assert s.err <= 10 * tol

    def test_majorant_trace_shape(self):
        hs = _space([[5, 3], [3, 5]])
        _, trace = sqrt_psd(_elem(hs, [[5, 3], [3, 5]]), F(1, 256))
        rs = trace.majorant
        assert rs[0] == 0
        assert all(x <= y for x, y in zip(rs, rs[1:]))
        assert all(x <= 1 for x in rs)
        assert len(rs) == trace.iterations + 2
        mu = F(4) ** trace.scale_exp
        assert trace.majorant_bound == 2 * (rs[-1] - rs[-2]) * mu

    def test_scalar_majorant_rate(self):
        # (1 - e/2)^N <= e forces the scalar orbit within e of its limit;
        # rounding the orbit down keeps denominators small and the check
        # conservative, since the true sequence dominates the rounded one
        for e in (F(1, 2), F(1, 4), F(1, 8)):
            n = 0
            p = F(1)
            while p > e:
                p *= 1 - e / 2
                n += 1
            r = F(0)
            for _ in range(n):
                r = oracles._round_grid((1 + r * r) / 2, 64, False)
            assert 1 - r <= e

    def test_zero_matrix(self):
        hs = _space([[1, 0], [0, 2]])
        s, trace = sqrt_psd(hs.zero(), F(1, 64))
        assert s.matrix.is_zero()
        assert trace.iterations == 0

    def test_input_validation(self):
        hs = _space([[1]])
        with pytest.raises(ValueError):
            sqrt_psd(_elem(hs, [[-1]]), F(1, 64))
        with pytest.raises(ValueError):
            sqrt_psd(hs.unit(), 0)
        node = hs.join(hs.unit(), hs.zero())
        with pytest.raises(TypeError):
            sqrt_psd(node, F(1, 64))


class TestAbsPosJoin:
    def test_diagonal_abs_and_pos(self):
        hs = _space([[1, 0], [0, -2]])
        a = _elem(hs, [[1, 0], [0, -2]])
        tol = F(1, 256)
        ab = abs_element(a, tol)
        d = oracles.matsub(ab.matrix.entries, _diag(1, 2).entries)
        assert oracles.operator_norm_exact(d) <= ab.err
        p = hs.materialize(hs.join(a, hs.zero()), tol)
        d = oracles.matsub(p.matrix.entries, _diag(1, 0).entries)
        assert oracles.operator_norm_exact(d) <= p.err
        assert p.err <= tol

    def test_join_of_disjoint_projections(self):
        hs = HermSpace([_diag(1, 0), _diag(0, 1)])
        a, b = hs.element(_diag(1, 0)), hs.element(_diag(0, 1))
        j = hs.materialize(hs.join(a, b), F(1, 256))
        d = oracles.matsub(j.matrix.entries, _diag(1, 1).entries)
        assert oracles.operator_norm_exact(d) <= j.err
        m = hs.materialize(hs.meet(a, b), F(1, 256))
        assert oracles.operator_norm_exact(m.matrix.entries) <= m.err

    def test_abs_of_negation_matches(self):
        hs = _space([[2, 1], [1, -1]])
        a = _elem(hs, [[2, 1], [1, -1]])
        tol = F(1, 256)
        p = abs_element(a, tol)
        q = abs_element(hs.negate(a), tol)
        d = oracles.operator_norm_exact(
            oracles.matsub(p.matrix.entries, q.matrix.entries)
        )
        assert d <= 2 * tol


# Rational spectra for the exact absolute value: 0 makes |.| singular,
# repeated values tie characters, err > 0 exercises the err contract.
PALETTE = [F(-2), F(-3, 2), F(-1, 2), F(0), F(1, 2), F(1), F(3, 2)]
TOL = F(1, 64)


@st.composite
def rational_cases(draw):
    """(frame, spectrum of a, spectrum of b, err of a) on a rational frame."""
    dim = draw(st.integers(2, 4))
    spec = st.lists(st.sampled_from(PALETTE), min_size=dim, max_size=dim)
    seed = draw(st.integers(0, 10_000))
    err = draw(st.sampled_from([F(0), F(0), F(1, 64), F(1, 8)]))
    return seed, draw(spec), draw(spec), err


def _family(seed, *spectra):
    frame = rand_orthogonal(random.Random(seed), len(spectra[0]))
    fam = CommutingFamily(frame, spectra)
    return fam, HermSpace(fam.members)


def _conj(fam, values):
    return RationalMatrix.from_rows(oracles.sandwich(fam.frame.entries, values))


def _dist(fam, x, y):
    """Exact operator distance of two algebra members (frame diagonal)."""
    return oracles.frame_norm_exact(fam.frame.entries, (x - y).entries)


def _iteration_abs(hs, mat):
    """|M| by the paper's iteration: sqrt_psd(M*M), an element with its err."""
    return sqrt_psd(hs.element(mat @ mat), TOL)[0]


# singular, tied (a repeats a value, b meets a at one place), and err > 0
CASES = [
    (7, [F(0), F(3, 2), F(-1, 2)], [F(1), F(3, 2), F(0)], F(0)),
    (8, [F(1), F(1), F(-2), F(-2)], [F(1), F(0), F(-1, 2), F(-2)], F(0)),
    (9, [F(-3, 2), F(1, 2)], [F(0), F(0)], F(1, 8)),
]


def _examples(fn):
    for case in CASES:
        fn = example(case)(fn)
    return fn


class TestSpectralAbs:
    """Exact results on rational spectra against the sqrt iteration."""

    @settings(max_examples=25, deadline=None)
    @given(rational_cases())
    @_examples
    def test_abs_is_exact_and_near_iteration(self, case):
        seed, sa, _, err = case
        fam, hs = _family(seed, sa)
        a = hs.element(fam.members[0], err)
        got = abs_element(a, TOL)
        assert got.matrix == _conj(fam, [abs(v) for v in sa])
        assert got.err == err
        it = _iteration_abs(hs, a.matrix)
        assert _dist(fam, got.matrix, it.matrix) <= it.err

    @settings(max_examples=25, deadline=None)
    @given(rational_cases())
    @_examples
    def test_join_meet_are_exact_and_near_iteration(self, case):
        # with err > 0 the result is the midpoint of the image of the two
        # balls at each character, which is the join or meet of the centres
        # only where one ball lies wholly above the other
        seed, sa, sb, err = case
        fam, hs = _family(seed, sa, sb)
        a = hs.element(fam.members[0], err)
        b = hs.element(fam.members[1])
        d = _iteration_abs(hs, a.matrix - b.matrix)
        for op, pick, sign in ((hs.join, max, 1), (hs.meet, min, -1)):
            got = hs.materialize(op(a, b), TOL)
            mid = [(pick(u - err, v) + pick(u + err, v)) / 2 for u, v in zip(sa, sb)]
            assert got.matrix == _conj(fam, mid)
            assert got.err == err
            it = (a.matrix + b.matrix + d.matrix.scale(F(sign))).scale(F(1, 2))
            assert _dist(fam, got.matrix, it) <= err + d.err / 2

    def test_materialize_is_the_idempotent_sum(self):
        fam, hs = _family(3, [F(1), F(-2), F(1)], [F(0), F(1), F(0)])
        idem = oracles.idempotents(hs.algebra)
        assert len(idem) == hs.algebra.char_count == 2
        eye = RationalMatrix.identity(3)
        assert sum(idem, RationalMatrix.zeros(3)) == eye
        for i, e in enumerate(idem):
            for j, f in enumerate(idem):
                assert e @ f == (e if i == j else RationalMatrix.zeros(3))
        # a frame column where each idempotent is 1 carries its character
        cols = [oracles.frame_diagonal(fam.frame.entries, e.entries).index(1) for e in idem]
        (sa, sb), (a, b) = fam.eigs, (hs.element(m) for m in fam.members)
        for node, value in (
            (hs.join(a, b), lambda u, v: max(u, v)),
            (hs.meet(a, hs.scale(F(-1), b)), lambda u, v: min(u, -v)),
            (hs.in_interval(a, -1, 2), lambda u, v: min(u + 1, 2 - u)),
        ):
            got = hs.materialize(node, TOL)
            terms = (e.scale(value(sa[c], sb[c])) for e, c in zip(idem, cols))
            assert got.matrix == sum(terms, RationalMatrix.zeros(3))
            assert got.err == 0


def _formula(draw, hs, leaves, depth):
    """A random formula over the leaves and its value at each frame column."""
    ops = ["leaf"] if depth == 0 else ["leaf", "join", "meet", "ii", "add", "scale"]
    op = draw(st.sampled_from(ops))
    if op == "leaf":
        return leaves[draw(st.integers(0, len(leaves) - 1))]
    x, xv = _formula(draw, hs, leaves, depth - 1)
    if op == "ii":
        p = draw(st.sampled_from(PALETTE))
        q = p + draw(st.sampled_from([F(1, 2), F(1), F(3)]))
        return hs.in_interval(x, p, q), [min(v - p, q - v) for v in xv]
    if op == "scale":
        c = draw(st.sampled_from([F(-2), F(-1, 2), F(0), F(3, 4), F(2)]))
        return hs.scale(c, x), [c * v for v in xv]
    y, yv = _formula(draw, hs, leaves, depth - 1)
    if op == "add":
        return hs.add(x, y), [u + v for u, v in zip(xv, yv)]
    node = hs.join(x, y) if op == "join" else hs.meet(x, y)
    pick = max if op == "join" else min
    return node, [pick(u, v) for u, v in zip(xv, yv)]


class TestMaterializeFormulas:
    @settings(max_examples=40, deadline=None)
    @given(case=rational_cases(), data=st.data())
    def test_rational_formulas_match_the_frame(self, case, data):
        seed, sa, sb, _ = case
        fam, hs = _family(seed, sa, sb)
        leaves = [(hs.element(fam.members[0]), sa), (hs.element(fam.members[1]), sb)]
        node, vals = _formula(data.draw, hs, leaves, data.draw(st.integers(0, 3)))
        got = hs.materialize(node, TOL)
        assert got.matrix == _conj(fam, vals)
        assert got.err == 0


GOLDEN = [[1, 1], [1, 0]]
MIXED = [[1, 1, 0], [1, 0, 0], [0, 0, 2]]  # golden ratio block and 2
ROOT2 = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]  # spectrum {0, +-sqrt(2)}


class TestIterationRoute:
    @pytest.mark.parametrize("rows", [GOLDEN, MIXED])
    def test_irrational_and_mixed_keep_iteration(self, rows):
        # abs_element stays within its err of the paper's iteration
        # sqrt_psd(A*A), and of |A| at every exact eigenpair
        hs = _space(rows)
        assert any(hs.algebra.rational_root(j) is None for j in range(hs.algebra.char_count))
        gen = hs.algebra.generators[0]
        it = _iteration_abs(hs, gen)
        for err in (F(0), F(1, 32)):
            a = hs.element(gen, err)
            got = abs_element(a, TOL)
            assert err <= got.err <= err + TOL
            for lam, v in oracles.eigen_values_of(gen.entries, (got.matrix - it.matrix).entries):
                assert oracles.within_exact(v, 0, got.err - err + it.err)
            for lam, v in oracles.eigen_values_of(gen.entries, got.matrix.entries):
                assert oracles.within_exact(v, abs(lam), got.err - err)

    def test_mixed_algebra_has_a_rational_character(self):
        alg = _space(MIXED).algebra
        roots = [r for j in range(alg.char_count) if (r := alg.rational_root(j)) is not None]
        assert len(roots) == 1
        assert poly_eval(alg.value_poly_of(alg.generators[0]), roots[0]) == 2


class TestIrrationalOracle:
    """On irrational spectra, abs and join hold their targets at every
    exact eigenpair (lambda, v) of the generator A, within err, from
    tol 2**-10 to 2**-40, and agree with the iteration."""

    @pytest.mark.parametrize("rows", [GOLDEN, MIXED, ROOT2])
    def test_abs_and_join_at_exact_eigenpairs(self, rows):
        hs = _space(rows)
        gen = hs.algebra.generators[0]
        a = hs.element(gen)
        # A v (A**2 - 2): a polynomial in A, tied with A where lambda is 2
        # or -1, and above it elsewhere
        b = hs.element(gen @ gen - RationalMatrix.identity(len(rows)).scale(2))
        it = _iteration_abs(hs, gen)
        for bits in (10, 20, 30, 40):
            tol = F(1, 1 << bits)
            s = abs_element(a, tol)
            j = hs.join_with_tol(a, b, tol)
            assert s.err <= tol and j.err <= tol / 2
            for lam, v in oracles.eigen_values_of(gen.entries, s.matrix.entries):
                assert oracles.within_exact(v, abs(lam), s.err)
            for lam, v in oracles.eigen_values_of(gen.entries, j.matrix.entries):
                assert oracles.within_exact(v, sympy.Max(lam, lam**2 - 2), j.err)
            for lam, v in oracles.eigen_values_of(gen.entries, (s.matrix - it.matrix).entries):
                assert oracles.within_exact(v, 0, s.err + it.err)

    def test_singular_on_the_golden_block(self):
        # A = G**2 - G - I vanishes exactly on the golden ratio block, so
        # the materialized |A| may come out slightly negative there
        hs = _space(MIXED)
        g = hs.algebra.generators[0]
        amat = g @ g - g - RationalMatrix.identity(3)
        a = hs.element(amat)
        for bits in range(6, 31, 4):
            tol = F(1, 1 << bits)
            s = abs_element(a, tol)
            assert s.err <= tol
            for lam, v in oracles.eigen_values_of(g.entries, s.matrix.entries):
                assert oracles.within_exact(v, abs(lam**2 - lam - 1), s.err)

    def test_small_tol_stays_fast(self):
        hs = _space(ROOT2)
        a = hs.element(hs.algebra.generators[0])
        start = time.perf_counter()
        s = abs_element(a, F(1, 1 << 40))
        assert time.perf_counter() - start < 2
        assert s.err <= F(1, 1 << 40)


def _tampered(monkeypatch, hs, change):
    """Make hs.materialize hand abs_element a changed matrix."""
    real = hs.materialize

    def fake(e, tol=None):
        s = real(e, tol)
        return HermElement(hs, change(s.matrix), s.err)

    monkeypatch.setattr(hs, "materialize", fake)


def _nudge(m, c):
    rows = [list(r) for r in m.entries]
    rows[0][0] += c
    return RationalMatrix.from_rows(rows)


class TestAbsCertificate:
    """A wrong S never yields a result: the exact checks refuse it."""

    def _setup(self):
        fam, hs = _family(5, [F(3, 2), F(-1, 2), F(-1, 2)])
        return hs, hs.element(fam.members[0])

    def test_nudged_entry_fails_the_square(self, monkeypatch):
        hs, a = self._setup()
        _tampered(monkeypatch, hs, lambda m: _nudge(m, F(1, 1 << 20)))
        with pytest.raises(CertificateError):
            abs_element(a, TOL)

    def test_negated_result_fails_positivity(self, monkeypatch):
        # (-S)**2 = S**2, so the square still matches; only S >= 0 catches it
        hs, a = self._setup()
        _tampered(monkeypatch, hs, lambda m: m.scale(F(-1)))
        with pytest.raises(CertificateError):
            abs_element(a, TOL)

    @pytest.mark.parametrize("factor", [F(1023, 1024), F(1025, 1024)])
    def test_scaled_result_fails(self, monkeypatch, factor):
        # a shrunk S fails (S + tI)**2 >= A**2, a grown one fails
        # A**2 + tS - S**2 + 2t**2 I >= 0
        hs, a = self._setup()
        _tampered(monkeypatch, hs, lambda m: m.scale(factor))
        with pytest.raises(CertificateError):
            abs_element(a, TOL)

    @pytest.mark.parametrize("change", ["nudge", "negate", "shrink", "grow"])
    def test_irrational_tampering_fails(self, monkeypatch, change):
        hs = _space(MIXED)
        a = hs.element(hs.algebra.generators[0])
        bad = {
            "nudge": lambda m: _nudge(m, TOL),
            "negate": lambda m: m.scale(F(-1)),
            "shrink": lambda m: m.scale(F(7, 8)),
            "grow": lambda m: m.scale(F(9, 8)),
        }[change]
        _tampered(monkeypatch, hs, bad)
        with pytest.raises(CertificateError):
            abs_element(a, TOL)


class TestErrContract:
    """(A, err) stands for the algebra members X within err of A at every
    character; |X| then lies within abs_element(A).err of the result at
    every character.  |X| is read on the frame, or taken from the paper's
    iteration sqrt_psd(X*X) within that result's own err."""

    @pytest.mark.parametrize("route", ["spectral", "iteration"])
    @settings(max_examples=20, deadline=None)
    @given(
        case=rational_cases(),
        steps=st.lists(st.integers(-4, 4), min_size=4, max_size=4),
    )
    def test_abs_err_covers_the_ball(self, route, case, steps):
        seed, sa, _, err = case
        fam, hs = _family(seed, sa)
        # X moves each eigenvalue of A by at most err; ties stay ties so X
        # is still a member of the algebra A generates
        shift = {v: err * k / 4 for v, k in zip(sorted(set(sa)), steps)}
        sx = [v + shift[v] for v in sa]
        a = hs.element(fam.members[0], err)
        got = abs_element(a, TOL)
        assert got.err <= err + TOL
        if route == "spectral":
            vals = oracles.frame_diagonal(fam.frame.entries, got.matrix.entries)
            for x, v in zip(sx, vals):
                assert abs(abs(x) - v) <= got.err
        else:
            it = _iteration_abs(hs, _conj(fam, sx))
            assert _dist(fam, got.matrix, it.matrix) <= got.err + it.err


class TestMaterializeErr:
    """A materialized join or meet of (A, ea) and (B, eb) holds, at every
    character, the join or meet of any members X within ea of A and Y
    within eb of B, within the result's err: read on the frame, or built
    as (X + Y +- |X - Y|) / 2 from the paper's iteration."""

    @pytest.mark.parametrize("route", ["spectral", "iteration"])
    @pytest.mark.parametrize("kind", ["join", "meet"])
    @settings(max_examples=15, deadline=None)
    @given(
        case=rational_cases(),
        errb=st.sampled_from([F(0), F(1, 64), F(1, 8)]),
        steps=st.lists(st.sampled_from([-4, -1, 0, 1, 4]), min_size=8, max_size=8),
    )
    def test_err_covers_the_balls(self, route, kind, case, errb, steps):
        seed, sa, sb, erra = case
        fam, hs = _family(seed, sa, sb)
        # one shift per joint character keeps X and Y in the algebra
        chars = sorted(set(zip(sa, sb)))
        sx = {c: erra * k / 4 for c, k in zip(chars, steps)}
        sy = {c: errb * k / 4 for c, k in zip(chars, steps[4:])}
        a = hs.element(fam.members[0], erra)
        b = hs.element(fam.members[1], errb)
        node = hs.join(a, b) if kind == "join" else hs.meet(a, b)
        got = hs.materialize(node, TOL)
        assert got.err == max(erra, errb)
        xs = [x + sx[x, y] for x, y in zip(sa, sb)]
        ys = [y + sy[x, y] for x, y in zip(sa, sb)]
        if route == "spectral":
            op = max if kind == "join" else min
            vals = oracles.frame_diagonal(fam.frame.entries, got.matrix.entries)
            for x, y, v in zip(xs, ys, vals):
                assert abs(op(x, y) - v) <= got.err
        else:
            xm, ym = _conj(fam, xs), _conj(fam, ys)
            d = _iteration_abs(hs, xm - ym)
            sign = 1 if kind == "join" else -1
            it = (xm + ym + d.matrix.scale(F(sign))).scale(F(1, 2))
            assert _dist(fam, got.matrix, it) <= got.err + d.err / 2

    def test_err_does_not_double(self):
        d1, d2 = _diag(1, -2), _diag(0, 1)
        hs = HermSpace([d1, d2])
        a, b = hs.element(d1, F(1, 8)), hs.element(d2, F(1, 8))
        assert hs.join_with_tol(a, b, TOL).err == F(1, 8)
        nested = hs.join(hs.join(a, b), hs.meet(a, b))
        assert hs.materialize(nested, TOL).err == F(1, 8)
        # irrational characters: the larger err plus at most half the tol
        g = _space(GOLDEN)
        x = g.element(g.algebra.generators[0], F(1, 8))
        y = g.element(RationalMatrix.identity(2), F(1, 16))
        assert F(1, 8) <= g.join_with_tol(x, y, F(1, 1024)).err <= F(257, 2048)


class TestProductPositive:
    def test_diagonal_example(self):
        hs = HermSpace([_diag(1, 2), _diag(3, 4)])
        assert product_positive(hs.element(_diag(1, 2)), hs.element(_diag(3, 4)))

    def test_square_is_positive(self):
        hs = _space([[2, 1], [1, 2]])
        a = _elem(hs, [[2, 1], [1, 2]])
        assert product_positive(a, a)

    def test_rejects_negative_operand(self):
        hs = _space([[2, 1], [1, 2]])
        a = _elem(hs, [[2, 1], [1, 2]])
        with pytest.raises(ValueError):
            product_positive(a, hs.negate(hs.unit()))

    def test_rejects_err_operand(self):
        hs = _space([[1]])
        fuzzy = hs.element(RationalMatrix.identity(1), err=F(1, 8))
        with pytest.raises(ToleranceError):
            product_positive(fuzzy, hs.unit())

    def test_random_psd_pairs(self):
        rng = random.Random(61)
        hits = 0
        for seed in range(10):
            fam = rand_diagonal_family(random.Random(100 + seed), 3, 2)
            hs = HermSpace(fam.members)
            a, b = (hs.element(m) for m in fam.members)
            for x, y in ((a, b), (b, a), (hs.add(a, b), b)):
                assert product_positive(x, y)
                hits += 1
        assert hits == 30


class TestSumOfSquares:
    def test_half_short_prefix(self):
        hs = _space([[F(1, 2)]])
        out = sum_of_squares(_elem(hs, [[F(1, 2)]]), F(3, 16))
        assert [p.matrix.entries[0][0] for p in out.parts] == [F(1, 2), F(1, 4)]
        assert out.remainder.matrix.entries[0][0] == F(3, 16)
        assert F(1, 4) + F(1, 16) + F(3, 16) == F(1, 2)

    def test_half_longer_prefix(self):
        hs = _space([[F(1, 2)]])
        out = sum_of_squares(_elem(hs, [[F(1, 2)]]), F(1, 8))
        got = [p.matrix.entries[0][0] for p in out.parts]
        assert got == [F(1, 2), F(1, 4), F(3, 16), F(39, 256), F(8463, 65536)]
        total = sum(v * v for v in got) + out.remainder.matrix.entries[0][0]
        assert total == F(1, 2)

    def test_unit_is_its_own_square(self):
        hs = _space([[1, 0], [0, 1]])
        out = sum_of_squares(hs.unit(), F(1, 4))
        assert out.steps == 1
        assert out.parts[0].matrix == RationalMatrix.identity(2)
        assert out.remainder.matrix.is_zero()

    def test_zero_stops_immediately(self):
        hs = _space([[1]])
        out = sum_of_squares(hs.zero(), F(1, 4))
        assert out.steps == 0
        assert out.remainder.matrix.is_zero()
        assert out.bound == F(1, 4)

    def test_exact_identity_on_family(self):
        # modest tolerance on purpose: iterate entries square every step
        rng = random.Random(62)
        fam = rand_diagonal_family(
            rng, 3, 1, palette=[F(1, 4), F(1, 2), F(3, 4), F(1)]
        )
        hs = HermSpace(fam.members)
        a = hs.element(fam.members[0])
        out = sum_of_squares(a, F(1, 4))
        total = RationalMatrix.zeros(3)
        for p in out.parts:
            total = total + p.matrix @ p.matrix
        assert total + out.remainder.matrix == a.matrix
        rem = oracles.operator_norm_exact(out.remainder.matrix.entries)
        assert rem <= out.bound

    def test_iterates_decay_like_one_over_n(self):
        hs = _space([[F(1, 2)]])
        out = sum_of_squares(_elem(hs, [[F(1, 2)]]), F(1, 16))
        assert out.steps >= 8
        for n in range(1, len(out.parts)):
            v = out.parts[n].matrix.entries[0][0]
            assert v * v <= F(1, n)
        rem = out.remainder.matrix.entries[0][0]
        assert rem <= out.bound
        assert out.bound <= F(1, 16)

    def test_preconditions(self):
        hs = _space([[2]])
        with pytest.raises(ValueError):
            sum_of_squares(_elem(hs, [[2]]), F(1, 4))
        with pytest.raises(ValueError):
            sum_of_squares(_elem(hs, [[-1]]), F(1, 4))
        with pytest.raises(ValueError):
            sum_of_squares(hs.zero(), 0)
        fuzzy = hs.element(RationalMatrix.from_rows([[F(1, 2)]]), err=F(1, 16))
        with pytest.raises(ToleranceError):
            sum_of_squares(fuzzy, F(1, 4))

    def test_iteration_cap(self):
        hs = _space([[F(1, 2)]])
        with pytest.raises(ToleranceError):
            sum_of_squares(_elem(hs, [[F(1, 2)]]), F(1, 1024), max_iter=3)


class TestBoundedness:
    def test_two_sided_bound_equals_squared_bound(self):
        # -a*I <= A <= a*I exactly when a^2*I - A^2 is psd
        rng = random.Random(63)
        fam = rand_diagonal_family(rng, 3, 2)
        hs = HermSpace(fam.members)
        eye = RationalMatrix.identity(3)
        shift = fam.members[1] - eye.scale(F(3, 2))
        for mat in (fam.members[0], shift, eye.scale(-2)):
            for a in (F(0), F(1), F(2), F(5, 2), F(3)):
                two_sided = psd_check(eye.scale(a) - mat) and psd_check(
                    mat + eye.scale(a)
                )
                squared = psd_check(eye.scale(a * a) - mat @ mat)
                assert two_sided == squared
                assert squared == oracles.psd_by_minors(
                    (eye.scale(a * a) - mat @ mat).entries
                )

    def test_norm_of_square_is_square_of_norm(self):
        rng = random.Random(64)
        fam = rand_diagonal_family(rng, 3, 2)
        hs = HermSpace(fam.members)
        eps = F(1, 64)
        for mem in fam.members:
            exact = oracles.operator_norm_exact(mem.entries)
            sq = oracles.operator_norm_exact((mem @ mem).entries)
            assert sq == exact * exact
            a = hs.scale(F(1, hs.unit_bound(hs.element(mem))), hs.element(mem))
            n1 = norm_cut(a).approx(eps)
            n2 = norm_cut(a.space.multiply(a, a)).approx(eps)
            assert abs(n2 - n1 * n1) <= 3 * eps


class TestGelfand:
    def test_commuting_diagonals_pass(self):
        hs = HermSpace([_diag(1, 2), _diag(3, 4)])
        a, b = hs.element(_diag(1, 2)), hs.element(_diag(3, 4))
        rep = gelfand_check(hs, [a, b], F(1, 8))
        assert rep.ok
        assert rep.pairs == 2
        assert not rep.key_inequality_failures
        assert rep.points >= 2
        assert rep.defect_bound == 2 * F(1, 8) * (1 + 2 + 4)
        assert rep.max_defect <= rep.defect_bound

    def test_unit_factor_is_transparent(self):
        hs = HermSpace([_diag(1, 2), _diag(3, 4)])
        rep = gelfand_check(hs, [hs.unit(), hs.element(_diag(3, 4))], F(1, 8))
        assert rep.ok

    def test_key_inequality_diagonal_example(self):
        # (a - 1/2)^+ /\ b^+ = diag(1/2, 0) sits under 2 * (a b)^+
        hs = HermSpace([_diag(1, 0)])
        a, b = hs.element(_diag(1, 0)), hs.unit()
        lhs = hs.meet(
            hs.join(a - hs.scale(F(1, 2), hs.unit()), hs.zero()),
            hs.join(b, hs.zero()),
        )
        rhs = hs.scale(2, hs.join(hs.multiply(a, b), hs.zero()))
        assert hs.leq(lhs, rhs) is True
        got = hs.materialize(lhs, F(1, 256))
        d = oracles.matsub(got.matrix.entries, _diag(F(1, 2), 0).entries)
        assert oracles.operator_norm_exact(d) <= got.err

    def test_rejects_err_elements(self):
        hs = _space([[1, 0], [0, 2]])
        fuzzy = hs.element(_diag(1, 2), err=F(1, 16))
        with pytest.raises(ToleranceError):
            gelfand_check(hs, [fuzzy, hs.unit()], F(1, 8))


# ----- integer kernels against their Fraction references ----------------

SQUARE_PALETTE = [F(0), F(1, 4), F(1), F(9, 4), F(4), F(25, 4), F(1, 2), F(3)]
UNIT_PALETTE = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1), F(1, 3)]


@st.composite
def generic_2x2(draw, unit_interval):
    """A symmetric 2x2 as the bench draws it: generically an irrational
    spectrum, psd, and at most the unit when unit_interval is set."""
    while True:
        p = F(draw(st.integers(1, 6)), 7)
        q = F(draw(st.integers(1, 4)), 5)
        r = F(draw(st.sampled_from([-1, 1])), draw(st.integers(3, 9)))
        rows = [[p, r], [r, q]]
        m = RationalMatrix.from_rows(rows)
        eye = RationalMatrix.identity(2)
        if psd_check(m) and (not unit_interval or psd_check(eye - m)):
            return rows


@st.composite
def kernel_inputs(draw, palette, max_dim, unit_interval):
    """Generators and the input matrix: a member of a random rational
    frame with a spectrum from the palette, or a generic 2x2."""
    if draw(st.booleans()):
        rows = draw(generic_2x2(unit_interval))
        return [rows], rows
    dim = draw(st.integers(1, max_dim))
    spectra = [draw(st.lists(st.sampled_from(palette), min_size=dim, max_size=dim))]
    if draw(st.booleans()):
        spectra.append(draw(st.lists(st.sampled_from(palette), min_size=dim, max_size=dim)))
    fam = _family(draw(st.integers(0, 10_000)), *spectra)[0]
    gens = [[list(r) for r in m.entries] for m in fam.members]
    return gens, gens[0]


class TestIntegerKernels:
    """The integer iterations give what the Fraction loops gave."""

    @settings(max_examples=60, deadline=None)
    @given(
        case=kernel_inputs(SQUARE_PALETTE, 4, unit_interval=False),
        bits=st.sampled_from([2, 4, 6, 8, 10]),
    )
    # singular: 0 in the spectrum, the iteration's slow case
    @example(case=([[[1, 1], [1, 1]]], [[1, 1], [1, 1]]), bits=10)
    def test_sqrt_core_matches_fraction_loop(self, case, bits):
        gens, rows = case
        tol = F(1, 1 << bits)
        hs = HermSpace([RationalMatrix.from_rows(g) for g in gens])
        amat = RationalMatrix.from_rows(rows)
        smat, trace = _sqrt_core(hs, amat, tol)
        ref = oracles.FractionAlgebra(gens, len(rows))
        want, want_trace = oracles.sqrt_core_fraction(ref, rows, tol)
        assert smat.entries == tuple(map(tuple, want))
        assert trace == want_trace

    @settings(max_examples=60, deadline=None)
    @given(
        case=kernel_inputs(UNIT_PALETTE, 3, unit_interval=True),
        bits=st.sampled_from([2, 3, 4]),
        max_iter=st.sampled_from([3, 64]),
    )
    @example(case=([[[F(1, 3), F(1, 5)], [F(1, 5), F(1, 2)]]], [[F(1, 3), F(1, 5)], [F(1, 5), F(1, 2)]]),
             bits=4, max_iter=64)
    def test_sum_of_squares_matches_fraction_loop(self, case, bits, max_iter):
        gens, rows = case
        tol = F(1, 1 << bits)
        hs = HermSpace([RationalMatrix.from_rows(g) for g in gens])
        a = hs.element(RationalMatrix.from_rows(rows))
        want = oracles.sum_of_squares_fraction(rows, tol, max_iter)
        if want is None:
            with pytest.raises(ToleranceError):
                sum_of_squares(a, tol, max_iter)
            return
        out = sum_of_squares(a, tol, max_iter)
        parts, rem, steps, bound = want
        assert [p.matrix.entries for p in out.parts] == [tuple(map(tuple, p)) for p in parts]
        assert out.remainder.matrix.entries == tuple(map(tuple, rem))
        assert (out.steps, out.bound) == (steps, bound)
        assert all(p.err == 0 for p in out.parts) and out.remainder.err == 0


class TestKernelsFailClosed:
    def test_corrupt_table_fails_to_certify(self):
        # the iteration squares through the table, the residual test uses
        # the basis rows: a wrong table entry never certifies.  The basis
        # is I, diag(0, 1); dropping diag(0, 1)**2 = diag(0, 1) from the
        # table keeps the iterates bounded and wrong at the second character
        hs = _space([[1, 0], [0, 4]])
        a = _elem(hs, [[1, 0], [0, 4]])
        alg = hs.algebra
        assert alg._table[(1, 1)] == (0, alg.table_den)
        alg._table[(1, 1)] = (0, 0)
        with pytest.raises(CertificateError, match="failed to certify within"):
            sqrt_psd(a, F(1, 64))

    def test_diverging_iterate_fails_at_its_majorant(self):
        # a doubled I*I entry makes the iterates grow past r_n * I, their
        # bits doubling each step; the majorant test stops them at once
        hs = _space([[1, 0], [0, 4]])
        a = _elem(hs, [[1, 0], [0, 4]])
        alg = hs.algebra
        alg._table[(0, 0)] = tuple(2 * c for c in alg._table[(0, 0)])
        t0 = time.perf_counter()
        with pytest.raises(CertificateError, match="exceeds its majorant"):
            sqrt_psd(a, F(1, 64))
        assert time.perf_counter() - t0 < 1

    def test_one_wrong_square_fails_the_identity(self, monkeypatch):
        hs = _space([[F(1, 3), F(1, 5)], [F(1, 5), F(1, 2)]])
        a = _elem(hs, [[F(1, 3), F(1, 5)], [F(1, 5), F(1, 2)]])
        real = falgebra._square
        calls = []
        monkeypatch.setattr(falgebra, "_square", lambda m: calls.append(1) or real(m))
        sum_of_squares(a, F(1, 8))
        last = len(calls)  # the loop's squares, then the identity's

        def wrong_last(m):
            calls.append(1)
            out = real(m)
            if len(calls) == last:
                out[0][0] += 1
            return out

        calls.clear()
        monkeypatch.setattr(falgebra, "_square", wrong_last)
        with pytest.raises(CertificateError, match="identity"):
            sum_of_squares(a, F(1, 8))

    def test_element_outside_the_algebra(self):
        # HermElement skips the membership test that HermSpace.element makes
        hs = HermSpace([_diag(1, 2)])
        outside = HermElement(hs, RationalMatrix.from_rows([[2, 1], [1, 2]]), F(0))
        with pytest.raises(ValueError, match="element outside the algebra"):
            sqrt_psd(outside, F(1, 64))
