"""Square roots, squares decompositions, and multiplicative checks."""
from fractions import Fraction as F
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from rieszspec.exact import RationalMatrix, psd_check, round_dyadic
from rieszspec.falgebra import (
    _sqrt_core,
    abs_element,
    abs_pos_join,
    gelfand_check,
    pos_part,
    product_positive,
    sqrt_psd,
    sum_of_squares,
)
from rieszspec.instances import HermSpace
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
                r = round_dyadic((1 + r * r) / 2, 64, "down")
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
        p = pos_part(a, tol)
        d = oracles.matsub(p.matrix.entries, _diag(1, 0).entries)
        assert oracles.operator_norm_exact(d) <= p.err
        assert p.err <= tol

    def test_join_of_disjoint_projections(self):
        hs = HermSpace([_diag(1, 0), _diag(0, 1)])
        a, b = hs.element(_diag(1, 0)), hs.element(_diag(0, 1))
        j = abs_pos_join("join", a, b, F(1, 256))
        d = oracles.matsub(j.matrix.entries, _diag(1, 1).entries)
        assert oracles.operator_norm_exact(d) <= j.err
        m = abs_pos_join("meet", a, b, F(1, 256))
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

    def test_dispatch_and_default_tol(self):
        hs = _space([[1, 0], [0, -2]])
        a = _elem(hs, [[1, 0], [0, -2]])
        assert abs_pos_join("abs", a).err <= hs.lattice_tol
        with pytest.raises(ValueError):
            abs_pos_join("join", a)
        with pytest.raises(ValueError):
            abs_pos_join("frobnicate", a)


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
    return _sqrt_core(hs, mat @ mat, TOL, "distance")[0]


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
    """Exact route on rational spectra against the sqrt iteration."""

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
        assert _dist(fam, got.matrix, _iteration_abs(hs, a.matrix)) <= TOL

    @settings(max_examples=25, deadline=None)
    @given(rational_cases())
    @_examples
    def test_pos_part_is_exact_and_near_iteration(self, case):
        seed, sa, _, err = case
        fam, hs = _family(seed, sa)
        a = hs.element(fam.members[0], err)
        got = pos_part(a, TOL)
        assert got.matrix == _conj(fam, [max(v, 0) for v in sa])
        assert got.err == err
        it = (a.matrix + _iteration_abs(hs, a.matrix)).scale(F(1, 2))
        assert _dist(fam, got.matrix, it) <= TOL / 2

    @settings(max_examples=25, deadline=None)
    @given(rational_cases())
    @_examples
    def test_join_meet_are_exact_and_near_iteration(self, case):
        seed, sa, sb, err = case
        fam, hs = _family(seed, sa, sb)
        a = hs.element(fam.members[0], err)
        b = hs.element(fam.members[1])
        d = _iteration_abs(hs, a.matrix - b.matrix)
        for kind, pick, sign in (("join", max, 1), ("meet", min, -1)):
            got = abs_pos_join(kind, a, b, TOL)
            assert got.matrix == _conj(fam, [pick(u, v) for u, v in zip(sa, sb)])
            assert got.err == err
            it = (a.matrix + b.matrix + d.scale(F(sign))).scale(F(1, 2))
            assert _dist(fam, got.matrix, it) <= TOL / 2

    def test_idempotents_built_on_first_use_and_kept(self):
        fam, hs = _family(3, [F(1), F(-2), F(1)])
        alg = hs.algebra
        assert alg._idem is None
        idem = alg.idempotents()
        assert alg.idempotents() is idem
        assert len(idem) == alg.char_count == 2
        eye = RationalMatrix.identity(3)
        assert sum(idem, RationalMatrix.zeros(3)) == eye
        for i, e in enumerate(idem):
            for j, f in enumerate(idem):
                assert e @ f == (e if i == j else RationalMatrix.zeros(3))


GOLDEN = [[1, 1], [1, 0]]
MIXED = [[1, 1, 0], [1, 0, 0], [0, 0, 2]]  # golden ratio block and 2


class TestIterationRoute:
    @pytest.mark.parametrize("rows", [GOLDEN, MIXED])
    def test_irrational_and_mixed_keep_iteration(self, rows):
        hs = _space(rows)
        assert hs.algebra.idempotents() is None
        assert any(hs.algebra.rational_root(j) is None for j in range(hs.algebra.char_count))
        gen = hs.algebra.generators[0]
        for err in (F(0), F(1, 32)):
            a = hs.element(gen, err)
            got = abs_element(a, TOL)
            assert got.err == err + TOL
            assert got.matrix == _iteration_abs(hs, gen)
            pos = pos_part(a, TOL)
            assert pos.err == err + TOL / 2

    def test_mixed_algebra_has_a_rational_character(self):
        alg = _space(MIXED).algebra
        roots = [r for j in range(alg.char_count) if (r := alg.rational_root(j)) is not None]
        assert len(roots) == 1
        assert poly_eval(alg.value_poly_of(alg.generators[0]), roots[0]) == 2


class TestSpectralCertificate:
    """A wrong idempotent never yields a result: the exact checks refuse it."""

    def _setup(self):
        fam, hs = _family(5, [F(3, 2), F(-1, 2), F(-1, 2)])
        return hs, hs.element(fam.members[0])

    def test_permuted_idempotents_fail_the_square(self, monkeypatch):
        hs, a = self._setup()
        idem = hs.algebra.idempotents()
        monkeypatch.setattr(hs.algebra, "idempotents", lambda: idem[::-1])
        with pytest.raises(CertificateError):
            abs_element(a, TOL)

    def test_negated_idempotent_fails_positivity(self, monkeypatch):
        # (-E)^2 = E, so the square still matches; only S >= 0 catches it
        hs, a = self._setup()
        idem = hs.algebra.idempotents()
        bad = (idem[0].scale(F(-1)),) + idem[1:]
        monkeypatch.setattr(hs.algebra, "idempotents", lambda: bad)
        with pytest.raises(CertificateError):
            abs_element(a, TOL)

    def test_join_goes_through_the_certificate(self, monkeypatch):
        hs, a = self._setup()
        idem = hs.algebra.idempotents()
        monkeypatch.setattr(hs.algebra, "idempotents", lambda: idem[::-1])
        with pytest.raises(CertificateError):
            hs.join_with_tol(a, hs.zero(), TOL)


class TestErrContract:
    """(A, err) stands for the algebra members X within err of A at every
    character; |X| then lies within abs_element(A).err of the result at
    every character, on both routes."""

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
        with pytest.MonkeyPatch.context() as mp:
            if route == "iteration":
                mp.setattr(hs.algebra, "idempotents", lambda: None)
            got = abs_element(a, TOL)
        vals = oracles.frame_diagonal(fam.frame.entries, got.matrix.entries)
        for x, v in zip(sx, vals):
            assert abs(abs(x) - v) <= got.err


class TestMaterializeErr:
    """A materialized join or meet of (A, ea) and (B, eb) holds, at every
    character, the join or meet of any members X within ea of A and Y
    within eb of B, within the result's err, on both routes of abs."""

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
        op = max if kind == "join" else min
        with pytest.MonkeyPatch.context() as mp:
            if route == "iteration":
                mp.setattr(hs.algebra, "idempotents", lambda: None)
            got = abs_pos_join(kind, a, b, TOL)
        slack = TOL / 2 if route == "iteration" else 0
        assert got.err == max(erra, errb) + slack
        vals = oracles.frame_diagonal(fam.frame.entries, got.matrix.entries)
        for x, y, v in zip(sa, sb, vals):
            want = op(x + sx[x, y], y + sy[x, y])
            assert abs(want - v) <= got.err

    def test_err_does_not_double(self):
        d1, d2 = _diag(1, -2), _diag(0, 1)
        hs = HermSpace([d1, d2])
        a, b = hs.element(d1, F(1, 8)), hs.element(d2, F(1, 8))
        assert hs.join_with_tol(a, b, TOL).err == F(1, 8)
        nested = hs.join(hs.join(a, b), hs.meet(a, b))
        assert hs.materialize(nested, TOL).err == F(1, 8)
        # iteration route: the larger err plus half the abs tolerance
        g = _space(GOLDEN)
        x = g.element(g.algebra.generators[0], F(1, 8))
        y = g.element(RationalMatrix.identity(2), F(1, 16))
        assert g.join_with_tol(x, y, F(1, 1024)).err == F(257, 2048)


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
