"""Positivity decisions, spectrum points, nets, and the norm cross check."""
from dataclasses import fields
from fractions import Fraction as F
import random

import pytest
from hypothesis import given, settings, strategies as st

from rieszspec import lattice, spectrum
from rieszspec.instances import HermSpace, PLSpace, QnSpace
from rieszspec.exact import RatInterval, RationalMatrix, cell_bounds, interval_grid_window
from rieszspec.lattice import (
    cover_interval,
    cover_range,
    d_of,
    grid_cells,
    precedes,
    prune_cover,
)
from rieszspec.riesz import MarginCollapseError, RieszSpace
from rieszspec.sampling import rand_pl, rand_qn
from rieszspec.spectrum import (
    Below,
    Pos,
    epsilon_net,
    point_new,
    pos_or_below,
    stone_yosida_check,
    sup_approx,
)

import oracles
from oracles import qn_sup


def _herm(rows):
    gens = [RationalMatrix.from_rows(rows)]
    return HermSpace(gens)


class TestPosOrBelow:
    def test_positive_coordinate_is_pos(self):
        q2 = QnSpace(2)
        out = pos_or_below(q2, q2.element([1, -1]), F(1, 2))
        assert isinstance(out, Pos)
        assert out.witness >= F(3, 8)
        assert out.witness <= 1

    def test_zero_is_below(self):
        q1 = QnSpace(1)
        out = pos_or_below(q1, q1.element([0]), 1)
        assert isinstance(out, Below)
        assert q1.leq(q1.element([0]), q1.scale(out.bound, q1.unit()))

    def test_small_positive_is_below_for_coarse_r(self):
        q2 = QnSpace(2)
        out = pos_or_below(q2, q2.element([F(1, 8), 0]), F(1, 2))
        assert isinstance(out, Below)

    def test_rejects_nonpositive_r(self):
        q1 = QnSpace(1)
        with pytest.raises(ValueError):
            pos_or_below(q1, q1.unit(), 0)

    def test_trichotomy_sound_on_random_elements(self):
        q3 = QnSpace(3)
        rng = random.Random(11)
        for _ in range(200):
            a = rand_qn(q3, rng)
            r = F(1, 1 << rng.randint(0, 4))
            out = pos_or_below(q3, a, r)
            sup = qn_sup(a.coords)
            if isinstance(out, Pos):
                assert 0 < out.witness <= sup
                assert out.witness > r / 4
            else:
                assert sup <= out.bound <= r / 2
                assert q3.leq(a, q3.scale(out.bound, q3.unit()))

    def test_pos_splits_over_joins(self):
        # a certified join splits: one side must certify at the witness
        q3 = QnSpace(3)
        rng = random.Random(12)
        seen = 0
        for _ in range(300):
            a, b = rand_qn(q3, rng), rand_qn(q3, rng)
            out = pos_or_below(q3, q3.join(a, b), F(1, 2))
            if isinstance(out, Below):
                continue
            seen += 1
            w = out.witness
            sides = [pos_or_below(q3, x, w) for x in (a, b)]
            assert any(isinstance(t, Pos) for t in sides)
        assert seen >= 50

    def test_dominance_transfers_positivity(self):
        # Pos(a) with witness w and [a+] <= n*[b+] forces Pos for b at w/n
        q3 = QnSpace(3)
        rng = random.Random(13)
        seen = 0
        for _ in range(300):
            a, c = rand_qn(q3, rng), rand_qn(q3, rng)
            b = q3.join(a, c)
            out = pos_or_below(q3, a, F(1, 4))
            if isinstance(out, Below):
                continue
            n = precedes(q3, d_of(q3, a).rep, d_of(q3, b).rep)
            if n is None:
                continue
            seen += 1
            t = pos_or_below(q3, b, out.witness / n)
            assert isinstance(t, Pos)
        assert seen >= 50


class TestSupApprox:
    def test_pair_example(self):
        q2 = QnSpace(2)
        s = sup_approx(q2, q2.element([F(1, 3), F(1, 2)]), F(1, 16))
        assert abs(s - F(1, 2)) <= F(1, 16)

    def test_unit_across_instances(self):
        spaces = [QnSpace(3), PLSpace(), _herm([[2, 1], [1, 2]])]
        for sp in spaces:
            s = sup_approx(sp, sp.unit(), F(1, 32))
            assert abs(s - 1) <= F(1, 32)

    def test_herm_example(self):
        hs = _herm([[2, 1], [1, 2]])
        a = hs.element(RationalMatrix.from_rows([[2, 1], [1, 2]]))
        s = sup_approx(hs, a, F(1, 256))
        assert abs(s - 3) <= F(1, 256)

    def test_matches_native_cut_qn(self):
        q3 = QnSpace(3)
        rng = random.Random(21)
        eps = F(1, 32)
        for _ in range(30):
            a = rand_qn(q3, rng)
            s = sup_approx(q3, a, eps)
            t = q3.sup_cut(a).approx(eps)
            assert abs(s - t) <= 2 * eps

    def test_matches_native_cut_pl(self):
        pl = PLSpace()
        rng = random.Random(22)
        eps = F(1, 16)
        for _ in range(8):
            a = rand_pl(pl, rng, max_breaks=6, max_num=4)
            s = sup_approx(pl, a, eps)
            t = pl.sup_cut(a).approx(eps)
            assert abs(s - t) <= 2 * eps

    def test_matches_native_cut_herm(self):
        hs = _herm([[1, F(1, 2)], [F(1, 2), 0]])
        rng = random.Random(23)
        eps = F(1, 64)
        gen = hs.element(RationalMatrix.from_rows([[1, F(1, 2)], [F(1, 2), 0]]))
        elems = [gen, hs.unit(), gen - hs.unit(), hs.join(gen, hs.negate(gen))]
        for a in elems:
            s = sup_approx(hs, a, eps)
            t = hs.sup_cut(a).approx(eps)
            assert abs(s - t) <= 2 * eps

    def test_rejects_nonpositive_eps(self):
        q1 = QnSpace(1)
        with pytest.raises(ValueError):
            sup_approx(q1, q1.unit(), 0)


def _point_from_pos(space, a, eps):
    """The CLI recipe: certify positivity, then pin a into (w/2, ub+1)."""
    out = pos_or_below(space, a, eps)
    assert isinstance(out, Pos)
    hi = F(space.unit_bound(a) + 1)
    return point_new(space, [(a, out.witness / 2, hi)])


class TestPointState:
    def test_line_identity(self):
        q1 = QnSpace(1)
        pt = _point_from_pos(q1, q1.element([1]), F(1, 8))
        assert abs(pt.eval(q1.element([1]), F(1, 8)) - 1) <= F(1, 8)

    def test_projection_example(self):
        # pinning (0,1) positive forces the second coordinate projection
        q2 = QnSpace(2)
        eps = F(1, 16)
        pt = _point_from_pos(q2, q2.element([0, 1]), eps)
        assert abs(pt.eval(q2.element([5, 7]), eps) - 7) <= eps
        assert abs(pt.eval(q2.element([0, 1]), eps) - 1) <= eps
        assert abs(pt.eval(q2.unit(), eps) - 1) <= eps

    def test_three_coordinate_example(self):
        q3 = QnSpace(3)
        eps = F(1, 64)
        pt = _point_from_pos(q3, q3.element([0, 0, 1]), eps)
        assert abs(pt.eval(q3.element([2, 4, 8]), eps) - 8) <= eps

    def test_empty_constraints_rejected(self):
        with pytest.raises(ValueError):
            point_new(QnSpace(2), [])

    def test_contradictory_constraints_collapse(self):
        q2 = QnSpace(2)
        a = q2.element([0, 1])
        with pytest.raises(MarginCollapseError):
            point_new(q2, [(a, F(2, 5), F(3, 5))])

    def test_eval_appends_constraint_and_shrinks_margin(self):
        q2 = QnSpace(2)
        pt = _point_from_pos(q2, q2.element([0, 1]), F(1, 8))
        ncons = len(pt.constraints)
        m0 = pt.margin
        b = q2.element([3, -2])
        pt.eval(b, F(1, 8))
        assert len(pt.constraints) == ncons + 1
        assert pt.constraints[-1][0] == b
        assert 0 < pt.margin <= m0

    def test_eval_is_cached_per_level(self):
        q2 = QnSpace(2)
        pt = _point_from_pos(q2, q2.element([0, 1]), F(1, 8))
        b = q2.element([3, -2])
        v1 = pt.eval(b, F(1, 8))
        ncons = len(pt.constraints)
        v2 = pt.eval(b, F(1, 8))
        assert v1 == v2
        assert len(pt.constraints) == ncons

    def test_refinement_stays_coherent(self):
        q3 = QnSpace(3)
        pt = _point_from_pos(q3, q3.element([0, 0, 1]), F(1, 8))
        b = q3.element([F(5, 3), F(-1, 2), F(7, 4)])
        coarse = pt.eval(b, F(1, 8))
        fine = pt.eval(b, F(1, 64))
        assert abs(coarse - fine) <= F(1, 8) + F(1, 64)

    def test_deterministic_across_fresh_points(self):
        q3 = QnSpace(3)
        rng = random.Random(31)
        probes = [rand_qn(q3, rng) for _ in range(6)]
        runs = []
        for _ in range(2):
            pt = _point_from_pos(q3, q3.element([0, 1, 0]), F(1, 16))
            runs.append([pt.eval(b, F(1, 16)) for b in probes])
        assert runs[0] == runs[1]

    def test_representation_contract(self):
        # additive, homogeneous, join preserving, unital within tolerance
        q3 = QnSpace(3)
        rng = random.Random(32)
        eps = F(1, 32)
        pt = _point_from_pos(q3, q3.element([1, 0, 0]), eps)
        for _ in range(12):
            a, b = rand_qn(q3, rng, max_num=4), rand_qn(q3, rng, max_num=4)
            lam = F(rng.randint(-3, 3), rng.randint(1, 3))
            va = pt.eval(a, eps)
            vb = pt.eval(b, eps)
            assert abs(pt.eval(a + b, eps) - va - vb) <= 4 * eps
            assert abs(pt.eval(q3.scale(lam, a), eps) - lam * va) <= (1 + abs(lam)) * 2 * eps
            vj = pt.eval(q3.join(a, b), eps)
            assert abs(vj - max(va, vb)) <= 4 * eps
        assert abs(pt.eval(q3.unit(), eps) - 1) <= eps

    def test_monotone_within_tolerance(self):
        q3 = QnSpace(3)
        rng = random.Random(33)
        eps = F(1, 32)
        pt = _point_from_pos(q3, q3.element([0, 1, 0]), eps)
        for _ in range(10):
            a = rand_qn(q3, rng, max_num=4)
            b = q3.join(a, rand_qn(q3, rng, max_num=4))
            assert pt.eval(a, eps) <= pt.eval(b, eps) + 2 * eps

    def test_herm_point_reads_a_character(self):
        # diag(1,3) scaled into the ball: values cluster at 1/4 or 3/4
        hs = _herm([[1, 0], [0, 3]])
        a = hs.scale(F(1, 4), hs.element(RationalMatrix.from_rows([[1, 0], [0, 3]])))
        eps = F(1, 32)
        pt = _point_from_pos(hs, a, eps)
        v = pt.eval(a, eps)
        assert min(abs(v - F(1, 4)), abs(v - F(3, 4))) <= eps


class TestEpsilonNet:
    def test_projection_values_both_reached(self):
        q2 = QnSpace(2)
        a = q2.element([0, 1])
        net = epsilon_net(q2, [a], F(1, 4))
        assert net.resolution <= F(1, 4)
        evals = [pt.eval(a, net.eps / 4) for pt in net.points]
        assert any(abs(v - 1) <= F(1, 4) for v in evals)
        assert any(abs(v) <= F(1, 4) for v in evals)

    def test_single_representation_line(self):
        q1 = QnSpace(1)
        a = q1.element([1])
        net = epsilon_net(q1, [a], F(1, 4))
        assert len(net.points) >= 1
        for pt in net.points:
            assert abs(pt.eval(a, net.eps / 4) - 1) <= F(1, 4)

    def test_joint_rows_track_actual_coordinates(self):
        # every surviving tuple reads off one true coordinate pair
        q2 = QnSpace(2)
        e1, e2 = q2.element([0, 1]), q2.element([1, 0])
        net = epsilon_net(q2, [e1, e2], F(1, 8))
        table = [[pt.eval(e, net.eps / 4) for e in net.elements] for pt in net.points]
        tol = 2 * net.resolution + net.eps
        targets = [(F(0), F(1)), (F(1), F(0))]
        for row in table:
            assert any(
                abs(row[0] - t0) <= tol and abs(row[1] - t1) <= tol
                for t0, t1 in targets
            )
        for t0, t1 in targets:
            assert any(
                abs(row[0] - t0) <= tol and abs(row[1] - t1) <= tol
                for row in table
            )

    def test_herm_diagonal_characters(self):
        hs = _herm([[1, 0], [0, 3]])
        a = hs.scale(F(1, 4), hs.element(RationalMatrix.from_rows([[1, 0], [0, 3]])))
        net = epsilon_net(hs, [a], F(1, 8))
        evals = [pt.eval(a, net.eps / 4) for pt in net.points]
        assert any(abs(v - F(1, 4)) <= F(1, 8) for v in evals)
        assert any(abs(v - F(3, 4)) <= F(1, 8) for v in evals)

    def test_shrink_info_records_positive_radii(self):
        q2 = QnSpace(2)
        net = epsilon_net(q2, [q2.element([0, 1]), q2.unit()], F(1, 4))
        assert len(net.shrink_info) == 2
        for r, mult in net.shrink_info:
            assert r > 0
            assert mult >= 1

    def test_input_validation(self):
        q2 = QnSpace(2)
        with pytest.raises(ValueError):
            epsilon_net(q2, [], F(1, 4))
        with pytest.raises(ValueError):
            epsilon_net(q2, [q2.unit()], 0)


class TestStoneYosida:
    def test_qn_example(self):
        q2 = QnSpace(2)
        eps = F(1, 16)
        rep = stone_yosida_check(q2, q2.element([1, -3]), eps)
        assert rep.ok
        assert abs(rep.norm_value - 3) <= eps / 2
        assert abs(rep.net_value - 3) <= 2 * eps
        assert rep.bound == 2 * eps
        assert rep.points >= 1

    def test_unit(self):
        q3 = QnSpace(3)
        rep = stone_yosida_check(q3, q3.unit(), F(1, 8))
        assert rep.ok
        assert abs(rep.norm_value - 1) <= F(1, 16)

    def test_herm_example(self):
        hs = _herm([[5, 3], [3, 5]])
        a = hs.element(RationalMatrix.from_rows([[5, 3], [3, 5]]))
        eps = F(1, 16)
        rep = stone_yosida_check(hs, a, eps)
        assert rep.ok
        assert abs(rep.norm_value - 8) <= eps / 2

    def test_pl_element(self):
        pl = PLSpace()
        f = pl.element([(0, 1), (F(1, 2), -1), (1, 0)])
        rep = stone_yosida_check(pl, f, F(1, 4))
        assert rep.ok
        assert abs(rep.norm_value - 1) <= F(1, 8)

    def test_random_qn_elements_agree(self):
        q3 = QnSpace(3)
        rng = random.Random(41)
        for _ in range(8):
            a = rand_qn(q3, rng, max_num=4)
            rep = stone_yosida_check(q3, a, F(1, 8))
            assert rep.ok
            assert abs(rep.norm_value - rep.net_value) < rep.bound


def _full_grid_net(space, elements, eps):
    """The epsilon net over every cell of the stepping grid.

    Cover, shrink and prune run on all cells of ``oracles.interval_grid``,
    the cover multiplier and the shrink coming from the three-join search
    of ``oracles.shrink_cover_three_joins``, and the joint points come
    from the same depth first product as in ``epsilon_net``.  Returns the
    cover multipliers, the shrink info and each point's (constraints,
    margin).
    """
    w = F(1)
    while w > eps:
        w /= 2
    per_elem, shrink_info, mults = [], [], []
    for e in elements:
        p, q, _ = cover_range(space, e)
        grid = oracles.interval_grid(F(p), F(q), w)
        cells = [space.in_interval(e, iv.lo, iv.hi) for iv in grid]
        mult, r, shrink_mult = oracles.shrink_cover_three_joins(
            space, space.in_interval(e, p, q), cells
        )
        mults.append(mult)
        kept = prune_cover(space, cells, r)
        per_elem.append([(grid[k], cells[k]) for k, _ in kept])
        shrink_info.append((r, shrink_mult))
    r_joint = min(r for r, _ in shrink_info)
    points = []

    def extend(i, meet, chosen):
        if meet is not None:
            t = pos_or_below(space, meet, r_joint)
            if isinstance(t, Below):
                return
            if i == len(elements):
                points.append(([(iv.lo, iv.hi) for iv in chosen], t.witness))
                return
        for iv, cell in per_elem[i]:
            chosen.append(iv)
            extend(i + 1, cell if meet is None else space.meet(meet, cell), chosen)
            chosen.pop()

    extend(0, None, [])
    return mults, shrink_info, points


def _net_summary(space, elements, eps):
    w = F(1)
    while w > eps:
        w /= 2
    mults = []
    for e in elements:
        p, q, _ = cover_range(space, e)
        mults.append(cover_interval(space, e, p, q, w)[3].multiplier)
    net = epsilon_net(space, elements, eps)
    points = [([(lo, hi) for _, lo, hi in pt.constraints], pt.margin) for pt in net.points]
    return mults, list(net.shrink_info), points


_small = st.fractions(min_value=-3, max_value=3, max_denominator=6)
_eps = st.sampled_from([F(1, 2), F(1, 4), F(1, 8)])

# separating generators: rational spectra {3, -1} and {3, 1, -1}, the
# golden ratio, and a cubic with irreducible characteristic polynomial
_HERM_GENS = [
    [[1, 2], [2, 1]],
    [[2, 1, 0], [1, 2, 0], [0, 0, -1]],
    [[1, 1], [1, 0]],
    [[2, 1, 0], [1, -1, 1], [0, 1, 1]],
]
_RATIONAL_GENS = 2


def _herm_elem(hs, gi, c0, c1):
    """The element c0*I + c1*G of a space on generator gi."""
    g = hs.element(RationalMatrix.from_rows(_HERM_GENS[gi]))
    return hs.add(hs.scale(c0, hs.unit()), hs.scale(c1, g))


def _herm_case(gi, c0, c1):
    """A fresh space on generator gi and the element c0*I + c1*G."""
    hs = HermSpace([RationalMatrix.from_rows(_HERM_GENS[gi])])
    return hs, [_herm_elem(hs, gi, c0, c1)]


class TestNetOnCandidateCells:
    """The net built on value-range cells against the full grid."""

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 3), data=st.data(), eps=_eps)
    def test_qn_matches_full_grid(self, n, data, eps):
        q = QnSpace(n)
        coords = st.lists(_small, min_size=n, max_size=n)
        elems = [q.element(data.draw(coords)) for _ in range(data.draw(st.integers(1, 2)))]
        assert _net_summary(q, elems, eps) == _full_grid_net(q, elems, eps)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1 << 30), count=st.integers(1, 2), eps=_eps)
    def test_pl_matches_full_grid(self, seed, count, eps):
        pls = PLSpace()
        rng = random.Random(seed)
        elems = [rand_pl(pls, rng, rng.randint(2, 5), max_num=4) for _ in range(count)]
        assert _net_summary(pls, elems, eps) == _full_grid_net(pls, elems, eps)

    @settings(max_examples=16, deadline=None, derandomize=True)
    @given(gi=st.integers(0, 3), c0=_small, c1=_small.filter(bool), eps=_eps)
    def test_err_free_herm_matches_full_grid(self, gi, c0, c1, eps):
        # a fresh space per route, so neither sees root boxes the other refined
        got = _net_summary(*_herm_case(gi, c0, c1), eps)
        want = _full_grid_net(*_herm_case(gi, c0, c1), eps)
        if gi < _RATIONAL_GENS:
            assert got == want
            return
        # at an irrational character the oracle's dominance ceiling reads
        # x/y off loose enclosures, so its r may be smaller than the one
        # min phi gives: r may grow, the lowered cover must re-check, and
        # a larger r can only drop points
        (_, shrink, pts), (_, shrink_want, pts_want) = got, want
        assert all(r >= r2 for (r, _), (r2, _) in zip(shrink, shrink_want))
        hs, elems = _herm_case(gi, c0, c1)
        w = F(1, 1 << spectrum._dyadic_level(eps))
        for (r, mult), e in zip(shrink, elems):
            p, q, _ = cover_range(hs, e)
            _, cells = grid_cells(hs, e, p, q, w)
            assert lattice.ShrinkResult(r, mult, hs, tuple(cells)).cert.verify()
        want_cells = [c for c, _ in pts_want]
        assert all(c in want_cells for c, _ in pts)

    def test_points_reuse_the_net_ranges(self, monkeypatch):
        # each point is handed the (p, q) the net certified, so evaluating
        # a family member proves no range again
        calls = []
        real = lattice.cover_range

        def counting(space, a):
            calls.append(a)
            return real(space, a)

        monkeypatch.setattr("rieszspec.spectrum.cover_range", counting)
        pls = PLSpace()
        a = pls.element([(0, F(-1, 2)), (F(1, 4), F(3, 2)), (1, 1)])
        net = epsilon_net(pls, [a], F(1, 8))
        assert len(calls) == 1 and len(net.points) > 1
        for pt in net.points:
            pt.eval(a, F(1, 32))
        assert len(calls) == 1
        net.points[0].eval(pls.negate(a), F(1, 32))
        assert len(calls) == 2

    def test_one_element_net_builds_no_cell(self):
        # prune_cover reads every cell's supremum from cell_sups, and each
        # point builds its one cell as its meet only when that is read
        class Counting:
            def in_interval(self, a, p, q):
                self.built.append((p, q))
                return super().in_interval(a, p, q)

            def sup_cut(self, a):
                self.cuts += 1
                return super().sup_cut(a)

        class CountingQn(Counting, QnSpace):
            pass

        class CountingPL(Counting, PLSpace):
            pass

        qn, pls = CountingQn(3), CountingPL()
        for space, a in (
            (qn, qn.element([F(-1, 2), F(3, 2), F(1, 3)])),
            (pls, pls.element([(0, F(-1, 2)), (F(1, 4), F(3, 2)), (1, 1)])),
        ):
            space.built, space.cuts = [], 0
            p, q, _ = cover_range(space, a)
            den, found = interval_grid_window(F(p), F(q), F(1, 8), space.value_ranges(a))
            grid = {(F(lo, den), F(hi, den)) for _, lo, hi in found}
            space.built, space.cuts = [], 0
            net = epsilon_net(space, [a], F(1, 8))
            assert len(net.points) > 1
            # only the shrink's gap tests build interval elements, none a cell
            assert space.cuts == 0 and not grid & set(space.built)
            r = net.shrink_info[0][0]
            for pt in net.points:
                (_, lo, hi), = pt.constraints
                cell = space.in_interval(a, lo, hi)
                assert pt.meet == cell and pt.margin == pos_or_below(space, cell, r).witness

    def test_point_builds_its_cell_once_on_first_eval(self):
        # a one-element net point builds its own cell as its meet on first
        # eval, once; the other interval elements eval builds are cells of
        # the evaluation grid that meet the point's window
        class CountingPL(PLSpace):
            def __init__(self):
                super().__init__()
                self.built = []

            def in_interval(self, a, p, q):
                self.built.append((a, RatInterval(p, q)))
                return super().in_interval(a, p, q)

        pls = CountingPL()
        a = pls.element([(0, F(-1, 2)), (F(1, 4), F(3, 2)), (1, 1)])
        p, q, _ = cover_range(pls, a)
        net = epsilon_net(pls, [a], F(1, 8))
        for pt in net.points:
            (_, lo, hi), = pt.constraints
            own = (a, RatInterval(lo, hi))
            den, found = interval_grid_window(p, q, F(1, 32), [(lo, hi)])
            window = [RatInterval(F(c, den), F(d, den)) for _, c, d in found]
            pls.built.clear()
            pt.eval(a, F(1, 32))
            assert pls.built.count(own) == 1
            rest = [x for x in pls.built if x != own]
            assert rest and all(b is a and iv in window for b, iv in rest)
            pls.built.clear()
            pt.eval(a, F(1, 128))
            pt.eval(pls.negate(a), F(1, 32))
            assert own not in pls.built
        # a started point proves a's range once, and never rebuilds its cell
        started = point_new(pls, [(a, F(1, 4), F(3, 4))])
        pls.built.clear()
        started.eval(a, F(1, 32))
        assert RatInterval(F(p), F(q)) in [iv for _, iv in pls.built]
        assert RatInterval(F(1, 4), F(3, 4)) not in [iv for _, iv in pls.built]


_eps_any = st.one_of(
    st.builds(F, st.integers(1, 1 << 80), st.integers(1, 1 << 80)),
    # powers of two, and values just above and below them
    st.builds(
        lambda k, t: F(1, 1 << k) + t,
        st.integers(0, 70),
        st.sampled_from([F(0), F(1, 1 << 90), -F(1, 1 << 90)]),
    ),
    st.integers(1, 40).map(F),
)


def _level_loop(eps):
    level = 0
    while F(1, 1 << level) > eps:
        level += 1
    return level


@settings(max_examples=300, deadline=None)
@given(eps=_eps_any)
def test_dyadic_levels_match_the_loops(eps):
    # the net and eval level against the loop it replaced; eps >= 1 included
    assert spectrum._dyadic_level(eps) == _level_loop(eps)


def _excluded_cells(space, b, context, w):
    p, q, _ = cover_range(space, b)
    _, found = interval_grid_window(p, q, w, space.value_ranges(b, context, w / 4))
    kept = {k for k, _, _ in found}
    return [iv for k, iv in enumerate(oracles.interval_grid(F(p), F(q), w)) if k not in kept]


class TestValueRangesSound:
    """Every grid cell the value ranges leave out is <= 0 on the context."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), w=_eps)
    def test_qn(self, data, w):
        q = QnSpace(3)
        coords = st.lists(_small, min_size=3, max_size=3)
        b, ctx = q.element(data.draw(coords)), q.element(data.draw(coords))
        for context in (None, ctx):
            for iv in _excluded_cells(q, b, context, w):
                cell = q.in_interval(b, iv.lo, iv.hi)
                if context is not None:
                    cell = q.meet(context, cell)
                assert q.sup_cut(cell).approx(F(1, 1 << 20)) <= 0

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 1 << 30), w=_eps)
    def test_pl(self, seed, w):
        pls = PLSpace()
        rng = random.Random(seed)
        b, ctx = rand_pl(pls, rng, 5, max_num=4), rand_pl(pls, rng, 5, max_num=4)
        for context in (None, ctx):
            for iv in _excluded_cells(pls, b, context, w):
                cell = pls.in_interval(b, iv.lo, iv.hi)
                if context is not None:
                    cell = pls.meet(context, cell)
                assert pls.sup_cut(cell).approx(F(1, 1 << 20)) <= 0

    @settings(max_examples=12, deadline=None)
    @given(gi=st.integers(0, 3), c0=_small, c1=_small, d0=_small, d1=_small, w=_eps)
    def test_err_free_herm(self, gi, c0, c1, d0, d1, w):
        # the exact order test stands in for sup <= 0: a cut answer is an
        # upper bound that may sit above a supremum of exactly 0
        hs, (b,) = _herm_case(gi, c0, c1)
        ctx = _herm_elem(hs, gi, d0, d1)
        for context in (None, ctx):
            for iv in _excluded_cells(hs, b, context, w):
                cell = hs.in_interval(b, iv.lo, iv.hi)
                if context is not None:
                    cell = hs.meet(context, cell)
                assert hs.leq(cell, hs.zero()) is True


def _bounded_cells(pt, b, eps):
    """Every grid cell of b that meets a value range of b on pt's meet, as
    (RatInterval, bound) with the bound eval's skip test reads."""
    space = pt.space
    w = F(1, 1 << spectrum._dyadic_level(eps))
    p, q, _ = cover_range(space, b)
    ranges = space.value_ranges(b, pt.meet, w / 4)
    den, cells = interval_grid_window(p, q, w, ranges)
    s, bounds = cell_bounds(ranges, den, cells)
    return [
        (RatInterval(F(lo, den), F(hi, den)), F(bound, s))
        for (_, lo, hi), bound in zip(cells, bounds)
    ]


def _refined_points(space, family, eps):
    """Net points of the family, each refined once on its first member, so
    the bound is also read on meets that eval built."""
    pts = list(epsilon_net(space, family, eps).points)
    for pt in pts:
        pt.eval(family[0], eps / 2)
    return pts


class TestCellBoundSound:
    """The range-derived bound is at least sup(meet /\\ (b in cell)) on every
    candidate cell, or that sup is <= 0 where the bound is."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), eps=_eps)
    def test_qn(self, data, eps):
        q = QnSpace(3)
        coords = st.lists(_small, min_size=3, max_size=3)
        family = [q.element(data.draw(coords)) for _ in range(2)]
        other = q.element(data.draw(coords))
        for pt in _refined_points(q, family, eps):
            for b in [*family, other]:
                for iv, bound in _bounded_cells(pt, b, eps / 4):
                    met = q.meet(pt.meet, q.in_interval(b, iv.lo, iv.hi))
                    assert qn_sup(met.coords) <= max(bound, 0)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 1 << 30), eps=_eps)
    def test_pl(self, seed, eps):
        pls = PLSpace()
        rng = random.Random(seed)
        family = [rand_pl(pls, rng, 4, max_num=3) for _ in range(2)]
        other = rand_pl(pls, rng, 5, max_num=3)
        for pt in _refined_points(pls, family, eps):
            for b in [*family, other]:
                for iv, bound in _bounded_cells(pt, b, eps / 4):
                    met = pls.meet(pt.meet, pls.in_interval(b, iv.lo, iv.hi))
                    assert oracles.pl_max(met.points) <= max(bound, 0)

    @settings(max_examples=8, deadline=None)
    @given(gi=st.integers(0, 3), c0=_small, c1=_small.filter(bool), d0=_small, d1=_small)
    def test_err_free_herm(self, gi, c0, c1, d0, d1):
        # the exact order test reads the sup: met <= bound * 1
        hs, family = _herm_case(gi, c0, c1)
        other = _herm_elem(hs, gi, d0, d1)
        eps = F(1, 2)
        for pt in _refined_points(hs, family, eps):
            for b in [*family, other]:
                for iv, bound in _bounded_cells(pt, b, eps / 4):
                    met = hs.meet(pt.meet, hs.in_interval(b, iv.lo, iv.hi))
                    assert hs.leq(met, hs.scale(max(bound, 0), hs.unit())) is True


_big = st.builds(F, st.integers(-(1 << 40), 1 << 40), st.integers(1, 1 << 40))
_any_value = st.one_of(_small, _big)


def _cells_near(space, a, width):
    """Cells of a's grid within two widths of a value a takes or of an end
    of its image: some hold a value, some sit at the ends, some miss."""
    p, q, _ = cover_range(space, a)
    near = [v for rng in space.value_ranges(a) for v in rng]
    den, cells = interval_grid_window(
        F(p), F(q), width, [(v - 2 * width, v + 2 * width) for v in near]
    )
    return den, cells


class TestCellSupsExact:
    """Qn and PL cell_sups equal the default route, one cell element and one
    cut query per cell, exactly."""

    @staticmethod
    def _same(space, a, width, eps):
        den, cells = _cells_near(space, a, width)
        got = space.cell_sups(a, den, cells, eps)
        assert got == RieszSpace.cell_sups(space, a, den, cells, eps)
        # a value sits deep in some cell; under width 1 the grid reaches a
        # unit past the image, so some cell near it misses the image
        assert any(s > 0 for s in got)
        assert width >= 1 or any(s < 0 for s in got)

    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 4),
        width=st.sampled_from([F(2), F(1, 2), F(1, 8), F(1, 1 << 20)]),
        eps=st.sampled_from([F(1, 4), F(1, 1 << 30)]),
    )
    def test_qn(self, data, n, width, eps):
        q = QnSpace(n)
        coords = data.draw(st.one_of(
            st.lists(_any_value, min_size=n, max_size=n),
            _any_value.map(lambda v: [v] * n),  # a constant element
        ))
        self._same(q, q.element(coords), width, eps)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        width=st.sampled_from([F(2), F(1, 2), F(1, 8), F(1, 1 << 20)]),
        eps=st.sampled_from([F(1, 4), F(1, 1 << 30)]),
    )
    def test_pl(self, data, width, eps):
        pls = PLSpace()
        inner = sorted(data.draw(st.sets(_big.filter(lambda x: 0 < x < 1), max_size=4)))
        xs = [F(0), *inner, F(1)]
        ys = data.draw(st.one_of(
            st.lists(_any_value, min_size=len(xs), max_size=len(xs)),
            _any_value.map(lambda v: [v] * len(xs)),  # a constant element
        ))
        self._same(pls, pls.element(list(zip(xs, ys))), width, eps)


def _match_no_skip(pts, elements, eps):
    for pt in pts:
        for b in elements:
            for e in (eps / 2, eps / 8):
                if (b, spectrum._dyadic_level(e)) in pt._evals:
                    continue  # an equal element was evaluated: a cache hit
                want = oracles.eval_no_skip(pt, b, e)
                if want is None:
                    with pytest.raises(MarginCollapseError):
                        pt.eval(b, e)
                    continue
                val = pt.eval(b, e)
                assert (val, pt.margin, pt.constraints[-1]) == want


class TestEvalAgainstNoSkipOracle:
    """On instances with exact cuts the candidate filters and the skip bound
    change no answer: value, margin and new constraint equal the oracle's,
    which queries every cell of the full grid."""

    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), eps=_eps)
    def test_qn(self, data, eps):
        q = QnSpace(3)
        coords = st.lists(_small, min_size=3, max_size=3)
        family = [q.element(data.draw(coords)) for _ in range(2)]
        other = q.element(data.draw(coords))
        net = epsilon_net(q, family, eps)
        _match_no_skip(net.points, [*family, other], eps)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1 << 30), eps=_eps)
    def test_pl(self, seed, eps):
        pls = PLSpace()
        rng = random.Random(seed)
        family = [rand_pl(pls, rng, 4, max_num=3) for _ in range(2)]
        other = rand_pl(pls, rng, 5, max_num=3)
        net = epsilon_net(pls, family, eps)
        _match_no_skip(net.points[:4], [*family, other], eps)


class TestEvalBuildsQueriedCellsOnly:
    def test_one_interval_element_and_rat_interval_per_cut_query(self, monkeypatch):
        built = []

        class CountingInterval(RatInterval):
            def __post_init__(self):
                built.append((self.lo, self.hi))
                super().__post_init__()

        class CountingPL(PLSpace):
            def __init__(self):
                super().__init__()
                self.cells, self.cuts = [], 0

            def in_interval(self, a, p, q):
                self.cells.append((p, q))
                return super().in_interval(a, p, q)

            def sup_cut(self, a):
                self.cuts += 1
                return super().sup_cut(a)

        pls = CountingPL()
        rng = random.Random(71)
        family = [rand_pl(pls, rng, 5, max_num=3) for _ in range(2)]
        net = epsilon_net(pls, family, F(1, 8))
        monkeypatch.setattr(spectrum, "RatInterval", CountingInterval)
        candidates = queried = 0
        for pt in net.points:
            for b in family:
                p, q = pt._ranges[b]
                w = F(1, 32)
                wlo, whi = F(p), F(q)
                for e, lo, hi in pt.constraints:
                    if e is b:
                        wlo, whi = max(wlo, lo), min(whi, hi)
                ranges = pls.value_ranges(b, pt.meet, w / 4)
                candidates += len(interval_grid_window(p, q, w, ranges, (wlo, whi))[1])
                pls.cells.clear()
                pls.cuts = 0
                built.clear()
                pt.eval(b, w)
                assert pls.cuts >= 1
                assert len(pls.cells) == pls.cuts
                assert built == pls.cells
                queried += pls.cuts
        # the bound skipped some candidates, which were never built
        assert queried < candidates


def _spanning_pl(pls, rng, knots):
    """A PL element shaped like the benchmark's audits: 0, 1 and ``knots``
    inner knots k/32, values n/d with |n| <= 1 and d <= 8, two of them
    overwritten by 1 and -1 so the certified range is (-2, 2)."""
    xs = {F(0), F(1)}
    while len(xs) < knots + 2:
        xs.add(F(rng.randint(1, 31), 32))
    ys = [F(rng.randint(-1, 1), rng.randint(1, 8)) for _ in xs]
    i, j = rng.sample(range(len(ys)), 2)
    ys[i], ys[j] = F(1), F(-1)
    return pls.element(list(zip(sorted(xs), ys)))


def _same_report(got, want):
    for f in fields(want):
        assert getattr(got, f.name) == getattr(want, f.name), f.name


def _same_herm_report(gi, c0, c1):
    # a fresh space per route, so neither reads state the other left
    hs, (a,) = _herm_case(gi, c0, c1)
    got = stone_yosida_check(hs, a, F(1, 8))
    hs, (a,) = _herm_case(gi, c0, c1)
    _same_report(got, oracles.stone_yosida_all_points(hs, a, F(1, 8)))


class TestAuditAgainstAllPoints:
    """The branch and bound audit gives the report of the audit that
    evaluates every net point."""

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 4), data=st.data(), eps=_eps)
    def test_qn(self, n, data, eps):
        q = QnSpace(n)
        a = q.element(data.draw(st.lists(_small, min_size=n, max_size=n)))
        _same_report(stone_yosida_check(q, a, eps), oracles.stone_yosida_all_points(q, a, eps))

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 1 << 30),
        knots=st.integers(3, 5),
        eps=st.sampled_from([F(1, 4), F(1, 8), F(1, 16)]),
    )
    def test_pl_spanning(self, seed, knots, eps):
        pls = PLSpace()
        a = _spanning_pl(pls, random.Random(seed), knots)
        _same_report(stone_yosida_check(pls, a, eps), oracles.stone_yosida_all_points(pls, a, eps))

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 1 << 30), eps=_eps)
    def test_pl(self, seed, eps):
        pls = PLSpace()
        a = rand_pl(pls, random.Random(seed), 6, max_num=4)
        _same_report(stone_yosida_check(pls, a, eps), oracles.stone_yosida_all_points(pls, a, eps))

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(gi=st.integers(0, _RATIONAL_GENS - 1), c0=_small, c1=_small.filter(bool))
    def test_rational_herm(self, gi, c0, c1):
        _same_herm_report(gi, c0, c1)

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(c0=_small, c1=_small.filter(bool))
    def test_irrational_cubic(self, c0, c1):
        _same_herm_report(3, c0, c1)


def _audit_trace(monkeypatch, space, a, eps, want):
    """Run the audit on a's net and check it against B = max(|lo|, |hi|)
    + w/2, read from each point's window (lo, hi) for a before the audit,
    w the grid width of an eval at eps/4: points are evaluated by
    descending B while B beats the maximum so far, each value lies
    strictly inside (lo - w/2, hi + w/2), and every skipped point has
    B <= net_value.  Returns (evaluated, points, skipped points with B
    equal to net_value)."""
    half = F(1, 2 << spectrum._dyadic_level(eps / 4))
    net = epsilon_net(space, [a], eps)
    window = {}
    for pt in net.points:
        p, q = pt._ranges[a]
        lo, hi = F(p), F(q)
        for e, clo, chi in pt.constraints:
            if e == a:
                lo, hi = max(lo, clo), min(hi, chi)
        window[pt.ident] = (lo, hi, max(abs(lo), abs(hi)) + half)
    seen = []
    real_eval = spectrum.PointState.eval

    def recording(pt, b, e):
        val = real_eval(pt, b, e)
        seen.append((pt.ident, val))
        return val

    with monkeypatch.context() as m:
        m.setattr(spectrum.PointState, "eval", recording)
        rep = stone_yosida_check(space, a, eps, net)
    _same_report(rep, want)
    visited = {k for k, _ in seen}
    assert len(seen) == len(visited)
    running = F(0)
    for k, val in seen:
        lo, hi, bound = window[k]
        assert bound > running
        assert lo - half < val < hi + half
        running = max(running, abs(val))
    bounds = [window[k][2] for k, _ in seen]
    assert bounds == sorted(bounds, reverse=True)
    skipped = [window[pt.ident][2] for pt in net.points if pt.ident not in visited]
    assert all(b <= rep.net_value for b in skipped)
    return len(seen), len(net.points), skipped.count(rep.net_value)


class TestAuditVisitsFewPoints:
    def test_pl_audits(self, monkeypatch):
        pls = PLSpace()
        rng = random.Random(15)
        eps = F(1, 16)
        for knots in (3, 4, 5, 3, 4, 5):
            a = _spanning_pl(pls, rng, knots)
            want = oracles.stone_yosida_all_points(pls, a, eps)
            evaluated, points, _ = _audit_trace(monkeypatch, pls, a, eps, want)
            assert evaluated < points

    def test_bound_equal_to_the_maximum_is_skipped(self, monkeypatch):
        # the point on (3/4, 1) has B = 1 + 1/32, the value at 33/32
        q = QnSpace(2)
        a = q.element([F(33, 32), F(7, 8)])
        want = oracles.stone_yosida_all_points(q, a, F(1, 4))
        assert want.net_value == F(33, 32)
        assert _audit_trace(monkeypatch, q, a, F(1, 4), want) == (2, 3, 1)
