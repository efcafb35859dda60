"""Release gate: one test per advertised guarantee, budgets included.

Each test prints a single criterion line; run with -s to see them all,
or rely on the verbose test names, which carry the same numbering.
"""
from fractions import Fraction as F
import random
import time

from rieszspec.exact import RationalMatrix
from rieszspec.falgebra import gelfand_check, product_positive, sqrt_psd, sum_of_squares
from rieszspec.instances import HermSpace, PLSpace, QnSpace
from rieszspec.lattice import cover_interval, cover_range, d_of, shrink_cover
from rieszspec.riesz import norm_cut
from rieszspec.sampling import rand_diagonal_family, rand_pl, rand_qn
from rieszspec.spectrum import (
    Below,
    Pos,
    point_new,
    pos_or_below,
    stone_yosida_check,
    sup_approx,
)

import oracles

ROOT_OF = {F(1, 4): F(1, 2), F(1): F(1), F(9, 4): F(3, 2),
           F(4): F(2), F(25, 4): F(5, 2)}


def _line(n, msg):
    print(f"criterion {n}: PASS - {msg}")


def _cls_eq(x, y):
    return x.below(y) and y.below(x)


def _seed_point(space, coords, j):
    a = space.element(coords)
    out = pos_or_below(space, a, F(1, 4))
    assert isinstance(out, Pos)
    hi = F(space.unit_bound(a) + 1)
    return point_new(space, [(a, out.witness / 2, hi)])


def test_criterion_01_lattice_relations_exact():
    t0 = time.time()
    cases = [
        (QnSpace(3), lambda sp, rng: rand_qn(sp, rng, max_num=4)),
        (QnSpace(8), lambda sp, rng: rand_qn(sp, rng, max_num=4)),
        (PLSpace(), lambda sp, rng: rand_pl(sp, rng, max_breaks=12, max_num=4)),
    ]
    for si, (sp, draw) in enumerate(cases):
        assert d_of(sp, sp.unit()).is_top()
        rng = random.Random(1000 + si)
        for _ in range(500):
            a, b = draw(sp, rng), draw(sp, rng)
            nonpos = sp.meet(a, sp.zero())
            assert d_of(sp, nonpos).is_bottom()
            assert d_of(sp, a).meet(d_of(sp, sp.negate(a))).is_bottom()
            assert d_of(sp, sp.add(a, b)).below(d_of(sp, a).join(d_of(sp, b)))
            assert _cls_eq(
                d_of(sp, sp.join(a, b)), d_of(sp, a).join(d_of(sp, b))
            )
    elapsed = time.time() - t0
    assert elapsed < 10
    _line(1, f"5 relations x 500 pairs x 3 instances in {elapsed:.1f}s")


def test_criterion_02_cover_certificates():
    t0 = time.time()
    rng = random.Random(2000)
    plans = (
        [(QnSpace(2), "qn")] * 20 + [(QnSpace(3), "qn")] * 25
        + [(QnSpace(5), "qn")] * 25 + [(PLSpace(), "pl")] * 30
    )
    for i, (sp, kind) in enumerate(plans):
        a = (rand_qn(sp, rng, max_num=3) if kind == "qn"
             else rand_pl(sp, rng, max_breaks=8, max_num=3))
        p, q, range_cert = cover_range(sp, a)
        assert range_cert.verify()
        width = F(1, 2) if i % 2 else F(1, 4)
        grid, cells, ranges, cert = cover_interval(sp, a, F(p), F(q), width)
        assert cert.multiplier >= 1
        assert cert.verify()
        shrunk = shrink_cover(sp, a, grid, cells, ranges)
        assert shrunk.r > 0
        assert shrunk.cert.verify()
    elapsed = time.time() - t0
    assert elapsed < 10
    _line(2, f"100 covers certified and re-certified shrunk in {elapsed:.1f}s")


def test_criterion_03_trichotomy_soundness():
    rng = random.Random(3000)
    q5, pl = QnSpace(5), PLSpace()
    for i in range(500):
        if i % 10 < 7:
            sp = q5
            a = rand_qn(sp, rng)
            sup = oracles.qn_sup(a.coords)
        else:
            sp = pl
            a = rand_pl(sp, rng, max_breaks=8, max_num=4)
            sup = oracles.pl_max(a.points)
        r = F(1, 1 << rng.randint(0, 4))
        out = pos_or_below(sp, a, r)
        if isinstance(out, Pos):
            assert 0 < out.witness <= sup
        else:
            assert sup <= out.bound
            assert sp.leq(a, sp.scale(r, sp.unit())) is True
    _line(3, "500 positivity decisions re-verified against exact suprema")


def test_criterion_04_points_match_projections():
    t0 = time.time()
    eps = F(1, 256)
    for s in range(50):
        rng = random.Random(4000 + s)
        n = 2 + s % 5
        sp = QnSpace(n)
        coords = [F(rng.randint(-8, 1), 4) for _ in range(n)]
        j = rng.randrange(n)
        coords[j] = F(1)
        pt = _seed_point(sp, coords, j)
        for _ in range(20):
            b = rand_qn(sp, rng, max_num=4)
            pt.eval(b, F(1, 16))
            assert abs(pt.eval(b, eps) - b.coords[j]) <= 4 * eps
    elapsed = time.time() - t0
    assert elapsed < 30
    _line(4, f"50 points x 20 probes within 4*2^-8 of projections in {elapsed:.1f}s")


def test_criterion_05_representation_contract():
    eps = F(1, 64)
    probes = 0
    for s in range(4):
        rng = random.Random(5000 + s)
        n = 3 + s % 3
        sp = QnSpace(n)
        coords = [F(rng.randint(-4, 0), 4) for _ in range(n)]
        coords[rng.randrange(n)] = F(1)
        pt = _seed_point(sp, coords, None)
        assert abs(pt.eval(sp.unit(), eps) - 1) <= eps
        for _ in range(50):
            a = rand_qn(sp, rng, max_num=4)
            b = rand_qn(sp, rng, max_num=4)
            va, vb = pt.eval(a, eps), pt.eval(b, eps)
            assert abs(pt.eval(sp.add(a, b), eps) - va - vb) <= 4 * eps
            assert abs(pt.eval(sp.join(a, b), eps) - max(va, vb)) <= 4 * eps
            probes += 1
    assert probes == 200
    _line(5, "200 probes: additive, join preserving, unital within 4*eps")


def test_criterion_06_norm_equals_net_max():
    t0 = time.time()
    eps = F(1, 64)
    checked = 0
    q3, q4 = QnSpace(3), QnSpace(4)
    rng = random.Random(6000)
    for i in range(45):
        sp = q3 if i % 2 else q4
        rep = stone_yosida_check(sp, rand_qn(sp, rng, max_num=4), eps)
        assert abs(rep.norm_value - rep.net_value) <= 3 * eps
        checked += 1
    pl = PLSpace()
    for _ in range(20):
        rep = stone_yosida_check(pl, rand_pl(pl, rng, max_breaks=8, max_num=2), eps)
        assert abs(rep.norm_value - rep.net_value) <= 3 * eps
        checked += 1
    for s in range(35):
        fam = rand_diagonal_family(random.Random(6100 + s), 3, 1)
        hs = HermSpace(fam.members)
        a = hs.element(fam.members[0])
        if s % 2:
            a = a - hs.scale(2, hs.unit())
        rep = stone_yosida_check(hs, a, eps)
        assert abs(rep.norm_value - rep.net_value) <= 3 * eps
        checked += 1
    elapsed = time.time() - t0
    assert checked == 100
    assert elapsed < 120
    _line(6, f"norm vs net max within 3*2^-6 on 100 elements in {elapsed:.1f}s")


def test_criterion_07_square_roots_certified():
    t0 = time.time()
    tol = F(1, 1024)
    for s in range(50):
        rng = random.Random(7000 + s)
        dim = 2 + s % 4
        fam = rand_diagonal_family(rng, dim, 1)
        hs = HermSpace(fam.members)
        a = hs.element(fam.members[0])
        res, trace = sqrt_psd(a, tol)
        eye = RationalMatrix.identity(dim)
        resid = res.matrix @ res.matrix - a.matrix
        assert oracles.psd_by_minors((eye.scale(tol) - resid).entries)
        assert oracles.psd_by_minors((eye.scale(tol) + resid).entries)
        true = fam.sqrt_of(0, [ROOT_OF[v] for v in fam.eigs[0]])
        dist = oracles.frame_norm_exact(
            fam.frame.entries,
            oracles.matsub(res.matrix.entries, true.entries),
        )
        assert dist <= 10 * tol
        rs = trace.majorant
        assert rs[0] == 0 and all(x <= y <= 1 for x, y in zip(rs, rs[1:]))
    for e in (F(1, 4), F(1, 16)):
        n, p = 0, F(1)
        while p > e:
            p *= 1 - e / 2
            n += 1
        r = F(0)
        for _ in range(n):
            r = oracles._round_grid((1 + r * r) / 2, 64, False)
        assert 1 - r <= e
    elapsed = time.time() - t0
    assert elapsed < 120
    _line(7, f"50 square roots within 10*2^-10 of oracle in {elapsed:.1f}s")


def test_criterion_08_sum_of_squares_rate():
    hs = HermSpace([RationalMatrix.from_rows([[F(1, 2)]])])
    a = hs.element(RationalMatrix.from_rows([[F(1, 2)]]))
    out = sum_of_squares(a, F(1, 16))
    assert out.steps <= 64
    running = F(0)
    for n, part in enumerate(out.parts):
        v = part.matrix.entries[0][0]
        assert F(1, 2) - running == v
        running += v * v
        if n >= 1:
            assert v * v <= F(1, n)
    assert F(1, 2) - running == out.remainder.matrix.entries[0][0]

    fam = rand_diagonal_family(
        random.Random(8000), 3, 1, palette=[F(1, 4), F(1, 2), F(1)]
    )
    hs = HermSpace(fam.members)
    a = hs.element(fam.members[0])
    out = sum_of_squares(a, F(1, 4))
    acc = RationalMatrix.zeros(3)
    for n, part in enumerate(out.parts):
        assert a.matrix - acc == part.matrix
        acc = acc + part.matrix @ part.matrix
        if n >= 1:
            nrm = oracles.operator_norm_exact(part.matrix.entries)
            assert nrm * nrm <= F(1, n)
    assert a.matrix - acc == out.remainder.matrix
    _line(8, "prefix identities exact at every step; iterates obey 1/n rate")


def test_criterion_09_products_of_positives():
    count = 0
    for s in range(25):
        rng = random.Random(9000 + s)
        dim = 3 + s % 2
        fam = rand_diagonal_family(rng, dim, 2)
        hs = HermSpace(fam.members)
        x = hs.element(fam.members[0])
        y = hs.element(fam.members[1])
        pool = [x, y, hs.add(x, y), hs.scale(2, x), hs.add(x, hs.scale(2, y))]
        pairs = [(i, j) for i in range(5) for j in range(5)][:20]
        for i, j in pairs:
            assert product_positive(pool[i], pool[j]) is True
            count += 1
    assert count == 500
    _line(9, "product order check true on 500 commuting psd pairs")


def test_criterion_10_gelfand_multiplicativity():
    t0 = time.time()
    fam = rand_diagonal_family(
        random.Random(10000), 3, 3, palette=[F(1, 4), F(1), F(9, 4)]
    )
    hs = HermSpace(fam.members)
    rep = gelfand_check(hs, [hs.element(m) for m in fam.members], F(1, 256))
    assert rep.ok
    assert not rep.key_inequality_failures
    assert rep.max_defect <= rep.defect_bound
    elapsed = time.time() - t0
    assert elapsed < 120
    _line(
        10,
        f"max defect {rep.max_defect} within bound {rep.defect_bound} "
        f"at 2^-8 in {elapsed:.1f}s",
    )


def test_criterion_11_generic_sup_cross_check():
    eps = F(1, 64)
    q4 = QnSpace(4)
    rng = random.Random(11000)
    for _ in range(200):
        a = rand_qn(q4, rng, max_num=6)
        assert abs(sup_approx(q4, a, eps) - q4.sup_cut(a).approx(eps)) <= 2 * eps
    pl = PLSpace()
    for _ in range(200):
        a = rand_pl(pl, rng, max_breaks=10, max_num=4)
        assert abs(sup_approx(pl, a, eps) - pl.sup_cut(a).approx(eps)) <= 2 * eps
    done = 0
    for s in range(20):
        fam = rand_diagonal_family(random.Random(11100 + s), 2 + s % 2, 1)
        hs = HermSpace(fam.members)
        g = hs.element(fam.members[0])
        pool = [g, hs.unit() - g, g - hs.scale(2, hs.unit()),
                hs.add(g, g), hs.scale(F(-1, 3), g),
                hs.add(g, hs.unit()), hs.scale(F(1, 2), g),
                hs.negate(g), hs.unit(), g - hs.unit()]
        for a in pool:
            assert abs(sup_approx(hs, a, eps) - hs.sup_cut(a).approx(eps)) <= 2 * eps
            done += 1
    assert done == 200
    _line(11, "generic sup within 2*eps of native cuts, 200 per instance")
