"""Ordered vector lattice laws, checked on all three concrete spaces."""
from fractions import Fraction as F
import random

import pytest
from hypothesis import given, settings, strategies as st

from rieszspec.instances import HermSpace, PLSpace, QnSpace
from rieszspec.riesz import LocatedCut, decompose, norm_cut
from rieszspec.sampling import rand_diagonal_family, rand_pl, rand_qn


fracs = st.fractions(min_value=-8, max_value=8, max_denominator=16)


def _eq(space, a, b):
    return space.leq(a, b) and space.leq(b, a)


# ----- hypothesis driven laws on rational tuples ----------------------


@settings(max_examples=200, deadline=None)
@given(st.lists(fracs, min_size=3, max_size=3), st.lists(fracs, min_size=3, max_size=3))
def test_join_commutes_qn(xs, ys):
    q3 = QnSpace(3)
    a, b = q3.element(xs), q3.element(ys)
    assert q3.join(a, b) == q3.join(b, a)
    assert q3.meet(a, b) == q3.meet(b, a)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(fracs, min_size=3, max_size=3),
    st.lists(fracs, min_size=3, max_size=3),
    st.lists(fracs, min_size=3, max_size=3),
)
def test_lattice_laws_qn(xs, ys, zs):
    q3 = QnSpace(3)
    a, b, c = q3.element(xs), q3.element(ys), q3.element(zs)
    assert q3.join(a, q3.join(b, c)) == q3.join(q3.join(a, b), c)
    assert q3.join(a, q3.meet(a, b)) == a  # absorption
    assert q3.meet(a, q3.join(a, b)) == a
    # distributive: a /\ (b \/ c) == (a /\ b) \/ (a /\ c)
    assert q3.meet(a, q3.join(b, c)) == q3.join(q3.meet(a, b), q3.meet(a, c))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(fracs, min_size=3, max_size=3),
    st.lists(fracs, min_size=3, max_size=3),
    st.lists(fracs, min_size=3, max_size=3),
    fracs,
)
def test_riesz_compatibility_qn(xs, ys, zs, c):
    q3 = QnSpace(3)
    a, b, t = q3.element(xs), q3.element(ys), q3.element(zs)
    # translation invariance of the order and the join
    assert q3.join(q3.add(a, t), q3.add(b, t)) == q3.add(q3.join(a, b), t)
    if c >= 0:
        assert q3.scale(c, q3.join(a, b)) == q3.join(q3.scale(c, a), q3.scale(c, b))
    else:
        assert q3.scale(c, q3.join(a, b)) == q3.meet(q3.scale(c, a), q3.scale(c, b))


@settings(max_examples=150, deadline=None)
@given(st.lists(fracs, min_size=3, max_size=3))
def test_decompose_qn(xs):
    q3 = QnSpace(3)
    a = q3.element(xs)
    pos, neg, absval = decompose(a)
    assert q3.add(pos, q3.negate(neg)) == a
    assert q3.meet(pos, neg) == q3.zero()  # disjoint parts
    assert absval == q3.join(a, q3.negate(a))
    assert q3.leq(q3.zero(), absval)


# ----- the same laws on the other instances, seeded random ------------


def _pl_samples(n, seed=50):
    pls = PLSpace()
    rng = random.Random(seed)
    return pls, [rand_pl(pls, rng, rng.randint(2, 6)) for _ in range(n)]


def _herm_samples(n, seed=51):
    rng = random.Random(seed)
    fam = rand_diagonal_family(rng, 3, n)
    hs = HermSpace(fam.members)
    return hs, [hs.element(m) for m in fam.members]


class TestLawsOnPL:
    def test_lattice_laws(self):
        pls, xs = _pl_samples(12)
        for a, b, c in zip(xs, xs[1:], xs[2:]):
            assert pls.join(a, b) == pls.join(b, a)
            assert pls.join(a, pls.join(b, c)) == pls.join(pls.join(a, b), c)
            assert pls.join(a, pls.meet(a, b)) == a
            assert pls.meet(a, pls.join(b, c)) == pls.join(
                pls.meet(a, b), pls.meet(a, c)
            )

    def test_translation_and_scaling(self):
        pls, xs = _pl_samples(10, seed=52)
        for a, b, t in zip(xs, xs[1:], xs[2:]):
            assert pls.join(pls.add(a, t), pls.add(b, t)) == pls.add(pls.join(a, b), t)
            assert pls.scale(F(2), pls.join(a, b)) == pls.join(
                pls.scale(F(2), a), pls.scale(F(2), b)
            )
            assert pls.scale(F(-1), pls.join(a, b)) == pls.meet(
                pls.scale(F(-1), a), pls.scale(F(-1), b)
            )

    def test_decompose(self):
        pls, xs = _pl_samples(8, seed=53)
        for a in xs:
            pos, neg, absval = decompose(a)
            assert pls.add(pos, pls.negate(neg)) == a
            assert pls.meet(pos, neg) == pls.zero()
            assert pls.leq(pls.zero(), absval)


class TestLawsOnHerm:
    def test_lattice_laws_through_characters(self):
        hs, xs = _herm_samples(4)
        a, b = xs[0], xs[1]
        assert _eq(hs, hs.join(a, b), hs.join(b, a))
        assert _eq(hs, hs.join(a, hs.meet(a, b)), a)
        c = xs[2]
        assert _eq(hs, hs.join(a, hs.join(b, c)), hs.join(hs.join(a, b), c))

    def test_translation(self):
        hs, xs = _herm_samples(3, seed=54)
        a, b, t = xs
        assert _eq(hs, hs.join(hs.add(a, t), hs.add(b, t)), hs.add(hs.join(a, b), t))

    def test_decompose(self):
        hs, xs = _herm_samples(2, seed=55)
        for a in xs:
            pos, neg, absval = decompose(a)
            assert hs.leq(hs.zero(), pos) and hs.leq(hs.zero(), neg)
            assert _eq(hs, hs.add(pos, hs.negate(neg)), a)
            assert _eq(hs, absval, hs.join(a, hs.negate(a)))


# ----- strong unit facts ----------------------------------------------


@pytest.mark.parametrize("maker", [
    lambda: (QnSpace(3), lambda rng: rand_qn(QnSpace(3), rng)),
    lambda: (PLSpace(), lambda rng: rand_pl(PLSpace(), rng, 5)),
])
def test_two_level_split(maker):
    # for s > t, (a - t) \/ (s - a) dominates (s - t)/2: wherever a is
    # below the midpoint the right branch carries it, above it the left
    space, sample = maker()
    rng = random.Random(56)
    u = space.unit()
    for _ in range(40):
        a = sample(rng)
        t = F(rng.randint(-8, 7), 2)
        s = t + F(rng.randint(1, 8), 2)
        lhs = space.join(
            space.add(a, space.scale(-t, u)),
            space.add(space.scale(s, u), space.negate(a)),
        )
        assert space.leq(space.scale((s - t) / 2, u), lhs)


def test_two_level_split_herm():
    rng = random.Random(57)
    fam = rand_diagonal_family(rng, 3, 1)
    hs = HermSpace(fam.members)
    a = hs.element(fam.members[0])
    u = hs.unit()
    for t2, s2 in [(F(-1), F(1)), (F(0), F(3)), (F(1, 2), F(5, 2))]:
        lhs = hs.join(
            hs.add(a, hs.scale(-t2, u)),
            hs.add(hs.scale(s2, u), hs.negate(a)),
        )
        assert hs.leq(hs.scale((s2 - t2) / 2, u), lhs) is True


def test_unit_is_strong():
    # every element sits under some multiple of the unit, in every space
    rng = random.Random(58)
    q3 = QnSpace(3)
    pls = PLSpace()
    fam = rand_diagonal_family(rng, 2, 1)
    hs = HermSpace(fam.members)
    for space, a in [
        (q3, rand_qn(q3, rng)),
        (pls, rand_pl(pls, rng, 5)),
        (hs, hs.element(fam.members[0])),
    ]:
        n = space.unit_bound(a)
        assert space.leq(a, space.scale(F(n), space.unit()))


# ----- located cuts ---------------------------------------------------


class TestLocatedCut:
    def test_exact_cut(self):
        c = LocatedCut.exact(F(1, 3))
        eps = F(1, 100)
        s = c.approx(eps)
        assert s == F(1, 3)
        # s - eps is a certified strict lower bound
        assert s - eps < F(1, 3) <= s

    def test_refinement_never_contradicts(self):
        # a sloppy backend whose slack varies from query to query: each
        # answer meets the contract on its own, and nothing promises that
        # a finer query gives a smaller upper bound
        value = F(5, 7)
        slack = iter([F(1, 3), F(9, 10), F(0), F(1, 2), F(99, 100)])
        cut = LocatedCut(lambda eps: value + eps * next(slack))
        for eps in [F(1, 512), F(1, 2), F(1, 64), F(1, 8), F(1, 64)]:
            s = cut.approx(eps)
            assert s - eps < value <= s

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            LocatedCut.exact(F(0)).approx(F(0))

    def test_norm_cut_triangle(self):
        q3 = QnSpace(3)
        rng = random.Random(59)
        eps = F(1, 1 << 10)
        for _ in range(40):
            a, b = rand_qn(q3, rng), rand_qn(q3, rng)
            na = norm_cut(a).approx(eps)
            nb = norm_cut(b).approx(eps)
            nab = norm_cut(q3.add(a, b)).approx(eps)
            assert nab <= na + nb + 2 * eps
