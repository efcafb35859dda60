"""Positivity classes, dominance, and cover certificates."""
from fractions import Fraction as F
import random

import pytest
from hypothesis import given, settings, strategies as st

from rieszspec.exact import RatInterval, RationalMatrix, interval_grid_window
from rieszspec.instances import HermSpace, PLSpace, QnSpace
from rieszspec.lattice import (
    CoverCertificate,
    certify_cover,
    cover_interval,
    cover_range,
    d_of,
    join_all,
    precedes,
    prune_cover,
    shrink_cover,
)
from rieszspec.riesz import CertificateError, ToleranceError
from rieszspec.sampling import rand_pl, rand_qn
from rieszspec.spectrum import Pos, epsilon_net

import oracles


def _cls_eq(x, y):
    return x.below(y) and y.below(x)


class TestDOf:
    def test_positive_part_representative(self):
        q2 = QnSpace(2)
        a = q2.element([F(1), F(-2)])
        assert d_of(q2, a).rep == q2.element([F(1), F(0)])

    def test_nonpositive_is_bottom(self):
        q2 = QnSpace(2)
        assert d_of(q2, q2.element([F(0), F(-3)])).is_bottom()
        assert not d_of(q2, q2.element([F(1, 100), F(-3)])).is_bottom()

    def test_unit_is_top(self):
        q2 = QnSpace(2)
        assert d_of(q2, q2.unit()).is_top()
        pls = PLSpace()
        assert d_of(pls, pls.unit()).is_top()


def _pairs(space, sample, rng, n):
    return [(sample(space, rng), sample(space, rng)) for _ in range(n)]


class TestFiveRelations:
    """The defining relations of the positivity lattice, exactly."""

    @pytest.mark.parametrize("mk", [
        lambda: (QnSpace(3), rand_qn),
        lambda: (PLSpace(), lambda s, r: rand_pl(s, r, 8)),
    ])
    def test_relations_hold(self, mk):
        space, sample = mk()
        rng = random.Random(60)
        for a, b in _pairs(space, sample, rng, 100):
            neg = space.negate(a)
            da, db = d_of(space, a), d_of(space, b)
            # 1: nonpositive collapses to bottom
            if space.leq(a, space.zero()):
                assert da.is_bottom()
            # 3: a class and its negation's class are disjoint
            assert d_of(space, a).meet(d_of(space, neg)).is_bottom()
            # 4: class of a sum is below the join of the classes
            dsum = d_of(space, space.add(a, b))
            assert dsum.below(da.join(db))
            # 5: class of a join is the join of the classes, exactly
            djoin = d_of(space, space.join(a, b))
            assert _cls_eq(djoin, da.join(db))
        # 2: the unit's class is the top
        assert d_of(space, space.unit()).is_top()

    def test_forced_bottom_cases(self):
        q3 = QnSpace(3)
        zero = q3.zero()
        assert d_of(q3, zero).is_bottom()
        assert d_of(q3, q3.scale(F(-1), q3.unit())).is_bottom()


class TestPrecedes:
    def test_examples(self):
        q3 = QnSpace(3)
        x = q3.element([F(1), F(0), F(2)])
        y = q3.element([F(3), F(0), F(1)])
        n = precedes(q3, x, y)
        assert n == 2
        assert q3.leq(x, q3.scale(F(n), y))
        # support failure is decisive
        assert precedes(q3, q3.element([F(1), F(0), F(0)]), q3.element([F(0), F(1), F(0)])) is None
        # reflexive with multiplier one
        assert precedes(q3, x, x) == 1

    def test_large_multiplier_is_found(self):
        # the ceiling 2^21 is verified as is; no search caps it
        q1 = QnSpace(1)
        x, y = q1.element([F(1)]), q1.element([F(1, 1 << 21)])
        assert precedes(q1, x, y) == 1 << 21
        assert d_of(q1, x).below(d_of(q1, y))

    def test_found_multiplier_always_verifies(self):
        pls = PLSpace()
        rng = random.Random(61)
        for _ in range(50):
            a = pls.join(rand_pl(pls, rng, 5), pls.zero())
            b = pls.join(rand_pl(pls, rng, 5), pls.zero())
            n = precedes(pls, a, b)
            if n is not None:
                assert pls.leq(a, pls.scale(F(n), b))


class TestJoinAll:
    def test_fold(self):
        q2 = QnSpace(2)
        xs = [q2.element([F(k), F(-k)]) for k in range(1, 6)]
        assert join_all(q2, xs) == q2.element([F(5), F(-1)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            join_all(QnSpace(2), [])


class TestCoverRange:
    def test_scalar_example(self):
        q1 = QnSpace(1)
        p, q, cert = cover_range(q1, q1.element([F(3, 2)]))
        assert (p, q) == (-1, 3)
        assert cert.multiplier == 1 and cert.verify()

    def test_zero_element(self):
        q1 = QnSpace(1)
        p, q, cert = cover_range(q1, q1.zero())
        assert (p, q) == (-1, 1)
        assert cert.verify()

    def test_q2_example(self):
        q2 = QnSpace(2)
        p, q, cert = cover_range(q2, q2.element([F(0), F(2)]))
        assert (p, q) == (-1, 3)
        assert cert.verify()

    def test_random_always_certifies(self):
        pls = PLSpace()
        rng = random.Random(62)
        for _ in range(25):
            a = rand_pl(pls, rng, 6)
            p, q, cert = cover_range(pls, a)
            assert p < q and cert.verify()


class TestCoverInterval:
    def test_grid_shape(self):
        den, full = interval_grid_window(F(0), F(1), F(1, 2), [(F(0), F(1))])
        assert [(k, F(lo, den), F(hi, den)) for k, lo, hi in full] == [
            (0, F(0), F(1, 2)),
            (1, F(1, 4), F(3, 4)),
            (2, F(1, 2), F(1)),
        ]
        # 1/2 sits on the boundary of the outer cells: only the middle one
        # can be positive, and only it is built
        q1 = QnSpace(1)
        a = q1.element([F(1, 2)])
        grid, cells, _, cert = cover_interval(q1, a, F(0), F(1), F(1, 2))
        assert [(iv.lo, iv.hi) for iv in grid] == [(F(1, 4), F(3, 4))]
        assert len(cells) == 1
        assert cert.verify()

    def test_wide_cell_single(self):
        q1 = QnSpace(1)
        a = q1.element([F(1, 2)])
        grid, cells, _, cert = cover_interval(q1, a, F(0), F(1), F(2))
        assert len(grid) == 1 and (grid[0].lo, grid[0].hi) == (F(0), F(1))
        assert cert.multiplier == 1 and cert.verify()

    def test_no_candidate_cell(self):
        # (2, 3) misses the value 1/2: no cell is built, the empty cover
        # certifies the target, which is <= 0, and admits no shrink
        q1 = QnSpace(1)
        a = q1.element([F(1, 2)])
        grid, cells, ranges, cert = cover_interval(q1, a, F(2), F(3), F(1, 2))
        assert grid == [] and cells == []
        assert cert.multiplier == 1 and cert.verify()
        with pytest.raises(CertificateError):
            shrink_cover(q1, a, grid, cells, ranges)

    def test_tampered_certificate_fails(self):
        q1 = QnSpace(1)
        a = q1.element([F(1, 2)])
        grid, cells, _, cert = cover_interval(q1, a, F(0), F(1), F(1, 2))
        # dropping a part or zeroing the multiplier must break verification
        bad = CoverCertificate(q1, cert.target, cert.parts[:1], cert.multiplier)
        assert not bad.verify() or precedes(q1, cert.target, cells[0]) is not None
        weak = CoverCertificate(q1, q1.unit(), cert.parts, 0)
        assert not weak.verify()

    def test_impossible_cover_raises(self):
        q2 = QnSpace(2)
        target = q2.element([F(0), F(1)])
        part = q2.element([F(1), F(0)])
        with pytest.raises(CertificateError):
            certify_cover(q2, target, [part], part)


def _shrink(space, a, intervals):
    """shrink_cover on the cells of a on the given (lo, hi) intervals."""
    grid = [RatInterval(F(lo), F(hi)) for lo, hi in intervals]
    cells = [space.in_interval(a, iv.lo, iv.hi) for iv in grid]
    return shrink_cover(space, a, grid, cells, space.value_ranges(a))


class TestShrinkCover:
    def test_disjoint_projections(self):
        q2 = QnSpace(2)
        # the cells (1, 0) and (0, 1)
        res = _shrink(q2, q2.element([F(0), F(1)]), [(-1, 1), (0, 2)])
        assert res.r == F(1, 2)
        assert res.cert.verify()

    def test_quarter_unit(self):
        q1 = QnSpace(1)
        res = _shrink(q1, q1.zero(), [(F(-1, 4), F(1, 4))])  # the cell 1/4
        assert res.r == F(1, 8)
        assert res.cert.verify()

    def test_unit_cell(self):
        q1 = QnSpace(1)
        res = _shrink(q1, q1.zero(), [(-1, 1)])  # the cell 1
        assert res.r == F(1, 2)

    def test_uncoverable_raises(self):
        q2 = QnSpace(2)
        with pytest.raises(CertificateError):
            # the cell (1, 0): the second coordinate is uncovered
            _shrink(q2, q2.element([F(0), F(1)]), [(-1, 1)])

    def test_uncoverable_fails_without_cut_queries(self):
        class CountingQn(QnSpace):
            cuts = 0

            def sup_cut(self, a):
                self.cuts += 1
                return super().sup_cut(a)

        q2 = CountingQn(2)
        with pytest.raises(CertificateError):
            _shrink(q2, q2.element([F(0), F(1)]), [(-1, 1)])
        assert q2.cuts == 0
        # err carrying Herm cells fail closed before any order test
        hs = HermSpace([RationalMatrix.diagonal([F(1), F(2)])])
        a = hs.element(RationalMatrix.diagonal([F(2), F(3)]), err=F(1, 8))
        with pytest.raises(ToleranceError):
            _shrink(hs, a, [(1, 4)])

    def test_lowers_no_cell_until_parts_are_read(self):
        class CountingPL(PLSpace):
            def __init__(self):
                super().__init__()
                self.added = []

            def add(self, a, b):
                self.added.append(a)
                return super().add(a, b)

        pls = CountingPL()
        a = rand_pl(pls, random.Random(67), 6)
        p, q, _ = cover_range(pls, a)
        grid, cells, ranges, _ = cover_interval(pls, a, F(p), F(q), F(1, 4))

        def lowered():
            return sum(any(x is c for c in cells) for x in pls.added)

        res = shrink_cover(pls, a, grid, cells, ranges)
        assert len(cells) > 1 and lowered() == 0
        parts = res.parts
        assert lowered() == len(cells) == len(parts)
        assert res.cert.verify() and res.parts is parts and lowered() == len(cells)

    @pytest.mark.parametrize("kind", ["qn", "pl", "herm-rational", "herm-irrational"])
    @pytest.mark.parametrize("width", [F(1, 2), F(1, 8)])
    def test_cert_built_on_read_verifies(self, kind, width):
        rng = random.Random(69)
        if kind == "qn":
            space = QnSpace(3)
            a = rand_qn(space, rng)
        elif kind == "pl":
            space = PLSpace()
            a = rand_pl(space, rng, 6)
        else:
            rows = [[1, 1], [1, 0]] if kind == "herm-irrational" else [[2, 1], [1, 2]]
            g = RationalMatrix.from_rows(rows)
            space = HermSpace([g])
            a = space.element(g)
        p, q, _ = cover_range(space, a)
        grid, cells, ranges, _ = cover_interval(space, a, F(p), F(q), width)
        res = shrink_cover(space, a, grid, cells, ranges)
        assert res.cert.parts == res.parts and res.cert.multiplier == res.multiplier
        assert res.cert.verify()

    def test_random_recertify(self):
        pls = PLSpace()
        rng = random.Random(63)
        for _ in range(20):
            a = rand_pl(pls, rng, 5)
            p, q, _ = cover_range(pls, a)
            grid, cells, ranges, _ = cover_interval(pls, a, F(p), F(q), F(1, 2))
            res = shrink_cover(pls, a, grid, cells, ranges)
            assert res.r > 0
            assert res.cert.verify()


_fracs = st.builds(F, st.integers(-24, 24), st.sampled_from([1, 2, 3, 4, 6, 7]))
_radii = st.builds(F, st.integers(1, 16), st.sampled_from([4, 8, 16]))


@st.composite
def _qn_family(draw):
    q3 = QnSpace(3)
    rows = draw(st.lists(st.lists(_fracs, min_size=3, max_size=3), min_size=2, max_size=6))
    return q3, [q3.element(r) for r in rows]


@st.composite
def _pl_family(draw):
    pls = PLSpace()
    out = []
    for _ in range(draw(st.integers(2, 5))):
        den = draw(st.sampled_from([5, 12, 24]))
        inner = draw(st.sets(st.integers(1, den - 1), max_size=4))
        xs = [F(0)] + [F(k, den) for k in sorted(inner)] + [F(1)]
        ys = draw(st.lists(_fracs, min_size=len(xs), max_size=len(xs)))
        out.append(pls.element(list(zip(xs, ys))))
    return pls, out


class TestOneJoinPerCover:
    @settings(max_examples=120, deadline=None)
    @given(family=st.one_of(_qn_family(), _pl_family()), r=_radii)
    def test_lowered_join_is_join_of_lowered_positive_parts(self, family, r):
        space, cells = family
        zero, shift = space.zero(), space.scale(-r, space.unit())
        lhs = space.join(space.add(join_all(space, cells), shift), zero)
        rhs = join_all(space, [space.join(space.add(c, shift), zero) for c in cells])
        assert lhs == rhs

    def test_grid_covers_match_three_join_oracle(self):
        rng = random.Random(65)
        for k in range(24):
            space = PLSpace() if k % 2 else QnSpace(3)
            a = rand_pl(space, rng, 6) if k % 2 else rand_qn(space, rng)
            p, q, _ = cover_range(space, a)
            width = F(1, 2) if k % 3 else F(1, 8)
            grid, cells, ranges, cert = cover_interval(space, a, F(p), F(q), width)
            res = shrink_cover(space, a, grid, cells, ranges)
            want = oracles.shrink_cover_three_joins(space, space.in_interval(a, p, q), cells)
            assert (cert.multiplier, res.r, res.multiplier) == want
            assert cert.verify() and res.cert.verify()

    def test_net_joins_no_cell(self):
        # a two-element net builds each kept cell it meets once, and joins
        # nothing: neither a cell nor any other element
        class CountingPL(PLSpace):
            def __init__(self):
                super().__init__()
                self.operands, self.built = [], []

            def join(self, a, b):
                self.operands += [a, b]
                return super().join(a, b)

            def in_interval(self, a, p, q):
                self.built.append((a, p, q))
                return super().in_interval(a, p, q)

        pls = CountingPL()
        rng = random.Random(66)
        elems = [rand_pl(pls, rng, 6) for _ in range(2)]
        pls.built.clear()
        net = epsilon_net(pls, elems, F(1, 4))
        assert len(net.points) >= 2 and pls.operands == []
        cells = [(a, lo, hi) for pt in net.points for a, lo, hi in pt.constraints]
        assert all(pls.built.count(c) == 1 for c in cells)


_widths = st.sampled_from([F(1, 2), F(1, 4), F(1, 8), F(1, 16)])
_coefs = st.builds(F, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4]))

# separating generators: rational spectra {3, -1} and {3, 1, -1}; the
# golden ratio and a cubic with irreducible characteristic polynomial
_RATIONAL_GENS = ([[1, 2], [2, 1]], [[2, 1, 0], [1, 2, 0], [0, 0, -1]])
_IRRATIONAL_GENS = ([[1, 1], [1, 0]], [[2, 1, 0], [1, -1, 1], [0, 1, 1]])


@st.composite
def _qn_elem(draw):
    space = QnSpace(draw(st.integers(1, 4)))
    return space, space.element(draw(st.lists(_fracs, min_size=space.n, max_size=space.n)))


@st.composite
def _pl_elem(draw):
    space, elems = draw(_pl_family())
    return space, elems[0]


def _herm_elem(gens):
    @st.composite
    def draw_elem(draw):
        g = RationalMatrix.from_rows(draw(st.sampled_from(gens)))
        space = HermSpace([g])
        c0, c1 = draw(_coefs), draw(_coefs.filter(bool))
        return space, space.add(space.scale(c0, space.unit()), space.scale(c1, space.element(g)))

    return draw_elem()


def _profile_and_oracle(space, a, width):
    """(grid multiplier, r, multiplier) of shrink_cover on a's grid cover,
    after its certificate verified, and the three-join oracle's."""
    p, q, _ = cover_range(space, a)
    grid, cells, ranges, cert = cover_interval(space, a, F(p), F(q), width)
    res = shrink_cover(space, a, grid, cells, ranges)
    assert res.cert.verify()
    want = oracles.shrink_cover_three_joins(space, space.in_interval(a, p, q), cells)
    return (cert.multiplier, res.r, res.multiplier), want


class TestShrinkByProfile:
    """The join-free shrink against the three-join oracle, per instance."""

    @settings(max_examples=60, deadline=None)
    @given(case=st.one_of(_qn_elem(), _pl_elem(), _herm_elem(_RATIONAL_GENS)), width=_widths)
    def test_exact_instances_match_three_join_oracle(self, case, width):
        got, want = _profile_and_oracle(*case, width)
        assert got == want

    @settings(max_examples=16, deadline=None, derandomize=True)
    @given(case=_herm_elem(_IRRATIONAL_GENS), width=_widths)
    def test_irrational_herm_shrinks_no_less_than_oracle(self, case, width):
        got, want = _profile_and_oracle(*case, width)
        assert got[1] >= want[1]

    def test_value_ranges_missing_the_top_fail_closed(self):
        class TopDroppingPL(PLSpace):
            def value_ranges(self, b, context=None, tol=F(1, 4)):
                return [(lo, (lo + hi) / 2) for lo, hi in super().value_ranges(b, context, tol)]

        pls = TopDroppingPL()
        a = pls.element([(0, F(-1, 2)), (F(1, 4), F(3, 2)), (1, 1)])
        with pytest.raises(CertificateError, match="shrunken cover"):
            epsilon_net(pls, [a], F(1, 8))

    def test_value_ranges_missing_a_coordinate_fail_closed(self):
        class CoordDroppingQn(QnSpace):
            def value_ranges(self, b, context=None, tol=F(1, 4)):
                return [rng for rng in super().value_ranges(b, context, tol) if rng[0] != 0]

        q3 = CoordDroppingQn(3)
        # 0 falls in the gap between the components around -1 and 1
        a = q3.element([F(-1), F(0), F(1)])
        with pytest.raises(CertificateError, match="shrunken cover"):
            epsilon_net(q3, [a], F(1, 8))


def _kept(space, cells, r):
    """The indices prune_cover keeps; each comes with its Pos answer."""
    kept = prune_cover(space, cells, r)
    assert all(isinstance(t, Pos) and t.witness > 0 for _, t in kept)
    return [k for k, _ in kept]


class TestPruneCover:
    def test_examples(self):
        q2 = QnSpace(2)
        cells = [
            q2.element([F(1), F(1)]),
            q2.element([F(0), F(0)]),
            q2.element([F(-1), F(-1)]),
        ]
        assert _kept(q2, cells, F(1, 2)) == [0]
        cells2 = [
            q2.element([F(1), F(0)]),
            q2.element([F(0), F(1)]),
            q2.element([F(1, 100), F(1, 100)]),
        ]
        assert _kept(q2, cells2, F(1, 2)) == [0, 1]

    def test_all_positive_kept(self):
        q2 = QnSpace(2)
        cells = [q2.unit(), q2.element([F(2), F(3)])]
        assert _kept(q2, cells, F(1, 4)) == [0, 1]

    @pytest.mark.parametrize("kind", ["qn", "pl", "herm"])
    def test_integer_cells_decide_as_built_cells(self, kind):
        # the cells given as a's integer grid cells keep the same indices,
        # with the same answers, as the same cells built and asked one by one
        rng = random.Random(68)
        if kind == "qn":
            space = QnSpace(3)
            elems = [rand_qn(space, rng) for _ in range(6)]
        elif kind == "pl":
            space = PLSpace()
            elems = [rand_pl(space, rng, 6) for _ in range(6)]
        else:
            g = RationalMatrix.from_rows([[1, 1], [1, 0]])
            space = HermSpace([g])
            elems = [space.add(space.unit(), space.scale(F(k, 3), space.element(g)))
                     for k in (-2, 1, 4)]
        for a, r in zip(elems, [F(1, 2), F(1, 4), F(1, 8)] * 2):
            p, q, _ = cover_range(space, a)
            den, cells = interval_grid_window(F(p), F(q), F(1, 4), [(F(p), F(q))])
            built = [space.in_interval(a, F(lo, den), F(hi, den)) for _, lo, hi in cells]
            assert prune_cover(space, cells, r, a, den) == prune_cover(space, built, r)

    def test_prune_preserves_cover(self):
        # after shrinking by r, dropping Below cells keeps the unit covered
        pls = PLSpace()
        rng = random.Random(64)
        for _ in range(10):
            a = rand_pl(pls, rng, 4)
            p, q, _ = cover_range(pls, a)
            grid, cells, ranges, _ = cover_interval(pls, a, F(p), F(q), F(1, 2))
            res = shrink_cover(pls, a, grid, cells, ranges)
            kept = _kept(pls, cells, res.r)
            assert kept, "a shrunken cover cannot be empty"
            shrunk_kept = [res.parts[k] for k in kept]
            cert = certify_cover(pls, pls.unit(), shrunk_kept, join_all(pls, shrunk_kept))
            assert cert.verify()
