"""Exact rational substrate: rationals, intervals, matrices, psd."""
from fractions import Fraction as F
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from rieszspec.exact import (
    RatInterval,
    RationalMatrix,
    format_rational,
    interval_grid_window,
    invert,
    parse_rational,
    psd_check,
)

import oracles
from oracles import psd_by_minors, to_sympy


class TestParseRational:
    def test_plain_forms(self):
        assert parse_rational("3/4") == F(3, 4)
        assert parse_rational("-7/2") == F(-7, 2)
        assert parse_rational("5") == F(5)
        assert parse_rational(" 0 ") == F(0)

    def test_normalizes(self):
        assert parse_rational("2/4") == F(1, 2)

    @pytest.mark.parametrize(
        "bad", ["0.5", "1e3", "2.0/4", "1/0", "x", "", "1/2/3", "-4/-8"]
    )
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_round_trip(self):
        rng = random.Random(0)
        for _ in range(200):
            q = F(rng.randint(-999, 999), rng.randint(1, 999))
            assert parse_rational(format_rational(q)) == q


class TestRoundDyadic:
    """The oracles' grid rounding, which the majorant checks rely on."""

    def test_down_below_up_above(self):
        rng = random.Random(1)
        for _ in range(300):
            q = F(rng.randint(-4000, 4000), rng.randint(1, 64))
            k = rng.randint(0, 12)
            lo = oracles._round_grid(q, k, False)
            hi = oracles._round_grid(q, k, True)
            assert lo <= q <= hi
            assert hi - lo <= F(1, 1 << k)
            assert (lo * (1 << k)).denominator == 1
            assert (hi * (1 << k)).denominator == 1

    def test_exact_on_grid(self):
        assert oracles._round_grid(F(3, 8), 3, False) == F(3, 8)
        assert oracles._round_grid(F(3, 8), 3, True) == F(3, 8)
        assert oracles._round_grid(F(3, 8), 2, False) == F(1, 4)
        assert oracles._round_grid(F(3, 8), 2, True) == F(1, 2)
        assert oracles._round_grid(F(-3, 8), 2, False) == F(-1, 2)


class TestRatInterval:
    def test_basic(self):
        iv = RatInterval(F(1, 3), F(1, 2))
        assert iv.width == F(1, 6)
        assert iv.midpoint == F(5, 12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RatInterval(F(1), F(1))
        with pytest.raises(ValueError):
            RatInterval(F(2), F(1))

    def test_intersects_open(self):
        a = RatInterval(F(0), F(1))
        b = RatInterval(F(1), F(2))
        c = RatInterval(F(1, 2), F(3, 2))
        # open intervals meet when each starts before the other ends
        assert not (a.lo < b.hi and b.lo < a.hi)  # touching ones do not
        assert a.lo < c.hi and c.lo < a.hi
        assert c.lo < b.hi and b.lo < c.hi


def _window(p, q, w, ranges, window=None):
    """interval_grid_window's cells as (index, RatInterval) pairs."""
    den, cells = interval_grid_window(p, q, w, ranges, window)
    return [(k, RatInterval(F(lo, den), F(hi, den))) for k, lo, hi in cells]


def _full_grid(p, q, w):
    return [iv for _, iv in _window(p, q, w, [(p, q)])]


class TestIntervalGrid:
    def test_covers_with_depth(self):
        # every interior value at least width/4 from both ends sits at
        # depth >= width/4 inside some cell
        p, q, w = F(-2), F(3), F(1, 4)
        grid = _full_grid(p, q, w)
        assert grid[0].lo == p and grid[-1].hi == q
        rng = random.Random(2)
        for _ in range(200):
            x = p + F(rng.randint(1, 5 * 64 - 1), 64)
            if x - p < w / 4 or q - x < w / 4:
                continue
            assert any(iv.lo + w / 4 <= x <= iv.hi - w / 4 for iv in grid)

    def test_half_step_overlap(self):
        grid = _full_grid(F(0), F(2), F(1, 2))
        for a, b in zip(grid, grid[1:]):
            assert b.lo - a.lo == F(1, 4)
            assert a.lo < b.hi and b.lo < a.hi

    def test_integer_ends_over_one_denominator(self):
        # D is the lcm of the denominators of p, q and width/2; the last
        # cell ends at q itself
        p, q, w = F(-1, 3), F(7, 5), F(1, 4)
        den, cells = interval_grid_window(p, q, w, [(p, q)])
        assert den == math.lcm(3, 5, 8)
        assert all(type(lo) is int and type(hi) is int for _, lo, hi in cells)
        assert [k for k, _, _ in cells] == list(range(len(cells)))
        assert cells[-1][2] == q * den and cells[0][1] == p * den

    def test_window_matches_filtered_full(self):
        rng = random.Random(3)
        for _ in range(500):
            p = F(rng.randint(-40, 40), rng.choice([1, 2, 4, 8]))
            q = p + F(rng.randint(1, 150), rng.choice([1, 2, 4, 8, 16]))
            w = F(1, 1 << rng.randint(0, 6))
            wlo = p + F(rng.randint(-30, 160), 12)
            whi = wlo + F(rng.randint(0, 60), 16)
            full = oracles.interval_grid(p, q, w)
            want = [(k, iv) for k, iv in enumerate(full) if iv.lo < whi and wlo < iv.hi]
            assert _window(p, q, w, [(p, q)], (wlo, whi)) == want
            assert _window(p, q, w, [(wlo, whi)]) == want
            assert _window(p, q, w, [(p, q)]) == list(enumerate(full))

    def test_ranges_and_window_match_filtered_full(self):
        # point and overlapping ranges, in any order, against the union of
        # the stepping grid's cells that meet a range and the window
        rng = random.Random(5)
        for _ in range(150):
            p = F(rng.randint(-20, 20), rng.choice([1, 2, 4]))
            q = p + F(rng.randint(1, 60), rng.choice([1, 2, 4, 8]))
            w = F(1, 1 << rng.randint(0, 5))
            ranges = []
            for _ in range(rng.randint(0, 4)):
                lo = p + F(rng.randint(-30, 100), 12)
                ranges.append((lo, lo + F(rng.randint(0, 40), 16)))
            window = None
            if rng.random() < 0.5:
                wlo = p + F(rng.randint(-30, 100), 12)
                window = (wlo, wlo + F(rng.randint(0, 40), 16))
            want = [
                (k, iv)
                for k, iv in enumerate(oracles.interval_grid(p, q, w))
                if any(iv.lo < hi and lo < iv.hi for lo, hi in ranges)
                and (window is None or (iv.lo < window[1] and window[0] < iv.hi))
            ]
            assert _window(p, q, w, ranges, window) == want

    def test_rejects(self):
        with pytest.raises(ValueError):
            interval_grid_window(F(1), F(1), F(1, 2), [(F(0), F(2))])
        with pytest.raises(ValueError):
            interval_grid_window(F(0), F(1), F(0), [(F(0), F(1))])


def _rand_symmetric(rng, n, lo=-2, hi=2, dens=(1, 2)):
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = F(rng.randint(lo, hi), rng.choice(dens))
            rows[i][j] = rows[j][i] = v
    return RationalMatrix.from_rows(rows)


class TestRationalMatrix:
    def test_construct_validates(self):
        with pytest.raises(ValueError):
            RationalMatrix.from_rows([[F(1), F(2)]])
        with pytest.raises(ValueError):
            RationalMatrix.from_rows([])

    def test_algebra_ops(self):
        a = RationalMatrix.from_rows([[F(1), F(2)], [F(3), F(4)]])
        b = RationalMatrix.identity(2)
        assert (a + b).entries[0][0] == F(2)
        assert (a - a).is_zero()
        assert (a @ b).entries == a.entries
        assert a.scale(F(1, 2)).entries[1][0] == F(3, 2)
        assert (-a).entries[0][1] == F(-2)
        assert a.transpose().entries[0][1] == F(3)
        assert RationalMatrix.diagonal([F(1), F(2)]).entries[1][1] == F(2)

    def test_commutator(self):
        a = RationalMatrix.from_rows([[F(0), F(1)], [F(1), F(0)]])
        d = RationalMatrix.diagonal([F(1), F(2)])
        assert not a.commutator(d).is_zero()
        assert a.commutator(a @ a).is_zero()
        assert a.commutator(a).is_zero()

    def test_dim_mismatch(self):
        a = RationalMatrix.identity(2)
        b = RationalMatrix.identity(3)
        with pytest.raises(ValueError):
            _ = a + b

    def test_json_round_trip(self):
        a = RationalMatrix.from_rows([[F(1, 3), F(-2)], [F(-2), F(5, 7)]])
        assert RationalMatrix.from_json(a.to_json()) == a
        with pytest.raises(ValueError):
            RationalMatrix.from_json({"dim": 3, "entries": [["1"]]})

    def test_hash_stable_and_equal(self):
        a = RationalMatrix.from_rows([[F(1), F(2)], [F(2), F(1)]])
        b = RationalMatrix.from_rows([[F(1), F(2)], [F(2), F(1)]])
        assert a == b and hash(a) == hash(b)
        assert hash(a) == hash(a)


class TestPsdCheck:
    def test_known_cases(self):
        assert psd_check(RationalMatrix.identity(3))
        assert psd_check(RationalMatrix.zeros(2))
        assert psd_check(RationalMatrix.from_rows([[F(2), F(1)], [F(1), F(2)]]))
        assert not psd_check(RationalMatrix.from_rows([[F(1), F(2)], [F(2), F(1)]]))
        assert not psd_check(RationalMatrix.diagonal([F(1), F(-1, 1000000)]))
        # zero diagonal with nonzero off diagonal is indefinite
        assert not psd_check(RationalMatrix.from_rows([[F(0), F(1)], [F(1), F(0)]]))

    def test_rank_deficient(self):
        # xx^T is psd of rank one
        x = [F(1), F(-2), F(3)]
        rows = [[xi * xj for xj in x] for xi in x]
        assert psd_check(RationalMatrix.from_rows(rows))

    def test_requires_symmetry(self):
        with pytest.raises(ValueError):
            psd_check(RationalMatrix.from_rows([[F(1), F(2)], [F(0), F(1)]]))

    def test_against_principal_minors(self):
        # independent oracle: symmetric matrix is psd iff every principal
        # minor is nonnegative
        rng = random.Random(4)
        agree = 0
        for _ in range(250):
            n = rng.randint(1, 4)
            m = _rand_symmetric(rng, n)
            assert psd_check(m) == psd_by_minors(m.entries)
            agree += 1
        assert agree == 250

    def test_psd_closed_under_sum_and_congruence(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(2, 4)
            a = _rand_symmetric(rng, n)
            g = a @ a.transpose()  # gram form, psd by construction
            assert psd_check(g)
            b = _rand_symmetric(rng, n)
            assert psd_check(g + (b @ b.transpose()))


# entries with small and with large denominators
_small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_entry = st.one_of(_small, st.fractions(min_value=-3, max_value=3, max_denominator=1 << 40))


def _square(draw, n):
    return [[draw(_entry) for _ in range(n)] for _ in range(n)]


@st.composite
def _symmetric(draw):
    """Free, Gram (rank deficient), shifted Gram, zeroed diagonal, hyperbolic,
    or two interleaved blocks of very different scales."""
    n = draw(st.integers(1, 5))
    kinds = ["free", "gram", "shifted", "zero-diag", "hyperbolic", "blocks"]
    kind = draw(st.sampled_from(kinds))
    if kind == "blocks":
        # zeros in a pivot's column: those rows must still be rescaled
        group = [draw(st.booleans()) for _ in range(n)]
        rows = [[draw(_small) for _ in range(n)] for _ in range(n)]
        rows = oracles.matmul(rows, oracles.transpose(rows))
        big = F(1 << draw(st.integers(0, 40)))
        for i in range(n):
            for j in range(n):
                if group[i] != group[j]:
                    rows[i][j] = F(0)
                elif group[i]:
                    rows[i][j] *= big
        if draw(st.booleans()):
            i = draw(st.integers(0, n - 1))
            rows[i][i] -= abs(draw(_entry)) / (1 << draw(st.integers(0, 40)))
        return rows
    if kind == "free":
        rows = _square(draw, n)
        return [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    if kind == "hyperbolic":
        # L (D + [[0, x], [x, 0]]) L^T: a zero diagonal whose row stays
        # nonzero once the positive pivots are gone
        low = [[F(1) if i == j else (draw(_entry) if j < i else F(0)) for j in range(n)]
               for i in range(n)]
        mid = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            mid[i][i] = abs(draw(_entry))
        if n >= 2:
            mid[n - 2][n - 2] = mid[n - 1][n - 1] = F(0)
            mid[n - 2][n - 1] = mid[n - 1][n - 2] = draw(_entry)
        return oracles.matmul(oracles.matmul(low, mid), oracles.transpose(low))
    rank = draw(st.integers(0, n))
    b = [[draw(_entry) if k < rank else F(0) for k in range(n)] for _ in range(n)]
    rows = oracles.matmul(b, oracles.transpose(b))
    i = draw(st.integers(0, n - 1))
    if kind == "shifted":
        rows[i][i] -= abs(draw(_entry)) / (1 << draw(st.integers(0, 40)))
    elif kind == "zero-diag":
        rows[i][i] = F(0)
    return rows


class TestIntegerKernels:
    """Products and the fraction-free psd test against independent oracles."""

    @settings(max_examples=200, deadline=None)
    @given(rows=_symmetric())
    @example(rows=[  # a big pivot first, then a small definite block
        [F(1 << 40), F(0), F(0), F(0)],
        [F(0), F(2), F(-1), F(0)],
        [F(0), F(-1), F(2), F(-1)],
        [F(0), F(0), F(-1), F(2)],
    ])
    def test_psd_against_minors(self, rows):
        got = psd_check(RationalMatrix.from_rows(rows))
        assert got == psd_by_minors(rows)
        assert got == oracles.psd_check_fraction(rows)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(1, 5), c=_entry, k=st.integers(-6, 6).filter(bool))
    def test_operators_against_fraction_rows(self, data, n, c, k):
        a = _square(data.draw, n)
        b = _square(data.draw, n)
        ma, mb = RationalMatrix.from_rows(a), RationalMatrix.from_rows(b)

        def same(m, rows):
            # the canonical form, the reference's entries, and the same
            # value and hash as the matrix built from those entries
            assert m.den > 0 and math.gcd(m.den, *(x for r in m.rows for x in r)) == 1
            assert m.entries == tuple(map(tuple, rows))
            ref = RationalMatrix.from_rows(rows)
            assert m == ref and hash(m) == hash(ref)

        same(ma, a)
        same(ma + mb, oracles.matadd(a, b))
        same(ma - mb, oracles.matsub(a, b))
        same(-ma, oracles.matscale(F(-1), a))
        same(ma.scale(c), oracles.matscale(c, a))
        same(ma @ mb, oracles.matmul(a, b))
        same(ma @ ma, oracles.matmul(a, a))
        same(ma.transpose(), oracles.transpose(a))
        # the constructor takes any integer form, a negative den included
        same(RationalMatrix([[k * x for x in r] for r in ma.rows], k * ma.den), a)
        # one matrix by several routes
        double = oracles.matscale(F(2), a)
        for m in (ma.scale(2), ma + ma, ma @ RationalMatrix.identity(n).scale(2), -(-ma - ma)):
            same(m, double)
        assert ma.is_symmetric() == (a == oracles.transpose(a))
        assert ma.is_zero() == all(v == 0 for r in a for v in r)
        assert (ma - ma).is_zero()
        assert ma.row_sum_bound() == max(sum(abs(v) for v in r) for r in a)
        assert ma.to_json() == {"dim": n, "entries": [[str(v) for v in r] for r in a]}
        sym = oracles.matadd(a, oracles.transpose(a))
        msym = RationalMatrix.from_rows(sym)
        assert msym.is_symmetric() and psd_check(msym) == oracles.psd_check_fraction(sym)


class TestKernelInvert:
    def test_invert(self):
        rng = random.Random(9)
        done = 0
        while done < 40:
            n = rng.randint(1, 4)
            m = _rand_symmetric(rng, n)
            try:
                inv = invert(m)
            except ValueError:
                assert to_sympy(m.entries).det() == 0
                continue
            assert (m @ inv) == RationalMatrix.identity(n)
            done += 1

    def test_singular_raises(self):
        with pytest.raises(ValueError):
            invert(RationalMatrix.zeros(2))
