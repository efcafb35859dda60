"""The representation theorem as an oracle: Herm answers equal Qn answers.

On the algebra of matrices O diag(x) O^T, for an orthogonal frame O, the
characters are the coordinates: the Herm element O diag(x) O^T takes
the value x_k at the character of the idempotent O e_k e_k^T O^T.  The
Stone-Yosida theorem says an element is known by its values at the
points of the spectrum and that the order acts pointwise, so every order
answer the two instances give must agree exactly, certificates and net
sizes included, although the Herm route goes through matrices, minimal
polynomials and characters, and the Qn route reads coordinates.  The
calculus answers, the absolute value and a materialized join, are
matrices: read back through the frame, O^T M O is diagonal and holds the
Qn coordinates of |x| = x v -x and of x v y, with the same err.
"""
from fractions import Fraction as F
import random

from hypothesis import given, settings, strategies as st

from rieszspec.exact import RationalMatrix
from rieszspec.falgebra import abs_element
from rieszspec.instances import HermSpace, QnSpace
from rieszspec.lattice import (
    CoverCertificate,
    ShrinkResult,
    cover_interval,
    cover_range,
    grid_cells,
    precedes,
    shrink_cover,
)
from rieszspec.riesz import MarginCollapseError
from rieszspec.sampling import rand_orthogonal
from rieszspec.spectrum import (
    Pos,
    epsilon_net,
    point_new,
    pos_or_below,
    stone_yosida_check,
    sup_approx,
)

_coord = st.builds(F, st.integers(-8, 8), st.integers(1, 8))


@st.composite
def _cases(draw):
    """(n, frame or None, two coordinate vectors, eps)."""
    n = draw(st.integers(2, 4))
    seed = draw(st.none() | st.integers(0, 1 << 16))
    frame = None if seed is None else rand_orthogonal(random.Random(seed), n)
    xs = [draw(st.lists(_coord, min_size=n, max_size=n)) for _ in range(2)]
    eps = draw(st.sampled_from([F(1, 4), F(1, 16)]))
    return n, frame, xs, eps


_TOL = F(1, 1024)


def _pair(n, frame, xs):
    """The Qn space and Herm space, the matching elements of each, and
    each one's calculus answers (see _qn_calculus)."""
    frame = frame or RationalMatrix.identity(n)
    ft = frame.transpose()

    def conj(diag):
        return frame @ RationalMatrix.diagonal(list(diag)) @ ft

    def read(e):
        """The diagonal of O^T M O and the err, or None off a diagonal."""
        d = (ft @ e.matrix @ frame).entries
        if any(d[i][j] for i in range(n) for j in range(n) if i != j):
            return None
        return tuple(d[i][i] for i in range(n)), e.err

    def calculus(space, x, y):
        return {
            "abs": read(abs_element(x, _TOL)),
            "join": read(space.materialize(space.join(x, y), _TOL)),
        }

    idempotents = [conj([F(int(i == k)) for i in range(n)]) for k in range(n)]
    qn, hs = QnSpace(n), HermSpace(idempotents)
    assert hs.algebra.char_count == n
    return (
        (qn, [qn.element(x) for x in xs], _qn_calculus),
        (hs, [hs.element(conj(x)) for x in xs], calculus),
    )


def _qn_calculus(space, x, y):
    """|x| = x v -x and x v y as coordinates, with err 0."""
    return {
        "abs": (space.join(x, space.negate(x)).coords, 0),
        "join": (space.join(x, y).coords, 0),
    }


def _point(space, x, y, eps):
    """The CLI's point for x, where x is certifiably positive: margin and
    the values of x and y there, or the MarginCollapseError raised."""
    out = pos_or_below(space, x, eps)
    if not isinstance(out, Pos):
        return None
    try:
        pt = point_new(space, [(x, out.witness / 2, F(space.unit_bound(x) + 1))])
        return pt.margin, pt.eval(x, eps), pt.eval(y, eps), pt.margin
    except MarginCollapseError:
        return MarginCollapseError


def _answers(space, elems, calculus, eps):
    x, y = elems

    def pos(a):
        return space.join(a, space.zero())

    p, q, _ = cover_range(space, x)
    grid, cells, ranges, cert = cover_interval(space, x, p, q, eps)
    shrunk = shrink_cover(space, x, grid, cells, ranges)
    # the check-lattice replays: both claims verified from rebuilt cells
    _, again = grid_cells(space, x, p, q, eps)
    target = space.in_interval(x, p, q)
    net = epsilon_net(space, [x, y], eps)
    return {
        **calculus(space, x, y),
        "point": _point(space, x, y, eps),
        "shrink": (shrunk.r, shrunk.multiplier),
        "replay_grid": CoverCertificate(space, target, tuple(again), cert.multiplier).verify(),
        "replay_shrink": ShrinkResult(
            shrunk.r, shrunk.multiplier, space, tuple(again)
        ).cert.verify(),
        "sup_approx": sup_approx(space, x, eps),
        "pos_or_below": pos_or_below(space, x, eps),
        "stone_yosida": stone_yosida_check(space, x, eps),
        "net_points": len(net.points),
        "net_shrink_info": net.shrink_info,
        "precedes_pos": precedes(space, pos(x), pos(y)),
        "cover_grid": grid,
        "cover_multiplier": cert.multiplier,
    }


@settings(max_examples=80, deadline=None)
@given(_cases())
def test_herm_answers_equal_qn_answers(case):
    n, frame, xs, eps = case
    qn, hs = _pair(n, frame, xs)
    assert _answers(*hs, eps) == _answers(*qn, eps)
