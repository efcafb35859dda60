"""The representation theorem as an oracle: Herm answers equal Qn answers.

On the algebra of matrices O diag(x) O^T, for an orthogonal frame O, the
characters are the coordinates: the Herm element O diag(x) O^T takes
the value x_k at the character of the idempotent O e_k e_k^T O^T.  The
Stone-Yosida theorem says an element is known by its values at the
points of the spectrum and that the order acts pointwise, so every order
answer the two instances give must agree exactly, certificates and net
sizes included, although the Herm route goes through matrices, minimal
polynomials and characters, and the Qn route reads coordinates.
"""
from fractions import Fraction as F
import random

from hypothesis import given, settings, strategies as st

from rieszspec.exact import RationalMatrix
from rieszspec.instances import HermSpace, QnSpace
from rieszspec.lattice import cover_interval, cover_range, precedes
from rieszspec.sampling import rand_orthogonal
from rieszspec.spectrum import epsilon_net, pos_or_below, stone_yosida_check, sup_approx

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


def _pair(n, frame, xs):
    """The Qn space and Herm space with the matching elements of each."""
    frame = frame or RationalMatrix.identity(n)
    ft = frame.transpose()

    def conj(diag):
        return frame @ RationalMatrix.diagonal(list(diag)) @ ft

    idempotents = [conj([F(int(i == k)) for i in range(n)]) for k in range(n)]
    qn, hs = QnSpace(n), HermSpace(idempotents)
    assert hs.algebra.char_count == n
    return (qn, [qn.element(x) for x in xs]), (hs, [hs.element(conj(x)) for x in xs])


def _answers(space, elems, eps):
    x, y = elems

    def pos(a):
        return space.join(a, space.zero())

    p, q, _ = cover_range(space, x)
    grid, _, _, cert = cover_interval(space, x, p, q, eps)
    net = epsilon_net(space, [x, y], eps)
    return {
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
    (qn, qelems), (hs, helems) = _pair(n, frame, xs)
    assert _answers(hs, helems, eps) == _answers(qn, qelems, eps)
