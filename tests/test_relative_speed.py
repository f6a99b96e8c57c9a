"""The relative speed seen by a preferred observer P is bounded by the
groupoid's.

For unit observers R, S and P in a Lorentzian space, gamma_P =
``gamma_of_link(LinkProblem(R, S, P))`` is the time-dilation factor of the
link that P selects, and -R.S is the groupoid's.  With R_Pi the g-orthogonal
projection of R on Pi = span(P, R - S),

    -R.S - 1 = |R_Pi^2| (gamma_P - 1),    |R_Pi^2| >= 1,

so gamma_P <= -R.S, with equality exactly when P, R and S are coplanar.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from relkin import LinkProblem, gamma_of_link, scalar_product
from relkin.sampling import make_space

_REL = 1e-12


@st.composite
def _observers(draw, count=3):
    """A Lorentzian space of dimension 2-6 and ``count`` unit observers in it,
    each cosh(chi) e_0 + sinh(chi) n with rapidity chi <= 1.5."""
    dim = draw(st.integers(2, 6))
    space = make_space(dim, "lorentzian")
    direction = st.lists(st.floats(-1.0, 1.0), min_size=dim - 1, max_size=dim - 1).map(
        np.array).filter(lambda n: np.linalg.norm(n) > 0.1)
    out = []
    for _ in range(count):
        chi, n = draw(st.floats(0.0, 1.5)), draw(direction)
        n = n / np.linalg.norm(n)
        out.append(space.vector(np.concatenate(([np.cosh(chi)], np.sinh(chi) * n))))
    return out


def _distinct(r, s):
    """-R.S, once R and S are far enough apart that R - S spans a direction."""
    minus_rs = -scalar_product(r, s)
    return minus_rs if minus_rs - 1.0 > 1e-6 else None


def _projected_square(r, s, p):
    """|R_Pi^2|, R's g-orthogonal projection on span(P, R - S), from the 2 x 2
    Gram system of P and R - S."""
    d = r - s
    pd = scalar_product(p, d)
    gram = np.array([[p.square(), pd], [pd, d.square()]])
    rhs = np.array([scalar_product(p, r), scalar_product(d, r)])
    return abs(float(rhs @ np.linalg.solve(gram, rhs)))


@settings(max_examples=200)
@given(_observers())
def test_the_preferred_speed_is_at_most_the_groupoid_speed(triple):
    r, s, p = triple
    minus_rs = _distinct(r, s)
    if minus_rs is None:
        return
    assert gamma_of_link(LinkProblem(r, s, p)) <= minus_rs * (1.0 + _REL)


@settings(max_examples=200)
@given(_observers())
def test_the_speed_deficit_is_the_projected_square(triple):
    r, s, p = triple
    minus_rs = _distinct(r, s)
    if minus_rs is None:
        return
    gamma_p = gamma_of_link(LinkProblem(r, s, p))
    projected = _projected_square(r, s, p)
    assert projected >= 1.0 - _REL
    scale = max(minus_rs, projected * gamma_p)
    assert abs((minus_rs - 1.0) - projected * (gamma_p - 1.0)) <= _REL * scale


@settings(max_examples=200)
@given(_observers(count=2), st.floats(0.05, 2.0), st.floats(0.05, 2.0))
def test_a_coplanar_observer_sees_the_groupoid_speed(pair, a, b):
    r, s = pair
    minus_rs = _distinct(r, s)
    if minus_rs is None:
        return
    p = a * r + b * s
    p = (1.0 / np.sqrt(-p.square())) * p
    assert abs(_projected_square(r, s, p) - 1.0) <= _REL * minus_rs
    assert abs(gamma_of_link(LinkProblem(r, s, p)) - minus_rs) <= _REL * minus_rs
