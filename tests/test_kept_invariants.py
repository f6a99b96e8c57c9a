"""Invariants a value forms once and keeps: the squares of vectors and simple
bivectors, and a metric space's max|g| and identity entries.

A kept value must equal a fresh evaluation bit for bit on every read, must
not pass to a value built from it by arithmetic, and must never outlive
components that can still change.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from relkin import metric_core
from relkin.isometry import isometry_from_bivector
from relkin.metric_core import (MetricSpace, SimpleBivector, Vector, bivector_product,
                                maxabs, scalar_product)
from relkin.sampling import SIGNATURES, make_space, metric_for, random_admissible_bivector, rng_for


def _congruent_metric():
    """A Lorentzian metric A^T diag(-1, 1, 1, 1) A with a non-diagonal A."""
    a = np.array([[1.0, 0.5, 0.0, 0.25],
                  [0.0, 1.0, -0.5, 0.0],
                  [0.25, 0.0, 1.0, 0.5],
                  [0.0, -0.25, 0.0, 1.0]])
    return MetricSpace.from_metric(a.T @ metric_for(4, "lorentzian") @ a)


SPACES = [make_space(dim, kind) for dim in range(2, 7) for kind in SIGNATURES]
SPACES.append(_congruent_metric())

entries = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, float("nan")]))


def _bits(value):
    return np.float64(value).tobytes()


def _settled_vector(space, values):
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return Vector(arr, space)


@st.composite
def legs(draw, count):
    space = draw(st.sampled_from(SPACES))
    return space, [_settled_vector(space, draw(st.lists(entries, min_size=space.dim,
                                                        max_size=space.dim)))
                   for _ in range(count)]


class TestKeptValuesEqualFreshOnes:
    # Entries up to the largest double overflow on purpose.
    @np.errstate(over="ignore", invalid="ignore")
    @given(legs(1))
    def test_vector_square(self, drawn):
        _, (v,) = drawn
        fresh = _bits(scalar_product(v, v))
        assert _bits(v.square()) == fresh
        assert "_square" in vars(v)
        assert _bits(v.square()) == fresh

    @np.errstate(over="ignore", invalid="ignore")
    @given(legs(2))
    def test_bivector_square(self, drawn):
        _, (p, q) = drawn
        b = SimpleBivector(p, q)
        fresh = _bits(bivector_product(b, b))
        assert _bits(b.square()) == fresh
        assert "_square" in vars(b)
        assert _bits(b.square()) == fresh

    @pytest.mark.parametrize("space", SPACES, ids=lambda s: f"{s.dim}{s.signature()}")
    def test_metric_scale_and_identity(self, space):
        fresh = _bits(maxabs(space.g))
        assert _bits(space.g_max) == fresh
        assert _bits(space.g_max) == fresh
        eye = space.eye
        assert eye is space.eye
        assert np.array_equal(eye, np.eye(space.dim))
        assert not eye.flags.writeable
        assert space.identity().entries is not eye


class TestKeptValuesDoNotSpread:
    def test_arithmetic_builds_a_value_without_its_operands_square(self, mink4):
        v = mink4.vector([1.0, 2.0, 0.5, 0.0])
        w = mink4.vector([0.0, 0.5, 1.5, -1.0])
        v.square()
        for built in (v + w, v - w, -v, 2.0 * v, v * 3.0):
            assert "_square" not in vars(built)
            assert _bits(built.square()) == _bits(scalar_product(built, built))

    def test_a_new_presentation_forms_its_own_square(self, mink4):
        b = SimpleBivector(mink4.vector([1.0, 0.0, 0.5, 0.0]),
                           mink4.vector([0.0, 0.5, 0.0, 0.0]))
        b.square()
        for built in (b.reversed(), metric_core.represent_sl2(b, 2.0, 0.0, 0.0, 0.5),
                      metric_core.orthogonal_presentation(b)):
            assert "_square" not in vars(built)
            assert _bits(built.square()) == _bits(bivector_product(built, built))

    def test_a_writable_array_is_never_served_stale(self, mink4):
        arr = np.array([1.0, 2.0, 0.0, 0.0])
        v = Vector(arr, mink4)
        assert v.square() == 3.0
        arr[1] = 3.0
        assert v.square() == 8.0
        assert "_square" not in vars(v)

    def test_a_read_only_view_of_a_writable_array_is_never_served_stale(self, mink4):
        arr = np.array([1.0, 2.0, 0.0, 0.0])
        view = arr[:]
        view.setflags(write=False)
        v = Vector(view, mink4)
        b = SimpleBivector(v, mink4.vector([0.0, 0.0, 1.0, 0.0]))
        assert (v.square(), b.square()) == (3.0, 3.0)
        arr[1] = 3.0
        assert (v.square(), b.square()) == (8.0, 8.0)

    def test_a_bivector_over_a_writable_leg_is_never_served_stale(self, mink4):
        arr = np.array([0.0, 1.0, 0.0, 0.0])
        b = SimpleBivector(Vector(arr, mink4), mink4.vector([0.0, 0.0, 1.0, 0.0]))
        assert b.square() == 1.0
        arr[1] = 2.0
        assert b.square() == 4.0


class TestOneSquarePerSampledBivector:
    def test_draw_to_verified_isometry_squares_each_bivector_once(self, monkeypatch):
        squared = []  # the operands, held so that no id is reused
        original = metric_core.bivector_product

        def counted(b1, b2):
            squared.append(b1)
            return original(b1, b2)

        monkeypatch.setattr(metric_core, "bivector_product", counted)
        sampled = []
        for k, space in enumerate(SPACES[:-1]):
            rng = rng_for(2718, k)
            for _ in range(20):
                b = random_admissible_bivector(space, rng)
                assert isometry_from_bivector(b).generator is b
                sampled.append(b)
        counts = {}
        for b in squared:
            counts[id(b)] = counts.get(id(b), 0) + 1
        assert set(counts.values()) == {1}
        assert all(id(b) in counts for b in sampled)
