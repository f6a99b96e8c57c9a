"""Refusals and record rules that no other test reaches."""

import numpy as np
import pytest

from relkin import (
    DegenerateMetricError,
    MetricSpace,
    Observer,
    PreferredObserverMismatchError,
    SimpleBivector,
    SpaceMismatchError,
    Velocity3,
    isometry_from_bivector,
    velocity_add,
)
from relkin import sampling
from relkin.sampling import make_space


def test_observer_needs_a_lorentzian_space():
    space = make_space(3, "euclidean")
    with pytest.raises(SpaceMismatchError, match="observers require a Lorentzian space"):
        Observer(space.vector([1.0, 0.0, 0.0]))


def test_velocity_add_refuses_different_c():
    space = make_space(4, "lorentzian")
    rest = Observer(space.vector([1.0, 0.0, 0.0, 0.0]))
    u = Velocity3(space.vector([0.0, 0.5, 0.0, 0.0]), rest, 1.0)
    v = Velocity3(space.vector([0.0, 0.3, 0.0, 0.0]), rest, 2.0)
    with pytest.raises(PreferredObserverMismatchError,
                       match="velocities use different c values"):
        velocity_add(u, v)


def test_inverse_of_a_composite_has_no_record():
    space = make_space(4, "lorentzian")
    boost = isometry_from_bivector(SimpleBivector(space.vector([1.0, 0.0, 0.0, 0.0]),
                                                  space.vector([0.0, 0.75, 0.0, 0.0])))
    turn = isometry_from_bivector(SimpleBivector(space.vector([0.0, 1.0, 0.0, 0.0]),
                                                 space.vector([0.0, 0.0, 0.5, 0.0])))
    composite = boost.compose(turn)
    inverse = composite.inverse()
    assert inverse.generator is None and inverse.gamma is None
    for product in (inverse.compose(composite), composite.compose(inverse)):
        assert np.max(np.abs(product.mapping.entries - np.eye(4))) <= 4e-16


def test_metric_must_be_square():
    with pytest.raises(DegenerateMetricError, match=r"metric must be square, got shape \(2, 3\)"):
        MetricSpace.from_metric(np.ones((2, 3)))


def test_metric_must_be_invertible():
    with pytest.raises(DegenerateMetricError,
                       match="metric tensor is not invertible to tolerance"):
        MetricSpace.from_metric([[1e8, 1e8 - 1], [1e8 - 1, 1e8 - 2]])


def test_metric_for_refuses_an_unknown_signature():
    with pytest.raises(ValueError, match="unknown signature kind 'minkowski'"):
        sampling.metric_for(3, "minkowski")
