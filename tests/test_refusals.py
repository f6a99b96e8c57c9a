"""Refusals and record rules that no other test reaches."""

import re

import numpy as np
import pytest

from relkin import (
    DegenerateMetricError,
    LinkProblem,
    MetricSpace,
    Observer,
    PreferredObserverMismatchError,
    SimpleBivector,
    SpaceMismatchError,
    Vector,
    Velocity3,
    isometry_from_bivector,
    scalar_product,
    ternary_velocity,
    velocity_add,
)
from relkin import kernels, metric_core, sampling
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


def _unit_timelike_draws(space, rng, n):
    """``n`` vectors of square -1 in ``space``: normal draws of negative
    square, scaled."""
    out = []
    while len(out) < n:
        x = rng.normal(size=space.dim)
        square = float(x @ space.g @ x)
        if square < -0.1:
            out.append(space.vector(x / np.sqrt(-square)))
    return out


def test_ternary_velocity_refuses_a_split_space():
    """In diag(-1, -1, 1, 1) vbar.vbar = gamma^2 - 1 need not hold; about half
    of these triples once came out as a broken invariant instead."""
    space = make_space(4, "split")
    draws = _unit_timelike_draws(space, np.random.default_rng(26), 900)
    for r, s, p in zip(draws[0::3], draws[1::3], draws[2::3]):
        with pytest.raises(SpaceMismatchError,
                           match="ternary velocity requires a Lorentzian space"):
            ternary_velocity(LinkProblem(r, s, p))


@pytest.mark.parametrize("shape", [(5,), (2, 4)], ids=["5 components", "2 rows"])
def test_a_vector_of_another_shape_does_not_pair(shape):
    space = make_space(4)
    wrong = Vector(np.ones(shape), space)
    message = re.escape(f"vector needs 4 components, got shape {shape}")
    with pytest.raises(SpaceMismatchError, match=message):
        wrong.square()
    with pytest.raises(SpaceMismatchError, match=message):
        scalar_product(space.vector([1.0, 0.0, 0.0, 0.0]), wrong)


_RIGHT = make_space(4).vector([1.0, 0.0, 0.0, 0.0])
_WRONG = Vector(np.ones(5), _RIGHT.space)
_WRONG_DUAL = metric_core.Covector(np.ones(5), _RIGHT.space)


@pytest.mark.parametrize("call, quantity", [
    (_WRONG.lower, "vector"),
    (lambda: _WRONG + _RIGHT, "vector"),
    (lambda: _RIGHT - _WRONG, "vector"),
    (_WRONG_DUAL.raise_index, "covector"),
    (lambda: _RIGHT.lower() - _WRONG_DUAL, "covector"),
], ids=["lower", "w + v", "v - w", "raise_index", "covector difference"])
def test_a_value_of_another_shape_is_refused_outside_the_pairings(call, quantity):
    """NumPy's own matmul and broadcasting errors became the refusal of
    MetricSpace.vector (or covector)."""
    message = re.escape(f"{quantity} needs 4 components, got shape (5,)")
    with pytest.raises(SpaceMismatchError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("components", [np.array([1, 2, 3, 4]),
                                        np.array([1.0, np.inf, 0.0, 0.0]),
                                        np.array([np.nan, 1.0, 0.5, 0.0])],
                         ids=["int", "inf", "nan"])
def test_int_and_non_finite_vectors_pair_through_pairing_rows(components, monkeypatch):
    space = make_space(4)
    calls = []
    rows = metric_core.pairing_rows
    monkeypatch.setattr(metric_core, "pairing_rows", lambda *args: calls.append(args) or rows(*args))
    with np.errstate(invalid="ignore"):  # inf times a zero entry of g
        square = Vector(components, space).square()
        assert len(calls) == 1
        np.testing.assert_equal(square,
                                kernels.pairing_rows(space.g, components, components).tolist())


_SHAPES = pytest.mark.parametrize("shape", [(5,), (2, 4), (1,)],
                                  ids=["5 components", "2 rows", "1 component"])


@_SHAPES
@pytest.mark.parametrize("call", [
    lambda w: _RIGHT.space.identity().apply(w),
    lambda w: _RIGHT.lower().apply(w),
    lambda w: isometry_from_bivector(
        SimpleBivector(0.3 * _RIGHT, _RIGHT.space.basis_vector(1))).apply(w),
    lambda w: Observer(_RIGHT).rest_projection(w),
    lambda w: w + _RIGHT, lambda w: _RIGHT + w, lambda w: w - _RIGHT, lambda w: _RIGHT - w,
    lambda w: w + w, lambda w: w - w,
], ids=["Endomorphism.apply", "Covector.apply", "Isometry.apply", "rest_projection",
        "w + v", "v + w", "w - v", "v - w", "w + w", "w - w"])
def test_a_vector_of_another_shape_is_refused_by_arithmetic_and_application(shape, call):
    """NumPy's matmul error, and the shapes it would broadcast or add as they
    are, become the refusal of MetricSpace.vector."""
    message = re.escape(f"vector needs 4 components, got shape {shape}")
    with pytest.raises(SpaceMismatchError, match=f"^{message}$"):
        call(Vector(np.ones(shape), _RIGHT.space))


@_SHAPES
def test_a_covector_of_another_shape_is_refused_by_arithmetic_and_application(shape):
    wrong = metric_core.Covector(np.ones(shape), _RIGHT.space)
    message = re.escape(f"covector needs 4 components, got shape {shape}")
    for call in (lambda: wrong + _RIGHT.lower(), lambda: _RIGHT.lower() - wrong,
                 lambda: wrong.apply(_RIGHT)):
        with pytest.raises(SpaceMismatchError, match=f"^{message}$"):
            call()
