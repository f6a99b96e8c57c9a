"""Lorentz-boost kinematics referred to explicit observers.

An observer is a future unit time-like vector P; a velocity it measures is a
spatial vector v with P.v = 0 and |v| < c (or exactly c when flagged
luminal).  Boosts are the bivector-generated isometries of P^vbar with
vbar = gamma v / c, and every coordinate statement below is the action of
such an operator written out in scalars.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .errors import (
    DegenerateDenominatorError,
    DegenerateEpochError,
    InternalConsistencyError,
    NotObservedError,
    NotFutureDirectedError,
    PreferredObserverMismatchError,
    SpaceMismatchError,
    SuperluminalError,
)
from .isometry import Isometry
from .kernels import maxabs_rows, pairing_rows, passes, run_checks, velocity_sum, within
from .metric_core import (
    Endomorphism,
    MetricSpace,
    SimpleBivector,
    Vector,
    _check_c,
    _finite,
    _fresh,
    _idempotent_check,
    _pairings,
    _projector,
    _unit_timelike,
    idempotent_of,
    maxabs,
    same_space,
    scalar_product,
)

__all__ = _EXPORTS["kinematics"]

# Component index that decides time orientation in the ambient basis.
TIME_AXIS = 0
# Tolerance multipliers of tol_rel: of a kinematic result's checks, and of a
# luminal v.v = c^2, relative to c^2 (its speed within c (1 + LUMINAL_SLACK/2 tol_rel)).
RESULT_SLACK = 1e2
LUMINAL_SLACK = 2e2
_NOT_SEEN = "velocity not orthogonal to its observer (P.v = {!r})"


def future_directed(space: MetricSpace, x):
    """Whether the components ``x`` of one vector (a bool), or of each
    stacked row (a mask), are future-directed in ``space``: component
    TIME_AXIS is positive."""
    return x.item(TIME_AXIS) > 0.0 if x.ndim == 1 else x[:, TIME_AXIS] > 0.0


@dataclass(frozen=True, eq=False)
class Observer:
    """Future-directed unit time-like vector in a Lorentzian space.

    The time orientation convention is :func:`future_directed`.  The
    associated rank-one idempotent (the projector onto the observer's time
    axis) is the one its vector keeps (:func:`idempotent_of`).
    """

    vector: Vector

    def __post_init__(self):
        run_checks(*_observer_checks(self.vector.space, self.vector.square(),
                                     self.vector.components))

    @property
    def space(self) -> MetricSpace:
        return self.vector.space

    @property
    def idempotent(self) -> Endomorphism:
        return idempotent_of(self.vector)

    def rest_projection(self, e: Vector) -> Vector:
        """Spatial part (id - p) e of a vector in this observer's rest frame."""
        return e - self.idempotent.apply(e)

    def agrees_with(self, other: "Observer") -> bool:
        if other is self:
            return True
        same_space(self.vector, other.vector)
        tol = self.space.tol_rel
        return within(maxabs(self.vector.components - other.vector.components), tol)


@dataclass(frozen=True, eq=False)
class Velocity3:
    """Velocity measured by an observer: spatial, orthogonal to the observer.

    Strictly sub-luminal unless constructed with ``luminal=True``, in which
    case v.v must equal c^2 within LUMINAL_SLACK tol_rel c^2.  c must be
    positive and finite.
    """

    vector: Vector
    observer: Observer
    c: float = 1.0
    luminal: bool = False

    def __post_init__(self):
        space = same_space(self.vector, self.observer.vector)
        _check_c(self.c)
        v = self.vector.components
        (ortho,) = _pairings(space, (v, self.observer.vector.components))
        run_checks(_seen_check(space, ortho, maxabs(v)),
                   _speed_check(space, self.vector.square(), self.c * self.c, self.luminal))

    @property
    def space(self) -> MetricSpace:
        return self.vector.space

    def speed(self) -> float:
        return float(np.sqrt(max(0.0, self.vector.square())))


# Acceptance rules: checks for run_checks on one value's floats, or for passes on rows.

def _observer_checks(space: MetricSpace, square, x):
    """``Observer``'s checks of the components ``x`` of square ``square``."""
    return ((space.is_lorentzian ^ True, SpaceMismatchError,  # ^ True: not, on bools and masks
             "observers require a Lorentzian space", None),
            _unit_timelike(space, square, "observer square is {!r}, expected -1"),
            (future_directed(space, x) ^ True, NotFutureDirectedError,
             "observer must be future-directed", None))


def _seen_check(space: MetricSpace, ortho, v_max, message: str = _NOT_SEEN):
    """The refusal of a v, of largest component ``v_max``, whose pairing
    ``ortho`` with the observer is not 0 to the tolerance of ``space``."""
    return within(abs(ortho), space.tol_abs, v_max) ^ True, NotObservedError, message, ortho


def _speed_check(space: MetricSpace, v2, c2, luminal: bool):
    """``Velocity3``'s refusal of a square ``v2`` that is not below c^2 =
    ``c2``, or, when ``luminal``, not c^2 to LUMINAL_SLACK tol_rel c^2."""
    if luminal:
        return (within(abs(v2 - c2), LUMINAL_SLACK * space.tol_rel * c2) ^ True,
                SuperluminalError, "luminal velocity must have v.v = c^2, got {!r}", v2)
    return v2 >= c2, SuperluminalError, "v.v = {0[0]!r} is not below c^2 = {0[1]!r}", (v2, c2)


def _observed_gamma(space: MetricSpace, p: Vector, v: Velocity3, message: str) -> float:
    """gamma of v, once the observer vector P sees v (:func:`_seen_check`,
    refusing with ``message``)."""
    vc = v.vector.components
    (ortho,) = _pairings(space, (vc, p.components))
    run_checks(_seen_check(space, ortho, maxabs(vc), message))
    return _gamma(v.vector.square(), v.c, v.luminal)


def negate(v: Velocity3) -> Velocity3:
    """The opposite velocity seen by the same observer."""
    return Velocity3(-v.vector, v.observer, v.c, v.luminal)


@dataclass(frozen=True)
class EventCoordinates:
    """Clock reading and spatial position assigned to an event by an observer."""

    t: float
    x: Vector


@dataclass(frozen=True)
class TransformResult:
    """Primed coordinates of an event, the invariant scalars that fix them,
    and the interval -c^2 t^2 + x.x before and after the transform."""

    t_prime: float
    x_prime: Vector
    scalars: tuple[float, float, float]
    interval: tuple[float, float]


def event_coordinates(r: Observer, e: Vector, c: float = 1.0) -> EventCoordinates:
    """Decompose an event vector as e = c t R + x with x orthogonal to R."""
    same_space(r.vector, e)
    _check_c(c)
    ct = -scalar_product(r.vector, e)
    return EventCoordinates(float(ct / c), r.rest_projection(e))


def event_vector(r: Observer, coords: EventCoordinates, c: float = 1.0) -> Vector:
    """Recompose an event vector from observer coordinates."""
    same_space(r.vector, coords.x)
    _check_c(c)
    return float(c) * float(coords.t) * r.vector + coords.x


def gamma(v: Velocity3) -> float:
    """Time-dilation factor (1 - v.v/c^2)^(-1/2); infinite at the light cone."""
    return _gamma(v.vector.square(), v.c, v.luminal)


def _gamma(v2: float, c: float, luminal: bool) -> float:
    """:func:`gamma` of a velocity of square ``v2``."""
    if luminal:
        raise SuperluminalError("gamma is undefined for a luminal velocity")
    ratio = v2 / (c * c)
    run_checks(_subluminal_check(ratio))
    return float(1.0 / np.sqrt(1.0 - ratio))


def _subluminal_check(ratio):
    """gamma's refusal of a ratio v.v/c^2 that is not below 1."""
    return ratio >= 1.0, SuperluminalError, "v.v/c^2 = {!r} is not below 1", ratio


def _composition_check(space: MetricSpace, defect, w_max):
    """The refusal of a sum, of largest component ``w_max``, whose two forms
    differ by ``defect``."""
    return (within(defect, RESULT_SLACK * space.tol_rel, w_max) ^ True,
            InternalConsistencyError, "the two composition forms disagree by {:.3e}", defect)


def boost(p: Observer, v: Velocity3) -> Isometry:
    """Boost taking the observer P to the worldline moving at v, written

        L = id - (gamma-1) P (x) gP + gamma (P (x) g(v/c) - (v/c) (x) gP)
               + gamma^2/(gamma+1) v (x) gv / c^2.

    Generated by P^vbar; L P = gamma (P + v/c), and the inverse is the boost
    of -v.  Requires P.v = 0.  Both identities are verified, as
    :func:`verified_boost` describes.
    """
    return verified_boost(p, v)[0]


def _boost_entries(p: Observer, v: Velocity3, gam: float):
    """Entries of the boosts of v and of -v, even + odd + tail and
    even - odd + tail, split by parity in v: the boost of -v reuses the
    outer products of the boost of v and is bit for bit the boost that
    ``negate(v)`` gives."""
    g = p.space.g
    pc = p.vector.components
    vc = v.vector.components / v.c
    even = p.space.eye - (gam - 1.0) * np.outer(pc, g @ pc)
    odd = gam * (np.outer(pc, g @ vc) - np.outer(vc, g @ pc))
    tail = (gam * gam / (gam + 1.0)) * np.outer(vc, g @ vc)
    return even + odd + tail, even - odd + tail


def verified_boost(p: Observer, v: Velocity3) -> tuple[Isometry, float, float]:
    """``boost(p, v)`` with the two residuals that verified it:

        max|L P - gamma (P + v/c)|   within RESULT_SLACK tol_rel max(1, gamma),
        max|L L(-v) - id|            within RESULT_SLACK tol_rel.

    A residual beyond its bound, or NaN, raises InternalConsistencyError.
    """
    space = same_space(p.vector, v.vector)
    gam = _observed_gamma(space, p.vector, v, "boost requires a velocity orthogonal to P")
    ent, inverse = _boost_entries(p, v, gam)
    # The generator's spatial leg is vbar = gamma v / c.
    op = Isometry(_fresh(Endomorphism, ent, space),
                  SimpleBivector(p.vector, (gam / v.c) * v.vector), gam)
    pc = p.vector.components
    target = (pc + v.vector.components * (1.0 / v.c)) * gam
    observer_residual = maxabs(ent @ pc - target)
    inverse_residual = maxabs(ent @ inverse - space.eye)
    tol = RESULT_SLACK * space.tol_rel
    if not within(observer_residual, tol, gam):
        raise InternalConsistencyError(
            f"boost fails L P = gamma (P + v/c), residual {observer_residual:.3e}")
    if not within(inverse_residual, tol):
        raise InternalConsistencyError(
            f"boost fails L L(-v) = id, residual {inverse_residual:.3e}")
    return op, observer_residual, inverse_residual


def coordinate_transform(r: Observer, p: Observer, v: Velocity3,
                         e: Vector) -> TransformResult:
    """Coordinates of an event for the observer reached from P by velocity v.

    With (c t, x) the coordinates of e relative to R, the primed coordinates
    are obtained from the two scalars

        nu(e) = c t {(gamma-1) P.R + vbar.R} + vbar.x + (gamma-1) P.x
        xi(e) = c t {P.R + vbar.R/(gamma+1)} + vbar.x/(gamma+1) + P.x

    via  c t' = c t + R.D  and  x' = x - (id - r) D,  D = nu(e) P - xi(e) vbar.
    (D is e minus the inverse boost of e, so intervals are preserved by
    construction.)  Also returns the scalars (P.R, R.v, P.x) and the two
    intervals; intervals that differ by more than RESULT_SLACK tol_rel max(1, |before|),
    or by NaN, raise InternalConsistencyError.
    """
    space = same_space(r.vector, p.vector, v.vector, e)
    gam = _observed_gamma(space, p.vector, v, "transform requires a velocity orthogonal to P")
    vbar = (gam / v.c) * v.vector
    rc, pc = r.vector.components, p.vector.components
    re, pr, rv = _pairings(space, (rc, e.components), (rc, pc), (rc, v.vector.components))
    ct = -re
    x = r.rest_projection(e)
    xc, vbc = x.components, vbar.components
    vbr, vbx, px, xx = _pairings(space, (vbc, rc), (vbc, xc), (pc, xc), (xc, xc))

    nu_e = ct * ((gam - 1.0) * pr + vbr) + vbx + (gam - 1.0) * px
    xi_e = ct * (pr + vbr / (gam + 1.0)) + vbx / (gam + 1.0) + px
    delta = nu_e * p.vector - xi_e * vbar

    (r_delta,) = _pairings(space, (rc, delta.components))
    ct_prime = ct + r_delta
    x_prime = x - r.rest_projection(delta)
    t, t_prime = float(ct / v.c), float(ct_prime / v.c)
    c2 = v.c * v.c
    before = -c2 * (t * t) + xx
    after = -c2 * (t_prime * t_prime) + x_prime.square()
    if not within(abs(before - after), RESULT_SLACK * space.tol_rel, abs(before)):
        raise InternalConsistencyError(
            f"coordinate transform changes the interval by {abs(before - after):.3e}")
    return TransformResult(t_prime, x_prime, (float(pr), float(rv), float(px)),
                           (before, after))


def einstein_transform(r: Observer, v: Velocity3,
                       e: Vector) -> tuple[float, Vector]:
    """Textbook boost of event coordinates for a velocity seen by R itself:

        t' = gamma (t - v.x/c^2)
        x' = x + gamma^2/(gamma+1) (v.x/c^2) v - gamma v t.
    """
    space = same_space(r.vector, v.vector, e)
    gam = _observed_gamma(space, r.vector, v, "einstein transform requires R to observe v")
    c2 = v.c * v.c
    coords = event_coordinates(r, e, v.c)
    t, x = coords.t, coords.x
    vx = scalar_product(v.vector, x)
    t_prime = gam * (t - vx / c2)
    x_prime = (x + (gam * gam / (gam + 1.0)) * (vx / c2) * v.vector
               - (gam * t) * v.vector)
    return float(t_prime), x_prime


def urbantke_velocity(t: float, x: Vector, t_prime: float, x_prime: Vector,
                      c: float = 1.0) -> Vector:
    """Recover the relative velocity from one event seen in both frames:

        v = 2 q / (1 + q.q/c^2),    q = (x - x')/(t + t').

    Requires t + t' != 0.
    """
    same_space(x, x_prime)
    _check_c(c)
    if within(abs(t + t_prime), x.space.tol_abs, abs(t), abs(t_prime)):
        raise DegenerateEpochError("t + t' = 0; velocity recovery undefined")
    q = (1.0 / (t + t_prime)) * (x - x_prime)
    return (2.0 / (1.0 + q.square() / (c * c))) * q


def _check_same_frame(u: Velocity3, v: Velocity3) -> None:
    if not u.observer.agrees_with(v.observer):
        raise PreferredObserverMismatchError(
            "velocities are referred to different preferred observers")
    if abs(u.c - v.c) > u.space.tol_rel * max(u.c, v.c):
        raise PreferredObserverMismatchError("velocities use different c values")


def velocity_add(u: Velocity3, v: Velocity3) -> Velocity3:
    """Relativistic composition u (+) v for velocities seen by one observer:

        u (+) v = (u + gamma_v v) / (gamma_v (1 + v.u/c^2))
                  + gamma_v/(gamma_v+1) (v.u) v / (c^2 + v.u)

    using gamma of the second operand only, so the first operand may be
    luminal (the light-speed closure |c n (+) v| = c).  A luminal second
    operand is returned unchanged, which is the exact gamma -> infinity
    limit.  The equivalent fully-vectorial form is evaluated as well and
    cross-checked; the result is coplanar with u and v.
    """
    _check_same_frame(u, v)
    if v.luminal:
        return v
    uc, vc = u.vector.components, v.vector.components
    vv = v.vector.square()
    (vu,) = _pairings(u.space, (vc, uc))
    w, gap = velocity_sum(uc, vc, vv, vu, _gamma(vv, v.c, False), v.c * v.c)
    run_checks(_composition_check(u.space, maxabs(gap), maxabs(w)))
    return Velocity3(_fresh(Vector, w, u.space), u.observer, u.c, luminal=u.luminal)


def _observer_rows(space: MetricSpace, rows):
    """The mask of the stacked vectors ``rows`` that ``Observer`` accepts."""
    return passes(*_observer_checks(space, pairing_rows(space.g, rows, rows), rows))


def _rest_rows(space: MetricSpace, pc, rows):
    """``Observer.rest_projection`` of the stacked vectors ``rows`` for the
    observer rows ``pc``, through the stacked idempotents, bit for bit, and
    the mask of the rows whose idempotent ``idempotent_of`` forms."""
    pp = pairing_rows(space.g, pc, pc)
    proj = _projector(space, pc, pp[:, None, None])
    rest = rows - np.matmul(proj, rows[:, :, None])[:, :, 0]
    return rest, passes(_idempotent_check(space, pp, maxabs_rows(pc)))


def _accepted_rows(space: MetricSpace, pc, rows, c, luminal: bool = False):
    """The mask of the stacked vectors ``rows`` that ``Velocity3(row, P, c,
    luminal)`` accepts, for the observer components ``pc`` (one vector or one
    row per vector) and a speed ceiling ``c`` (a float or an (N, 1) column).
    A row with a non-finite entry, which ``MetricSpace.vector`` refuses, is
    False: its bound is infinite or its pairing NaN."""
    g = space.g
    return passes(_seen_check(space, pairing_rows(g, rows, pc), maxabs_rows(rows)),
                  _speed_check(space, pairing_rows(g, rows, rows), np.reshape(c * c, -1),
                               luminal))


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _velocity_add_rows(space: MetricSpace, pc, u, v, c, luminal: bool = False):
    """``velocity_add`` of the stacked velocities ``u`` (luminal when
    ``luminal``) and ``v`` seen by ``pc`` with speed ceiling ``c``, as for
    :func:`_accepted_rows`: the rows of u (+) v, bit for bit, and the mask of
    the rows whose sum ``velocity_add`` returns.  A row it would refuse, with
    any error, is False; the other rows do not depend on it."""
    g, c2 = space.g, c * c
    vv, vu = pairing_rows(g, v, v)[:, None], pairing_rows(g, v, u)[:, None]
    ratio = vv / c2
    w, gap = velocity_sum(u, v, vv, vu, 1.0 / np.sqrt(1.0 - ratio), c2)
    ok = passes(_subluminal_check(ratio[:, 0]),
                _composition_check(space, maxabs_rows(gap), maxabs_rows(w)))
    return w, ok & _accepted_rows(space, pc, w, c, luminal)


def velocity_subtract(u: Velocity3, w: Velocity3) -> Velocity3:
    """The unique v with w = u (+) (-v), recovered in closed form:

        gamma_v = (Y + X/c^2) / (Y - X/c^2)
        gamma_v v / (gamma_v + 1) = (gamma_u u - gamma_w w) / (gamma_u + gamma_w)

    with Y = (gamma_u + gamma_w)^2 and X = (gamma_u u - gamma_w w)^2.
    Both operands must be strictly sub-luminal; u = w gives zero.
    """
    _check_same_frame(u, w)
    uc, wc = u.vector.components, w.vector.components
    gu = _gamma(u.vector.square(), u.c, u.luminal)
    gw = _gamma(w.vector.square(), w.c, w.luminal)
    diff = uc * float(gu) - wc * float(gw)
    k = diff * float(1.0 / (gu + gw))
    y = (gu + gw) * (gu + gw)
    (x,) = _pairings(u.space, (diff, diff))
    c2 = u.c * u.c
    denom = y - x / c2
    if denom <= 0.0:
        raise InternalConsistencyError(
            "velocity difference of sub-luminal inputs left the light cone")
    gv = (y + x / c2) / denom
    return Velocity3(_fresh(Vector, k * float((gv + 1.0) / gv), u.space), u.observer, u.c)


def acceleration_transform(v: Velocity3, u: Velocity3, a: Vector) -> Vector:
    """Acceleration in the frame moving at v, for a body at velocity u:

        a' = [a + (v.a)/(c^2 - v.u) (u - gamma_v v/(gamma_v+1))]
             / [gamma_v^2 (1 - v.u/c^2)^2].

    For v.u = 0 and a parallel to v this collapses to a' = a / gamma_v^3.
    Requires c^2 - v.u != 0; a result that overflows raises NonFiniteError.
    """
    _check_same_frame(v, u)
    same_space(v.vector, a)
    vc = v.vector.components
    vu, va = _pairings(v.space, (vc, u.vector.components), (vc, a.components))
    gv = _gamma(v.vector.square(), v.c, v.luminal)
    c2 = v.c * v.c
    denom = c2 - vu
    if abs(denom) <= v.space.tol_rel * c2:
        raise DegenerateDenominatorError("c^2 - v.u = 0; transform undefined")
    corr = u.vector - (gv / (gv + 1.0)) * v.vector
    numer = a + (va / denom) * corr
    result = (1.0 / (gv * gv * (1.0 - vu / c2) ** 2)) * numer
    _finite(result.components, "transformed acceleration")
    return result
