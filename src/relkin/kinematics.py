"""Lorentz-boost kinematics referred to explicit observers.

An observer is a future unit time-like vector P; a velocity it measures is a
spatial vector v with P.v = 0 and |v| < c (or exactly c when flagged
luminal).  Boosts are the bivector-generated isometries of P^vbar with
vbar = gamma v / c, and every coordinate statement below is the action of
such an operator written out in scalars.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
from .metric_core import (
    Endomorphism,
    MetricSpace,
    SimpleBivector,
    Vector,
    _frozen,
    _check_unit_timelike,
    idempotent_of,
    maxabs,
    same_space,
    scalar_product,
)

__all__ = [
    "EventCoordinates",
    "Observer",
    "TransformResult",
    "Velocity3",
    "acceleration_transform",
    "boost",
    "coordinate_transform",
    "einstein_transform",
    "event_coordinates",
    "event_vector",
    "gamma",
    "negate",
    "urbantke_velocity",
    "velocity_add",
    "velocity_subtract",
]

# Component index that decides time orientation in the ambient basis.
TIME_AXIS = 0


@dataclass(frozen=True, eq=False)
class Observer:
    """Future-directed unit time-like vector in a Lorentzian space.

    The time orientation convention is the sign of component 0 in the
    ambient basis.  The associated rank-one idempotent (the projector onto
    the observer's time axis) is cached.
    """

    vector: Vector

    def __post_init__(self):
        space = self.vector.space
        if not space.is_lorentzian:
            raise SpaceMismatchError("observers require a Lorentzian space")
        _check_unit_timelike(space, "observer square is {!r}, expected -1", self.vector)
        if self.vector.components[TIME_AXIS] <= 0.0:
            raise NotFutureDirectedError("observer must be future-directed")

    @property
    def space(self) -> MetricSpace:
        return self.vector.space

    @cached_property
    def idempotent(self) -> Endomorphism:
        return idempotent_of(self.vector)

    def rest_projection(self, e: Vector) -> Vector:
        """Spatial part (id - p) e of a vector in this observer's rest frame."""
        return e - self.idempotent.apply(e)

    def agrees_with(self, other: "Observer") -> bool:
        same_space(self.vector, other.vector)
        tol = self.space.tol_rel
        return maxabs(self.vector.components - other.vector.components) <= tol


@dataclass(frozen=True, eq=False)
class Velocity3:
    """Velocity measured by an observer: spatial, orthogonal to the observer.

    Strictly sub-luminal unless constructed with ``luminal=True``, in which
    case the magnitude must equal c to tolerance.
    """

    vector: Vector
    observer: Observer
    c: float = 1.0
    luminal: bool = False

    def __post_init__(self):
        space = same_space(self.vector, self.observer.vector)
        if self.c <= 0.0:
            raise SpaceMismatchError("c must be positive")
        _check_observed(space, self.observer.vector, self.vector,
                        "velocity not orthogonal to its observer (P.v = {!r})")
        v2 = self.vector.square()
        c2 = self.c * self.c
        if self.luminal:
            if abs(v2 - c2) > 1e3 * space.tol_rel * c2:
                raise SuperluminalError(
                    f"luminal velocity must have v.v = c^2, got {v2!r}")
        elif v2 >= c2:
            raise SuperluminalError(f"v.v = {v2!r} is not below c^2 = {c2!r}")

    @property
    def space(self) -> MetricSpace:
        return self.vector.space

    def speed(self) -> float:
        return float(np.sqrt(max(0.0, self.vector.square())))


def _check_observed(space: MetricSpace, p: Vector, v: Vector, message: str) -> None:
    """Raise NotObservedError, with ``message`` formatted with P.v, unless the
    velocity v is orthogonal to the observer vector P to the tolerance of
    ``space``."""
    ortho = scalar_product(p, v)
    if abs(ortho) > space.tol_abs * max(1.0, maxabs(v.components)):
        raise NotObservedError(message.format(ortho))


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
    """Primed coordinates of an event plus the invariant scalars that fix them."""

    t_prime: float
    x_prime: Vector
    scalars: tuple[float, float, float]


def event_coordinates(r: Observer, e: Vector, c: float = 1.0) -> EventCoordinates:
    """Decompose an event vector as e = c t R + x with x orthogonal to R."""
    same_space(r.vector, e)
    ct = -scalar_product(r.vector, e)
    return EventCoordinates(float(ct / c), r.rest_projection(e))


def event_vector(r: Observer, coords: EventCoordinates, c: float = 1.0) -> Vector:
    """Recompose an event vector from observer coordinates."""
    same_space(r.vector, coords.x)
    return float(c) * float(coords.t) * r.vector + coords.x


def gamma(v: Velocity3) -> float:
    """Time-dilation factor (1 - v.v/c^2)^(-1/2); infinite at the light cone."""
    if v.luminal:
        raise SuperluminalError("gamma is undefined for a luminal velocity")
    ratio = v.vector.square() / (v.c * v.c)
    if ratio >= 1.0:
        raise SuperluminalError(f"v.v/c^2 = {ratio!r} is not below 1")
    return float(1.0 / np.sqrt(1.0 - ratio))


def boost(p: Observer, v: Velocity3) -> Isometry:
    """Boost taking the observer P to the worldline moving at v, written

        L = id - (gamma-1) P (x) gP + gamma (P (x) g(v/c) - (v/c) (x) gP)
               + gamma^2/(gamma+1) v (x) gv / c^2.

    Generated by P^vbar; L P = gamma (P + v/c), and the inverse is the boost
    of -v.  Requires P.v = 0.
    """
    space = same_space(p.vector, v.vector)
    _check_observed(space, p.vector, v.vector, "boost requires a velocity orthogonal to P")
    gam = gamma(v)
    g = space.g
    pc = p.vector.components
    vc = v.vector.components / v.c
    ent = (np.eye(space.dim)
           - (gam - 1.0) * np.outer(pc, g @ pc)
           + gam * (np.outer(pc, g @ vc) - np.outer(vc, g @ pc))
           + (gam * gam / (gam + 1.0)) * np.outer(vc, g @ vc))
    # The generator's spatial leg is vbar = gamma v / c.
    return Isometry(Endomorphism(_frozen(ent), space),
                    SimpleBivector(p.vector, (gam / v.c) * v.vector), gam)


def coordinate_transform(r: Observer, p: Observer, v: Velocity3,
                         e: Vector) -> TransformResult:
    """Coordinates of an event for the observer reached from P by velocity v.

    With (c t, x) the coordinates of e relative to R, the primed coordinates
    are obtained from the two scalars

        nu(e) = c t {(gamma-1) P.R + vbar.R} + vbar.x + (gamma-1) P.x
        xi(e) = c t {P.R + vbar.R/(gamma+1)} + vbar.x/(gamma+1) + P.x

    via  c t' = c t + R.D  and  x' = x - (id - r) D,  D = nu(e) P - xi(e) vbar.
    (D is e minus the inverse boost of e, so intervals are preserved by
    construction.)  Also returns the scalars (P.R, R.v, P.x).
    """
    space = same_space(r.vector, p.vector, v.vector, e)
    _check_observed(space, p.vector, v.vector,
                    "transform requires a velocity orthogonal to P")
    gam = gamma(v)
    vbar = (gam / v.c) * v.vector
    ct = -scalar_product(r.vector, e)
    x = r.rest_projection(e)

    pr = scalar_product(p.vector, r.vector)
    vbr = scalar_product(vbar, r.vector)
    vbx = scalar_product(vbar, x)
    px = scalar_product(p.vector, x)

    nu_e = ct * ((gam - 1.0) * pr + vbr) + vbx + (gam - 1.0) * px
    xi_e = ct * (pr + vbr / (gam + 1.0)) + vbx / (gam + 1.0) + px
    delta = nu_e * p.vector - xi_e * vbar

    ct_prime = ct + scalar_product(r.vector, delta)
    x_prime = x - r.rest_projection(delta)
    rv = scalar_product(r.vector, v.vector)
    return TransformResult(float(ct_prime / v.c), x_prime,
                           (float(pr), float(rv), float(px)))


def einstein_transform(r: Observer, v: Velocity3,
                       e: Vector) -> tuple[float, Vector]:
    """Textbook boost of event coordinates for a velocity seen by R itself:

        t' = gamma (t - v.x/c^2)
        x' = x + gamma^2/(gamma+1) (v.x/c^2) v - gamma v t.
    """
    space = same_space(r.vector, v.vector, e)
    _check_observed(space, r.vector, v.vector,
                    "einstein transform requires R to observe v")
    gam = gamma(v)
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
    if abs(t + t_prime) <= x.space.tol_abs * max(1.0, abs(t), abs(t_prime)):
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
    gam = gamma(v)
    c2 = v.c * v.c
    vu = scalar_product(v.vector, u.vector)
    first = (1.0 / (gam * (1.0 + vu / c2))) * (u.vector + gam * v.vector)
    w = first + (gam / (gam + 1.0)) * (vu / (c2 + vu)) * v.vector

    alt_first = (1.0 / (1.0 + vu / c2)) * (u.vector + v.vector)
    alt_tail = (gam / (gam + 1.0)) * (1.0 / (c2 + vu)) * (
        vu * v.vector - v.vector.square() * u.vector)
    w_alt = alt_first + alt_tail
    defect = maxabs(w.components - w_alt.components)
    if defect > 1e2 * u.space.tol_rel * max(1.0, maxabs(w.components)):
        raise InternalConsistencyError(
            f"the two composition forms disagree by {defect:.3e}")
    return Velocity3(w, u.observer, u.c, luminal=u.luminal)


def velocity_subtract(u: Velocity3, w: Velocity3) -> Velocity3:
    """The unique v with w = u (+) (-v), recovered in closed form:

        gamma_v = (Y + X/c^2) / (Y - X/c^2)
        gamma_v v / (gamma_v + 1) = (gamma_u u - gamma_w w) / (gamma_u + gamma_w)

    with Y = (gamma_u + gamma_w)^2 and X = (gamma_u u - gamma_w w)^2.
    Both operands must be strictly sub-luminal; u = w gives zero.
    """
    _check_same_frame(u, w)
    gu = gamma(u)
    gw = gamma(w)
    k = (1.0 / (gu + gw)) * (gu * u.vector - gw * w.vector)
    y = (gu + gw) ** 2
    x = (gu * u.vector - gw * w.vector).square()
    denom = y - x / (u.c * u.c)
    if denom <= 0.0:
        raise InternalConsistencyError(
            "velocity difference of sub-luminal inputs left the light cone")
    gv = (y + x / (u.c * u.c)) / denom
    v = ((gv + 1.0) / gv) * k
    return Velocity3(v, u.observer, u.c)


def acceleration_transform(v: Velocity3, u: Velocity3, a: Vector) -> Vector:
    """Acceleration in the frame moving at v, for a body at velocity u:

        a' = [a + (v.a)/(c^2 - v.u) (u - gamma_v v/(gamma_v+1))]
             / [gamma_v^2 (1 - v.u/c^2)^2].

    For v.u = 0 and a parallel to v this collapses to a' = a / gamma_v^3.
    Requires c^2 - v.u != 0.
    """
    _check_same_frame(v, u)
    same_space(v.vector, a)
    gv = gamma(v)
    c2 = v.c * v.c
    vu = scalar_product(v.vector, u.vector)
    denom = c2 - vu
    if abs(denom) <= v.space.tol_rel * c2:
        raise DegenerateDenominatorError("c^2 - v.u = 0; transform undefined")
    va = scalar_product(v.vector, a)
    corr = u.vector - (gv / (gv + 1.0)) * v.vector
    numer = a + (va / denom) * corr
    return (1.0 / (gv * gv * (1.0 - vu / c2) ** 2)) * numer
