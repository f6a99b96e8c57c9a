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
from .kernels import is_null, maxabs_rows, pairing_rows, velocity_sum, within
from .metric_core import (
    Endomorphism,
    MetricSpace,
    SimpleBivector,
    Vector,
    _check_c,
    _finite,
    _fresh,
    _check_unit_timelike,
    _pairings,
    idempotent_of,
    maxabs,
    same_space,
    scalar_product,
)

__all__ = _EXPORTS["kinematics"]

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
        _check_unit_timelike(space, "observer square is {!r}, expected -1",
                             self.vector.square())
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
        if other is self:
            return True
        same_space(self.vector, other.vector)
        tol = self.space.tol_rel
        return within(maxabs(self.vector.components - other.vector.components), tol)


@dataclass(frozen=True, eq=False)
class Velocity3:
    """Velocity measured by an observer: spatial, orthogonal to the observer.

    Strictly sub-luminal unless constructed with ``luminal=True``, in which
    case v.v must equal c^2 within 2e2 tol_rel c^2, so that its speed stays
    within c (1 + 1e2 tol_rel).  c must be positive and finite.
    """

    vector: Vector
    observer: Observer
    c: float = 1.0
    luminal: bool = False

    def __post_init__(self):
        space = same_space(self.vector, self.observer.vector)
        _check_c(self.c)
        v2 = _observed_square(space, self.observer.vector, self.vector,
                              "velocity not orthogonal to its observer (P.v = {!r})")
        c2 = self.c * self.c
        if self.luminal:
            if not within(abs(v2 - c2), 2e2 * space.tol_rel * c2):
                raise SuperluminalError(
                    f"luminal velocity must have v.v = c^2, got {v2!r}")
        elif v2 >= c2:
            raise SuperluminalError(f"v.v = {v2!r} is not below c^2 = {c2!r}")

    @property
    def space(self) -> MetricSpace:
        return self.vector.space

    def speed(self) -> float:
        return float(np.sqrt(max(0.0, self.vector.square())))


def _observed_square(space: MetricSpace, p: Vector, v: Vector, message: str) -> float:
    """v.v, once v is orthogonal to the observer vector P to the tolerance of
    ``space``; raises NotObservedError, ``message`` formatted with P.v, otherwise."""
    (ortho,) = _pairings(space, (v.components, p.components))
    if not within(abs(ortho), space.tol_abs, maxabs(v.components)):
        raise NotObservedError(message.format(ortho))
    return v.square()


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
    if ratio >= 1.0:
        raise SuperluminalError(f"v.v/c^2 = {ratio!r} is not below 1")
    return float(1.0 / np.sqrt(1.0 - ratio))


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

        max|L P - gamma (P + v/c)|   within 1e2 tol_rel max(1, gamma),
        max|L L(-v) - id|            within 1e2 tol_rel.

    A residual beyond its bound, or NaN, raises InternalConsistencyError.
    """
    space = same_space(p.vector, v.vector)
    gam = _gamma(_observed_square(space, p.vector, v.vector,
                                  "boost requires a velocity orthogonal to P"),
                 v.c, v.luminal)
    ent, inverse = _boost_entries(p, v, gam)
    # The generator's spatial leg is vbar = gamma v / c.
    op = Isometry(_fresh(Endomorphism, ent, space),
                  SimpleBivector(p.vector, (gam / v.c) * v.vector), gam)
    pc = p.vector.components
    target = (pc + v.vector.components * (1.0 / v.c)) * gam
    observer_residual = maxabs(ent @ pc - target)
    inverse_residual = maxabs(ent @ inverse - space.eye)
    tol = 1e2 * space.tol_rel
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
    intervals; intervals that differ by more than 1e2 tol_rel max(1, |before|),
    or by NaN, raise InternalConsistencyError.
    """
    space = same_space(r.vector, p.vector, v.vector, e)
    gam = _gamma(_observed_square(space, p.vector, v.vector,
                                  "transform requires a velocity orthogonal to P"),
                 v.c, v.luminal)
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
    if not within(abs(before - after), 1e2 * space.tol_rel, abs(before)):
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
    gam = _gamma(_observed_square(space, r.vector, v.vector,
                                  "einstein transform requires R to observe v"),
                 v.c, v.luminal)
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
    defect = maxabs(gap)
    if not within(defect, 1e2 * u.space.tol_rel, maxabs(w)):
        raise InternalConsistencyError(
            f"the two composition forms disagree by {defect:.3e}")
    return Velocity3(_fresh(Vector, w, u.space), u.observer, u.c, luminal=u.luminal)


def _observer_rows(space: MetricSpace, rows):
    """A mask of the stacked vectors ``rows`` that ``Observer`` accepts: unit
    time-like and future-directed in a Lorentzian ``space``."""
    unit = within(np.abs(pairing_rows(space.g, rows, rows) + 1.0), space.tol_rel)
    return unit & (rows[:, TIME_AXIS] > 0.0) & space.is_lorentzian


def _rest_rows(space: MetricSpace, pc, rows):
    """``Observer.rest_projection`` of the stacked vectors ``rows`` for the
    observer rows ``pc``, through the stacked idempotents, bit for bit, and a
    mask of the rows whose idempotent ``idempotent_of`` forms (P not null)."""
    pp = pairing_rows(space.g, pc, pc)
    gp = np.matmul(space.g, pc[:, :, None])[:, :, 0]
    proj = pc[:, :, None] * gp[:, None, :] / pp[:, None, None]
    rest = rows - np.matmul(proj, rows[:, :, None])[:, :, 0]
    return rest, ~is_null(pp, maxabs_rows(pc), space.tol_abs)


def _accepted_rows(space: MetricSpace, pc, rows, c, luminal: bool = False):
    """A mask of the stacked vectors ``rows`` that ``Velocity3(row, P, c,
    luminal)`` accepts, for the observer components ``pc`` (one vector or one
    row per vector) and a speed ceiling ``c`` (a float or an (N, 1) column).
    A row with a non-finite entry, which ``MetricSpace.vector`` refuses, is
    False: its bound is infinite or its pairing NaN."""
    g, c2 = space.g, np.reshape(c * c, -1)
    seen = within(abs(pairing_rows(g, rows, pc)), space.tol_abs, maxabs_rows(rows))
    v2 = pairing_rows(g, rows, rows)
    if luminal:
        return seen & within(abs(v2 - c2), 2e2 * space.tol_rel * c2)
    return seen & ~(v2 >= c2)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _velocity_add_rows(space: MetricSpace, pc, u, v, c, luminal: bool = False):
    """``velocity_add`` of stacked velocities seen by the observer
    components ``pc`` with speed ceiling ``c``, as for :func:`_accepted_rows`,
    given as the rows of ``u`` (luminal when ``luminal``) and of the
    sub-luminal ``v``: the rows of u (+) v, bit for bit, and a mask of the
    rows whose sum ``velocity_add`` returns.  A row it would refuse, with any
    error, is False; the other rows do not depend on it."""
    g, c2 = space.g, c * c
    vv, vu = pairing_rows(g, v, v)[:, None], pairing_rows(g, v, u)[:, None]
    ratio = vv / c2
    w, gap = velocity_sum(u, v, vv, vu, 1.0 / np.sqrt(1.0 - ratio), c2)
    ok = ~(ratio[:, 0] >= 1.0) & within(maxabs_rows(gap), 1e2 * space.tol_rel,
                                        maxabs_rows(w))
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
