"""Executable property suites behind the ``check`` command.

Each property draws seeded samples, evaluates one contract of the library
and reports a figure of merit against its tolerance.  Objects are built in
spaces with the default construction tolerances; the configured ``tol_rel``
only decides pass or fail.  A failure whose residual still sits below
``NUMERICAL_FLOOR`` is flagged tolerance-induced: it signals a tolerance
tighter than double precision rather than a wrong formula.

The properties form one ordered table, ``_PROPERTIES``.  Most rows give a
per-draw body that :func:`_sweep` runs over a family of spaces; the few
irregular properties give a whole-property body instead.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import groupoid as grp
from . import isometry as iso
from . import kinematics as kin
from . import linker as lnk
from .errors import (DrawsExhaustedError, InternalConsistencyError, NotIsomagnitudeError,
                     RelkinError)
from .isometry import operator_classes as _clusters
from .metric_core import (
    SimpleBivector,
    bivector_product,
    contract,
    idempotent_of,
    lie_map,
    maxabs,
    represent_sl2,
    scalar_product,
)
from .sampling import (
    _MAX_TRIES,
    SIGNATURES,
    make_space,
    random_admissible_bivector,
    random_link_triple,
    random_nonnull_vector,
    random_observed_velocity,
    random_observer,
    random_stabilizer_bivector,
    random_vector,
    rng_for,
)

__all__ = ["PropertyResult", "link_ray_scan", "run_all", "NUMERICAL_FLOOR"]

# Residuals below this are attributable to double-precision rounding alone.
NUMERICAL_FLOOR = 1e-8

_FIXTURE_DIMS = (2, 3, 4, 5, 6)

_DISTINCT_CUT = 1e-6  # scan links closer than this in every entry count as one


@dataclass(frozen=True)
class PropertyResult:
    """Outcome of one property suite."""

    name: str
    samples: int
    max_residual: float
    tolerance: float
    passed: bool
    tolerance_induced: bool
    detail: dict = field(default_factory=dict)
    id: int = 0


def _nan_max(first, *rest):
    """``max(first, *rest)``, except that a NaN operand wins (``max(0.0, nan)``
    is 0.0)."""
    for value in rest:
        if value > first or value != value:
            first = value
    return first


def _nan_min(first, *rest):
    """``min(first, *rest)``, except that a NaN operand wins."""
    for value in rest:
        if value < first or value != value:
            first = value
    return first


# kind -> (fold over draws, start value, pass test against the tolerance).
# A residual or a failure count stays within the tolerance, a bound stays
# strictly below it, and a witness's smallest margin must exceed it.  The
# folds propagate NaN, and every pass test is false for NaN.
_KINDS = {
    "residual": (_nan_max, 0.0, operator.le),
    "count": (operator.add, 0.0, operator.le),
    "bound": (_nan_max, 0.0, operator.lt),
    "witness": (_nan_min, np.inf, operator.gt),
}


@dataclass(frozen=True)
class _Row:
    """One property of the suite.

    ``body(space, rng)`` returns one draw's value, ``None`` to skip the draw,
    or, for rows with ``detail``, a pair whose second value is also reported
    under that name.  A ``whole`` row's ``body(ctx, rng, judge)`` runs the
    property itself and returns ``judge(samples, value, detail)``.
    """

    name: str
    body: Callable
    family: str = "all"
    draws: Callable[[int], int] = lambda samples: samples
    tol: float = 1e2  # multiple of tol_rel
    fixed_tol: float | None = None  # absolute tolerance in place of ``tol``
    kind: str = "residual"
    detail: str | None = None
    whole: bool = False


@dataclass(frozen=True)
class _Ctx:
    seed: int
    tol_rel: float
    samples: int
    families: dict


def _quarter(samples):
    return max(5, samples // 4)


def _sweep(spaces, draws, rng, body, kind="residual"):
    """Fold ``body(space, rng)`` over ``draws`` draws in each space.

    Returns the folded value, the folded second values of pair-valued bodies,
    and the number of draws that were not skipped.
    """
    fold, first, _ = _KINDS[kind]
    second = first
    n = 0
    for space in spaces:
        for _ in range(draws):
            value = body(space, rng)
            if value is None:
                continue
            if isinstance(value, tuple):
                value, extra = value
                second = fold(second, extra)
            first = fold(first, value)
            n += 1
    return first, second, n


def _gap(a, b):
    """Max-abs distance between the components of two vectors."""
    return maxabs(a.components - b.components)


def _relative_gap(a, target):
    return _gap(a, target) / max(1.0, maxabs(target.components))


def _identity_gap(first, second):
    """Max-abs distance of ``first`` after ``second`` from the identity."""
    return maxabs((first.mapping @ second.mapping).entries
                  - np.eye(first.mapping.entries.shape[0]))


def _observed(space, rng):
    """An observer, a speed ceiling c and a velocity the observer sees."""
    p = random_observer(space, rng)
    c = float(rng.uniform(0.5, 3.0))
    return p, c, random_observed_velocity(p, rng, c)


def _rest(space):
    return kin.Observer(space.vector([1.0, 0.0, 0.0, 0.0]))


def _associator(a, b, c):
    left = kin.velocity_add(kin.velocity_add(a, b), c).vector
    return _gap(left, kin.velocity_add(a, kin.velocity_add(b, c)).vector)


def _sl2_draw(b, rng):
    """Another presentation of ``b``, or None when the draw is ill-conditioned."""
    a, bb, c = rng.normal(size=3)
    if abs(a) < 0.1:
        return None
    e = (1.0 + bb * c) / a
    if abs(e) > 10.0:
        return None
    return represent_sl2(b, a, bb, c, e)


def _scalar_symmetry(space, rng):
    a = random_vector(space, rng)
    b = random_vector(space, rng)
    return abs(scalar_product(a, b) - scalar_product(b, a))


def _sl2_magnitude(space, rng):
    b = random_admissible_bivector(space, rng)
    b2 = _sl2_draw(b, rng)
    if b2 is None:
        return None
    m1, m2 = b.square(), b2.square()
    return abs(m1 - m2) / max(1.0, abs(m1))


def _contract_identity(space, rng):
    _, c, v = _observed(space, rng)
    u = random_vector(space, rng)
    g = kin.gamma(v)
    lhs = scalar_product(v.vector, u) * v.vector
    rhs = (contract(v.vector, SimpleBivector(u, v.vector))
           + (c * c) * (1.0 - 1.0 / (g * g)) * u)
    return _gap(lhs, rhs)


def _idempotent(space, rng):
    proj = idempotent_of(random_nonnull_vector(space, rng))
    return _nan_max(maxabs((proj @ proj).entries - proj.entries),
                    abs(proj.trace() - 1.0))


def _lie_skew(space, rng):
    m = lie_map(random_admissible_bivector(space, rng)).entries
    gm = space.g @ m
    return _nan_max(maxabs(gm + gm.T), abs(np.trace(m)))


def _isometry_residual(space, rng):
    op = iso.isometry_from_bivector(random_admissible_bivector(space, rng))
    u = random_vector(space, rng)
    v = random_vector(space, rng)
    return (iso.isometry_residual(op.mapping),
            abs(scalar_product(op.apply(u), op.apply(v)) - scalar_product(u, v)))


def _isometry_inverse(space, rng):
    b = random_admissible_bivector(space, rng)
    return _identity_gap(iso.isometry_from_bivector(b),
                         iso.isometry_from_bivector(b.reversed()))


def _presentation_independence(space, rng):
    b = random_admissible_bivector(space, rng)
    b2 = _sl2_draw(b, rng)
    if b2 is None:
        return None
    return iso.isometry_from_bivector(b).distance(iso.isometry_from_bivector(b2))


def _action_formulas(space, rng):
    b = random_admissible_bivector(space, rng)
    p, q = b.first, b.second
    op = iso.isometry_from_bivector(b)
    gam = op.gamma
    pq = scalar_product(p, q)
    m2 = b.square()
    lp = (1.0 + pq - m2 / (gam + 1.0)) * p - p.square() * q
    lq = (1.0 - pq - m2 / (gam + 1.0)) * q + q.square() * p
    return _nan_max(_gap(op.apply(p), lp), _gap(op.apply(q), lq))


def _reflection(space, rng):
    p = random_nonnull_vector(space, rng)
    ref = iso.reflection(p)
    return _nan_max(_identity_gap(ref, ref), _relative_gap(ref.apply(p), -p))


def _reflection_link(space, rng):
    problem = random_link_triple(space, rng)
    r, s = problem.R, problem.S
    return _relative_gap(iso.reflection(r - s).apply(r), s)


def _annihilating_cubic(ctx, rng, judge):
    def sample(space, rng):
        op = iso.isometry_from_bivector(random_admissible_bivector(space, rng))
        return iso.minimal_poly_residual(op)

    worst, _, n = _sweep(ctx.families["all"], ctx.samples, rng, sample)
    space = make_space(2, "euclidean")
    fixture = iso.isometry_from_bivector(
        SimpleBivector(space.vector([1.0, 0.0]), space.vector([0.0, 0.6])))
    res_main = iso.minimal_poly_residual(fixture)
    res_alt = iso.minimal_poly_residual_alt(fixture)
    result = judge(n, worst, {"fixture_residual": res_main,
                              "fixture_residual_alt": res_alt})
    # The variant factor must visibly fail on the rotation fixture.
    if res_alt <= 1e-3:
        return replace(result, passed=False, tolerance_induced=False)
    return result


def _covector_reconstruction(space, rng):
    b = random_admissible_bivector(space, rng)
    alpha, beta = iso.covector_pair(b)
    rebuilt = (np.eye(space.dim)
               - np.outer(b.first.components, alpha.components)
               - np.outer(b.second.components, beta.components))
    return maxabs(rebuilt - iso.isometry_from_bivector(b).mapping.entries)


def _stabilizer_dressing(space, rng):
    problem = random_link_triple(space, rng)
    r, s = problem.R, problem.S
    if r.is_null(1e-3) or s.is_null(1e-3):
        return None
    link = lnk.p_link(problem)
    kr = iso.stabilizer_element(r, random_stabilizer_bivector(r, rng))
    ks = iso.stabilizer_element(s, random_stabilizer_bivector(s, rng))
    return _relative_gap(ks.compose(link).compose(kr).apply(r), s)


def _link_solves(space, rng):
    problem = random_link_triple(space, rng)
    r, s, p = problem.R, problem.S, problem.P
    link = lnk.p_link(problem)
    solved = _relative_gap(link.apply(r), s)
    mu = lnk.mu_scalar(problem)
    mps = mu * scalar_product(p, s)
    ls = 2.0 * mps * s + (1.0 - 2.0 * mps) * r - (r - s).square() * mu * p
    return solved, _relative_gap(link.apply(s), ls)


def _link_pure(space, rng):
    r = random_nonnull_vector(space, rng)
    p = random_vector(space, rng)
    link = lnk.p_link(lnk.LinkProblem(r, r, p))
    return maxabs(link.mapping.entries - np.eye(space.dim))


def _planar_collapse(space, rng):
    problem = random_link_triple(space, rng)
    r, s = problem.R, problem.S
    if r.is_null(1e-3) or s.is_null(1e-3) or abs((r + s).square()) < 1e-3:
        return None
    planar = lnk.planar_link(r, s)
    a, b = rng.normal(size=2)
    p = a * r + b * s
    candidate = lnk.LinkProblem(r, s, p)
    flags = lnk.admissibility(candidate)
    if not (flags.generic and flags.p_transversal):
        return None
    if abs(scalar_product(p, r + s)) < 1e-2 or abs(flags.denominator) < 1e-2:
        return None
    return lnk.p_link(candidate).distance(planar)


def _nonuniqueness(ctx, rng, judge):
    space = ctx.families["mink4"][0]
    r = space.vector([1.0, 0.0, 0.0, 0.0])
    s = space.vector([1.25, 0.75, 0.0, 0.0])
    scan = link_ray_scan(r, s, seed=ctx.seed, n_general=100, n_planar=10)
    ok = (scan["distinct_links"] >= 99
          and scan["pair_fraction_above_cut"] >= 0.99
          and scan["planar_cluster"] == 1)
    result = judge(100, scan["distinct_links"],
                   {k: scan[k] for k in ("distinct_links", "planar_cluster",
                                         "pair_fraction_above_cut",
                                         "gamma_min", "gamma_max")})
    return replace(result, passed=bool(ok))


def _magnitude_separation(space, rng):
    r = random_nonnull_vector(space, rng)
    s = random_nonnull_vector(space, rng)
    if abs(r.square() - s.square()) < 1e-3 * max(1.0, abs(r.square())):
        return None
    try:
        lnk.LinkProblem(r, s, random_vector(space, rng))
    except NotIsomagnitudeError:
        return 0.0
    return 1.0


def _reciprocal_presentation(space, rng):
    problem = random_link_triple(space, rng)
    r, s, p = problem.R, problem.S, problem.P
    d = r - s
    if p.is_null(1e-3) or abs(d.square()) < 1e-3:
        return None
    mu = lnk.mu_scalar(problem)
    lhs = SimpleBivector(mu * p, d)
    reflected = p - (scalar_product(d, p) / d.square()) * d
    rhs = SimpleBivector(mu * reflected, d)
    rest = d - idempotent_of(p).apply(d)
    wedge2 = bivector_product(SimpleBivector(p, d), SimpleBivector(p, d))
    return _nan_max(maxabs(lhs.components() - rhs.components())
                    / max(1.0, maxabs(lhs.components())),
                    abs(rest.square() - wedge2 / p.square()) / max(1.0, abs(wedge2)))


def _gamma_formula(ctx, rng, judge):
    def triple(space, rng):
        problem = random_link_triple(space, rng)
        link = lnk.p_link(problem)
        return abs(lnk.gamma_of_link(problem) - abs(link.gamma))

    def observers(space, rng):
        p = random_observer(space, rng)
        q = random_observer(space, rng)
        if _gap(p.vector, q.vector) < 1e-3:
            return None
        problem = lnk.LinkProblem(p.vector, q.vector)
        return abs(lnk.gamma_of_link(problem)
                   - abs(scalar_product(p.vector, q.vector)))

    links, _, n_links = _sweep(ctx.families["all"], ctx.samples, rng, triple)
    obs, _, n_obs = _sweep(ctx.families["mink4"], ctx.samples, rng, observers)
    return judge(n_links + n_obs, _nan_max(links, obs))


def _boost_reciprocity(space, rng):
    p, _, v = _observed(space, rng)
    return _identity_gap(kin.boost(p, v), kin.boost(p, kin.negate(v)))


def _boost_generator(space, rng):
    p, c, v = _observed(space, rng)
    op = kin.boost(p, v)
    gam = kin.gamma(v)
    vbar = (gam / c) * v.vector
    generated = iso.isometry_from_bivector(SimpleBivector(p.vector, vbar))
    target = gam * (p.vector + (1.0 / c) * v.vector)
    return _nan_max(op.distance(generated), _gap(op.apply(p.vector), target))


def _observer_family(ctx, rng, judge):
    space = ctx.families["mink4"][0]
    c = 1.0
    base = random_observer(space, rng)
    v = random_observed_velocity(base, rng, c)
    # Two-parameter family of observers that all see the same velocity vector.
    t = space.vector([1.0, 0.0, 0.0, 0.0])
    vv = v.vector
    t_perp = t - (scalar_product(t, vv) / vv.square()) * vv
    t_hat = (1.0 / np.sqrt(-t_perp.square())) * t_perp
    ys = []
    for i in range(4):
        cand = space.basis_vector(i)
        for prev in [vv, t_hat] + ys:
            cand = cand - (scalar_product(cand, prev) / prev.square()) * prev
        if abs(cand.square()) > 1e-8:
            ys.append((1.0 / np.sqrt(abs(cand.square()))) * cand)
        if len(ys) == 2:
            break

    def residual(chi, phi):
        direction = float(np.cos(phi)) * ys[0] + float(np.sin(phi)) * ys[1]
        cand = float(np.cosh(chi)) * t_hat + float(np.sinh(chi)) * direction
        if cand.components[0] < 0.0:
            cand = -cand
        p = kin.Observer(cand)
        vel = kin.Velocity3(vv, p, c)
        op = kin.boost(p, vel)
        return _gap(op.apply(p.vector), kin.gamma(vel) * (p.vector + (1.0 / c) * vv))

    residuals = [residual(chi, phi) for chi in np.linspace(0.0, 1.2, 5)
                 for phi in np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)]
    return judge(len(residuals), _nan_max(0.0, *residuals))


def _interval_invariance(space, rng):
    r = random_observer(space, rng)
    p, c, v = _observed(space, rng)
    e = random_vector(space, rng, scale=2.0)
    res = kin.coordinate_transform(r, p, v, e)
    before = -(c * c) * (-scalar_product(r.vector, e) / c) ** 2 \
        + r.rest_projection(e).square()
    after = -(c * c) * res.t_prime ** 2 + res.x_prime.square()
    return abs(before - after) / max(1.0, abs(before))


def _transform_cross_check(ctx, rng, judge):
    def against_boost(space, rng):
        r = random_observer(space, rng)
        p, c, v = _observed(space, rng)
        e = random_vector(space, rng, scale=2.0)
        res = kin.coordinate_transform(r, p, v, e)
        moved = kin.boost(p, kin.negate(v)).apply(e)
        ct_ref = -scalar_product(r.vector, moved)
        return _nan_max(abs(res.t_prime - ct_ref / c),
                        _gap(res.x_prime, r.rest_projection(moved)))

    def against_einstein(space, rng):
        r, c, v = _observed(space, rng)
        e = random_vector(space, rng, scale=2.0)
        res = kin.coordinate_transform(r, r, v, e)
        t_e, x_e = kin.einstein_transform(r, v, e)
        worst = _nan_max(abs(res.t_prime - t_e), _gap(res.x_prime, x_e))
        coords = kin.event_coordinates(r, e, c)
        if abs(coords.t + t_e) > 1e-3:
            recovered = kin.urbantke_velocity(coords.t, coords.x, t_e, x_e, c)
            worst = _nan_max(worst, _gap(recovered, v.vector))
        return worst

    mink4 = ctx.families["mink4"]
    boosted, _, n_boost = _sweep(mink4, ctx.samples, rng, against_boost)
    einstein, _, n_einstein = _sweep(mink4, ctx.samples, rng, against_einstein)
    return judge(n_boost + n_einstein, _nan_max(boosted, einstein))


def _lightspeed_closure(space, rng):
    p, c, v = _observed(space, rng)
    ray = random_observed_velocity(p, rng, c, beta_min=0.5)
    photon = kin.Velocity3((c / ray.speed()) * ray.vector, p, c, luminal=True)
    return abs(kin.velocity_add(photon, v).speed() - c) / c


def _nonassociativity(ctx, rng, judge):
    space = ctx.families["mink4"][0]
    obs = _rest(space)
    u, v, w = [kin.Velocity3(space.vector(comps), obs, 1.0)
               for comps in ([0.0, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.0],
                             [0.0, 0.0, 0.0, 0.5])]

    def rotated(space, rng):
        # Random spatial rotation of the whole configuration.
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        rot = np.eye(4)
        rot[1:, 1:] = q
        a, b = [kin.Velocity3(space.vector(rot @ x.vector.components), obs, 1.0)
                for x in (u, v)]
        return (_associator(a, b, a),
                _gap(kin.velocity_add(a, b).vector, kin.velocity_add(b, a).vector))

    # A mutually orthogonal triple composes associatively: the rotation
    # induced by the first two legs acts trivially out of their plane.  The
    # working witness keeps the third leg inside that plane.
    orthogonal_associator = _associator(u, v, w)
    assoc, order, n = _sweep((space,), 100, rng, rotated, "witness")
    return judge(n, _nan_min(order, assoc),
                 {"orthogonal_triple_associator": orthogonal_associator,
                  "in_plane_associator_min": float(assoc),
                  "order_discrepancy_min": float(order)})


def _thomas_composition(space, rng):
    p = random_observer(space, rng)
    v1 = random_observed_velocity(p, rng, 1.0, beta_min=0.3)
    v2 = random_observed_velocity(p, rng, 1.0, beta_min=0.3)
    if maxabs(np.cross(v1.vector.components[1:], v2.vector.components[1:])) < 0.05:
        return None
    composite = kin.boost(p, v1).compose(kin.boost(p, v2))
    return composite.distance(kin.boost(p, kin.velocity_add(v2, v1)))


def _planar_identity(space, rng):
    p, c, v = _observed(space, rng)
    gam = kin.gamma(v)
    vbar = (gam / c) * v.vector
    beta = float(rng.uniform(-0.5, 0.5))
    alpha = float(np.sqrt(1.0 + beta * beta * vbar.square()))
    r_vec = alpha * p.vector + beta * vbar
    if r_vec.components[0] <= 0.0:
        return None
    r = kin.Observer(r_vec)
    x = r.rest_projection(random_vector(space, rng, scale=2.0))
    rv = scalar_product(r.vector, vbar)
    lhs = (rv * rv + gam * gam - 1.0) * scalar_product(p.vector, x)
    rhs = scalar_product(p.vector, r.vector) * rv * scalar_product(x, vbar)
    return abs(lhs - rhs) / max(1.0, abs(lhs))


def _acceleration_identities(space, rng):
    p, c, v = _observed(space, rng)
    u = random_observed_velocity(p, rng, c)
    a = p.rest_projection(random_vector(space, rng))
    gam = kin.gamma(v)
    c2 = c * c
    va = scalar_product(v.vector, a)
    vu = scalar_product(v.vector, u.vector)
    lhs1 = (gam / (gam + 1.0)) * (va * v.vector
                                  - contract(v.vector, SimpleBivector(a, v.vector)))
    lhs2 = c2 * ((gam * gam - 1.0) / (gam * gam)) * (va * u.vector - vu * a)
    rhs2 = (vu * contract(v.vector, SimpleBivector(a, v.vector))
            - va * contract(v.vector, SimpleBivector(u.vector, v.vector)))
    a_par = (va / v.vector.square()) * v.vector
    lhs3 = kin.acceleration_transform(v, kin.Velocity3(
        space.zero_vector(), p, c), a_par)
    return _nan_max(_gap(lhs1, c2 * (1.0 - 1.0 / gam) * a), _gap(lhs2, rhs2),
                    _gap(lhs3, (1.0 / gam ** 3) * a_par))


def _velocity_roundtrip(space, rng):
    p, c, u = _observed(space, rng)
    v = random_observed_velocity(p, rng, c)
    back = kin.velocity_subtract(u, kin.velocity_add(u, kin.negate(v)))
    return _nan_max(_gap(back.vector, v.vector), abs(kin.gamma(back) - kin.gamma(v)))


def _groupoid_axioms(space, rng):
    objs = [grp.ObserverObject(random_observer(space, rng), label=f"o{i}")
            for i in range(8)]
    chain = [grp.hom(objs[i], objs[i + 1]) for i in range(len(objs) - 1)]
    left = chain[0]
    for nxt in chain[1:]:
        left = grp.compose(nxt, left)
    right = chain[-1]
    for prev in reversed(chain[:-1]):
        right = grp.compose(right, prev)
    direct = grp.hom(objs[0], objs[-1])
    ident = grp.hom(objs[0], objs[0])
    loop = grp.compose(grp.hom(objs[1], objs[0]), grp.hom(objs[0], objs[1]))
    return float(sum((not (left.same_arrow(right) and left.same_arrow(direct)),
                      maxabs(ident.velocity.components) != 0.0,
                      maxabs(loop.velocity.components) != 0.0)))


def _groupoid_subluminal(space, rng):
    p = grp.ObserverObject(random_observer(space, rng))
    q = grp.ObserverObject(random_observer(space, rng))
    c = float(rng.uniform(0.5, 3.0))
    return grp.hom(p, q, c).velocity.square() / (c * c)


def _groupoid_functoriality(space, rng):
    obs_p = random_observer(space, rng)
    obs_q = random_observer(space, rng)
    h1 = grp.hom(grp.ObserverObject(obs_p, "a"), grp.ObserverObject(obs_q, "b"))
    h2 = grp.hom(grp.ObserverObject(obs_p, "renamed"), grp.ObserverObject(obs_q, ""))
    return float(not np.array_equal(h1.velocity.components, h2.velocity.components))


def _collinear_associativity(space, rng):
    obs = _rest(space)
    axis = rng.normal(size=3)
    axis = axis / np.linalg.norm(axis)
    a, b, c = [kin.Velocity3(space.vector(np.concatenate(([0.0], beta * axis))),
                             obs, 1.0) for beta in rng.uniform(-0.9, 0.9, size=3)]
    return _associator(a, b, c)


_PROPERTIES = (
    (1, _Row("scalar-product-symmetry", _scalar_symmetry, fixed_tol=0.0)),
    (2, _Row("presentation-magnitude-invariance", _sl2_magnitude)),
    (3, _Row("contraction-identity", _contract_identity, "mink4")),
    (4, _Row("idempotent-laws", _idempotent)),
    (5, _Row("generator-skewness", _lie_skew)),
    (6, _Row("isometry-check", _isometry_residual, tol=1.0, detail="pair_residual")),
    (7, _Row("inverse-law", _isometry_inverse, tol=10.0)),
    (8, _Row("presentation-independence", _presentation_independence)),
    (9, _Row("action-formulas", _action_formulas)),
    (10, _Row("reflection-involution", _reflection)),
    (11, _Row("difference-reflection-link", _reflection_link)),
    (12, _Row("annihilating-cubic", _annihilating_cubic, whole=True)),
    (13, _Row("covector-reconstruction", _covector_reconstruction)),
    # A one-dimensional orthogonal complement carries no bivector.
    (14, _Row("stabilizer-dressing", _stabilizer_dressing, "dim3+")),
    (15, _Row("link-solves", _link_solves, tol=1.0, detail="target_action_residual")),
    (16, _Row("pure-link-identity", _link_pure, fixed_tol=0.0)),
    (17, _Row("planar-ray-collapse", _planar_collapse)),
    (18, _Row("link-nonuniqueness", _nonuniqueness, fixed_tol=99.0,
              kind="witness", whole=True)),
    (19, _Row("magnitude-separation", _magnitude_separation, draws=_quarter,
              fixed_tol=0.0, kind="count")),
    (20, _Row("reciprocal-presentation", _reciprocal_presentation)),
    (21, _Row("gamma-of-link", _gamma_formula, whole=True)),
    (22, _Row("boost-reciprocity", _boost_reciprocity, "mink4")),
    (23, _Row("boost-from-generator", _boost_generator, "mink4")),
    (24, _Row("observer-family", _observer_family, whole=True)),
    (25, _Row("interval-invariance", _interval_invariance, "mink4")),
    (26, _Row("transform-cross-check", _transform_cross_check, tol=1e3, whole=True)),
    (27, _Row("light-speed-closure", _lightspeed_closure, "mink4",
              draws=lambda samples: 100, tol=1.0)),
    (28, _Row("addition-order-dependence", _nonassociativity, fixed_tol=0.005,
              kind="witness", whole=True)),
    (29, _Row("composition-non-purity", _thomas_composition, "mink4",
              fixed_tol=1e-6, kind="witness")),
    (30, _Row("planar-observer-constraint", _planar_identity, "mink4", tol=1e3)),
    (31, _Row("acceleration-identities", _acceleration_identities, "mink4", tol=1e3)),
    (32, _Row("velocity-roundtrip", _velocity_roundtrip, "mink4", tol=1e3)),
    (33, _Row("groupoid-axioms", _groupoid_axioms, "mink4", draws=_quarter,
              fixed_tol=0.0, kind="count")),
    (34, _Row("groupoid-subluminal", _groupoid_subluminal, "mink4",
              fixed_tol=1.0, kind="bound")),
    (35, _Row("groupoid-functoriality", _groupoid_functoriality, "mink4",
              fixed_tol=0.0, kind="count")),
    (36, _Row("collinear-associativity", _collinear_associativity, "mink4",
              fixed_tol=1e-12)),
)


def _run(pid: int, row: _Row, ctx: _Ctx) -> PropertyResult:
    tol = row.fixed_tol if row.fixed_tol is not None else row.tol * ctx.tol_rel
    passes = _KINDS[row.kind][2]

    def judge(n, value, detail=None):
        passed = bool(passes(value, tol))
        induced = (row.kind != "witness" and not passed
                   and bool(value <= NUMERICAL_FLOOR))
        return PropertyResult(row.name, n, float(value), float(tol), passed,
                              induced, detail or {}, pid)

    rng = rng_for(ctx.seed, 100 + pid)
    try:
        if row.whole:
            return row.body(ctx, rng, judge)
        value, extra, n = _sweep(ctx.families[row.family],
                                 row.draws(ctx.samples), rng, row.body, row.kind)
        if row.detail:
            return judge(n, _nan_max(value, extra), {row.detail: extra})
        return judge(n, value)
    except RelkinError as exc:
        return PropertyResult(row.name, 0, float("inf"), 0.0, False, False,
                              {"error": type(exc).__name__, "message": str(exc)},
                              pid)


def run_all(seed: int = 0, tol_rel: float = 1e-9, samples: int = 40,
            dims: tuple[int, ...] = _FIXTURE_DIMS) -> list[PropertyResult]:
    """Run every property suite with one seed; deterministic output order."""
    spaces = tuple(make_space(dim, kind) for dim in dims for kind in SIGNATURES)
    families = {"all": spaces,
                "dim3+": tuple(s for s in spaces if s.dim >= 3),
                "mink4": (make_space(4, "lorentzian"),)}
    ctx = _Ctx(int(seed), float(tol_rel), int(samples), families)
    return [_run(pid, row, ctx) for pid, row in _PROPERTIES]


def _check_first_link(r, s, record, entries, ray):
    """Build a scan's first link again through the object path.

    Its operator and its record must equal the stacked row bit for bit.
    """
    problem = lnk.LinkProblem(r, s, r.space.vector(ray))
    link = lnk.p_link(problem)
    expected = (lnk.mu_scalar(problem) if problem._terms.generic else None,
                link.gamma if link.gamma is not None else lnk.gamma_of_link(problem),
                _gap(link.apply(r), s))
    if ((record["mu"], record["gamma"], record["residual"]) != expected
            or not np.array_equal(link.mapping.entries, entries)):
        raise InternalConsistencyError(
            "the stacked link of the first ray differs from p_link")


def link_ray_scan(r, s, seed: int = 0, n_general: int = 100,
                  n_planar: int = 10) -> dict:
    """Scan random preferred rays for one link problem.

    Draws ``n_general`` rays from the whole space (stream (seed, 1, i)) and
    ``n_planar`` rays from the plane of R and S (stream (seed, 2, j)), builds
    the selected links and reports how many are pairwise distinct, how large
    the planar cluster is, and the recorded gamma range.

    An index draws from its own stream until a ray is accepted, at most 1000
    times.  The draws are linked round by round: round k stacks the k-th draw
    of every index still open and evaluates it as one batch, with every check
    of one link on every row.  A refused ray, or an index that spends its
    1000 draws (DrawsExhaustedError), stops the scan: the first such index
    in scan order decides what is raised.  The first link is also built by
    :func:`~relkin.linker.p_link`, and its record must come out the same.
    """
    dim = r.space.dim
    rc, sc = r.components, s.components

    def general_ray(rng):
        return rng.normal(size=dim)  # the draw of random_vector

    def planar_ray(rng):
        a, b = rng.normal(size=2)
        return a * rc + b * sc

    # One slot per index, in scan order: (kind, index, stream, rng, draw).
    slots = [(kind, i, stream, rng_for(seed, stream, i), draw)
             for kind, stream, count, draw in (("general", 1, int(n_general), general_ray),
                                               ("planar", 2, int(n_planar), planar_ray))
             for i in range(count)]
    problem = lnk.LinkProblem(r, s) if slots else None
    found, error, error_at = {}, None, len(slots)
    pending = range(len(slots))
    for _ in range(_MAX_TRIES):
        if not pending:
            break
        terms = lnk._Terms.stacked(problem, np.array(
            [draw(rng) for *_, rng, draw in (slots[k] for k in pending)]))
        planar = lnk._planar_rows(problem, terms)
        keep = np.flatnonzero(~(terms.generic & ~terms.p_transversal)
                              & ~(np.abs(terms.psum) < 0.05)
                              & ~(np.abs(terms.denominator) < 0.05))
        links = lnk._link_rows(problem, terms.rows(keep))
        mus = [None] * len(links.gamma) if links.mu is None else links.mu.tolist()
        for j, fields in enumerate(zip(planar[keep].tolist(), mus, links.gamma.tolist(),
                                       links.residual.tolist())):
            k = pending[keep[j]]
            record = dict(zip(("index", "ray_kind", "planar", "mu", "gamma", "residual"),
                              (slots[k][1], slots[k][0]) + fields))
            found[k] = record, links.entries[j], terms.p[keep[j]]
        if links.error is not None:
            error, error_at = links.error, pending[keep[len(links.gamma)]]
        accepted = {pending[j] for j in keep}
        pending = [k for k in pending if k not in accepted and k < error_at]
    if pending:  # the first index left has spent its draws
        kind, i, stream, *_ = slots[pending[0]]
        raise DrawsExhaustedError(f"{kind} ray index {i} (stream ({seed}, {stream}, {i})) "
                                  f"accepted no ray in {_MAX_TRIES} draws")
    if error is not None:
        raise error
    ordered = [found[k] for k in sorted(found)]
    if ordered:
        _check_first_link(r, s, *ordered[0])
    records = [record for record, _, _ in ordered]
    entries = {kind: np.array([ent for record, ent, _ in ordered
                               if record["ray_kind"] == kind])
               for kind in ("general", "planar")}
    distinct, pairs_above, _ = _clusters(entries["general"], _DISTINCT_CUT)
    planar_cluster, _, planar_spread = _clusters(entries["planar"], _DISTINCT_CUT)
    n = len(entries["general"])
    pairs_total = n * (n - 1) // 2
    gammas = [rec["gamma"] for rec in records]
    return {
        "records": records,
        "distinct_links": distinct,
        "planar_cluster": planar_cluster,
        "planar_spread": planar_spread,
        "pair_fraction_above_cut": (pairs_above / pairs_total) if pairs_total else 1.0,
        "gamma_min": float(min(gammas)) if gammas else float("nan"),
        "gamma_max": float(max(gammas)) if gammas else float("nan"),
    }
