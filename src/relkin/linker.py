"""Solutions of the link equation LR = S for vectors of equal magnitude.

Any non-null preferred ray P that is transversal to the pair (R, S) selects
one isometry linking R to S, generated by the bivector (mu P)^(R - S) with

    mu = 2 P.(R+S) / ({P^(R-S)}^2 + {P.(R+S)}^2).

The family is genuinely non-unique: different rays give different links, and
all rays coplanar with R and S collapse onto the single planar link.  The
module also provides the relative-velocity vectors extracted from links and
the unit-time-like specializations used by kinematics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import (
    DegenerateLinkError,
    DegenerateSumError,
    InternalConsistencyError,
    NotFutureDirectedError,
    NotIsomagnitudeError,
    NotNullCaseError,
    NullVectorError,
    OrthogonalPairError,
    RelkinError,
    ZeroMuError,
)
from .isometry import Isometry, _verified
from .metric_core import (
    Endomorphism,
    SimpleBivector,
    Vector,
    _frozen,
    _check_unit_timelike,
    idempotent_of,
    maxabs,
    same_space,
    scalar_product,
    trivector_maxabs,
)

__all__ = [
    "LinkAdmissibility",
    "LinkProblem",
    "admissibility",
    "binary_velocity",
    "fahnline_boost",
    "gamma_of_link",
    "mu_scalar",
    "null_link_conditions",
    "p_link",
    "planar_link",
    "ternary_velocity",
]


@dataclass(frozen=True, eq=False)
class LinkProblem:
    """Link data: source R, target S and an optional preferred ray P.

    R and S must have equal squared magnitude within tol_rel.  When P is
    omitted the planar link acts as the default solution.  The scalars that
    admissibility, mu and the link share are evaluated once per problem.
    """

    R: Vector
    S: Vector
    P: Vector | None = None

    def __post_init__(self):
        same_space(*(v for v in (self.R, self.S, self.P) if v is not None))
        r2 = self.R.square()
        s2 = self.S.square()
        if abs(r2 - s2) > self.space.tol_rel * max(1.0, abs(r2), abs(s2)):
            raise NotIsomagnitudeError(
                f"R.R = {r2!r} and S.S = {s2!r} differ beyond tolerance")

    @property
    def space(self):
        return self.R.space

    def effective_p(self) -> Vector:
        """The preferred ray, defaulting to R (a planar choice) when omitted."""
        return self.R if self.P is None else self.P

    @cached_property
    def _pair(self) -> "_PairTerms":
        return _PairTerms.of(self.R, self.S, self.space.tol_abs)

    @cached_property
    def _terms(self) -> "_Terms":
        return _Terms.of(self)

    @cached_property
    def _mu(self) -> float:
        # A refusal is not cached: it raises again on every call.
        tests, denom = _mu_tests(self._terms, self.space.tol_abs)
        for failed, (error, message) in zip(tests, _MU_REFUSALS):
            if failed:
                raise error(message)
        return kernels.link_mu(self._terms.psum, denom)


class _PairTerms(NamedTuple):
    """The scalars of a link problem that do not depend on the ray.

    ``d`` is R - S with square ``d2``, ``u`` is R + S, and ``r_max``,
    ``s_max``, ``d_max`` and ``u_max`` are the largest components of R, S,
    R - S and R + S.  ``generic`` marks (R-S)^2 != 0 and ``coincide`` marks
    R = S, both to tolerance.
    """

    d: Vector
    d2: float
    u: Vector
    r_max: float
    s_max: float
    d_max: float
    u_max: float
    generic: bool
    coincide: bool

    @classmethod
    def of(cls, r: Vector, s: Vector, tol: float) -> "_PairTerms":
        d = r - s
        d2 = d.square()
        r_max = maxabs(r.components)
        s_max = maxabs(s.components)
        d_max = maxabs(d.components)
        u = r + s
        return cls(d, d2, u, r_max, s_max, d_max, maxabs(u.components),
                   not kernels.is_null(d2, d_max, tol),
                   bool(d_max <= tol * max(1.0, r_max, s_max)))


# The ray fields of _Terms: one value per ray when the terms are stacked.
_RAY_FIELDS = ("p", "psum", "sum_scale", "pp", "pr", "ps", "w2", "denominator",
               "p_transversal", "norms")


class _Terms(NamedTuple):
    """The scalars of a link problem, for the effective ray P or stacked rays.

    ``d`` is R - S, ``d2`` its square, ``psum`` P.(R+S) with ``sum_scale``
    its degeneracy scale, ``pp``, ``pr`` and ``ps`` the products P.P, P.R
    and P.S, ``w2`` the wedge square {P^(R-S)}^2 and ``denominator``
    D = P.P (R-S)^2 + 4 (P.R)(P.S).  ``coincide`` marks R = S to tolerance
    and ``norms`` is the largest component of P, R and S.

    Built by :meth:`stacked`, ``p`` is the (N, d) array of rays and every
    other field of ``_RAY_FIELDS`` an (N,) array, row by row equal to the
    terms of one ray.
    """

    p: Vector | np.ndarray
    d: Vector
    d2: float
    psum: float
    sum_scale: float
    pp: float
    pr: float
    ps: float
    w2: float
    denominator: float
    generic: bool
    p_transversal: bool
    coincide: bool
    norms: float

    @classmethod
    def of(cls, problem: LinkProblem) -> "_Terms":
        p = problem.effective_p()
        pair = problem._pair
        return cls._combine(
            problem, p, maxabs(p.components),
            # P.(R+S), P.P, P.R, P.S and P.(R-S), each as scalar_product
            # evaluates it, in one stacked pairing.
            *kernels.pairing_rows(problem.space.g, p.components,
                                  _pair_partners(problem, p.components)).tolist(),
            maxabs(SimpleBivector(p, pair.d).components()))

    @classmethod
    def stacked(cls, problem: LinkProblem, rays: np.ndarray) -> "_Terms":
        """The terms of ``problem`` for each row of the (N, d) array ``rays``."""
        d = problem._pair.d.components
        wedge = rays[:, :, None] * d - d[:, None] * rays[:, None, :]
        return cls._combine(
            problem, rays, kernels.maxabs_rows(rays),
            *kernels.pairing_rows(problem.space.g, rays,
                                  _pair_partners(problem, rays)),
            kernels.maxabs_rows(wedge))

    @classmethod
    def _combine(cls, problem, p, p_max, psum, pp, pr, ps, pd, wedge_max):
        pair = problem._pair
        sum_scale, w2, denominator, p_transversal, norms = kernels.link_terms(
            psum, pp, pr, ps, pd, p_max, wedge_max, pair.d2, pair.d_max,
            pair.u_max, pair.r_max, pair.s_max, problem.space.tol_abs)
        return cls(p, pair.d, pair.d2, psum, sum_scale, pp, pr, ps, w2, denominator,
                   pair.generic, p_transversal, pair.coincide, norms)

    def rows(self, index) -> "_Terms":
        """The stacked terms of the rays selected by ``index``."""
        return self._replace(**{name: getattr(self, name)[index]
                                for name in _RAY_FIELDS})


def _pair_partners(problem: LinkProblem, p: np.ndarray) -> np.ndarray:
    """R + S, P, R, S and R - S, stacked to pair with the ray or rays ``p``."""
    pair = problem._pair
    partners = (pair.u.components, p, problem.R.components, problem.S.components,
                pair.d.components)
    return np.array(np.broadcast_arrays(*partners) if p.ndim > 1 else partners)


# mu's refusals, in the order they are raised.
_MU_REFUSALS = (
    (DegenerateLinkError, "(R-S)^2 = 0; no generic link exists"),
    (ZeroMuError, "P.(R+S) = 0; the ray cannot parametrize a link"),
    (DegenerateLinkError, "P^(R-S) = 0; the ray is not transversal"),
    (DegenerateLinkError, "degenerate link denominator"),
)


def _mu_tests(t: _Terms, tol: float):
    """The tests of ``_MU_REFUSALS`` and mu's wedge denominator.

    Each test is a bool for one ray, or a mask for stacked rays.
    """
    denom, degenerate = kernels.wedge_denominator(t.psum, t.w2, tol)
    return (not t.generic, abs(t.psum) <= tol * t.sum_scale,
            np.logical_not(t.p_transversal), degenerate), denom


@dataclass(frozen=True)
class LinkAdmissibility:
    """Diagnostic flags for a link problem.

    ``generic`` is (R-S)^2 != 0, ``p_transversal`` is P.(R+S) != 0 together
    with P^(R-S) != 0, ``denominator`` is the value of
    P.P (R-S)^2 + 4 (P.R)(P.S), reported even when it vanishes, and
    ``planar`` marks P^R^S = 0.
    """

    generic: bool
    p_transversal: bool
    denominator: float
    planar: bool


def admissibility(problem: LinkProblem) -> LinkAdmissibility:
    """Evaluate the genericity flags of a link problem.

    With P omitted the flags are those of the planar default ray P = R.
    The flags other than ``planar`` come from the problem's shared terms;
    only the planarity witness P^R^S is evaluated here, and the link path
    (:func:`mu_scalar`, :func:`p_link`) never evaluates it.
    """
    t = problem._terms
    planar = (trivector_maxabs(t.p, problem.R, problem.S)
              <= kernels.planar_bound(problem.space.tol_abs, t.norms))
    return LinkAdmissibility(t.generic, t.p_transversal,
                             float(t.denominator), bool(planar))


def mu_scalar(problem: LinkProblem) -> float:
    """Ray-normalization scalar mu = 2 P.(R+S) / ({P^(R-S)}^2 + {P.(R+S)}^2).

    Homogeneous of degree -1 in P, so mu P is invariant under rescaling the
    ray.  Requires a generic, P-transversal problem; P.(R+S) = 0 raises
    ZeroMuError and a vanishing denominator raises DegenerateLinkError.
    Reads the problem's shared terms, without the planarity witness of
    :func:`admissibility`, and is evaluated once per problem.
    """
    return problem._mu


def p_link(problem: LinkProblem) -> Isometry:
    """The link selected by the preferred ray P.

    Closed form, with D = P.P (R-S)^2 + 4 (P.R)(P.S):

        L = id - 2 P (x) {(R-S)^2 gP - 2 (P.R) g(R-S)} / D
               - (R-S) (x) {2 P.P g(R-S) + 4 (P.S) gP} / D

    The generator record is (mu P)^(R-S) with gamma + 1 = mu P.(R+S); note
    the recorded gamma is signed.  R = S returns the identity, and an
    omitted P falls back to the planar link; every branch verifies LR = S.
    The link reads mu and the problem's shared terms; it never evaluates the
    planarity witness of :func:`admissibility`.
    """
    space = problem.space
    r, s = problem.R, problem.S
    if problem._pair.coincide or problem.P is None:
        return _planar_link(problem)
    t = problem._terms
    mu = problem._mu
    p, d, dd = t.p, t.d, t.denominator
    if abs(dd) <= space.tol_abs:
        raise DegenerateLinkError("degenerate link denominator")
    g = space.g
    alpha, beta = kernels.link_covectors(t.d2, t.pp, t.pr, t.ps, dd,
                                         g @ p.components, g @ d.components)
    ent = kernels.link_entries(p.components, d.components, alpha, beta)
    return _verified(Isometry(Endomorphism(_frozen(ent), space),
                              SimpleBivector(mu * p, d), mu * t.psum - 1.0), r, s)


@dataclass(frozen=True)
class _RayLinks:
    """The links of stacked rays, one row per ray up to the first refused ray.

    ``entries`` holds the operators, ``mu`` the ray scalars (None when mu is
    not evaluated), ``gamma`` the recorded gammas and ``residual`` the LR = S
    residuals.  ``error`` is what :func:`p_link`, :func:`gamma_of_link` and
    :func:`mu_scalar` raise for the first refused ray, the row after the
    last one kept; None when every ray is linked.
    """

    entries: np.ndarray
    mu: np.ndarray | None
    gamma: np.ndarray
    residual: np.ndarray
    error: RelkinError | None


def _planar_rows(problem: LinkProblem, t: _Terms) -> np.ndarray:
    """The ``planar`` flag of :func:`admissibility` for each stacked ray."""
    witness = kernels.trivector_rows(t.p, problem.R.components,
                                     problem.S.components)
    return witness <= kernels.planar_bound(problem.space.tol_abs, t.norms)


def _link_rows(problem: LinkProblem, t: _Terms) -> _RayLinks:
    """The links of the stacked rays of ``t``, with every check of one link.

    Each row gets what :func:`p_link` builds for its ray, with the gamma of
    :func:`gamma_of_link` for R = S, and mu when the problem is generic.  The
    refusals of mu, the denominator test, the isometry law, the gamma record
    and LR = S run on every row, in that order and with the bounds and
    messages of the object path (the identity rows of R = S skip the
    denominator, law and gamma checks); the rows stop at the first refused ray.
    """
    space = problem.space
    tol_rel = space.tol_rel
    n = len(t.psum)
    error = None

    def check(failed, kind, message):
        nonlocal n, error
        rows = failed[:n] if np.ndim(failed) else failed
        hit = np.flatnonzero(np.broadcast_to(rows, (n,)))
        if hit.size:
            n = int(hit[0])
            error = kind(message if isinstance(message, str) else message(n))

    mu = None
    if t.generic or not t.coincide:
        tests, denom = _mu_tests(t, space.tol_abs)
        for failed, (kind, message) in zip(tests, _MU_REFUSALS):
            check(failed, kind, message)
        mu = kernels.link_mu(t.psum[:n], denom[:n])
    r, s = problem.R.components, problem.S.components
    if t.coincide:
        eye = np.eye(space.dim)
        entries, gamma = np.broadcast_to(eye, (n,) + eye.shape), np.ones(n)
    else:
        check(abs(t.denominator) <= space.tol_abs, DegenerateLinkError,
              "degenerate link denominator")
        g = space.g
        p = t.p[:n]
        gp = np.matmul(g, p[:, :, None])[..., 0]
        alpha, beta = kernels.link_covectors(
            t.d2, t.pp[:n, None], t.pr[:n, None], t.ps[:n, None],
            t.denominator[:n, None], gp, g @ t.d.components)
        entries = kernels.link_entries(p, t.d.components, alpha, beta)
        law = kernels.maxabs_rows(kernels.law_defect(g, entries))
        check(law > kernels.law_bound(tol_rel, maxabs(g), kernels.maxabs_rows(entries)),
              InternalConsistencyError, lambda j: kernels.LAW_MESSAGE.format(law[j]))
        # The generator record (mu P)^(R-S), with gamma + 1 = mu P.(R+S).
        q = mu[:n, None] * p[:n]
        d = np.broadcast_to(t.d.components, q.shape)
        m2 = kernels.bivector_pairing(g, q, d, q, d)
        gamma = mu[:n] * t.psum[:n] - 1.0
        defect, bound = kernels.gamma_defect(gamma, m2, tol_rel)
        check(defect > bound, InternalConsistencyError,
              lambda j: kernels.GAMMA_MESSAGE.format(defect[j]))
    residual = kernels.maxabs_rows(entries[:n] @ r - s)
    check(residual > kernels.link_bound(tol_rel, maxabs(s)),
          InternalConsistencyError, lambda j: kernels.LINK_MESSAGE.format(residual[j]))
    return _RayLinks(entries[:n], None if mu is None else mu[:n], gamma[:n],
                     residual[:n], error)


def planar_link(r: Vector, s: Vector) -> Isometry:
    """The unique link whose generator lies in the plane of R and S.

        L = id - 2 (R+S) (x) g(R+S) / (R+S)^2 + 2 S (x) gR / S.S

    Requires R.R = S.S != 0 and (R+S)^2 != 0.  The generator record is
    (S/S.S)^R with gamma = R.S / R.R; R = S returns the identity.  Every
    branch verifies LR = S.
    """
    return _planar_link(LinkProblem(r, s))


def _planar_link(problem: LinkProblem) -> Isometry:
    """:func:`planar_link` for the R and S of ``problem``, whose construction
    has already checked R.R = S.S."""
    space = problem.space
    r, s, pair = problem.R, problem.S, problem._pair
    if pair.coincide:
        return _verified(Isometry(space.identity()), r, s)
    if r.is_null() or s.is_null():
        raise NullVectorError("planar link requires non-null vectors")
    u = pair.u
    u2 = u.square()
    if kernels.is_null(u2, pair.u_max, space.tol_abs):
        raise DegenerateSumError("(R+S)^2 = 0; planar link undefined")
    g = space.g
    s2 = s.square()
    ent = (np.eye(space.dim)
           - 2.0 * np.outer(u.components, g @ u.components) / u2
           + 2.0 * np.outer(s.components, g @ r.components) / s2)
    gamma = scalar_product(r, s) / r.square()
    return _verified(Isometry(Endomorphism(_frozen(ent), space),
                              SimpleBivector((1.0 / s2) * s, r), gamma), r, s)


def fahnline_boost(r: Vector, s: Vector) -> Isometry:
    """Planar link between future unit time-like vectors, factored form

        L = id - 2 S (x) gR + (R+S) (x) g(R+S) / (1 - R.S).

    Requires R.R = S.S = -1 within tol_rel and R.S <= -1 within tolerance.
    Coincides with the planar link; gamma = -R.S.  R = S returns the
    identity, and every branch verifies LR = S.
    """
    space = same_space(r, s)
    _check_unit_timelike(space, "vectors must be unit time-like (square -1)", r, s)
    rs = scalar_product(r, s)
    if rs > -1.0 + space.tol_rel:
        raise NotFutureDirectedError(f"R.S = {rs!r} must not exceed -1")
    pair = _PairTerms.of(r, s, space.tol_abs)
    if pair.coincide:
        return _verified(Isometry(space.identity()), r, s)
    g = space.g
    u = pair.u
    ent = (np.eye(space.dim)
           - 2.0 * np.outer(s.components, g @ r.components)
           + np.outer(u.components, g @ u.components) / (1.0 - rs))
    return _verified(Isometry(Endomorphism(_frozen(ent), space),
                              SimpleBivector(r, s), -rs), r, s)


def null_link_conditions(problem: LinkProblem, gamma: float) -> tuple[float, float]:
    """Residuals of the two constraints of the null-separated case.

    For (R-S)^2 = 0 the pair (P, gamma) solves the case exactly when

        (gamma+1)(P.R - 1) - (P.R)(P.R - P.S) = 0
        gamma^2 - 1 - (P.R - P.S)^2 = 0

    Both residuals are returned; no operator is constructed.  Requires an
    explicit P and (R-S)^2 = 0 within tol_abs.
    """
    if problem.P is None:
        raise NotNullCaseError("null-case conditions need an explicit P")
    t = problem._terms
    if t.generic:
        raise NotNullCaseError(f"(R-S)^2 = {t.d2!r} does not vanish")
    pr, ps = t.pr, t.ps
    first = (gamma + 1.0) * (pr - 1.0) - pr * (pr - ps)
    second = gamma * gamma - 1.0 - (pr - ps) ** 2
    return float(first), float(second)


def binary_velocity(r: Vector, s: Vector) -> Vector:
    """Relative-velocity vector of S with respect to R,

        w(R, S) = (R.R / R.S) (id - r) (S - R),

    with r the idempotent of R.  Orthogonal to R, not reciprocal under
    exchanging the arguments, but its squared magnitude
    -R.R + R.R^3/(R.S)^2 is exchange-symmetric when R.R = S.S.
    """
    same_space(r, s)
    if r.is_null():
        raise NullVectorError("binary velocity requires non-null R")
    rs = scalar_product(r, s)
    scale = max(1.0, maxabs(r.components) * maxabs(s.components))
    if abs(rs) <= r.space.tol_abs * scale:
        raise OrthogonalPairError("R.S = 0; relative velocity undefined")
    proj = idempotent_of(r)
    d = s - r
    rest = d - proj.apply(d)
    return (r.square() / rs) * rest


def ternary_velocity(problem: LinkProblem, c: float = 1.0) -> Vector:
    """Velocity of S relative to R as measured by the preferred observer P.

    All three vectors must be unit time-like (square -1 within tol_rel; no
    silent normalization).  The scaled vector vbar = mu (id - p)(R - S) obeys
    vbar.vbar = gamma^2 - 1; the returned velocity is v = c vbar / gamma and
    satisfies P.v = 0.  R = S gives the zero velocity; an omitted P defaults
    to the planar choice P = R.
    """
    space = problem.space
    p = problem.effective_p()
    _check_unit_timelike(space, "ternary velocity requires unit time-like P, R, S",
                        p, problem.R, problem.S)
    t = problem._terms
    if t.coincide:
        return space.zero_vector()
    d = t.d
    vbar = mu_scalar(problem) * (d - idempotent_of(p).apply(d))
    vbar2 = vbar.square()
    if vbar2 < 0.0:
        raise InternalConsistencyError(f"vbar.vbar = {vbar2!r} should be non-negative")
    gamma_v = float(np.sqrt(1.0 + vbar2))
    return (float(c) / gamma_v) * vbar


def gamma_of_link(problem: LinkProblem) -> float:
    """|gamma| of the link selected by the preferred ray,

        |({P.(R+S)}^2 - {P^(R-S)}^2) / ({P.(R+S)}^2 + {P^(R-S)}^2)|.

    With P omitted the planar default applies; for unit time-like planar
    problems the value reduces to |R.S|.  R = S gives 1.
    """
    t = problem._terms
    if t.coincide:
        return 1.0
    denom, degenerate = kernels.wedge_denominator(t.psum, t.w2, problem.space.tol_abs)
    if degenerate:
        raise DegenerateLinkError("degenerate link denominator")
    return abs((t.psum * t.psum - t.w2) / denom)
