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

import numpy as np

from .errors import (
    DegenerateLinkError,
    DegenerateSumError,
    InternalConsistencyError,
    NotFutureDirectedError,
    NotIsomagnitudeError,
    NotNullCaseError,
    NotUnitTimelikeError,
    NullVectorError,
    OrthogonalPairError,
    ZeroMuError,
)
from .isometry import Isometry
from .metric_core import (
    Endomorphism,
    SimpleBivector,
    Vector,
    _frozen,
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
        if self.P is None:
            same_space(self.R, self.S)
        else:
            same_space(self.R, self.S, self.P)
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
    def _terms(self) -> "_Terms":
        return _Terms.of(self)

    @cached_property
    def _mu(self) -> float:
        # A refusal is not cached: it raises again on every call.
        t = self._terms
        if not t.generic:
            raise DegenerateLinkError("(R-S)^2 = 0; no generic link exists")
        if abs(t.psum) <= self.space.tol_abs * t.sum_scale:
            raise ZeroMuError("P.(R+S) = 0; the ray cannot parametrize a link")
        if not t.p_transversal:
            raise DegenerateLinkError("P^(R-S) = 0; the ray is not transversal")
        return 2.0 * t.psum / _wedge_denominator(t, self.space.tol_abs)


@dataclass(frozen=True)
class _Terms:
    """The scalars of a link problem, for the effective ray P.

    ``d`` is R - S, ``d2`` its square, ``psum`` P.(R+S) with ``sum_scale``
    its degeneracy scale, ``pp``, ``pr`` and ``ps`` the products P.P, P.R
    and P.S, ``w2`` the wedge square {P^(R-S)}^2 and ``denominator``
    D = P.P (R-S)^2 + 4 (P.R)(P.S).  ``coincide`` marks R = S to tolerance
    and ``norms`` is the largest component of P, R and S.
    """

    p: Vector
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
        tol = problem.space.tol_abs
        r, s = problem.R, problem.S
        p = problem.effective_p()
        d = r - s
        d2 = d.square()
        p_max = maxabs(p.components)
        r_max = maxabs(r.components)
        s_max = maxabs(s.components)
        d_max = maxabs(d.components)
        u = r + s
        psum = scalar_product(p, u)
        sum_scale = max(1.0, p_max * maxabs(u.components))
        pp = p.square()
        pr = scalar_product(p, r)
        ps = scalar_product(p, s)
        pd = scalar_product(p, d)
        # The wedge P^(R-S) must be non-zero both squared and entrywise.
        wedge_max = maxabs(SimpleBivector(p, d).components())
        leg_scale = p_max * d_max
        p_transversal = (abs(psum) > tol * sum_scale
                         and wedge_max ** 2 > (tol * max(1.0, leg_scale ** 2)) ** 2
                         and wedge_max > tol * max(1.0, leg_scale))
        return cls(
            p=p, d=d, d2=d2, psum=psum, sum_scale=sum_scale,
            pp=pp, pr=pr, ps=ps, w2=pp * d2 - pd * pd,
            denominator=pp * d2 + 4.0 * pr * ps,
            generic=bool(abs(d2) > tol * max(1.0, d_max ** 2)),
            p_transversal=bool(p_transversal),
            coincide=bool(d_max <= tol * max(1.0, r_max, s_max)),
            norms=max(p_max, r_max, s_max))


def _wedge_denominator(t: _Terms, tol: float) -> float:
    """{P^(R-S)}^2 + {P.(R+S)}^2; raises DegenerateLinkError when it vanishes."""
    psum2 = t.psum * t.psum
    denom = t.w2 + psum2
    if abs(denom) <= tol * max(1.0, abs(t.w2), psum2):
        raise DegenerateLinkError("degenerate link denominator")
    return denom


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
              <= problem.space.tol_abs * max(1.0, t.norms ** 3))
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


def _verify_links(iso: Isometry, r: Vector, s: Vector) -> None:
    space = r.space
    res = maxabs(iso.apply(r).components - s.components)
    if res > space.tol_rel * max(1.0, maxabs(s.components)):
        raise InternalConsistencyError(f"link fails LR = S, residual {res:.3e}")


def _vectors_coincide(r: Vector, s: Vector) -> bool:
    scale = max(1.0, maxabs(r.components), maxabs(s.components))
    return maxabs(r.components - s.components) <= r.space.tol_abs * scale


def p_link(problem: LinkProblem) -> Isometry:
    """The link selected by the preferred ray P.

    Closed form, with D = P.P (R-S)^2 + 4 (P.R)(P.S):

        L = id - 2 P (x) {(R-S)^2 gP - 2 (P.R) g(R-S)} / D
               - (R-S) (x) {2 P.P g(R-S) + 4 (P.S) gP} / D

    The generator record is (mu P)^(R-S) with gamma + 1 = mu P.(R+S); note
    the recorded gamma is signed.  R = S returns the identity, and an
    omitted P falls back to the planar link.  The link reads mu and the
    problem's shared terms; it never evaluates the planarity witness of
    :func:`admissibility`.
    """
    space = problem.space
    r, s = problem.R, problem.S
    t = problem._terms
    if t.coincide:
        return Isometry(space.identity())
    if problem.P is None:
        return planar_link(r, s)
    mu = problem._mu
    p, d, dd = t.p, t.d, t.denominator
    if abs(dd) <= space.tol_abs:
        raise DegenerateLinkError("degenerate link denominator")
    g = space.g
    gp = g @ p.components
    gd = g @ d.components
    alpha = 2.0 * (t.d2 * gp - 2.0 * t.pr * gd) / dd
    beta = (2.0 * t.pp * gd + 4.0 * t.ps * gp) / dd
    ent = (np.eye(space.dim)
           - p.components[:, None] * alpha
           - d.components[:, None] * beta)
    iso = Isometry(Endomorphism(_frozen(ent), space),
                   SimpleBivector(mu * p, d), mu * t.psum - 1.0)
    _verify_links(iso, r, s)
    return iso


def planar_link(r: Vector, s: Vector) -> Isometry:
    """The unique link whose generator lies in the plane of R and S.

        L = id - 2 (R+S) (x) g(R+S) / (R+S)^2 + 2 S (x) gR / S.S

    Requires R.R = S.S != 0 and (R+S)^2 != 0.  The generator record is
    (S/S.S)^R with gamma = R.S / R.R; R = S returns the identity.
    """
    space = same_space(r, s)
    r2, s2 = r.square(), s.square()
    if abs(r2 - s2) > space.tol_rel * max(1.0, abs(r2), abs(s2)):
        raise NotIsomagnitudeError("planar link requires R.R = S.S")
    if _vectors_coincide(r, s):
        return Isometry(space.identity())
    if r.is_null() or s.is_null():
        raise NullVectorError("planar link requires non-null vectors")
    u = r + s
    u2 = u.square()
    if abs(u2) <= space.tol_abs * max(1.0, maxabs(u.components) ** 2):
        raise DegenerateSumError("(R+S)^2 = 0; planar link undefined")
    g = space.g
    ent = (np.eye(space.dim)
           - 2.0 * np.outer(u.components, g @ u.components) / u2
           + 2.0 * np.outer(s.components, g @ r.components) / s2)
    gamma = scalar_product(r, s) / r2
    iso = Isometry(Endomorphism(_frozen(ent), space),
                   SimpleBivector((1.0 / s2) * s, r), gamma)
    _verify_links(iso, r, s)
    return iso


def fahnline_boost(r: Vector, s: Vector) -> Isometry:
    """Planar link between future unit time-like vectors, factored form

        L = id - 2 S (x) gR + (R+S) (x) g(R+S) / (1 - R.S).

    Requires R.R = S.S = -1 within tol_rel and R.S <= -1 within tolerance.
    Coincides with the planar link; gamma = -R.S.
    """
    space = same_space(r, s)
    for v in (r, s):
        if abs(v.square() + 1.0) > space.tol_rel:
            raise NotUnitTimelikeError("vectors must be unit time-like (square -1)")
    rs = scalar_product(r, s)
    if rs > -1.0 + space.tol_rel:
        raise NotFutureDirectedError(f"R.S = {rs!r} must not exceed -1")
    if _vectors_coincide(r, s):
        return Isometry(space.identity())
    g = space.g
    u = r + s
    ent = (np.eye(space.dim)
           - 2.0 * np.outer(s.components, g @ r.components)
           + np.outer(u.components, g @ u.components) / (1.0 - rs))
    iso = Isometry(Endomorphism(_frozen(ent), space),
                   SimpleBivector(r, s), -rs)
    _verify_links(iso, r, s)
    return iso


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
    for v in (p, problem.R, problem.S):
        if abs(v.square() + 1.0) > space.tol_rel:
            raise NotUnitTimelikeError(
                "ternary velocity requires unit time-like P, R, S")
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
    denom = _wedge_denominator(t, problem.space.tol_abs)
    return abs((t.psum * t.psum - t.w2) / denom)
