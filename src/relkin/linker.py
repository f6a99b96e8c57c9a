"""Solutions of the link equation LR = S for vectors of equal magnitude.

Any non-null preferred ray P that is transversal to the pair (R, S) selects
one isometry linking R to S, generated by the bivector (mu P)^(R - S) with

    mu = 2 P.(R+S) / ({P^(R-S)}^2 + {P.(R+S)}^2).

The family is genuinely non-unique: different rays give different links, and
all rays coplanar with R and S collapse onto the single planar link.  The
module also provides the relative-velocity vectors extracted from links and
the unit-time-like specializations used by kinematics.

A link problem's pairings and scales are formed once, by :meth:`_Terms.of`:
on Python floats for one problem, at construction for a :class:`LinkProblem`
and for each of the groupoid comparison's ternary velocities, and in one
pairing pass on stacked rays for a ray scan.  Every test, mu, gamma and link
reads that record.  The binary and ternary velocities project onto the
idempotent that R or P keeps (:func:`idempotent_of`), so the groupoid's
morphisms form each observer's idempotent once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import _EXPORTS, kernels
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
    SpaceMismatchError,
    ZeroMuError,
)
from .isometry import Isometry, _gamma_check, _law_check, _link_check, _verified
from .metric_core import (
    Endomorphism,
    SimpleBivector,
    Vector,
    _FLOAT64,
    _check_c,
    _fresh,
    _pairings,
    _unit_timelike,
    idempotent_of,
    maxabs,
    same_space,
)

__all__ = _EXPORTS["linker"]


@dataclass(frozen=True, eq=False)
class LinkProblem:
    """Link data: source R, target S and an optional preferred ray P.

    R and S must have equal squared magnitude within tol_rel, tested on their
    squares first.  When P is omitted the planar link acts as the default
    solution.  The scalars that admissibility, mu and the link share are
    formed once, at construction, for an accepted pair.
    """

    R: Vector
    S: Vector
    P: Vector | None = None

    def __post_init__(self):
        same_space(*(v for v in (self.R, self.S, self.P) if v is not None))
        _check_isomagnitude(self.space, self.R.square(), self.S.square())
        self._terms  # formed now, so that no later call pays for them

    @property
    def space(self):
        return self.R.space

    def effective_p(self) -> Vector:
        """The preferred ray, defaulting to R (a planar choice) when omitted."""
        return self.R if self.P is None else self.P

    @cached_property
    def _terms(self) -> "_Terms":
        return _Terms.of(self.space, self.effective_p().components,
                         self.R.components, self.S.components)

    @cached_property
    def _mu(self) -> float:
        # A refusal is not cached: it raises again on every call.
        return _mu_of(self._terms, self.space.tol_abs)


def _check_isomagnitude(space, r2: float, s2: float) -> None:
    """Refuse a link problem whose R.R = ``r2`` and S.S = ``s2`` differ."""
    if not kernels.within(abs(r2 - s2), space.tol_rel, abs(r2), abs(s2)):
        raise NotIsomagnitudeError(
            f"R.R = {r2!r} and S.S = {s2!r} differ beyond tolerance")


# The ray fields of _Terms: one value per ray when the terms are stacked.
_RAY_FIELDS = ("p", "psum", "sum_scale", "pp", "pr", "ps", "w2", "denominator",
               "p_transversal", "norms")


class _Terms(NamedTuple):
    """The scalars of a link problem, for one ray P or stacked rays.

    ``d`` is R - S, ``d2`` its square and ``u2`` the square of R + S; ``rr``
    and ``ss`` are R.R and S.S.  ``psum`` is P.(R+S) with ``sum_scale`` its
    degeneracy scale, ``pp``, ``pr`` and ``ps`` the products P.P, P.R and
    P.S, ``w2`` the wedge square {P^(R-S)}^2 and ``denominator``
    D = P.P (R-S)^2 + 4 (P.R)(P.S).  ``generic`` marks (R-S)^2 != 0 and
    ``coincide`` R = S, both to tolerance; ``norms`` is the largest
    component of P, R and S.

    For one ray every field is a float or a bool, and ``p`` and ``d`` are
    Vectors.  For stacked rays each field of ``_RAY_FIELDS`` holds one row
    per ray (``p`` the (N, d) rays), and the other fields, which do not
    depend on P, hold the values of the one (R, S).
    """

    p: Vector | np.ndarray
    d: Vector | np.ndarray
    rr: float
    ss: float
    d2: float
    u2: float
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
    def of(cls, space, p: np.ndarray, r: np.ndarray, s: np.ndarray) -> "_Terms":
        """The terms of the ray P = ``p`` for R = ``r`` and S = ``s``.

        R and S are (d,) vectors; P is one (d,) ray or (N, d) stacked rays.
        One ray pairs its nine pairs on the space's float pairing and takes
        its maxima on Python floats (:func:`_float_maxima`).  Stacked rays,
        and one ray where the space has no float pairing, a pair is refused
        or the maxima are None, take the arrays: the nine pairings in one
        ``pairing_rows`` pass, each as ``scalar_product`` evaluates it.
        Every row is bit-identical to the terms of its one ray, up to the
        sign of a NaN.
        """
        tol, dim = space.tol_abs, space.dim
        d, u = r - s, r + s
        one_ray = p.ndim == 1
        legs, floats = (r, s, d, u), None
        if (one_ray and (pair := space._float_pairing) is not None
                and p.dtype is r.dtype is s.dtype is _FLOAT64
                and p.shape == r.shape == s.shape == (dim,)):
            vectors = [v.tolist() for v in (*legs, p)]
            rl, sl, dl, ul, pl = vectors
            # R.R, S.S, (R-S)^2, (R+S)^2, then P.(R+S), P.P, P.R, P.S, P.(R-S).
            pairs = list(map(pair, (rl, sl, dl, ul, pl, pl, pl, pl, pl),
                             (rl, sl, dl, ul, ul, pl, rl, sl, dl)))
            floats = None not in pairs and _float_maxima(pairs, vectors)
        if floats:
            rr, ss, d2, u2, psum, pp, pr, ps, pd = pairs
            r_max, s_max, d_max, u_max, p_max, wedge_max = floats
        else:
            n = 1 if one_ray else len(p)
            # The rows of R, S, R - S and R + S, then the n rows of P five times.
            stack = np.vstack([*legs, p, p, p, p, p])
            partners = np.vstack([*legs, *np.broadcast_arrays(u, p, r, s, d)])
            pairs = kernels.pairing_rows(space.g, stack, partners)
            top = kernels.maxabs_rows(stack[:4 + n])
            wedge = kernels.wedge_maxabs_rows(stack[4:4 + n], stack[2:3])
            r_max, s_max, d_max, u_max = top[:4].tolist()
            p_max, wedge_max = _split(np.concatenate((top[4:], wedge)), 2, one_ray)
            rr, ss, d2, u2 = pairs[:4].tolist()
            psum, pp, pr, ps, pd = _split(pairs[4:], 5, one_ray)
        null = kernels.is_null(d2, d_max, tol)
        sum_scale, w2, denominator, p_transversal, norms = kernels.link_terms(
            psum, pp, pr, ps, pd, p_max, wedge_max, d2, d_max, u_max, r_max, s_max, tol)
        # P's Vector holds a view, so that freezing it leaves the caller's array writable.
        return cls(_fresh(Vector, p.view(), space) if one_ray else p, _fresh(Vector, d, space),
                   rr, ss, d2, u2, psum, sum_scale, pp, pr, ps, w2, denominator,
                   not null, p_transversal, kernels.within(d_max, tol, r_max, s_max), norms)

    @classmethod
    def stacked(cls, problem: LinkProblem, rays: np.ndarray) -> "_Terms":
        """The terms of ``problem`` for each row of the (N, d) array ``rays``."""
        return cls.of(problem.space, rays, problem.R.components, problem.S.components)

    def rows(self, index) -> "_Terms":
        """The stacked terms of the rays selected by ``index``."""
        return self._replace(**{name: getattr(self, name)[index]
                                for name in _RAY_FIELDS})

    def room(self, n: int) -> "_Terms":
        """Stacked terms with ``n`` unset rays, the other fields as here."""
        return self._replace(**{name: np.empty((n, *getattr(self, name).shape[1:]),
                                               getattr(self, name).dtype)
                                for name in _RAY_FIELDS})

    def put(self, index, source: "_Terms", select) -> None:
        """Write the rays of the stacked ``source`` selected by ``select`` to
        the rays ``index`` of these terms."""
        for name in _RAY_FIELDS:
            getattr(self, name)[index] = getattr(source, name)[select]


def _float_maxima(pairs, vectors):
    """max|R|, max|S|, max|R-S|, max|R+S|, max|P| and max|P^(R-S)| of one
    problem on Python floats, with the bits of the rows, or None, from its
    nine pairings and the components of R, S, R - S, R + S and P, given
    first in ``vectors``.  ``max`` passes over a NaN that the rows keep, so
    the sum of the pairings may not be NaN, as the squares R.R, S.S,
    (R-S)^2, (R+S)^2 and P.P are for a NaN entry, and
    ``kernels.wedge_maxabs`` must take P and R - S."""
    total = sum(pairs)
    maxima = [max(map(abs, xs)) for xs in vectors[:5]]
    if total == total and (wedge := kernels.wedge_maxabs(
            vectors[4], vectors[2], maxima[4], maxima[2])) is not None:
        return (*maxima, wedge)
    return None


def _split(values: np.ndarray, count: int, one: bool):
    """``values`` as ``count`` fields: floats when ``one``, else equal rows."""
    return values.tolist() if one else values.reshape(count, -1)


def _mu_of(t: _Terms, tol: float) -> float:
    """mu of one ray's terms, once the refusals of :func:`_mu_checks` pass."""
    checks, denom = _mu_checks(t, tol)
    kernels.run_checks(*checks)
    return kernels.link_mu(t.psum, denom)


def _mu_checks(t: _Terms, tol: float):
    """mu's four refusals of the terms ``t``, in order, and mu's denominator."""
    wedge, denom = _mu_denominator(t, tol)
    return ((not t.generic, DegenerateLinkError, "(R-S)^2 = 0; no generic link exists", None),
            (kernels.within(abs(t.psum), tol, t.sum_scale), ZeroMuError,
             "P.(R+S) = 0; the ray cannot parametrize a link", None),
            (t.p_transversal ^ True, DegenerateLinkError,  # ^ True: not, on bools and masks
             "P^(R-S) = 0; the ray is not transversal", None),
            wedge), denom


def _mu_denominator(t: _Terms, tol: float):
    """mu's denominator {P^(R-S)}^2 + {P.(R+S)}^2 as (its refusal, its value)."""
    psum2 = t.psum * t.psum
    denom = t.w2 + psum2
    return _degenerate(denom, tol, abs(t.w2), psum2), denom


def _degenerate(denominator, tol: float, *scales):
    """The refusal of a vanishing link denominator: mu's, or D with no scales."""
    return (kernels.within(abs(denominator), tol, *scales), DegenerateLinkError,
            "degenerate link denominator", None)


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
    only the planarity witness P^R^S is evaluated here, by :func:`_planar_rows`
    on the ray as one row: the components i < j < k first, and the full
    witness only when they leave the ray a planar candidate.  The link path
    (:func:`mu_scalar`, :func:`p_link`) never evaluates it.
    """
    t = problem._terms
    planar = _planar_rows(problem, t._replace(p=t.p.components[None]))
    return LinkAdmissibility(t.generic, t.p_transversal,
                             float(t.denominator), bool(planar[0]))


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
    t = problem._terms
    if t.coincide or problem.P is None:
        return _planar_link(space, r, s, t)
    mu = problem._mu
    p, d, dd = t.p, t.d, t.denominator
    kernels.run_checks(_degenerate(dd, space.tol_abs))
    g = space.g
    alpha, beta = kernels.link_covectors(t.d2, t.pp, t.pr, t.ps, dd,
                                         g @ p.components, g @ d.components)
    ent = kernels.link_entries(p.components, d.components, alpha, beta)
    return _verified(Isometry(_fresh(Endomorphism, ent, space),
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
    """The ``planar`` flag of :func:`admissibility` for each stacked ray.

    A ray is planar when the witness P^R^S lies within tol_abs max(1, n^3),
    n the largest component of P, R and S.  The components i < j < k
    (:func:`kernels.trivector_triple_rows`) come first: a ray whose largest
    one exceeds the bound is not planar.  Only the other rays, the planar
    candidates, those with a NaN and all rays at d = 2, take the full d^3
    witness (:func:`kernels.trivector_rows`), and ``within`` decides every
    ray as it would on the full witness.
    """
    tol, r, s = problem.space.tol_abs, problem.R.components, problem.S.components
    cube = t.norms * t.norms * t.norms
    witness = kernels.trivector_triple_rows(t.p, r, s)
    candidates = ~(witness > tol * kernels.larger(1.0, cube))
    witness[candidates] = kernels.trivector_rows(t.p[candidates], r, s)
    return kernels.within(witness, tol, cube)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _link_rows(problem: LinkProblem, t: _Terms) -> _RayLinks:
    """The links of the stacked rays of ``t``, with every check of one link.

    Each row gets what :func:`p_link` builds for its ray, with the gamma of
    :func:`gamma_of_link` for R = S, and mu when the problem is generic.  All
    rows are formed, then run one link's checks (R = S skips D, law and gamma)
    and stop at the first refused ray, whose values may be non-finite."""
    space = problem.space
    checks, mu = [], None
    if t.generic or not t.coincide:
        checks, denom = _mu_checks(t, space.tol_abs)
        mu = kernels.link_mu(t.psum, denom)
    r, s = problem.R.components, problem.S.components
    if t.coincide:
        eye = space.eye
        entries, gamma = np.broadcast_to(eye, (len(t.p),) + eye.shape), np.ones(len(t.p))
    else:
        g = space.g
        gp = np.matmul(g, t.p[:, :, None])[..., 0]
        alpha, beta = kernels.link_covectors(t.d2, t.pp[:, None], t.pr[:, None],
                                             t.ps[:, None], t.denominator[:, None],
                                             gp, g @ t.d.components)
        entries = kernels.link_entries(t.p, t.d.components, alpha, beta)
        # The generator record (mu P)^(R-S), with gamma + 1 = mu P.(R+S).
        q = mu[:, None] * t.p
        d = np.broadcast_to(t.d.components, q.shape)
        gamma = mu * t.psum - 1.0
        checks = [*checks, _degenerate(t.denominator, space.tol_abs),
                  _law_check(space, entries, kernels.maxabs_rows),
                  _gamma_check(space, kernels.bivector_pairing(g, q, d, q, d), gamma)]
    link = _link_check(space, entries, r, s, top=kernels.maxabs_rows)
    n, error = kernels.run_checks(*checks, link, rows=len(t.p))
    return _RayLinks(entries[:n], None if mu is None else mu[:n], gamma[:n],
                     link[-1][:n], error)


def planar_link(r: Vector, s: Vector) -> Isometry:
    """The unique link whose generator lies in the plane of R and S.

        L = id - 2 (R+S) (x) g(R+S) / (R+S)^2 + 2 S (x) gR / S.S

    Requires R.R = S.S != 0 and (R+S)^2 != 0.  The generator record is
    (S/S.S)^R with gamma = R.S / R.R; R = S returns the identity.  Every
    branch verifies LR = S.
    """
    problem = LinkProblem(r, s)
    return _planar_link(problem.space, r, s, problem._terms)


def _planar_link(space, r: Vector, s: Vector, t: _Terms) -> Isometry:
    """:func:`planar_link` of R = ``r`` and S = ``s``, whose R.R = S.S the
    caller has checked, from the terms ``t`` of the ray P = R, so that P.S
    is R.S.  R = S reads only ``t.coincide``, which no ray changes."""
    tol = space.tol_abs
    if t.coincide:
        return _verified(Isometry(space.identity()), r, s)
    if (kernels.is_null(t.rr, maxabs(r.components), tol)
            or kernels.is_null(t.ss, maxabs(s.components), tol)):
        raise NullVectorError("planar link requires non-null vectors")
    u = r.components + s.components
    if kernels.is_null(t.u2, maxabs(u), tol):
        raise DegenerateSumError("(R+S)^2 = 0; planar link undefined")
    g = space.g
    ent = (space.eye
           - 2.0 * np.outer(u, g @ u) / t.u2
           + 2.0 * np.outer(s.components, g @ r.components) / t.ss)
    return _verified(Isometry(_fresh(Endomorphism, ent, space),
                              SimpleBivector((1.0 / t.ss) * s, r), t.ps / t.rr), r, s)


def fahnline_boost(r: Vector, s: Vector) -> Isometry:
    """The planar link between future unit time-like vectors.

    Checks its domain, R.R = S.S = -1 within tol_rel and then R.S <= -1
    within tolerance, and returns :func:`planar_link`'s operator and record,
    whose gamma R.S / R.R is -R.S on that domain.  R = S returns the
    identity, and every branch verifies LR = S.
    """
    space = same_space(r, s)
    # The terms of the ray P = R, whose P.S is R.S.
    t = _Terms.of(space, r.components, r.components, s.components)
    message = "vectors must be unit time-like (square -1)"
    kernels.run_checks(_unit_timelike(space, t.rr, message), _unit_timelike(space, t.ss, message))
    if t.ps > -1.0 + space.tol_rel:
        raise NotFutureDirectedError(f"R.S = {t.ps!r} must not exceed -1")
    return _planar_link(space, r, s, t)


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
    second = gamma * gamma - 1.0 - (pr - ps) * (pr - ps)
    return float(first), float(second)


def binary_velocity(r: Vector, s: Vector) -> Vector:
    """Relative-velocity vector of S with respect to R,

        w(R, S) = (R.R / R.S) (id - r) (S - R),

    with r the idempotent of R, the one R keeps (:func:`idempotent_of`),
    formed once both refusals passed.  Orthogonal to R, not reciprocal under
    exchanging the arguments, but its squared magnitude
    -R.R + R.R^3/(R.S)^2 is exchange-symmetric when R.R = S.S.
    """
    space = same_space(r, s)
    rc, sc = r.components, s.components
    (rs,) = _pairings(space, (rc, sc))
    rr, r_max, s_max = r.square(), maxabs(rc), maxabs(sc)
    if kernels.is_null(rr, r_max, space.tol_abs):
        raise NullVectorError("binary velocity requires non-null R")
    if kernels.within(abs(rs), space.tol_abs, r_max * s_max):
        raise OrthogonalPairError("R.S = 0; relative velocity undefined")
    d = sc - rc
    return _fresh(Vector, (d - idempotent_of(r).entries @ d) * float(rr / rs), space)


def ternary_velocity(problem: LinkProblem, c: float = 1.0) -> Vector:
    """Velocity of S relative to R as measured by the preferred observer P.

    All three vectors must be unit time-like (square -1 within tol_rel; no
    silent normalization), in a Lorentzian space.  The scaled vector
    vbar = mu (id - p)(R - S) obeys vbar.vbar = gamma^2 - 1; the returned
    velocity is v = c vbar / gamma and satisfies P.v = 0.  R = S gives the
    zero velocity; an omitted P defaults to the planar choice P = R.
    """
    _check_c(c)
    return _ternary_velocity(problem.space, problem._terms, c, problem.effective_p())


def _ternary_velocity(space, t: _Terms, c, p: Vector) -> Vector:
    """:func:`ternary_velocity` of one problem's terms ``t``, with every check
    in order, projecting onto the idempotent that P = ``p`` keeps."""
    _check_isomagnitude(space, t.rr, t.ss)
    message = "ternary velocity requires unit time-like P, R, S"
    kernels.run_checks(_unit_timelike(space, t.pp, message), _unit_timelike(space, t.rr, message),
                       _unit_timelike(space, t.ss, message))
    if not space.is_lorentzian:
        # elsewhere vbar.vbar = gamma^2 - 1 need not hold; it can be negative
        raise SpaceMismatchError("ternary velocity requires a Lorentzian space")
    if t.coincide:
        return _fresh(Vector, np.zeros(space.dim), space)
    d = t.d.components
    vbar = (d - idempotent_of(p).entries @ d) * float(_mu_of(t, space.tol_abs))
    (vbar2,) = _pairings(space, (vbar, vbar))
    if vbar2 < 0.0:
        raise InternalConsistencyError(
            f"vbar.vbar = {vbar2!r} should be non-negative")
    return _fresh(Vector, vbar * float(float(c) / float(np.sqrt(1.0 + vbar2))), space)


def gamma_of_link(problem: LinkProblem) -> float:
    """|gamma| of the link selected by the preferred ray,

        |({P.(R+S)}^2 - {P^(R-S)}^2) / ({P.(R+S)}^2 + {P^(R-S)}^2)|.

    With P omitted the planar default applies; for unit time-like planar
    problems the value reduces to |R.S|.  R = S gives 1.
    """
    t = problem._terms
    if t.coincide:
        return 1.0
    refusal, denom = _mu_denominator(t, problem.space.tol_abs)
    kernels.run_checks(refusal)
    return abs((t.psum * t.psum - t.w2) / denom)
