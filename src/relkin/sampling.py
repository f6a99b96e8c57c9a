"""Seeded random generators for well-conditioned test data.

Every function takes a numpy Generator, so a fixed seed reproduces the same
objects bit for bit.  Samplers reject ill-conditioned draws (near-null
vectors, near-degenerate link denominators) with generous margins so that
downstream identities hold comfortably inside the default tolerances.
"""

from __future__ import annotations

import numpy as np

from .errors import DrawsExhaustedError
from .isometry import isometry_from_bivector
from .kinematics import Observer, Velocity3
from .linker import LinkProblem
from .metric_core import MetricSpace, SimpleBivector, Vector, _fresh, maxabs, scalar_product

__all__ = [
    "SIGNATURES",
    "make_space",
    "metric_for",
    "random_admissible_bivector",
    "random_link_triple",
    "random_nonnull_vector",
    "random_observer",
    "random_observed_velocity",
    "random_stabilizer_bivector",
    "random_vector",
    "rng_for",
]

SIGNATURES = ("euclidean", "lorentzian", "split")

_MAX_TRIES = 1000


def _exhausted(sampler: str) -> DrawsExhaustedError:
    return DrawsExhaustedError(f"{sampler} accepted none of its {_MAX_TRIES} draws")


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Independent generator for (seed, stream...); used per sample index."""
    return np.random.default_rng([int(seed), *map(int, stream)])


def metric_for(dim: int, kind: str) -> np.ndarray:
    """Diagonal metric of the named signature family."""
    diag = np.ones(dim)
    if kind == "lorentzian":
        diag[0] = -1.0
    elif kind == "split":
        diag[0] = -1.0
        diag[1 % dim] = -1.0
    elif kind != "euclidean":
        raise ValueError(f"unknown signature kind {kind!r}")
    return np.diag(diag)


def make_space(dim: int, kind: str = "lorentzian") -> MetricSpace:
    """The space of the named signature family, with the default tolerances."""
    return MetricSpace.from_metric(metric_for(dim, kind))


def random_vector(space: MetricSpace, rng: np.random.Generator,
                  scale: float = 1.0) -> Vector:
    return _fresh(Vector, rng.normal(size=space.dim) * scale, space)


def random_nonnull_vector(space: MetricSpace, rng: np.random.Generator,
                          min_square: float = 0.1) -> Vector:
    for _ in range(_MAX_TRIES):
        v = random_vector(space, rng)
        if abs(v.square()) >= min_square:
            return v
    raise _exhausted("random_nonnull_vector")


def _capped(b: SimpleBivector, m2: float) -> SimpleBivector | None:
    """P^Q, of square ``m2``, with Q rescaled so that the square lies in
    [-9, 0.9]; None when the rescaled square still exceeds 0.9.

    The cap keeps gamma between about 0.3 and sqrt(10), so the binomial
    operator and its inverse stay well-conditioned.
    """
    if m2 > 0.9:
        b = SimpleBivector(b.first, float(np.sqrt(0.8 / m2)) * b.second)
    elif m2 < -9.0:
        b = SimpleBivector(b.first, float(np.sqrt(8.0 / -m2)) * b.second)
    return b if b.square() <= 0.9 else None


def random_admissible_bivector(space: MetricSpace,
                               rng: np.random.Generator) -> SimpleBivector:
    """Simple bivector with squared magnitude in [-9, 0.9]."""
    for _ in range(_MAX_TRIES):
        b = SimpleBivector(random_vector(space, rng), random_vector(space, rng))
        b = _capped(b, b.square())
        if b is not None:
            return b
    raise _exhausted("random_admissible_bivector")


def random_link_triple(space: MetricSpace, rng: np.random.Generator,
                       margin: float = 0.05) -> LinkProblem:
    """Admissible (R, S, P) with comfortable genericity margins.

    S is produced by applying a random generated isometry to R, so the
    magnitudes match to rounding error.
    """
    for _ in range(_MAX_TRIES):
        r = random_nonnull_vector(space, rng)
        iso = isometry_from_bivector(random_admissible_bivector(space, rng))
        s = iso.apply(r)
        d = r - s
        if abs(d.square()) < margin * max(1.0, maxabs(d.components) ** 2):
            continue
        problem = LinkProblem(r, s, random_vector(space, rng))
        t = problem._terms
        if not (t.generic and t.p_transversal):
            continue
        if abs(t.psum) < margin or abs(t.denominator) < margin:
            continue
        return problem
    raise _exhausted("random_link_triple")


def random_observer(space: MetricSpace, rng: np.random.Generator,
                    max_rapidity: float = 1.5) -> Observer:
    """Future unit time-like vector for a diagonal Lorentzian metric."""
    chi = rng.uniform(0.0, max_rapidity)
    n = rng.normal(size=space.dim - 1)
    n /= np.linalg.norm(n)
    return Observer(_fresh(Vector, np.concatenate(([np.cosh(chi)], np.sinh(chi) * n)), space))


def random_observed_velocity(p: Observer, rng: np.random.Generator,
                             c: float = 1.0, beta_min: float = 0.05,
                             beta_max: float = 0.85) -> Velocity3:
    """Spatial velocity orthogonal to the observer with |v| in (beta_min,
    beta_max) times c."""
    space = p.space
    for _ in range(_MAX_TRIES):
        y = random_vector(space, rng)
        w = p.rest_projection(y)
        w2 = w.square()
        if w2 <= space.tol_abs:
            continue
        beta = rng.uniform(beta_min, beta_max)
        return Velocity3((beta * c / float(np.sqrt(w2))) * w, p, c)
    raise _exhausted("random_observed_velocity")


def random_stabilizer_bivector(r: Vector, rng: np.random.Generator) -> SimpleBivector:
    """Admissible bivector with both legs orthogonal to a non-null R."""
    space = r.space
    r2 = r.square()
    for _ in range(_MAX_TRIES):
        legs = []
        for _ in range(2):
            y = random_vector(space, rng)
            legs.append(y - (scalar_product(r, y) / r2) * r)
        b = SimpleBivector(*legs)
        m2 = b.square()
        if abs(m2) <= space.tol_abs:
            continue
        b = _capped(b, m2)
        if b is not None:
            return b
    raise _exhausted("random_stabilizer_bivector")
