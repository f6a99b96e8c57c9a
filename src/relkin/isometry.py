"""Metric-preserving operators generated by simple bivectors.

A bivector P^Q with (P^Q)^2 <= 1 generates the isometry

    L = id + M + M^2 / (gamma + 1),    M = P (x) gQ - Q (x) gP,

where gamma^2 = 1 - (P^Q)^2.  Construction always verifies the defining
property L* o g o L = g; an isometry that fails the check is never returned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateGammaError,
    InternalConsistencyError,
    MissingGeneratorError,
    NotInStabilizerError,
    NullVectorError,
    OutOfDomainError,
)
from .kernels import (GAMMA_MESSAGE, LAW_MESSAGE, LINK_MESSAGE, gamma_defect,
                      law_bound, law_defect, link_bound)
from .metric_core import (
    Covector,
    Endomorphism,
    MetricSpace,
    SimpleBivector,
    Vector,
    _frozen,
    lie_map,
    maxabs,
    same_space,
    scalar_product,
)

__all__ = [
    "Isometry",
    "covector_pair",
    "isometry_from_bivector",
    "isometry_residual",
    "minimal_poly_residual",
    "minimal_poly_residual_alt",
    "operator_classes",
    "reflection",
    "stabilizer_element",
]


def isometry_residual(mapping: Endomorphism) -> float:
    """Max-norm of L* g L - g, the defect of the metric-preservation law."""
    return maxabs(law_defect(mapping.space.g, mapping.entries))


@dataclass(frozen=True, eq=False)
class Isometry:
    """A verified metric-preserving operator.

    ``generator`` and ``gamma`` record the bivector presentation when the
    operator was built from one; composite operators drop the record.  The
    stored gamma is the binomial coefficient of the construction, which for
    link-built operators can be negative (rotation by more than a quarter
    turn); gamma^2 = 1 - generator^2 always holds.
    """

    mapping: Endomorphism
    generator: SimpleBivector | None = None
    gamma: float | None = None

    def __post_init__(self):
        space = self.mapping.space
        res = isometry_residual(self.mapping)
        if res > law_bound(space.tol_rel, maxabs(space.g), self.mapping.max_norm()):
            raise InternalConsistencyError(LAW_MESSAGE.format(res))
        if self.generator is not None and self.gamma is not None:
            defect, bound = gamma_defect(self.gamma, self.generator.square(),
                                         space.tol_rel)
            if defect > bound:
                raise InternalConsistencyError(GAMMA_MESSAGE.format(defect))

    @property
    def space(self) -> MetricSpace:
        return self.mapping.space

    def apply(self, v: Vector) -> Vector:
        return self.mapping.apply(v)

    def compose(self, other: "Isometry") -> "Isometry":
        """self o other; the presentation record does not survive composition."""
        return Isometry(self.mapping @ other.mapping)

    __matmul__ = compose

    def inverse(self) -> "Isometry":
        """g^-1 L* g, which inverts any isometry exactly.

        A generated operator keeps its record with the presentation reversed
        and the same gamma.
        """
        space = self.space
        ent = space.g_inv @ self.mapping.entries.T @ space.g
        inv_map = Endomorphism(_frozen(ent), space)
        if self.generator is None:
            return Isometry(inv_map)
        return Isometry(inv_map, self.generator.reversed(), self.gamma)

    def distance(self, other: "Isometry") -> float:
        """Max-norm distance between the two operators."""
        return maxabs(self.mapping.entries - other.mapping.entries)

    def __repr__(self):
        return f"Isometry({np.array2string(self.mapping.entries, separator=', ')})"


def reflection(p: Vector) -> Isometry:
    """Reflection id - 2 P (x) gP / P.P in the hyperplane orthogonal to P.

    Involutive, and maps P to -P.  P must be non-null.
    """
    if p.is_null():
        raise NullVectorError("reflection requires a non-null vector")
    space = p.space
    ent = np.eye(space.dim) - 2.0 * np.outer(p.components, space.g @ p.components) / p.square()
    return Isometry(Endomorphism(_frozen(ent), space))


def _principal_gamma(b: SimpleBivector) -> float:
    """The principal root gamma of gamma^2 = 1 - (P^Q)^2; raises
    OutOfDomainError outside the domain (P^Q)^2 <= 1."""
    m2 = b.square()
    if m2 > 1.0 + b.space.tol_abs:
        raise OutOfDomainError(f"(P^Q)^2 = {m2!r} exceeds 1")
    return float(np.sqrt(max(0.0, 1.0 - m2)))


def isometry_from_bivector(b: SimpleBivector) -> Isometry:
    """Binomial isometry id + M + M^2/(gamma+1) of a simple bivector.

    gamma is the principal root of gamma^2 = 1 - (P^Q)^2, so the domain is
    (P^Q)^2 <= 1; outside it the construction raises OutOfDomainError.  The
    zero bivector yields the identity with gamma = 1.
    """
    space = b.space
    gamma = _principal_gamma(b)
    if abs(gamma + 1.0) <= space.tol_abs:
        raise DegenerateGammaError("gamma + 1 vanishes")
    m = lie_map(b).entries
    ent = np.eye(space.dim) + m + (m @ m) / (gamma + 1.0)
    return Isometry(Endomorphism(_frozen(ent), space), b, gamma)


def covector_pair(b: SimpleBivector) -> tuple[Covector, Covector]:
    """Covectors (alpha, beta) with L = id - P (x) alpha - Q (x) beta.

    For the zero bivector both covectors are zero.  Otherwise

        (gamma+1) alpha = Q.Q gP - (P.Q + gamma + 1) gQ
        (gamma+1) beta  = P.P gQ - (P.Q - gamma - 1) gP

    with gamma the principal root; the pair reconstructs the binomial
    operator exactly, including for degenerate presentations.
    """
    space = b.space
    if b.is_zero():
        zero = space.covector(np.zeros(space.dim))
        return zero, zero
    p, q = b.first, b.second
    gamma = _principal_gamma(b)
    gp = space.g @ p.components
    gq = space.g @ q.components
    pq = scalar_product(p, q)
    alpha = (q.square() * gp - (pq + gamma + 1.0) * gq) / (gamma + 1.0)
    beta = (p.square() * gq - (pq - gamma - 1.0) * gp) / (gamma + 1.0)
    return space.covector(alpha), space.covector(beta)


def minimal_poly_residual(iso: Isometry) -> float:
    """Residual of the annihilating cubic (L - id)(L^2 - 2 gamma L + id).

    The quadratic factor is the characteristic polynomial of the restriction
    of L to the plane of its generator (trace 2 gamma, determinant 1), so the
    residual vanishes for every generated isometry.  Requires the generator
    record.
    """
    ent, eye = _generated_entries(iso)
    return maxabs((ent - eye) @ (ent @ ent - 2.0 * iso.gamma * ent + eye))


def minimal_poly_residual_alt(iso: Isometry) -> float:
    """Residual of the variant cubic (L - id)(L^2 + 2(gamma-2)(L + id)).

    This variant factor does not annihilate generic generated isometries;
    it is evaluated alongside the corrected one so reports can show both.
    """
    ent, eye = _generated_entries(iso)
    return maxabs((ent - eye) @ (ent @ ent + 2.0 * (iso.gamma - 2.0) * (ent + eye)))


def _generated_entries(iso: Isometry) -> tuple[np.ndarray, np.ndarray]:
    """The entries of ``iso`` and the identity; raises MissingGeneratorError
    when ``iso`` carries no generator record."""
    if iso.generator is None or iso.gamma is None:
        raise MissingGeneratorError("operator carries no generator record")
    return iso.mapping.entries, np.eye(iso.space.dim)


def stabilizer_element(r: Vector, b: SimpleBivector) -> Isometry:
    """Isometry generated by a bivector whose legs are orthogonal to R.

    Such an operator fixes R, because the generator annihilates it.  Legs
    that are not orthogonal to R within tol_abs raise NotInStabilizerError.
    """
    space = same_space(r, b.first)
    scale_r = max(1.0, maxabs(r.components))
    for leg in (b.first, b.second):
        bound = space.tol_abs * scale_r * max(1.0, maxabs(leg.components))
        if abs(scalar_product(r, leg)) > bound:
            raise NotInStabilizerError("generator legs must be orthogonal to R")
    return _verified(isometry_from_bivector(b), r, r,
                     "stabilizer element moved its fixed vector by {:.3e}")


def _verified(iso: Isometry, r: Vector, s: Vector, message: str = LINK_MESSAGE):
    """``iso`` once it is checked to map R to S within the link bound; raises
    InternalConsistencyError with ``message`` and the residual otherwise."""
    res = maxabs(iso.apply(r).components - s.components)
    if res > link_bound(r.space.tol_rel, maxabs(s.components)):
        raise InternalConsistencyError(message.format(res))
    return iso


def _max_abs_rows(flat, which, op):
    """The distance ``max(|a - op|)`` from ``op`` to each operator ``a`` of
    ``flat[which]``, one flattened operator per row.

    Unlike ``kernels.maxabs_rows(flat[which] - op)``, it holds one temporary
    of the rows' size, not two.
    """
    gaps = flat[which]
    gaps -= op
    np.abs(gaps, out=gaps)
    return gaps.max(axis=1)


def _units(flat, finite):
    """Group the operators ``flat`` into units: one per set of equal finite
    operators, then one per non-finite operator.

    Returns the first index and the size of each unit, and the keys of the
    finite units: their entry where the finite operators range widest.  The
    finite units come first, in key order.
    """
    fin = np.flatnonzero(finite)
    mask = finite[:, None]
    widest = np.argmax(flat.max(axis=0, where=mask, initial=-np.inf)
                       - flat.min(axis=0, where=mask, initial=np.inf))
    order = np.argsort(flat[fin, widest], kind="stable")
    keys = flat[fin[order], widest]
    fresh = np.ones(len(fin), dtype=bool)
    fresh[1:] = keys[1:] != keys[:-1]
    if not fresh.all():  # equal operators have equal keys: order ties by every entry
        order = np.lexsort(flat[fin].T)  # stable, so equal rows keep index order
        order = order[np.argsort(flat[fin[order], widest], kind="stable")]
        rows = flat[fin[order]]
        fresh[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    starts = np.flatnonzero(fresh)
    index = np.concatenate([fin[order[starts]], np.flatnonzero(~finite)])
    size = np.concatenate([np.diff(starts, append=len(fin)),
                           np.ones(len(flat) - len(fin), dtype=int)])
    return index, size, keys[starts]


def operator_classes(entries, cut):
    """Greedy class count of the stacked operators ``entries`` at distance
    ``cut``, the number of pairs farther apart than ``cut``, and the largest
    distance from the first operator.

    The distance of two operators is that of :meth:`Isometry.distance`, the
    largest ``|a - b|`` over their entries (NaN when one is NaN).  An
    operator starts a class when no earlier class starter lies within
    ``cut``.

    Two operators within ``cut`` are within it in every entry, so the finite
    operators are sorted by the entry that ranges widest, and only pairs
    whose keys lie within ``cut`` (plus a rounding margin) get an exact
    distance: every other pair of distinct finite operators is farther apart.
    Equal finite operators form one unit, which starts at most one class,
    and an operator with a non-finite entry gets one exact row to all the
    others.  Work and memory stay linear in the number of operators, apart
    from the sorts and from operators crowding within ``cut`` of one key.
    """
    n = len(entries)
    if n < 2:
        return n, 0, 0.0
    flat = np.reshape(entries, (n, -1))
    finite = np.isfinite(flat).all(axis=1)
    index, size, keys = _units(flat, finite)
    units, n_keyed = len(index), len(keys)
    # Equal operators lie equally far from the first; a fold of Python max
    # from 0.0 passes NaN over.
    gaps = _max_abs_rows(flat, index[index > 0], flat[0])
    gaps = gaps[gaps > 0.0]
    spread = float(gaps.max()) if gaps.size else 0.0

    # A finite unit is compared with the finite units whose key can lie
    # within cut of its own, a non-finite unit with all.  The margin covers
    # the rounding of the key differences and of the window bounds.
    reach = cut + 2.0 * np.finfo(float).eps * (cut + np.abs(keys).max(initial=0.0))
    first = np.searchsorted(keys, keys - reach, "left")
    last = np.searchsorted(keys, keys + reach, "right")
    visit = np.flatnonzero(np.concatenate([last - first > 1,
                                           np.ones(units - n_keyed, dtype=bool)]))

    starter = np.ones(units, dtype=bool)
    near_pairs = above = 0
    for u in visit[np.argsort(index[visit])]:  # in index order
        others = np.arange(first[u], last[u]) if u < n_keyed else np.arange(units)
        others = others[others != u]
        row = _max_abs_rows(flat, index[others], flat[index[u]])
        near = others[row <= cut]
        earlier = index[near] < index[u]
        if starter[near[earlier]].any():
            starter[u] = False
        if u < n_keyed:  # a near pair of finite units is counted from its earlier unit
            near_pairs += int(size[u]) * int(size[near[~earlier]].sum())
        else:  # a pair with a non-finite operator is counted from that one
            counted = (others < n_keyed) | (index[others] < index[u])
            above += int(size[others[counted & (row > cut)]].sum())
            if starter[u]:
                starter[near[~earlier]] = False

    # The other pairs of finite operators are near or farther than cut.
    n_finite = int(size[:n_keyed].sum())
    equal = int((size * (size - 1) // 2).sum())  # pairs at distance 0
    apart = n_finite * (n_finite - 1) // 2 - equal - near_pairs
    above += (apart if cut == cut else 0) + (equal if 0.0 > cut else 0)
    return (int(starter.sum()) if 0.0 <= cut else n), above, spread
