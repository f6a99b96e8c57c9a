"""Vectors, covectors, simple bivectors and endomorphisms over a
pseudo-Euclidean inner-product space of arbitrary dimension and signature.

Components are stored as float64 arrays relative to the basis in which the
metric tensor was supplied; no coordinate chart is ever introduced.  All
values are immutable after construction and every operation is a pure
function, so objects can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateMetricError,
    NonFiniteError,
    NotUnimodularError,
    NotUnitTimelikeError,
    NullVectorError,
    SpaceMismatchError,
)
from .kernels import bivector_pairing, is_null

__all__ = [
    "DEFAULT_TOL_ABS",
    "DEFAULT_TOL_REL",
    "Covector",
    "Endomorphism",
    "MetricSpace",
    "SimpleBivector",
    "Vector",
    "bivector_product",
    "contract",
    "idempotent_of",
    "lie_map",
    "maxabs",
    "orthogonal_presentation",
    "represent_sl2",
    "scalar_product",
    "trivector_maxabs",
]

DEFAULT_TOL_REL = 1e-9
DEFAULT_TOL_ABS = 1e-12


def maxabs(values) -> float:
    """Largest absolute entry of an array (the operator norm used throughout).

    Calls the ufunc reduction directly; it is what ``np.max`` runs, without
    the wrapper, and a NaN entry still propagates.
    """
    arr = np.asarray(values, dtype=float)
    return float(np.maximum.reduce(np.abs(arr), axis=None)) if arr.size else 0.0


def _frozen(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


def _finite(arr: np.ndarray, quantity: str, error=NonFiniteError) -> np.ndarray:
    """``arr``, once every entry is finite; raises ``error`` otherwise."""
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):
        raise error(f"{quantity} has non-finite entries: {arr.tolist()}")
    return arr


@dataclass(frozen=True, eq=False)
class MetricSpace:
    """Dimension, metric tensor and tolerance policy shared by all values.

    Build instances through :meth:`from_metric`, which validates symmetry and
    invertibility and stores the symmetrized tensor together with its inverse.
    ``tol_rel`` guards relative comparisons (defaults to 1e-9) and ``tol_abs``
    guards absolute degeneracy thresholds (defaults to 1e-12).
    """

    dim: int
    g: np.ndarray
    g_inv: np.ndarray
    tol_rel: float = DEFAULT_TOL_REL
    tol_abs: float = DEFAULT_TOL_ABS

    @classmethod
    def from_metric(cls, metric, tol_rel: float = DEFAULT_TOL_REL,
                    tol_abs: float = DEFAULT_TOL_ABS) -> "MetricSpace":
        g = np.array(metric, dtype=float)
        if g.ndim == 1:
            n = int(round(np.sqrt(g.size)))
            if n * n != g.size:
                raise DegenerateMetricError(
                    f"flat metric has {g.size} entries, not a perfect square")
            g = g.reshape(n, n)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise DegenerateMetricError(f"metric must be square, got shape {g.shape}")
        dim = g.shape[0]
        if dim < 2:
            raise DegenerateMetricError("dimension must be at least 2")
        _finite(g, "metric tensor", DegenerateMetricError)
        if maxabs(g - g.T) > tol_abs * max(1.0, maxabs(g)):
            raise DegenerateMetricError("metric tensor is not symmetric")
        g = (g + g.T) / 2.0
        try:
            g_inv = np.linalg.inv(g)
        except np.linalg.LinAlgError as exc:
            raise DegenerateMetricError("metric tensor is singular") from exc
        if maxabs(g @ g_inv - np.eye(dim)) > tol_rel * max(1.0, maxabs(g)):
            raise DegenerateMetricError("metric tensor is not invertible to tolerance")
        return cls(dim, _frozen(g), _frozen(g_inv), float(tol_rel), float(tol_abs))

    def __eq__(self, other):
        if not isinstance(other, MetricSpace):
            return NotImplemented
        return self.dim == other.dim and np.array_equal(self.g, other.g)

    __hash__ = object.__hash__

    def signature(self) -> tuple[int, int]:
        """(number of negative, number of positive) metric eigenvalues."""
        return self._signature

    @cached_property
    def _signature(self) -> tuple[int, int]:
        # g is read-only, so one eigendecomposition serves every call.
        eig = np.linalg.eigvalsh(self.g)
        return int(np.sum(eig < 0.0)), int(np.sum(eig > 0.0))

    @property
    def is_lorentzian(self) -> bool:
        """True when the signature is (-, +, ..., +)."""
        return self._signature == (1, self.dim - 1)

    def vector(self, components) -> "Vector":
        arr = _frozen(components)
        if arr.shape != (self.dim,):
            raise SpaceMismatchError(
                f"vector needs {self.dim} components, got shape {arr.shape}")
        return Vector(_finite(arr, "vector"), self)

    def covector(self, components) -> "Covector":
        arr = _frozen(components)
        if arr.shape != (self.dim,):
            raise SpaceMismatchError(
                f"covector needs {self.dim} components, got shape {arr.shape}")
        return Covector(_finite(arr, "covector"), self)

    def endomorphism(self, entries) -> "Endomorphism":
        arr = _frozen(entries)
        if arr.shape != (self.dim, self.dim):
            raise SpaceMismatchError(
                f"endomorphism needs shape {(self.dim, self.dim)}, got {arr.shape}")
        return Endomorphism(_finite(arr, "endomorphism"), self)

    def identity(self) -> "Endomorphism":
        return Endomorphism(_frozen(np.eye(self.dim)), self)

    def basis_vector(self, i: int) -> "Vector":
        comps = np.zeros(self.dim)
        comps[i] = 1.0
        return self.vector(comps)

    def zero_vector(self) -> "Vector":
        return self.vector(np.zeros(self.dim))


def same_space(*objs) -> MetricSpace:
    """Return the shared space of the operands or raise SpaceMismatchError."""
    space = objs[0].space
    for obj in objs[1:]:
        if obj.space is not space and obj.space != space:
            raise SpaceMismatchError("operands belong to different metric spaces")
    return space


class _Components:
    """Componentwise arithmetic of vectors and covectors in one space."""

    def __add__(self, other):
        same_space(self, other)
        return type(self)(_frozen(self.components + other.components), self.space)

    def __sub__(self, other):
        same_space(self, other)
        return type(self)(_frozen(self.components - other.components), self.space)

    def __neg__(self):
        return type(self)(_frozen(-self.components), self.space)

    def __mul__(self, scale):
        return type(self)(_frozen(self.components * float(scale)), self.space)

    __rmul__ = __mul__

    def __repr__(self):
        return f"{type(self).__name__}({np.array2string(self.components, separator=', ')})"


@dataclass(frozen=True, eq=False, repr=False)
class Vector(_Components):
    """Element of the space, stored by components in the ambient basis."""

    components: np.ndarray
    space: MetricSpace

    def dot(self, other: "Vector") -> float:
        return scalar_product(self, other)

    def square(self) -> float:
        return scalar_product(self, self)

    def wedge(self, other: "Vector") -> "SimpleBivector":
        same_space(self, other)
        return SimpleBivector(self, other)

    def lower(self) -> "Covector":
        """Metric-dual covector g(v, .)."""
        return Covector(_frozen(self.space.g @ self.components), self.space)

    def is_null(self, tol: float | None = None) -> bool:
        tol = self.space.tol_abs if tol is None else tol
        return is_null(self.square(), maxabs(self.components), tol)


@dataclass(frozen=True, eq=False, repr=False)
class Covector(_Components):
    """Linear functional, stored by components in the dual ambient basis."""

    components: np.ndarray
    space: MetricSpace

    def apply(self, v: Vector) -> float:
        same_space(self, v)
        return float(self.components @ v.components)

    def raise_index(self) -> Vector:
        """Metric-dual vector (inverse metric applied to the components)."""
        return Vector(_frozen(self.space.g_inv @ self.components), self.space)


@dataclass(frozen=True, eq=False)
class SimpleBivector:
    """Decomposable bivector P^Q, stored as its presentation pair (P, Q).

    Two presentations describe the same bivector exactly when the canonical
    antisymmetric arrays agree; :meth:`equals` performs that comparison.
    """

    first: Vector
    second: Vector

    def __post_init__(self):
        same_space(self.first, self.second)

    @property
    def space(self) -> MetricSpace:
        return self.first.space

    def components(self) -> np.ndarray:
        p = self.first.components
        q = self.second.components
        return np.outer(p, q) - np.outer(q, p)

    def square(self) -> float:
        """Bivector self-magnitude (P^Q).(P^Q)."""
        return bivector_product(self, self)

    def is_zero(self, tol: float | None = None) -> bool:
        tol = self.space.tol_abs if tol is None else tol
        scale = max(1.0, maxabs(self.first.components)
                    * maxabs(self.second.components))
        return maxabs(self.components()) <= tol * scale

    def equals(self, other: "SimpleBivector", tol: float | None = None) -> bool:
        same_space(self.first, other.first)
        tol = self.space.tol_rel if tol is None else tol
        a = self.components()
        b = other.components()
        return maxabs(a - b) <= tol * max(1.0, maxabs(a), maxabs(b))

    def reversed(self) -> "SimpleBivector":
        return SimpleBivector(self.second, self.first)

    def __repr__(self):
        return f"SimpleBivector({self.first!r}, {self.second!r})"


@dataclass(frozen=True, eq=False)
class Endomorphism:
    """Linear map of the space, stored as a dim x dim entry array."""

    entries: np.ndarray
    space: MetricSpace

    def apply(self, v: Vector) -> Vector:
        same_space(self, v)
        return Vector(_frozen(self.entries @ v.components), self.space)

    def compose(self, other: "Endomorphism") -> "Endomorphism":
        same_space(self, other)
        return Endomorphism(_frozen(self.entries @ other.entries), self.space)

    __matmul__ = compose

    def __add__(self, other: "Endomorphism") -> "Endomorphism":
        same_space(self, other)
        return Endomorphism(_frozen(self.entries + other.entries), self.space)

    def __sub__(self, other: "Endomorphism") -> "Endomorphism":
        same_space(self, other)
        return Endomorphism(_frozen(self.entries - other.entries), self.space)

    def __mul__(self, scale) -> "Endomorphism":
        return Endomorphism(_frozen(self.entries * float(scale)), self.space)

    __rmul__ = __mul__

    def trace(self) -> float:
        return float(np.trace(self.entries))

    def max_norm(self) -> float:
        return maxabs(self.entries)

    def __repr__(self):
        return f"Endomorphism({np.array2string(self.entries, separator=', ')})"


def scalar_product(a: Vector, b: Vector) -> float:
    """Metric pairing a.b.

    Evaluated through the symmetrized outer product so that the result is
    bit-identical under argument exchange.  The outer product and the sum
    call the ufuncs directly: the same operations as ``np.outer`` and
    ``np.sum``, without their Python-level wrappers.  ``kernels.pairing_rows``
    repeats this arithmetic for stacked pairs; one pair costs about 1 us more
    through it, which the kinematics benchmark shows.
    """
    space = same_space(a, b)
    sym = a.components[:, None] * b.components
    sym = sym + sym.T
    return 0.5 * float(np.add.reduce(space.g * sym, axis=None))


def _check_unit_timelike(space: MetricSpace, message: str, *vectors: Vector) -> None:
    """Raise NotUnitTimelikeError, with ``message`` formatted with the square,
    unless every vector has square -1 to the tol_rel of ``space``."""
    for v in vectors:
        square = v.square()
        if abs(square + 1.0) > space.tol_rel:
            raise NotUnitTimelikeError(message.format(square))


def bivector_product(b1: SimpleBivector, b2: SimpleBivector) -> float:
    """Induced pairing (A^B).(P^Q) = (A.P)(B.Q) - (A.Q)(B.P)."""
    same_space(b1.first, b2.first)
    return float(bivector_pairing(b1.space.g, b1.first.components,
                                  b1.second.components, b2.first.components,
                                  b2.second.components))


def contract(v: Vector, b: SimpleBivector) -> Vector:
    """Interior product of a vector with a simple bivector.

    With b = u^w the convention is v.(u^w) = (v.u) w - (v.w) u, which makes
    v.(v^w) = (v.v) w - (v.w) v orthogonal to nothing in particular but keeps
    v.(u^v) + v.(v^u) = 0 exactly.
    """
    same_space(v, b.first)
    u, w = b.first, b.second
    return scalar_product(v, u) * w - scalar_product(v, w) * u


def idempotent_of(p: Vector) -> Endomorphism:
    """Rank-one projector p = P (x) gP / P.P onto the ray of P.

    Satisfies p o p = p and trace(p) = 1.  Raises NullVectorError when P is
    null to tolerance (the test is relative to the component scale).
    """
    if p.is_null():
        raise NullVectorError("idempotent requires a non-null vector")
    gp = p.space.g @ p.components
    entries = np.outer(p.components, gp) / p.square()
    return Endomorphism(_frozen(entries), p.space)


def lie_map(b: SimpleBivector) -> Endomorphism:
    """Generator M = P (x) gQ - Q (x) gP of the bivector P^Q.

    Traceless and metric-skew: g M + (g M)^T = 0.
    """
    space = b.space
    p, q = b.first.components, b.second.components
    entries = np.outer(p, space.g @ q) - np.outer(q, space.g @ p)
    return Endomorphism(_frozen(entries), space)


def represent_sl2(b: SimpleBivector, a: float, bb: float,
                  c: float, e: float) -> SimpleBivector:
    """Re-present P^Q as (aP + bQ)^(cP + eQ) for unimodular coefficients.

    The coefficient matrix [[a, b], [c, e]] must satisfy a*e - b*c = 1 within
    tol_rel; that condition is exactly what keeps the bivector unchanged.
    """
    space = b.space
    det = float(a) * float(e) - float(bb) * float(c)
    if abs(det - 1.0) > space.tol_rel:
        raise NotUnimodularError(f"a*e - b*c = {det!r}, expected 1")
    p, q = b.first, b.second
    return SimpleBivector(float(a) * p + float(bb) * q,
                          float(c) * p + float(e) * q)


def orthogonal_presentation(b: SimpleBivector) -> SimpleBivector:
    """Re-present P^Q as P^W with P.W = 0 via W = (id - p)Q.

    Requires P non-null.  The bivector is unchanged because W differs from Q
    by a multiple of P.
    """
    p, q = b.first, b.second
    if p.is_null():
        raise NullVectorError("orthogonal presentation requires non-null first leg")
    w = q - (scalar_product(p, q) / p.square()) * p
    return SimpleBivector(p, w)


def trivector_maxabs(u: Vector, v: Vector, w: Vector) -> float:
    """Largest component of the rank-3 antisymmetric array u^v^w.

    Used as the planarity witness: the three vectors are coplanar exactly
    when every component vanishes.  Higher-grade metric pairings are out of
    scope; only this component array is exposed.
    """
    same_space(u, v, w)
    a, b, c = u.components, v.components, w.components
    t = (np.einsum("i,j,k->ijk", a, b, c)
         + np.einsum("i,j,k->ijk", b, c, a)
         + np.einsum("i,j,k->ijk", c, a, b)
         - np.einsum("i,j,k->ijk", a, c, b)
         - np.einsum("i,j,k->ijk", b, a, c)
         - np.einsum("i,j,k->ijk", c, b, a))
    return maxabs(t)
