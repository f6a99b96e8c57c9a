"""Vectors, covectors, simple bivectors and endomorphisms over a
pseudo-Euclidean inner-product space of arbitrary dimension and signature.

Components are stored as float64 arrays relative to the basis in which the
metric tensor was supplied; no coordinate chart is ever introduced.  All
values are immutable after construction and every operation is a pure
function, so objects can be shared freely between threads.

A value forms its invariants on first use and keeps them: the square of a
``Vector`` and of a ``SimpleBivector``, and a ``MetricSpace``'s max|g|,
identity entries, signature and float pairing.  A square is kept only when
the components it was formed from can no longer change (see
:func:`_settled`); arithmetic builds a new value, which forms its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _EXPORTS
from .errors import (
    DegenerateMetricError,
    NonFiniteError,
    NotUnimodularError,
    NotUnitTimelikeError,
    NullVectorError,
    SpaceMismatchError,
)
from .kernels import (bivector_pairing, float_pairing, identity_entries, is_null,
                      pairing_rows, trivector_rows, within)

__all__ = _EXPORTS["metric_core"]

DEFAULT_TOL_REL = 1e-9
DEFAULT_TOL_ABS = 1e-12
# The named diagonal metric families of scenario files and the samplers.
SIGNATURES = ("euclidean", "lorentzian", "split")
_FLOAT64 = np.dtype(np.float64)


def maxabs(values) -> float:
    """Largest absolute entry of an array (the operator norm used throughout).

    An array of at most 36 entries, a vector or a d x d operator up to d = 6,
    is read as Python floats unless its sum is NaN, as ``max`` passes over a
    NaN that is not first.  Larger arrays call the ufunc reduction that
    ``np.max`` runs, and a NaN entry propagates.
    """
    arr = values if type(values) is np.ndarray and values.dtype is _FLOAT64 else \
        np.asarray(values, dtype=float)
    if arr.size <= 36:
        xs = arr.ravel().tolist()
        if (total := sum(xs)) == total:
            return max(map(abs, xs), default=0.0)
    return float(np.maximum.reduce(np.abs(arr), axis=None))


def _fresh(cls, values: np.ndarray, space: "MetricSpace"):
    """``cls(values, space)`` for an array the library has just computed: frozen
    in place, without the copy and checks of the public constructors."""
    values.setflags(write=False)
    return cls(values, space)


def _settled(arr: np.ndarray) -> bool:
    """Whether the entries of ``arr`` can no longer change: it is read-only,
    and so is the array whose memory it views, if any.  A value keeps a
    square formed from such arrays only."""
    base = arr.base
    return not arr.flags.writeable and (
        base is None or isinstance(base, np.ndarray) and not base.flags.writeable)


def _keep(value, square: float, *arrays) -> float:
    """``square``, kept on ``value`` when every one of ``arrays`` is settled."""
    if all(map(_settled, arrays)):
        value.__dict__["_square"] = square
    return square


def _finite(arr: np.ndarray, quantity: str, error=NonFiniteError) -> np.ndarray:
    """``arr``, once every entry is finite; raises ``error`` otherwise."""
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):
        raise error(f"{quantity} has non-finite entries: {arr.tolist()}")
    return arr


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
        if not within(maxabs(g - g.T), tol_abs, maxabs(g)):
            raise DegenerateMetricError("metric tensor is not symmetric")
        g = (g + g.T) / 2.0
        try:
            g_inv = np.linalg.inv(g)
        except np.linalg.LinAlgError as exc:
            raise DegenerateMetricError("metric tensor is singular") from exc
        if not within(maxabs(g @ g_inv - np.eye(dim)), tol_rel, maxabs(g)):
            raise DegenerateMetricError("metric tensor is not invertible to tolerance")
        g.setflags(write=False)
        g_inv.setflags(write=False)
        return cls(dim, g, g_inv, float(tol_rel), float(tol_abs))

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

    @cached_property
    def _float_pairing(self):
        """``kernels.float_pairing`` of g, or None: resolved once per space, by
        the metric's content."""
        return float_pairing(self.g)

    @cached_property
    def g_max(self) -> float:
        """max|g|, the metric's scale in the bound of the isometry law."""
        return maxabs(self.g)

    @cached_property
    def eye(self) -> np.ndarray:
        """The read-only entries of the identity, ``kernels.identity_entries``;
        the library reads them where :meth:`identity` would build a new one."""
        return identity_entries(self.dim)

    @property
    def is_lorentzian(self) -> bool:
        """True when the signature is (-, +, ..., +)."""
        return self._signature == (1, self.dim - 1)

    def vector(self, components) -> "Vector":
        return self._checked(Vector, components, "vector")

    def covector(self, components) -> "Covector":
        return self._checked(Covector, components, "covector")

    def endomorphism(self, entries) -> "Endomorphism":
        return self._checked(Endomorphism, entries, "endomorphism")

    def _checked(self, cls, values, quantity: str):
        """A ``cls`` over a frozen copy of outside input, refused unless it has
        the shape of a ``quantity`` and finite entries."""
        arr = np.array(values, dtype=float)
        square = cls is Endomorphism
        if arr.shape != ((self.dim, self.dim) if square else (self.dim,)):
            need = f"shape {(self.dim, self.dim)}, got" if square else \
                f"{self.dim} components, got shape"
            raise SpaceMismatchError(f"{quantity} needs {need} {arr.shape}")
        return _fresh(cls, _finite(arr, quantity), self)

    def identity(self) -> "Endomorphism":
        return _fresh(Endomorphism, np.eye(self.dim), self)

    def basis_vector(self, i: int) -> "Vector":
        return _fresh(Vector, np.eye(self.dim)[i], self)

    def zero_vector(self) -> "Vector":
        return _fresh(Vector, np.zeros(self.dim), self)


def same_space(*objs) -> MetricSpace:
    """Return the shared space of the operands or raise SpaceMismatchError."""
    space = objs[0].space
    for obj in objs[1:]:
        if obj.space is not space and obj.space != space:
            raise SpaceMismatchError("operands belong to different metric spaces")
    return space


def _shape_error(*values):
    """The refusal of :meth:`MetricSpace.vector` (or ``covector``) for the
    first of the vectors or covectors ``values`` whose components are not of
    shape (d,); None if every shape is (d,)."""
    for value in values:
        shape, dim = value.components.shape, value.space.dim
        if shape != (dim,):
            return SpaceMismatchError(
                f"{type(value).__name__.lower()} needs {dim} components, got shape {shape}")
    return None


def _operands(a, b) -> None:
    """Refuse the operands of ``+`` or ``-`` unless they share a space and,
    before NumPy can broadcast them, both hold components of shape (d,)."""
    dim = same_space(a, b).dim
    if not a.components.shape == b.components.shape == (dim,):
        raise _shape_error(a, b)


class _Components:
    """Componentwise arithmetic of vectors and covectors in one space."""

    def __add__(self, other):
        _operands(self, other)
        return _fresh(type(self), self.components + other.components, self.space)

    def __sub__(self, other):
        _operands(self, other)
        return _fresh(type(self), self.components - other.components, self.space)

    def __neg__(self):
        return _fresh(type(self), -self.components, self.space)

    def __mul__(self, scale):
        return _fresh(type(self), self.components * float(scale), self.space)

    __rmul__ = __mul__

    def __repr__(self):
        return f"{type(self).__name__}({np.array2string(self.components, separator=', ')})"


@dataclass(frozen=True, eq=False, repr=False)
class Vector(_Components):
    """Element of the space, stored by components in the ambient basis."""

    components: np.ndarray
    space: MetricSpace

    def square(self) -> float:
        """v.v, formed on first use and kept when the components are settled."""
        kept = self.__dict__.get("_square")
        return kept if kept is not None else _keep(
            self, _pairing(self.space, self.components, self.components), self.components)

    def lower(self) -> "Covector":
        """Metric-dual covector g(v, .)."""
        try:
            values = self.space.g @ self.components
        except ValueError as exc:
            raise _shape_error(self) or exc from None
        return _fresh(Covector, values, self.space)

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
        try:
            return float(self.components @ v.components)
        except (TypeError, ValueError) as exc:  # float() of more than one entry: TypeError
            raise _shape_error(self, v) or exc from None

    def raise_index(self) -> Vector:
        """Metric-dual vector (inverse metric applied to the components)."""
        try:
            values = self.space.g_inv @ self.components
        except ValueError as exc:
            raise _shape_error(self) or exc from None
        return _fresh(Vector, values, self.space)


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
        """Bivector self-magnitude (P^Q).(P^Q), formed on first use and kept
        when the components of both legs are settled."""
        kept = self.__dict__.get("_square")
        return kept if kept is not None else _keep(
            self, bivector_product(self, self), self.first.components, self.second.components)

    def is_zero(self, tol: float | None = None) -> bool:
        tol = self.space.tol_abs if tol is None else tol
        return within(maxabs(self.components()), tol,
                      maxabs(self.first.components) * maxabs(self.second.components))

    def equals(self, other: "SimpleBivector", tol: float | None = None) -> bool:
        same_space(self.first, other.first)
        tol = self.space.tol_rel if tol is None else tol
        a = self.components()
        b = other.components()
        return within(maxabs(a - b), tol, maxabs(a), maxabs(b))

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
        try:
            values = self.entries @ v.components
        except ValueError as exc:
            raise _shape_error(v) or exc from None
        return _fresh(Vector, values, self.space)

    def compose(self, other: "Endomorphism") -> "Endomorphism":
        same_space(self, other)
        return _fresh(Endomorphism, self.entries @ other.entries, self.space)

    __matmul__ = compose

    def __add__(self, other: "Endomorphism") -> "Endomorphism":
        same_space(self, other)
        return _fresh(Endomorphism, self.entries + other.entries, self.space)

    def __sub__(self, other: "Endomorphism") -> "Endomorphism":
        same_space(self, other)
        return _fresh(Endomorphism, self.entries - other.entries, self.space)

    def __mul__(self, scale) -> "Endomorphism":
        return _fresh(Endomorphism, self.entries * float(scale), self.space)

    __rmul__ = __mul__

    def trace(self) -> float:
        return float(np.trace(self.entries))

    def __repr__(self):
        return f"Endomorphism({np.array2string(self.entries, separator=', ')})"


def scalar_product(a: Vector, b: Vector) -> float:
    """Metric pairing a.b.

    Evaluated through the symmetrized outer product so that the result is
    bit-identical under argument exchange, up to the sign of a NaN, by
    ``kernels.pairing_rows``, the one body of the pairing formula, as a
    float: on the space's float pairing where it takes the pair, else on
    arrays.  The library's one-object formulas pair the same way
    (:func:`_pairings`), without this call's space check.
    """
    space = same_space(a, b)
    return _pairing(space, a.components, b.components)


def _pairing(space: MetricSpace, a: np.ndarray, b: np.ndarray) -> float:
    """``pairing_rows(space.g, a, b).tolist()``, on the space's float pairing
    for two float64 d-vectors it takes; components of any shape other than
    (d,) are refused, as :meth:`MetricSpace.vector` refuses them."""
    pair = space._float_pairing
    if (pair is not None and a.dtype is b.dtype is _FLOAT64
            and a.shape == b.shape == (space.dim,)
            and (value := pair(a.tolist(), b.tolist())) is not None):
        return value
    for arr in (a, b):
        if arr.shape != (space.dim,):
            raise SpaceMismatchError(
                f"vector needs {space.dim} components, got shape {arr.shape}")
    return pairing_rows(space.g, a, b).tolist()


def _pairings(space: MetricSpace, *pairs) -> list[float]:
    """The pairings a.b of a few (a, b) component pairs, as floats, each by
    :func:`_pairing`: the one pass of a one-object formula's pairings."""
    return [_pairing(space, a, b) for a, b in pairs]


def _check_unit_timelike(space: MetricSpace, message: str, *squares: float) -> None:
    """Raise NotUnitTimelikeError, with ``message`` formatted with the square,
    unless every one of ``squares`` is -1 to the tol_rel of ``space``."""
    for square in squares:
        if not within(abs(square + 1.0), space.tol_rel):
            raise NotUnitTimelikeError(message.format(square))


def _check_c(c) -> None:
    """Refuse a speed of light that is not positive, then one that is not finite."""
    if c <= 0.0:
        raise SpaceMismatchError("c must be positive")
    if not math.isfinite(c):
        raise NonFiniteError(f"c = {c!r} is not finite")


def bivector_product(b1: SimpleBivector, b2: SimpleBivector) -> float:
    """Induced pairing (A^B).(P^Q) = (A.P)(B.Q) - (A.Q)(B.P).

    A square, where P and Q hold the arrays of A and B, is (A.A)(B.B) -
    (A.B)^2, from the legs' squares and one pairing: B.A has the bits of A.B,
    as each of its terms a_i b_j + a_j b_i only swaps commuting operands.
    """
    same_space(b1.first, b2.first)
    a, b = b1.first, b1.second
    if b2.first.components is a.components and b2.second.components is b.components:
        ab = _pairing(b1.space, a.components, b.components)
        return a.square() * b.square() - ab * ab
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
    pp = p.square()
    if is_null(pp, maxabs(p.components), p.space.tol_abs):
        raise NullVectorError("idempotent requires a non-null vector")
    gp = p.space.g @ p.components
    return _fresh(Endomorphism, np.outer(p.components, gp) / pp, p.space)


def lie_map(b: SimpleBivector) -> Endomorphism:
    """Generator M = P (x) gQ - Q (x) gP of the bivector P^Q.

    Traceless and metric-skew: g M + (g M)^T = 0.
    """
    space = b.space
    p, q = b.first.components, b.second.components
    entries = p[:, None] * (space.g @ q) - q[:, None] * (space.g @ p)
    return _fresh(Endomorphism, entries, space)


def represent_sl2(b: SimpleBivector, a: float, bb: float,
                  c: float, e: float) -> SimpleBivector:
    """Re-present P^Q as (aP + bQ)^(cP + eQ) for unimodular coefficients.

    The coefficient matrix [[a, b], [c, e]] must satisfy a*e - b*c = 1 within
    tol_rel; that condition is exactly what keeps the bivector unchanged.
    """
    space = b.space
    det = float(a) * float(e) - float(bb) * float(c)
    if not within(abs(det - 1.0), space.tol_rel):
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
    return float(trivector_rows(u.components[None], v.components, w.components)[0])
