"""Exception types raised by the public API.

Every contract violation raises a subclass of :class:`RelkinError`, so callers
can catch one base class.  :class:`InternalConsistencyError` is reserved for
identities that are supposed to hold by construction; seeing it means a bug or
catastrophic ill-conditioning, not bad input.
"""

__all__ = [
    "RelkinError",
    "SpaceMismatchError",
    "DegenerateMetricError",
    "NonFiniteError",
    "NullVectorError",
    "NotUnimodularError",
    "OutOfDomainError",
    "DegenerateGammaError",
    "MissingGeneratorError",
    "NotInStabilizerError",
    "NotIsomagnitudeError",
    "DegenerateLinkError",
    "ZeroMuError",
    "DegenerateSumError",
    "NotUnitTimelikeError",
    "NotFutureDirectedError",
    "NotNullCaseError",
    "OrthogonalPairError",
    "SuperluminalError",
    "NotObservedError",
    "PreferredObserverMismatchError",
    "DegenerateEpochError",
    "DegenerateDenominatorError",
    "NotComposableError",
    "DrawsExhaustedError",
    "ScenarioError",
    "InternalConsistencyError",
]


class RelkinError(Exception):
    """Base class for all errors raised by this package."""


class SpaceMismatchError(RelkinError):
    """Operands live in different metric spaces or have the wrong shape."""


class DegenerateMetricError(RelkinError):
    """Metric tensor is not symmetric and invertible to tolerance."""


class NonFiniteError(RelkinError):
    """An input quantity has a NaN or infinite component."""


class NullVectorError(RelkinError):
    """A non-null vector is required but the squared magnitude vanishes."""


class NotUnimodularError(RelkinError):
    """Presentation coefficients do not satisfy a*e - b*c = 1."""


class OutOfDomainError(RelkinError):
    """Bivector magnitude lies outside the domain (P^Q)^2 <= 1."""


class DegenerateGammaError(RelkinError):
    """gamma + 1 vanishes, so the binomial operator is undefined."""


class MissingGeneratorError(RelkinError):
    """The isometry carries no generating bivector or gamma record."""


class NotInStabilizerError(RelkinError):
    """Generator is not orthogonal to the vector it must fix."""


class NotIsomagnitudeError(RelkinError):
    """The two vectors of a link problem have different squared magnitudes."""


class DegenerateLinkError(RelkinError):
    """Link data violate the genericity assumptions of the solution family."""


class ZeroMuError(RelkinError):
    """P.(R+S) = 0, so the preferred ray cannot parametrize a link."""


class DegenerateSumError(RelkinError):
    """(R+S)^2 = 0, so the planar link operator is undefined."""


class NotUnitTimelikeError(RelkinError):
    """A unit time-like vector (square -1) is required."""


class NotFutureDirectedError(RelkinError):
    """Vectors are not a future-directed pair (R.S <= -1 fails)."""


class NotNullCaseError(RelkinError):
    """(R-S)^2 does not vanish, so the null-separation case does not apply."""


class OrthogonalPairError(RelkinError):
    """R.S = 0, so the relative-velocity construction is undefined."""


class SuperluminalError(RelkinError):
    """Velocity magnitude reaches or exceeds c where sub-luminal is required."""


class NotObservedError(RelkinError):
    """Velocity is not orthogonal to the observer that must see it."""


class PreferredObserverMismatchError(RelkinError):
    """Operands are referred to different preferred observers (or c values)."""


class DegenerateEpochError(RelkinError):
    """t + t' = 0, so the velocity-recovery quotient is undefined."""


class DegenerateDenominatorError(RelkinError):
    """c^2 - v.u = 0, so the acceleration transformation is undefined."""


class NotComposableError(RelkinError):
    """Morphism endpoints do not match, so composition is undefined."""


class DrawsExhaustedError(RelkinError):
    """A seeded sampler spent all its draws without accepting one."""


class ScenarioError(RelkinError):
    """Scenario document is malformed or references unknown names."""


class InternalConsistencyError(RelkinError):
    """An identity that holds by construction failed numerically."""
