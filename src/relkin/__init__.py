"""Coordinate-free pseudo-Euclidean isometries and relativistic kinematics.

The package parametrises isometries by simple bivectors, solves the linking
problem of mapping one vector to another of the same magnitude, and builds
the boost and velocity calculus of special relativity on top, together with
a groupoid view of observer-to-observer velocities.  Everything works on
plain component arrays against an explicit metric; no basis is preferred.

The namespace loads lazily (PEP 562): a submodule, or a name exported from
one, is imported on first access, so ``from relkin import Observer`` loads
the kinematics and what it needs, not the property suite or the sampler.
"""

import importlib

__version__ = "0.1.0"

# What each export module exports, in dependency order; the package exports
# these names, in this order.  Each row is its module's __all__, so this
# table is the one list of them; only scenario's own list is longer (it also
# names its loader), and kernels, sampling and cli are not exported.
_EXPORTS = {
    "errors": (
        "RelkinError", "SpaceMismatchError", "DegenerateMetricError", "NonFiniteError",
        "NullVectorError", "NotUnimodularError", "OutOfDomainError",
        "DegenerateGammaError", "MissingGeneratorError", "NotInStabilizerError",
        "NotIsomagnitudeError", "DegenerateLinkError", "ZeroMuError", "DegenerateSumError",
        "NotUnitTimelikeError", "NotFutureDirectedError", "NotNullCaseError",
        "OrthogonalPairError", "SuperluminalError", "NotObservedError",
        "PreferredObserverMismatchError", "DegenerateEpochError",
        "DegenerateDenominatorError", "NotComposableError", "DrawsExhaustedError",
        "ScenarioError", "InternalConsistencyError"),
    "metric_core": (
        "DEFAULT_TOL_ABS", "DEFAULT_TOL_REL", "Covector", "Endomorphism", "MetricSpace",
        "SimpleBivector", "Vector", "bivector_product", "contract", "idempotent_of",
        "lie_map", "maxabs", "orthogonal_presentation", "represent_sl2",
        "scalar_product", "trivector_maxabs"),
    "isometry": (
        "Isometry", "covector_pair", "isometry_from_bivector", "isometry_residual",
        "minimal_poly_residual", "minimal_poly_residual_alt", "operator_classes",
        "reflection", "stabilizer_element"),
    "linker": (
        "LinkAdmissibility", "LinkProblem", "admissibility", "binary_velocity",
        "fahnline_boost", "gamma_of_link", "mu_scalar", "null_link_conditions", "p_link",
        "planar_link", "ternary_velocity"),
    "kinematics": (
        "EventCoordinates", "Observer", "TransformResult", "Velocity3",
        "acceleration_transform", "boost", "coordinate_transform", "einstein_transform",
        "event_coordinates", "event_vector", "gamma", "negate", "urbantke_velocity",
        "velocity_add", "velocity_subtract", "verified_boost"),
    "groupoid": ("ObserverObject", "VelocityMorphism", "compare_with_isometric", "compose",
                 "hom"),
    "checks": ("PropertyResult", "ScanRecords", "link_ray_scan", "run_all",
               "NUMERICAL_FLOOR"),
    "scenario": ("Scenario",),  # the scenario module's loader stays in relkin.scenario
}

_SUBMODULES = frozenset(_EXPORTS) | {"cli", "kernels", "sampling"}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    """A submodule, or the name its module exports, imported on first access
    and kept in the namespace."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted(set(globals()) | _SUBMODULES | set(__all__))
