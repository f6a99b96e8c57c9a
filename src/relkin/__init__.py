"""Coordinate-free pseudo-Euclidean isometries and relativistic kinematics.

The package parametrises isometries by simple bivectors, solves the linking
problem of mapping one vector to another of the same magnitude, and builds
the boost and velocity calculus of special relativity on top, together with
a groupoid view of observer-to-observer velocities.  Everything works on
plain component arrays against an explicit metric; no basis is preferred.
"""

from . import checks, errors, groupoid, isometry, kinematics, linker, metric_core
from .errors import *  # noqa: F401,F403
from .metric_core import *  # noqa: F401,F403
from .isometry import *  # noqa: F401,F403
from .linker import *  # noqa: F401,F403
from .kinematics import *  # noqa: F401,F403
from .groupoid import *  # noqa: F401,F403
from .checks import *  # noqa: F401,F403
from .scenario import Scenario

__version__ = "0.1.0"

_MODULES = (errors, metric_core, isometry, linker, kinematics, groupoid, checks)

__all__ = [name for module in _MODULES for name in module.__all__] + ["Scenario"]
