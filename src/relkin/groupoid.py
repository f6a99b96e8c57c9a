"""Groupoid of observers: objects are observers, morphisms carry the unique
relative velocity between them.

Because hom(p, q) is a single closed-form vector, composition is defined by
endpoint matching alone: compose(g2, g1) = hom(g1.source, g2.target).  The
chain map is therefore associative bit for bit, in deliberate contrast to
the non-associative velocity composition of the isometric picture.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import InternalConsistencyError, NotComposableError, SpaceMismatchError
from .kinematics import Observer, Velocity3, velocity_add
from .linker import _Terms, _binary_velocity, _ternary_velocity, binary_velocity
from .metric_core import Vector, _check_c, _fresh, maxabs, same_space

__all__ = [
    "ObserverObject",
    "VelocityMorphism",
    "compare_with_isometric",
    "compose",
    "hom",
]


@dataclass(eq=False)
class ObserverObject:
    """Groupoid object: an observer with an optional display label.

    Equality compares the observer vectors within tol_rel and ignores the
    label, so relabeled copies are the same object.
    """

    observer: Observer
    label: str = ""

    def __eq__(self, other):
        if not isinstance(other, ObserverObject):
            return NotImplemented
        return self.observer.agrees_with(other.observer)

    __hash__ = None


@dataclass(frozen=True, eq=False)
class VelocityMorphism:
    """Arrow p -> q carrying the relative velocity of q as seen by p."""

    source: ObserverObject
    target: ObserverObject
    velocity: Vector
    c: float = 1.0

    def same_arrow(self, other: "VelocityMorphism") -> bool:
        return (self.source == other.source and self.target == other.target
                and np.array_equal(self.velocity.components,
                                   other.velocity.components))


def hom(p: ObserverObject, q: ObserverObject, c: float = 1.0) -> VelocityMorphism:
    """The unique morphism p -> q.

    Velocity is the relative-velocity vector of the observer pair scaled
    into velocity units by c; it is orthogonal to the source observer and
    strictly sub-luminal.  Depends only on the observer vectors, never on
    labels.  hom(p, p) is the zero morphism.  c must be positive and finite,
    as for a Velocity3.
    """
    _check_c(c)
    w = binary_velocity(p.observer.vector, q.observer.vector)
    return VelocityMorphism(p, q, float(c) * w, float(c))


def compose(g2: VelocityMorphism, g1: VelocityMorphism) -> VelocityMorphism:
    """Composite of p -> q (g1) and q -> r (g2), which is hom(p, r).

    Endpoint mismatch raises NotComposableError.  Because the result is
    recomputed from the endpoints, chain composition is exactly associative
    and identities are exact units.
    """
    if g1.target != g2.source:
        raise NotComposableError("morphism endpoints do not match")
    if g1.c != g2.c:
        raise NotComposableError("morphisms use different c values")
    return hom(g1.source, g2.target, g1.c)


def compare_with_isometric(p: ObserverObject, q: ObserverObject,
                           r: ObserverObject, c: float = 1.0) -> dict:
    """Contrast the groupoid chain p -> q -> r with velocity composition.

    The groupoid side composes hom(p, q) with hom(q, r) and compares with
    hom(p, r): identical by construction, so any discrepancy (NaN included)
    raises InternalConsistencyError.  The isometric side extracts the
    ternary velocities of the same chain as seen by p and combines them with
    the relativistic sum in both composition orders, reporting how far the
    two orders differ and how far each lands from the direct velocity of r.
    All discrepancies vanish for coplanar chains and generically do not.
    Both sides share one pass over the pairings of p, q and r, and the
    idempotents the observers cache; the results and refusals are those of
    the separate hom, ternary_velocity and velocity_add calls.
    """
    _check_c(c)
    objs = (p, q, r)
    pv, qv, rv = vecs = [o.observer.vector for o in objs]
    try:
        space = same_space(*vecs)
    except SpaceMismatchError:
        hom(p, q, c)        # hom(p, q)'s refusals come first
        raise
    comps = np.array([v.components for v in vecs])
    # The six pairings of p, q and r, in one pass; dot[i][j] pairs objs i and j.
    pp, qq, rr, pq, qr, pr = kernels.pairing_rows(
        space.g, comps[[0, 1, 2, 0, 1, 0]], comps[[0, 1, 2, 1, 2, 2]]).tolist()
    dot = [[pp, pq, pr], [pq, qq, qr], [pr, qr, rr]]
    top = kernels.maxabs_rows(comps).tolist()
    projector = [lambda o=o: o.observer.idempotent.entries for o in objs]

    def morphism(i, j):
        w = _binary_velocity(vecs[i].space, comps[i], comps[j], dot[i][i], dot[i][j],
                             top[i], top[j], projector[i])
        return VelocityMorphism(objs[i], objs[j],
                                _fresh(Vector, w * float(c), vecs[i].space), float(c))

    h_pq, h_qr, h_pr = morphism(0, 1), morphism(1, 2), morphism(0, 2)
    chain = compose(h_qr, h_pq)
    groupoid_discrepancy = maxabs(chain.velocity.components
                                  - h_pr.velocity.components)
    if not groupoid_discrepancy == 0.0:
        raise InternalConsistencyError(
            f"groupoid chain p -> q -> r misses hom(p, r) by {groupoid_discrepancy:.3e}")

    # The link problems (R, S) = (p, q), (q, r), (p, r), all with P = p.
    terms = _Terms.of(space, comps[0], comps[[0, 1, 0]], comps[[1, 2, 2]])
    leg_pq, leg_qr, direct = [_ternary_velocity(space, t, c, projector[0])
                              for t in terms.problems(space)]

    u = Velocity3(leg_pq, p.observer, c)
    v = Velocity3(leg_qr, p.observer, c)
    forward = velocity_add(u, v).vector
    reverse = velocity_add(v, u).vector

    return {
        "hom_pq": h_pq.velocity.components.tolist(),
        "hom_qr": h_qr.velocity.components.tolist(),
        "hom_pr": h_pr.velocity.components.tolist(),
        "chain": chain.velocity.components.tolist(),
        "groupoid_discrepancy": float(groupoid_discrepancy),
        "leg_pq": leg_pq.components.tolist(),
        "leg_qr": leg_qr.components.tolist(),
        "direct": direct.components.tolist(),
        "sum_forward": forward.components.tolist(),
        "sum_reverse": reverse.components.tolist(),
        "order_discrepancy": float(maxabs(forward.components - reverse.components)),
        "forward_vs_direct": float(maxabs(forward.components - direct.components)),
        "reverse_vs_direct": float(maxabs(reverse.components - direct.components)),
    }
