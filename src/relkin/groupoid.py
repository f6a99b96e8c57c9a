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

from . import _EXPORTS
from .errors import InternalConsistencyError, NotComposableError, SpaceMismatchError
from .kinematics import Observer, Velocity3, velocity_add
from .linker import _Terms, _binary_velocity, _ternary_velocity
from .metric_core import Vector, _check_c, maxabs, same_space

__all__ = _EXPORTS["groupoid"]


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
    as for a Velocity3.  The projector onto p is the idempotent the source
    observer caches, the one ``binary_velocity`` would build.
    """
    _check_c(c)
    w = _binary_velocity(p.observer.vector, q.observer.vector,
                         lambda: p.observer.idempotent.entries)
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
    The groupoid side is hom itself; the isometric side forms the terms of
    each of its three link problems (P = p) once, on floats.  Both read the
    idempotent and the squares the observers keep, and the results and
    refusals are those of the separate hom, ternary_velocity and
    velocity_add calls.
    """
    _check_c(c)
    pv, qv, rv = vecs = [o.observer.vector for o in (p, q, r)]
    try:
        space = same_space(*vecs)
    except SpaceMismatchError:
        hom(p, q, c)        # hom(p, q)'s refusals come first
        raise
    h_pq, h_qr, h_pr = hom(p, q, c), hom(q, r, c), hom(p, r, c)
    chain = compose(h_qr, h_pq)
    groupoid_discrepancy = maxabs(chain.velocity.components
                                  - h_pr.velocity.components)
    if not groupoid_discrepancy == 0.0:
        raise InternalConsistencyError(
            f"groupoid chain p -> q -> r misses hom(p, r) by {groupoid_discrepancy:.3e}")

    # The link problems (R, S) = (p, q), (q, r), (p, r), all with P = p.
    leg_pq, leg_qr, direct = [
        _ternary_velocity(space, _Terms.of(space, pv.components, a.components, b.components),
                          c, lambda: p.observer.idempotent.entries)
        for a, b in ((pv, qv), (qv, rv), (pv, rv))]

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
