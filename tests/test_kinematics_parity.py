"""The kinematics and groupoid helpers against the object-API code they replaced.

``reference_binary_velocity``, ``reference_ternary_velocity``,
``reference_velocity_add``, ``reference_velocity_subtract`` and
``reference_compare`` are the implementations the library used before its
velocity formulas moved onto shared pairings: one ``scalar_product`` per
pairing and one ``Vector`` operation per step.  The library must return the
same bits (signs of zero included) and the same report, or raise the same
error type with the same message.
"""

import numpy as np
import pytest

from relkin import (
    InternalConsistencyError,
    LinkProblem,
    MetricSpace,
    NonFiniteError,
    NotComposableError,
    NotUnitTimelikeError,
    NullVectorError,
    OrthogonalPairError,
    Observer,
    ObserverObject,
    PreferredObserverMismatchError,
    RelkinError,
    SpaceMismatchError,
    SuperluminalError,
    Velocity3,
    VelocityMorphism,
    acceleration_transform,
    binary_velocity,
    boost,
    compare_with_isometric,
    compose,
    coordinate_transform,
    einstein_transform,
    event_coordinates,
    hom,
    idempotent_of,
    kernels,
    maxabs,
    metric_core,
    mu_scalar,
    negate,
    scalar_product,
    ternary_velocity,
    velocity_add,
    velocity_subtract,
    verified_boost,
)
from relkin.sampling import make_space, random_link_triple, random_observer, rng_for

DIMS = (2, 3, 4, 5, 6)
# Speeds as fractions of c, down to 1 - v/c = 1e-6.
BETAS = (0.0, 0.3, 0.9, 1.0 - 1e-2, 1.0 - 1e-4, 1.0 - 1e-6)
# The dimension-2 chain of the kinematics benchmark that velocity_add refuses:
# u and v are anti-parallel at 1 - 7e-6 c and 1 - 4e-6 c.
REFUSED_CHAIN = {"c": 1.986428949177278,
                 "P": [1.0086966027458708, 0.13216972569791136],
                 "Q": [2.256032344365896, -2.0222962045222457],
                 "R": [1.395557662520384, 0.9734378200066803],
                 "u": [0.2625438966265429, 2.003689840471856],
                 "v": [-0.2625447705437176, -2.0036965100573494]}


# -- the replaced implementations ---------------------------------------------

def reference_gamma(v):
    if v.luminal:
        raise SuperluminalError("gamma is undefined for a luminal velocity")
    ratio = v.vector.square() / (v.c * v.c)
    if ratio >= 1.0:
        raise SuperluminalError(f"v.v/c^2 = {ratio!r} is not below 1")
    return float(1.0 / np.sqrt(1.0 - ratio))


def reference_same_frame(u, v):
    if not u.observer.agrees_with(v.observer):
        raise PreferredObserverMismatchError(
            "velocities are referred to different preferred observers")
    if abs(u.c - v.c) > u.space.tol_rel * max(u.c, v.c):
        raise PreferredObserverMismatchError("velocities use different c values")


def reference_velocity_add(u, v):
    reference_same_frame(u, v)
    if v.luminal:
        return v
    gam = reference_gamma(v)
    c2 = v.c * v.c
    vu = scalar_product(v.vector, u.vector)
    first = (1.0 / (gam * (1.0 + vu / c2))) * (u.vector + gam * v.vector)
    w = first + (gam / (gam + 1.0)) * (vu / (c2 + vu)) * v.vector
    alt_first = (1.0 / (1.0 + vu / c2)) * (u.vector + v.vector)
    alt_tail = (gam / (gam + 1.0)) * (1.0 / (c2 + vu)) * (
        vu * v.vector - v.vector.square() * u.vector)
    w_alt = alt_first + alt_tail
    defect = maxabs(w.components - w_alt.components)
    if defect > 1e2 * u.space.tol_rel * max(1.0, maxabs(w.components)):
        raise InternalConsistencyError(
            f"the two composition forms disagree by {defect:.3e}")
    return Velocity3(w, u.observer, u.c, luminal=u.luminal)


def reference_velocity_subtract(u, w):
    reference_same_frame(u, w)
    gu = reference_gamma(u)
    gw = reference_gamma(w)
    k = (1.0 / (gu + gw)) * (gu * u.vector - gw * w.vector)
    y = (gu + gw) ** 2
    x = (gu * u.vector - gw * w.vector).square()
    denom = y - x / (u.c * u.c)
    if denom <= 0.0:
        raise InternalConsistencyError(
            "velocity difference of sub-luminal inputs left the light cone")
    gv = (y + x / (u.c * u.c)) / denom
    v = ((gv + 1.0) / gv) * k
    return Velocity3(v, u.observer, u.c)


def reference_binary_velocity(r, s):
    metric_core.same_space(r, s)
    if r.is_null():
        raise NullVectorError("binary velocity requires non-null R")
    rs = scalar_product(r, s)
    scale = max(1.0, maxabs(r.components) * maxabs(s.components))
    if abs(rs) <= r.space.tol_abs * scale:
        raise OrthogonalPairError("R.S = 0; relative velocity undefined")
    proj = idempotent_of(r)
    d = s - r
    rest = d - proj.apply(d)
    return (r.square() / rs) * rest


def reference_ternary_velocity(problem, c=1.0):
    space = problem.space
    p = problem.effective_p()
    for v in (p, problem.R, problem.S):
        if abs(v.square() + 1.0) > space.tol_rel:
            raise NotUnitTimelikeError("ternary velocity requires unit time-like P, R, S")
    t = problem._terms
    if t.coincide:
        return space.zero_vector()
    d = t.d
    vbar = mu_scalar(problem) * (d - idempotent_of(p).apply(d))
    vbar2 = vbar.square()
    if vbar2 < 0.0:
        raise InternalConsistencyError(f"vbar.vbar = {vbar2!r} should be non-negative")
    gamma_v = float(np.sqrt(1.0 + vbar2))
    return (float(c) / gamma_v) * vbar


def reference_hom(p, q, c=1.0):
    w = reference_binary_velocity(p.observer.vector, q.observer.vector)
    return VelocityMorphism(p, q, float(c) * w, float(c))


def reference_compose(g2, g1):
    if g1.target != g2.source:
        raise NotComposableError("morphism endpoints do not match")
    if g1.c != g2.c:
        raise NotComposableError("morphisms use different c values")
    return reference_hom(g1.source, g2.target, g1.c)


def reference_compare(p, q, r, c=1.0):
    h_pq = reference_hom(p, q, c)
    h_qr = reference_hom(q, r, c)
    h_pr = reference_hom(p, r, c)
    chain = reference_compose(h_qr, h_pq)
    groupoid_discrepancy = maxabs(chain.velocity.components - h_pr.velocity.components)
    if not groupoid_discrepancy == 0.0:
        raise InternalConsistencyError(
            f"groupoid chain p -> q -> r misses hom(p, r) by {groupoid_discrepancy:.3e}")
    pv, qv, rv = p.observer.vector, q.observer.vector, r.observer.vector
    leg_pq = reference_ternary_velocity(LinkProblem(pv, qv, pv), c)
    leg_qr = reference_ternary_velocity(LinkProblem(qv, rv, pv), c)
    direct = reference_ternary_velocity(LinkProblem(pv, rv, pv), c)
    u = Velocity3(leg_pq, p.observer, c)
    v = Velocity3(leg_qr, p.observer, c)
    forward = reference_velocity_add(u, v).vector
    reverse = reference_velocity_add(v, u).vector
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


# -- comparing outcomes ---------------------------------------------------------

def fingerprint(value):
    """Bits of a result: components as bytes, a report by the repr of its
    floats (which tells -0.0 from 0.0)."""
    if isinstance(value, Velocity3):
        return ("velocity", value.vector.components.tobytes(), value.c,
                value.luminal, id(value.observer))
    if isinstance(value, metric_core.Vector):
        return ("vector", value.components.tobytes(), value.components.shape)
    return ("report", repr(value))


def outcome(fn, *args):
    try:
        return "returned", fingerprint(fn(*args))
    except Exception as exc:  # every error type, RelkinError or not, must match
        return "raised", (type(exc), str(exc))


def assert_same_outcome(reference, new, cases):
    seen = {"returned": 0, "raised": 0}
    for args in cases:
        want = outcome(reference, *args)
        assert outcome(new, *args) == want, args
        seen[want[0]] += 1
    return seen


# -- inputs ----------------------------------------------------------------------

def spatial(p, rng):
    """A unit-length direction orthogonal to the observer p."""
    y = p.rest_projection(p.space.vector(rng.normal(size=p.space.dim)))
    return (1.0 / np.sqrt(y.square())) * y


def velocity(p, direction, beta, c, luminal=False):
    return Velocity3((beta * c) * direction, p, c, luminal=luminal)


def velocity_pairs(dim, seed):
    """(u, v) pairs seen by one observer: random, parallel and anti-parallel
    directions over the speeds of BETAS, and luminal first or second operands."""
    space = make_space(dim)
    rng = rng_for(seed, dim)
    pairs = []
    for _ in range(3):
        p = random_observer(space, rng, max_rapidity=2.0)
        c = float(10.0 ** rng.uniform(-0.5, 0.5))
        a, b = spatial(p, rng), spatial(p, rng)
        for beta_u in BETAS:
            for beta_v in BETAS:
                u = velocity(p, a, beta_u, c)
                pairs.append((u, velocity(p, b, beta_v, c)))
                pairs.append((u, velocity(p, a, -beta_v, c)))
                pairs.append((u, velocity(p, a, beta_v, c)))
        light = velocity(p, a, 1.0, c, luminal=True)
        slow = velocity(p, b, 0.5, c)
        pairs += [(light, slow), (slow, light), (light, light),
                  (slow, velocity(random_observer(space, rng), spatial(p, rng), 0.0, c))]
    return pairs


def refused_chain():
    space = make_space(2)
    ch = REFUSED_CHAIN
    p = Observer(space.vector(ch["P"]))
    u = Velocity3(space.vector(ch["u"]), p, ch["c"])
    v = Velocity3(space.vector(ch["v"]), p, ch["c"])
    return space, ch, p, u, v


def binary_pairs(dim, seed):
    """(R, S) pairs: observers, non-unit vectors, coincident and anti-parallel
    vectors, R.S = 0, a null R and a space mismatch."""
    space = make_space(dim)
    rng = rng_for(seed, dim)
    pairs = []
    for _ in range(6):
        p = random_observer(space, rng, max_rapidity=3.0).vector
        q = random_observer(space, rng, max_rapidity=3.0).vector
        x = space.vector(rng.normal(size=dim) * 3.0)
        pairs += [(p, q), (q, p), (p, p), (2.5 * p, q), (x, q), (x, -1.0 * x), (p, x)]
    rest, axis = space.basis_vector(0), space.basis_vector(1)
    pairs += [(rest, axis), (rest + axis, rest), (rest, make_space(dim + 1).basis_vector(0))]
    return pairs


def ternary_problems(dim, seed):
    """(problem, c): observers with P given, omitted or equal to R, coincident
    and nearly coincident R and S, a non-unit P and random non-unit triples."""
    space = make_space(dim)
    rng = rng_for(seed, dim)
    cases = []
    for _ in range(6):
        p, q, r = (random_observer(space, rng, max_rapidity=3.0).vector for _ in range(3))
        c = float(10.0 ** rng.uniform(-0.5, 0.5))
        near = Observer(space.vector(np.concatenate(
            ([np.sqrt(1.0 + 1e-14)], [1e-7] + [0.0] * (dim - 2))))).vector
        cases += [(LinkProblem(q, r, p), c), (LinkProblem(p, q, p), c),
                  (LinkProblem(q, r), c), (LinkProblem(q, q, p), c),
                  (LinkProblem(space.basis_vector(0), near, p), c),
                  (LinkProblem(q, r, 1.5 * p), c),
                  (random_link_triple(space, rng), c)]
    return cases


def observer_triples(dim, seed):
    """(p, q, r, c): random observers up to rapidity 3, coincident and
    collinear observers, and the refused chain's observers."""
    space = make_space(dim)
    rng = rng_for(seed, dim)
    triples = []
    for _ in range(8):
        p, q, r = (ObserverObject(random_observer(space, rng, max_rapidity=3.0))
                   for _ in range(3))
        c = float(10.0 ** rng.uniform(-0.5, 0.5))
        triples += [(p, q, r, c), (p, p, r, c), (p, q, q, c), (p, q, p, c), (p, p, p, c)]
    axis = np.zeros(dim)
    axis[1] = 1.0
    line = [ObserverObject(Observer(space.vector(
        np.cosh(chi) * np.eye(dim)[0] + np.sinh(chi) * axis))) for chi in (0.2, -1.1, 2.5)]
    triples.append((*line, 1.0))
    # q within a rapidity of 1e-7 of p: (p - q)^2 vanishes to tolerance, so the
    # link problem (p, q) with P = p is refused.
    near = ObserverObject(Observer(space.vector(np.concatenate(
        ([np.sqrt(1.0 + 1e-14)], [1e-7] + [0.0] * (dim - 2))))))
    triples.append((ObserverObject(Observer(space.basis_vector(0))), near, line[2], 1.0))
    if dim == 2:
        ch = REFUSED_CHAIN
        triples.append((*(ObserverObject(Observer(space.vector(ch[k]))) for k in "PQR"),
                        ch["c"]))
    return triples


# -- parity ------------------------------------------------------------------------

@pytest.mark.parametrize("dim", DIMS)
class TestParity:
    def test_velocity_add(self, dim):
        seen = assert_same_outcome(reference_velocity_add, velocity_add,
                                   velocity_pairs(dim, 81))
        assert seen["returned"] > 100

    def test_velocity_subtract(self, dim):
        cases = []
        for u, v in velocity_pairs(dim, 82):
            cases.append((u, v))
            if not (u.luminal or v.luminal):
                try:
                    cases.append((u, velocity_add(u, negate(v))))
                except RelkinError:
                    pass
        seen = assert_same_outcome(reference_velocity_subtract, velocity_subtract, cases)
        assert seen["returned"] > 100 and seen["raised"] > 0

    def test_binary_velocity(self, dim):
        seen = assert_same_outcome(reference_binary_velocity, binary_velocity,
                                   binary_pairs(dim, 83))
        assert seen["returned"] > 20 and seen["raised"] >= 2

    def test_ternary_velocity(self, dim):
        seen = assert_same_outcome(reference_ternary_velocity, ternary_velocity,
                                   ternary_problems(dim, 84))
        assert seen["returned"] > 20 and seen["raised"] > 6

    def test_compare_with_isometric(self, dim):
        seen = assert_same_outcome(reference_compare, compare_with_isometric,
                                   observer_triples(dim, 85))
        assert seen["returned"] > 20 and seen["raised"] >= 1


def test_refused_chain_keeps_its_refusal():
    _, _, _, u, v = refused_chain()
    with pytest.raises(InternalConsistencyError, match="disagree by 9.228e-07"):
        velocity_add(u, v)
    assert_same_outcome(reference_velocity_add, velocity_add, [(u, v), (v, u)])
    assert_same_outcome(reference_velocity_subtract, velocity_subtract, [(u, v), (v, u)])


# -- guards ----------------------------------------------------------------------------

class TestReadOnlyResults:
    """Library-made arrays are frozen in place, not copied."""

    def test_kinematics_results(self):
        space, ch, p, fast, v = refused_chain()
        q = Observer(space.vector(ch["Q"]))
        u = Velocity3(0.25 * fast.vector, p, ch["c"])
        e = space.vector([0.3, -1.2])
        arrays = [
            boost(p, u).mapping.entries,
            verified_boost(p, v)[0].mapping.entries,
            coordinate_transform(q, p, u, e).x_prime.components,
            einstein_transform(p, u, e)[1].components,
            event_coordinates(q, e).x.components,
            velocity_add(u, negate(u)).vector.components,
            velocity_subtract(u, negate(u)).vector.components,
            acceleration_transform(u, negate(u), 0.1 * u.vector).components,
            p.idempotent.entries,
            p.rest_projection(e).components,
            (u.vector + v.vector).components,
            (2.0 * u.vector).components,
            (-u.vector).components,
        ]
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_groupoid_and_velocity_results(self):
        space = make_space(4)
        rng = rng_for(86)
        p, q, r = (ObserverObject(random_observer(space, rng)) for _ in range(3))
        pv, qv, rv = p.observer.vector, q.observer.vector, r.observer.vector
        arrays = [hom(p, q, 2.0).velocity.components,
                  compose(hom(q, r), hom(p, q)).velocity.components,
                  binary_velocity(pv, qv).components,
                  ternary_velocity(LinkProblem(qv, rv, pv)).components,
                  ternary_velocity(LinkProblem(qv, qv, pv)).components,
                  idempotent_of(pv).entries]
        for arr in arrays:
            assert not arr.flags.writeable


class TestPublicConstructorsValidate:
    def test_vector_refuses_nan_and_wrong_shapes(self):
        space = make_space(4)
        with pytest.raises(NonFiniteError, match="vector has non-finite entries"):
            space.vector([1.0, np.nan, 0.0, 0.0])
        with pytest.raises(SpaceMismatchError, match="vector needs 4 components"):
            space.vector([1.0, 0.0, 0.0])
        with pytest.raises(SpaceMismatchError, match="got shape \\(2, 2\\)"):
            space.vector(np.eye(2))

    def test_vector_copies_user_arrays(self):
        space = make_space(3)
        comps = np.array([1.0, 2.0, 3.0])
        v = space.vector(comps)
        comps[0] = 9.0
        assert comps.flags.writeable
        assert v.components.tolist() == [1.0, 2.0, 3.0]


def test_compare_evaluates_its_pairings_in_few_passes(monkeypatch):
    """One comparison makes no scalar_product call and no pairing_rows pass.
    Its _pairings passes are fixed: R.S for each hom (hom(p, q), hom(q, r),
    hom(p, r) and the chain's hom(p, r)), one vbar.vbar per link problem
    (three), one P.v per Velocity3 built (two legs and two sums) and one v.u
    per velocity_add (two): 13.  The link terms pair on the space's float
    pairing, and the squares and idempotents are those the observers and
    velocities keep, so a second comparison makes the same passes."""
    space = make_space(4)
    rng = rng_for(87)
    p, q, r = (ObserverObject(random_observer(space, rng)) for _ in range(3))
    counts = {"scalar_product": 0, "pairing_rows": 0, "_pairings": 0}
    originals = {"scalar_product": metric_core.scalar_product,
                 "pairing_rows": kernels.pairing_rows,
                 "_pairings": metric_core._pairings}

    def counted(name):
        def call(*args):
            counts[name] += 1
            return originals[name](*args)
        return call

    import relkin
    modules = [m for name, m in vars(relkin).items() if type(m) is type(relkin)]
    for mod in modules:
        for name, fn in originals.items():
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counted(name))
    compare_with_isometric(p, q, r, 1.5)
    assert counts == {"scalar_product": 0, "pairing_rows": 0, "_pairings": 13}
    counts["_pairings"] = 0
    compare_with_isometric(p, q, r, 1.5)   # the observers' idempotents are cached
    assert counts == {"scalar_product": 0, "pairing_rows": 0, "_pairings": 13}


def test_space_mismatch_keeps_the_order_of_refusals():
    """hom(p, q)'s refusals come before a q, r space mismatch, as when the
    comparison built hom(p, q) first."""
    loose = MetricSpace.from_metric(np.diag([-1.0, 1.0, 1.0]), tol_abs=2.0)
    p = ObserverObject(Observer(loose.vector([1.0, 0.0, 0.0])))
    q = ObserverObject(Observer(loose.vector([1.25, 0.75, 0.0])))
    r = ObserverObject(Observer(make_space(4).basis_vector(0)))
    with pytest.raises(NullVectorError, match="binary velocity requires non-null R"):
        compare_with_isometric(p, q, r)
    rest3 = [ObserverObject(Observer(make_space(3).basis_vector(0))) for _ in range(2)]
    with pytest.raises(SpaceMismatchError, match="different metric spaces"):
        compare_with_isometric(*rest3, r)
