"""One-object pairings of the kinematics, linker and groupoid paths against
the array form they replaced, bit for bit.

These formulas pair their vectors through ``metric_core._pairings`` on the
space's float pairing, read the squares their vectors keep, and a single
link problem forms its terms on Python floats.  The array form does each
formula's pairings in one ``kernels.pairing_rows`` pass, each square by
``pairing_rows`` and one problem's terms by the stacked arithmetic of
``_Terms.of``.  Each test runs the library both ways and compares the
outcomes: the results, or the type and message of the error raised.  A NaN
matches any NaN, as the sign of a NaN depends on which of two NaN operands
comes first.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from relkin import groupoid, kernels, kinematics, linker, metric_core
from relkin.groupoid import ObserverObject, compare_with_isometric, compose, hom
from relkin.kinematics import (Observer, TransformResult, Velocity3, acceleration_transform,
                               coordinate_transform, einstein_transform, velocity_add,
                               velocity_subtract, verified_boost)
from relkin.linker import LinkProblem, _Terms, binary_velocity, ternary_velocity
from relkin.metric_core import Endomorphism, MetricSpace, Vector, idempotent_of
from relkin.sampling import SIGNATURES, make_space
from test_kinematics_parity import assert_same_outcome, reference_compare

DATA = Path(__file__).parent / "data"
DIMS = [2, 3, 4, 5, 6]


def _lower_shear(dim):
    """I + 0.25 below the diagonal: x -> A^-1 x keeps component 0."""
    return np.eye(dim) + 0.25 * np.tril(np.ones((dim, dim)), -1)


def _congruent_space(dim):
    """A^T diag(-1, 1, ..., 1) A for the shear A: Lorentzian, with entries
    off the diagonal, so that it has no float pairing."""
    a = _lower_shear(dim)
    return MetricSpace.from_metric(a.T @ np.diag([-1.0] + [1.0] * (dim - 1)) @ a)


def _matrix_space():
    return MetricSpace.from_metric(json.loads((DATA / "matrix_link.json").read_text())
                                   ["metric"]["matrix"])


def _named_space(name):
    """The space a test names: ``kind-dim``, ``congruent-dim`` or ``matrix_link``."""
    if name == "matrix_link":
        return _matrix_space()
    kind, dim = name.rsplit("-", 1)
    return _congruent_space(int(dim)) if kind == "congruent" else make_space(int(dim), kind)


def _vector(space, values):
    """A Vector over ``values`` as they are, non-finite entries included."""
    values = np.array(values, dtype=float)
    values.setflags(write=False)
    return Vector(values, space)


def _floats(value):
    """The numbers of a result, in order, with its flags as numbers."""
    if isinstance(value, Velocity3):
        return [*_floats(value.vector), value.c, value.luminal]
    if isinstance(value, Vector):
        return _floats(value.components)
    if isinstance(value, Endomorphism):
        return _floats(value.entries)
    if isinstance(value, groupoid.VelocityMorphism):
        return [*_floats(value.velocity), value.c]
    if isinstance(value, TransformResult):
        return [value.t_prime, *_floats(value.x_prime), *value.scalars, *value.interval]
    if isinstance(value, dict):
        return [x for item in value.values() for x in _floats(item)]
    if isinstance(value, (tuple, list)):
        return [x for item in value for x in _floats(item)]
    if isinstance(value, np.ndarray):
        return value.ravel().tolist()
    if isinstance(value, kinematics.Isometry):
        return _floats(value.mapping)
    return [float(value)]


def _outcome(fn, *args):
    try:
        return "returned", _floats(fn(*args))
    except Exception as exc:  # every error type, RelkinError or not, must match
        return "raised", (type(exc), str(exc))


def _same(x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.shape == y.shape and bool(np.all(
        (x.view(np.int64) == y.view(np.int64)) | (np.isnan(x) & np.isnan(y))))


def _array_pairings(space, *pairs):
    """The pairings of one formula in one ``pairing_rows`` pass, as floats."""
    firsts, seconds = zip(*pairs)
    return kernels.pairing_rows(space.g, np.array(firsts), np.array(seconds)).tolist()


def _array_square(self):
    return float(kernels.pairing_rows(self.space.g, self.components, self.components))


def assert_array_form(monkeypatch, cases):
    """Each (function, *args) of ``cases`` has the outcome of its array form;
    returns how many returned and how many raised."""
    seen = {"returned": 0, "raised": 0}
    with np.errstate(all="ignore"):
        for fn, *args in cases:
            floats = _outcome(fn, *args)
            with monkeypatch.context() as patched:
                for module in (metric_core, kinematics, linker):
                    patched.setattr(module, "_pairings", _array_pairings)
                patched.setattr(Vector, "square", _array_square)
                patched.setattr(linker, "_float_maxima", lambda pairs, vectors: None)
                arrays = _outcome(fn, *args)
            assert floats[0] == arrays[0], (fn.__name__, args, floats, arrays)
            if floats[0] == "raised":
                assert floats[1] == arrays[1], (fn.__name__, args)
            else:
                assert _same(floats[1], arrays[1]), (fn.__name__, args)
            seen[floats[0]] += 1
    return seen


def _kinematics_cases(space, to_space, gen, scale=1.0, specials=0.0):
    """Calls of every changed kinematics and groupoid formula on observers
    drawn in diag(-1, 1, ..., 1) and carried into ``space`` by ``to_space``,
    velocities up to 1 - 1e-6 c with c scaled by ``scale``, and events and
    accelerations with a share ``specials`` of inf and NaN entries."""
    dim = space.dim
    cases = []
    for _ in range(4):
        p, q, r = observers = _observers(space, to_space, gen)
        c = scale * float(10.0 ** gen.uniform(-0.5, 0.5))
        u, v = (Velocity3(beta * c * _direction(p, gen), p, c)
                for beta in (gen.uniform(0.0, 0.99), 1.0 - 10.0 ** -gen.uniform(2.0, 6.0)))
        e, a = (_vector(space, _entries(gen, dim, scale, specials)) for _ in range(2))
        objs = [ObserverObject(o) for o in observers]
        cases += [(Velocity3, u.vector, p, c), (Velocity3, e, p, c), (verified_boost, p, u),
                  (coordinate_transform, r, p, u, e), (coordinate_transform, r, p, v, a),
                  (einstein_transform, p, u, e), (velocity_add, u, v), (velocity_add, v, u),
                  (velocity_subtract, u, v), (velocity_subtract, v, u),
                  (acceleration_transform, u, v, a), (acceleration_transform, v, u, e),
                  (idempotent_of, p.vector), (idempotent_of, e),
                  (binary_velocity, p.vector, q.vector), (binary_velocity, e, a),
                  (hom, *objs[:2], c), (compose, hom(*objs[1:], c), hom(*objs[:2], c)),
                  (ternary_velocity, LinkProblem(q.vector, r.vector, p.vector), c),
                  (compare_with_isometric, *objs, c),
                  (compare_with_isometric, objs[0], objs[0], objs[2], c)]
    return cases


def _observers(space, to_space, gen, max_rapidity=2.0):
    """Three observers drawn in diag(-1, 1, ..., 1), carried into ``space``."""
    observers = []
    for _ in range(3):
        chi, n = gen.uniform(0.0, max_rapidity), gen.normal(size=space.dim - 1)
        x = np.concatenate(([np.cosh(chi)], np.sinh(chi) * n / np.linalg.norm(n)))
        observers.append(Observer(space.vector(to_space @ x)))
    return observers


def _direction(p, gen):
    """A unit spatial direction seen by the observer p."""
    y = p.rest_projection(p.space.vector(gen.normal(size=p.space.dim)))
    return (1.0 / np.sqrt(y.square())) * y


def _entries(gen, dim, scale=1.0, specials=0.0):
    """Normal entries times ``scale``, with a share ``specials`` of inf, -inf and NaN."""
    values = gen.normal(size=dim) * scale
    marks = gen.random(dim) < specials
    values[marks] = gen.choice([np.inf, -np.inf, np.nan], size=int(marks.sum()))
    return values


class TestKinematics:
    @pytest.mark.parametrize("dim", DIMS)
    def test_the_diagonal_metric(self, dim, monkeypatch):
        gen = np.random.default_rng(100 + dim)
        space = make_space(dim)
        seen = assert_array_form(monkeypatch, _kinematics_cases(space, np.eye(dim), gen))
        assert seen["returned"] > 60

    @pytest.mark.parametrize("dim", DIMS)
    def test_the_congruent_metric(self, dim, monkeypatch):
        gen = np.random.default_rng(110 + dim)
        space = _congruent_space(dim)
        assert space._float_pairing is None and space.is_lorentzian
        cases = _kinematics_cases(space, np.linalg.inv(_lower_shear(dim)), gen)
        seen = assert_array_form(monkeypatch, cases)
        assert seen["returned"] > 60

    @pytest.mark.parametrize("dim", [2, 4, 6])
    @np.errstate(all="ignore")
    def test_entries_near_the_bound_and_non_finite(self, dim, monkeypatch):
        """Speeds, events and accelerations near 1e153, where the float
        pairing refuses and the arrays pair, and events and accelerations
        with inf and NaN entries."""
        gen = np.random.default_rng(120 + dim)
        space = make_space(dim)
        cases = []
        for scale, specials in ((1e153, 0.0), (1.0, 0.3), (3e152, 0.2)):
            cases += _kinematics_cases(space, np.eye(dim), gen, scale, specials)
        seen = assert_array_form(monkeypatch, cases)
        assert seen["returned"] > 20 and seen["raised"] > 20

    @pytest.mark.parametrize("dim", DIMS)
    def test_compare_on_the_congruent_metric_matches_the_reference(self, dim):
        gen = np.random.default_rng(130 + dim)
        space = _congruent_space(dim)
        back = np.linalg.inv(_lower_shear(dim))
        triples = []
        for _ in range(6):
            objs = [ObserverObject(o) for o in _observers(space, back, gen, 2.5)]
            c = float(10.0 ** gen.uniform(-0.5, 0.5))
            triples += [(*objs, c), (objs[0], objs[0], objs[2], c), (objs[0], objs[1], objs[1], c)]
        seen = assert_same_outcome(reference_compare, compare_with_isometric, triples)
        assert seen["returned"] >= 12


class TestOneProblemTerms:
    @pytest.mark.parametrize("name", [f"{kind}-{dim}" for kind in SIGNATURES for dim in DIMS]
                             + ["matrix_link", "congruent-4"])
    @np.errstate(all="ignore")
    def test_terms_and_velocities_equal_the_array_form(self, name, monkeypatch):
        space = _named_space(name)
        gen = np.random.default_rng(140 + space.dim)
        cases = []
        for scale, specials in ((1.0, 0.0), (1e154, 0.0), (1.0, 0.2), (1e153, 0.1)):
            for _ in range(6):
                p, r, s = (_vector(space, _entries(gen, space.dim, scale, specials))
                           for _ in range(3))
                cases += [(_Terms.of, space, p.components, r.components, s.components),
                          (_Terms.of, space, r.components, r.components, s.components),
                          (binary_velocity, r, s), (idempotent_of, p),
                          (linker._ternary_velocity, space,
                           _Terms.of(space, p.components, p.components, s.components), 1.0,
                           lambda p=p: idempotent_of(p).entries)]
        seen = assert_array_form(monkeypatch, cases)
        assert seen["returned"] > 40


def test_a_chain_pairs_on_floats(monkeypatch):
    """A dimension-4 chain of the kinematics benchmark makes no pairing_rows
    pass: every one-object pairing, the square of the boost's generator
    (P.vbar) included, takes the space's float pairing.  A silent fallback
    to arrays adds passes."""
    space = make_space(4)
    gen = np.random.default_rng(150)
    comps = [np.concatenate(([np.cosh(chi)], np.sinh(chi) * n / np.linalg.norm(n)))
             for chi, n in zip(gen.uniform(0.0, 1.5, 3), gen.normal(size=(3, 3)))]
    rest = Observer(space.vector(comps[0]))
    c = 1.3
    u, v, a = (scale * _direction(rest, gen).components for scale in (0.6 * c, 0.9 * c, 0.5))
    e = 3.0 * gen.normal(size=4)
    counts = {"pairing_rows": 0}
    for name in counts:
        original = getattr(kernels, name)

        def counted(*args, _original=original, _name=name):
            counts[_name] += 1
            return _original(*args)

        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("relkin")
                    and getattr(module, name, None) is original):
                monkeypatch.setattr(module, name, counted)
    p, q, r = (Observer(space.vector(x)) for x in comps)
    u, v = Velocity3(space.vector(u), p, c), Velocity3(space.vector(v), p, c)
    kinematics.boost(p, u)
    coordinate_transform(r, p, u, space.vector(e))
    w = velocity_add(u, v)
    velocity_add(v, u)
    velocity_subtract(u, w)
    acceleration_transform(u, v, space.vector(a))
    compare_with_isometric(*(ObserverObject(o) for o in (p, q, r)), c)
    assert counts == {"pairing_rows": 0}
