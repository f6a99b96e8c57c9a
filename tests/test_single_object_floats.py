"""Single objects on Python floats: a space's own float pairing, bivector
squares from their legs, one problem's link terms and ``maxabs`` of small
arrays, each against the array arithmetic it stands in for, bit for bit.

The references are ``kernels._square_sum`` (every pairing from its d^2
terms), ``kernels.bivector_pairing`` (four pairings on arrays), the stacked
row of ``_Terms.of`` and ``np.max(np.abs(...))``.
"""

import gc
import json
import weakref
from pathlib import Path

import numpy as np
import pytest

from relkin import kernels, linker, metric_core, sampling
from relkin.errors import SpaceMismatchError
from relkin.linker import _Terms
from relkin.metric_core import (MetricSpace, SimpleBivector, Vector, bivector_product,
                                maxabs, scalar_product)
from relkin.sampling import SIGNATURES, make_space

DATA = Path(__file__).parent / "data"
DIMS = [2, 3, 4, 5, 6]


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def _same(x, y):
    """Whether ``x`` and ``y`` have the same bits, entry by entry, where a NaN
    matches any NaN: the sign of a NaN depends on which of two NaN operands
    comes first, and a NaN prints alike with either sign."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return bool(np.all((_bits(x) == _bits(y)) | (np.isnan(x) & np.isnan(y))))


def _matrix_space():
    """The non-diagonal metric of ``matrix_link.json``: no float pairing."""
    return MetricSpace.from_metric(json.loads((DATA / "matrix_link.json").read_text())
                                   ["metric"]["matrix"])


def _spaces():
    return [make_space(dim, kind) for dim in DIMS for kind in SIGNATURES] + [_matrix_space()]


def _entries(gen, shape, specials=0.0):
    """Normals scaled by 10^k for k in -300..300, with signed zeros and a
    share ``specials`` of inf, -inf and NaN."""
    values = gen.normal(size=shape) * 10.0 ** gen.integers(-300, 301, size=shape)
    values[gen.random(shape) < 0.15] = 0.0
    values[gen.random(shape) < 0.15] = -0.0
    marks = gen.random(shape) < specials
    values[marks] = gen.choice([np.inf, -np.inf, np.nan], size=int(marks.sum()))
    return values


def _vector(space, values):
    """A Vector over ``values`` as they are, non-finite entries included."""
    values = np.array(values, dtype=float)
    values.setflags(write=False)
    return Vector(values, space)


class TestSpacePairing:
    @pytest.mark.parametrize("space", _spaces(), ids=lambda s: repr(np.diag(s.g).tolist()))
    @np.errstate(all="ignore")
    def test_squares_and_products_equal_the_square_sum(self, space):
        gen = np.random.default_rng(space.dim)
        for specials in (0.0, 0.2):
            for _ in range(40):
                a, b = (_vector(space, _entries(gen, space.dim, specials)) for _ in range(2))
                g = space.g
                assert _same(a.square(), kernels._square_sum(g, a.components, a.components))
                assert _same(scalar_product(a, b),
                             kernels._square_sum(g, a.components, b.components))

    @pytest.mark.parametrize("kind", SIGNATURES)
    def test_the_float_pairing_resolves_on_diagonal_spaces(self, kind):
        for dim in range(2, 13):
            space = make_space(dim, kind)
            ones = [1.0] * dim
            assert space._float_pairing is not None
            assert space._float_pairing(ones, ones) == float(np.sum(np.diag(space.g)))

    def test_other_metrics_have_none(self):
        assert _matrix_space()._float_pairing is None
        g = np.diag([-1.0, 1.0, 1.0]).astype(np.float32)
        assert MetricSpace(3, g, g)._float_pairing is None

    def test_other_components_keep_the_array_path(self, mink4):
        ints = Vector(np.array([1, 2, 3, 4]), mink4)
        assert ints.square() == kernels.pairing_rows(mink4.g, ints.components,
                                                     ints.components).tolist() == 28.0
        rows = Vector(np.ones((2, 4)), mink4)
        with pytest.raises(SpaceMismatchError, match=r"got shape \(2, 4\)"):
            rows.square()

    def test_fresh_spaces_grow_no_cache(self):
        def pair_in_fresh_spaces():
            for dim in DIMS:
                for kind in SIGNATURES:
                    space = make_space(dim, kind)
                    v = space.vector(np.linspace(0.5, 1.5, dim))
                    v.square()
                    scalar_product(v, v)
                    SimpleBivector(v, space.basis_vector(0)).square()

        pair_in_fresh_spaces()
        caches = (kernels._diagonal_of, kernels.identity_entries)
        before = [(c.cache_info().currsize, c.cache_info().misses) for c in caches]
        orders = len(kernels._diagonal_orders)
        for _ in range(14):  # 14 rounds of 15: 210 fresh spaces
            pair_in_fresh_spaces()
        assert [(c.cache_info().currsize, c.cache_info().misses) for c in caches] == before
        assert len(kernels._diagonal_orders) == orders

    def test_a_space_does_not_outlive_its_use(self):
        space = make_space(4)
        space.vector([1.0, 0.5, 0.0, 0.0]).square()
        assert space._float_pairing is not None
        ref = weakref.ref(space)
        del space
        gc.collect()
        assert ref() is None


class TestBivectorSquares:
    @pytest.mark.parametrize("space", _spaces(), ids=lambda s: repr(np.diag(s.g).tolist()))
    @np.errstate(all="ignore")
    def test_a_square_from_its_legs_equals_four_pairings(self, space):
        gen = np.random.default_rng(10 + space.dim)
        for specials in (0.0, 0.2):
            for _ in range(40):
                a, b = (_vector(space, _entries(gen, space.dim, specials)) for _ in range(2))
                expected = kernels.bivector_pairing(space.g, a.components, b.components,
                                                    a.components, b.components)
                assert _same(SimpleBivector(a, b).square(), expected)
                # Two bivectors over the same legs, as the reciprocal presentation pairs them.
                assert _same(bivector_product(SimpleBivector(a, b), SimpleBivector(a, b)),
                             expected)
                # Equal legs in other arrays take the four pairings.
                twin = SimpleBivector(_vector(space, a.components), _vector(space, b.components))
                assert _same(bivector_product(SimpleBivector(a, b), twin), expected)

    @pytest.mark.parametrize("space", _spaces(), ids=lambda s: repr(np.diag(s.g).tolist()))
    @np.errstate(all="ignore")
    def test_the_cross_pairing_is_symmetric_in_its_bits(self, space):
        gen = np.random.default_rng(20 + space.dim)
        for _ in range(40):
            a, b = _entries(gen, (2, space.dim), 0.1)
            assert _same(kernels.pairing_rows(space.g, a, b), kernels.pairing_rows(space.g, b, a))

    def test_a_square_makes_one_pass_and_keeps_the_legs_squares(self, mink4, monkeypatch):
        """Besides the squares of its legs, which it keeps, a square pairs A
        with B once, on the space's float pairing: no pass runs on arrays."""
        a, b = mink4.vector([1.0, 0.5, 0.25, 0.0]), mink4.vector([0.0, 1.0, 0.0, 2.0])
        calls = {"pairing_rows": [], "_pairing": []}
        for name, seen in calls.items():
            original = getattr(metric_core, name)

            def counted(*args, _original=original, _seen=seen):
                _seen.append(args)
                return _original(*args)

            monkeypatch.setattr(metric_core, name, counted)
        monkeypatch.setattr(kernels, "pairing_rows", metric_core.pairing_rows)
        SimpleBivector(a, b).square()
        names = {id(a.components): "a", id(b.components): "b"}
        pairs = sorted(names[id(x)] + names[id(y)] for _, x, y in calls["_pairing"])
        assert calls["pairing_rows"] == [] and pairs == ["aa", "ab", "bb"]
        assert a.__dict__["_square"] == -0.6875 and b.__dict__["_square"] == 5.0


def _same_terms(one, row):
    """Whether the 17 fields of ``one`` have the bits of ``row``."""
    for name, value in one._asdict().items():
        other = getattr(row, name)
        if isinstance(value, Vector):
            value = value.components
        if isinstance(other, Vector):
            other = other.components
        if type(value) is bool:
            assert type(other) is bool and other is value, name
        else:
            assert type(value) in (float, np.ndarray), name
            assert _same(value, other), name
    return True


def _array_terms(space, p, r, s, monkeypatch):
    """``_Terms.of`` for one problem with the float maxima turned off."""
    with monkeypatch.context() as patched:
        patched.setattr(linker, "_float_maxima", lambda pairs, stack: None)
        return _Terms.of(space, p, r, s)


class TestOneProblemTerms:
    @pytest.mark.parametrize("space", _spaces(), ids=lambda s: repr(np.diag(s.g).tolist()))
    @np.errstate(all="ignore")
    def test_the_float_terms_equal_the_stacked_row(self, space, monkeypatch):
        gen = np.random.default_rng(30 + space.dim)
        for specials in (0.0, 0.05):
            for _ in range(30):
                p, r, s = (_entries(gen, space.dim, specials) for _ in range(3))
                one = _Terms.of(space, p, r, s)
                stacked = _Terms.of(space, p[None], r, s)
                row = stacked._replace(p=stacked.p[0], **{
                    name: getattr(stacked, name).tolist()[0]
                    for name in linker._RAY_FIELDS if name != "p"})
                assert _same_terms(one, row)
                assert _same_terms(one, _array_terms(space, p, r, s, monkeypatch))

    def test_link_problems_take_the_floats(self, monkeypatch):
        taken = []
        original = linker._float_maxima

        def spied(*args):
            floats = original(*args)
            taken.append(floats is not None)
            return floats

        monkeypatch.setattr(linker, "_float_maxima", spied)
        rng = np.random.default_rng(5)
        for space in _spaces():
            sampling.random_link_triple(space, rng)
        assert taken and all(taken)

    @pytest.mark.parametrize("dim", DIMS)
    def test_the_wedge_bound(self, dim, monkeypatch):
        """max|P| max|R-S| just below 2^1022 takes the floats, at 2^1022 the
        arrays; both give the bits of the arrays."""
        space = make_space(dim)
        half = 2.0 ** 511
        for p_top, taken in ((half, False), (np.nextafter(half, 0.0), True)):
            p = np.full(dim, 0.5)
            p[-1] = -p_top
            r = np.zeros(dim)
            r[0] = half
            s = np.zeros(dim)
            s[1 % dim] = -0.25
            terms = _Terms.of(space, p, r, s)
            assert (maxabs(p) * maxabs(r - s) < kernels._PAIRING_LIMIT) is taken
            stack = np.array([r, s, r - s, r + s, p, p, p, p, p])
            pairs = kernels.pairing_rows(space.g, stack, np.array(
                [r, s, r - s, r + s, r + s, p, r, s, r - s]))
            assert (linker._float_maxima(pairs, stack) is not None) is taken
            assert _same_terms(terms, _array_terms(space, p, r, s, monkeypatch))

    @pytest.mark.parametrize("where", [0, 1, -1])
    @pytest.mark.parametrize("vector", ["p", "r", "s"])
    def test_a_nan_entry_takes_the_arrays(self, where, vector, monkeypatch):
        space = make_space(4)
        gen = np.random.default_rng(7)
        values = dict(zip("prs", gen.normal(size=(3, 4))))
        values[vector][where] = np.nan
        stack = np.array([values["r"], values["s"], values["r"] - values["s"],
                          values["r"] + values["s"], *[values["p"]] * 5])
        assert linker._float_maxima(kernels.pairing_rows(space.g, stack, stack), stack) is None
        assert _same_terms(_Terms.of(space, values["p"], values["r"], values["s"]),
                           _array_terms(space, values["p"], values["r"], values["s"],
                                        monkeypatch))


def reference_maxabs(values):
    arr = np.asarray(values, dtype=float)
    return float(np.max(np.abs(arr))) if arr.size else 0.0


class TestMaxabs:
    @pytest.mark.parametrize("size", [36, 37])
    @pytest.mark.parametrize("where", [0, 17, -1])
    def test_nan_propagates(self, size, where):
        values = np.arange(float(size)) - 9.5
        values[where] = np.nan
        for shaped in (values, values.reshape(-1, 6) if size == 36 else values[None]):
            assert np.isnan(maxabs(shaped)) and np.isnan(reference_maxabs(shaped))

    @pytest.mark.parametrize("shape", [(0,), (0, 6), (36,), (6, 6), (37,), (1, 37), (3, 12)])
    @np.errstate(all="ignore")
    def test_equals_the_reduction(self, shape):
        gen = np.random.default_rng(sum(shape))
        values = _entries(gen, shape)
        for form in (values, values.T, values.tolist(), values.astype(np.float32)):
            out = maxabs(form)
            assert type(out) is float
            assert _bits(out) == _bits(reference_maxabs(form))

    @pytest.mark.parametrize("values, expected", [
        ([[np.inf, 1.0], [-np.inf, 2.0]], np.inf), ([[-0.0, -0.0], [0.0, -0.0]], 0.0),
        ([[1e-300, -1e300], [5e-324, 0.0]], 1e300), (np.float64(-2.5), 2.5),
    ])
    def test_edges(self, values, expected):
        assert _bits(maxabs(np.array(values))) == _bits(expected)


class TestRandomVector:
    @pytest.mark.parametrize("scale", [1.0, 1, 2.0])
    def test_the_draws_are_the_scaled_normals(self, scale):
        space = make_space(5)
        drawn = sampling.random_vector(space, np.random.default_rng(3), scale)
        assert drawn.components.tobytes() == \
            (np.random.default_rng(3).normal(size=5) * scale).tobytes()
        assert not drawn.components.flags.writeable
