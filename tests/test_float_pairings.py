"""One-object pairings and max-norms on Python floats, against the array
arithmetic they replace, bit for bit.

``reference_pairings`` is ``pairing_rows`` on arrays: every pairing from its
d^2 terms.  ``reference_maxabs`` is ``maxabs`` as the ufunc reduction.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from relkin import kernels, metric_core
from relkin.errors import NotIsomagnitudeError, SpaceMismatchError
from relkin.linker import LinkProblem, _Terms
from relkin.metric_core import MetricSpace, maxabs


def reference_pairings(g, a, b):
    sym = a[..., :, None] * b[..., None, :]
    sym = sym + sym.swapaxes(-1, -2)
    return 0.5 * np.add.reduce(g * sym, axis=(-2, -1))


def reference_maxabs(values):
    arr = np.asarray(values, dtype=float)
    return float(np.maximum.reduce(np.abs(arr), axis=None)) if arr.size else 0.0


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def _shapes(dim, shape):
    """The shapes of a and b for ``shape``: a vector or three rows each."""
    return {"v-v": ((dim,), (dim,)), "v-r": ((dim,), (3, dim)),
            "r-v": ((3, dim), (dim,)), "r-r": ((3, dim), (3, dim))}[shape]


def _entries(gen, shape, scale, zeros, specials):
    """Normals scaled by 10^k, k up to ``scale`` either way, with a share
    ``zeros`` of 0.0 and -0.0, some subnormals, and a share ``specials`` of
    inf, -inf and NaN."""
    values = gen.normal(size=shape) * 10.0 ** gen.integers(-scale, scale + 1, size=shape)
    values[gen.random(shape) < zeros] = 0.0
    values[gen.random(shape) < zeros] = -0.0
    tiny = gen.random(shape) < 0.1
    values[tiny] = gen.choice([5e-324, -5e-324, 1e-310, -2.5e-315], size=int(tiny.sum()))
    marks = gen.random(shape) < specials
    values[marks] = gen.choice([np.inf, -np.inf, np.nan], size=int(marks.sum()))
    return values


def _guard_holds(a, b):
    """Whether (sum x_i^2)(sum y_i^2), added left to right on floats, is finite
    for every pair of rows x of a and y of b, the float pairing's bound."""
    def squares(rows):
        return [sum(v * v for v in row) for row in np.atleast_2d(rows).tolist()]

    return all(sx * sy < np.inf for sx in squares(a) for sy in squares(b))


def _metric(gen, dim, unit):
    return np.diag(gen.choice([-1.0, 1.0], size=dim) if unit
                   else gen.normal(size=dim) * 10.0 ** gen.integers(-3, 4, size=dim))


class TestFloatPairings:
    @given(dim=st.integers(2, 12), rows=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([0, 20, 150, 300]),
           zeros=st.sampled_from([0.0, 0.3]), specials=st.sampled_from([0.0, 0.0, 0.1]),
           unit=st.booleans())
    def test_one_pair_on_floats_equals_the_square_sum(self, dim, rows, seed, scale, zeros,
                                                      specials, unit):
        gen = np.random.default_rng(seed)
        a, b = (_entries(gen, dim, scale, zeros, specials) for _ in range(2))
        ra, rb = (_entries(gen, (rows, dim), scale, zeros, specials) for _ in range(2))
        g = _metric(gen, dim, unit)
        pair = kernels.float_pairing(g)
        assert pair is not None
        with np.errstate(all="ignore"):
            expected = reference_pairings(g, a, b)
            value = pair(a.tolist(), b.tolist())
            # Vectors, rows, a broadcast row and stacks on the array path.
            for x, y in ((a, b), (a, rb), (ra, b), (ra, rb), (ra[:1], rb),
                         (ra[None], rb[:, None])):
                out = kernels.pairing_rows(g, x, y)
                want = reference_pairings(g, x, y)
                assert type(out) is type(want) and np.shape(out) == np.shape(want)
                assert np.array_equal(_bits(out), _bits(want))
        if _guard_holds(a, b) and not np.isnan(expected):
            assert type(value) is float and _bits(value) == _bits(expected)
        else:
            assert value is None

    @pytest.mark.parametrize("shape", ["v-v", "v-r", "r-v", "r-r"])
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_each_shape_pairs_its_rows(self, dim, shape):
        """A vector or rows on either side: ``pairing_rows`` gives a scalar or
        one pairing per row, and the float pairing gives each pair's bits."""
        gen = np.random.default_rng(dim)
        a_shape, b_shape = _shapes(dim, shape)
        a, b = gen.normal(size=a_shape), gen.normal(size=b_shape)
        g = _metric(gen, dim, False)
        expected = reference_pairings(g, a, b)
        out = kernels.pairing_rows(g, a, b)
        assert np.array_equal(_bits(out), _bits(expected))
        if shape == "v-v":
            assert type(out) is np.float64
        else:
            assert out.dtype == np.float64
            assert out.shape == (b_shape if len(a_shape) == 1 else a_shape)[:1]
        pair = kernels.float_pairing(g)
        rows = np.broadcast_arrays(np.atleast_2d(a), np.atleast_2d(b))
        values = [pair(x, y) for x, y in zip(rows[0].tolist(), rows[1].tolist())]
        assert all(type(value) is float for value in values)
        assert np.array_equal(_bits(values), _bits(np.atleast_1d(expected)))

    @pytest.mark.parametrize("a_top, b_top, taken", [
        (2.0 ** 511, 2.0 ** 511 * (1.0 - 2.0 ** -52), False),  # max|a| max|b| just below 2^1022
        (2.0 ** 511, 2.0 ** 511, False),                       # at 2^1022
        (2.0 ** 600, 2.0 ** 600, False),                       # an off-diagonal term is inf
        (1e300, 1e-300, False),                                # a.a overflows
        (1e75, 1e75, True),                                    # (a.a)(b.b) is 1e300
        (1e-300, 1e-300, True),                                # squares underflow
        (np.inf, 1.0, False),
        (np.nan, 1.0, False),
    ])
    def test_the_bound_on_the_squares(self, a_top, b_top, taken):
        """The float pairing takes a pair only where (sum a_i^2)(sum b_i^2) is
        finite, which keeps every |a_i b_j| below 2^513; on either side of
        that bound and of max|a| max|b| = 2^1022 the bits are the d^2 sum's."""
        g = np.diag([-1.0, 1.0, 1.0])
        a, b = np.array([a_top, 1.0, 0.5]), np.array([0.25, b_top, -1.0])
        with np.errstate(all="ignore"):
            value = kernels.float_pairing(g)(a.tolist(), b.tolist())
            expected = reference_pairings(g, a, b)
            assert (value is not None) is taken
            if taken:
                assert _bits(value) == _bits(expected)
            assert np.array_equal(_bits(kernels.pairing_rows(g, a, b)), _bits(expected))

    def test_a_nan_entry_after_the_first_leaves_the_floats(self):
        g = np.diag([-1.0, 1.0, 1.0])
        a = np.array([1.0, np.nan, 2.0])
        assert kernels.float_pairing(g)(a.tolist(), a.tolist()) is None
        assert np.isnan(kernels.pairing_rows(g, a, a))

    @pytest.mark.parametrize("case", ["off-diagonal", "float32 metric", "int rows",
                                      "4 pairs", "over 24 entries", "stacks",
                                      "broadcast row", "wrong length"])
    def test_other_batches_keep_the_array_path(self, case):
        """Metrics without a float pairing and batches of more than one pair
        pair on arrays, with the d^2 sum's bits."""
        gen = np.random.default_rng(7)
        dim = {"4 pairs": 2, "over 24 entries": 6}.get(case, 4)
        g = np.diag([-1.0] + [1.0] * (dim - 1))
        a, b = gen.normal(size=dim), gen.normal(size=(2, dim))
        if case == "off-diagonal":
            g[0, 1] = g[1, 0] = 0.25
        elif case == "float32 metric":
            g = g.astype(np.float32)
        elif case == "int rows":
            a = np.arange(dim)
        elif case == "4 pairs":
            a, b = gen.normal(size=(4, dim)), gen.normal(size=(4, dim))
        elif case == "over 24 entries":
            b = gen.normal(size=(4, dim))
        elif case == "stacks":
            a, b = a.reshape(1, 1, dim), b.reshape(1, 2, dim)
        elif case == "broadcast row":
            a = a.reshape(1, dim)
        elif case == "wrong length":
            a = gen.normal(size=dim + 1)
        assert (kernels.float_pairing(g) is None) is (case in ("off-diagonal", "float32 metric"))
        if case == "wrong length":
            with pytest.raises(ValueError):
                kernels.pairing_rows(g, a, b)
            return
        with np.errstate(all="ignore"):
            expected = reference_pairings(g, a, b)
            assert np.array_equal(_bits(kernels.pairing_rows(g, a, b)), _bits(expected))
            if g.dtype == np.float64:  # a batch is no pair of vectors
                space = MetricSpace.from_metric(g)
                with pytest.raises(SpaceMismatchError, match="vector needs"):
                    metric_core._pairing(space, a, b)

    @pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan, 1e308])
    def test_a_non_finite_or_huge_metric_entry_keeps_the_bits(self, entry):
        gen = np.random.default_rng(8)
        g = np.diag([-1.0, entry, 1.0, -entry])
        pair = kernels.float_pairing(g)
        for a, b in ((gen.normal(size=4), gen.normal(size=4)),
                     (gen.normal(size=4), gen.normal(size=(3, 4))),
                     (np.zeros(4), gen.normal(size=4))):
            with np.errstate(all="ignore"):
                expected = reference_pairings(g, a, b)
                assert np.array_equal(_bits(kernels.pairing_rows(g, a, b)), _bits(expected))
                if b.ndim == 1 and (value := pair(a.tolist(), b.tolist())) is not None:
                    assert _bits(value) == _bits(expected)

    def test_the_probe_holds_on_this_numpy(self, monkeypatch):
        """Every dimension's float pairing resolves once its compiled sums are probed."""
        monkeypatch.setattr(kernels, "_diagonal_orders", {})
        assert all(kernels.float_pairing(np.eye(dim)) is not None for dim in range(2, 13))

    def test_a_probe_mismatch_pairs_on_arrays(self, monkeypatch):
        """Compiled from a wrong order (one by one), the function fails its
        probe: no float pairing resolves, and pairings keep their bits on arrays."""
        def one_by_one(dim):
            order = 0
            for i in range(1, dim):
                order = (order, i)
            return order

        monkeypatch.setattr(kernels, "_pairwise_order", one_by_one)
        monkeypatch.setattr(kernels, "_diagonal_orders", {})
        assert kernels._diagonal_order(4) is None
        gen = np.random.default_rng(4)
        g, a, b = np.diag([-1.0, 1.0, 1.0, 1.0]), gen.normal(size=4), gen.normal(size=(2, 4))
        assert kernels.float_pairing(g) is None
        assert np.array_equal(_bits(kernels.pairing_rows(g, a, b)),
                              _bits(reference_pairings(g, a, b)))
        space = MetricSpace.from_metric(g)
        assert space._float_pairing is None
        assert _bits(space.vector(a).square()) == _bits(reference_pairings(g, a, a))


class TestMetricLookup:
    def test_fresh_spaces_of_the_same_metrics_do_not_grow_the_cache(self):
        metrics = [np.diag([-1.0] + [1.0] * (dim - 1)) for dim in range(2, 7)]

        def pair_in_fresh_spaces():
            for metric in metrics:
                space = MetricSpace.from_metric(metric)
                v = space.vector(np.linspace(0.5, 1.5, space.dim))
                assert space._float_pairing is not None
                v.square()

        pair_in_fresh_spaces()
        size = kernels._diagonal_of.cache_info().currsize
        misses = kernels._diagonal_of.cache_info().misses
        for _ in range(100):
            pair_in_fresh_spaces()
        assert kernels._diagonal_of.cache_info().currsize == size
        assert kernels._diagonal_of.cache_info().misses == misses

    def test_the_cache_is_bounded(self):
        for k in range(100):
            kernels.float_pairing(np.diag([-1.0, 1.0 + k, 1.0]))
        assert kernels._diagonal_of.cache_info().currsize <= 32


class TestMaxabs:
    @pytest.mark.parametrize("values, expected", [
        ([np.nan, 1.0, 2.0], np.nan), ([1.0, np.nan, 2.0], np.nan),
        ([1.0, 2.0, np.nan], np.nan), ([np.nan], np.nan),
        ([1.0, -np.inf, 2.0], np.inf), ([np.inf, -np.inf], np.inf),
        ([-3.0, 2.0], 3.0), ([-0.0], 0.0), ([-0.0, -0.0, 0.0], 0.0), ([], 0.0),
    ])
    def test_edges(self, values, expected):
        out = maxabs(np.array(values, dtype=float))
        assert type(out) is float
        assert _bits(out) == _bits(expected)

    @pytest.mark.parametrize("shape", [(1,), (3,), (8,), (9,), (2, 2), (3, 3), (0,), (0, 3)])
    def test_equals_the_ufunc_reduction(self, shape):
        gen = np.random.default_rng(sum(shape))
        values = gen.normal(size=shape) * 10.0 ** gen.integers(-300, 301, size=shape)
        assert _bits(maxabs(values)) == _bits(reference_maxabs(values))
        assert _bits(maxabs(values.tolist())) == _bits(reference_maxabs(values))


class TestIdentityEntries:
    def test_spaces_and_link_entries_share_one_read_only_identity(self, monkeypatch):
        space = MetricSpace.from_metric(np.diag([-1.0, 1.0, 1.0]))
        eye = kernels.identity_entries(3)
        assert space.eye is eye and not eye.flags.writeable
        assert MetricSpace.from_metric(np.eye(3)).eye is eye
        gen = np.random.default_rng(5)
        p, d, alpha, beta = gen.normal(size=(4, 3))
        expected = np.eye(3) - np.outer(p, alpha) - np.outer(d, beta)

        def built(*args, **kwargs):
            raise AssertionError("an identity built per call")

        monkeypatch.setattr(np, "eye", built)
        assert np.array_equal(_bits(kernels.link_entries(p, d, alpha, beta)), _bits(expected))


class TestRefusedProblems:
    def test_a_refused_pair_forms_no_terms(self, golden, monkeypatch):
        space, r, s = golden
        longer = space.vector(2.0 * s.components)
        terms = _Terms.of(space, r.components, r.components, longer.components)

        def forbidden(*args):
            raise AssertionError("terms formed for a refused pair")

        monkeypatch.setattr(_Terms, "of", classmethod(forbidden))
        with pytest.raises(NotIsomagnitudeError) as refused:
            LinkProblem(r, longer)
        # The squares have the bits of the terms' R.R and S.S.
        assert str(refused.value) == (f"R.R = {terms.rr!r} and S.S = {terms.ss!r} "
                                      "differ beyond tolerance")
