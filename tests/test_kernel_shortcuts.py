"""The shortcuts of the scan's kernels against the arithmetic they replace,
bit for bit.

``reference_pairings`` is ``pairing_rows`` before its diagonal path: every
pairing from its d^2 terms.  ``reference_witness`` is the planarity witness
written out with ``einsum``, one component product at a time, and
``reference_planar`` the planarity flags as every ray took them before the
pre-pass over the components i < j < k: the full witness, then ``within``.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relkin import LinkProblem, admissibility, checks, kernels, linker
from relkin.sampling import SIGNATURES, make_space, random_link_triple, rng_for
from relkin.scenario import load as load_scenario

DATA = Path(__file__).parent / "data"


def reference_pairings(g, a, b):
    sym = a[..., :, None] * b[..., None, :]
    sym = sym + sym.swapaxes(-1, -2)
    return 0.5 * np.add.reduce(g * sym, axis=(-2, -1))


def reference_tensor(x, a, b):
    def outer(x, y, z):
        return np.einsum("i,j,k->ijk", x, y, z)

    return (outer(x, a, b) + outer(a, b, x) + outer(b, x, a)
            - outer(x, b, a) - outer(a, x, b) - outer(b, a, x))


def reference_witness(p, a, b):
    return np.array([np.max(np.abs(reference_tensor(x, a, b))) for x in p])


def reference_planar(problem, t):
    witness = kernels.trivector_rows(t.p, problem.R.components, problem.S.components)
    return kernels.within(witness, problem.space.tol_abs, t.norms * t.norms * t.norms)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def _nan_bits(values):
    """The bits of ``values``, with one NaN for every NaN: a NaN's sign
    depends on the order of two NaN operands."""
    values = np.asarray(values, dtype=float)
    return _bits(np.where(np.isnan(values), np.nan, values))


def _entries(gen, shape, scale, zeros, specials):
    """Normals scaled by 10^k, k up to ``scale`` either way, with a share
    ``zeros`` of 0.0 and -0.0, and a share ``specials`` of inf, -inf and NaN."""
    values = gen.normal(size=shape) * 10.0 ** gen.integers(-scale, scale + 1, size=shape)
    values[gen.random(shape) < zeros] = 0.0
    values[gen.random(shape) < zeros] = -0.0
    marks = gen.random(shape) < specials
    values[marks] = gen.choice([np.inf, -np.inf, np.nan], size=int(marks.sum()))
    return values


@pytest.fixture
def golden_scan():
    golden = load_scenario(str(DATA / "golden_scan.json"))
    space = golden.build_space()
    r, s = golden.vector(space, "R"), golden.vector(space, "S")
    return lambda: repr(checks.link_ray_scan(r, s, seed=4, n_general=300, n_planar=10))


class TestDiagonalPairings:
    @given(dim=st.integers(2, 12), shape=st.sampled_from(["rows-vector", "rows-rows", "stacks"]),
           seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([0, 20, 150]),
           zeros=st.sampled_from([0.0, 0.3]), specials=st.sampled_from([0.0, 0.0, 0.002]),
           unit=st.booleans())
    def test_the_diagonal_sum_equals_the_square_sum(self, dim, shape, seed, scale, zeros,
                                                    specials, unit):
        gen = np.random.default_rng(seed)
        n = -(-kernels._DIAGONAL_ENTRIES // dim) + int(gen.integers(0, 40))
        a = _entries(gen, (n, dim), scale, zeros, specials)
        b = _entries(gen, {"rows-vector": (dim,), "rows-rows": (n, dim),
                           "stacks": (n, dim)}[shape], scale, zeros, specials)
        if shape == "stacks":
            a, b = a.reshape(1, n, dim).repeat(3, axis=0), b.reshape(1, n, dim)[:, ::-1]
        diagonal = (gen.choice([-1.0, 1.0], size=dim) if unit
                    else gen.normal(size=dim) * 10.0 ** gen.integers(-3, 4, size=dim))
        g = np.diag(diagonal)
        with np.errstate(all="ignore"):
            expected = reference_pairings(g, a, b)
            assert np.array_equal(_bits(kernels.pairing_rows(g, a, b)), _bits(expected))
            if np.abs(a).max() * np.abs(b).max() < 2.0 ** 1022:  # False for inf, NaN
                # The diagonal sum itself, which pairing_rows takes here.
                shortcut = kernels._diagonal_sum(diagonal, a, b, kernels._diagonal_order(dim))
                assert np.array_equal(_bits(shortcut), _bits(expected))

    def test_huge_entries_keep_the_nan_of_the_square_sum(self):
        """max|a| max|b| beyond 2^1022: an off-diagonal term overflows in the
        d^2 sum, and 0 * inf makes the pairing NaN, as before."""
        g = np.diag([-1.0, 1.0, 1.0, 1.0])
        a = np.full((kernels._DIAGONAL_ENTRIES // 4, 4), 1e160)
        with np.errstate(all="ignore"):
            out = kernels.pairing_rows(g, a, a)
            assert np.isnan(out).all()
            assert np.array_equal(_bits(out), _bits(reference_pairings(g, a, a)))

    @pytest.mark.parametrize("rows, metric, scale, taken", [
        (kernels._DIAGONAL_ENTRIES // 4, "diagonal", 1.0, 1),
        (kernels._DIAGONAL_ENTRIES // 4 - 1, "diagonal", 1.0, 0),
        (kernels._DIAGONAL_ENTRIES // 4, "off-diagonal", 1.0, 0),
        (kernels._DIAGONAL_ENTRIES // 4, "diagonal", 2.0 ** 600, 0),
        (kernels._DIAGONAL_ENTRIES // 4, "diagonal", np.inf, 0),
    ])
    def test_which_pairings_take_the_diagonal_sum(self, monkeypatch, rows, metric, scale,
                                                  taken):
        assert kernels._diagonal_order(4) is not None  # probed before counting
        calls = []
        true_sum = kernels._diagonal_sum
        monkeypatch.setattr(kernels, "_diagonal_sum",
                            lambda *args: calls.append(1) or true_sum(*args))
        g = np.diag([-1.0, 1.0, 1.0, 1.0])
        if metric == "off-diagonal":
            g[0, 1] = g[1, 0] = 0.25
        a = np.random.default_rng(3).normal(size=(rows, 4))
        a[0, 0] *= scale
        with np.errstate(all="ignore"):
            out = kernels.pairing_rows(g, a, a)
            assert np.array_equal(_bits(out), _bits(reference_pairings(g, a, a)))
        assert len(calls) == taken

    def test_the_probe_holds_on_this_numpy(self):
        assert all(kernels._diagonal_order(dim) is not None for dim in range(2, 13))

    def test_a_probe_mismatch_sums_every_term(self, monkeypatch, golden_scan):
        """With a wrong order (one by one) the first-use probe fails for dim 4,
        no pairing takes the diagonal sum, and the scan is unchanged."""
        expected = golden_scan()

        def one_by_one(dim):
            order = 0
            for i in range(1, dim):
                order = (order, i)
            return order

        monkeypatch.setattr(kernels, "_pairwise_order", one_by_one)
        monkeypatch.setattr(kernels, "_diagonal_orders", {})
        assert kernels._diagonal_order(4) is None
        calls = []
        monkeypatch.setattr(kernels, "_diagonal_sum", lambda *args: calls.append(args))
        assert golden_scan() == expected
        assert calls == []

    def test_the_probe_runs_once_per_dimension(self, monkeypatch):
        probes = []
        true_probe = kernels._diagonal_agrees
        monkeypatch.setattr(kernels, "_diagonal_agrees",
                            lambda *args: probes.append(args[0]) or true_probe(*args))
        monkeypatch.setattr(kernels, "_diagonal_orders", {})
        a = np.ones((kernels._DIAGONAL_ENTRIES, 5))
        for _ in range(3):
            kernels.pairing_rows(np.eye(5), a, a)
            kernels.pairing_rows(np.eye(3), a[:, :3], a[:, :3])
        assert probes == [5, 3]


class TestBlockedWitness:
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("rows", [1, 127, 128, 129, 300])
    def test_the_witness_equals_the_einsum_witness(self, dim, rows):
        self._check(dim, rows)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("past", [-1, 0, 1])
    def test_rows_at_the_block_edges(self, dim, past):
        block = kernels._WITNESS_ENTRIES // dim ** 3
        self._check(dim, block + past)
        self._check(dim, 2 * block + past)

    @staticmethod
    def _check(dim, rows):
        gen = np.random.default_rng([dim, rows])
        p = gen.normal(size=(rows, dim)) * 10.0 ** gen.integers(-3, 4, size=(rows, dim))
        a, b = gen.normal(size=dim), gen.normal(size=dim)
        p[::7] = 0.5 * a - 2.0 * b  # planar rays, whose witness is rounding
        p[1::11, 0] = -0.0
        assert np.array_equal(_bits(kernels.trivector_rows(p, a, b)),
                              _bits(reference_witness(p, a, b)))

    def test_non_finite_rows(self):
        p = np.array([[np.nan, 1.0, 0.0], [np.inf, 1.0, 2.0], [1.0, 2.0, 3.0]])
        a, b = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
        with np.errstate(all="ignore"):
            np.testing.assert_array_equal(kernels.trivector_rows(p, a, b),
                                          reference_witness(p, a, b))

    def test_no_rows(self):
        assert kernels.trivector_rows(np.empty((0, 4)), np.ones(4), np.ones(4)).shape == (0,)


def _near_bound_rays(problem, gen, count):
    """Rays a R + b S + eps e whose witness, about eps max|e^R^S|, lies a
    relative 1e-3 to 2^-52 below or above the planarity bound, or on it.
    At d = 2, where e^R^S vanishes but for rounding, eps is far off scale
    or infinite."""
    r, s = problem.R.components, problem.S.components
    planar = gen.normal(size=(count, 1)) * r + gen.normal(size=(count, 1)) * s
    e = gen.normal(size=(count, len(r)))
    n = np.maximum(np.abs(planar).max(axis=1), max(np.abs(r).max(), np.abs(s).max()))
    bound = problem.space.tol_abs * np.maximum(1.0, n * n * n)
    steps = np.array([-1e-3, -1e-6, -1e-9, -2.0 ** -52, 0.0, 2.0 ** -52, 1e-9, 1e-6, 1e-3])
    eps = bound / kernels.trivector_rows(e, r, s) * (1.0 + steps[np.arange(count) % 9])
    return planar + eps[:, None] * e


def _flags(problem, rays):
    t = linker._Terms.stacked(problem, rays)
    return linker._planar_rows(problem, t), reference_planar(problem, t)


class TestPlanarPrePass:
    """The components i < j < k decide the rays they can; every planarity
    flag stays the one the full witness gives."""

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7])
    def test_the_components_are_the_einsum_entries(self, dim):
        gen = np.random.default_rng([dim, 25])
        p = _entries(gen, (60, dim), 3, 0.3, 0.02)
        a, b = _entries(gen, (dim,), 3, 0.3, 0.0), _entries(gen, (dim,), 3, 0.3, 0.0)
        p[::7] = 0.5 * a - 2.0 * b
        i, j, k = kernels._triples(dim)
        assert len(i) == dim * (dim - 1) * (dim - 2) // 6
        with np.errstate(all="ignore"):
            expected = np.array([reference_tensor(x, a, b)[i, j, k] for x in p])
            assert np.array_equal(_nan_bits(kernels._triple_components(p, a, b)),
                                  _nan_bits(expected))
            assert np.array_equal(_nan_bits(kernels.trivector_triple_rows(p, a, b)),
                                  _nan_bits(self._largest(expected)))
            rows = np.broadcast_to(a, p.shape)
            assert np.array_equal(_nan_bits(kernels.trivector_triple_rows(p, rows, b)),
                                  _nan_bits(kernels.trivector_triple_rows(p, a, b)))

    @pytest.mark.parametrize("dim", [3, 4, 5, 6, 7])
    @pytest.mark.parametrize("past", [-1, 0, 1])
    def test_rows_at_the_block_edges(self, dim, past):
        block = kernels._WITNESS_ENTRIES // len(kernels._triples(dim)[0])
        gen = np.random.default_rng([dim, past + 1])
        for rows in (block + past, 2 * block + past):
            p = gen.normal(size=(rows, dim)) * 10.0 ** gen.integers(-3, 4, size=(rows, dim))
            a, b = gen.normal(size=dim), gen.normal(size=dim)
            p[::7] = 0.5 * a - 2.0 * b
            p[1::11, 0] = -0.0
            i, j, k = kernels._triples(dim)
            expected = np.array([reference_tensor(x, a, b)[i, j, k] for x in p])
            assert np.array_equal(_bits(kernels.trivector_triple_rows(p, a, b)),
                                  _bits(self._largest(expected)))

    def test_no_triples_and_no_rows(self):
        p = np.ones((5, 2))
        assert kernels._triple_components(p, p[0], p[1]).shape == (5, 0)
        assert np.array_equal(kernels.trivector_triple_rows(p, p[0], p[1]), np.zeros(5))
        assert kernels.trivector_triple_rows(np.empty((0, 4)), np.ones(4),
                                             np.ones(4)).shape == (0,)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("scale", [1e-150, 1e-75, 1e-5, 1.0, 1e5, 1e75, 1e150])
    def test_flags_just_below_and_above_the_bound(self, dim, scale):
        gen = np.random.default_rng([dim, 7])
        unit = random_link_triple(make_space(dim, "lorentzian"), rng_for(dim, 7))
        problem = LinkProblem(unit.R * scale, unit.S * scale)
        with np.errstate(all="ignore"):
            rays = np.concatenate((_near_bound_rays(problem, gen, 90),
                                   gen.normal(size=(20, dim)) * scale))
            flags, expected = _flags(problem, rays)
        assert flags.tolist() == expected.tolist()
        if scale == 1.0 and dim > 2:  # the rays cross the bound both ways
            near = flags[:90]
            assert near.any() and not near.all()

    @pytest.mark.parametrize("dim", [2, 3, 4, 6])
    def test_non_finite_and_empty_rays(self, dim):
        unit = random_link_triple(make_space(dim, "split"), rng_for(dim, 8))
        gen = np.random.default_rng(dim)
        rays = gen.normal(size=(12, dim))
        rays[0, 0], rays[1, -1], rays[2] = np.nan, np.inf, unit.R.components
        rays[3] = -0.0
        with np.errstate(all="ignore"):
            flags, expected = _flags(unit, rays)
            assert flags.tolist() == expected.tolist()
            assert not flags[0] and not flags[1] and flags[2]
            flags, expected = _flags(unit, rays[:0])
        assert flags.shape == expected.shape == (0,)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_one_ray_admissibility(self, dim):
        """admissibility takes the same decision for one ray, as a row."""
        unit = random_link_triple(make_space(dim, "lorentzian"), rng_for(dim, 9))
        space = unit.space
        for p in _near_bound_rays(unit, np.random.default_rng(dim), 27):
            problem = LinkProblem(unit.R, unit.S, space.vector(p))
            t = problem._terms
            expected = reference_planar(problem, t._replace(p=t.p.components[None]))
            assert admissibility(problem).planar is bool(expected[0])

    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(2, 6), kind=st.sampled_from(SIGNATURES),
           seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-100, 1.0, 1e100]))
    def test_flags_match_the_full_witness(self, dim, kind, seed, scale):
        unit = random_link_triple(make_space(dim, kind), rng_for(seed, 25))
        problem = LinkProblem(unit.R * scale, unit.S * scale)
        gen = np.random.default_rng(seed)
        r, s = problem.R.components, problem.S.components
        ab = gen.normal(size=(20, 2))
        with np.errstate(all="ignore"):
            rays = np.concatenate((_near_bound_rays(problem, gen, 27),
                                   gen.normal(size=(20, dim)) * scale,
                                   ab[:, :1] * r + ab[:, 1:] * s))
            flags, expected = _flags(problem, rays)
            i, j, k = kernels._triples(dim)
            components = np.array([reference_tensor(x, r, s)[i, j, k] for x in rays])
            assert np.array_equal(_nan_bits(kernels.trivector_triple_rows(rays, r, s)),
                                  _nan_bits(self._largest(components)))
        assert flags.tolist() == expected.tolist()

    @staticmethod
    def _largest(components):
        return np.max(np.abs(components), axis=1, initial=0.0)


class TestScanTermPasses:
    def test_one_terms_pass_per_selection_round_and_none_to_link(self, golden, monkeypatch):
        """The scan links the terms its selection rounds formed: every stacked
        ``_Terms.of`` pass is a round's, one witness evaluation per round."""
        _, r, s = golden
        passes, rounds = [], []
        true_of = linker._Terms.of.__func__
        true_planar = linker._planar_rows

        def counted_of(cls, space, p, r_, s_):
            if np.ndim(p) == 2:
                passes.append(len(p))
            return true_of(cls, space, p, r_, s_)

        def counted_planar(problem, t):
            rounds.append(len(t.psum))
            return true_planar(problem, t)

        monkeypatch.setattr(linker._Terms, "of", classmethod(counted_of))
        monkeypatch.setattr(linker, "_planar_rows", counted_planar)
        scan = checks.link_ray_scan(r, s, seed=11, n_general=40, n_planar=10)
        assert len(scan["records"]) == 50
        assert len(rounds) >= 2 and rounds[0] == 50  # some draws are rejected
        assert passes == rounds
