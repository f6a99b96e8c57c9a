"""The stacked link kernels against the object API, bit for bit.

``reference_scan`` is the per-ray loop that ``link_ray_scan`` used before it
linked its rays as stacked batches: one ``LinkProblem``, one
``admissibility`` and one ``p_link`` per draw.  The stacked scan must return
the same dict, or raise the same error.  ``reference_clusters`` is the class
count the scan used before its sort-and-sweep: one distance row per
operator, to those before it.
"""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import relkin
from relkin import isometry as iso
from relkin import (
    InternalConsistencyError,
    LinkProblem,
    MetricSpace,
    admissibility,
    checks,
    gamma_of_link,
    kernels,
    linker,
    maxabs,
    mu_scalar,
    p_link,
    trivector_maxabs,
)
from relkin.scenario import load as load_scenario
from relkin.sampling import (SIGNATURES, make_space, random_link_triple,
                             random_vector, rng_for)

# The 3-d metric of tests/data/matrix_link.json, with R.R = S.S = 2.
MATRIX = MetricSpace.from_metric([[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])
MATRIX_R = MATRIX.vector([1.0, 0.0, 0.0])
MATRIX_S = MATRIX.vector([0.0, 0.0, 1.4142135623730951])


DATA = Path(__file__).parent / "data"


def reference_clusters(entries, cut):
    reps, above, spread = [], 0, 0.0
    for i in range(len(entries)):
        row = np.abs(entries[:i] - entries[i]).max(axis=(1, 2))
        above += int(np.count_nonzero(row > cut))
        if not (row[reps] <= cut).any():
            reps.append(i)
        if i:
            spread = max(spread, float(row[0]))
    return len(reps), above, spread


def reference_scan(r, s, seed=0, n_general=100, n_planar=10, distinct_cut=1e-6):
    def planar_ray(rng):
        a, b = rng.normal(size=2)
        return a * r + b * s

    streams = (("general", 1, int(n_general), lambda rng: random_vector(r.space, rng)),
               ("planar", 2, int(n_planar), planar_ray))
    links = {"general": [], "planar": []}
    records = []
    for kind, stream, count, draw in streams:
        for i in range(count):
            rng = rng_for(seed, stream, i)
            for _ in range(1000):
                p = draw(rng)
                problem = LinkProblem(r, s, p)
                flags = admissibility(problem)
                if flags.generic and not flags.p_transversal:
                    continue
                if (abs(relkin.scalar_product(p, r + s)) < 0.05
                        or abs(flags.denominator) < 0.05):
                    continue
                link = p_link(problem)
                gamma = (link.gamma if link.gamma is not None
                         else gamma_of_link(problem))
                links[kind].append(link)
                records.append({"index": i, "ray_kind": kind,
                                "planar": bool(flags.planar),
                                "mu": mu_scalar(problem) if flags.generic else None,
                                "gamma": gamma,
                                "residual": maxabs(link.apply(r).components
                                                   - s.components)})
                break

    def clusters(ops):
        return reference_clusters(np.array([op.mapping.entries for op in ops]),
                                  distinct_cut)

    distinct, pairs_above, _ = clusters(links["general"])
    planar_cluster, _, planar_spread = clusters(links["planar"])
    n = len(links["general"])
    pairs_total = n * (n - 1) // 2
    gammas = [rec["gamma"] for rec in records]
    return {
        "records": records,
        "distinct_links": distinct,
        "planar_cluster": planar_cluster,
        "planar_spread": planar_spread,
        "pair_fraction_above_cut": (pairs_above / pairs_total) if pairs_total else 1.0,
        "gamma_min": float(min(gammas)) if gammas else float("nan"),
        "gamma_max": float(max(gammas)) if gammas else float("nan"),
    }


def _outcome(fn, *args, **kwargs):
    """repr of the result, which tells every float bit (and NaN) apart, or the error."""
    try:
        return repr(fn(*args, **kwargs))
    except relkin.RelkinError as exc:
        return type(exc), str(exc)


def _congruent_metric(dim, seed):
    """A non-diagonal Lorentzian metric A^T diag(-1, 1, ...) A."""
    a = np.eye(dim) + 0.3 * rng_for(seed, 9).normal(size=(dim, dim))
    return MetricSpace.from_metric(a.T @ make_space(dim).g @ a)


def _problems():
    """(R, S) pairs over dims 2-6, the three signatures and non-diagonal metrics."""
    rng = rng_for(5)
    for dim in (2, 3, 4, 5, 6):
        for kind in SIGNATURES:
            problem = random_link_triple(make_space(dim, kind), rng)
            yield problem.R, problem.S
    for dim in (3, 4):
        problem = random_link_triple(_congruent_metric(dim, dim), rng)
        yield problem.R, problem.S
    yield MATRIX_R, MATRIX_S


def _rays(r, s, seed):
    """General rays, planar rays a R + b S, and R itself."""
    rng = rng_for(seed, 3)
    rows = [rng.normal(size=r.space.dim) for _ in range(12)]
    rows += [a * r.components + b * s.components for a, b in rng.normal(size=(4, 2))]
    rows.append(r.components)
    return np.array(rows)


def _object_link(problem):
    """What the old scan recorded for one accepted ray, or the error it raised."""
    try:
        link = p_link(problem)
        gamma = link.gamma if link.gamma is not None else gamma_of_link(problem)
        mu = mu_scalar(problem) if problem._terms.generic else None
        residual = maxabs(link.apply(problem.R).components - problem.S.components)
    except relkin.RelkinError as exc:
        return type(exc), str(exc)
    return link.mapping.entries.tobytes(), mu, gamma, residual


def _stacked_link(links, row):
    if row == len(links.gamma):
        return type(links.error), str(links.error)
    mu = None if links.mu is None else links.mu.tolist()[row]
    return (np.ascontiguousarray(links.entries[row]).tobytes(), mu,
            links.gamma.tolist()[row], links.residual.tolist()[row])


class TestWithin:
    """The one bound rule, value <= tol max(1, scales...), for floats and rows."""

    def test_the_rule(self):
        assert kernels.within(1e-9, 1e-9) and not kernels.within(2e-9, 1e-9)
        assert kernels.within(4.0, 2.0, 0.5, 2.0) and not kernels.within(4.5, 2.0, 2.0)
        assert kernels.within(1.0, 1.0, np.nan)  # passed over, as by max(1.0, nan)

    @pytest.mark.parametrize("value, tol, scales", [
        (np.nan, 1.0, ()), (np.nan, 1.0, (2.0,)),  # a NaN value fails
        (0.0, np.inf, ()), (0.0, 1.0, (np.inf,)), (np.inf, np.inf, ()),
        (0.0, 1e-9, (1e200 * 1e200,)),  # an infinite bound fails
    ])
    def test_nan_values_and_infinite_bounds_fail(self, value, tol, scales):
        assert kernels.within(value, tol, *scales) is False

    def test_rows_match_one_value_at_a_time(self):
        rng = rng_for(24)
        values = rng.choice([0.0, 0.5, 1.0, 3.0, np.nan, np.inf], size=200)
        first = rng.choice([0.0, 0.5, 2.0, 4.0, np.nan, np.inf], size=200)
        rows = kernels.within(values, 1.0, first, 2.0)
        assert rows.tolist() == [kernels.within(v, 1.0, a, 2.0)
                                 for v, a in zip(values.tolist(), first.tolist())]


class TestKernelsMatchObjects:
    def test_terms_match_the_scalar_terms(self):
        for r, s in _problems():
            rays = _rays(r, s, r.space.dim)
            stacked = linker._Terms.stacked(LinkProblem(r, s), rays)
            for row, comps in enumerate(rays):
                one = LinkProblem(r, s, r.space.vector(comps))._terms
                assert stacked.p[row].tobytes() == one.p.components.tobytes()
                assert stacked.d2 == one.d2
                for name in linker._RAY_FIELDS[1:]:
                    assert getattr(stacked, name)[row].item() == getattr(one, name), name
                for name in ("generic", "coincide"):
                    assert getattr(stacked, name) is getattr(one, name)

    def test_witness_matches_the_einsum_witness(self):
        for r, s in _problems():
            rays = _rays(r, s, 7)
            rows = kernels.trivector_rows(rays, r.components, s.components)
            a, b = r.components, s.components
            for row, p in enumerate(rays):
                t = (np.einsum("i,j,k->ijk", p, a, b) + np.einsum("i,j,k->ijk", a, b, p)
                     + np.einsum("i,j,k->ijk", b, p, a) - np.einsum("i,j,k->ijk", p, b, a)
                     - np.einsum("i,j,k->ijk", a, p, b) - np.einsum("i,j,k->ijk", b, a, p))
                assert rows[row] == np.max(np.abs(t))
                assert rows[row] == trivector_maxabs(r.space.vector(p), r, s)

    def test_planar_flags_match_admissibility(self):
        for r, s in _problems():
            rays = _rays(r, s, 8)
            problem = LinkProblem(r, s)
            flags = linker._planar_rows(problem, linker._Terms.stacked(problem, rays))
            assert flags.tolist() == [
                admissibility(LinkProblem(r, s, r.space.vector(p))).planar for p in rays]
            assert flags[-4:].all()  # the planar rays and R itself

    def test_links_match_p_link_row_by_row(self):
        for r, s in list(_problems()) + [(MATRIX_R, MATRIX_R)]:
            rays = _rays(r, s, 9)
            problem = LinkProblem(r, s)
            terms = linker._Terms.stacked(problem, rays)
            for row, comps in enumerate(rays):
                one = linker._link_rows(problem, terms.rows([row]))
                assert (_stacked_link(one, 0)
                        == _object_link(LinkProblem(r, s, r.space.vector(comps))))

    def test_a_batch_stops_at_its_first_refused_ray(self, golden):
        _, r, s = golden
        zero_mu = [1.0, 3.0, 0.0, 0.0]  # P.(R+S) = 0
        rays = np.array([[0.3, 0.1, 0.9, 0.0], [0.5, -0.2, 0.1, 0.7], zero_mu,
                         [0.2, 0.4, -0.3, 0.1]])
        problem = LinkProblem(r, s)
        links = linker._link_rows(problem, linker._Terms.stacked(problem, rays))
        assert len(links.gamma) == 2
        for row in range(3):
            assert (_stacked_link(links, row)
                    == _object_link(LinkProblem(r, s, r.space.vector(rays[row]))))

    def test_coincident_vectors_give_identities(self, golden):
        _, r, _ = golden
        rays = _rays(r, r, 10)
        problem = LinkProblem(r, r)
        links = linker._link_rows(problem, linker._Terms.stacked(problem, rays))
        assert links.mu is None and links.error is None
        assert links.gamma.tolist() == [1.0] * len(rays)
        assert (links.entries == np.eye(4)).all() and not links.residual.any()


def _scans():
    """About 30 scans: dims 2-6, three signatures, non-diagonal metrics, R = S,
    no general rays, no planar rays, and rays whose first draws are rejected."""
    for seed, (r, s) in enumerate(_problems()):
        yield r, s, dict(seed=seed, n_general=12, n_planar=4)
    mink4 = make_space(4)
    r, s = mink4.vector([1.0, 0.0, 0.0, 0.0]), mink4.vector([1.25, 0.75, 0.0, 0.0])
    yield r, s, dict(seed=11, n_general=40, n_planar=10)  # 53 draws for 50 links
    yield r, s, dict(seed=1, n_general=40, n_planar=0)
    yield r, s, dict(seed=0, n_general=0, n_planar=6)
    yield r, s, dict(seed=3, n_general=8, n_planar=0)
    yield r, s, dict(seed=4, n_general=0, n_planar=0)
    yield r, r, dict(seed=5, n_general=10, n_planar=3)
    yield MATRIX_R, MATRIX_S, dict(seed=0, n_general=200, n_planar=20)
    yield MATRIX_R, MATRIX_R, dict(seed=1, n_general=5, n_planar=5)
    null = mink4.vector([1.0, 1.0, 0.0, 0.0])
    yield null, 2.0 * null, dict(seed=6, n_general=5, n_planar=2)  # (R-S)^2 = 0
    yield r, mink4.vector([2.0, 0.0, 0.0, 0.0]), dict(seed=7, n_general=3)


class TestStackedScan:
    @pytest.mark.parametrize("r, s, kwargs", list(_scans()))
    def test_scan_matches_the_per_ray_loop(self, r, s, kwargs):
        assert (_outcome(checks.link_ray_scan, r, s, **kwargs)
                == _outcome(reference_scan, r, s, **kwargs))

    def test_every_link_is_checked(self, golden, monkeypatch):
        """A perturbed link fails its checks in the scan, whichever round it
        is built in, and the first perturbed index in scan order decides."""
        mink4, r, s = golden
        seed, n_general = 1, 40  # the first draws of indices 7 and 26 are rejected
        draws = {}
        for i in range(n_general):
            rng = rng_for(seed, 1, i)
            for k in range(1000):
                p = random_vector(mink4, rng)
                problem = LinkProblem(r, s, p)
                flags = admissibility(problem)
                if (not (flags.generic and not flags.p_transversal)
                        and abs(problem._terms.psum) >= 0.05
                        and abs(flags.denominator) >= 0.05):
                    draws[i] = (k + 1, p.components)
                    break
        late = min(i for i, (k, _) in draws.items() if k > 1)
        early = max(i for i, (k, _) in draws.items() if k == 1)
        assert late < early  # late is linked in a later round than early
        true_entries = kernels.link_entries
        scales = {}

        def perturbed(p, d, alpha, beta):
            entries = true_entries(p, d, alpha, beta)
            dim = p.shape[-1]
            flat = entries.reshape(-1, dim, dim)
            for row, ray in enumerate(np.reshape(p, (-1, dim))):
                for index, scale in scales.items():
                    if np.array_equal(ray, draws[index][1]):
                        flat[row] *= scale
            return entries

        monkeypatch.setattr(kernels, "link_entries", perturbed)

        def message(index):
            with pytest.raises(InternalConsistencyError) as exc:
                p_link(LinkProblem(r, s, mink4.vector(draws[index][1])))
            return str(exc.value)

        for perturb in ({late: 1.0 + 1e-3}, {late: 1.0 + 1e-3, early: 1.0 + 2e-3}):
            scales.clear()
            scales.update(perturb)
            expected = message(late)
            assert "isometry law" in expected
            if early in perturb:
                assert message(early) != expected
            with pytest.raises(InternalConsistencyError) as exc:
                checks.link_ray_scan(r, s, seed=seed, n_general=n_general, n_planar=0)
            assert str(exc.value) == expected

    def test_a_nan_link_fails_as_in_p_link(self, golden, monkeypatch):
        """A link whose entries are NaN fails the isometry law, in the scan's
        stacked rows as in p_link, with the same message."""
        mink4, r, s = golden
        true_entries = kernels.link_entries
        broken = []

        def nan_row(p, d, alpha, beta):
            entries = true_entries(p, d, alpha, beta)
            if not broken:
                broken.append(p[3].copy())  # a row of the scan's first round
            dim = p.shape[-1]
            flat = entries.reshape(-1, dim, dim)
            for row, ray in enumerate(np.reshape(p, (-1, dim))):
                if np.array_equal(ray, broken[0]):
                    flat[row] = np.nan
            return entries

        monkeypatch.setattr(kernels, "link_entries", nan_row)
        with pytest.raises(InternalConsistencyError) as scan:
            checks.link_ray_scan(r, s, seed=1, n_general=10, n_planar=0)
        with pytest.raises(InternalConsistencyError) as one:
            p_link(LinkProblem(r, s, mink4.vector(broken[0])))
        assert str(scan.value) == str(one.value) == kernels.LAW_MESSAGE.format(np.nan)


def _near_duplicates(rng, n, dim):
    """n operators: a few centres, each copied exactly or moved by about
    1e-7 to 1, with up to two entries set to NaN or +-inf."""
    centres = rng.normal(size=(int(rng.integers(1, 5)), dim, dim))
    ops = centres[rng.integers(0, len(centres), size=n)]
    ops = ops + rng.normal(size=ops.shape) * rng.choice(
        [0.0, 0.0, 3e-7, 1e-6, 1.0], size=(n, 1, 1))
    for _ in range(int(rng.integers(0, 3))):
        if n:
            ops[rng.integers(0, n)][tuple(rng.integers(0, dim, size=2))] = rng.choice(
                [np.nan, np.inf, -np.inf])
    return ops


class TestClassCount:
    """The sort-and-sweep class count against the per-operator loop: the
    same ints and the same float, whatever the operators."""

    CUT = 1e-6

    def assert_same(self, entries, cut=CUT):
        with np.errstate(invalid="ignore"):  # inf - inf
            assert (repr(checks._clusters(entries, cut))
                    == repr(reference_clusters(entries, cut)))

    def test_no_one_and_two_operators(self):
        ops = rng_for(20).normal(size=(2, 3, 3))
        self.assert_same(np.array([]))  # what a scan without rays passes
        for n in (0, 1, 2):
            self.assert_same(ops[:n])
        self.assert_same(ops[[0, 0]])
        self.assert_same(ops[[1, 1]], cut=0.0)

    @pytest.mark.parametrize("base", [0.0, 0.7, -3e3])
    def test_distances_at_the_cut_and_one_ulp_either_side(self, base):
        for gap in (np.nextafter(self.CUT, 0.0), self.CUT, np.nextafter(self.CUT, 1.0)):
            ops = np.full((5, 3, 3), base)
            ops[1, 0, 2] += gap
            ops[2, 1, 1] -= gap
            ops[3, 0, 2] += 2.0 * gap
            ops[4, 2, 0] += gap
            for cut in (self.CUT, gap):
                self.assert_same(ops, cut)
        ops = np.zeros((3, 2, 2))
        ops[1, 0, 0], ops[2, 0, 0] = self.CUT, np.nextafter(self.CUT, 1.0)
        assert checks._clusters(ops, self.CUT) == (2, 1, ops[2, 0, 0])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows(self, value):
        ops = np.repeat(rng_for(21).normal(size=(4, 3, 3)), 2, axis=0)
        ops[4:] += 1e-8
        ops[1, 0, 0] = ops[5, 2, 1] = value
        ops[6] = value
        ops[7, 1, 1] = -value
        for cut in (self.CUT, 0.0, -1.0, np.inf, np.nan):
            self.assert_same(ops, cut)
            self.assert_same(ops[::-1].copy(), cut)
        self.assert_same(np.full((3, 2, 2), value))

    def test_a_cluster_within_the_cut_is_counted_without_visits(self, monkeypatch):
        """Finite operators whose entries all range within the cut are one
        class, with no pair above it; only the spread's row is computed.
        One ulp wider, a NaN entry or a cut below zero takes the sweep."""
        rows = []
        true_rows = iso._max_abs_rows

        def counted(flat, which, op):
            rows.append(len(which))
            return true_rows(flat, which, op)

        def cluster(width):
            ops = np.repeat(rng_for(24).normal(size=(1, 3, 3)), 6, axis=0)
            ops[:, 2, 0] = 0.0
            ops[1, 2, 0] = width  # the widest entry, ranging by exactly width
            ops[2:, 1, 1] += np.linspace(0.0, 0.5 * self.CUT, 4)
            ops[3] = ops[0]
            return ops

        monkeypatch.setattr(iso, "_max_abs_rows", counted)
        for width, visits in ((self.CUT, False), (np.nextafter(self.CUT, 1.0), True)):
            rows.clear()
            self.assert_same(cluster(width))
            assert (len(rows) > 1) is visits  # more rows than the spread's
            assert (checks._clusters(cluster(width), self.CUT)[:2] == (1, 0)) is not visits
        nan = cluster(self.CUT)
        nan[4, 0, 2] = np.nan
        rows.clear()
        self.assert_same(nan)
        assert len(rows) > 1
        for cut in (-1.0, np.nan, np.inf):
            self.assert_same(cluster(self.CUT), cut)

    def test_random_near_duplicate_sets(self):
        rng = rng_for(22)
        for k in range(400):
            ops = _near_duplicates(rng, int(rng.integers(0, 30)), int(rng.integers(2, 5)))
            self.assert_same(ops, (self.CUT, 0.0, 1e-3, 0.5)[k % 4])

    def test_scan_families(self, monkeypatch):
        """The golden scan's links share column 0 (R = e0, so L e0 = S), its
        50 planar rays form one cluster, and with R = S every link is the
        identity; the matrix-metric scan is dimension 3."""
        seen = []
        count = checks._clusters

        def recording(entries, cut):
            seen.append((entries, cut))
            return count(entries, cut)

        monkeypatch.setattr(checks, "_clusters", recording)
        golden = load_scenario(str(DATA / "golden_scan.json"))
        space = golden.build_space()
        r, s = golden.vector(space, "R"), golden.vector(space, "S")
        scan = checks.link_ray_scan(r, s, seed=0, n_general=300, n_planar=50)
        assert (scan["distinct_links"], scan["planar_cluster"]) == (300, 1)
        assert np.ptp(seen[0][0][:, :, 0], axis=0).max() < 1e-12
        checks.link_ray_scan(r, r, seed=1, n_general=300, n_planar=20)
        assert count(*seen[2]) == (1, 0, 0.0)
        checks.link_ray_scan(MATRIX_R, MATRIX_S, seed=0, n_general=200, n_planar=20)
        monkeypatch.undo()
        assert len(seen) == 6
        for entries, cut in seen:
            self.assert_same(entries, cut)

    def test_memory_stays_linear(self):
        """20,000 equal operators are one class: no array grows with the
        400 million pairs (the operators themselves take 2.6 MB)."""
        for ops, classes in ((np.tile(np.eye(4), (20000, 1, 1)), 1),
                             (rng_for(23).normal(size=(20000, 4, 4)), 20000)):
            tracemalloc.start()
            try:
                result = checks._clusters(ops, self.CUT)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert result[0] == classes
            assert peak < 6e6
        assert checks._clusters(np.tile(np.eye(4), (20000, 1, 1)), self.CUT) == (1, 0, 0.0)
