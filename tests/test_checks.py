import math
from dataclasses import replace

import numpy as np
import pytest

import relkin.checks as chk
from relkin import (NUMERICAL_FLOOR, DegenerateLinkError, DrawsExhaustedError,
                    InternalConsistencyError, LinkProblem, PropertyResult, admissibility,
                    kernels, link_ray_scan, p_link)
from relkin.sampling import make_space, rng_for


@pytest.fixture(scope="module")
def results():
    return chk.run_all(seed=0, samples=6, dims=(2, 3, 4))


class TestRunAll:
    def test_all_pass_at_defaults(self, results):
        failed = [r for r in results if not r.passed]
        assert failed == []

    def test_ids_are_dense_integers(self, results):
        ids = [pid for pid, _ in chk._PROPERTIES]
        assert ids == list(range(1, len(ids) + 1))
        assert len(results) == len(ids)

    def test_results_are_frozen_records(self, results):
        r = results[0]
        assert isinstance(r, PropertyResult)
        with pytest.raises(AttributeError):
            r.passed = False

    def test_deterministic(self):
        a = chk.run_all(seed=3, samples=4, dims=(2, 4))
        b = chk.run_all(seed=3, samples=4, dims=(2, 4))
        for ra, rb in zip(a, b):
            assert ra.max_residual == rb.max_residual
            assert ra.passed == rb.passed

    def test_tight_tolerance_failures_are_flagged(self):
        tight = chk.run_all(seed=0, tol_rel=1e-15, samples=6, dims=(2, 3, 4))
        failed = [r for r in tight if not r.passed]
        assert failed
        assert all(r.tolerance_induced for r in failed)
        assert all(r.max_residual <= NUMERICAL_FLOOR for r in failed
                   if r.max_residual is not None)


    def test_results_carry_their_ids(self, results):
        assert [r.id for r in results] == [pid for pid, _ in chk._PROPERTIES]


class TestErrorRecords:
    def test_refusal_keeps_the_property_name(self, monkeypatch):
        """A property that raises reports under the name it passes with."""
        clean = chk.run_all(seed=0, samples=2, dims=(4,))

        def refuse(problem):
            raise DegenerateLinkError("link refused for the test")

        monkeypatch.setattr(chk.lnk, "p_link", refuse)
        refused = chk.run_all(seed=0, samples=2, dims=(4,))
        errors = [(ok, bad) for ok, bad in zip(clean, refused)
                  if bad.detail.get("error") == "DegenerateLinkError"]
        assert {bad.name for _, bad in errors} >= {
            "pure-link-identity", "planar-ray-collapse", "link-nonuniqueness"}
        for ok, bad in errors:
            assert (bad.name, bad.id, bad.passed) == (ok.name, ok.id, False)


class TestMutationSensitivity:
    def test_broken_link_scale_is_caught(self, monkeypatch):
        """A 0.1% error in the link scale factor must fail the suite."""
        true_mu = chk.lnk.mu_scalar

        def inflated(problem):
            return true_mu(problem) * (1.0 + 1e-3)

        monkeypatch.setattr(chk.lnk, "mu_scalar", inflated)
        results = chk.run_all(seed=0, samples=4, dims=(4,))
        failed = {r.name for r in results if not r.passed}
        assert failed, "perturbed link scale slipped through every property"

    def test_nan_residual_fails_its_property(self, monkeypatch):
        """A NaN residual must not fold away: max(0.0, nan) is 0.0."""
        monkeypatch.setattr(chk.iso, "minimal_poly_residual",
                            lambda op: float("nan"))
        results = chk.run_all(seed=0, samples=2, dims=(4,))
        cubic = next(r for r in results if r.id == 12)
        assert cubic.name == "annihilating-cubic"
        assert np.isnan(cubic.max_residual)
        assert not cubic.passed and not cubic.tolerance_induced

    def test_nan_detail_fails_its_property(self, monkeypatch):
        """A NaN in a row's second value reaches the judged residual."""
        monkeypatch.setattr(chk.lnk, "mu_scalar", lambda problem: float("nan"))
        results = chk.run_all(seed=0, samples=2, dims=(4,))
        solves = next(r for r in results if r.id == 15)
        assert solves.name == "link-solves"
        assert np.isnan(solves.detail["target_action_residual"])
        assert np.isnan(solves.max_residual) and not solves.passed

    def test_nan_term_fails_its_property(self, monkeypatch):
        """A body that combines several terms keeps a NaN in second place."""
        monkeypatch.setattr(chk.iso.Endomorphism, "trace",
                            lambda self: float("nan"))
        results = chk.run_all(seed=0, samples=2, dims=(4,))
        idempotent = next(r for r in results if r.id == 4)
        assert idempotent.name == "idempotent-laws"
        assert np.isnan(idempotent.max_residual) and not idempotent.passed

    def test_broken_gamma_is_caught(self, monkeypatch):
        true_gamma = chk.kin.gamma

        def inflated(v):
            return true_gamma(v) * (1.0 + 1e-4)

        monkeypatch.setattr(chk.kin, "gamma", inflated)
        results = chk.run_all(seed=0, samples=4, dims=(4,))
        assert any(not r.passed for r in results)


class TestLinkRayScan:
    def test_fixture_scan_shape(self, mink4):
        r = mink4.vector([1.0, 0.0, 0.0, 0.0])
        s = mink4.vector([1.25, 0.75, 0.0, 0.0])
        scan = link_ray_scan(r, s, seed=7, n_general=30, n_planar=5)
        assert len(scan["records"]) == 35
        kinds = {rec["ray_kind"] for rec in scan["records"]}
        assert kinds == {"general", "planar"}
        assert scan["planar_cluster"] == 1
        assert scan["planar_spread"] < 1e-8
        assert scan["distinct_links"] >= 30
        assert 0.0 <= scan["pair_fraction_above_cut"] <= 1.0
        assert scan["gamma_min"] <= scan["gamma_max"]

    def test_every_record_solves_the_problem(self, mink4):
        r = mink4.vector([1.0, 0.0, 0.0, 0.0])
        s = mink4.vector([1.25, 0.75, 0.0, 0.0])
        scan = link_ray_scan(r, s, seed=8, n_general=20, n_planar=4)
        for rec in scan["records"]:
            assert rec["residual"] < 1e-9

    def test_two_dimensions_collapse_to_one_link(self):
        space = make_space(2, "lorentzian")
        r = space.vector([1.0, 0.0])
        s = space.vector([1.25, 0.75])
        scan = link_ray_scan(r, s, seed=9, n_general=15, n_planar=5)
        assert scan["distinct_links"] == 1

    def test_coincident_endpoints_give_identity_links(self, mink4):
        r = mink4.vector([1.0, 0.0, 0.0, 0.0])
        scan = link_ray_scan(r, r, seed=10, n_general=10, n_planar=3)
        assert scan["distinct_links"] == 1
        for rec in scan["records"]:
            assert rec["gamma"] == pytest.approx(1.0, abs=1e-12)


class TestExhaustedRays:
    """An index that spends its 1000 draws stops the scan with a named
    error; the 0.01-scaled golden problem rejects every ray by the absolute
    filters of the scan."""

    @pytest.mark.parametrize("n_general, n_planar, named", [
        (2, 1, r"general ray index 0 \(stream \(5, 1, 0\)\)"),
        (0, 2, r"planar ray index 0 \(stream \(5, 2, 0\)\)"),
    ])
    def test_first_exhausted_index_is_named(self, mink4, n_general, n_planar, named):
        r = mink4.vector([0.01, 0.0, 0.0, 0.0])
        s = mink4.vector([0.0125, 0.0075, 0.0, 0.0])
        with pytest.raises(chk.DrawsExhaustedError, match=named + " accepted no ray in 1000 draws"):
            link_ray_scan(r, s, seed=5, n_general=n_general, n_planar=n_planar)


def _accepted_ray(r, s, seed, stream, i):
    """The ray index i of the scan accepts: the first draw of its stream
    (seed, stream, i) that passes the scan's filters."""
    rng = rng_for(seed, stream, i)
    for _ in range(1000):
        if stream == 1:
            ray = rng.normal(size=r.space.dim)
        else:
            a, b = rng.normal(size=2)
            ray = a * r.components + b * s.components
        problem = LinkProblem(r, s, r.space.vector(ray))
        flags = admissibility(problem)
        if (not (flags.generic and not flags.p_transversal)
                and abs(problem._terms.psum) >= 0.05 and abs(flags.denominator) >= 0.05):
            return ray
    raise AssertionError(f"index {i} of stream {stream} accepts no ray")


class TestScanLinksOnce:
    """The scan selects a ray for every index in rounds, then links all the
    accepted rays as one batch, in scan order."""

    def test_one_link_batch_holds_the_rays_in_scan_order(self, golden, monkeypatch):
        _, r, s = golden
        true_link_rows = chk.lnk._link_rows
        batches = []

        def counted(problem, terms):
            batches.append(np.array(terms.p))
            return true_link_rows(problem, terms)

        monkeypatch.setattr(chk.lnk, "_link_rows", counted)
        scan = link_ray_scan(r, s, seed=11, n_general=40, n_planar=10)  # 53 draws
        assert len(batches) == 1
        expected = [_accepted_ray(r, s, 11, 1, i) for i in range(40)]
        expected += [_accepted_ray(r, s, 11, 2, j) for j in range(10)]
        assert np.array_equal(batches[0], np.array(expected))
        assert [(rec["ray_kind"], rec["index"]) for rec in scan["records"]] == (
            [("general", i) for i in range(40)] + [("planar", j) for j in range(10)])

    @staticmethod
    def _force(monkeypatch, r, s, exhausted, refused):
        """Index ``exhausted`` draws R - S every time, which the scan rejects,
        and the link of index ``refused`` fails the isometry law; the message
        p_link gives for that link is returned."""
        true_draw = chk.RngBlock.draw

        def draw(block, indices, fn):
            rays = true_draw(block, indices, fn)
            return [r.components - s.components if i == exhausted else ray
                    for i, ray in zip(indices, rays)]

        bad = _accepted_ray(r, s, 1, 1, refused)
        true_entries = kernels.link_entries

        def perturbed(p, d, alpha, beta):
            entries = true_entries(p, d, alpha, beta)
            dim = p.shape[-1]
            flat = entries.reshape(-1, dim, dim)
            for row, ray in enumerate(np.reshape(p, (-1, dim))):
                if np.array_equal(ray, bad):
                    flat[row] *= 1.0 + 1e-3
            return entries

        monkeypatch.setattr(chk.RngBlock, "draw", draw)
        monkeypatch.setattr(kernels, "link_entries", perturbed)
        with pytest.raises(InternalConsistencyError) as exc:
            p_link(LinkProblem(r, s, r.space.vector(bad)))
        return str(exc.value)

    def test_an_earlier_exhausted_index_wins_over_a_later_refused_one(self, golden,
                                                                       monkeypatch):
        _, r, s = golden
        self._force(monkeypatch, r, s, exhausted=3, refused=10)
        with pytest.raises(DrawsExhaustedError,
                           match=r"general ray index 3 \(stream \(1, 1, 3\)\)"):
            link_ray_scan(r, s, seed=1, n_general=20, n_planar=0)

    def test_an_earlier_refused_index_wins_over_a_later_exhausted_one(self, golden,
                                                                       monkeypatch):
        _, r, s = golden
        message = self._force(monkeypatch, r, s, exhausted=10, refused=3)
        assert "isometry law" in message
        with pytest.raises(InternalConsistencyError) as exc:
            link_ray_scan(r, s, seed=1, n_general=20, n_planar=0)
        assert str(exc.value) == message

    def test_an_empty_scan_needs_no_link_problem(self, mink4):
        """No index, no link problem: R.R != S.S is not refused."""
        r = mink4.vector([1.0, 0.0, 0.0, 0.0])
        scan = link_ray_scan(r, 2.0 * r, seed=0, n_general=0, n_planar=0)
        assert math.isnan(scan.pop("gamma_min")) and math.isnan(scan.pop("gamma_max"))
        assert scan == {"records": [], "distinct_links": 0, "planar_cluster": 0,
                        "planar_spread": 0.0, "pair_fraction_above_cut": 1.0}


def _reference_order_row(ctx, rng, judge):
    """Property 28 as it ran before its draws were stacked: one rotation, two
    Velocity3s and six velocity_add calls per draw, folded by _sweep."""
    kin = chk.kin
    space = ctx.families["mink4"][0]
    obs = chk._rest(space)
    u, v, w = [kin.Velocity3(space.vector(comps), obs, 1.0)
               for comps in ([0.0, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.0],
                             [0.0, 0.0, 0.0, 0.5])]

    def rotated(space, rng):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        rot = np.eye(4)
        rot[1:, 1:] = q
        a, b = [kin.Velocity3(space.vector(rot @ x.vector.components), obs, 1.0)
                for x in (u, v)]
        return (chk._associator(a, b, a),
                chk._gap(kin.velocity_add(a, b).vector, kin.velocity_add(b, a).vector))

    orthogonal_associator = chk._associator(u, v, w)
    assoc, order, n = chk._sweep((space,), 100, rng, rotated, "witness")
    return judge(n, chk._nan_min(order, assoc),
                 {"orthogonal_triple_associator": orthogonal_associator,
                  "in_plane_associator_min": float(assoc),
                  "order_discrepancy_min": float(order)})


class TestStackedOrderRow:
    """Property 28 evaluates its 100 draws as stacked rows."""

    ROW = dict(chk._PROPERTIES)[28]

    @staticmethod
    def _ctx(seed, samples):
        return chk._Ctx(seed, 1e-9, samples, {"mink4": (make_space(4, "lorentzian"),)})

    def _both(self, seed, samples=4):
        ctx = self._ctx(seed, samples)
        reference = replace(self.ROW, body=_reference_order_row)
        return chk._run(28, self.ROW, ctx), chk._run(28, reference, ctx)

    @pytest.mark.parametrize("samples", [4, 40])
    @pytest.mark.parametrize("seed", list(range(16)) + [41801270])
    def test_matches_the_per_draw_body(self, seed, samples):
        stacked, reference = self._both(seed, samples)
        assert stacked.passed
        assert repr(stacked) == repr(reference)

    def test_makes_no_per_draw_velocity_add_call(self, monkeypatch):
        calls = []
        original = chk.kin.velocity_add
        monkeypatch.setattr(chk.kin, "velocity_add",
                            lambda u, v: calls.append(u) or original(u, v))
        chk._run(28, self.ROW, self._ctx(0, 4))
        assert len(calls) == 4  # the orthogonal triple's associator only

    @staticmethod
    def _normals(seed, draw):
        """The normal draw behind rotation ``draw`` of the row at ``seed``."""
        rng = rng_for(seed, 128)
        for _ in range(draw + 1):
            normals = rng.normal(size=(3, 3))
        return normals

    @pytest.mark.parametrize("draw", [0, 37, 99])
    def test_a_refused_draw_raises_as_the_per_draw_body(self, monkeypatch, draw):
        """Inflate the composition defect of the draw's first sum, a (+) b,
        in both forms of the row."""
        seed = 5
        q, _ = np.linalg.qr(self._normals(seed, draw))
        a, b = (np.concatenate(([0.0], 0.5 * q[:, k])) for k in (0, 1))
        original = chk.kin.velocity_sum

        def inflated(u, v, *rest):
            w, gap = original(u, v, *rest)
            hit = (u == a).all(axis=-1) & (v == b).all(axis=-1)
            return w, np.where(np.asarray(hit)[..., None], 1.0, gap)

        monkeypatch.setattr(chk.kin, "velocity_sum", inflated)
        stacked, reference = self._both(seed)
        assert stacked.detail == {
            "error": "InternalConsistencyError",
            "message": "the two composition forms disagree by 1.000e+00"}
        assert repr(stacked) == repr(reference)

    def test_a_non_finite_draw_raises_as_the_per_draw_body(self, monkeypatch):
        """A NaN rotation at draw 37: MetricSpace.vector refuses its legs."""
        seed = 5
        normals = self._normals(seed, 37)
        original = np.linalg.qr

        def poisoned(m):
            q, r = original(m)
            hit = (m == normals).all(axis=(-2, -1))
            return np.where(hit[..., None, None], np.nan, q), r

        monkeypatch.setattr(np.linalg, "qr", poisoned)
        stacked, reference = self._both(seed)
        assert stacked.detail == {"error": "NonFiniteError",
                                  "message": "vector has non-finite entries: "
                                             "[0.0, nan, nan, nan]"}
        assert repr(stacked) == repr(reference)


def _reference_closure_draw(space, rng):
    """One draw of property 27 as it ran before its draws were stacked: an
    observer, two sampled velocities, a luminal Velocity3 and one
    velocity_add."""
    kin = chk.kin
    p = chk.random_observer(space, rng)
    c = float(rng.uniform(0.5, 3.0))
    v = chk.random_observed_velocity(p, rng, c)
    ray = chk.random_observed_velocity(p, rng, c, beta_min=0.5)
    photon = kin.Velocity3((c / ray.speed()) * ray.vector, p, c, luminal=True)
    return abs(kin.velocity_add(photon, v).speed() - c) / c


def _reference_closure_row(ctx, rng, judge):
    value, _, n = chk._sweep(ctx.families["mink4"], 100, rng, _reference_closure_draw)
    return judge(n, value)


class _Tilted:
    """A generator whose normal draw equal to ``target`` comes out as
    ``replacement``; every other call goes to ``rng``."""

    def __init__(self, rng, target, replacement):
        self._rng, self._target, self._replacement = rng, target, replacement

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def normal(self, *args, **kwargs):
        drawn = self._rng.normal(*args, **kwargs)
        if drawn.shape == self._target.shape and (drawn == self._target).all():
            return self._replacement.copy()
        return drawn


class TestStackedClosureRow:
    """Property 27 evaluates its 100 draws as stacked rows."""

    ROW = dict(chk._PROPERTIES)[27]

    @staticmethod
    def _ctx(seed, samples=4):
        return chk._Ctx(seed, 1e-9, samples, {"mink4": (make_space(4, "lorentzian"),)})

    def _both(self, seed, samples=4):
        ctx = self._ctx(seed, samples)
        reference = replace(self.ROW, body=_reference_closure_row)
        return chk._run(27, self.ROW, ctx), chk._run(27, reference, ctx)

    @staticmethod
    def _velocity_adds(monkeypatch):
        calls = []
        original = chk.kin.velocity_add
        monkeypatch.setattr(chk.kin, "velocity_add",
                            lambda u, v: calls.append(u) or original(u, v))
        return calls

    @staticmethod
    def _draw(seed, draw):
        """The observer, its direction normals and the first velocity's
        normals of ``draw`` at ``seed``, a run without sampler rejections."""
        rng = rng_for(seed, 127)
        for _ in range(draw + 1):
            chi, n = rng.uniform(0.0, 1.5), rng.normal(size=3)
            rng.uniform(0.5, 3.0)
            y = rng.normal(size=4)
            rng.uniform(0.05, 0.85), rng.normal(size=4), rng.uniform(0.5, 0.85)
        direction = n / np.linalg.norm(n)
        return np.concatenate(([np.cosh(chi)], np.sinh(chi) * direction)), n, y

    @pytest.mark.parametrize("samples", [4, 40])
    @pytest.mark.parametrize("seed", list(range(16)) + [41801270])
    def test_matches_the_per_draw_body(self, seed, samples):
        stacked, reference = self._both(seed, samples)
        assert stacked.passed and stacked.samples == 100
        assert repr(stacked) == repr(reference)

    def test_makes_no_per_draw_velocity_add_call(self, monkeypatch):
        calls = self._velocity_adds(monkeypatch)
        chk._run(27, self.ROW, self._ctx(0))
        assert calls == []

    @pytest.mark.parametrize("draw", [0, 37, 99])
    def test_a_refused_draw_raises_as_the_per_draw_body(self, monkeypatch, draw):
        """Inflate the composition defect of the draw's photon (+) v, in both
        forms of the row."""
        seed = 5
        original = chk.kin.velocity_sum
        pairs = []
        monkeypatch.setattr(chk.kin, "velocity_sum",
                            lambda u, v, *rest: pairs.append((u, v)) or original(u, v, *rest))
        chk._run(27, replace(self.ROW, body=_reference_closure_row), self._ctx(seed))
        a, b = pairs[draw]

        def inflated(u, v, *rest):
            w, gap = original(u, v, *rest)
            hit = (u == a).all(axis=-1) & (v == b).all(axis=-1)
            return w, np.where(np.asarray(hit)[..., None], 1.0, gap)

        monkeypatch.setattr(chk.kin, "velocity_sum", inflated)
        stacked, reference = self._both(seed)
        assert stacked.detail == {
            "error": "InternalConsistencyError",
            "message": "the two composition forms disagree by 1.000e+00"}
        assert repr(stacked) == repr(reference)

    def test_a_sampler_rejection_replays_the_per_draw_body(self, monkeypatch):
        """Draw 37's first velocity normals come out as their rest projection
        times 1e-7, whose square is below tol_abs and which every other check
        accepts: random_observed_velocity draws again, and every later draw
        shifts."""
        seed = 5
        observer, _, y = self._draw(seed, 37)
        space = make_space(4, "lorentzian")
        tiny = 1e-7 * chk.kin.Observer(space.vector(observer)).rest_projection(
            space.vector(y)).components
        monkeypatch.setattr(chk, "rng_for", lambda *key: _Tilted(rng_for(*key), y, tiny))
        calls = self._velocity_adds(monkeypatch)
        stacked, reference = self._both(seed)
        assert len(calls) == 200  # the replay's and the reference's
        assert stacked.passed and stacked.samples == 100
        assert repr(stacked) == repr(reference)

    def test_a_non_finite_draw_raises_as_the_per_draw_body(self, monkeypatch):
        """Draw 37's direction normals come out NaN: Observer refuses them."""
        seed = 5
        _, n, _ = self._draw(seed, 37)
        monkeypatch.setattr(chk, "rng_for",
                            lambda *key: _Tilted(rng_for(*key), n, np.full(3, np.nan)))
        stacked, reference = self._both(seed)
        assert stacked.detail == {"error": "NotUnitTimelikeError",
                                  "message": "observer square is nan, expected -1"}
        assert repr(stacked) == repr(reference)
