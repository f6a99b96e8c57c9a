import sys

import numpy as np
import pytest

from relkin import (
    DegenerateSumError,
    LinkProblem,
    NotFutureDirectedError,
    NotIsomagnitudeError,
    NotNullCaseError,
    NotUnitTimelikeError,
    NullVectorError,
    OrthogonalPairError,
    SimpleBivector,
    ZeroMuError,
    admissibility,
    binary_velocity,
    boost,
    contract,
    fahnline_boost,
    gamma_of_link,
    idempotent_of,
    mu_scalar,
    null_link_conditions,
    p_link,
    planar_link,
    scalar_product,
    ternary_velocity,
)
import relkin
from relkin import checks, kernels, linker, sampling
from relkin.sampling import SIGNATURES, make_space, random_link_triple, rng_for


class TestLinkProblem:
    def test_magnitude_mismatch_rejected(self, mink4):
        r = mink4.vector([1.0, 0.0, 0.0, 0.0])
        s = mink4.vector([2.0, 0.0, 0.0, 0.0])
        with pytest.raises(NotIsomagnitudeError):
            LinkProblem(r, s)

    def test_default_ray_is_initial_vector(self, golden):
        _, r, s = golden
        problem = LinkProblem(r, s)
        assert np.array_equal(problem.effective_p().components, r.components)


class TestAdmissibility:
    def test_repeated_vector_is_planar(self, golden):
        _, r, s = golden
        flags = admissibility(LinkProblem(r, s, r))
        assert flags.planar
        assert flags.generic
        assert flags.p_transversal

    def test_out_of_plane_ray(self, golden):
        mink4, r, s = golden
        p = mink4.vector([1.1547, 0.0, 0.5774, 0.0])
        flags = admissibility(LinkProblem(r, s, p))
        assert not flags.planar
        assert flags.generic

    def test_coincident_endpoints_not_generic(self, golden):
        _, r, _ = golden
        flags = admissibility(LinkProblem(r, r))
        assert not flags.generic


class TestMuScalar:
    def test_golden_value(self, golden):
        _, r, s = golden
        assert mu_scalar(LinkProblem(r, s, r)) == pytest.approx(-1.0, abs=1e-14)

    def test_denominator_forms_agree(self, golden):
        mink4, r, s = golden
        d = r - s
        p = r
        wedge2 = relkin.bivector_product(SimpleBivector(p, d), SimpleBivector(p, d))
        dot2 = scalar_product(p, r + s) ** 2
        assert wedge2 + dot2 == pytest.approx(4.5, abs=1e-12)
        other = (p.square() * d.square()
                 + 4.0 * scalar_product(p, r) * scalar_product(p, s))
        assert other == pytest.approx(4.5, abs=1e-12)

    def test_denominator_identity_for_random_rays(self, mink4):
        rng = rng_for(31)
        for _ in range(100):
            problem = random_link_triple(mink4, rng)
            r, s, p = problem.R, problem.S, problem.P
            d = r - s
            lhs = (relkin.bivector_product(SimpleBivector(p, d),
                                           SimpleBivector(p, d))
                   + scalar_product(p, r + s) ** 2)
            rhs = (p.square() * d.square()
                   + 4.0 * scalar_product(p, r) * scalar_product(p, s))
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_ray_homogeneity(self, golden):
        _, r, s = golden
        mu1 = mu_scalar(LinkProblem(r, s, r))
        mu2 = mu_scalar(LinkProblem(r, s, 2.0 * r))
        assert mu2 == pytest.approx(mu1 / 2.0, abs=1e-14)

    def test_orthogonal_ray_rejected(self, golden):
        mink4, r, s = golden
        # P.(R+S) = -2.25 + 3*0.75 = 0 exactly for this ray.
        p = mink4.vector([1.0, 3.0, 0.0, 0.0])
        with pytest.raises(ZeroMuError):
            mu_scalar(LinkProblem(r, s, p))


class TestPLink:
    def test_identity_on_coincident_endpoints(self, golden):
        mink4, r, _ = golden
        link = p_link(LinkProblem(r, r, mink4.vector([0.3, 0.1, 0.9, 0.0])))
        assert np.array_equal(link.mapping.entries, np.eye(4))

    def test_planar_ray_recovers_planar_link(self, golden):
        _, r, s = golden
        general = p_link(LinkProblem(r, s, r))
        planar = planar_link(r, s)
        assert general.distance(planar) < 1e-10
        assert general.gamma == pytest.approx(1.25, abs=1e-12)

    def test_non_planar_ray_gives_distinct_link(self, golden):
        mink4, r, s = golden
        p = mink4.vector([1.1547, 0.0, 0.5774, 0.0])
        link = p_link(LinkProblem(r, s, p))
        assert np.allclose(link.apply(r).components, s.components, atol=1e-12)
        assert link.distance(planar_link(r, s)) > 0.01

    def test_gamma_recursion(self, golden):
        """gamma + 1 must equal mu P.(R+S) for the selected link."""
        mink4, r, s = golden
        for comps in ([1.0, 0.0, 0.0, 0.0], [1.1547, 0.0, 0.5774, 0.0],
                      [0.9, 0.2, -0.3, 0.4]):
            p = mink4.vector(comps)
            problem = LinkProblem(r, s, p)
            link = p_link(problem)
            mu = mu_scalar(problem)
            assert link.gamma + 1.0 == pytest.approx(
                mu * scalar_product(p, r + s), rel=1e-10, abs=1e-12)

    def test_target_action_formula(self, golden):
        mink4, r, s = golden
        p = mink4.vector([0.9, 0.2, -0.3, 0.4])
        problem = LinkProblem(r, s, p)
        link = p_link(problem)
        mu = mu_scalar(problem)
        mps = mu * scalar_product(p, s)
        expected = (2.0 * mps * s + (1.0 - 2.0 * mps) * r
                    - (r - s).square() * mu * p)
        assert np.allclose(link.apply(s).components, expected.components,
                           rtol=1e-10, atol=1e-12)

    def test_solves_across_signatures(self):
        rng = rng_for(32)
        for kind in SIGNATURES:
            space = make_space(4, kind)
            for _ in range(40):
                problem = random_link_triple(space, rng)
                link = p_link(problem)
                scale = max(1.0, np.max(np.abs(problem.S.components)))
                assert np.max(np.abs(link.apply(problem.R).components
                                     - problem.S.components)) < 1e-9 * scale

    def test_generator_ray_dependence_only(self, golden):
        """Scaling the preferred ray leaves the selected link unchanged."""
        mink4, r, s = golden
        p = mink4.vector([0.9, 0.2, -0.3, 0.4])
        link1 = p_link(LinkProblem(r, s, p))
        link2 = p_link(LinkProblem(r, s, -3.7 * p))
        assert link1.distance(link2) < 1e-12


class TestPlanarLink:
    def test_identity_when_coincident(self, golden):
        _, r, _ = golden
        assert np.array_equal(planar_link(r, r).mapping.entries, np.eye(4))

    def test_golden_fixture_actions(self, golden):
        _, r, s = golden
        link = planar_link(r, s)
        assert np.allclose(link.apply(r).components, s.components, atol=1e-12)
        s_proj = idempotent_of(s)
        expected = 2.0 * s_proj.apply(r) - r
        assert np.allclose(link.apply(s).components, expected.components,
                           atol=1e-12)
        assert np.allclose(link.apply(s).components, [2.125, 1.875, 0.0, 0.0],
                           atol=1e-12)

    def test_euclidean_quarter_turn(self, euclid2):
        r = euclid2.vector([1.0, 0.0])
        s = euclid2.vector([0.0, 1.0])
        link = planar_link(r, s)
        assert np.allclose(link.apply(r).components, s.components, atol=1e-14)
        assert np.max(np.abs(link.mapping.entries.T @ link.mapping.entries
                             - np.eye(2))) < 1e-14
        assert np.allclose(np.abs(link.mapping.entries), [[0.0, 1.0], [1.0, 0.0]])

    def test_generator_bivector(self, golden):
        _, r, s = golden
        link = planar_link(r, s)
        recorded = link.generator.components()
        expected = SimpleBivector((1.0 / s.square()) * s, r).components()
        assert np.allclose(recorded, expected, atol=1e-12)

    def test_null_endpoint_rejected(self, mink4):
        n = mink4.vector([1.0, 1.0, 0.0, 0.0])
        m = mink4.vector([1.0, -1.0, 0.0, 0.0])
        with pytest.raises(NullVectorError):
            planar_link(n, m)

    def test_degenerate_sum_rejected(self, mink4):
        r = mink4.vector([0.0, 1.0, 0.0, 0.0])
        s = mink4.vector([0.0, -1.0, 0.0, 0.0])
        with pytest.raises(DegenerateSumError):
            planar_link(r, s)


class TestFahnlineBoost:
    def test_identity_on_same_observer(self, golden):
        _, r, _ = golden
        fb = fahnline_boost(r, r)
        assert np.max(np.abs(fb.mapping.entries - np.eye(4))) < 1e-12

    def test_matches_planar_link(self, golden):
        _, r, s = golden
        fb = fahnline_boost(r, s)
        assert fb.distance(planar_link(r, s)) < 1e-10
        assert np.allclose(fb.apply(r).components, s.components, atol=1e-12)

    def test_gamma_offset(self, golden):
        _, r, s = golden
        fb = fahnline_boost(r, s)
        assert fb.gamma + 1.0 == pytest.approx(1.0 - scalar_product(r, s),
                                               abs=1e-12)
        assert fb.gamma + 1.0 == pytest.approx(2.25, abs=1e-12)

    def test_normalization_enforced(self, golden):
        mink4, r, _ = golden
        long = mink4.vector([2.0, 0.0, 0.0, 0.0])
        with pytest.raises(NotUnitTimelikeError):
            fahnline_boost(r, long)

    def test_past_directed_rejected(self, golden):
        mink4, r, _ = golden
        past = mink4.vector([-1.0, 0.0, 0.0, 0.0])
        with pytest.raises(NotFutureDirectedError):
            fahnline_boost(r, past)


class TestNullCase:
    @staticmethod
    def _null_pair(space, a=1.0, b=2.0, c=0.5, t=0.7):
        r = space.vector([a, a, b, c])
        s = space.vector([a - t, a - t, b, c])
        return r, s

    def test_family_is_null_separated(self, mink4):
        r, s = self._null_pair(mink4)
        assert abs((r - s).square()) < 1e-15
        assert r.square() == pytest.approx(s.square(), abs=1e-12)

    def test_non_null_input_rejected(self, golden):
        _, r, s = golden
        with pytest.raises(NotNullCaseError):
            null_link_conditions(LinkProblem(r, s, r), 1.0)

    def test_coincident_trivial_solution(self, mink4):
        r = mink4.vector([1.0, 1.0, 2.0, 0.5])
        p = mink4.vector([0.0, 1.0, 0.0, 0.0])
        # P.R = 1 for this pair, and gamma = 1.
        assert scalar_product(p, r) == 1.0
        res1, res2 = null_link_conditions(LinkProblem(r, r, p), 1.0)
        assert abs(res1) < 1e-14
        assert abs(res2) < 1e-14

    def test_gamma_branch_zeroes_second_residual(self, mink4):
        rng = rng_for(33)
        r, s = self._null_pair(mink4)
        first_nonzero = 0
        for _ in range(25):
            p = mink4.vector(rng.normal(size=4))
            delta = scalar_product(p, r) - scalar_product(p, s)
            gamma = float(np.sqrt(1.0 + delta * delta))
            res1, res2 = null_link_conditions(LinkProblem(r, s, p), gamma)
            assert abs(res2) < 1e-10
            if abs(res1) > 1e-6:
                first_nonzero += 1
        assert first_nonzero > 20

    def test_ray_scaling_breaks_solution(self, mink4):
        rng = rng_for(34)
        r, s = self._null_pair(mink4)
        p = mink4.vector(rng.normal(size=4))
        delta = scalar_product(p, r) - scalar_product(p, s)
        gamma = float(np.sqrt(1.0 + delta * delta))
        _, res2 = null_link_conditions(LinkProblem(r, s, p), gamma)
        _, res2_scaled = null_link_conditions(LinkProblem(r, s, 2.0 * p), gamma)
        assert abs(res2) < 1e-10
        assert abs(res2_scaled) > 1e-6

    def test_requires_explicit_ray(self, mink4):
        r, s = self._null_pair(mink4)
        with pytest.raises(NotNullCaseError):
            null_link_conditions(LinkProblem(r, s), 1.0)


class TestBinaryVelocity:
    def test_zero_for_coincident(self, golden):
        _, r, _ = golden
        assert np.all(binary_velocity(r, r).components == 0.0)

    def test_golden_fixture(self, golden):
        _, r, s = golden
        v = binary_velocity(r, s)
        assert np.allclose(v.components, [0.0, 0.6, 0.0, 0.0], atol=1e-12)
        assert v.square() == pytest.approx(0.36, abs=1e-12)

    def test_square_formula_isomagnitude(self, mink4):
        """The closed form -R^2 + R^6/(R.S)^2 holds when S^2 = R^2."""
        rng = rng_for(35)
        done = 0
        while done < 50:
            problem = random_link_triple(mink4, rng)
            r, s = problem.R, problem.S
            if abs(r.square()) < 0.1 or abs(scalar_product(r, s)) < 0.1:
                continue
            v = binary_velocity(r, s)
            expected = -r.square() + r.square() ** 3 / scalar_product(r, s) ** 2
            assert v.square() == pytest.approx(expected, rel=1e-8, abs=1e-8)
            assert abs(scalar_product(r, v)) < 1e-9 * max(
                1.0, float(np.max(np.abs(v.components))))
            done += 1

    def test_square_formula_general(self, mink4):
        """Without magnitude matching the square is R^4 S^2/(R.S)^2 - R^2."""
        rng = rng_for(38)
        done = 0
        while done < 50:
            r = mink4.vector(rng.normal(size=4))
            s = mink4.vector(rng.normal(size=4))
            if abs(r.square()) < 0.1 or abs(scalar_product(r, s)) < 0.1:
                continue
            v = binary_velocity(r, s)
            expected = (r.square() ** 2 * s.square()
                        / scalar_product(r, s) ** 2 - r.square())
            assert v.square() == pytest.approx(expected, rel=1e-9, abs=1e-9)
            done += 1

    def test_non_reciprocal_but_isomagnitude(self, golden):
        _, r, s = golden
        fwd = binary_velocity(r, s)
        back = binary_velocity(s, r)
        assert np.allclose(back.components, [-0.45, -0.75, 0.0, 0.0], atol=1e-12)
        assert np.max(np.abs(fwd.components + back.components)) > 0.1
        assert fwd.square() == pytest.approx(back.square(), rel=1e-10)

    def test_orthogonal_pair_rejected(self, mink4):
        r = mink4.vector([0.0, 1.0, 0.0, 0.0])
        s = mink4.vector([0.0, 0.0, 1.0, 0.0])
        with pytest.raises(OrthogonalPairError):
            binary_velocity(r, s)


class TestTernaryVelocity:
    def test_zero_for_coincident(self, golden):
        _, r, _ = golden
        assert np.all(ternary_velocity(LinkProblem(r, r, r)).components == 0.0)

    def test_golden_fixture(self, golden):
        _, r, s = golden
        v = ternary_velocity(LinkProblem(r, s, r))
        assert np.allclose(v.components, [0.0, 0.6, 0.0, 0.0], atol=1e-12)

    def test_planar_contract_form(self, golden):
        """For the planar ray the scaled velocity is a bivector contraction."""
        _, r, s = golden
        v = ternary_velocity(LinkProblem(r, s, r))
        gamma_v = 1.0 / np.sqrt(1.0 - v.square())
        vbar = gamma_v * v
        via_contract = contract(r, SimpleBivector(s, r))
        assert np.allclose(vbar.components, via_contract.components, atol=1e-10)

    def test_velocity_rebuilds_link(self, mink4):
        from relkin import Observer, Velocity3
        rng = rng_for(36)
        for _ in range(25):
            chi1, chi2, chi3 = rng.uniform(0.0, 1.2, size=3)
            phis = rng.uniform(0.0, 2 * np.pi, size=3)
            def obs(chi, phi):
                return mink4.vector([np.cosh(chi),
                                     np.sinh(chi) * np.cos(phi),
                                     np.sinh(chi) * np.sin(phi), 0.0])
            r, s, p = obs(chi1, phis[0]), obs(chi2, phis[1]), obs(chi3, phis[2])
            problem = LinkProblem(r, s, p)
            flags = admissibility(problem)
            if abs(scalar_product(p, r + s)) < 0.05 or abs(flags.denominator) < 0.05:
                continue
            v = ternary_velocity(problem)
            rebuilt = boost(Observer(p), Velocity3(v, Observer(p), 1.0))
            link = p_link(problem)
            assert rebuilt.distance(link) < 1e-9
            assert abs(scalar_product(p, v)) < 1e-10

    def test_requires_unit_timelike(self, golden):
        mink4, r, s = golden
        long = mink4.vector([2.0, 0.0, 0.0, 0.0])
        with pytest.raises(NotUnitTimelikeError):
            ternary_velocity(LinkProblem(2.0 * r, 2.0 * s, long))


class TestGammaOfLink:
    def test_planar_fixture(self, golden):
        _, r, s = golden
        assert gamma_of_link(LinkProblem(r, s, r)) == pytest.approx(1.25,
                                                                    abs=1e-12)

    def test_identity_link(self, golden):
        _, r, _ = golden
        assert gamma_of_link(LinkProblem(r, r)) == 1.0

    def test_matches_recorded_gamma(self, mink4):
        rng = rng_for(37)
        for _ in range(50):
            problem = random_link_triple(mink4, rng)
            link = p_link(problem)
            assert gamma_of_link(problem) == pytest.approx(abs(link.gamma),
                                                           rel=1e-9, abs=1e-10)


def _outcome(fn, problem):
    """Comparable result of ``fn(problem)``: the value, or the error raised."""
    try:
        value = fn(problem)
    except relkin.RelkinError as exc:
        return type(exc), str(exc)
    if isinstance(value, relkin.Isometry):
        return value.mapping.entries.tobytes(), value.gamma
    return value


class TestSharedTerms:
    """A problem evaluates its shared scalars once; reuse changes no result."""

    def triples(self, golden):
        mink4, r, s = golden
        null_r = mink4.vector([1.0, 1.0, 0.0, 0.0])
        rng = rng_for(41)
        yield r, s, mink4.vector([1.0, 3.0, 0.0, 0.0])   # P.(R+S) = 0
        yield null_r, 2.0 * null_r, r                     # (R-S)^2 = 0
        yield r, r, mink4.vector([0.3, 0.1, 0.9, 0.0])   # R = S
        yield r, s, r                                     # planar ray
        yield r, s, None                                  # planar default
        for kind in SIGNATURES:
            for _ in range(5):
                problem = random_link_triple(make_space(4, kind), rng)
                yield problem.R, problem.S, problem.P

    def test_reused_problem_matches_fresh_problems(self, golden):
        for r, s, p in self.triples(golden):
            reused = LinkProblem(r, s, p)
            for _ in range(2):
                for fn in (admissibility, mu_scalar, p_link, gamma_of_link):
                    assert (_outcome(fn, reused)
                            == _outcome(fn, LinkProblem(r, s, p))), (fn, r, s, p)

    def test_refusals_raise_on_every_call(self, golden):
        mink4, r, s = golden
        zero_mu = LinkProblem(r, s, mink4.vector([1.0, 3.0, 0.0, 0.0]))
        null_r = mink4.vector([1.0, 1.0, 0.0, 0.0])
        not_generic = LinkProblem(null_r, 2.0 * null_r, r)
        for _ in range(3):
            for fn in (mu_scalar, p_link):
                with pytest.raises(ZeroMuError):
                    fn(zero_mu)
                with pytest.raises(relkin.DegenerateLinkError):
                    fn(not_generic)

    def test_scan_evaluates_one_witness_per_ray_draw(self, golden, monkeypatch):
        """The scan links its draws in stacked rounds; each draw is one row
        of one stacked pre-pass over the components i < j < k, and only the
        planar-stream draws, whose rays lie in the plane of R and S, take the
        full witness."""
        _, r, s = golden
        counts = {"draws": 0, "planar draws": 0, "pre-pass": 0, "witnesses": 0}
        true_draw = sampling.RngBlock.draw

        def counted_draw(block, indices, fn):
            counts["draws"] += len(indices)
            counts["planar draws"] += int(np.count_nonzero(np.asarray(indices) >= 40))
            return true_draw(block, indices, fn)

        def counted(name, kernel):
            def run(rays, r, s):
                counts[name] += len(rays)
                return kernel(rays, r, s)
            return run

        monkeypatch.setattr(sampling.RngBlock, "draw", counted_draw)
        monkeypatch.setattr(kernels, "trivector_triple_rows",
                            counted("pre-pass", kernels.trivector_triple_rows))
        monkeypatch.setattr(kernels, "trivector_rows",
                            counted("witnesses", kernels.trivector_rows))
        scan = checks.link_ray_scan(r, s, seed=11, n_general=40, n_planar=10)
        assert len(scan["records"]) == 50
        assert counts["draws"] == counts["pre-pass"] == 53  # some draws are rejected
        assert counts["witnesses"] == counts["planar draws"] == 13


class TestIdentityBranchesVerifyLink:
    """R = S to tolerance gives the identity, which is checked against LR = S
    like any other link: S lies 1e-13 from R, within tol_abs, but beyond a
    tol_rel of 1e-15."""

    @staticmethod
    def _near_pair(tol_rel):
        space = relkin.MetricSpace.from_metric(np.diag([-1.0, 1.0, 1.0, 1.0]),
                                               tol_rel=tol_rel)
        return space.vector([1.0, 0.0, 0.0, 0.0]), space.vector([1.0, 0.0, 1e-13, 0.0])

    BUILDERS = {
        "p_link": lambda r, s: p_link(LinkProblem(r, s, r + s)),
        "p_link_without_ray": lambda r, s: p_link(LinkProblem(r, s)),
        "planar_link": planar_link,
        "fahnline_boost": fahnline_boost,
        "scan": lambda r, s: checks.link_ray_scan(r, s, n_general=3, n_planar=2),
    }

    @pytest.mark.parametrize("name", BUILDERS)
    def test_identity_beyond_the_link_bound_raises(self, name):
        r, s = self._near_pair(1e-15)
        with pytest.raises(relkin.InternalConsistencyError,
                           match=r"link fails LR = S, residual 1\.000e-13"):
            self.BUILDERS[name](r, s)

    @pytest.mark.parametrize("name", BUILDERS)
    def test_identity_within_the_link_bound_is_returned(self, name):
        r, s = self._near_pair(1e-9)
        link = self.BUILDERS[name](r, s)
        if name == "scan":
            assert {rec["residual"] for rec in link["records"]} == {1e-13}
        else:
            assert np.array_equal(link.mapping.entries, np.eye(4))


class TestPlanarLinkProblemChecks:
    def test_isomagnitude_message_gives_the_squares(self, mink4):
        r = mink4.vector([1.0, 0.0, 0.0, 0.0])
        s = mink4.vector([2.0, 0.0, 0.0, 0.0])
        with pytest.raises(NotIsomagnitudeError,
                           match=r"R\.R = -1\.0 and S\.S = -4\.0 differ"):
            planar_link(r, s)


@pytest.fixture
def passes(monkeypatch):
    """Calls of ``scalar_product`` and passes of ``kernels.pairing_rows`` and of
    ``metric_core._pairings``, counted in every relkin module that holds the name."""
    counts = dict.fromkeys(("scalar_product", "pairing_rows", "_pairings"), 0)
    for name, home in (("scalar_product", relkin.metric_core), ("pairing_rows", kernels),
                       ("_pairings", relkin.metric_core)):
        original = getattr(home, name)

        def counted(*args, _original=original, _name=name):
            counts[_name] += 1
            return _original(*args)

        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("relkin")
                    and getattr(module, name, None) is original):
                monkeypatch.setattr(module, name, counted)
    return counts


def _stackable_problems(space, rng):
    """(R, S) pairs of equal squares: a random link pair, R = S and, when the
    metric is indefinite, a null-separated pair, (R - S)^2 = 0."""
    problem = random_link_triple(space, rng)
    pairs = [(problem.R.components, problem.S.components),
             (problem.R.components, problem.R.components)]
    diag = np.diag(space.g)
    if diag.min() < 0.0 < diag.max():
        # R is orthogonal to the null n = e_i + e_j, so S = R - t n has S.S = R.R.
        i, j = int(np.argmin(diag)), int(np.argmax(diag))
        n = np.zeros(space.dim)
        n[[i, j]] = 1.0
        r = 0.8 * n + rng.normal(size=space.dim) * (n == 0.0)
        pairs.append((r, r - 0.7 * n))
    return pairs


class TestOnePassTerms:
    """A link problem's pairings are formed once, by ``_Terms.of``, for one
    ray, a ray scan and stacked problems alike."""

    def test_a_link_pairs_its_vectors_in_one_pass(self, golden, passes):
        mink4, r, s = golden
        p_link(LinkProblem(r, s, mink4.vector([1.1, 0.2, 0.5, 0.0])))
        # The terms pair on the space's float pairing and the squares of R and S
        # are kept, so neither counts; the generator record's square (P.Q, with
        # the legs' squares) pairs on the float pairing too.
        assert passes == {"scalar_product": 0, "pairing_rows": 0, "_pairings": 0}

    def test_a_built_problem_gives_its_ternary_velocity_in_two_passes(self, golden, passes):
        mink4, r, s = golden
        problem = LinkProblem(r, s, mink4.vector([1.25, 0.0, 0.75, 0.0]))
        passes.update(scalar_product=0, pairing_rows=0, _pairings=0)
        ternary_velocity(problem)
        # One _pairings pass for vbar.vbar.  P's idempotent reads the square of
        # P, and the terms were formed with the problem.
        assert passes == {"scalar_product": 0, "pairing_rows": 0, "_pairings": 1}

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("kind", SIGNATURES)
    def test_stacked_problems_with_one_ray_match_each_problem(self, dim, kind):
        space = make_space(dim, kind)
        rng = rng_for(61, dim)
        pairs = _stackable_problems(space, rng)
        p = rng.normal(size=dim)
        stacked = linker._Terms.of(space, p, np.array([r for r, _ in pairs]),
                                   np.array([s for _, s in pairs]))
        for row, (r, s) in enumerate(pairs):
            one = LinkProblem(space.vector(r), space.vector(s), space.vector(p))._terms
            for name in ("p", "d"):
                assert getattr(stacked, name)[row].tobytes() == \
                    getattr(one, name).components.tobytes(), name
            for name, value in one._asdict().items():
                if name in ("p", "d"):
                    continue
                assert type(value) in (float, bool), name
                assert getattr(stacked, name).tolist()[row] == value, name
                if type(value) is bool:
                    assert getattr(stacked, name).tolist()[row] is value, name
        assert stacked.coincide.tolist()[1]
        if len(pairs) > 2:
            assert not stacked.generic.tolist()[2]
