import numpy as np
import pytest

import relkin.checks as chk
from relkin import (NUMERICAL_FLOOR, DegenerateLinkError, PropertyResult,
                    link_ray_scan)
from relkin.sampling import make_space


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
