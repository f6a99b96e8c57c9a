import numpy as np
import pytest

from relkin import (
    Endomorphism,
    InternalConsistencyError,
    Isometry,
    MissingGeneratorError,
    NotInStabilizerError,
    NullVectorError,
    OutOfDomainError,
    SimpleBivector,
    covector_pair,
    isometry_from_bivector,
    isometry_residual,
    minimal_poly_residual,
    minimal_poly_residual_alt,
    reflection,
    scalar_product,
    stabilizer_element,
)
from relkin.sampling import (
    SIGNATURES,
    make_space,
    random_admissible_bivector,
    random_nonnull_vector,
    rng_for,
)


class TestReflection:
    def test_euclidean_axis(self, euclid2):
        ref = reflection(euclid2.vector([1.0, 0.0]))
        assert np.allclose(ref.mapping.entries, np.diag([-1.0, 1.0]))

    def test_null_axis_rejected(self, mink4):
        with pytest.raises(NullVectorError):
            reflection(mink4.vector([1.0, 1.0, 0.0, 0.0]))

    def test_involution_and_negation(self):
        rng = rng_for(21)
        for dim in (2, 3, 4, 5, 6):
            for kind in SIGNATURES:
                space = make_space(dim, kind)
                for _ in range(20):
                    p = random_nonnull_vector(space, rng)
                    ref = reflection(p)
                    square = (ref.mapping @ ref.mapping).entries
                    assert np.max(np.abs(square - np.eye(dim))) < 1e-10
                    flipped = ref.apply(p)
                    assert np.allclose(flipped.components, -p.components,
                                       rtol=1e-9, atol=1e-11)

    def test_fixes_orthogonal_complement(self, mink4):
        ref = reflection(mink4.vector([0.0, 1.0, 0.0, 0.0]))
        kept = mink4.vector([2.0, 0.0, -1.0, 3.0])
        assert np.allclose(ref.apply(kept).components, kept.components)


class TestIsometryFromBivector:
    def test_zero_bivector_is_identity(self, mink4):
        p = mink4.vector([1.0, 2.0, 3.0, 0.0])
        op = isometry_from_bivector(SimpleBivector(p, 0.0 * p))
        assert np.array_equal(op.mapping.entries, np.eye(4))
        assert op.gamma == 1.0

    def test_rotation_fixture(self, euclid2):
        b = SimpleBivector(euclid2.vector([1.0, 0.0]), euclid2.vector([0.0, 0.6]))
        op = isometry_from_bivector(b)
        assert op.gamma == pytest.approx(0.8, abs=1e-15)
        assert np.allclose(op.mapping.entries, [[0.8, 0.6], [-0.6, 0.8]],
                           atol=1e-15)

    def test_boost_fixture(self, mink2):
        b = SimpleBivector(mink2.vector([1.0, 0.0]), mink2.vector([0.0, 0.75]))
        op = isometry_from_bivector(b)
        assert op.gamma == pytest.approx(1.25, abs=1e-15)
        assert np.allclose(op.mapping.entries, [[1.25, 0.75], [0.75, 1.25]],
                           atol=1e-15)
        moved = op.apply(mink2.vector([1.0, 0.0]))
        assert np.allclose(moved.components, [1.25, 0.75], atol=1e-15)

    def test_domain_violation_rejected(self, euclid2):
        big = SimpleBivector(euclid2.vector([2.0, 0.0]), euclid2.vector([0.0, 2.0]))
        with pytest.raises(OutOfDomainError):
            isometry_from_bivector(big)

    def test_domain_boundary_gives_quarter_turn(self, euclid2):
        """(P^Q)^2 = 1 sits inside the domain with gamma = 0."""
        flat = SimpleBivector(euclid2.vector([1.0, 0.0]), euclid2.vector([0.0, 1.0]))
        op = isometry_from_bivector(flat)
        assert op.gamma == 0.0
        assert np.allclose(op.mapping.entries, [[0.0, 1.0], [-1.0, 0.0]])
        assert isometry_residual(op.mapping) < 1e-15

    def test_residual_and_pairs_across_signatures(self):
        rng = rng_for(22)
        for dim in (2, 3, 4, 5, 6):
            for kind in SIGNATURES:
                space = make_space(dim, kind)
                for _ in range(10):
                    op = isometry_from_bivector(
                        random_admissible_bivector(space, rng))
                    assert isometry_residual(op.mapping) < 1e-9
                    for _ in range(5):
                        a = space.vector(rng.normal(size=dim))
                        b = space.vector(rng.normal(size=dim))
                        before = scalar_product(a, b)
                        after = scalar_product(op.apply(a), op.apply(b))
                        assert abs(after - before) <= 1e-9 * (1.0 + abs(before))

    def test_inverse_swaps_presentation(self, mink4):
        rng = rng_for(23)
        for _ in range(30):
            b = random_admissible_bivector(mink4, rng)
            fwd = isometry_from_bivector(b)
            product = (fwd.mapping @ fwd.inverse().mapping).entries
            assert np.max(np.abs(product - np.eye(4))) < 1e-10
            swapped = isometry_from_bivector(SimpleBivector(b.second, b.first))
            assert fwd.inverse().distance(swapped) < 1e-10

    def test_construction_rejects_non_isometry(self, mink4):
        bad = Endomorphism(np.eye(4) + 1e-3, mink4)
        with pytest.raises(InternalConsistencyError):
            from relkin import Isometry
            Isometry(bad)


class TestCovectorPair:
    def test_zero_bivector_gives_zero_covectors(self, mink4):
        p = mink4.vector([1.0, 0.0, 0.0, 0.0])
        alpha, beta = covector_pair(SimpleBivector(p, 2.0 * p))
        assert np.all(alpha.components == 0.0)
        assert np.all(beta.components == 0.0)

    def test_euclidean_fixture_values(self, euclid2):
        b = SimpleBivector(euclid2.vector([1.0, 0.0]), euclid2.vector([0.0, 0.6]))
        alpha, beta = covector_pair(b)
        assert np.allclose(alpha.components, [0.2, -0.6], atol=1e-15)
        assert np.allclose(beta.components, [1.0, 1.0 / 3.0], atol=1e-15)

    def test_reconstruction_matches_binomial(self):
        rng = rng_for(24)
        for dim in (2, 3, 4, 5, 6):
            for kind in SIGNATURES:
                space = make_space(dim, kind)
                for _ in range(10):
                    b = random_admissible_bivector(space, rng)
                    alpha, beta = covector_pair(b)
                    rebuilt = (np.eye(dim)
                               - np.outer(b.first.components, alpha.components)
                               - np.outer(b.second.components, beta.components))
                    op = isometry_from_bivector(b)
                    assert np.max(np.abs(rebuilt - op.mapping.entries)) < 1e-9


class TestMinimalPolynomial:
    def test_identity_residual_zero(self, mink4):
        p = mink4.vector([1.0, 0.0, 0.0, 0.0])
        op = isometry_from_bivector(SimpleBivector(p, 0.0 * p))
        assert minimal_poly_residual(op) == 0.0

    def test_rotation_fixture_plane_oracle(self, euclid2):
        """Restricting to the generator plane must give trace 2γ and det 1."""
        b = SimpleBivector(euclid2.vector([1.0, 0.0]), euclid2.vector([0.0, 0.6]))
        op = isometry_from_bivector(b)
        plane = op.mapping.entries
        assert np.trace(plane) == pytest.approx(2.0 * op.gamma, abs=1e-12)
        assert np.linalg.det(plane) == pytest.approx(1.0, abs=1e-12)
        assert minimal_poly_residual(op) < 1e-12

    def test_printed_variant_fails_on_rotation(self, euclid2):
        b = SimpleBivector(euclid2.vector([1.0, 0.0]), euclid2.vector([0.0, 0.6]))
        op = isometry_from_bivector(b)
        assert minimal_poly_residual_alt(op) > 1e-3

    def test_residual_small_across_signatures(self):
        rng = rng_for(25)
        for dim in (2, 4, 6):
            for kind in SIGNATURES:
                space = make_space(dim, kind)
                for _ in range(15):
                    op = isometry_from_bivector(
                        random_admissible_bivector(space, rng))
                    assert minimal_poly_residual(op) < 1e-10

    def test_missing_generator_rejected(self, euclid2):
        bare = reflection(euclid2.vector([1.0, 0.0]))
        with pytest.raises(MissingGeneratorError):
            minimal_poly_residual(bare)


class TestStabilizer:
    def test_spatial_rotation_fixes_rest_observer(self, mink4):
        r = mink4.vector([1.0, 0.0, 0.0, 0.0])
        b = SimpleBivector(mink4.vector([0.0, 1.0, 0.0, 0.0]),
                           mink4.vector([0.0, 0.0, 0.6, 0.0]))
        k = stabilizer_element(r, b)
        assert np.allclose(k.apply(r).components, r.components, atol=1e-12)
        assert isometry_residual(k.mapping) < 1e-10

    def test_non_orthogonal_generator_rejected(self, mink4):
        r = mink4.vector([1.0, 0.0, 0.0, 0.0])
        tilted = SimpleBivector(mink4.vector([0.5, 1.0, 0.0, 0.0]),
                                mink4.vector([0.0, 0.0, 0.6, 0.0]))
        with pytest.raises(NotInStabilizerError):
            stabilizer_element(r, tilted)

    def test_zero_bivector_gives_identity(self, mink4):
        r = mink4.vector([1.0, 0.0, 0.0, 0.0])
        z = mink4.vector([0.0, 0.0, 0.0, 0.0])
        k = stabilizer_element(r, SimpleBivector(z, z))
        assert np.array_equal(k.mapping.entries, np.eye(4))


class TestVerification:
    """A NaN residual fails its check: an operator or a gamma record with NaN
    entries is never returned as a verified isometry."""

    def test_nan_operator_fails_the_law(self, euclid2):
        entries = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(InternalConsistencyError,
                           match="^operator fails the isometry law, residual nan$"):
            Isometry(Endomorphism(entries, euclid2))

    def test_nan_gamma_fails_the_record(self, euclid2):
        b = SimpleBivector(euclid2.vector([1.0, 0.0]), euclid2.vector([0.0, 0.6]))
        op = isometry_from_bivector(b)
        with pytest.raises(InternalConsistencyError,
                           match="^gamma record inconsistent with generator, defect nan$"):
            Isometry(op.mapping, b, float("nan"))
