import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import relkin
from relkin import (
    DegenerateMetricError,
    MetricSpace,
    NotUnimodularError,
    NullVectorError,
    SimpleBivector,
    SpaceMismatchError,
    bivector_product,
    contract,
    idempotent_of,
    lie_map,
    orthogonal_presentation,
    represent_sl2,
    scalar_product,
    trivector_maxabs,
)

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False,
                   allow_infinity=False)


def vec4(draw_values, space):
    return space.vector(draw_values)


class TestMetricSpace:
    def test_flat_row_major_input(self):
        sp = MetricSpace.from_metric([-1, 0, 0, 1])
        assert sp.dim == 2
        assert sp.g[0, 0] == -1.0

    def test_rejects_non_square_flat(self):
        with pytest.raises(DegenerateMetricError):
            MetricSpace.from_metric([1.0, 2.0, 3.0])

    def test_rejects_asymmetric(self):
        with pytest.raises(DegenerateMetricError):
            MetricSpace.from_metric([[1.0, 0.5], [0.0, 1.0]])

    def test_rejects_singular(self):
        with pytest.raises(DegenerateMetricError):
            MetricSpace.from_metric([[1.0, 1.0], [1.0, 1.0]])

    def test_rejects_dim_one(self):
        with pytest.raises(DegenerateMetricError):
            MetricSpace.from_metric([[4.0]])

    def test_signature(self, mink4, euclid2, split4):
        assert mink4.signature() == (1, 3)
        assert euclid2.signature() == (0, 2)
        assert split4.signature() == (2, 2)
        assert mink4.is_lorentzian
        assert not split4.is_lorentzian

    def test_signature_is_computed_once_per_space(self, monkeypatch):
        calls = []
        true_eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda g: calls.append(1) or true_eigvalsh(g))
        space = MetricSpace.from_metric(np.diag([-1.0, 1.0, 1.0]))
        for _ in range(3):
            assert space.signature() == (1, 2)
            assert space.is_lorentzian
        assert len(calls) == 1

    def test_vectors_are_read_only(self, mink4):
        v = mink4.vector([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError):
            v.components[0] = 9.0

    def test_space_mismatch_is_rejected(self, mink4, euclid2):
        a = mink4.vector([1.0, 0.0, 0.0, 0.0])
        b = euclid2.vector([1.0, 0.0])
        with pytest.raises(SpaceMismatchError):
            scalar_product(a, b)

    def test_wrong_component_count(self, euclid2):
        with pytest.raises(SpaceMismatchError):
            euclid2.vector([1.0, 2.0, 3.0])


class TestScalarProduct:
    def test_unit_timelike(self, mink4):
        a = mink4.vector([1.0, 0.0, 0.0, 0.0])
        assert scalar_product(a, a) == -1.0

    def test_orthogonal_basis_vectors(self, mink4):
        a = mink4.vector([0.0, 1.0, 0.0, 0.0])
        b = mink4.vector([0.0, 0.0, 1.0, 0.0])
        assert scalar_product(a, b) == 0.0

    def test_null_vector(self, mink4):
        n = mink4.vector([1.0, 1.0, 0.0, 0.0])
        assert scalar_product(n, n) == 0.0
        assert n.is_null()

    @given(st.lists(finite, min_size=4, max_size=4),
           st.lists(finite, min_size=4, max_size=4))
    def test_exact_symmetry(self, a_comps, b_comps):
        sp = MetricSpace.from_metric(np.diag([-1.0, 1.0, 1.0, 1.0]))
        a = sp.vector(a_comps)
        b = sp.vector(b_comps)
        assert scalar_product(a, b) == scalar_product(b, a)

    def test_symmetry_with_skewed_metric(self):
        sp = MetricSpace.from_metric([[2.0, 0.7, 0.0], [0.7, 1.0, -0.3],
                                      [0.0, -0.3, 1.5]])
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = sp.vector(rng.normal(size=3))
            b = sp.vector(rng.normal(size=3))
            assert scalar_product(a, b) == scalar_product(b, a)


class TestBivectorProduct:
    def test_orthonormal_euclidean_pair(self, euclid2):
        e1 = euclid2.vector([1.0, 0.0])
        e2 = euclid2.vector([0.0, 1.0])
        b = SimpleBivector(e1, e2)
        assert bivector_product(b, b) == 1.0

    def test_collinear_pair_vanishes(self, mink4):
        p = mink4.vector([1.0, 2.0, 3.0, 4.0])
        b = SimpleBivector(p, 2.5 * p)
        assert b.is_zero()
        assert bivector_product(b, b) == 0.0

    def test_timelike_plane_square(self, mink2):
        p = mink2.vector([1.0, 0.0])
        w = mink2.vector([0.0, 0.75])
        b = SimpleBivector(p, w)
        assert bivector_product(b, b) == pytest.approx(-0.5625, abs=1e-15)

    def test_gram_determinant_formula(self, mink4):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a, b, p, q = (mink4.vector(rng.normal(size=4)) for _ in range(4))
            expected = (scalar_product(a, p) * scalar_product(b, q)
                        - scalar_product(a, q) * scalar_product(b, p))
            got = bivector_product(SimpleBivector(a, b), SimpleBivector(p, q))
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_symmetry(self, split4):
        rng = np.random.default_rng(4)
        b1 = SimpleBivector(split4.vector(rng.normal(size=4)),
                            split4.vector(rng.normal(size=4)))
        b2 = SimpleBivector(split4.vector(rng.normal(size=4)),
                            split4.vector(rng.normal(size=4)))
        assert bivector_product(b1, b2) == pytest.approx(
            bivector_product(b2, b1), rel=1e-12, abs=1e-15)


class TestContract:
    def test_degenerate_wedge_gives_zero(self, mink4):
        v = mink4.vector([0.3, 1.0, -2.0, 0.5])
        out = contract(v, SimpleBivector(v, v))
        assert np.all(out.components == 0.0)

    def test_euclidean_basis_example(self):
        sp = MetricSpace.from_metric(np.eye(3))
        v = sp.vector([1.0, 0.0, 0.0])
        b = SimpleBivector(sp.vector([1.0, 0.0, 0.0]), sp.vector([0.0, 1.0, 0.0]))
        assert np.allclose(contract(v, b).components, [0.0, 1.0, 0.0])

    def test_expansion_formula(self, mink4):
        rng = np.random.default_rng(5)
        for _ in range(50):
            v, u, w = (mink4.vector(rng.normal(size=4)) for _ in range(3))
            got = contract(v, SimpleBivector(u, w))
            expected = scalar_product(v, u) * w - scalar_product(v, w) * u
            assert np.allclose(got.components, expected.components,
                               rtol=1e-12, atol=1e-12)


class TestIdempotent:
    def test_rest_observer_projector(self, mink4):
        p = idempotent_of(mink4.vector([1.0, 0.0, 0.0, 0.0]))
        assert np.allclose(p.entries, np.diag([1.0, 0.0, 0.0, 0.0]))

    def test_null_vector_rejected(self, mink4):
        with pytest.raises(NullVectorError):
            idempotent_of(mink4.vector([1.0, 1.0, 0.0, 0.0]))

    def test_projector_laws(self, split4):
        rng = np.random.default_rng(6)
        done = 0
        while done < 50:
            p_vec = split4.vector(rng.normal(size=4))
            if abs(p_vec.square()) < 0.1:
                continue
            proj = idempotent_of(p_vec)
            assert np.allclose((proj @ proj).entries, proj.entries, atol=1e-12)
            assert proj.trace() == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(proj.apply(p_vec).components, p_vec.components,
                               rtol=1e-10, atol=1e-12)
            done += 1

    def test_annihilates_orthogonal_complement(self, mink4):
        p_vec = mink4.vector([1.0, 0.0, 0.0, 0.0])
        proj = idempotent_of(p_vec)
        for comps in ([0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -2.0]):
            out = proj.apply(mink4.vector(comps))
            assert np.all(out.components == 0.0)


class TestLieMap:
    def test_zero_bivector(self, mink4):
        p = mink4.vector([1.0, 2.0, 0.0, 0.0])
        m = lie_map(SimpleBivector(p, 3.0 * p))
        assert np.all(m.entries == 0.0)

    def test_euclidean_rotation_generator(self, euclid2):
        m = lie_map(SimpleBivector(euclid2.vector([1.0, 0.0]),
                                   euclid2.vector([0.0, 0.6])))
        assert np.allclose(m.entries, [[0.0, 0.6], [-0.6, 0.0]])

    def test_lorentzian_boost_generator(self, mink2):
        m = lie_map(SimpleBivector(mink2.vector([1.0, 0.0]),
                                   mink2.vector([0.0, 0.75])))
        assert np.allclose(m.entries, [[0.0, 0.75], [0.75, 0.0]])

    def test_traceless_and_skew(self, split4):
        rng = np.random.default_rng(8)
        for _ in range(50):
            m = lie_map(SimpleBivector(split4.vector(rng.normal(size=4)),
                                       split4.vector(rng.normal(size=4)))).entries
            gm = split4.g @ m
            assert abs(np.trace(m)) < 1e-12
            assert np.max(np.abs(gm + gm.T)) < 1e-12


class TestPresentations:
    def test_identity_presentation(self, mink4):
        b = SimpleBivector(mink4.vector([1.0, 0.0, 0.0, 0.0]),
                           mink4.vector([1.25, 0.75, 0.0, 0.0]))
        same = represent_sl2(b, 1.0, 0.0, 0.0, 1.0)
        assert np.array_equal(same.first.components, b.first.components)
        assert np.array_equal(same.second.components, b.second.components)

    def test_shear_preserves_tensor(self, mink4):
        rng = np.random.default_rng(9)
        for _ in range(50):
            b = SimpleBivector(mink4.vector(rng.normal(size=4)),
                               mink4.vector(rng.normal(size=4)))
            lam = float(rng.normal())
            sheared = represent_sl2(b, 1.0, lam, 0.0, 1.0)
            assert np.allclose(sheared.components(), b.components(),
                               rtol=1e-12, atol=1e-12)

    def test_non_unimodular_rejected(self, mink4):
        b = SimpleBivector(mink4.vector([1.0, 0.0, 0.0, 0.0]),
                           mink4.vector([0.0, 1.0, 0.0, 0.0]))
        with pytest.raises(NotUnimodularError):
            represent_sl2(b, 2.0, 0.0, 0.0, 1.0)

    def test_orthogonalizing_shear(self, mink4):
        p = mink4.vector([1.0, 0.0, 0.0, 0.0])
        q = mink4.vector([1.25, 0.75, 0.0, 0.0])
        b = SimpleBivector(p, q)
        shear = -scalar_product(p, q) / p.square()
        sheared = represent_sl2(b, 1.0, 0.0, shear, 1.0)
        assert abs(scalar_product(sheared.first, sheared.second)) < 1e-12
        assert np.allclose(sheared.components(), b.components(), atol=1e-12)

    def test_orthogonal_presentation_fixture(self, mink4):
        p = mink4.vector([1.0, 0.0, 0.0, 0.0])
        q = mink4.vector([1.25, 0.75, 0.0, 0.0])
        w = orthogonal_presentation(SimpleBivector(p, q))
        assert np.allclose(w.second.components, [0.0, 0.75, 0.0, 0.0])
        assert abs(scalar_product(w.first, w.second)) < 1e-15

    def test_orthogonal_presentation_keeps_square(self, split4):
        rng = np.random.default_rng(10)
        done = 0
        while done < 50:
            p = split4.vector(rng.normal(size=4))
            if abs(p.square()) < 0.1:
                continue
            b = SimpleBivector(p, split4.vector(rng.normal(size=4)))
            ortho = orthogonal_presentation(b)
            assert bivector_product(ortho, ortho) == pytest.approx(
                bivector_product(b, b), rel=1e-10, abs=1e-12)
            assert ortho.square() == pytest.approx(
                ortho.first.square() * ortho.second.square(),
                rel=1e-10, abs=1e-10)
            done += 1

    def test_orthogonal_presentation_null_first_leg(self, mink4):
        n = mink4.vector([1.0, 1.0, 0.0, 0.0])
        with pytest.raises(NullVectorError):
            orthogonal_presentation(SimpleBivector(n, mink4.vector([0, 0, 1, 0.0])))


class TestBasisIndependence:
    def test_congruent_bases_agree(self):
        """The same geometry expressed in two bases gives the same scalars."""
        rng = np.random.default_rng(11)
        g = np.diag([-1.0, 1.0, 1.0, 1.0])
        sp = MetricSpace.from_metric(g)
        for _ in range(20):
            # Change of basis: new components x' = T^-1 x, new metric T^T g T.
            t = rng.normal(size=(4, 4)) + 4.0 * np.eye(4)
            sp2 = MetricSpace.from_metric(t.T @ g @ t)
            t_inv = np.linalg.inv(t)
            vecs = [rng.normal(size=4) for _ in range(4)]
            a, b, p, q = (sp.vector(v) for v in vecs)
            a2, b2, p2, q2 = (sp2.vector(t_inv @ v) for v in vecs)
            assert scalar_product(a, b) == pytest.approx(
                scalar_product(a2, b2), rel=1e-9, abs=1e-9)
            assert bivector_product(SimpleBivector(a, b), SimpleBivector(p, q)) \
                == pytest.approx(bivector_product(SimpleBivector(a2, b2),
                                                  SimpleBivector(p2, q2)),
                                 rel=1e-8, abs=1e-8)

    def test_trivector_planarity_witness(self, mink4):
        r = mink4.vector([1.0, 0.0, 0.0, 0.0])
        s = mink4.vector([1.25, 0.75, 0.0, 0.0])
        in_plane = 0.3 * r + 1.7 * s
        out_of_plane = mink4.vector([0.0, 0.0, 1.0, 0.0])
        assert trivector_maxabs(r, s, in_plane) < 1e-12
        assert trivector_maxabs(r, s, out_of_plane) > 0.1


class TestVectorArithmetic:
    def test_linear_ops(self, mink4):
        a = mink4.vector([1.0, 2.0, 3.0, 4.0])
        b = mink4.vector([0.5, 0.5, 0.5, 0.5])
        assert np.allclose((a + b).components, [1.5, 2.5, 3.5, 4.5])
        assert np.allclose((a - b).components, [0.5, 1.5, 2.5, 3.5])
        assert np.allclose((2.0 * a).components, (a * 2.0).components)
        assert np.allclose((-a).components, [-1.0, -2.0, -3.0, -4.0])

    def test_lower_and_raise_roundtrip(self, split4):
        rng = np.random.default_rng(12)
        v = split4.vector(rng.normal(size=4))
        back = v.lower().raise_index()
        assert np.allclose(back.components, v.components, atol=1e-12)

    def test_covector_application(self, mink4):
        v = mink4.vector([1.0, 2.0, 0.0, 0.0])
        alpha = v.lower()
        assert alpha.apply(v) == pytest.approx(v.square(), abs=1e-15)
