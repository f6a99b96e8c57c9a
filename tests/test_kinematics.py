import numpy as np
import pytest

from relkin import (
    EventCoordinates,
    DegenerateDenominatorError,
    DegenerateEpochError,
    LinkProblem,
    NotFutureDirectedError,
    NotObservedError,
    NotUnitTimelikeError,
    Observer,
    PreferredObserverMismatchError,
    SimpleBivector,
    SuperluminalError,
    Velocity3,
    acceleration_transform,
    boost,
    coordinate_transform,
    einstein_transform,
    event_coordinates,
    event_vector,
    gamma,
    isometry_from_bivector,
    negate,
    scalar_product,
    ternary_velocity,
    urbantke_velocity,
    velocity_add,
    velocity_subtract,
)
from relkin.sampling import random_observed_velocity, random_observer, rng_for


class TestObserver:
    def test_distinct_observers_are_still_compared(self, mink4):
        """An observer agrees with itself; distinct observers are compared
        by their components, so a pair that disagrees is still refused."""
        rest = Observer(mink4.vector([1.0, 0.0, 0.0, 0.0]))
        twin = Observer(mink4.vector([1.0, 0.0, 0.0, 0.0]))
        moving = Observer(mink4.vector([1.25, 0.0, 0.75, 0.0]))
        assert rest.agrees_with(rest) and rest.agrees_with(twin)
        assert not rest.agrees_with(moving)
        u = Velocity3(mink4.vector([0.0, 0.5, 0.0, 0.0]), rest, 1.0)
        v = Velocity3(mink4.vector([0.0, 0.6, 0.0, 0.0]), twin, 1.0)
        w = Velocity3(mink4.vector([0.0, 0.6, 0.0, 0.0]), moving, 1.0)
        a = mink4.vector([0.0, 0.0, 1.0, 0.0])
        velocity_add(u, v)  # distinct observers that agree
        for first, second in ((u, w), (w, u)):
            with pytest.raises(PreferredObserverMismatchError):
                velocity_add(first, second)
            with pytest.raises(PreferredObserverMismatchError):
                velocity_subtract(first, second)
            with pytest.raises(PreferredObserverMismatchError):
                acceleration_transform(first, second, a)

    def test_non_unit_rejected(self, mink4):
        with pytest.raises(NotUnitTimelikeError):
            Observer(mink4.vector([2.0, 0.0, 0.0, 0.0]))

    def test_past_directed_rejected(self, mink4):
        with pytest.raises(NotFutureDirectedError):
            Observer(mink4.vector([-1.0, 0.0, 0.0, 0.0]))

    def test_spacelike_rejected(self, mink4):
        with pytest.raises(NotUnitTimelikeError):
            Observer(mink4.vector([0.0, 1.0, 0.0, 0.0]))

    def test_rest_projection(self, mink4):
        obs = Observer(mink4.vector([1.0, 0.0, 0.0, 0.0]))
        e = mink4.vector([3.0, 1.0, 2.0, -1.0])
        x = obs.rest_projection(e)
        assert np.allclose(x.components, [0.0, 1.0, 2.0, -1.0])
        assert abs(scalar_product(obs.vector, x)) < 1e-15


class TestVelocity3:
    def test_not_observed_rejected(self, mink4):
        obs = Observer(mink4.vector([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(NotObservedError):
            Velocity3(mink4.vector([0.5, 0.6, 0.0, 0.0]), obs, 1.0)

    def test_superluminal_rejected(self, mink4):
        obs = Observer(mink4.vector([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(SuperluminalError):
            Velocity3(mink4.vector([0.0, 1.5, 0.0, 0.0]), obs, 1.0)

    def test_luminal_flag_requires_speed_c(self, mink4):
        obs = Observer(mink4.vector([1.0, 0.0, 0.0, 0.0]))
        ray = Velocity3(mink4.vector([0.0, 1.0, 0.0, 0.0]), obs, 1.0,
                        luminal=True)
        assert ray.speed() == pytest.approx(1.0)
        with pytest.raises(SuperluminalError):
            Velocity3(mink4.vector([0.0, 0.5, 0.0, 0.0]), obs, 1.0,
                      luminal=True)

    def test_gamma_values(self, mink4):
        obs = Observer(mink4.vector([1.0, 0.0, 0.0, 0.0]))
        zero = Velocity3(mink4.vector([0.0, 0.0, 0.0, 0.0]), obs, 1.0)
        assert gamma(zero) == 1.0
        sixty = Velocity3(mink4.vector([0.0, 0.6, 0.0, 0.0]), obs, 1.0)
        g = gamma(sixty)
        assert g == pytest.approx(1.25, abs=1e-14)
        vbar = g * sixty.vector
        assert vbar.square() == pytest.approx(g * g - 1.0, abs=1e-12)


class TestBoost:
    def test_zero_velocity_is_identity(self, mink4):
        obs = Observer(mink4.vector([1.0, 0.0, 0.0, 0.0]))
        zero = Velocity3(mink4.vector([0.0, 0.0, 0.0, 0.0]), obs, 1.0)
        assert np.allclose(boost(obs, zero).mapping.entries, np.eye(4))

    def test_action_on_observer(self, mink4):
        obs = Observer(mink4.vector([1.0, 0.0, 0.0, 0.0]))
        v = Velocity3(mink4.vector([0.0, 0.6, 0.0, 0.0]), obs, 1.0)
        moved = boost(obs, v).apply(obs.vector)
        assert np.allclose(moved.components, [1.25, 0.75, 0.0, 0.0], atol=1e-14)

    def test_covector_form_matches(self, mink4):
        """id - P(x)nu - vbar(x)xi with the two displayed covectors."""
        rng = rng_for(41)
        for _ in range(25):
            obs = random_observer(mink4, rng)
            c = float(rng.uniform(0.5, 3.0))
            v = random_observed_velocity(obs, rng, c)
            g = gamma(v)
            vbar = (g / c) * v.vector
            gp = mink4.g @ obs.vector.components
            gvbar = mink4.g @ vbar.components
            nu = (g - 1.0) * gp - gvbar
            xi = gp - gvbar / (g + 1.0)
            built = (np.eye(4) - np.outer(obs.vector.components, nu)
                     - np.outer(vbar.components, xi))
            assert np.max(np.abs(built - boost(obs, v).mapping.entries)) < 1e-10

    def test_agrees_with_generator_construction(self, mink4):
        rng = rng_for(42)
        for _ in range(25):
            obs = random_observer(mink4, rng)
            c = float(rng.uniform(0.5, 3.0))
            v = random_observed_velocity(obs, rng, c)
            vbar = (gamma(v) / c) * v.vector
            direct = isometry_from_bivector(SimpleBivector(obs.vector, vbar))
            assert boost(obs, v).distance(direct) < 1e-9

    def test_reciprocity(self, mink4):
        rng = rng_for(43)
        for _ in range(25):
            obs = random_observer(mink4, rng)
            v = random_observed_velocity(obs, rng, 1.0)
            product = (boost(obs, v).mapping
                       @ boost(obs, negate(v)).mapping).entries
            assert np.max(np.abs(product - np.eye(4))) < 1e-10

    def test_rejects_unobserved_velocity(self, mink4):
        obs = Observer(mink4.vector([1.25, 0.75, 0.0, 0.0]))
        with pytest.raises(NotObservedError):
            boost(obs, Velocity3(mink4.vector([0.0, 0.6, 0.0, 0.0]),
                                 Observer(mink4.vector([1.0, 0.0, 0.0, 0.0])),
                                 1.0))


class TestCoordinateTransform:
    def test_zero_velocity_fixes_coordinates(self, mink4):
        obs = Observer(mink4.vector([1.0, 0.0, 0.0, 0.0]))
        zero = Velocity3(mink4.vector([0.0, 0.0, 0.0, 0.0]), obs, 1.0)
        e = mink4.vector([2.0, 1.0, -1.0, 0.5])
        res = coordinate_transform(obs, obs, zero, e)
        coords = event_coordinates(obs, e, 1.0)
        assert res.t_prime == pytest.approx(coords.t, abs=1e-14)
        assert np.allclose(res.x_prime.components, coords.x.components)

    def test_golden_event(self, mink4):
        obs = Observer(mink4.vector([1.0, 0.0, 0.0, 0.0]))
        v = Velocity3(mink4.vector([0.0, 0.6, 0.0, 0.0]), obs, 1.0)
        e = event_vector(obs, EventCoordinates(1.0, mink4.vector([0, 1, 0, 0.0])),
                         1.0)
        res = coordinate_transform(obs, obs, v, e)
        assert res.t_prime == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(res.x_prime.components, [0.0, 0.5, 0.0, 0.0],
                           atol=1e-12)
        assert abs(scalar_product(obs.vector, res.x_prime)) < 1e-12

    def test_scalar_triple_reported(self, mink4):
        rng = rng_for(44)
        robs = random_observer(mink4, rng)
        pobs = random_observer(mink4, rng)
        v = random_observed_velocity(pobs, rng, 1.0)
        e = mink4.vector(rng.normal(size=4))
        res = coordinate_transform(robs, pobs, v, e)
        p_dot_r, r_dot_v, p_dot_x = res.scalars
        assert p_dot_r == pytest.approx(
            scalar_product(pobs.vector, robs.vector), rel=1e-12)
        assert r_dot_v == pytest.approx(
            scalar_product(robs.vector, v.vector), rel=1e-12, abs=1e-12)
        x = robs.rest_projection(e)
        assert p_dot_x == pytest.approx(
            scalar_product(pobs.vector, x), rel=1e-12, abs=1e-12)

    def test_interval_preserved_generic_observers(self, mink4):
        rng = rng_for(45)
        for _ in range(25):
            robs = random_observer(mink4, rng)
            pobs = random_observer(mink4, rng)
            c = float(rng.uniform(0.5, 3.0))
            v = random_observed_velocity(pobs, rng, c)
            e = mink4.vector(rng.normal(size=4))
            res = coordinate_transform(robs, pobs, v, e)
            coords = event_coordinates(robs, e, c)
            before = -(c * coords.t) ** 2 * 1.0 + coords.x.square()
            after = -(c * res.t_prime) ** 2 + res.x_prime.square()
            assert after == pytest.approx(before, rel=1e-9, abs=1e-9)

    def test_galilean_time_agreement_scales_inverse_square(self, mink4):
        gaps = []
        for c in (10.0, 100.0, 1000.0):
            obs = Observer(mink4.vector([1.0, 0.0, 0.0, 0.0]))
            v = Velocity3(mink4.vector([0.0, 0.6, 0.0, 0.0]), obs, c)
            e = event_vector(obs, EventCoordinates(1.0,
                                                   mink4.vector([0, 1, 0, 0.0])),
                             c)
            res = coordinate_transform(obs, obs, v, e)
            gaps.append(abs(res.t_prime - 1.0))
        assert gaps[0] / gaps[1] == pytest.approx(100.0, rel=0.05)
        assert gaps[1] / gaps[2] == pytest.approx(100.0, rel=0.05)


class TestEinsteinTransform:
    def test_matches_general_transform(self, mink4):
        rng = rng_for(46)
        for _ in range(25):
            obs = random_observer(mink4, rng)
            c = float(rng.uniform(0.5, 3.0))
            v = random_observed_velocity(obs, rng, c)
            e = mink4.vector(rng.normal(size=4))
            res = coordinate_transform(obs, obs, v, e)
            t_e, x_e = einstein_transform(obs, v, e)
            assert res.t_prime == pytest.approx(t_e, rel=1e-10, abs=1e-12)
            assert np.allclose(res.x_prime.components, x_e.components,
                               rtol=1e-10, atol=1e-12)

    def test_transverse_zero_time_event_unchanged(self, mink4):
        obs = Observer(mink4.vector([1.0, 0.0, 0.0, 0.0]))
        v = Velocity3(mink4.vector([0.0, 0.6, 0.0, 0.0]), obs, 1.0)
        e = event_vector(obs, EventCoordinates(0.0,
                                               mink4.vector([0, 0, 2, 1.0])),
                         1.0)
        t_e, x_e = einstein_transform(obs, v, e)
        assert t_e == pytest.approx(0.0, abs=1e-14)
        assert np.allclose(x_e.components, [0.0, 0.0, 2.0, 1.0], atol=1e-14)

    def test_round_trip_with_reversed_velocity(self, mink4):
        rng = rng_for(47)
        obs = Observer(mink4.vector([1.0, 0.0, 0.0, 0.0]))
        for _ in range(25):
            v = random_observed_velocity(obs, rng, 1.0)
            e = mink4.vector(rng.normal(size=4))
            t1, x1 = einstein_transform(obs, v, e)
            back = event_vector(obs, EventCoordinates(t1, x1), 1.0)
            t2, x2 = einstein_transform(obs, negate(v), back)
            coords = event_coordinates(obs, e, 1.0)
            assert t2 == pytest.approx(coords.t, rel=1e-12, abs=1e-12)
            assert np.allclose(x2.components, coords.x.components, atol=1e-11)


class TestUrbantke:
    def test_unmoved_event_gives_zero(self, mink4):
        x = mink4.vector([0.0, 1.0, 0.0, 0.0])
        v = urbantke_velocity(1.0, x, 1.0, x, 1.0)
        assert np.all(v.components == 0.0)

    def test_golden_values(self, mink4):
        x = mink4.vector([0.0, 1.0, 0.0, 0.0])
        x_prime = mink4.vector([0.0, 0.5, 0.0, 0.0])
        v = urbantke_velocity(1.0, x, 0.5, x_prime, 1.0)
        assert np.allclose(v.components, [0.0, 0.6, 0.0, 0.0], atol=1e-12)
        speed = float(np.sqrt(v.square()))
        assert 1.0 / np.sqrt(1.0 - speed ** 2) == pytest.approx(1.25, abs=1e-12)

    def test_degenerate_epoch_rejected(self, mink4):
        x = mink4.vector([0.0, 1.0, 0.0, 0.0])
        with pytest.raises(DegenerateEpochError):
            urbantke_velocity(1.0, x, -1.0, x, 1.0)

    def test_recovers_random_transform_inputs(self, mink4):
        rng = rng_for(48)
        obs = Observer(mink4.vector([1.0, 0.0, 0.0, 0.0]))
        for _ in range(25):
            c = float(rng.uniform(0.5, 3.0))
            v = random_observed_velocity(obs, rng, c)
            e = mink4.vector(rng.normal(size=4))
            coords = event_coordinates(obs, e, c)
            t_e, x_e = einstein_transform(obs, v, e)
            if abs(coords.t + t_e) < 1e-2:
                continue
            got = urbantke_velocity(coords.t, coords.x, t_e, x_e, c)
            assert np.allclose(got.components, v.vector.components,
                               rtol=1e-9, atol=1e-9)

    def test_galilean_limit_is_difference_quotient(self, mink4):
        x = mink4.vector([0.0, 1.0, 0.0, 0.0])
        x_prime = mink4.vector([0.0, 0.4, 0.0, 0.0])
        v = urbantke_velocity(1.0, x, 1.0, x_prime, 1e6)
        assert np.allclose(v.components, [0.0, 0.6, 0.0, 0.0], atol=1e-10)


class TestVelocityAdd:
    def test_zero_cases(self, mink4):
        obs = Observer(mink4.vector([1.0, 0.0, 0.0, 0.0]))
        u = Velocity3(mink4.vector([0.0, 0.5, 0.2, 0.0]), obs, 1.0)
        zero = Velocity3(mink4.vector([0.0, 0.0, 0.0, 0.0]), obs, 1.0)
        cancel = velocity_add(u, negate(u))
        assert np.max(np.abs(cancel.vector.components)) < 1e-14
        kept = velocity_add(u, zero)
        assert np.allclose(kept.vector.components, u.vector.components,
                           atol=1e-14)

    def test_collinear_golden(self, mink4):
        obs = Observer(mink4.vector([1.0, 0.0, 0.0, 0.0]))
        u = Velocity3(mink4.vector([0.0, 0.5, 0.0, 0.0]), obs, 1.0)
        v = Velocity3(mink4.vector([0.0, 0.3, 0.0, 0.0]), obs, 1.0)
        w = velocity_add(u, v)
        assert w.vector.components[1] == pytest.approx(0.8 / 1.15, abs=1e-12)

    def test_coplanarity(self, mink4):
        from relkin import trivector_maxabs
        rng = rng_for(49)
        obs = Observer(mink4.vector([1.0, 0.0, 0.0, 0.0]))
        for _ in range(25):
            u = random_observed_velocity(obs, rng, 1.0)
            v = random_observed_velocity(obs, rng, 1.0)
            w = velocity_add(u, v)
            assert trivector_maxabs(w.vector, u.vector, v.vector) < 1e-10

    def test_four_velocity_oracle(self, mink4):
        """Push the first operand's world-velocity through the second's boost."""
        rng = rng_for(50)
        for _ in range(40):
            obs = random_observer(mink4, rng)
            c = float(rng.uniform(0.5, 3.0))
            u = random_observed_velocity(obs, rng, c)
            v = random_observed_velocity(obs, rng, c)
            four_u = gamma(u) * (obs.vector + (1.0 / c) * u.vector)
            pushed = boost(obs, v).apply(four_u)
            time_part = -scalar_product(obs.vector, pushed)
            spatial = obs.rest_projection(pushed)
            expected = (c / time_part) * spatial
            got = velocity_add(u, v)
            assert np.allclose(got.vector.components, expected.components,
                               rtol=1e-9, atol=1e-10)

    def test_luminal_closure(self, mink4):
        obs = Observer(mink4.vector([1.0, 0.0, 0.0, 0.0]))
        ray = Velocity3(mink4.vector([0.0, 1.0, 0.0, 0.0]), obs, 1.0,
                        luminal=True)
        v = Velocity3(mink4.vector([0.0, 0.0, 0.7, 0.0]), obs, 1.0)
        total = velocity_add(ray, v)
        assert total.luminal
        assert total.speed() == pytest.approx(1.0, abs=1e-12)

    def test_mismatched_observers_rejected(self, mink4):
        rest_obs = Observer(mink4.vector([1.0, 0.0, 0.0, 0.0]))
        moving = Observer(mink4.vector([1.25, 0.0, 0.75, 0.0]))
        u = Velocity3(mink4.vector([0.0, 0.5, 0.0, 0.0]), rest_obs, 1.0)
        v = Velocity3(mink4.vector([0.0, 0.6, 0.0, 0.0]), moving,
                      1.0)
        with pytest.raises(PreferredObserverMismatchError):
            velocity_add(u, v)


class TestVelocitySubtract:
    def test_equal_inputs_give_zero(self, mink4):
        obs = Observer(mink4.vector([1.0, 0.0, 0.0, 0.0]))
        u = Velocity3(mink4.vector([0.0, 0.5, 0.1, 0.0]), obs, 1.0)
        out = velocity_subtract(u, u)
        assert np.max(np.abs(out.vector.components)) < 1e-12

    def test_collinear_inversion_golden(self, mink4):
        obs = Observer(mink4.vector([1.0, 0.0, 0.0, 0.0]))
        u = Velocity3(mink4.vector([0.0, 0.5, 0.0, 0.0]), obs, 1.0)
        w = Velocity3(mink4.vector([0.0, 0.8 / 1.15, 0.0, 0.0]), obs, 1.0)
        v = velocity_subtract(u, w)
        assert np.allclose(v.vector.components, [0.0, -0.3, 0.0, 0.0],
                           atol=1e-10)
        assert gamma(v) == pytest.approx(10.0 / np.sqrt(91.0), abs=1e-12)

    def test_round_trip_with_addition(self, mink4):
        rng = rng_for(51)
        obs = Observer(mink4.vector([1.0, 0.0, 0.0, 0.0]))
        for _ in range(40):
            c = float(rng.uniform(0.5, 3.0))
            u = random_observed_velocity(obs, rng, c)
            v = random_observed_velocity(obs, rng, c)
            w = velocity_add(u, negate(v))
            back = velocity_subtract(u, w)
            assert np.allclose(back.vector.components, v.vector.components,
                               rtol=1e-8, atol=1e-9)
            assert gamma(back) == pytest.approx(gamma(v), rel=1e-9)


class TestAccelerationTransform:
    def test_zero_velocity_keeps_acceleration(self, mink4):
        obs = Observer(mink4.vector([1.0, 0.0, 0.0, 0.0]))
        zero = Velocity3(mink4.vector([0.0, 0.0, 0.0, 0.0]), obs, 1.0)
        a = mink4.vector([0.0, 1.0, -2.0, 0.5])
        out = acceleration_transform(zero, zero, a)
        assert np.allclose(out.components, a.components, atol=1e-14)

    def test_collinear_golden(self, mink4):
        obs = Observer(mink4.vector([1.0, 0.0, 0.0, 0.0]))
        v = Velocity3(mink4.vector([0.0, 0.6, 0.0, 0.0]), obs, 1.0)
        zero = Velocity3(mink4.vector([0.0, 0.0, 0.0, 0.0]), obs, 1.0)
        out = acceleration_transform(v, zero, mink4.vector([0.0, 1.0, 0.0, 0.0]))
        assert np.allclose(out.components, [0.0, 0.512, 0.0, 0.0], atol=1e-12)

    def test_collinear_cubic_reduction(self, mink4):
        obs = Observer(mink4.vector([1.0, 0.0, 0.0, 0.0]))
        rng = rng_for(52)
        for _ in range(25):
            beta_v, beta_u = rng.uniform(-0.8, 0.8, size=2)
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            v = Velocity3(mink4.vector(np.concatenate(([0.0], beta_v * axis))),
                          obs, 1.0)
            u = Velocity3(mink4.vector(np.concatenate(([0.0], beta_u * axis))),
                          obs, 1.0)
            a = mink4.vector(np.concatenate(([0.0], float(rng.normal()) * axis)))
            out = acceleration_transform(v, u, a)
            g = gamma(v)
            factor = g ** 3 * (1.0 - scalar_product(v.vector, u.vector)) ** 3
            assert np.allclose(factor * out.components, a.components,
                               rtol=1e-9, atol=1e-10)

    def test_numeric_worldline_oracle(self, mink4):
        """Differentiate transformed worldline coordinates numerically."""
        rng = rng_for(53)
        obs = Observer(mink4.vector([1.0, 0.0, 0.0, 0.0]))
        for _ in range(10):
            c = 1.0
            v = random_observed_velocity(obs, rng, c, beta_max=0.6)
            u = random_observed_velocity(obs, rng, c, beta_max=0.5)
            a = obs.rest_projection(mink4.vector(rng.normal(size=4)))
            h = 1e-3
            ts = np.array([-2 * h, -h, 0.0, h, 2 * h])
            t_p, x_p = [], []
            for t in ts:
                x_t = (t * u.vector + (0.5 * t * t) * a)
                e = event_vector(obs, EventCoordinates(t, x_t), c)
                tp, xp = einstein_transform(obs, v, e)
                t_p.append(tp)
                x_p.append(xp.components)
            t_p = np.array(t_p)
            x_p = np.array(x_p)
            numeric = np.array([2.0 * np.polyfit(t_p, x_p[:, k], 2)[0]
                                for k in range(4)])
            closed = acceleration_transform(v, u, a).components
            assert np.allclose(numeric, closed, rtol=2e-4, atol=2e-4)

    def test_degenerate_denominator_rejected(self, mink4):
        obs = Observer(mink4.vector([1.0, 0.0, 0.0, 0.0]))
        v = Velocity3(mink4.vector([0.0, 1.0 - 5e-10, 0.0, 0.0]), obs, 1.0)
        u = Velocity3(mink4.vector([0.0, 1.0, 0.0, 0.0]), obs, 1.0,
                      luminal=True)
        a = mink4.vector([0.0, 1.0, 0.0, 0.0])
        with pytest.raises(DegenerateDenominatorError):
            acceleration_transform(v, u, a)


class TestTernaryPermutations:
    def test_endpoint_swap_negates(self, golden):
        _, r, s = golden
        fwd = ternary_velocity(LinkProblem(r, s, r))
        back = ternary_velocity(LinkProblem(s, r, r))
        assert np.allclose(fwd.components, -back.components, atol=1e-12)

    def test_target_ray_is_its_own_swap_negation(self, golden):
        _, r, s = golden
        fwd = ternary_velocity(LinkProblem(r, s, s))
        back = ternary_velocity(LinkProblem(s, r, s))
        assert np.allclose(fwd.components, -back.components, atol=1e-12)

    def test_ray_choice_changes_the_velocity(self, golden):
        """The target-ray velocity is not the negated source-ray velocity."""
        _, r, s = golden
        with_target_ray = ternary_velocity(LinkProblem(r, s, s))
        with_source_ray = ternary_velocity(LinkProblem(s, r, r))
        assert np.max(np.abs(with_target_ray.components
                             + with_source_ray.components)) > 0.05
