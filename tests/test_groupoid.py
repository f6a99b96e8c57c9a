import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from relkin import (
    NonFiniteError,
    NotComposableError,
    Observer,
    ObserverObject,
    SpaceMismatchError,
    VelocityMorphism,
    compare_with_isometric,
    compose,
    hom,
    scalar_product,
)
from relkin.sampling import random_observer, rng_for

GROUPOID_SCENARIO = Path(__file__).parent / "data" / "groupoid.json"


def obj(space, comps, label=""):
    return ObserverObject(Observer(space.vector(comps)), label)


class TestObserverObject:
    def test_equality_ignores_label(self, mink4):
        a = obj(mink4, [1.25, 0.75, 0.0, 0.0], "lab")
        b = obj(mink4, [1.25, 0.75, 0.0, 0.0], "probe")
        assert a == b

    def test_equality_is_numeric(self, mink4):
        a = obj(mink4, [1.25, 0.75, 0.0, 0.0])
        nudged = 0.75 + 1e-13
        b = ObserverObject(Observer(
            mink4.vector([np.sqrt(1.0 + nudged ** 2), nudged, 0.0, 0.0])))
        c = obj(mink4, [1.0, 0.0, 0.0, 0.0])
        assert a == b
        assert a != c

    def test_unhashable(self, mink4):
        a = obj(mink4, [1.0, 0.0, 0.0, 0.0])
        with pytest.raises(TypeError):
            hash(a)


class TestHom:
    def test_identity_morphism_is_zero(self, mink4):
        p = obj(mink4, [1.0, 0.0, 0.0, 0.0])
        z = hom(p, p)
        assert np.all(z.velocity.components == 0.0)
        assert z.source == z.target

    def test_fixture_velocity(self, mink4):
        p = obj(mink4, [1.0, 0.0, 0.0, 0.0])
        q = obj(mink4, [1.25, 0.75, 0.0, 0.0])
        h = hom(p, q)
        assert np.allclose(h.velocity.components, [0.0, 0.6, 0.0, 0.0],
                           atol=1e-12)

    def test_velocity_orthogonal_to_source(self, mink4):
        rng = rng_for(61)
        for _ in range(25):
            p = ObserverObject(random_observer(mink4, rng))
            q = ObserverObject(random_observer(mink4, rng))
            h = hom(p, q)
            assert abs(scalar_product(p.observer.vector, h.velocity)) < 1e-10

    def test_not_reciprocal(self, mink4):
        p = obj(mink4, [1.0, 0.0, 0.0, 0.0])
        q = obj(mink4, [1.25, 0.75, 0.0, 0.0])
        fwd = hom(p, q).velocity.components
        back = hom(q, p).velocity.components
        assert np.max(np.abs(fwd + back)) > 0.1

    def test_morphism_subluminal(self, mink4):
        rng = rng_for(62)
        for _ in range(50):
            p = ObserverObject(random_observer(mink4, rng, max_rapidity=3.0))
            q = ObserverObject(random_observer(mink4, rng, max_rapidity=3.0))
            c = float(rng.uniform(0.5, 3.0))
            h = hom(p, q, c)
            speed = float(np.sqrt(max(h.velocity.square(), 0.0)))
            assert speed < c * (1.0 + 1e-12)

    def test_deterministic_bits(self, mink4):
        p = obj(mink4, [1.25, 0.0, 0.75, 0.0])
        q = obj(mink4, [1.25, 0.75, 0.0, 0.0])
        a = hom(p, q, 2.0).velocity.components
        b = hom(p, q, 2.0).velocity.components
        assert np.all(a == b)


class TestCompose:
    def test_endpoint_mismatch_rejected(self, mink4):
        p = obj(mink4, [1.0, 0.0, 0.0, 0.0])
        q = obj(mink4, [1.25, 0.75, 0.0, 0.0])
        r = obj(mink4, [1.25, 0.0, 0.75, 0.0])
        with pytest.raises(NotComposableError):
            compose(hom(p, q), hom(q, r))

    def test_c_mismatch_rejected(self, mink4):
        p = obj(mink4, [1.0, 0.0, 0.0, 0.0])
        q = obj(mink4, [1.25, 0.75, 0.0, 0.0])
        r = obj(mink4, [1.25, 0.0, 0.75, 0.0])
        with pytest.raises(NotComposableError):
            compose(hom(q, r, 2.0), hom(p, q, 1.0))

    def test_identity_laws(self, mink4):
        p = obj(mink4, [1.0, 0.0, 0.0, 0.0])
        q = obj(mink4, [1.25, 0.75, 0.0, 0.0])
        h = hom(p, q)
        assert compose(hom(q, q), h).same_arrow(h)
        assert compose(h, hom(p, p)).same_arrow(h)

    def test_inverse_law(self, mink4):
        p = obj(mink4, [1.0, 0.0, 0.0, 0.0])
        q = obj(mink4, [1.25, 0.75, 0.0, 0.0])
        loop = compose(hom(q, p), hom(p, q))
        assert np.all(loop.velocity.components == 0.0)
        assert loop.source == p and loop.target == p

    def test_composition_matches_direct_hom(self, mink4):
        rng = rng_for(63)
        for _ in range(25):
            p = ObserverObject(random_observer(mink4, rng))
            q = ObserverObject(random_observer(mink4, rng))
            r = ObserverObject(random_observer(mink4, rng))
            chained = compose(hom(q, r), hom(p, q))
            direct = hom(p, r)
            assert np.all(chained.velocity.components
                          == direct.velocity.components)

    def test_associative_on_long_chains(self, mink4):
        rng = rng_for(64)
        for _ in range(10):
            n = int(rng.integers(4, 9))
            nodes = [ObserverObject(random_observer(mink4, rng))
                     for _ in range(n)]
            arrows = [hom(nodes[i], nodes[i + 1]) for i in range(n - 1)]
            left = arrows[0]
            for a in arrows[1:]:
                left = compose(a, left)
            right = arrows[-1]
            for a in reversed(arrows[:-1]):
                right = compose(right, a)
            assert left.same_arrow(right)
            assert np.all(left.velocity.components
                          == right.velocity.components)


class TestCompareWithIsometric:
    def test_coincident_observers_all_zero(self, mink4):
        p = obj(mink4, [1.0, 0.0, 0.0, 0.0])
        report = compare_with_isometric(p, p, p, 1.0)
        assert report["groupoid_discrepancy"] == 0.0
        assert report["order_discrepancy"] == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(report["chain"], 0.0)

    def test_collinear_boosts_agree(self, mink4):
        p = obj(mink4, [1.0, 0.0, 0.0, 0.0])
        q = obj(mink4, [1.25, 0.75, 0.0, 0.0])
        r = obj(mink4, [np.cosh(1.2), np.sinh(1.2), 0.0, 0.0])
        report = compare_with_isometric(p, q, r, 1.0)
        assert report["groupoid_discrepancy"] == 0.0
        assert report["order_discrepancy"] < 1e-12
        assert report["forward_vs_direct"] < 1e-12

    def test_orthogonal_triple_splits_the_two_accounts(self, mink4):
        p = obj(mink4, [1.0, 0.0, 0.0, 0.0])
        q = obj(mink4, [1.25, 0.75, 0.0, 0.0])
        r = obj(mink4, [1.25, 0.0, 0.75, 0.0])
        report = compare_with_isometric(p, q, r, 1.0)
        assert report["groupoid_discrepancy"] == 0.0
        assert report["order_discrepancy"] > 0.005

    def test_chain_equals_direct_hom_in_report(self, mink4):
        rng = rng_for(65)
        p = ObserverObject(random_observer(mink4, rng))
        q = ObserverObject(random_observer(mink4, rng))
        r = ObserverObject(random_observer(mink4, rng))
        report = compare_with_isometric(p, q, r, 1.0)
        assert report["chain"] == report["hom_pr"]
        for key in ("hom_pq", "hom_qr", "hom_pr", "chain", "leg_pq", "leg_qr",
                    "direct", "sum_forward", "sum_reverse"):
            assert len(report[key]) == 4

    def test_forward_sum_tracks_direct_hom(self, mink4):
        """The leg-wise isometric sum lands on the direct morphism velocity."""
        rng = rng_for(66)
        for _ in range(10):
            p = ObserverObject(random_observer(mink4, rng))
            q = ObserverObject(random_observer(mink4, rng))
            r = ObserverObject(random_observer(mink4, rng))
            report = compare_with_isometric(p, q, r, 1.0)
            assert report["forward_vs_direct"] < 1e-9


class TestSpeedOfLight:
    """hom and the comparison refuse c as a Velocity3 does: a c that is not
    positive first, then one that is not finite."""

    @pytest.mark.parametrize("c", [0.0, -1.0, -np.inf])
    def test_non_positive_c_is_refused(self, mink4, c):
        p = obj(mink4, [1.0, 0.0, 0.0, 0.0])
        q = obj(mink4, [1.25, 0.75, 0.0, 0.0])
        for call in (lambda: hom(p, q, c), lambda: compare_with_isometric(p, q, p, c)):
            with pytest.raises(SpaceMismatchError, match="^c must be positive$"):
                call()

    @pytest.mark.parametrize("c", [np.nan, np.inf])
    def test_non_finite_c_is_refused(self, mink4, c):
        p = obj(mink4, [1.0, 0.0, 0.0, 0.0])
        q = obj(mink4, [1.25, 0.75, 0.0, 0.0])
        for call in (lambda: hom(p, q, c), lambda: compare_with_isometric(p, q, p, c)):
            with pytest.raises(NonFiniteError, match=f"^c = {c!r} is not finite$"):
                call()

    def test_valid_c_scales_the_velocity(self, mink4):
        p = obj(mink4, [1.0, 0.0, 0.0, 0.0])
        q = obj(mink4, [1.25, 0.75, 0.0, 0.0])
        assert np.array_equal(hom(p, q, 2.0).velocity.components,
                              2.0 * hom(p, q).velocity.components)

    @pytest.mark.parametrize("c, error, message", [
        ("inf", "NonFinite", "c = inf is not finite"),
        ("nan", "NonFinite", "c = nan is not finite"),
        ("-1", "SpaceMismatch", "c must be positive"),
        ("0", "SpaceMismatch", "c must be positive"),
    ])
    def test_command_line_exits_two(self, c, error, message):
        proc = subprocess.run([sys.executable, "-m", "relkin.cli", "groupoid",
                               "--scenario", str(GROUPOID_SCENARIO), "--c", c],
                              capture_output=True, text=True)
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert [json.loads(line) for line in proc.stdout.splitlines()] == [
            {"type": "error", "error": error, "message": message}]
        assert proc.stderr == ""
