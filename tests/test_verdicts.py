"""Every result is verified by the library call that makes it.

boost, coordinate_transform, velocity_add, acceleration_transform and
compare_with_isometric refuse a result beyond its bound, so the CLI reports
their records without judging them: an input beyond a bound exits 3 (or 2
for a domain error), and only ``check`` exits 1.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from relkin import (
    Endomorphism,
    InternalConsistencyError,
    Isometry,
    LinkAdmissibility,
    LinkProblem,
    MetricSpace,
    NonFiniteError,
    NotObservedError,
    Observer,
    ObserverObject,
    RelkinError,
    SpaceMismatchError,
    SuperluminalError,
    TransformResult,
    Velocity3,
    acceleration_transform,
    admissibility,
    boost,
    cli,
    compare_with_isometric,
    coordinate_transform,
    einstein_transform,
    errors,
    groupoid,
    kinematics,
    negate,
    p_link,
    planar_link,
    velocity_add,
    verified_boost,
)
from relkin.sampling import make_space, random_observer, rng_for

REST = [1.0, 0.0, 0.0, 0.0]
# Just below c: the boost's L L(-v) = id residual is 6.7e-7, beyond 1e2 tol_rel.
NEAR_C = [0.0, 0.9999999999, 0.0, 0.0]
# A fast observer: L P = gamma (P + v/c) misses 1e2 tol_rel at tol_rel 1e-10
# (residual 3.7e-8 against 1.25e-8), while the isometry law still holds.
FAST = [math.cosh(8.0), math.sinh(8.0), 0.0, 0.0]
ACROSS = [0.0, 0.0, 0.6, 0.0]
# A near-null event of size 1e6: the primed interval loses 9e-5 to rounding.
BIG_EVENT = {"R": REST, "P": REST, "v": [0.0, 0.6, 0.1, 0.0],
             "e": [1e6, 1e6, 0.5, 0.0]}
# v is orthogonal to P, and R.v = -1e-11 lies beyond tol_abs = 1e-12.
CHI = 2e-11
SKEW = {"R": REST, "P": [math.cosh(CHI), math.sinh(CHI), 0.0, 0.0],
        "v": [0.5 * math.sinh(CHI), 0.5 * math.cosh(CHI), 0.0, 0.0],
        "e": [1.0, 1.0, 0.0, 0.0]}
# Overflows in a': (v.a / (c^2 - v.u)) (u - ...) is finite, the quotient is not.
OVERFLOW = {"P": REST, "v": [0.0, 0.6, 0.0, 0.0], "u": [0.0, 0.9, 0.0, 0.0],
            "a": [0.0, 1e308, 0.0, 0.0]}
TRIANGLE = {"A": REST, "B": [1.25, 0.75, 0.0, 0.0], "C": [1.25, 0.0, 0.75, 0.0]}
# The golden link problem at 1e100 and the golden event at 1e160, where the
# bounds' squares used to raise OverflowError.
BIG_LINK = {"R": [1e100, 0.0, 0.0, 0.0], "S": [1.25e100, 0.75e100, 0.0, 0.0],
            "P": [1.1, 0.2, 0.5, 0.0]}
BIG_TRANSFORM = {"R": REST, "P": REST, "v": [0.0, 0.6, 0.0, 0.0],
                 "e": [1e160, 1e160, 0.0, 0.0]}


def space(tol_rel=1e-9):
    return MetricSpace.from_metric(np.diag([-1.0, 1.0, 1.0, 1.0]), tol_rel=tol_rel)


def observed(sp, p, v, c=1.0, luminal=False):
    obs = Observer(sp.vector(p))
    return obs, Velocity3(sp.vector(v), obs, c, luminal=luminal)


def run_cli(tmp_path, command, vectors, *flags, params=None):
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps({
        "name": "edge", "command": command,
        "metric": {"dim": 4, "signature": "lorentzian"},
        "vectors": vectors, "params": params or {"c": 1.0}}))
    proc = subprocess.run([sys.executable, "-m", "relkin.cli", command,
                           "--scenario", str(path), *flags],
                          capture_output=True, text=True)
    return proc.returncode, [json.loads(line) for line in proc.stdout.splitlines()]


class TestBoost:
    def test_near_c_misses_the_inverse_bound(self):
        with pytest.raises(InternalConsistencyError, match=r"L L\(-v\) = id"):
            boost(*observed(space(), REST, NEAR_C))

    def test_fast_observer_misses_the_observer_map_bound(self):
        with pytest.raises(InternalConsistencyError, match=r"L P = gamma"):
            boost(*observed(space(1e-10), FAST, ACROSS))

    def test_residuals_of_the_golden_boost(self):
        obs, v = observed(space(), REST, [0.0, 0.6, 0.0, 0.0])
        op, observer_residual, inverse_residual = verified_boost(obs, v)
        assert (observer_residual, inverse_residual) == (0.0, 0.0)
        assert np.array_equal(op.mapping.entries, boost(obs, v).mapping.entries)

    def test_inverse_entries_are_the_boost_of_minus_v(self):
        """even - odd + tail is bit for bit what boost(p, negate(v)) builds."""
        for dim in (2, 3, 4, 5, 6):
            sp = make_space(dim, "lorentzian")
            rng = rng_for(71, dim)
            for _ in range(40):
                p = random_observer(sp, rng)
                c = float(10.0 ** rng.uniform(-1.0, 1.0))
                y = p.rest_projection(sp.vector(rng.normal(size=dim)))
                beta = rng.uniform(0.0, 0.999)
                v = Velocity3((beta * c / np.sqrt(y.square())) * y, p, c)
                ent, inverse = kinematics._boost_entries(p, v, kinematics.gamma(v))
                assert np.array_equal(ent, boost(p, v).mapping.entries)
                assert np.array_equal(inverse, boost(p, negate(v)).mapping.entries)

    @pytest.mark.parametrize("c", [float("nan"), float("inf")])
    def test_non_finite_c_is_refused(self, c):
        with pytest.raises(NonFiniteError, match="is not finite"):
            observed(space(), REST, [0.0, 0.6, 0.0, 0.0], c)

    def test_non_positive_c_keeps_its_error(self):
        with pytest.raises(SpaceMismatchError, match="c must be positive"):
            observed(space(), REST, [0.0, 0.6, 0.0, 0.0], 0.0)


class TestTransform:
    def test_interval_change_beyond_bound_is_refused(self):
        sp = space()
        r = Observer(sp.vector(BIG_EVENT["R"]))
        _, v = observed(sp, BIG_EVENT["P"], BIG_EVENT["v"])
        with pytest.raises(InternalConsistencyError, match="interval"):
            coordinate_transform(r, r, v, sp.vector(BIG_EVENT["e"]))

    def test_golden_intervals(self):
        sp = space()
        obs, v = observed(sp, REST, [0.0, 0.6, 0.0, 0.0])
        res = coordinate_transform(obs, obs, v, sp.vector([1.0, 1.0, 0.0, 0.0]))
        assert res.interval == (0.0, 0.0)

    def test_skewed_observer_is_refused_by_einstein_transform(self):
        sp = space()
        r = Observer(sp.vector(SKEW["R"]))
        _, v = observed(sp, SKEW["P"], SKEW["v"])
        with pytest.raises(NotObservedError):
            einstein_transform(r, v, sp.vector(SKEW["e"]))


class TestLuminalSum:
    def test_luminal_operand_beyond_bound_is_refused(self):
        with pytest.raises(SuperluminalError):
            observed(space(), REST, [0.0, 1.0 + 3e-7, 0.0, 0.0], luminal=True)

    def test_no_luminal_sum_beyond_the_old_cli_bound_survives(self):
        """A sum is either refused or no faster than c (1 + 1e2 tol_rel)."""
        sp = space()
        rng = rng_for(72)
        obs = Observer(sp.vector(REST))
        returned = 0
        for _ in range(200):
            n = rng.normal(size=3)
            speed = 1.0 + rng.uniform(-1.0, 1.0) * 1e-7
            u = Velocity3(sp.vector([0.0, *(speed * n / np.linalg.norm(n))]),
                          obs, 1.0, luminal=True)
            m = rng.normal(size=3)
            v = Velocity3(sp.vector([0.0, *(rng.uniform(0.0, 0.99) * m
                                            / np.linalg.norm(m))]), obs, 1.0)
            for first, second in ((u, v), (v, u)):
                try:
                    total = velocity_add(first, second)
                except SuperluminalError:
                    continue
                returned += 1
                assert total.speed() <= 1.0 + 1e2 * sp.tol_rel
        assert returned > 200


class TestAcceleration:
    def test_overflow_is_refused(self):
        sp = space()
        _, v = observed(sp, OVERFLOW["P"], OVERFLOW["v"])
        _, u = observed(sp, OVERFLOW["P"], OVERFLOW["u"])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteError, match="transformed acceleration"):
            acceleration_transform(v, u, sp.vector(OVERFLOW["a"]))


def broken_compose(g2, g1):
    """Composition that lands 1e-15 away from hom(source, target)."""
    exact = groupoid.hom(g1.source, g2.target, g1.c)
    return groupoid.VelocityMorphism(exact.source, exact.target,
                                     exact.velocity * (1.0 + 1e-15), exact.c)


class TestGroupoid:
    def test_chain_discrepancy_is_refused(self, monkeypatch):
        sp = space()
        objs = [ObserverObject(Observer(sp.vector(TRIANGLE[k])), k) for k in "ABC"]
        assert compare_with_isometric(*objs)["groupoid_discrepancy"] == 0.0
        monkeypatch.setattr(groupoid, "compose", broken_compose)
        with pytest.raises(InternalConsistencyError, match="hom\\(p, r\\)"):
            compare_with_isometric(*objs)


def assert_verified_or_refused(call, kind):
    """``call()`` returns a ``kind``, which the library has verified, or
    raises a RelkinError."""
    try:
        result = call()
    except RelkinError:
        return
    assert isinstance(result, kind)


class TestScaleSweep:
    """Inputs scaled by 10^k, |k| <= 150: every call returns a verified result
    or raises a RelkinError, never an OverflowError."""

    @given(st.integers(-150, 150))
    def test_links_of_the_scaled_golden_problem(self, k):
        sp, scale = space(), 10.0 ** k
        r = sp.vector([scale, 0.0, 0.0, 0.0])
        s = sp.vector([1.25 * scale, 0.75 * scale, 0.0, 0.0])
        problem = LinkProblem(r, s, sp.vector(BIG_LINK["P"]))
        assert_verified_or_refused(lambda: p_link(problem), Isometry)
        assert_verified_or_refused(lambda: admissibility(problem), LinkAdmissibility)
        assert_verified_or_refused(lambda: planar_link(r, s), Isometry)

    @given(st.integers(-150, 150))
    def test_scaled_operators(self, k):
        sp = space()
        entries = rng_for(30, k + 150).normal(size=(4, 4)) * 10.0 ** k
        assert_verified_or_refused(lambda: Isometry(Endomorphism(entries, sp)), Isometry)

    @given(st.integers(-150, 150))
    def test_scaled_events(self, k):
        sp = space()
        obs, v = observed(sp, REST, BIG_TRANSFORM["v"])
        e = sp.vector([10.0 ** k, 10.0 ** k, 0.0, 0.0])
        assert_verified_or_refused(lambda: coordinate_transform(obs, obs, v, e),
                                   TransformResult)


class TestCommandLine:
    """Inputs the CLI used to fail with exit 1 now stop with the library's
    error; inputs it used to pass keep their output."""

    @pytest.mark.parametrize("vectors, flags, message", [
        ({"P": REST, "v": NEAR_C}, (), "L L(-v) = id"),
        ({"P": FAST, "v": ACROSS}, ("--tol-rel", "1e-10"), "L P = gamma"),
    ])
    def test_boost_beyond_bound_exits_three(self, tmp_path, vectors, flags, message):
        code, recs = run_cli(tmp_path, "boost", vectors, *flags)
        assert code == 3
        assert recs[-1]["error"] == "InternalConsistency"
        assert message in recs[-1]["message"]

    @pytest.mark.parametrize("c", ["nan", "inf"])
    def test_non_finite_c_exits_two(self, tmp_path, c):
        code, recs = run_cli(tmp_path, "boost", {"P": REST, "v": [0.0, 0.6, 0.0, 0.0]},
                             "--c", c)
        assert code == 2
        assert recs == [{"type": "error", "error": "NonFinite",
                         "message": f"c = {c} is not finite"}]

    def test_interval_change_exits_three(self, tmp_path):
        code, recs = run_cli(tmp_path, "transform", BIG_EVENT)
        assert code == 3
        assert "changes the interval" in recs[-1]["message"]

    @pytest.mark.parametrize("command, vectors", [("link", BIG_LINK),
                                                  ("transform", BIG_TRANSFORM)])
    def test_overflowing_bounds_exit_with_a_relkin_error(self, tmp_path, command,
                                                         vectors):
        code, recs = run_cli(tmp_path, command, vectors)
        assert code in (2, 3)
        assert issubclass(getattr(errors, recs[-1]["error"] + "Error"), RelkinError)

    def test_skewed_observer_transform_exits_zero(self, tmp_path):
        """The Einstein fields follow the library's own test that R observes
        v (tol_abs), not a second test of the CLI's."""
        code, recs = run_cli(tmp_path, "transform", SKEW)
        assert code == 0
        assert recs[0]["t_prime"] == pytest.approx(1.0 / math.sqrt(3.0))
        assert "t_prime_einstein" not in recs[0]
        code, recs = run_cli(tmp_path, "transform", SKEW, "--tol-abs", "1e-10")
        assert code == 0
        assert recs[0]["t_prime_einstein"] == pytest.approx(recs[0]["t_prime"])
        assert recs[0]["round_trip_speed"] == pytest.approx(0.5)

    def test_luminal_operand_beyond_bound_exits_two(self, tmp_path):
        vectors = {"P": REST, "u": [0.0, 1.0 + 3e-7, 0.0, 0.0],
                   "v": [0.0, 0.3, 0.0, 0.0]}
        code, recs = run_cli(tmp_path, "add", vectors,
                             params={"c": 1.0, "luminal_u": True})
        assert code == 2
        assert recs[-1]["error"] == "Superluminal"

    def test_acceleration_overflow_exits_two(self, tmp_path):
        code, recs = run_cli(tmp_path, "accel", OVERFLOW)
        assert code == 2
        assert recs[-1]["error"] == "NonFinite"

    def test_groupoid_discrepancy_exits_three(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "groupoid.json"
        path.write_text(json.dumps({
            "name": "triangle", "command": "groupoid",
            "metric": {"dim": 4, "signature": "lorentzian"}, "vectors": TRIANGLE}))
        monkeypatch.setattr(groupoid, "compose", broken_compose)
        assert cli.main(["groupoid", "--scenario", str(path)]) == 3
        error = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert error["error"] == "InternalConsistency"
