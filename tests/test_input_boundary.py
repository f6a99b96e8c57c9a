"""Outside input is checked once, where it enters, and library-made arrays
are not checked again.

The parser checks the flags, the scenario loader the scenario document, and
``MetricSpace``'s constructors every array handed to the library.  An array
the library computes is frozen in place, without a copy or a second check;
these tests pin that every such array is read-only and that the public
constructors keep copying and validating, with their messages unchanged.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from relkin import (
    DrawsExhaustedError,
    EventCoordinates,
    InternalConsistencyError,
    LinkProblem,
    NonFiniteError,
    Observer,
    SimpleBivector,
    SpaceMismatchError,
    Velocity3,
    cli,
    event_coordinates,
    event_vector,
    fahnline_boost,
    isometry_from_bivector,
    p_link,
    planar_link,
    reflection,
    sampling,
    ternary_velocity,
    urbantke_velocity,
)
from relkin.sampling import make_space, random_nonnull_vector, rng_for

DATA = Path(__file__).parent / "data"


def run_main(capsys, *args):
    """Exit code, stdout and stderr of an in-process ``relkin`` run."""
    try:
        code = cli.main(list(args))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestLibraryArraysAreFrozen:
    def test_metric_tensor_and_inverse(self):
        space = make_space(4)
        for arr in (space.g, space.g_inv):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 2.0

    def test_every_array_switched_to_fresh(self):
        space = make_space(4)
        rng = rng_for(91)
        r = space.vector([1.0, 0.0, 0.0, 0.0])
        s = space.vector([1.25, 0.75, 0.0, 0.0])
        iso = isometry_from_bivector(SimpleBivector(r, space.vector([0.0, 0.6, 0.0, 0.0])))
        arrays = {
            "identity": space.identity().entries,
            "basis_vector": space.basis_vector(2).components,
            "zero_vector": space.zero_vector().components,
            "isometry_from_bivector": iso.mapping.entries,
            "reflection": reflection(s).mapping.entries,
            "inverse": iso.inverse().mapping.entries,
            "p_link": p_link(LinkProblem(r, s, space.vector([1.1, 0.2, 0.5, 0.0]))).mapping.entries,
            "p_link without P": p_link(LinkProblem(r, s)).mapping.entries,
            "planar_link": planar_link(r, s).mapping.entries,
            "identity link": planar_link(r, r).mapping.entries,
            "fahnline_boost": fahnline_boost(r, s).mapping.entries,
            "random_vector": sampling.random_vector(space, rng).components,
            "random_observer": sampling.random_observer(space, rng).vector.components,
        }
        for name, arr in arrays.items():
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError):
                arr.flat[0] = 7.0

    def test_fresh_arrays_hold_the_values_of_a_checked_copy(self):
        space = make_space(3)
        assert space.identity().entries.tolist() == np.eye(3).tolist()
        assert space.basis_vector(1).components.tolist() == [0.0, 1.0, 0.0]
        assert space.basis_vector(-1).components.tolist() == [0.0, 0.0, 1.0]
        assert space.zero_vector().components.tolist() == [0.0, 0.0, 0.0]
        assert space.identity().entries is not space.identity().entries


class TestPublicConstructors:
    @pytest.mark.parametrize("build, values", [
        ("covector", np.array([1.0, 2.0, 3.0])),
        ("endomorphism", np.arange(9.0).reshape(3, 3)),
    ])
    def test_copy_their_input(self, build, values):
        space = make_space(3)
        made = getattr(space, build)(values)
        stored = made.components if build == "covector" else made.entries
        before = values.tolist()
        values.flat[0] = 9.0
        assert values.flags.writeable
        assert not stored.flags.writeable
        assert stored.tolist() == before

    @pytest.mark.parametrize("build, values, message", [
        ("vector", [1.0, 0.0, 0.0], "vector needs 4 components, got shape (3,)"),
        ("covector", [1.0, 0.0, 0.0], "covector needs 4 components, got shape (3,)"),
        ("endomorphism", np.eye(3), "endomorphism needs shape (4, 4), got (3, 3)"),
        ("vector", np.eye(2), "vector needs 4 components, got shape (2, 2)"),
        ("endomorphism", [1.0, 0.0, 0.0, 0.0],
         "endomorphism needs shape (4, 4), got (4,)"),
    ])
    def test_shape_messages(self, build, values, message):
        with pytest.raises(SpaceMismatchError) as exc:
            getattr(make_space(4), build)(values)
        assert str(exc.value) == message

    @pytest.mark.parametrize("build, values, message", [
        ("vector", [1.0, np.nan], "vector has non-finite entries: [1.0, nan]"),
        ("covector", [np.inf, 0.0], "covector has non-finite entries: [inf, 0.0]"),
        ("endomorphism", [[1.0, 0.0], [0.0, -np.inf]],
         "endomorphism has non-finite entries: [[1.0, 0.0], [0.0, -inf]]"),
    ])
    def test_non_finite_messages(self, build, values, message):
        with pytest.raises(NonFiniteError) as exc:
            getattr(make_space(2), build)(values)
        assert str(exc.value) == message

    def test_shape_is_checked_before_finiteness(self):
        with pytest.raises(SpaceMismatchError):
            make_space(4).vector([np.nan, 0.0])


class TestSamplersRunOutOfDraws:
    def test_nonnull_sampler_raises_draws_exhausted(self, monkeypatch):
        space = make_space(4)
        monkeypatch.setattr(sampling, "random_vector",
                            lambda space, rng, scale=1.0: space.zero_vector())
        with pytest.raises(DrawsExhaustedError) as exc:
            random_nonnull_vector(space, rng_for(0))
        assert str(exc.value) == "random_nonnull_vector accepted none of its 1000 draws"
        assert not isinstance(exc.value, InternalConsistencyError)


# A scenario for each command; a usage error stops the run before it is read.
SCENARIOS = {"link": "golden_link.json", "link-scan": "golden_scan.json",
             "boost": "boost.json", "transform": "transform.json", "add": "add.json",
             "accel": "accel.json", "groupoid": "groupoid.json"}
# The flag values each command accepted and ignored before it was given only
# the flags it reads.
REMOVED = [(command, "--samples") for command in
           ("link", "boost", "transform", "add", "accel", "groupoid")]
REMOVED += [(command, "--c") for command in ("link", "link-scan", "check")]
REMOVED += [("check", "--scenario")]


def subparsers():
    parser = cli.build_parser()
    action = next(a for a in parser._actions if a.choices and "check" in a.choices)
    return action.choices


class TestFlags:
    def test_each_command_takes_the_flags_it_reads(self):
        flags = {name: {option for action in sp._actions for option in action.option_strings
                        if option.startswith("--") and option != "--help"}
                 for name, sp in subparsers().items()}
        assert sum(len(v) for v in flags.values()) == 53
        assert {n for n, f in flags.items() if "--samples" in f} == {"link-scan", "check"}
        assert {n for n, f in flags.items() if "--c" in f} == {
            "boost", "transform", "add", "accel", "groupoid"}
        assert not {"--scenario", "--tol-abs"} & flags["check"]
        assert all("--seed" in f for f in flags.values())

    @pytest.mark.parametrize("command, flag", REMOVED)
    def test_a_flag_the_command_ignored_is_a_usage_error(self, capsys, command, flag):
        value = str(DATA / "golden_link.json") if flag == "--scenario" else "2"
        args = [command, flag, value]
        if command in SCENARIOS:
            args += ["--scenario", str(DATA / SCENARIOS[command])]
        code, out, err = run_main(capsys, *args)
        assert code == 2
        assert out == ""
        assert flag in err

    @pytest.mark.parametrize("args, flag", [
        (("link", "--scenario", str(DATA / "golden_link.json"), "--tol-rel", "nan"),
         "--tol-rel"),
        (("boost", "--scenario", str(DATA / "boost.json"), "--tol-abs", "nan"), "--tol-abs"),
        (("check", "--samples", "1", "--tol-rel", "nan"), "--tol-rel"),
        (("check", "--samples", "1", "--tol-rel", "inf"), "--tol-rel"),
        (("link", "--scenario", str(DATA / "golden_link.json"), "--tol-abs=-1e-12"),
         "--tol-abs"),
        (("check", "--samples", "-3"), "--samples"),
        (("link-scan", "--scenario", str(DATA / "golden_scan.json"), "--samples", "-5"),
         "--samples"),
    ])
    def test_the_parser_refuses_bad_tolerances_and_counts(self, capsys, args, flag):
        code, out, err = run_main(capsys, *args)
        assert code == 2
        assert out == ""
        assert f"argument {flag}: must be finite and >= 0" in err

    def test_zero_tolerance_and_zero_samples_stay_valid(self, capsys):
        code, out, _ = run_main(capsys, "check", "--samples", "0")
        assert code == 0
        assert json.loads(out.splitlines()[-1])["passed"] is True
        code, out, _ = run_main(capsys, "link", "--scenario", str(DATA / "golden_link.json"),
                                "--tol-rel", "0", "--tol-abs", "0")
        assert code == 0
        assert json.loads(out.splitlines()[-1])["passed"] is True

    def test_a_float_that_does_not_parse_keeps_the_argparse_message(self, capsys):
        code, _, err = run_main(capsys, "check", "--tol-rel", "abc")
        assert code == 2
        assert "argument --tol-rel: invalid float value: 'abc'" in err


class TestSeedAndParams:
    """A negative seed is a usage error, and a scenario's params are checked
    where the scenario is loaded, before a command reads them."""

    @pytest.mark.parametrize("args", [
        ("link-scan", "--scenario", str(DATA / "golden_scan.json"), "--samples", "2"),
        ("check", "--samples", "1"),
        ("link", "--scenario", str(DATA / "golden_link.json")),
    ])
    def test_a_negative_seed_is_refused_by_the_parser(self, capsys, args):
        code, out, err = run_main(capsys, *args, "--seed", "-1")
        assert code == 2
        assert out == ""
        assert "argument --seed: must be finite and >= 0, got '-1'" in err

    @pytest.mark.parametrize("base, params, message", [
        ("add.json", {"c": "fast"}, "'params.c' must be a number, got 'fast'"),
        ("add.json", {"c": None}, "'params.c' must be a number, got None"),
        ("add.json", {"c": True}, "'params.c' must be a number, got True"),
        ("groupoid.json", {"observers": 5}, "'params.observers' must be a list of names, got 5"),
        ("groupoid.json", {"observers": ["A", 2]},
         "'params.observers' must be a list of names, got ['A', 2]"),
        ("add.json", {"luminal_u": "false"},
         "'params.luminal_u' must be true or false, got 'false'"),
    ])
    def test_params_of_the_wrong_type_are_a_scenario_error(self, capsys, tmp_path,
                                                           base, params, message):
        scenario = json.loads((DATA / base).read_text())
        scenario["params"].update(params)
        path = tmp_path / base
        path.write_text(json.dumps(scenario))
        code, out, err = run_main(capsys, scenario["command"], "--scenario", str(path))
        assert code == 2
        assert json.loads(out) == {"type": "error", "error": "Scenario", "message": message}
        assert err == ""

    def test_an_integer_c_and_a_false_luminal_flag_are_read(self, capsys, tmp_path):
        scenario = json.loads((DATA / "add.json").read_text())
        scenario["params"].update(c=2, luminal_u=False)
        path = tmp_path / "add.json"
        path.write_text(json.dumps(scenario))
        code, out, _ = run_main(capsys, "add", "--scenario", str(path))
        assert code == 0
        assert json.loads(out.splitlines()[0])["c"] == 2.0


class TestScenarioDocument:
    """A document whose fields have the wrong JSON types is refused by the
    loader with a message that names the field, not crashed on or read as
    something else."""

    ROWS = [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]

    @pytest.mark.parametrize("field, value, message", [
        ("vectors", [1, 2], "'vectors' must be an object, got [1, 2]"),
        ("vectors", {"R": [1, "a", 0, 0], "S": [1.25, 0.75, 0, 0]},
         "vector 'R' has an entry that is not a number: 'a'"),
        ("vectors", {"R": [True, 0, 0, 0], "S": [1.25, 0.75, 0, 0]},
         "vector 'R' has an entry that is not a number: True"),
        ("vectors", {"R": 1, "S": [1.25, 0.75, 0, 0]},
         "vector 'R' must be a list of numbers, got 1"),
        ("metric", {"dim": 4.5, "signature": "lorentzian"},
         "'metric.dim' must be an integer, got 4.5"),
        ("metric", {"dim": "4", "signature": "lorentzian"},
         "'metric.dim' must be an integer, got '4'"),
        ("metric", {"dim": True, "signature": "lorentzian"},
         "'metric.dim' must be an integer, got True"),
        ("metric", {"dim": 4, "matrix": [[-1, 0, 0, 0], [0, 1, "x", 0], [0, 0, 1, 0],
                                         [0, 0, 0, 1]]},
         "'metric.matrix' has an entry that is not a number: 'x'"),
        ("metric", {"dim": 4, "matrix": [[-1, 0, 0, 0, 0], [0, 1, 0], [0, 0, 1, 0],
                                         [0, 0, 0, 1]]},
         "'metric.matrix' must have 4 rows of 4 entries, got "
         "[[-1, 0, 0, 0, 0], [0, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]]"),
        ("metric", {"dim": 4, "matrix": 1},
         "'metric.matrix' must be a list of numbers, got 1"),
    ])
    def test_a_field_of_the_wrong_type_is_a_scenario_error(self, capsys, tmp_path,
                                                           field, value, message):
        scenario = json.loads((DATA / "golden_link.json").read_text())
        scenario[field] = value
        path = tmp_path / "golden_link.json"
        path.write_text(json.dumps(scenario))
        code, out, err = run_main(capsys, "link", "--scenario", str(path))
        assert code == 2
        assert json.loads(out) == {"type": "error", "error": "Scenario", "message": message}
        assert err == ""

    @pytest.mark.parametrize("matrix", [ROWS, [x for row in ROWS for x in row]])
    def test_a_matrix_reads_as_rows_or_flat(self, capsys, tmp_path, matrix):
        scenario = json.loads((DATA / "golden_link.json").read_text())
        scenario["metric"] = {"dim": 4, "matrix": matrix}
        path = tmp_path / "golden_link.json"
        path.write_text(json.dumps(scenario))
        code, out, _ = run_main(capsys, "link", "--scenario", str(path))
        _, expected, _ = run_main(capsys, "link", "--scenario", str(DATA / "golden_link.json"))
        assert code == 0
        assert out.splitlines()[:-1] == expected.splitlines()[:-1]  # all but the summary


class TestOverflowIsQuiet:
    # The golden event at 1e160: the pairings overflow, and the library
    # refuses the interval it cannot check.
    SCENARIO = {"name": "edge", "command": "transform",
                "metric": {"dim": 4, "signature": "lorentzian"},
                "vectors": {"R": [1.0, 0.0, 0.0, 0.0], "P": [1.0, 0.0, 0.0, 0.0],
                            "v": [0.0, 0.6, 0.0, 0.0], "e": [1e160, 1e160, 0.0, 0.0]},
                "params": {"c": 1.0}}

    def test_transform_overflow_leaves_stderr_empty(self, tmp_path):
        path = tmp_path / "transform.json"
        path.write_text(json.dumps(self.SCENARIO))
        proc = subprocess.run([sys.executable, "-m", "relkin.cli", "transform",
                               "--scenario", str(path)], capture_output=True, text=True)
        assert proc.returncode == 3
        assert proc.stdout == ('{"type":"error","error":"InternalConsistency",'
                               '"message":"coordinate transform changes the interval by nan"}\n')
        assert proc.stderr == ""

    def test_scan_whose_overflow_meets_a_zero_leaves_stderr_empty(self, tmp_path):
        """R.R overflows to -inf, and S.S to nan through 0 * inf: NumPy's
        invalid-value warning stays off as well."""
        scan = {"name": "edge", "command": "link-scan",
                "metric": {"dim": 4, "signature": "lorentzian"},
                "vectors": {"R": [1e200, 0.0, 0.0, 0.0], "S": [1.25e200, 0.75e200, 0.0, 0.0]}}
        path = tmp_path / "scan.json"
        path.write_text(json.dumps(scan))
        proc = subprocess.run([sys.executable, "-m", "relkin.cli", "link-scan",
                               "--scenario", str(path), "--samples", "2"],
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["type"] == "error"
        assert proc.stderr == ""

    def test_library_calls_keep_numpy_defaults(self, capsys):
        before = np.geterr()
        code, _, _ = run_main(capsys, "link", "--scenario", str(DATA / "golden_link.json"))
        assert code == 0
        assert np.geterr() == before
        with pytest.warns(RuntimeWarning, match="overflow"):
            np.array([1e200]) * np.array([1e200])


class TestSpeedOfLight:
    """Every public function that takes c refuses a c that is not positive,
    then one that is not finite, with the errors of ``Velocity3``."""

    @pytest.mark.parametrize("c, error, message", [
        (0.0, SpaceMismatchError, "c must be positive"),
        (-1.0, SpaceMismatchError, "c must be positive"),
        (np.nan, NonFiniteError, "c = nan is not finite"),
        (np.inf, NonFiniteError, "c = inf is not finite"),
    ])
    def test_c_is_checked(self, golden, c, error, message):
        space, r, s = golden
        rest = Observer(r)
        e = space.vector([1.0, 0.5, 0.2, 0.0])
        x, x_prime = space.vector([0.0, 0.5, 0.0, 0.0]), space.vector([0.0, 0.1, 0.0, 0.0])
        calls = [
            lambda: Velocity3(space.vector([0.0, 0.5, 0.0, 0.0]), rest, c),
            lambda: ternary_velocity(LinkProblem(r, s, r), c),
            lambda: event_coordinates(rest, e, c),
            lambda: event_vector(rest, EventCoordinates(1.0, rest.rest_projection(e)), c),
            lambda: urbantke_velocity(1.0, x, 0.5, x_prime, c),
        ]
        for call in calls:
            with pytest.raises(error) as exc:
                call()
            assert str(exc.value) == message
