import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from relkin import cli

DATA = Path(__file__).parent / "data"


def run_cli(*args, expect=0):
    proc = subprocess.run([sys.executable, "-m", "relkin.cli", *args],
                          capture_output=True, text=True)
    assert proc.returncode == expect, proc.stdout + proc.stderr
    return proc


def scrub_wall_time(text):
    return re.sub(r'"wall_time_s":[0-9.e+-]+', '"wall_time_s":0', text)


def records_of(proc):
    return [json.loads(line) for line in proc.stdout.splitlines() if line]


def summary_of(recs):
    tail = recs[-1]
    assert tail["type"] == "summary"
    return tail


class TestLinkCommand:
    def test_golden_scenario(self):
        recs = records_of(run_cli("link", "--scenario",
                                  str(DATA / "golden_link.json")))
        rec = recs[0]
        assert rec["kind"] == "link"
        assert rec["mu"] == pytest.approx(-1.0)
        assert rec["gamma"] == pytest.approx(1.25)
        assert rec["residual"] < 1e-12
        assert summary_of(recs)["passed"] is True

    def test_matrix_metric_scenario(self):
        recs = records_of(run_cli("link", "--scenario",
                                  str(DATA / "matrix_link.json")))
        assert recs[0]["residual"] < 1e-9
        assert summary_of(recs)["passed"] is True

    def test_zero_scale_scenario_exits_two(self):
        proc = run_cli("link", "--scenario", str(DATA / "zeromu.json"),
                       expect=2)
        recs = records_of(proc)
        assert recs[-1]["type"] == "error"
        assert recs[-1]["error"] == "ZeroMu"

    def test_command_scenario_mismatch_exits_two(self):
        proc = run_cli("boost", "--scenario", str(DATA / "golden_link.json"),
                       expect=2)
        assert records_of(proc)[-1]["error"] == "Scenario"

    def test_missing_scenario_exits_two(self):
        proc = run_cli("link", expect=2)
        assert records_of(proc)[-1]["error"] == "Scenario"

    def test_unreadable_scenario_exits_two(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        proc = run_cli("link", "--scenario", str(bad), expect=2)
        assert records_of(proc)[-1]["error"] == "Scenario"


class TestLinkScan:
    def test_scan_summary_fields(self):
        recs = records_of(run_cli("link-scan", "--scenario",
                                  str(DATA / "golden_scan.json"),
                                  "--samples", "20", "--seed", "3"))
        rays = [r for r in recs if r.get("kind") == "ray"]
        assert len(rays) == 40
        tail = summary_of(recs)
        assert tail["distinct_links"] >= 20
        assert tail["planar_cluster"] == 1

    def test_empty_scan(self):
        recs = records_of(run_cli("link-scan", "--scenario",
                                  str(DATA / "golden_scan.json"),
                                  "--samples", "0"))
        assert summary_of(recs)["n_records"] == 0


class TestKinematicsCommands:
    def test_boost(self):
        recs = records_of(run_cli("boost", "--scenario",
                                  str(DATA / "boost.json")))
        rec = recs[0]
        assert rec["gamma"] == pytest.approx(1.25)
        assert rec["observer_map_residual"] < 1e-12
        assert rec["inverse_residual"] < 1e-12

    def test_transform(self):
        recs = records_of(run_cli("transform", "--scenario",
                                  str(DATA / "transform.json")))
        rec = recs[0]
        assert rec["t_prime"] == pytest.approx(0.5)
        assert rec["x_prime"][1] == pytest.approx(0.5)
        assert rec["t_prime_einstein"] == pytest.approx(0.5)

    def test_add_collinear_golden(self):
        recs = records_of(run_cli("add", "--scenario",
                                  str(DATA / "add.json")))
        rec = recs[0]
        assert rec["speed"] == pytest.approx(0.8 / 1.15, abs=1e-9)
        assert rec["order_discrepancy"] < 1e-12

    def test_add_orthogonal_order_dependence(self):
        recs = records_of(run_cli("add", "--scenario",
                                  str(DATA / "add_orthogonal.json")))
        rec = recs[0]
        assert rec["speed"] < 1.0
        assert rec["order_discrepancy"] > 0.005

    def test_accel(self):
        recs = records_of(run_cli("accel", "--scenario",
                                  str(DATA / "accel.json")))
        assert recs[0]["a_prime"][1] == pytest.approx(0.512)

    def test_groupoid(self):
        recs = records_of(run_cli("groupoid", "--scenario",
                                  str(DATA / "groupoid.json")))
        rec = recs[0]
        assert rec["groupoid_discrepancy"] == 0.0
        assert rec["order_discrepancy"] > 0.005
        assert rec["forward_vs_direct"] < 1e-9


class TestCheckCommand:
    def test_default_run_passes(self):
        recs = records_of(run_cli("check", "--samples", "4", "--seed", "1"))
        props = [r for r in recs if r.get("kind") == "property"]
        assert props and all(isinstance(r["id"], int) for r in props)
        assert all(r["passed"] for r in props)
        tail = summary_of(recs)
        assert tail["passed"] is True
        assert tail["n_failed"] == 0

    def test_tight_tolerance_exits_one_with_flags(self):
        proc = run_cli("check", "--samples", "4", "--seed", "1",
                       "--tol-rel", "1e-15", expect=1)
        recs = records_of(proc)
        failed = [r for r in recs
                  if r.get("kind") == "property" and not r["passed"]]
        assert failed
        assert all(r["tolerance_induced"] for r in failed)
        tail = summary_of(recs)
        assert tail["passed"] is False
        assert tail["tolerance_induced_failures"] == len(failed)

    def test_tol_abs_is_a_usage_error(self):
        """check has no absolute tolerance, so the flag is refused, not ignored."""
        proc = run_cli("check", "--samples", "1", "--tol-abs", "1", expect=2)
        assert proc.stdout == ""
        assert "--tol-abs" in proc.stderr


class TestOutputContract:
    def test_deterministic_modulo_wall_time(self):
        args = ("link-scan", "--scenario", str(DATA / "golden_scan.json"),
                "--samples", "10", "--seed", "11")
        a = run_cli(*args).stdout
        b = run_cli(*args).stdout
        scrub = lambda s: re.sub(r'"wall_time_s":[0-9.e+-]+', '"wall_time_s":0',
                                 s)
        assert scrub(a) == scrub(b)

    def test_out_file_writing(self, tmp_path):
        target = tmp_path / "report.jsonl"
        proc = run_cli("link", "--scenario", str(DATA / "golden_link.json"),
                       "--out", str(target))
        assert proc.stdout == ""
        lines = target.read_text().splitlines()
        assert json.loads(lines[0])["kind"] == "link"
        assert json.loads(lines[-1])["type"] == "summary"

    def test_csv_format(self):
        proc = run_cli("link", "--scenario", str(DATA / "golden_link.json"),
                       "--format", "csv")
        lines = proc.stdout.splitlines()
        header = lines[0].split(",")
        assert "mu" in header and "gamma" in header
        assert lines[-1].startswith("# ")

    def test_floats_rounded_to_ten_digits(self):
        proc = run_cli("link", "--scenario", str(DATA / "golden_link.json"))
        for token in re.findall(r"-?\d+\.\d{11,}", proc.stdout):
            digits = token.replace("-", "").replace(".", "").lstrip("0")
            assert len(digits) <= 10, token


class TestRecordedOutput:
    """Fixed-seed output matches the recordings in tests/data byte for byte,
    apart from the summary's wall_time_s."""

    @pytest.mark.parametrize("recording, args", [
        ("check_seed0_samples2.jsonl", ("check", "--samples", "2", "--seed", "0")),
        ("link_scan_seed0_samples30.jsonl",
         ("link-scan", "--scenario", str(DATA / "golden_scan.json"),
          "--samples", "30", "--seed", "0")),
        ("matrix_scan_seed0_samples30.jsonl",
         ("link-scan", "--scenario", str(DATA / "matrix_scan.json"),
          "--samples", "30", "--seed", "0")),
    ])
    def test_matches_recording(self, recording, args):
        out = re.sub(r',"wall_time_s":[^,}]+', "", run_cli(*args).stdout)
        assert out == (DATA / recording).read_text()


def old_round10(value):
    """The renderer's rounding before it checked exact types first."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if not np.isfinite(v):
            return None
        return float(f"{v:.10g}")
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [old_round10(x) for x in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [old_round10(x) for x in value]
    if isinstance(value, dict):
        return {str(k): old_round10(v) for k, v in value.items()}
    return value


class TestRenderer:
    VALUES = [1 / 3, 123456.78901234, 1e-300, np.float64(2 / 3), np.float32(0.1),
              0.0, -0.0, float("nan"), float("inf"), float("-inf"), np.float64("nan"),
              True, False, np.bool_(True), 7, np.int64(-3), None, "text",
              {"a": {1: [1.5, (2, np.float64("inf"))]}, 2.5: None},
              [0.1, [np.float32(2.2), True]], (np.int32(4), -0.0, "x"),
              np.array([[0.1, np.inf], [2.0, -0.0]]), np.array([True, False]),
              np.array([1, 2])]

    @pytest.mark.parametrize("value", VALUES)
    def test_rounding_matches_the_general_path(self, value):
        assert repr(cli._round10(value)) == repr(old_round10(value))

    def test_csv_scan_matches_the_general_path(self, capsys, monkeypatch):
        args = ["link-scan", "--scenario", str(DATA / "golden_scan.json"),
                "--samples", "30", "--format", "csv"]
        outputs = []
        for rounding in (cli._round10, old_round10):
            monkeypatch.setattr(cli, "_round10", rounding)
            assert cli.main(args) == 0
            outputs.append(scrub_wall_time(capsys.readouterr().out))
        assert outputs[0] == outputs[1]
        assert outputs[0].count("\n") == 1 + 50 + 1  # header, rays, summary


class TestInProcessRuns:
    """The parser is built once per process; a command run after another
    gives what it gives when it runs alone."""

    @pytest.mark.parametrize("second, code", [
        (("check", "--samples", "1", "--tol-abs", "1"), 2),
        (("link", "--scenario", str(DATA / "golden_link.json")), 0),
    ])
    def test_second_command_runs_as_alone(self, capsys, second, code):
        first = ["link-scan", "--scenario", str(DATA / "golden_scan.json"),
                 "--samples", "5", "--seed", "3"]
        assert cli.main(first) == 0
        capsys.readouterr()
        try:
            got = cli.main(list(second))
        except SystemExit as exc:
            got = exc.code
        out, err = capsys.readouterr()
        alone = run_cli(*second, expect=code)
        assert got == code
        assert scrub_wall_time(out) == scrub_wall_time(alone.stdout)
        assert err == alone.stderr
        assert cli.build_parser() is cli.build_parser()


class TestScenarioRecordings:
    """Every scenario in tests/data, run at default flags, matches its
    recording ``<name>.jsonl`` byte for byte, apart from the summary's
    wall_time_s; the recording's last line holds the exit code."""

    @pytest.mark.parametrize("scenario", sorted(DATA.glob("*.json")),
                             ids=lambda path: path.stem)
    def test_matches_recording(self, scenario):
        command = json.loads(scenario.read_text())["command"]
        proc = subprocess.run([sys.executable, "-m", "relkin.cli", command,
                               "--scenario", str(scenario)],
                              capture_output=True, text=True)
        out = re.sub(r',"wall_time_s":[^,}]+', "", proc.stdout)
        exit_line = f'{{"exit_code":{proc.returncode}}}\n'
        assert out + exit_line == scenario.with_suffix(".jsonl").read_text()


def write_scenario(tmp_path, text):
    path = tmp_path / "scenario.json"
    path.write_text(text)
    return str(path)


class TestLibraryVerdicts:
    """link and link-scan report the library's own checks: an R = S link
    that misses LR = S exits 3, a scan whose rays run out and non-finite
    input exit 2."""

    NEAR = ('{"name": "near", "command": "%s", "metric": {"dim": 4, '
            '"signature": "lorentzian"}, "vectors": {"R": [1, 0, 0, 0], '
            '"S": [1, 0, 1e-13, 0]}}')

    @pytest.mark.parametrize("command", ["link", "link-scan"])
    def test_near_coincident_link_beyond_bound_exits_three(self, tmp_path, command):
        path = write_scenario(tmp_path, self.NEAR % command)
        proc = run_cli(command, "--scenario", path, "--tol-rel", "1e-15", expect=3)
        error = records_of(proc)[-1]
        assert error["error"] == "InternalConsistency"
        assert "LR = S" in error["message"]

    def test_scaled_scan_that_runs_out_of_rays_exits_two(self, tmp_path):
        scaled = tmp_path / "scaled.json"
        doc = json.loads((DATA / "golden_scan.json").read_text())
        doc["vectors"] = {k: [0.01 * x for x in v] for k, v in doc["vectors"].items()}
        scaled.write_text(json.dumps(doc))
        proc = run_cli("link-scan", "--scenario", str(scaled), "--samples", "1",
                       expect=2)
        error = records_of(proc)[-1]
        assert error["error"] == "DrawsExhausted"
        assert error["message"] == ("general ray index 0 (stream (0, 1, 0)) "
                                    "accepted no ray in 1000 draws")
        recs = records_of(run_cli("link-scan", "--scenario", str(scaled),
                                  "--samples", "0"))
        assert summary_of(recs)["passed"] is True

    def test_non_finite_metric_exits_two(self, tmp_path):
        path = write_scenario(tmp_path, (
            '{"name": "nan-metric", "command": "link", "metric": {"dim": 2, '
            '"matrix": [NaN, 0, 0, 1]}, "vectors": {"R": [1, 0], "S": [0, 1]}}'))
        error = records_of(run_cli("link", "--scenario", path, expect=2))[-1]
        assert error["error"] == "DegenerateMetric"
        assert "metric tensor has non-finite entries" in error["message"]
