"""The CLI's renderer: column tables against the general record path.

``relkin link-scan`` writes its ray records from the scan's columns, one
formatter per column.  They must come out byte for byte as the general path
writes the same records: ``_round10`` on each record dict, then the compact
JSON encoder or the csv writer.  The encoder is strict, so no output line can
hold ``NaN`` or ``Infinity``.
"""

import json
import math
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relkin import cli

DATA = Path(__file__).parent / "data"
MAX = sys.float_info.max


def general_json(value):
    return cli._JSON.encode(cli._round10(value))


def records_of(table):
    """A table's records as dicts, as the general path takes them."""
    n = max((len(v) for v in table.values() if isinstance(v, list)), default=0)
    return [{name: values[k] if isinstance(values, list) else values
             for name, values in table.items()} for k in range(n)]


def strict_lines(text):
    """Every output line parses as strict JSON (csv lines after their '#')."""
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return [json.loads(line, parse_constant=refuse) for line in text.splitlines()]


scalars = st.one_of(st.floats(allow_subnormal=True), st.none(), st.booleans(),
                    st.integers(-2**70, 2**70), st.sampled_from(["ray", "a,b", 'q"', ""]))
EDGES = [5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1.5e-300, 0.0, -0.0, 1.0,
         -7.0, 1e9, 9999999999.0, 9999999999.5, 1e10, 1.5e10, 1.2345678901e15, 1e16,
         1.5e16, 1.5e19, 1e20, 1.5e100, 1.5e200, 1e300, 1.7976931345e308,
         1.7976931348e308, MAX, -MAX, math.nan, math.inf, -math.inf, 1 / 3, -2.5e-5,
         0.0001234, 1.2345e-5, None, True, False, 0, -3, 2**64]


CSV_EDGES = [0.0, -0.0, 1e16, 1e-320, 1.797e308, math.nan, math.inf, None]


def recorded_float_columns():
    """Each field of the tests/data recordings whose values are floats (and
    None), as one column per recording."""
    columns = {}
    for path in sorted(DATA.glob("*.jsonl")):
        for record in map(json.loads, path.read_text().splitlines()):
            for name, value in record.items():
                columns.setdefault((path.stem, name), []).append(value)
    return [column for column in columns.values()
            if float in set(map(type, column)) <= {float, type(None)}]


class TestScalarFormatter:
    @settings(max_examples=3000, deadline=None)
    @given(value=st.one_of(st.floats(allow_subnormal=True), scalars))
    def test_equals_the_general_path(self, value):
        assert cli._json_scalar(value) == general_json(value)

    @pytest.mark.parametrize("value", EDGES)
    def test_edges(self, value):
        assert cli._json_scalar(value) == general_json(value)

    @settings(max_examples=500, deadline=None)
    @given(value=st.floats(1e10, 1e16) | st.floats(-1e16, -1e10)
           | st.integers(-10**10, 10**10).map(float))
    def test_integral_and_wide_floats(self, value):
        assert cli._json_scalar(value) == general_json(value)

    @pytest.mark.parametrize("value", [1.7976931345e308, 1.7976931348e308, MAX, -MAX])
    def test_rounding_that_overflows_writes_the_value(self, value):
        """A finite value is written finite: unrounded where its 10-digit
        rounding would overflow."""
        rounded = cli._round10(value)
        assert math.isfinite(rounded)
        assert rounded == float(f"{value:.10g}") or rounded == value
        assert json.loads(cli._json_scalar(value)) == rounded

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_the_encoder_refuses_non_finite_floats(self, value):
        assert cli._json_scalar(value) == "null"
        with pytest.raises(ValueError):
            cli._JSON.encode([value])


class TestTables:
    @staticmethod
    def _same_output(table):
        last = {"type": "summary", "x": 1 / 3}
        for fmt in ("json", "csv"):
            assert (cli._render(table, last, fmt)
                    == cli._render(records_of(table), last, fmt))

    @settings(max_examples=300, deadline=None)
    @given(rows=st.integers(0, 6), data=st.data())
    def test_a_table_renders_as_its_records(self, rows, data):
        names = data.draw(st.lists(st.sampled_from(["a", "b,c", "d", "e%s"]),
                                   min_size=1, max_size=4, unique=True))
        column = st.one_of(st.lists(st.floats(allow_subnormal=True) | st.none(),
                                    min_size=rows, max_size=rows),
                           st.lists(scalars, min_size=rows, max_size=rows), scalars)
        table = {name: data.draw(column) for name in names}
        table["index"] = list(range(rows))
        self._same_output(table)

    @pytest.mark.parametrize("value", [v for v in EDGES if type(v) is float])
    def test_a_float_column_takes_the_scalar_texts(self, value):
        """A float column is formatted in one pass; each edge value among
        ordinary ones must still come out as the scalar formatter writes it."""
        for column in ([value], [0.5, value, -2.25e-7, 1 / 3], [1 / 3] * 5 + [value]):
            assert cli._column(column, "json") == list(map(cli._json_scalar, column))

    @settings(max_examples=500, deadline=None)
    @given(column=st.lists(st.floats(allow_subnormal=True), min_size=1, max_size=12))
    def test_float_columns_equal_the_scalar_texts(self, column):
        assert cli._column(column, "json") == list(map(cli._json_scalar, column))

    def test_csv_float_columns_take_the_scalar_texts(self):
        """A csv float column is formatted in one pass, as a JSON one is: each
        recorded float column, alone and with each edge value appended, comes
        out as the scalar formatter writes it value by value, with None and
        NaN as empty fields."""
        columns = [[value] for value in CSV_EDGES] + [CSV_EDGES]
        columns += [column + extra for column in recorded_float_columns()
                    for extra in [[]] + [[value] for value in CSV_EDGES]]
        for column in columns:
            assert cli._column(column, "csv") == [
                None if text == "null" else text for text in map(cli._json_scalar, column)]

    def test_columns_of_every_kind(self):
        """Constant, float with NaN, all-None, bool, str and mixed int and
        float columns (1 and 1.0 must not share a text)."""
        self._same_output({"kind": "ray", "n": [1, 2], "x": [1.0, math.nan],
                           "f": [None, None], "b": [True, False], "s": ["a", "b,c"],
                           "m": [1, 1.0], "t": [True, 1]})

    def test_an_empty_table_writes_only_the_last_line(self):
        for fmt in ("json", "csv"):
            assert (cli._render({"kind": "ray", "index": []}, {"type": "summary"}, fmt)
                    == cli._render([], {"type": "summary"}, fmt))


def _general_render(monkeypatch):
    """Make the CLI render every table through the general record path."""
    true_render = cli._render

    def general(records, last, fmt):
        if isinstance(records, dict):
            records = records_of(records)
        return true_render(records, last, fmt)

    monkeypatch.setattr(cli, "_render", general)


def scrub_wall_time(text):
    return re.sub(r'"wall_time_s":[0-9.e+-]+', '"wall_time_s":0', text)


class TestLinkScanOutput:
    @pytest.mark.parametrize("scenario", ["golden_scan.json", "matrix_scan.json"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_matches_the_general_path(self, capsys, monkeypatch, scenario, fmt):
        runs = [["link-scan", "--scenario", str(DATA / scenario), "--seed", str(seed),
                 "--samples", str(samples), "--format", fmt]
                for seed in range(4) for samples in (0, 1, 7, 200)]
        outputs = []
        for argv in runs:
            assert cli.main(argv) == 0
            outputs.append(scrub_wall_time(capsys.readouterr().out))
        _general_render(monkeypatch)
        for argv, out in zip(runs, outputs):
            assert cli.main(argv) == 0
            assert scrub_wall_time(capsys.readouterr().out) == out, argv
            if fmt == "json":
                assert len(strict_lines(out)) == 1 + int(argv[-3]) + min(int(argv[-3]), 20)


class TestStrictOutput:
    def test_an_overflowing_rounding_prints_strict_json(self, tmp_path, capsys):
        doc = json.loads((DATA / "accel.json").read_text())
        doc["vectors"].update(v=[0, 0, 0, 0], a=[0, 1.7976931348e308, 0, 0])
        path = tmp_path / "accel.json"
        path.write_text(json.dumps(doc))
        for fmt in ("json", "csv"):
            assert cli.main(["accel", "--scenario", str(path), "--format", fmt]) == 0
            out = capsys.readouterr().out
            assert "Infinity" not in out and "NaN" not in out
            if fmt == "json":
                record = strict_lines(out)[0]
                assert record["a_prime"] == [0.0, 1.7976931348e308, 0.0, 0.0]
