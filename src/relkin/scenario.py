"""Scenario files for the command line interface.

A scenario is a JSON document that pins down the metric space, the named
input vectors and any extra parameters for one subcommand run:

.. code-block:: json

    {
      "name": "golden-link",
      "command": "link",
      "metric": {"dim": 4, "signature": "lorentzian"},
      "vectors": {"R": [1, 0, 0, 0], "S": [1.25, 0.75, 0, 0]},
      "params": {}
    }

``metric`` accepts either ``{"dim", "signature"}`` with signature one of
``euclidean``, ``lorentzian`` or ``split`` (diagonal metrics, time-like axes
first), or ``{"dim", "matrix"}`` with an explicit symmetric matrix given as
nested rows or as a flat row-major list.  The ``command`` field names the
subcommand the scenario is written for; running it under a different
subcommand is rejected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ScenarioError
from .metric_core import DEFAULT_TOL_ABS, DEFAULT_TOL_REL, SIGNATURES, MetricSpace, metric_for

__all__ = ["Scenario", "load", "from_dict"]

_COMMANDS = ("link", "link-scan", "check", "boost", "transform", "add",
             "accel", "groupoid")


@dataclass(frozen=True)
class Scenario:
    """Parsed scenario: metric description, named vectors, free parameters."""

    name: str
    command: str
    metric: dict
    vectors: dict[str, tuple[float, ...]] = field(default_factory=dict)
    params: dict = field(default_factory=dict)

    def build_space(self, tol_rel: float = DEFAULT_TOL_REL,
                    tol_abs: float = DEFAULT_TOL_ABS) -> MetricSpace:
        metric = self.metric.get("matrix")
        if metric is None:
            metric = metric_for(self.metric["dim"], self.metric["signature"])
        return MetricSpace.from_metric(metric, tol_rel=tol_rel, tol_abs=tol_abs)

    def vector(self, space: MetricSpace, role: str):
        if role not in self.vectors:
            raise ScenarioError(f"scenario {self.name!r} defines no vector "
                                f"{role!r} (has {sorted(self.vectors)})")
        return space.vector(self.vectors[role])

    def has_vector(self, role: str) -> bool:
        return role in self.vectors

    def param(self, key: str, default=None):
        return self.params.get(key, default)


def _is_number(value) -> bool:
    """Whether ``value`` is a JSON number (true and false are not)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numbers(values, what: str) -> np.ndarray:
    """The list ``values`` of JSON numbers as floats; ``what`` names it."""
    if not isinstance(values, list):
        raise ScenarioError(f"{what} must be a list of numbers, got {values!r}")
    for value in values:
        if not _is_number(value):
            raise ScenarioError(f"{what} has an entry that is not a number: {value!r}")
    return np.array(values, dtype=float)


def _check_metric(metric) -> dict:
    if not isinstance(metric, dict):
        raise ScenarioError("'metric' must be an object")
    if "dim" not in metric:
        raise ScenarioError("'metric' needs a 'dim' entry")
    dim = metric["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise ScenarioError(f"'metric.dim' must be an integer, got {dim!r}")
    if dim < 2:
        raise ScenarioError("'metric.dim' must be at least 2")
    out = {"dim": dim}
    if "matrix" in metric:
        rows = metric["matrix"]
        if isinstance(rows, list) and rows and all(isinstance(row, list) for row in rows):
            if len(rows) != dim or any(len(row) != dim for row in rows):
                raise ScenarioError(f"'metric.matrix' must have {dim} rows of {dim} "
                                    f"entries, got {rows!r}")
            rows = [entry for row in rows for entry in row]
        arr = _numbers(rows, "'metric.matrix'")
        if arr.size != dim * dim:
            raise ScenarioError(
                f"'metric.matrix' has {arr.size} entries, expected {dim * dim}")
        out["matrix"] = arr.reshape(dim, dim).tolist()
    elif "signature" in metric:
        if metric["signature"] not in SIGNATURES:
            raise ScenarioError(
                f"unknown signature {metric['signature']!r}; "
                f"expected one of {SIGNATURES}")
        out["signature"] = metric["signature"]
    else:
        raise ScenarioError("'metric' needs either 'signature' or 'matrix'")
    return out


def _check_params(params) -> dict:
    """The parameters, once those the commands read have their JSON types:
    ``c`` a number, ``observers`` a list of names and each ``luminal_<role>``
    true or false."""
    if not isinstance(params, dict):
        raise ScenarioError("'params' must be an object")
    c = params.get("c", 1.0)
    if not _is_number(c):
        raise ScenarioError(f"'params.c' must be a number, got {c!r}")
    names = params.get("observers", [])
    if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
        raise ScenarioError(f"'params.observers' must be a list of names, got {names!r}")
    for key, value in params.items():
        if key.startswith("luminal_") and not isinstance(value, bool):
            raise ScenarioError(f"'params.{key}' must be true or false, got {value!r}")
    return dict(params)


def from_dict(data: dict) -> Scenario:
    """Validate a scenario dictionary, as ``json.load`` reads it, and
    normalise its fields."""
    if not isinstance(data, dict):
        raise ScenarioError("scenario document must be a JSON object")
    command = data.get("command")
    if command not in _COMMANDS:
        raise ScenarioError(f"scenario 'command' must be one of {_COMMANDS}, "
                            f"got {command!r}")
    metric = _check_metric(data.get("metric"))
    dim = metric["dim"]
    named = data.get("vectors") or {}
    if not isinstance(named, dict):
        raise ScenarioError(f"'vectors' must be an object, got {named!r}")
    vectors = {}
    for name, comps in named.items():
        arr = _numbers(comps, f"vector {name!r}")
        if arr.size != dim:
            raise ScenarioError(
                f"vector {name!r} must have {dim} components, got {comps!r}")
        if not np.all(np.isfinite(arr)):
            raise ScenarioError(f"vector {name!r} has non-finite components")
        vectors[str(name)] = tuple(float(x) for x in arr)
    return Scenario(name=str(data.get("name", "unnamed")), command=command,
                    metric=metric, vectors=vectors,
                    params=_check_params(data.get("params") or {}))


def load(path: str) -> Scenario:
    """Load and validate a scenario JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ScenarioError(f"scenario file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file {path} is not valid JSON: {exc}") \
            from None
    return from_dict(data)
