"""Command line interface.

Every subcommand reads a scenario file (``check`` can run without one),
performs its computation and writes one JSON record per result followed by
a single summary record.  Output is deterministic for a fixed scenario and
seed apart from the ``wall_time_s`` field of the summary.  Exit codes:

* 0: run completed (and, for ``check``, every property held),
* 1: ``check`` completed but at least one property failed,
* 2: invalid input (bad scenario, domain error in the data),
* 3: internal error (a verified invariant broke, or an unexpected fault).

The library verifies every result it returns, so no command other than
``check`` judges its results: a result beyond its bound never reaches the
output, and the run ends with an error record instead.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import time

import numpy as np

from . import kinematics as kin
from .errors import (DegenerateEpochError, InternalConsistencyError,
                     NotObservedError, RelkinError, ScenarioError)
from .metric_core import DEFAULT_TOL_ABS, DEFAULT_TOL_REL, maxabs
from .scenario import load as load_scenario

__all__ = ["main"]

# Compact JSON, as json.dumps(obj, separators=(",", ":")) writes it; a NaN or
# an infinity raises rather than come out as invalid JSON.
_JSON = json.JSONEncoder(separators=(",", ":"), allow_nan=False)


def _round_float(value: float):
    """``value`` to 10 significant digits, or unrounded where that rounding
    overflows (beyond 1.797693135e308); None for NaN and inf."""
    if not math.isfinite(value):
        return None
    rounded = float(f"{value:.10g}")
    return rounded if math.isfinite(rounded) else value


def _round10(value):
    """Round floats to 10 significant digits, recursively; NaN/inf to None."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (float, np.floating)):
        return _round_float(float(value))
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_round10(x) for x in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_round10(x) for x in value]
    if isinstance(value, dict):
        return {str(k): _round10(v) for k, v in value.items()}
    return value


def _json_scalar(value) -> str:
    """``_JSON.encode(_round10(value))`` for a scalar.

    A float's 10-digit text is already the repr of the float it rounds to
    where it has a point, no exponent 10-19 or 100-199 (repr writes 1e10 to
    1e16 out, .10g does not) and a magnitude neither subnormal nor near
    overflow; with neither point nor exponent it is an integer below 1e10,
    whose repr adds ".0".
    """
    if type(value) is float:
        text = f"{value:.10g}"
        if "." in text:
            if "e+1" not in text and 1e-300 < abs(value) < 1e300:
                return text
        elif "e" not in text and "n" not in text:  # not inf or nan
            return text + ".0"
    return _JSON.encode(_round10(value))


def _float_texts(values: list) -> list:
    """``_json_scalar`` of each float or None in ``values`` ("null" for None,
    NaN and inf), formatted in one pass where that pass gives its texts."""
    if None in values:
        values = [math.nan if v is None else v for v in values]
    text = ("%.10g," * len(values))[:-1] % tuple(values)
    if "e+1" in text or "e+3" in text or "e-3" in text:
        return list(map(_json_scalar, values))
    texts = text.split(",")
    if text.count(".") == len(texts):  # a point in every text
        return texts
    return [t if "." in t else _json_scalar(v) for t, v in zip(texts, values)]


def _column(values: list, fmt: str) -> list:
    """One table column as JSON texts, or as csv fields, rounded as the
    general path rounds them."""
    kinds = set(map(type, values))
    if fmt == "csv":
        if kinds <= {float, type(None)}:  # None and NaN are empty fields
            return [None if t == "null" else t for t in _float_texts(values)]
        return list(map(_round10, values))
    if kinds <= {str, bool, type(None)}:  # no two of these are equal
        texts = {v: _json_scalar(v) for v in set(values)}
        return [texts[v] for v in values]
    if kinds == {float}:
        return _float_texts(values)
    return list(map(str if kinds == {int} else _json_scalar, values))


def _flatten(obj, prefix=""):
    out = {}
    for key, val in obj.items():
        name = f"{prefix}{key}"
        if isinstance(val, dict):
            out.update(_flatten(val, prefix=f"{name}."))
        elif isinstance(val, list):
            out[name] = _JSON.encode(val)
        else:
            out[name] = val
    return out


def _csv_text(names, rows) -> str:
    """A csv table of ``rows`` under the header ``names``; nothing without rows."""
    buf = io.StringIO()
    if rows:
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(names)
        writer.writerows(rows)
    return buf.getvalue()


def _table_text(table: dict, fmt: str) -> str:
    """A table's records, written one formatted column at a time."""
    n = max((len(v) for v in table.values() if isinstance(v, list)), default=0)
    table = {"type": "record", **table}
    rows = list(zip(*(_column(v if isinstance(v, list) else [v] * n, fmt)
                      for v in table.values())))
    if fmt == "csv":
        return _csv_text(list(table), rows)
    line = "{" + ",".join(_JSON.encode(k).replace("%", "%%") + ":%s" for k in table) + "}\n"
    return "".join([line % row for row in rows])


def _render(records, last: dict, fmt: str) -> str:
    """One ``type: record`` line per record (csv: a table), then ``last``.

    ``records`` is a list of record dicts, or a table: a dict of columns,
    each a list with one scalar per record or one scalar for all.  A table
    comes out as its list of records would.
    """
    last = _JSON.encode(_round10(last)) + "\n"
    if isinstance(records, dict):
        text = _table_text(records, fmt)
    elif fmt == "json":
        text = "".join(_JSON.encode(_round10({"type": "record", **rec})) + "\n"
                       for rec in records)
    else:
        rows = [_flatten(_round10({"type": "record", **rec})) for rec in records]
        names = list(dict.fromkeys(key for row in rows for key in row))
        text = _csv_text(names, [[row.get(key, "") for key in names] for row in rows])
    return text + last if fmt == "json" else text + "# " + last


def _magnitude(vector) -> float:
    """sqrt(max(v.v, 0)).  Where v.v is not finite but the components are,
    the root is taken of v scaled by an exact power of two, so that its
    largest component lies in [0.5, 1), and scaled back: a finite magnitude
    of a vector near the largest double is reported, not null."""
    square = vector.square()
    top = maxabs(vector.components)
    if math.isfinite(square) or not 0.0 < top < math.inf:
        return float(np.sqrt(max(square, 0.0)))
    exp = math.frexp(top)[1]
    scaled = (vector * math.ldexp(1.0, -exp)).square()
    return float(np.ldexp(np.sqrt(max(scaled, 0.0)), exp))


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _error_record(exc) -> dict:
    name = type(exc).__name__
    return {"type": "error", "error": name[:-5] if name.endswith("Error") else name,
            "message": str(exc)}


def _resolve_c(args, scenario) -> float:
    return float(args.c if args.c is not None else scenario.param("c", 1.0))


def _velocity(space, scenario, role, observer, c):
    vec = scenario.vector(space, role)
    luminal = bool(scenario.param(f"luminal_{role}", False))
    return kin.Velocity3(vec, observer, c, luminal=luminal)


# ---------------------------------------------------------------- commands

# name -> (runner, help text, whether it reads a scenario, its --samples
# default or None when it draws nothing, whether it reads --c), in definition
# order; a command takes only the flags it reads.  A runner returns its records
# and the summary's fields; only check's include n_failed, which decides passed.
# A runner imports the modules only it uses (linker, groupoid, checks), so a
# one-shot command loads no more of the package than it runs.
_COMMANDS = {}


def _command(name, help_text, needs_scenario=True, samples=None, reads_c=False):
    def register(run):
        _COMMANDS[name] = (run, help_text, needs_scenario, samples, reads_c)
        return run
    return register


@_command("link", "solve one linking problem from a scenario file")
def _run_link(args, scenario, space):
    from . import linker as lnk
    r = scenario.vector(space, "R")
    s = scenario.vector(space, "S")
    p = scenario.vector(space, "P") if scenario.has_vector("P") else None
    problem = lnk.LinkProblem(r, s, p)
    flags = lnk.admissibility(problem)
    link = lnk.p_link(problem)
    residual = maxabs(link.apply(r).components - s.components)
    rec = {
        "kind": "link",
        "generic": flags.generic,
        "p_transversal": flags.p_transversal,
        "denominator": flags.denominator,
        "planar_input": flags.planar,
        "gamma": link.gamma,
        "residual": residual,
        "matrix": link.mapping.entries.tolist(),
    }
    if p is not None:
        try:
            rec["mu"] = lnk.mu_scalar(problem)
        except RelkinError:
            pass
    return [rec], {"n_records": 1}


@_command("link-scan", "scan many preferred rays for one linking problem",
          samples=100)
def _run_link_scan(args, scenario, space):
    from . import checks as chk
    r = scenario.vector(space, "R")
    s = scenario.vector(space, "S")
    scan = chk.link_ray_scan(r, s, seed=args.seed, n_general=args.samples,
                             n_planar=min(args.samples, 20))
    summary = ("distinct_links", "planar_cluster", "planar_spread",
               "pair_fraction_above_cut", "gamma_min", "gamma_max")
    return ({"kind": "ray", **scan["records"].columns},
            {"n_records": len(scan["records"]), **{key: scan[key] for key in summary}})


@_command("check", "run the full property suite", needs_scenario=False,
          samples=25)
def _run_check(args, scenario, space):
    from . import checks as chk
    results = chk.run_all(seed=args.seed, tol_rel=args.tol_rel, samples=args.samples)
    failed = [res for res in results if not res.passed]
    return ([{"kind": "property", "id": res.id, **vars(res)} for res in results],
            {"n_records": len(results), "n_failed": len(failed),
             "tolerance_induced_failures": sum(res.tolerance_induced for res in failed)})


@_command("boost", "build the boost fixed by an observer and a velocity", reads_c=True)
def _run_boost(args, scenario, space):
    c = _resolve_c(args, scenario)
    obs = kin.Observer(scenario.vector(space, "P"))
    vel = _velocity(space, scenario, "v", obs, c)
    op, residual_p, inverse_residual = kin.verified_boost(obs, vel)
    gam = kin.gamma(vel)
    rec = {
        "kind": "boost",
        "c": c,
        "gamma": gam,
        "speed": vel.speed(),
        "observer_map_residual": residual_p,
        "inverse_residual": inverse_residual,
        "matrix": op.mapping.entries.tolist(),
    }
    return [rec], {"n_records": 1, "gamma": gam}


@_command("transform", "transform event coordinates between observers", reads_c=True)
def _run_transform(args, scenario, space):
    c = _resolve_c(args, scenario)
    robs = kin.Observer(scenario.vector(space, "R"))
    pobs = kin.Observer(scenario.vector(space, "P"))
    vel = _velocity(space, scenario, "v", pobs, c)
    event = scenario.vector(space, "e")
    res = kin.coordinate_transform(robs, pobs, vel, event)
    coords = kin.event_coordinates(robs, event, c)
    rec = {
        "kind": "transform",
        "c": c,
        "t": coords.t,
        "x": coords.x.components.tolist(),
        "t_prime": res.t_prime,
        "x_prime": res.x_prime.components.tolist(),
        "interval_before": res.interval[0],
        "interval_after": res.interval[1],
    }
    # The textbook transform and the velocity round trip are reported where
    # the library accepts them: R must observe v, and t + t' must not vanish.
    try:
        t_e, x_e = kin.einstein_transform(robs, vel, event)
        rec["t_prime_einstein"] = t_e
        rec["x_prime_einstein"] = x_e.components.tolist()
        recovered = kin.urbantke_velocity(coords.t, coords.x, t_e, x_e, c)
        rec["round_trip_speed"] = _magnitude(recovered)
    except (NotObservedError, DegenerateEpochError):
        pass
    return [rec], {"n_records": 1}


@_command("add", "compose two velocities seen by one observer", reads_c=True)
def _run_add(args, scenario, space):
    c = _resolve_c(args, scenario)
    obs = kin.Observer(scenario.vector(space, "P"))
    u = _velocity(space, scenario, "u", obs, c)
    v = _velocity(space, scenario, "v", obs, c)
    total = kin.velocity_add(u, v)
    reverse = kin.velocity_add(v, u)
    rec = {
        "kind": "velocity-sum",
        "c": c,
        "speed_u": u.speed(),
        "speed_v": v.speed(),
        "w": total.vector.components.tolist(),
        "speed": total.speed(),
        "reverse": reverse.vector.components.tolist(),
        "order_discrepancy": maxabs(total.vector.components
                                    - reverse.vector.components),
    }
    if not total.luminal:
        rec["gamma"] = kin.gamma(total)
    return [rec], {"n_records": 1}


@_command("accel", "transform an acceleration between frames", reads_c=True)
def _run_accel(args, scenario, space):
    c = _resolve_c(args, scenario)
    obs = kin.Observer(scenario.vector(space, "P"))
    v = _velocity(space, scenario, "v", obs, c)
    u = _velocity(space, scenario, "u", obs, c)
    a = scenario.vector(space, "a")
    result = kin.acceleration_transform(v, u, a)
    rec = {
        "kind": "acceleration",
        "c": c,
        "a_prime": result.components.tolist(),
        "magnitude": _magnitude(result),
    }
    return [rec], {"n_records": 1}


@_command("groupoid", "compare groupoid and isometric composition for three observers",
          reads_c=True)
def _run_groupoid(args, scenario, space):
    from . import groupoid as grp
    c = _resolve_c(args, scenario)
    names = scenario.param("observers")
    if not names:
        names = sorted(scenario.vectors)
    if len(names) < 3:
        raise ScenarioError("groupoid scenarios need at least three observers")
    objs = [grp.ObserverObject(kin.Observer(scenario.vector(space, n)), label=n)
            for n in names[:3]]
    report = grp.compare_with_isometric(objs[0], objs[1], objs[2], c)
    rec = {"kind": "groupoid", "c": c, "observers": list(names[:3]), **report}
    return [rec], {"n_records": 1,
                   "order_discrepancy": report["order_discrepancy"]}


def _at_least_zero(kind):
    """An argparse type: ``kind(text)``, refused unless finite and >= 0."""
    def parse(text):
        if math.isfinite(value := kind(text)) and value >= 0:
            return value
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    parse.__name__ = kind.__name__  # argparse's "invalid float value" names it
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``relkin`` argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="relkin",
        description="coordinate-free pseudo-Euclidean isometries and "
                    "relativistic kinematics")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, needs_scenario, samples, reads_c) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        if needs_scenario:
            sp.add_argument("--scenario", help="path to a scenario JSON file")
            # Only the spaces built from a scenario take an absolute tolerance.
            sp.add_argument("--tol-abs", type=_at_least_zero(float), default=DEFAULT_TOL_ABS,
                            help="absolute tolerance (default 1e-12)")
        sp.add_argument("--seed", type=_at_least_zero(int), default=0,
                        help="base seed for all sampling (default 0)")
        if samples is not None:
            sp.add_argument("--samples", type=_at_least_zero(int), default=samples,
                            help=f"number of samples to draw (default {samples})")
        if reads_c:
            sp.add_argument("--c", type=float, default=None,
                            help="speed ceiling; overrides the scenario value")
        sp.add_argument("--tol-rel", type=_at_least_zero(float), default=DEFAULT_TOL_REL,
                        help="relative tolerance (default 1e-9)")
        sp.add_argument("--out", default=None,
                        help="write output to this file instead of stdout")
        sp.add_argument("--format", choices=("json", "csv"), default="json",
                        help="output format (default json)")
    return parser


# The library refuses what overflows, and the NaN an overflow can turn into
# (0 * inf), so NumPy's warnings would only repeat it.
@np.errstate(over="ignore", invalid="ignore")
def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    run, _, needs_scenario, _, _ = _COMMANDS[args.command]
    try:
        scenario = space = None
        if needs_scenario:
            if not args.scenario:
                raise ScenarioError(
                    f"the {args.command!r} command needs --scenario")
            scenario = load_scenario(args.scenario)
            if scenario.command != args.command:
                raise ScenarioError(
                    f"scenario {scenario.name!r} is written for "
                    f"{scenario.command!r}, not {args.command!r}")
            space = scenario.build_space(args.tol_rel, args.tol_abs)
        records, stats = run(args, scenario, space)
        passed = not stats.get("n_failed")
        summary = {
            "type": "summary",
            "command": args.command,
            "scenario": scenario.name if scenario is not None else None,
            "seed": args.seed,
            "passed": passed,
        }
        summary.update(stats)
        summary["wall_time_s"] = time.perf_counter() - start
        text, code = _render(records, summary, args.format), 0 if passed else 1
    except Exception as exc:
        # Invalid input exits 2; a broken invariant or any other fault exits 3.
        invalid = (isinstance(exc, RelkinError)
                   and not isinstance(exc, InternalConsistencyError))
        text, code = _render([], _error_record(exc), args.format), 2 if invalid else 3
    try:
        _emit(text, args.out)
    except OSError as exc:  # an --out that cannot be written is invalid input
        error = {**_error_record(exc),
                 "message": f"cannot write --out {args.out!r}: {exc.strerror or exc}"}
        sys.stdout.write(_render([], error, args.format))
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
