"""Command line interface.

Every subcommand reads a scenario file (``check`` can run without one),
performs its computation and writes one JSON record per result followed by
a single summary record.  Output is deterministic for a fixed scenario and
seed apart from the ``wall_time_s`` field of the summary.  Exit codes:

* 0: run completed and every checked property held,
* 1: run completed but at least one property failed,
* 2: invalid input (bad scenario, domain error in the data),
* 3: internal error (a verified invariant broke, or an unexpected fault).
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

from . import checks as chk
from . import groupoid as grp
from . import kinematics as kin
from . import linker as lnk
from .errors import InternalConsistencyError, RelkinError, ScenarioError
from .metric_core import maxabs, scalar_product
from .scenario import load as load_scenario

__all__ = ["main"]

# Compact JSON, as json.dumps(obj, separators=(",", ":")) writes it.
_JSON = json.JSONEncoder(separators=(",", ":"))


def _round10(value):
    """Round floats to 10 significant digits, recursively; NaN/inf to None."""
    # The exact types of most record fields come first; subclasses such as
    # np.float64 and bool take the general path below.
    kind = type(value)
    if kind is float:
        return float(f"{value:.10g}") if math.isfinite(value) else None
    if kind is dict:
        return {str(k): _round10(v) for k, v in value.items()}
    if kind is str or value is None:
        return value
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
        return [_round10(x) for x in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_round10(x) for x in value]
    if isinstance(value, dict):
        return {str(k): _round10(v) for k, v in value.items()}
    return value


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


def _render(objects, fmt: str) -> str:
    objects = [_round10(o) for o in objects]
    if fmt == "json":
        return "".join(_JSON.encode(o) + "\n"
                       for o in objects)
    # csv: tabulate the records, keep the other lines as '#' comments
    records = [o for o in objects if o.get("type") == "record"]
    rest = [o for o in objects if o.get("type") != "record"]
    buf = io.StringIO()
    if records:
        rows = [_flatten(r) for r in records]
        names = []
        for row in rows:
            for key in row:
                if key not in names:
                    names.append(key)
        writer = csv.DictWriter(buf, fieldnames=names, restval="",
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    for o in rest:
        buf.write("# " + _JSON.encode(o) + "\n")
    return buf.getvalue()


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _error_name(exc) -> str:
    name = type(exc).__name__
    return name[:-5] if name.endswith("Error") else name


def _resolve_c(args, scenario) -> float:
    if args.c is not None:
        return float(args.c)
    if scenario is not None:
        return float(scenario.param("c", 1.0))
    return 1.0


def _velocity(space, scenario, role, observer, c):
    vec = scenario.vector(space, role)
    luminal = bool(scenario.param(f"luminal_{role}", False))
    return kin.Velocity3(vec, observer, c, luminal=luminal)


# ---------------------------------------------------------------- commands

# name -> (runner, help text, whether the command reads a scenario), in the
# order the commands are defined below.  A runner returns its records, which
# main marks as records, the summary's fields and whether the run passed.
_COMMANDS = {}


def _command(name: str, help_text: str, needs_scenario: bool = True):
    def register(run):
        _COMMANDS[name] = (run, help_text, needs_scenario)
        return run
    return register


@_command("link", "solve one linking problem from a scenario file")
def _run_link(args, scenario, space):
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
    # p_link verifies LR = S on every branch, so a returned link passes.
    return [rec], {"n_records": 1}, True


@_command("link-scan", "scan many preferred rays for one linking problem")
def _run_link_scan(args, scenario, space):
    r = scenario.vector(space, "R")
    s = scenario.vector(space, "S")
    n = args.samples if args.samples is not None else 100
    scan = chk.link_ray_scan(r, s, seed=args.seed, n_general=n,
                             n_planar=min(n, 20))
    objects = [{"kind": "ray", **rec} for rec in scan["records"]]
    stats = {
        "n_records": len(objects),
        "distinct_links": scan["distinct_links"],
        "planar_cluster": scan["planar_cluster"],
        "planar_spread": scan["planar_spread"],
        "pair_fraction_above_cut": scan["pair_fraction_above_cut"],
        "gamma_min": scan["gamma_min"],
        "gamma_max": scan["gamma_max"],
    }
    # The scan verifies LR = S on every ray it returns.
    return objects, stats, True


@_command("check", "run the full property suite", needs_scenario=False)
def _run_check(args, scenario, space):
    samples = args.samples if args.samples is not None else 25
    results = chk.run_all(seed=args.seed, tol_rel=args.tol_rel, samples=samples)
    objects = []
    for res in results:
        objects.append({
            "kind": "property",
            "id": res.id,
            "name": res.name,
            "samples": res.samples,
            "max_residual": res.max_residual,
            "tolerance": res.tolerance,
            "passed": res.passed,
            "tolerance_induced": res.tolerance_induced,
            "detail": res.detail,
        })
    failed = [o for o in objects if not o["passed"]]
    stats = {
        "n_records": len(objects),
        "n_failed": len(failed),
        "tolerance_induced_failures": sum(
            1 for o in failed if o["tolerance_induced"]),
    }
    return objects, stats, not failed


@_command("boost", "build the boost fixed by an observer and a velocity")
def _run_boost(args, scenario, space):
    c = _resolve_c(args, scenario)
    obs = kin.Observer(scenario.vector(space, "P"))
    vel = _velocity(space, scenario, "v", obs, c)
    op = kin.boost(obs, vel)
    gam = kin.gamma(vel)
    target = gam * (obs.vector + (1.0 / c) * vel.vector)
    residual_p = maxabs(op.apply(obs.vector).components - target.components)
    inverse_residual = maxabs(
        (op.mapping @ kin.boost(obs, kin.negate(vel)).mapping).entries
        - np.eye(space.dim))
    rec = {
        "kind": "boost",
        "c": c,
        "gamma": gam,
        "speed": vel.speed(),
        "observer_map_residual": residual_p,
        "inverse_residual": inverse_residual,
        "matrix": op.mapping.entries.tolist(),
    }
    tol = 1e2 * space.tol_rel
    passed = residual_p <= tol * max(1.0, gam) and inverse_residual <= tol
    return [rec], {"n_records": 1, "gamma": gam}, passed


@_command("transform", "transform event coordinates between observers")
def _run_transform(args, scenario, space):
    c = _resolve_c(args, scenario)
    robs = kin.Observer(scenario.vector(space, "R"))
    pobs = kin.Observer(scenario.vector(space, "P"))
    vel = _velocity(space, scenario, "v", pobs, c)
    event = scenario.vector(space, "e")
    res = kin.coordinate_transform(robs, pobs, vel, event)
    coords = kin.event_coordinates(robs, event, c)
    before = -(c * c) * coords.t ** 2 + coords.x.square()
    after = -(c * c) * res.t_prime ** 2 + res.x_prime.square()
    rec = {
        "kind": "transform",
        "c": c,
        "t": coords.t,
        "x": coords.x.components.tolist(),
        "t_prime": res.t_prime,
        "x_prime": res.x_prime.components.tolist(),
        "interval_before": before,
        "interval_after": after,
    }
    if abs(scalar_product(robs.vector, vel.vector)) \
            <= space.tol_rel * max(1.0, maxabs(vel.vector.components)):
        t_e, x_e = kin.einstein_transform(robs, vel, event)
        rec["t_prime_einstein"] = t_e
        rec["x_prime_einstein"] = x_e.components.tolist()
        if abs(coords.t + t_e) > space.tol_abs * max(1.0, abs(coords.t)):
            recovered = kin.urbantke_velocity(coords.t, coords.x, t_e, x_e, c)
            rec["round_trip_speed"] = float(np.sqrt(max(recovered.square(), 0.0)))
    passed = abs(before - after) <= 1e2 * space.tol_rel * max(1.0, abs(before))
    return [rec], {"n_records": 1}, passed


@_command("add", "compose two velocities seen by one observer")
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
    bound = c * (1.0 + 1e2 * space.tol_rel)
    passed = total.speed() <= bound and reverse.speed() <= bound
    return [rec], {"n_records": 1}, passed


@_command("accel", "transform an acceleration between frames")
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
        "magnitude": float(np.sqrt(max(result.square(), 0.0))),
    }
    passed = bool(np.all(np.isfinite(result.components)))
    return [rec], {"n_records": 1}, passed


@_command("groupoid", "compare groupoid and isometric composition for three observers")
def _run_groupoid(args, scenario, space):
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
    passed = report["groupoid_discrepancy"] == 0.0
    return [rec], {"n_records": 1,
                   "order_discrepancy": report["order_discrepancy"]}, passed


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``relkin`` argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="relkin",
        description="coordinate-free pseudo-Euclidean isometries and "
                    "relativistic kinematics")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, needs_scenario) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--scenario", help="path to a scenario JSON file")
        sp.add_argument("--seed", type=int, default=0,
                        help="base seed for all sampling (default 0)")
        sp.add_argument("--samples", type=int, default=None,
                        help="sample count where the command draws samples")
        sp.add_argument("--c", type=float, default=None,
                        help="speed ceiling; overrides the scenario value")
        sp.add_argument("--tol-rel", type=float, default=1e-9,
                        help="relative tolerance (default 1e-9)")
        if needs_scenario:
            # Only the spaces built from a scenario take an absolute tolerance.
            sp.add_argument("--tol-abs", type=float, default=1e-12,
                            help="absolute tolerance (default 1e-12)")
        sp.add_argument("--out", default=None,
                        help="write output to this file instead of stdout")
        sp.add_argument("--format", choices=("json", "csv"), default="json",
                        help="output format (default json)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    run, _, needs_scenario = _COMMANDS[args.command]
    objects = []
    try:
        scenario = load_scenario(args.scenario) if args.scenario else None
        if scenario is None and needs_scenario:
            raise ScenarioError(
                f"the {args.command!r} command needs --scenario")
        if scenario is not None and scenario.command != args.command:
            raise ScenarioError(
                f"scenario {scenario.name!r} is written for "
                f"{scenario.command!r}, not {args.command!r}")
        space = scenario.build_space(args.tol_rel, args.tol_abs) \
            if needs_scenario else None
        records, stats, passed = run(args, scenario, space)
        objects.extend({"type": "record", **rec} for rec in records)
        summary = {
            "type": "summary",
            "command": args.command,
            "scenario": scenario.name if scenario is not None else None,
            "seed": args.seed,
            "passed": passed,
        }
        summary.update(stats)
        summary["wall_time_s"] = time.perf_counter() - start
        objects.append(summary)
        _emit(_render(objects, args.format), args.out)
        return 0 if passed else 1
    except Exception as exc:
        objects.append({"type": "error", "error": _error_name(exc),
                        "message": str(exc)})
        _emit(_render(objects, args.format), args.out)
        # Invalid input exits 2; a broken invariant or any other fault exits 3.
        invalid = (isinstance(exc, RelkinError)
                   and not isinstance(exc, InternalConsistencyError))
        return 2 if invalid else 3


if __name__ == "__main__":
    raise SystemExit(main())
