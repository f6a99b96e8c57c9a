"""Per-layer tracing from outside the program.

``Tracer.install`` wraps each boundary below and rebinds every module-level
name and class attribute in the ``relkin`` package that refers to the
original (modules import names directly, as in ``from .metric_core import
scalar_product``, so patching the defining module alone would miss calls).
``Tracer.uninstall`` puts every original back.

A span is one wrapped call: name, start, end, parent span and op id, kept in
flat arrays in memory and written to a file when the run ends.  A span's self
time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# (span name, module, attribute path in the module)
BOUNDARIES = (
    ("metric_core.scalar_product", "relkin.metric_core", "scalar_product"),
    ("metric_core.maxabs", "relkin.metric_core", "maxabs"),
    ("metric_core.trivector_maxabs", "relkin.metric_core", "trivector_maxabs"),
    ("metric_core.MetricSpace.signature", "relkin.metric_core",
     "MetricSpace.signature"),
    ("isometry.isometry_from_bivector", "relkin.isometry",
     "isometry_from_bivector"),
    ("isometry.verify", "relkin.isometry", "Isometry.__post_init__"),
    ("isometry.Isometry.distance", "relkin.isometry", "Isometry.distance"),
    ("linker.p_link", "relkin.linker", "p_link"),
    ("linker.planar_link", "relkin.linker", "planar_link"),
    ("linker.admissibility", "relkin.linker", "admissibility"),
    ("linker.mu_scalar", "relkin.linker", "mu_scalar"),
    ("linker.ternary_velocity", "relkin.linker", "ternary_velocity"),
    ("linker.binary_velocity", "relkin.linker", "binary_velocity"),
    ("kinematics.Observer.init", "relkin.kinematics", "Observer.__init__"),
    ("kinematics.Velocity3.init", "relkin.kinematics", "Velocity3.__init__"),
    ("kinematics.boost", "relkin.kinematics", "boost"),
    ("kinematics.coordinate_transform", "relkin.kinematics",
     "coordinate_transform"),
    ("kinematics.velocity_add", "relkin.kinematics", "velocity_add"),
    ("kinematics.velocity_subtract", "relkin.kinematics", "velocity_subtract"),
    ("kinematics.acceleration_transform", "relkin.kinematics",
     "acceleration_transform"),
    ("groupoid.hom", "relkin.groupoid", "hom"),
    ("groupoid.compare_with_isometric", "relkin.groupoid",
     "compare_with_isometric"),
    ("checks.link_ray_scan", "relkin.checks", "link_ray_scan"),
    ("checks.run_all", "relkin.checks", "run_all"),
    ("scenario.load", "relkin.scenario", "load"),
    ("cli.main", "relkin.cli", "main"),
)
# every public random_* sampler gets a span "sampling.<name>"; the layer
# metrics sum them
SAMPLING_MODULE = "relkin.sampling"

# calls and self time are per timed op, so runs of different length compare
PER_LAYER = {f"{name}.{kind}": unit for name, _, _ in BOUNDARIES
             for kind, unit in (("calls", "calls/op"), ("self_s", "s/op"))}
PER_LAYER.update({
    "sampling.calls": "calls/op",
    "sampling.self_s": "s/op",
    "linker.admissibility_per_link": "ratio",
    "checks.ray_accept_ratio": "ratio",
    "errors.raised": "count/op",
    "trace.overhead_frac": "ratio",
})

_MARK = "_perfbench_span"


def _program_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "relkin" or name.startswith("relkin."))]


def _holders():
    """Every relkin module and every class defined in one."""
    holders, seen = [], set()
    for mod in _program_modules():
        holders.append(mod)
        for val in vars(mod).values():
            if (isinstance(val, type) and val.__module__.startswith("relkin")
                    and id(val) not in seen):
                seen.add(id(val))
                holders.append(val)
    return holders


def leftover_wrappers():
    """Names in the program still bound to a tracing wrapper."""
    return [f"{getattr(h, '__name__', h)}.{attr}"
            for h in _holders() for attr, val in vars(h).items()
            if hasattr(val, _MARK)]


def _resolve(module: str, path: str):
    obj = sys.modules[module]
    for part in path.split("."):
        obj = vars(obj)[part]
    return obj


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the time its child spans cover.

    Spans from one thread nest: a child lies inside its parent and siblings
    do not overlap, so the covered time is the sum of the children's
    durations.  Input that breaks this raises ``ValueError``.
    """
    start, end = np.asarray(start, float), np.asarray(end, float)
    parent = np.asarray(parent, np.int64)
    dur = end - start
    has = parent >= 0
    kids, par = np.flatnonzero(has), parent[has]
    if np.any(start[kids] < start[par]) or np.any(end[kids] > end[par]):
        raise ValueError("a child span is not inside its parent")
    order = np.lexsort((start[kids], par))
    kids, par = kids[order], par[order]
    same = par[1:] == par[:-1]
    if np.any(start[kids[1:]][same] < end[kids[:-1]][same]):
        raise ValueError("sibling spans overlap")
    return dur - np.bincount(par, weights=dur[kids], minlength=dur.size)


class Tracer:
    """Span recorder; ``current_op`` tags the spans of the op in progress."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.current_op = -1
        self.errors = {}            # id -> exception, kept so ids stay unique
        self._stack = [-1]
        self._patches = []
        self._wrappers = None

    def install(self):
        if self._wrappers is None:
            self._wrappers = self._make_wrappers()
        for holder in _holders():
            for attr, val in list(vars(holder).items()):
                hit = self._wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(holder, attr, hit[1])
                    self._patches.append((holder, attr, val))

    def _make_wrappers(self):
        """{id(original): (original, wrapper)} for every boundary."""
        from relkin.errors import RelkinError
        for module in {m for _, m, _ in BOUNDARIES} | {SAMPLING_MODULE}:
            importlib.import_module(module)
        targets = [(name, _resolve(module, path))
                   for name, module, path in BOUNDARIES]
        sampling = sys.modules[SAMPLING_MODULE]
        targets += [(f"sampling.{attr}", fn) for attr, fn in vars(sampling).items()
                    if attr.startswith("random_") and callable(fn)
                    and getattr(fn, "__module__", None) == SAMPLING_MODULE]
        return {id(fn): (fn, self._wrap(name, fn, RelkinError))
                for name, fn in targets}

    def reset(self):
        """Drop the spans and errors recorded so far; call between ops.  The
        arrays are emptied in place, because the wrappers hold them."""
        for arr in (self.name, self.start, self.end, self.parent, self.op):
            del arr[:]
        self.errors.clear()

    def uninstall(self):
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    def _wrap(self, name, fn, error_type):
        idx = len(self.names)
        self.names.append(name)
        names, start, end = self.name, self.start, self.end
        parent, ops, stack, errors = self.parent, self.op, self._stack, self.errors
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            names.append(idx)
            parent.append(stack[-1])
            ops.append(tracer.current_op)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except error_type as exc:
                errors[id(exc)] = exc
                raise
            finally:
                end[i] = clock()
                stack.pop()

        setattr(wrapper, _MARK, name)
        return wrapper

    def layer_metrics(self, ops: int, overhead_frac: float) -> dict:
        """Per-op calls and self time of each boundary over the spans
        recorded, which cover ``ops`` ops, plus the ratios, the error count
        and the overhead."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        own = self_times(np.frombuffer(self.start), np.frombuffer(self.end), parent)
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        busy = np.bincount(name, weights=own, minlength=n)
        idx = {nm: k for k, nm in enumerate(self.names)}
        out = {}
        for nm, _, _ in BOUNDARIES:
            out[f"{nm}.calls"] = calls[idx[nm]] / ops
            out[f"{nm}.self_s"] = busy[idx[nm]] / ops
        sampling = [k for k, nm in enumerate(self.names) if nm.startswith("sampling.")]
        out["sampling.calls"] = calls[sampling].sum() / ops
        out["sampling.self_s"] = busy[sampling].sum() / ops
        links = calls[idx["linker.p_link"]] + calls[idx["linker.planar_link"]]
        out["linker.admissibility_per_link"] = (
            calls[idx["linker.admissibility"]] / links if links else 0.0)
        in_scan = np.zeros(name.size, dtype=bool)
        has = parent >= 0
        in_scan[has] = name[parent[has]] == idx["checks.link_ray_scan"]
        candidates = np.count_nonzero(in_scan & (name == idx["linker.admissibility"]))
        accepted = np.count_nonzero(in_scan & (name == idx["linker.p_link"]))
        out["checks.ray_accept_ratio"] = accepted / candidates if candidates else 0.0
        out["errors.raised"] = len(self.errors) / ops
        out["trace.overhead_frac"] = overhead_frac
        return {key: float(val) for key, val in out.items()}

    def save(self, path):
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.name, np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, np.int64),
            op=np.frombuffer(self.op, np.int64))
