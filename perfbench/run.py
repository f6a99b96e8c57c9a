"""relkin benchmark: three workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload ray-scan --seed 1 --seconds 16 --trace 0

Workloads (closed loop, one client, one single-threaded process):

* ``ray-scan``: ``relkin link-scan`` in-process on generated scenarios;
* ``property-suite``: ``relkin check --samples 4`` in-process;
* ``kinematics-stream``: one observer-kinematics chain per op, through the
  library API.

Before timing, every run executes a fixed block of ops at the default seed:
it warms the process up, and its digest is checked against ``golden.json``
(CLI records, ``wall_time_s`` removed).  Then ops run back to back in whole
cycles through the workload's pool of inputs, as many as come nearest to
``--seconds`` of op time at reference speed; every output is checked.
``attempted`` and ``failed`` count distinct inputs (``Ledger``).  Only ops
that succeeded enter the timing metrics.  An op's latency is the CPU time
it took, scaled to a reference speed by a speed gauge read between ops
(``gauge``).

``--trace 0`` reports the end-to-end metrics; set-up time is the median of
several fresh processes (``setup_probe.py``).  ``--trace 1`` runs each op of
the block untraced and then traced (the tracing overhead; the two passes'
digests must agree), then
traces whole cycles of the workload's input mix for ``--seconds`` and reports
the per-layer metrics of ``tracing.py``; spans go to
``.perfbench_out/spans-<workload>.npz``.

The last line of standard output is the result as one JSON object; the
lines before it print every metric by name and unit.  Each run also appends
a full record (machine, commit, seed, metrics) to
``.perfbench_out/results.jsonl``, which ``compare.py`` reads.
"""

import os

# pinned before NumPy loads: OpenBLAS otherwise starts a second thread
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
SPAN_BUDGET = 2_000_000         # about 70 MB of spans
# The speed gauge: a fixed kernel of small NumPy ops and Python calls, the
# kind of work relkin does, run between ops at least every CAL_EVERY_S.
CAL_LOOPS = 600
CAL_EVERY_S = 0.1
CAL_REF_S = 4e-3                # the gauge's time at the reference speed
_CAL_RNG = np.random.default_rng(12345)
_CAL_A = _CAL_RNG.normal(size=(4, 4))
_CAL_V = _CAL_RNG.normal(size=4)

END_TO_END = {
    "items_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_program():
    """Import relkin from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import relkin
    except ImportError as exc:
        raise SystemExit(f"cannot import relkin from {src}: {exc}")
    if Path(relkin.__file__).resolve().parent != src / "relkin":
        raise SystemExit(f"relkin was imported from {relkin.__file__}, not {src}")


class Ledger:
    """Inputs attempted and failed, with the first few reasons.

    Ops cycle through a workload's fixed pool of inputs, so one input runs
    several times in a run.  The ledger counts each input once, under a key
    ``(phase, i % pool)``: an input fails when any run of it raises, exits
    non-zero or fails its output check.  Every run covers the whole pool, so
    ``attempted`` is the same in every run and ``failed`` depends on the
    code and the inputs only, not on how many ops the run fitted in.

    ``wrong`` counts the failed inputs with a failure other than a
    ``RelkinError`` raised by the library, which is the program refusing an
    input: wrong output, a crash, a non-zero exit or a digest mismatch.
    """

    def __init__(self):
        self.seen = set()
        self.refusals = {}          # failed key -> every failure a refusal
        self.reasons = []

    @property
    def attempted(self):
        return len(self.seen)

    @property
    def failed(self):
        return len(self.refusals)

    @property
    def refused(self):
        return sum(self.refusals.values())

    @property
    def wrong(self):
        return self.failed - self.refused

    def record(self, key, reason, refused=False):
        """Count one run of input ``key``."""
        self.seen.add(key)
        if reason is not None:
            self.fail([key], f"input {key}: {reason}", refused)

    def fail(self, keys, reason, refused=False):
        new = [k for k in keys if k not in self.refusals]
        for key in keys:
            self.refusals[key] = self.refusals.get(key, True) and refused
        if new and len(self.reasons) < 5:
            self.reasons.append(("refused: " if refused else "") + reason)


def run_op(wl, i, ledger, phase="run"):
    """One op, timed in CPU seconds of this process; returns (latency_s,
    items, output, ledger key), where items is None for a failed op and the
    output of an op that raised is its exception."""
    key = (phase, i % wl.pool)
    t0 = time.process_time()
    try:
        out = wl.run_op(i)
    except Exception as exc:  # a failed op is counted, the run goes on
        latency = time.process_time() - t0
        from relkin.errors import RelkinError
        ledger.record(key, f"{type(exc).__name__}: {exc}",
                      refused=isinstance(exc, RelkinError))
        return latency, None, exc, key
    latency = time.process_time() - t0
    items, reason = wl.check(i, out)
    ledger.record(key, reason, refused=isinstance(reason, workloads.Refused))
    return latency, None if reason else items, out, key


class Block:
    """One pass over the fixed block of ops."""

    def __init__(self, wl, ledger):
        outs, self.ids = [], []
        for i in wl.block_ops:
            _, _, out, key = run_op(wl, i, ledger, "block")
            outs.append(out)
            self.ids.append(key)
        self.digest = workloads.digest(wl, outs)


class PairedBlock:
    """The block with each op run untraced and then traced, and a gauge
    reading around each run, so that both runs of an op see the machine at
    about the same speed.  ``digests`` are the untraced and the traced
    pass's; ``overhead`` is the traced time over the untraced time, both at
    reference speed, minus 1."""

    def __init__(self, wl, ledger, tracer):
        outs, self.ids, runs, gauges = ([], []), [], [], [gauge()]
        for i in wl.block_ops:
            for traced in (0, 1):
                if traced:
                    tracer.install()
                try:
                    latency, _, out, key = run_op(wl, i, ledger, "block")
                finally:
                    tracer.uninstall()
                gauges.append(gauge())
                outs[traced].append(out)
                runs.append([latency])
                self.ids.append(key)
        scaled = at_reference_speed(runs, gauges)
        self.overhead = sum(scaled[1::2]) / sum(scaled[0::2]) - 1.0
        self.digests = tuple(workloads.digest(wl, o) for o in outs)


def gauge():
    """CPU seconds the speed gauge takes now.

    On a shared host the machine's speed drifts by up to 2x in spells of
    seconds; program and gauge slow down alike, so a CPU time times
    ``CAL_REF_S / gauge()`` is that time at the reference speed.
    """
    a, v = _CAL_A, _CAL_V
    acc = 0.0
    t0 = time.process_time()
    for _ in range(CAL_LOOPS):
        acc += float(np.max(np.abs(a @ a @ v))) + float(v @ a @ v)
    return time.process_time() - t0


def at_reference_speed(segments, gauges):
    """Latencies scaled to the reference speed.

    ``segments[k]`` holds the latencies measured between gauge readings
    ``gauges[k]`` and ``gauges[k + 1]``; their mean stands for the speed in
    between.
    """
    return [lat * 2.0 * CAL_REF_S / (gauges[k] + gauges[k + 1])
            for k, seg in enumerate(segments) for lat in seg]


def timed_loop(wl, seconds, ledger):
    """Whole cycles through the workload's pool of inputs, as many as come
    nearest to ``seconds`` of op time at reference speed, and at least one.
    Whole cycles give every run the same input mix; counting time at
    reference speed keeps the number of cycles from following the
    machine's speed.  A gauge reading is taken before the first op, after
    the last and at least every ``CAL_EVERY_S`` in between.  Returns the
    latency at reference speed, the raw latency, the items and the input of
    each op that succeeded (a failed op counts in the ledger, not in the
    timing), and the CPU share of the wall time the ops took."""
    segments, items, inputs, gauges = [[]], [], [], [gauge()]
    wall, cpu = time.perf_counter(), time.process_time()
    since, spent, i = wall, 0.0, 0  # spent: op time at the last gauge's speed
    while True:
        latency, done, _, _ = run_op(wl, i, ledger)
        spent += latency * CAL_REF_S / gauges[-1]
        if done is not None:
            segments[-1].append(latency)
            items.append(done)
            inputs.append(i % wl.pool)
        i += 1
        if time.perf_counter() - since >= CAL_EVERY_S:
            gauges.append(gauge())
            segments.append([])
            since = time.perf_counter()
        # stop when one more cycle would end further from ``seconds``
        if i % wl.pool == 0 and spent * (1.0 + 0.5 * wl.pool / i) >= seconds:
            break
    cpu_share = (time.process_time() - cpu) / (time.perf_counter() - wall)
    gauges.append(gauge())
    if not items:
        raise SystemExit(f"all {i} timed ops failed: {ledger.reasons}")
    raw = [lat for seg in segments for lat in seg]
    return at_reference_speed(segments, gauges), raw, items, inputs, cpu_share


def traced_loop(wl, seconds, ledger, tracer):
    """Whole cycles of ops, traced, until ``seconds`` pass: at least one
    cycle, and no further cycle once it would take the spans past
    ``SPAN_BUDGET``, which bounds their memory.  Every traced run so covers
    the same input mix.  Returns the number of ops traced."""
    deadline = time.perf_counter() + seconds
    ops = 0
    while True:
        for i in range(ops, ops + wl.cycle):
            tracer.current_op = i
            run_op(wl, i, ledger)
        ops += wl.cycle
        next_cycle = len(tracer.start) * wl.cycle / ops
        if (time.perf_counter() >= deadline
                or len(tracer.start) + next_cycle > SPAN_BUDGET):
            return ops


def measure_setup(workload, seed):
    """Median CPU time from process start to a workload ready for its first
    op, at reference speed, and the raw median."""
    times, gauges = [], [gauge()]
    for k in range(SETUP_REPEATS):
        workdir = OUT / f"setup-{os.getpid()}-{k}"
        with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"),
                               workload, str(seed), str(workdir)],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().split()
            proc.stdout.read()
        shutil.rmtree(workdir, ignore_errors=True)
        if len(line) != 2 or line[0] != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        times.append(float(line[1]))
        gauges.append(gauge())
    scaled = at_reference_speed([[t] for t in times], gauges)
    return statistics.median(scaled), statistics.median(times)


def commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def machine():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "commit": commit(),
    }


def golden_digest(workload):
    with open(HERE / "golden.json", encoding="utf-8") as fh:
        return json.load(fh).get(workload)


def measure(args, workdir):
    cls = workloads.WORKLOADS[args.workload]
    ledger = Ledger()
    notes = {}
    if not args.trace:
        setup_s, notes["raw_setup_s"] = measure_setup(args.workload, args.seed)
    wl = cls(args.seed, str(workdir / "run"))
    ref = (wl if args.seed == workloads.DEFAULT_SEED
           else cls(workloads.DEFAULT_SEED, str(workdir / "ref")))

    first = Block(ref, ledger)
    notes["block_digest"] = first.digest
    if ref.gated:
        expected = golden_digest(args.workload)
        notes["golden"] = "match" if first.digest == expected else "MISMATCH"
        if first.digest != expected:
            ledger.fail(first.ids, f"seed-{workloads.DEFAULT_SEED} digest is not "
                                   f"{expected} from golden.json")

    if not args.trace:
        latencies, raw, items, inputs, notes["cpu_share"] = timed_loop(
            wl, args.seconds, ledger)
        notes["raw_items_per_s"] = sum(items) / sum(raw)
        notes["raw_op_p50_ms"] = 1e3 * statistics.median(raw)
        notes["max_op_ms"] = 1e3 * max(latencies)
        metrics = {
            "items_per_s": sum(items) / sum(latencies),
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "op_tail_ms": None,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        pct_tail = stats.tail(stats.input_medians(latencies, inputs))
        if pct_tail is None:        # 10 ops or fewer: report the slowest
            pct_tail = (100.0, max(latencies))
        notes["tail_percentile"], tail_s = pct_tail
        metrics["op_tail_ms"] = 1e3 * tail_s
        notes["ops"] = len(latencies)
        notes["items"] = sum(items)
        return ledger, metrics, END_TO_END, notes

    tracer = tracing.Tracer()
    pair = PairedBlock(ref, ledger, tracer)
    tracer.reset()                  # only the timed cycles are measured
    tracer.install()
    try:
        ops = traced_loop(wl, args.seconds, ledger, tracer)
    finally:
        tracer.uninstall()
    leftover = tracing.leftover_wrappers()
    if leftover:
        ledger.fail(pair.ids, f"wrappers left installed: {leftover[:3]}")
    same = pair.digests[0] == pair.digests[1] == first.digest
    notes["traced_digest"] = "equal" if same else "DIFFERENT"
    if not same:
        ledger.fail(pair.ids, "traced and untraced block digests differ")
    notes["ops"] = ops
    notes["spans"] = len(tracer.start)
    metrics = tracer.layer_metrics(ops, pair.overhead)
    tracer.save(OUT / f"spans-{args.workload}.npz")
    return ledger, metrics, tracing.PER_LAYER, notes


def report(args, info, ledger, metrics, units, notes):
    """Human-readable lines; the JSON result line follows them."""
    cls = workloads.WORKLOADS[args.workload]
    print(f"relkin benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    if args.trace:
        print(f"  per op of n={notes['ops']} traced ops:")
        print(f"  {'boundary':40s} {'calls/op':>10s} {'self_s/op':>10s} {'us/call':>9s}")
        for name in units:
            if name.endswith(".calls"):
                base = name[:-len(".calls")]
                calls, busy = metrics[name], metrics[base + ".self_s"]
                per = f"{1e6 * busy / calls:9.2f}" if calls else f"{'-':>9s}"
                print(f"  {base:40s} {calls:10.6g} {busy:10.4g} {per}")
        for name in units:
            if not name.endswith((".calls", ".self_s")):
                print(f"  {name:40s} {metrics[name]:.6g} {units[name]}")
    else:
        extra = {
            "items_per_s": f"{cls.item} per second of op time, ops that succeeded",
            "op_p50_ms": f"median of the n={notes['ops']} ops that succeeded",
            "op_tail_ms": f"p{notes['tail_percentile']:.2f} of the n={notes['ops']} ops, "
                          "each at its input's median",
            "setup_s": f"median of {SETUP_REPEATS} fresh processes",
            "peak_rss_mb": "ru_maxrss of this process",
        }
        for name, unit in units.items():
            print(f"  {name:12s} {metrics[name]:14.6g} {unit:4s} ({extra[name]})")
        print(f"  timings above are at reference speed: the speed gauge taking "
              f"{1e3 * CAL_REF_S:g} ms; raw_* below are as measured")
    frac = ledger.failed / ledger.attempted
    print(f"  {'failed_frac':12s} {frac:14.6g} ratio ({ledger.failed} of "
          f"{ledger.attempted} distinct inputs; {ledger.refused} refused by the "
          f"program with its own error, {ledger.wrong} wrong)")
    for key, val in notes.items():
        if key not in ("ops", "tail_percentile"):
            print(f"  {key}: {val}")
    for reason in ledger.reasons:
        print(f"  FAILED {reason}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"inputs-{os.getpid()}"
    started = time.time()
    try:
        ledger, metrics, units, notes = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info = machine()
    report(args, info, ledger, metrics, units, notes)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "started_at": started, "machine": info,
        "correct": ledger.wrong == 0, "attempted": ledger.attempted,
        "failed": ledger.failed, "failed_frac": ledger.failed / ledger.attempted,
        "failures": ledger.reasons, "notes": notes,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
