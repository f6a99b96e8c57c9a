"""Compare two result sets of the benchmark: parent and change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records ``run.py`` appends to
``.perfbench_out/results.jsonl``; untraced runs are compared.  Run both sides
with the same ``--seconds``, alternating which side runs first.  For every
workload it prints each side's failed inputs out of those attempted, and for
every end-to-end metric both medians and quartiles, the pair wins, the
change's median as a ratio of the parent's, and a verdict:

* ``more failures``: replaces ``improved`` and ``no worse`` when the change
  fails a larger share of its inputs than the parent: no timing gain counts
  then;
* ``improved``: at least 10 pairs, the change wins at least nine tenths of
  them (ties count for neither), and the medians differ by more than the
  parent's own spread (the distance between its quartiles);
* ``no worse``: the change's median is not worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
* ``regressed``: it is worse by more than the bound;
* ``unresolved``: the parent's spread, as a share of its median, is wider
  than the bound, unless every change run is better than every parent run.

Runs pair up by seed when both sides ran the same seeds, else in run order.
Run both sides on the same seeds.  The inputs that fail at the commit that
introduced the benchmark are the same at every seed, so the failed share
moves only with the code or with inputs a seed draws.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path):
    """{workload: [record, ...]} of the untraced runs, in run order."""
    runs = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if not rec["trace"]:
                    runs.setdefault(rec["workload"], []).append(rec)
    for recs in runs.values():
        recs.sort(key=lambda r: r["started_at"])
    return runs


def pairs(parent, change):
    by_seed = {r["seed"]: r for r in parent}
    change_seeds = sorted(r["seed"] for r in change)
    if len(by_seed) == len(parent) and sorted(by_seed) == change_seeds:
        return [(by_seed[r["seed"]], r) for r in change]
    return list(zip(parent, change))


def wins(paired, better):
    """Pairs the change wins; ties count for neither side."""
    sign = 1.0 if better == "higher" else -1.0
    return sum(1 for p, c in paired if sign * (c - p) > 0)


def failed_share(recs):
    return sum(r["failed"] for r in recs) / sum(r["attempted"] for r in recs)


def more_failures(p_recs, c_recs):
    return failed_share(c_recs) > failed_share(p_recs)


def verdict(parent, change, paired, better, bound):
    """``parent``/``change``: metric values; ``paired``: (parent, change)."""
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = stats.quartiles(parent)
    if (len(paired) >= MIN_PAIRS and wins(paired, better) >= WIN_SHARE * len(paired)
            and sign * (c_med - p_med) > q3 - q1):
        return "improved"
    if (q3 - q1) / abs(p_med) > bound:
        beats_all = (min(change) > max(parent) if sign > 0
                     else max(change) < min(parent))
        return "no worse" if beats_all else "unresolved"
    worse_by = sign * (p_med - c_med) / abs(p_med)
    return "no worse" if worse_by <= bound else "regressed"


def compare(parent_runs, change_runs, spec):
    lines = []
    for workload in sorted(set(parent_runs) | set(change_runs)):
        p_recs, c_recs = parent_runs.get(workload, []), change_runs.get(workload, [])
        if len(p_recs) < 2 or len(c_recs) < 2:
            lines.append(f"{workload}: needs at least 2 runs per side "
                         f"(parent {len(p_recs)}, change {len(c_recs)})")
            continue
        paired = pairs(p_recs, c_recs)
        worse = more_failures(p_recs, c_recs)
        lines.append(f"{workload}: {len(p_recs)} parent runs, {len(c_recs)} "
                     f"change runs, {len(paired)} pairs")
        if sorted(r["seed"] for r in p_recs) != sorted(r["seed"] for r in c_recs):
            lines.append("  the two sides ran different seeds: failed shares "
                         "are not comparable")
        lines.append("  failed inputs: " + "  ".join(
            f"{side} {sum(r['failed'] for r in recs)} of "
            f"{sum(r['attempted'] for r in recs)} ({failed_share(recs):.4%})"
            for side, recs in (("parent", p_recs), ("change", c_recs)))
            + ("  -> more failures" if worse else ""))
        for m in spec["end_to_end"]:
            name, unit = m["name"], m["unit"]
            pv = [r["metrics"][name]["value"] for r in p_recs]
            cv = [r["metrics"][name]["value"] for r in c_recs]
            pp = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                  for p, c in paired]
            ties = sum(1 for p, c in pp if c == p)
            verdict_line = verdict(pv, cv, pp, m["better"], m["bound"])
            if worse and verdict_line in ("improved", "no worse"):
                verdict_line = "more failures"
            p_med, c_med = statistics.median(pv), statistics.median(cv)
            (pq1, pq3), (cq1, cq3) = stats.quartiles(pv), stats.quartiles(cv)
            if name == "op_tail_ms":
                pct = [statistics.median([r["notes"]["tail_percentile"] for r in recs])
                       for recs in (p_recs, c_recs)]
                lines.append(f"  op_tail_ms is at percentile p{pct[0]:.2f} "
                             f"(parent) and p{pct[1]:.2f} (change)")
            lines.append(
                f"  {name:12s} parent {p_med:.6g} {unit} [{pq1:.6g}, {pq3:.6g}]"
                f"  change {c_med:.6g} {unit} [{cq1:.6g}, {cq3:.6g}]"
                f"  change/parent = {c_med / p_med:.4f} (base: parent median "
                f"{p_med:.6g} {unit})  wins {wins(pp, m['better'])}/{len(pp)}"
                f" ties {ties}"
                f"  bound {m['bound']:.0%} ({m['better']} is better)"
                f"  -> {verdict_line}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="results.jsonl of the parent commit")
    parser.add_argument("change", help="results.jsonl of the change")
    args = parser.parse_args(argv)
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    for line in compare(load(args.parent), load(args.change), spec):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
