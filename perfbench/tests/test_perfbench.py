"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_the_children_it_covers():
    # 0 [0, 10] has children 1 [1, 4] and 2 [5, 9]; 2 has child 3 [6, 7]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    parent = [-1, 0, 0, 2]
    assert tracing.self_times(start, end, parent).tolist() == [3.0, 3.0, 3.0, 1.0]


def test_self_time_rejects_spans_that_do_not_nest():
    with pytest.raises(ValueError):
        tracing.self_times([0.0, 1.0, 3.0], [10.0, 4.0, 5.0], [-1, 0, 0])
    with pytest.raises(ValueError):
        tracing.self_times([0.0, 1.0], [2.0, 3.0], [-1, 0])


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = list(range(100, 0, -1))          # 1..100, unsorted
    assert stats.tail(values) == (90.0, 90)
    assert sum(1 for v in values if v > 90) == 10
    assert stats.tail(list(range(1, 151))) == (100.0 * 140 / 150, 140)
    assert stats.tail(list(range(11))) == (100.0 * 1 / 11, 0)
    assert stats.tail(list(range(10))) is None


def test_tail_stops_at_the_95th_percentile():
    assert stats.tail(list(range(1, 201))) == (95.0, 190)
    assert stats.tail(list(range(1, 10001))) == (95.0, 9500)


def test_input_medians_drop_the_jitter_of_single_ops():
    # inputs 0 and 1, three cycles; one run of input 0 hit a host stall
    values = [1.0, 2.0, 9.0, 2.1, 1.1, 1.9]
    inputs = [0, 1, 0, 1, 0, 1]
    assert stats.input_medians(values, inputs) == [1.1, 2.0, 1.1, 2.0, 1.1, 2.0]


class _Flaky:
    """A workload of 8 inputs: odd ones raise, inputs 4k+2 give wrong output."""

    cycle = 2
    pool = 8
    block_ops = (0, 1, 2, 9)            # input 1 twice

    def digest_line(self, out):
        return b""

    def run_op(self, i):
        if i % 2:
            from relkin.errors import NotObservedError
            raise NotObservedError("refused")
        return i

    def check(self, i, out):
        return 5, ("wrong" if i % 4 == 2 else None)


def test_failed_ops_count_in_the_ledger_not_in_the_timing():
    ledger = run.Ledger()
    latencies, raw, items, inputs, _ = run.timed_loop(_Flaky(), 0.01, ledger)
    assert len(latencies) == len(raw) == len(inputs) >= 2
    assert set(inputs) == {0, 4}
    assert items == [5] * len(latencies)
    assert (ledger.attempted, ledger.failed, ledger.refused) == (8, 6, 4)


def test_the_ledger_counts_each_input_once_whatever_the_run_length():
    counts = set()
    for seconds in (0.0, 0.05):
        ledger = run.Ledger()
        run.timed_loop(_Flaky(), seconds, ledger)
        run.Block(_Flaky(), ledger)     # the block's inputs count apart
        counts.add((ledger.attempted, ledger.failed, ledger.wrong))
    assert counts == {(8 + 3, 6 + 2, 2 + 1)}


def test_latencies_scale_by_the_gauge_around_them():
    ref = run.CAL_REF_S
    scaled = run.at_reference_speed([[1.0, 2.0], [], [3.0]],
                                    [ref, ref, 2 * ref, 4 * ref])
    assert scaled == [1.0, 2.0, 1.0]


def test_traced_loop_runs_whole_cycles():
    tracer = tracing.Tracer()
    ops = run.traced_loop(_Flaky(), 0.0, run.Ledger(), tracer)
    assert ops == 2
    assert tracer.current_op == 1


def _snapshot():
    return {(id(h), attr): val for h in tracing._holders()
            for attr, val in vars(h).items()}


def test_wrappers_are_removed_after_a_traced_run():
    wl = workloads.KinematicsStream(workloads.DEFAULT_SEED, "unused")
    tracer = tracing.Tracer()
    tracer.install()                          # imports every traced module
    tracer.uninstall()
    before = _snapshot()
    tracer.install()
    try:
        assert tracing.leftover_wrappers()
        wl.run_op(0)
    finally:
        tracer.uninstall()
    assert tracing.leftover_wrappers() == []
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is val for key, val in before.items())
    assert len(tracer.start) > 0


def test_every_boundary_is_traced():
    wl = workloads.KinematicsStream(workloads.DEFAULT_SEED, "unused")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.current_op = 0
        wl.run_op(0)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(1, 0.0)
    assert list(metrics) == list(tracing.PER_LAYER)
    for name in ("metric_core.scalar_product", "kinematics.Observer.init",
                 "kinematics.velocity_add", "isometry.verify",
                 "groupoid.compare_with_isometric", "linker.ternary_velocity"):
        assert metrics[f"{name}.calls"] > 0, name


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_gives_the_untraced_digest(name, tmp_path):
    wl = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, str(tmp_path))
    ops = wl.block_ops[:4]

    def block():
        outs = [wl.run_op(i) for i in ops]
        assert all(wl.check(i, out)[1] is None for i, out in zip(ops, outs))
        return workloads.digest(wl, outs)

    untraced = block()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = block()
    finally:
        tracer.uninstall()
    assert traced == untraced
    if wl.gated and len(ops) == len(wl.block_ops):
        assert untraced == run.golden_digest(name)


def test_benchmark_json_names_the_metrics_the_runs_print():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_compare_verdicts():
    parent = [100.0 + k for k in range(10)]
    faster = [v * 0.8 for v in parent]
    paired = list(zip(parent, faster))
    assert compare.verdict(parent, faster, paired, "lower", 0.1) == "improved"
    slower = [v * 1.05 for v in parent]
    paired = list(zip(parent, slower))
    assert compare.verdict(parent, slower, paired, "lower", 0.1) == "no worse"
    slower = [v * 1.3 for v in parent]
    paired = list(zip(parent, slower))
    assert compare.verdict(parent, slower, paired, "lower", 0.1) == "regressed"
    noisy = [50.0, 150.0, 80.0, 120.0, 100.0]
    assert compare.verdict(noisy, noisy, list(zip(noisy, noisy)),
                           "lower", 0.1) == "unresolved"


def test_compare_refuses_a_gain_when_more_ops_fail():
    def recs(values, failed):
        return [{"seed": k, "started_at": k, "failed": failed, "attempted": 100,
                 "metrics": {"items_per_s": {"value": v}}} for k, v in enumerate(values)]

    spec = {"end_to_end": [{"name": "items_per_s", "unit": "1/s",
                            "better": "higher", "bound": 0.1}]}
    parent = [100.0 + k for k in range(10)]
    faster = [v * 1.5 for v in parent]
    lines = compare.compare({"w": recs(parent, 0)}, {"w": recs(faster, 0)}, spec)
    assert lines[-1].endswith("-> improved")
    lines = compare.compare({"w": recs(parent, 0)}, {"w": recs(faster, 1)}, spec)
    assert lines[-1].endswith("-> more failures")
    assert "parent 0 of 1000" in lines[1] and "change 10 of 1000" in lines[1]
    lines = compare.compare({"w": recs(parent, 20)}, {"w": recs(faster, 20)}, spec)
    assert lines[-1].endswith("-> improved")


def test_property_suite_tells_a_refusal_from_a_wrong_result():
    wl = workloads.PropertySuite(workloads.DEFAULT_SEED, "unused")

    def output(code, detail):
        props = [{"kind": "property", "id": k, "name": f"p{k}", "samples": 4,
                  "passed": k != 14, "detail": detail if k == 14 else {}}
                 for k in range(36)]
        return code, "\n".join(json.dumps(p) for p in props)

    items, reason = wl.check(0, output(1, {"error": "InternalConsistencyError"}))
    assert items == 144 and isinstance(reason, workloads.Refused)
    for out in (output(1, {}), output(1, {"error": "ZeroDivisionError"}),
                output(0, {"error": "InternalConsistencyError"})):
        reason = wl.check(0, out)[1]
        assert reason and not isinstance(reason, workloads.Refused)
    assert wl.check(0, output(0, None)[:1] + ("",))[1]


def test_kinematics_check_catches_a_wrong_sum():
    wl = workloads.KinematicsStream(workloads.DEFAULT_SEED, "unused")
    out = wl.run_op(0)
    assert wl.check(0, out) == (1, None)
    out["w_uv"] = out["w_uv"] * (1.0 + 1e-6)
    assert wl.check(0, out)[1] is not None
    np.testing.assert_equal(wl.run_op(0)["w_vu"], out["w_vu"])
