"""Order statistics shared by the benchmark and its compare mode."""

from __future__ import annotations

import math
import statistics


def tail(values):
    """The highest percentile, at most the 95th, with at least 10 samples
    above it.

    Returns ``(percentile, value)``, the value being the k-th smallest sample
    at percentile ``100 k / n``: k = n - 10, so 100 samples give the 90th
    percentile, unless that passes the 95th; 200 samples or more give the
    95th.  On a shared machine, host stalls hit about 2% of short ops, and
    past the 95th percentile they, not the program, decide the value.
    ``None`` when there are not more than 10 samples.
    """
    n = len(values)
    if n <= 10:
        return None
    k = min(n - 10, math.ceil(0.95 * n))
    return 100.0 * k / n, sorted(values)[k - 1]


def input_medians(values, inputs):
    """Each value replaced by the median of the values of its input.

    A run takes every input once per cycle.  The median over an input's
    runs keeps what the program spends on that input and drops the jitter a
    shared host adds to single ops: at p95 of kinematics-stream's 2 ms
    chains that jitter moved the plain percentile by up to 20% between runs.
    """
    by_input = {}
    for value, key in zip(values, inputs):
        by_input.setdefault(key, []).append(value)
    median = {key: statistics.median(vals) for key, vals in by_input.items()}
    return [median[key] for key in inputs]


def quartiles(values):
    """First and third quartile, as ``statistics.quantiles(values, n=4)``."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3
