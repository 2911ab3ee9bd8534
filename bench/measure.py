"""Arithmetic shared by the benchmark: percentiles with failures, self
time of nested spans, and throughput."""
from __future__ import annotations

import math
import statistics
import sys

# JSON has no infinity; a median that lands on a failed op is reported as
# the largest finite double, which any bound treats as a regression.
INF_REPORTED = sys.float_info.max


def op_times_with_failures(times, ok):
    """Per-op seconds with every failed op replaced by +inf, so that fixing
    a failure can never raise a percentile."""
    return [t if good else math.inf for t, good in zip(times, ok)]


def percentile(values, q):
    """The q-th percentile (0 <= q <= 100) by linear interpolation between
    order statistics; +inf entries sort last and propagate when the
    percentile touches them."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi or xs[lo] == xs[hi]:
        return xs[lo]
    if math.isinf(xs[hi]):
        return math.inf
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def relative_times(op_seconds, kernel_seconds):
    """Each op's seconds over the mean of the reference kernel's seconds
    just before and just after it; kernel_seconds has one entry more than
    op_seconds (a kernel run before the first op and after every op)."""
    if len(kernel_seconds) != len(op_seconds) + 1:
        raise ValueError("need one kernel time before each op and after "
                         "the last")
    return [t / (0.5 * (before + after)) for t, before, after
            in zip(op_seconds, kernel_seconds, kernel_seconds[1:])]


def round_cost(labels, values, ok):
    """One pass over the workload: the sum, over the distinct op labels, of
    the median of that op's values, a failed op counting as +inf."""
    total = 0.0
    for label in dict.fromkeys(labels):
        mine = [(v, good) for lab, v, good in zip(labels, values, ok)
                if lab == label]
        total += percentile(op_times_with_failures(*zip(*mine)), 50)
    return total


def reportable(x):
    """x as a finite JSON number (see INF_REPORTED)."""
    return INF_REPORTED if math.isinf(x) else x


def ops_per_s(n_ok, wall_s):
    """Successful ops per second of timed wall time; failed ops spend wall
    time but add nothing."""
    if wall_s <= 0:
        raise ValueError("timed wall time must be positive")
    return n_ok / wall_s


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """{span id: duration minus the time its child spans cover}.

    spans is an iterable of objects with id, parent, start and end; child
    intervals are clipped to the parent and merged before subtraction, so
    overlapping children (threads) are not counted twice."""
    spans = list(spans)
    children = {s.id: [] for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in children:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end))
                for c in children[s.id]]
        kids = [(lo, hi) for lo, hi in kids if hi > lo]
        out[s.id] = (s.end - s.start) - union_length(kids)
    return out


def relative_iqr(values):
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4)
    gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
