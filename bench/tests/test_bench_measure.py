"""Tests of the benchmark's own arithmetic and span recorder.

    python3 -m pytest bench/tests -q
"""
import math
import os
import statistics
import sys
import threading

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from measure import (INF_REPORTED, op_times_with_failures, ops_per_s,  # noqa: E402
                     percentile, relative_iqr, relative_times, reportable,
                     round_cost, self_times, union_length)
from spans import (Recorder, Span, calls_by, layer_metrics,  # noqa: E402
                   workload_layer_metrics)


def test_percentile_matches_median_on_finite_values():
    for xs in ([3.0], [2.0, 1.0], [5.0, 1.0, 4.0, 2.0, 3.0],
               [0.1, 0.7, 0.3, 0.9]):
        assert percentile(xs, 50) == pytest.approx(statistics.median(xs))


def test_percentile_counts_failures_as_inf():
    times = [1.0, 2.0, 3.0, 4.0]
    assert percentile(op_times_with_failures(times, [True] * 4), 50) == 2.5
    # one failure out of four: the median moves up but stays finite
    with_fail = op_times_with_failures(times, [False, True, True, True])
    assert with_fail[0] == math.inf
    assert percentile(with_fail, 50) == 3.5
    # half the ops failed: the median touches +inf
    half = op_times_with_failures(times, [False, False, True, True])
    assert percentile(half, 50) == math.inf
    assert reportable(percentile(half, 50)) == INF_REPORTED
    assert percentile(half, 0) == 3.0


def test_fixing_a_failure_never_raises_the_percentile():
    times = [0.5, 2.0, 1.5, 3.0, 0.7, 2.2, 9.0]
    for n_failed in range(len(times)):
        ok = [i >= n_failed for i in range(len(times))]
        for fixed in range(n_failed):
            better = list(ok)
            better[fixed] = True
            for q in (25, 50, 75, 90):
                before = percentile(op_times_with_failures(times, ok), q)
                after = percentile(op_times_with_failures(times, better), q)
                assert after <= before


def test_ops_per_s_counts_only_successes_over_all_wall_time():
    times = [1.0, 0.5, 0.25, 0.25]
    ok = [True, False, True, True]
    assert ops_per_s(sum(ok), sum(times)) == pytest.approx(1.5)
    assert ops_per_s(0, 2.0) == 0.0
    with pytest.raises(ValueError):
        ops_per_s(1, 0.0)


def test_relative_times_divide_by_the_kernel_on_both_sides():
    # the host slowed down during the first op: the kernel read 1 before
    # it and 3 after it
    assert relative_times([4.0, 6.0], [1.0, 3.0, 3.0]) == pytest.approx(
        [2.0, 2.0])
    with pytest.raises(ValueError):
        relative_times([1.0, 2.0], [1.0, 1.0])


def test_round_cost_sums_each_ops_median():
    labels = ["a", "b", "a", "b", "a", "b"]
    values = [1.0, 10.0, 3.0, 30.0, 2.0, 20.0]
    assert round_cost(labels, values, [True] * 6) == pytest.approx(22.0)
    # a failed op counts as +inf within its own label only
    ok = [True, False, True, True, True, True]
    assert round_cost(labels, values, ok) == pytest.approx(2.0 + 30.0)
    ok = [False, True, False, True, True, True]
    assert round_cost(labels, values, ok) == math.inf
    # fixing a failure never raises the cost
    assert round_cost(labels, values, [True] * 6) <= round_cost(
        labels, values, [True, False, True, True, True, True])


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2.0
    assert union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == 4.0


def _span(i, parent, start, end, name="x", counts=None, thread="main",
          op="op"):
    return Span(i, name, parent, op, thread, start, end, counts or {})


def test_self_time_of_nested_spans():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 3.0),
        _span(2, 1, 1.5, 2.0),
        _span(3, 0, 2.0, 5.0, thread="worker"),   # overlaps span 1
        _span(4, 0, 6.0, 7.0),
        _span(5, 0, 9.5, 11.0),                   # runs past its parent
    ]
    st = self_times(spans)
    assert st[0] == pytest.approx(10.0 - (4.0 + 1.0 + 0.5))
    assert st[1] == pytest.approx(1.5)
    assert st[2] == pytest.approx(0.5)
    assert st[3] == pytest.approx(3.0)
    assert st[5] == pytest.approx(1.5)


def test_relative_iqr():
    vals = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    assert relative_iqr(vals) == pytest.approx((q3 - q1) / q2)


def test_recorder_links_parents_and_keeps_threads_apart():
    rec = Recorder()

    def leaf(n):
        return n

    def outer(n):
        return sum(wleaf(k) for k in range(n))

    wleaf = rec.wrap("leaf", leaf, lambda a, k, r: {"lams": a[0]})
    wouter = rec.wrap("outer", outer)
    assert wouter(3) == 3                       # disabled: records nothing
    assert rec.spans == []
    rec.enabled = True
    with rec.op("op-1"):
        wouter(3)
        workers = [threading.Thread(target=wouter, args=(2,),
                                    name=f"worker-{i}") for i in range(2)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in workers)
    spans = rec.spans
    assert len(spans) == 1 + 3 + 2 * (1 + 2)
    assert {s.op for s in spans} == {"op-1"}
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.name == "leaf":
            parent = by_id[s.parent]
            assert parent.name == "outer" and parent.thread == s.thread
        else:
            assert s.parent is None
    calls = calls_by(spans, "thread")
    assert calls["worker-0"] == {"outer": 1, "leaf": 2}
    assert calls["worker-1"] == {"outer": 1, "leaf": 2}
    assert calls[threading.current_thread().name] == {"outer": 1, "leaf": 3}
    assert calls_by(spans, "op") == {"op-1": {"outer": 3, "leaf": 7}}


def test_recorder_keeps_the_span_of_a_call_that_raises():
    rec = Recorder()
    rec.enabled = True

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        rec.wrap("boom", boom, lambda a, k, r: {"n": 1})()
    (span,) = rec.spans
    assert span.name == "boom" and span.counts == {}


def test_layer_metrics_ratios():
    spans = [
        _span(0, None, 0.0, 4.0, "expansions.root_system", {"vectors": 4}),
        _span(1, 0, 0.0, 1.0, "ode.bvp_eigenfunction"),
        _span(2, 1, 0.0, 0.5, "ode.propagate", {"lams": 5, "lam_panels": 50}),
        _span(3, 0, 1.0, 2.0, "ode.bvp_eigenfunction"),
        _span(4, 3, 1.0, 1.5, "ode.propagate", {"lams": 5, "lam_panels": 50}),
        _span(5, 0, 2.0, 3.0, "ode.propagate", {"lams": 10,
                                                "lam_panels": 100}),
    ]
    m = layer_metrics(spans)
    assert m["ode.propagate_lams"] == 20
    assert m["ode.propagate_mean_batch"] == pytest.approx(20 / 3)
    assert m["ode.propagate_s"] == pytest.approx(2.0)
    assert m["ode.lams_per_s"] == pytest.approx(10.0)
    assert m["expansions.lams_per_root_vector"] == pytest.approx(5.0)
    assert m["expansions.root_vectors"] == 4
    assert m["green.apply_calls"] == 0 and m["green.apply_s"] == 0


def test_probe_fills_in_only_layers_the_workload_never_calls():
    spans = [
        _span(0, None, 0.0, 1.0, "ode.propagate", {"lams": 2,
                                                   "lam_panels": 20}),
        _span(1, None, 2.0, 4.0, "ode.bvp_eigenfunction", op="probe"),
        _span(2, 1, 2.0, 3.0, "ode.propagate", {"lams": 10,
                                                "lam_panels": 100},
              op="probe"),
    ]
    m, from_probe = workload_layer_metrics(spans)
    assert m["ode.propagate_calls"] == 1
    assert m["ode.propagate_mean_batch"] == 2
    assert m["ode.bvp_eigenfunction_calls"] == 1
    assert m["ode.bvp_eigenfunction_s"] == pytest.approx(2.0)
    assert "ode.bvp_eigenfunction_s" in from_probe
    assert "ode.propagate_s" not in from_probe
    assert m["green.apply_s"] == 0
