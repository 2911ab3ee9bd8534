"""Span recorder for the traced benchmark run.

Wrappers are installed from outside the package, at the module attribute
where each caller looks a function up (``diraclab.spectrum.char_det`` is
the name ``localize`` calls, ``diraclab.harness.root_system`` the one
``run_equiconv`` calls), and removed again when the traced section ends.
Each call made while the recorder is enabled becomes one span: name, start,
end, parent span, op id, thread and the work counts of that call.  Spans
stay in memory, one list per thread, until the run writes them out.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

import numpy as np

from measure import self_times


# op id of the traced run's layer probe
PROBE_OP = "probe"


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: str | None
    thread: str
    start: float
    end: float
    counts: dict


class Recorder:
    """Collects spans from every thread.  The main thread names the current
    op; a span opened on a worker thread with no enclosing span on that
    thread belongs to that op and starts a new tree on its thread."""

    def __init__(self):
        self.enabled = False
        self.current_op = None
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._threads = []
        self._local = threading.local()

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], [])   # (open span stack, spans)
            with self._lock:
                self._threads.append(state[1])
        return state

    @contextlib.contextmanager
    def op(self, op_id):
        self.current_op = op_id
        try:
            yield
        finally:
            self.current_op = None

    @property
    def spans(self):
        with self._lock:
            return [s for spans in self._threads for s in spans]

    def wrap(self, name, fn, counts=None):
        """fn with a span around each call; counts(args, kwargs, result)
        gives the work counts of one successful call."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            stack, spans = rec._thread_state()
            sid = next(rec._ids)
            parent, op = stack[-1] if stack else (None, rec.current_op)
            stack.append((sid, op))
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                c = counts(args, kwargs, result) if (
                    counts and result is not None) else {}
                spans.append(Span(sid, name, parent, op,
                                  threading.current_thread().name,
                                  start, end, c))
        return wrapper


def _lams(args, kwargs, idx, key):
    lams = args[idx] if len(args) > idx else kwargs[key]
    return int(np.size(lams))


def _propagate_counts(args, kwargs, result):
    mesh = args[2] if len(args) > 2 else kwargs["mesh"]
    lams = _lams(args, kwargs, 1, "lams")
    return {"lams": lams, "lam_panels": lams * mesh.n_panels}


def _char_det_counts(args, kwargs, result):
    return {"lams": _lams(args, kwargs, 2, "lam")}


def _localize_counts(args, kwargs, result):
    return {"eigs": len(result.values),
            "recovered": sum("recovered" in d for d in result.diagnostics)}


def _root_system_counts(args, kwargs, result):
    return {"vectors": len(result.entries)}


# span name -> (lookup sites "module:attr[.attr]", counts)
LAYERS = {
    "mesh.build_mesh": (["diraclab.mesh:build_mesh",
                         "diraclab.harness:build_mesh"], None),
    "mesh.inner_product": (["diraclab.mesh:inner_product",
                            "diraclab.expansions:inner_product"], None),
    "mesh.cumulative": (["diraclab.mesh:Mesh.cumulative"], None),
    "ode.propagate": (["diraclab.ode:propagate"], _propagate_counts),
    "ode.char_det": (["diraclab.spectrum:char_det"], _char_det_counts),
    "ode.bvp_eigenfunction": (["diraclab.expansions:bvp_eigenfunction"],
                              None),
    "ode.fundamental_matrix": (["diraclab.expansions:fundamental_matrix",
                                "diraclab.green:fundamental_matrix"], None),
    "spectrum.localize": (["diraclab.spectrum:localize",
                           "diraclab.expansions:localize"],
                          _localize_counts),
    "spectrum.winding_count": (["diraclab.spectrum:winding_count"], None),
    "spectrum.contour_family": (["diraclab.spectrum:contour_family"], None),
    "expansions.root_system": (["diraclab.expansions:root_system",
                                "diraclab.harness:root_system"],
                               _root_system_counts),
    "expansions.partial_sum": (["diraclab.expansions:partial_sum",
                                "diraclab.harness:partial_sum"], None),
    "expansions.projector_contour": (
        ["diraclab.expansions:projector_contour"], None),
    "green.green_kernel": (["diraclab.green:green_kernel",
                            "diraclab.expansions:green_kernel",
                            "diraclab.harness:green_kernel"], None),
    "green.green0_kernel": (["diraclab.green:green0_kernel"], None),
    "green.apply": (["diraclab.green:GreenKernel.apply"], None),
    "green.kernel_sup": (["diraclab.harness:kernel_sup"], None),
    "potentials.make_potential": (["diraclab.potentials:make_potential",
                                   "diraclab.harness:make_potential"], None),
    "potentials.comparison_operator": (
        ["diraclab.harness:comparison_operator"], None),
    "potentials.gauge_reduce": (["diraclab.spectrum:gauge_reduce"], None),
    "boundary.unperturbed_spectrum": (
        ["diraclab.boundary:unperturbed_spectrum",
         "diraclab.spectrum:unperturbed_spectrum",
         "diraclab.green:unperturbed_spectrum"], None),
    "harness.run_equiconv": (["diraclab.harness:run_equiconv"], None),
    "harness.sweep": (["diraclab.harness:sweep"], None),
}


def _resolve(site):
    modname, path = site.split(":")
    owner = importlib.import_module(modname)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


@contextlib.contextmanager
def installed(recorder):
    """Install a wrapper at every lookup site, enable the recorder, and
    restore the original attributes on exit."""
    saved = []
    try:
        for name, (sites, counts) in LAYERS.items():
            for site in sites:
                owner, attr = _resolve(site)
                orig = getattr(owner, attr)
                saved.append((owner, attr, orig))
                setattr(owner, attr, recorder.wrap(name, orig, counts))
        recorder.enabled = True
        yield recorder
    finally:
        recorder.enabled = False
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans):
    """Per-layer metrics derived from spans alone.  A layer the workload
    never calls reports 0."""
    by_id = {s.id: s for s in spans}
    selft = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def calls(name):
        return len(by_name[name])

    def total(name):
        return sum(s.end - s.start for s in by_name[name])

    def self_total(name):
        return sum(selft[s.id] for s in by_name[name])

    def count(name, key, within=None):
        return sum(s.counts.get(key, 0) for s in by_name[name]
                   if within is None or _inside(s, within, by_id))

    prop_lams = count("ode.propagate", "lams")
    prop_self = self_total("ode.propagate")
    eigs_found = count("spectrum.localize", "eigs")
    bvp_calls = calls("ode.bvp_eigenfunction")
    return {
        "mesh.build_mesh_s": total("mesh.build_mesh"),
        "mesh.inner_product_calls": calls("mesh.inner_product"),
        "mesh.inner_product_s": total("mesh.inner_product"),
        "mesh.cumulative_s": total("mesh.cumulative"),
        "ode.propagate_calls": calls("ode.propagate"),
        "ode.propagate_lams": prop_lams,
        "ode.propagate_lam_panels": count("ode.propagate", "lam_panels"),
        "ode.propagate_mean_batch": _ratio(prop_lams,
                                           calls("ode.propagate")),
        "ode.propagate_s": prop_self,
        "ode.lams_per_s": _ratio(prop_lams, prop_self),
        "ode.char_det_calls": calls("ode.char_det"),
        "ode.char_det_lams": count("ode.char_det", "lams"),
        "ode.char_det_s": total("ode.char_det"),
        "ode.bvp_eigenfunction_calls": bvp_calls,
        "ode.bvp_eigenfunction_s": total("ode.bvp_eigenfunction"),
        "ode.fundamental_matrix_calls": calls("ode.fundamental_matrix"),
        "spectrum.localize_s": total("spectrum.localize"),
        "spectrum.winding_calls": calls("spectrum.winding_count"),
        "spectrum.winding_lams": count("ode.char_det", "lams",
                                       within="spectrum.winding_count"),
        "spectrum.contour_family_s": total("spectrum.contour_family"),
        "spectrum.char_det_lams_per_eig": _ratio(
            count("ode.char_det", "lams"), eigs_found),
        "spectrum.pairs_recovered": count("spectrum.localize", "recovered"),
        "expansions.root_system_calls": calls("expansions.root_system"),
        "expansions.root_system_s": total("expansions.root_system"),
        "expansions.root_vectors": count("expansions.root_system",
                                         "vectors"),
        "expansions.lams_per_root_vector": _ratio(
            count("ode.propagate", "lams", within="ode.bvp_eigenfunction"),
            bvp_calls),
        "expansions.partial_sum_calls": calls("expansions.partial_sum"),
        "expansions.partial_sum_s": total("expansions.partial_sum"),
        "expansions.projector_contour_calls": calls(
            "expansions.projector_contour"),
        "expansions.projector_contour_s": total(
            "expansions.projector_contour"),
        "expansions.projector_nodes": sum(
            1 for s in by_name["green.green_kernel"]
            if _inside(s, "expansions.projector_contour", by_id)),
        "green.green_kernel_calls": calls("green.green_kernel"),
        "green.green_kernel_s": total("green.green_kernel"),
        "green.green0_kernel_s": total("green.green0_kernel"),
        "green.apply_calls": calls("green.apply"),
        "green.apply_s": total("green.apply"),
        "green.kernel_sup_s": total("green.kernel_sup"),
        "potentials.make_potential_s": total("potentials.make_potential"),
        "potentials.comparison_operator_s": total(
            "potentials.comparison_operator"),
        "potentials.gauge_reduce_s": total("potentials.gauge_reduce"),
        "boundary.unperturbed_spectrum_calls": calls(
            "boundary.unperturbed_spectrum"),
        "boundary.unperturbed_spectrum_s": total(
            "boundary.unperturbed_spectrum"),
    }


def workload_layer_metrics(spans):
    """(metrics, names taken from the probe): layer_metrics of the spans
    outside op PROBE_OP, except that a metric reading 0 there, on a layer
    the workload never calls, is taken from the probe's spans."""
    metrics = layer_metrics([s for s in spans if s.op != PROBE_OP])
    probed = layer_metrics([s for s in spans if s.op == PROBE_OP])
    from_probe = [name for name, value in metrics.items() if value == 0]
    for name in from_probe:
        metrics[name] = probed[name]
    return metrics, from_probe


def _inside(span, ancestor_name, by_id):
    p = span.parent
    while p is not None:
        s = by_id[p]
        if s.name == ancestor_name:
            return True
        p = s.parent
    return False


def calls_by(spans, attr):
    """{span.<attr>: {span name: calls}}: by "thread" keeps the counts of
    concurrent workers apart, by "op" gives each op's work."""
    out = defaultdict(lambda: defaultdict(int))
    for s in spans:
        out[getattr(s, attr)][s.name] += 1
    return {key: dict(c) for key, c in out.items()}


def dump(spans):
    return [asdict(s) for s in spans]
