"""Benchmark workloads: inputs, ops, output checks and accuracy
certificates.

Every workload is a closed loop in one process: the next op starts when the
previous one returns.  Ops call the package through module attributes
(``E.root_system``, ``S.localize``) at call time, so the traced run's
wrappers see them.  The seed picks the ``random_trig`` test function ``f``
from a pool of F_POOL, so that every input the benchmark can make has
reference rows recorded in ``reference.json``.
"""
from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import diraclab.boundary as B
import diraclab.expansions as E
import diraclab.green as G
import diraclab.harness as H
import diraclab.mesh as M
import diraclab.ode as O
import diraclab.potentials as PT
import diraclab.spectrum as S

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

F_POOL = 8
PANELS = 128
ORDER = 5
REL_TOL = 1e-10             # ROADMAP speed-up rule for report rows
# Sampled <y_j, z_k> - delta_jk: at most 1.3e-5 on the configs here (power),
# about 1e-2 for a step whose jumps fall inside panels.
BIORTH_TOL = 1e-4
DELTA_TOL = 1e-6            # the acceptance level of localize
CONTOUR_TOL = 1e-4          # contour projector vs partial sum, sup norm
SLOPE_TOL = 0.1
INF = math.inf

POWER = {"family": "power", "alpha": 0.4, "x0": 1.1, "amplitude": 0.5}
CONSTANT = {"family": "constant_offdiag", "c": 0.3}
TRIG = {"family": "trig", "p1": [["cos", 1, 0.3]], "p2": [["sin", 1, 0.8]],
        "p3": [["cos", 2, 0.5]], "p4": [["sin", 2, 0.2]]}
# Jumps on panel boundaries of the 128-panel mesh (pi/4, 3pi/4); p2 only,
# so every antiperiodic eigenvalue stays double with a Jordan block.
STEP = {"family": "step", "breaks": [math.pi / 4, 3 * math.pi / 4],
        "values": [0.5, 1.0, -0.5]}

DIAGONAL_TRIO = {
    "constant": dict(boundary="dirichlet_analog", potential=CONSTANT,
                     kappa=INF, comparison="corollary-diagonal"),
    "power": dict(boundary="dirichlet_analog", potential=POWER, kappa=2.0,
                  comparison="corollary-diagonal"),
    "trig": dict(boundary="dirichlet_analog", potential=TRIG, kappa=INF,
                 comparison="corollary-diagonal"),
}
EQUICONV = dict(DIAGONAL_TRIO, step=dict(
    boundary="antiperiodic", potential=STEP, kappa=INF, comparison="free"))
SPECTRUM = {
    "periodic-constant": ("periodic", CONSTANT),
    "antiperiodic-trig": ("antiperiodic",
                          {"family": "trig", "p2": [["sin", 1, 0.8]],
                           "p3": [["cos", 2, 0.5]]}),
    "dirichlet-power": ("dirichlet_analog", dict(POWER, alpha=0.6)),
}
# Known failures on this tree, kept out of the timed loop (an op there must
# not fail) and probed once per traced run; see README.md.
KNOWN_DEFECTS = {
    "equiconv": {"step-misaligned": dict(
        EQUICONV["step"], potential=dict(STEP, breaks=[1.0, 2.0]))},
    "spectrum": {
        "dirichlet-constant-c2": ("dirichlet_analog",
                                  dict(CONSTANT, c=2.0)),
        "dirichlet-power-a08": ("dirichlet_analog", dict(POWER, alpha=0.8)),
    },
}
PROBE_LAMS = np.array([0.5 + 0.3j, 10.2 - 0.4j, -30.7 + 1.1j])


def load_reference():
    if not os.path.exists(REFERENCE_PATH):
        return {}
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


@dataclass
class Op:
    """One timed call.  rows(result) gives the numbers compared with the
    reference; check(result) the workload's own invariants (None or a
    failure reason).  Row values may be complex; floor is the magnitude
    below which the tolerance is absolute."""
    label: str
    key: str
    run: Callable
    rows: Callable
    check: Callable = lambda result: None
    floor: float = 0.0


def check_rows(rows, ref, floor=0.0, tol=REL_TOL):
    """None when rows are finite and match the reference within tol
    relative, else the reason."""
    rows = np.asarray(rows, dtype=complex)
    if not np.all(np.isfinite(rows)):
        return "non-finite rows"
    if ref is None:
        return "no reference rows"
    ref = np.asarray([complex(*r) if isinstance(r, list) else r
                      for r in ref], dtype=complex)
    if ref.shape != rows.shape:
        return f"{rows.size} rows, reference has {ref.size}"
    err = np.abs(rows - ref)
    lim = tol * np.maximum(np.abs(ref), floor)
    if np.any(err > lim):
        i = int(np.argmax(err - lim))
        return f"row {i} differs from the reference by {err[i]:.3e}"
    return None


def rows_to_json(rows):
    return [[v.real, v.imag] if isinstance(v, complex) else float(v)
            for v in rows]


def sample_indices(m):
    """Indices used for the biorthogonality check: the low block, both
    members of every pair there, and a stride through the rest."""
    lo, hi = -2 * m, 2 * m + 1
    pick = set(range(max(lo, -6), min(hi, 7) + 1))
    pick.update(range(lo, hi + 1, 9))
    pick.update((lo, lo + 1, hi - 1, hi))
    return sorted(pick)


def scaled_delta(P, U, mesh, lams):
    """max |Delta(lambda_n)| / max(1, median |Delta(lambda_n + 0.49)|), the
    residual localize accepts against."""
    lams = np.asarray(lams, dtype=complex)
    res = np.abs(O.char_det(P, U, lams, mesh))
    scale = max(1.0, float(np.median(np.abs(O.char_det(P, U, lams + 0.49,
                                                       mesh)))))
    return float(np.max(res)) / scale


def system_residuals(rs):
    """(sampled biorthogonality residual, scaled |Delta(lambda_n)|)."""
    lams = [rs.eigs.values[n] for n in sorted(rs.eigs.values)]
    return (rs.biorthogonality_residual(sample_indices(rs.m_max)),
            scaled_delta(rs.potential, rs.form, rs.mesh, lams))


def det_residual(P, mesh):
    return max(O.fundamental_matrix(P, lam, mesh).det_residual()
               for lam in PROBE_LAMS)


def refine_err(P, U, m, eigs_fine, panels=PANELS):
    """The two-mesh eigenvalue certificate: max |lambda_n(K panels) -
    lambda_n(K/2 panels)|.  The two members of a pair are matched as a set,
    since their order within the pair is only a labelling."""
    coarse = M.build_mesh(panels // 2, order=ORDER,
                          singular_points=P.singular_points)
    a, b = eigs_fine.values, S.localize(P, U, m, coarse).values
    return max(min(max(abs(a[2 * k] - b[2 * k]),
                       abs(a[2 * k + 1] - b[2 * k + 1])),
                   max(abs(a[2 * k] - b[2 * k + 1]),
                       abs(a[2 * k + 1] - b[2 * k])))
               for k in range(-m, m + 1))


PROBE_PANELS = 32


def layer_probe():
    """One small call into every traced layer (well under a second), run
    after the traced round so that no per-layer time reads a constant 0 on
    a workload that never calls that layer.  Returns its report."""
    report = H.run_equiconv(H.ExperimentConfig(
        boundary="dirichlet_analog", potential=TRIG, kappa=INF,
        comparison="corollary-diagonal", f={"family": "random_trig"},
        mu=2.0, nu_list=(2.0,), m_schedule=(1,), mesh_panels=PROBE_PANELS,
        mesh_order=ORDER))
    U = B.boundary_from_config("dirichlet_analog")
    P = PT.make_potential(CONSTANT)
    mesh = M.build_mesh(PROBE_PANELS, order=ORDER)
    S.localize(P, U, 1, mesh, validate=True)
    rs = E.root_system(P, U, 1, mesh)
    E.partial_sum_contour(rs, H.make_function({"family": "random_trig"},
                                              mesh), 0)
    G.opnorm_scaling(U, 1.0, 2.0, [4.0, 8.0], mesh)
    return report


class _Capture:
    """Keeps the root systems run_equiconv builds, so the checks can read
    them after the op; installed at diraclab.harness.root_system."""

    def __init__(self, fn):
        self.fn = fn
        self.got = []

    def __call__(self, *args, **kwargs):
        rs = self.fn(*args, **kwargs)
        self.got.append(rs)
        return rs


def experiment(spec, m_max, fseed):
    return H.ExperimentConfig(
        boundary=spec["boundary"], potential=spec["potential"],
        kappa=spec["kappa"], comparison=spec["comparison"],
        f={"family": "random_trig"}, seed=fseed, mu=2.0,
        nu_list=(2.0, INF),
        m_schedule=tuple(2 ** k for k in range(1, int(math.log2(m_max)) + 1)),
        mesh_panels=PANELS, mesh_order=ORDER)


def report_rows(report):
    return [r["norm_diff"] for r in report.rows]


class Workload:
    """Ops for one seed, with their checks and certificates.  Subclasses
    fill self.ops; check(op, result) keeps whatever the certificates need
    from the last result of each op."""
    name = ""

    def __init__(self, seed, reference):
        self.fseed = seed % F_POOL
        self.reference = reference
        self.ops = []

    @contextlib.contextmanager
    def hooks(self):
        yield

    def check(self, op, result):
        """None if the result is correct, else the reason."""
        reason = check_rows(op.rows(result), self.reference.get(op.key),
                            op.floor)
        return reason or op.check(result)

    def reference_rows(self, op, result):
        """{reference key: rows} recorded for this op's result."""
        return {op.key: op.rows(result)}

    def reports(self, result):
        """The EquiconvReports inside an op's result."""
        return []

    def refine_err(self):
        """eig_refine_err over the eigenvalue problems of the workload."""
        raise NotImplementedError

    def accuracy(self):
        """det_residual, biorth_resid and delta_resid certificates."""
        raise NotImplementedError

    def defect_failures(self):
        """{known-defective case: failure reason, or None if it passes}."""
        return {}


class Equiconv(Workload):
    """run_equiconv at m_schedule 2..32, 128 panels, mu = 2, nu in {2, inf}."""
    name = "equiconv"
    m_max = 32

    def __init__(self, seed, reference):
        super().__init__(seed, reference)
        self.systems = {}
        self._capture = None
        for label, spec in EQUICONV.items():
            cfg = experiment(spec, self.m_max, self.fseed)
            self.ops.append(Op(
                label=label, key=f"{self.name}/{label}/f{self.fseed}",
                run=functools.partial(self._run, cfg),
                rows=lambda res: report_rows(res[0]),
                check=self._check_systems))

    @contextlib.contextmanager
    def hooks(self):
        capture = _Capture(H.root_system)
        outer, self._capture = self._capture, capture
        H.root_system = capture
        try:
            yield
        finally:
            H.root_system = capture.fn
            self._capture = outer

    def _run(self, cfg):
        self._capture.got.clear()
        report = H.run_equiconv(cfg)
        rs, rs0 = self._capture.got
        return report, rs, rs0

    @staticmethod
    def _check_systems(result):
        _, rs, rs0 = result
        for tag, system in (("operator", rs), ("comparison", rs0)):
            biorth, delta = system_residuals(system)
            if not biorth < BIORTH_TOL:
                return f"{tag} biorthogonality residual {biorth:.2e}"
            if not delta < DELTA_TOL:
                return f"{tag} scaled |Delta(lambda_n)| {delta:.2e}"
        return None

    def check(self, op, result):
        self.systems[op.label] = result[1:]
        return super().check(op, result)

    def reports(self, result):
        return [result[0]]

    def refine_err(self):
        return max(refine_err(rs.potential, rs.form, self.m_max, rs.eigs)
                   for rs, _ in self.systems.values())

    def accuracy(self):
        res = [system_residuals(s) for pair in self.systems.values()
               for s in pair]
        return {
            "ode.det_residual": max(det_residual(rs.potential, rs.mesh)
                                    for rs, _ in self.systems.values()),
            "expansions.biorth_resid": max(r[0] for r in res),
            "spectrum.delta_resid": max(r[1] for r in res),
        }

    def defect_failures(self):
        out = {}
        for label, spec in KNOWN_DEFECTS[self.name].items():
            cfg = experiment(spec, self.m_max, self.fseed)
            with self.hooks():
                try:
                    out[label] = self._check_systems(self._run(cfg))
                except Exception as exc:    # any error is the finding
                    out[label] = repr(exc)
        return out


class Spectrum(Workload):
    """localize(validate=True) then contour_family(validate=True) at
    m_max = 32, 128 panels.  No random input: the seed is only recorded."""
    name = "spectrum"
    m_max = 32

    def __init__(self, seed, reference):
        super().__init__(seed, reference)
        self.problems = {}
        self.eigs = {}
        for label, (bname, pspec) in SPECTRUM.items():
            self.problems[label] = self._problem(bname, pspec)
            self.ops.append(Op(
                label=label, key=f"{self.name}/{label}",
                run=functools.partial(self._localize,
                                      *self.problems[label]),
                rows=lambda res: [res[0].values[n]
                                  for n in sorted(res[0].values)],
                check=functools.partial(self._check_delta, label),
                floor=1.0))

    @staticmethod
    def _problem(bname, pspec):
        U = B.boundary_from_config(bname)
        P = PT.make_potential(pspec)
        mesh = M.build_mesh(PANELS, order=ORDER,
                            singular_points=P.singular_points)
        return P, U, mesh

    def _localize(self, P, U, mesh):
        eigs = S.localize(P, U, self.m_max, mesh, validate=True)
        spec0, _ = S.localization_seeds(P, U, mesh)
        fam = S.contour_family(spec0, eigs, P=P, U=U, mesh=mesh,
                               validate=True)
        return eigs, fam

    def check(self, op, result):
        self.eigs[op.label] = result[0]
        return super().check(op, result)

    def _delta(self, label):
        P, U, mesh = self.problems[label]
        vals = self.eigs[label].values
        return scaled_delta(P, U, mesh, [vals[n] for n in sorted(vals)])

    def _check_delta(self, label, result):
        delta = self._delta(label)
        if not delta < DELTA_TOL:
            return f"scaled |Delta(lambda_n)| {delta:.2e}"
        return None

    def refine_err(self):
        return max(refine_err(P, U, self.m_max, self.eigs[label])
                   for label, (P, U, _) in self.problems.items())

    def accuracy(self):
        return {
            "ode.det_residual": max(det_residual(P, mesh)
                                    for P, _, mesh in self.problems.values()),
            "expansions.biorth_resid": 0.0,
            "spectrum.delta_resid": max(self._delta(label)
                                        for label in self.problems),
        }

    def defect_failures(self):
        out = {}
        for label, (bname, pspec) in KNOWN_DEFECTS[self.name].items():
            try:
                self._localize(*self._problem(bname, pspec))
                out[label] = None
            except Exception as exc:        # any error is the finding
                out[label] = repr(exc)
        return out


class Resolvent(Workload):
    """opnorm_scaling for (mu, nu) = (1, 2) and (2, inf) as one op, and
    partial_sum_contour(rs, f, 2) on the power and constant root systems
    (m_max = 4, built in set-up), one op each."""
    name = "resolvent"
    m_max = 4
    contour_m = 2
    y_list = (4.0, 8.0, 16.0, 32.0, 64.0)
    pairs = ((1.0, 2.0), (2.0, INF))

    def __init__(self, seed, reference):
        super().__init__(seed, reference)
        U = B.boundary_from_config("dirichlet_analog")
        plain = M.build_mesh(PANELS, order=ORDER)
        self.ops.append(Op(
            label="opnorm", key=f"{self.name}/opnorm",
            run=functools.partial(self._opnorm, U, plain),
            rows=lambda ests: [v for est in ests
                               for v in list(est.estimates) + [est.slope]],
            check=self._check_slopes))
        self.systems = {}
        self.f = {}
        for label, pspec in (("power", POWER), ("constant", CONSTANT)):
            P = PT.make_potential(pspec)
            mesh = M.build_mesh(PANELS, order=ORDER,
                                singular_points=P.singular_points)
            self.systems[label] = E.root_system(P, U, self.m_max, mesh)
            self.f[label] = H.make_function({"family": "random_trig"}, mesh,
                                            seed=self.fseed)
            self.ops.append(Op(
                label=f"contour-{label}",
                key=f"{self.name}/contour-{label}/f{self.fseed}",
                run=functools.partial(E.partial_sum_contour,
                                      self.systems[label], self.f[label],
                                      self.contour_m),
                rows=functools.partial(self._contour_rows, label),
                check=functools.partial(self._check_contour, label)))

    def _contour_rows(self, label, g):
        return [M.lp_norm(g, 2), M.lp_norm(g, INF),
                M.inner_product(g, self.f[label])]

    def _check_contour(self, label, g):
        ref = E.partial_sum(self.systems[label], self.f[label],
                            self.contour_m).values
        err = np.max(np.abs(g.values - ref)) / np.max(np.abs(ref))
        if not err < CONTOUR_TOL:
            return f"contour and partial sum differ by {err:.2e} relative"
        return None

    def _opnorm(self, U, mesh):
        return [G.opnorm_scaling(U, mu, nu, list(self.y_list), mesh)
                for mu, nu in self.pairs]

    def _check_slopes(self, ests):
        for (mu, nu), est in zip(self.pairs, ests):
            expected = -1.0 + 1.0 / mu - (0.0 if nu == INF else 1.0 / nu)
            if not abs(est.slope - expected) < SLOPE_TOL:
                return (f"(mu, nu) = ({mu}, {nu}): fitted slope "
                        f"{est.slope:.3f}, expected {expected:.3f}")
        return None

    def refine_err(self):
        return max(refine_err(rs.potential, rs.form, self.m_max, rs.eigs)
                   for rs in self.systems.values())

    def accuracy(self):
        res = [system_residuals(rs) for rs in self.systems.values()]
        return {
            "ode.det_residual": max(det_residual(rs.potential, rs.mesh)
                                    for rs in self.systems.values()),
            "expansions.biorth_resid": max(r[0] for r in res),
            "spectrum.delta_resid": max(r[1] for r in res),
        }


class Sweep(Workload):
    """harness.sweep over the corollary-diagonal trio, two f seeds each,
    at m_max = 16 with DIRACLAB_THREADS = 2; one op is one sweep.  It is not
    a timed workload (the time budget of a full benchmark session holds
    three): every traced run measures the thread pool with it instead."""
    name = "sweep"
    threads = 2
    m_max = 16

    def __init__(self, seed, reference):
        super().__init__(seed, reference)
        fseeds = (self.fseed, (self.fseed + F_POOL // 2) % F_POOL)
        self.labels = [(label, fs) for label in DIAGONAL_TRIO
                       for fs in fseeds]
        self.configs = [experiment(DIAGONAL_TRIO[label], self.m_max, fs)
                        for label, fs in self.labels]
        self.ops.append(Op(
            label="sweep", key=f"{self.name}/f{fseeds[0]}-f{fseeds[1]}",
            run=functools.partial(H.sweep, self.configs),
            rows=lambda bundle: [v for rep in bundle["reports"]
                                 for v in report_rows(rep)]))

    @contextlib.contextmanager
    def hooks(self):
        old = os.environ.get("DIRACLAB_THREADS")
        os.environ["DIRACLAB_THREADS"] = str(self.threads)
        try:
            yield
        finally:
            if old is None:
                del os.environ["DIRACLAB_THREADS"]
            else:
                os.environ["DIRACLAB_THREADS"] = old

    def _keys(self):
        return [f"{self.name}/{label}/f{fs}" for label, fs in self.labels]

    def check(self, op, result):
        if result["errors"]:
            return "; ".join(result["errors"])
        if len(result["reports"]) != len(self.configs):
            return (f"{len(result['reports'])} reports for "
                    f"{len(self.configs)} configs")
        for key, rep in zip(self._keys(), result["reports"]):
            reason = check_rows(report_rows(rep), self.reference.get(key))
            if reason:
                return f"{key}: {reason}"
        return None

    def reference_rows(self, op, result):
        return {key: report_rows(rep)
                for key, rep in zip(self._keys(), result["reports"])}

    def serial_seconds(self):
        """Wall time of the sweep's configs run one after another."""
        t0 = time.perf_counter()
        for cfg in self.configs:
            H.run_equiconv(cfg)
        return time.perf_counter() - t0


WORKLOADS = {w.name: w for w in (Equiconv, Spectrum, Resolvent)}
# every class whose ops have rows in reference.json
RECORDED = (*WORKLOADS.values(), Sweep)
