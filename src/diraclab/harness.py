"""Equiconvergence experiment harness.

Runs the end-to-end pipeline for a configuration (boundary form, potential
with class kappa, test function with class mu, norm exponents nu, partial
sum schedule m): builds the perturbed and comparison root systems, measures
||S_m f - S_m^0 f||_nu over the schedule, and attaches the admissibility
verdict for each nu.  The admissibility predicate

    1/kappa + 1/mu - 1/nu <= 1,   kappa in (1, inf],

is evaluated in exact rational arithmetic with symbolic infinity, with the
excluded corner kappa = nu = inf, mu = 1 flagged separately.
"""
from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, asdict
from fractions import Fraction

import numpy as np

from .boundary import boundary_from_config
from .expansions import partial_sum, root_system
from .green import green_kernel, kernel_sup
from .mesh import GridFunction2, as_count, build_mesh, check_exponent, \
    lp_norm
from .potentials import (PotentialMatrix, ScalarFunction, comparison_operator,
                         make_potential, term_sum)

CSV_HEADER = "m,nu,norm_diff,admissible,excluded_case"


class OutsideTheoremError(ValueError):
    """kappa <= 1 is outside the scope of the admissibility statement."""


class StageError(RuntimeError):
    """Pipeline failure carrying the stage tag."""

    def __init__(self, stage, cause):
        super().__init__(f"[{stage}] {cause!r}")
        self.stage = stage
        self.cause = cause


def _exponent(p, name):
    """An exponent as given, or as a float when given as a string ("inf"
    becomes np.inf)."""
    if not isinstance(p, str):
        return p
    try:
        return float(p)
    except ValueError:
        raise ValueError(f"{name}={p!r} is not a number or inf") from None


def _inv(p, name):
    """1/p as an exact Fraction; p may be numeric or the string 'inf'."""
    p = _exponent(p, name)
    check_exponent(p, name)
    if p == np.inf:
        return Fraction(0)
    if isinstance(p, float):
        return 1 / Fraction(p).limit_denominator(10 ** 9)
    return 1 / Fraction(p)


def admissible(kappa, mu, nu):
    """(verdict, excluded_case) for the triple; exact arithmetic."""
    kappa = _exponent(kappa, "kappa")
    # a number below 1 is outside the theorem; NaN is no exponent at all
    ik = Fraction(1) if kappa < 1 else _inv(kappa, "kappa")
    if ik >= 1:
        raise OutsideTheoremError(
            "admissibility is stated for kappa in (1, inf]")
    imu = _inv(mu, "mu")
    inu = _inv(nu, "nu")
    excluded = (ik == 0 and inu == 0 and imu == 1)
    holds = (ik + imu - inu <= 1)
    return (holds and not excluded), excluded


def _num_to_json(v):
    return "inf" if v == np.inf else v


@dataclass
class ExperimentConfig:
    boundary: object = "dirichlet_analog"
    potential: dict = field(default_factory=lambda: {"family": "zero"})
    kappa: float = np.inf
    f: dict = field(default_factory=lambda: {"family": "smooth"})
    mu: float = 2.0
    nu_list: tuple = (2.0, np.inf)
    m_schedule: tuple = (2, 4, 8, 16, 32, 64)
    mesh_panels: int = 256
    mesh_order: int = 5
    seed: int = 0
    comparison: str = "free"        # "free" | "corollary-diagonal"

    def __post_init__(self):
        ms = tuple(int(m) for m in self.m_schedule)
        if not ms:
            raise ValueError("m schedule must not be empty")
        if ms != tuple(self.m_schedule):
            raise ValueError(f"m schedule {tuple(self.m_schedule)} holds a "
                             f"non-integer m")
        if min(ms) < 0:
            raise ValueError(f"m schedule {ms} holds a negative m")
        if any(b <= a for a, b in zip(ms, ms[1:])):
            raise ValueError("m schedule must be strictly increasing")
        object.__setattr__(self, "m_schedule", ms)
        as_count(self.mesh_panels, "mesh_panels", 1)
        as_count(self.mesh_order, "mesh_order", 1)
        object.__setattr__(self, "kappa", _exponent(self.kappa, "kappa"))
        # a finite kappa <= 1 is reported as outside the theorem, but NaN
        # is no exponent at all and would pass as one
        if self.kappa != self.kappa:
            raise ValueError("kappa must be a number or inf, got NaN")
        object.__setattr__(self, "mu", _exponent(self.mu, "mu"))
        object.__setattr__(self, "nu_list", tuple(
            _exponent(nu, "nu") for nu in self.nu_list))
        if not self.nu_list:
            raise ValueError("nu list must not be empty")
        check_exponent(self.mu, "mu")
        for nu in self.nu_list:
            check_exponent(nu, "nu")
        # rows and verdicts are keyed by nu: 2 and 2.0 are one exponent
        if len(set(self.nu_list)) < len(self.nu_list):
            raise ValueError(f"nu list {self.nu_list} repeats an exponent")
        if self.comparison not in ("free", "corollary-diagonal"):
            raise ValueError(f"unknown comparison mode {self.comparison!r}")

    def to_dict(self):
        d = asdict(self)
        d["kappa"] = _num_to_json(self.kappa)
        d["mu"] = _num_to_json(self.mu)
        d["nu_list"] = [_num_to_json(v) for v in self.nu_list]
        d["m_schedule"] = list(self.m_schedule)
        return d


@dataclass
class EquiconvReport:
    config: ExperimentConfig
    rows: list                      # dicts m, nu, norm_diff
    verdicts: dict                  # nu -> (admissible, excluded)
    warnings: list
    metadata: dict


def _component(spec):
    """The component, 0 or 1, that a bump or power function fills."""
    comp = spec.get("component", 0)
    if comp not in (0, 1):
        raise ValueError(f"component must be 0 or 1; got {comp!r}")
    return int(comp)


def make_function(spec, mesh, mu=2.0, seed=0, form=None) -> GridFunction2:
    """Test functions f = (f1, f2) on the mesh.

    Families: smooth (trig/monomial term lists), bc_smooth (smooth with
    U(f) = 0), bump (indicator), power (|x-x0|^{-1/mu+eps} profile),
    random_trig (seeded random trigonometric pair).
    """
    family = spec.get("family", "smooth")
    x = mesh.nodes
    if family == "smooth":
        comps = spec.get("components")
        if comps is None:
            comps = [[["sin", 1, 1.0], ["cos", 3, 0.2]],
                     [["cos", 2, 0.7], ["sin", 1, 0.4]]]
        return GridFunction2(mesh, np.stack(
            [term_sum(c, ("sin", "cos", "pow"))(x) for c in comps]))
    if family == "bc_smooth":
        if form is None:
            raise ValueError("bc_smooth requires the boundary form")
        # endpoint values from the null space of (C D)
        _, _, vh = np.linalg.svd(np.hstack([form.C, form.D]))
        w = vh[2].conj() + 0.5 * vh[3].conj()
        v0, vpi = w[:2], w[2:]
        blend0 = np.cos(0.5 * x) ** 2
        blendpi = np.sin(0.5 * x) ** 2
        wig = np.sin(x) * np.array([[0.3], [0.2j]]) * np.sin(2 * x)
        vals = (v0[:, None] * blend0 + vpi[:, None] * blendpi + wig)
        return GridFunction2(mesh, vals)
    if family == "bump":
        c = float(spec.get("center", np.pi / 2))
        w = float(spec.get("width", np.pi / 8))
        if not w > 0.0:
            raise ValueError(f"bump width must be positive; got {w!r}")
        comp = _component(spec)
        ind = ((x > c - w / 2) & (x < c + w / 2)).astype(complex)
        if not ind.any():
            raise ValueError(f"bump center {c!r} and width {w!r} cover no "
                             f"mesh node")
        vals = np.zeros((2, mesh.size), dtype=complex)
        vals[comp] = ind
        return GridFunction2(mesh, vals)
    if family == "power":
        eps = float(spec.get("eps", 0.05))
        x0 = float(spec.get("x0", np.pi / 3))
        comp = _component(spec)
        alpha = (0.0 if mu == np.inf else 1.0 / float(mu)) - eps
        if alpha > 0.0 and np.any(x == x0):
            raise ValueError(f"power x0={x0!r} is a mesh node")
        vals = np.zeros((2, mesh.size), dtype=complex)
        vals[comp] = np.abs(x - x0) ** (-alpha)
        return GridFunction2(mesh, vals)
    if family == "random_trig":
        rng = np.random.default_rng(seed)
        nt = int(spec.get("n_terms", 6))
        if nt < 1:
            raise ValueError(f"random_trig n_terms must be positive; got {nt}")
        vals = np.zeros((2, mesh.size), dtype=complex)
        for comp in range(2):
            for k in range(1, nt + 1):
                a = rng.normal() + 1j * rng.normal()
                b = rng.normal() + 1j * rng.normal()
                vals[comp] += (a * np.sin(k * x) + b * np.cos(k * x)) / k
        return GridFunction2(mesh, vals)
    raise ValueError(f"unknown function family {family!r}")


@contextmanager
def _stage(tag, timings):
    """Time one pipeline stage into timings[tag].  An Exception raised in
    it surfaces as a StageError tagged with the stage; KeyboardInterrupt
    and other BaseExceptions pass through unchanged."""
    t0 = time.perf_counter()
    try:
        yield
    except Exception as exc:
        raise StageError(tag, exc) from exc
    timings[tag] = time.perf_counter() - t0


def run_equiconv(config: ExperimentConfig) -> EquiconvReport:
    """Full pipeline for one configuration; deterministic given the seed."""
    warnings = []
    timings = {}
    with _stage("setup", timings):
        U = boundary_from_config(config.boundary)
        P = make_potential(config.potential)
        # the verdicts hold for P only if its singularities lie in L_kappa
        for p in P.entries:
            ScalarFunction(p.fn, p.singularities, kappa=float(config.kappa))
        mesh = build_mesh(config.mesh_panels, order=config.mesh_order,
                          singular_points=P.singular_points)
        f = make_function(config.f, mesh, mu=config.mu, seed=config.seed,
                          form=U)
        if config.comparison == "corollary-diagonal":
            P0, U0 = comparison_operator(P, U, mesh)
        else:
            P0, U0 = PotentialMatrix.zero(), U
    m_max = max(config.m_schedule)
    with _stage("root_system", timings):
        rs = root_system(P, U, m_max, mesh)
    with _stage("comparison_system", timings):
        rs0 = root_system(P0, U0, m_max, mesh)
    with _stage("partial_sums", timings):
        rows = []
        for m in config.m_schedule:
            d = partial_sum(rs, f, m) - partial_sum(rs0, f, m)
            for nu in config.nu_list:
                rows.append({"m": m, "nu": nu,
                             "norm_diff": lp_norm(d, nu)})
    verdicts = {}
    for nu in config.nu_list:
        try:
            verdicts[nu] = admissible(config.kappa, config.mu, nu)
        except OutsideTheoremError as exc:
            verdicts[nu] = (False, False)
            warnings.append(f"nu={nu}: {exc}")
    for nu, (ok, _) in verdicts.items():
        if not ok:
            warnings.append(
                f"nu={nu}: triple (kappa={config.kappa}, mu={config.mu}, "
                f"nu={nu}) not admissible; norms recorded as observations")
    with _stage("metadata", timings):
        lam_probe = rs.eigs.values[0] + 0.5 + 2.0j
        kernel = green_kernel(P, U, lam_probe, mesh)
        M_est = kernel_sup(kernel)
        # the Liouville identity on the probe's fundamental system
        det_residual = kernel.solution.det_residual()
    metadata = {
        "M_est": M_est,
        "det_residual": det_residual,
        "mesh_panels": mesh.n_panels,
        "mesh_order": mesh.order,
        "timings": timings,
        "diagnostics": list(rs.eigs.diagnostics),
        # max |Delta(lambda_n)| of each root system, an upper bound of the
        # scaled residual its eigenvalues were accepted against
        "delta_residual": {"operator": rs.delta_residual,
                           "comparison": rs0.delta_residual},
    }
    return EquiconvReport(config=config, rows=rows, verdicts=verdicts,
                          warnings=warnings, metadata=metadata)


def _worker_count():
    env = os.environ.get("DIRACLAB_THREADS")
    if not env:
        return min(8, os.cpu_count() or 1)
    try:
        n = int(env)
        if n < 1:
            raise ValueError
    except ValueError:
        raise ValueError(f"DIRACLAB_THREADS={env!r} is not a positive "
                         f"integer") from None
    return n


def sweep(configs, out_dir=None):
    """Run configurations in parallel with per-config isolation."""
    results = []

    def one(i):
        try:
            return ("report", run_equiconv(configs[i]))
        except Exception as exc:
            return ("error", f"config {i}: {exc}")

    if configs:
        with ThreadPoolExecutor(max_workers=_worker_count()) as pool:
            results = list(pool.map(one, range(len(configs))))
    bundle = {
        "reports": [r for kind, r in results if kind == "report"],
        "errors": [r for kind, r in results if kind == "error"],
    }
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        index = []
        for i, (kind, r) in enumerate(results):
            if kind == "report":
                csv, doc = emit_report(r, os.path.join(out_dir,
                                                       f"run_{i:03d}"))
                index.append({"config": i, "status": "ok",
                              "csv": csv, "json": doc})
            else:
                index.append({"config": i, "status": "error", "message": r})
        with open(os.path.join(out_dir, "index.json"), "w") as fh:
            json.dump(index, fh, indent=2)
    return bundle


def _fmt_nu(nu):
    return "inf" if nu == np.inf else repr(float(nu))


def emit_report(report: EquiconvReport, base):
    """Write a report as base.csv (fixed header) and base.json (structured:
    config, rows, verdicts, warnings and metadata); returns both paths."""
    csv, doc = base + ".csv", base + ".json"
    with open(csv, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in report.rows:
            ok, exc = report.verdicts[r["nu"]]
            fh.write(f"{r['m']},{_fmt_nu(r['nu'])},{r['norm_diff']!r},"
                     f"{str(ok).lower()},{str(exc).lower()}\n")
    with open(doc, "w") as fh:
        json.dump({
            "config": report.config.to_dict(),
            "rows": [{"m": r["m"], "nu": _fmt_nu(r["nu"]),
                      "norm_diff": r["norm_diff"]} for r in report.rows],
            "verdicts": {_fmt_nu(nu): {"admissible": ok, "excluded_case": exc}
                         for nu, (ok, exc) in report.verdicts.items()},
            "warnings": report.warnings,
            "metadata": report.metadata,
        }, fh, indent=2)
    return csv, doc
