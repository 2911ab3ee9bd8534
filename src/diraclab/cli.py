"""Command line interface.

Subcommands: equiconv (single experiment), sweep (directory of configs),
spectrum (eigenvalue table), green (kernel diagnostics), expand (expansion
coefficients), resnorm (resolvent norm scaling).  Config files are JSON
documents read as ExperimentConfig(**doc); the environment variable
DIRACLAB_THREADS caps worker counts.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .boundary import boundary_from_config
from .expansions import expansion_coefficients, partial_sum, root_system
from .green import green0_kernel, green_kernel, kernel_sup, opnorm_scaling
from .harness import (ExperimentConfig, emit_report, make_function,
                      run_equiconv, sweep)
from .mesh import build_mesh, lp_norm
from .potentials import make_potential
from .spectrum import localize

SPECTRUM_HEADER = "n,re_lambda,im_lambda,re_lambda0,im_lambda0,abs_diff,multiplicity"


def _load_config(path):
    with open(path) as fh:
        return ExperimentConfig(**json.load(fh))


def _setup(args):
    U = boundary_from_config(args.boundary)
    P = make_potential(json.loads(args.potential))
    mesh = build_mesh(args.panels, order=args.order,
                      singular_points=P.singular_points)
    return U, P, mesh


def _add_problem_args(sp):
    sp.add_argument("--boundary", default="dirichlet_analog")
    sp.add_argument("--potential", default='{"family": "zero"}',
                    help="potential spec as JSON")
    sp.add_argument("--panels", type=int, default=256)
    sp.add_argument("--order", type=int, default=5)


def cmd_equiconv(args):
    report = run_equiconv(_load_config(args.config))
    emit_report(report, args.output or "equiconv_report")
    for r in report.rows:
        nu = "inf" if r["nu"] == np.inf else r["nu"]
        print(f"m={r['m']:4d}  nu={nu:>4}  ||S_m f - S_m^0 f|| = "
              f"{r['norm_diff']:.6e}")
    for w in report.warnings:
        print("warning:", w, file=sys.stderr)
    return 0


def cmd_sweep(args):
    import glob
    import os
    paths = sorted(glob.glob(os.path.join(args.dir, "*.json")))
    if not paths:
        print(f"error: no *.json configs in {args.dir!r}", file=sys.stderr)
        return 2
    configs = [_load_config(p) for p in paths]
    bundle = sweep(configs, out_dir=args.output or args.dir + "_out")
    print(f"{len(bundle['reports'])} runs completed, "
          f"{len(bundle['errors'])} failed")
    for e in bundle["errors"]:
        print("error:", e, file=sys.stderr)
    return 0 if not bundle["errors"] else 1


def cmd_spectrum(args):
    U, P, mesh = _setup(args)
    eigs = localize(P, U, args.m_max, mesh, validate=args.validate)
    lines = [SPECTRUM_HEADER]
    for row in eigs.as_rows():
        n, re_l, im_l, re_0, im_0, d, mult = row
        lines.append(f"{n},{re_l!r},{im_l!r},{re_0!r},{im_0!r},{d!r},{mult}")
    text = "\n".join(lines)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    for msg in eigs.diagnostics:
        print("note:", msg, file=sys.stderr)
    return 0


def cmd_green(args):
    U, P, mesh = _setup(args)
    lam = complex(args.re_lambda, args.im_lambda)
    if P.is_zero:
        K = green0_kernel(U, lam, mesh)
    else:
        K = green_kernel(P, U, lam, mesh)
    sup = kernel_sup(K)
    x0 = np.pi / 3
    eps = 1e-7
    jump = (K.eval_grid([x0 + eps], [x0])
            - K.eval_grid([x0 - eps], [x0]))[0, 0]
    print(f"lambda = {lam}")
    print(f"kernel provenance: {K.provenance}")
    print(f"sup |g_jk| (off-diagonal sample grid): {sup:.6e}")
    print(f"diagonal jump at x = pi/3: {np.round(jump, 8).tolist()}")
    return 0


def cmd_expand(args):
    U, P, mesh = _setup(args)
    rs = root_system(P, U, args.m_max, mesh)
    f = make_function(json.loads(args.function), mesh, form=U)
    coeffs = expansion_coefficients(rs, f)
    print("n,re_coeff,im_coeff,re_lambda,im_lambda")
    for n in sorted(coeffs):
        c = coeffs[n]
        lam = rs.entries[n].lam
        print(f"{n},{c.real!r},{c.imag!r},{lam.real!r},{lam.imag!r}")
    for m in (args.m_max // 2, args.m_max):
        if m >= 1:
            sm = partial_sum(rs, f, m)
            print(f"# ||S_{m} f - f||_2 = {lp_norm(sm - f, 2):.6e}",
                  file=sys.stderr)
    return 0


def cmd_resnorm(args):
    U = boundary_from_config(args.boundary)
    mesh = build_mesh(args.panels, order=args.order)
    ys = [float(v) for v in args.y.split(",")]
    est = opnorm_scaling(U, args.mu, args.nu, ys, mesh=mesh)
    expected = -1.0 + 1.0 / args.mu - 1.0 / args.nu
    print("y,norm_estimate")
    for y, e in zip(est.y_values, est.estimates):
        print(f"{float(y)!r},{float(e)!r}")
    print(f"# fitted slope {est.slope:.4f}, expected {expected:.4f}, "
          f"prefactor {est.prefactor:.4f}")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(prog="diraclab")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("equiconv", help="run one equiconvergence experiment")
    sp.add_argument("--config", required=True)
    sp.add_argument("--output")
    sp.set_defaults(fn=cmd_equiconv)

    sp = sub.add_parser("sweep", help="run a directory of configs")
    sp.add_argument("--dir", required=True)
    sp.add_argument("--output")
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("spectrum", help="eigenvalue table")
    _add_problem_args(sp)
    sp.add_argument("--m-max", type=int, default=8)
    sp.add_argument("--validate", action="store_true")
    sp.add_argument("--output")
    sp.set_defaults(fn=cmd_spectrum)

    sp = sub.add_parser("green", help="Green kernel diagnostics")
    _add_problem_args(sp)
    sp.add_argument("--re-lambda", type=float, default=0.4)
    sp.add_argument("--im-lambda", type=float, default=1.5)
    sp.set_defaults(fn=cmd_green)

    sp = sub.add_parser("expand", help="expansion coefficients")
    _add_problem_args(sp)
    sp.add_argument("--m-max", type=int, default=8)
    sp.add_argument("--function", default='{"family": "smooth"}')
    sp.set_defaults(fn=cmd_expand)

    sp = sub.add_parser("resnorm", help="resolvent norm scaling")
    sp.add_argument("--boundary", default="dirichlet_analog")
    sp.add_argument("--panels", type=int, default=256)
    sp.add_argument("--order", type=int, default=5)
    sp.add_argument("--mu", type=float, default=2.0)
    sp.add_argument("--nu", type=float, default=2.0)
    sp.add_argument("--y", default="4,8,16,32,64")
    sp.set_defaults(fn=cmd_resnorm)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
