"""Acceptance gate: one test per primary criterion, each printing a
single pass/fail line."""
import numpy as np
import pytest

from diraclab import (Circle, ExperimentConfig, GridFunction2,
                      PotentialMatrix, admissible, boundary_from_config,
                      build_mesh, char_det, delta0, gauge_reduce,
                      green0_kernel, green_kernel, inner_product, localize,
                      lp_norm, make_function, make_potential, opnorm_scaling,
                      partial_sum, projector_contour, root_system,
                      run_equiconv, unperturbed_spectrum)
from conftest import random_regular_form

PI = np.pi
P0 = PotentialMatrix.zero()


def _check(num, desc, ok):
    print(f"[PRIMARY {num}] {desc}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {desc}"


@pytest.fixture(scope="module")
def mesh_a():
    return build_mesh(128, order=5)


@pytest.fixture(scope="module")
def power_potential():
    return make_potential({"family": "power", "alpha": 0.4, "x0": 1.1,
                           "amplitude": 0.5})


@pytest.fixture(scope="module")
def mesh_g(power_potential):
    return build_mesh(256, order=5,
                      singular_points=power_potential.singular_points)


@pytest.fixture(scope="module")
def rs_const64(const_potential, dirichlet, mesh_a):
    return root_system(const_potential, dirichlet, 64, mesh_a)


@pytest.fixture(scope="module")
def rs_free64(dirichlet, mesh_a):
    return root_system(P0, dirichlet, 64, mesh_a)


@pytest.fixture(scope="module")
def rs_power64(power_potential, dirichlet, mesh_g):
    return root_system(power_potential, dirichlet, 64, mesh_g)


@pytest.fixture(scope="module")
def rs_free64g(dirichlet, mesh_g):
    return root_system(P0, dirichlet, 64, mesh_g)


def test_criterion_1_unperturbed_spectra(dirichlet, periodic, antiperiodic):
    ns = np.arange(-40, 42)
    err = np.max(np.abs(unperturbed_spectrum(dirichlet).lambda0(ns) - ns))
    sp = unperturbed_spectrum(periodic)
    even = 2 * np.floor_divide(ns, 2)
    err = max(err, np.max(np.abs(sp.lambda0(ns) - even)))
    ok = sp.double
    sa = unperturbed_spectrum(antiperiodic)
    odd = 2 * np.floor_divide(ns, 2) + 1
    err = max(err, np.max(np.abs(sa.lambda0(ns) - odd)))
    ok = ok and sa.double and err < 1e-10
    _check(1, f"unperturbed spectra exact (max err {err:.2e})", ok)


def test_criterion_2_determinant_identity():
    rng = np.random.default_rng(21)
    mesh = build_mesh(16, order=5)
    worst = 0.0
    for _ in range(20):
        bf = random_regular_form(rng)
        lams = rng.uniform(-5, 5, 50) + 1j * rng.uniform(-1.5, 1.5, 50)
        got = char_det(P0, bf, lams, mesh)
        worst = max(worst, float(np.max(np.abs(got - delta0(bf, lams)))))
    _check(2, f"free determinant identity (max err {worst:.2e})",
           worst < 1e-8)


def test_criterion_3_constant_potential_oracle(const_potential, dirichlet,
                                               mesh_a):
    c = 0.3
    eigs = localize(const_potential, dirichlet, 10, mesh_a)
    worst = abs(eigs.values[0] - c)
    for n in range(1, 21):
        root = np.sqrt(n ** 2 + c ** 2)
        worst = max(worst, abs(eigs.values[n] - root),
                    abs(eigs.values[-n] + root))
    tail_ok = eigs.tail_max(10, 20) < eigs.tail_max(1, 9)
    _check(3, f"constant-potential eigenvalue oracle (max err {worst:.2e}, "
              f"tail decay {tail_ok})", worst < 1e-7 and tail_ok)


def test_criterion_4_green_consistency(dirichlet, mesh_a):
    lam = 0.37 + 0.4j
    K0 = green0_kernel(dirichlet, lam, mesh_a)
    Kc = green_kernel(P0, dirichlet, lam, mesh_a)
    ts = np.linspace(0.05, PI - 0.05, 30)
    xs = np.linspace(0.08, PI - 0.03, 25)
    kerr = float(np.max(np.abs(K0.eval_grid(ts, xs) - Kc.eval_grid(ts, xs))))
    f = GridFunction2.from_callables(
        mesh_a, lambda x: np.sin(x) + 0.2j * np.cos(2 * x), lambda x: x / PI)
    u = K0.apply(f)
    B = np.diag([-1j, 1j])
    res = B @ np.stack([mesh_a.derivative(u.values[0]),
                        mesh_a.derivative(u.values[1])]) - lam * u.values
    rerr = float(np.max(np.abs(res - f.values)))
    eps = 1e-8
    jerr = 0.0
    for x in np.linspace(0.2, PI - 0.2, 10):
        jump = K0.eval_grid([x + eps], [x])[0, 0] \
            - K0.eval_grid([x - eps], [x])[0, 0]
        jerr = max(jerr, float(np.max(np.abs(jump - K0.jump))))
    ok = kerr < 1e-8 and rerr < 1e-5 and jerr < 1e-6
    _check(4, f"Green kernel consistency (kernel {kerr:.2e}, resolvent "
              f"{rerr:.2e}, jump {jerr:.2e})", ok)


def test_criterion_5_resolvent_norm_scaling(dirichlet, mesh_a):
    ys = [4.0, 8.0, 16.0, 32.0, 64.0]
    pairs = [(2.0, 2.0), (1.0, 2.0), (1.0, np.inf), (2.0, np.inf)]
    ok = True
    msgs = []
    for mu, nu in pairs:
        est = opnorm_scaling(dirichlet, mu, nu, ys, mesh=mesh_a)
        expect = -1.0 + (0.0 if mu == np.inf else 1.0 / mu) \
            - (0.0 if nu == np.inf else 1.0 / nu)
        ok = ok and abs(est.slope - expect) < 0.15
        msgs.append(f"({mu:g},{nu:g}): {est.slope:+.2f} vs {expect:+.2f}")
    _check(5, "resolvent norm decay slopes " + "; ".join(msgs), ok)


def test_criterion_6_projector_suite(rs_const64, const_potential, dirichlet,
                                     mesh_a):
    def proj(n, g):
        e0, e1 = rs_const64.entries[2 * n], rs_const64.entries[2 * n + 1]
        vals = (inner_product(g, e0.z) * e0.y.values
                + inner_product(g, e1.z) * e1.y.values)
        return GridFunction2(mesh_a, vals)

    f = GridFunction2.from_callables(
        mesh_a, lambda x: np.sin(x) + 0.4 * np.cos(3 * x),
        lambda x: np.exp(1j * x))
    worst_idem = worst_orth = worst_ctr = 0.0
    rank_ok = True
    for n in (1, 2, 3):
        pf = proj(n, f)
        worst_idem = max(worst_idem, lp_norm(proj(n, pf) - pf, 2))
        for k in (1, 2, 3):
            if k != n:
                worst_orth = max(worst_orth, lp_norm(proj(k, pf), 2))
        e0, e1 = rs_const64.entries[2 * n], rs_const64.entries[2 * n + 1]
        sv = np.linalg.svd(np.stack([e0.y.values.ravel(),
                                     e1.y.values.ravel()]),
                           compute_uv=False)
        rank_ok = rank_ok and sv[1] > 1e-3 * sv[0]
        circ = Circle(0.5 * (e0.lam + e1.lam),
                      0.5 * abs(e0.lam - e1.lam) + 0.3)
        via = projector_contour(const_potential, dirichlet, circ, f, mesh_a)
        worst_ctr = max(worst_ctr, lp_norm(via - pf, np.inf))
    ok = (worst_idem < 1e-6 and worst_orth < 1e-6 and worst_ctr < 1e-6
          and rank_ok)
    _check(6, f"projector suite (idem {worst_idem:.2e}, orth "
              f"{worst_orth:.2e}, contour {worst_ctr:.2e}, rank-2 "
              f"{rank_ok})", ok)


def test_criterion_7_gauge_similarity(full_trig_potential, dirichlet,
                                      mesh_a):
    red = gauge_reduce(full_trig_potential, dirichlet, mesh_a)
    e1 = localize(full_trig_potential, dirichlet, 5, mesh_a)
    e2 = localize(red.potential, red.form, 5, mesh_a)
    diffs = sorted(abs(e1.values[n] - (e2.values[n] + red.gamma))
                   for n in e1.values)
    worst20 = diffs[19]
    _check(7, f"gauge similarity on 20 eigenvalues (max err {worst20:.2e})",
           len(diffs) >= 20 and worst20 < 1e-6)


def test_criterion_8_equiconvergence_decay(rs_const64, rs_free64, rs_power64,
                                           rs_free64g, mesh_a, mesh_g):
    fa = make_function({"family": "random_trig"}, mesh_a, seed=8)
    fg = make_function({"family": "random_trig"}, mesh_g, seed=8)
    cases = [
        ("kappa=inf, mu=2, nu=inf", rs_const64, rs_free64, fa, np.inf,
         (np.inf, 2.0, np.inf)),
        ("kappa=2, mu=2, nu=inf", rs_power64, rs_free64g, fg, np.inf,
         (2.0, 2.0, np.inf)),
        ("kappa=2, mu=1, nu=2", rs_power64, rs_free64g, fg, 2.0,
         (2.0, 1.0, 2.0)),
    ]
    ok = True
    msgs = []
    for label, rs, rs0, f, nu, triple in cases:
        assert admissible(*triple) == (True, False)
        d2 = lp_norm(partial_sum(rs, f, 2) - partial_sum(rs0, f, 2), nu)
        d64 = lp_norm(partial_sum(rs, f, 64) - partial_sum(rs0, f, 64), nu)
        ratio = d64 / d2
        ok = ok and ratio <= 0.2
        msgs.append(f"{label}: ratio {ratio:.3f}")
    rep = run_equiconv(ExperimentConfig(
        potential={"family": "zero"}, kappa=np.inf, nu_list=(2.0, np.inf),
        m_schedule=(2, 8, 64), mesh_panels=64))
    ctrl = max(r["norm_diff"] for r in rep.rows)
    ok = ok and ctrl < 1e-8
    _check(8, "equiconvergence decay " + "; ".join(msgs)
           + f"; zero-potential control {ctrl:.2e}", ok)


def test_criterion_9_uniform_convergence_free(rs_free64, dirichlet, mesh_a):
    f = make_function({"family": "bc_smooth"}, mesh_a, form=dirichlet)
    err = lp_norm(partial_sum(rs_free64, f, 64) - f, np.inf)
    _check(9, f"free expansion uniform convergence (sup err {err:.2e} "
              f"at m=64)", err < 1e-2)


def test_criterion_10_completeness_proxy(rs_const64, mesh_a):
    fs = [make_function({"family": "smooth"}, mesh_a),
          make_function({"family": "smooth", "components":
                         [[["cos", 1, 1.0], ["pow", 2, 0.1]],
                          [["sin", 2, 0.5], ["pow", 1, 0.3]]]}, mesh_a)]
    ok = True
    msgs = []
    for i, f in enumerate(fs):
        res = [lp_norm(partial_sum(rs_const64, f, m) - f, 2)
               for m in (4, 8, 16)]
        ok = ok and res[0] > res[1] > res[2]
        msgs.append(f"f{i + 1}: " + " > ".join(f"{r:.2e}" for r in res))
    _check(10, "completeness residual decrease " + "; ".join(msgs), ok)
