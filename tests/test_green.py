import numpy as np
import pytest

import diraclab.ode as ode
from diraclab import (GridFunction2, PoleError, PotentialMatrix,
                      apply_resolvent, green0_kernel, green_kernel,
                      green_kernels, kernel_sup, lp_norm, opnorm_scaling)

PI = np.pi
P0 = PotentialMatrix.zero()


def _rand_f(mesh, seed=0):
    rng = np.random.default_rng(seed)
    k = np.arange(1, 4)
    c = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    vals = np.stack([
        (c[0][:, None] * np.sin(k[:, None] * mesh.nodes)).sum(axis=0),
        (c[1][:, None] * np.cos(k[:, None] * mesh.nodes)).sum(axis=0)])
    return GridFunction2(mesh, vals)


def test_g0_matches_constructed_free(dirichlet, mesh96):
    lam = 0.37 + 0.4j
    K0 = green0_kernel(dirichlet, lam, mesh96)
    Kc = green_kernel(P0, dirichlet, lam, mesh96)
    assert K0.provenance == "explicit-G0"
    assert Kc.provenance == "constructed"
    ts = np.linspace(0.1, PI - 0.1, 17)
    xs = np.linspace(0.15, PI - 0.05, 13)
    assert np.max(np.abs(K0.eval_grid(ts, xs) - Kc.eval_grid(ts, xs))) < 1e-8
    f = _rand_f(mesh96)
    d = K0.apply(f) - Kc.apply(f)
    assert lp_norm(d, np.inf) < 1e-8


@pytest.mark.parametrize("im_sign", [1.0, -1.0])
def test_g0_both_half_planes(dirichlet, mesh96, im_sign):
    lam = 0.41 + im_sign * 2.3j
    K0 = green0_kernel(dirichlet, lam, mesh96)
    Kc = green_kernel(P0, dirichlet, lam, mesh96)
    ts = np.linspace(0.1, PI - 0.1, 11)
    assert np.max(np.abs(K0.eval_grid(ts, ts + 0.05)
                         - Kc.eval_grid(ts, ts + 0.05))) < 1e-8


def test_resolvent_identity_free(dirichlet, mesh96):
    # (B d/dx - lambda) R0(lambda) f = f
    lam = 0.37 + 0.4j
    K = green0_kernel(dirichlet, lam, mesh96)
    f = _rand_f(mesh96)
    u = apply_resolvent(K, f)
    B = np.diag([-1j, 1j])
    res = B @ np.stack([mesh96.derivative(u.values[0]),
                        mesh96.derivative(u.values[1])]) - lam * u.values
    assert np.max(np.abs(res - f.values)) < 1e-5


def test_resolvent_identity_perturbed(trig_potential, dirichlet, mesh128):
    lam = 0.37 + 0.4j
    K = green_kernel(trig_potential, dirichlet, lam, mesh128)
    f = _rand_f(mesh128, seed=3)
    u = K.apply(f)
    x = mesh128.nodes
    Pu = np.stack([
        trig_potential.p1(x) * u.values[0] + trig_potential.p2(x) * u.values[1],
        trig_potential.p3(x) * u.values[0] + trig_potential.p4(x) * u.values[1]])
    B = np.diag([-1j, 1j])
    res = (B @ np.stack([mesh128.derivative(u.values[0]),
                         mesh128.derivative(u.values[1])])
           + Pu - lam * u.values)
    assert np.max(np.abs(res - f.values)) < 1e-4


def test_resolvent_satisfies_boundary_conditions(trig_potential, dirichlet,
                                                 mesh96):
    K = green_kernel(trig_potential, dirichlet, 0.41 + 0.3j, mesh96)
    u = K.apply(_rand_f(mesh96, seed=5))
    u0 = np.array([mesh96.interpolate(u.values[i], 0.0) for i in range(2)])
    upi = np.array([mesh96.interpolate(u.values[i], PI) for i in range(2)])
    bc = dirichlet.C @ u0 + dirichlet.D @ upi
    assert np.max(np.abs(bc)) < 1e-8


@pytest.mark.parametrize("lam", [0.37 + 0.4j, 1.4 - 0.9j])
def test_diagonal_jump(dirichlet, trig_potential, mesh96, lam):
    eps = 1e-7
    for K in (green0_kernel(dirichlet, lam, mesh96),
              green_kernel(trig_potential, dirichlet, lam, mesh96)):
        for x in np.linspace(0.2, PI - 0.2, 10):
            above = K.eval_grid([x + eps], [x])[0, 0]
            below = K.eval_grid([x - eps], [x])[0, 0]
            assert np.max(np.abs((above - below) - K.jump)) < 1e-5


def test_pole_error_near_spectrum(dirichlet, mesh96):
    with pytest.raises(PoleError) as ei:
        green0_kernel(dirichlet, 2.0 + 1e-9j, mesh96)
    assert "2" in str(ei.value)
    with pytest.raises(PoleError):
        green_kernel(P0, dirichlet, 2.0 + 1e-9j, mesh96)


def test_batched_kernels_match_single(trig_potential, dirichlet, mesh96,
                                      monkeypatch):
    # 40 lambdas make 3 chunks of at most 16; each kernel is the one-lambda
    # kernel bit for bit
    lams = np.linspace(-4.0, 4.0, 40) + 0.7j
    calls = []
    inner = ode.propagate

    def counting(P, lams, mesh, **kw):
        calls.append(np.size(lams))
        return inner(P, lams, mesh, **kw)

    monkeypatch.setattr(ode, "propagate", counting)
    batched = list(green_kernels(trig_potential, dirichlet, lams, mesh96))
    assert calls == [16, 16, 8]
    monkeypatch.undo()
    f = _rand_f(mesh96, seed=7)
    ts = np.linspace(0.1, PI - 0.1, 7)
    xs = np.linspace(0.15, PI - 0.05, 5)
    for lam, K in zip(lams, batched):
        single = green_kernel(trig_potential, dirichlet, lam, mesh96)
        assert K.lam == single.lam == complex(lam)
        assert np.array_equal(K.apply(f).values, single.apply(f).values)
        assert np.array_equal(K.eval_grid(ts, xs), single.eval_grid(ts, xs))


def test_batched_kernels_pole_error(dirichlet, mesh96):
    lams = [0.4 + 0.3j, 1.1 - 0.5j, 2.0 + 1e-9j, 2.5 + 0.2j]
    with pytest.raises(PoleError):
        list(green_kernels(P0, dirichlet, lams, mesh96))


def test_kernel_sup_positive_and_finite(dirichlet, mesh96):
    K = green0_kernel(dirichlet, 0.5 + 0.5j, mesh96)
    s = kernel_sup(K)
    assert 0.0 < s < 50.0


def test_no_blowup_at_large_imaginary_lambda(dirichlet, mesh96):
    # the split-exponential evaluator must stay bounded as |Im lambda| grows
    for y in (8.0, 32.0, -32.0):
        K = green0_kernel(dirichlet, 1j * y, mesh96)
        assert kernel_sup(K) < 5.0
        u = K.apply(_rand_f(mesh96))
        assert np.all(np.isfinite(u.values))
        assert lp_norm(u, np.inf) < 5.0


@pytest.mark.parametrize("mu,nu,expect", [(2.0, 2.0, -1.0),
                                          (1.0, 2.0, -0.5),
                                          (2.0, np.inf, -0.5)])
def test_opnorm_scaling_slopes(dirichlet, mesh128, mu, nu, expect):
    est = opnorm_scaling(dirichlet, mu, nu,
                         [4.0, 8.0, 16.0, 32.0, 64.0], mesh=mesh128)
    assert est.slope == pytest.approx(expect, abs=0.15)
    assert np.all(est.estimates > 0.0)


def test_opnorm_scaling_rejects_nu_below_mu(dirichlet, mesh96):
    with pytest.raises(ValueError):
        opnorm_scaling(dirichlet, 2.0, 1.0, [4.0, 8.0], mesh=mesh96)
