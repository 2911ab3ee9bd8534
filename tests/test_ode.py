import numpy as np
import pytest

import diraclab.ode as ode
from diraclab import (NotAnEigenvalueError, OverflowCapError, PotentialMatrix,
                      ScalarFunction, boundary_from_config, build_mesh,
                      bvp_eigenfunction, char_det, delta0, expm2,
                      fundamental_matrix, lp_norm, make_potential, propagate)
from diraclab.ode import mul2

PI = np.pi


def _const_monodromy(c, lam):
    """Closed form M(pi, lam) for P = [[0, c], [c, 0]]."""
    om = np.sqrt(complex(lam) ** 2 - c ** 2)
    A = np.array([[1j * lam, -1j * c], [1j * c, -1j * lam]])
    if abs(om) < 1e-12:
        return np.eye(2) + PI * A
    return np.cos(om * PI) * np.eye(2) + (np.sin(om * PI) / om) * A


def test_expm2_against_eig():
    rng = np.random.default_rng(1)
    for _ in range(20):
        M = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        w, V = np.linalg.eig(M)
        ref = V @ np.diag(np.exp(w)) @ np.linalg.inv(V)
        assert np.allclose(expm2(M), ref, atol=1e-10)


def test_mul2_matches_einsum_bitwise():
    # mul2 rounds each entry in einsum's order, so the products agree bit
    # for bit, also where B broadcasts over an axis of A
    rng = np.random.default_rng(7)

    def cnormal(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    A, B = cnormal(3, 4, 5, 2, 2), cnormal(3, 4, 2, 2)
    ref = np.einsum("lkjab,lkbc->lkjac", A, B)
    assert np.array_equal(mul2(A, B[:, :, None]), ref)
    A, B = cnormal(6, 2, 2), cnormal(6, 2, 2)
    assert np.array_equal(mul2(A, B), np.einsum("lab,lbc->lac", A, B))


def test_propagate_nodes_match_einsum_formula(full_trig_potential):
    # node matrices M(x_j) = T(panel start -> x_j) M(panel start), with the
    # product taken as np.einsum takes it
    mesh = build_mesh(24, order=5)
    lams = np.array([0.3 + 0.1j, 5.7 - 0.02j, -31.9 + 0.4j])
    Mb, Mn = propagate(full_trig_potential, lams, mesh)
    sub_len = mesh.nodes2d - mesh.panel_starts[:, None]
    sub_start = np.broadcast_to(mesh.panel_starts[:, None], sub_len.shape)
    Tn = ode._magnus_factors(full_trig_potential, lams, sub_start, sub_len)
    ref = np.einsum("lkjab,lkbc->lkjac", Tn, Mb[:, :-1])
    assert np.array_equal(Mn, ref.reshape(lams.size, mesh.size, 2, 2))


def test_expm2_nilpotent():
    N = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(expm2(N), np.eye(2) + N)


def test_free_propagation_exact():
    mesh = build_mesh(16, order=5)
    lam = 1.7 - 0.4j
    F = fundamental_matrix(PotentialMatrix.zero(), lam, mesh)
    expect = np.diag([np.exp(1j * lam * PI), np.exp(-1j * lam * PI)])
    assert np.max(np.abs(F.monodromy - expect)) < 1e-12


def test_constant_potential_monodromy_oracle(const_potential):
    mesh = build_mesh(16, order=5)
    for lam in (0.9, 2.4 + 0.3j, -1.1 + 1.0j):
        F = fundamental_matrix(const_potential, lam, mesh)
        assert np.max(np.abs(F.monodromy - _const_monodromy(0.3, lam))) < 1e-11


def test_magnus_fourth_order_convergence(trig_potential):
    lam = 8.3
    errs = []
    ref = fundamental_matrix(trig_potential, lam, build_mesh(512, 5)).monodromy
    for panels in (32, 64, 128):
        F = fundamental_matrix(trig_potential, lam, build_mesh(panels, 5))
        errs.append(np.max(np.abs(F.monodromy - ref)))
    assert errs[0] / errs[1] > 10.0
    assert errs[1] / errs[2] > 10.0


def test_liouville_identity(full_trig_potential):
    mesh = build_mesh(128, order=5)
    F = fundamental_matrix(full_trig_potential, 3.3 + 0.4j, mesh)
    assert F.det_residual() < 1e-9


def test_at_interpolates_between_breaks(trig_potential):
    mesh = build_mesh(64, order=5)
    F = fundamental_matrix(trig_potential, 2.1, mesh)
    xs = np.array([0.0, 0.3137, PI / 2, PI])
    vals = F.at(xs)
    assert np.max(np.abs(vals[0] - np.eye(2))) < 1e-13
    assert np.max(np.abs(vals[-1] - F.monodromy)) < 1e-12
    Fa = fundamental_matrix(trig_potential, 2.1, build_mesh(256, 5))
    assert np.max(np.abs(vals[1] - Fa.at(0.3137))) < 1e-6


def test_char_det_matches_delta0(dirichlet):
    mesh = build_mesh(32, order=5)
    lams = np.array([0.4 + 0.2j, 3.7, -2.0 - 1.5j])
    got = char_det(PotentialMatrix.zero(), dirichlet, lams, mesh)
    assert np.max(np.abs(got - delta0(dirichlet, lams))) < 1e-10


def test_char_det_chunks_match_single_lambdas(trig_potential, periodic,
                                             monkeypatch):
    # 200 lambdas cross three chunk boundaries; every value equals its
    # one-lambda call bit for bit
    mesh = build_mesh(32, order=5)
    rng = np.random.default_rng(3)
    lams = rng.uniform(-40, 40, 200) + 1j * rng.uniform(-3, 3, 200)
    single = np.array([char_det(trig_potential, periodic, lam, mesh)
                       for lam in lams])
    sizes = []
    inner = ode.propagate

    def counting(P, lams, mesh, **kw):
        sizes.append(np.size(lams))
        return inner(P, lams, mesh, **kw)

    monkeypatch.setattr(ode, "propagate", counting)
    batched = char_det(trig_potential, periodic, lams, mesh)
    assert sizes == [64, 64, 64, 8] and ode.DET_CHUNK == 64
    assert np.array_equal(batched, single)


def test_overflow_cap():
    mesh = build_mesh(8, order=5)
    with pytest.raises(OverflowCapError):
        propagate(PotentialMatrix.zero(), [100j], mesh)


def test_bvp_eigenfunction_free_dirichlet(dirichlet):
    mesh = build_mesh(64, order=5)
    r = bvp_eigenfunction(PotentialMatrix.zero(), dirichlet, 3.0, mesh)
    assert not r.degenerate
    y = r.functions[0]
    assert lp_norm(y, 2) == pytest.approx(1.0, abs=1e-10)
    # y = (e^{3ix}, e^{-3ix}) v with v1 = v2 from the boundary condition
    ratio = y.values[0] * np.exp(-3j * mesh.nodes)
    assert np.max(np.abs(ratio - ratio[0])) < 1e-10


def test_bvp_rejects_non_eigenvalue(dirichlet):
    mesh = build_mesh(64, order=5)
    with pytest.raises(NotAnEigenvalueError):
        bvp_eigenfunction(PotentialMatrix.zero(), dirichlet, 3.4, mesh)


def test_bvp_degenerate_periodic(periodic):
    mesh = build_mesh(64, order=5)
    r = bvp_eigenfunction(PotentialMatrix.zero(), periodic, 2.0, mesh)
    assert r.degenerate and len(r.functions) == 2


def test_singular_potential_propagation():
    # integrable power singularity handled by the graded panels
    P = make_potential({"family": "power", "alpha": 0.4, "x0": 1.1,
                        "amplitude": 0.5})
    mesh_a = build_mesh(96, order=5, singular_points=P.singular_points)
    mesh_b = build_mesh(192, order=5, singular_points=P.singular_points)
    Fa = fundamental_matrix(P, 1.3, mesh_a)
    Fb = fundamental_matrix(P, 1.3, mesh_b)
    # kappa = 2 singularity limits the observed rate; the graded panels
    # still converge, just not at the smooth-coefficient order
    assert np.max(np.abs(Fa.monodromy - Fb.monodromy)) < 1e-3
