import numpy as np
import pytest

import diraclab.green as green
import diraclab.ode as ode
from diraclab import (BoundaryMatrixPair, FundamentalSolution, GridFunction2,
                      NotRegularError, PoleError, PotentialMatrix, build_mesh,
                      fundamental_matrix, green0_kernel, green_kernel,
                      kernel_sup, localize, lp_norm, minors,
                      opnorm_scaling, resolvent_sum)
from diraclab.green import (POLE_TOL, SUP_EXCLUDE, SUP_GRID, _g0_coefficients,
                            _test_battery, _voc_apply)
from diraclab.ode import B_INV, det2, inv2

PI = np.pi
P0 = PotentialMatrix.zero()


# The per-point kernel evaluators and the scalar boundary solve that the
# grid evaluators and the batched solve replaced, kept as their oracle:
# every operation and operand order below is part of the contract.
def _oracle_boundary(P, U, lam, mesh):
    F = fundamental_matrix(P, lam, mesh)
    T = U.C + U.D @ F.monodromy
    det = det2(T)
    scale = max(1.0, float(np.max(np.abs(F.monodromy))))
    if abs(det) <= POLE_TOL * scale:
        raise PoleError(f"Delta({F.lam}) ~ 0: resolvent pole")
    return F, -np.linalg.solve(T, U.D @ F.monodromy)


def _oracle_constructed(P, U, lam, mesh, ts, xs):
    F, Pmat = _oracle_boundary(P, U, lam, mesh)
    t = np.asarray(ts, dtype=float)[None, :]
    x = np.asarray(xs, dtype=float)[:, None]
    shape = np.broadcast(t, x).shape
    tb = np.broadcast_to(t, shape).ravel()
    xb = np.broadcast_to(x, shape).ravel()
    Mt = F.at(tb)
    Mx = F.at(xb)
    mid = Pmat[None] + (tb < xb)[:, None, None] * np.eye(2)[None]
    out = Mx @ mid @ inv2(Mt) @ B_INV[None]
    return out.reshape(shape + (2, 2))


def _oracle_voc_apply(Pmat, Mn, mesh, values):
    # variation of constants on (..., N, 2, 2) node matrices, as _voc_apply
    # took them before it took entry planes
    h = np.diagonal(B_INV)[:, None] * values
    h0, h1 = h[..., 0, :], h[..., 1, :]
    d = det2(Mn)
    g = np.stack([(Mn[..., 1, 1] * h0 - Mn[..., 0, 1] * h1) / d,
                  (Mn[..., 0, 0] * h1 - Mn[..., 1, 0] * h0) / d], axis=-2)
    gcum = mesh.cumulative(g)
    inner = (Pmat @ mesh.integrate(g)[..., None])[..., 0]
    v = inner[..., None] + gcum
    return np.stack([Mn[..., 0, 0] * v[..., 0, :] + Mn[..., 0, 1] * v[..., 1, :],
                     Mn[..., 1, 0] * v[..., 0, :] + Mn[..., 1, 1] * v[..., 1, :]],
                    axis=-2)


def _oracle_g0_upper(U, lam, t, x):
    c = _g0_coefficients(minors(U), lam)
    shape = np.broadcast(t, x).shape
    hi = np.broadcast_to(t > x, shape)
    out = np.zeros(shape + (2, 2), dtype=complex)
    out[..., 0, 0] = np.where(
        hi, c["c11_hi"] * np.exp(1j * lam * (x - t + PI)),
        c["c11_lo"] * np.exp(1j * lam * (x - t)))
    out[..., 0, 1] = c["c12"] * np.exp(1j * lam * (x + t))
    out[..., 1, 0] = c["c21"] * np.exp(1j * lam * (2 * PI - x - t))
    out[..., 1, 1] = np.where(
        hi, c["c22_hi"] * np.exp(1j * lam * (t - x)),
        c["c22_lo"] * np.exp(1j * lam * (t - x + PI)))
    return out


def _oracle_g0(U, lam, ts, xs):
    t = np.asarray(ts, dtype=float)[None, :]
    x = np.asarray(xs, dtype=float)[:, None]
    if lam.imag >= 0:
        return _oracle_g0_upper(U, lam, t, x)
    return -_oracle_g0_upper(BoundaryMatrixPair(U.D, U.C), -lam,
                             PI - t, PI - x)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.uint64),
        np.ascontiguousarray(b).view(np.uint64))


def _sup_grid():
    # the grid of kernel_sup
    return (np.linspace(0.013, PI - 0.009, SUP_GRID),
            np.linspace(0.007, PI - 0.011, SUP_GRID))


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
    # the graded mesh is not symmetric under x -> pi - x, so the reflected
    # formulas run on a mesh other than the kernel's own
    lam = 0.41 + im_sign * 2.3j
    ts = np.linspace(0.1, PI - 0.1, 11)
    for mesh in (mesh96, build_mesh(96, singular_points=(1.1,))):
        K0 = green0_kernel(dirichlet, lam, mesh)
        Kc = green_kernel(P0, dirichlet, lam, mesh)
        assert np.max(np.abs(K0.eval_grid(ts, ts + 0.05)
                             - Kc.eval_grid(ts, ts + 0.05))) < 1e-8
        f = _rand_f(mesh, seed=2)
        assert lp_norm(K0.apply(f) - Kc.apply(f), np.inf) < 1e-8


def test_resolvent_identity_free(dirichlet, mesh96):
    # (B d/dx - lambda) R0(lambda) f = f
    lam = 0.37 + 0.4j
    K = green0_kernel(dirichlet, lam, mesh96)
    f = _rand_f(mesh96)
    u = K.apply(f)
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
    # the message names the eigenvalue 2 of U, also below the real axis,
    # where the kernel is built for the reflected form at -lambda
    for lam in (2.0 + 1e-9j, 2.0 - 1e-9j):
        with pytest.raises(PoleError) as ei:
            green0_kernel(dirichlet, lam, mesh96)
        assert "nearest eigenvalue (2" in str(ei.value)
    with pytest.raises(PoleError):
        green_kernel(P0, dirichlet, 2.0 + 1e-9j, mesh96)


ORACLE_LAMS = [0.4 + 1.5j, 2.3 - 0.7j, 0.7 + 0.0j, -3.1 - 2.2j]


@pytest.mark.parametrize("lam", ORACLE_LAMS)
@pytest.mark.parametrize("potential", ["trig_potential", "full_trig_potential",
                                       "const_potential"])
def test_constructed_kernel_matches_oracle_bitwise(potential, lam, dirichlet,
                                                   periodic, request):
    # the grid evaluator, the node apply (through the boundary solve) and
    # kernel_sup reproduce the per-point evaluator and the scalar solve
    P = request.getfixturevalue(potential)
    mesh = build_mesh(64, order=5, singular_points=(1.1,))
    ts, xs = np.linspace(0.013, PI - 0.009, 23), np.linspace(0.007, 3.1, 17)
    f = _rand_f(mesh, seed=4)
    for U in (dirichlet, periodic):
        K = green_kernel(P, U, lam, mesh)
        assert _same_bits(K.eval_grid(ts, xs),
                          _oracle_constructed(P, U, lam, mesh, ts, xs))
        F, Pmat = _oracle_boundary(P, U, lam, mesh)
        assert _same_bits(K.apply(f).values,
                          _oracle_voc_apply(Pmat, F.node_values, mesh,
                                            f.values))
        st, sx = _sup_grid()
        ref = _oracle_constructed(P, U, lam, mesh, st, sx)
        mask = np.abs(sx[:, None] - st[None, :]) > SUP_EXCLUDE
        assert kernel_sup(K) == float(np.max(np.abs(ref[mask])))


@pytest.mark.parametrize("lam", ORACLE_LAMS)
def test_g0_grid_matches_oracle_bitwise(lam, dirichlet, periodic):
    mesh = build_mesh(64, order=5, singular_points=(1.1,))
    ts, xs = np.linspace(0.013, PI - 0.009, 23), np.linspace(0.007, 3.1, 17)
    st, sx = _sup_grid()
    mask = np.abs(sx[:, None] - st[None, :]) > SUP_EXCLUDE
    for U in (dirichlet, periodic):
        K = green0_kernel(U, lam, mesh)
        assert _same_bits(K.eval_grid(ts, xs), _oracle_g0(U, lam, ts, xs))
        assert _same_bits(K.eval_grid([1.2], [0.4]),
                          _oracle_g0(U, lam, [1.2], [0.4]))
        ref = _oracle_g0(U, lam, st, sx)
        assert kernel_sup(K) == float(np.max(np.abs(ref[mask])))


def test_constructed_grid_evaluates_m_once_per_coordinate(trig_potential,
                                                          dirichlet, mesh96,
                                                          monkeypatch):
    # kernel_sup's 40 x 40 grid asks M at the 40 ts and the 40 xs, not at
    # each of the 1,600 pairs
    sizes = []
    inner = FundamentalSolution.at

    def counting(self, x):
        sizes.append(np.size(x))
        return inner(self, x)

    monkeypatch.setattr(FundamentalSolution, "at", counting)
    K = green_kernel(trig_potential, dirichlet, 0.4 + 1.5j, mesh96)
    kernel_sup(K)
    assert sizes == [SUP_GRID, SUP_GRID]
    assert K.eval_grid(np.linspace(0.1, 3.0, 7),
                       np.linspace(0.2, 2.9, 5)).shape == (5, 7, 2, 2)


@pytest.mark.parametrize("potential", ["P0", "trig_potential"])
def test_green_kernel_pole_error_matches_scalar_solve(potential, dirichlet,
                                                      mesh96, request):
    # the batched solve with one lambda refuses the same lambda with the
    # same message as the scalar solve did
    P = P0 if potential == "P0" else request.getfixturevalue(potential)
    eig = localize(P, dirichlet, 2, mesh96).values[1]
    for lam in (eig, eig + 1e-9j, 2.0 + 1e-9j, 2.0, 1.3 + 0.2j):
        try:
            _oracle_boundary(P, dirichlet, lam, mesh96)
            expected = None
        except PoleError as exc:
            expected = str(exc)
        if expected is None:
            green_kernel(P, dirichlet, lam, mesh96)
        else:
            with pytest.raises(PoleError) as ei:
                green_kernel(P, dirichlet, lam, mesh96)
            assert str(ei.value) == expected


def test_g0_irregular_form_raises_not_regular(mesh96):
    # an irregular form is refused before any pole check, off the real axis
    # and on it alike
    bf = BoundaryMatrixPair(np.eye(2), np.zeros((2, 2)))
    for lam in (0.5 + 0.5j, 0.5 - 0.5j, 2.0):
        with pytest.raises(NotRegularError):
            green0_kernel(bf, lam, mesh96)


@pytest.mark.parametrize("potential", ["trig_potential", "const_potential"])
def test_resolvent_sum_matches_single_kernels(potential, dirichlet, mesh96,
                                              monkeypatch, request):
    # 40 lambdas make chunks of 16, 16 and 8; the batched sum is the sum of
    # one-lambda kernel applies
    P = request.getfixturevalue(potential)
    lams = np.linspace(-4.0, 4.0, 40) + 0.7j
    weights = np.exp(1j * np.linspace(0.0, 2.0, 40)) * np.linspace(1, 2, 40)
    f = _rand_f(mesh96, seed=7)
    calls = []
    inner = green.node_planes

    def counting(P, lams, mesh):
        calls.append(np.size(lams))
        return inner(P, lams, mesh)

    monkeypatch.setattr(green, "node_planes", counting)
    batched = resolvent_sum(P, dirichlet, lams, weights, f.values, mesh96)
    assert calls == [16, 16, 8]
    monkeypatch.undo()
    single = sum(w * green_kernel(P, dirichlet, lam, mesh96).apply(f).values
                 for lam, w in zip(lams, weights))
    err = np.max(np.abs(batched - single)) / np.max(np.abs(single))
    assert err <= 1e-13


def test_resolvent_sum_pole_error_names_first_pole(dirichlet, mesh96):
    # poles at 1 and 2 (rows 3 and 10, first chunk) and 3 (row 18, second
    # chunk): the message names the first in order
    lams = np.linspace(-3.0, 3.0, 20) + 0.3j
    lams[3] = 1.0 + 1e-9j
    lams[10] = 2.0 + 1e-9j
    lams[18] = 3.0 - 1e-9j
    with pytest.raises(PoleError, match=r"Delta\(\(1\+1e-09j\)\)"):
        resolvent_sum(P0, dirichlet, lams, np.ones(20), _rand_f(mesh96).values,
                      mesh96)
    # a pole in a later chunk only
    lams = np.linspace(-3.0, 3.0, 20) + 0.3j
    lams[18] = 3.0 - 1e-9j
    with pytest.raises(PoleError, match=r"Delta\(\(3-1e-09j\)\)"):
        resolvent_sum(P0, dirichlet, lams, np.ones(20), _rand_f(mesh96).values,
                      mesh96)


def test_resolvent_sum_refuses_mismatched_weights_and_values(dirichlet,
                                                             mesh96):
    # one weight per lambda and f as (2, N), checked before any propagation
    lams = np.linspace(-3.0, 3.0, 16) + 0.3j
    f = _rand_f(mesh96).values
    for n in (20, 12):
        with pytest.raises(ValueError, match=f"{n} weights for 16 lambdas"):
            resolvent_sum(P0, dirichlet, lams, np.ones(n), f, mesh96)
    for bad in (f[0], f[:, :-1], f[None]):
        with pytest.raises(ValueError, match=r"shape \(2, 480\)"):
            resolvent_sum(P0, dirichlet, lams, np.ones(16), bad, mesh96)


def test_voc_apply_on_plane_views_matches_oracle_bitwise(
        full_trig_potential, dirichlet, periodic):
    # plane views of (L, N, 2, 2) node matrices, as the Jordan chains and
    # green_kernel pass them, and their contiguous copies give the bits of
    # the apply on (L, N, 2, 2) matrices
    mesh = build_mesh(64, order=5, singular_points=(1.1,))
    lams = np.array(ORACLE_LAMS)
    Mb, Mn = ode.propagate(full_trig_potential, lams, mesh)
    f = _rand_f(mesh, seed=5).values
    for U in (dirichlet, periodic):
        Pmat = green._boundary_coefficients(U, lams, Mb[:, -1])
        want = _oracle_voc_apply(Pmat, Mn, mesh, f)
        view = np.moveaxis(Mn, (-2, -1), (0, 1))
        assert _same_bits(_voc_apply(Pmat, view, mesh, f), want)
        assert _same_bits(_voc_apply(Pmat, np.ascontiguousarray(view), mesh,
                                     f), want)
        assert _same_bits(_voc_apply(Pmat[1], view[:, :, 1], mesh, f),
                          want[1])


@pytest.mark.parametrize("y", [8.0, -8.0])
def test_g0_apply_on_stacked_battery(dirichlet, mesh128, y):
    # one apply over the (n, 2, N) battery, in both half-planes, is the
    # per-function apply row by row
    K = green0_kernel(dirichlet, 1j * y, mesh128)
    battery = _test_battery(mesh128)
    stacked = K.node_apply(battery)
    assert stacked.shape == battery.shape
    for f, row in zip(battery, stacked):
        ref = K.apply(GridFunction2(mesh128, f)).values
        assert np.max(np.abs(row - ref)) <= 1e-13 * np.max(np.abs(ref))


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
    # NaN compares false with everything, so it would pass nu < mu and
    # give nan estimates and a nan slope; below 1 is no L_mu norm at all
    nan = float("nan")
    for mu, nu, name in ((nan, 2.0, "mu"), (2.0, nan, "nu"),
                         (nan, nan, "mu"), (0.5, 2.0, "mu"),
                         (0.5, 0.5, "mu"), (1.0, 0.0, "nu"),
                         (-np.inf, 2.0, "mu")):
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            opnorm_scaling(dirichlet, mu, nu, [4.0, 8.0], mesh=mesh96)


def test_opnorm_scaling_rejects_nonpositive_y(dirichlet, mesh96):
    # log(-4) would make the fitted slope nan
    for ys in ([-4.0, 8.0], [0.0, 8.0, 16.0]):
        with pytest.raises(ValueError, match="positive"):
            opnorm_scaling(dirichlet, 1.0, 2.0, ys, mesh=mesh96)


def test_opnorm_scaling_rejects_non_finite_y(dirichlet, mesh96):
    # y = inf overflows the kernel and then fails in np.polyfit with an
    # SVD that does not converge; nan compares false with 0 as well
    for ys in ([4.0, 8.0, np.inf], [4.0, np.nan, 8.0]):
        with pytest.raises(ValueError, match="positive finite values"):
            opnorm_scaling(dirichlet, 1.0, 2.0, ys, mesh=mesh96)


def test_opnorm_scaling_rejects_fewer_than_two_distinct_y(dirichlet, mesh96):
    # one y leaves the slope undetermined
    for ys in ([8.0], [8.0, 8.0]):
        with pytest.raises(ValueError, match="distinct"):
            opnorm_scaling(dirichlet, 1.0, 2.0, ys, mesh=mesh96)


@pytest.mark.parametrize("mu,nu", [(1.0, 2.0), (2.0, np.inf)])
def test_opnorm_scaling_matches_per_function_loop(dirichlet, mesh128, mu, nu):
    ys = [4.0, 8.0, 16.0, 32.0, 64.0]
    est = opnorm_scaling(dirichlet, mu, nu, ys, mesh=mesh128)
    battery = [GridFunction2(mesh128, f) for f in _test_battery(mesh128)]
    ref = []
    for y in ys:
        K = green0_kernel(dirichlet, 1j * y, mesh128)
        ref.append(max(lp_norm(K.apply(f), nu) / lp_norm(f, mu)
                       for f in battery))
    assert np.allclose(est.estimates, ref, rtol=1e-12, atol=0.0)
