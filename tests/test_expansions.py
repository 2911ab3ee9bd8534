import dataclasses
import re

import numpy as np
import pytest

import diraclab.expansions as expansions
import diraclab.green as green
import diraclab.ode as ode
import diraclab.spectrum as spectrum
from diraclab import (Circle, ContourError, GridFunction2,
                      NotAnEigenvalueError, PotentialMatrix, RootSystemError,
                      adjoint_pair, build_mesh, bvp_eigenfunction,
                      expansion_coefficients, fundamental_matrix,
                      gauge_reduce, inner_product, localization_seeds,
                      localize, lp_norm, make_potential, partial_sum,
                      partial_sum_contour, projector_contour, root_system)
from diraclab.ode import B_INV, inv2

PI = np.pi
P0 = PotentialMatrix.zero()


def _f_smooth(mesh):
    return GridFunction2.from_callables(
        mesh, lambda x: np.sin(x) + 0.3 * np.cos(2 * x), lambda x: x / PI)


def test_biorthogonality_free(rs_free_m8):
    assert rs_free_m8.biorthogonality_residual() < 1e-10


def test_biorthogonality_perturbed(rs_const_m8):
    assert rs_const_m8.biorthogonality_residual() < 1e-9


def test_indices_range_guard(rs_free_m8):
    assert list(rs_free_m8.indices(2)) == list(range(-4, 6))
    with pytest.raises(ValueError):
        rs_free_m8.indices(9)
    # S_-1 would sum over no index at all
    with pytest.raises(ValueError):
        rs_free_m8.indices(-1)
    assert list(rs_free_m8.indices(0)) == [0, 1]
    # an integral float is that integer; any other m is refused by name
    assert rs_free_m8.indices(2.0) == rs_free_m8.indices(2)
    for m in (1.5, "2"):
        with pytest.raises(ValueError, match=f"m={m!r} is not an integer"):
            rs_free_m8.indices(m)


def test_root_system_takes_m_max_as_indices_takes_m(dirichlet, mesh96):
    want = root_system(P0, dirichlet, 2, mesh96)
    got = root_system(P0, dirichlet, 2.0, mesh96)
    assert got.m_max == 2 and isinstance(got.m_max, int)
    assert got.Y.tobytes() == want.Y.tobytes()
    with pytest.raises(ValueError, match="m_max=1.5 is not an integer"):
        root_system(P0, dirichlet, 1.5, mesh96)


def test_root_system_rejects_negative_m_max(dirichlet, mesh96):
    with pytest.raises(ValueError, match="m_max=-1 is negative"):
        root_system(P0, dirichlet, -1, mesh96)


def test_free_dirichlet_coefficients_are_fourier(rs_free_m8, mesh96):
    # y_n proportional to (e^{inx}, e^{-inx}); the coefficient of a pure
    # mode concentrates on the matching index
    f = GridFunction2.from_callables(
        mesh96, lambda x: np.exp(3j * x), lambda x: np.exp(-3j * x))
    cs = expansion_coefficients(rs_free_m8, f, m=4)
    mags = {n: abs(c) for n, c in cs.items()}
    assert mags[3] > 1.0
    rest = max(v for n, v in mags.items() if n != 3)
    assert rest < 1e-8 * mags[3]


def test_partial_sum_converges_free(rs_free_m8, mesh96):
    f = _f_smooth(mesh96)
    errs = [lp_norm(partial_sum(rs_free_m8, f, m) - f, 2) for m in (1, 4, 8)]
    assert errs[0] > errs[1] > errs[2]


def test_partial_sum_reproduces_bandlimited(rs_free_m8, mesh96):
    # f in the span of the first clusters is reproduced exactly
    e = rs_free_m8.entries
    f = GridFunction2(mesh96, 0.7 * e[1].y.values - 0.2j * e[-2].y.values)
    s = partial_sum(rs_free_m8, f, 2)
    assert lp_norm(s - f, np.inf) < 1e-10


def test_projector_idempotent_and_orthogonal(rs_const_m8, mesh96):
    f = _f_smooth(mesh96)
    p1 = partial_sum(rs_const_m8, f, 1)
    assert lp_norm(partial_sum(rs_const_m8, p1, 1) - p1, 2) < 1e-9
    # complementary coefficients of the projection vanish
    cs = expansion_coefficients(rs_const_m8, p1, m=4)
    outside = max(abs(cs[n]) for n in cs if abs(n) > 3)
    assert outside < 1e-9


def _record_nodes(monkeypatch):
    batches = []
    inner = green.node_planes

    def recording(P, lams, mesh):
        batches.append(np.asarray(lams))
        return inner(P, lams, mesh)

    monkeypatch.setattr(green, "node_planes", recording)
    return batches


def test_contour_projector_matches_biorthogonal(rs_const_m8, mesh96,
                                                const_potential, dirichlet,
                                                monkeypatch):
    f = _f_smooth(mesh96)
    e = rs_const_m8.entries
    circ = Circle(0.5 * (e[0].lam + e[1].lam),
                  0.5 * abs(e[0].lam - e[1].lam) + 0.25)
    batches = _record_nodes(monkeypatch)
    via_contour = projector_contour(const_potential, dirichlet, circ, f,
                                    mesh96)
    direct = (inner_product(f, e[0].z) * e[0].y.values
              + inner_product(f, e[1].z) * e[1].y.values)
    assert np.max(np.abs(via_contour.values - direct)) < 1e-8
    # 32, 64 and 128 nodes, each kernel built once: 128 nodes, not 224,
    # propagated 16 per call as 2 + 2 + 4 calls
    nodes = np.concatenate(batches).tolist()
    assert len(nodes) == 128 == len(set(nodes))
    assert len(batches) == 8


def test_contour_projector_unconverged_raises(rs_const_m8, mesh96,
                                              const_potential, dirichlet,
                                              monkeypatch):
    # one rule has no successor to agree with, however loose the tolerance
    monkeypatch.setattr(expansions, "PROJECTOR_TOL", 1.0)
    monkeypatch.setattr(expansions, "PROJECTOR_DOUBLINGS", 0)
    circ = Circle(rs_const_m8.entries[0].lam, 0.25)
    with pytest.raises(ContourError):
        projector_contour(const_potential, dirichlet, circ,
                          _f_smooth(mesh96), mesh96)


def test_partial_sum_contour_agreement(rs_const_m8, mesh96):
    f = _f_smooth(mesh96)
    direct = partial_sum(rs_const_m8, f, 1)
    via = partial_sum_contour(rs_const_m8, f, 1)
    assert lp_norm(via - direct, np.inf) < 1e-7


def test_partial_sum_contour_refuses_m_as_partial_sum_does(rs_const_m8,
                                                           mesh96,
                                                           monkeypatch):
    # m outside [0, m_max], or a non-integer m, raises partial_sum's
    # ValueError before any contour work
    f = _f_smooth(mesh96)
    monkeypatch.setattr(expansions, "localization_seeds", None)
    for m in (-1, 9, 1.5):
        with pytest.raises(ValueError) as want:
            partial_sum(rs_const_m8, f, m)
        with pytest.raises(ValueError) as got:
            partial_sum_contour(rs_const_m8, f, m)
        assert str(got.value) == str(want.value)


def _circle_sum(rs, f, m):
    """Oracle of partial_sum_contour: S_m f as the sum of the projectors
    over the circles gamma_k, k in [-m, m], one contour per pair."""
    spec0, _ = localization_seeds(rs.potential, rs.form, rs.mesh)
    fam = spectrum.contour_family(spec0, rs.eigs, validate=False)
    return sum(projector_contour(rs.potential, rs.form, fam.gammas[k], f,
                                 rs.mesh).values for k in range(-m, m + 1))


@pytest.fixture(scope="module")
def rs_power_graded(dirichlet):
    # the graded 169-panel mesh of the power potential
    P = make_potential({"family": "power", "alpha": 0.4, "x0": 1.1,
                        "amplitude": 0.5})
    mesh = build_mesh(128, order=5, singular_points=P.singular_points)
    assert mesh.n_panels == 169
    return root_system(P, dirichlet, 4, mesh)


@pytest.fixture(scope="module")
def rs_const128(const_potential, dirichlet, mesh128):
    return root_system(const_potential, dirichlet, 4, mesh128)


@pytest.mark.parametrize("system", ["rs_power_graded", "rs_const128"])
def test_partial_sum_contour_matches_circle_sum(system, request):
    rs = request.getfixturevalue(system)
    f = _f_smooth(rs.mesh)
    for m in (0, 1, 2):
        oracle = _circle_sum(rs, f, m)
        got = partial_sum_contour(rs, f, m).values
        assert np.max(np.abs(got - oracle)) < 1e-12 * np.max(np.abs(oracle))


def test_partial_sum_contour_is_one_projector_call(rs_const128, monkeypatch):
    # one ellipse around Gamma_2 accepts at 256 nodes, each propagated
    # once, where the five circles gamma_k took 640
    batches = _record_nodes(monkeypatch)
    calls = []
    inner = expansions.projector_contour

    def counting(*args):
        calls.append(args[2])
        return inner(*args)

    monkeypatch.setattr(expansions, "projector_contour", counting)
    partial_sum_contour(rs_const128, _f_smooth(rs_const128.mesh), 2)
    assert [type(c) for c in calls] == [spectrum.Ellipse]
    nodes = np.concatenate(batches).tolist()
    assert len(nodes) == 256 == len(set(nodes))


def test_partial_sum_contour_matches_partial_sum_at_m_max(rs_const_m8,
                                                          mesh96):
    f = _f_smooth(mesh96)
    direct = partial_sum(rs_const_m8, f, 8).values
    via = partial_sum_contour(rs_const_m8, f, 8).values
    assert np.max(np.abs(via - direct)) < 1e-12 * np.max(np.abs(direct))


def test_ellipse_is_inscribed_in_gamma_m(rs_const128):
    rs = rs_const128
    spec0, _ = localization_seeds(rs.potential, rs.form, rs.mesh)
    rect = spectrum.contour_family(spec0, rs.eigs,
                                   validate=False).big_contour(2)
    ellipse = spectrum.Ellipse.inscribed(rect)
    ends = ellipse.at(np.array([0.0, 0.5 * PI, PI, 1.5 * PI]))[0]
    want = [rect.re_max, ellipse.center + 1j * rect.im_half, rect.re_min,
            ellipse.center - 1j * rect.im_half]
    assert np.allclose(ends, want, rtol=0.0, atol=1e-14)
    # the derivative the trapezoid rule weights by, against a difference
    theta, h = np.linspace(0.1, 6.0, 7), 1e-6
    diff = (ellipse.at(theta + h)[0] - ellipse.at(theta - h)[0]) / (2 * h)
    assert np.allclose(ellipse.at(theta)[1], diff, rtol=0.0, atol=1e-8)


@pytest.mark.parametrize("n, move, phrase", [
    # lambda_5 closes Gamma_2 on the right; lifted by 3i it sits in the
    # rectangle's corner, outside the ellipse
    (5, lambda v: v[5] + 3j, "leaves out lambda_n for n in [5]"),
    # lambda_6 moved onto lambda_1, in the middle of the ellipse
    (6, lambda v: v[1], "encloses lambda_n for n in [6]"),
], ids=["inner-left-out", "outer-enclosed"])
def test_partial_sum_contour_checks_containment_first(rs_const128, n, move,
                                                      phrase, monkeypatch):
    rs = rs_const128
    values = dict(rs.eigs.values)
    values[n] = move(values)
    moved = dataclasses.replace(rs, eigs=dataclasses.replace(rs.eigs,
                                                             values=values))
    batches = _record_nodes(monkeypatch)
    with pytest.raises(ContourError, match=re.escape(phrase)):
        partial_sum_contour(moved, _f_smooth(rs.mesh), 2)
    assert batches == []


def test_periodic_double_eigenvalues(periodic, const_potential, mesh96):
    rs = root_system(const_potential, periodic, 2, mesh96)
    # pairs +-1 are genuine doubles: two independent eigenfunctions
    assert rs.entries[2].role == "eigen" and rs.entries[3].role == "eigen"
    assert rs.entries[2].cluster == rs.entries[3].cluster
    assert rs.biorthogonality_residual() < 1e-8
    f = GridFunction2.from_callables(
        mesh96, lambda x: np.exp(2j * x), lambda x: 0.3 * np.exp(-2j * x))
    # a band-limited periodic f is reproduced once its cluster is included
    s = partial_sum(rs, f, 2)
    assert lp_norm(s - f, np.inf) < 1e-6


def test_free_periodic_reproduces_periodic_function(periodic, mesh96):
    rs = root_system(P0, periodic, 2, mesh96)
    f = GridFunction2.from_callables(
        mesh96, lambda x: np.exp(2j * x) + 1.0, lambda x: np.exp(-4j * x))
    assert lp_norm(partial_sum(rs, f, 2) - f, np.inf) < 1e-10


def test_coefficient_count(rs_const_m8, mesh96):
    f = _f_smooth(mesh96)
    cs = expansion_coefficients(rs_const_m8, f)
    assert len(cs) == 4 * 8 + 2


def test_biorthogonality_residual_matches_pairwise_loop(rs_const_m8):
    for sample in (None, [-16, -3, 0, 1, 7, 17], [3, 3, -5]):
        idx = list(rs_const_m8.indices()) if sample is None else sample
        loop = max(abs(inner_product(rs_const_m8.entries[j].y,
                                     rs_const_m8.entries[k].z)
                       - (1.0 if j == k else 0.0))
                   for j in idx for k in idx)
        got = rs_const_m8.biorthogonality_residual(sample)
        assert abs(got - loop) < 1e-14
    assert rs_const_m8.biorthogonality_residual([]) == 0.0
    for bad in (-17, 18):
        with pytest.raises(KeyError):
            rs_const_m8.biorthogonality_residual([0, bad])


# p2-only step: every antiperiodic eigenvalue stays double with a Jordan
# block; the jumps pi/4, 3pi/4 are panel boundaries of mesh96
STEP = {"family": "step", "breaks": [PI / 4, 3 * PI / 4],
        "values": [0.5, 1.0, -0.5]}


def test_jordan_blocks_antiperiodic_step(antiperiodic, mesh96):
    P = make_potential(STEP)
    rs = root_system(P, antiperiodic, 2, mesh96)
    assert any(e.role == "associated" for e in rs.entries.values())
    assert rs.biorthogonality_residual() < 1e-8


def _associated_oracle(U, y, Mn, monodromy, mesh):
    """The variation-of-constants formula of the associated functions
    before they went through the resolvent's apply: g = M^{-1} B^{-1} y,
    boundary coefficients by least squares on the integrated g."""
    g = np.einsum("nab,bn->an", inv2(Mn) @ B_INV[None], y)
    T = U.C + U.D @ monodromy
    rhs = -U.D @ (monodromy @ mesh.integrate(g))
    c, *_ = np.linalg.lstsq(T, rhs, rcond=None)
    return np.einsum("nab,bn->an", Mn, c[:, None] + mesh.cumulative(g))


@pytest.mark.parametrize("adjoint", [False, True])
def test_jordan_chains_solve_the_boundary_problem(antiperiodic, mesh96,
                                                  adjoint):
    # each associated function u of an eigenfunction y at lam solves
    # (B d/dx + P - lam) u = y with U(u) = 0, and matches the old formula
    P, U = make_potential(STEP), antiperiodic
    eigs = localize(P, U, 2, mesh96)
    lams, slots = expansions._distinct(eigs, expansions._clusters(eigs))
    if adjoint:
        P, U, lams = P.adjoint(), adjoint_pair(U), np.conj(lams)
    out = np.empty((len(eigs.values), 2, mesh96.size), dtype=complex)
    roles, _ = expansions._fill_root_vectors(P, U, lams, slots, mesh96, out)
    x = mesh96.nodes
    B = np.diag([-1j, 1j])
    chains = 0
    for lam, (mult, row, _) in zip(lams, slots):
        if "associated" not in roles[row:row + mult]:
            continue
        assert roles[row:row + mult] == ["eigen", "associated"]
        y, u = out[row], out[row + 1]
        Pu = np.stack([P.p1(x) * u[0] + P.p2(x) * u[1],
                       P.p3(x) * u[0] + P.p4(x) * u[1]])
        res = B @ mesh96.derivative(u) + Pu - lam * u - y
        assert np.max(np.abs(res)) < 1e-5 * np.max(np.abs(u))
        bc = U.C @ mesh96.interpolate(u, 0.0) + U.D @ mesh96.interpolate(u, PI)
        assert np.max(np.abs(bc)) < 1e-7 * np.max(np.abs(u))
        F = fundamental_matrix(P, lam, mesh96)
        old = _associated_oracle(U, y, F.node_values, F.monodromy, mesh96)
        assert np.max(np.abs(u - old)) < 1e-10 * np.max(np.abs(old))
        chains += 1
    assert chains == 5


def test_root_system_on_gauge_reduced_potential(full_trig_potential,
                                                dirichlet, mesh96):
    # the reduced entries interpolate node values, so the node sub-steps
    # of the fills sample Mesh.interpolate at a 2-d array of points.  The
    # unreduced system's residual is 1.0e-7 on this mesh, and the
    # similarity shifts every eigenvalue by gamma
    red = gauge_reduce(full_trig_potential, dirichlet, mesh96)
    rs = root_system(red.potential, red.form, 2, mesh96)
    assert rs.biorthogonality_residual() < 1e-6
    eigs = localize(full_trig_potential, dirichlet, 2, mesh96)
    assert max(abs(eigs.values[n] - (rs.eigs.values[n] + red.gamma))
               for n in eigs.values) < 1e-6


def test_batched_root_vectors_match_per_eigenvalue(const_potential, dirichlet,
                                                   mesh96):
    rs = root_system(const_potential, dirichlet, 4, mesh96)
    for n, e in rs.entries.items():
        r = bvp_eigenfunction(const_potential, dirichlet, rs.eigs.values[n],
                              mesh96)
        assert e.role == "eigen" and not r.degenerate
        assert np.max(np.abs(e.y.values - r.functions[0].values)) < 1e-12


def test_root_systems_on_a_shared_mesh_reuse_one_adjoint(trig_potential,
                                                         dirichlet):
    # the mesh holds terms per potential object, and P.adjoint() is one
    # object: repeated root systems add no entries and keep their bits
    mesh = build_mesh(64, order=5)
    first = root_system(trig_potential, dirichlet, 4, mesh)
    for _ in range(3):
        rs = root_system(trig_potential, dirichlet, 4, mesh)
        assert len(mesh.terms) == 2
        assert rs.Y.tobytes() == first.Y.tobytes()
        assert rs.Z.tobytes() == first.Z.tobytes()
    assert trig_potential.adjoint() is trig_potential.adjoint()


def test_healthy_root_system_never_probes_the_scale(const_potential,
                                                   dirichlet, mesh96,
                                                   monkeypatch):
    # every |Delta(lambda_n)| is below ACCEPT_TOL, so neither localize nor
    # the Y and Z fills evaluate Delta at lambda_n + 0.49: ode.char_det is
    # the one delta_scale calls (localize calls spectrum.char_det)
    probed = []
    inner = ode.char_det

    def counting(P, U, lam, mesh):
        probed.append(np.size(lam))
        return inner(P, U, lam, mesh)

    monkeypatch.setattr(ode, "char_det", counting)
    rs = root_system(const_potential, dirichlet, 4, mesh96)
    assert probed == []
    # the counter sees the probe when it is made
    spectrum.delta_scale(const_potential, dirichlet, [0.3, 1.2], mesh96)
    assert probed == [2]
    # delta_residual is the largest |Delta| the fills computed, over the
    # operator and the adjoint; abs per value, as the fills take it
    # (np.abs over an array can round a modulus differently in the last
    # bit)
    lams = np.array([rs.eigs.values[n] for n in rs.indices()])
    dets = np.concatenate([
        inner(const_potential, dirichlet, lams, mesh96),
        inner(const_potential.adjoint(), adjoint_pair(dirichlet),
              np.conj(lams), mesh96)])
    assert rs.delta_residual == max(abs(complex(d)) for d in dets)
    assert 0.0 < rs.delta_residual < 1e-10


def test_root_system_rejects_shifted_eigenvalue(const_potential, dirichlet,
                                                mesh96, monkeypatch):
    eigs = localize(const_potential, dirichlet, 4, mesh96)
    values = dict(eigs.values)
    values[3] += 0.3
    shifted = dataclasses.replace(eigs, values=values)
    monkeypatch.setattr(expansions, "localize", lambda *args: shifted)
    with pytest.raises(NotAnEigenvalueError):
        root_system(const_potential, dirichlet, 4, mesh96)
