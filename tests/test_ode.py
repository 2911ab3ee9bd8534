import gc
import re
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

import diraclab.expansions as expansions
import diraclab.ode as ode
import diraclab.spectrum as spectrum
from diraclab import (ExperimentConfig, NotAnEigenvalueError,
                      OverflowCapError, PotentialMatrix, ScalarFunction,
                      boundary_from_config, build_mesh, bvp_eigenfunction,
                      char_det, comparison_operator, delta0, expm2,
                      fundamental_matrix, gauge_reduce, lp_norm,
                      make_potential, propagate, sweep)
from diraclab.mesh import Mesh
from diraclab.ode import mul2

PI = np.pi


def _const_monodromy(c, lam):
    """Closed form M(pi, lam) for P = [[0, c], [c, 0]]."""
    om = np.sqrt(complex(lam) ** 2 - c ** 2)
    A = np.array([[1j * lam, -1j * c], [1j * c, -1j * lam]])
    if abs(om) < 1e-12:
        return np.eye(2) + PI * A
    return np.cos(om * PI) * np.eye(2) + (np.sin(om * PI) / om) * A


# The (..., 2, 2) formulas of the Magnus propagator and of expm2 that the
# planes kernel replaced, kept as its oracle: the kernel must reproduce them
# bit for bit, so every operation and operand order below is part of the
# contract.
def _oracle_expm2(M):
    tau = 0.5 * (M[..., 0, 0] + M[..., 1, 1])
    n00 = M[..., 0, 0] - tau
    n11 = M[..., 1, 1] - tau
    detn = n00 * n11 - M[..., 0, 1] * M[..., 1, 0]
    w = np.sqrt(-detn + 0j)
    c = np.cosh(w)
    small = np.abs(w) < 1e-5
    wsafe = np.where(small, 1.0, w)
    s = np.where(small, 1.0 + w * w / 6.0, np.sinh(wsafe) / wsafe)
    out = np.empty(np.broadcast(M, M).shape, dtype=complex)
    out[..., 0, 0] = c + s * n00
    out[..., 0, 1] = s * M[..., 0, 1]
    out[..., 1, 0] = s * M[..., 1, 0]
    out[..., 1, 1] = c + s * n11
    return np.exp(tau)[..., None, None] * out


def _oracle_omega(P, lams, starts, lengths):
    starts = np.asarray(starts, dtype=float)
    lengths = np.asarray(lengths, dtype=float)
    x1 = starts + lengths * (0.5 - ode._G2)
    x2 = starts + lengths * (0.5 + ode._G2)
    ap1 = ode._ap_values(P, x1)
    ap2 = ode._ap_values(P, x2)
    asum = 0.5 * (ap1 + ap2)
    comm0 = ap2 @ ap1 - ap1 @ ap2
    dap = ap1 - ap2
    dcomm = np.zeros_like(dap)
    dcomm[..., 0, 1] = 2.0 * dap[..., 0, 1]
    dcomm[..., 1, 0] = -2.0 * dap[..., 1, 0]
    lams = np.asarray(lams, dtype=complex)
    lshape = lams.shape + (1,) * starts.ndim
    il = (1j * lams).reshape(lshape + (1, 1))
    s = lengths[..., None, None]
    dmat = np.diag([1.0, -1.0]).astype(complex)
    return s * (il * dmat + asum) + ode._C4 * s * s * (il * dcomm + comm0)


def _oracle_magnus(P, lams, starts, lengths):
    return _oracle_expm2(_oracle_omega(P, lams, starts, lengths))


def _oracle_w(M):
    # the w of _oracle_expm2, whose small entries take the series branch
    tau = 0.5 * (M[..., 0, 0] + M[..., 1, 1])
    n00 = M[..., 0, 0] - tau
    n11 = M[..., 1, 1] - tau
    return np.sqrt(-(n00 * n11 - M[..., 0, 1] * M[..., 1, 0]) + 0j)


def _oracle_propagate(P, lams, mesh):
    T = _oracle_magnus(P, lams, mesh.panel_starts, mesh.panel_lengths)
    Mb = np.empty((lams.size, mesh.n_panels + 1, 2, 2), dtype=complex)
    Mb[:, 0] = np.eye(2)
    for k in range(mesh.n_panels):
        Mb[:, k + 1] = T[:, k] @ Mb[:, k]
    sub_len = mesh.nodes2d - mesh.panel_starts[:, None]
    sub_start = np.broadcast_to(mesh.panel_starts[:, None], sub_len.shape)
    Tn = _oracle_magnus(P, lams, sub_start, sub_len)
    Mn = mul2(Tn, Mb[:, :-1, None])
    return Mb, Mn.reshape(lams.size, mesh.size, 2, 2)


def _same_bits(a, b):
    # bit patterns, so that a signed zero or a NaN payload counts as well
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.uint64),
        np.ascontiguousarray(b).view(np.uint64))


def _stacks(planes):
    # (..., 2, 2) view of entry planes (2, 2, ...), for the oracle's layout
    return np.moveaxis(planes, (0, 1), (-2, -1))


ORACLE_POTENTIALS = {
    "zero": {"family": "zero"},
    "constant_offdiag": {"family": "constant_offdiag", "c": 0.3},
    "trig": {"family": "trig",
             "p1": [["cos", 1, [0.3, 0.05]]], "p2": [["sin", 1, [0.8, 0.1]]],
             "p3": [["cos", 2, [0.5, 0.0]]], "p4": [["sin", 2, [0.2, -0.1]]]},
    "power": {"family": "power", "alpha": 0.4, "x0": 1.1, "amplitude": 0.5},
    "step": {"family": "step", "breaks": [1.0, 2.0],
             "values": [0.5, [1.0, 0.2], -0.5]},
}


def _oracle_lams(L):
    # lambda = 0 (where Omega = 0 for P = 0 and the small-w branch runs),
    # real lambdas, and |Im lambda| up to 49, just under IM_CAP
    rng = np.random.default_rng(L)
    lams = rng.uniform(-40, 40, L) + 1j * rng.uniform(-49, 49, L)
    lams[0] = 0.0
    if L > 2:
        lams[1], lams[2] = 0.3, 7.25
        lams[-1] = -3.1 + 49j
    return lams


# potentials whose Magnus terms repeat bit for bit on many intervals, so
# that propagation_terms keeps each distinct column once
REPEATING = ("constant_offdiag", "step", "zero")
# the power potential's singular point: build_mesh(128) graded to it has
# 169 panels
POWER_X0 = (1.1,)
# each potential on a 24-panel mesh graded to its own singular points; the
# repeating ones also on the plain 128-panel mesh and on the graded power
# mesh, where repeated columns are compared with the per-interval oracle
ORACLE_MESHES = [pytest.param(name, 24, None, id=name)
                 for name in sorted(ORACLE_POTENTIALS)] + [
    pytest.param(name, 128, points, id=f"{name}-{label}")
    for name in REPEATING
    for label, points in (("plain128", ()), ("graded169", POWER_X0))]


@pytest.mark.parametrize("L", [1, 16, 64])
@pytest.mark.parametrize("name, panels, points", ORACLE_MESHES)
def test_propagate_matches_oracle_bitwise(name, panels, points, L):
    P = make_potential(ORACLE_POTENTIALS[name])
    mesh = build_mesh(panels, order=5, singular_points=(
        P.singular_points if points is None else points))
    lams = _oracle_lams(L)
    Mb_ref, Mn_ref = _oracle_propagate(P, lams, mesh)
    Mb, Mn = propagate(P, lams, mesh)
    assert _same_bits(Mb, Mb_ref) and _same_bits(Mn, Mn_ref)
    # panel and node sub-steps on their own
    panels, subs = ode.propagation_terms(P, mesh)
    sub_len = mesh.nodes2d - mesh.panel_starts[:, None]
    sub_start = np.broadcast_to(mesh.panel_starts[:, None], sub_len.shape)
    assert _same_bits(
        _stacks(ode._magnus_propagators(panels, lams)),
        _oracle_magnus(P, lams, mesh.panel_starts, mesh.panel_lengths))
    # the node sub-steps are laid out (order, K)
    assert _same_bits(
        _stacks(ode._magnus_propagators(subs, lams)).swapaxes(1, 2),
        _oracle_magnus(P, lams, sub_start, sub_len))
    Mb_nb, none = propagate(P, lams, mesh, nodes=False)
    assert none is None and _same_bits(Mb_nb, Mb_ref)


@pytest.mark.parametrize("points", [(), POWER_X0],
                         ids=["plain128", "graded169"])
def test_repeated_columns_are_kept_once(points):
    # zero, constant_offdiag and step have far fewer distinct panel and
    # node columns than intervals; trig and power have none repeated and
    # keep their per-interval terms
    mesh = build_mesh(128, order=5, singular_points=points)
    for name, spec in ORACLE_POTENTIALS.items():
        for terms, n in zip(ode.propagation_terms(make_potential(spec), mesh),
                            (mesh.n_panels, mesh.size)):
            if name in REPEATING:
                assert terms.index.size == n and terms.s.size < n / 2
                assert np.array_equal(np.unique(terms.index),
                                      np.arange(terms.s.size))
            else:
                assert terms.index is None and terms.s.size == n


@pytest.mark.parametrize("name, points", [
    ("zero", ()), ("power", POWER_X0), ("trig", ()), ("step", POWER_X0)],
    ids=["zero-plain128", "power-graded169", "trig-plain128",
         "step-graded169"])
def test_magnus_propagators_are_contiguous_planes(name, points):
    # one layout whether columns repeat (zero, step) or not (trig, power):
    # C-contiguous entry planes (2, 2, L) + S, bit for bit the oracle
    P = make_potential(ORACLE_POTENTIALS[name])
    mesh = build_mesh(128, order=5, singular_points=points)
    panels, subs = ode.propagation_terms(P, mesh)
    assert (panels.index is None) == (name not in REPEATING)
    lams = _oracle_lams(16)
    sub_len = mesh.nodes2d - mesh.panel_starts[:, None]
    sub_start = np.broadcast_to(mesh.panel_starts[:, None], sub_len.shape)
    for terms, starts, lengths in (
            (panels, mesh.panel_starts, mesh.panel_lengths),
            (subs, sub_start.T, sub_len.T)):
        got = ode._magnus_propagators(terms, lams)
        assert got.flags.c_contiguous
        assert got.shape == (2, 2, lams.size) + starts.shape
        assert _same_bits(_stacks(got),
                          _oracle_magnus(P, lams, starts, lengths))


# traced peak of propagate (64 lambdas) over its output bytes: 2.01 / 2.38
# (plain zero / graded power mesh) without nodes and 2.33 / 3.16 with them;
# the bound without nodes catches the 3.49 on the power mesh of forming
# the panel exponentials beside an already allocated panel-major copy
PEAK_BOUND = {False: 2.5, True: 3.3}


@pytest.mark.parametrize("nodes", [False, True], ids=["panels", "nodes"])
@pytest.mark.parametrize("name, points", [("zero", ()), ("power", POWER_X0)],
                         ids=["zero-plain128", "power-graded169"])
def test_propagate_peak_is_bounded_by_its_output(name, points, nodes):
    P = make_potential(ORACLE_POTENTIALS[name])
    mesh = build_mesh(128, order=5, singular_points=points)
    ode.propagation_terms(P, mesh, nodes)
    lams = _oracle_lams(64)
    tracemalloc.start()
    try:
        Mb, Mn = propagate(P, lams, mesh, nodes=nodes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = Mb.nbytes + (Mn.nbytes if nodes else 0)
    assert peak <= PEAK_BOUND[nodes] * out


def _counting_terms(monkeypatch):
    """A list that grows by one for each _magnus_terms build."""
    builds = []
    inner = ode._magnus_terms

    def counting(P, starts, lengths):
        builds.append(P)
        return inner(P, starts, lengths)

    monkeypatch.setattr(ode, "_magnus_terms", counting)
    return builds


def test_terms_memo_keys_on_objects(monkeypatch):
    builds = _counting_terms(monkeypatch)
    spec = ORACLE_POTENTIALS["constant_offdiag"]
    P = make_potential(spec)
    mesh = build_mesh(32, order=5)
    # panel terms first, node terms on first use, each built once
    panels, none = ode.propagation_terms(P, mesh, nodes=False)
    assert none is None and len(builds) == 1
    first = ode.propagation_terms(P, mesh)
    assert first[0] is panels and len(builds) == 2
    again = ode.propagation_terms(P, mesh)
    assert again[0] is first[0] and again[1] is first[1] and len(builds) == 2
    # the same spec built again, the adjoint, and the same breaks with
    # another singular point: terms that may be equal, never a shared entry
    twin = Mesh(mesh.breaks, order=5, singular_points=(mesh.breaks[7],))
    for key in ((make_potential(spec), mesh), (P.adjoint(), mesh),
                (P, twin)):
        got = ode.propagation_terms(*key)
        assert got[0] is not first[0] and got[1] is not first[1]
    assert len(builds) == 8
    assert ode.propagation_terms(P, mesh)[1] is first[1]
    # read-only
    for terms in first:
        for a in (terms.asum, terms.comm0, terms.dcomm[0][1],
                  terms.dcomm[1][0], terms.s, terms.c4ss, terms.index):
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = 0


def test_terms_memo_builds_once_across_threads(monkeypatch):
    # 6 threads (more than the cores of a small runner), released together
    # and switching often, ask for 4 (P, mesh) pairs at once: a
    # check-then-act race would build some pair twice or hand two threads
    # different terms
    builds = _counting_terms(monkeypatch)
    mesh = build_mesh(32, order=5)
    spec = ORACLE_POTENTIALS["trig"]
    shared = make_potential(spec)
    own = [make_potential(spec) for _ in range(3)]
    seen = [[] for _ in range(6)]
    start = threading.Barrier(6)

    def work(t):
        start.wait(timeout=60)
        for i in range(20):
            for P in (shared, own[t % 3]):
                seen[t].append((P, ode.propagation_terms(P, mesh,
                                                         nodes=i % 2 == 1)))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,))
                   for t in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert len(builds) == 2 * 4
    for P in [shared] + own:
        got = {(id(terms[0]), id(terms[1]))
               for runs in seen for Q, terms in runs
               if Q is P and terms[1] is not None}
        panels = {id(terms[0]) for runs in seen for Q, terms in runs
                  if Q is P}
        assert len(got) == 1 and len(panels) == 1


def test_sweep_threads_build_each_term_once(monkeypatch):
    # each run_equiconv propagates about five potentials on its own mesh;
    # four runs at once on four workers build exactly the terms that one
    # worker builds, none of them twice
    configs = [ExperimentConfig(
        potential={"family": "trig", "p2": [["sin", 1, 0.5]]},
        comparison="corollary-diagonal", mesh_panels=64, m_schedule=(2, 4),
        seed=seed) for seed in range(4)]
    builds = _counting_terms(monkeypatch)
    counts = []
    for threads in ("1", "4"):
        monkeypatch.setenv("DIRACLAB_THREADS", threads)
        before = len(builds)
        bundle = sweep(configs)
        assert not bundle["errors"] and len(bundle["reports"]) == 4
        counts.append(len(builds) - before)
    assert counts[0] == counts[1] == 40


def test_terms_die_with_their_mesh():
    # P, its diagonal comparison P0 and its gauge-reduced potential, whose
    # entries interpolate node values on the mesh and so close over it: its
    # terms make a cycle mesh -> terms -> potential -> mesh that only the
    # collector can free
    U = boundary_from_config("dirichlet_analog")
    mesh = build_mesh(32, order=5)
    P = make_potential(ORACLE_POTENTIALS["trig"])
    P0, _ = comparison_operator(P, U, mesh)
    reduced = gauge_reduce(P, U, mesh).potential
    lams = [0.3, 2.0 + 1j]
    propagate(P, lams, mesh)
    propagate(P0, lams, mesh)
    propagate(reduced, lams, mesh)
    assert len(mesh.terms) == 3
    ref = weakref.ref(mesh)
    del mesh, P0, reduced
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("name", ["trig", "power"])
def test_at_matches_oracle_bitwise(name):
    P = make_potential(ORACLE_POTENTIALS[name])
    mesh = build_mesh(24, order=5, singular_points=P.singular_points)
    # zero-length sub-steps sample P at the break itself, so none of these
    # is the power singularity x0 = 1.1, a panel break of its mesh
    xs = np.array([0.0, 0.05, 0.3137, 1.1 - 1e-9, 1.1 + 1e-9, 2.0,
                   PI - 1e-3, PI])
    for lam in (0.0, 3.7, -2.2 + 31.0j):
        F = fundamental_matrix(P, lam, mesh)
        k = mesh.panel_of(xs)
        a = mesh.breaks[k]
        T = _oracle_magnus(P, np.array([complex(lam)]), a, xs - a)[0]
        assert _same_bits(F.at(xs), T @ F.boundary_values[k])


@pytest.mark.parametrize("name, lams, mixed", [
    ("zero", [0.0], False), ("power", [0.0, 1.0, 2.5 - 0.4j, 20.0], True)])
def test_small_w_branch_matches_oracle_bitwise(name, lams, mixed):
    # Omega = 0 everywhere for P = 0 at lambda = 0; on the graded power
    # mesh every entry at lambda = 0 (p2 alone is nilpotent) and the
    # shortest panels and node sub-steps at the other lambdas take the
    # series 1 + w^2 / 6, the rest sinh(w) / w, in one call
    P = make_potential(ORACLE_POTENTIALS[name])
    mesh = build_mesh(24, order=5, singular_points=P.singular_points)
    lams = np.array(lams, dtype=complex)
    sub_len = mesh.nodes2d - mesh.panel_starts[:, None]
    sub_start = np.broadcast_to(mesh.panel_starts[:, None], sub_len.shape)
    for starts, lengths in ((mesh.panel_starts, mesh.panel_lengths),
                            (sub_start, sub_len)):
        small = np.abs(_oracle_w(_oracle_omega(P, lams, starts,
                                               lengths))) < 1e-5
        assert small.any() and mixed == (not small.all())
    Mb_ref, Mn_ref = _oracle_propagate(P, lams, mesh)
    Mb, Mn = propagate(P, lams, mesh)
    assert _same_bits(Mb, Mb_ref) and _same_bits(Mn, Mn_ref)


def test_expm2_matches_oracle_bitwise():
    rng = np.random.default_rng(11)
    stack = 3.0 * (rng.normal(size=(7, 5, 2, 2))
                   + 1j * rng.normal(size=(7, 5, 2, 2)))
    stack[0, 0] = 0.0                       # small-w branch
    stack[0, 1] = [[1e-7, 2e-7j], [0.0, -1e-7]]
    assert _same_bits(expm2(stack), _oracle_expm2(stack))
    one = stack[3, 2]
    assert _same_bits(expm2(one), _oracle_expm2(one))


def test_expm2_against_eig():
    rng = np.random.default_rng(1)
    for _ in range(20):
        M = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        w, V = np.linalg.eig(M)
        ref = V @ np.diag(np.exp(w)) @ np.linalg.inv(V)
        assert np.allclose(expm2(M), ref, atol=1e-10)


def test_mul2_matches_einsum_bitwise():
    # mul2 rounds each entry in einsum's order, so the values agree bit for
    # bit, also where B broadcasts over an axis of A; only the sign of a
    # zero may differ, and + 0.0 maps -0.0 to +0.0 before the bits are
    # compared
    rng = np.random.default_rng(7)

    def cnormal(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    A, B = cnormal(3, 4, 5, 2, 2), cnormal(3, 4, 2, 2)
    ref = np.einsum("lkjab,lkbc->lkjac", A, B)
    assert _same_bits(mul2(A, B[:, :, None]) + 0.0, ref + 0.0)
    A, B = cnormal(6, 2, 2), cnormal(6, 2, 2)
    assert _same_bits(mul2(A, B) + 0.0,
                      np.einsum("lab,lbc->lac", A, B) + 0.0)
    # diagonal factors, as on the zero potential: signed zeros appear
    A = np.diag([-1.5, 2.0j])[None] * cnormal(8, 1, 1).real
    B = np.diag([0.5j, -3.0])[None] * cnormal(8, 1, 1)
    got, ref = mul2(A, B), np.einsum("lab,lbc->lac", A, B)
    assert _same_bits(got + 0.0, ref + 0.0)


def test_propagate_nodes_match_einsum_formula(full_trig_potential):
    # node matrices M(x_j) = T(panel start -> x_j) M(panel start), with the
    # product taken as np.einsum takes it
    mesh = build_mesh(24, order=5)
    lams = np.array([0.3 + 0.1j, 5.7 - 0.02j, -31.9 + 0.4j])
    Mb, Mn = propagate(full_trig_potential, lams, mesh)
    _, subs = ode.propagation_terms(full_trig_potential, mesh)
    Tn = _stacks(ode._magnus_propagators(subs, lams))  # (L, order, K, 2, 2)
    ref = np.einsum("ljkab,lkbc->lkjac", Tn, Mb[:, :-1])
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
    # one-lambda call bit for bit; one process (no helper) runs every chunk
    mesh = build_mesh(32, order=5)
    rng = np.random.default_rng(3)
    lams = rng.uniform(-40, 40, 200) + 1j * rng.uniform(-3, 3, 200)
    single = np.array([char_det(trig_potential, periodic, lam, mesh)
                       for lam in lams])
    sizes = []
    inner = ode._sequential_products

    def counting(panels, lams):
        sizes.append(np.size(lams))
        return inner(panels, lams)

    monkeypatch.setenv("DIRACLAB_THREADS", "1")
    monkeypatch.setattr(ode, "_sequential_products", counting)
    batched = char_det(trig_potential, periodic, lams, mesh)
    assert sizes == [64, 64, 64, 8] and ode.DET_CHUNK == 64
    assert np.array_equal(batched, single)


TREE_POTENTIALS = {
    "zero": {"family": "zero"},
    "constant": {"family": "constant_offdiag", "c": 0.3},
    "trig": {"family": "trig", "p1": [["cos", 1, 0.3]],
             "p2": [["sin", 1, 0.8]], "p3": [["cos", 2, 0.5]],
             "p4": [["sin", 2, 0.2]]},
    "power": {"family": "power", "alpha": 0.4, "x0": 1.1, "amplitude": 0.5},
}
TREE_LAMS = np.array([0.0, 0.4 + 0.2j, 3.7, -2.0 - 1.5j, 17.3 + 2.9j,
                      -39.5 + 0.3j])


def _oracle_tree_monodromy(T):
    # the pairwise reduction char_det(tree=True) used before the prefix
    # routine, kept as its oracle: M(pi) = T[:, K-1] ... T[:, 0] for panel
    # propagators T (L, K, 2, 2) on entry planes, the later panel of each
    # pair on the left, an odd last panel carried
    m = np.moveaxis(T, (-2, -1), (0, 1))
    while m.shape[-1] > 1:
        k = m.shape[-1]
        h = k // 2
        a, b = m[..., 1::2], m[..., 0:2 * h:2]
        nxt = np.empty(m.shape[:-1] + (k - h,), dtype=complex)
        tmp = np.empty(a.shape[2:], dtype=complex)
        for i in range(2):
            for j in range(2):
                c = nxt[i, j, ..., :h]
                np.multiply(a[i, 0], b[0, j], out=c)
                np.multiply(a[i, 1], b[1, j], out=tmp)
                np.add(c, tmp, out=c)
        if k % 2:
            nxt[..., h] = m[..., -1]
        m = nxt
    return np.moveaxis(m[..., 0], (0, 1), (-2, -1))


@pytest.mark.parametrize("name, panels, graded", [
    (name, panels, False) for name in sorted(TREE_POTENTIALS)
    for panels in (1, 2, 3, 128)] + [("power", 128, True)])
def test_tree_monodromy_matches_sequential_product(name, panels, graded):
    # the reduction half of the prefix routine gives the old pairwise M(pi)
    # bit for bit, and the sequential loop's up to roundoff; graded is the
    # 169-panel power mesh
    P = make_potential(TREE_POTENTIALS[name])
    mesh = build_mesh(panels, order=5, singular_points=(
        P.singular_points if graded else ()))
    assert mesh.n_panels == (169 if graded else panels)
    panel_terms, _ = ode.propagation_terms(P, mesh, nodes=False)
    T = ode._magnus_propagators(panel_terms, TREE_LAMS)
    levels = list(ode._pairwise_levels(T))
    got = np.moveaxis(levels[-1][..., 0], (0, 1), (-2, -1))
    assert len(levels) == 1 + int(np.ceil(np.log2(mesh.n_panels)))
    assert _same_bits(got, _oracle_tree_monodromy(_stacks(T)))
    want = propagate(P, TREE_LAMS, mesh, nodes=False)[0][:, -1]
    assert got.shape == want.shape == (TREE_LAMS.size, 2, 2)
    scale = np.max(np.abs(want), axis=(1, 2))
    assert np.all(np.max(np.abs(got - want), axis=(1, 2)) <= 1e-13 * scale)
    if panels == 1:
        assert _same_bits(got, _stacks(T)[:, 0])


@pytest.mark.parametrize("name, panels, graded", [
    (name, panels, False) for name in sorted(TREE_POTENTIALS)
    for panels in (1, 3, 128)] + [("power", 128, True)])
def test_node_planes_match_propagate(name, panels, graded):
    # pairwise prefixes at every panel start and the node matrices built on
    # them agree with propagate's sequential loop to 1e-13 of max |M|; the
    # graded case is the 169-panel power mesh
    P = make_potential(TREE_POTENTIALS[name])
    mesh = build_mesh(panels, order=5, singular_points=(
        P.singular_points if graded else ()))
    panel_terms, _ = ode.propagation_terms(P, mesh, nodes=False)
    levels = list(ode._pairwise_levels(
        ode._magnus_propagators(panel_terms, TREE_LAMS)))
    starts = np.moveaxis(ode._pairwise_prefixes(levels), (0, 1), (-2, -1))
    mono, Mn = ode.node_planes(P, TREE_LAMS, mesh)
    Mb, Mn_seq = propagate(P, TREE_LAMS, mesh)
    assert starts.shape == Mb[:, :-1].shape
    assert mono.shape == (2, 2, TREE_LAMS.size)
    assert Mn.shape == (2, 2, TREE_LAMS.size, mesh.size)
    assert np.all(starts[:, 0] == np.eye(2))
    assert _same_bits(mono, levels[-1][..., 0])
    scale = np.max(np.abs(Mb), axis=(1, 2, 3))[:, None, None, None]
    assert np.all(np.abs(starts - Mb[:, :-1]) <= 1e-13 * scale)
    Mn = np.moveaxis(Mn, (0, 1), (-2, -1))
    assert np.all(np.abs(Mn - Mn_seq) <= 1e-13 * scale)
    with pytest.raises(OverflowCapError):
        ode.node_planes(P, [1.0, 2.0 + 50.5j], mesh)


def test_char_det_tree_matches_sequential(trig_potential, periodic,
                                          monkeypatch):
    # 200 lambdas in DET_CHUNK chunks in one process (no helper) without
    # propagate or its sequential product; each value is independent of
    # its batch and within 1e-12 of the sequential product
    mesh = build_mesh(32, order=5)
    rng = np.random.default_rng(4)
    lams = rng.uniform(-40, 40, 200) + 1j * rng.uniform(-3, 3, 200)
    seq = char_det(trig_potential, periodic, lams, mesh)
    single = np.array([char_det(trig_potential, periodic, lam, mesh,
                                tree=True) for lam in lams])
    sizes = []
    inner = ode._magnus_propagators

    def counting(terms, lams):
        sizes.append(np.size(lams))
        return inner(terms, lams)

    monkeypatch.setenv("DIRACLAB_THREADS", "1")
    monkeypatch.setattr(ode, "_magnus_propagators", counting)
    monkeypatch.setattr(ode, "propagate", None)
    monkeypatch.setattr(ode, "_sequential_products", None)
    tree = char_det(trig_potential, periodic, lams, mesh, tree=True)
    assert sizes == [64, 64, 64, 8] and ode.DET_CHUNK == 64
    assert np.array_equal(tree, single)
    assert np.max(np.abs(tree - seq)) <= 1e-12 * np.max(np.abs(seq))
    got = char_det(trig_potential, periodic, 3.1 + 0.2j, mesh, tree=True)
    assert isinstance(got, complex)
    with pytest.raises(OverflowCapError):
        char_det(trig_potential, periodic, [1.0, 2.0 + 50.5j], mesh,
                 tree=True)


def test_node_chunks_match_single_lambdas(dirichlet, monkeypatch):
    # eigenfunctions propagates 40 eigenvalues (the free Dirichlet-analog
    # operator's, lambda = n) with nodes as 16 + 16 + 8; every node value
    # and monodromy it yields equals its one-lambda propagate call bit for
    # bit
    P = PotentialMatrix.zero()
    mesh = build_mesh(32, order=5)
    lams = np.arange(-20.0, 20.0)
    single = [propagate(P, [lam], mesh) for lam in lams]
    sizes = []
    inner = ode.propagate

    def counting(P, lams, mesh, **kw):
        sizes.append(np.size(lams))
        return inner(P, lams, mesh, **kw)

    monkeypatch.setattr(ode, "propagate", counting)
    batched = list(expansions.eigenfunctions(P, dirichlet, lams, mesh, lams))
    assert sizes == [16, 16, 8] and ode.EIG_CHUNK == 16
    assert [r.lam for r, _, _ in batched] == list(lams)
    for (_, Mn, mono), (Mb1, Mn1) in zip(batched, single):
        assert _same_bits(Mn, Mn1[0])
        assert _same_bits(mono, Mb1[0, -1])


def test_fundamental_matrix_is_one_propagate_call(full_trig_potential,
                                                  monkeypatch):
    mesh = build_mesh(32, order=5)
    lam = 3.3 + 0.4j
    Mb, Mn = propagate(full_trig_potential, [lam], mesh)
    sizes = []
    inner = ode.propagate

    def counting(P, lams, mesh, **kw):
        sizes.append(np.size(lams))
        return inner(P, lams, mesh, **kw)

    monkeypatch.setattr(ode, "propagate", counting)
    F = fundamental_matrix(full_trig_potential, lam, mesh)
    assert sizes == [1]
    assert F.lam == lam and isinstance(F.lam, complex)
    assert _same_bits(F.boundary_values, Mb[0])
    assert _same_bits(F.node_values, Mn[0])


def test_stacked_node_matvec_matches_per_node_products(full_trig_potential):
    # eigenfunctions forms M(x_j) v for all nodes as one (2N, 2) gemv; each
    # row rounds as the per-node 2x2 product does
    mesh = build_mesh(24, order=5)
    _, Mn = propagate(full_trig_potential, [2.3 + 0.1j, -17.0], mesh)
    rng = np.random.default_rng(2)
    for l in range(2):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        stacked = (Mn[l].reshape(-1, 2) @ v).reshape(-1, 2)
        assert _same_bits(stacked, Mn[l] @ v)


def test_overflow_cap():
    mesh = build_mesh(8, order=5)
    with pytest.raises(OverflowCapError):
        propagate(PotentialMatrix.zero(), [100j], mesh)


def _counting_delta_scale(monkeypatch, value=None):
    """Sizes of the lambda sets spectrum.delta_scale is asked for; it
    returns value instead of the real scale when value is given."""
    calls = []
    inner = spectrum.delta_scale

    def counting(P, U, lams, mesh):
        calls.append(np.size(lams))
        return inner(P, U, lams, mesh) if value is None else value

    monkeypatch.setattr(spectrum, "delta_scale", counting)
    return calls


def test_bvp_eigenfunction_free_dirichlet(dirichlet, monkeypatch):
    mesh = build_mesh(64, order=5)
    calls = _counting_delta_scale(monkeypatch)
    r = bvp_eigenfunction(PotentialMatrix.zero(), dirichlet, 3.0, mesh)
    # |Delta(3)| <= ACCEPT_TOL, so the scale is never probed
    assert calls == []
    assert r.residual == abs(char_det(PotentialMatrix.zero(), dirichlet, 3.0,
                                      mesh))
    assert r.residual <= spectrum.ACCEPT_TOL
    assert not r.degenerate
    y = r.functions[0]
    assert lp_norm(y, 2) == pytest.approx(1.0, abs=1e-10)
    # y = (e^{3ix}, e^{-3ix}) v with v1 = v2 from the boundary condition
    ratio = y.values[0] * np.exp(-3j * mesh.nodes)
    assert np.max(np.abs(ratio - ratio[0])) < 1e-10


def test_bvp_rejects_non_eigenvalue(dirichlet, monkeypatch):
    # after exactly one probe of the scale; the message names lambda,
    # |Delta|, ACCEPT_TOL and the scale
    mesh = build_mesh(64, order=5)
    lam = 3.4
    delta = abs(char_det(PotentialMatrix.zero(), dirichlet, lam, mesh))
    scale = spectrum.delta_scale(PotentialMatrix.zero(), dirichlet, [lam],
                                 mesh)
    message = (f"|Delta({complex(lam)})| = {delta:.3e} exceeds "
               f"{spectrum.ACCEPT_TOL:.1e} * {scale:.3e}")
    calls = _counting_delta_scale(monkeypatch)
    with pytest.raises(NotAnEigenvalueError, match=re.escape(message)):
        bvp_eigenfunction(PotentialMatrix.zero(), dirichlet, lam, mesh)
    assert calls == [1]


def test_bvp_scale_decides_above_accept_tol(dirichlet, monkeypatch):
    # 1e-6 < |Delta| < 1e-3: rejected against the real scale (about 2),
    # accepted against a scale of 1e3, so the scale is still read when a
    # residual needs it
    mesh = build_mesh(64, order=5)
    lam = 3.0 + 1e-5
    delta = abs(char_det(PotentialMatrix.zero(), dirichlet, lam, mesh))
    assert 1e-6 < delta < 1e-3
    with pytest.raises(NotAnEigenvalueError):
        bvp_eigenfunction(PotentialMatrix.zero(), dirichlet, lam, mesh)
    calls = _counting_delta_scale(monkeypatch, value=1e3)
    r = bvp_eigenfunction(PotentialMatrix.zero(), dirichlet, lam, mesh)
    assert calls == [1] and r.residual == delta


def test_acceptance_scale_decides_as_the_eager_rule(dirichlet, monkeypatch):
    # exceeds() equals |v| > tol * scale for any scale >= 1, and probes
    # the scale at most once, only when some |v| > tol
    rng = np.random.default_rng(4)
    for value in (1.0, 1.7, 250.0):
        calls = _counting_delta_scale(monkeypatch, value=value)
        scale = spectrum.AcceptanceScale(None, dirichlet, [0.0], None)
        quiet = 1e-6 * rng.uniform(0.0, 1.0, 50) * np.exp(2j * rng.normal(
            size=50))
        assert not scale.exceeds(quiet).any() and calls == []
        for tol in (1e-6, 1e-3):
            v = tol * rng.uniform(0.0, 2.0 * value, 200) * np.exp(
                2j * rng.normal(size=200))
            assert np.array_equal(scale.exceeds(v, tol),
                                  np.abs(v) > tol * value)
        assert calls == [1] and scale.value == value


def test_delta_scale_probes_each_distinct_lambda_once(periodic, monkeypatch):
    # the members of double pairs repeat: each distinct probe is evaluated
    # once, and the median over all of them is the one of the full list
    P = make_potential({"family": "constant_offdiag", "c": 0.3})
    mesh = build_mesh(32, order=5)
    lams = [0.0, 0.0, 2.0, 2.0, -2.0, -2.0, 4.0]
    want = max(1.0, float(np.median(np.abs(
        char_det(P, periodic, np.array(lams) + 0.49, mesh)))))
    sizes = []
    inner = ode.char_det

    def counting(P, U, lam, mesh, **kw):
        sizes.append(np.size(lam))
        return inner(P, U, lam, mesh, **kw)

    monkeypatch.setattr(ode, "char_det", counting)
    assert spectrum.delta_scale(P, periodic, lams, mesh) == want
    assert sizes == [4]


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
