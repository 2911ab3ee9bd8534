import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diraclab import (B_MATRIX, BoundaryMatrixPair, InvalidBoundaryFormError,
                      NotRegularError, adjoint_pair, boundary_from_config,
                      delta0, is_regular, minors, unperturbed_spectrum)

PI = np.pi

finite_complex = st.complex_numbers(max_magnitude=5.0, allow_nan=False,
                                    allow_infinity=False)


def test_dirichlet_analog_minors(dirichlet):
    m = minors(dirichlet)
    assert m.J14 == pytest.approx(-1.0)
    assert m.J23 == pytest.approx(-1.0)
    assert m.J13 == pytest.approx(1.0)
    assert m.J24 == pytest.approx(1.0)
    assert m.J12 == pytest.approx(0.0)
    assert m.J34 == pytest.approx(0.0)


def test_periodic_minors(periodic):
    m = minors(periodic)
    assert (m.J12, m.J34, m.J14, m.J23) == \
        pytest.approx((1.0, 1.0, -1.0, 1.0))


def test_regularity(dirichlet, periodic, antiperiodic):
    for bf in (dirichlet, periodic, antiperiodic):
        ok, margin = is_regular(bf)
        assert ok and margin > 0.5


def test_degenerate_form_rejected():
    with pytest.raises(InvalidBoundaryFormError):
        BoundaryMatrixPair(np.array([[1.0, 2.0], [2.0, 4.0]]),
                           np.array([[3.0, 1.0], [6.0, 2.0]]))
    with pytest.raises(InvalidBoundaryFormError):
        BoundaryMatrixPair(np.zeros((2, 2)), np.zeros((2, 2)))


def test_irregular_form_detected():
    # J14 = J23 = 0: initial conditions at x = 0 only
    bf = BoundaryMatrixPair(np.eye(2), np.zeros((2, 2)))
    assert not is_regular(bf)[0]
    with pytest.raises(NotRegularError):
        unperturbed_spectrum(bf)


def test_unperturbed_spectrum_dirichlet(dirichlet):
    spec = unperturbed_spectrum(dirichlet)
    ns = np.arange(-40, 41)
    assert np.max(np.abs(spec.lambda0(ns) - ns)) < 1e-10


def test_unperturbed_spectrum_periodic(periodic):
    spec = unperturbed_spectrum(periodic)
    assert spec.double
    ns = np.arange(-40, 41)
    expect = 2 * np.floor_divide(ns, 2) + (ns % 2 == 0) * 0 + (ns % 2) * 0
    # lambda_n^0 = n for even n, n - 1 for odd n: both members equal 2k
    lam = spec.lambda0(ns)
    assert np.max(np.abs(lam - expect)) < 1e-10


def test_unperturbed_spectrum_antiperiodic(antiperiodic):
    spec = unperturbed_spectrum(antiperiodic)
    assert spec.double
    ns = np.arange(-20, 21)
    lam = spec.lambda0(ns)
    assert np.max(np.abs(np.real(lam) % 2 - 1)) < 1e-10
    assert np.max(np.abs(np.imag(lam))) < 1e-10


def test_delta0_closed_form(dirichlet):
    lam = 0.37 + 0.21j
    assert delta0(dirichlet, lam) == pytest.approx(2j * np.sin(lam * PI))


def test_delta0_matches_determinant():
    rng = np.random.default_rng(7)
    for _ in range(20):
        C = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        D = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        bf = BoundaryMatrixPair(C, D)
        for lam in rng.normal(size=5) + 1j * rng.normal(size=5):
            E = np.diag([np.exp(1j * lam * PI), np.exp(-1j * lam * PI)])
            assert delta0(bf, lam) == pytest.approx(
                np.linalg.det(C + D @ E), abs=1e-10)


def test_delta0_zero_on_spectrum(dirichlet, periodic):
    for bf in (dirichlet, periodic):
        spec = unperturbed_spectrum(bf)
        for n in range(-3, 4):
            assert abs(delta0(bf, spec.lambda0(np.array([n]))[0])) < 1e-10


def test_adjoint_pair_boundary_term_vanishes():
    rng = np.random.default_rng(3)
    for _ in range(10):
        C = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        D = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        bf = BoundaryMatrixPair(C, D)
        adj = adjoint_pair(bf)
        # bases of the admissible traces on each side
        _, _, vh = np.linalg.svd(bf.stacked)
        Y = vh[2:].conj().T                   # (4, 2): U(y) = 0 solutions
        _, _, vh2 = np.linalg.svd(adj.stacked)
        Z = vh2[2:].conj().T
        for iy in range(2):
            y0, ypi = Y[:2, iy], Y[2:, iy]
            for iz in range(2):
                z0, zpi = Z[:2, iz], Z[2:, iz]
                term = (np.vdot(zpi, B_MATRIX @ ypi)
                        - np.vdot(z0, B_MATRIX @ y0))
                assert abs(term) < 1e-10


def test_adjoint_involution_up_to_row_equivalence(dirichlet):
    # U'' and U span the same row space: stacked, they still have rank 2
    twice = adjoint_pair(adjoint_pair(dirichlet))
    assert np.linalg.matrix_rank(
        np.vstack([twice.stacked, dirichlet.stacked])) == 2


def test_boundary_from_config_array():
    arr = [[[1, 0], [0, 0], [0, 0], [0, 0]],
           [[0, 0], [1, 0], [0, 1], [0, 0]]]
    bf = boundary_from_config(arr)
    assert bf.C[1, 1] == 1.0 and bf.D[1, 0] == 1j


def test_boundary_from_config_errors():
    with pytest.raises(KeyError):
        boundary_from_config("robin")
    with pytest.raises(ValueError):
        boundary_from_config([[1, 2], [3, 4]])


@settings(max_examples=60, deadline=None)
@given(entries=st.lists(finite_complex, min_size=8, max_size=8))
def test_plucker_identity(entries):
    M = np.array(entries).reshape(2, 4)
    try:
        bf = BoundaryMatrixPair(M[:, :2], M[:, 2:])
    except InvalidBoundaryFormError:
        return
    m = minors(bf)
    scale = max(1.0, np.max(np.abs(M)) ** 4)
    assert abs(m.J12 * m.J34 - m.J13 * m.J24 + m.J14 * m.J23) < 1e-12 * scale


@settings(max_examples=30, deadline=None)
@given(a=st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0,
                            allow_nan=False, allow_infinity=False),
       d=st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0,
                            allow_nan=False, allow_infinity=False))
def test_spectrum_invariant_under_row_scaling(a, d, dirichlet):
    T = np.array([[a, 0], [0, d]])
    scaled = BoundaryMatrixPair(T @ dirichlet.C, T @ dirichlet.D)
    s1 = unperturbed_spectrum(dirichlet)
    s2 = unperturbed_spectrum(scaled)
    assert s2.zeta0 == pytest.approx(s1.zeta0, abs=1e-9)
    assert s2.zeta1 == pytest.approx(s1.zeta1, abs=1e-9)
