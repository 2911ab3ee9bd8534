import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diraclab.spectrum as spectrum
from diraclab import (BoundaryMatrixPair, Circle, ContourError, NotRegularError,
                      PotentialMatrix, RectContour, build_mesh, contour_family,
                      localize, localization_seeds, unperturbed_spectrum,
                      winding_count)
from diraclab.spectrum import _bisect_zero, _pair_moments, trapezoid_angles

PI = np.pi
P0 = PotentialMatrix.zero()


@pytest.fixture
def char_det_sizes(monkeypatch):
    """Sizes of the lambda batches the spectrum module passes to char_det."""
    sizes = []
    inner = spectrum.char_det

    def counting(P, U, lam, mesh, **kw):
        sizes.append(int(np.size(lam)))
        return inner(P, U, lam, mesh, **kw)

    monkeypatch.setattr(spectrum, "char_det", counting)
    return sizes


@pytest.fixture
def winding_contours(monkeypatch):
    """Contours passed to winding_count through the spectrum module."""
    contours = []
    inner = spectrum.winding_count

    def recording(P, U, contour, mesh, **kw):
        contours.append(contour)
        return inner(P, U, contour, mesh, **kw)

    monkeypatch.setattr(spectrum, "winding_count", recording)
    return contours


finite = st.floats(-50.0, 50.0, allow_nan=False)
length = st.floats(1e-3, 50.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 2000), re=finite, im=finite, radius=length,
       width=length, half=length)
def test_contour_nodes_nest_under_doubling(n, re, im, radius, width, half):
    # the nodes at n are exactly the even nodes at 2n: doubling reuses them
    circ = Circle(complex(re, im), radius)
    rect = RectContour(re, re + width, half)
    for points in (circ.points, rect.points, trapezoid_angles):
        assert np.array_equal(points(2 * n)[::2], points(n))


def test_winding_free_dirichlet(dirichlet, mesh96):
    # lambda_n^0 = n, so a circle of radius 2.5 around 0 encloses five zeros
    assert winding_count(P0, dirichlet, Circle(0.0, 0.5), mesh96) == 1
    assert winding_count(P0, dirichlet, Circle(0.0, 2.5), mesh96) == 5
    assert winding_count(P0, dirichlet, RectContour(-1.5, 1.5, 1.0),
                         mesh96) == 3
    assert winding_count(P0, dirichlet, Circle(0.5 + 3.0j, 0.2), mesh96) == 0


def test_winding_counts_doubles_twice(periodic, mesh96):
    # the free periodic zeros at 2k are double
    assert winding_count(P0, periodic, Circle(0.0, 0.5), mesh96) == 2
    assert winding_count(P0, periodic, Circle(2.0, 0.5), mesh96) == 2


def test_winding_unstable_contour_raises(dirichlet, mesh96):
    # too coarse a quadrature with refinement disabled cannot resolve the
    # argument increments around five zeros
    with pytest.raises(ContourError):
        winding_count(P0, dirichlet, Circle(0.0, 2.5), mesh96,
                      quad_order=6, max_doublings=0)


def test_winding_doubling_evaluates_only_new_nodes(dirichlet, mesh96,
                                                   char_det_sizes):
    # 8 nodes cannot resolve five zeros; the rule doubles twice, to 32, and
    # evaluates 8 + 8 + 16 = 4 * 8 nodes instead of 8 + 16 + 32
    circ = Circle(0.0, 2.5)
    assert winding_count(P0, dirichlet, circ, mesh96, quad_order=8) == 5
    assert char_det_sizes == [8, 8, 16]
    assert winding_count(P0, dirichlet, circ, mesh96, quad_order=32,
                         max_doublings=0) == 5


def test_pair_moments_reuse_nodes(const_potential, periodic, mesh96,
                                  char_det_sizes):
    # the double zero sqrt(4 + c^2) needs 256 then 512 nodes, three lambdas
    # each; the second level adds only the 256 odd nodes
    root = np.sqrt(4.0 + 0.3 ** 2)
    z0, z1 = _pair_moments(const_potential, periodic, mesh96,
                           Circle(complex(root), 0.25))
    assert char_det_sizes == [768, 768]
    assert abs(z0 - root) < 1e-4 and abs(z1 - root) < 1e-4


def test_bisect_zero_without_zero_raises(dirichlet, mesh96):
    # the free Dirichlet zeros are the integers: none lies in (0.2, 0.8)
    with pytest.raises(ContourError):
        _bisect_zero(P0, dirichlet, mesh96, RectContour(0.2, 0.8, 0.3))


def test_localize_requires_regular_form(mesh96):
    bf = BoundaryMatrixPair(np.eye(2), np.zeros((2, 2)))
    with pytest.raises(NotRegularError):
        localize(P0, bf, 2, mesh96)


def test_localize_free_is_exact(dirichlet, mesh96):
    eigs = localize(P0, dirichlet, 4, mesh96)
    assert sorted(eigs.values) == list(range(-8, 10))
    for n, lam in eigs.values.items():
        assert abs(lam - n) < 1e-10
    assert not eigs.diagnostics


def test_localize_constant_offdiag_oracle(const_potential, periodic, mesh96):
    # off-diagonal constant c: Delta = 2 - 2 cos(pi sqrt(lambda^2 - c^2)),
    # so the pair at 0 splits into +-c and the pair at 2k sits at
    # +-sqrt(4 k^2 + c^2) as a genuine double eigenvalue
    c = 0.3
    eigs = localize(const_potential, periodic, 3, mesh96)
    a, b = sorted(eigs.pair(0), key=lambda z: z.real)
    assert abs(a + c) < 1e-7 and abs(b - c) < 1e-7
    for k in (1, 2, 3):
        root = np.sqrt(4.0 * k ** 2 + c ** 2)
        assert abs(eigs.values[2 * k] - root) < 1e-7
        assert abs(eigs.values[-2 * k] + root) < 1e-7
        assert eigs.multiplicity[2 * k] == 2
    assert any("contour moments" in d for d in eigs.diagnostics)


def test_localize_marks_unconverged_polish(const_potential, periodic, mesh96,
                                          monkeypatch):
    # every pair here is recovered by moments; force each Newton polish
    # after localize's first run to fail, so each member keeps its moment
    # estimate and says so
    normal = localize(const_potential, periodic, 3, mesh96)
    assert not any("polish" in d for d in normal.diagnostics)
    inner = spectrum._newton
    runs = []

    def failing(P, U, mesh, seeds, **kw):
        runs.append(seeds.size)
        lam, conv = inner(P, U, mesh, seeds, **kw)
        if len(runs) > 1:
            return seeds.astype(complex), np.zeros(seeds.shape, dtype=bool)
        return lam, conv

    monkeypatch.setattr(spectrum, "_newton", failing)
    eigs = localize(const_potential, periodic, 3, mesh96)
    assert runs == [14] + [2] * 7
    marked = [d for d in eigs.diagnostics if "polish" in d]
    assert [d.split(":")[0] for d in marked] == [
        f"lambda_{n}" for n in range(-6, 8)]
    # the benchmark counts recovered pairs by this word
    assert sum("recovered" in d for d in eigs.diagnostics) == 7
    for n, lam in eigs.values.items():
        assert abs(lam - normal.values[n]) < 1e-4


def test_localize_antiperiodic_free(antiperiodic, mesh96):
    eigs = localize(P0, antiperiodic, 2, mesh96)
    for n, lam in eigs.values.items():
        assert abs(lam.imag) < 1e-10
        assert abs(lam.real % 2 - 1) < 1e-10
        assert eigs.multiplicity[n] == 2


def test_localize_tail_decay(trig_potential, dirichlet, mesh128):
    # |lambda_n - lambda_n^0| decays as |n| grows (integrable potential)
    eigs = localize(trig_potential, dirichlet, 10, mesh128)
    assert eigs.tail_max(8, 10) < eigs.tail_max(0, 3)
    assert eigs.tail_max(8, 10) < 0.1


def test_localization_seeds_gauge_shift(full_trig_potential, dirichlet,
                                        mesh96):
    spec0, gamma = localization_seeds(full_trig_potential, dirichlet, mesh96)
    x = mesh96.nodes
    expect = (mesh96.integrate(full_trig_potential.p1(x))
              + mesh96.integrate(full_trig_potential.p4(x))) / (2 * PI)
    assert gamma == pytest.approx(expect, abs=1e-12)
    _, gamma0 = localization_seeds(P0, dirichlet, mesh96)
    assert gamma0 == 0.0


def test_contour_family_free(dirichlet, mesh96):
    spec0 = unperturbed_spectrum(dirichlet)
    eigs = localize(P0, dirichlet, 3, mesh96)
    fam = contour_family(spec0, eigs, P=P0, U=dirichlet, mesh=mesh96)
    for k in range(-3, 4):
        circ = fam.gamma(k)
        assert np.all(circ.contains(np.array(eigs.pair(k))))
    rect = fam.big_contour(1)
    assert winding_count(P0, dirichlet, rect, mesh96) == 6


def test_contour_family_perturbed(const_potential, periodic, mesh96):
    spec0 = unperturbed_spectrum(periodic)
    eigs = localize(const_potential, periodic, 2, mesh96)
    fam = contour_family(spec0, eigs, P=const_potential, U=periodic,
                         mesh=mesh96)
    # gamma_0 must enclose both split members and no neighbors
    circ = fam.gamma(0)
    assert np.all(circ.contains(np.array(eigs.pair(0))))
    assert not np.any(circ.contains(np.array(eigs.pair(1))))


def test_contour_family_reuses_localize_windings(const_potential, periodic,
                                                 mesh96, winding_contours):
    spec0 = unperturbed_spectrum(periodic)
    eigs = localize(const_potential, periodic, 2, mesh96, validate=True)
    circles = len(winding_contours)
    assert circles >= 5
    del winding_contours[:]
    contour_family(spec0, eigs, P=const_potential, U=periodic, mesh=mesh96)
    assert [type(c) for c in winding_contours] == [RectContour]
    # an equal mesh that is another object certifies nothing: all again
    del winding_contours[:]
    contour_family(spec0, eigs, P=const_potential, U=periodic,
                   mesh=build_mesh(96, order=5))
    assert [type(c) for c in winding_contours] == [Circle] * 5 + [RectContour]


def test_contour_family_needs_operator_for_validation(dirichlet, mesh96):
    spec0 = unperturbed_spectrum(dirichlet)
    eigs = localize(P0, dirichlet, 2, mesh96)
    with pytest.raises(ValueError):
        contour_family(spec0, eigs)
    fam = contour_family(spec0, eigs, validate=False)
    assert set(fam.gammas) == set(range(-2, 3))


def test_validate_flag_smoke(trig_potential, dirichlet, mesh96):
    eigs = localize(trig_potential, dirichlet, 2, mesh96, validate=True)
    assert eigs.N0 == 0
    rows = eigs.as_rows()
    assert [r[0] for r in rows] == list(range(-4, 6))
