import re
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diraclab.spectrum as spectrum
from diraclab import (BoundaryMatrixPair, Circle, ContourError, Ellipse,
                      NotRegularError, PotentialMatrix, build_mesh,
                      contour_family,
                      gauge_reduce, localize, localization_seeds,
                      make_potential, unperturbed_spectrum, winding_count)
from diraclab.ode import char_det
from diraclab.spectrum import _newton, _pair_moments, trapezoid_angles

PI = np.pi
P0 = PotentialMatrix.zero()
AP_TRIG = {"family": "trig", "p2": [["sin", 1, 0.8]], "p3": [["cos", 2, 0.5]]}
# the three problems of the benchmark's spectrum workload
SPECTRUM_PROBLEMS = {
    "periodic-constant": ({"family": "constant_offdiag", "c": 0.3},
                          "periodic"),
    "antiperiodic-trig": (AP_TRIG, "antiperiodic"),
    "dirichlet-power": ({"family": "power", "alpha": 0.6, "x0": 1.1,
                         "amplitude": 0.5}, "dirichlet"),
}
# p2 only, jumps on panel boundaries: every antiperiodic pair is double
STEP = {"family": "step", "breaks": [PI / 4, 3 * PI / 4],
        "values": [0.5, 1.0, -0.5]}
# diagonal entries with nonzero means: gamma != 0 and a rescaled D block
GAUGED_TRIG = {"family": "trig", "p1": [["cos", 0, [0.7, 0.2]]],
               "p2": [["sin", 1, 0.8]], "p3": [["cos", 2, 0.5]],
               "p4": [["sin", 1, [0.4, -0.3]]]}


def _winding_pass(P, U, contour, mesh):
    """(winding number, nodes, Delta values) of one contour's own pass, or
    its ContourError raised."""
    return spectrum._accepted(
        spectrum._winding_passes(P, U, [contour], mesh)[0])


def _recover_pair(P, U, mesh, seed_mid, cap):
    """Pair recovery around one seed midpoint."""
    return spectrum._recover_pairs(P, U, mesh, [seed_mid], [cap])[0]


@pytest.fixture
def char_det_sizes(monkeypatch):
    """(size, tree) of each lambda batch the spectrum module passes to
    char_det: tree is its tree keyword, False when not given."""
    sizes = []
    inner = spectrum.char_det

    def counting(P, U, lam, mesh, **kw):
        sizes.append((int(np.size(lam)), kw.get("tree", False)))
        return inner(P, U, lam, mesh, **kw)

    monkeypatch.setattr(spectrum, "char_det", counting)
    return sizes


@pytest.fixture
def winding_contours(monkeypatch):
    """Contours that enter the spectrum module's validation routine
    _rouche_windings, which every validated winding goes through."""
    contours = []
    inner = spectrum._rouche_windings

    def recording(P, U, red, family, mesh):
        contours.extend(family)
        return inner(P, U, red, family, mesh)

    monkeypatch.setattr(spectrum, "_rouche_windings", recording)
    return contours


@dataclass(frozen=True)
class Stated:
    """The nodes of a contour with a stated arc length, which sets where
    winding_count's rule starts: max(16, ceil(16 * arc_length)) nodes."""
    contour: object
    arc_length: float

    def at(self, theta):
        return self.contour.at(theta)


finite = st.floats(-50.0, 50.0, allow_nan=False)
length = st.floats(1e-3, 50.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 2000), re=finite, im=finite, radius=length,
       a=length, b=length)
def test_contour_nodes_nest_under_doubling(n, re, im, radius, a, b):
    # the nodes at n are exactly the even nodes at 2n: doubling reuses them
    for contour in (Circle(complex(re, im), radius),
                    Ellipse(complex(re, im), a, b)):
        def points(k):
            return contour.at(trapezoid_angles(k))[0]
        assert np.array_equal(points(2 * n)[::2], points(n))
    assert np.array_equal(trapezoid_angles(2 * n)[::2], trapezoid_angles(n))


def test_winding_free_dirichlet(dirichlet, mesh96):
    # lambda_n^0 = n, so a circle of radius 2.5 around 0 encloses five zeros
    assert winding_count(P0, dirichlet, Circle(0.0, 0.5), mesh96) == 1
    assert winding_count(P0, dirichlet, Circle(0.0, 2.5), mesh96) == 5
    assert winding_count(P0, dirichlet, Ellipse(0j, 1.5, 1.0), mesh96) == 3
    assert winding_count(P0, dirichlet, Circle(0.5 + 3.0j, 0.2), mesh96) == 0


def test_winding_counts_doubles_twice(periodic, mesh96):
    # the free periodic zeros at 2k are double
    assert winding_count(P0, periodic, Circle(0.0, 0.5), mesh96) == 2
    assert winding_count(P0, periodic, Circle(2.0, 0.5), mesh96) == 2


def test_winding_unstable_contour_raises(dirichlet, mesh96, monkeypatch):
    # too coarse a quadrature with refinement disabled cannot resolve the
    # argument increments around five zeros
    monkeypatch.setattr(spectrum, "WINDING_DOUBLINGS", 0)
    with pytest.raises(ContourError):
        winding_count(P0, dirichlet, Stated(Circle(0.0, 2.5), 1.0), mesh96)


def test_winding_doubling_evaluates_only_new_nodes(dirichlet, mesh96,
                                                   char_det_sizes,
                                                   monkeypatch):
    # 16 nodes cannot resolve seven zeros; the rule doubles twice, to 64,
    # and evaluates 16 + 16 + 32 = 4 * 16 nodes instead of 16 + 32 + 64,
    # each through the pairwise monodromy product
    circ = Circle(0.0, 3.5)
    assert winding_count(P0, dirichlet, Stated(circ, 1.0), mesh96) == 7
    assert char_det_sizes == [(16, True), (16, True), (32, True)]
    monkeypatch.setattr(spectrum, "WINDING_DOUBLINGS", 0)
    assert winding_count(P0, dirichlet, Stated(circ, 4.0), mesh96) == 7


def test_winding_default_start_is_16_per_unit_arc(dirichlet, mesh96,
                                                  char_det_sizes):
    # one zero inside, increments below pi/2 at the first level: the rule
    # evaluates ceil(16 * pi) nodes and never doubles
    assert winding_count(P0, dirichlet, Circle(0.0, 0.5), mesh96) == 1
    assert char_det_sizes == [(int(np.ceil(16 * PI)), True)] == [(51, True)]


def test_winding_family_matches_each_contours_own_pass(periodic, mesh96,
                                                      char_det_sizes,
                                                      monkeypatch):
    # a family of contours whose rules stop at different levels: each
    # member's winding, nodes and Delta values are bit for bit those of its
    # own pass, and a member whose pass raises carries the same error.  One
    # char_det call per level: 51 + 21 + 127 + 16 + 16 nodes, then the new
    # odd nodes of the two Stated circles, the only ones still open
    monkeypatch.setattr(spectrum, "WINDING_DOUBLINGS", 1)
    family = [Circle(0.0, 0.5), Circle(0.5 + 3.0j, 0.2),
              Ellipse(0j, 1.5, 1.0), Stated(Circle(0.0, 2.5), 1.0),
              Stated(Circle(0.0, 3.5), 1.0)]
    results = spectrum._winding_passes(P0, periodic, family, mesh96)
    assert char_det_sizes == [(231, True), (32, True)]
    assert [r[0] for r in results[:4]] == [2, 0, 2, 6]
    assert [r[1].size for r in results[:4]] == [51, 21, 127, 32]
    for contour, got in zip(family[:4], results):
        want = _winding_pass(P0, periodic, contour, mesh96)
        assert got[0] == want[0]
        for a, b in zip(got[1:], want[1:]):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
    assert isinstance(results[4], ContourError)
    with pytest.raises(ContourError) as own:
        _winding_pass(P0, periodic, family[4], mesh96)
    assert str(results[4]) == str(own.value)
    assert "did not stabilize" in str(own.value)


def test_validation_evaluates_its_circles_as_one_family(dirichlet, mesh96,
                                                       char_det_sizes):
    # the five circles gamma_k of radius 0.75 accept at their first level,
    # 8 nodes each on g = Delta / Delta0, which is constant for the free
    # operator, and so does Gamma_2 at ceil(arc) nodes: one pairwise call
    # for all of them, not one per contour, and every winding of 2 comes
    # from the two free zeros inside
    eigs = localize(P0, dirichlet, 2, mesh96, validate=True)
    gamma2 = int(np.ceil(eigs.big_contour(2).arc_length))
    assert [s for s in char_det_sizes if s[1]] == [(5 * 8 + gamma2, True)]
    assert sorted(eigs.windings.values()) == [2] * 5
    assert eigs.margins.keys() == eigs.windings.keys()


@pytest.mark.parametrize("pspec, form", [
    ({"family": "constant_offdiag", "c": 0.3}, "periodic"),
    ({"family": "power", "alpha": 0.4, "x0": 1.1, "amplitude": 0.5},
     "dirichlet"),
])
def test_gamma_windings_match_64_per_unit_arc(pspec, form, request):
    # the 16-per-unit-arc start certifies every gamma_k with the same
    # winding that a start four times denser gives
    U = request.getfixturevalue(form)
    P = make_potential(pspec)
    mesh = build_mesh(96, order=5, singular_points=P.singular_points)
    eigs = localize(P, U, 3, mesh, validate=True)
    assert len(eigs.windings) == 7
    for circ, w in eigs.windings.items():
        # a four times longer stated arc starts the rule at ceil(64 * arc)
        dense = Stated(circ, 4.0 * circ.arc_length)
        assert winding_count(P, U, dense, mesh) == w == 2


@pytest.mark.parametrize("pspec, form", [
    (AP_TRIG, "antiperiodic"),
    ({"family": "power", "alpha": 0.4, "x0": 1.1, "amplitude": 0.5},
     "dirichlet"),
])
def test_gamma_windings_match_sequential_product(pspec, form, request,
                                                 monkeypatch):
    # the pairwise monodromy moves the last bits of Delta, not the count:
    # every recorded gamma_k winding is the one the sequential product gives
    U = request.getfixturevalue(form)
    P = make_potential(pspec)
    mesh = build_mesh(96, order=5, singular_points=P.singular_points)
    eigs = localize(P, U, 3, mesh, validate=True)
    assert len(eigs.windings) == 7
    monkeypatch.setattr(spectrum, "char_det",
                        lambda P, U, z, mesh, tree: char_det(P, U, z, mesh))
    for circ, w in eigs.windings.items():
        assert winding_count(P, U, circ, mesh) == w == 2


def _problem(pspec, form, request):
    U = request.getfixturevalue(form)
    P = make_potential(pspec)
    return P, U, build_mesh(96, order=5, singular_points=P.singular_points)


@pytest.mark.parametrize("pspec, form", [
    *SPECTRUM_PROBLEMS.values(), (GAUGED_TRIG, "dirichlet"),
    (GAUGED_TRIG, "periodic")],
    ids=[*SPECTRUM_PROBLEMS, "dirichlet-gauged", "periodic-gauged"])
def test_rouche_windings_match_delta_rule(pspec, form, request):
    # every winding that validation records, and Gamma_2's, is the one
    # Delta's own rule gives: g's winding plus the free zeros inside
    P, U, mesh = _problem(pspec, form, request)
    eigs = localize(P, U, 3, mesh, validate=True)
    assert len(eigs.windings) == 7
    assert eigs.margins.keys() == eigs.windings.keys()
    for circ, w in eigs.windings.items():
        assert winding_count(P, U, circ, mesh) == w == 2
    ellipse = eigs.big_contour(2)
    (w, margin), = spectrum._rouche_windings(P, U, gauge_reduce(P, U, mesh),
                                             [ellipse], mesh)
    assert w == winding_count(P, U, ellipse, mesh) == 10
    assert margin is not None


@pytest.mark.parametrize("label", SPECTRUM_PROBLEMS)
def test_rouche_margin_below_one_at_large_k(label, request):
    # max |Delta / Delta0 - 1| at the accepted nodes is recorded for every
    # validated circle; away from the lowest pairs Delta0 dominates and the
    # Rouche comparison holds (0.012, 0.011 and 0.29 at |k| >= 16)
    P, U, mesh = _problem(*SPECTRUM_PROBLEMS[label], request)
    eigs = localize(P, U, 17, mesh, validate=True)
    assert eigs.margins.keys() == eigs.windings.keys()
    for k in eigs.pair_indices():
        if abs(k) >= 16:
            assert eigs.margins[spectrum._pair_circle(*eigs.pair(k))] < 1.0


def test_rouche_pass_doubles_at_low_k(request, char_det_sizes):
    # near the singular power potential's lowest pair, g = Delta / Delta0
    # swings far from 1 (max |g - 1| about 7.4) and its rule doubles from 8
    # nodes to 64, to the winding Delta's rule gives
    P, U, mesh = _problem(*SPECTRUM_PROBLEMS["dirichlet-power"], request)
    circ = Circle(0.6393125004413678 - 0.07461500823543114j, 0.58)
    (w, margin), = spectrum._rouche_windings(P, U, gauge_reduce(P, U, mesh),
                                             [circ], mesh)
    assert char_det_sizes == [(8, True), (8, True), (16, True), (32, True)]
    assert margin > 1.0
    assert w == winding_count(P, U, circ, mesh) == 2


@pytest.mark.parametrize("form, contour", [
    ("periodic", Circle(1.0, 1.0)), ("periodic", Ellipse(0j, 2.0, 1.0)),
    ("dirichlet", Circle(0.0, 2.0))])
def test_free_zero_on_a_node_falls_back_to_delta_rule(form, contour,
                                                      const_potential,
                                                      request, mesh96):
    # free zeros sit on nodes of g's first level: the double zeros 0 and 2
    # (the periodic circle) and 2 (the ellipse's right end), where Delta0 is 0
    # exactly, and the simple zero 2 (the Dirichlet circle), where it is
    # 1e-16 of its terms and g would wind about its pole unresolved.  g's
    # pass raises without a RuntimeWarning, and the contour gets the
    # winding of Delta's own rule, with no margin
    U = request.getfixturevalue(form)
    red = gauge_reduce(const_potential, U, mesh96)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        failed, = spectrum._family_passes(
            [spectrum._winding_rule(contour, 1, 8)],
            lambda z: spectrum._rouche_ratio(const_potential, U, red, mesh96,
                                             z))
        got = spectrum._rouche_windings(const_potential, U, red, [contour],
                                        mesh96)
    assert isinstance(failed, ContourError)
    assert "undefined" in str(failed)
    want = winding_count(const_potential, U, contour, mesh96)
    assert got == [(want, None)]


def _first_newton_run_fails(monkeypatch):
    """Make localize's first Newton run report every iterate unconverged,
    so that every pair is recovered by contour moments; later runs (the
    polish of each recovered pair) go through.  Returns the seed count of
    each run."""
    inner = spectrum._newton
    runs = []

    def failing(P, U, mesh, seeds):
        runs.append(seeds.size)
        lam, conv, vals = inner(P, U, mesh, seeds)
        return lam, conv & (len(runs) > 1), vals

    monkeypatch.setattr(spectrum, "_newton", failing)
    return runs


def test_only_windings_use_the_tree_product(const_potential, periodic,
                                            mesh96, monkeypatch):
    # contour rules use the pairwise product: the winding counts of the
    # radius search and of validation, and the moments of a recovered pair,
    # which read the values of its winding pass and evaluate no Delta;
    # Newton, the polish and the on-zero and acceptance checks keep the
    # sequential product.  Newton finds these double zeros itself, so its
    # first run is made to fail and every pair is recovered
    _first_newton_run_fails(monkeypatch)
    calls = []                  # (inside a winding pass, tree) per char_det
    inside = [0]
    passes, moment_values = [], []
    inner_det, inner_passes = spectrum.char_det, spectrum._winding_passes
    inner_rouche = spectrum._rouche_windings
    inner_moments = spectrum._pair_moments

    def det(P, U, lam, mesh, **kw):
        calls.append((inside[0] > 0, kw.get("tree", False)))
        return inner_det(P, U, lam, mesh, **kw)

    def winding_passes(*args, **kw):
        inside[0] += 1
        try:
            results = inner_passes(*args, **kw)
            passes.extend(r for r in results
                          if not isinstance(r, ContourError))
            return results
        finally:
            inside[0] -= 1

    def rouche_windings(*args, **kw):
        inside[0] += 1
        try:
            return inner_rouche(*args, **kw)
        finally:
            inside[0] -= 1

    def moments(circ, nodes, values):
        moment_values.append(values)
        return inner_moments(circ, nodes, values)

    monkeypatch.setattr(spectrum, "char_det", det)
    monkeypatch.setattr(spectrum, "_winding_passes", winding_passes)
    monkeypatch.setattr(spectrum, "_rouche_windings", rouche_windings)
    monkeypatch.setattr(spectrum, "_pair_moments", moments)
    eigs = localize(const_potential, periodic, 2, mesh96, validate=True)
    assert sum("recovered" in d for d in eigs.diagnostics) == 5
    assert set(calls) == {(False, False), (True, True)}
    assert len(moment_values) == 5
    for values in moment_values:
        assert any(values is p[2] for p in passes)


def test_pair_moments_reuse_nodes(const_potential, periodic, mesh96,
                                  char_det_sizes):
    # recovering the double zero sqrt(4 + c^2) evaluates Delta only at the
    # nodes of its winding pass, 26 on the tree product, and then at the
    # sequential Newton polish's [z, z + h, z - h] batches: the moments
    # evaluate nothing of their own.  The polish halves its steps at this
    # double zero; three batches in, the doubled step lands within roundoff
    # (14 batches without it)
    root = np.sqrt(4.0 + 0.3 ** 2)
    pair = _recover_pair(const_potential, periodic, mesh96, root,
                         spectrum.DELTA)
    assert char_det_sizes[0] == (26, True)
    assert all(not tree and size % 3 == 0
               for size, tree in char_det_sizes[1:])
    assert len(char_det_sizes[1:]) <= 4
    assert (32, False) not in char_det_sizes
    for z, polished in pair:
        assert polished and abs(z - root) < 1e-12 * root
    # the moments of that pass are already within 1e-7 relative
    circ = Circle(complex(root), spectrum.DELTA)
    w, nodes, values = _winding_pass(const_potential, periodic, circ, mesh96)
    assert w == 2 and nodes.size == 26
    for z in _pair_moments(circ, nodes, values):
        assert abs(z - root) < 1e-7 * root


def test_pair_moments_need_winding_two(const_potential, periodic, dirichlet,
                                       mesh96, monkeypatch):
    # the pair +-c sits outside the first circle, which winds 0: recovery
    # grows the circle by 1.4 and takes moments only from the pass that
    # winds twice
    passes, moment_radii = [], []
    inner_passes = spectrum._winding_passes
    inner_moments = spectrum._pair_moments

    def winding_passes(P, U, contours, mesh):
        out = inner_passes(P, U, contours, mesh)
        passes.extend((c.radius, r[0]) for c, r in zip(contours, out))
        return out

    def moments(circ, nodes, values):
        moment_radii.append(circ.radius)
        return inner_moments(circ, nodes, values)

    monkeypatch.setattr(spectrum, "_winding_passes", winding_passes)
    monkeypatch.setattr(spectrum, "_pair_moments", moments)
    (a, _), (b, _) = _recover_pair(const_potential, periodic, mesh96, 0.0,
                                   0.9)
    assert passes == [(0.25, 0), (0.25 * 1.4, 2)]
    assert moment_radii == [0.25 * 1.4]
    assert abs(a + 0.3) < 1e-12 and abs(b - 0.3) < 1e-12
    # no circle up to the cap winds twice: recovery gives up
    del passes[:]
    with pytest.raises(ContourError, match="could not isolate"):
        _recover_pair(P0, dirichlet, mesh96, 0.5, 0.45)
    assert passes == [(0.25, 0), (0.25 * 1.4, 0)]
    assert moment_radii == [0.25 * 1.4]


def test_pair_moments_of_an_analytic_function():
    # (z - a)(z - b) e^z winds twice along the circle; both zeros come
    # back from its values at 32 nodes
    a, b = 0.75 + 0.1j, 0.3 - 0.2j
    circ = Circle(0.5 + 0.0j, 1.0)
    z = circ.at(trapezoid_angles(32))[0]
    lo, hi = sorted(_pair_moments(circ, z, (z - a) * (z - b) * np.exp(z)),
                    key=lambda g: g.real)
    assert abs(lo - b) < 1e-12 and abs(hi - a) < 1e-12


def _difference_quotient_moments(P, U, mesh, circ, n=512, h=1e-6):
    """Oracle: both zeros from s_p = (1/2 pi i) oint z^p Delta'/Delta dz
    with a central-difference Delta' on n trapezoid nodes."""
    z = circ.at(trapezoid_angles(n))[0]
    f = char_det(P, U, z, mesh)
    fp = (char_det(P, U, z + h, mesh) - char_det(P, U, z - h, mesh)) / (2 * h)
    dz = (z - circ.center) * (2j * PI / n)
    s0, s1, s2 = (np.sum(z ** p * fp / f * dz) / (2j * PI) for p in range(3))
    assert abs(s0 - 2.0) < 1e-6
    disc = np.sqrt(2.0 * s2 - s1 * s1 + 0j)
    return 0.5 * (s1 + disc), 0.5 * (s1 - disc)


# simple zeros only: at a double zero the oracle's square root turns its
# roundoff into a 3e-6 error (test_pair_moments_reuse_nodes pins that case)
@pytest.mark.parametrize("pspec, form, center, radius", [
    ({"family": "constant_offdiag", "c": 0.3}, "periodic", 0.0, 0.5),
    (AP_TRIG, "antiperiodic", 1.0, 0.4),
    (AP_TRIG, "antiperiodic", -3.0, 0.4),
])
def test_pair_moments_match_difference_quotient(pspec, form, center, radius,
                                                mesh96, request):
    P = make_potential(pspec)
    U = request.getfixturevalue(form)
    circ = Circle(complex(center), radius)
    w, nodes, values = _winding_pass(P, U, circ, mesh96)
    assert w == 2
    got = _pair_moments(circ, nodes, values)
    want = _difference_quotient_moments(P, U, mesh96, circ)
    for z in got:
        assert min(abs(z - w) for w in want) < 1e-6
    # the oracle's central difference is good to 1e-6 at best; against the
    # zeros that Newton polishes from them, both estimates are exact to
    # roundoff
    polished, converged, _ = _newton(P, U, mesh96, np.array(got))
    assert converged.all()
    assert np.max(np.abs(polished - np.array(got))) < 1e-10


def test_recovered_labels_keep_reflection_symmetry(antiperiodic, mesh96):
    # this potential gives lambda_(-n-1) = -conj(lambda_n); its pairs are
    # recovered by moments, and conjugate members have real parts that tie
    # up to roundoff, so only the label rule keeps the symmetry
    eigs = localize(make_potential(AP_TRIG), antiperiodic, 3, mesh96)
    assert sum("recovered" in d for d in eigs.diagnostics) == 7
    # pairs k and -k-1 mirror each other for k in [-3, 2]
    for n in range(-6, 6):
        lam, mirror = eigs.values[n], eigs.values[-n - 1]
        assert abs(mirror + np.conj(lam)) < 1e-12
    a, b = eigs.pair(0)
    assert abs(a.imag) > 0.1 and a.imag < 0 < b.imag


def test_newton_iterates_each_distinct_seed_once(const_potential, periodic,
                                                 mesh96, monkeypatch):
    # the free periodic seeds are double: ten seeds, five distinct values
    spec0, _ = localization_seeds(const_potential, periodic, mesh96)
    seeds = spec0.lambda0(np.arange(-4, 6)).astype(complex)
    distinct = np.unique(seeds)
    assert distinct.size == 5
    batches = []
    inner = spectrum.char_det

    def recording(P, U, lam, mesh, **kw):
        batches.append(np.array(lam))
        return inner(P, U, lam, mesh, **kw)

    monkeypatch.setattr(spectrum, "char_det", recording)
    lam, conv, vals = _newton(const_potential, periodic, mesh96, seeds)
    # each call holds [z, z + h, z - h] for the distinct iterates z
    assert np.array_equal(batches[0][:5], distinct)
    for b in batches:
        z = b[:b.size // 3]
        assert np.unique(z).size == z.size
    monkeypatch.undo()
    for i, seed in enumerate(seeds):
        lam1, conv1, vals1 = _newton(const_potential, periodic, mesh96,
                                     np.array([seed]))
        assert lam1.tobytes() == lam[i:i + 1].tobytes()
        assert conv1[0] == conv[i]
        assert vals1.tobytes() == vals[:, i:i + 1].tobytes()


def _plain_newton(P, U, mesh, seeds):
    """Oracle: the Newton loop without the doubled step."""
    lam, inverse = np.unique(seeds.astype(complex), return_inverse=True)
    active = np.ones(lam.shape, dtype=bool)
    for _ in range(spectrum.NEWTON_MAX_ITER):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        cur = lam[idx]
        f, fp = spectrum._delta_and_slope(P, U, mesh, cur)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(fp != 0, f / fp, 0.0)
        mags = np.abs(step)
        with np.errstate(divide="ignore", invalid="ignore"):
            clipped = step / mags * spectrum.NEWTON_MAX_STEP
        step = np.where(mags > spectrum.NEWTON_MAX_STEP, clipped, step)
        lam[idx] = cur - step
        done = np.abs(step) < spectrum.NEWTON_TOL * np.maximum(1.0, np.abs(cur))
        active[idx[done]] = False
    return lam[inverse], ~active[inverse]


def _localize_seeds(P, U, mesh, m):
    spec0, gamma = localization_seeds(P, U, mesh)
    return spec0.lambda0(np.arange(-2 * m, 2 * m + 2)).astype(complex) + gamma


@pytest.mark.parametrize("pspec, form, m, tries", [
    ({"family": "trig", "p2": [["sin", 1, [0.8, 0.1]], ["cos", 3, [0.2, 0.0]]],
      "p3": [["cos", 2, [0.5, 0.0]]]}, "dirichlet", 6, 0),
    ({"family": "power", "alpha": 0.4, "x0": 1.1, "amplitude": 0.5},
     "dirichlet", 6, 0),
    (AP_TRIG, "antiperiodic", 3, 3),
], ids=["dirichlet-trig", "dirichlet-power", "antiperiodic-trig"])
def test_newton_matches_plain_loop_off_double_zeros(pspec, form, m, tries,
                                                    request, char_det_sizes):
    # simple zeros never see three halving steps in a row; three iterates
    # on the split pairs of antiperiodic-trig do, and their doubled steps
    # are rejected, so each goes on from its plain iterate and never tries
    # again: bit for bit the plain loop, at the cost of one [z, z + h,
    # z - h] per try
    P, U = make_potential(pspec), request.getfixturevalue(form)
    mesh = build_mesh(96, order=5, singular_points=P.singular_points)
    seeds = _localize_seeds(P, U, mesh, m)
    lam, conv, _ = _newton(P, U, mesh, seeds)
    used = sum(size for size, _ in char_det_sizes)
    del char_det_sizes[:]
    want, want_conv = _plain_newton(P, U, mesh, seeds)
    assert lam.tobytes() == want.tobytes()
    assert np.array_equal(conv, want_conv)
    plain = sum(size for size, _ in char_det_sizes)
    assert used == plain + 3 * tries


def test_newton_is_quadratic_at_double_zeros(const_potential, periodic,
                                             mesh96, char_det_sizes):
    # the pairs k != 0 sit on the double zeros +-sqrt(4 k^2 + c^2), where
    # plain Newton halves its steps: 630 lambda in 30 batches, 1e-11
    # relative at best.  The doubled step takes 252 lambda and lands within
    # roundoff
    c = 0.3
    seeds = _localize_seeds(const_potential, periodic, mesh96, 3)
    lam, conv, _ = _newton(const_potential, periodic, mesh96, seeds)
    assert sum(size for size, _ in char_det_sizes) <= 300
    for k in (-3, -2, -1, 1, 2, 3):
        root = np.sign(k) * np.sqrt(4.0 * k ** 2 + c ** 2)
        for i in (2 * k + 6, 2 * k + 7):
            assert conv[i] and abs(lam[i] - root) < 1e-12 * abs(root)


def test_newton_returns_delta_where_each_final_step_started(
        const_potential, periodic, mesh96, monkeypatch):
    # the members k != 0 take their last step from a kept doubled point
    # (test_newton_is_quadratic_at_double_zeros): the Delta and Delta'
    # returned are the ones evaluated there, within a converged step of
    # the iterate, not those of the plain iterate beside it
    seeds = _localize_seeds(const_potential, periodic, mesh96, 3)
    batches = []
    inner = spectrum._delta_and_slope

    def recording(P, U, mesh, z):
        vals = inner(P, U, mesh, z)
        batches.append((z, vals.copy()))
        return vals

    monkeypatch.setattr(spectrum, "_delta_and_slope", recording)
    lam, conv, vals = _newton(const_potential, periodic, mesh96, seeds)
    assert conv.sum() == 12
    for i in np.nonzero(conv)[0]:
        starts = [z[j] for z, v in batches for j in range(z.size)
                  if v[:, j].tobytes() == vals[:, i].tobytes()]
        tol = spectrum.NEWTON_TOL * max(1.0, abs(lam[i]))
        assert min(abs(z - lam[i]) for z in starts) < tol


def test_localize_requires_regular_form(mesh96):
    bf = BoundaryMatrixPair(np.eye(2), np.zeros((2, 2)))
    with pytest.raises(NotRegularError):
        localize(P0, bf, 2, mesh96)


def test_localize_takes_m_max_as_indices_takes_m(dirichlet, mesh96):
    # 1.5 and 2.0 raised a bare TypeError from range(); an integral float
    # now counts as that integer, and any other m_max is refused by name
    want = localize(P0, dirichlet, 2, mesh96)
    got = localize(P0, dirichlet, 2.0, mesh96)
    assert got.m_max == 2 and isinstance(got.m_max, int)
    assert got.values == want.values
    for m_max in (1.5, "2", None):
        with pytest.raises(ValueError,
                           match=re.escape(f"m_max={m_max!r} is not an "
                                           f"integer")):
            localize(P0, dirichlet, m_max, mesh96)


def test_localize_refuses_a_bool_m_max(dirichlet, mesh96):
    # True counted as 1
    with pytest.raises(ValueError,
                       match=re.escape("m_max=True is not an integer")):
        localize(P0, dirichlet, True, mesh96)


def test_localize_rejects_negative_m_max(dirichlet, mesh96):
    # n in [-2 m_max, 2 m_max + 1] is empty for m_max < 0
    with pytest.raises(ValueError, match="m_max=-1 is negative"):
        localize(P0, dirichlet, -1, mesh96)
    assert sorted(localize(P0, dirichlet, 0, mesh96).values) == [0, 1]


def test_localize_free_is_exact(dirichlet, mesh96):
    eigs = localize(P0, dirichlet, 4, mesh96)
    assert sorted(eigs.values) == list(range(-8, 10))
    for n, lam in eigs.values.items():
        assert abs(lam - n) < 1e-10
    assert not eigs.diagnostics


def test_localize_constant_offdiag_oracle(const_potential, periodic, mesh96,
                                         monkeypatch):
    # off-diagonal constant c: Delta = 2 - 2 cos(pi sqrt(lambda^2 - c^2)),
    # so the pair at 0 splits into +-c and the pair at 2k sits at
    # +-sqrt(4 k^2 + c^2) as a genuine double eigenvalue
    c = 0.3
    # Newton fails on the split pair 0 and leaves iterates with
    # |Delta| > ACCEPT_TOL, so localize probes the acceptance scale of its
    # 14 seeds, once (a healthy localize never does: test_expansions)
    calls = []
    inner = spectrum.delta_scale

    def counting(P, U, lams, mesh):
        calls.append(np.size(lams))
        return inner(P, U, lams, mesh)

    monkeypatch.setattr(spectrum, "delta_scale", counting)
    eigs = localize(const_potential, periodic, 3, mesh96)
    assert calls == [14]
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
    # localize's first run is made to fail, so every pair is recovered by
    # moments; force each Newton polish after it to fail too, so each
    # member keeps its moment estimate and says so.  One polish run takes
    # the pairs that close at one radius: six at the first circle, and the
    # pair +-c around 0 at the next
    normal = localize(const_potential, periodic, 3, mesh96)
    assert not any("polish" in d for d in normal.diagnostics)
    inner = spectrum._newton
    runs = []

    def failing(P, U, mesh, seeds):
        runs.append(seeds.size)
        lam, _, vals = inner(P, U, mesh, seeds)
        if len(runs) > 1:
            lam = seeds.astype(complex)
        return lam, np.zeros(seeds.shape, dtype=bool), vals

    monkeypatch.setattr(spectrum, "_newton", failing)
    eigs = localize(const_potential, periodic, 3, mesh96)
    assert runs == [14, 12, 2]
    marked = [d for d in eigs.diagnostics if "polish" in d]
    assert [d.split(":")[0] for d in marked] == [
        f"lambda_{n}" for n in range(-6, 8)]
    # the benchmark counts recovered pairs by this word
    assert sum("recovered" in d for d in eigs.diagnostics) == 7
    for n, lam in eigs.values.items():
        assert abs(lam - normal.values[n]) < 1e-4


def test_localize_evaluates_each_distinct_lambda_once(periodic, mesh96,
                                                      char_det_sizes):
    # the free periodic pairs are double, so the 14 seeds are 7 distinct:
    # one Newton batch [z, z + h, z - h], whose Delta and Delta' also make
    # the acceptance check and the Delta' check of the 7 collapsed pairs
    eigs = localize(P0, periodic, 3, mesh96)
    assert char_det_sizes == [(21, False)]
    assert all(eigs.multiplicity[n] == 2 for n in eigs.values)


def _slope_pass(P, U, mesh, z):
    """Oracle: Delta' at the points z from a char_det call of its own on
    [z + h, z - h]."""
    h = spectrum.SLOPE_H
    vals = char_det(P, U, np.concatenate([z + h, z - h]), mesh)
    return (vals[:z.size] - vals[z.size:]) / (2.0 * h)


def _localize_by_extra_passes(P, U, m_max, mesh):
    """Oracle: localize deciding its pairs from two more passes over the
    Newton results, |Delta| at the distinct final iterates and Delta' at
    member 2k of each collapsed pair.  Returns (values, multiplicity,
    diagnostics)."""
    red = gauge_reduce(P, U, mesh)
    ns = np.arange(-2 * m_max, 2 * m_max + 2)
    seeds = (unperturbed_spectrum(red.form).lambda0(ns).astype(complex)
             + red.gamma)
    lam, converged, _ = _newton(P, U, mesh, seeds)
    keys = [int(n) for n in ns]
    values = dict(zip(keys, map(complex, lam)))
    seedmap = dict(zip(keys, map(complex, seeds)))
    mult = dict.fromkeys(keys, 1)
    scale = spectrum.AcceptanceScale(P, U, seeds, mesh)
    distinct, inverse = np.unique(lam, return_inverse=True)
    fails = scale.exceeds(char_det(P, U, distinct, mesh))[inverse]
    ks = range(-m_max, m_max + 1)
    mids = {k: 0.5 * (seedmap[2 * k] + seedmap[2 * k + 1]) for k in ks}
    off = (~converged | fails | (np.abs(lam - seeds) > 0.75)).reshape(-1, 2)
    bad = {k: bool(off[k + m_max].any()) for k in ks}
    collapsed = [k for k in ks if not bad[k] and abs(
        values[2 * k] - values[2 * k + 1]) < spectrum.DOUBLE_TOL]
    if collapsed:
        dp = _slope_pass(P, U, mesh,
                         np.array([values[2 * k] for k in collapsed]))
        for k, steep in zip(collapsed, scale.exceeds(dp, 1e-3)):
            bad[k] |= bool(steep)
    recover = [k for k in ks if bad[k]]
    caps = []
    for k in recover:
        gaps = [abs(mids[k] - mids[j]) for j in (k - 1, k + 1) if j in mids]
        caps.append(max(0.45 * min(gaps) if gaps else 0.9, spectrum.DELTA))
    diagnostics = []
    for k, pair in zip(recover, spectrum._recover_pairs(
            P, U, mesh, [mids[k] for k in recover], caps)):
        diagnostics.append(f"pair {k} recovered by contour moments")
        for n, (z, polished) in zip((2 * k, 2 * k + 1), pair):
            values[n] = z
            if not polished:
                diagnostics.append(
                    f"lambda_{n}: Newton polish did not converge within "
                    f"0.1 of the moment estimate {z}; estimate kept")
    for k in ks:
        a, b = values[2 * k], values[2 * k + 1]
        if abs(a - b) < spectrum.DOUBLE_TOL:
            values[2 * k] = values[2 * k + 1] = 0.5 * (a + b)
            mult[2 * k] = mult[2 * k + 1] = 2
    return values, mult, diagnostics


@pytest.mark.parametrize("pspec, form, doubles", [
    *((*SPECTRUM_PROBLEMS[label], None) for label in SPECTRUM_PROBLEMS),
    (STEP, "antiperiodic", 34)],
    ids=[*SPECTRUM_PROBLEMS, "antiperiodic-step"])
def test_localize_decisions_match_extra_passes(pspec, form, doubles,
                                               request):
    # the Delta and Delta' of Newton's last evaluation decide every pair
    # as the separate passes at the final iterates did: the same values,
    # multiplicities and diagnostics, bit for bit.  Every step pair is a
    # double zero, so each goes through the collapsed-pair Delta' test
    P, U, mesh = _problem(pspec, form, request)
    eigs = localize(P, U, 8, mesh)
    values, mult, diagnostics = _localize_by_extra_passes(P, U, 8, mesh)
    n = sorted(values)
    assert sorted(eigs.values) == n
    assert (np.array([eigs.values[k] for k in n]).tobytes()
            == np.array([values[k] for k in n]).tobytes())
    assert eigs.multiplicity == mult
    assert eigs.diagnostics == diagnostics
    if doubles is not None:
        assert sum(m == 2 for m in mult.values()) == doubles


def test_zero_slope_member_is_refused(request, monkeypatch):
    # a Delta' of 0 makes Newton's step 0, so a member is reported
    # converged at its seed, where |Delta| is far above ACCEPT_TOL.  The
    # Delta of that last evaluation refuses it, and its pair is recovered
    # by contour moments, to the eigenvalues of a normal run
    P, U, mesh = _problem(*SPECTRUM_PROBLEMS["dirichlet-power"], request)
    normal = localize(P, U, 2, mesh)
    assert not any(d.startswith("pair 1 ") for d in normal.diagnostics)
    seed = _localize_seeds(P, U, mesh, 2)[2 + 4]
    inner_eval, inner_newton = spectrum._delta_and_slope, spectrum._newton
    runs = []

    def flat_at_seed(P, U, mesh, z):
        vals = inner_eval(P, U, mesh, z)
        if not runs:
            vals[1, z == seed] = 0.0
        return vals

    def recording(P, U, mesh, seeds):
        out = inner_newton(P, U, mesh, seeds)
        # localize writes its recovered pairs into the iterates
        runs.append((seeds, *(a.copy() for a in out)))
        return out

    monkeypatch.setattr(spectrum, "_delta_and_slope", flat_at_seed)
    monkeypatch.setattr(spectrum, "_newton", recording)
    eigs = localize(P, U, 2, mesh)
    seeds, lam, conv, (delta, slope) = runs[0]
    hit = np.nonzero(seeds == seed)[0]
    assert hit.tolist() == [6]
    assert conv[6] and lam[6] == seed and slope[6] == 0.0
    assert abs(delta[6]) > 1e3 * spectrum.ACCEPT_TOL
    assert "pair 1 recovered by contour moments" in eigs.diagnostics
    for n in (2, 3):
        assert abs(eigs.values[n] - normal.values[n]) < 1e-10


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
        circ = fam.gammas[k]
        assert np.all(circ.contains(np.array(eigs.pair(k))))
    assert winding_count(P0, dirichlet, eigs.big_contour(1), mesh96) == 6


def test_contour_family_perturbed(const_potential, periodic, mesh96):
    spec0 = unperturbed_spectrum(periodic)
    eigs = localize(const_potential, periodic, 2, mesh96)
    fam = contour_family(spec0, eigs, P=const_potential, U=periodic,
                         mesh=mesh96)
    # gamma_0 must enclose both split members and no neighbors
    circ = fam.gammas[0]
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
    assert winding_contours == []
    # an equal mesh that is another object certifies nothing: all again
    del winding_contours[:]
    contour_family(spec0, eigs, P=const_potential, U=periodic,
                   mesh=build_mesh(96, order=5))
    assert [type(c) for c in winding_contours] == [Circle] * 5 + [Ellipse]


@pytest.mark.parametrize("p1", [2.0, 3.2])
def test_contour_family_places_gamma_m_from_shifted_seeds(p1, dirichlet):
    # a constant diagonal potential shifts every seed by gamma = p1 / 2
    # (1.0 and 1.6): Gamma_2 placed from the unshifted free eigenvalues
    # failed to stabilize (p1 = 2) or to enclose the block (p1 = 3.2) where
    # localize passed; placed from the eigenvalues and their shifted
    # seeds, it holds both, and contour_family passes on any mesh object
    P = make_potential({"family": "trig", "p1": [["cos", 0, p1]]})
    mesh = build_mesh(96, order=5, singular_points=P.singular_points)
    eigs = localize(P, dirichlet, 3, mesh, validate=True)
    spec0, gamma = localization_seeds(P, dirichlet, mesh)
    assert abs(gamma - 0.5 * p1) < 1e-12
    contour_family(spec0, eigs, P=P, U=dirichlet, mesh=mesh)
    contour_family(spec0, eigs, P=P, U=dirichlet,
                   mesh=build_mesh(96, order=5))
    ellipse = eigs.big_contour(2)
    block = range(-4, 6)
    assert np.all(ellipse.contains([eigs.values[n] for n in block]))
    assert np.all(ellipse.contains([eigs.seeds[n] for n in block]))


def _inscribed_in_rectangle(eigs, m):
    """Oracle of big_contour where every block point is low: the ellipse
    inscribed in the rectangle that was Gamma_m before, whose vertical
    sides lie midway to the nearest other eigenvalue or seed (1/2 out where
    there is none) and whose horizontal sides lie 1/2 above every |Im| of
    the list, at least 1."""
    idx = eigs.indices(m)
    inner, left, right = [], [], []
    for n in eigs.values:
        side = left if n < idx[0] else right if n > idx[-1] else inner
        side += [eigs.values[n].real, eigs.seeds[n].real]
    re_min = (0.5 * (min(inner) + max(left)) if left
              else min(inner) - 0.5)
    re_max = (0.5 * (max(inner) + min(right)) if right
              else max(inner) + 0.5)
    im_max = max(abs(z.imag) for z in [*eigs.values.values(),
                                       *eigs.seeds.values()])
    return Ellipse(complex(0.5 * (re_min + re_max)), 0.5 * (re_max - re_min),
                   max(1.0, im_max + 0.5))


@pytest.mark.parametrize("pspec, form, m_max", [
    *((pspec, form, 32) for pspec, form in SPECTRUM_PROBLEMS.values()),
    ({"family": "power", "alpha": 0.4, "x0": 1.1, "amplitude": 0.5},
     "dirichlet", 4),
    ({"family": "constant_offdiag", "c": 0.3}, "dirichlet", 4)],
    ids=[*SPECTRUM_PROBLEMS, "resolvent-power", "resolvent-constant"])
def test_big_contour_is_the_inscribed_ellipse_on_benchmark_problems(
        pspec, form, m_max, request):
    # on the benchmark's spectrum problems and the resolvent's root systems
    # every block point lies below 0.35, so Gamma_m is bit for bit the
    # ellipse inscribed in the former rectangle: the projector's nodes and
    # the resolvent rows stay as they were
    U = request.getfixturevalue(form)
    P = make_potential(pspec)
    mesh = build_mesh(128, order=5, singular_points=P.singular_points)
    eigs = localize(P, U, m_max, mesh)
    for m in (0, 1, 2, 4):
        got, want = eigs.big_contour(m), _inscribed_in_rectangle(eigs, m)
        assert got == want
        bits = [np.array([e.center, e.a, e.b], dtype=complex).view(np.uint64)
                for e in (got, want)]
        assert np.array_equal(*bits)


def _shifted(s):
    """p1 = i s and p2 = 0.5 sin x: the gauge shift puts the spectrum at
    Im lambda = s / 2."""
    return {"family": "trig", "p1": [["cos", 0, [0.0, s]]],
            "p2": [["sin", 1, 0.5]]}


@pytest.mark.parametrize("form", ["periodic", "antiperiodic", "dirichlet"])
@pytest.mark.parametrize("pspec", [
    {"family": "constant_offdiag", "c": 0.3},
    {"family": "trig", "p1": [["cos", 0, 3.2]]}, _shifted(1.0),
    _shifted(4.0)], ids=["constant", "p1-3.2", "shift-1", "shift-4"])
def test_big_contour_winds_and_holds_its_block(pspec, form, request):
    # Gamma_m for every m up to m_max: Delta winds 4m + 2 times along it,
    # and it holds every eigenvalue and seed of its block, also where the
    # spectrum sits off the real axis
    P, U, mesh = _problem(pspec, form, request)
    eigs = localize(P, U, 6, mesh)
    for m in range(7):
        ellipse = eigs.big_contour(m)
        assert winding_count(P, U, ellipse, mesh) == 4 * m + 2
        block = [z for n in eigs.indices(m)
                 for z in (eigs.values[n], eigs.seeds[n])]
        assert np.all(ellipse.contains(block))


@pytest.mark.parametrize("m_max", [1, 2])
def test_validation_holds_an_antiperiodic_block_far_off_the_axis(
        m_max, request):
    # p1 = 0.5 + 3i, p4 = i: the rectangle framing this block wound 8 != 6
    # (m_max = 1) and 11 != 10 (m_max = 2) times; the ellipse winds 4m + 2
    P, U, mesh = _problem({"family": "trig", "p1": [["cos", 0, [0.5, 3.0]]],
                           "p4": [["cos", 0, [0.0, 1.0]]],
                           "p3": [["sin", 2, 0.7]]}, "antiperiodic", request)
    eigs = localize(P, U, m_max, mesh, validate=True)
    assert sorted(eigs.windings.values()) == [2] * (2 * m_max + 1)


def test_big_contour_refuses_m_by_name(dirichlet, mesh96):
    # as RootSystem.indices does: m outside [0, m_max], or not an integer
    eigs = localize(P0, dirichlet, 3, mesh96)
    for m, phrase in [(4, "m=4 exceeds stored range m_max=3"),
                      (-1, "m=-1 is negative"),
                      (1.5, "m=1.5 is not an integer")]:
        with pytest.raises(ValueError, match=re.escape(phrase)):
            eigs.big_contour(m)
    assert eigs.big_contour(2.0) == eigs.big_contour(2)


def test_contour_family_needs_operator_for_validation(dirichlet, mesh96):
    spec0 = unperturbed_spectrum(dirichlet)
    eigs = localize(P0, dirichlet, 2, mesh96)
    with pytest.raises(ValueError):
        contour_family(spec0, eigs)
    fam = contour_family(spec0, eigs, validate=False)
    assert set(fam.gammas) == set(range(-2, 3))


def test_validate_flag_smoke(trig_potential, dirichlet, mesh96):
    eigs = localize(trig_potential, dirichlet, 2, mesh96, validate=True)
    rows = eigs.as_rows()
    assert [r[0] for r in rows] == list(range(-4, 6))


def test_validate_failed_circle_raises(dirichlet, mesh96, monkeypatch,
                                       winding_contours):
    # hand validation a list with lambda_3 = 3 moved to 5.7: gamma_1 then
    # encloses the zeros 2, 3, 4 and 5, and localize raises; the five
    # circles and Gamma_2 are one family, all evaluated before gamma_1 is
    # checked
    inner = spectrum.EigenvalueList

    def shifted(**kw):
        kw["values"][3] += 2.7
        return inner(**kw)

    monkeypatch.setattr(spectrum, "EigenvalueList", shifted)
    with pytest.raises(ContourError, match=r"gamma_1 \(center 3.8500"
                       r"\+0.0000j, r 2.100\) winding 4 != 2"):
        localize(P0, dirichlet, 2, mesh96, validate=True)
    assert [type(c) for c in winding_contours] == [Circle] * 5 + [Ellipse]


def test_failed_validation_records_nothing(dirichlet, mesh96):
    # a contour_family call that raises leaves the list unvalidated, so a
    # second call winds the family again and raises again
    eigs = localize(P0, dirichlet, 2, mesh96)
    eigs.values[3] += 2.7
    for _ in range(2):
        with pytest.raises(ContourError, match="gamma_1"):
            contour_family(None, eigs, P=P0, U=dirichlet, mesh=mesh96)
        assert eigs.windings_for is None
        assert not eigs.windings and not eigs.margins
