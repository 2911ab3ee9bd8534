import importlib
import os
import re

import numpy as np
import pytest

from diraclab import (PotentialMatrix, ScalarFunction, boundary_from_config,
                      build_mesh, comparison_operator, gauge_reduce,
                      make_potential)

PI = np.pi
BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")


def test_zero_potential():
    P = make_potential({"family": "zero"})
    assert P.is_zero and P.p1.is_zero and P.p4.is_zero
    assert P.kappa == np.inf


def test_constant_offdiag():
    P = make_potential({"family": "constant_offdiag", "c": [0.3, 0.1]})
    x = np.array([0.2, 1.5])
    assert np.allclose(P.p2(x), 0.3 + 0.1j)
    assert np.allclose(P.p3(x), 0.3 + 0.1j)
    assert P.p1.is_zero and P.p4.is_zero


def test_trig_potential(trig_potential):
    x = np.linspace(0.1, 3.0, 7)
    expect = (0.8 + 0.1j) * np.sin(x) + 0.2 * np.cos(3 * x)
    assert np.allclose(trig_potential.p2(x), expect)
    assert trig_potential.p1.is_zero


def test_power_potential_classes():
    P = make_potential({"family": "power", "alpha": 0.4, "x0": 1.1,
                        "amplitude": 0.5})
    assert P.kappa == 2.0
    assert P.singular_points == (1.1,)
    with pytest.raises(ValueError):
        make_potential({"family": "power", "alpha": 1.2})
    with pytest.raises(ValueError):
        make_potential({"family": "power", "alpha": 0.4, "kappa": 3})


def test_scalar_function_class_validation():
    with pytest.raises(ValueError):
        ScalarFunction(fn=lambda x: x, singularities=((0.5, 0.6),), kappa=2.0)
    with pytest.raises(ValueError):
        ScalarFunction(fn=lambda x: x, singularities=((4.0, 0.1),))


def test_step_potential():
    P = make_potential({"family": "step", "entry": "p3",
                        "breaks": [1.0, 2.0], "values": [1, [0, 2], -1]})
    assert np.allclose(P.p3(np.array([0.5, 1.5, 2.5])), [1, 2j, -1])


@pytest.mark.parametrize("breaks", [[2.0, 1.0], [1.0, 1.0], [1.0, 5.0],
                                    [0.0, 2.0], [1.0, PI]])
def test_step_breaks_rejected(breaks):
    # unordered breaks would skip a value, and a break outside (0, pi)
    # would leave a constant
    with pytest.raises(ValueError, match="breaks"):
        make_potential({"family": "step", "breaks": breaks,
                        "values": [1, 2, 3]})


def test_trig_kind_rejected_at_build():
    with pytest.raises(ValueError, match="tan"):
        make_potential({"family": "trig", "p2": [["sin", 1, 0.5],
                                                 ["tan", 2, 0.1]]})


@pytest.mark.parametrize("family,extra", [
    ("power", {"alpha": 0.4}),
    ("step", {"breaks": [1.0], "values": [1, 2]})])
@pytest.mark.parametrize("entry", ["p5", "P2"])
def test_unknown_entry_rejected(family, extra, entry):
    # an unknown entry used to build a potential that is silently zero
    with pytest.raises(ValueError, match="entry"):
        make_potential(dict(extra, family=family, entry=entry))


def test_trig_wavenumber_not_truncated():
    P = make_potential({"family": "trig", "p2": [["sin", 1.5, 1.0]]})
    assert P.p2(np.array([1.0]))[0] == pytest.approx(np.sin(1.5))


def test_adjoint_swaps_offdiagonal(trig_potential):
    x = np.linspace(0.1, 3.0, 5)
    Pa = trig_potential.adjoint()
    assert np.allclose(Pa.p2(x), np.conj(trig_potential.p3(x)))
    assert np.allclose(Pa.p3(x), np.conj(trig_potential.p2(x)))


def test_gauge_reduce_removes_diagonal(full_trig_potential, dirichlet):
    mesh = build_mesh(64, order=5)
    red = gauge_reduce(full_trig_potential, dirichlet, mesh)
    assert red.potential.p1.is_zero and red.potential.p4.is_zero
    # gamma = mean of the diagonal integrals over the period 2 pi
    x = mesh.nodes
    expect = (mesh.integrate(full_trig_potential.p1(x))
              + mesh.integrate(full_trig_potential.p4(x))) / (2 * PI)
    assert red.gamma == pytest.approx(expect, abs=1e-12)
    # phi and psi vanish at 0 and carry the gauge phases
    assert abs(red.phi(np.array([0.0]))[0]) < 1e-10
    assert abs(red.psi(np.array([0.0]))[0]) < 1e-10
    # reduced off-diagonal entries carry the explicit gauge twist
    twist = np.exp(1j * (red.psi(x) - red.phi(x)))
    assert np.allclose(red.potential.p2(x),
                       full_trig_potential.p2(x) * twist)
    assert np.allclose(red.potential.p3(x),
                       full_trig_potential.p3(x) / twist)


def test_gauge_reduce_offdiagonal_is_identity(trig_potential, dirichlet):
    mesh = build_mesh(64, order=5)
    red = gauge_reduce(trig_potential, dirichlet, mesh)
    x = mesh.nodes
    assert red.gamma == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(red.potential.p2(x), trig_potential.p2(x))
    assert np.allclose(red.form.D, dirichlet.D)


def test_comparison_operator(full_trig_potential, dirichlet):
    mesh = build_mesh(64, order=5)
    P0, form = comparison_operator(full_trig_potential, dirichlet, mesh)
    x = mesh.nodes
    assert P0.p2.is_zero and P0.p3.is_zero
    assert np.allclose(P0.p1(x), full_trig_potential.p1(x))
    i1 = mesh.integrate(full_trig_potential.p1(x))
    i4 = mesh.integrate(full_trig_potential.p4(x))
    assert np.allclose(form.D, np.exp(0.5j * (i4 - i1)) * dirichlet.D)


def test_make_potential_unknown_family():
    with pytest.raises(ValueError):
        make_potential({"family": "polynomialish"})


@pytest.mark.parametrize("spec, message", [
    ({"family": "power", "alpha": 0.4, "xo": 1.0},
     "unknown key 'xo' in a power potential spec; its keys are family, "
     "alpha, x0, amplitude, kappa, entry"),
    ({"family": "constant_offdiag", "c": 0.3, "entry": "p2"},
     "unknown key 'entry' in a constant_offdiag potential spec; its keys "
     "are family, c"),
    ({"family": "trig", "p5": [["sin", 1, 0.5]]},
     "unknown key 'p5' in a trig potential spec; its keys are family, p1, "
     "p2, p3, p4"),
    ({"c": 0.3}, "unknown key 'c' in a zero potential spec; its keys are "
     "family"),
    ({"family": "step", "breaks": [1.0], "values": [1, 2], "value": [3]},
     "unknown key 'value' in a step potential spec; its keys are family, "
     "breaks, values, entry"),
])
def test_unknown_potential_key_refused_by_name(spec, message):
    # a misspelled key silently took its default: "xo" put the singular
    # point at pi/2
    with pytest.raises(ValueError, match=re.escape(message)):
        make_potential(spec)


@pytest.mark.parametrize("spec", ["zero", ["zero"], None])
def test_potential_spec_that_is_not_an_object_refused(spec):
    # spec.get raised a bare AttributeError
    with pytest.raises(ValueError,
                       match=re.escape(f"potential spec {spec!r} is not an "
                                       f"object")):
        make_potential(spec)


@pytest.mark.parametrize("terms, term", [
    ([["sin", 1]], ["sin", 1]),
    ([["sin", 1, 0.5], ["cos", 2, 0.1, 0.0]], ["cos", 2, 0.1, 0.0]),
    (["sin", 1, 0.5], "sin"),
])
def test_malformed_trig_term_refused_by_name(terms, term):
    # "not enough values to unpack (expected 3, got 2)"
    with pytest.raises(ValueError,
                       match=re.escape(f"term {term!r} is not [kind, k, "
                                       f"amp]")):
        make_potential({"family": "trig", "p2": terms})


def test_benchmark_and_readme_potentials_still_build(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    workloads = importlib.import_module("workloads")
    specs = [cfg["potential"] for cfg in workloads.EQUICONV.values()]
    specs += [spec for _, spec in workloads.SPECTRUM.values()]
    specs += [cfg["potential"]
              for cfg in workloads.KNOWN_DEFECTS["equiconv"].values()]
    specs += [spec for _, spec in workloads.KNOWN_DEFECTS["spectrum"].values()]
    # README.md
    specs += [{"family": "constant_offdiag", "c": 0.3},
              {"family": "trig", "p2": [["sin", 1, 0.8]]},
              {"family": "power", "alpha": 0.4, "x0": 1.1, "amplitude": 0.5},
              {"family": "zero"}]
    for spec in specs:
        assert isinstance(make_potential(spec), PotentialMatrix)
