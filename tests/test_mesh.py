import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diraclab import (GridFunction2, MeshMismatchError, build_mesh,
                      inner_product, lp_norm)

PI = np.pi


@pytest.fixture(scope="module")
def mesh():
    return build_mesh(32, order=5)


def test_integrate_polynomial_exact(mesh):
    # order-5 Gauss integrates degree-9 polynomials exactly per panel
    vals = mesh.nodes ** 9
    assert abs(mesh.integrate(vals) - PI ** 10 / 10) < 1e-10


def test_integrate_trig(mesh):
    assert abs(mesh.integrate(np.sin(mesh.nodes)) - 2.0) < 1e-12


def test_cumulative_matches_antiderivative(mesh):
    x = mesh.nodes
    got = mesh.cumulative(np.cos(3.0 * x))
    assert np.max(np.abs(got - np.sin(3.0 * x) / 3.0)) < 1e-8


def test_cumulative_polynomial_exact(mesh):
    x = mesh.nodes
    got = mesh.cumulative(x ** 4)
    assert np.max(np.abs(got - x ** 5 / 5.0)) < 1e-12


@pytest.mark.parametrize("args, message", [
    ((-1,), "panels=-1 is below 1"), ((0,), "panels=0 is below 1"),
    ((1.5,), "panels=1.5 is not an integer"),
    (("8",), "panels='8' is not an integer"),
    ((8, 0), "order=0 is below 1"), ((8, 2.5), "order=2.5 is not an integer"),
    ((True,), "panels=True is not an integer"),
])
def test_build_mesh_refuses_bad_sizes(args, message):
    # these raised IndexError, TypeError and numpy's "deg must be a
    # positive integer", naming neither the input nor its value; True
    # counted as one panel
    with pytest.raises(ValueError, match=re.escape(message)):
        build_mesh(*args)


def test_build_mesh_takes_integral_floats():
    mesh, same = build_mesh(8, order=4), build_mesh(8.0, order=4.0)
    assert same.order == 4 and isinstance(same.order, int)
    assert np.array_equal(mesh.nodes, same.nodes)


def test_derivative(mesh):
    x = mesh.nodes
    got = mesh.derivative(np.sin(2.0 * x))
    assert np.max(np.abs(got - 2.0 * np.cos(2.0 * x))) < 1e-5


def test_interpolate_scalar_and_array(mesh):
    vals = np.exp(1j * mesh.nodes)
    pts = np.array([0.0, 0.7, PI / 2, PI])
    got = mesh.interpolate(vals, pts)
    assert np.max(np.abs(got - np.exp(1j * pts))) < 1e-7
    assert abs(mesh.interpolate(vals, 1.234) - np.exp(1.234j)) < 1e-9


def test_interpolate_exact_node_hit(mesh):
    vals = mesh.nodes ** 2
    j = 17
    assert mesh.interpolate(vals, mesh.nodes[j]) == pytest.approx(vals[j])


def test_interpolate_any_point_shape(mesh):
    # values (..., N) at points of shape s give (...,) + s: a 2-d point
    # array gives the 1-d results reshaped, bit for bit, node hits and the
    # ends of [0, pi] included
    vals = np.stack([np.exp(1j * mesh.nodes), mesh.nodes ** 2 + 0j])
    pts = np.concatenate([[0.0, PI, mesh.nodes[17]],
                          np.linspace(0.01, 3.1, 9)]).reshape(3, 4)
    got = mesh.interpolate(vals, pts)
    assert got.shape == (2, 3, 4)
    flat = mesh.interpolate(vals, pts.ravel())
    assert np.array_equal(got, flat.reshape(2, 3, 4))
    assert np.array_equal(mesh.interpolate(vals[0], pts), flat[0].reshape(3, 4))
    assert mesh.interpolate(vals, 1.234).shape == (2,)
    assert mesh.interpolate(vals[0], 1.234).shape == ()


def test_graded_mesh_integrates_power_singularity():
    mesh = build_mesh(64, order=5, singular_points=(1.1,))
    vals = np.abs(mesh.nodes - 1.1) ** (-0.5)
    exact = 2.0 * (np.sqrt(1.1) + np.sqrt(PI - 1.1))
    assert abs(mesh.integrate(vals) - exact) < 1e-4


def test_singular_point_on_panel_boundary():
    mesh = build_mesh(64, order=5, singular_points=(1.1,))
    assert np.min(np.abs(mesh.breaks - 1.1)) < 1e-12
    assert np.min(np.abs(mesh.nodes - 1.1)) > 1e-12


@pytest.mark.parametrize("panels", [64, 128])
@pytest.mark.parametrize("x0", [PI / 2, PI / 4, 1.1])
def test_singular_point_is_an_exact_break(x0, panels):
    # pi / 2 is a base break that rounds to 15 digits two ways, ...896 and
    # ...897, and once sat on the midpoint node of the panel between them;
    # every singular point is now a break itself, graded on both sides
    mesh = build_mesh(panels, order=5, singular_points=(x0,))
    assert x0 in mesh.breaks
    assert np.min(np.abs(mesh.nodes - x0)) > 0.0
    i = int(np.searchsorted(mesh.breaks, x0))
    # the innermost graded length, up to the 15-digit rounding of breaks
    innermost = (PI / panels) * 0.5 ** 20 + 1e-15
    assert 0.0 < mesh.panel_lengths[i - 1] <= innermost
    assert 0.0 < mesh.panel_lengths[i] <= innermost
    vals = np.abs(mesh.nodes - x0) ** (-0.5)
    exact = 2.0 * (np.sqrt(x0) + np.sqrt(PI - x0))
    assert abs(mesh.integrate(vals) - exact) < 1e-4


def test_reflected_mesh_mirrors_nodes_and_weights():
    mesh = build_mesh(96, singular_points=(1.1,))
    mirror = mesh.reflected()
    assert mirror.breaks[0] == 0.0 and mirror.breaks[-1] == PI
    assert np.max(np.abs(mirror.nodes - (PI - mesh.nodes[::-1]))) <= 1e-15
    assert np.max(np.abs(mirror.weights - mesh.weights[::-1])) <= 1e-15
    assert mirror.singular_points == (PI - 1.1,)


def test_lp_norm_known_values(mesh):
    f = GridFunction2.from_callables(mesh, np.sin, lambda x: 0.0 * x)
    assert lp_norm(f, 2) == pytest.approx(np.sqrt(PI / 2), abs=1e-10)
    # grid max is a lower bound of the sup; 32 panels resolve it to ~1e-5
    assert lp_norm(f, np.inf) == pytest.approx(1.0, abs=1e-4)
    assert lp_norm(f, 1) == pytest.approx(2.0, abs=1e-10)


def test_lp_norm_rejects_alpha_below_one(mesh):
    f = GridFunction2.from_callables(mesh, np.sin, np.cos)
    for alpha in (0.5, np.nan):
        with pytest.raises(ValueError):
            lp_norm(f, alpha)


def test_gridfunction_arithmetic(mesh):
    f = GridFunction2.from_callables(mesh, np.sin, np.cos)
    g = GridFunction2.from_callables(mesh, np.cos, np.sin)
    s = f + g - g
    assert np.allclose(s.values, f.values)
    assert np.allclose((2.0 * f).values, 2.0 * f.values)


def test_mesh_mismatch_raises(mesh):
    other = build_mesh(16, order=5)
    f = GridFunction2.from_callables(mesh, np.sin, np.cos)
    g = GridFunction2.from_callables(other, np.sin, np.cos)
    with pytest.raises(MeshMismatchError):
        _ = f + g


def test_inner_product_conjugate_symmetry(mesh):
    f = GridFunction2.from_callables(mesh, lambda x: np.exp(1j * x), np.sin)
    g = GridFunction2.from_callables(mesh, np.cos, lambda x: x + 1j)
    assert inner_product(f, g) == pytest.approx(
        np.conj(inner_product(g, f)), abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(c=st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                            allow_infinity=False),
       alpha=st.sampled_from([1.0, 1.5, 2.0, 4.0, np.inf]))
def test_lp_norm_homogeneity(c, alpha):
    mesh = build_mesh(8, order=4)
    f = GridFunction2.from_callables(mesh, np.sin, np.cos)
    assert lp_norm(c * f, alpha) == pytest.approx(
        abs(c) * lp_norm(f, alpha), rel=1e-9, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(k=st.integers(min_value=1, max_value=5),
       mu=st.sampled_from([1.25, 2.0, 4.0]))
def test_hoelder_inequality(k, mu):
    # |<f, g>| <= ||f||_mu ||g||_mu'
    mesh = build_mesh(16, order=5)
    f = GridFunction2.from_callables(
        mesh, lambda x: np.sin(k * x), lambda x: np.cos(k * x))
    g = GridFunction2.from_callables(
        mesh, lambda x: np.exp(1j * x), lambda x: x / PI)
    dual = mu / (mu - 1.0)
    assert abs(inner_product(f, g)) <= lp_norm(f, mu) * lp_norm(g, dual) + 1e-9
