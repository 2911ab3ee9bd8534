"""Composite Gauss-Legendre meshes on [0, pi] with geometric grading.

The mesh is a partition of [0, pi] into panels, each carrying a fixed-order
Gauss-Legendre rule.  Panels adjacent to a declared singular point are
geometrically refined toward it (GRADING_DEPTH panels, each GRADING_RATIO
times the last), so that integrable power singularities |x - x0|^(-alpha),
alpha < 1, are resolved by the quadrature.  Singular points always land on
panel boundaries and never on quadrature nodes (Gauss nodes are interior).
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as npoly

PI = np.pi
# graded panels on each side of a singular point, and their length ratio
GRADING_DEPTH = 20
GRADING_RATIO = 0.5


class MeshMismatchError(ValueError):
    """Two grid functions do not live on the same mesh."""


def as_count(value, name, least=0):
    """int(value), or a ValueError naming value unless it is an integer of
    at least least; an integral float counts as that integer, a bool does
    not."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not float(value).is_integer()):
        raise ValueError(f"{name}={value!r} is not an integer")
    if value < least:
        raise ValueError(f"{name}={value!r} is negative" if least == 0
                         else f"{name}={value!r} is below {least}")
    return int(value)


@lru_cache(maxsize=None)
def _reference_panel(order):
    """Nodes, weights, barycentric weights, partial-integral and
    differentiation matrices for the Gauss rule on [-1, 1].  Memoized, so
    every mesh of one order shares these read-only arrays."""
    xi, w = np.polynomial.legendre.leggauss(order)
    bw = np.array([
        1.0 / np.prod([xi[i] - xi[j] for j in range(order) if j != i])
        for i in range(order)
    ])
    # Wpart[j, i] = integral of the i-th Lagrange basis over [-1, xi_j]
    wpart = np.zeros((order, order))
    for i in range(order):
        c = np.array([1.0])
        for j in range(order):
            if j != i:
                c = npoly.polymul(c, np.array([-xi[j], 1.0]))
        c = c / npoly.polyval(xi[i], c)
        ci = npoly.polyint(c)
        wpart[:, i] = npoly.polyval(xi, ci) - npoly.polyval(-1.0, ci)
    # Lagrange differentiation matrix at the nodes
    diff = np.zeros((order, order))
    for j in range(order):
        for i in range(order):
            if i != j:
                diff[j, i] = (bw[i] / bw[j]) / (xi[j] - xi[i])
        diff[j, j] = -np.sum(diff[j])
    out = xi, w, bw, wpart, diff
    for a in out:
        a.setflags(write=False)
    return out


class Mesh:
    """Composite Gauss mesh on [0, pi].  The geometry is immutable by
    convention.  terms holds the Magnus terms of each potential propagated
    on the mesh, filled only by ode.propagation_terms under its lock, so a
    mesh is safe to share across workers."""

    def __init__(self, breaks, order=5, singular_points=()):
        breaks = np.asarray(breaks, dtype=float)
        if breaks[0] != 0.0 or abs(breaks[-1] - PI) > 1e-14:
            raise ValueError("mesh must cover [0, pi]")
        if np.any(np.diff(breaks) <= 0):
            raise ValueError("panel boundaries must be strictly increasing")
        self.breaks = breaks
        self.order = as_count(order, "order", 1)
        self.singular_points = tuple(float(s) for s in singular_points)
        self.terms = {}
        xi, w, bw, wpart, diff = _reference_panel(self.order)
        self._xi, self._bw = xi, bw
        self._wpart, self._diff = wpart, diff
        self.panel_starts = breaks[:-1]
        self.panel_lengths = np.diff(breaks)
        half = 0.5 * self.panel_lengths
        mid = self.panel_starts + half
        self.nodes2d = mid[:, None] + half[:, None] * xi[None, :]
        self.weights2d = half[:, None] * w[None, :]
        self.nodes = self.nodes2d.ravel()
        self.weights = self.weights2d.ravel()
        for s in self.singular_points:
            if np.min(np.abs(self.nodes - s)) == 0.0:
                raise ValueError("singular point coincides with a node")

    @property
    def n_panels(self):
        return len(self.panel_lengths)

    @property
    def size(self):
        return self.nodes.size

    def reflected(self):
        """The mirror mesh under x -> pi - x: its first break is exactly 0
        and its last exactly pi, and its node j sits at pi - nodes[-1 - j]
        up to roundoff."""
        return Mesh(PI - self.breaks[::-1], self.order,
                    [PI - s for s in self.singular_points])

    def same_as(self, other):
        return self is other or (
            isinstance(other, Mesh)
            and self.order == other.order
            and self.breaks.shape == other.breaks.shape
            and np.array_equal(self.breaks, other.breaks)
        )

    # -- quadrature -------------------------------------------------------

    def integrate(self, values):
        """Integral over [0, pi] of values sampled at the nodes
        (last axis)."""
        return np.asarray(values) @ self.weights

    def panel_integrals(self, values):
        """(totals, partials) of values sampled at the nodes (last axis):
        each panel's integral, (..., K), and the integrals from its start
        to each of its nodes, (..., K, order).  Within each panel the
        integrand is replaced by its interpolating polynomial on the Gauss
        nodes, so sub-panel integrals keep the order of the quadrature."""
        v = np.asarray(values)
        vk = v.reshape(v.shape[:-1] + (self.n_panels, self.order))
        totals = np.einsum("...ki,ki->...k", vk, self.weights2d)
        half = 0.5 * self.panel_lengths
        partials = np.einsum("ji,...ki->...kj", self._wpart, vk)
        return totals, partials * half[:, None]

    def cumulative(self, values):
        """Antiderivative x -> int_0^x, evaluated at every node."""
        v = np.asarray(values)
        totals, partials = self.panel_integrals(v)
        prefix = np.zeros_like(totals)
        np.cumsum(totals[..., :-1], axis=-1, out=prefix[..., 1:])
        return (prefix[..., :, None] + partials).reshape(v.shape)

    def derivative(self, values):
        """Per-panel spectral differentiation of node values."""
        v = np.asarray(values)
        vk = v.reshape(v.shape[:-1] + (self.n_panels, self.order))
        dv = np.einsum("ji,...ki->...kj", self._diff, vk)
        dv = dv / (0.5 * self.panel_lengths)[:, None]
        return dv.reshape(v.shape)

    # -- interpolation ----------------------------------------------------

    def panel_of(self, x):
        k = np.searchsorted(self.breaks, x, side="right") - 1
        return np.clip(k, 0, self.n_panels - 1)

    def interpolate(self, values, x):
        """Evaluate the panel-wise interpolating polynomial at the points x,
        of any shape: values (..., N) give values.shape[:-1] + x.shape."""
        v = np.asarray(values)
        x = np.asarray(x, dtype=float)
        flat = x.reshape(-1)
        k = self.panel_of(flat)
        a = self.panel_starts[k]
        h = self.panel_lengths[k]
        xi = 2.0 * (flat - a) / h - 1.0
        vk = v.reshape(v.shape[:-1] + (self.n_panels, self.order))
        vals = vk[..., k, :]                         # (..., m, q)
        d = xi[:, None] - self._xi[None, :]          # (m, q)
        exact = np.abs(d) < 1e-14
        hit = exact.any(axis=-1)
        c = self._bw[None, :] / np.where(exact, 1.0, d)
        c = c / c.sum(axis=-1)[:, None]
        c = np.where(hit[:, None], exact.astype(float), c)
        out = np.einsum("...mq,mq->...m", vals, c)
        return out.reshape(v.shape[:-1] + x.shape)


def build_mesh(panels=512, order=5, singular_points=()):
    """Uniform panels on [0, pi] plus geometric grading toward each
    declared singular point."""
    panels = as_count(panels, "panels", 1)
    base = np.linspace(0.0, PI, panels + 1)
    pts = set(np.round(base, 15))
    sing = [float(s) for s in singular_points]
    for x0 in sing:
        if not 0.0 <= x0 <= PI:
            raise ValueError("singular point outside [0, pi]")
        h0 = PI / panels
        # the base boundaries on either side of x0; one that coincides
        # with x0 moves one panel outward
        left = max(0.0, np.floor(x0 / h0) * h0)
        right = min(PI, np.ceil(x0 / h0) * h0)
        if abs(left - x0) < 1e-12 * PI:
            left = max(0.0, left - h0)
        if abs(right - x0) < 1e-12 * PI:
            right = min(PI, right + h0)
        if x0 > 0.0:
            for j in range(GRADING_DEPTH + 1):
                pts.add(round(x0 - (x0 - left) * GRADING_RATIO ** j, 15))
        if x0 < PI:
            for j in range(GRADING_DEPTH + 1):
                pts.add(round(x0 + (right - x0) * GRADING_RATIO ** j, 15))
    # each singular point is a break itself, unrounded, in place of the
    # breaks that rounding to 15 digits puts within 1e-15 of it: np.round
    # and round can round it apart (pi / 2 to ...896 and ...897), and it
    # would sit on the midpoint node of the panel between them
    pts = {p for p in pts
           if all(abs(p - x0) > 1e-15 for x0 in sing)} | set(sing)
    breaks = np.array(sorted(pts))
    breaks[0], breaks[-1] = 0.0, PI
    keep = np.concatenate([[True], np.diff(breaks) > 1e-15])
    return Mesh(breaks[keep], order=order, singular_points=sing)


@dataclass(frozen=True)
class GridFunction2:
    """Two-component complex function sampled at the quadrature nodes."""
    mesh: Mesh
    values: np.ndarray          # shape (2, N)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (2, self.mesh.size):
            raise ValueError("component length must equal mesh size")
        object.__setattr__(self, "values", v)

    @classmethod
    def from_callables(cls, mesh, f1, f2):
        x = mesh.nodes
        return cls(mesh, np.stack([
            np.asarray(f1(x), dtype=complex) * np.ones_like(x),
            np.asarray(f2(x), dtype=complex) * np.ones_like(x)]))

    def __add__(self, other):
        self._check(other)
        return GridFunction2(self.mesh, self.values + other.values)

    def __sub__(self, other):
        self._check(other)
        return GridFunction2(self.mesh, self.values - other.values)

    def __mul__(self, scalar):
        return GridFunction2(self.mesh, self.values * scalar)

    __rmul__ = __mul__

    def _check(self, other):
        if not self.mesh.same_as(other.mesh):
            raise MeshMismatchError("grid functions live on different meshes")


def as_exponent(p, name):
    """An exponent as given, or as a float when given as a string ("inf"
    becomes np.inf); a ValueError naming a string that is no number."""
    if not isinstance(p, str):
        return p
    try:
        return float(p)
    except ValueError:
        raise ValueError(f"{name}={p!r} is not a number or inf") from None


def check_exponent(p, name):
    """A ValueError naming p unless it is an L_p exponent, >= 1 or inf."""
    if not p >= 1:
        raise ValueError(f"{name} must be >= 1 or inf, got "
                         f"{'NaN' if p != p else p}")


def lp_norm(f: GridFunction2, alpha):
    """L_alpha norm on [0, pi]; alpha = inf gives the grid max (a lower
    bound of the essential sup)."""
    check_exponent(alpha, "alpha")
    if alpha == np.inf:
        return float(np.max(np.abs(f.values)))
    integrand = np.sum(np.abs(f.values) ** alpha, axis=0)
    return float(f.mesh.integrate(integrand) ** (1.0 / alpha))


def inner_product(f, g):
    """L_2 pairing int_0^pi (f1 conj(g1) + f2 conj(g2)) dx."""
    if not f.mesh.same_as(g.mesh):
        raise MeshMismatchError("inner product requires a shared mesh")
    integrand = np.sum(f.values * np.conj(g.values), axis=0)
    return complex(f.mesh.integrate(integrand))
