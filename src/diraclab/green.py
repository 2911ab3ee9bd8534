"""Green kernels and resolvent application.

green0_kernel evaluates the explicit free kernel

    G0(t,x,lam) = i (J12/Delta0 - chi_{t>x}) diag(e^{i lam (x-t)}, -e^{i lam (t-x)})
                + (i/Delta0) diag(e^{i lam (x-pi)}, -e^{i lam (pi-x)})
                  [[J14, J24], [J13, J23]] diag(e^{-i lam t}, -e^{i lam t});

only its Im lam >= 0 form is written out.  The rest follows from the
reflection r(x) = pi - x: if u = v o r, then (B d/dx - lam) u =
-[(B d/dx + lam) v] o r and C u(0) + D u(pi) = D v(0) + C v(pi), so with
U' = (D, C) the kernel below the real axis is
G(t, x, lam) = -G'(pi - t, pi - x, -lam), and a backward integral
int_x^pi is a forward one on the reflected mesh.

green_kernel builds the perturbed kernel from the fundamental system,

    G(t,x,lam) = M(x) [ -(C + D M(pi))^{-1} D M(pi) + chi_{t<x} I ] M(t)^{-1} B^{-1},

with the same diagonal jump diag(-i, i).  Both kernels expose a fast O(N)
resolvent application through variation of constants; for the perturbed
one it is a single apply vectorized over a leading lambda axis, which
resolvent_sum runs once per propagated chunk of lambdas.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .boundary import BoundaryMatrixPair, NotRegularError, delta0, \
    is_regular, minors, unperturbed_spectrum
from .mesh import GridFunction2, Mesh, check_exponent, lp_norm
from .ode import B_INV, EIG_CHUNK, FundamentalSolution, det2, \
    fundamental_matrix, inv2, node_planes
from .potentials import PotentialMatrix

POLE_TOL = 1e-6
# sample points per axis of kernel_sup, and its band around the diagonal
SUP_GRID = 40
SUP_EXCLUDE = 0.02


class PoleError(ValueError):
    """lambda is too close to an eigenvalue for the resolvent."""


def _forward_conv(mesh: Mesh, lam, v):
    """I(x) = int_0^x e^{i lam (x - t)} v(t) dt at the nodes, by a panel
    recursion whose factors all decay when Im lam >= 0."""
    v = np.asarray(v, dtype=complex)
    rel = mesh.nodes2d - mesh.panel_starts[:, None]
    ltot, lloc = mesh.panel_integrals(np.exp(-1j * lam * rel.ravel()) * v)
    fac = np.exp(1j * lam * mesh.panel_lengths)
    Ib = np.zeros(v.shape[:-1] + (mesh.n_panels,), dtype=complex)
    acc = np.zeros(v.shape[:-1], dtype=complex)
    for k in range(mesh.n_panels):
        Ib[..., k] = acc
        acc = fac[k] * (acc + ltot[..., k])
    out = np.exp(1j * lam * rel) * (Ib[..., :, None] + lloc)
    return out.reshape(v.shape)


def _g0_coefficients(m, lam):
    """Region coefficients of G0 for Im lam >= 0, normalized so that every
    exponential appearing in the kernel has a nonpositive growth rate."""
    q = np.exp(1j * lam * np.pi)
    dt = m.J14 + q * (m.J12 + m.J34) - q * q * m.J23
    return {
        # g11 = c11_lo e^{i lam (x-t)}        (t < x)
        #     = c11_hi e^{i lam (x-t+pi)}     (t > x)
        "c11_lo": 1j * (m.J14 + q * m.J12) / dt,
        "c11_hi": 1j * (q * m.J23 - m.J34) / dt,
        # g12 = c12 e^{i lam (x+t)}, g21 = c21 e^{i lam (2pi-x-t)}
        "c12": -1j * m.J24 / dt,
        "c21": -1j * m.J13 / dt,
        # g22 = c22_lo e^{i lam (t-x+pi)}     (t < x)
        #     = c22_hi e^{i lam (t-x)}        (t > x)
        "c22_lo": 1j * (q * m.J23 - m.J12) / dt,
        "c22_hi": 1j * (m.J14 + q * m.J34) / dt,
    }


@dataclass
class GreenKernel:
    """Resolvent kernel at a fixed lambda.  eval_grid(ts, xs) gives the 2x2
    values G(t, x) off the diagonal t = x on a sample grid, with shape
    (len(xs), len(ts), 2, 2); the one-sided limits across the diagonal
    differ by jump = diag(-i, i) (limit t->x+ minus t->x-).  node_apply maps
    the (..., 2, N) node values of f, with any leading axes, to those of the
    resolvent applied to f."""
    lam: complex
    mesh: Mesh
    eval_grid: Callable
    provenance: str                  # "explicit-G0" | "constructed"
    node_apply: Callable
    jump: np.ndarray = field(default_factory=lambda: np.diag([-1j, 1j]))
    # the fundamental system a constructed kernel is built from; None for G0
    solution: FundamentalSolution = None

    def apply(self, f: GridFunction2) -> GridFunction2:
        if not self.mesh.same_as(f.mesh):
            raise ValueError("function must live on the kernel's mesh")
        return GridFunction2(self.mesh, self.node_apply(f.values))


def _g0_upper(U: BoundaryMatrixPair, lam, mesh: Mesh, mirror: Mesh):
    """Grid evaluator and node-value apply of G0 for Im lam >= 0; mirror
    is mesh.reflected(), on which the backward integral runs forward."""
    c = _g0_coefficients(minors(U), lam)
    pi = np.pi

    def eval_grid(ts, xs):
        t = np.asarray(ts, dtype=float)[None, :]
        x = np.asarray(xs, dtype=float)[:, None]
        hi = t > x
        out = np.zeros(hi.shape + (2, 2), dtype=complex)
        out[..., 0, 0] = np.where(
            hi, c["c11_hi"] * np.exp(1j * lam * (x - t + pi)),
            c["c11_lo"] * np.exp(1j * lam * (x - t)))
        out[..., 0, 1] = c["c12"] * np.exp(1j * lam * (x + t))
        out[..., 1, 0] = c["c21"] * np.exp(1j * lam * (2 * pi - x - t))
        out[..., 1, 1] = np.where(
            hi, c["c22_hi"] * np.exp(1j * lam * (t - x)),
            c["c22_lo"] * np.exp(1j * lam * (t - x + pi)))
        return out

    def apply(values):
        # integrate each region term with only decaying exponentials;
        # values is (..., 2, N), any leading axes
        xn = mesh.nodes
        f1, f2 = values[..., 0, :], values[..., 1, :]
        out = np.empty(np.shape(values), dtype=complex)
        e_lo = np.exp(1j * lam * xn)
        e_hi = np.exp(1j * lam * (pi - xn))
        w1 = e_hi * f1
        C1 = mesh.cumulative(w1)
        A1 = mesh.integrate(w1)[..., None]
        w0 = e_lo * f2
        A0 = mesh.integrate(w0)[..., None]
        C0 = mesh.cumulative(w0)
        F1 = _forward_conv(mesh, lam, f1)
        # int_x^pi e^{i lam (t-x)} f2(t) dt, forward on the mirror mesh
        B2 = _forward_conv(mirror, lam, f2[..., ::-1])[..., ::-1]
        out[..., 0, :] = (c["c11_lo"] * F1
                          + e_lo * (c["c11_hi"] * (A1 - C1) + c["c12"] * A0))
        out[..., 1, :] = (c["c22_hi"] * B2
                          + e_hi * (c["c22_lo"] * C0 + c["c21"] * A1))
        return out

    return eval_grid, apply


def green0_kernel(U: BoundaryMatrixPair, lam, mesh: Mesh) -> GreenKernel:
    """Explicit free Green kernel; raises PoleError near the unperturbed
    spectrum of U.  Below the real axis, R_U(lam) f = -[R_U'(-lam)(f o r)] o r
    with U' = (D, C) and r(x) = pi - x."""
    lam = complex(lam)
    if not is_regular(U)[0]:
        raise NotRegularError("boundary form is not Birkhoff-regular")
    d0 = delta0(U, lam)
    scale = max(1.0, abs(np.exp(1j * lam * np.pi)), abs(np.exp(-1j * lam * np.pi)))
    if abs(d0) <= POLE_TOL * scale:
        lam0 = unperturbed_spectrum(U).lambda0(np.arange(-200, 202))
        nearest = lam0[np.argmin(np.abs(lam0 - lam))]
        raise PoleError(f"Delta0({lam}) ~ 0; nearest eigenvalue {nearest}")
    mirror = mesh.reflected()
    if lam.imag >= 0:
        eval_grid, node_apply = _g0_upper(U, lam, mesh, mirror)
    else:
        ev, ap = _g0_upper(BoundaryMatrixPair(U.D, U.C), -lam, mirror, mesh)

        def eval_grid(ts, xs):
            return -ev(np.pi - np.asarray(ts, dtype=float),
                       np.pi - np.asarray(xs, dtype=float))

        def node_apply(values):
            return -ap(values[..., ::-1])[..., ::-1]

    return GreenKernel(lam=lam, mesh=mesh, eval_grid=eval_grid,
                       provenance="explicit-G0", node_apply=node_apply)


def _node_matvec(M, v):
    """M(x_n) v(x_n) at every node, for entry planes M (2, 2, ..., N) and v
    (..., 2, N) broadcast over their middle and leading axes; returns
    (..., 2, N)."""
    return np.stack([M[0, 0] * v[..., 0, :] + M[0, 1] * v[..., 1, :],
                     M[1, 0] * v[..., 0, :] + M[1, 1] * v[..., 1, :]],
                    axis=-2)


def _boundary_coefficients(U: BoundaryMatrixPair, lams, monodromy):
    """-(C + D M(pi))^{-1} D M(pi) for monodromies (..., 2, 2), by one
    batched solve.  Raises PoleError at the first lambda, in order, where
    Delta(lambda) ~ 0."""
    DM = U.D @ monodromy
    T = U.C + DM
    scale = np.maximum(1.0, np.max(np.abs(monodromy), axis=(-2, -1)))
    poles = np.flatnonzero(np.abs(det2(T)) <= POLE_TOL * scale)
    if poles.size:
        lam = complex(np.ravel(lams)[poles[0]])
        raise PoleError(f"Delta({lam}) ~ 0: resolvent pole")
    return -np.linalg.solve(T, DM)


def _voc_apply(Pmat, Mn, mesh: Mesh, values):
    """Node values of R(lambda) f by variation of constants,

        u(x) = M(x) [Pmat int_0^pi g + int_0^x g],   g = M^{-1} B^{-1} f,

    vectorized over a leading lambda axis: Pmat (..., 2, 2) from
    _boundary_coefficients, node values Mn as entry planes (2, 2, ..., N)
    and f (..., 2, N) give (..., 2, N).  B^{-1} is diagonal, so it scales
    the rows of f, and M^{-1} is applied as the adjugate of M over det M.
    Every operation is elementwise on the planes, so a plane view of
    (..., N, 2, 2) memory gives the bits of its contiguous copy."""
    h = np.diagonal(B_INV)[:, None] * values
    h0, h1 = h[..., 0, :], h[..., 1, :]
    d = det2(np.moveaxis(Mn, (0, 1), (-2, -1)))
    g = np.stack([(Mn[1, 1] * h0 - Mn[0, 1] * h1) / d,
                  (Mn[0, 0] * h1 - Mn[1, 0] * h0) / d], axis=-2)
    gcum = mesh.cumulative(g)
    inner = (Pmat @ mesh.integrate(g)[..., None])[..., 0]
    return _node_matvec(Mn, inner[..., None] + gcum)


def resolvent_sum(P: PotentialMatrix, U: BoundaryMatrixPair, lams, weights,
                  values, mesh: Mesh):
    """sum_l weights[l] R(lams[l]) f for the node values f (2, N), from
    EIG_CHUNK lambdas per ode.node_planes call, each chunk with one batched
    solve and one variation-of-constants apply; raises PoleError at the
    first pole, in order, and ValueError unless there is one weight per
    lambda and f is (2, N)."""
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    weights = np.atleast_1d(np.asarray(weights, dtype=complex))
    if weights.shape != lams.shape:
        raise ValueError(f"resolvent_sum needs one weight per lambda; got "
                         f"{weights.size} weights for {lams.size} lambdas")
    if np.shape(values) != (2, mesh.size):
        raise ValueError(f"resolvent_sum needs node values of shape "
                         f"(2, {mesh.size}); got {np.shape(values)}")
    acc = np.zeros((2, mesh.size), dtype=complex)
    for i in range(0, lams.size, EIG_CHUNK):
        chunk = lams[i:i + EIG_CHUNK]
        mono, Mn = node_planes(P, chunk, mesh)
        Pmat = _boundary_coefficients(U, chunk,
                                      np.moveaxis(mono, (0, 1), (-2, -1)))
        acc += np.tensordot(weights[i:i + EIG_CHUNK],
                            _voc_apply(Pmat, Mn, mesh, values), axes=1)
    return acc


def green_kernel(P: PotentialMatrix, U: BoundaryMatrixPair, lam,
                 mesh: Mesh) -> GreenKernel:
    """Perturbed Green kernel at one lambda from its fundamental system, the
    one-lambda case of the batched solve and apply; raises PoleError where
    Delta(lambda) ~ 0."""
    F = fundamental_matrix(P, lam, mesh)
    Pmat = _boundary_coefficients(U, [F.lam], F.monodromy[None])[0]

    def eval_grid(ts, xs):
        # M once per coordinate, then the per-point product broadcast over
        # the grid; its operand order fixes the bits (tests/test_green.py)
        ts = np.asarray(ts, dtype=float)
        xs = np.asarray(xs, dtype=float)
        mid = Pmat + (ts[None, :] < xs[:, None])[..., None, None] * np.eye(2)
        return F.at(xs)[:, None] @ mid @ inv2(F.at(ts)) @ B_INV

    def node_apply(values):
        return _voc_apply(Pmat, np.moveaxis(F.node_values, (-2, -1), (0, 1)),
                          mesh, values)

    return GreenKernel(lam=F.lam, mesh=mesh, eval_grid=eval_grid,
                       provenance="constructed", node_apply=node_apply,
                       solution=F)


def kernel_sup(K: GreenKernel):
    """Max |g_jk| over a SUP_GRID x SUP_GRID sample grid, off the band
    |x - t| <= SUP_EXCLUDE around the diagonal jump."""
    ts = np.linspace(0.013, np.pi - 0.009, SUP_GRID)
    xs = np.linspace(0.007, np.pi - 0.011, SUP_GRID)
    vals = K.eval_grid(ts, xs)
    mask = np.abs(xs[:, None] - ts[None, :]) > SUP_EXCLUDE
    return float(np.max(np.abs(vals[mask])))


@dataclass
class OpNormEstimate:
    """Lower-bound estimates of ||R0(iy)||_{L_mu -> L_nu} from a bump test
    battery, with the fitted log-log slope and prefactor."""
    mu: float
    nu: float
    y_values: np.ndarray
    estimates: np.ndarray
    slope: float
    prefactor: float


def _test_battery(mesh: Mesh):
    """Indicator bumps at several widths and centers, in each component,
    stacked as (n, 2, N); a bump that holds no node is left out."""
    widths = [np.pi, np.pi / 4, np.pi / 16, np.pi / 64,
              np.pi / 256, np.pi / 1024]
    centers = [np.pi / 8, np.pi / 2, 7 * np.pi / 8]
    xn = mesh.nodes
    fam = []
    for w in widths:
        for c in centers:
            ind = ((xn > c - w / 2) & (xn < c + w / 2)).astype(complex)
            if not ind.any():
                continue
            zero = np.zeros_like(ind)
            fam.append(np.stack([ind, zero]))
            fam.append(np.stack([zero, ind]))
    return np.array(fam)


def opnorm_scaling(U: BoundaryMatrixPair, mu, nu, y_list,
                   mesh: Mesh) -> OpNormEstimate:
    """Estimate ||R0(iy)||_{L_mu -> L_nu} from below over a bump battery and
    fit the decay exponent in y (expected -1 + 1/mu - 1/nu).  Each kernel
    is applied to the whole battery at once.  Raises ValueError unless
    1 <= mu <= nu (so neither is NaN) and y_list holds only positive finite
    values, two or more distinct."""
    check_exponent(mu, "mu")
    check_exponent(nu, "nu")
    if nu < mu:
        raise ValueError("requires 1 <= mu <= nu <= infinity")
    ys = np.asarray(y_list, dtype=float)
    if not np.all((ys > 0.0) & np.isfinite(ys)) or np.unique(ys).size < 2:
        raise ValueError(f"y_list must hold positive finite values, at least "
                         f"two of them distinct; got {list(y_list)}")
    battery = _test_battery(mesh)
    norms_mu = [lp_norm(GridFunction2(mesh, f), mu) for f in battery]
    ests = np.empty(ys.size)
    for i, y in enumerate(ys):
        out = green0_kernel(U, 1j * y, mesh).node_apply(battery)
        ests[i] = max(lp_norm(GridFunction2(mesh, u), nu) / nmu
                      for u, nmu in zip(out, norms_mu))
    slope, intercept = np.polyfit(np.log(ys), np.log(ests), 1)
    return OpNormEstimate(mu=mu, nu=nu, y_values=ys, estimates=ests,
                          slope=float(slope), prefactor=float(np.exp(intercept)))
