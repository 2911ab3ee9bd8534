"""Green kernels and resolvent application.

green0_kernel evaluates the explicit free kernel

    G0(t,x,lam) = i (J12/Delta0 - chi_{t>x}) diag(e^{i lam (x-t)}, -e^{i lam (t-x)})
                + (i/Delta0) diag(e^{i lam (x-pi)}, -e^{i lam (pi-x)})
                  [[J14, J24], [J13, J23]] diag(e^{-i lam t}, -e^{i lam t});

green_kernel (one lambda) and green_kernels (a batch, propagated in chunks)
build the perturbed kernel from the fundamental system,

    G(t,x,lam) = M(x) [ -(C + D M(pi))^{-1} D M(pi) + chi_{t<x} I ] M(t)^{-1} B^{-1},

with the same diagonal jump diag(-i, i).  Both kernels expose a fast O(N)
resolvent application through variation of constants.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .boundary import BoundaryMatrixPair, delta0, minors, unperturbed_spectrum
from .mesh import GridFunction2, Mesh, lp_norm
from .ode import B_INV, FundamentalSolution, det2, fundamental_matrices, inv2
# not called here; kept importable from this module, where bench/spans.py
# wraps it
from .ode import fundamental_matrix  # noqa: F401
from .potentials import PotentialMatrix

POLE_TOL = 1e-6


class PoleError(ValueError):
    """lambda is too close to an eigenvalue for the resolvent."""


def _forward_conv(mesh: Mesh, lam, v):
    """I(x) = int_0^x e^{i lam (x - t)} v(t) dt at the nodes, by a panel
    recursion whose factors all decay when Im lam >= 0."""
    v = np.asarray(v, dtype=complex)
    vk = v.reshape(v.shape[:-1] + (mesh.n_panels, mesh.order))
    rel = mesh.nodes2d - mesh.panel_starts[:, None]
    u = np.exp(-1j * lam * rel) * vk
    half = 0.5 * mesh.panel_lengths
    lloc = np.einsum("ji,...ki->...kj", mesh._wpart, u) * half[:, None]
    ltot = np.einsum("...ki,ki->...k", u, mesh.weights2d)
    fac = np.exp(1j * lam * mesh.panel_lengths)
    Ib = np.zeros(v.shape[:-1] + (mesh.n_panels,), dtype=complex)
    acc = np.zeros(v.shape[:-1], dtype=complex)
    for k in range(mesh.n_panels):
        Ib[..., k] = acc
        acc = fac[k] * (acc + ltot[..., k])
    out = np.exp(1j * lam * rel) * (Ib[..., :, None] + lloc)
    return out.reshape(v.shape)


def _backward_conv(mesh: Mesh, lam, v):
    """J(x) = int_x^pi e^{i lam (t - x)} v(t) dt at the nodes, stable for
    Im lam >= 0."""
    v = np.asarray(v, dtype=complex)
    vk = v.reshape(v.shape[:-1] + (mesh.n_panels, mesh.order))
    ends = mesh.breaks[1:]
    rel = ends[:, None] - mesh.nodes2d
    u = np.exp(-1j * lam * rel) * vk
    half = 0.5 * mesh.panel_lengths
    lloc = np.einsum("ji,...ki->...kj", mesh._wpart, u) * half[:, None]
    ltot = np.einsum("...ki,ki->...k", u, mesh.weights2d)
    tloc = ltot[..., :, None] - lloc
    fac = np.exp(1j * lam * mesh.panel_lengths)
    Jb = np.zeros(v.shape[:-1] + (mesh.n_panels,), dtype=complex)
    acc = np.zeros(v.shape[:-1], dtype=complex)
    for k in range(mesh.n_panels - 1, -1, -1):
        Jb[..., k] = acc
        acc = fac[k] * (acc + ltot[..., k])
    out = np.exp(1j * lam * rel) * (Jb[..., :, None] + tloc)
    return out.reshape(v.shape)


def _g0_coefficients(m, lam):
    """Region coefficients of G0, normalized so that every exponential
    appearing in the kernel has a nonpositive growth rate for the given
    sign of Im lam.  Returns (coeffs dict, dtil)."""
    if lam.imag >= 0:
        q = np.exp(1j * lam * np.pi)
        dt = m.J14 + q * (m.J12 + m.J34) - q * q * m.J23
        c = {
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
    else:
        p = np.exp(-1j * lam * np.pi)
        dt = m.J23 - p * (m.J12 + m.J34) - p * p * m.J14
        c = {
            # g11 = c11_lo e^{i lam (x-t-pi)}     (t < x)
            #     = c11_hi e^{i lam (x-t)}        (t > x)
            "c11_lo": -1j * (m.J12 + p * m.J14) / dt,
            "c11_hi": -1j * (m.J23 - p * m.J34) / dt,
            # g12 = c12 e^{i lam (x+t-2pi)}, g21 = c21 e^{-i lam (x+t)}
            "c12": 1j * m.J24 / dt,
            "c21": 1j * m.J13 / dt,
            # g22 = c22_lo e^{i lam (t-x)}        (t < x)
            #     = c22_hi e^{i lam (t-x-pi)}     (t > x)
            "c22_lo": 1j * (p * m.J12 - m.J23) / dt,
            "c22_hi": -1j * (m.J34 + p * m.J14) / dt,
        }
    return c, dt


@dataclass
class GreenKernel:
    """Resolvent kernel at a fixed lambda.  evaluator(t, x) gives the 2x2
    matrix off the diagonal t = x; the one-sided limits across the diagonal
    differ by jump = diag(-i, i) (limit t->x+ minus t->x-)."""
    lam: complex
    mesh: Mesh
    evaluator: Callable
    provenance: str                  # "explicit-G0" | "constructed"
    jump: np.ndarray = field(default_factory=lambda: np.diag([-1j, 1j]))
    _apply: Callable = None

    def eval_grid(self, ts, xs):
        """Kernel values on a sample grid: shape (len(xs), len(ts), 2, 2)."""
        ts = np.asarray(ts, dtype=float)
        xs = np.asarray(xs, dtype=float)
        return self.evaluator(ts[None, :], xs[:, None])

    def apply(self, f: GridFunction2) -> GridFunction2:
        return self._apply(f)


def green0_kernel(U: BoundaryMatrixPair, lam, mesh: Mesh) -> GreenKernel:
    """Explicit free Green kernel; raises PoleError near the unperturbed
    spectrum."""
    lam = complex(lam)
    m = minors(U)
    d0 = delta0(U, lam)
    spec0 = unperturbed_spectrum(U)
    ns = np.arange(-200, 202)
    lam0 = spec0.lambda0(ns)
    nearest = lam0[np.argmin(np.abs(lam0 - lam))]
    scale = max(1.0, abs(np.exp(1j * lam * np.pi)), abs(np.exp(-1j * lam * np.pi)))
    if abs(d0) <= POLE_TOL * scale:
        raise PoleError(f"Delta0({lam}) ~ 0; nearest eigenvalue {nearest}")
    c, _ = _g0_coefficients(m, lam)
    pi = np.pi

    def evaluator(t, x):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        shape = np.broadcast(t, x).shape
        hi = np.broadcast_to(t > x, shape)
        out = np.zeros(shape + (2, 2), dtype=complex)
        if lam.imag >= 0:
            out[..., 0, 0] = np.where(
                hi, c["c11_hi"] * np.exp(1j * lam * (x - t + pi)),
                c["c11_lo"] * np.exp(1j * lam * (x - t)))
            out[..., 0, 1] = c["c12"] * np.exp(1j * lam * (x + t))
            out[..., 1, 0] = c["c21"] * np.exp(1j * lam * (2 * pi - x - t))
            out[..., 1, 1] = np.where(
                hi, c["c22_hi"] * np.exp(1j * lam * (t - x)),
                c["c22_lo"] * np.exp(1j * lam * (t - x + pi)))
        else:
            out[..., 0, 0] = np.where(
                hi, c["c11_hi"] * np.exp(1j * lam * (x - t)),
                c["c11_lo"] * np.exp(1j * lam * (x - t - pi)))
            out[..., 0, 1] = c["c12"] * np.exp(1j * lam * (x + t - 2 * pi))
            out[..., 1, 0] = c["c21"] * np.exp(-1j * lam * (x + t))
            out[..., 1, 1] = np.where(
                hi, c["c22_hi"] * np.exp(1j * lam * (t - x - pi)),
                c["c22_lo"] * np.exp(1j * lam * (t - x)))
        return out

    def apply(f: GridFunction2) -> GridFunction2:
        if not mesh.same_as(f.mesh):
            raise ValueError("function must live on the kernel's mesh")
        xn = mesh.nodes
        f1, f2 = f.values
        out = np.empty((2, mesh.size), dtype=complex)
        if lam.imag >= 0:
            # integrate each region term with only decaying exponentials
            w1 = np.exp(1j * lam * (pi - xn)) * f1
            C1 = mesh.cumulative(w1)
            A1 = mesh.integrate(w1)
            A0 = mesh.integrate(np.exp(1j * lam * xn) * f2)
            C0 = mesh.cumulative(np.exp(1j * lam * xn) * f2)
            F1 = _forward_conv(mesh, lam, f1)
            B2 = _backward_conv(mesh, lam, f2)
            out[0] = (c["c11_lo"] * F1
                      + np.exp(1j * lam * xn) * (c["c11_hi"] * (A1 - C1)
                                                 + c["c12"] * A0))
            out[1] = (c["c22_hi"] * B2
                      + np.exp(1j * lam * (pi - xn)) * (c["c22_lo"] * C0
                                                        + c["c21"] * A1))
        else:
            w2 = np.exp(1j * lam * (xn - pi)) * f2
            C1m = mesh.cumulative(w2)
            A1m = mesh.integrate(w2)
            A0m = mesh.integrate(np.exp(-1j * lam * xn) * f1)
            Cm = mesh.cumulative(np.exp(-1j * lam * xn) * f1)
            B1 = _backward_conv(mesh, -lam, f1)     # int_x^pi e^{i lam (x-t)} f1
            F2 = _forward_conv(mesh, -lam, f2)      # int_0^x e^{i lam (t-x)} f2
            out[0] = (c["c11_hi"] * B1
                      + np.exp(1j * lam * (xn - pi)) * (c["c11_lo"] * Cm
                                                        + c["c12"] * A1m))
            out[1] = (c["c22_lo"] * F2
                      + np.exp(-1j * lam * xn) * (c["c22_hi"] * (A1m - C1m)
                                                  + c["c21"] * A0m))
        return GridFunction2(mesh, out)

    return GreenKernel(lam=lam, mesh=mesh, evaluator=evaluator,
                       provenance="explicit-G0", _apply=apply)


def _constructed_kernel(U: BoundaryMatrixPair, F: FundamentalSolution):
    """Perturbed Green kernel at F.lam from its fundamental system; raises
    PoleError where Delta(lambda) ~ 0."""
    lam, mesh = F.lam, F.mesh
    T = U.C + U.D @ F.monodromy
    det = det2(T)
    scale = max(1.0, float(np.max(np.abs(F.monodromy))))
    if abs(det) <= POLE_TOL * scale:
        raise PoleError(f"Delta({lam}) ~ 0: resolvent pole")
    Pmat = -np.linalg.solve(T, U.D @ F.monodromy)

    Mn = F.node_values
    Mn_inv = inv2(Mn)

    def evaluator(t, x):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        shape = np.broadcast(t, x).shape
        tb = np.broadcast_to(t, shape).ravel()
        xb = np.broadcast_to(x, shape).ravel()
        Mt = F.at(tb)
        Mx = F.at(xb)
        mid = Pmat[None] + (tb < xb)[:, None, None] * np.eye(2)[None]
        out = Mx @ mid @ inv2(Mt) @ B_INV[None]
        return out.reshape(shape + (2, 2))

    def apply(f: GridFunction2) -> GridFunction2:
        if not mesh.same_as(f.mesh):
            raise ValueError("function must live on the kernel's mesh")
        u = np.einsum("nab,bn->an", Mn_inv @ B_INV[None], f.values)
        ucum = mesh.cumulative(u)
        utot = mesh.integrate(u)
        inner = Pmat @ utot
        vals = np.einsum("nab,bn->an", Mn, inner[:, None] + ucum)
        return GridFunction2(mesh, vals)

    return GreenKernel(lam=lam, mesh=mesh, evaluator=evaluator,
                       provenance="constructed", _apply=apply)


def green_kernels(P: PotentialMatrix, U: BoundaryMatrixPair, lams,
                  mesh: Mesh):
    """Perturbed Green kernels for a batch of lambdas, in order, built from
    fundamental systems propagated EIG_CHUNK at a time.  A kernel kept
    past the next step keeps its chunk alive."""
    for F in fundamental_matrices(P, lams, mesh):
        yield _constructed_kernel(U, F)


def green_kernel(P: PotentialMatrix, U: BoundaryMatrixPair, lam, mesh: Mesh,
                 eigs=None, accept_tol=1e-7) -> GreenKernel:
    """Perturbed Green kernel at one lambda, the one-lambda case of
    green_kernels; with eigs, raises PoleError within 10 accept_tol of a
    known eigenvalue."""
    lam = complex(lam)
    if eigs is not None:
        dists = [abs(lam - v) for v in eigs.values.values()]
        if dists and min(dists) < 10 * accept_tol:
            raise PoleError(f"lambda within pole tolerance of eigenvalue "
                            f"{min(eigs.values.values(), key=lambda v: abs(lam - v))}")
    K, = green_kernels(P, U, [lam], mesh)
    return K


def apply_resolvent(K: GreenKernel, f: GridFunction2) -> GridFunction2:
    """R(lambda) f = int_0^pi G(t, ., lambda) f(t) dt."""
    return K.apply(f)


def kernel_sup(K: GreenKernel, nt=40, nx=40, exclude=0.02):
    """Max |g_jk| over an off-diagonal sample grid."""
    ts = np.linspace(0.013, np.pi - 0.009, nt)
    xs = np.linspace(0.007, np.pi - 0.011, nx)
    vals = K.eval_grid(ts, xs)
    mask = np.abs(xs[:, None] - ts[None, :]) > exclude
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
    a_est: float


def _test_battery(mesh: Mesh):
    """Indicator bumps at several widths and centers, in each component."""
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
            fam.append(GridFunction2(mesh, np.stack([ind, zero])))
            fam.append(GridFunction2(mesh, np.stack([zero, ind])))
    return fam


def opnorm_scaling(U: BoundaryMatrixPair, mu, nu, y_list,
                   mesh: Mesh = None) -> OpNormEstimate:
    """Estimate ||R0(iy)||_{L_mu -> L_nu} from below over a bump battery and
    fit the decay exponent in y (expected -1 + 1/mu - 1/nu)."""
    if nu < mu:
        raise ValueError("requires 1 <= mu <= nu <= infinity")
    if mesh is None:
        from .mesh import build_mesh
        mesh = build_mesh(512, order=5)
    battery = _test_battery(mesh)
    norms_mu = [lp_norm(f, mu) for f in battery]
    ys = np.asarray(y_list, dtype=float)
    ests = np.empty(ys.size)
    for i, y in enumerate(ys):
        K = green0_kernel(U, 1j * y, mesh)
        best = 0.0
        for f, nmu in zip(battery, norms_mu):
            if nmu == 0.0:
                continue
            best = max(best, lp_norm(K.apply(f), nu) / nmu)
        ests[i] = best
    slope, intercept = np.polyfit(np.log(ys), np.log(ests), 1)
    spec0 = unperturbed_spectrum(U)
    a_est = max(1.0, abs(spec0.zeta0.imag) + 0.5, abs(spec0.zeta1.imag) + 0.5)
    return OpNormEstimate(mu=mu, nu=nu, y_values=ys, estimates=ests,
                          slope=float(slope), prefactor=float(np.exp(intercept)),
                          a_est=float(a_est))
