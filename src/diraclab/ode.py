"""Fundamental solutions of B y' + P y = lambda y by panel product integration.

On each mesh panel the coefficient matrix A(x) = B^{-1}(lambda I - P(x)) is
replaced by a fourth-order Magnus argument built from two Gauss points, and
the panel propagator is its exact 2x2 exponential.  The free part is inside
the exponential, so P = 0 (and any constant P) propagates exactly; integrable
singularities are handled by the graded panels, which sample the potential
only at interior Gauss points.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import BoundaryMatrixPair
from .mesh import GridFunction2, Mesh, lp_norm
from .potentials import PotentialMatrix

B_MATRIX = np.diag([-1j, 1j])
B_INV = np.diag([1j, -1j])
IM_CAP_DEFAULT = 50.0
# eigenvalues per propagate call in the batched eigenfunction core; bounds
# the node matrices alive at once to a chunk
EIG_CHUNK = 16
# spectral parameters per propagate call in char_det; bounds the transfer
# matrices alive at once, so that memory does not grow with the batch
DET_CHUNK = 64
_G2 = 1.0 / (2.0 * np.sqrt(3.0))
_C4 = np.sqrt(3.0) / 12.0


class OverflowCapError(ValueError):
    """|Im lambda| exceeds the configured cap for e^{+-i lambda x}."""


class NotAnEigenvalueError(ValueError):
    """Characteristic determinant not small enough at the requested lambda."""


def _check_cap(lams, im_cap):
    if np.any(np.abs(np.imag(lams)) > im_cap):
        raise OverflowCapError(
            f"|Im lambda| exceeds cap {im_cap}; raise im_cap explicitly if intended")


def det2(M):
    """Determinants of 2x2 matrices (vectorized over leading axes)."""
    return M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]


def inv2(M):
    """Inverses of 2x2 matrices (vectorized over leading axes)."""
    d = det2(M)
    out = np.empty_like(M)
    out[..., 0, 0] = M[..., 1, 1] / d
    out[..., 1, 1] = M[..., 0, 0] / d
    out[..., 0, 1] = -M[..., 0, 1] / d
    out[..., 1, 0] = -M[..., 1, 0] / d
    return out


def expm2(M):
    """Exact exponential of 2x2 matrices (vectorized over leading axes)."""
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


def _ap_values(P: PotentialMatrix, x):
    """A_P(x) = -B^{-1} P(x): the lambda-independent part of A."""
    out = np.zeros(np.shape(x) + (2, 2), dtype=complex)
    if not P.p1.is_zero:
        out[..., 0, 0] = -1j * P.p1(x)
    if not P.p2.is_zero:
        out[..., 0, 1] = -1j * P.p2(x)
    if not P.p3.is_zero:
        out[..., 1, 0] = 1j * P.p3(x)
    if not P.p4.is_zero:
        out[..., 1, 1] = 1j * P.p4(x)
    return out


def _magnus_factors(P, lams, starts, lengths):
    """Fourth-order Magnus propagators over intervals [start, start+length].

    lams has shape (L,), starts/lengths any common shape S; result is
    (L,) + S + (2, 2).
    """
    starts = np.asarray(starts, dtype=float)
    lengths = np.asarray(lengths, dtype=float)
    x1 = starts + lengths * (0.5 - _G2)
    x2 = starts + lengths * (0.5 + _G2)
    ap1 = _ap_values(P, x1)
    ap2 = _ap_values(P, x2)
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
    omega = s * (il * dmat + asum) + _C4 * s * s * (il * dcomm + comm0)
    return expm2(omega)


def propagate(P: PotentialMatrix, lams, mesh: Mesh, nodes=True,
              im_cap=IM_CAP_DEFAULT):
    """Transfer matrices for a batch of spectral parameters.

    Returns (Mb, Mn): Mb[l, k] = M(break_k, lam_l) with Mb[l, 0] = I, and
    Mn[l, j] = M(node_j, lam_l) (or None when nodes=False).
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    _check_cap(lams, im_cap)
    K = mesh.n_panels
    T = _magnus_factors(P, lams, mesh.panel_starts, mesh.panel_lengths)
    L = lams.size
    Mb = np.empty((L, K + 1, 2, 2), dtype=complex)
    Mb[:, 0] = np.eye(2)
    for k in range(K):
        Mb[:, k + 1] = T[:, k] @ Mb[:, k]
    if not nodes:
        return Mb, None
    sub_len = mesh.nodes2d - mesh.panel_starts[:, None]
    sub_start = np.broadcast_to(mesh.panel_starts[:, None], sub_len.shape)
    Tn = _magnus_factors(P, lams, sub_start, sub_len)
    Mn = np.einsum("lkjab,lkbc->lkjac", Tn, Mb[:, :-1])
    return Mb, Mn.reshape(L, mesh.size, 2, 2)


@dataclass
class FundamentalSolution:
    """M(x, lambda) with M(0, lambda) = I, stored at panel boundaries and
    quadrature nodes."""
    potential: PotentialMatrix
    lam: complex
    mesh: Mesh
    boundary_values: np.ndarray     # (K+1, 2, 2)
    node_values: np.ndarray         # (N, 2, 2)

    @property
    def monodromy(self):
        return self.boundary_values[-1]

    def at(self, x):
        """M(x, lambda) at arbitrary points by one Magnus sub-step from the
        containing panel's left boundary."""
        scalar = np.ndim(x) == 0
        x = np.atleast_1d(np.asarray(x, dtype=float))
        k = self.mesh.panel_of(x)
        a = self.mesh.breaks[k]
        T = _magnus_factors(self.potential, np.array([self.lam]), a, x - a)[0]
        out = T @ self.boundary_values[k]
        return out[0] if scalar else out

    def det_residual(self):
        """Max deviation from the Liouville identity
        det M(x) = exp(i int_0^x (p4 - p1))."""
        x = self.mesh.nodes
        trace = 1j * (self.potential.p4(x) - self.potential.p1(x))
        target = np.exp(self.mesh.cumulative(trace))
        return float(np.max(np.abs(det2(self.node_values) - target)))


def _node_chunks(P: PotentialMatrix, lams, mesh: Mesh, im_cap):
    """(chunk, Mb, Mn) for EIG_CHUNK lambdas per propagate(nodes=True)
    call, in order."""
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    for i in range(0, lams.size, EIG_CHUNK):
        chunk = lams[i:i + EIG_CHUNK]
        Mb, Mn = propagate(P, chunk, mesh, nodes=True, im_cap=im_cap)
        yield chunk, Mb, Mn


def fundamental_matrices(P: PotentialMatrix, lams, mesh: Mesh,
                         im_cap=IM_CAP_DEFAULT):
    """FundamentalSolution for each lambda in order, EIG_CHUNK per
    propagate call.  Its matrices are views into the current chunk; a
    caller that keeps one past the next step keeps the chunk alive."""
    for chunk, Mb, Mn in _node_chunks(P, lams, mesh, im_cap):
        for l, lam in enumerate(chunk):
            yield FundamentalSolution(potential=P, lam=complex(lam),
                                      mesh=mesh, boundary_values=Mb[l],
                                      node_values=Mn[l])


def fundamental_matrix(P: PotentialMatrix, lam, mesh: Mesh,
                       im_cap=IM_CAP_DEFAULT) -> FundamentalSolution:
    F, = fundamental_matrices(P, [lam], mesh, im_cap=im_cap)
    return F


def char_det(P: PotentialMatrix, U: BoundaryMatrixPair, lam, mesh: Mesh,
             im_cap=IM_CAP_DEFAULT):
    """Characteristic determinant det(C + D M(pi, lambda)), propagated
    DET_CHUNK lambdas at a time; each value is independent of the batch."""
    scalar = np.ndim(lam) == 0
    lams = np.atleast_1d(np.asarray(lam, dtype=complex))
    det = np.empty(lams.shape, dtype=complex)
    for i in range(0, lams.size, DET_CHUNK):
        Mb, _ = propagate(P, lams[i:i + DET_CHUNK], mesh, nodes=False,
                          im_cap=im_cap)
        det[i:i + DET_CHUNK] = det2(U.C[None] + U.D[None] @ Mb[:, -1])
    return complex(det[0]) if scalar else det


def delta_scale(P: PotentialMatrix, U: BoundaryMatrixPair, lams, mesh: Mesh):
    """Acceptance scale max(1, median |Delta(lambda_n + 0.49)|) for a set of
    eigenvalues, from boundary values only."""
    probe = np.asarray(lams, dtype=complex) + 0.49
    return max(1.0, float(np.median(np.abs(char_det(P, U, probe, mesh)))))


@dataclass
class EigenfunctionResult:
    lam: complex
    functions: list            # one GridFunction2, or two when degenerate
    degenerate: bool
    delta: complex


def normalize_eigenfunction(y: GridFunction2, value_at_zero=None):
    """L2 norm 1 with the first sizable component of y(0) rotated to the
    positive real axis."""
    nrm = lp_norm(y, 2)
    if nrm == 0.0:
        raise ValueError("cannot normalize the zero function")
    vals = y.values / nrm
    ref = value_at_zero if value_at_zero is not None else vals[:, 0]
    ref = np.asarray(ref, dtype=complex)
    mags = np.abs(ref)
    idx = 0 if mags[0] > 1e-8 * max(mags.max(), 1e-300) else 1
    phase = ref[idx] / abs(ref[idx]) if mags[idx] > 0 else 1.0
    return GridFunction2(y.mesh, vals * np.conj(phase))


def eigenfunctions(P: PotentialMatrix, U: BoundaryMatrixPair, lams,
                   mesh: Mesh, scale, accept_tol=1e-7,
                   im_cap=IM_CAP_DEFAULT):
    """Eigenfunction(s) at accepted eigenvalues, EIG_CHUNK per propagate
    call: y = M(., lambda) v with v spanning the numerical null space of
    C + D M(pi, lambda).

    Yields (EigenfunctionResult, node values M(x_j, lambda), monodromy) for
    each lambda in order.  The matrices are views into the current chunk;
    a caller that keeps them past the next step keeps the chunk alive.
    Raises NotAnEigenvalueError when |Delta(lambda)| > accept_tol * scale.
    """
    for chunk, Mb, Mn in _node_chunks(P, lams, mesh, im_cap):
        mono = Mb[:, -1]
        T = U.C[None] + U.D[None] @ mono
        dets = det2(T)
        bad = np.flatnonzero(np.abs(dets) > accept_tol * scale)
        if bad.size:
            b = bad[0]
            raise NotAnEigenvalueError(
                f"|Delta({complex(chunk[b])})| = {abs(dets[b]):.3e} exceeds "
                f"{accept_tol:.1e} * {scale:.3e}")
        _, s, vh = np.linalg.svd(T)
        tscale = np.maximum(1.0, np.max(np.abs(mono), axis=(1, 2)))
        for l, lam in enumerate(chunk):
            degenerate = bool(s[l, 0] <= 1e-6 * tscale[l])
            # null space: the last right singular vector, or both
            vecs = vh[l, (0 if degenerate else 1):].conj()
            funcs = [normalize_eigenfunction(
                GridFunction2(mesh, (Mn[l] @ v).T), value_at_zero=v)
                for v in vecs]
            yield (EigenfunctionResult(lam=complex(lam), functions=funcs,
                                       degenerate=degenerate,
                                       delta=complex(dets[l])),
                   Mn[l], mono[l])


def bvp_eigenfunction(P: PotentialMatrix, U: BoundaryMatrixPair, lam,
                      mesh: Mesh, accept_tol=1e-7,
                      im_cap=IM_CAP_DEFAULT) -> EigenfunctionResult:
    """Eigenfunction(s) at one accepted eigenvalue, accepted against the
    median |Delta| at four probes lambda +- 0.5, lambda +- 0.5i."""
    lam = complex(lam)
    probe = lam + 0.5 * np.array([1.0, -1.0, 1j, -1j])
    scale = max(1.0, float(np.median(np.abs(
        char_det(P, U, probe, mesh, im_cap=im_cap)))))
    (result, _, _), = eigenfunctions(P, U, [lam], mesh, scale,
                                     accept_tol=accept_tol, im_cap=im_cap)
    return result
