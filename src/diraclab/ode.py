"""Fundamental solutions of B y' + P y = lambda y by panel product integration.

On each mesh panel the coefficient matrix A(x) = B^{-1}(lambda I - P(x)) is
replaced by a fourth-order Magnus argument built from two Gauss points, and
the panel propagator is its exact 2x2 exponential.  The free part is inside
the exponential, so P = 0 (and any constant P) propagates exactly; integrable
singularities are handled by the graded panels, which sample the potential
only at interior Gauss points.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .boundary import BoundaryMatrixPair
from .mesh import Mesh
from .potentials import PotentialMatrix

B_INV = np.diag([1j, -1j])
# largest |Im lambda| propagated; e^{+-i lambda x} grows as e^{pi |Im lambda|}
IM_CAP = 50.0
# lambdas per call where node matrices are formed in batches (propagate in
# expansions.eigenfunctions, node_planes in green.resolvent_sum); bounds
# the node matrices alive at once to a chunk
EIG_CHUNK = 16
# spectral parameters per propagate call in char_det; bounds the transfer
# matrices alive at once, so that memory does not grow with the batch
DET_CHUNK = 64
_G2 = 1.0 / (2.0 * np.sqrt(3.0))
_C4 = np.sqrt(3.0) / 12.0


class OverflowCapError(ValueError):
    """|Im lambda| exceeds IM_CAP."""


def _check_cap(lams):
    if np.any(np.abs(np.imag(lams)) > IM_CAP):
        raise OverflowCapError(f"|Im lambda| exceeds cap {IM_CAP}")


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


def mul2(A, B, out=None):
    """Products A @ B of 2x2 matrices (vectorized over broadcast leading
    axes), written into out when given.  Every value equals np.einsum's bit
    for bit, but a zero may carry the other sign (-0.0 where einsum gives
    +0.0).

    Each entry is formed in real arithmetic, in einsum's order,
    re = (a0r b0r - a0i b0i) + (a1r b1r - a1i b1i) and
    im = (a0r b0i + a0i b0r) + (a1r b1i + a1i b1r), through three float
    buffers reused for every entry."""
    lead = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
    if out is None:
        out = np.empty(lead + (2, 2), dtype=complex)
    t, u, v = np.empty(lead), np.empty(lead), np.empty(lead)
    ar, ai, br, bi = A.real, A.imag, B.real, B.imag
    for i in range(2):
        for j in range(2):
            a0r, a0i = ar[..., i, 0], ai[..., i, 0]
            a1r, a1i = ar[..., i, 1], ai[..., i, 1]
            b0r, b0i = br[..., 0, j], bi[..., 0, j]
            b1r, b1i = br[..., 1, j], bi[..., 1, j]
            np.multiply(a0r, b0r, out=t)
            np.multiply(a0i, b0i, out=u)
            np.subtract(t, u, out=t)
            np.multiply(a1r, b1r, out=u)
            np.multiply(a1i, b1i, out=v)
            np.subtract(u, v, out=u)
            np.add(t, u, out=out.real[..., i, j])
            np.multiply(a0r, b0i, out=t)
            np.multiply(a0i, b0r, out=u)
            np.add(t, u, out=t)
            np.multiply(a1r, b1i, out=u)
            np.multiply(a1i, b1r, out=v)
            np.add(u, v, out=u)
            np.add(t, u, out=out.imag[..., i, j])
    return out


# Operand-order contract.  The kernels below evaluate the fourth-order
# Magnus exponent and its exact exponential on one contiguous plane per 2x2
# entry, operation for operation as the (..., 2, 2) formulas
#     Omega = s (i lam diag(1, -1) + asum) + C4 s^2 (i lam dcomm + comm0)
#     expm2 = e^tau (cosh w I + (sinh w / w) (Omega - tau I))
# evaluate them, with each operand in the same place.  That keeps the bits:
# numpy's complex multiply loop rounds a * b as
# fma(a_re, b_re, -a_im b_im) + i fma(a_re, b_im, a_im b_re), the same way
# for every element whatever the strides, but not symmetrically, so a * b
# and b * a can differ in the last bit.  Hence np.multiply(s, x, out=x) for
# s * x, never x *= s (which is x * s).  Sums are commutative bit for bit.
_DIAG = np.diag([1.0, -1.0]).astype(complex)


@dataclass
class _MagnusTerms:
    """The lambda-independent part of the Magnus exponent over intervals
    [start, start + length] of a common shape S, one contiguous plane per
    2x2 entry: asum and comm0 are (2, 2) + S; dcomm[i][j] is a plane for
    i != j and 0j on the diagonal; s and c4ss are the lengths
    and C4 s^2 as complex S planes.

    With an index (intp, shape S), the planes hold only the D bitwise-
    distinct interval columns, (2, 2, D) and (D,), and interval n is column
    index[n]."""
    asum: np.ndarray
    comm0: np.ndarray
    dcomm: list
    s: np.ndarray
    c4ss: np.ndarray
    index: np.ndarray = None


def _magnus_terms(P: PotentialMatrix, starts, lengths) -> _MagnusTerms:
    """Magnus terms over [start, start + length], from A_P at the two Gauss
    points of each interval."""
    starts = np.asarray(starts, dtype=float)
    lengths = np.asarray(lengths, dtype=float)
    x1 = starts + lengths * (0.5 - _G2)
    x2 = starts + lengths * (0.5 + _G2)
    ap1 = _ap_values(P, x1)
    ap2 = _ap_values(P, x2)
    dap = ap1 - ap2
    return _MagnusTerms(
        asum=_planes(0.5 * (ap1 + ap2)),
        comm0=_planes(ap2 @ ap1 - ap1 @ ap2),
        dcomm=[[0j, 2.0 * dap[..., 0, 1]], [-2.0 * dap[..., 1, 0], 0j]],
        s=lengths.astype(complex),
        c4ss=(_C4 * lengths * lengths).astype(complex))


def _distinct_columns(terms: _MagnusTerms) -> _MagnusTerms:
    """terms with each bitwise-distinct interval column kept once and the
    index back to them; terms itself when no column repeats.  Columns are
    compared as bit patterns (-0.0 and +0.0 differ), so intervals share a
    column only where every term is the same bit for bit, and each keeps
    the bits of its own propagator.  Every array of the result is
    read-only."""
    n = terms.s.size
    arrays = [terms.asum, terms.comm0, terms.dcomm[0][1], terms.dcomm[1][0],
              terms.s, terms.c4ss]
    key = np.concatenate([a.reshape(-1, n) for a in arrays]).T.copy()
    _, cols, inverse = np.unique(key.view(np.uint64), axis=0,
                                 return_index=True, return_inverse=True)
    if cols.size < n:
        asum, comm0, d01, d10, s, c4ss = [
            a.reshape(-1, n)[:, cols].reshape(a.shape[:-terms.s.ndim] + (-1,))
            for a in arrays]
        terms = _MagnusTerms(asum=asum, comm0=comm0,
                             dcomm=[[0j, d01], [d10, 0j]], s=s, c4ss=c4ss,
                             index=inverse.reshape(terms.s.shape))
        arrays = [asum, comm0, d01, d10, s, c4ss, terms.index]
    for a in arrays:
        a.setflags(write=False)
    return terms


def _planes(M):
    """(2, 2) + S contiguous entry planes of matrices M (S + (2, 2))."""
    return np.ascontiguousarray(np.moveaxis(M, (-2, -1), (0, 1)))


def _magnus_propagators(terms: _MagnusTerms, lams):
    """Fourth-order Magnus propagators exp(Omega) for each lambda (L,) over
    the intervals of terms, as contiguous entry planes (2, 2, L) + S.  A
    caller that multiplies them by np.matmul first copies them into
    contiguous (..., 2, 2) blocks: BLAS rounds other layouts differently.

    Where terms hold distinct columns, Omega and its exponential are formed
    on those columns only and copied to their intervals by one np.take."""
    il = 1j * np.asarray(lams, dtype=complex)
    shape = il.shape + terms.s.shape
    il = il.reshape(il.shape + (1,) * terms.s.ndim)
    omega = np.empty((2, 2) + shape, dtype=complex)
    tmp = np.empty(shape, dtype=complex)
    for i in range(2):
        for j in range(2):
            o = omega[i, j]
            np.add(il * _DIAG[i, j], terms.asum[i, j], out=o)
            np.multiply(terms.s, o, out=o)
            np.multiply(il, terms.dcomm[i][j], out=tmp)
            np.add(tmp, terms.comm0[i, j], out=tmp)
            np.multiply(terms.c4ss, tmp, out=tmp)
            np.add(o, tmp, out=o)
    _expm2_planes(*omega.reshape((4,) + shape),
                  np.moveaxis(omega, (0, 1), (-2, -1)))
    if terms.index is None:
        return omega
    # every index is in range, so clipping changes nothing; it is cheaper
    # than the default mode's bounds check
    return np.take(omega, terms.index, axis=-1, mode="clip")


def _expm2_planes(m00, m01, m10, m11, out):
    """Exact exponentials of [[m00, m01], [m10, m11]] from four complex
    planes of one shape, written into out (shape + (2, 2)); the planes are
    overwritten, and out may be the planes themselves."""
    tau = np.add(m00, m11)
    np.multiply(0.5, tau, out=tau)
    n00 = np.subtract(m00, tau, out=m00)
    n11 = np.subtract(m11, tau, out=m11)
    w = np.multiply(n00, n11)
    t = np.multiply(m01, m10)
    np.subtract(w, t, out=w)
    np.negative(w, out=w)
    np.add(w, 0j, out=w)
    np.sqrt(w, out=w)
    c = np.cosh(w)
    # sinh(w) / w, but 1 + w^2 / 6 where |w| < 1e-5: those entries divide
    # with w = 1 and are then overwritten by the series, so each element
    # gets the value np.where would pick for it
    small = np.abs(w) < 1e-5
    series = None
    if small.any():
        ws = w[small]
        series = 1.0 + ws * ws / 6.0
        w[small] = 1.0
    s = np.divide(np.sinh(w, out=t), w, out=t)
    if series is not None:
        s[small] = series
    np.add(c, np.multiply(s, n00, out=n00), out=n00)
    np.multiply(s, m01, out=m01)
    np.multiply(s, m10, out=m10)
    np.add(c, np.multiply(s, n11, out=n11), out=n11)
    e = np.exp(tau, out=tau)
    np.multiply(e, n00, out=out[..., 0, 0])
    np.multiply(e, m01, out=out[..., 0, 1])
    np.multiply(e, m10, out=out[..., 1, 0])
    np.multiply(e, n11, out=out[..., 1, 1])
    return out


def expm2(M):
    """Exact exponential of 2x2 matrices (vectorized over leading axes)."""
    M = np.asarray(M)
    flat = M.reshape(-1, 2, 2)
    planes = [flat[:, i, j].astype(complex)
              for i in range(2) for j in range(2)]
    out = np.empty(flat.shape, dtype=complex)
    return _expm2_planes(*planes, out).reshape(M.shape)


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


_terms_lock = threading.Lock()


def propagation_terms(P: PotentialMatrix, mesh: Mesh, nodes=True):
    """The lambda-independent Magnus terms of propagate: (panel terms, node
    sub-step terms or None), as distinct columns (_distinct_columns) in
    read-only arrays.

    Held by the mesh per potential object: mesh.terms maps id(P) to
    [P, panel terms, node terms or None], and the entry keeps P, so no
    other object can take its id while the entry lives.  Two potentials
    built from one spec, P and P.adjoint(), or two meshes of one panel
    count never share terms.  The panel and node terms of a pair are each
    built once, on first use, and freed with the mesh.  Thread-safe: a
    lock guards the maps, and every build runs under it."""
    with _terms_lock:
        entry = mesh.terms.get(id(P))
        if entry is None:
            entry = mesh.terms[id(P)] = [P, _distinct_columns(_magnus_terms(
                P, mesh.panel_starts, mesh.panel_lengths)), None]
        if nodes and entry[2] is None:
            # node sub-steps as (order, K): mul2 then runs along the panel
            # axis
            sub_len = np.ascontiguousarray(
                (mesh.nodes2d - mesh.panel_starts[:, None]).T)
            sub_start = np.broadcast_to(mesh.panel_starts, sub_len.shape)
            entry[2] = _distinct_columns(_magnus_terms(P, sub_start,
                                                       sub_len))
        return entry[1], (entry[2] if nodes else None)


def propagate(P: PotentialMatrix, lams, mesh: Mesh, nodes=True):
    """Transfer matrices for a batch of spectral parameters.

    Returns (Mb, Mn): Mb[l, k] = M(break_k, lam_l) with Mb[l, 0] = I, and
    Mn[l, j] = M(node_j, lam_l) (or None when nodes=False); Mb is a view
    of panel-major memory.  The Magnus terms come from
    propagation_terms, held by the mesh.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    _check_cap(lams)
    panels, subs = propagation_terms(P, mesh, nodes)
    K = mesh.n_panels
    L = lams.size
    # panel-major, so that each step reads and writes contiguous slabs,
    # one zgemm per 2x2 product as in any layout
    T = np.ascontiguousarray(
        _magnus_propagators(panels, lams).transpose(3, 2, 0, 1))
    Mb = np.empty((K + 1, L, 2, 2), dtype=complex)
    Mb[0] = np.eye(2)
    for k in range(K):
        np.matmul(T[k], Mb[k], out=Mb[k + 1])
    Mb = Mb.swapaxes(0, 1)
    if not nodes:
        return Mb, None
    Mn = np.empty((L, K, mesh.order, 2, 2), dtype=complex)
    mul2(np.moveaxis(_magnus_propagators(subs, lams), (0, 1), (-2, -1)),
         Mb[:, None, :-1], out=Mn.swapaxes(1, 2))
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
        terms = _magnus_terms(self.potential, a, x - a)
        T = np.ascontiguousarray(np.moveaxis(
            _magnus_propagators(terms, [self.lam])[:, :, 0], (0, 1), (-2, -1)))
        out = T @ self.boundary_values[k]
        return out[0] if scalar else out

    def det_residual(self):
        """Max deviation from the Liouville identity
        det M(x) = exp(i int_0^x (p4 - p1))."""
        x = self.mesh.nodes
        trace = 1j * (self.potential.p4(x) - self.potential.p1(x))
        target = np.exp(self.mesh.cumulative(trace))
        return float(np.max(np.abs(det2(self.node_values) - target)))


def fundamental_matrix(P: PotentialMatrix, lam,
                       mesh: Mesh) -> FundamentalSolution:
    """M(x, lambda) at one lambda, from one propagate call."""
    lam = complex(lam)
    Mb, Mn = propagate(P, [lam], mesh)
    return FundamentalSolution(potential=P, lam=lam, mesh=mesh,
                               boundary_values=Mb[0], node_values=Mn[0])


def _plane_product(a, b, out):
    """a @ b for 2x2 matrices held as entry planes (2, 2) + S, broadcast
    over S, written into out: entry (i, j) is
    a[i, 0] * b[0, j] + a[i, 1] * b[1, j] in numpy's complex arithmetic."""
    tmp = np.empty(out.shape[2:], dtype=complex)
    for i in range(2):
        for j in range(2):
            c = out[i, j]
            np.multiply(a[i, 0], b[0, j], out=c)
            np.multiply(a[i, 1], b[1, j], out=tmp)
            np.add(c, tmp, out=c)
    return out


def _pairwise_levels(m):
    """Reduction half of the pairwise prefix product of panel propagators m
    (2, 2, ..., K), contiguous entry planes in panel order, yielded level
    by level.  Level 0 is m; each next level multiplies the panels
    (2i, 2i+1) of the one below, the later panel on the left, and carries
    an odd last panel, so the last of the ceil(log2 K) + 1 levels holds the
    one panel M(pi) = m[..., K-1] ... m[..., 0].  Rounding grows with
    log2 K rather than K; the bits differ from propagate's sequential
    product.  A caller that keeps only the last level holds at most two
    levels at once."""
    yield m
    while m.shape[-1] > 1:
        k = m.shape[-1]
        h = k // 2
        nxt = np.empty(m.shape[:-1] + (k - h,), dtype=complex)
        _plane_product(m[..., 1::2], m[..., 0:2 * h:2], nxt[..., :h])
        if k % 2:
            nxt[..., h] = m[..., -1]
        yield nxt
        m = nxt


def _pairwise_prefixes(levels):
    """Down-sweep of the pairwise prefix product: from the list of levels
    of _pairwise_levels, the products of all panels before each panel,
    M(x_k) = m[..., k-1] ... m[..., 0] with M(x_0) = I, as (2, 2, ..., K)
    planes.  Going down a level, panel 2i starts where its pair starts and
    panel 2i+1 one panel later, so each level costs one plane product over
    half its panels: about K products in all, at depth ceil(log2 K)."""
    start = np.zeros(levels[-1].shape, dtype=complex)
    start[0, 0] = start[1, 1] = 1.0
    for m in reversed(levels[:-1]):
        h = m.shape[-1] // 2
        nxt = np.empty(m.shape, dtype=complex)
        nxt[..., 0::2] = start
        _plane_product(m[..., 0:2 * h:2], start[..., :h], nxt[..., 1::2])
        start = nxt
    return start


def node_planes(P: PotentialMatrix, lams, mesh: Mesh):
    """M(pi, lambda) (2, 2, L) and the node matrices M(x_j, lambda)
    (2, 2, L, N) as contiguous entry planes, for a batch of lambdas (L,):
    the panel exponentials, their pairwise prefix products at the panel
    starts, the node sub-step exponentials and one plane product.  Values
    agree with propagate's to roundoff, not bit for bit, so only callers
    whose results carry no such bits use it: the resolvent's contour
    nodes."""
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    _check_cap(lams)
    panels, subs = propagation_terms(P, mesh)
    levels = list(_pairwise_levels(_magnus_propagators(panels, lams)))
    starts = _pairwise_prefixes(levels)
    # sub-steps are (order, K) planes; the nodes run panel by panel
    Mn = np.empty((2, 2, lams.size, mesh.n_panels, mesh.order),
                  dtype=complex)
    _plane_product(_magnus_propagators(subs, lams), starts[..., None, :],
                   Mn.swapaxes(-2, -1))
    return levels[-1][..., 0], Mn.reshape(2, 2, lams.size, mesh.size)


def char_det(P: PotentialMatrix, U: BoundaryMatrixPair, lam, mesh: Mesh, *,
             tree=False):
    """Characteristic determinant det(C + D M(pi, lambda)), propagated
    DET_CHUNK lambdas at a time; each value is independent of the batch.

    With tree, M(pi) is the reduction half of the pairwise prefix product
    (_pairwise_levels) instead of propagate's sequential product: faster,
    but not the same bits.  Contour rules use it: winding counts, whose
    integer does not carry those bits, and the moments of a recovered pair,
    which Newton then polishes; every Delta that Newton iterates on, an
    acceptance check reads or a report row holds keeps the sequential
    product."""
    scalar = np.ndim(lam) == 0
    lams = np.atleast_1d(np.asarray(lam, dtype=complex))
    det = np.empty(lams.shape, dtype=complex)
    panels, _ = propagation_terms(P, mesh, nodes=False)
    for i in range(0, lams.size, DET_CHUNK):
        chunk = lams[i:i + DET_CHUNK]
        if tree:
            _check_cap(chunk)
            for top in _pairwise_levels(_magnus_propagators(panels, chunk)):
                pass
            mono = np.moveaxis(top[..., 0], (0, 1), (-2, -1))
        else:
            Mb, _ = propagate(P, chunk, mesh, nodes=False)
            mono = Mb[:, -1]
        det[i:i + DET_CHUNK] = det2(U.C[None] + U.D[None] @ mono)
    return complex(det[0]) if scalar else det
