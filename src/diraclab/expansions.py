"""Root systems and spectral partial sums.

A root system holds, for every index n in [-2m, 2m+1], an eigenvalue
lambda_n, a root vector y_n and a dual vector z_n taken from the adjoint
problem at conj(lambda_n), normalized so that <y_j, z_k> = delta_jk within
each eigenvalue cluster.  The partial sum

    S_m f = sum_{n=-2m}^{2m+1} <f, z_n> y_n

then coincides with the Riesz projector over the rectangle Gamma_m around
the first 2m+1 clusters, which :func:`partial_sum_contour` cross-checks by
integrating the resolvent with :func:`projector_contour` on the ellipse
inscribed in Gamma_m.
"""
from __future__ import annotations

import mmap
from dataclasses import dataclass

import numpy as np

from .boundary import BoundaryMatrixPair, adjoint_pair
from .green import _voc_apply, resolvent_sum
from .mesh import GridFunction2, Mesh, as_count, inner_product, lp_norm
from .ode import EIG_CHUNK, det2
# not called here; kept importable from this module, where bench/spans.py
# wraps them
from .green import green_kernel  # noqa: F401
from .ode import fundamental_matrix  # noqa: F401
from .potentials import PotentialMatrix
from .spectrum import ACCEPT_TOL, CLUSTER_TOL, AcceptanceScale, ContourError, \
    Ellipse, EigenvalueList, NotAnEigenvalueError, localization_seeds, \
    localize, trapezoid_angles
# propagate and contour_family are looked up on their modules at each
# call, where bench/spans.py wraps them
from . import ode, spectrum

GRAM_COND_MAX = 1e8
# projector_contour stops when two successive trapezoid rules agree to
# PROJECTOR_TOL (sup norm), and gives up after PROJECTOR_DOUBLINGS doublings
PROJECTOR_TOL = 1e-8
PROJECTOR_DOUBLINGS = 6


class RootSystemError(RuntimeError):
    """Root system construction failed (defective Gram matrix etc.)."""


@dataclass
class RootSystemEntry:
    index: int
    lam: complex
    y: GridFunction2
    z: GridFunction2
    role: str                    # "eigen" | "associated"
    cluster: tuple               # indices in the same cluster


@dataclass
class RootSystem:
    """Entries hold views into Y and Z: row r of both is index r - 2 m_max."""
    potential: PotentialMatrix
    form: BoundaryMatrixPair
    mesh: Mesh
    m_max: int
    entries: dict
    eigs: EigenvalueList
    Y: np.ndarray                # (4 m_max + 2, 2, N) root vectors
    Z: np.ndarray                # (4 m_max + 2, 2, N) dual vectors
    # max |Delta(lambda_n)| over the distinct eigenvalues of the operator
    # and of the adjoint at conj(lambda_n); the scale is at least 1, so it
    # bounds the scaled residual the root vectors were accepted against
    delta_residual: float

    def indices(self, m=None):
        m = self.m_max if m is None else as_count(m, "m")
        if m > self.m_max:
            raise ValueError(f"m={m} exceeds stored range m_max={self.m_max}")
        return range(-2 * m, 2 * m + 2)

    def biorthogonality_residual(self, sample=None):
        """Max |<y_j, z_k> - delta_jk| over index pairs (all by default)."""
        idx = list(self.indices()) if sample is None else list(sample)
        if not idx:
            return 0.0
        for j in idx:
            if j not in self.entries:
                raise KeyError(j)
        rows = np.asarray(idx) + 2 * self.m_max
        # G[j, k] = <y_j, z_k> as one contraction over components and nodes
        wy = (self.Y[rows] * self.mesh.weights).reshape(rows.size, -1)
        G = wy @ np.conj(self.Z[rows]).reshape(rows.size, -1).T
        return float(np.max(np.abs(G - (rows[:, None] == rows[None, :]))))


@dataclass
class EigenfunctionResult:
    lam: complex
    functions: list            # one GridFunction2, or two when degenerate
    degenerate: bool
    residual: float            # |Delta(lam)|


def _normalize_eigenfunction(y: GridFunction2, value_at_zero):
    """L2 norm 1 with the first sizable component of value_at_zero, the
    value y(0), rotated to the positive real axis."""
    nrm = lp_norm(y, 2)
    if nrm == 0.0:
        raise ValueError("cannot normalize the zero function")
    vals = y.values / nrm
    ref = np.asarray(value_at_zero, dtype=complex)
    mags = np.abs(ref)
    idx = 0 if mags[0] > 1e-8 * max(mags.max(), 1e-300) else 1
    phase = ref[idx] / abs(ref[idx]) if mags[idx] > 0 else 1.0
    return GridFunction2(y.mesh, vals * np.conj(phase))


def eigenfunctions(P: PotentialMatrix, U: BoundaryMatrixPair, lams,
                   mesh: Mesh, scale_lams):
    """Eigenfunction(s) at accepted eigenvalues, EIG_CHUNK per propagate
    call: y = M(., lambda) v with v spanning the numerical null space of
    C + D M(pi, lambda).

    Yields (EigenfunctionResult, node values M(x_j, lambda), monodromy) for
    each lambda in order.  The matrices are views into the current chunk;
    a caller that keeps them past the next step keeps the chunk alive.
    Raises NotAnEigenvalueError when |Delta(lambda)| > ACCEPT_TOL * scale,
    the scale being delta_scale over scale_lams, probed only when some
    |Delta(lambda)| exceeds ACCEPT_TOL (AcceptanceScale).
    """
    scale = AcceptanceScale(P, U, scale_lams, mesh)
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    for i in range(0, lams.size, EIG_CHUNK):
        chunk = lams[i:i + EIG_CHUNK]
        Mb, Mn = ode.propagate(P, chunk, mesh, nodes=True)
        mono = Mb[:, -1]
        T = U.C[None] + U.D[None] @ mono
        dets = det2(T)
        bad = np.flatnonzero(scale.exceeds(dets))
        if bad.size:
            b = bad[0]
            raise NotAnEigenvalueError(
                f"|Delta({complex(chunk[b])})| = {abs(dets[b]):.3e} exceeds "
                f"{ACCEPT_TOL:.1e} * {scale.value:.3e}")
        _, s, vh = np.linalg.svd(T)
        tscale = np.maximum(1.0, np.max(np.abs(mono), axis=(1, 2)))
        for l, lam in enumerate(chunk):
            degenerate = bool(s[l, 0] <= 1e-6 * tscale[l])
            # null space: the last right singular vector, or both
            vecs = vh[l, (0 if degenerate else 1):].conj()
            # M(x_j) v at every node as one (2N, 2) matrix-vector product:
            # one gemv rounds each row as the N per-node 2x2 products do
            rows = Mn[l].reshape(-1, 2)
            funcs = [_normalize_eigenfunction(GridFunction2(
                mesh, (rows @ v).reshape(-1, 2).T), value_at_zero=v)
                for v in vecs]
            yield (EigenfunctionResult(lam=complex(lam), functions=funcs,
                                       degenerate=degenerate,
                                       residual=float(abs(dets[l]))),
                   Mn[l], mono[l])


def bvp_eigenfunction(P: PotentialMatrix, U: BoundaryMatrixPair, lam,
                      mesh: Mesh) -> EigenfunctionResult:
    """Eigenfunction(s) at one eigenvalue, the one-eigenvalue case of
    eigenfunctions, accepted against delta_scale at that eigenvalue."""
    (result, _, _), = eigenfunctions(P, U, [lam], mesh, [lam])
    return result


def _clusters(eigs: EigenvalueList):
    """Group consecutive indices whose eigenvalues agree to CLUSTER_TOL.
    Pairs (2k, 2k+1) always land in one group when they coincide."""
    idx = sorted(eigs.values)
    groups = []
    cur = [idx[0]]
    for n in idx[1:]:
        if abs(eigs.values[n] - eigs.values[cur[-1]]) < CLUSTER_TOL:
            cur.append(n)
        else:
            groups.append(cur)
            cur = [n]
    groups.append(cur)
    return groups


def _distinct(eigs: EigenvalueList, groups):
    """Distinct eigenvalues in index order, and for each its [multiplicity,
    first row, cluster], where row n + 2 m_max holds index n; values within
    1e-10 in one cluster count as one."""
    lams, slots = [], []
    for group in groups:
        for n in group:
            lam = eigs.values[n]
            if slots and slots[-1][2] is group and abs(lam - lams[-1]) < 1e-10:
                slots[-1][0] += 1
            else:
                lams.append(lam)
                slots.append([1, n + 2 * eigs.m_max, group])
    return np.array(lams), slots


def _fill_root_vectors(P, U, lams, slots, mesh, out):
    """Write eigenfunctions, then associated functions where the algebraic
    multiplicity exceeds the geometric one, into the rows of out (n, 2, N);
    returns each row's role and the largest |Delta(lambda)|."""
    mults = [mult for mult, _, _ in slots]
    roles = []
    residual = 0.0
    for (mult, row, group), (r, Mn, mono) in zip(
            slots, eigenfunctions(P, U, lams, mesh, np.repeat(lams, mults))):
        residual = max(residual, r.residual)
        funcs = r.functions[:mult]
        for i, y in enumerate(funcs):
            out[row + i] = y.values
        roles.extend(["eigen"] * len(funcs))
        if mult > len(funcs) + 1:
            raise RootSystemError(
                f"cluster {group}: found {len(funcs) + 1} root vectors at "
                f"lambda = {r.lam} of multiplicity {mult}")
        if mult > len(funcs):
            # the minimal-norm solution of (L - lam) u = y_n with U(u) = 0
            # by the resolvent's apply; lam is an eigenvalue, so C + D M(pi)
            # is singular and lstsq's cutoff drops its null direction
            DM = U.D @ mono
            Pmat, *_ = np.linalg.lstsq(U.C + DM, -DM, rcond=None)
            out[row + len(funcs)] = _voc_apply(
                Pmat, np.moveaxis(Mn, (-2, -1), (0, 1)), mesh,
                funcs[0].values)
            roles.append("associated")
    return roles, residual


def root_system(P: PotentialMatrix, U: BoundaryMatrixPair, m_max,
                mesh: Mesh) -> RootSystem:
    """Biorthogonal root system of the operator and its adjoint for all
    indices in [-2 m_max, 2 m_max + 1].

    Each system is accepted against one AcceptanceScale and built by
    eigenfunctions over its distinct eigenvalues; z_n are then corrected
    cluster by cluster to the dual basis <y_j, z_k> = delta_jk."""
    eigs = localize(P, U, m_max, mesh)
    groups = _clusters(eigs)
    lams, slots = _distinct(eigs, groups)
    shape = (len(eigs.values), 2, mesh.size)
    # one block for both, in its own anonymous mapping rather than on the
    # malloc heap: there, a block this size (7 MB on the graded power mesh)
    # left holes that the next system could not reuse, so peak RSS followed
    # the heap's layout (a few MB either way for unrelated code changes);
    # mapped apart, it goes back to the system when the root system dies
    buf = mmap.mmap(-1, 2 * int(np.prod(shape)) * np.dtype(complex).itemsize)
    Y, Z = np.frombuffer(buf, dtype=complex).reshape((2,) + shape)
    roles, residual = _fill_root_vectors(P, U, lams, slots, mesh, Y)
    _, adjoint_residual = _fill_root_vectors(
        P.adjoint(), adjoint_pair(U), np.conj(lams), slots, mesh, Z)
    lo = -2 * eigs.m_max            # index of row 0
    entries = {}
    for group in groups:
        members = [RootSystemEntry(index=n, lam=eigs.values[n],
                                   y=GridFunction2(mesh, Y[n - lo]),
                                   z=GridFunction2(mesh, Z[n - lo]),
                                   role=roles[n - lo], cluster=tuple(group))
                   for n in group]
        G = np.array([[inner_product(a.y, b.z) for b in members]
                      for a in members])
        cond = np.linalg.cond(G)
        if cond > GRAM_COND_MAX:
            raise RootSystemError(
                f"cluster {group}: Gram matrix ill-conditioned "
                f"(cond {cond:.2e})")
        # dual basis in place: z~_k = sum_j coeff[j, k] z_j, so that
        # <y_j, z~_k> = delta_jk; the entries' z are views of these rows
        coeff = np.conj(np.linalg.inv(G))
        rows = slice(group[0] - lo, group[-1] - lo + 1)
        Z[rows] = [sum(coeff[j, k] * z for j, z in enumerate(Z[rows]))
                   for k in range(len(group))]
        entries.update((e.index, e) for e in members)
    return RootSystem(potential=P, form=U, mesh=mesh, m_max=eigs.m_max,
                      entries=entries, eigs=eigs, Y=Y, Z=Z,
                      delta_residual=max(residual, adjoint_residual))


def expansion_coefficients(rs: RootSystem, f: GridFunction2, m=None):
    """c_n = <f, z_n> for n in [-2m, 2m+1]."""
    return {n: inner_product(f, rs.entries[n].z) for n in rs.indices(m)}


def partial_sum(rs: RootSystem, f: GridFunction2, m=None) -> GridFunction2:
    """S_m f = sum over the first 2m+1 clusters of <f, z_n> y_n."""
    acc = np.zeros((2, rs.mesh.size), dtype=complex)
    for n, c in expansion_coefficients(rs, f, m).items():
        acc += c * rs.entries[n].y.values
    return GridFunction2(rs.mesh, acc)


def projector_contour(P: PotentialMatrix, U: BoundaryMatrixPair, contour,
                      f: GridFunction2, mesh: Mesh) -> GridFunction2:
    """Riesz projector -(1/2 pi i) contour-integral of (L - lambda)^{-1} f
    by the trapezoid rule in theta with node doubling from 32 nodes, on a
    contour whose at(theta) gives its nodes z(theta) and z'(theta)
    (Circle, Ellipse).

    The nodes at n are the even nodes at 2n, so each doubling adds only the
    new odd nodes to a running sum, through one resolvent_sum call per
    level.  Raises ContourError when two successive rules still differ by
    PROJECTOR_TOL or more after PROJECTOR_DOUBLINGS doublings."""
    acc = np.zeros((2, mesh.size), dtype=complex)
    prev = None
    n = 32
    for level in range(PROJECTOR_DOUBLINGS + 1):
        theta = trapezoid_angles(n)
        if level:
            theta = theta[1::2]     # the even nodes are in acc already
        acc += resolvent_sum(P, U, *contour.at(theta), f.values, mesh)
        cur = -acc / (1j * n)
        if prev is not None and np.max(np.abs(cur - prev)) < PROJECTOR_TOL:
            return GridFunction2(mesh, cur)
        prev = cur
        n *= 2
    raise ContourError(
        f"projector on {contour} did not converge to {PROJECTOR_TOL:.1e} "
        f"after {PROJECTOR_DOUBLINGS} doublings")


def partial_sum_contour(rs: RootSystem, f: GridFunction2,
                        m) -> GridFunction2:
    """Cross-check of partial_sum: the Riesz projector over Gamma_m, one
    projector_contour call on the ellipse inscribed in Gamma_m's rectangle
    (Ellipse.inscribed), where the trapezoid rule converges geometrically
    in the distance to the nearest eigenvalue.  Raises ValueError for an m
    that partial_sum refuses, and ContourError, before any resolvent is
    evaluated, when the ellipse leaves out an eigenvalue of an index in
    [-2m, 2m+1] or encloses any other stored one."""
    idx = rs.indices(m)
    spec0, _ = localization_seeds(rs.potential, rs.form, rs.mesh)
    fam = spectrum.contour_family(spec0, rs.eigs, validate=False)
    m = idx[-1] // 2                # an integral float m as its int
    ellipse = Ellipse.inscribed(fam.big_contour(m))
    ns = np.array(sorted(rs.eigs.values))
    inside = ellipse.contains([rs.eigs.values[n] for n in ns])
    wanted = (ns >= idx[0]) & (ns <= idx[-1])
    if np.any(inside != wanted):
        raise ContourError(
            f"{ellipse} around Gamma_{m} leaves out lambda_n for n in "
            f"{ns[wanted & ~inside].tolist()} and encloses lambda_n for n "
            f"in {ns[inside & ~wanted].tolist()}")
    return projector_contour(rs.potential, rs.form, ellipse, f, rs.mesh)
