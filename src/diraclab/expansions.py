"""Root systems and spectral partial sums.

A root system holds, for every index n in [-2m, 2m+1], an eigenvalue
lambda_n, a root vector y_n and a dual vector z_n taken from the adjoint
problem at conj(lambda_n), normalized so that <y_j, z_k> = delta_jk within
each eigenvalue cluster.  The partial sum

    S_m f = sum_{n=-2m}^{2m+1} <f, z_n> y_n

then coincides with the sum of Riesz projectors over the first clusters,
which :func:`projector_contour` cross-checks by direct contour integration
of the resolvent.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import BoundaryMatrixPair, adjoint_pair
from .green import green_kernels
from .mesh import GridFunction2, Mesh, inner_product
from .ode import B_INV, delta_scale, eigenfunctions, inv2
# not called here; kept importable from this module, where bench/spans.py
# wraps them
from .green import green_kernel  # noqa: F401
from .ode import bvp_eigenfunction, fundamental_matrix  # noqa: F401
from .potentials import PotentialMatrix
from .spectrum import CLUSTER_TOL, Circle, ContourError, EigenvalueList, \
    localize, trapezoid_angles

GRAM_COND_MAX = 1e8


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

    def indices(self, m=None):
        m = self.m_max if m is None else m
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


def _associated_function(U, y, Mn, monodromy, mesh):
    """Minimal-norm solution of (B d/dx + P - lam) u = y with U(u) = 0,
    via variation of constants from the node values Mn = M(x_j, lam) and
    the monodromy; solvable because lam is an eigenvalue."""
    g = np.einsum("nab,bn->an", inv2(Mn) @ B_INV[None], y.values)
    gcum = mesh.cumulative(g)
    gtot = mesh.integrate(g)
    T = U.C + U.D @ monodromy
    rhs = -U.D @ (monodromy @ gtot)
    c, *_ = np.linalg.lstsq(T, rhs, rcond=None)
    return np.einsum("nab,bn->an", Mn, c[:, None] + gcum)


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


def _fill_root_vectors(P, U, lams, slots, mesh, out, accept_tol):
    """Write eigenfunctions, then associated functions where the algebraic
    multiplicity exceeds the geometric one, into the rows of out (n, 2, N);
    returns each row's role."""
    mults = [mult for mult, _, _ in slots]
    scale = delta_scale(P, U, np.repeat(lams, mults), mesh)
    roles = []
    for (mult, row, group), (r, Mn, mono) in zip(
            slots, eigenfunctions(P, U, lams, mesh, scale,
                                  accept_tol=accept_tol)):
        funcs = r.functions[:mult]
        for i, y in enumerate(funcs):
            out[row + i] = y.values
        roles.extend(["eigen"] * len(funcs))
        if mult > len(funcs) + 1:
            raise RootSystemError(
                f"cluster {group}: found {len(funcs) + 1} root vectors at "
                f"lambda = {r.lam} of multiplicity {mult}")
        if mult > len(funcs):
            out[row + len(funcs)] = _associated_function(U, funcs[0], Mn,
                                                         mono, mesh)
            roles.append("associated")
    return roles


def root_system(P: PotentialMatrix, U: BoundaryMatrixPair, m_max, mesh: Mesh,
                eigs: EigenvalueList = None, accept_tol=1e-6) -> RootSystem:
    """Biorthogonal root system of the operator and its adjoint for all
    indices in [-2 m_max, 2 m_max + 1].

    Each system is accepted against one scale, max(1, median |Delta(lambda_n
    + 0.49)|), and built from chunked propagate calls over its distinct
    eigenvalues; z_n are then corrected cluster by cluster to the dual basis
    <y_j, z_k> = delta_jk."""
    if eigs is None:
        eigs = localize(P, U, m_max, mesh)
    groups = _clusters(eigs)
    lams, slots = _distinct(eigs, groups)
    shape = (len(eigs.values), 2, mesh.size)
    # one block for both: fewer large blocks to place on the heap (a kept
    # system held Y and Z apart raised peak RSS by ~4 MB in the benchmark)
    Y, Z = np.empty((2,) + shape, dtype=complex)
    roles = _fill_root_vectors(P, U, lams, slots, mesh, Y, accept_tol)
    _fill_root_vectors(P.adjoint(), adjoint_pair(U), np.conj(lams), slots,
                       mesh, Z, accept_tol)
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
                      entries=entries, eigs=eigs, Y=Y, Z=Z)


def unperturbed_root_system(U: BoundaryMatrixPair, m_max,
                            mesh: Mesh) -> RootSystem:
    """Root system of the free operator B y' = lambda y."""
    return root_system(PotentialMatrix.zero(), U, m_max, mesh)


def expansion_coefficients(rs: RootSystem, f: GridFunction2, m=None):
    """c_n = <f, z_n> for n in [-2m, 2m+1]."""
    return {n: inner_product(f, rs.entries[n].z) for n in rs.indices(m)}


def partial_sum(rs: RootSystem, f: GridFunction2, m=None) -> GridFunction2:
    """S_m f = sum over the first 2m+1 clusters of <f, z_n> y_n."""
    acc = np.zeros((2, rs.mesh.size), dtype=complex)
    for n in rs.indices(m):
        e = rs.entries[n]
        acc += inner_product(f, e.z) * e.y.values
    return GridFunction2(rs.mesh, acc)


def projector_contour(P: PotentialMatrix, U: BoundaryMatrixPair,
                      contour: Circle, f: GridFunction2, mesh: Mesh,
                      n_start=32, tol=1e-8, max_doublings=6) -> GridFunction2:
    """Riesz projector -(1/2 pi i) contour-integral of (L - lambda)^{-1} f
    by the trapezoid rule with node doubling.

    The nodes at n are the even nodes at 2n, so each doubling adds only the
    new odd nodes to a running sum; the kernels of one level come from one
    batched green_kernels call.  Raises ContourError when two successive
    rules still differ by tol or more after max_doublings."""
    acc = np.zeros((2, mesh.size), dtype=complex)
    prev = None
    n = n_start
    for level in range(max_doublings + 1):
        theta = trapezoid_angles(n)
        if level:
            theta = theta[1::2]     # the even nodes are in acc already
        unit = np.exp(1j * theta)
        kernels = green_kernels(P, U, contour.center + contour.radius * unit,
                                mesh)
        for K, w in zip(kernels, 1j * contour.radius * unit):
            acc += w * K.apply(f).values
        cur = -acc / (1j * n)
        if prev is not None and np.max(np.abs(cur - prev)) < tol:
            return GridFunction2(mesh, cur)
        prev = cur
        n *= 2
    raise ContourError(
        f"projector on {contour} did not converge to {tol:.1e} after "
        f"{max_doublings} doublings")


def partial_sum_contour(rs: RootSystem, f: GridFunction2, m,
                        delta=0.25, **kw) -> GridFunction2:
    """Cross-check of partial_sum: sum of contour projectors over the
    circles gamma_k, k in [-m, m]."""
    from .spectrum import contour_family, localization_seeds
    spec0, _ = localization_seeds(rs.potential, rs.form, rs.mesh)
    fam = contour_family(spec0, rs.eigs, delta=delta, P=rs.potential,
                         U=rs.form, mesh=rs.mesh, validate=False)
    acc = np.zeros((2, rs.mesh.size), dtype=complex)
    for k in range(-m, m + 1):
        acc += projector_contour(rs.potential, rs.form, fam.gamma(k), f,
                                 rs.mesh, **kw).values
    return GridFunction2(rs.mesh, acc)
