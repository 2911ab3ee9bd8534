"""Two-point boundary forms U(y) = C y(0) + D y(pi) and their spectra.

A form is regular (Birkhoff) when the column-minor product J_14 * J_23 of
the 2x4 matrix (C, D) is nonzero.  For regular forms the free operator
B y' = lambda y has the closed-form spectrum produced by
:func:`unperturbed_spectrum`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

B_MATRIX = np.diag([-1j, 1j])
REGULARITY_TOL = 1e-10


class InvalidBoundaryFormError(ValueError):
    """The 2x4 matrix (C, D) is rank-deficient."""


class NotRegularError(ValueError):
    """Operation requires a Birkhoff-regular form."""


@dataclass(frozen=True)
class BoundaryMatrixPair:
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        C = np.asarray(self.C, dtype=complex).reshape(2, 2)
        D = np.asarray(self.D, dtype=complex).reshape(2, 2)
        C.setflags(write=False)
        D.setflags(write=False)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D", D)
        full = self.stacked
        scale = np.max(np.abs(full))
        if scale == 0.0:
            raise InvalidBoundaryFormError("zero boundary form")
        ms = _all_minors(full)
        if max(abs(m) for m in ms.values()) <= 1e-12 * scale ** 2:
            raise InvalidBoundaryFormError("rows of (C, D) are linearly dependent")

    @property
    def stacked(self):
        return np.hstack([self.C, self.D])


@dataclass(frozen=True)
class MinorSet:
    J12: complex
    J13: complex
    J14: complex
    J23: complex
    J24: complex
    J34: complex


@dataclass(frozen=True)
class UnperturbedSpectrum:
    z0: complex
    z1: complex
    zeta0: complex
    zeta1: complex
    double: bool

    def lambda0(self, n):
        """Eigenvalue enumeration: zeta0 + n for even n, zeta1 + n for odd."""
        n = np.asarray(n)
        return np.where(n % 2 == 0, self.zeta0 + n, self.zeta1 + n)


def _all_minors(full):
    out = {}
    for i in range(4):
        for j in range(i + 1, 4):
            out[(i + 1, j + 1)] = (full[0, i] * full[1, j]
                                   - full[0, j] * full[1, i])
    return out


def minors(bf: BoundaryMatrixPair) -> MinorSet:
    m = _all_minors(bf.stacked)
    return MinorSet(J12=m[(1, 2)], J13=m[(1, 3)], J14=m[(1, 4)],
                    J23=m[(2, 3)], J24=m[(2, 4)], J34=m[(3, 4)])


def is_regular(bf: BoundaryMatrixPair):
    """Regularity verdict and margin |J_14 * J_23|."""
    m = minors(bf)
    margin = abs(m.J14 * m.J23)
    scale = np.max(np.abs(bf.stacked)) ** 2
    return margin > REGULARITY_TOL * scale, margin


def unperturbed_spectrum(bf: BoundaryMatrixPair) -> UnperturbedSpectrum:
    """Roots of J23 z^2 - (J12 + J34) z - J14 = 0 and the eigenvalue
    enumerator of the free operator.  Log branch has Im in (-pi, pi]."""
    ok, _ = is_regular(bf)
    if not ok:
        raise NotRegularError("boundary form is not Birkhoff-regular")
    m = minors(bf)
    b = m.J12 + m.J34
    disc = np.sqrt(b * b + 4.0 * m.J23 * m.J14 + 0j)
    roots = [(b + disc) / (2.0 * m.J23), (b - disc) / (2.0 * m.J23)]
    # values on the cut (negative reals) must take Im log = +pi, so snap
    # imaginary parts that are pure roundoff (including -0.0) to +0.0
    roots = [complex(z.real, 0.0) if abs(z.imag) <= 1e-13 * abs(z)
             else z for z in roots]
    logs = [np.log(z) for z in roots]
    order = sorted(range(2), key=lambda i: (logs[i].imag, logs[i].real))
    z0, z1 = roots[order[0]], roots[order[1]]
    double = abs(z0 - z1) <= 1e-12 * max(abs(z0), abs(z1))
    if double:
        z1 = z0
    zeta0 = -1j / np.pi * np.log(z0)
    zeta1 = -1j / np.pi * np.log(z1) - 1.0
    return UnperturbedSpectrum(z0=complex(z0), z1=complex(z1),
                               zeta0=complex(zeta0), zeta1=complex(zeta1),
                               double=double)


def delta0(bf: BoundaryMatrixPair, lam):
    """Characteristic determinant of the free operator,
    J12 + J34 + e^{-i lam pi} J14 - e^{i lam pi} J23."""
    m = minors(bf)
    lam = np.asarray(lam, dtype=complex)
    out = (m.J12 + m.J34
           + np.exp(-1j * lam * np.pi) * m.J14
           - np.exp(1j * lam * np.pi) * m.J23)
    return out if out.shape else complex(out)


def adjoint_pair(bf: BoundaryMatrixPair) -> BoundaryMatrixPair:
    """Boundary form of the adjoint problem: the bilinear boundary term
    <B y(pi), z(pi)> - <B y(0), z(0)> vanishes whenever U(y) = 0 and
    U*(z) = 0."""
    Binv = np.linalg.inv(B_MATRIX)
    q_top = Binv @ bf.C.conj().T
    q_bot = -Binv @ bf.D.conj().T
    Q = np.vstack([q_top, q_bot])            # admissible z-boundary values
    _, s, vh = np.linalg.svd(Q.T)
    if s[-1] <= 1e-10 * s[0]:
        raise InvalidBoundaryFormError("adjoint construction: rank failure")
    W = vh[2:].conj()
    return BoundaryMatrixPair(W[:, :2], W[:, 2:])


def _preset(name):
    I = np.eye(2)
    if name == "dirichlet_analog":
        return BoundaryMatrixPair(np.array([[1.0, -1.0], [0.0, 0.0]]),
                                  np.array([[0.0, 0.0], [1.0, -1.0]]))
    if name == "periodic":
        return BoundaryMatrixPair(I, -I)
    if name == "antiperiodic":
        return BoundaryMatrixPair(I, I)
    raise KeyError(f"unknown boundary preset {name!r}")


def boundary_from_config(obj) -> BoundaryMatrixPair:
    """Parse a named preset or a nested 2x4 array of [re, im] pairs."""
    if isinstance(obj, BoundaryMatrixPair):
        return obj
    if isinstance(obj, str):
        return _preset(obj)
    arr = np.asarray(obj, dtype=float)
    if arr.shape != (2, 4, 2):
        raise ValueError("boundary config must be 2x4 of [re, im] pairs")
    full = arr[..., 0] + 1j * arr[..., 1]
    return BoundaryMatrixPair(full[:, :2], full[:, 2:])
