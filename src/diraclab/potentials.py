"""Scalar functions and 2x2 potentials with L_kappa class metadata.

Also implements the gauge transformation that removes diagonal potential
entries (at the cost of a spectral shift gamma and a rescaled D block) and
the diagonal comparison operator used when the perturbed potential has
nonzero diagonal.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .boundary import BoundaryMatrixPair
from .mesh import Mesh, PI


@dataclass(frozen=True)
class ScalarFunction:
    """Complex-valued function on [0, pi] with declared singularities
    (point, power exponent) and an L_kappa class label."""
    fn: Callable
    singularities: tuple = ()
    kappa: float = np.inf
    is_zero: bool = False

    def __post_init__(self):
        for x0, alpha in self.singularities:
            if not (0.0 <= x0 <= PI):
                raise ValueError("singular point outside [0, pi]")
            if alpha * self.kappa >= 1.0:
                raise ValueError(
                    f"exponent {alpha} not in L_{self.kappa}: alpha*kappa >= 1")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.asarray(self.fn(x), dtype=complex) * np.ones_like(x, dtype=complex)

    @classmethod
    def zero(cls):
        return cls(fn=lambda x: np.zeros_like(x, dtype=complex), is_zero=True)

    @classmethod
    def constant(cls, c):
        c = complex(c)
        if c == 0:
            return cls.zero()
        return cls(fn=lambda x: np.full_like(x, c, dtype=complex))

    @classmethod
    def from_node_values(cls, mesh: Mesh, values):
        values = np.asarray(values, dtype=complex)
        return cls(fn=lambda x: mesh.interpolate(values, x))


ENTRIES = ("p1", "p2", "p3", "p4")


@dataclass(frozen=True)
class PotentialMatrix:
    p1: ScalarFunction
    p2: ScalarFunction
    p3: ScalarFunction
    p4: ScalarFunction

    @property
    def entries(self):
        return (self.p1, self.p2, self.p3, self.p4)

    @property
    def kappa(self):
        return min(p.kappa for p in self.entries)

    @property
    def is_zero(self):
        return all(p.is_zero for p in self.entries)

    @property
    def singular_points(self):
        pts = []
        for p in self.entries:
            pts.extend(x0 for x0, _ in p.singularities)
        return tuple(sorted(set(pts)))

    def adjoint(self):
        """Entrywise conjugate transpose P* (adjoint differential
        expression B z' + P* z), one object per P, as a mesh holds terms per
        potential object; kept in __dict__, so no field sees it."""
        adj = self.__dict__.get("_adjoint")
        if adj is None:
            def conj_of(p):
                if p.is_zero:
                    return ScalarFunction.zero()
                return ScalarFunction(fn=lambda x, _p=p: np.conj(_p(x)),
                                      singularities=p.singularities,
                                      kappa=p.kappa)
            # setdefault is atomic: threads that race here keep one object
            adj = self.__dict__.setdefault("_adjoint", PotentialMatrix(
                p1=conj_of(self.p1), p2=conj_of(self.p3),
                p3=conj_of(self.p2), p4=conj_of(self.p4)))
        return adj

    @classmethod
    def zero(cls):
        z = ScalarFunction.zero()
        return cls(z, z, z, z)


@dataclass(frozen=True)
class GaugeReduction:
    gamma: complex
    phi: ScalarFunction
    psi: ScalarFunction
    potential: PotentialMatrix       # off-diagonal reduced potential
    form: BoundaryMatrixPair         # (C, exp((i/2) int (p4-p1)) D)


def _as_complex(v):
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(v[0], v[1])
    return complex(v)


TERM_KINDS = {
    "sin": lambda k, x: np.sin(k * x),
    "cos": lambda k, x: np.cos(k * x),
    "pow": lambda k, x: x ** k,
}


def term_sum(terms, kinds):
    """x -> sum of amp * kind(k, x) over a list of [kind, k, amp] terms.
    Every kind must be one of `kinds` (names in TERM_KINDS); k may be
    fractional."""
    parsed = []
    for term in terms:
        if not (isinstance(term, (list, tuple)) and len(term) == 3):
            raise ValueError(f"term {term!r} is not [kind, k, amp]")
        kind, k, amp = term
        if kind not in kinds:
            raise ValueError(f"unknown term kind {kind!r}, expected one of "
                             f"{', '.join(kinds)}")
        parsed.append((TERM_KINDS[kind], float(k), _as_complex(amp)))

    def fn(x):
        out = np.zeros_like(x, dtype=complex)
        for term, k, amp in parsed:
            out += amp * term(k, x)
        return out
    return fn


def check_spec(spec, what, families, default):
    """The family of a spec dict (default when it names none).  families
    maps each family name to the keys it takes besides "family"; a spec
    that is no dict, of another family or with another key is refused by
    a ValueError naming it.  what names the kind of spec."""
    if not isinstance(spec, dict):
        raise ValueError(f"{what} spec {spec!r} is not an object")
    family = spec.get("family", default)
    if not (isinstance(family, str) and family in families):
        raise ValueError(f"unknown {what} family {family!r}")
    keys = ["family", *families[family]]
    unknown = sorted(set(spec) - set(keys))
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in a {family} {what} "
                         f"spec; its keys are {', '.join(keys)}")
    return family


def _single_entry(spec, f):
    """The potential with f at spec["entry"] (default p2), zero elsewhere."""
    entry = spec.get("entry", "p2")
    if entry not in ENTRIES:
        raise ValueError(f"entry must be one of {', '.join(ENTRIES)}, "
                         f"got {entry!r}")
    parts = dict.fromkeys(ENTRIES, ScalarFunction.zero())
    parts[entry] = f
    return PotentialMatrix(**parts)


def make_potential(spec) -> PotentialMatrix:
    """Build a potential from a config dict.

    Families: zero | constant_offdiag | trig | power | step.  Complex
    scalars may be given as [re, im].
    """
    if isinstance(spec, PotentialMatrix):
        return spec
    family = check_spec(spec, "potential", {
        "zero": (), "constant_offdiag": ("c",), "trig": ENTRIES,
        "power": ("alpha", "x0", "amplitude", "kappa", "entry"),
        "step": ("breaks", "values", "entry")}, "zero")
    if family == "zero":
        return PotentialMatrix.zero()
    if family == "constant_offdiag":
        c = _as_complex(spec.get("c", 1.0))
        z = ScalarFunction.zero()
        return PotentialMatrix(z, ScalarFunction.constant(c),
                               ScalarFunction.constant(c), z)
    if family == "trig":
        entries = {}
        for name in ENTRIES:
            terms = spec.get(name)
            entries[name] = (ScalarFunction(fn=term_sum(terms, ("sin", "cos")))
                             if terms else ScalarFunction.zero())
        return PotentialMatrix(**entries)
    if family == "power":
        alpha = float(spec["alpha"])
        if alpha >= 1.0:
            raise ValueError(f"power exponent {alpha} is not integrable on [0, pi]")
        x0 = float(spec.get("x0", PI / 2))
        amp = _as_complex(spec.get("amplitude", 1.0))
        kappa = spec.get("kappa")
        if kappa is None:
            kappa = max(1.0, float(np.floor((1.0 - 1e-12) / alpha))) if alpha > 0 else np.inf
        # ScalarFunction refuses a kappa with alpha * kappa >= 1
        return _single_entry(spec, ScalarFunction(
            fn=lambda x: amp * np.abs(x - x0) ** (-alpha),
            singularities=((x0, alpha),), kappa=kappa))
    if family == "step":
        edges = np.asarray(spec["breaks"], dtype=float)
        if np.any(np.diff(edges) <= 0) or np.any((edges <= 0) | (edges >= PI)):
            raise ValueError(
                "step breaks must be strictly increasing inside (0, pi)")
        vals = np.array([_as_complex(v) for v in spec["values"]])
        if len(vals) != len(edges) + 1:
            raise ValueError("need one value per interval")

        def fn(x, _e=edges, _v=vals):
            idx = np.searchsorted(_e, x, side="right")
            return _v[idx]
        return _single_entry(spec, ScalarFunction(fn=fn))


def gauge_reduce(P: PotentialMatrix, U: BoundaryMatrixPair,
                 mesh: Mesh) -> GaugeReduction:
    """Similarity reduction removing the diagonal entries:

    gamma = (1/2pi) int (p1 + p4),  phi = gamma x - int_0^x p1,
    psi = int_0^x p4 - gamma x,  p2~ = p2 e^{i(psi - phi)},
    p3~ = p3 e^{i(phi - psi)},  D~ = exp((i/2) int (p4 - p1)) D.
    """
    x = mesh.nodes
    v1 = P.p1(x)
    v4 = P.p4(x)
    int_p1 = complex(mesh.integrate(v1))
    int_p4 = complex(mesh.integrate(v4))
    gamma = (int_p1 + int_p4) / (2.0 * PI)
    phi_vals = gamma * x - mesh.cumulative(v1)
    psi_vals = mesh.cumulative(v4) - gamma * x
    phi = ScalarFunction.from_node_values(mesh, phi_vals)
    psi = ScalarFunction.from_node_values(mesh, psi_vals)

    def twisted(p, sign):
        if p.is_zero:
            return ScalarFunction.zero()
        return ScalarFunction(
            fn=lambda xx, _p=p, _s=sign: _p(xx) * np.exp(1j * _s * (phi(xx) - psi(xx))),
            singularities=p.singularities, kappa=p.kappa)

    z = ScalarFunction.zero()
    reduced = PotentialMatrix(z, twisted(P.p2, -1), twisted(P.p3, +1), z)
    D_new = np.exp(0.5j * (int_p4 - int_p1)) * U.D
    form = BoundaryMatrixPair(U.C, D_new)
    return GaugeReduction(gamma=gamma, phi=phi, psi=psi,
                          potential=reduced, form=form)


def comparison_operator(P: PotentialMatrix, U: BoundaryMatrixPair, mesh: Mesh):
    """Diagonal comparison potential P0 = diag(p1, p4) with the rescaled
    form (C, exp((i/2) int (p4 - p1)) D) of gauge_reduce."""
    z = ScalarFunction.zero()
    return PotentialMatrix(P.p1, z, z, P.p4), gauge_reduce(P, U, mesh).form
