"""Eigenvalue localization and contour machinery.

Perturbed eigenvalues are found by Newton iteration on the characteristic
determinant, seeded by the closed-form unperturbed spectrum (shifted by the
gauge constant gamma when the potential has diagonal entries).  Winding
numbers of Delta along circles gamma_n and rectangles Gamma_m validate the
counts; a pair whose Newton iterations fail is recovered from
argument-principle moments on a circle around its seeds.

Winding counts and recovery moments read one pass of Delta values
(:func:`_winding_pass`), refined by node doubling: the nodes at n are exactly
the even nodes at 2n, bit for bit, so each level evaluates Delta only at its
new odd nodes (:func:`_nested_nodes`).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .boundary import BoundaryMatrixPair, NotRegularError, is_regular, \
    unperturbed_spectrum
from . import ode
from .mesh import Mesh, as_count
from .ode import char_det
from .potentials import PotentialMatrix, gauge_reduce

DOUBLE_TOL = 1e-8
CLUSTER_TOL = 1e-4
# radius margin of the circles gamma_k around the eigenvalue pairs
DELTA = 0.25
# Newton on Delta: relative step tolerance, iteration cap and step cap
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 30
NEWTON_MAX_STEP = 0.45
# the doubled Newton step at a double zero: steps halve when each ratio is
# within HALVING_TOL of 1/2; a doubled iterate is kept when its own step is
# below DOUBLED_STEP_GAIN times the doubled step
HALVING_TOL = 0.02
DOUBLED_STEP_GAIN = 0.1
# central-difference step of the Delta' estimate
SLOPE_H = 1e-6
# how often winding_count may double its rule
WINDING_DOUBLINGS = 8
# |Delta(lambda)| / scale below which lambda is accepted as an eigenvalue
ACCEPT_TOL = 1e-6


class ContourError(RuntimeError):
    """Winding-number computation failed to stabilize."""


class NotAnEigenvalueError(ValueError):
    """Characteristic determinant not small enough at the requested lambda."""


@dataclass(frozen=True)
class Circle:
    center: complex
    radius: float

    def at(self, theta):
        """z(theta) = center + radius e^(i theta) and z'(theta)."""
        unit = np.exp(1j * theta)
        return self.center + self.radius * unit, 1j * self.radius * unit

    def points(self, n):
        return self.center + self.radius * np.exp(1j * trapezoid_angles(n))

    @property
    def arc_length(self):
        return 2.0 * np.pi * self.radius

    def contains(self, z):
        return np.abs(np.asarray(z) - self.center) < self.radius


@dataclass(frozen=True)
class RectContour:
    re_min: float
    re_max: float
    im_half: float

    def points(self, n):
        """n equispaced nodes by arc length, counterclockwise from the
        lower left corner, each computed from the side it falls on."""
        w = self.re_max - self.re_min
        h = 2.0 * self.im_half
        per = 2.0 * (w + h)
        t = np.linspace(0.0, per, n, endpoint=False)
        side = np.searchsorted([w, w + h, 2 * w + h], t, side="right")
        return np.choose(side, [
            self.re_min + t - 1j * self.im_half,
            self.re_max + 1j * (t - w - self.im_half),
            self.re_max - (t - w - h) + 1j * self.im_half,
            self.re_min - 1j * (t - 2 * w - h - self.im_half)])

    @property
    def arc_length(self):
        return 2.0 * (self.re_max - self.re_min + 2.0 * self.im_half)

    def contains(self, z):
        z = np.asarray(z)
        return ((z.real > self.re_min) & (z.real < self.re_max)
                & (np.abs(z.imag) < self.im_half))


@dataclass(frozen=True)
class Ellipse:
    """center + a cos(theta) + i b sin(theta), axes along the real and
    imaginary directions."""
    center: float
    a: float
    b: float

    @classmethod
    def inscribed(cls, rect: RectContour):
        """The ellipse inscribed in rect: its ends touch the vertical sides
        on the real axis, its top and bottom the horizontal sides."""
        return cls(0.5 * (rect.re_min + rect.re_max),
                   0.5 * (rect.re_max - rect.re_min), rect.im_half)

    def at(self, theta):
        """z(theta) and z'(theta)."""
        c, s = np.cos(theta), np.sin(theta)
        return (self.center + self.a * c + 1j * self.b * s,
                -self.a * s + 1j * self.b * c)

    def contains(self, z):
        z = np.asarray(z)
        u, v = (z.real - self.center) / self.a, z.imag / self.b
        return u * u + v * v < 1.0


def trapezoid_angles(n):
    """Angles 2 pi j / n, j < n, of the trapezoid rule on a circle."""
    return 2.0 * np.pi * np.arange(n) / n


def _nested_nodes(points, evaluate, n, levels):
    """(n, points(n), values) for n, 2n, ..., 2^(levels-1) n nodes.

    values = evaluate(points(n)) with the node axis last, but each level
    after the first evaluates only its new odd nodes and interleaves them
    with the previous level's values, which serve as its even nodes."""
    pts = points(n)
    vals = evaluate(pts)
    yield n, pts, vals
    for _ in range(levels - 1):
        n *= 2
        pts = points(n)
        vals = np.stack([vals, evaluate(pts[1::2])], axis=-1).reshape(
            vals.shape[:-1] + (n,))
        yield n, pts, vals


def _winding_pass(P, U, contour, mesh):
    """(winding number, nodes, Delta values) at the level winding_count
    accepts.  Recovery moments read these values, so the pairwise product's
    bits reach an eigenvalue only as an estimate a failed polish keeps."""
    n = max(16, int(np.ceil(16 * contour.arc_length)))
    for _, pts, vals in _nested_nodes(
            contour.points, lambda z: char_det(P, U, z, mesh, tree=True), n,
            WINDING_DOUBLINGS + 1):
        closed = np.concatenate([vals, vals[:1]])
        if np.min(np.abs(closed)) == 0.0:
            raise ContourError("Delta vanishes on the contour; adjust it")
        steps = np.angle(closed[1:] / closed[:-1])
        if np.max(np.abs(steps)) < 0.5 * np.pi:
            total = steps.sum() / (2.0 * np.pi)
            if abs(total - round(total)) > 0.05:
                raise ContourError("argument accumulation is not an integer")
            return int(round(total)), pts, vals
    raise ContourError(
        "winding did not stabilize after doublings; adjust the contour")


def winding_count(P: PotentialMatrix, U: BoundaryMatrixPair, contour,
                  mesh: Mesh):
    """Winding number of Delta along the contour.  The rule starts at 16
    nodes per unit arc length (at least 16) and doubles, at most
    WINDING_DOUBLINGS times, until every argument increment stays below
    pi/2.  Delta comes from the pairwise monodromy product
    (char_det(tree=True)): the count is an integer, so the last bits of
    Delta that an eigenvalue would carry do not reach it."""
    return _winding_pass(P, U, contour, mesh)[0]


@dataclass
class EigenvalueList:
    m_max: int
    values: dict                    # n -> lambda_n
    seeds: dict                     # n -> lambda_n^0 (possibly gamma-shifted)
    multiplicity: dict              # n -> 1 or 2
    diagnostics: list = field(default_factory=list)
    # winding numbers of the circles validate=True checked, and the
    # (P, U, mesh) objects they hold for
    windings: dict = field(default_factory=dict, repr=False, compare=False)
    windings_for: tuple = field(default=None, repr=False, compare=False)

    def indices(self):
        return sorted(self.values)

    def pair(self, k):
        return self.values[2 * k], self.values[2 * k + 1]

    def pair_indices(self):
        return range(-self.m_max, self.m_max + 1)

    def tail_max(self, lo, hi):
        devs = [abs(self.values[n] - self.seeds[n]) for n in self.values
                if lo <= abs(n) <= hi]
        return max(devs) if devs else 0.0

    def as_rows(self):
        rows = []
        for n in self.indices():
            lam, lam0 = self.values[n], self.seeds[n]
            rows.append((n, lam.real, lam.imag, lam0.real, lam0.imag,
                         abs(lam - lam0), self.multiplicity[n]))
        return rows


def _delta_and_slope(P, U, mesh, z):
    """Delta and its central-difference slope at the points z, from one
    char_det call on [z, z + h, z - h]."""
    h = SLOPE_H
    vals = char_det(P, U, np.concatenate([z, z + h, z - h]), mesh)
    m = z.size
    return np.stack([vals[:m], (vals[m:2 * m] - vals[2 * m:]) / (2.0 * h)])


def _slope(P, U, mesh, z):
    """The slope of _delta_and_slope alone, from one char_det call on
    [z + h, z - h]."""
    h = SLOPE_H
    vals = char_det(P, U, np.concatenate([z + h, z - h]), mesh)
    return (vals[:z.size] - vals[z.size:]) / (2.0 * h)


def _newton(P, U, mesh, seeds):
    """Newton iterates from the seeds, and which of them converged.  Equal
    seeds iterate once: each Delta value is independent of its batch, so
    the result is bit for bit that of a run per seed.

    At a double zero Newton only halves the distance with each step.  Once
    three steps in a row halve (each ratio within HALVING_TOL of 1/2), the
    next batch also evaluates the doubled step z - 2s beside the plain
    iterate z - s (Schroeder's step for multiplicity 2).  The doubled
    iterate is kept when its own step is below DOUBLED_STEP_GAIN * |2s|.
    Otherwise the seed goes on from z - s with the values already computed,
    so its iterates and its iteration count are the plain ones bit for bit,
    and it never tries a doubled step again."""
    lam, inverse = np.unique(seeds.astype(complex), return_inverse=True)
    active = np.ones(lam.shape, dtype=bool)
    # the sizes of each seed's last two steps, the last one in row 1, and
    # the doubled iterate of each pending seed
    sizes = np.full((2,) + lam.shape, np.nan)
    may_double = np.ones(lam.shape, dtype=bool)
    pending = np.zeros(lam.shape, dtype=bool)
    doubled = np.zeros(lam.shape, dtype=complex)
    for _ in range(NEWTON_MAX_ITER):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        tried = idx[pending[idx]]
        f, fp = _delta_and_slope(P, U, mesh,
                                 np.concatenate([lam[idx], doubled[tried]]))
        with np.errstate(divide="ignore", invalid="ignore"):
            steps = np.where(fp != 0, f / fp, 0.0)
        mags = np.abs(steps)
        with np.errstate(divide="ignore", invalid="ignore"):
            clipped = steps / mags * NEWTON_MAX_STEP
        steps = np.where(mags > NEWTON_MAX_STEP, clipped, steps)
        cur, step = lam[idx], steps[:idx.size]
        if tried.size:
            trial = steps[idx.size:]
            kept = np.abs(trial) < DOUBLED_STEP_GAIN * 2.0 * sizes[1, tried]
            at = np.searchsorted(idx, tried[kept])
            cur[at], step[at] = doubled[tried[kept]], trial[kept]
            sizes[1, tried[kept]] *= 2.0       # the step taken was 2s
            may_double[tried[~kept]] = False
            pending[tried] = False
        mags = np.abs(step)
        lam[idx] = cur - step
        done = mags < NEWTON_TOL * np.maximum(1.0, np.abs(cur))
        active[idx[done]] = False
        last, before = sizes[:, idx][::-1]
        halving = (may_double[idx] & ~done
                   & (np.abs(mags - 0.5 * last) <= HALVING_TOL * last)
                   & (np.abs(last - 0.5 * before) <= HALVING_TOL * before))
        sizes[:, idx] = last, mags
        pending[idx[halving]] = True
        doubled[idx[halving]] = cur[halving] - 2.0 * step[halving]
    return lam[inverse], ~active[inverse]


def _pair_moments(circ: Circle, nodes, values):
    """The two zeros inside circ of an analytic function with values at the
    trapezoid nodes of circ that winds twice along them, from the
    argument-principle moments s_p = (1/2 pi i) oint z^p Delta'/Delta dz.
    On z = c + r e^(i theta), g = log(Delta / (z - c)^2) is single-valued,
    and integration by parts gives s_p = 2 c^p - (p / 2 pi i) oint
    z^(p-1) g dz, so no Delta' is needed; Im g is the argument unwrapped
    along the nodes."""
    c, r = circ.center, circ.radius
    e = np.exp(1j * trapezoid_angles(nodes.size))
    q = values / (r * e) ** 2
    steps = np.angle(np.roll(q, -1) / q)
    arg = np.angle(q[0]) + np.concatenate([[0.0], np.cumsum(steps[:-1])])
    ge = (np.log(np.abs(q)) + 1j * arg) * e
    s1 = 2.0 * c - r * np.mean(ge)
    s2 = 2.0 * c * c - 2.0 * r * np.mean(nodes * ge)
    e1, e2 = s1, 0.5 * (s1 * s1 - s2)
    disc = np.sqrt(e1 * e1 - 4.0 * e2 + 0j)
    return 0.5 * (e1 + disc), 0.5 * (e1 - disc)


def _label_order(members):
    """The two (zero, ...) members of a pair in label order: by real part,
    and where the real parts agree to 1e-12 relative, by
    Im lam * sign(Re lam) (by Im lam where Re lam = 0).  lam -> -conj(lam)
    carries this order from pair k to pair -k-1 with the members swapped,
    so lambda_(-n-1) = -conj(lambda_n) survives roundoff in the zeros."""
    a, b = (m[0] for m in members)
    if abs(a.real - b.real) > 1e-12 * max(1.0, abs(a.real), abs(b.real)):
        return sorted(members, key=lambda m: m[0].real)
    return sorted(members,
                  key=lambda m: m[0].imag * (np.sign(m[0].real) or 1.0))


def _recover_pair(P, U, mesh, seed_mid, cap):
    """Both zeros of a pair whose Newton iterations failed: grow a circle
    around the seed midpoint until it winds twice, then take moments from
    the Delta values of that same winding pass.
    Returns [(zero, polished)] in label order (_label_order); polished is
    False where the Newton polish did not converge within 0.1 and the
    moment estimate is kept."""
    r = DELTA
    while r <= cap:
        circ = Circle(complex(seed_mid), float(r))
        try:
            w, nodes, values = _winding_pass(P, U, circ, mesh)
            if w == 2:
                moments = _pair_moments(circ, nodes, values)
                lam, conv = _newton(P, U, mesh, np.array(moments))
                out = []
                for z, zn, c in zip(moments, lam, conv):
                    polished = bool(c and abs(zn - z) < 0.1)
                    out.append((complex(zn if polished else z), polished))
                return _label_order(out)
        except ContourError:
            pass
        r *= 1.4
    raise ContourError(
        f"could not isolate the eigenvalue pair around {seed_mid}")


def delta_scale(P: PotentialMatrix, U: BoundaryMatrixPair, lams, mesh: Mesh):
    """Acceptance scale max(1, median |Delta(lambda_n + 0.49)|) for a set of
    eigenvalues, from boundary values only.  Each distinct probe is
    evaluated once and expanded back before the median."""
    probe, inverse = np.unique(np.asarray(lams, dtype=complex) + 0.49,
                               return_inverse=True)
    # not this module's char_det, where bench/spans.py counts localize's Delta
    vals = np.abs(ode.char_det(P, U, probe, mesh))[inverse]
    return max(1.0, float(np.median(vals)))


class AcceptanceScale:
    """delta_scale(P, U, lams, mesh) for the tests of one call, probed on
    first use.  The scale is at least 1, so a value at most tol already
    passes |value| <= tol * scale: exceeds() probes Delta only when some
    value is above tol, and decides exactly as the scale would."""

    def __init__(self, P: PotentialMatrix, U: BoundaryMatrixPair, lams,
                 mesh: Mesh):
        self._args = (P, U, lams, mesh)
        self._value = None

    @property
    def value(self):
        if self._value is None:
            self._value = delta_scale(*self._args)
        return self._value

    def exceeds(self, values, tol=ACCEPT_TOL):
        """|values| > tol * scale, elementwise."""
        mags = np.abs(values)
        over = mags > tol
        return mags > tol * self.value if over.any() else over


def localization_seeds(P: PotentialMatrix, U: BoundaryMatrixPair, mesh: Mesh):
    """Seeds lambda_n^0 of the gauge-equivalent free operator, shifted by
    the gauge constant gamma."""
    red = gauge_reduce(P, U, mesh)
    return unperturbed_spectrum(red.form), red.gamma


def localize(P: PotentialMatrix, U: BoundaryMatrixPair, m_max, mesh: Mesh,
             validate=False) -> EigenvalueList:
    """Eigenvalues lambda_n for n in [-2 m_max, 2 m_max + 1], paired to
    their seeds.  With validate, each pair's circle gamma_k must wind twice
    around the zeros of Delta, or ContourError is raised."""
    m_max = as_count(m_max, "m_max")
    ok, _ = is_regular(U)
    if not ok:
        raise NotRegularError("localization requires a regular form")
    spec0, gamma = localization_seeds(P, U, mesh)
    ns = np.arange(-2 * m_max, 2 * m_max + 2)
    seeds = spec0.lambda0(ns).astype(complex) + gamma
    lam, converged = _newton(P, U, mesh, seeds)
    diagnostics = []
    keys = [int(n) for n in ns]
    values = dict(zip(keys, map(complex, lam)))
    seedmap = dict(zip(keys, map(complex, seeds)))
    mult = dict.fromkeys(keys, 1)
    # residual-based acceptance against the scale of the seeds; a pair
    # with an unconverged or failing member, or a collapsed one, is
    # recovered by contour moments around the seed midpoint
    scale = AcceptanceScale(P, U, seeds, mesh)
    distinct, inverse = np.unique(lam, return_inverse=True)
    fails = scale.exceeds(char_det(P, U, distinct, mesh))[inverse]
    mids = {k: 0.5 * (seedmap[2 * k] + seedmap[2 * k + 1])
            for k in range(-m_max, m_max + 1)}
    # row k + m_max holds the members 2k and 2k + 1 of pair k
    off = (~converged | fails | (np.abs(lam - seeds) > 0.75)).reshape(-1, 2)
    bad = {k: bool(off[k + m_max].any()) for k in range(-m_max, m_max + 1)}
    # a collapsed pair must sit on a double zero: one batched Delta' check
    collapsed = [k for k in bad if not bad[k]
                 and abs(values[2 * k] - values[2 * k + 1]) < DOUBLE_TOL]
    if collapsed:
        a = np.array([values[2 * k] for k in collapsed])
        dp = _slope(P, U, mesh, a)
        for k, steep in zip(collapsed, scale.exceeds(dp, 1e-3)):
            if steep:
                bad[k] = True       # both members fell into one simple zero
    for k in range(-m_max, m_max + 1):
        if bad[k]:
            gaps = [abs(mids[k] - mids[j]) for j in (k - 1, k + 1) if j in mids]
            cap = 0.45 * min(gaps) if gaps else 0.9
            pair = _recover_pair(P, U, mesh, mids[k], max(cap, DELTA))
            diagnostics.append(f"pair {k} recovered by contour moments")
            for n, (z, polished) in zip((2 * k, 2 * k + 1), pair):
                values[n] = z
                if not polished:
                    diagnostics.append(
                        f"lambda_{n}: Newton polish did not converge within "
                        f"0.1 of the moment estimate {z}; estimate kept")
    for k in range(-m_max, m_max + 1):
        a, b = values[2 * k], values[2 * k + 1]
        if abs(a - b) < DOUBLE_TOL:
            values[2 * k] = values[2 * k + 1] = 0.5 * (a + b)
            mult[2 * k] = mult[2 * k + 1] = 2
    eigs = EigenvalueList(m_max=m_max, values=values, seeds=seedmap,
                          multiplicity=mult, diagnostics=diagnostics)
    if validate:
        _validate_pairs(P, U, mesh, eigs)
    return eigs


def _pair_circle(lam_a, lam_b):
    center = 0.5 * (lam_a + lam_b)
    radius = max(DELTA, 0.5 * abs(lam_a - lam_b) + DELTA)
    return Circle(complex(center), float(radius))


def _check_gamma(k, circ, w):
    """Raise ContourError unless gamma_k winds twice around the zeros."""
    if w != 2:
        raise ContourError(
            f"gamma_{k} (center {circ.center:.4f}, r {circ.radius:.3f}) "
            f"winding {w} != 2")


def _validate_pairs(P, U, mesh, eigs: EigenvalueList):
    """Record the winding number of each circle gamma_k on eigs; raises
    ContourError at the first one that is not 2."""
    eigs.windings_for = (P, U, mesh)
    for k in eigs.pair_indices():
        circ = _pair_circle(*eigs.pair(k))
        w = eigs.windings[circ] = winding_count(P, U, circ, mesh)
        _check_gamma(k, circ, w)


@dataclass
class ContourFamily:
    gammas: dict                    # pair index k -> Circle
    half_height: float
    eigs: EigenvalueList
    spec0_values: dict              # n -> lambda_n^0

    def big_contour(self, m):
        """Gamma_m: rectangle enclosing lambda_n and lambda_n^0 for
        n in [-2m, 2m+1], with vertical sides midway between clusters."""
        lo, hi = -2 * m, 2 * m + 1
        inner = [self.eigs.values[n].real for n in range(lo, hi + 1)]
        inner += [self.spec0_values[n].real for n in range(lo, hi + 1)]
        outer_left = [self.eigs.values[n].real for n in self.eigs.values if n < lo]
        outer_left += [self.spec0_values[n].real for n in self.spec0_values if n < lo]
        outer_right = [self.eigs.values[n].real for n in self.eigs.values if n > hi]
        outer_right += [self.spec0_values[n].real for n in self.spec0_values if n > hi]
        left = (0.5 * (min(inner) + max(outer_left)) if outer_left
                else min(inner) - 0.5)
        right = (0.5 * (max(inner) + min(outer_right)) if outer_right
                 else max(inner) + 0.5)
        return RectContour(left, right, self.half_height)


def contour_family(spec0, eigs: EigenvalueList, P=None, U=None, mesh=None,
                   validate=True) -> ContourFamily:
    """Circles gamma_k around the eigenvalue pairs (lambda_2k, lambda_2k+1)
    and rectangles Gamma_m, winding-validated when (P, U, mesh) are given.

    A circle whose winding number localize(validate=True) recorded on eigs
    for these same P, U and mesh objects is not evaluated again."""
    gammas = {}
    all_vals = eigs.values
    for k in eigs.pair_indices():
        circ = _pair_circle(*eigs.pair(k))
        outside = [abs(all_vals[n] - circ.center) for n in all_vals
                   if n not in (2 * k, 2 * k + 1)]
        if outside:
            nearest = min(outside)
            if nearest <= circ.radius:
                shrunk = 0.5 * (nearest + 0.5 * abs(all_vals[2 * k] - all_vals[2 * k + 1]))
                circ = Circle(circ.center, max(shrunk, 1e-6))
        gammas[k] = circ
    im_max = max(abs(v.imag) for v in all_vals.values())
    half_height = max(1.0, im_max + 0.5)
    ns = np.array(sorted(all_vals))
    spec0_values = {int(n): complex(spec0.lambda0(np.array([n]))[0])
                    for n in ns}
    fam = ContourFamily(gammas=gammas, half_height=half_height,
                        eigs=eigs, spec0_values=spec0_values)
    if validate:
        if P is None or U is None or mesh is None:
            raise ValueError("validation requires P, U and a mesh")
        same = eigs.windings_for is not None and all(
            a is b for a, b in zip(eigs.windings_for, (P, U, mesh)))
        known = eigs.windings if same else {}
        for k, circ in gammas.items():
            _check_gamma(k, circ, known[circ] if circ in known
                         else winding_count(P, U, circ, mesh))
        m_small = min(2, eigs.m_max)
        rect = fam.big_contour(m_small)
        w = winding_count(P, U, rect, mesh)
        if w != 4 * m_small + 2:
            raise ContourError(f"Gamma_{m_small} winding {w} != {4 * m_small + 2}")
        inside0 = [spec0_values[n] + 0j for n in range(-2 * m_small, 2 * m_small + 2)]
        if not np.all(rect.contains(np.array(inside0))):
            raise ContourError("Gamma_m fails to enclose the unperturbed block")
    return fam
