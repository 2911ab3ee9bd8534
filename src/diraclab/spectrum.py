"""Eigenvalue localization and contour machinery.

Perturbed eigenvalues are found by Newton iteration on the characteristic
determinant, seeded by the closed-form unperturbed spectrum (shifted by the
gauge constant gamma when the potential has diagonal entries).  A pair whose
Newton iterations fail is recovered from argument-principle moments on a
circle around its seeds.  The paper's contour family comes from the list:
circles gamma_k around each pair and one ellipse Gamma_m around the central
block, placed from the eigenvalues and seeds (EigenvalueList.big_contour);
validation winds that ellipse and expansions.partial_sum_contour integrates
on it.  Every contour is parametrized by angle, z(theta) = at(theta).

Winding counts and recovery moments read one pass of values per contour,
refined by node doubling at the trapezoid angles: the angles at n are
exactly the even angles at 2n, bit for bit, so each level evaluates only
its new odd nodes (:func:`_winding_rule`).  A family of contours is
evaluated level by level, one char_det call per level
(:func:`_family_passes`).

Validation (:func:`_validate`) winds every gamma_k and Gamma_min(2, m_max)
as one family, comparing Delta with the free operator as the paper's Rouche
argument does (:func:`_rouche_windings`): it winds g = Delta / Delta0, with
Delta0 = delta0(form, lambda - gamma) of the gauge reduction.  The winding
of Delta is that of g plus the free zeros lambda_n^0 + gamma inside the
contour, which are known in closed form.  g stays near 1 away from the
lowest pairs, so its rule starts at one node per unit arc length, where
Delta's starts at 16.  A contour whose pass on g fails is wound on Delta
instead.  Recovery and winding_count wind Delta itself
(:func:`_winding_passes`): recovery reads its moments from Delta's values.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .boundary import BoundaryMatrixPair, NotRegularError, delta0, \
    is_regular, minors, unperturbed_spectrum
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
# how often a winding rule may double its nodes
WINDING_DOUBLINGS = 8
# g = Delta / Delta0 counts as undefined at a node where Delta0 cancels to
# within this fraction of its largest term (a free zero on the node)
FREE_ZERO_TOL = 1e-8
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

    @property
    def arc_length(self):
        return 2.0 * np.pi * self.radius

    @property
    def real_range(self):
        return self.center.real - self.radius, self.center.real + self.radius

    def contains(self, z):
        return np.abs(np.asarray(z) - self.center) < self.radius


@dataclass(frozen=True)
class Ellipse:
    """center + a cos(theta) + i b sin(theta), axes along the real and
    imaginary directions: the contour Gamma_m (EigenvalueList.big_contour)
    that validation winds and the projector integrates, where the
    trapezoid rule converges geometrically."""
    center: complex
    a: float
    b: float

    def at(self, theta):
        """z(theta) and z'(theta)."""
        c, s = np.cos(theta), np.sin(theta)
        return (self.center + self.a * c + 1j * self.b * s,
                -self.a * s + 1j * self.b * c)

    @property
    def arc_length(self):
        """Ramanujan's approximation of the perimeter; it only sets where a
        winding rule starts."""
        a, b = self.a, self.b
        return np.pi * (3.0 * (a + b) - np.sqrt((3.0 * a + b) * (a + 3.0 * b)))

    @property
    def real_range(self):
        return self.center.real - self.a, self.center.real + self.a

    def contains(self, z):
        z = np.asarray(z)
        u = (z.real - self.center.real) / self.a
        v = (z.imag - self.center.imag) / self.b
        return u * u + v * v < 1.0


def trapezoid_angles(n):
    """Angles 2 pi j / n, j < n, of the trapezoid rule on a circle."""
    return 2.0 * np.pi * np.arange(n) / n


def _winding_rule(contour, per_unit_arc=16, least=16):
    """The winding rule of one contour, as a generator: it yields the nodes
    whose values it needs next, is sent those values, and returns (winding
    number, nodes, values) at the level it accepts, or raises ContourError.
    The nodes are contour.at(trapezoid_angles(n))[0], from per_unit_arc
    per unit arc length (at least least), doubled, at most
    WINDING_DOUBLINGS times, until every argument increment stays below
    pi/2.  The angles at n are exactly the even angles at 2n, so each level
    after the first asks only for its new odd nodes and interleaves their
    values with the previous level's."""
    n = max(least, int(np.ceil(per_unit_arc * contour.arc_length)))
    pts = contour.at(trapezoid_angles(n))[0]
    vals = yield pts
    for level in range(WINDING_DOUBLINGS + 1):
        if level:
            n *= 2
            pts = contour.at(trapezoid_angles(n))[0]
            vals = np.stack([vals, (yield pts[1::2])], axis=-1).reshape(n)
        closed = np.concatenate([vals, vals[:1]])
        if not np.all(np.isfinite(closed)):
            raise ContourError("the winding function is undefined on the "
                               "contour; adjust it")
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


def _family_passes(rules, evaluate):
    """Winding rules (_winding_rule) of a family of contours, run level by
    level: each evaluate call takes the nodes that every rule still open
    asks for next.  Returns, per rule, (winding number, nodes, values) at
    the level it accepts, or the ContourError it raises.  Where each value
    is independent of its batch, every result is bit for bit that of the
    rule's own pass."""
    out = [None] * len(rules)
    asks = {i: next(rule) for i, rule in enumerate(rules)}
    while asks:
        nodes = list(asks.values())
        vals = evaluate(np.concatenate(nodes))
        parts = np.split(vals, np.cumsum([z.size for z in nodes])[:-1])
        opened, asks = list(asks), {}
        for i, v in zip(opened, parts):
            try:
                asks[i] = rules[i].send(v)
            except StopIteration as accepted:
                out[i] = accepted.value
            except ContourError as err:
                out[i] = err
    return out


def _winding_passes(P, U, contours, mesh):
    """Delta's winding rule on a family of contours (_family_passes), each
    level one char_det(tree=True) call.  Returns, per contour, (winding
    number, nodes, Delta values) at the level the rule accepts, or the
    ContourError it raises."""
    return _family_passes([_winding_rule(c) for c in contours],
                          lambda z: char_det(P, U, z, mesh, tree=True))


def _rouche_ratio(P, U, red, mesh, z):
    """g = Delta / Delta0 at the nodes z, Delta from one char_det(tree=True)
    call and Delta0 = delta0(red.form, z - red.gamma).  g is nan where Delta0
    cancels to within FREE_ZERO_TOL of its largest term, so that a pass
    with a free zero on a node raises instead of winding around it."""
    mu = z - red.gamma
    m = minors(red.form)
    d0 = delta0(red.form, mu)
    size = np.maximum(abs(m.J12 + m.J34), np.maximum(
        abs(m.J14) * np.exp(np.pi * mu.imag),
        abs(m.J23) * np.exp(-np.pi * mu.imag)))
    d = char_det(P, U, z, mesh, tree=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.abs(d0) > FREE_ZERO_TOL * size, d / d0, np.nan)


def _free_zeros_inside(spec0, gamma, contour):
    """The zeros lambda_n^0 + gamma of Delta0(lambda - gamma) inside the
    contour, counted with multiplicity.  Re lambda_n^0 - n lies in (-2, 1],
    so only the n within the contour's real range, widened by 2 on each
    side, can lie inside."""
    lo, hi = contour.real_range
    ns = np.arange(int(np.floor(lo - gamma.real)) - 2,
                   int(np.ceil(hi - gamma.real)) + 3)
    return int(np.count_nonzero(contour.contains(spec0.lambda0(ns) + gamma)))


def _rouche_windings(P, U, red, contours, mesh):
    """Winding numbers of Delta along a family of contours, each the winding
    of g = Delta / Delta0 (_rouche_ratio) plus the free zeros inside it
    (_free_zeros_inside); red is gauge_reduce(P, U, mesh).  g's rule starts
    at one node per unit arc length (at least 8) and keeps Delta's pi/2
    increments, integer check and doublings.  A contour whose pass on g
    raises is wound on Delta (_winding_passes), as one family, so it gets
    Delta's result exactly.

    Returns, per contour, (winding number, margin) or the ContourError
    Delta's rule raised; margin is max |g - 1| at the nodes g's rule
    accepted (None where Delta's rule decided).  Below 1 along the whole
    contour, it is Rouche's condition for Delta and Delta0 to have the same
    zeros inside."""
    spec0 = unperturbed_spectrum(red.form)
    rules = [_winding_rule(c, 1, 8) for c in contours]
    results = _family_passes(
        rules, lambda z: _rouche_ratio(P, U, red, mesh, z))
    failed = [c for c, r in zip(contours, results)
              if isinstance(r, ContourError)]
    redone = iter(_winding_passes(P, U, failed, mesh))
    out = []
    for contour, result in zip(contours, results):
        if isinstance(result, ContourError):
            result = next(redone)
            out.append(result if isinstance(result, ContourError)
                       else (result[0], None))
        else:
            w, _, g = result
            out.append((w + _free_zeros_inside(spec0, red.gamma, contour),
                        float(np.max(np.abs(g - 1.0)))))
    return out


def _accepted(result):
    """A _winding_passes or _rouche_windings result, or raises its
    ContourError."""
    if isinstance(result, ContourError):
        raise result
    return result


def winding_count(P: PotentialMatrix, U: BoundaryMatrixPair, contour,
                  mesh: Mesh):
    """Winding number of Delta along the contour: the rule of _winding_rule
    on a family of one contour.  Delta comes from the pairwise monodromy
    product (char_det(tree=True)): the count is an integer, so the last bits
    of Delta that an eigenvalue would carry do not reach it."""
    return _accepted(_winding_passes(P, U, [contour], mesh)[0])[0]


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
    # max |Delta / Delta0 - 1| at the accepted nodes of each of those
    # circles that was wound on g (_rouche_windings): below 1, the Rouche
    # comparison with the free operator holds there
    margins: dict = field(default_factory=dict, repr=False, compare=False)

    def indices(self, m=None):
        """n in [-2m, 2m+1] (m = m_max by default); ValueError for an m
        outside [0, m_max] or not an integer."""
        m = self.m_max if m is None else as_count(m, "m")
        if m > self.m_max:
            raise ValueError(f"m={m} exceeds stored range m_max={self.m_max}")
        return range(-2 * m, 2 * m + 2)

    def pair(self, k):
        return self.values[2 * k], self.values[2 * k + 1]

    def pair_indices(self):
        return range(-self.m_max, self.m_max + 1)

    def big_contour(self, m):
        """Gamma_m: the ellipse around lambda_n and its seed, n in indices(m).
        Its ends lie midway to the nearest other eigenvalue or seed (1/2 out
        where there is none), Im center midway in the block seeds' Im range,
        and b 1/2 above the height at which it would pass through its
        farthest block point, at least 1; a point beyond an end is not held."""
        idx = self.indices(m)
        inner, left, right = [], [], []
        for n in self.values:
            side = left if n < idx[0] else right if n > idx[-1] else inner
            side += [self.values[n], self.seeds[n]]
        re, im = np.real(inner), np.imag(inner)
        lo = 0.5 * (re.min() + max(np.real(left))) if left else re.min() - 0.5
        hi = (0.5 * (re.max() + min(np.real(right))) if right
              else re.max() + 0.5)
        block = [self.seeds[n].imag for n in idx]
        c = complex(0.5 * (lo + hi), 0.5 * (min(block) + max(block)))
        a = float(0.5 * (hi - lo))
        u = (re - c.real) / a
        held = np.abs(u) < 1.0
        h = np.abs(im[held] - c.imag) / np.sqrt(1.0 - u[held] ** 2)
        return Ellipse(c, a, float(max(1.0, 0.5 + h.max(initial=0.0))))

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


def _newton(P, U, mesh, seeds):
    """Newton iterates from the seeds, which of them converged, and Delta
    and Delta' where each final step started (the doubled point where a
    doubled step was kept), as a (2, seeds) array.  Equal seeds iterate
    once: each Delta is independent of its batch, so every output is bit
    for bit that of a run per seed.

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
    evaluated = np.zeros((2,) + lam.shape, dtype=complex)
    for _ in range(NEWTON_MAX_ITER):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        tried = idx[pending[idx]]
        vals = _delta_and_slope(P, U, mesh,
                                np.concatenate([lam[idx], doubled[tried]]))
        evaluated[:, idx] = vals[:, :idx.size]
        with np.errstate(divide="ignore", invalid="ignore"):
            steps = np.where(vals[1] != 0, vals[0] / vals[1], 0.0)
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
            evaluated[:, tried[kept]] = vals[:, idx.size:][:, kept]
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
    return lam[inverse], ~active[inverse], evaluated[:, inverse]


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


def _recover_pairs(P, U, mesh, seed_mids, caps):
    """Both zeros of each pair whose Newton iterations failed: grow a circle
    around its seed midpoint, up to its cap, until it winds twice, then take
    moments from the Delta values of that same winding pass.  At each
    radius the circles of the pairs still open are one family
    (_winding_passes), and one Newton run polishes the moments of every
    pair that closes there.
    Returns, per pair, [(zero, polished)] in label order (_label_order);
    polished is False where the Newton polish did not converge within 0.1
    and the moment estimate is kept.  Raises ContourError for the first
    pair, in order, that no circle isolates."""
    found = [None] * len(seed_mids)
    todo = range(len(seed_mids))
    r = DELTA
    while todo := [i for i in todo if r <= caps[i]]:
        circles = [Circle(complex(seed_mids[i]), float(r)) for i in todo]
        moments = {}
        for i, circ, result in zip(todo, circles,
                                   _winding_passes(P, U, circles, mesh)):
            if not isinstance(result, ContourError) and result[0] == 2:
                moments[i] = _pair_moments(circ, *result[1:])
        if moments:
            est = np.array(list(moments.values()))
            lam, conv, _ = _newton(P, U, mesh, est.ravel())
            for i, zs, zns, cs in zip(moments, est, lam.reshape(-1, 2),
                                      conv.reshape(-1, 2)):
                out = []
                for z, zn, c in zip(zs, zns, cs):
                    polished = bool(c and abs(zn - z) < 0.1)
                    out.append((complex(zn if polished else z), polished))
                found[i] = _label_order(out)
        todo = [i for i in todo if i not in moments]
        r *= 1.4
    for mid, pair in zip(seed_mids, found):
        if pair is None:
            raise ContourError(
                f"could not isolate the eigenvalue pair around {mid}")
    return found


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
    their seeds.  With validate, the contour family must pass _validate,
    or ContourError is raised.

    Newton's last evaluation (_newton) decides each pair: it is recovered by
    contour moments around its seed midpoint if a member is unconverged, over
    0.75 from its seed or over ACCEPT_TOL in scaled |Delta| (AcceptanceScale),
    or if both collapsed (DOUBLE_TOL) into a simple zero, with member 2k's
    scaled |Delta'| over 1e-3.  Reading Delta a step before the reported value
    is no weaker: a converged step is below NEWTON_TOL relative, so |Delta| is
    smaller there to first order; a zero-slope step is zero, so the points
    coincide; an unconverged member is recovered anyway."""
    m_max = as_count(m_max, "m_max")
    if not is_regular(U)[0]:
        raise NotRegularError("localization requires a regular form")
    red = gauge_reduce(P, U, mesh)
    ns = np.arange(-2 * m_max, 2 * m_max + 2)
    seeds = unperturbed_spectrum(red.form).lambda0(ns).astype(complex) \
        + red.gamma
    lam, converged, (delta, slope) = _newton(P, U, mesh, seeds)
    scale = AcceptanceScale(P, U, seeds, mesh)
    # row k + m_max holds the members 2k and 2k + 1 of pair k
    pairs, seed_pairs = lam.reshape(-1, 2), seeds.reshape(-1, 2)
    bad = (~converged | scale.exceeds(delta)
           | (np.abs(lam - seeds) > 0.75)).reshape(-1, 2).any(axis=1)
    collapsed = ~bad & (np.abs(pairs[:, 0] - pairs[:, 1]) < DOUBLE_TOL)
    bad[collapsed] = scale.exceeds(slope[::2][collapsed], 1e-3)
    mids = 0.5 * (seed_pairs[:, 0] + seed_pairs[:, 1])
    gaps = np.abs(np.diff(mids))
    near = np.minimum(np.append(gaps, np.inf), np.insert(gaps, 0, np.inf))
    caps = np.maximum(np.where(near < np.inf, 0.45 * near, 0.9), DELTA)
    rows = np.nonzero(bad)[0]
    diagnostics = []
    for row, pair in zip(rows.tolist(), _recover_pairs(
            P, U, mesh, mids[rows].tolist(), caps[rows].tolist())):
        k = row - m_max
        diagnostics.append(f"pair {k} recovered by contour moments")
        pairs[row] = [z for z, _ in pair]
        for n, (z, polished) in zip((2 * k, 2 * k + 1), pair):
            if not polished:
                diagnostics.append(
                    f"lambda_{n}: Newton polish did not converge within "
                    f"0.1 of the moment estimate {z}; estimate kept")
    double = np.abs(pairs[:, 0] - pairs[:, 1]) < DOUBLE_TOL
    pairs[double] = 0.5 * (pairs[double, :1] + pairs[double, 1:])
    values, seedmap, mult = (dict(zip(ns.tolist(), a.tolist())) for a in
                             (lam, seeds, 1 + np.repeat(double, 2)))
    eigs = EigenvalueList(m_max=m_max, values=values, seeds=seedmap,
                          multiplicity=mult, diagnostics=diagnostics)
    if validate:
        _validate(P, U, mesh, red, eigs)
    return eigs


def _pair_circle(lam_a, lam_b):
    center = 0.5 * (lam_a + lam_b)
    radius = max(DELTA, 0.5 * abs(lam_a - lam_b) + DELTA)
    return Circle(complex(center), float(radius))


def _validate(P, U, mesh, red, eigs: EigenvalueList):
    """Wind every gamma_k and the ellipse Gamma_m0, m0 = min(2, m_max), the
    one partial_sum_contour integrates on, as one family (_rouche_windings;
    red = gauge_reduce(P, U, mesh)).  Raises ContourError at the first
    gamma_k that fails or does not wind twice, then when Gamma_m0 does not
    wind 4 m0 + 2 times or leaves out a seed of its block.
    Only then records each circle's winding and margin, and (P, U, mesh)."""
    circles = {k: _pair_circle(*eigs.pair(k)) for k in eigs.pair_indices()}
    m0 = min(2, eigs.m_max)
    ellipse = eigs.big_contour(m0)
    *results, last = _rouche_windings(P, U, red,
                                      [*circles.values(), ellipse], mesh)
    for (k, circ), result in zip(circles.items(), results):
        if _accepted(result)[0] != 2:
            raise ContourError(
                f"gamma_{k} (center {circ.center:.4f}, r {circ.radius:.3f}) "
                f"winding {result[0]} != 2")
    if _accepted(last)[0] != 4 * m0 + 2:
        raise ContourError(f"Gamma_{m0} winding {last[0]} != {4 * m0 + 2}")
    block = [eigs.seeds[n] for n in eigs.indices(m0)]
    if not np.all(ellipse.contains(np.array(block))):
        raise ContourError("Gamma_m fails to enclose the unperturbed block")
    for circ, (w, margin) in zip(circles.values(), results):
        eigs.windings[circ] = w
        if margin is not None:
            eigs.margins[circ] = margin
    eigs.windings_for = (P, U, mesh)


@dataclass
class ContourFamily:
    gammas: dict                    # pair index k -> Circle
    eigs: EigenvalueList


def contour_family(spec0, eigs: EigenvalueList, P=None, U=None, mesh=None,
                   validate=True) -> ContourFamily:
    """The circles gamma_k around the pairs (lambda_2k, lambda_2k+1) of eigs;
    Gamma_m is eigs.big_contour(m), placed from the eigenvalues and their
    gamma-shifted seeds, so spec0 is no longer read.  With validate, runs
    _validate unless localize(validate=True) already did on eigs for these
    same P, U and mesh objects."""
    fam = ContourFamily(gammas={k: _pair_circle(*eigs.pair(k))
                                for k in eigs.pair_indices()}, eigs=eigs)
    if validate:
        if P is None or U is None or mesh is None:
            raise ValueError("validation requires P, U and a mesh")
        done = eigs.windings_for
        if done is None or any(a is not b for a, b in zip(done, (P, U, mesh))):
            _validate(P, U, mesh, gauge_reduce(P, U, mesh), eigs)
    return fam
