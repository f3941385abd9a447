"""The alpha-power ("strength") of scalar and sampled sources.

The strength of X at index alpha is the unique s > 0 with

    g(s) = -E[log f_ref(X / s)] = h(ref),

where `ref` is the reference symmetric stable law of `stable_core`.  g is
non-increasing and continuous in s.  Each evaluation also gives dg/d ln s
from the same nodes, and the root is found by safeguarded Newton in ln s.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Union

import numpy as np
# scipy.integrate and scipy.optimize are imported by the functions that use
# them, so `import stablerd` loads neither.
from scipy.special import digamma, erfc, gammaln

from . import stable_core
from .errors import BracketFailure, NonFiniteLogMoment
from .stable_core import ReferenceLaw, SampleBatch, StableParams, standard_density

__all__ = [
    "SymmetricStableSource",
    "EmpiricalSource",
    "TabulatedSource",
    "UniformSource",
    "SourceSpec",
    "StrengthSolution",
    "cauchy_source",
    "gaussian_source",
    "g_value",
    "solve_strength",
    "strength_closed_form",
    "cb_strength",
    "strength_of_uniform",
]

DEFAULT_TOL = 1e-9  # nats, on the residual |g(s) - h|
_BRACKET_BUDGET = 60
_STEP_LIMIT = math.log(4.0)  # the longest step in ln s: a factor of 4 in s
# After a Newton step of this size in ln s, quadratic convergence leaves the
# new iterate about (step)^2 = 1e-16 from the root: it is returned as it is.
_NEWTON_DONE = 1e-8
# An iterate whose own Newton step is below this, in ln s, is returned.
_ROOT_STEP = 4e-15


class _Source:
    """The protocol every source kind implements, with the shared defaults.

    Every kind has `dim`, `is_zero`, `scale` (for panel placement), `start_scale`
    (where strength root solves start), `tail_k` and `abs_quantile(p)`.
    Density-backed kinds also have `support`, `core_extent` (beyond it a
    kind's own tail handling takes over), `breakpoints`, `pdf_vec(x)`,
    `mass(a, b)`, `tail_mass(x)`, `tail_integral(phi, x0)` (the whole
    integral of f phi over (x0, infinity) for x0 >= core_extent and a phi of
    log growth, remainder included; a stable kind's tail mass and every
    G take their tails from it) and `reflected` (the source of -X; a
    symmetric kind returns itself).  A new kind implements these on its own
    class; the strength and quantizer code calls only them.
    """

    dim = 1
    is_zero = False
    # k with f(x) ~ k |x|^-(a+1), 0 < a < 2, for a power tail; 0 without one
    tail_k = 0.0

    @property
    def start_scale(self) -> float:
        return self.scale

    @property
    def breakpoints(self) -> tuple:
        """Finite ends of the support, where the density may jump."""
        return tuple(x for x in self.support if math.isfinite(x))

    def tail_mass(self, x0: float) -> float:
        """P(X > x0)."""
        return self.mass(x0, self.support[1])

    def tail_integral(self, phi_vec, x0: float) -> float:
        """Integral of f(x) phi(x) over (x0, infinity), x0 >= core_extent: 0
        for a kind with no mass beyond its core."""
        return 0.0

    def abs_quantile(self, p: float) -> float:
        """The p-quantile of |X|, by root finding on the mass of [-x, x]."""
        from scipy import optimize

        def fn(x):
            return self.mass(-x, x) - p

        hi = self.scale
        for _ in range(80):
            if fn(hi) > 0.0:
                break
            hi *= 2.0
        return float(optimize.brentq(fn, 1e-12 * self.scale, hi, rtol=1e-10))


@dataclass(frozen=True)
class SymmetricStableSource(_Source):
    """A symmetric stable scalar source (beta = delta = 0)."""

    params: StableParams

    support = (-math.inf, math.inf)

    def __post_init__(self):
        if self.params.beta != 0.0 or self.params.delta != 0.0:
            raise ValueError("symmetric stable source requires beta = delta = 0")

    @property
    def scale(self) -> float:
        return self.params.gamma

    @property
    def core_extent(self) -> float:
        return stable_core.TAIL_CUTOFF * self.params.gamma

    @cached_property
    def tail_k(self) -> float:
        p = self.params
        return standard_density(p.alpha).tail_constant * p.gamma ** p.alpha

    @property
    def reflected(self) -> "SymmetricStableSource":
        return self

    def pdf_vec(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        g = self.params.gamma
        return standard_density(self.params.alpha).pdf_vec(x / g) / g

    def mass(self, a: float, b: float) -> float:
        """Integral of the density over [a, b], split at the core extent."""
        if b <= a:
            return 0.0
        pieces = 0.0
        cut = self.core_extent
        core_lo, core_hi = max(a, -cut), min(b, cut)
        if core_hi > core_lo:
            n_lin = max(8, min(int(16 * (core_hi - core_lo) / (1 + cut)) + 2, 64))
            edges = np.linspace(core_lo, core_hi, n_lin)
            if core_lo < 0.0 < core_hi:  # resolve the density peak
                peak = self.scale * np.geomspace(1e-7, 1.0, 10)
                extra = np.concatenate([-peak[::-1], peak])
                extra = extra[(extra > core_lo) & (extra < core_hi)]
                edges = np.unique(np.concatenate([edges, extra]))
            pieces += stable_core._panel_integral(self.pdf_vec, edges)
        if b > cut:
            pieces += self.tail_mass(max(a, cut)) - self.tail_mass(b)
        if a < -cut:
            pieces += self.tail_mass(-min(b, -cut)) - self.tail_mass(-a)
        return pieces

    def tail_mass(self, x0: float) -> float:
        """P(X > x0)."""
        a_s, g = self.params.alpha, self.params.gamma
        if a_s == 2.0:
            return 0.5 * erfc(x0 / (2.0 * g))
        if x0 / g < stable_core.TAIL_CUTOFF:
            # (30 g) / g can round below 30, so the core extent is passed on
            # to tail_integral directly, not back through this test
            cut = self.core_extent
            return self.mass(x0, cut) + self.tail_integral(np.ones_like, cut)
        return self.tail_integral(np.ones_like, x0)

    def tail_integral(self, phi_vec, x0: float) -> float:
        """Integral of f(x) phi(x) over (x0, infinity), x0 >= core_extent, for a
        phi of log growth: `stable_core._tail_integral` in u = x / gamma."""
        if self.tail_k == 0.0:
            return 0.0  # no power tail: no mass beyond the core (Gaussian: below 1e-98)
        g = self.params.gamma
        return stable_core._tail_integral(self.params.alpha, lambda u: phi_vec(g * u), x0 / g)


@dataclass(frozen=True)
class EmpiricalSource(_Source):
    """A source given by i.i.d. samples (scalars, or rows of d-vectors)."""

    batch: SampleBatch

    @property
    def dim(self) -> int:
        vals = self.batch.values
        return vals.shape[1] if vals.ndim == 2 else 1

    @property
    def is_zero(self) -> bool:
        return bool(np.all(self.batch.values == 0.0))

    @property
    def scale(self) -> float:
        """The median of |x| over all sample entries."""
        return float(np.median(np.abs(self.batch.values)))

    @property
    def start_scale(self) -> float:
        """The median of |X| (vector norms for d >= 2), or its mean if that is 0."""
        vals = self.batch.values
        r = np.sqrt(np.einsum("ij,ij->i", vals, vals)) if vals.ndim == 2 else np.abs(vals)
        med = float(np.median(r))
        return med if med > 0.0 else float(np.mean(r))

    @cached_property
    def sorted_values(self) -> np.ndarray:
        """The 1-d samples in ascending order: a read-only copy, sorted once.

        The density table's spline finds its intervals fastest on ordered
        input, so every sample mean runs over this copy; a mean depends only
        on the multiset of samples, and `batch.values` keeps its order.
        """
        vals = self.batch.values
        if vals.ndim != 1:
            raise ValueError("scalar expectation requires 1-d samples")
        out = np.sort(vals)
        out.flags.writeable = False
        return out

    def abs_quantile(self, p: float) -> float:
        return float(np.quantile(np.abs(self.batch.values), p))


@dataclass(frozen=True)
class TabulatedSource(_Source):
    """A source given by a density callback with support hints.

    `density` maps a scalar x to f(x); `support` is (lo, hi) and may be
    infinite.  Normalization is checked to 1e-6 on construction.
    """

    density: Callable[[float], float]
    support: tuple = (-np.inf, np.inf)

    def __post_init__(self):
        from scipy import integrate

        lo, hi = self.support
        mass, _ = integrate.quad(self.density, lo, hi, limit=400)
        if abs(mass - 1.0) > 1e-6:
            raise ValueError(f"tabulated density has mass {mass}, expected 1 +- 1e-6")

    @property
    def core_extent(self) -> float:
        ends = self.breakpoints
        return min(max(abs(x) for x in ends) if len(ends) == 2 else 64.0, 1e6)

    @property
    def scale(self) -> float:
        return max(self.core_extent / 4.0, 1e-6)

    @property
    def start_scale(self) -> float:
        """The median of |X| by bisection on the mass; 1 if that fails.

        Rough accuracy is fine here, so integration warnings on
        slowly-decaying tails are muted.
        """
        from scipy import integrate, optimize

        lo, hi = self.support
        f = self.density

        def mass_above(c):
            pieces = 0.0
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", integrate.IntegrationWarning)
                if hi > c:
                    pieces += integrate.quad(f, c, hi, limit=200)[0]
                if lo < -c:
                    pieces += integrate.quad(f, lo, -c, limit=200)[0]
            return pieces - 0.5

        try:
            return optimize.brentq(mass_above, 1e-12, 1e6)
        except ValueError:
            return 1.0

    @cached_property
    def _density_vec(self):
        return np.vectorize(self.density, otypes=[float])

    def pdf_vec(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        vals = self._density_vec(x)
        lo, hi = self.support
        return np.where((x >= lo) & (x <= hi), vals, 0.0)

    def mass(self, a: float, b: float) -> float:
        from scipy import integrate

        if b <= a:
            return 0.0
        return integrate.quad(self.density, a, b, limit=300)[0]

    @cached_property
    def reflected(self) -> "TabulatedSource":
        """The source of -X, built once."""
        f = self.density
        lo, hi = self.support
        return TabulatedSource(lambda x: f(-x), (-hi, -lo))

    def tail_integral(self, phi_vec, x0: float) -> float:
        """Integral of f(x) phi(x) over (x0, hi) for x0 > 0 past every kink.

        A 16-node Gauss-Legendre rule runs over the doubling segments
        [x0 2^k, x0 2^(k+1)], the last one cut at a finite hi.  The sum stops
        once a segment adds less than 1e-13 of it (or 1e-13 absolute); if the
        segments fail to decay the log-moment proxy is declared divergent.
        For a stacked phi the first row, the value, decides; the rows after
        it (slopes) are summed over the same segments.
        """
        hi = self.support[1]

        def fn(x):
            return self.pdf_vec(x) * phi_vec(x)

        total = 0.0
        prev = math.inf
        a = x0
        for k in range(_BRACKET_BUDGET):
            if a >= hi:
                return total
            b = min(2.0 * a, hi)
            piece = stable_core._panel_integral(fn, np.array([a, b]))
            total += piece
            lead = abs(np.ravel(piece)[0])
            if lead < 1e-13 * max(abs(np.ravel(total)[0]), 1.0):
                return total
            if k > 6 and lead > prev:
                raise NonFiniteLogMoment(
                    "tail integral fails to decay; log-moment proxy diverges"
                )
            prev = lead
            a = b
        raise NonFiniteLogMoment("tail integral did not converge within the doubling budget")


@dataclass(frozen=True)
class UniformSource(_Source):
    """Uniform on (-half_width, half_width)."""

    half_width: float

    def __post_init__(self):
        if self.half_width < 0.0:
            raise ValueError("half_width must be nonnegative")

    @property
    def is_zero(self) -> bool:
        return self.half_width == 0.0

    @property
    def scale(self) -> float:
        return self.half_width

    @property
    def support(self) -> tuple:
        return (-self.half_width, self.half_width)

    @property
    def core_extent(self) -> float:
        return self.half_width

    @property
    def reflected(self) -> "UniformSource":
        return self

    def pdf_vec(self, x) -> np.ndarray:
        w = self.half_width
        return np.where(np.abs(np.asarray(x, dtype=float)) < w, 0.5 / w, 0.0)

    def mass(self, a: float, b: float) -> float:
        if b <= a:
            return 0.0
        w = self.half_width
        return max(0.0, (min(b, w) - max(a, -w))) / (2.0 * w)

    def abs_quantile(self, p: float) -> float:
        return p * self.half_width


SourceSpec = Union[SymmetricStableSource, EmpiricalSource, TabulatedSource, UniformSource]


def cauchy_source(gamma: float = 1.0) -> SymmetricStableSource:
    return SymmetricStableSource(StableParams(1.0, 0.0, gamma, 0.0))


def gaussian_source(sigma: float = 1.0) -> SymmetricStableSource:
    """Centered normal with standard deviation sigma (a 2-stable with scale sigma/sqrt 2)."""
    return SymmetricStableSource(StableParams(2.0, 0.0, sigma / math.sqrt(2.0), 0.0))


@dataclass(frozen=True)
class StrengthSolution:
    """A solved strength with solver diagnostics."""

    value: float
    residual: float
    bracket: tuple
    evaluations: int


# ---------------------------------------------------------------------------
# the negative reference log-density


def reference_neg_log_density(alpha: float, slope: bool = False):
    """Vectorized psi(z) = -log f_ref(z) for the d = 1 reference at index alpha.

    With slope, psi(z) returns the stack (psi(z), kappa(|z| / c)) of shape
    (2,) + z.shape, c the reference scale and kappa = d ln f0 / d ln u.  The
    second row is the derivative of psi(x / s) in ln s at z = x / s, so an
    integral of f psi(x / s) carries its own slope in ln s along.
    """
    ref_scale = (1.0 / alpha) ** (1.0 / alpha)
    eng = standard_density(alpha)
    log_scale = math.log(ref_scale)

    def psi(z):
        return log_scale - eng.log_pdf_vec(np.asarray(z, dtype=float) / ref_scale)

    def psi_and_slope(z):
        out = eng.log_pdf_vec(np.asarray(z, dtype=float) / ref_scale, slope=True)
        np.subtract(log_scale, out[0], out=out[0])
        return out

    return psi_and_slope if slope else psi


# ---------------------------------------------------------------------------
# G(s) of a partition: the integral behind every scalar strength


_LADDER = (-60.0, -25.0, -10.0, -4.0, -1.5, -0.5, 0.0, 0.5, 1.5, 4.0, 10.0, 25.0, 60.0)
_PEAK = (-3.0, -1.0, -0.25, 0.0, 0.25, 1.0, 3.0)
# An outer region that starts at its own point, which only a one-point
# quantizer has, also gets the edges r0 + _GRADE_START scale _GRADE^k up to
# its end: they resolve the density's peak and psi's core at any s.
_GRADE_START = 1e-13
_GRADE = 1.1


def _region_edges(a: float, b: float, rep: float, s_scale: float, source) -> np.ndarray:
    """Panel edges inside [a, b] refined around the representation point,
    around the source peak, and at density breakpoints.

    Plain floats: at a few dozen edges NumPy's per-call overhead costs more
    than the arithmetic.  Each capped gap is filled with the points of
    np.linspace(prev, e, n + 2)[1:-1], computed as k * step + prev.
    """
    a, b, rep, s_scale = float(a), float(b), float(rep), float(s_scale)
    edges = {a, b}
    for c in _LADDER:
        x = rep + s_scale * c
        if a < x < b:
            edges.add(x)
    if a < 0.0 < b:
        g = source.scale
        for c in _PEAK:
            x = g * c
            if a < x < b:
                edges.add(x)
    for brk in source.breakpoints:
        if a < brk < b:
            edges.add(float(brk))
    edges = sorted(edges)
    # cap the widest panels
    prev = edges[0]
    out = [prev]
    cap = max((b - a) / 8.0, 4.0 * s_scale)
    for e in edges[1:]:
        n_extra = int((e - prev) / cap)  # at most 8: cap >= (b - a) / 8
        if n_extra >= 1:
            step = (e - prev) / (n_extra + 1)
            out.extend([k * step + prev for k in range(1, n_extra + 1)])
        out.append(e)
        prev = e
    return np.array(out)


def _outer_region_integral(source, psi, rep: float, r0: float, s: float):
    """Integral of f(x) psi((x - rep)/s) over (r0, infinity): panels up to C,
    at most the support end, and the source's own tail integral beyond.  A
    stacked psi gives the stacked integrals."""
    s_scale = s * 3.0
    C = max(r0 + 80.0 * s_scale, 2.0 * abs(r0) + 4.0 * source.scale, source.core_extent)
    C = min(C, source.support[1])
    if C <= r0:
        return 0.0

    def fn(x):
        return source.pdf_vec(x) * psi((x - rep) / s)

    edges = _region_edges(r0, C, min(max(rep, r0), C), s_scale, source)
    if rep == r0:
        step = _GRADE_START * source.scale
        graded = r0 + step * _GRADE ** np.arange(math.log((C - r0) / step) / math.log(_GRADE))
        edges = np.union1d(edges, graded[graded < C])
    val = stable_core._panel_integral(fn, edges)
    return val + source.tail_integral(lambda x: psi((x - rep) / s), C)


def _g_of_partition(points, boundaries, source, psi):
    """Return G(s) = sum_j int_{R_j} f(x) psi((x - x_j)/s) dx as a callable.

    With the stacked psi of `reference_neg_log_density(alpha, slope=True)`,
    G(s) is the pair (G, dG/d ln s) from the same nodes.
    """
    points = np.asarray(points, dtype=float)
    boundaries = np.asarray(boundaries, dtype=float)

    if isinstance(source, EmpiricalSource):
        vals = source.sorted_values
        # the one point at 0 of a strength needs no offset copy of the samples
        offs = vals - points[np.searchsorted(boundaries, vals, side="left")] if points.any() else vals

        def G(s):
            return np.mean(psi(offs / s), axis=-1)

        return G

    # The left outer region, (-inf, r], is the right outer region (-r, inf) of
    # the reflected source, with the point negated (psi is even).  A single
    # region covering the line is split at its point.
    if points.size > 1:
        right, left = (points[-1], boundaries[-1]), (-points[0], -boundaries[0])
    else:
        right, left = (points[0], points[0]), (-points[0], -points[0])
    reflected = source.reflected
    # Both outer regions of a mirrored partition (every design candidate) of a
    # source that is its own reflection are the same integral: the right one
    # is added twice.  Two additions, not 2 * right, round as the explicit sum
    # does.
    mirrored = reflected is source and right == left

    def G(s):
        s_scale = 3.0 * s
        total = 0.0
        # interior regions, all nodes in one vectorized evaluation
        if points.size > 1:
            all_nodes = []
            all_weights = []
            all_reps = []
            xg, wg = stable_core._gauss_legendre(14)
            for j in range(1, points.size - 1):
                a, b = boundaries[j - 1], boundaries[j]
                edges = _region_edges(a, b, points[j], s_scale, source)
                mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
                half = 0.5 * (edges[1:] - edges[:-1])[:, None]
                nodes = mid + half * xg[None, :]
                all_nodes.append(nodes.ravel())
                all_weights.append((half * wg[None, :]).ravel())
                all_reps.append(np.full(nodes.size, points[j]))
            if all_nodes:
                nodes = np.concatenate(all_nodes)
                weights = np.concatenate(all_weights)
                reps = np.concatenate(all_reps)
                total += np.sum(
                    weights * source.pdf_vec(nodes) * psi((nodes - reps) / s), axis=-1
                )
        right_val = _outer_region_integral(source, psi, *right, s)
        total += right_val
        if mirrored:
            total += right_val
        else:
            total += _outer_region_integral(reflected, psi, *left, s)
        return total

    return G


# ---------------------------------------------------------------------------
# g and the strength solver


def g_value(source: SourceSpec, alpha: float, s: float, slope: bool = False):
    """g(s) = -E[log f_ref(X / s)] in nats.

    At d = 1 this is G(s) of the one-point quantizer at 0.  With slope, the
    pair (g(s), dg/d ln s), both from the same evaluation.  The slope is None
    on the d >= 2 path at alpha not in {1, 2}, which inverts the reference
    density sample by sample.
    """
    if not s > 0.0:
        raise ValueError("s must be positive")
    d = source.dim
    if d == 1:
        if alpha == 2.0 and source.tail_k > 0.0:
            raise NonFiniteLogMoment(
                "a heavy-tailed source has no finite second moment, so g "
                "diverges at alpha = 2"
            )
        psi = reference_neg_log_density(alpha, slope)
        g = _g_of_partition(np.zeros(1), np.empty(0), source, psi)(s)
        return (float(g[0]), float(g[1])) if slope else float(g)
    # d-dimensional empirical path
    ref = ReferenceLaw(alpha, d)
    vals = source.batch.values / s
    r2 = np.einsum("ij,ij->i", vals, vals)
    if alpha == 2.0:
        g = float(np.mean(0.5 * r2 + (d / 2.0) * math.log(2.0 * math.pi)))
        dg = -float(np.mean(r2))
    elif alpha == 1.0:
        half = (d + 1.0) / 2.0
        g = float(
            np.mean(
                half * math.log(math.pi)
                - gammaln(half)
                + half * np.log1p(r2)
            )
        )
        dg = -2.0 * half * float(np.mean(r2 / (1.0 + r2)))
    else:
        # No closed form: per-sample radial inversion (slow; intended for small n).
        g = float(
            -np.mean(
                [stable_core.log_pdf_reference(ref, v) for v in vals]
            )
        )
        dg = None
    return (g, dg) if slope else g


def _solve_monotone(fn, s0: float, tol: float) -> StrengthSolution:
    """Root of a non-increasing fn(s) by safeguarded Newton in t = ln s.

    fn(s) returns (value, slope) with slope = d value / d ln s, or None for
    the slope where none is at hand; the secant through the last two
    iterates then stands in for it.  One call is one evaluation.

    With slopes at the last two iterates, the step is the root of the local
    quadratic whose curvature is their difference quotient: it has the sign
    of the Newton step and up to twice its length, and converges faster.
    A step is clamped to +-ln 4.  Until the values change sign, a slope
    that is not negative and finite gives a full step towards the root, and
    BracketFailure is raised after _BRACKET_BUDGET such steps.  Once the
    root is bracketed, a step that leaves the bracket, that would not halve
    the step before the last one, or that has no usable slope is replaced
    by bisection in ln s.

    The last evaluated point is returned, with its measured residual, once
    its own Newton step is below _ROOT_STEP in ln s, or once the Newton
    step to it was small enough that quadratic convergence leaves it at
    machine precision.  Either way its residual must be at most tol, or the
    iteration goes on until it is or the bracket closes at machine
    precision.
    """
    evals = 0
    t = math.log(s0)
    lo = hi = None  # ln s of the closest points with fn > 0 and fn < 0
    prev = None  # (t, value, slope or None) of the previous iterate
    step = step_before = math.inf
    modelled = False  # whether the step to t came from a slope
    steps_unbracketed = 0
    while True:
        value, slope = fn(math.exp(t))
        evals += 1
        value = float(value)
        if math.isnan(value):
            raise BracketFailure(f"the function is NaN at s = {math.exp(t)!r}")
        if value == 0.0:
            lo = hi = t
            break
        if value > 0.0:
            lo = t
        else:
            hi = t
        known = None if slope is None else float(slope)
        curvature = None
        if known is None:
            if prev is not None and t != prev[0]:
                slope = (value - prev[1]) / (t - prev[0])
            # the secant converges superlinearly, not quadratically: the
            # step test takes the product of its last two steps
            settled = abs(step) * abs(step_before)
        else:
            slope = known
            if prev is not None and prev[2] is not None and t != prev[0]:
                curvature = (slope - prev[2]) / (t - prev[0])
            settled = step * step
        usable = slope is not None and math.isfinite(slope) and slope < 0.0
        if abs(value) <= tol and (
            (usable and abs(value / slope) <= _ROOT_STEP)
            or (modelled and settled <= _NEWTON_DONE ** 2)
        ):
            break
        bracketed = lo is not None and hi is not None
        if bracketed and abs(hi - lo) <= 4.0 * np.finfo(float).eps * max(1.0, abs(t)):
            break
        prev = (t, value, known)
        new = None
        if usable:
            new = -value / slope
            if curvature is not None:
                disc = slope * slope - 2.0 * curvature * value
                if 0.0 <= disc < math.inf:
                    new = 2.0 * value / (math.sqrt(disc) - slope)
            if bracketed and not (min(lo, hi) < t + new < max(lo, hi)
                                  and abs(new) <= 0.5 * abs(step_before)):
                new = None
        step_before = step
        modelled = new is not None
        if bracketed and new is None:
            new = 0.5 * (lo + hi) - t
        elif not bracketed:
            steps_unbracketed += 1
            if steps_unbracketed > _BRACKET_BUDGET:
                raise BracketFailure(
                    "no sign change found while stepping "
                    + ("upward" if value > 0.0 else "downward")
                )
            if new is None:
                new = _STEP_LIMIT if value > 0.0 else -_STEP_LIMIT
            new = max(-_STEP_LIMIT, min(_STEP_LIMIT, new))
        step = new
        t += step
    root = math.exp(t)
    bracket = tuple(math.exp(x) if x is not None else root for x in (lo, hi))
    return StrengthSolution(root, abs(value), bracket, evals)


def solve_strength(source: SourceSpec, alpha: float, tol: float = DEFAULT_TOL) -> StrengthSolution:
    """Solve g(s) = h(ref) for the strength of the source at index alpha."""
    if source.is_zero:
        return StrengthSolution(0.0, 0.0, (0.0, 0.0), 0)
    h = stable_core.reference_entropy(ReferenceLaw(alpha, source.dim))
    s0 = source.start_scale
    if not s0 > 0.0:
        s0 = 1.0

    def fn(s):
        g, dg = g_value(source, alpha, s, slope=True)
        return g - h, dg

    return _solve_monotone(fn, s0, tol)


def strength_closed_form(alpha: float, gamma: float) -> float:
    """Strength of a symmetric stable law: alpha^(1/alpha) * gamma."""
    if not 0.0 < alpha <= 2.0:
        raise ValueError("alpha must lie in (0, 2]")
    if not gamma > 0.0:
        raise ValueError("gamma must be positive")
    return alpha ** (1.0 / alpha) * gamma


def cb_strength(source: SourceSpec, d: int = 1, tol: float = DEFAULT_TOL) -> float:
    """Cauchy-based strength: the unique s with E[ln(1 + ||X||^2/s^2)] equal to
    ln 4 + psi((d+1)/2) + euler_gamma (which reduces to ln 4 when d = 1)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if source.is_zero:
        return 0.0
    rhs = math.log(4.0) + digamma((d + 1.0) / 2.0) + np.euler_gamma
    if isinstance(source, EmpiricalSource) and source.batch.values.ndim == 2:
        vals = source.batch.values
        if vals.shape[1] != d:
            raise ValueError("sample dimension does not match d")
        r2 = np.einsum("ij,ij->i", vals, vals)

        def fn(s):
            q = r2 / (s * s)
            return float(np.mean(np.log1p(q))) - rhs, -2.0 * float(np.mean(q / (1.0 + q)))
    else:
        if d != 1:
            raise ValueError("d >= 2 requires d-dimensional samples")

        def psi(z):
            q = z ** 2
            return np.stack([np.log1p(q), -2.0 * q / (1.0 + q)])

        G = _g_of_partition(np.zeros(1), np.empty(0), source, psi)

        def fn(s):
            return G(s) - (rhs, 0.0)

    s0 = source.start_scale
    if not s0 > 0.0:
        s0 = 1.0
    return _solve_monotone(fn, s0, tol).value


def strength_of_uniform(alpha: float, tol: float = DEFAULT_TOL) -> float:
    """Strength of Uniform(-1/2, 1/2) at index alpha.

    alpha = 2 is sqrt(1/12) exactly; alpha = 1 solves the closed arctan
    equation; other indices run the generic solver against the reference
    log-density.
    """
    if not 0.0 < alpha <= 2.0:
        raise ValueError("alpha must lie in (0, 2]")
    if alpha == 2.0:
        return 1.0 / math.sqrt(12.0)
    if alpha == 1.0:
        def fn(s):
            # the slope in ln s of ln(1 + 1/(4 s^2)) + 4 s arctan(1/(2 s)) is
            # 4 s arctan(1/(2 s)) - 2
            arc = 4.0 * s * math.atan(1.0 / (2.0 * s))
            return math.log1p(1.0 / (4.0 * s * s)) - 2.0 + arc - math.log(4.0), arc - 2.0

        return _solve_monotone(fn, 0.5, tol).value
    return solve_strength(UniformSource(0.5), alpha, tol=tol).value
