"""The alpha-power ("strength") of scalar and sampled sources.

The strength of X at index alpha is the unique s > 0 with

    g(s) = -E[log f_ref(X / s)] = h(ref),

where `ref` is the reference symmetric stable law of `stable_core`.  g is
non-increasing and continuous in s, so the root is found by geometric
bracket expansion followed by Brent's method.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Union

import numpy as np
from scipy import integrate, optimize
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
_BRACKET_FACTOR = 4.0
_BRACKET_BUDGET = 60


class _Source:
    """The protocol every source kind implements, with the shared defaults.

    Every kind has `dim`, `is_zero`, `scale` (for panel placement), `start_scale`
    (where strength root solves start), `tail_k`, `expect(phi)` and
    `abs_quantile(p)`.  Density-backed kinds also have `support`,
    `core_extent` (beyond it a kind's own tail handling takes over),
    `breakpoints`, `pdf_vec(x)`, `mass(a, b)`, `tail_mass(x)`,
    `tail_integral(phi, x0)` (the whole integral of f phi over (x0, infinity)
    for x0 >= core_extent and a phi of log growth, remainder included; a
    stable kind's tail mass and expectation take their tails from it) and
    `reflected` (the source of -X; a symmetric kind returns itself).  A new
    kind implements these on its own class; the strength and quantizer code
    calls only them.
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
        return standard_density(p.alpha).tail_constant() * p.gamma ** p.alpha

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

    def expect(self, phi_vec) -> float:
        """E[phi(X)] for an even, log-growth phi."""
        g_s = self.params.gamma
        eng = standard_density(self.params.alpha)

        def core_fn(t):
            return eng.pdf_vec(t) * phi_vec(g_s * t)

        edges = np.concatenate([[0.0], np.geomspace(1e-13, stable_core.TAIL_CUTOFF, 90)])
        core = stable_core._panel_integral(core_fn, edges)
        return 2.0 * (core + self.tail_integral(phi_vec, self.core_extent))


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

    def expect(self, phi_vec) -> float:
        vals = self.batch.values
        if vals.ndim != 1:
            raise ValueError("scalar expectation requires 1-d samples")
        return float(np.mean(phi_vec(vals)))

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
            if abs(piece) < 1e-13 * max(abs(total), 1.0):
                return total
            if k > 6 and abs(piece) > prev:
                raise NonFiniteLogMoment(
                    "tail integral fails to decay; log-moment proxy diverges"
                )
            prev = abs(piece)
            a = b
        raise NonFiniteLogMoment("tail integral did not converge within the doubling budget")

    def expect(self, phi_vec) -> float:
        """E[phi(X)] with divergence detection.

        Adaptive quadrature covers the support within |x| <= 64; infinite ends
        beyond go through `tail_integral`, the lower one on the reflection.
        """
        lo, hi = self.support
        f = self.density
        c = 64.0
        a = lo if math.isfinite(lo) else -c
        b = hi if math.isfinite(hi) else c
        total, _ = integrate.quad(
            lambda x: f(x) * float(phi_vec(np.asarray([x], dtype=float))[0]), a, b,
            limit=300, epsabs=1e-12, epsrel=1e-10,
        )
        if b < hi:
            total += self.tail_integral(phi_vec, b)
        if a > lo:
            total += self.reflected.tail_integral(lambda x: phi_vec(-x), -a)
        if not math.isfinite(total):
            raise NonFiniteLogMoment("expectation evaluated to a non-finite value")
        return total


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

    def expect(self, phi_vec) -> float:
        w = self.half_width
        edges = np.concatenate([[0.0], np.geomspace(w * 1e-13, w, 60)])
        return stable_core._panel_integral(phi_vec, edges) / w

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
# the negative reference log-density and expectation machinery


def reference_neg_log_density(alpha: float):
    """Vectorized psi(z) = -log f_ref(z) for the d = 1 reference at index alpha."""
    ref_scale = (1.0 / alpha) ** (1.0 / alpha)
    eng = standard_density(alpha)
    log_scale = math.log(ref_scale)

    def psi(z):
        return log_scale - eng.log_pdf_vec(np.asarray(z, dtype=float) / ref_scale)

    return psi


# ---------------------------------------------------------------------------
# g and the strength solver


def g_value(source: SourceSpec, alpha: float, s: float) -> float:
    """g(s) = -E[log f_ref(X / s)] in nats."""
    if not s > 0.0:
        raise ValueError("s must be positive")
    d = source.dim
    if d == 1:
        if alpha == 2.0 and source.tail_k > 0.0:
            raise NonFiniteLogMoment(
                "a heavy-tailed source has no finite second moment, so g "
                "diverges at alpha = 2"
            )
        psi = reference_neg_log_density(alpha)
        return source.expect(lambda x: psi(np.asarray(x) / s))
    # d-dimensional empirical path
    ref = ReferenceLaw(alpha, d)
    vals = source.batch.values / s
    r2 = np.einsum("ij,ij->i", vals, vals)
    if alpha == 2.0:
        return float(np.mean(0.5 * r2 + (d / 2.0) * math.log(2.0 * math.pi)))
    if alpha == 1.0:
        half = (d + 1.0) / 2.0
        return float(
            np.mean(
                half * math.log(math.pi)
                - gammaln(half)
                + half * np.log1p(r2)
            )
        )
    # No closed form: per-sample radial inversion (slow; intended for small n).
    return float(
        -np.mean(
            [stable_core.log_pdf_reference(ref, v) for v in vals]
        )
    )


def _solve_monotone(fn, s0: float, tol: float, tight: bool = False) -> StrengthSolution:
    """Root of a non-increasing fn(s) by geometric bracketing + Brent.

    `tight` starts with small expansion steps, for callers whose s0 is a warm
    guess (e.g. a neighbouring grid point's root).
    """
    evals = [0]

    def f(s):
        evals[0] += 1
        return fn(s)

    def factors():
        if tight:
            yield 1.02
            yield 1.3
        while True:
            yield _BRACKET_FACTOR

    v0 = f(s0)
    if v0 == 0.0:
        return StrengthSolution(s0, 0.0, (s0, s0), evals[0])
    lo = hi = s0
    vlo = vhi = v0
    steps = factors()
    if v0 > 0.0:  # root lies at larger s
        for _ in range(_BRACKET_BUDGET):
            lo, vlo = hi, vhi
            hi *= next(steps)
            vhi = f(hi)
            if vhi <= 0.0:
                break
        else:
            raise BracketFailure("no sign change found while expanding upward")
    else:
        for _ in range(_BRACKET_BUDGET):
            hi, vhi = lo, vlo
            lo /= next(steps)
            vlo = f(lo)
            if vlo >= 0.0:
                break
        else:
            raise BracketFailure("no sign change found while expanding downward")
    rtol = max(4.0 * np.finfo(float).eps, min(1e-12, tol * 1e-3))
    root = optimize.brentq(f, lo, hi, xtol=1e-300, rtol=rtol)
    residual = abs(f(root))
    # Brent at machine rtol leaves the residual far below tol in practice;
    # fall back to bisection against the residual if it somehow does not.
    a, b = lo, hi
    while residual > tol and (b - a) > 1e-17 * b:
        mid = 0.5 * (a + b)
        vm = f(mid)
        if abs(vm) < residual:
            root, residual = mid, abs(vm)
        if vm > 0.0:
            a = mid
        else:
            b = mid
    return StrengthSolution(float(root), float(residual), (float(lo), float(hi)), evals[0])


def solve_strength(source: SourceSpec, alpha: float, tol: float = DEFAULT_TOL) -> StrengthSolution:
    """Solve g(s) = h(ref) for the strength of the source at index alpha."""
    if source.is_zero:
        return StrengthSolution(0.0, 0.0, (0.0, 0.0), 0)
    h = stable_core.reference_entropy(ReferenceLaw(alpha, source.dim))
    s0 = source.start_scale
    if not s0 > 0.0:
        s0 = 1.0
    return _solve_monotone(lambda s: g_value(source, alpha, s) - h, s0, tol)


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
            return float(np.mean(np.log1p(r2 / (s * s)))) - rhs
    else:
        if d != 1:
            raise ValueError("d >= 2 requires d-dimensional samples")

        def fn(s):
            return source.expect(lambda x: np.log1p((np.asarray(x) / s) ** 2)) - rhs

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
            return (
                math.log1p(1.0 / (4.0 * s * s))
                - 2.0
                + 4.0 * s * math.atan(1.0 / (2.0 * s))
                - math.log(4.0)
            )

        return float(optimize.brentq(fn, 1e-8, 10.0, xtol=1e-16, rtol=8.9e-16))
    return solve_strength(UniformSource(0.5), alpha, tol=tol).value
