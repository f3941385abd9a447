"""Univariate and sub-Gaussian stable laws.

Characteristic functions, density evaluation by characteristic-function
inversion, reference log-densities and entropies, Chambers-Mallows-Stuck
sampling, and the closed algebra (scaling, shifting, independent addition).

Scale/skew conventions follow the characteristic function

    phi(w) = exp[i d w - g^a (1 - i b sgn(w) Phi(w)) |w|^a],

with Phi(w) = tan(pi a / 2) for a != 1 and -(2/pi) ln|w| for a = 1.  Under
this convention a symmetric 2-stable with scale g is N(0, 2 g^2) and a
symmetric 1-stable with scale g is Cauchy with half-width g.

All logarithms are natural; entropies are in nats.
"""

from __future__ import annotations

import cmath
import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate
from scipy.interpolate import CubicSpline
from scipy.special import gammaln, digamma, jv

from .errors import AlphaMismatch, QuadratureFailure, ZeroScale

__all__ = [
    "StableParams",
    "ReferenceLaw",
    "SampleBatch",
    "char_fn",
    "pdf",
    "log_pdf_reference",
    "reference_entropy",
    "sample",
    "add_independent",
    "scale_shift",
]

# Inversion integrals are truncated where exp(-t^alpha) <= exp(-_LOG_EPS).
_LOG_EPS = 45.0
# |x| / gamma beyond which the power-law tail series replaces quadrature.
TAIL_CUTOFF = 30.0

_QUAD_EPSABS = 1e-13
_QUAD_EPSREL = 1e-11


@dataclass(frozen=True)
class StableParams:
    """Parameter quadruple (alpha, beta, gamma, delta) of a univariate stable law."""

    alpha: float
    beta: float = 0.0
    gamma: float = 1.0
    delta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "delta", float(self.delta))
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must lie in (0, 2], got {self.alpha}")
        if not -1.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [-1, 1], got {self.beta}")
        if not self.gamma > 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not math.isfinite(self.delta):
            raise ValueError("delta must be finite")
        if self.alpha == 2.0 and self.beta != 0.0:
            raise ValueError("skewness is undefined for alpha = 2")

    @property
    def is_symmetric(self) -> bool:
        return self.beta == 0.0 and self.delta == 0.0


@dataclass(frozen=True)
class ReferenceLaw:
    """The reference symmetric stable vector used inside the strength definition.

    Its scale is pinned to (1/alpha)^(1/alpha); with that choice the law has
    strength exactly 1.  For d = 1, alpha = 1 it is the standard Cauchy and
    for alpha = 2 each component is standard normal.
    """

    alpha: float
    d: int = 1

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must lie in (0, 2], got {self.alpha}")
        if not (isinstance(self.d, (int, np.integer)) and self.d >= 1):
            raise ValueError("dimension d must be a positive integer")
        object.__setattr__(self, "d", int(self.d))

    @property
    def scale(self) -> float:
        return (1.0 / self.alpha) ** (1.0 / self.alpha)

    @property
    def entropy(self) -> float:
        return reference_entropy(self)


@dataclass(frozen=True)
class SampleBatch:
    """Reproducible i.i.d. draws: same seed and parameters give the same values."""

    values: np.ndarray
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))


# ---------------------------------------------------------------------------
# characteristic function


def char_fn(params: StableParams, omega: float) -> complex:
    """Characteristic function E[exp(i omega X)] of the stable law."""
    w = float(omega)
    if w == 0.0:
        return 1.0 + 0.0j
    if params.alpha == 1.0:
        phi = -(2.0 / math.pi) * math.log(abs(w))
    else:
        phi = math.tan(math.pi * params.alpha / 2.0)
    sgn = 1.0 if w > 0 else -1.0
    exponent = (
        1j * params.delta * w
        - params.gamma ** params.alpha
        * (1.0 - 1j * params.beta * sgn * phi)
        * abs(w) ** params.alpha
    )
    return cmath.exp(exponent)


# ---------------------------------------------------------------------------
# standard symmetric density engine
#
# Everything symmetric reduces to the standard density
#     f0(u; alpha) = (1/pi) * int_0^inf exp(-t^alpha) cos(t u) dt,
# evaluated by one of three routes:
#   * a fixed composite Gauss-Legendre rule on [0, T], graded geometrically
#     towards the t^alpha cusp at 0 and vectorized over u, when the envelope
#     dies before many oscillations occur (n_osc = T u / pi <= 8);
#   * QUADPACK's Fourier-weight rule (cycle splitting + extrapolation over
#     the zeros of cos) when the integrand oscillates many times;
#   * a non-oscillatory Zolotarev-form integral as fallback where both
#     Fourier routes degrade (tiny |u| at small alpha, where the density
#     has a sharp integrable spike).
# Beyond |u| = TAIL_CUTOFF the power-tail series takes over:
#     f0(u) = (1/pi) sum_{k>=1} (-1)^{k-1} Gamma(a k + 1)/k! sin(k pi a/2) u^{-a k - 1}
# (convergent for alpha < 1, asymptotic with certified truncation otherwise).


def _quad_result(out, epsabs):
    value, abserr = out[0], out[1]
    ok = len(out) == 3 or abserr <= max(epsabs * 100.0, abs(value) * 1e-7)
    if not math.isfinite(value):
        ok = False
    return value, abserr, ok


# The plain route's rule: panels [0] + geomspace(T 1e-18, T, 48) with 32
# Gauss-Legendre nodes each; the 16-node rule on the same panels gives the
# embedded error estimate.  The first panel must be short enough that the
# t^alpha cusp in it is resolved down to alpha = 0.1; T 1e-16 leaves it
# unresolved below alpha 0.115.  u is processed in blocks to bound the
# temporaries.
_PLAIN_PANELS = 48
_PLAIN_BLOCK = 64


def _n_osc(alpha: float, u):
    """Half-periods of cos(t u) over the inversion range [0, T]."""
    return _LOG_EPS ** (1.0 / alpha) * u / math.pi


def _pdf0_plain_vec(alpha: float, u) -> np.ndarray:
    """f0 at each u > 0 by the fixed graded rule; NaN where it is not accepted.

    A value is accepted when the 32- and 16-node sums agree to
    max(_QUAD_EPSABS, _QUAD_EPSREL |v|) and are positive.
    """
    u = np.asarray(u, dtype=float)
    T = _LOG_EPS ** (1.0 / alpha)
    edges = np.concatenate([[0.0], np.geomspace(T * 1e-18, T, _PLAIN_PANELS)])
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    rules = []
    for n in (32, 16):
        xg, wg = _gauss_legendre(n)
        t = (mid + half * xg).ravel()
        rules.append((t, (half * wg).ravel() * np.exp(-(t ** alpha))))
    (t32, w32), (t16, w16) = rules
    out = np.empty(u.shape)
    for i in range(0, u.size, _PLAIN_BLOCK):
        ub = u[i:i + _PLAIN_BLOCK, None]
        v32 = np.cos(ub * t32) @ w32
        v16 = np.cos(ub * t16) @ w16
        tol = np.maximum(_QUAD_EPSABS, _QUAD_EPSREL * np.abs(v32))
        ok = (np.abs(v32 - v16) <= tol) & (v32 > 0.0)
        out[i:i + _PLAIN_BLOCK] = np.where(ok, v32 / math.pi, np.nan)
    return out


def _pdf0_qawf(alpha: float, u: float):
    out = integrate.quad(
        lambda t: math.exp(-(t ** alpha)),
        0.0,
        np.inf,
        weight="cos",
        wvar=u,
        epsabs=_QUAD_EPSABS,
        limit=400,
        full_output=1,
    )
    return _quad_result(out, _QUAD_EPSABS)


def _pdf0_zolotarev(alpha: float, u: float) -> float:
    # Non-oscillatory representation for symmetric stable, alpha != 1, u > 0:
    #   f0(u) = a/(pi |a-1| u) * int_0^{pi/2} g(th) exp(-g(th)) dth,
    #   g(th) = u^{a/(a-1)} V(th),
    #   V(th) = (cos th / sin(a th))^{a/(a-1)} cos((a-1) th)/cos th.
    c = alpha / (alpha - 1.0)
    uc = u ** c

    def integrand(th):
        ct = math.cos(th)
        base = ct / math.sin(alpha * th)
        g = uc * base ** c * math.cos((alpha - 1.0) * th) / ct
        if g <= 0.0 or not math.isfinite(g):
            return 0.0
        return g * math.exp(-g)

    out = integrate.quad(
        integrand, 0.0, math.pi / 2.0, epsabs=1e-14, epsrel=1e-12, limit=300,
        full_output=1,
    )
    value, _, ok = _quad_result(out, 1e-14)
    f = value * alpha / (math.pi * abs(alpha - 1.0) * u)
    # The quadrature can miss the narrow peak of g exp(-g) and return a tiny
    # value with a tiny error estimate, so check against the lower bound
    # from cos x >= 1 - x^2 / 2.
    if not (ok and math.isfinite(f) and f > 0.0 and f >= (1.0 - 1e-6) * _pdf0_floor(alpha, u)):
        raise QuadratureFailure(
            f"stable density inversion failed at alpha={alpha}, u={u}"
        )
    return f


def _pdf0_floor(alpha: float, u: float) -> float:
    """f0(0) - u^2 Gamma(3/alpha) / (2 pi alpha), a lower bound on f0(u)."""
    log_f00 = gammaln(1.0 + 1.0 / alpha) - math.log(math.pi)
    log_drop = gammaln(3.0 / alpha) + 2.0 * math.log(u) - math.log(2.0 * math.pi * alpha)
    if log_drop >= log_f00:
        return 0.0
    return math.exp(log_f00) - math.exp(log_drop)


def _pdf0_quadrature(alpha: float, u: float) -> float:
    """Standard symmetric density at u by characteristic-function inversion."""
    u = abs(float(u))
    if u == 0.0:
        return math.exp(gammaln(1.0 + 1.0 / alpha)) / math.pi
    if _n_osc(alpha, u) <= 8.0:
        f = float(_pdf0_plain_vec(alpha, np.array([u]))[0])
        if f > 0.0:
            return f
        ok = False
    else:
        value, _, ok = _pdf0_qawf(alpha, u)
        if ok and value > 0.0:
            return value / math.pi
    if alpha != 1.0:
        return _pdf0_zolotarev(alpha, u)
    if ok:
        return max(value, 0.0) / math.pi
    raise QuadratureFailure(f"stable density inversion failed at alpha={alpha}, u={u}")


# The series stops at this index, or once a term's envelope ratio is below 1e-18.
_TAIL_TERMS = 400
_LOG_TAIL_STOP = math.log(1e-18)


@lru_cache(maxsize=64)
def _tail_coefficients(alpha: float):
    """The alpha-only parts of the power-tail series, computed once per alpha.

    Returns (lead, terms): lead is the log of the first-order coefficient and
    terms holds (coef, log_env, slope) for k = 2.._TAIL_TERMS-1, so that the
    k-th term relative to the first is coef * exp(log_env - slope * ln u).
    Keep each expression and its operation order as it is: the series sums
    must be bit-identical to evaluating every term in full.
    """
    lead = gammaln(alpha + 1.0) + math.log(abs(math.sin(math.pi * alpha / 2.0))) \
        - math.log(math.pi)
    s1 = math.sin(math.pi * alpha / 2.0)
    terms = tuple(
        (
            (-1.0) ** (k - 1) * (math.sin(k * math.pi * alpha / 2.0) / s1),
            float(gammaln(alpha * k + 1.0) - gammaln(k + 1.0) - gammaln(alpha + 1.0)),
            alpha * (k - 1),
        )
        for k in range(2, _TAIL_TERMS)
    )
    return lead, terms


def _log_pdf0_tail(alpha: float, u) -> np.ndarray:
    """log f0(u) for |u| >= TAIL_CUTOFF via the power-tail series (vectorized)."""
    u = np.abs(np.asarray(u, dtype=float))
    log_u = np.log(u)
    lead, terms = _tail_coefficients(float(alpha))
    # First-order term in log space, then log1p of the summed correction ratio.
    log_t1 = lead - (alpha + 1.0) * log_u
    corr = np.zeros_like(u)
    umin_log = float(np.min(log_u))
    last_env = math.inf
    for coef, log_env, slope in terms:
        # envelope ratio to the leading term, at the smallest |u| present
        log_env_min = log_env - slope * umin_log
        if log_env_min > last_env:
            break  # asymptotic series started diverging; stop at best term
        last_env = log_env_min
        if coef != 0.0:  # sin(k pi a/2) vanishes
            corr += coef * np.exp(log_env - slope * log_u)
        if log_env_min < _LOG_TAIL_STOP:
            break
    return log_t1 + np.log1p(corr)


def _pdf0_tail(alpha: float, u) -> np.ndarray:
    return np.exp(_log_pdf0_tail(alpha, u))


class _StandardDensity:
    """Standard symmetric stable density f0(.; alpha) with a cached log table.

    Scalar `pdf`/`log_pdf` use the accurate quadrature/series routes.  The
    vectorized `log_pdf_vec` interpolates a cubic spline of log f0 against
    ln u (built lazily from the accurate route) and is the workhorse behind
    the strength and quantizer integrands.
    """

    TABLE_FLOOR = 1e-14
    TABLE_NODES = 2400

    def __init__(self, alpha: float):
        self.alpha = float(alpha)
        self._lock = threading.Lock()
        self._spline = None

    # -- accurate scalar routes -------------------------------------------

    def pdf(self, u: float) -> float:
        a = self.alpha
        u = abs(float(u))
        if a == 2.0:
            return math.exp(-u * u / 4.0) / math.sqrt(4.0 * math.pi)
        if a == 1.0:
            return 1.0 / (math.pi * (1.0 + u * u))
        if u >= TAIL_CUTOFF:
            return float(_pdf0_tail(a, u))
        return _pdf0_quadrature(a, u)

    def log_pdf(self, u: float) -> float:
        a = self.alpha
        u = abs(float(u))
        if a == 2.0:
            return -u * u / 4.0 - 0.5 * math.log(4.0 * math.pi)
        if a == 1.0:
            return -math.log(math.pi) - math.log1p(u * u)
        if u >= TAIL_CUTOFF:
            return float(_log_pdf0_tail(a, u))
        return math.log(_pdf0_quadrature(a, u))

    # -- fast vectorized route --------------------------------------------

    def _build_table(self):
        t = np.linspace(
            math.log(self.TABLE_FLOOR), math.log(TAIL_CUTOFF), self.TABLE_NODES
        )
        u = np.exp(t)
        f = np.full_like(u, np.nan)
        plain = _n_osc(self.alpha, u) <= 8.0
        f[plain] = _pdf0_plain_vec(self.alpha, u[plain])
        for i in np.flatnonzero(np.isnan(f)):
            f[i] = _pdf0_quadrature(self.alpha, u[i])
        vals = np.array([math.log(v) for v in f])
        return CubicSpline(t, vals, bc_type="not-a-knot")

    def log_pdf_vec(self, u) -> np.ndarray:
        a = self.alpha
        u = np.abs(np.asarray(u, dtype=float))
        if a == 2.0:
            return -u * u / 4.0 - 0.5 * math.log(4.0 * math.pi)
        if a == 1.0:
            return -math.log(math.pi) - np.log1p(u * u)
        if self._spline is None:
            with self._lock:
                if self._spline is None:
                    self._spline = self._build_table()
        out = np.empty_like(u)
        tiny = u < self.TABLE_FLOOR
        tail = u >= TAIL_CUTOFF
        core = ~tiny & ~tail
        if np.any(tiny):
            out[tiny] = math.log(self.pdf(0.0))
        if np.any(core):
            out[core] = self._spline(np.log(u[core]))
        if np.any(tail):
            out[tail] = _log_pdf0_tail(a, u[tail])
        return out

    def pdf_vec(self, u) -> np.ndarray:
        return np.exp(self.log_pdf_vec(u))

    def tail_constant(self) -> float:
        """k with f0(u) ~ k u^-(alpha+1); the first-order tail coefficient."""
        a = self.alpha
        if a == 2.0:
            return 0.0
        return math.exp(gammaln(a + 1.0)) * math.sin(math.pi * a / 2.0) / math.pi


_DENSITY_CACHE: dict[float, _StandardDensity] = {}
_DENSITY_CACHE_LOCK = threading.Lock()


def standard_density(alpha: float) -> _StandardDensity:
    """Shared per-alpha standard density engine (read-only after creation)."""
    key = float(alpha)
    eng = _DENSITY_CACHE.get(key)
    if eng is None:
        with _DENSITY_CACHE_LOCK:
            eng = _DENSITY_CACHE.setdefault(key, _StandardDensity(key))
    return eng


# ---------------------------------------------------------------------------
# public density


def _pdf_skewed_quadrature(params: StableParams, x: float) -> float:
    # General-beta inversion: f(x) = (1/(pi g)) int_0^inf e^{-t^a} cos(v t - b(t)) dt
    # with v = (x - d)/g and phase b per the characteristic function.
    a, b, g, d = params.alpha, params.beta, params.gamma, params.delta
    v = (x - d) / g
    if a != 1.0:
        bc = b * math.tan(math.pi * a / 2.0)

        def integrand(t):
            return math.exp(-(t ** a)) * math.cos(v * t - bc * t ** a)
    else:
        lg = math.log(g)

        def integrand(t):
            if t <= 0.0:
                return 1.0  # t ln t -> 0, so the phase vanishes at the origin
            phase = v * t + (2.0 / math.pi) * b * t * (math.log(t) - lg)
            return math.exp(-t) * math.cos(phase)

    T = _LOG_EPS ** (1.0 / a)
    out = integrate.quad(
        integrand, 0.0, T, epsabs=_QUAD_EPSABS, epsrel=_QUAD_EPSREL,
        limit=800, full_output=1,
    )
    value, abserr, ok = _quad_result(out, _QUAD_EPSABS)
    if not ok and abserr > 1e-9:
        raise QuadratureFailure(
            f"skewed density inversion failed at {params}, x={x}"
        )
    return max(value, 0.0) / (math.pi * g)


def pdf(params: StableParams, x: float) -> float:
    """Density of the stable law at x.

    Closed forms for alpha in {1, 2} with beta = 0; characteristic-function
    inversion otherwise, switching to the power-tail series deep in the tails.
    """
    x = float(x)
    if params.beta == 0.0:
        a, g, d = params.alpha, params.gamma, params.delta
        u = (x - d) / g
        if a == 2.0:
            sigma = g * math.sqrt(2.0)
            return math.exp(-0.5 * (x - d) ** 2 / sigma ** 2) / (
                sigma * math.sqrt(2.0 * math.pi)
            )
        if a == 1.0:
            return g / (math.pi * (g * g + (x - d) ** 2))
        if abs(u) >= TAIL_CUTOFF:
            return float(_pdf0_tail(a, u)) / g
        return _pdf0_quadrature(a, u) / g
    return _pdf_skewed_quadrature(params, x)


def _pdf_by_inversion(params: StableParams, x: float) -> float:
    """Force the numerical-inversion route even where closed forms exist."""
    if params.beta != 0.0:
        return _pdf_skewed_quadrature(params, x)
    u = (float(x) - params.delta) / params.gamma
    if abs(u) >= TAIL_CUTOFF:
        return float(_pdf0_tail(params.alpha, u)) / params.gamma
    return _pdf0_quadrature(params.alpha, u) / params.gamma


# ---------------------------------------------------------------------------
# reference log-density and entropy


def _norm_sq(x) -> float:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        return float(arr) ** 2
    return float(np.dot(arr.ravel(), arr.ravel()))


def _log_pdf_reference_multid(ref: ReferenceLaw, r: float) -> float:
    """log density of the d-dimensional reference at radius r, alpha not in {1,2}.

    Radial Hankel inversion at reduced tolerance; accuracy beyond d = 2 is
    not guaranteed.
    """
    a, d, g = ref.alpha, ref.d, ref.scale
    nu = d / 2.0 - 1.0
    T = (_LOG_EPS ** (1.0 / a)) / g

    if r == 0.0:
        val = integrate.quad(
            lambda rho: math.exp(-((g * rho) ** a)) * rho ** (d - 1),
            0.0, T, epsabs=1e-11, epsrel=1e-9, limit=200,
        )[0]
        val *= (2.0 * math.pi) ** (-d / 2.0) / (2.0 ** nu * math.exp(gammaln(nu + 1.0)))
        return math.log(val)

    def integrand(rho):
        return math.exp(-((g * rho) ** a)) * rho ** (d / 2.0) * jv(nu, rho * r)

    pts = None
    if r * T > 2 * math.pi:
        n = min(int(r * T / math.pi), 60)
        pts = list((np.arange(1, n + 1) * math.pi + nu * math.pi / 2) / r)
        pts = [p for p in pts if p < T]
    out = integrate.quad(
        integrand, 0.0, T, points=pts or None, epsabs=1e-11, epsrel=1e-8,
        limit=400, full_output=1,
    )
    value, _, ok = _quad_result(out, 1e-11)
    if not ok or value <= 0.0:
        raise QuadratureFailure(
            f"d-dimensional reference density inversion failed at r={r}"
        )
    return math.log(value * (2.0 * math.pi) ** (-d / 2.0) * r ** (1.0 - d / 2.0))


def log_pdf_reference(ref: ReferenceLaw, x) -> float:
    """log f of the reference law at x (scalar for d = 1, length-d vector else)."""
    a, d = ref.alpha, ref.d
    if d == 1:
        u = float(np.asarray(x, dtype=float).reshape(()))
        g = ref.scale
        eng = standard_density(a)
        return eng.log_pdf(u / g) - math.log(g)
    r = math.sqrt(_norm_sq(x))
    if a == 2.0:
        return -0.5 * r * r - (d / 2.0) * math.log(2.0 * math.pi)
    if a == 1.0:
        # standard circular Cauchy
        return (
            gammaln((d + 1.0) / 2.0)
            - ((d + 1.0) / 2.0) * math.log(math.pi)
            - ((d + 1.0) / 2.0) * math.log1p(r * r)
        )
    return _log_pdf_reference_multid(ref, r)


@lru_cache(maxsize=None)
def _gauss_legendre(n: int = 16):
    """Gauss-Legendre nodes and weights on [-1, 1], shared and read-only."""
    xg, wg = np.polynomial.legendre.leggauss(n)
    xg.flags.writeable = False
    wg.flags.writeable = False
    return xg, wg


def _panel_integral(fn, edges: np.ndarray, n: int = 16) -> float:
    """Sum of Gauss-Legendre panel integrals of a vectorized fn over edges."""
    xg, wg = _gauss_legendre(n)
    a = edges[:-1]
    b = edges[1:]
    mid = 0.5 * (a + b)[:, None]
    half = 0.5 * (b - a)[:, None]
    nodes = mid + half * xg[None, :]
    vals = fn(nodes.ravel()).reshape(nodes.shape)
    return float(np.sum(vals * wg[None, :] * half))


def _tail_integral(alpha: float, g, u0: float, y_max: float, n_edges: int) -> float:
    """int_{u0}^{exp(y_max)} g(u, log f0(u)) du against the power-tail series.

    u0 >= TAIL_CUTOFF.  The range is cut into n_edges - 1 equal Gauss-Legendre
    panels in y = ln u; the caller adds its own remainder beyond exp(y_max).
    """

    def fn(y):
        u = np.exp(y)
        return g(u, _log_pdf0_tail(alpha, u)) * u

    return _panel_integral(fn, np.linspace(math.log(u0), y_max, n_edges))


def _standard_entropy(alpha: float) -> float:
    """Differential entropy of the standard symmetric stable density (gamma=1)."""
    if alpha == 2.0:
        # N(0, 2)
        return 0.5 * math.log(4.0 * math.pi * math.e)
    if alpha == 1.0:
        return math.log(4.0 * math.pi)
    eng = standard_density(alpha)

    def neg_flogf(u):
        lp = eng.log_pdf_vec(u)
        return -np.exp(lp) * lp

    # core: log-spaced panels resolve the peak for small alpha
    edges = np.concatenate(
        [[0.0], np.geomspace(1e-13, TAIL_CUTOFF, 120)]
    )
    core = _panel_integral(neg_flogf, edges)

    # tail out to where the integrand is ~1e-18 of the total
    y_max = (_LOG_EPS + 10.0) / alpha + math.log(TAIL_CUTOFF)
    tail = _tail_integral(alpha, lambda u, lp: -np.exp(lp) * lp, TAIL_CUTOFF, y_max, 80)

    # analytic first-order remainder beyond exp(y_max)
    X = math.exp(y_max)
    k = eng.tail_constant()
    rem = 2.0 * k * X ** (-alpha) * (
        (alpha + 1.0) * (math.log(X) / alpha + 1.0 / alpha ** 2)
        - math.log(k) / alpha
    )
    return 2.0 * (core + tail) + rem


def _multid_entropy(ref: ReferenceLaw) -> float:
    """Numerical entropy for d >= 2, alpha not in {1, 2}; reduced tolerance."""
    a, d = ref.alpha, ref.d
    surf = 2.0 * math.pi ** (d / 2.0) / math.exp(gammaln(d / 2.0))
    radii = np.concatenate([[1e-8], np.geomspace(1e-4, 60.0, 140)])
    logs = np.array([_log_pdf_reference_multid(ref, float(r)) for r in radii])
    spl = CubicSpline(radii, logs)

    def integrand(r):
        lp = spl(r)
        return -np.exp(lp) * lp * r ** (d - 1)

    edges = np.concatenate([[0.0], np.geomspace(1e-6, 60.0, 100)])
    core = _panel_integral(integrand, edges)
    # power-law continuation fitted at the boundary: log f ~ c0 - (a + d) ln r
    r1, r2 = 50.0, 60.0
    l1, l2 = spl(r1), spl(r2)
    slope = (l2 - l1) / (math.log(r2) - math.log(r1))
    c0 = l2 - slope * math.log(r2)

    def tail_integrand(y):
        r = np.exp(y)
        lp = c0 + slope * np.log(r)
        return -np.exp(lp) * lp * r ** d

    y_edges = np.linspace(math.log(60.0), math.log(60.0) + 60.0 / a, 80)
    tail = _panel_integral(tail_integrand, y_edges)
    return surf * (core + tail)


@lru_cache(maxsize=None)
def _reference_entropy_cached(alpha: float, d: int) -> float:
    if alpha == 2.0:
        return (d / 2.0) * math.log(2.0 * math.pi * math.e)
    if alpha == 1.0:
        half = (d + 1.0) / 2.0
        return (
            half * math.log(math.pi)
            - gammaln(half)
            + half * (math.log(4.0) + digamma(half) + np.euler_gamma)
        )
    if d == 1:
        scale = (1.0 / alpha) ** (1.0 / alpha)
        return _standard_entropy(alpha) + math.log(scale)
    return _multid_entropy(ReferenceLaw(alpha, d))


def reference_entropy(ref: ReferenceLaw) -> float:
    """Differential entropy h of the reference law, in nats (cached)."""
    return _reference_entropy_cached(ref.alpha, ref.d)


# ---------------------------------------------------------------------------
# sampling (Chambers-Mallows-Stuck)


def _cms_standard(alpha: float, beta: float, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    if alpha == 1.0:
        if beta == 0.0:
            return np.tan(v)
        hp = math.pi / 2.0
        return (2.0 / math.pi) * (
            (hp + beta * v) * np.tan(v)
            - beta * np.log((hp * w * np.cos(v)) / (hp + beta * v))
        )
    if beta == 0.0:
        av = alpha * v
        return (
            np.sin(av)
            / np.cos(v) ** (1.0 / alpha)
            * (np.cos(v - av) / w) ** ((1.0 - alpha) / alpha)
        )
    ta = math.tan(math.pi * alpha / 2.0)
    b0 = math.atan(beta * ta) / alpha
    s0 = (1.0 + beta * beta * ta * ta) ** (1.0 / (2.0 * alpha))
    av = alpha * (v + b0)
    return (
        s0
        * np.sin(av)
        / np.cos(v) ** (1.0 / alpha)
        * (np.cos(v - av) / w) ** ((1.0 - alpha) / alpha)
    )


def sample(params: StableParams, n: int, seed: int, d: int = 1) -> SampleBatch:
    """n i.i.d. draws via the Chambers-Mallows-Stuck transform.

    For d >= 2 the law must be symmetric (beta = delta = 0) and the draws are
    sub-Gaussian vectors sqrt(A) G with A totally skewed (alpha/2)-stable and
    G i.i.d. N(0, 2 gamma^2) components.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    a, b, g, dl = params.alpha, params.beta, params.gamma, params.delta
    if d == 1:
        v = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=n)
        w = rng.exponential(1.0, size=n)
        x = _cms_standard(a, b, v, w)
        if a == 1.0:
            x = g * x + dl + (2.0 / math.pi) * b * g * math.log(g)
        else:
            x = g * x + dl
        return SampleBatch(values=x, seed=int(seed))
    if b != 0.0 or dl != 0.0:
        raise ValueError("d >= 2 sampling requires a symmetric centered law")
    gvec = rng.normal(0.0, math.sqrt(2.0) * g, size=(n, d))
    if a == 2.0:
        return SampleBatch(values=gvec, seed=int(seed))
    ha = a / 2.0
    gam_a = math.cos(math.pi * a / 4.0) ** (2.0 / a)
    v = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=n)
    w = rng.exponential(1.0, size=n)
    avar = gam_a * _cms_standard(ha, 1.0, v, w)
    return SampleBatch(values=np.sqrt(avar)[:, None] * gvec, seed=int(seed))


# ---------------------------------------------------------------------------
# algebra of stable laws


def add_independent(p1: StableParams, p2: StableParams) -> StableParams:
    """Law of X1 + X2 for independent stable X1, X2 with equal alpha."""
    if p1.alpha != p2.alpha:
        raise AlphaMismatch(
            f"cannot add stability indices {p1.alpha} and {p2.alpha}"
        )
    a = p1.alpha
    g1a = p1.gamma ** a
    g2a = p2.gamma ** a
    gamma = (g1a + g2a) ** (1.0 / a)
    beta = (p1.beta * g1a + p2.beta * g2a) / (g1a + g2a)
    return StableParams(a, beta, gamma, p1.delta + p2.delta)


def scale_shift(params: StableParams, c: float = 1.0, shift: float = 0.0) -> StableParams:
    """Law of c X + shift, including the alpha = 1 logarithmic location term."""
    c = float(c)
    shift = float(shift)
    if c == 0.0:
        raise ZeroScale("scaling a stable variable by zero is degenerate")
    a = params.alpha
    beta = math.copysign(1.0, c) * params.beta if params.beta != 0.0 else 0.0
    gamma = abs(c) * params.gamma
    delta = c * params.delta
    if a == 1.0:
        delta -= (2.0 / math.pi) * c * params.gamma * params.beta * math.log(abs(c))
    return StableParams(a, beta, gamma, delta + shift)
