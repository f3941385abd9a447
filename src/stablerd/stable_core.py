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
# scipy.integrate and scipy.interpolate are imported by the functions that
# use them, so a process that stays at alpha 1 and 2 never loads them.
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
#     f0(u; alpha) = (1/pi) * int_0^inf exp(-t^alpha) cos(t u) dt.
# Below TAIL_CUTOFF two batched routes share one fixed-panel rule: 32
# Gauss-Legendre nodes on each panel, with the 16-node rule on the same panels
# as its error estimate.  With n_osc = T u / pi the half-periods of cos(t u)
# on the truncated range [0, T]:
#   * the Fourier route integrates on [0, T], on panels graded geometrically
#     towards the t^alpha cusp at 0.  It takes every u with n_osc <= 8, and
#     for |alpha - 1| <= _FOURIER_BAND every u below TAIL_CUTOFF.  Past
#     n_osc = 8 it cuts the panels further, _HALF_PERIOD_PANELS to each
#     half-period of the largest u of its block.
#   * the Zolotarev route takes every other u (alpha != 1):
#         f0(u) = a/(pi |a-1| u) * int_0^{pi/2} g(th) exp(-g(th)) dth,
#         g(th) = u^{a/(a-1)} (cos th / sin(a th))^{a/(a-1)} cos((a-1) th) / cos th
#     (J. P. Nolan, Commun. Statist. - Stochastic Models 13(4), 1997), split at
#     the peak th* where ln g = 0, on panels graded geometrically towards th*,
#     0 and pi/2.  Its integrand is positive, so unlike the Fourier sum it
#     does not cancel where f0 is small (alpha near 2, large u), but its ln g
#     loses about a/|a-1| ulps, hence the band around alpha = 1.
# A node whose two estimates disagree raises QuadratureFailure; nothing falls
# back.
# Beyond |u| = TAIL_CUTOFF the power-tail series takes over:
#     f0(u) = (1/pi) sum_{k>=1} (-1)^{k-1} Gamma(a k + 1)/k! sin(k pi a/2) u^{-a k - 1}
# (convergent for alpha < 1, asymptotic with certified truncation otherwise).


def _quad_result(out, epsabs):
    value, abserr = out[0], out[1]
    ok = len(out) == 3 or abserr <= max(epsabs * 100.0, abs(value) * 1e-7)
    if not math.isfinite(value):
        ok = False
    return value, abserr, ok


# The Fourier route's base panels are [0] + geomspace(T 1e-18, T, 48).  The
# first panel must be short enough that the t^alpha cusp in it is resolved
# down to alpha = 0.1; T 1e-16 leaves it unresolved below alpha 0.115.
_PLAIN_PANELS = 48
_PLAIN_OSC = 8.0
_FOURIER_BAND = 0.05
_HALF_PERIOD_PANELS = 2
# Depths of the Zolotarev route's geometric grading (see _zolotarev_block).
_ZOLOTAREV_DEPTH = 1e-11
_PEAK_DEPTH = 1e-4
_BISECTIONS = 64
# u per block.  With at most about 1,100 panels past n_osc = 8 on the Fourier
# route and 100 on the Zolotarev route, no temporary exceeds 64 u on the base
# panels' 1,536 nodes.
_PLAIN_BLOCK = 64
_FOURIER_BLOCK = 2
_ZOLOTAREV_BLOCK = 8


def _n_osc(alpha: float, u):
    """Half-periods of cos(t u) over the inversion range [0, T]."""
    return _LOG_EPS ** (1.0 / alpha) * u / math.pi


def _gl_block(edges: np.ndarray, weighted_sum):
    """The 32-node Gauss-Legendre integrals over the panels between edges (one
    row shared, or one per integral), and the 16-node ones as their estimate;
    weighted_sum(t, w) sums them from nodes t and weights w flattened per row.
    """
    mid = 0.5 * (edges[..., 1:] + edges[..., :-1])[..., None]
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])[..., None]
    shape = edges.shape[:-1] + (-1,)
    out = []
    for n in (32, 16):
        xg, wg = _gauss_legendre(n)
        out.append(weighted_sum((mid + half * xg).reshape(shape), (half * wg).reshape(shape)))
    return out


def _fourier_block(alpha: float, u: np.ndarray):
    """The (32-node, 16-node) values of f0 at a block of u, Fourier route."""
    T = _LOG_EPS ** (1.0 / alpha)
    edges = np.concatenate([[0.0], np.geomspace(T * 1e-18, T, _PLAIN_PANELS)])
    osc = _n_osc(alpha, float(u.max()))
    if osc > _PLAIN_OSC:
        edges = np.union1d(edges, np.linspace(0.0, T, math.ceil(_HALF_PERIOD_PANELS * osc) + 1))

    def weighted_sum(t, w):
        return np.cos(u[:, None] * t) @ (w * np.exp(-(t ** alpha))) / math.pi

    return _gl_block(edges, weighted_sum)


def _zolotarev_log_g(alpha: float, th, phi, log_uc):
    """ln g at th = pi/2 - phi of the Zolotarev integral, log_uc = ln u^{a/(a-1)}.

    The smaller of th and phi is taken as exact: cos th is sin phi, and
    sin(a th) is sin(pi (1 - a/2) + a phi) where phi is the smaller.
    """
    cos_th = np.sin(phi)
    sin_ath = np.sin(np.where(th < phi, alpha * th, math.pi * (1.0 - 0.5 * alpha) + alpha * phi))
    return log_uc + (alpha / (alpha - 1.0)) * np.log(cos_th / sin_ath) \
        + np.log(np.cos((alpha - 1.0) * th) / cos_th)


def _zolotarev_peak(alpha: float, u: np.ndarray) -> np.ndarray:
    """th* in (0, pi/2) where ln g = 0, by bisection on the monotone ln g."""
    log_uc = alpha / (alpha - 1.0) * np.log(u)
    lo = np.zeros_like(u)
    hi = np.full_like(u, 0.5 * math.pi)
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        # ln g increases with th for alpha < 1 and decreases for alpha > 1
        left = (_zolotarev_log_g(alpha, mid, 0.5 * math.pi - mid, log_uc) > 0.0) == (alpha < 1.0)
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
    # at alpha = 2 and u > 2, g > 1 throughout: the peak is the end pi/2
    return np.minimum(0.5 * (lo + hi), 0.5 * math.pi - _ZOLOTAREV_DEPTH)


def _graded(ratio: float, depth0: float, depth1: float) -> np.ndarray:
    """Edges of [0, 1], graded geometrically from 1/2 towards 0 down to depth0
    and towards 1 down to depth1."""
    n0, n1 = (math.ceil(1.0 + math.log(0.5 / d) / math.log(ratio)) for d in (depth0, depth1))
    to0, to1 = 0.5 * ratio ** -np.arange(n0), 0.5 * ratio ** -np.arange(1, n1)
    return np.concatenate([[0.0], to0[::-1], 1.0 - to1, [1.0]])


def _zolotarev_block(alpha: float, u: np.ndarray, peak: np.ndarray):
    """The (32-node, 16-node) values of f0 at a block of u, Zolotarev route,
    given the peaks th* of the block, all on one side of pi/4.

    The nodes lie in s = th, or in phi = pi/2 - th where the peaks are nearer
    pi/2.  [0, s*] and [s*, pi/2] are graded geometrically towards their
    ends: down to _ZOLOTAREV_DEPTH of the segment where g -> 0 (th = 0 for
    alpha < 1, pi/2 above), and down to _PEAK_DEPTH where g -> inf and either
    side of the peak, on its long side of s* itself.
    """
    flip = bool(peak[0] > 0.25 * math.pi)
    near = (0.5 * math.pi - peak if flip else peak)[:, None]
    # the ratio falls as the powers a/|a-1| and 1/|a-1| of g grow towards alpha = 1
    ratio = 1.0 + 4.0 / math.sqrt(max(alpha, 1.0) / abs(alpha - 1.0))
    zero, far = (_ZOLOTAREV_DEPTH, _PEAK_DEPTH) if (alpha < 1.0) != flip else (_PEAK_DEPTH, _ZOLOTAREV_DEPTH)
    s_min = float(near.min())
    short = _graded(ratio, zero, _PEAK_DEPTH)
    long = _graded(ratio, _PEAK_DEPTH * s_min / (math.pi - 2.0 * s_min), far)
    edges = np.concatenate([near * short[:-1], near + (0.5 * math.pi - near) * long], axis=1)
    log_uc = (alpha / (alpha - 1.0) * np.log(u))[:, None]

    def weighted_sum(s, w):
        other = 0.5 * math.pi - s
        th, phi = (other, s) if flip else (s, other)
        lg = np.minimum(_zolotarev_log_g(alpha, th, phi, log_uc), 700.0)
        return np.sum(np.exp(lg - np.exp(lg)) * w, axis=1)

    scale = alpha / (math.pi * abs(alpha - 1.0) * u)
    return [v * scale for v in _gl_block(edges, weighted_sum)]


def _pdf0_vec(alpha: float, u) -> np.ndarray:
    """f0 at each u > 0 below the tail, u ascending, by the batched routes.

    Raises QuadratureFailure, naming alpha and u, unless the 32- and 16-node
    values agree to max(_QUAD_EPSABS, _QUAD_EPSREL f0) and are positive.
    """
    u = np.asarray(u, dtype=float).ravel()
    plain_end = int(np.searchsorted(_n_osc(alpha, u), _PLAIN_OSC, side="right"))
    # Zolotarev's integral loses precision near alpha = 1 and has no form at 1
    fourier_end = u.size if abs(alpha - 1.0) <= _FOURIER_BAND else plain_end
    bounds = [plain_end, fourier_end, u.size]
    if fourier_end < u.size:
        peak = _zolotarev_peak(alpha, u[fourier_end:])
        # th* grows with u; past pi/4 the nodes are placed in pi/2 - th
        bounds.append(fourier_end + int(np.searchsorted(peak, 0.25 * math.pi, side="right")))
    f = np.empty(u.size)
    i = 0
    while i < u.size:
        # a block never crosses n_osc = 8, the route switch or th* = pi/4
        end = min(b for b in bounds if b > i)
        if i < fourier_end:
            j = min(end, i + (_PLAIN_BLOCK if i < plain_end else _FOURIER_BLOCK))
            f32, f16 = _fourier_block(alpha, u[i:j])
        else:
            j = min(end, i + _ZOLOTAREV_BLOCK)
            f32, f16 = _zolotarev_block(alpha, u[i:j], peak[i - fourier_end:j - fourier_end])
        ok = (np.abs(f32 - f16) <= np.maximum(_QUAD_EPSABS, _QUAD_EPSREL * np.abs(f32))) & (f32 > 0.0)
        if not np.all(ok):
            raise QuadratureFailure(
                f"stable density inversion failed at alpha={alpha}, u={u[i:j][~ok][0]}"
            )
        f[i:j] = f32
        i = j
    return f


def _pdf0_quadrature(alpha: float, u: float) -> float:
    """Standard symmetric density at u below the tail, by the batched routes."""
    u = abs(float(u))
    if u == 0.0:
        return math.exp(gammaln(1.0 + 1.0 / alpha)) / math.pi
    return float(_pdf0_vec(alpha, np.array([u]))[0])


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


def _log_pdf0_tail(alpha: float, u, slope: bool = False):
    """log f0(u) for |u| >= TAIL_CUTOFF via the power-tail series (vectorized).

    With slope, also kappa = d log f0 / d ln u = -(alpha + 1) + (d corr /
    d ln u) / (1 + corr), summed over the same terms.
    """
    u = np.abs(np.asarray(u, dtype=float))
    log_u = np.log(u)
    lead, terms = _tail_coefficients(float(alpha))
    # First-order term in log space, then log1p of the summed correction ratio.
    log_t1 = lead - (alpha + 1.0) * log_u
    corr = np.zeros_like(u)
    dcorr = np.zeros_like(u) if slope else None
    term = np.empty_like(u)  # coef * exp(log_env - power ln u), one buffer for every k
    umin_log = float(np.min(log_u))
    last_env = math.inf
    for coef, log_env, power in terms:
        # envelope ratio to the leading term, at the smallest |u| present
        log_env_min = log_env - power * umin_log
        if log_env_min > last_env:
            break  # asymptotic series started diverging; stop at best term
        last_env = log_env_min
        if coef != 0.0:  # sin(k pi a/2) vanishes
            np.multiply(power, log_u, out=term)
            np.subtract(log_env, term, out=term)
            np.exp(term, out=term)
            term *= coef
            corr += term
            if slope:
                term *= power
                dcorr -= term
        if log_env_min < _LOG_TAIL_STOP:
            break
    if slope:
        return log_t1 + np.log1p(corr), dcorr / (1.0 + corr) - (alpha + 1.0)
    return log_t1 + np.log1p(corr)


class _StandardDensity:
    """Standard symmetric stable density f0(.; alpha) with a cached log table.

    Scalar `pdf`/`log_pdf` run the Fourier or Zolotarev route on one u, or
    the power-tail series beyond TAIL_CUTOFF.  The vectorized `log_pdf_vec`
    interpolates a cubic spline of log f0 against ln u, built lazily from one
    batched call of both routes over all its nodes, and is the workhorse
    behind the strength and quantizer integrands.
    """

    TABLE_FLOOR = 1e-14
    TABLE_NODES = 2400

    def __init__(self, alpha: float):
        self.alpha = float(alpha)
        self._lock = threading.Lock()
        self._spline = None
        a = self.alpha
        # k with f0(u) ~ k u^-(alpha+1); the first-order tail coefficient
        self.tail_constant = 0.0 if a == 2.0 else (
            math.exp(gammaln(a + 1.0)) * math.sin(math.pi * a / 2.0) / math.pi
        )

    # -- accurate scalar routes -------------------------------------------

    def pdf(self, u: float) -> float:
        a = self.alpha
        u = abs(float(u))
        if a == 2.0:
            return math.exp(-u * u / 4.0) / math.sqrt(4.0 * math.pi)
        if a == 1.0:
            return 1.0 / (math.pi * (1.0 + u * u))
        if u >= TAIL_CUTOFF:
            return float(np.exp(_log_pdf0_tail(a, u)))
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
        from scipy.interpolate import CubicSpline

        t = np.linspace(
            math.log(self.TABLE_FLOOR), math.log(TAIL_CUTOFF), self.TABLE_NODES
        )
        f = _pdf0_vec(self.alpha, np.exp(t))
        vals = np.array([math.log(v) for v in f])
        return CubicSpline(t, vals, bc_type="not-a-knot")

    def log_pdf_vec(self, u, slope: bool = False) -> np.ndarray:
        """log f0(|u|), vectorized.

        With slope, the stack (log f0, kappa) of shape (2,) + u.shape, where
        kappa = d log f0 / d ln u: -u^2/2 at alpha = 2, -2u^2/(1+u^2) at
        alpha = 1, the spline's own derivative in ln u on the table, the
        differentiated series in the tail and 0 below TABLE_FLOOR, where
        the table's constant value stands in for f0.
        """
        a = self.alpha
        u = np.abs(np.asarray(u, dtype=float))
        if a == 2.0:
            lp = -u * u / 4.0 - 0.5 * math.log(4.0 * math.pi)
            return np.stack([lp, -0.5 * (u * u)]) if slope else lp
        if a == 1.0:
            u2 = u * u
            lp = -math.log(math.pi) - np.log1p(u2)
            return np.stack([lp, -2.0 * u2 / (1.0 + u2)]) if slope else lp
        if self._spline is None:
            with self._lock:
                if self._spline is None:
                    self._spline = self._build_table()
        out = np.empty((2,) + u.shape if slope else u.shape)
        lp = out[0] if slope else out
        tiny = u < self.TABLE_FLOOR
        tail = u >= TAIL_CUTOFF
        core = ~tiny & ~tail
        if np.any(tiny):
            lp[tiny] = math.log(self.pdf(0.0))
            if slope:
                out[1][tiny] = 0.0
        if np.any(tail):
            if slope:
                lp[tail], out[1][tail] = _log_pdf0_tail(a, u[tail], slope=True)
            else:
                lp[tail] = _log_pdf0_tail(a, u[tail])
        if np.any(core):
            # ln u in place of its copy, and u dropped before the spline
            # runs: the slope row then holds no more temporaries at once
            t = u[core]
            np.log(t, out=t)
            del u
            lp[core] = self._spline(t)
            if slope:
                out[1][core] = self._spline(t, 1)
        return out

    def pdf_vec(self, u) -> np.ndarray:
        return np.exp(self.log_pdf_vec(u))


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
    from scipy import integrate

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

    For beta = 0, the scaled standard density of `standard_density`: closed
    forms at alpha in {1, 2}, else characteristic-function inversion switching
    to the power-tail series deep in the tails.  Skewed laws are inverted
    directly.
    """
    x = float(x)
    if params.beta == 0.0:
        g = params.gamma
        return standard_density(params.alpha).pdf((x - params.delta) / g) / g
    return _pdf_skewed_quadrature(params, x)


# ---------------------------------------------------------------------------
# reference log-density and entropy


def _log_pdf_reference_multid(ref: ReferenceLaw, r: float) -> float:
    """log density of the d-dimensional reference at radius r, alpha not in {1,2}.

    Radial Hankel inversion at reduced tolerance; accuracy beyond d = 2 is
    not guaranteed.
    """
    from scipy import integrate

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
    x = np.asarray(x, dtype=float)
    if d == 1:
        u = float(x.reshape(()))
        g = ref.scale
        eng = standard_density(a)
        return eng.log_pdf(u / g) - math.log(g)
    r = math.sqrt(float(np.dot(x.ravel(), x.ravel())))
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


def _panel_integral(fn, edges: np.ndarray):
    """Sum of 16-node Gauss-Legendre panel integrals of a vectorized fn over edges.

    fn maps the nodes, shape (N,), to values of shape (N,) or to a stack of
    shape (k, N); the integral is a float, or an array of shape (k,).
    """
    xg, wg = _gauss_legendre(16)
    a = edges[:-1]
    b = edges[1:]
    mid = 0.5 * (a + b)[:, None]
    half = 0.5 * (b - a)[:, None]
    nodes = mid + half * xg[None, :]
    vals = fn(nodes.ravel())
    vals = vals.reshape(vals.shape[:-1] + nodes.shape)
    return _reduced(np.sum(vals * wg[None, :] * half, axis=(-2, -1)))


def _reduced(total):
    """A reduced integral as a Python float, or the stacked array as it is.

    A stacked row sums exactly as the same row alone would.
    """
    return float(total) if np.ndim(total) == 0 else total


# The tail integral's panel edges in y = ln u: np.linspace(ln u0, y_max, 32)
# is arange(32) * step + ln u0 with the last edge set to y_max, computed here
# without linspace's per-call overhead (bitwise the same values).
_TAIL_PANELS = 31
_TAIL_INDEX = np.arange(_TAIL_PANELS + 1.0)
_TAIL_INDEX.flags.writeable = False


def _tail_integral(alpha: float, phi, u0: float):
    """int_{u0}^inf f0(u) phi(u) du for u0 >= TAIL_CUTOFF and a vectorized phi
    of log growth.

    log f0 comes from the density engine (the power-tail series, or the closed
    form at alpha = 1).  y = ln u runs over [ln u0, y_max], y_max = 60/alpha +
    ln u0 + 5, in 31 equal Gauss-Legendre panels; beyond X = e^y_max the
    first-order remainder k X^-alpha / alpha * phi(X) is added, phi frozen at X.
    A stacked phi, shape (k, N), gives k integrals from the same nodes.
    """
    eng = standard_density(alpha)
    log_u0 = math.log(u0)
    y_max = 60.0 / alpha + log_u0 + 5.0

    def fn(y):
        u = np.exp(y)
        return np.exp(eng.log_pdf_vec(u)) * phi(u) * u

    edges = _TAIL_INDEX * ((y_max - log_u0) / _TAIL_PANELS) + log_u0
    edges[-1] = y_max
    val = _panel_integral(fn, edges)
    X = math.exp(y_max)
    rem = eng.tail_constant * X ** (-alpha) / alpha * np.asarray(phi(np.array([X])))[..., 0]
    return val + _reduced(rem)


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
    tail = _tail_integral(alpha, lambda u: -eng.log_pdf_vec(u), TAIL_CUTOFF)
    return 2.0 * (core + tail)


def _multid_entropy(ref: ReferenceLaw) -> float:
    """Numerical entropy for d >= 2, alpha not in {1, 2}; reduced tolerance."""
    from scipy.interpolate import CubicSpline

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
    # at beta = 0, b0 = 0 and s0 = 1 exactly
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
