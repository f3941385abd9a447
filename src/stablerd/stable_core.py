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
# scipy.integrate is imported by the functions that use it, so the symmetric
# density, its tables included, never loads it; log-gamma is math.lgamma.

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
# back.  Where the routes are accurate, the d = 1 table runs them on the nodes
# of certified Chebyshev panels in ln u, not on its knots (see _chebyshev_route).
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


def _gl_rules():
    """The (32-node, 16-node) Gauss-Legendre rules of the batched routes."""
    return _gauss_legendre(32), _gauss_legendre(16)


def _gl_block(edges: np.ndarray, weighted_sum, rules):
    """The 32-node Gauss-Legendre integrals over the panels between edges (one
    row shared, or one per integral), and the 16-node ones as their estimate;
    weighted_sum(t, w) sums them from nodes t and weights w flattened per row,
    and rules holds the two rules' (nodes, weights), as `_gl_rules` gives them.
    """
    mid = 0.5 * (edges[..., 1:] + edges[..., :-1])[..., None]
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])[..., None]
    shape = edges.shape[:-1] + (-1,)
    return [weighted_sum((mid + half * xg).reshape(shape), (half * wg).reshape(shape)) for xg, wg in rules]


def _fourier_block(alpha: float, u: np.ndarray, rules):
    """The (32-node, 16-node) values of f0 at a block of u, Fourier route,
    with the Gauss-Legendre rules `_gl_rules()`."""
    T = _LOG_EPS ** (1.0 / alpha)
    edges = np.concatenate([[0.0], np.geomspace(T * 1e-18, T, _PLAIN_PANELS)])
    osc = _n_osc(alpha, float(u.max()))
    if osc > _PLAIN_OSC:
        edges = np.union1d(edges, np.linspace(0.0, T, math.ceil(_HALF_PERIOD_PANELS * osc) + 1))

    def weighted_sum(t, w):
        # cos(u t) in place of its argument, one (u, t) array per block
        ut = np.multiply.outer(u, t)
        return np.cos(ut, out=ut) @ (w * np.exp(-(t ** alpha))) / math.pi

    return _gl_block(edges, weighted_sum, rules)


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


def _zolotarev_block(alpha: float, u: np.ndarray, peak: np.ndarray, rules):
    """The (32-node, 16-node) values of f0 at a block of u, Zolotarev route,
    given the peaks th* of the block, all on one side of pi/4, with the
    Gauss-Legendre rules `_gl_rules()`.

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
    return [v * scale for v in _gl_block(edges, weighted_sum, rules)]


def _pdf0_vec(alpha: float, u) -> np.ndarray:
    """f0 at each u > 0 below the tail, u ascending, by the batched routes.

    Raises QuadratureFailure, naming alpha and u, unless the 32- and 16-node
    values agree to max(_QUAD_EPSABS, _QUAD_EPSREL f0) and are positive, and
    ValueError at alpha = 2, where the closed forms serve every d: there the
    Zolotarev route is wrong past u of about 12.7 and its estimate misses it.
    """
    if alpha == 2.0:
        raise ValueError("the batched density routes do not serve alpha = 2")
    u = np.asarray(u, dtype=float).ravel()
    plain_end = int(np.searchsorted(_n_osc(alpha, u), _PLAIN_OSC, side="right"))
    # Zolotarev's integral loses precision near alpha = 1 and has no form at 1
    fourier_end = u.size if abs(alpha - 1.0) <= _FOURIER_BAND else plain_end
    bounds = [plain_end, fourier_end, u.size]
    if fourier_end < u.size:
        peak = _zolotarev_peak(alpha, u[fourier_end:])
        # th* grows with u; past pi/4 the nodes are placed in pi/2 - th
        bounds.append(fourier_end + int(np.searchsorted(peak, 0.25 * math.pi, side="right")))
    blocks = []
    i = 0
    while i < u.size:
        # a block never crosses n_osc = 8, the route switch or th* = pi/4
        end = min(b for b in bounds if b > i)
        if i < fourier_end:
            j = min(end, i + (_PLAIN_BLOCK if i < plain_end else _FOURIER_BLOCK))
        else:
            j = min(end, i + _ZOLOTAREV_BLOCK)
        blocks.append((i, j))
        i = j
    rules = _gl_rules()
    f = np.empty(u.size)
    # in block order, so that a failure names the first failing u
    for i, j in blocks:
        if i < fourier_end:
            f32, f16 = _fourier_block(alpha, u[i:j], rules)
        else:
            f32, f16 = _zolotarev_block(alpha, u[i:j], peak[i - fourier_end:j - fourier_end], rules)
        ok = (np.abs(f32 - f16) <= np.maximum(_QUAD_EPSABS, _QUAD_EPSREL * np.abs(f32))) & (f32 > 0.0)
        if not np.all(ok):
            raise QuadratureFailure(
                f"stable density inversion failed at alpha={alpha}, u={u[i:j][~ok][0]}"
            )
        f[i:j] = f32
    return f


# Where the routes are within 1e-14 of f0, the d = 1 table reads them
# through Chebyshev panels in y = ln u: _CHEB_PANELS equal panels over
# [ln TABLE_FLOOR, ln TAIL_CUTOFF], the ones that reach above the series blend
# kept, each interpolating ln f0 at the _CHEB_NODES first-kind Chebyshev nodes
# (L. N. Trefethen, Approximation Theory and Approximation Practice, SIAM
# 2013).  A panel is certified when its two trailing Chebyshev coefficients
# are at most _CHEB_TOL max(1, |ln f0|); one that fails is bisected, up to
# _CHEB_DEPTH times, and the route runs again on the new nodes only.
# Elsewhere (alpha below 0.2 or above 1.995, and in the band around 1) the
# routes are 1e-13 to 5e-12 off, by an error that is not smooth in u: the
# panels, certified on their nodes, read 1.7e-13 (alpha 0.12), 3.4e-13 (1.001)
# and 4.3e-13 (1.9999) from the route at the knots between them.  There
# the route runs on the knots.
_CHEB_ALPHAS = (0.2, 1.995)
_CHEB_PANELS = 40
_CHEB_NODES = 24
_CHEB_TOL = 2e-15
_CHEB_DEPTH = 4
_CHEB_ANGLE = math.pi * (np.arange(_CHEB_NODES) + 0.5) / _CHEB_NODES
# the nodes on [-1, 1], ascending, and their barycentric weights
_CHEB_X = -np.cos(_CHEB_ANGLE)
_CHEB_W = (-1.0) ** np.arange(_CHEB_NODES) * np.sin(_CHEB_ANGLE)
# C @ v: the Chebyshev coefficients of the interpolant through v at _CHEB_X
# (the first one doubled), T_k(x_j) = cos(k (pi - angle_j))
_CHEB_COEF = (2.0 / _CHEB_NODES) * np.cos(np.outer(np.arange(_CHEB_NODES), math.pi - _CHEB_ANGLE))
for _a in (_CHEB_X, _CHEB_W, _CHEB_COEF):
    _a.flags.writeable = False


def _route_is_accurate(alpha: float) -> bool:
    """Whether the routes are within 1e-14 of f0, so that the d = 1 table
    reads them through Chebyshev panels: alpha in _CHEB_ALPHAS off the band
    around 1."""
    return _CHEB_ALPHAS[0] <= alpha <= _CHEB_ALPHAS[1] and abs(alpha - 1.0) > _FOURIER_BAND


def _chebyshev_route(alpha: float, t: np.ndarray):
    """(ln f0 at the ascending t = ln u, stats) from certified Chebyshev panels
    of the batched routes over the panels that reach above t[0]; stats holds
    the route's node count, the panels, the bisections, and the largest
    trailing coefficient of a certified panel and of its ratio to the panel's
    tolerance.

    Raises QuadratureFailure, naming alpha and the panel's u-range, where a
    panel bisected _CHEB_DEPTH times still fails, and where the route does.
    """
    edges = np.linspace(math.log(_StandardDensity.TABLE_FLOOR), math.log(TAIL_CUTOFF), _CHEB_PANELS + 1)
    keep = edges[1:] > t[0]
    lo, hi = edges[:-1][keep], edges[1:][keep]
    done, nodes, splits, trails, ratios = [], 0, 0, [0.0], [0.0]
    for depth in range(_CHEB_DEPTH + 1):
        u = np.exp(0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * _CHEB_X)
        v = np.log(_pdf0_vec(alpha, u.ravel())).reshape(u.shape)
        nodes += v.size
        # about the panel's mean, so that rounding scales with its spread
        mean = v.mean(axis=1, keepdims=True)
        trail = np.max(np.abs((v - mean) @ _CHEB_COEF[-2:].T), axis=1)
        ratio = trail / (_CHEB_TOL * np.maximum(1.0, np.max(np.abs(v), axis=1)))
        ok = ratio <= 1.0
        if depth == _CHEB_DEPTH and not np.all(ok):
            k = np.flatnonzero(~ok)[0]
            raise QuadratureFailure(
                f"Chebyshev panel not certified at alpha={alpha}, u in [{math.exp(lo[k])}, {math.exp(hi[k])}]"
            )
        done += zip(lo[ok], hi[ok], mean[ok, 0], v[ok] - mean[ok])
        trails.append(float(np.max(trail[ok], initial=0.0)))
        ratios.append(float(np.max(ratio[ok], initial=0.0)))
        if np.all(ok):
            break
        splits += int(np.count_nonzero(~ok))
        mid = 0.5 * (lo[~ok] + hi[~ok])
        lo, hi = np.column_stack((lo[~ok], mid)).ravel(), np.column_stack((mid, hi[~ok])).ravel()
    done.sort(key=lambda p: p[0])
    lo, hi, mean, dv = (np.array(a) for a in zip(*done))
    # barycentric interpolation in the panel that holds each t
    k = np.maximum(np.searchsorted(lo, t, side="right") - 1, 0)
    x = (2.0 * t - lo[k] - hi[k]) / (hi[k] - lo[k])
    diff = x[:, None] - _CHEB_X
    at_node = diff == 0.0
    diff[at_node] = 1.0
    q = _CHEB_W / diff
    vals = mean[k] + np.sum(q * dv[k], axis=1) / np.sum(q, axis=1)
    hit, j = np.nonzero(at_node)
    vals[hit] = mean[k[hit]] + dv[k[hit], j]
    return vals, {"nodes": nodes, "panels": lo.size, "splits": splits,
                  "trail": max(trails), "ratio": max(ratios)}


def _pdf0_quadrature(alpha: float, u: float) -> float:
    """Standard symmetric density at u below the tail, by the batched routes."""
    u = abs(float(u))
    if u == 0.0:
        return math.exp(math.lgamma(1.0 + 1.0 / alpha)) / math.pi
    return float(_pdf0_vec(alpha, np.array([u]))[0])


def _lgamma(x: np.ndarray) -> np.ndarray:
    """ln Gamma at each element of x, by math.lgamma."""
    return np.array([math.lgamma(v) for v in x.tolist()])


# The series stops at this index, or once a term's envelope ratio is below 1e-18.
_TAIL_TERMS = 400
_LOG_TAIL_STOP = math.log(1e-18)


@lru_cache(maxsize=64)
def _tail_coefficients(alpha: float, d: int = 1):
    """The alpha-only parts of the power-tail series of the d-dimensional
    density, computed once per (alpha, d).

    Returns (lead, terms): lead is the log of the first-order coefficient and
    terms holds (coef, log_env, slope) for k = 2.._TAIL_TERMS-1, so that the
    k-th term relative to the first is coef * exp(log_env - slope * ln u).
    Keep each expression and its operation order as it is: the series sums
    must be bit-identical to evaluating every term in full.
    """
    k = np.arange(_TAIL_TERMS, dtype=float)
    if d == 1:
        log_c, log_pi = _lgamma(alpha * k + 1.0) - _lgamma(k + 1.0), math.log(math.pi)
    else:
        # 2^(k a) Gamma(k a/2 + 1) Gamma((k a + d)/2) / k!, which at d = 1
        # is sqrt(pi) Gamma(k a + 1) / k!
        log_c = k * alpha * math.log(2.0) + _lgamma(k * alpha / 2.0 + 1.0) \
            + _lgamma((k * alpha + d) / 2.0) - _lgamma(k + 1.0)
        log_pi = (d / 2.0 + 1.0) * math.log(math.pi)
    s1 = math.sin(math.pi * alpha / 2.0)
    lead = log_c[1] + math.log(abs(s1)) - log_pi
    terms = tuple(
        (
            (-1.0) ** (j - 1) * (math.sin(j * math.pi * alpha / 2.0) / s1),
            float(log_c[j] - log_c[1]),
            alpha * (j - 1),
        )
        for j in range(2, _TAIL_TERMS)
    )
    return lead, terms


def _log_pdf0_tail(alpha: float, u, slope: bool = False, d: int = 1):
    """log f(u) of the standard d-dimensional density at radius |u| >=
    TAIL_CUTOFF via the power-tail series (vectorized).

    With slope, also kappa = d log f / d ln u = -(alpha + d) + (d corr /
    d ln u) / (1 + corr), summed over the same terms.
    """
    u = np.abs(np.asarray(u, dtype=float))
    log_u = np.log(u)
    lead, terms = _tail_coefficients(float(alpha), d)
    # First-order term in log space, then log1p of the summed correction ratio.
    log_t1 = lead - (alpha + d) * log_u
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
        return log_t1 + np.log1p(corr), dcorr / (1.0 + corr) - (alpha + d)
    return log_t1 + np.log1p(corr)


# ---------------------------------------------------------------------------
# not-a-knot cubic spline
#
# The interpolant of SciPy's `CubicSpline` with its default not-a-knot ends,
# without importing SciPy's interpolate package (which loads scipy.optimize,
# scipy.linalg and scipy.sparse).  The build keeps CubicSpline's expressions
# and their order, and solves its tridiagonal system for the knot slopes the
# way LAPACK's dgtsv does (the routine scipy.linalg.solve_banded calls for one
# band each side; E. Anderson et al., LAPACK Users' Guide, SIAM 1999).
# Evaluation keeps PPoly's power sums.  Coefficients, values and slopes are
# therefore bitwise those of SciPy's spline; keep every expression as it is.
# That equality was checked with SciPy 1.17.1 on x86_64 (scipy-openblas); a
# build whose LAPACK or PPoly evaluator fuses multiply-adds, the default on
# aarch64, can differ from this spline in the last bits.  The transcription
# stands in for scipy.linalg.lapack.dgtsv because importing scipy.linalg took
# a fresh process 6 MB of RSS and 0.08 s on a 2-vCPU VM.

_SPLINE_BLOCK = 8192


def _gtsv(dl, d, du, b):
    """x with A x = b for the tridiagonal A with sub-, main and super-diagonals
    dl, d and du: Gaussian elimination with partial pivoting, as dgtsv for one
    right-hand side, on Python floats so that each operation rounds as there."""
    dl, d, du, b = (list(map(float, v)) for v in (dl, d, du, b))
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            if d[i] == 0.0:
                raise ZeroDivisionError("singular tridiagonal system")
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            b[i + 1] = b[i + 1] - fact * b[i]
            dl[i] = 0.0
        else:
            # swap rows i and i + 1; dl[i] keeps the fill-in of row i
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            temp = b[i]
            b[i] = b[i + 1]
            b[i + 1] = temp - fact * b[i + 1]
    if d[n - 1] == 0.0:
        raise ZeroDivisionError("singular tridiagonal system")
    b[n - 1] = b[n - 1] / d[n - 1]
    b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return np.array(b)


class _Spline:
    """Not-a-knot cubic spline through (x, y), x strictly increasing, n >= 4.

    `c` holds the power-form coefficients of each interval, highest first,
    shape (4, n - 1), so that on [x[i], x[i+1]] the spline is
    c[0, i] s^3 + c[1, i] s^2 + c[2, i] s + c[3, i], s = t - x[i].  Below
    x[0] and above x[-1] the end polynomials extrapolate.
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        n = x.size
        if x.ndim != 1 or y.shape != x.shape or n < 4:
            raise ValueError("a spline needs matching 1-D x and y of at least 4 points")
        dx = np.diff(x)
        if not np.all(dx > 0.0):
            raise ValueError("spline knots must be strictly increasing")
        slope = np.diff(y) / dx
        # the system row by row, as CubicSpline fills its banded form
        d = np.empty(n)
        du = np.empty(n - 1)
        dl = np.empty(n - 1)
        b = np.empty(n)
        d[1:-1] = 2 * (dx[:-1] + dx[1:])
        du[1:] = dx[:-1]
        dl[:-1] = dx[1:]
        b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        w = x[2] - x[0]
        d[0], du[0] = dx[1], w
        b[0] = ((dx[0] + 2 * w) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / w
        w = x[-1] - x[-3]
        d[-1], dl[-1] = dx[-2], w
        b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * w + dx[-1]) * dx[-2] * slope[-1]) / w
        s = _gtsv(dl, d, du, b)
        # the Hermite form's power coefficients, as CubicHermiteSpline
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        self.x = x
        self.c = np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))
        # one row per interval: its left knot, then c[3], c[2], c[1], c[0]
        self._rows = np.ascontiguousarray(np.column_stack((x[:-1], self.c[::-1].T)))
        # interval i holds lo[i] <= t < hi[i]; the outer bounds are NaN, which
        # fails every comparison, so that the first interval holds everything
        # below x[1] and the last everything from x[-2] up
        self._lo = np.concatenate([[np.nan], x[1:-1]])
        self._hi = np.concatenate([x[1:-1], [np.nan]])
        self._per_step = (n - 1) / (x[-1] - x[0])

    def _interval(self, t: np.ndarray) -> np.ndarray:
        """The interval i with x[i] <= t < x[i+1], clipped to [0, n - 2] as
        PPoly does (NaN takes the first one): the guess of equal spacing,
        stepped to the holding interval, so that it is exact for any knots
        and takes one step or none on equally spaced ones."""
        last = self._lo.size - 1
        i = np.fmin(np.fmax((t - self.x[0]) * self._per_step, 0.0), last).astype(np.intp)
        off = np.flatnonzero((self._lo[i] > t) | (self._hi[i] <= t))
        while off.size:
            j, tj = i[off], t[off]
            j += self._hi[j] <= tj
            j -= self._lo[j] > tj
            i[off] = j
            off = off[(self._lo[j] > tj) | (self._hi[j] <= tj)]
        return i

    def __call__(self, t, slope: bool = False) -> np.ndarray:
        """The spline at t, shape t.shape; with slope, the stack of it and its
        derivative, shape (2,) + t.shape.  NaN gives NaN."""
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        out = np.empty((2 if slope else 1, flat.size))
        for lo in range(0, flat.size, _SPLINE_BLOCK):
            tb = flat[lo:lo + _SPLINE_BLOCK]
            x, c3, c2, c1, c0 = self._rows.take(self._interval(tb), axis=0).T
            s = tb - x
            s2 = s * s
            # PPoly's sums: c3 + c2 s + c1 s^2 + c0 (s^2 s), c2 + c1 s 2 + c0 s^2 3
            v = out[0, lo:lo + _SPLINE_BLOCK]
            np.multiply(c2, s, out=v)
            v += c3
            v += c1 * s2
            tmp = s2 * s
            tmp *= c0
            v += tmp
            if slope:
                k = out[1, lo:lo + _SPLINE_BLOCK]
                np.multiply(c1, s, out=k)
                k *= 2
                k += c2
                np.multiply(c0, s2, out=tmp)
                tmp *= 3
                k += tmp
        return out.reshape((2,) + t.shape) if slope else out[0].reshape(t.shape)


# ---------------------------------------------------------------------------
# the d-dimensional density from the (d - 1)-dimensional one
#
# The rotationally invariant law with characteristic function exp(-|w|^alpha)
# in d dimensions has the (d - 1)-dimensional law as its marginal (every 1-D
# projection is f0; J. P. Nolan, Comput. Stat. 28(5), 2013), so its radial
# density f_d follows from f_{d-1} by the inverse Abel transform (R. N.
# Bracewell, The Fourier Transform and Its Applications, ch. 13), in
# rho = r cosh t:
#     f_d(r) = -(1/pi) int_0^inf f'_{d-1}(r cosh t) dt.
# On [0, _ABEL_SPLIT] the integrand is f_{d-1} kappa_{d-1} / rho.  Beyond,
# the integral is taken by parts and reads values only:
#     (1/pi) [(f(r cosh t1) - f(r)) / (r sinh t1)
#             + int_t1^inf (f(r) - f(r cosh t)) cosh t / (r sinh^2 t) dt],
# because the spline's kappa carries its interpolation error at the knot
# period, which Gauss-Legendre nodes spread over many knots alias: from t = 0,
# 32 and 96 panels read 3.0e-8 and 1.2e-8 off in log f_2 at alpha 1.5,
# r = 0.3, where the values give the spline's own 2.1e-9 from 24 panels up.
# The panels end where rho = e^(40/(alpha+d)) TAIL_CUTOFF; the f(r) part
# beyond is f(r)/(r sinh T).
# Near r = 0 the density is the series
#     f_d(r) = sum_k (-1)^k Gamma((2k+d)/a) / (a 2^(2k+d-1) pi^(d/2) k! Gamma(k+d/2)) r^(2k),
# whose first term is f_d(0) (convergent for alpha > 1, asymptotic below).
# It serves up to the last knot where its truncation is below 1e-17; the
# table's Abel values start there, so that no knot sits where kappa is below
# the rounding of log f, and its first _SERIES_OVERLAP knots take the
# series' values, so that its end intervals lie where the series serves.
# Past TAIL_CUTOFF the radial power-tail series takes over:
#     f_d(r) = pi^-(d/2+1) sum_k (-1)^(k+1)/k! 2^(k a) Gamma(k a/2 + 1)
#              Gamma((k a + d)/2) sin(k pi a/2) r^-(k a + d).

_ABEL_SPLIT = 0.25
_ABEL_PANELS = 24
_ABEL_REACH = 40.0
_ABEL_BLOCK = 256
_SERIES_TERMS = 24
_SERIES_EPS = 1e-17
_SERIES_OVERLAP = 16
# knots of the d = 1 table below the series' end over which its values pass
# linearly from the series to the route: at alpha < 0.2 the route's own error
# (1e-13 at 0.15) would otherwise step there, and the Abel chain amplifies a
# step as 1/r
_SERIES_BLEND = 48


def _small_r_series(alpha: float, d: int):
    """(ln f_d(0), p, q, ln r_end): f_d = f_d(0) (1 + p(r^2)), kappa = q(r^2) / (1 + p(r^2))
    to _SERIES_EPS for r <= r_end, where its terms fall and the first is at most 1/4."""
    k = np.arange(_SERIES_TERMS)
    log_b = _lgamma((2 * k + d) / alpha) - 2 * k * math.log(2.0) - _lgamma(k + 1.0) - _lgamma(k + d / 2.0)
    log_rel = log_b - log_b[0]
    end, terms = -math.inf, 1
    for j in range(1, _SERIES_TERMS):
        at = (math.log(_SERIES_EPS) - log_rel[j]) / (2 * j)
        if at > end and np.all(np.diff(log_rel[:j + 1] + 2 * k[:j + 1] * at) < 0.0):
            end, terms = at, j
    log_f0 = math.lgamma(d / alpha) - math.log(alpha) - (d - 1) * math.log(2.0) \
        - (d / 2.0) * math.log(math.pi) - math.lgamma(d / 2.0)
    p = np.where(k[:terms] > 0, (-1.0) ** k[:terms] * np.exp(log_rel[:terms]), 0.0)
    return float(log_f0), p, 2.0 * k[:terms] * p, min(end, 0.5 * (math.log(0.25) - log_rel[1]))


def _abel_pdf(alpha: float, d: int, r: np.ndarray) -> np.ndarray:
    """f_d at each radius r > 0 from the (d - 1)-dimensional engine."""
    low = standard_density(alpha, d - 1)
    xg, wg = _gauss_legendre(16)
    rho_max = math.exp(math.log(TAIL_CUTOFF) + _ABEL_REACH / (alpha + d))
    t1 = _ABEL_SPLIT
    # [0, t1] in two panels, shared by every r
    near_t = (0.25 * t1 * (np.array([[1.0], [3.0]]) + xg)).ravel()
    near_w = np.tile(0.25 * t1 * wg, 2)

    def block(lo):
        rb = r[lo:lo + _ABEL_BLOCK, None]
        lp, kappa = low.log_pdf_vec(rb * np.cosh(near_t), slope=True)
        near = np.exp(lp) * -kappa / (rb * np.cosh(near_t)) @ near_w
        # [t1, T] in _ABEL_PANELS equal panels per r
        T = np.arccosh(rho_max / rb)
        half = 0.5 * (T - t1) / _ABEL_PANELS
        t = (t1 + half * (2.0 * np.arange(_ABEL_PANELS) + 1.0))[..., None] + half[..., None] * xg
        t, w = t.reshape(rb.size, -1), np.tile(wg, _ABEL_PANELS) * half
        fr, f1 = np.exp(low.log_pdf_vec(np.hstack([rb, rb * math.cosh(t1)]))).T[..., None]
        far = np.sum(w * (fr - np.exp(low.log_pdf_vec(rb * np.cosh(t)))) * np.cosh(t) / np.sinh(t) ** 2, axis=1)
        far += ((f1 - fr) / math.sinh(t1) + fr / np.sinh(T))[:, 0]
        return (near + far / rb[:, 0]) / math.pi

    f = np.concatenate([block(lo) for lo in range(0, r.size, _ABEL_BLOCK)])
    # a radial stable density falls with r; the chain's error grows as 1/r at
    # small r and breaks that at alpha 0.13-0.145 from d = 2, 0.12-0.125 and
    # 0.15-0.195 from d = 3, 0.2-0.255 from d = 4, 0.115 and 0.3-0.4 from
    # d = 5 and 0.45-0.5 at d = 6 (alpha 0.11 and 0.6 and up hold to 6)
    bad = ~((f > 0.0) & np.isfinite(f) & (np.diff(f, append=0.0) < 0.0))
    if np.any(bad):
        raise QuadratureFailure(f"Abel transform failed at alpha={alpha}, d={d}, r={r[bad][0]}")
    return f


class _StandardDensity:
    """Standard symmetric stable density f(.; alpha) in d dimensions, of the
    radius, with a cached log table; closed forms at alpha in {1, 2}.

    At d = 1 this is f0, whose scalar `pdf`/`log_pdf` (d = 1 only) run the
    Fourier or Zolotarev route on one u, or the power-tail series beyond
    TAIL_CUTOFF.  The vectorized `log_pdf_vec`, the workhorse behind the
    strength and quantizer integrands, interpolates a not-a-knot cubic
    spline (`_Spline`) of log f against ln u, built lazily: at d = 1 from the
    small-u series and, above its end, the routes: read through the
    certified Chebyshev panels of `_chebyshev_route` where they are accurate
    (alpha 0.2 to 1.995 off the band around 1), else run on the knots; at
    d >= 2 by the inverse Abel transform.
    """

    TABLE_FLOOR = 1e-14
    TABLE_NODES = 2400
    KNOTS = np.linspace(math.log(TABLE_FLOOR), math.log(TAIL_CUTOFF), TABLE_NODES)
    KNOTS.flags.writeable = False

    def __init__(self, alpha: float, d: int = 1):
        self.alpha = float(alpha)
        self.d = int(d)
        self._lock = threading.Lock()
        self._spline = None
        a, d = self.alpha, self.d
        # whether log_pdf_vec takes the closed forms (off, alpha 1 builds a table)
        self._closed = a in (1.0, 2.0)
        # k with f(u) ~ k u^-(alpha+d); the first-order tail coefficient
        self.tail_constant = 0.0 if a == 2.0 else (
            math.exp(math.lgamma(a + 1.0)) * math.sin(math.pi * a / 2.0) / math.pi if d == 1
            else math.exp(_tail_coefficients(a, d)[0]))
        # the small-r series below the table and up to _first, the last knot
        # it covers: at d >= 2 the table starts there, at d = 1 the series
        # gives the table's knots up to there
        self._series = _small_r_series(a, d)
        self._first = max(0, int(np.searchsorted(self.KNOTS, self._series[3], side="right")) - 1)
        self._floor = math.exp(self.KNOTS[self._first]) if d > 1 else self.TABLE_FLOOR

    # -- accurate scalar routes (d = 1) -----------------------------------

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
        t = self.KNOTS
        if self.d == 1:
            # the route from _SERIES_BLEND knots below the series' end up, the
            # series below, and a linear blend of the two in between
            first = self._first
            start = max(0, first - _SERIES_BLEND)
            vals = np.empty(t.size)
            if _route_is_accurate(self.alpha):
                vals[start:] = _chebyshev_route(self.alpha, t[start:])[0]
            else:
                vals[start:] = [math.log(v) for v in _pdf0_vec(self.alpha, np.exp(t[start:]))]
            series = self._below_table(np.exp(t[:first]))[0]
            w = (np.arange(start - first, 0) + _SERIES_BLEND + 1.0) / (_SERIES_BLEND + 1.0)
            vals[:start] = series[:start]
            vals[start:first] = series[start:] + w * (vals[start:first] - series[start:])
            return _Spline(t, vals)
        if self.alpha == 2.0:
            raise ValueError("the batched density routes do not serve alpha = 2")
        # _SERIES_OVERLAP knots of the series below the first one served, so
        # that the end intervals, which the not-a-knot condition bends, lie
        # where the series serves
        start = max(0, self._first - _SERIES_OVERLAP)
        r = np.exp(t[start:])
        split = self._first - start
        vals = np.concatenate([self._below_table(r[:split])[0], np.log(_abel_pdf(self.alpha, self.d, r[split:]))])
        return _Spline(t[start:], vals)

    def _table(self) -> _Spline:
        """The log table, built on first use under the engine's lock."""
        if self._spline is None:
            with self._lock:
                if self._spline is None:
                    self._spline = self._build_table()
        return self._spline

    def log_pdf_vec(self, u, slope: bool = False) -> np.ndarray:
        """log f(|u|), vectorized.

        With slope, the stack (log f, kappa) of shape (2,) + u.shape, where
        kappa = d log f / d ln u: -u^2/2 at alpha = 2, -(d+1)u^2/(1+u^2) at
        alpha = 1, the spline's own derivative in ln u on the table, the
        differentiated series in the tail and below the table, where the
        small-r series serves at every d.
        """
        a, d = self.alpha, self.d
        u = np.abs(np.asarray(u, dtype=float))
        if self._closed:
            if d > 1:
                # N(0, 2 I) and the circular Cauchy
                u2, h = u * u, 0.5 * (d + 1.0)
                lp, kappa = (-u2 / 4.0 - (d / 2.0) * math.log(4.0 * math.pi), -0.5 * u2) if a == 2.0 else (
                    math.lgamma(h) - h * math.log(math.pi) - h * np.log1p(u2), -(d + 1.0) * u2 / (1.0 + u2))
                return np.stack([lp, kappa]) if slope else lp
            if not slope:
                if a == 2.0:
                    return -u * u / 4.0 - 0.5 * math.log(4.0 * math.pi)
                return -math.log(math.pi) - np.log1p(u * u)
            # both rows in place, in the operation order of the expressions
            # above and of the slopes -0.5 * (u * u) and -2.0 * u2 / (1.0 + u2)
            out = np.empty((2,) + u.shape)
            lp, kappa = out[0, ...], out[1, ...]
            np.multiply(u, u, out=kappa)
            if a == 2.0:
                np.negative(u, out=lp)
                lp *= u
                lp /= 4.0
                lp -= 0.5 * math.log(4.0 * math.pi)
                kappa *= -0.5
            else:
                np.log1p(kappa, out=lp)
                np.subtract(-math.log(math.pi), lp, out=lp)
                num = -2.0 * kappa
                kappa += 1.0
                np.divide(num, kappa, out=kappa)
            return out
        spline = self._table()
        out = np.empty((2,) + u.shape if slope else u.shape)
        # views, also for a 0-d u, where out[0] would be a NumPy scalar
        lp, kappa = (out[0, ...], out[1, ...]) if slope else (out, None)
        tiny = u < self._floor
        tail = u >= TAIL_CUTOFF
        core = ~tiny & ~tail
        if np.any(tiny):
            if slope:
                lp[tiny], kappa[tiny] = self._below_table(u[tiny])
            else:
                lp[tiny] = self._below_table(u[tiny])[0]
        if np.any(tail):
            if slope:
                lp[tail], kappa[tail] = _log_pdf0_tail(a, u[tail], slope=True, d=d)
            else:
                lp[tail] = _log_pdf0_tail(a, u[tail], d=d)
        if np.any(core):
            # ln u in place of its copy, and u dropped before the spline
            # runs, so that no copy of u is held beside the spline's output
            t = u[core]
            np.log(t, out=t)
            del u
            # (row by row: a boolean index after an Ellipsis is 4-5x slower)
            if slope:
                lp[core], kappa[core] = spline(t, slope=True)
            else:
                lp[core] = spline(t)
        return out

    def _below_table(self, u):
        """(log f, kappa) from the small-r series: below the table, and at
        d = 1 on the table's knots up to _first."""
        log_f0, p, q, end = self._series
        # below about alpha 0.13 the series ends below the table: held there
        x = np.minimum(u, math.exp(end)) ** 2
        p = np.polynomial.polynomial.polyval(x, p)
        return log_f0 + np.log1p(p), np.polynomial.polynomial.polyval(x, q) / (1.0 + p)

    def pdf_vec(self, u) -> np.ndarray:
        return np.exp(self.log_pdf_vec(u))


_DENSITY_CACHE: dict[tuple, _StandardDensity] = {}
_DENSITY_CACHE_LOCK = threading.Lock()


def standard_density(alpha: float, d: int = 1) -> _StandardDensity:
    """Shared per-(alpha, d) standard density engine (read-only after creation);
    d is the dimension of a `ReferenceLaw` or of the samples."""
    key = (float(alpha), int(d))
    eng = _DENSITY_CACHE.get(key)
    if eng is None:
        with _DENSITY_CACHE_LOCK:
            eng = _DENSITY_CACHE.setdefault(key, _StandardDensity(*key))
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


def log_pdf_reference(ref: ReferenceLaw, x) -> float:
    """log f of the reference law at x (scalar for d = 1, length-d vector else)."""
    a, d, g = ref.alpha, ref.d, ref.scale
    x = np.asarray(x, dtype=float)
    if d == 1:
        return standard_density(a).log_pdf(float(x.reshape(())) / g) - math.log(g)
    r = math.sqrt(float(np.dot(x.ravel(), x.ravel())))
    return float(standard_density(a, d).log_pdf_vec(r / g)) - d * math.log(g)


@lru_cache(maxsize=None)
def _gauss_legendre(n: int = 16):
    """Gauss-Legendre nodes and weights on [-1, 1], shared and read-only."""
    xg, wg = np.polynomial.legendre.leggauss(n)
    xg.flags.writeable = False
    wg.flags.writeable = False
    return xg, wg


def _gl_nodes(edges: np.ndarray, n: int = 16):
    """Nodes x and weights w of an n-node Gauss-Legendre rule on each panel
    of edges, flattened: sum_i w_i g(x_i) integrates g over the panels."""
    xg, wg = _gauss_legendre(n)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return (mid + half * xg[None, :]).ravel(), (half * wg[None, :]).ravel()


def _panel_integral(fn, edges: np.ndarray):
    """Sum of 16-node Gauss-Legendre panel integrals of a vectorized fn over edges.

    fn maps the nodes, shape (N,), to values of shape (N,) or to a stack of
    shape (k, N); the integral is a float, or an array of shape (k,).
    """
    xg, wg = _gauss_legendre(16)
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    nodes = 0.5 * (edges[:-1] + edges[1:])[:, None] + half * xg[None, :]
    vals = fn(nodes.ravel())
    vals = vals.reshape(vals.shape[:-1] + nodes.shape)
    return _reduced(np.sum(vals * wg[None, :] * half, axis=(-2, -1)))


def _reduced(total):
    """A reduced integral as a Python float, or the stacked array as it is.

    A stacked row sums exactly as the same row alone would.
    """
    return float(total) if np.ndim(total) == 0 else total


# The tail's panel edges in y = ln u: np.linspace(ln u0, y_max, 32) is
# arange(32) * step + ln u0 with the last edge set to y_max, computed without
# linspace's per-call overhead (bitwise the same values).
_TAIL_PANELS = 31
_TAIL_INDEX = np.arange(_TAIL_PANELS + 1.0)
_TAIL_INDEX.flags.writeable = False


def _tail_edges(alpha: float, u0: float):
    """(edges, X): the tail's 31 equal panels in y = ln u over [ln u0, y_max],
    y_max = 60/alpha + ln u0 + 5, and X = e^y_max."""
    log_u0 = math.log(u0)
    y_max = 60.0 / alpha + log_u0 + 5.0
    edges = _TAIL_INDEX * ((y_max - log_u0) / _TAIL_PANELS) + log_u0
    edges[-1] = y_max
    return edges, math.exp(y_max)


def _tail_nodes(alpha: float, u0: float):
    """Nodes u and weights w with int_{u0}^inf f(u) phi(u) du = sum_i w_i
    f(u_i) phi(u_i) for u0 >= TAIL_CUTOFF, f with the power tail
    k u^-(alpha+1) and phi of log growth: 16-node rules on `_tail_edges`
    (weights u dy), and last X, weighted X / alpha.  Beyond X, f(u) =
    f(X) (X/u)^(alpha+1) to first order, which adds f(X) X / alpha =
    k X^-alpha / alpha times phi frozen at X."""
    edges, X = _tail_edges(alpha, u0)
    y, w = _gl_nodes(edges)
    u = np.exp(y)
    return np.append(u, X), np.append(w * u, X / alpha)


def _tail_integral(alpha: float, phi, u0: float, d: int = 1):
    """int_{u0}^inf f(u) phi(u) u^(d-1) du for u0 >= TAIL_CUTOFF, the standard
    d-dimensional radial density f (f0 at d = 1) and a vectorized phi of log
    growth: the reference entropy's tail.

    log f comes from the density engine (the power-tail series, or the closed
    form at alpha = 1), integrated on `_tail_edges` by `_panel_integral`, and
    beyond X the first-order remainder k X^-alpha / alpha * phi(X) is added.
    A stacked phi, shape (k, N), gives k integrals.  phi runs once, on the
    nodes with X, the largest argument, appended.  (The sum over
    `_tail_nodes` moves the alpha-0.7 entropy by an ulp.)
    """
    eng = standard_density(alpha, d)
    edges, X = _tail_edges(alpha, u0)
    phi_X = []

    def fn(y):
        u = np.exp(y)
        vals = np.asarray(phi(np.append(u, X)))
        phi_X.append(vals[..., -1])
        if d == 1:
            return np.exp(eng.log_pdf_vec(u)) * vals[..., :-1] * u
        return np.exp(eng.log_pdf_vec(u) + d * y) * vals[..., :-1]  # u^d overflows at small alpha

    val = _panel_integral(fn, edges)
    rem = eng.tail_constant * X ** (-alpha) / alpha * phi_X[0]
    return val + _reduced(rem)


def _standard_entropy(alpha: float, d: int = 1) -> float:
    """Differential entropy -S_d int_0^inf f ln f r^(d-1) dr of the standard
    symmetric stable law in d dimensions (gamma = 1), S_d = 2 pi^(d/2) / Gamma(d/2)."""
    eng = standard_density(alpha, d)

    def neg_flogf(u):
        lp = eng.log_pdf_vec(u)
        return -np.exp(lp) * lp * u ** (d - 1)

    # core: log-spaced panels resolve the peak for small alpha
    edges = np.concatenate([[0.0], np.geomspace(1e-13, TAIL_CUTOFF, 120)])
    core = _panel_integral(neg_flogf, edges)
    tail = _tail_integral(alpha, lambda u: -eng.log_pdf_vec(u), TAIL_CUTOFF, d)
    surface = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    return surface * (core + tail)


def _digamma_half(m: int) -> float:
    """The digamma function at m / 2 for an integer m >= 1, in closed form:
    psi(n) = H_(n-1) - euler_gamma and
    psi(n + 1/2) = -euler_gamma - 2 ln 2 + sum_(k=1..n) 2 / (2k - 1)."""
    n, odd = divmod(m, 2)
    if odd:
        terms = [2.0 / (2 * k - 1) for k in range(1, n + 1)] + [-2.0 * math.log(2.0)]
    else:
        terms = [1.0 / k for k in range(1, n)]
    return math.fsum(terms + [-np.euler_gamma])


@lru_cache(maxsize=None)
def _reference_entropy_cached(alpha: float, d: int) -> float:
    if alpha == 2.0:
        return (d / 2.0) * math.log(2.0 * math.pi * math.e)
    if alpha == 1.0:
        half = (d + 1.0) / 2.0
        return (
            half * math.log(math.pi)
            - math.lgamma(half)
            + half * (math.log(4.0) + _digamma_half(d + 1) + np.euler_gamma)
        )
    return _standard_entropy(alpha, d) + d * math.log((1.0 / alpha) ** (1.0 / alpha))


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
