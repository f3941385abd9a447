"""Independent routes to the standard symmetric stable density, for tests.

f0(u; alpha) = (1/pi) int_0^inf exp(-t^alpha) cos(t u) dt, with scale 1 as in
`stablerd.stable_core`.  The main oracle, `log_pdf0`, sums one of two series
in mpmath:

* the power-tail series (1/pi) sum_{k>=1} (-1)^(k-1) Gamma(a k + 1)/k!
  sin(k pi a/2) u^(-a k - 1), convergent for alpha < 1;
* the small-u series (1/(pi a)) sum_{k>=0} (-1)^k Gamma((2k + 1)/a)/(2k)!
  u^(2k), convergent for alpha > 1.

The convergent series is tried first, then the other one, which is only
asymptotic and is used where its terms fall far enough before they grow.  A
series is summed with the working precision sized to its largest term, plus
20 digits, and stops once the terms are below that precision.  Where neither
series gets there within _TERM_BUDGET terms, a 30-digit `mpmath.quad` of
Zolotarev's integral, split at its peak, gives the value.

Also here: QUADPACK's Fourier-weight rule (QAWF), adaptive QUADPACK split at
the zeros of cos(t u), and the library's inversion forced where closed forms
exist.
"""

import math
from functools import lru_cache

import mpmath
import numpy as np
from scipy import integrate
from scipy.special import gammaln

from stablerd import stable_core

_TERM_BUDGET = 3000
_EXTRA_DIGITS = 20
_QUAD_DIGITS = 30


def _log_terms(alpha, u, kind):
    """ln |term k| of a series at u in floats (sines left out), k < _TERM_BUDGET."""
    k = np.arange(_TERM_BUDGET, dtype=float)
    if kind == "tail":
        k = k + 1.0
        return gammaln(alpha * k + 1.0) - gammaln(k + 1.0) - (alpha * k + 1.0) * math.log(u)
    return gammaln((2.0 * k + 1.0) / alpha) - gammaln(2.0 * k + 1.0) + 2.0 * k * math.log(u)


@lru_cache(maxsize=None)
def _coefficients(alpha, kind, dps, terms):
    """The u-free factors of the first `terms` terms, at dps digits."""
    with mpmath.workdps(dps):
        a = mpmath.mpf(alpha)
        if kind == "tail":
            return tuple(
                (-1) ** (k - 1) * mpmath.gamma(a * k + 1) / mpmath.factorial(k)
                * mpmath.sin(k * mpmath.pi * a / 2) / mpmath.pi
                for k in range(1, terms + 1)
            )
        return tuple(
            (-1) ** k * mpmath.gamma((2 * k + 1) / a) / mpmath.factorial(2 * k) / (mpmath.pi * a)
            for k in range(terms)
        )


def _series(alpha, u, kind):
    """f0(u) as an mpf from one series, or None past the term budget."""
    log_terms = _log_terms(alpha, u, kind)
    top = np.maximum.accumulate(log_terms)
    dps = _EXTRA_DIGITS
    for _ in range(8):
        # stop at the first term dps digits below the largest one before it
        past = np.flatnonzero(log_terms < top - dps * math.log(10.0))
        if past.size == 0:
            return None
        terms = int(past[0]) + 1
        # coefficients are cached per precision and length, rounded up
        dps_key, terms_key = 10 * math.ceil(dps / 10), 100 * math.ceil(terms / 100)
        coef = _coefficients(alpha, kind, dps_key, terms_key)[:terms]
        with mpmath.workdps(dps_key):
            x = mpmath.mpf(u)
            if kind == "tail":
                step, power = x ** -alpha, 1 / x ** (alpha + 1)
            else:
                step, power = x * x, mpmath.mpf(1)
            total = mpmath.mpf(0)
            for c in coef:
                total += c * power
                power *= step
            if total > 0:
                loss = (top[terms - 1] - float(mpmath.log(total))) / math.log(10.0)
                need = _EXTRA_DIGITS + max(0, math.ceil(loss))
                if need <= dps:
                    return total
            else:
                need = 2 * dps
        dps = need
    return None


def _zolotarev_quad(alpha, u):
    """f0(u) as an mpf from Zolotarev's integral, alpha != 1, at 30 digits."""
    if alpha == 1.0:
        raise ValueError("Zolotarev's integral has no alpha = 1 form here")
    with mpmath.workdps(_QUAD_DIGITS + 10):
        a, x = mpmath.mpf(alpha), mpmath.mpf(u)
        c = a / (a - 1)
        log_xc = c * mpmath.log(x)

        def log_g(th):
            return log_xc + c * mpmath.log(mpmath.cos(th) / mpmath.sin(a * th)) \
                + mpmath.log(mpmath.cos((a - 1) * th) / mpmath.cos(th))

        lo, hi = mpmath.mpf(0), mpmath.pi / 2
        for _ in range(400):
            mid = (lo + hi) / 2
            if (log_g(mid) > 0) == (alpha < 1.0):
                hi = mid
            else:
                lo = mid
        peak = (lo + hi) / 2

        def integrand(th):
            lg = log_g(th)
            return mpmath.exp(lg - mpmath.exp(lg))

        # geometric split points on each side of the peak
        left = [peak * (1 - mpmath.mpf(4) ** -j) for j in range(1, 16)]
        right = [peak + (mpmath.pi / 2 - peak) * mpmath.mpf(4) ** -j for j in range(15, 0, -1)]
        points = [mpmath.mpf(0)] + left + [peak] + right + [mpmath.pi / 2]
        value = mpmath.quad(integrand, points)
        return value * a / (mpmath.pi * abs(a - 1) * x)


def pdf0(alpha, u):
    """f0(u) as an mpf: a series within the term budget, else Zolotarev's quad."""
    u = abs(float(u))
    if u == 0.0:
        return mpmath.gamma(1 + 1 / mpmath.mpf(alpha)) / mpmath.pi
    first = "tail" if alpha < 1.0 or (alpha == 1.0 and u > 1.0) else "small"
    for kind in (first, "small" if first == "tail" else "tail"):
        value = _series(alpha, u, kind)
        if value is not None:
            return value
    return _zolotarev_quad(alpha, u)


def log_pdf0(alpha, u):
    """ln f0(u) as a float."""
    with mpmath.workdps(_QUAD_DIGITS):
        return float(mpmath.log(pdf0(alpha, u)))


def log_small_u_series(alpha, u):
    """ln f0(u) from the small-u series alone, or None where it does not get
    there within the term budget (always, at alpha < 1, but for small u)."""
    value = _series(alpha, abs(float(u)), "small")
    return None if value is None else float(mpmath.log(value))


def pdf0_qawf(alpha, u):
    """f0(u) by QUADPACK's Fourier-weight rule (QAWF): cycle splitting and
    extrapolation over the zeros of cos.  Raises if QUADPACK reports failure."""
    value, abserr, *info = integrate.quad(
        lambda t: math.exp(-(t ** alpha)), 0.0, np.inf, weight="cos", wvar=u,
        epsabs=1e-13, limit=400, full_output=1,
    )
    if len(info) > 1 or not math.isfinite(value):
        raise ArithmeticError(f"QAWF failed at alpha={alpha}, u={u}: abserr {abserr}")
    return value / math.pi


def pdf0_adaptive(alpha, u):
    """f0(u) by adaptive QUADPACK on [0, T], split at the zeros of cos(t u)."""
    T = stable_core._LOG_EPS ** (1.0 / alpha)
    half = math.pi / (2.0 * u)
    zeros = half * (2 * np.arange(0, min(40, int(T / (2.0 * half)) + 1)) + 1)
    value, _ = integrate.quad(
        lambda t: math.exp(-(t ** alpha)) * math.cos(t * u), 0.0, T,
        points=list(zeros[zeros < T]) or None, epsabs=1e-13, epsrel=1e-11, limit=300,
    )
    return value / math.pi


def pdf_by_inversion(params, x):
    """The library's stable density with its numerical inversion forced, even
    where closed forms exist (alpha 1 and 2)."""
    if params.beta != 0.0:
        return stable_core._pdf_skewed_quadrature(params, x)
    u = (float(x) - params.delta) / params.gamma
    if abs(u) >= stable_core.TAIL_CUTOFF:
        return float(np.exp(stable_core._log_pdf0_tail(params.alpha, u))) / params.gamma
    return stable_core._pdf0_quadrature(params.alpha, u) / params.gamma
