"""Every independent route the tests check the library against.

The standard symmetric stable density is f0(u; alpha) = (1/pi) int_0^inf
exp(-t^alpha) cos(t u) dt, with scale 1 as in `stablerd.stable_core`.  Its
main oracle, `log_pdf0`, sums one of two series in mpmath:

* the power-tail series (1/pi) sum_{k>=1} (-1)^(k-1) Gamma(a k + 1)/k!
  sin(k pi a/2) u^(-a k - 1), convergent for alpha < 1 (integrated term by
  term, the "survival" series gives P(U > u));
* the small-u series (1/(pi a)) sum_{k>=0} (-1)^k Gamma((2k + 1)/a)/(2k)!
  u^(2k), convergent for alpha > 1.

The convergent series is tried first, then the other one, which is only
asymptotic and is used where its terms fall far enough before they grow.  A
series is summed with the working precision sized to its largest term, plus
20 digits, and stops once the terms are below that precision.  Where neither
series gets there within _TERM_BUDGET terms, a 30-digit `mpmath.quad` of
Zolotarev's integral, split at its peak, gives the value.

Also here: QUADPACK's Fourier-weight rule (QAWF), adaptive QUADPACK split at
the zeros of cos(t u) and its total mass of the library's density, the
library's inversion forced where closed forms exist, `quad_g` (G(s) as one
Gauss-Legendre sum on panels that hold no spline knot), a cell-by-cell G of
the uniform quantizer, a design grid search, a Brent design search, the
root oracle that every strength is checked against, and SciPy's not-a-knot
`CubicSpline`, which the library's own spline reproduces bit for bit.
"""

import math
from functools import lru_cache

import mpmath
import numpy as np
from scipy import integrate, interpolate, optimize
from scipy.special import gammaln

from stablerd import ReferenceLaw, StableParams, SymmetricStableSource, cauchy_source, stable_core
from stablerd import reference_entropy
from stablerd.quantizer import _error_strength_raw
from stablerd.stable_core import TAIL_CUTOFF, _StandardDensity
from stablerd.strength import reference_neg_log_density

_TERM_BUDGET = 3000
_EXTRA_DIGITS = 20
_QUAD_DIGITS = 30


def _log_terms(alpha, u, kind):
    """ln |term k| of a series at u in floats (sines left out), k < _TERM_BUDGET."""
    k = np.arange(_TERM_BUDGET, dtype=float)
    if kind == "small":
        return gammaln((2.0 * k + 1.0) / alpha) - gammaln(2.0 * k + 1.0) + 2.0 * k * math.log(u)
    k = k + 1.0
    if kind == "tail":
        return gammaln(alpha * k + 1.0) - gammaln(k + 1.0) - (alpha * k + 1.0) * math.log(u)
    return gammaln(alpha * k + 1.0) - gammaln(k + 1.0) - np.log(alpha * k) - alpha * k * math.log(u)


@lru_cache(maxsize=None)
def _coefficients(alpha, kind, dps, terms):
    """The u-free factors of the first `terms` terms, at dps digits."""
    with mpmath.workdps(dps):
        a = mpmath.mpf(alpha)
        if kind == "small":
            return tuple(
                (-1) ** k * mpmath.gamma((2 * k + 1) / a) / mpmath.factorial(2 * k) / (mpmath.pi * a)
                for k in range(terms)
            )
        # the survival series is the tail series integrated term by term
        return tuple(
            (-1) ** (k - 1) * mpmath.gamma(a * k + 1) / mpmath.factorial(k)
            * mpmath.sin(k * mpmath.pi * a / 2) / mpmath.pi / (1 if kind == "tail" else a * k)
            for k in range(1, terms + 1)
        )


def series(alpha, u, kind):
    """f0(u) from the "small"-u or the power-"tail" series alone, or P(U > u)
    from the "survival" one, as an mpf; None where the series does not get
    there within the term budget (the small-u one, always at alpha < 1 but
    for small u)."""
    u = abs(float(u))
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
            if kind == "small":
                step, power = x * x, mpmath.mpf(1)
            else:
                step = x ** -alpha
                power = 1 / x ** (alpha + 1) if kind == "tail" else step
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
        value = series(alpha, u, kind)
        if value is not None:
            return value
    return _zolotarev_quad(alpha, u)


def log_pdf0(alpha, u):
    """ln f0(u) as a float."""
    with mpmath.workdps(_QUAD_DIGITS):
        return float(mpmath.log(pdf0(alpha, u)))


def tail_entropy(alpha):
    """int_30^inf -f0 ln f0 du by a 25-digit `mpmath.quad` of the tail series,
    in y = ln u on panels 4/alpha wide out to 100/alpha."""
    with mpmath.workdps(25):
        def integrand(y):
            f = series(alpha, mpmath.exp(y), "tail")
            return -f * mpmath.log(f) * mpmath.exp(y)

        y0 = mpmath.log(TAIL_CUTOFF)
        return float(mpmath.quad(integrand, [y0 + 4 * j / mpmath.mpf(alpha) for j in range(26)]))


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
    if abs(u) >= TAIL_CUTOFF:
        return float(np.exp(stable_core._log_pdf0_tail(params.alpha, u))) / params.gamma
    # at alpha = 2 the Zolotarev route meets 0/0 at th = pi/2, which the
    # library's own alpha = 2 path (the closed form) never reaches
    with np.errstate(divide="ignore", invalid="ignore"):
        return stable_core._pdf0_quadrature(params.alpha, u) / params.gamma


def quadpack_mass(alpha):
    """The total mass of the library's density `pdf(StableParams(alpha))` by
    QUADPACK: [0, 30] in x, [30, e^(60/alpha)] in ln x, and the first-order
    power-tail remainder beyond, doubled."""
    p = StableParams(alpha, 0.0, 1.0, 0.0)
    core = integrate.quad(lambda x: stable_core.pdf(p, x), 0.0, TAIL_CUTOFF, limit=200)[0]
    if alpha == 2.0:
        return 2.0 * core
    tail = integrate.quad(
        lambda y: stable_core.pdf(p, math.exp(y)) * math.exp(y),
        math.log(TAIL_CUTOFF), 60.0 / alpha, limit=200,
    )[0]
    k = math.gamma(alpha + 1.0) * math.sin(math.pi * alpha / 2.0) / math.pi
    return 2.0 * (core + tail + k * math.exp(-60.0) / alpha)


_G_REACH = 1e6  # |x| beyond which quad_g takes the source's own tail integral
_T = np.linspace(math.log(_StandardDensity.TABLE_FLOOR), math.log(TAIL_CUTOFF),
                 _StandardDensity.TABLE_NODES)  # the density table's knots in ln u


def _knots(scale):
    """scale e^t for the table's knots t, continued at their ratio past
    TAIL_CUTOFF until scale e^t passes 2 _G_REACH."""
    step = _T[1] - _T[0]
    more = np.arange(1.0, math.log(2.0 * _G_REACH / (scale * TAIL_CUTOFF)) / step + 2.0)
    return scale * np.exp(np.concatenate([_T, _T[-1] + step * more]))


def quad_g(points, boundaries, source, alpha, s, nodes=32):
    """G(s) = sum_j int_{R_j} f(x) psi((x - x_j)/s) dx at index alpha, as one
    Gauss-Legendre sum, `nodes` nodes a panel, over panels that hold no
    spline knot.

    psi = -ln f_ref reads the density table's spline at |x - x_j| / (s c), c
    the reference scale, so region j is cut at x_j +- s c e^t_k, t_k the
    table's knots; a stable source's own spline puts cuts at +-scale e^t_k.
    Both ladders go on at the same ratio past TAIL_CUTOFF, and 0, the point
    and the source's breakpoints are cuts too.  The panels reach |x| = 1e6;
    the source's own `tail_integral` gives the rest, the lower one on the
    reflection.
    """
    psi = reference_neg_log_density(alpha)
    fixed = [0.0, *source.breakpoints]
    if isinstance(source, SymmetricStableSource):
        fixed = np.concatenate([fixed, _knots(source.scale), -_knots(source.scale)])
    ladder = _knots(s * (1.0 / alpha) ** (1.0 / alpha))
    cuts = [-math.inf, *boundaries, math.inf]
    panels, tails = [], 0.0
    for j, rep in enumerate(points):
        a, b = max(cuts[j], -_G_REACH), min(cuts[j + 1], _G_REACH)
        e = np.concatenate([[a, b, rep], fixed, rep + ladder, rep - ladder])
        e = np.unique(e[(e >= a) & (e <= b)])
        panels.append(np.stack([e[:-1], e[1:], np.full(e.size - 1, float(rep))]))

        def phi(x, rep=rep):
            return psi((np.asarray(x) - rep) / s)

        if cuts[j + 1] == math.inf:
            tails += source.tail_integral(phi, _G_REACH)
        if cuts[j] == -math.inf:
            tails += source.reflected.tail_integral(lambda x, phi=phi: phi(-np.asarray(x)), _G_REACH)
    lo, hi, rep = np.concatenate(panels, axis=1)[:, :, None]
    xg, wg = np.polynomial.legendre.leggauss(nodes)
    x = 0.5 * (lo + hi) + 0.5 * (hi - lo) * xg
    return float(np.sum(source.pdf_vec(x) * psi((x - rep) / s) * (0.5 * (hi - lo) * wg))) + tails


def quad_residual(points, boundaries, source, alpha):
    """s -> quad_g - h, h the reference entropy at alpha."""
    h = reference_entropy(ReferenceLaw(alpha, 1))
    return lambda s: quad_g(points, boundaries, source, alpha, s) - h


def uniform_g_trapezoid(alpha, s, n=100_001):
    """G(s) at index alpha of the uniform source on (-1/2, 1/2) with one point
    at 0: the trapezoid rule on n equally spaced points."""
    u = np.linspace(-0.5, 0.5, n)
    return float(np.trapezoid(reference_neg_log_density(alpha)(u / s), u))


def cauchy_lattice_g(delta, s, cells=3000):
    """G(s) at index 1 of the uniform quantizer x -> round(x / delta) delta
    for the standard Cauchy source: `quad` of the closed-form density and psi
    over each cell out to `cells` cells either side, and the mass beyond
    times the mean of psi over a cell."""
    def cell(c, f=lambda x: 1.0 / (math.pi * (1.0 + x * x))):
        return integrate.quad(lambda x: f(x) * (math.log(math.pi) + math.log1p(((x - c) / s) ** 2)),
                              c - 0.5 * delta, c + 0.5 * delta, limit=200)[0]

    rest = 1.0 - 2.0 * math.atan((cells + 0.5) * delta) / math.pi
    return cell(0.0) + 2.0 * sum(cell(k * delta) for k in range(1, cells + 1)) \
        + rest * cell(0.0, lambda x: 1.0 / delta)


def design_grid_search(points_of, lo=0.001, hi=10.0, step=1e-3):
    """(a, strength) at the least error strength of the standard Cauchy source
    at index 1 over the quantizers points_of(a) = (points, boundaries), a on a
    grid from lo to hi.  Each strength is the library's own solve, warm-started
    from the last: this checks the design optimizer, not G."""
    best_s, best_a, hint = math.inf, None, None
    src = cauchy_source(1.0)
    for a in np.arange(lo, hi + step / 2, step):
        pts, bnd = points_of(a)
        sol = _error_strength_raw(pts, bnd, src, 1.0, tol=1e-8, s_hint=hint)
        hint = sol.value
        if sol.value < best_s:
            best_s, best_a = sol.value, a
    return best_a, best_s


def design_optimum(points_of, lo, hi, gamma=1.0):
    """(a, strength) at the least error strength of the Cauchy source of scale
    gamma at index 1 over the quantizers points_of(a) = (points, boundaries),
    by a bounded Brent search in a on [lo, hi] to xatol 1e-12.  Each strength
    is the library's own solve: like `design_grid_search`, this checks the
    design optimizer, not G."""
    src = cauchy_source(gamma)

    def strength(a):
        pts, bnd = points_of(a)
        return _error_strength_raw(pts, bnd, src, 1.0).value

    res = optimize.minimize_scalar(strength, bounds=(lo, hi), method="bounded",
                                   options={"xatol": 1e-12})
    return float(res.x), float(res.fun)


def root(fn, lo, hi):
    """The root of fn in [lo, hi] by `brentq` at rtol 4 eps."""
    return optimize.brentq(fn, lo, hi, xtol=1e-300, rtol=4.0 * np.finfo(float).eps)


def cubic_spline(x, y):
    """SciPy's not-a-knot `CubicSpline` through (x, y); called as `spl(t)` and
    `spl(t, 1)` it gives PPoly's values and derivatives."""
    return interpolate.CubicSpline(x, y, bc_type="not-a-knot")
