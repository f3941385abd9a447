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

The radial density of the d-dimensional law with characteristic function
exp(-|w|^alpha), `radial_pdf`, is its power-tail series where that gets
there, else a 40-digit Hankel integral; `radial_entropy` integrates the
series of both kinds.

Also here: QUADPACK's Fourier-weight rule (QAWF), adaptive QUADPACK split at
the zeros of cos(t u) and its total mass of the library's density, the
library's inversion and its d >= 2 tables forced where closed forms exist,
`quad_g` (G(s) as one
Gauss-Legendre sum on panels that hold no spline knot), a cell-by-cell G of
the uniform quantizer, a design grid search, a Brent design search, the
root oracle that every strength is checked against, and SciPy's not-a-knot
`CubicSpline`, which the library's own spline reproduces bit for bit.
"""

import math
from contextlib import contextmanager
from functools import lru_cache
from unittest import mock

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


def _log_terms(alpha, u, kind, d=1):
    """ln |term k| of a series at u in floats (sines left out), k < _TERM_BUDGET."""
    k = np.arange(_TERM_BUDGET, dtype=float)
    if d > 1:
        if kind == "small":
            return gammaln((2.0 * k + d) / alpha) - math.log(alpha) - (2.0 * k + d - 1.0) * math.log(2.0) \
                - (d / 2.0) * math.log(math.pi) - gammaln(k + 1.0) - gammaln(k + d / 2.0) + 2.0 * k * math.log(u)
        k = k + 1.0
        return k * alpha * math.log(2.0) + gammaln(k * alpha / 2.0 + 1.0) + gammaln((k * alpha + d) / 2.0) \
            - gammaln(k + 1.0) - (d / 2.0 + 1.0) * math.log(math.pi) - (k * alpha + d) * math.log(u)
    if kind == "small":
        return gammaln((2.0 * k + 1.0) / alpha) - gammaln(2.0 * k + 1.0) + 2.0 * k * math.log(u)
    k = k + 1.0
    if kind == "tail":
        return gammaln(alpha * k + 1.0) - gammaln(k + 1.0) - (alpha * k + 1.0) * math.log(u)
    return gammaln(alpha * k + 1.0) - gammaln(k + 1.0) - np.log(alpha * k) - alpha * k * math.log(u)


def _coefficient(a, kind, k, d):
    """The u-free factor of term k (from 0 for "small", from 1 else) at the
    working precision, a an mpf."""
    if d > 1:
        # the radial density of the d-dimensional law: its small-r series,
        # from the Bessel series of the Hankel integral below, and its
        # power-tail series
        half = mpmath.mpf(d) / 2
        if kind == "small":
            return (-1) ** k * mpmath.gamma((2 * k + d) / a) / (
                a * 2 ** (2 * k + d - 1) * mpmath.pi ** half * mpmath.factorial(k) * mpmath.gamma(k + half))
        return (-1) ** (k + 1) / mpmath.factorial(k) * 2 ** (k * a) * mpmath.gamma(k * a / 2 + 1) \
            * mpmath.gamma((k * a + d) / 2) * mpmath.sin(k * mpmath.pi * a / 2) / mpmath.pi ** (half + 1)
    if kind == "small":
        return (-1) ** k * mpmath.gamma((2 * k + 1) / a) / mpmath.factorial(2 * k) / (mpmath.pi * a)
    # the survival series is the tail series integrated term by term
    return (-1) ** (k - 1) * mpmath.gamma(a * k + 1) / mpmath.factorial(k) \
        * mpmath.sin(k * mpmath.pi * a / 2) / mpmath.pi / (1 if kind == "tail" else a * k)


_COEFFICIENTS = {}


def _coefficients(alpha, kind, dps, terms, d=1):
    """The u-free factors of the first `terms` terms, at dps digits, cached
    per precision and extended as longer sums ask for them."""
    have = _COEFFICIENTS.setdefault((alpha, kind, dps, d), [])
    if len(have) < terms:
        first = 0 if kind == "small" else 1
        with mpmath.workdps(dps):
            a = mpmath.mpf(alpha)
            have.extend(_coefficient(a, kind, k, d) for k in range(first + len(have), first + terms))
    return have[:terms]


def series(alpha, u, kind, d=1):
    """f0(u) from the "small"-u or the power-"tail" series alone, or P(U > u)
    from the "survival" one, as an mpf; None where the series does not get
    there within the term budget (the small-u one, always at alpha < 1 but
    for small u).  With d > 1, the radial density of the d-dimensional law
    at radius u from its "small" or "tail" series."""
    u = abs(float(u))
    log_terms = _log_terms(alpha, u, kind, d)
    top = np.maximum.accumulate(log_terms)
    dps = _EXTRA_DIGITS
    for _ in range(8):
        # stop at the first term dps digits below the largest one before it
        past = np.flatnonzero(log_terms < top - dps * math.log(10.0))
        if past.size == 0:
            return None
        terms = int(past[0]) + 1
        # coefficients are cached per precision, rounded up
        dps_key = 10 * math.ceil(dps / 10)
        coef = _coefficients(alpha, kind, dps_key, terms, d)
        with mpmath.workdps(dps_key):
            x = mpmath.mpf(u)
            if kind == "small":
                step, power = x * x, mpmath.mpf(1)
            else:
                step = x ** -alpha
                power = 1 / x ** (alpha + d) if kind == "tail" else step
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


def radial_hankel(alpha, d, r):
    """The radial density of the d-dimensional law at r > 0 as an mpf, by the
    Hankel integral (2 pi)^(-d/2) r^(1-d/2) int_0^T exp(-rho^alpha)
    rho^(d/2) J_(d/2-1)(rho r) drho in a 40-digit `mpmath.quad`, split at
    rho = j pi / r and graded towards 0, T where exp(-T^alpha) < 1e-45."""
    with mpmath.workdps(_QUAD_DIGITS + 10):
        a, x, half = mpmath.mpf(alpha), mpmath.mpf(r), mpmath.mpf(d) / 2
        T = (45 * mpmath.log(10)) ** (1 / a)

        def integrand(rho):
            return mpmath.exp(-rho ** a) * rho ** half * mpmath.besselj(half - 1, rho * x)

        zeros = [j * mpmath.pi / x for j in range(1, int(T * x / mpmath.pi) + 1)]
        points = [mpmath.mpf(0)] + [T * mpmath.mpf(4) ** -j for j in range(12, 0, -1)] + zeros + [T]
        value = mpmath.quad(integrand, sorted(p for p in set(points) if p <= T))
        return value * (2 * mpmath.pi) ** -half * x ** (1 - half)


def radial_pdf(alpha, d, r):
    """The radial density of the d-dimensional law with characteristic
    function exp(-|w|^alpha) at r > 0, as an mpf: the power-tail series where
    it gets there within the term budget, else the Hankel integral."""
    value = series(alpha, r, "tail", d)
    return radial_hankel(alpha, d, r) if value is None else value


def log_radial_pdf(alpha, d, r):
    """ln of `radial_pdf` as a float."""
    with mpmath.workdps(_QUAD_DIGITS):
        return float(mpmath.log(radial_pdf(alpha, d, r)))


def _fast_log_radial_pdf(alpha, d, r):
    """ln f_d(r) as a float from the convergent series, then the other one,
    then the Hankel integral."""
    first = "tail" if alpha < 1.0 else "small"
    for kind in (first, "small" if first == "tail" else "tail"):
        value = series(alpha, r, kind, d)
        if value is not None:
            with mpmath.workdps(_QUAD_DIGITS):
                return float(mpmath.log(value))
    return float(mpmath.log(radial_hankel(alpha, d, r)))


@lru_cache(maxsize=None)
def radial_entropy(alpha, d):
    """The entropy of `ReferenceLaw(alpha, d)`: -S_d int f ln f r^(d-1) dr of
    the standard law, S_d = 2 pi^(d/2)/Gamma(d/2), plus d ln of the scale.

    A 16-node Gauss-Legendre sum in y = ln r of the mpmath series values:
    panels 1 wide from r0 = 1e-6 to 30 e^2 and 5 wide to e^(80/alpha) 30,
    f(0) below r0, and the first-order tail term integrated in closed form
    beyond.  f(0) below 1e-6 holds for alpha above about 0.3: at 0.15 and
    d = 2 most of the mass lies below 1e-5."""
    y0, y1 = math.log(1e-6), math.log(TAIL_CUTOFF) + 2.0
    y2 = math.log(TAIL_CUTOFF) + 80.0 / alpha
    edges = np.concatenate([np.linspace(y0, y1, int(y1 - y0) + 1),
                            np.linspace(y1, y2, int((y2 - y1) / 5.0) + 1)[1:]])
    xg, wg = np.polynomial.legendre.leggauss(16)
    y = (0.5 * (edges[1:] + edges[:-1])[:, None] + 0.5 * np.diff(edges)[:, None] * xg).ravel()
    w = (0.5 * np.diff(edges)[:, None] * wg).ravel()
    lf = np.array([_fast_log_radial_pdf(alpha, d, math.exp(v)) for v in y])
    h = float(np.sum(w * -lf * np.exp(lf + d * y)))
    # below r0 f is f(0); beyond R = e^y2 it is k R^-(alpha+d)
    with mpmath.workdps(_QUAD_DIGITS):
        lf0 = float(mpmath.log(series(alpha, 1e-300, "small", d)))
        log_k = float(mpmath.log(_coefficients(alpha, "tail", 30, 1, d)[0]))
    h += -math.exp(lf0) * lf0 * math.exp(d * y0) / d
    h += math.exp(log_k - alpha * y2) / alpha * ((alpha + d) * (y2 + 1.0 / alpha) - log_k)
    surface = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    return surface * h + d * math.log(ReferenceLaw(alpha, d).scale)


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
    # the batched routes refuse alpha = 2, whose closed form the library
    # takes; the Fourier route alone is the inversion there
    if params.alpha == 2.0:
        return float(stable_core._fourier_block(2.0, np.array([abs(u)]), stable_core._gl_rules())[0][0]) / params.gamma
    return stable_core._pdf0_quadrature(params.alpha, u) / params.gamma


@contextmanager
def tabulated_engines(alpha, dims):
    """Within the block, `standard_density(alpha, d)` for each d in dims is a
    fresh engine that serves alpha from its table, even at alpha = 1: the
    library's d >= 2 build forced where closed forms exist.  Yields the
    engines by d; each d >= 2 build reads the engine of d - 1, forced or not.
    """
    engines = {}
    for d in dims:
        eng = stable_core._StandardDensity(alpha, d)
        eng._closed = False
        engines[d] = eng
    with mock.patch.dict(stable_core._DENSITY_CACHE, {(float(alpha), d): e for d, e in engines.items()}):
        yield engines


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
    the source's own `tail_nodes` give the rest, the lower one on the
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
            tails += _tail_sum(source, phi, _G_REACH)
        if cuts[j] == -math.inf:
            tails += _tail_sum(source.reflected, lambda x, phi=phi: phi(-np.asarray(x)), _G_REACH)
    lo, hi, rep = np.concatenate(panels, axis=1)[:, :, None]
    xg, wg = np.polynomial.legendre.leggauss(nodes)
    x = 0.5 * (lo + hi) + 0.5 * (hi - lo) * xg
    return float(np.sum(source.pdf_vec(x) * psi((x - rep) / s) * (0.5 * (hi - lo) * wg))) + tails


def _tail_sum(source, phi, x0):
    """The integral of f phi over (x0, infinity) on the source's tail nodes."""
    x, w, _ = source.tail_nodes(x0)
    return float(np.sum(w * source.pdf_vec(x) * phi(x)))


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
