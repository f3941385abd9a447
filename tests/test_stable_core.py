import contextlib
import contextvars
import math
import re
import sys
import threading
import warnings
from functools import lru_cache
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st_
from scipy.special import digamma, gammaln

from stablerd import stable_core
from stablerd import (
    AlphaMismatch,
    QuadratureFailure,
    ReferenceLaw,
    SampleBatch,
    StableParams,
    SymmetricStableSource,
    ZeroScale,
    add_independent,
    char_fn,
    log_pdf_reference,
    pdf,
    reference_entropy,
    sample,
    scale_shift,
)
from stablerd.figures import FIG3_ALPHAS
from stablerd.stable_core import (
    TAIL_CUTOFF,
    _StandardDensity,
    _digamma_half,
    _gauss_legendre,
    _log_pdf0_tail,
    _n_osc,
    _pdf0_quadrature,
    _reference_entropy_cached,
)

import oracles

# oracle values, frozen from independent computations:
#  - CHAR_SKEW: 50-digit mpmath evaluation of the characteristic-function formula
#  - PDF_15_AT_1: FFT inversion of exp(-|w|^1.5) on w in [-400, 400] with 2^24
#    samples (the oracle itself is good to ~2e-6 absolute from grid periodization)
CHAR_SKEW = complex(0.095381246723277788113, 0.31333633552413432588)
PDF_15_AT_1 = 0.20203803773057935


def params_strategy():
    return st_.builds(
        StableParams,
        alpha=st_.floats(0.1, 2.0, exclude_min=False),
        beta=st_.just(0.0),
        gamma=st_.floats(0.01, 100.0),
        delta=st_.floats(-50.0, 50.0),
    )


class TestCharFn:
    def test_gaussian(self):
        p = StableParams(2.0, 0.0, 1.0 / math.sqrt(2.0), 0.0)
        assert char_fn(p, 1.0) == pytest.approx(math.exp(-0.5), rel=1e-14)

    def test_cauchy_negative_omega(self):
        p = StableParams(1.0, 0.0, 1.0, 0.0)
        assert char_fn(p, -2.0) == pytest.approx(math.exp(-2.0), rel=1e-14)

    def test_skewed_against_high_precision(self):
        p = StableParams(0.7, 0.5, 1.3, 0.2)
        v = char_fn(p, 0.9)
        assert v.real == pytest.approx(CHAR_SKEW.real, rel=1e-14)
        assert v.imag == pytest.approx(CHAR_SKEW.imag, rel=1e-14)

    @given(params_strategy())
    @settings(max_examples=60, deadline=None)
    def test_at_zero_is_one(self, p):
        assert char_fn(p, 0.0) == 1.0 + 0.0j

    @given(params_strategy(), st_.floats(-100.0, 100.0))
    @settings(max_examples=60, deadline=None)
    def test_modulus_at_most_one(self, p, w):
        assert abs(char_fn(p, w)) <= 1.0 + 1e-12

    def test_alpha2_with_skew_rejected(self):
        with pytest.raises(ValueError):
            StableParams(2.0, 0.5, 1.0, 0.0)


class TestPdf:
    def test_cauchy_peak(self):
        assert pdf(StableParams(1.0, 0.0, 1.0, 0.0), 0.0) == pytest.approx(1.0 / math.pi, rel=1e-14)

    def test_gaussian_peak(self):
        p = StableParams(2.0, 0.0, 1.0 / math.sqrt(2.0), 0.0)
        assert pdf(p, 0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-14)

    def test_alpha_15_against_fft_oracle(self):
        v = pdf(StableParams(1.5, 0.0, 1.0, 0.0), 1.0)
        assert v == pytest.approx(PDF_15_AT_1, abs=5e-6)

    def test_alpha_15_against_scipy(self):
        from scipy.stats import levy_stable

        for x in (0.3, 1.0, 4.0):
            mine = pdf(StableParams(1.5, 0.0, 1.0, 0.0), x)
            ref = levy_stable.pdf(x, 1.5, 0.0)
            assert mine == pytest.approx(ref, rel=1e-9)

    def test_skewed_against_scipy(self):
        from scipy.stats import levy_stable

        p = StableParams(1.5, 0.7, 1.0, 0.0)
        for x in (-1.0, 0.5, 2.0):
            assert pdf(p, x) == pytest.approx(levy_stable.pdf(x, 1.5, 0.7), rel=1e-6)

    @pytest.mark.xfail(raises=QuadratureFailure, strict=True,
                       reason="the skewed QUADPACK inversion fails at small alpha")
    @pytest.mark.parametrize("alpha, x", [(0.3, 1.0), (0.5, 10.0), (0.7, 100.0)])
    def test_skewed_small_alpha(self, alpha, x):
        # levy_stable is too loose to be the oracle here (1.0e-7 and 1.9e-6
        # relative off a 30-digit mpmath quadosc at the first two cases), so
        # only a finite positive value is asked for
        v = pdf(StableParams(alpha, 0.5, 1.0, 0.0), x)
        assert math.isfinite(v) and v > 0.0

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_closed_forms_through_the_engine(self, alpha):
        # beta = 0 goes through standard_density; at alpha 1 and 2 that is
        # the textbook closed form in x
        g, d = 1.7, -0.4
        p = StableParams(alpha, 0.0, g, d)
        sigma = g * math.sqrt(2.0)
        for x in np.linspace(-60.0, 60.0, 41):
            if alpha == 1.0:
                want = g / (math.pi * (g * g + (x - d) ** 2))
            else:
                want = math.exp(-0.5 * (x - d) ** 2 / sigma ** 2) / (sigma * math.sqrt(2.0 * math.pi))
            assert pdf(p, x) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_inversion_matches_closed_form(self, alpha):
        gamma = 1.0 if alpha == 1.0 else 1.0 / math.sqrt(2.0)
        p = StableParams(alpha, 0.0, gamma, 0.0)
        for x in np.linspace(-20.0, 20.0, 21):
            assert abs(oracles.pdf_by_inversion(p, x) - pdf(p, x)) < 1e-8

    @pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0, 1.3, 1.7, 2.0])
    def test_mass_is_one(self, alpha):
        assert oracles.quadpack_mass(alpha) == pytest.approx(1.0, abs=1e-6)

    def test_symmetric_and_unimodal(self):
        p = StableParams(1.3, 0.0, 1.0, 0.0)
        xs = np.linspace(0.1, 10.0, 12)
        left = np.array([pdf(p, -x) for x in xs])
        right = np.array([pdf(p, x) for x in xs])
        np.testing.assert_allclose(left, right, rtol=1e-10)
        vals = np.array([pdf(p, x) for x in np.linspace(0.0, 10.0, 24)])
        assert np.all(np.diff(vals) < 0.0)

    def test_tail_series_continuity_at_crossover(self):
        # quadrature and the tail series must agree where the code switches
        for alpha in (0.5, 0.8, 1.3, 1.7):
            q = _pdf0_quadrature(alpha, 30.0)
            s = math.exp(float(_log_pdf0_tail(alpha, 30.0)))
            assert abs(q - s) / q < 1e-4


    def test_tail_series_against_cauchy_closed_form(self):
        # at alpha = 1 the tail series must reproduce -ln(pi) - ln(1 + u^2)
        u = np.geomspace(TAIL_CUTOFF, 1e6, 120)
        exact = -math.log(math.pi) - np.log1p(u * u)
        np.testing.assert_allclose(_log_pdf0_tail(1.0, u), exact, rtol=1e-14, atol=0.0)
        pointwise = np.array([float(_log_pdf0_tail(1.0, x)) for x in u])
        np.testing.assert_allclose(pointwise, exact, rtol=1e-14, atol=0.0)


    @pytest.mark.parametrize("alpha", [0.1, 0.35, 0.5, 0.8, 1.0, 1.2, 1.5, 1.8, 1.99])
    def test_tail_series_bitwise_equal_to_loop_reference(self, alpha):
        # the cached coefficients must not change a single bit of the sum
        grids = [
            np.geomspace(TAIL_CUTOFF, 5e12, 60),
            np.geomspace(1e4, 1e9, 7),
            np.array([TAIL_CUTOFF]),
            np.array([5.0, 31.7, 1e3]),
        ]
        for u in grids:
            assert _log_pdf0_tail(alpha, u).tobytes() == _log_pdf0_tail_loop(alpha, u).tobytes()


def _log_pdf0_tail_loop(alpha, u):
    """The power-tail series evaluated term by term, every coefficient per call."""
    u = np.abs(np.asarray(u, dtype=float))
    log_u = np.log(u)
    lead = math.lgamma(alpha + 1.0) + math.log(abs(math.sin(math.pi * alpha / 2.0))) \
        - math.log(math.pi)
    log_t1 = lead - (alpha + 1.0) * log_u
    corr = np.zeros_like(u)
    umin_log = float(np.min(log_u))
    last_env = math.inf
    s1 = math.sin(math.pi * alpha / 2.0)
    for k in range(2, 400):
        log_env_min = (
            math.lgamma(alpha * k + 1.0) - math.lgamma(k + 1.0)
            - math.lgamma(alpha + 1.0)
            - alpha * (k - 1) * umin_log
        )
        if log_env_min > last_env:
            break
        last_env = log_env_min
        sk = math.sin(k * math.pi * alpha / 2.0)
        if sk != 0.0:
            corr += (-1.0) ** (k - 1) * (sk / s1) * np.exp(
                math.lgamma(alpha * k + 1.0) - math.lgamma(k + 1.0)
                - math.lgamma(alpha + 1.0)
                - alpha * (k - 1) * log_u
            )
        if log_env_min < math.log(1e-18):
            break
    return log_t1 + np.log1p(corr)


class TestGaussLegendreCache:
    ORDERS = (14, 16, 32, 48)

    def test_bitwise_equal_to_leggauss(self):
        for n in self.ORDERS:
            xg, wg = _gauss_legendre(n)
            x0, w0 = np.polynomial.legendre.leggauss(n)
            assert xg.tobytes() == x0.tobytes()
            assert wg.tobytes() == w0.tobytes()

    def test_same_objects_on_repeat(self):
        for n in self.ORDERS:
            xg, wg = _gauss_legendre(n)
            again = _gauss_legendre(n)
            assert again[0] is xg and again[1] is wg

    def test_read_only(self):
        xg, wg = _gauss_legendre(16)
        with pytest.raises(ValueError):
            xg[0] = 0.0
        with pytest.raises(ValueError):
            wg[:] = 1.0
        x0, w0 = np.polynomial.legendre.leggauss(16)
        assert xg.tobytes() == x0.tobytes() and wg.tobytes() == w0.tobytes()

    def test_concurrent_first_calls(self):
        # four threads fill the cold cache at once; all must see the same rules
        _gauss_legendre.cache_clear()
        barrier = threading.Barrier(4, timeout=30)
        results = [None] * 4

        def work(i):
            barrier.wait()
            results[i] = [_gauss_legendre(n) for n in self.ORDERS]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for rules in results:
            assert rules is not None
            for (xg, wg), n in zip(rules, self.ORDERS):
                x0, w0 = np.polynomial.legendre.leggauss(n)
                assert xg.tobytes() == x0.tobytes() and wg.tobytes() == w0.tobytes()
                assert not xg.flags.writeable and not wg.flags.writeable


def _capture_table(alpha):
    """Build a fresh alpha table; return a dict of its knots t = ln u, its node
    values y = log f0 and the u of every call the build makes to the scalar
    route (quad)."""
    seen = {"quad": []}
    real_spline = stable_core._Spline
    real_quad = stable_core._pdf0_quadrature

    def spline(t, y):
        seen["t"], seen["y"] = np.array(t), np.array(y)
        return real_spline(t, y)

    def quad(a, u):
        seen["quad"].append(u)
        return real_quad(a, u)

    with mock.patch.object(stable_core, "_Spline", spline), \
            mock.patch.object(stable_core, "_pdf0_quadrature", quad):
        _StandardDensity(alpha)._build_table()
    return seen


_captured_table = lru_cache(maxsize=None)(_capture_table)


def _table_nodes(alpha):
    """The nodes u, node values log f0 and scalar-route calls of an alpha table."""
    seen = _captured_table(alpha)
    return np.exp(seen["t"]), seen["y"], seen["quad"]


def _route_calls(alpha):
    """The u that each _pdf0_vec call of a cold alpha build is handed."""
    handed = []
    real = stable_core._pdf0_vec

    def recorded(a, u):
        handed.append(np.array(u))
        return real(a, u)

    with mock.patch.object(stable_core, "_pdf0_vec", recorded):
        _StandardDensity(alpha)._build_table()
    return handed


def _knot_route(alpha, u):
    """ln f0 at knots u by one _pdf0_vec call, as a table reads it where the
    panels do not serve."""
    return np.array([math.log(v) for v in stable_core._pdf0_vec(alpha, u)])


class TestTableBuild:
    """The spline table's knots: the small-u series below the blend, and above
    it the two density routes read through certified Chebyshev panels."""

    @pytest.mark.parametrize("alpha", [0.2, 0.3, 0.5, 1.5])
    def test_plain_nodes_against_small_u_series(self, alpha):
        u, y, _ = _table_nodes(alpha)
        plain = _n_osc(alpha, u) <= 8.0
        err = []
        for x, v in zip(u[plain], y[plain]):
            ref = oracles.series(alpha, x, "small")
            if ref is not None:
                err.append(abs(v - float(mpmath.log(ref))))
        assert len(err) >= 0.75 * plain.sum()
        assert max(err) <= 1e-14

    @pytest.mark.parametrize("alpha", [0.2, 0.3, 0.65, 1.05, 1.35, 1.99])
    def test_plain_nodes_against_adaptive_quadrature(self, alpha):
        u, y, quad = _table_nodes(alpha)
        plain = _n_osc(alpha, u) <= 8.0
        ref = np.array([math.log(oracles.pdf0_adaptive(alpha, x)) for x in u[plain]])
        assert np.max(np.abs(y[plain] - ref)) <= 2e-12
        # no node goes through the scalar entry
        assert quad == []

    @pytest.mark.parametrize("alpha", [0.2, 0.65, 1.35, 1.99])
    def test_plain_rule_continuous_across_switch(self, alpha):
        # just past n_osc = 8 the Zolotarev route takes over; both must agree there
        u, y, _ = _table_nodes(alpha)
        first = np.flatnonzero(_n_osc(alpha, u) > 8.0)[:5]
        with mock.patch.object(stable_core, "_PLAIN_OSC", math.inf):
            plain = np.log(stable_core._fourier_block(alpha, u[first], stable_core._gl_rules())[0])
        np.testing.assert_allclose(plain, y[first], rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("alpha, at", [(0.65, 1950), (0.65, 2300), (1.05, 2300), (0.1, 7), (1.03, 2300)])
    def test_estimate_disagreement_raises(self, alpha, at):
        # the 16-node estimate of the panel node nearest knot `at` pushed 1e-9
        # off: the build fails, naming alpha and that node, on the plain,
        # Zolotarev and Fourier routes alike.  1.05 - 1 is above _FOURIER_BAND
        # in floating point, so (1.05, 2300) is a Zolotarev node; (1.03, 2300),
        # u about 6.9 past n_osc = 8, is a Fourier node of the band around 1
        nodes = _route_calls(alpha)[0]
        target = nodes[np.argmin(np.abs(np.log(nodes) - _StandardDensity.KNOTS[at]))]

        def forced(block):
            def run(a, u, *rest):
                v32, v16 = block(a, u, *rest)
                return [v32, np.where(u == target, v16 * (1.0 + 1e-9), v16)]
            return run

        with mock.patch.object(stable_core, "_fourier_block", forced(stable_core._fourier_block)), \
                mock.patch.object(stable_core, "_zolotarev_block", forced(stable_core._zolotarev_block)):
            with pytest.raises(QuadratureFailure, match=re.escape(f"alpha={alpha}, u={target}")):
                _StandardDensity(alpha)._build_table()

    def test_uncertifiable_panel_raises(self):
        # route values that zigzag by 1e-9 over u in [1, 2] keep their panels'
        # trailing coefficients up at every depth: the build names alpha and
        # the u-range of the first panel that fails at the last one
        real = stable_core._pdf0_vec

        def zigzag(a, u):
            f = real(a, u)
            return f * np.where((u >= 1.0) & (u <= 2.0), 1.0 + 1e-9 * (-1.0) ** np.arange(u.size), 1.0)

        with mock.patch.object(stable_core, "_pdf0_vec", zigzag):
            with pytest.raises(QuadratureFailure, match=r"alpha=0\.65, u in \[") as info:
                _StandardDensity(0.65)._build_table()
        lo, hi = map(float, re.search(r"u in \[(.*), (.*)\]", str(info.value)).groups())
        width = (_StandardDensity.KNOTS[-1] - _StandardDensity.KNOTS[0]) / stable_core._CHEB_PANELS
        assert lo < 2.0 and hi > 1.0
        assert math.log(hi / lo) == pytest.approx(width / 2 ** stable_core._CHEB_DEPTH, rel=1e-12)

    # the most route nodes a cold build may take, per alpha the panels serve
    ROUTE_NODES = {0.65: 250, 1.35: 150, 1.9: 216}

    @pytest.mark.parametrize("alpha, routed", [(0.1, 2400), (0.15, 2018), (0.65, 487), (1.35, 298), (1.9, 280)])
    def test_route_runs_from_the_blend_up(self, alpha, routed):
        # the small-u series gives the knots below the blend, through the
        # engine's own below-table path, and the `routed` knots from the blend
        # start up read the route.  Where the panels serve, _pdf0_vec is first
        # handed exactly the Chebyshev nodes of the panels that reach above
        # the blend start, in one call where no panel splits, and later only
        # the nodes of bisected panels; below alpha 0.2 it is handed the
        # knots themselves (all of them at 0.1, where the series ends below
        # the table), in one call
        eng = _StandardDensity(alpha)
        start = max(0, eng._first - stable_core._SERIES_BLEND)
        assert _KNOTS_U.size - start == routed
        handed = _route_calls(alpha)
        if not stable_core._route_is_accurate(alpha):
            assert len(handed) == 1 and handed[0].tobytes() == _KNOTS_U[start:].tobytes()
        else:
            edges = np.linspace(_StandardDensity.KNOTS[0], _StandardDensity.KNOTS[-1], stable_core._CHEB_PANELS + 1)
            keep = edges[1:] > _StandardDensity.KNOTS[start]
            lo, hi = edges[:-1][keep], edges[1:][keep]
            want = np.exp(0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * stable_core._CHEB_X).ravel()
            assert handed[0].tobytes() == want.tobytes()
            assert sum(h.size for h in handed) <= self.ROUTE_NODES[alpha]
            if alpha < 1.5:
                assert len(handed) == 1
            for h in handed[1:]:
                assert h.size % stable_core._CHEB_NODES == 0 and np.all(np.diff(h) > 0.0)
                assert want[0] < h[0] and h[-1] < want[-1]
        _, y, _ = _table_nodes(alpha)
        assert y[:start].tobytes() == eng._below_table(_KNOTS_U[:start])[0].tobytes()

    @settings(max_examples=25, deadline=None)
    @given(st_.floats(0.1, 2.0, exclude_max=True))
    @example(1.9999)
    @example(1.99995)
    @example(1.99999)
    @example(2.0 - 2.0 ** -52)
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_panel_knots_within_the_stated_bound(self, alpha):
        # every knot from the blend start up: within 1e-14 of the route at
        # that knot where the panels serve; elsewhere (alpha < 0.2, near 1
        # and above 1.995, where the route is 1e-13 to 5e-12 off, 4.7e-12 at
        # 1.99999, by an error no panel can certify) the route's own value
        # above the blend, and between it and the series on the blend
        eng = _StandardDensity(alpha)
        start = max(0, eng._first - stable_core._SERIES_BLEND)
        y = _capture_table(alpha)["y"][start:]
        route = _knot_route(alpha, _KNOTS_U[start:])
        if stable_core._route_is_accurate(alpha):
            assert np.max(np.abs(y - route)) <= 1e-14
        else:
            blend = eng._first - start
            assert y[blend:].tobytes() == route[blend:].tobytes()
            series = eng._below_table(_KNOTS_U[start:eng._first])[0]
            assert np.all(np.abs(y[:blend] - route[:blend]) <= np.abs(series - route[:blend]))

    @pytest.mark.parametrize("alpha", [a for a in FIG3_ALPHAS if a not in (1.0, 2.0)] + [1.99])
    def test_panel_knots_against_oracle(self, alpha):
        # every 60th knot from the blend start up: within 1e-14 of
        # oracles.log_pdf0 where the panels serve, elsewhere no farther off
        # than the route at that knot plus 1e-14
        eng = _StandardDensity(alpha)
        start = max(0, eng._first - stable_core._SERIES_BLEND)
        u, y, _ = _table_nodes(alpha)
        route = _knot_route(alpha, u[start:])[::60]
        u, y = u[start::60], y[start::60]
        ref = np.array([oracles.log_pdf0(alpha, x) for x in u])
        err = np.abs(y - ref)
        if stable_core._route_is_accurate(alpha):
            assert np.max(err) <= 1e-14
        else:
            assert np.all(err <= np.abs(route - ref) + 1e-14)

    @pytest.mark.parametrize("alpha", [0.15, 0.2, 0.3, 0.65, 0.97, 1.35, 1.9])
    def test_series_and_blended_knots_against_oracle(self, alpha):
        # every 50th series knot and every blended one; at alpha 0.15, where the
        # route is 1e-13 off, no knot is farther off than the route's value
        u, y, _ = _table_nodes(alpha)
        first = _StandardDensity(alpha)._first
        start = max(0, first - stable_core._SERIES_BLEND)
        pick = np.r_[0:start:50, start:first]
        assert pick.size >= 48
        ref = np.array([oracles.log_pdf0(alpha, x) for x in u[pick]])
        err = np.abs(y[pick] - ref)
        if alpha >= 0.2:
            assert err.max() <= 5e-15
        else:
            route = np.log(stable_core._pdf0_vec(alpha, u[pick]))
            assert np.all(err <= np.abs(route - ref))

    @settings(max_examples=25, deadline=None)
    @given(st_.floats(0.2, 1.99, exclude_max=True))
    def test_series_and_route_agree_across_the_blend(self, alpha):
        eng = _StandardDensity(alpha)
        u = _KNOTS_U[max(0, eng._first - stable_core._SERIES_BLEND):eng._first + 1]
        route = np.log(stable_core._pdf0_vec(alpha, u))
        assert np.max(np.abs(eng._below_table(u)[0] - route)) <= 1e-14

    def test_alpha_01_table_against_series_oracle(self):
        # every node of the alpha 0.1 table, all on the Zolotarev route,
        # against the power-tail series in mpmath
        u, y, quad = _table_nodes(0.1)
        assert not np.any(_n_osc(0.1, u) <= 8.0)
        assert quad == []
        ref = np.array([oracles.log_pdf0(0.1, x) for x in u])
        assert np.max(np.abs(y - ref)) <= 1e-12

    @pytest.mark.parametrize("alpha", [
        0.1, 0.15, 0.2, 0.3, 0.5, 0.65, 0.9, 0.95, 0.999, 1.001, 1.05, 1.1, 1.35, 1.5, 1.99,
    ])
    def test_sampled_nodes_against_oracle(self, alpha):
        # every 240th node, and the first two past n_osc = 8
        u, y, quad = _table_nodes(alpha)
        assert quad == []
        osc = _n_osc(alpha, u)
        pick = set(range(0, u.size, 240)) | {u.size - 1}
        k = int(np.searchsorted(osc, 8.0, side="right"))
        pick |= {k, k + 1} & set(range(u.size))
        for i in sorted(pick):
            assert abs(y[i] - oracles.log_pdf0(alpha, u[i])) <= 1e-12, (alpha, u[i])

    def test_alpha_two_is_refused(self):
        # the closed forms serve alpha = 2 at every d; past u of about 12.7 the
        # batched routes were up to 62 nats off there, unseen by their estimate
        with pytest.raises(ValueError, match="alpha = 2"):
            stable_core._pdf0_vec(2.0, np.array([1.0, 20.0]))
        for d in (1, 2):
            with pytest.raises(ValueError, match="alpha = 2"):
                _StandardDensity(2.0, d)._build_table()

    def test_no_quadpack_call(self):
        # the symmetric density, table and scalar entries, runs no QUADPACK
        with mock.patch("scipy.integrate.quad", side_effect=AssertionError):
            for alpha in (0.3, 1.35):
                eng = _StandardDensity(alpha)
                eng.log_pdf_vec(np.array([0.5, 3.0]))
                for x in (1e-3, 0.7, 12.0, 45.0):
                    assert eng.pdf(x) > 0.0
            assert pdf(StableParams(0.8, 0.0, 2.0, 0.5), 3.0) > 0.0

    @pytest.mark.parametrize("alpha", [0.3, 0.65, 1.5, 1.99])
    def test_last_interval_matches_accurate_route(self, alpha):
        # the end condition at ln 30 must not bend the last spline interval
        eng = _StandardDensity(alpha)
        t = eng._build_table().x
        for lo, hi in zip(t[-4:-1], t[-3:]):
            for m in np.linspace(lo, hi, 5)[1:-1]:
                exact = oracles.log_pdf0(alpha, math.exp(m))
                assert abs(float(eng.log_pdf_vec(math.exp(m))) - exact) <= 1e-9

    def test_concurrent_first_builds(self):
        # two threads hit a cold engine at once: one build, identical answers
        builds = []
        real = _StandardDensity._build_table

        def counted(self):
            builds.append(self.alpha)
            return real(self)

        eng = _StandardDensity(1.5)
        u = np.geomspace(1e-16, 1e3, 400)
        barrier = threading.Barrier(2, timeout=30)
        results = [None] * 2

        def work(i):
            barrier.wait()
            results[i] = eng.log_pdf_vec(u)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(_StandardDensity, "_build_table", counted):
                threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert builds == [1.5]
        assert results[0] is not None and results[1] is not None
        assert results[0].tobytes() == results[1].tobytes()


def _cold_build(alpha, d):
    """(knot values, spline) of every table a cold build of the (alpha, d)
    table makes, (d - 1)-dimensional ones first."""
    made = []
    real = stable_core._Spline

    def spline(t, y):
        made.append((np.array(y), real(t, y)))
        return made[-1][1]

    with mock.patch.object(stable_core, "_DENSITY_CACHE", {}), \
            mock.patch.object(stable_core, "_Spline", spline):
        _StandardDensity(alpha, d)._build_table()
    return made


_KNOTS_U = np.exp(_StandardDensity.KNOTS)


@contextlib.contextmanager
def _wrapped_blocks(wrap):
    """Both route blocks replaced by wrap(block)."""
    with mock.patch.object(stable_core, "_fourier_block", wrap(stable_core._fourier_block)), \
            mock.patch.object(stable_core, "_zolotarev_block", wrap(stable_core._zolotarev_block)):
        yield


class TestPooledBuild:
    """A table build makes no pool: its blocks run in order on the caller's
    thread, in the caller's context, so the tables are bitwise the same on any
    thread, and the first failing block ends the build and is named."""

    @pytest.mark.parametrize("alpha, d", [
        *((a, 1) for a in FIG3_ALPHAS if a not in (1.0, 2.0)),
        (0.65, 1), (1.35, 1), (0.97, 1), (1.999, 1), (0.8, 2), (1.5, 3),
    ])
    def test_bitwise_one_thread_build(self, alpha, d):
        # a build on the caller's thread starts no thread, and a build on a
        # user thread makes the same tables bit for bit
        with mock.patch.object(threading.Thread, "start", side_effect=AssertionError):
            serial = _cold_build(alpha, d)
        other = []
        thread = threading.Thread(target=lambda: other.extend(_cold_build(alpha, d)))
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive()
        assert len(other) == len(serial) == d
        for (y, spl), (y1, spl1) in zip(other, serial):
            assert y.tobytes() == y1.tobytes()
            for name in ("x", "c", "_rows"):
                assert getattr(spl, name).tobytes() == getattr(spl1, name).tobytes(), name

    @pytest.mark.parametrize("failing", [1, 2])
    def test_failure_names_first_failing_u(self, failing):
        # one plain Fourier block fails its check, or it and a later
        # Zolotarev one: the build stops at the first and names its u
        bad = _KNOTS_U[[1500, 2300][:failing]]

        seen = []

        def forced(block):
            def run(a, u, *rest):
                seen.append(float(u[-1]))
                v32, v16 = block(a, u, *rest)
                return [v32, np.where(np.isin(u, bad), v16 * (1.0 + 1e-9), v16)]
            return run

        with _wrapped_blocks(forced):
            with pytest.raises(QuadratureFailure, match=re.escape(f"alpha=0.65, u={bad[0]}")):
                stable_core._pdf0_vec(0.65, _KNOTS_U)
        assert seen == sorted(seen) and seen[-2] < bad[0] <= seen[-1]

    def test_blocks_run_in_the_callers_context(self):
        # a ContextVar and np.errstate set by the caller hold in every block,
        # all of which run on the caller's thread
        var = contextvars.ContextVar("var", default="unset")
        seen = []

        def recorded(block):
            def run(*args):
                seen.append((var.get(), np.geterr()["divide"], threading.get_ident()))
                return block(*args)
            return run

        token = var.set("caller")
        try:
            with _wrapped_blocks(recorded), np.errstate(divide="ignore"):
                f = stable_core._pdf0_vec(0.65, _KNOTS_U)
        finally:
            var.reset(token)
        assert f.tobytes() == stable_core._pdf0_vec(0.65, _KNOTS_U).tobytes()
        assert len(seen) > 1
        assert set(seen) == {("caller", "ignore", threading.get_ident())}

    def test_exception_cancels_queued_blocks(self):
        # the third block raises: the exception leaves the build, and no
        # later block runs
        ran = []
        real = stable_core._zolotarev_block

        def fn(a, u, *rest):
            ran.append(u[0])
            if len(ran) == 3:
                raise ValueError("block 3")
            return real(a, u, *rest)

        with mock.patch.object(stable_core, "_zolotarev_block", fn), \
                mock.patch.object(stable_core, "_DENSITY_CACHE", {}):
            with pytest.raises(ValueError, match="block 3"):
                _StandardDensity(0.65)._build_table()
        assert len(ran) == 3 and ran == sorted(ran)

    def test_one_block_makes_no_pool(self):
        # neither one u nor a table's worth of u starts a thread or a pool
        with mock.patch("concurrent.futures.ThreadPoolExecutor", side_effect=AssertionError), \
                mock.patch.object(threading.Thread, "start", side_effect=AssertionError):
            assert _pdf0_quadrature(0.65, 0.7) > 0.0
            assert np.all(stable_core._pdf0_vec(0.65, _KNOTS_U) > 0.0)


class TestSpline:
    """`_Spline` against SciPy's not-a-knot `CubicSpline`: the same coefficients,
    and PPoly's values and derivatives, bit for bit (checked with SciPy 1.17.1
    on x86_64; a SciPy build that fuses multiply-adds can differ in the last
    bits)."""

    ALPHAS = FIG3_ALPHAS + (0.65, 1.35)

    @staticmethod
    def _knots(alpha):
        """A table's knots and node values; closed forms at alpha 1 and 2, which
        serve their densities without a table."""
        if alpha in (1.0, 2.0):
            t = _captured_table(1.5)["t"]
            return t, _StandardDensity(alpha).log_pdf_vec(np.exp(t))
        seen = _captured_table(alpha)
        return seen["t"], seen["y"]

    @staticmethod
    def _probes(t):
        """Each knot and its neighbours one ulp either side, the midpoints, and
        points below the first knot, at the last and above it."""
        return np.concatenate([
            t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf),
            0.5 * (t[:-1] + t[1:]),
            [t[0] - 2.0, t[0] - 1e-6, t[-1], t[-1] + 1e-6, t[-1] + 2.0],
        ])

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_coefficients_bitwise_equal(self, alpha):
        t, y = self._knots(alpha)
        spl = stable_core._Spline(t, y)
        assert spl.x.tobytes() == t.tobytes()
        assert spl.c.tobytes() == oracles.cubic_spline(t, y).c.tobytes()

    @pytest.mark.parametrize("alpha", [0.1, 0.65, 1.0, 1.35, 1.99])
    def test_values_and_slopes_bitwise_equal(self, alpha):
        t, y = self._knots(alpha)
        spl, ref = stable_core._Spline(t, y), oracles.cubic_spline(t, y)
        p = self._probes(t)
        value, kappa = spl(p, slope=True)
        assert value.tobytes() == ref(p).tobytes()
        assert kappa.tobytes() == ref(p, 1).tobytes()
        assert spl(p).tobytes() == value.tobytes()

    def test_non_uniform_knots(self):
        # 1e-8, then geometric from 1e-4 to 60
        r = np.concatenate([[1e-8], np.geomspace(1e-4, 60.0, 140)])
        y = -np.log1p(r * r) + np.sin(r)
        spl, ref = stable_core._Spline(r, y), oracles.cubic_spline(r, y)
        assert spl.c.tobytes() == ref.c.tobytes()
        p = np.concatenate([self._probes(r), np.geomspace(1e-9, 100.0, 3001)])
        value, kappa = spl(p, slope=True)
        assert value.tobytes() == ref(p).tobytes()
        assert kappa.tobytes() == ref(p, 1).tobytes()

    @pytest.mark.parametrize("knots", ["uniform", "geometric", "random"])
    def test_interval_is_the_binary_search_one(self, knots):
        # the guess of equal spacing, stepped to its interval, against
        # searchsorted(side="right") - 1, clipped as PPoly clips it: on every
        # knot, its two neighbouring floats, +-inf and t beyond either end
        x = {
            "uniform": _StandardDensity.KNOTS,
            "geometric": np.concatenate([[1e-8], np.geomspace(1e-4, 60.0, 140)]),
            "random": np.cumsum(np.random.default_rng(3).uniform(1e-3, 1.0, 300)),
        }[knots]
        spl = stable_core._Spline(x, np.sin(x))
        span = x[-1] - x[0]
        t = np.concatenate([
            x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf), [-np.inf, np.inf],
            np.random.default_rng(4).uniform(x[0] - span, x[-1] + span, 5000),
        ])
        want = np.clip(np.searchsorted(x, t, side="right") - 1, 0, x.size - 2)
        assert np.array_equal(spl._interval(t), want)

    def test_nan_gives_nan_without_a_warning(self):
        spl = stable_core._Spline(_StandardDensity.KNOTS, np.cos(_StandardDensity.KNOTS))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, kappa = spl(np.array([np.nan, 0.0, np.nan]), slope=True)
        assert np.isnan(value[[0, 2]]).all() and np.isnan(kappa[[0, 2]]).all()
        assert np.isfinite(value[1]) and np.isfinite(kappa[1])

    def test_pivoting_solve(self):
        # spacings growing by 3 each step make the elimination swap rows,
        # which neither caller's knots do
        x = 3.0 ** np.arange(10)
        y = np.cos(x)
        spl, ref = stable_core._Spline(x, y), oracles.cubic_spline(x, y)
        assert spl.c.tobytes() == ref.c.tobytes()

    def test_shapes_and_nan(self):
        t, y = self._knots(1.35)
        spl, ref = stable_core._Spline(t, y), oracles.cubic_spline(t, y)
        at = np.float64(-3.0)
        assert spl(at).shape == () and spl(at).tobytes() == ref(at).tobytes()
        assert spl(at, slope=True).shape == (2,)
        assert spl(np.empty(0)).shape == (0,) and spl(np.empty(0), slope=True).shape == (2, 0)
        grid = np.array([[t[5], np.nan], [np.nan, t[7]]])
        value, kappa = spl(grid, slope=True)
        assert value.tobytes() == ref(grid).tobytes() and kappa.tobytes() == ref(grid, 1).tobytes()
        assert np.isnan(value[0, 1]) and np.isnan(kappa[1, 0])
        # NaN in, NaN out through the density as well
        eng = _StandardDensity(1.35)
        assert np.isnan(eng.log_pdf_vec(np.nan))
        assert np.all(np.isnan(eng.log_pdf_vec(np.array([np.nan]), slope=True)))


class TestZolotarevFallback:
    """The Zolotarev route: it resolves the narrow peak of g exp(-g) that an
    adaptive quadrature of it missed at these u, and a node whose estimates
    disagree, as a missed peak would make them, fails loudly."""

    # true f0: 0.4349 at alpha 0.65 and 0.2919 at alpha 1.35
    @pytest.mark.parametrize("alpha, u", [
        (0.65, 1e-14), (0.65, 1e-6), (0.65, 1e-4), (1.35, 1e-14),
    ])
    def test_missed_peak_raises(self, alpha, u):
        x = np.array([u])
        z32, z16 = stable_core._zolotarev_block(alpha, x, stable_core._zolotarev_peak(alpha, x), stable_core._gl_rules())
        assert math.log(z32[0]) == pytest.approx(oracles.log_pdf0(alpha, u), rel=0.0, abs=1e-12)
        real = stable_core._zolotarev_block
        with mock.patch.object(stable_core, "_PLAIN_OSC", 0.0), \
                mock.patch.object(stable_core, "_zolotarev_block",
                                  lambda a, v, p, rules: [w * (1.0 + 1e-9 * k) for k, w in enumerate(real(a, v, p, rules))]):
            with pytest.raises(QuadratureFailure, match=re.escape(f"alpha={alpha}, u={u}")):
                _pdf0_quadrature(alpha, u)

    @pytest.mark.parametrize("alpha, u", [(0.65, 5.0), (1.35, 2.0), (0.3, 10.0)])
    def test_matches_quadrature_where_accurate(self, alpha, u):
        x = np.array([u])
        z32, _ = stable_core._zolotarev_block(alpha, x, stable_core._zolotarev_peak(alpha, x), stable_core._gl_rules())
        assert z32[0] == pytest.approx(float(oracles.pdf0(alpha, u)), rel=1e-12, abs=0.0)
        assert z32[0] == pytest.approx(oracles.pdf0_qawf(alpha, u), rel=1e-9, abs=0.0)


class TestReferenceLogPdf:
    def test_cauchy_peak(self):
        assert log_pdf_reference(ReferenceLaw(1.0), 0.0) == pytest.approx(
            -math.log(math.pi), rel=1e-12
        )

    def test_gaussian_at_two(self):
        assert log_pdf_reference(ReferenceLaw(2.0), 2.0) == pytest.approx(
            -0.5 * math.log(2.0 * math.pi) - 2.0, rel=1e-12
        )

    def test_tail_quadrature_vs_series(self):
        # alpha = 0.8 at x = 50: the series value (used by the code) against a
        # forced-quadrature evaluation of the same reference log-density
        ref = ReferenceLaw(0.8)
        u = 50.0 / ref.scale
        series = float(_log_pdf0_tail(0.8, u)) - math.log(ref.scale)
        quadrature = math.log(_pdf0_quadrature(0.8, u)) - math.log(ref.scale)
        assert series == pytest.approx(quadrature, rel=1e-3)
        assert log_pdf_reference(ref, 50.0) == pytest.approx(series, rel=1e-12)

    def test_multid_cauchy_closed_form(self):
        ref = ReferenceLaw(1.0, d=2)
        x = np.array([0.3, -0.4])
        expected = math.log(
            math.gamma(1.5) / math.pi ** 1.5 / (1.0 + 0.25) ** 1.5
        )
        assert log_pdf_reference(ref, x) == pytest.approx(expected, rel=1e-12)

    def test_multid_inversion_matches_cauchy(self):
        # the inverse Abel build at alpha = 1 (normally closed-form) validates
        # the d >= 2 machinery
        ref = ReferenceLaw(1.0, d=2)
        for r in (0.5, 2.0):
            closed = log_pdf_reference(ref, np.array([r, 0.0]))
            with oracles.tabulated_engines(1.0, [2]):
                abel = log_pdf_reference(ref, np.array([r, 0.0]))
            assert abel == pytest.approx(closed, rel=1e-6)


class TestRadialDensity:
    """The d >= 2 engine: the small-r series below its table, the inverse
    Abel build from the (d - 1)-dimensional engine and the radial tail series
    beyond TAIL_CUTOFF."""

    @pytest.mark.parametrize("alpha", [0.7, 0.8, 1.5])
    @pytest.mark.parametrize("d, tol", [(2, 1e-8), (3, 1e-7)])
    def test_against_radial_oracle(self, alpha, d, tol):
        eng = stable_core.standard_density(alpha, d)
        for r in (0.01, 0.3, 2.0, 10.0, 50.0, 100.0):
            assert abs(float(eng.log_pdf_vec(r)) - oracles.log_radial_pdf(alpha, d, r)) <= tol, r

    @pytest.mark.parametrize("d, tol", [(2, 1e-11), (3, 1e-8)])
    def test_forced_cauchy_table(self, d, tol):
        # alpha = 1 through the build: d = 2 from the closed form at d = 1,
        # d = 3 from that d = 2 table; at the knots, and off them within the
        # d = 3 bound (the d = 2 spline's own error is 3.8e-10 between knots)
        half = (d + 1.0) / 2.0

        def cauchy(r):
            return gammaln(half) - half * math.log(math.pi) - half * np.log1p(r * r)

        with oracles.tabulated_engines(1.0, [2, 3]) as engines:
            eng = engines[d]
            r = np.geomspace(1e-3, 1e3, 2001)
            assert np.max(np.abs(eng.log_pdf_vec(r) - cauchy(r))) <= 1e-8
            t = eng._spline.x
            assert np.max(np.abs(eng._spline(t) - cauchy(np.exp(t)))) <= tol

    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.5, 1.95])
    @pytest.mark.parametrize("d", [2, 3])
    def test_slope_is_negative_at_every_knot(self, alpha, d):
        # the table starts where the small-r series ends, above the radii at
        # which kappa is below the rounding of log f
        eng = stable_core.standard_density(alpha, d)
        eng.log_pdf_vec(1.0)
        kappa = eng._spline(eng._spline.x, slope=True)[1]
        assert np.all(np.isfinite(kappa)) and np.all(kappa <= 0.0)

    def test_small_alpha_high_d_entropy(self):
        # u^d of the tail integral overflows at y_max = 60/alpha + ln 30 + 5
        # for d >= 2 at small alpha; the oracle value, radial_entropy(0.3, 4),
        # takes about 90 s
        h = reference_entropy(ReferenceLaw(0.3, 4))
        assert h == pytest.approx(31.96678995054937, rel=0.0, abs=1e-7)

    @pytest.mark.parametrize("alpha", [
        0.125, 0.15,
        *(pytest.param(a, marks=pytest.mark.xfail(raises=QuadratureFailure, strict=True, reason=(
            "the d = 1 route is 1.4e-12 (0.13) and 4.8e-13 (0.14) off at the series' end, "
            "and the Abel chain's 1/r makes the d = 2 table rise near its start")))
          for a in (0.13, 0.14)),
    ])
    def test_small_alpha_d2_table_builds(self, alpha):
        with mock.patch.object(stable_core, "_DENSITY_CACHE", {}):
            _StandardDensity(alpha, 2)._build_table()

    def test_a_rising_table_is_refused(self):
        # the chain amplifies the table error of d - 1 as 1/r at small r; at
        # alpha 0.15 it makes the d = 3 values rise near the table's start
        eng = _StandardDensity(0.15, 3)
        with pytest.raises(QuadratureFailure, match="alpha=0.15, d=3"):
            eng.log_pdf_vec(1.0)

    def test_reference_density_is_the_scaled_engine(self):
        ref = ReferenceLaw(0.7, 3)
        x = np.array([0.3, -1.2, 2.0])
        want = float(stable_core.standard_density(0.7, 3).log_pdf_vec(np.linalg.norm(x) / ref.scale))
        assert log_pdf_reference(ref, x) == pytest.approx(want - 3.0 * math.log(ref.scale), rel=1e-15)


class TestReferenceEntropy:
    def test_cauchy(self):
        assert reference_entropy(ReferenceLaw(1.0)) == pytest.approx(
            math.log(4.0 * math.pi), abs=1e-12
        )

    def test_gaussian(self):
        assert reference_entropy(ReferenceLaw(2.0)) == pytest.approx(
            0.5 * math.log(2.0 * math.pi * math.e), abs=1e-12
        )

    def test_alpha_15_against_monte_carlo(self):
        # MC oracle: h = -mean log f(X_i) over 10^6 reference-law draws
        ref = ReferenceLaw(1.5)
        batch = sample(StableParams(1.5, 0.0, ref.scale, 0.0), 10 ** 6, seed=1234)
        from stablerd.stable_core import standard_density

        eng = standard_density(1.5)
        mc = float(
            -np.mean(eng.log_pdf_vec(batch.values / ref.scale)) + math.log(ref.scale)
        )
        assert reference_entropy(ref) == pytest.approx(mc, abs=4e-3)

    @pytest.mark.xfail(strict=True, reason=(
        "the d >= 2 tables' interpolation error between knots (3.8e-10 in log f_2, "
        "2.7e-9 in log f_3 at alpha 1) puts the entropy -2.6e-11 nats off at d = 2 "
        "and +3.9e-10 at d = 3 (the fitted power-law tail before them: +2.45e-4, +5.59e-4)"
    ))
    @pytest.mark.parametrize("d", [2, 3])
    def test_multid_entropy_generic_path_matches_cauchy_closed_form(self, d):
        # alpha = 1 forced through the route that serves alpha not in {1, 2}:
        # the d >= 2 tables and the entropy's panels and tail integral
        with oracles.tabulated_engines(1.0, [2, 3]):
            got = stable_core._standard_entropy(1.0, d)
        assert got == pytest.approx(_reference_entropy_cached(1.0, d), rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_half_integer_digamma(self, d):
        # the closed forms behind the alpha = 1 entropy; measured <= 2.2e-16
        assert abs(_digamma_half(d + 1) - digamma((d + 1) / 2.0)) <= 4.5e-16

    @pytest.mark.parametrize("d", range(2, 7))
    def test_cauchy_entropy_against_mpmath(self, d):
        # -S_d int_0^inf f ln f r^(d-1) dr of the circular Cauchy density
        # f = Gamma(h) pi^-h (1 + r^2)^-h, h = (d + 1)/2, by a 30-digit
        # mpmath.quad; measured within 2.2e-16 relative (1 ulp at d = 2 and 4)
        with mpmath.workdps(30):
            h = mpmath.mpf(d + 1) / 2
            c = mpmath.gamma(h) / mpmath.pi ** h
            surface = 2 * mpmath.pi ** (mpmath.mpf(d) / 2) / mpmath.gamma(mpmath.mpf(d) / 2)
            want = -surface * mpmath.quad(
                lambda r: c * (1 + r * r) ** -h * mpmath.log(c * (1 + r * r) ** -h) * r ** (d - 1),
                [0, 1, 10, 100, mpmath.inf])
        assert reference_entropy(ReferenceLaw(1.0, d)) == pytest.approx(float(want), rel=4.5e-16, abs=0.0)

    @pytest.mark.parametrize("alpha, d, want", [
        (0.8, 2, 5.896283942476465),
        (1.5, 3, 5.212280192615365),
        (1.3, 2, 3.9182231326854957),
    ])
    def test_multid_entropy_pins(self, alpha, d, want):
        assert reference_entropy(ReferenceLaw(alpha, d)) == want

    def test_multid_entropy_against_radial_oracle(self):
        # the radial series integrated in mpmath
        got = reference_entropy(ReferenceLaw(0.8, 2))
        assert got == pytest.approx(oracles.radial_entropy(0.8, 2), rel=0.0, abs=1e-7)

    def test_cached(self):
        first = reference_entropy(ReferenceLaw(1.5))
        hits = _reference_entropy_cached.cache_info().hits
        assert reference_entropy(ReferenceLaw(1.5)) is first
        assert _reference_entropy_cached.cache_info().hits == hits + 1
        assert ReferenceLaw(1.0).entropy == reference_entropy(ReferenceLaw(1.0))


class TestTailIntegral:
    """`_tail_integral` against the power-tail series in mpmath."""

    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.3, 1.7])
    @pytest.mark.parametrize("u0", [30.0, 300.0, 1e5])
    def test_tail_mass_against_termwise_series(self, alpha, u0):
        # P(U > u0) from the series integrated term by term
        want = float(oracles.series(alpha, u0, "survival"))
        got = SymmetricStableSource(StableParams(alpha, 0.0, 1.0, 0.0)).tail_mass(u0)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_entropy_tail_against_quadrature(self, alpha):
        eng = stable_core.standard_density(alpha)
        got = stable_core._tail_integral(alpha, lambda u: -eng.log_pdf_vec(u), TAIL_CUTOFF)
        assert got == pytest.approx(oracles.tail_entropy(alpha), rel=1e-12, abs=0.0)

    def test_cauchy_takes_the_closed_form(self):
        # at alpha = 1 the density engine's -ln pi - log1p(u^2) is used, not
        # the series
        with mock.patch.object(stable_core, "_log_pdf0_tail", side_effect=AssertionError):
            got = stable_core._tail_integral(1.0, np.ones_like, 40.0)
        assert got == pytest.approx(0.5 - math.atan(40.0) / math.pi, rel=1e-13, abs=0.0)


def _tail_integral_reference(alpha, phi, u0):
    """`_tail_integral` as it was before its per-call trims (np.linspace edges,
    the tail constant recomputed): the bitwise reference of the trimmed one."""
    eng = stable_core.standard_density(alpha)
    y_max = 60.0 / alpha + math.log(u0) + 5.0

    def fn(y):
        u = np.exp(y)
        return np.exp(eng.log_pdf_vec(u)) * phi(u) * u

    val = stable_core._panel_integral(fn, np.linspace(math.log(u0), y_max, 32))
    k = math.exp(gammaln(alpha + 1.0)) * math.sin(math.pi * alpha / 2.0) / math.pi
    X = math.exp(y_max)
    return val + k * X ** (-alpha) / alpha * float(phi(np.array([X]))[0])


class TestTailIntegralTrims:
    @pytest.mark.parametrize("alpha", [0.1, 0.37, 0.7, 1.0, 1.3, 1.55, 1.99])
    def test_bitwise_equal_to_linspace_reference(self, alpha):
        eng = stable_core.standard_density(alpha)
        edges = []
        panel = stable_core._panel_integral

        def spy(fn, e):
            edges.append(e)
            return panel(fn, e)

        for u0 in (30.0, 30.000000000000004, 47.3, 1e3, 123456.789, 1e9):
            y_max = 60.0 / alpha + math.log(u0) + 5.0
            for phi in (np.ones_like, lambda u: -eng.log_pdf_vec(u)):
                want = _tail_integral_reference(alpha, phi, u0)
                with mock.patch.object(stable_core, "_panel_integral", spy):
                    got = stable_core._tail_integral(alpha, phi, u0)
                assert type(got) is float and got == want
                assert edges[-1].tobytes() == np.linspace(math.log(u0), y_max, 32).tobytes()

    def test_stacked_rows_equal_single_integrals(self):
        eng = stable_core.standard_density(1.5)

        def stacked(u):
            return np.stack([np.ones_like(u), -eng.log_pdf_vec(u)])

        got = stable_core._tail_integral(1.5, stacked, 40.0)
        assert got.shape == (2,)
        assert got[0] == stable_core._tail_integral(1.5, np.ones_like, 40.0)
        assert got[1] == stable_core._tail_integral(1.5, lambda u: -eng.log_pdf_vec(u), 40.0)

    @pytest.mark.parametrize("alpha", [0.1, 0.7, 1.0, 1.99])
    def test_nodes_are_the_panel_nodes_and_the_remainder(self, alpha):
        # `_tail_nodes`, which every G's tail reads, sits on the same panels;
        # its last node is X, weighted X / alpha
        xg, wg = np.polynomial.legendre.leggauss(16)
        for u0 in (30.0, 47.3, 1e9):
            y_max = 60.0 / alpha + math.log(u0) + 5.0
            e = np.linspace(math.log(u0), y_max, 32)
            y = (0.5 * (e[:-1] + e[1:])[:, None] + 0.5 * (e[1:] - e[:-1])[:, None] * xg).ravel()
            u, w = stable_core._tail_nodes(alpha, u0)
            assert u[:-1].tobytes() == np.exp(y).tobytes()
            assert (u[-1], w[-1]) == (math.exp(y_max), math.exp(y_max) / alpha)
            assert w[:-1] == pytest.approx(u[:-1] * np.tile(wg, 31) * np.repeat(0.5 * np.diff(e), 16),
                                           rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("alpha", [0.1, 0.37, 0.7, 1.0, 1.3, 1.55, 1.99])
    def test_node_sum_matches_the_panel_sum(self, alpha):
        # the two differ in the order of their products and sums: 2.1e-16
        # relative at most, measured
        eng = stable_core.standard_density(alpha)
        for u0 in (30.0, 47.3, 1e3, 1e9):
            u, w = stable_core._tail_nodes(alpha, u0)
            for phi in (np.ones_like, lambda u: -eng.log_pdf_vec(u)):
                got = float(np.sum(w * np.exp(eng.log_pdf_vec(u)) * phi(u)))
                want = stable_core._tail_integral(alpha, phi, u0)
                assert got == pytest.approx(want, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("alpha", [0.7, 1.0, 1.5])
    def test_phi_runs_once(self, alpha):
        # the remainder's phi(X) comes from the same call as the nodes
        calls = []

        def phi(u):
            calls.append(u.max())
            return np.ones_like(u)

        stable_core._tail_integral(alpha, phi, 40.0)
        assert calls == [math.exp(60.0 / alpha + math.log(40.0) + 5.0)]


class TestKappa:
    """kappa = d log f0 / d ln u from `log_pdf_vec(u, slope=True)` against a
    five-point central difference of log_pdf_vec in ln u, on both sides of
    TABLE_FLOOR and TAIL_CUTOFF (no stencil straddles a route switch)."""

    U = np.array([0.5e-14, 2e-14, 1e-6, 0.01, 0.5, 1.0, 3.0, 10.0, 29.9, 30.1, 100.0, 1e4])

    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0, 1.5, 1.99, 2.0])
    def test_against_central_difference(self, alpha):
        eng = stable_core.standard_density(alpha)
        u = self.U
        lp, kappa = eng.log_pdf_vec(u, slope=True)
        assert lp.tobytes() == eng.log_pdf_vec(u).tobytes()

        def at(k):
            return eng.log_pdf_vec(u * math.exp(k * 1e-4))

        want = (8.0 * (at(1) - at(-1)) - (at(2) - at(-2))) / 12e-4
        err = np.abs(kappa - want) / np.maximum(1.0, np.abs(want))
        assert err.max() <= 1e-9, (err.max(), u[err.argmax()])
        # below TABLE_FLOOR the small-u series: kappa = -Gamma(3/a)/Gamma(1/a) u^2 to first order
        want0 = -math.exp(math.lgamma(3.0 / alpha) - math.lgamma(1.0 / alpha)) * u[0] ** 2
        assert kappa[0] == pytest.approx(want0, rel=1e-12, abs=0.0)

    def test_closed_forms(self):
        u = np.array([0.0, 0.3, 2.0, 50.0])
        np.testing.assert_array_equal(
            stable_core.standard_density(1.0).log_pdf_vec(u, slope=True)[1],
            -2.0 * u * u / (1.0 + u * u),
        )
        np.testing.assert_array_equal(
            stable_core.standard_density(2.0).log_pdf_vec(u, slope=True)[1], -0.5 * u * u
        )
        # the stack is the value and slope expressions, byte for byte, at any shape
        for x in (np.array(-2.5), -u, np.outer(u, [-1.0, 0.5, 3.0])):
            a = np.abs(x)
            u2 = a * a
            want = {
                1.0: np.stack([-math.log(math.pi) - np.log1p(u2), -2.0 * u2 / (1.0 + u2)]),
                2.0: np.stack([-a * a / 4.0 - 0.5 * math.log(4.0 * math.pi), -0.5 * (a * a)]),
            }
            for alpha, rows in want.items():
                got = stable_core.standard_density(alpha).log_pdf_vec(x, slope=True)
                assert (got.shape, got.tobytes()) == (rows.shape, rows.tobytes())
        # the d-dimensional expressions, byte for byte, with and without slope
        for d in (1, 2, 3):
            h = 0.5 * (d + 1.0)
            for x in (np.array(-2.5), -u, np.outer(u, [-1.0, 0.5, 3.0])):
                a = np.abs(x)
                u2 = a * a
                want = {
                    1.0: (math.lgamma(h) - h * math.log(math.pi) - h * np.log1p(u2), -(d + 1.0) * u2 / (1.0 + u2)),
                    2.0: (-u2 / 4.0 - (d / 2.0) * math.log(4.0 * math.pi), -0.5 * u2),
                }
                for alpha, (lp, kappa) in want.items():
                    eng = stable_core.standard_density(alpha, d)
                    for got, rows in ((eng.log_pdf_vec(x, slope=True), np.stack([lp, kappa])),
                                      (eng.log_pdf_vec(x), np.asarray(lp))):
                        assert (got.shape, got.tobytes()) == (rows.shape, rows.tobytes()), (d, alpha)

    @pytest.mark.parametrize("alpha", [0.7, 1.5])
    def test_zero_d_u_at_generic_alpha(self, alpha):
        # a 0-d u gives shape (2,), the 1-d call's column byte for byte: below
        # TABLE_FLOOR, in the core and in the tail
        eng = stable_core.standard_density(alpha)
        for x in (0.5e-14, 0.5, 3.0, 100.0):
            got = eng.log_pdf_vec(np.float64(x), slope=True)
            col = eng.log_pdf_vec(np.array([x]), slope=True)[:, 0]
            assert (got.shape, got.tobytes()) == ((2,), col.tobytes())


class TestSampling:
    def test_reproducible(self):
        p = StableParams(1.3, 0.2, 2.0, 0.5)
        b1 = sample(p, 1000, seed=42)
        b2 = sample(p, 1000, seed=42)
        np.testing.assert_array_equal(b1.values, b2.values)

    def test_gaussian_mean_within_clt_band(self):
        p = StableParams(2.0, 0.0, 1.0 / math.sqrt(2.0), 0.0)
        b = sample(p, 10 ** 6, seed=7)
        assert abs(np.mean(b.values)) < 5.0 / math.sqrt(10 ** 6)

    def test_cauchy_median(self):
        b = sample(StableParams(1.0, 0.0, 1.0, 0.0), 10 ** 6, seed=11)
        assert abs(np.median(b.values)) < 0.01

    def test_empirical_cf_matches_char_fn(self):
        p = StableParams(1.3, 0.0, 2.0, 0.0)
        b = sample(p, 10 ** 6, seed=3)
        w = 0.5
        emp = np.mean(np.exp(1j * w * b.values))
        exact = char_fn(p, w)
        se = 1.0 / math.sqrt(10 ** 6)
        assert abs(emp - exact) < 5.0 * se

    def test_skewed_empirical_cf(self):
        p = StableParams(0.8, 1.0, 1.0, 0.0)
        b = sample(p, 10 ** 6, seed=5)
        for w in (0.3, 1.0):
            emp = np.mean(np.exp(1j * w * b.values))
            assert abs(emp - char_fn(p, w)) < 5e-3

    def test_alpha1_skewed_scale_correction(self):
        # the alpha = 1 location correction keeps gamma-scaling consistent
        p = StableParams(1.0, 0.7, 3.0, 0.0)
        b = sample(p, 10 ** 6, seed=9)
        for w in (0.4, 1.1):
            emp = np.mean(np.exp(1j * w * b.values))
            assert abs(emp - char_fn(p, w)) < 5e-3

    def test_subgaussian_vector_cf(self):
        p = StableParams(1.0, 0.0, 1.0, 0.0)
        b = sample(p, 10 ** 6, seed=21, d=2)
        assert b.values.shape == (10 ** 6, 2)
        theta = np.array([0.6, -0.3])
        emp = np.mean(np.exp(1j * (b.values @ theta)))
        exact = math.exp(-np.linalg.norm(theta))
        assert abs(emp - exact) < 5e-3


class TestAlgebra:
    def test_gaussian_addition(self):
        s = add_independent(StableParams(2, 0, 1, 0), StableParams(2, 0, 1, 0))
        assert s.gamma == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert s.beta == 0.0 and s.delta == 0.0

    def test_cauchy_scale_addition(self):
        s = add_independent(StableParams(1, 0, 1, 0), StableParams(1, 0, 3, 0))
        assert s.gamma == pytest.approx(4.0, rel=1e-15)

    def test_beta_cancellation(self):
        s = add_independent(StableParams(1.5, 0.2, 1, 0), StableParams(1.5, -0.2, 1, 0))
        assert s.beta == pytest.approx(0.0, abs=1e-15)
        assert s.gamma == pytest.approx(2.0 ** (2.0 / 3.0), rel=1e-15)

    def test_alpha_mismatch(self):
        with pytest.raises(AlphaMismatch):
            add_independent(StableParams(1.0), StableParams(1.5))

    @given(
        st_.floats(0.2, 2.0),
        st_.floats(0.01, 10.0),
        st_.floats(0.01, 10.0),
        st_.floats(-1.0, 1.0),
        st_.floats(-1.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_addition_formula(self, alpha, g1, g2, b1, b2):
        if alpha == 2.0:
            b1 = b2 = 0.0
        s = add_independent(StableParams(alpha, b1, g1, 0.5), StableParams(alpha, b2, g2, -0.25))
        assert s.gamma == pytest.approx((g1 ** alpha + g2 ** alpha) ** (1 / alpha), rel=1e-12)
        assert s.delta == pytest.approx(0.25, rel=1e-12)

    def test_scale_by_negative(self):
        s = scale_shift(StableParams(2, 0, 1, 0), c=-3.0)
        assert s.gamma == pytest.approx(3.0) and s.beta == 0.0

    def test_alpha1_log_location_term(self):
        s = scale_shift(StableParams(1, 1, 1, 0), c=2.0)
        assert s.delta == pytest.approx(-(2.0 / math.pi) * 2.0 * math.log(2.0), rel=1e-14)
        assert s.gamma == pytest.approx(2.0) and s.beta == 1.0

    def test_pure_shift(self):
        s = scale_shift(StableParams(0.5, 0, 2, 1), shift=3.0)
        assert s.delta == pytest.approx(4.0) and s.gamma == 2.0

    def test_zero_scale(self):
        with pytest.raises(ZeroScale):
            scale_shift(StableParams(1.0), c=0.0)

    @given(
        st_.floats(0.2, 2.0).filter(lambda a: abs(a - 1.0) > 1e-3),
        st_.floats(-1.0, 1.0),
        st_.floats(0.01, 10.0),
        st_.floats(-5.0, 5.0),
        st_.floats(0.1, 10.0),
        st_.floats(-5.0, 5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_scale_shift_roundtrip(self, alpha, beta, gamma, delta, c, shift):
        if alpha == 2.0:
            beta = 0.0
        p = StableParams(alpha, beta, gamma, delta)
        q = scale_shift(scale_shift(p, c, shift), 1.0 / c, -shift / c)
        assert q.gamma == pytest.approx(gamma, rel=1e-12)
        assert q.delta == pytest.approx(delta, rel=1e-9, abs=1e-9)
        assert q.beta == pytest.approx(beta, rel=1e-12, abs=1e-15)

    @given(st_.floats(-1.0, 1.0), st_.floats(0.1, 10.0), st_.floats(-5.0, 5.0), st_.floats(0.1, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_scale_shift_roundtrip_alpha1(self, beta, gamma, delta, c):
        p = StableParams(1.0, beta, gamma, delta)
        q = scale_shift(scale_shift(p, c, 0.0), 1.0 / c, 0.0)
        assert q.delta == pytest.approx(delta, abs=1e-12 * (1 + abs(delta)))
        assert q.gamma == pytest.approx(gamma, rel=1e-12)

    def test_addition_consistent_with_sampling(self):
        p1 = StableParams(1.3, 0.0, 1.0, 0.0)
        p2 = StableParams(1.3, 0.0, 2.0, 0.0)
        combined = add_independent(p1, p2)
        b1 = sample(p1, 10 ** 6, seed=100)
        b2 = sample(p2, 10 ** 6, seed=101)
        w = 0.7
        emp = np.mean(np.exp(1j * w * (b1.values + b2.values)))
        assert abs(emp - char_fn(combined, w)) < 5e-3


class TestSampleBatch:
    def test_zero_batch_roundtrip(self):
        b = SampleBatch(values=[0.0, 0.0], seed=3)
        assert b.values.dtype == float
