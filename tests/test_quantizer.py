import json
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_
from scipy.special import gamma as gamma_fn
from scipy.special import gammaincc, gammainccinv, gammaln

from stablerd import (
    NonFiniteLogMoment,
    NotSorted,
    OutOfRange,
    Quantizer,
    SampleBatch,
    EmpiricalSource,
    StableParams,
    SymmetricStableSource,
    TabulatedSource,
    UniformSource,
    UniformSpec,
    cauchy_source,
    design_optimal,
    error_strength,
    gaussian_source,
    high_rate_prediction,
    kkt_width_solution,
    midpoint_boundaries,
    output_entropy,
    quantize,
    quantizer_from_json,
    quantizer_to_json,
    sample,
    solve_strength,
    strength_of_uniform,
    uniform_error_strength,
)
from stablerd import quantizer, strength
from stablerd.quantizer import (
    _error_strength_raw,
    _mirror,
    _uniform_weights,
    truncated_uniform,
    uniform_levels_strength,
)
from stablerd.stable_core import _StandardDensity, _gauss_legendre
from stablerd.strength import (
    _ALIAS_TOL,
    _LOG_Q_TOL,
    _aliasing_terms,
    _aliasing_weights,
    _direct_radius,
    _direct_weights,
    _g,
    _log_gamma_q,
    _region_edges,
    _solve_monotone,
    reference_neg_log_density,
)

import oracles


class TestMidpointsAndQuantize:
    def test_midpoints(self):
        np.testing.assert_allclose(midpoint_boundaries([-1.0, 1.0]), [0.0])
        np.testing.assert_allclose(midpoint_boundaries([-3, -1, 1, 3]), [-2.0, 0.0, 2.0])
        np.testing.assert_allclose(midpoint_boundaries([0.2, 1.0, 4.6]), [0.6, 2.8])

    def test_not_sorted(self):
        with pytest.raises(NotSorted):
            midpoint_boundaries([1.0, 1.0, 2.0])

    def test_boundary_goes_left(self):
        q = Quantizer.from_points([-1.0, 1.0], symmetric=True)
        assert quantize(q, 0.0) == (0, -1.0)
        assert quantize(q, 0.0001) == (1, 1.0)

    def test_uniform_index(self):
        q = truncated_uniform(1.0, 7)  # mid-tread points -3..3
        idx, rep = quantize(q, 2.4)
        assert rep == 2.0 and q.points[idx] == 2.0

    @given(
        st_.lists(st_.floats(-50.0, 50.0), min_size=2, max_size=9, unique=True),
        st_.floats(-60.0, 60.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_quantize_respects_regions(self, pts, x):
        pts = sorted(pts)
        if min(np.diff(pts)) < 1e-6:
            return
        q = Quantizer.from_points(pts)
        idx, rep = quantize(q, x)
        assert rep == pts[idx]
        lo = q.boundaries[idx - 1] if idx > 0 else -math.inf
        hi = q.boundaries[idx] if idx < len(q.boundaries) else math.inf
        assert lo < x <= hi or (x == lo and idx > 0) is False

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            Quantizer(points=np.array([-1.0, 1.0]), boundaries=np.array([2.0]))
        with pytest.raises(ValueError):
            Quantizer(points=np.array([-1.0, 1.0]), boundaries=np.array([0.2]),
                      symmetric=True)


class TestErrorStrength:
    def test_single_point_recovers_source_strength(self):
        q = Quantizer(points=np.array([0.0]), boundaries=np.empty(0), symmetric=True)
        sol = error_strength(q, cauchy_source(1.0), 1.0)
        assert sol.value == pytest.approx(1.0, rel=1e-9)

    def test_two_point_against_quad_oracle(self):
        q = Quantizer.from_points([-1.0, 1.0], symmetric=True)
        sol = error_strength(q, cauchy_source(1.0), 1.0)
        G = oracles.quad_residual(q.points, q.boundaries, cauchy_source(1.0), 1.0)
        oracle = oracles.root(G, 0.1, 10.0)
        assert sol.value == pytest.approx(oracle, rel=1e-12)

    def test_small_width_uniform_gaussian(self):
        sol = uniform_error_strength(UniformSpec(0.05), gaussian_source(1.0), 2.0)
        assert sol.value == pytest.approx(0.05 / math.sqrt(12.0), rel=1e-4)

    def test_empirical_source(self):
        rng = np.random.default_rng(0)
        vals = rng.standard_cauchy(20000)
        src = EmpiricalSource(SampleBatch(values=vals, seed=0))
        q = Quantizer.from_points([-1.0, 1.0], symmetric=True)
        sol = error_strength(q, src, 1.0)
        dense = solve_strength(
            EmpiricalSource(
                SampleBatch(values=vals - np.where(vals > 0, 1.0, -1.0), seed=0)
            ),
            1.0,
        )
        assert sol.value == pytest.approx(dense.value, rel=1e-10)

    def test_tabulated_regions_clipped_to_support(self):
        # the outer boundaries -2.25 and 2.25 lie outside the support (-1, 1)
        q = Quantizer.from_points([-3.0, -1.5, 1.5, 3.0], symmetric=True)
        got = error_strength(q, TabulatedSource(lambda x: 0.5, (-1.0, 1.0)), 1.5).value
        want = error_strength(q, UniformSource(1.0), 1.5).value
        assert got == pytest.approx(want, rel=1e-9, abs=0.0)


class TestUniform:
    def test_high_rate_cauchy(self):
        # the lattice density is flat to 1e-27 at these widths, so s/delta is
        # the arctan root s_1(U) up to the solver
        for d in (0.1, 0.01, 0.001):
            sol = uniform_error_strength(UniformSpec(d), cauchy_source(1.0), 1.0)
            assert sol.value / d == pytest.approx(strength_of_uniform(1.0), rel=1e-12)

    def test_high_rate_gaussian(self):
        for d in (0.1, 0.01, 0.001):
            sol = uniform_error_strength(UniformSpec(d), gaussian_source(1.0), 2.0)
            assert sol.value / d == pytest.approx(1.0 / math.sqrt(12.0), rel=1e-12)

    def test_wide_width_against_dense_oracle(self):
        # Delta = 1 sits outside the high-rate regime; an independent
        # region-by-region quadrature oracle pins the value (which lands
        # slightly BELOW the high-rate limit for the untruncated quantizer)
        h = math.log(4.0 * math.pi)
        oracle = oracles.root(lambda s: oracles.cauchy_lattice_g(1.0, s) - h, 0.05, 0.5)
        sol = uniform_error_strength(UniformSpec(1.0), cauchy_source(1.0), 1.0)
        assert sol.value == pytest.approx(oracle, rel=1e-8)
        assert sol.value < high_rate_prediction(1.0, 1.0)

    def test_truncated_fast_path_matches_general(self):
        for M, d in [(2, 1.6), (4, 1.1), (8, 0.8)]:
            q = truncated_uniform(d, M)
            general = error_strength(q, cauchy_source(1.0), 1.0).value
            fast, _, _ = uniform_levels_strength(d, M, cauchy_source(1.0), 1.0)
            assert fast.value == pytest.approx(general, rel=1e-12)

    def test_high_rate_prediction(self):
        assert high_rate_prediction(2.0, 0.1) == pytest.approx(0.1 / math.sqrt(12.0))
        assert high_rate_prediction(1.0, 0.1) == pytest.approx(0.013589753, abs=1e-8)
        assert high_rate_prediction(1.5, 1.0) == strength_of_uniform(1.5)

    def test_midpoint_reps_are_optimal_at_high_rate(self):
        # shifting every representation point off-center increases the error
        # strength (tested on a truncated uniform quantizer)
        delta = 0.5
        q = truncated_uniform(delta, 32)
        base = error_strength(q, cauchy_source(1.0), 1.0).value
        for off in (delta / 4.0, delta / 2.0):
            shifted = _error_strength_raw(
                q.points + off, q.boundaries, cauchy_source(1.0), 1.0
            ).value
            assert shifted > base

    def test_uniform_spec_validation(self):
        with pytest.raises(ValueError):
            UniformSpec(0.0)

    def test_two_dimensional_samples_rejected(self):
        src = EmpiricalSource(sample(StableParams(1.5, 0.0, 1.0, 0.0), 500, seed=1, d=2))
        with pytest.raises(ValueError, match="scalar expectation requires 1-d samples"):
            uniform_error_strength(UniformSpec(0.25), src, 1.5)


def _stable_adapter(alpha, gamma=1.0):
    return SymmetricStableSource(StableParams(alpha, 0.0, gamma, 0.0))


class TestUniformAliasing:
    @pytest.mark.parametrize("ratio", [0.5, 1.0, 4.0, 20.0])
    def test_cauchy_lattice_sum_closed_form(self, ratio):
        # delta * sum_k f(k delta + u) for a Cauchy(gamma) density equals
        # sinh(c) / (cosh(c) - cos(2 pi u / delta)), c = 2 pi gamma / delta
        gamma = 1.3
        delta = ratio * gamma
        adapter = _stable_adapter(1.0, gamma)
        u, W = _aliasing_weights(delta, adapter, _aliasing_terms(delta, adapter))
        _, wg = _gauss_legendre(48)
        c = 2.0 * math.pi * gamma / delta
        closed = np.sinh(c) / (np.cosh(c) - np.cos(2.0 * math.pi * u / delta))
        np.testing.assert_allclose(W / (0.5 * wg), closed, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 2.0])
    @pytest.mark.parametrize("delta", [0.5, 2.0, 20.0])
    def test_truncation_bound(self, alpha, delta):
        # integral-test bound on the dropped terms: below 1e-16 at m_max,
        # not yet at m_max - 1
        adapter = _stable_adapter(alpha)
        c = 2.0 * math.pi / delta

        def dropped(m):
            return 2.0 / (c * alpha) * gamma_fn(1.0 / alpha) * gammaincc(
                1.0 / alpha, (c * m) ** alpha)

        m_max = _aliasing_terms(delta, adapter)
        assert dropped(m_max) < 1e-16 <= dropped(m_max - 1)

    # the direct route reads table densities at alpha 0.5 and 1.5, good to
    # about 1e-9 relative; at alpha 1 it uses the closed form, leaving only
    # its grouped-tail error
    @pytest.mark.parametrize("alpha, rtol", [(0.5, 1e-9), (1.0, 1e-10), (1.5, 1e-9)])
    @pytest.mark.parametrize("delta", [0.5, 2.0])
    def test_direct_and_aliasing_agree(self, alpha, rtol, delta):
        adapter = _stable_adapter(alpha)
        spec = UniformSpec(delta)
        u1, W1 = _direct_weights(delta, adapter, _direct_radius(delta, adapter))
        u2, W2 = _aliasing_weights(delta, adapter, _aliasing_terms(delta, adapter))
        np.testing.assert_array_equal(u1, u2)
        np.testing.assert_allclose(W2, W1, rtol=rtol, atol=0.0)

    @pytest.mark.parametrize("alpha, delta, series", [
        (0.3, 2.0, False),  # m_max 115,982 against 14,761 direct regions
        (1.5, 0.01, True),
    ])
    def test_route_choice(self, alpha, delta, series):
        adapter = _stable_adapter(alpha)
        spec = UniformSpec(delta)
        if series:
            expected = _aliasing_weights(delta, adapter, _aliasing_terms(delta, adapter))
        else:
            expected = _direct_weights(delta, adapter, _direct_radius(delta, adapter))
        for got, want in zip(_uniform_weights(spec, adapter), expected):
            np.testing.assert_array_equal(got, want)


def _scipy_aliasing_terms(delta, source):
    """`_aliasing_terms` as it was computed with scipy.special.gammainccinv."""
    a = source.params.alpha
    c = 2.0 * math.pi * source.scale / delta
    log_q = math.log(_ALIAS_TOL * c * a / 2.0) - gammaln(1.0 / a)
    if log_q >= 0.0:
        return 0
    log_m = math.log(gammainccinv(1.0 / a, math.exp(log_q))) / a - math.log(c)
    return math.ceil(math.exp(log_m)) if log_m < 700.0 else math.inf


class TestIncompleteGamma:
    """ln Q(a, y) of the regularized upper incomplete gamma and its inverse,
    which count the aliasing terms, against SciPy; a = 1/alpha."""

    SHAPES = [0.5, 0.77, 1.0, 2.5, 7.0, 10.0]

    @pytest.mark.parametrize("a", SHAPES)
    def test_log_q_and_slope_against_scipy(self, a):
        # SciPy's own ln Q is off by up to 1.4e-14 of |ln Q| at large y
        # (mpmath, 40 digits), where this one is within 2.9e-15; measured
        # difference 1.6e-14, slope 5.4e-14
        for y in np.geomspace(1e-3, 700.0, 80):
            got, slope = _log_gamma_q(a, y)
            q = gammaincc(a, y)
            assert abs(got - math.log(q)) <= 2e-14 * max(1.0, -math.log(q))
            want = -math.exp(a * math.log(y) - y - gammaln(a)) / q
            assert slope == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("a, y", [(0.5, 0.3), (2.5, 3.4), (7.0, 7.98), (7.0, 8.0),
                                      (10.0, 10.65), (10.0, 60.0), (1.0, 700.0)])
    def test_log_q_against_mpmath(self, a, y):
        # both sides of the switch at y = a + 1.  The prefactor's logarithm
        # a ln y - y - ln Gamma(a) cancels terms of about 2 a ln y, so near
        # the switch at a = 10 ln Q is 7.3e-15 off (the worst over 6 shapes
        # and 60 y each); in the aliasing count's range, y >= 29, it is the
        # root's relative error times y that counts
        with mpmath.workdps(40):
            want = mpmath.log(mpmath.gammainc(a, y, mpmath.inf, regularized=True))
        got = _log_gamma_q(a, y)[0]
        assert abs(got - float(want)) <= 1e-14 * max(1.0, abs(float(want)))

    @pytest.mark.parametrize("a", SHAPES)
    def test_inverse_against_scipy(self, a):
        # measured within 2.3e-15 relative
        for log_q in np.linspace(-60.0, -1.0, 30):
            def fn(y):
                value, slope = _log_gamma_q(a, y)
                return value - log_q, slope

            y = _solve_monotone(fn, a - log_q, _LOG_Q_TOL).value
            assert y == pytest.approx(gammainccinv(a, math.exp(log_q)), rel=3e-15, abs=0.0)

    def test_aliasing_terms_equal_scipys(self):
        # alpha x c = 2 pi gamma / delta on the grid, where m_max <= 4e5 (the
        # aliasing route is taken only below 2 k_core + 1 <= 400,003 terms)
        checked = 0
        for alpha in np.linspace(0.1, 1.99, 100):
            source = _stable_adapter(alpha)
            for c in np.geomspace(1e-3, 1e3, 200):
                delta = 2.0 * math.pi / c
                want = _scipy_aliasing_terms(delta, source)
                if want <= 4e5:
                    assert _aliasing_terms(delta, source) == want, (alpha, c)
                    checked += 1
        assert checked == 17439


class TestOutputEntropy:
    def test_two_point_symmetric(self):
        q = Quantizer.from_points([-1.0, 1.0], symmetric=True)
        assert output_entropy(q, cauchy_source(1.0)) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_high_rate_entropy_matches_h_minus_log_delta(self):
        # H(V) -> h(X) - ln Delta = ln(4 pi) - ln Delta for the Cauchy; the
        # level count must grow fast enough that the overload cells carry
        # negligible mass
        for delta, M in ((0.1, 80_001), (0.05, 160_001)):
            _, H, _ = uniform_levels_strength(delta, M, cauchy_source(1.0), 1.0)
            assert H == pytest.approx(math.log(4.0 * math.pi) - math.log(delta), abs=5e-3)

    def test_designed_quantizer_against_arctan_oracle(self):
        report = design_optimal(cauchy_source(1.0), 1.0, 4, seed=3)
        q = report.quantizer
        H = output_entropy(q, cauchy_source(1.0))
        edges = np.concatenate([[-np.inf], q.boundaries, [np.inf]])
        cdf = lambda x: 0.5 + math.atan(x) / math.pi if np.isfinite(x) else (1.0 if x > 0 else 0.0)
        p = np.array([cdf(edges[j + 1]) - cdf(edges[j]) for j in range(q.levels)])
        oracle = -np.sum(p * np.log(p))
        assert H == pytest.approx(oracle, rel=1e-9)

    def test_empirical_counts(self):
        src = EmpiricalSource(SampleBatch(values=np.array([-2.0, -1.0, 1.0, 2.0]), seed=0))
        q = Quantizer.from_points([-1.5, 1.5], symmetric=True)
        assert output_entropy(q, src) == pytest.approx(math.log(2.0))

    def test_two_dimensional_samples_rejected(self):
        src = EmpiricalSource(sample(StableParams(1.5, 0.0, 1.0, 0.0), 500, seed=1, d=2))
        with pytest.raises(ValueError, match="scalar expectation requires 1-d samples"):
            output_entropy(Quantizer.from_points([-1.0, 0.0, 1.0]), src)


class TestDesign:
    def test_single_point(self):
        report = design_optimal(cauchy_source(1.0), 1.0, 1, seed=0)
        assert report.quantizer.points.tolist() == [0.0]
        assert report.error_strength == pytest.approx(1.0, rel=1e-9)

    def test_trace_non_increasing_and_seeded(self):
        r1 = design_optimal(cauchy_source(1.0), 1.0, 2, seed=5)
        r2 = design_optimal(cauchy_source(1.0), 1.0, 2, seed=5)
        assert r1.strength_trace == r2.strength_trace
        trace = np.array(r1.strength_trace)
        assert np.all(np.diff(trace) <= 0.0)
        assert r1.seed == 5

    def test_pinned_cauchy_design(self):
        # the start point is the quartile of |X| to rounding; the Brent optimum
        # over (0.1, 3) (oracles.design_optimum) is 0.7172356202174561 at
        # a = 0.7895263438059998
        report = design_optimal(cauchy_source(1.0), 1.0, 2, seed=7)
        assert report.error_strength == 0.7172356202174567
        assert report.quantizer.points.tolist() == [-0.7895263207108231, 0.7895263207108231]

    def test_stop_reason_tol(self):
        report = design_optimal(cauchy_source(1.0), 1.0, 2, seed=7)
        assert (report.stop_reason, report.converged) == ("tol", True)
        single = design_optimal(cauchy_source(1.0), 1.0, 1)
        assert (single.stop_reason, single.converged) == ("tol", True)

    def test_zero_tol_stops_at_a_fixed_point(self):
        # an update that leaves the strength unchanged meets tol = 0; it used
        # to run all 200 outer iterations
        report = design_optimal(cauchy_source(1.0), 1.0, 2, tol=0.0, seed=7)
        assert (report.stop_reason, report.converged) == ("tol", True)
        assert report.iterations <= 5

    def test_stop_reason_max_outer(self, monkeypatch):
        monkeypatch.setattr(quantizer, "_MAX_OUTER", 1)
        report = design_optimal(cauchy_source(1.0), 1.0, 2, tol=0.0, seed=7)
        assert (report.stop_reason, report.converged) == ("max_outer", False)
        assert report.iterations == 1 and len(report.strength_trace) == 2

    def test_stop_reason_no_improvement_keeps_the_state(self, monkeypatch):
        # a point update that comes back worse: the starting state is kept
        from scipy.optimize import OptimizeResult

        def worse(fun, x0, **kwargs):
            x = np.asarray(x0) - 3.0  # points e^3 times closer to 0
            return OptimizeResult(x=x, fun=fun(x))

        start = design_optimal(cauchy_source(1.0), 1.0, 2, seed=7, tol=math.inf)
        monkeypatch.setattr("scipy.optimize.minimize", worse)
        report = design_optimal(cauchy_source(1.0), 1.0, 2, seed=7)
        assert (report.stop_reason, report.converged) == ("no_improvement", True)
        assert report.iterations == 1 and len(report.strength_trace) == 1
        assert report.strength_trace[0] == start.strength_trace[0] == report.error_strength

    @staticmethod
    def _solve_keys(monkeypatch):
        """(points, boundaries, tol, s_hint) of every solve a design makes."""
        keys = []
        raw = quantizer._error_strength_raw

        def counted(points, boundaries, source, alpha, tol=strength.DEFAULT_TOL,
                    s_hint=None):
            keys.append((np.asarray(points).tobytes(), np.asarray(boundaries).tobytes(),
                         tol, s_hint))
            return raw(points, boundaries, source, alpha, tol, s_hint)

        monkeypatch.setattr(quantizer, "_error_strength_raw", counted)
        return keys

    def test_each_point_set_is_solved_once(self, monkeypatch):
        keys = self._solve_keys(monkeypatch)
        design_optimal(cauchy_source(1.0), 1.0, 2, seed=5)
        assert len(keys) > 1 and len(set(keys)) == len(keys)

    def test_solved_point_sets_are_not_kept_between_calls(self, monkeypatch):
        keys = self._solve_keys(monkeypatch)
        first = design_optimal(cauchy_source(1.0), 1.0, 2, seed=5)
        n_first = len(keys)
        second = design_optimal(cauchy_source(1.0), 1.0, 2, seed=5)
        # both calls solve their Nelder-Mead points, not only one measure per
        # iteration, and solve the same ones
        assert n_first > first.iterations + 1
        assert keys[n_first:] == keys[:n_first]

        def fields(r):
            q = r.quantizer
            return (q.points.tobytes(), q.boundaries.tobytes(), q.symmetric, r.error_strength,
                    r.iterations, r.strength_trace, r.seed, r.converged, r.stop_reason)

        assert fields(second) == fields(first)

    def test_one_search_per_outer_iteration(self, monkeypatch):
        import scipy.optimize
        from unittest import mock

        spy = mock.Mock(wraps=scipy.optimize.minimize)
        monkeypatch.setattr(scipy.optimize, "minimize", spy)
        report = design_optimal(cauchy_source(1.0), 1.0, 2, seed=7)
        assert spy.call_count == report.iterations

    @pytest.mark.parametrize("gamma", [1.0, 3.0])
    def test_two_point_design_at_the_brent_optimum(self, gamma):
        # the design's strength against a bounded Brent search over (-a, a);
        # worst measured 8.9e-16 relative
        _, best = oracles.design_optimum(
            lambda a: (np.array([-a, a]), np.array([0.0])), 0.1 * gamma, 3.0 * gamma, gamma)
        report = design_optimal(cauchy_source(gamma), 1.0, 2, seed=7)
        assert report.error_strength == pytest.approx(best, rel=1e-14, abs=0.0)

    @pytest.mark.xfail(strict=True, reason=(
        "the outer alternation stops once an iteration improves s by <= 1e-6 s: "
        "the M = 3 design sits 3.7e-7 relative above the optimum over (-a, 0, a)"
    ))
    def test_three_point_design_at_the_brent_optimum(self):
        _, best = oracles.design_optimum(
            lambda a: (np.array([-a, 0.0, a]), np.array([-0.5 * a, 0.5 * a])), 0.3, 5.0)
        report = design_optimal(cauchy_source(1.0), 1.0, 3, seed=7)
        assert report.error_strength == pytest.approx(best, rel=1e-9, abs=0.0)

    def test_scale_equivariance(self):
        base = design_optimal(cauchy_source(1.0), 1.0, 2, seed=2)
        for c in (2.0, 5.0):
            scaled = design_optimal(cauchy_source(c), 1.0, 2, seed=2)
            assert scaled.error_strength == pytest.approx(
                c * base.error_strength, rel=1e-3
            )
            np.testing.assert_allclose(
                scaled.quantizer.points, c * base.quantizer.points, rtol=1e-3
            )

    def test_boundary_perturbation_increases_strength(self):
        report = design_optimal(cauchy_source(1.0), 1.0, 3, seed=1)
        q = report.quantizer
        base = report.error_strength
        gaps = np.diff(q.points)
        for j in range(q.boundaries.size):
            for sign in (+1.0, -1.0):
                bnd = q.boundaries.copy()
                bnd[j] += sign * 0.05 * gaps[j]
                perturbed = _error_strength_raw(q.points, bnd, cauchy_source(1.0), 1.0).value
                assert perturbed > base

    def test_asymmetric_source_rejected(self):
        from stablerd import NonSymmetricSource, TabulatedSource

        skew = TabulatedSource(lambda x: math.exp(-x) if x > 0 else 0.0, (0.0, np.inf))
        with pytest.raises(NonSymmetricSource):
            design_optimal(skew, 1.0, 2)


class TestKKT:
    def test_u_equals_one(self):
        assert kkt_width_solution(2.0 * (1.0 - math.pi / 4.0)) == pytest.approx(1.0, rel=1e-12)

    def test_ratio_one_against_root_oracle(self):
        oracle = oracles.root(lambda u: math.atan(u) / u - 0.5, 1e-6, 1e6)
        assert kkt_width_solution(1.0) == pytest.approx(oracle, rel=1e-10)

    def test_small_ratio_small_u(self):
        assert kkt_width_solution(1e-6) < 2e-3

    def test_out_of_range(self):
        for r in (0.0, 2.0, -1.0, 2.5):
            with pytest.raises(OutOfRange):
                kkt_width_solution(r)

    @given(st_.floats(1e-4, 1.9999))
    @settings(max_examples=120, deadline=None)
    def test_roundtrip(self, ratio):
        u = kkt_width_solution(ratio)
        assert 2.0 * (1.0 - math.atan(u) / u) == pytest.approx(ratio, rel=1e-9)


class TestSerialization:
    def test_fixed_field_order_and_digits(self):
        q = Quantizer.from_points([-1.0 / 3.0, 1.0 / 3.0], symmetric=True)
        doc = quantizer_to_json(q, 1.0, 0.123456789012345678)
        assert re.match(
            r'^\{"alpha": .*, "points": \[.*\], "boundaries": \[.*\], '
            r'"symmetric": (true|false), "error_strength": .*\}$',
            doc,
        )
        assert "-0.33333333333333331" in doc  # 17 significant digits
        parsed = json.loads(doc)
        assert list(parsed.keys()) == [
            "alpha", "points", "boundaries", "symmetric", "error_strength",
        ]

    def test_roundtrip(self):
        q = Quantizer.from_points([-2.5, -0.5, 0.5, 2.5], symmetric=True)
        doc = quantizer_to_json(q, 1.5, 0.25)
        q2, alpha, s = quantizer_from_json(doc)
        np.testing.assert_array_equal(q2.points, q.points)
        np.testing.assert_array_equal(q2.boundaries, q.boundaries)
        assert q2.symmetric and alpha == 1.5 and s == 0.25


class TestStableTailMass:
    # independent route: the Cauchy survival function 1/2 - arctan(x/gamma)/pi;
    # x/gamma = 5 lies inside the core, the rest on the power-tail series
    @pytest.mark.parametrize("gamma", [0.5, 1.3, 3.0])
    @pytest.mark.parametrize("ratio", [5.0, 30.0, 100.0, 1e4])
    def test_cauchy_tail_mass_matches_arctan(self, gamma, ratio):
        got = _stable_adapter(1.0, gamma).tail_mass(ratio * gamma)
        want = 0.5 - math.atan(ratio) / math.pi
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_core_extent_rounded_below_cutoff(self):
        # (30 gamma) / gamma rounds below 30 for this gamma; a tail mass from
        # inside the core, and so output_entropy, recursed without end
        gamma = 83.57815274094777
        assert (30.0 * gamma) / gamma < 30.0
        source = _stable_adapter(0.7, gamma)
        for ratio in (1.0, 30.0):
            got = source.tail_mass(ratio * gamma)
            assert got == pytest.approx(_stable_adapter(0.7).tail_mass(ratio), rel=1e-10, abs=0.0)
        q = Quantizer.from_points([-gamma, 0.0, gamma])
        assert output_entropy(q, source) == pytest.approx(
            output_entropy(Quantizer.from_points([-1.0, 0.0, 1.0]), _stable_adapter(0.7)),
            rel=1e-10,
        )


def _region_edges_reference(a, b, rep, s_scale, source):
    """The NumPy version of strength._region_edges, kept as its bitwise reference."""
    ladder = rep + s_scale * np.array(
        [-60.0, -25.0, -10.0, -4.0, -1.5, -0.5, 0.0, 0.5, 1.5, 4.0, 10.0, 25.0, 60.0]
    )
    edges = [a, b]
    edges.extend(ladder[(ladder > a) & (ladder < b)])
    if a < 0.0 < b:
        peak = source.scale * np.array([-3.0, -1.0, -0.25, 0.0, 0.25, 1.0, 3.0])
        edges.extend(peak[(peak > a) & (peak < b)])
    for brk in source.breakpoints:
        if a < brk < b:
            edges.append(brk)
    edges = np.unique(np.asarray(edges, dtype=float))
    out = [edges[0]]
    cap = max((b - a) / 8.0, 4.0 * s_scale)
    for e in edges[1:]:
        prev = out[-1]
        n_extra = min(int((e - prev) / cap), 24)
        if n_extra >= 1:
            out.extend(np.linspace(prev, e, n_extra + 2)[1:-1])
        out.append(e)
    return np.asarray(out)


_EDGE_SOURCES = (
    cauchy_source(1.0),
    SymmetricStableSource(StableParams(0.7, 0.0, 1.3, 0.0)),
    UniformSource(1.0),  # breakpoints at -1 and 1
    TabulatedSource(lambda x: 0.2, (-2.0, 3.0)),  # breakpoints at -2 and 3
)


def _edge_cases(n, seed):
    """(a, b, rep, s_scale, source) drawn in five shapes, cycling."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        source = _EDGE_SOURCES[(i // 5) % len(_EDGE_SOURCES)]
        s_scale = math.exp(rng.uniform(-9.0, 2.0))
        width = math.exp(rng.uniform(-5.0, 4.0))
        shape = i % 5
        if shape == 0:  # anywhere, rep inside
            a = rng.uniform(-8.0, 8.0)
            rep = a + width * rng.uniform()
        elif shape == 1:  # straddles the source peak at 0
            a = -width * rng.uniform(0.01, 0.99)
            rep = a + width * rng.uniform()
        elif shape == 2:  # rep at the left end, as in an outer region
            a = rng.uniform(-8.0, 8.0)
            rep = a
        elif shape == 3:  # an outer region cut at a mirrored zero boundary
            a = -0.0
            rep = width * rng.uniform()
        else:  # rep outside [a, b], as under frozen boundaries
            a = rng.uniform(-8.0, 8.0)
            rep = a + width * rng.choice([-1.0, 2.0]) * rng.uniform(1.0, 10.0)
        yield float(a), float(a + width), float(rep), s_scale, source


class TestRegionEdges:
    def test_bitwise_equal_to_reference(self):
        for a, b, rep, s_scale, source in _edge_cases(4000, seed=11):
            got = _region_edges(a, b, rep, s_scale, source)
            want = _region_edges_reference(a, b, rep, s_scale, source)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (a, b, rep, s_scale, source)

    def test_widest_gap_fill(self):
        # no candidate inside (1, 9): the one gap gets (b - a) / cap = 8 fill edges
        args = (1.0, 9.0, 100.0, 1e-9, cauchy_source(1.0))
        got = _region_edges(*args)
        assert got.size == 10
        assert got.tobytes() == _region_edges_reference(*args).tobytes()

    def test_negative_zero_left_end_is_kept(self):
        got = _region_edges(-0.0, 5.0, 0.0, 0.01, cauchy_source(1.0))
        assert math.copysign(1.0, got[0]) == -1.0
        assert got.tobytes() == _region_edges_reference(
            -0.0, 5.0, 0.0, 0.01, cauchy_source(1.0)
        ).tobytes()


def _nodes_against_regions(points, boundaries, source, alpha, s, monkeypatch):
    """(e, W) of the partition, the (x, w) of its right and left outer regions
    as `_outer_nodes` builds them alone, and how many outer regions the
    partition built."""
    outer = strength._outer_nodes
    calls = []

    def counted(*args):
        calls.append(args)
        return outer(*args)

    with monkeypatch.context() as m:
        m.setattr(strength, "_outer_nodes", counted)
        e, W = source.error_nodes(points, boundaries, alpha)(s)
    ends = boundaries if points.size > 1 else points  # one region is split at its point
    right = outer(source, alpha, points[-1], ends[-1], s)[:2]
    left = outer(source.reflected, alpha, -points[0], -ends[0], s)[:2]
    return e, W, right, left, len(calls)


class TestMirroredOuterRegions:
    """A partition's node set ends with its outer regions' nodes.  A mirrored
    partition of a source that is its own reflection builds the right region
    once and doubles its weights."""

    @pytest.mark.parametrize("M", [2, 3, 4, 7])
    @pytest.mark.parametrize("frozen", [False, True])
    def test_mirrored_partition_equals_explicit_sum(self, M, frozen, monkeypatch):
        rng = np.random.default_rng(M)
        source = SymmetricStableSource(StableParams(0.7, 0.0, 1.3, 0.0))
        for alpha in (1.0, 1.5):
            pos = np.cumsum(rng.uniform(0.2, 1.5, M // 2))
            points = _mirror(pos, M)
            # frozen: the boundaries of the previous points, as in the point update
            shifted = _mirror(pos * rng.uniform(0.8, 1.2, pos.size), M)
            bnd = midpoint_boundaries(shifted if frozen else points)
            for s in (0.05, 0.4, 3.0):
                e, W, (x, w), _, calls = _nodes_against_regions(
                    points, bnd, source, alpha, s, monkeypatch
                )
                assert calls == 1
                n = x.size
                assert e[-n:].tobytes() == (x - points[-1]).tobytes()
                assert W[-n:].tobytes() == ((w + w) * source.pdf_vec(x)).tobytes()

    def test_asymmetric_partition_integrates_left_region(self, monkeypatch):
        points = np.array([-1.0, 0.2, 2.0])
        bnd = midpoint_boundaries(points)
        source = cauchy_source(1.0)
        for s in (0.1, 1.0):
            e, W, (x, w), (xl, wl), calls = _nodes_against_regions(
                points, bnd, source, 1.0, s, monkeypatch
            )
            assert calls == 2
            n, nl = x.size, xl.size
            assert e[-n - nl:-nl].tobytes() == (x - points[-1]).tobytes()
            assert W[-n - nl:-nl].tobytes() == (w * source.pdf_vec(x)).tobytes()
            # the left region, (-inf, -1.5], is the reflection's (1.5, inf) at the point 1
            assert np.abs(e[-nl:]).tobytes() == np.abs(xl - 1.0).tobytes()
            assert W[-nl:].tobytes() == (wl * source.reflected.pdf_vec(xl)).tobytes()

    @pytest.mark.parametrize("source", [
        cauchy_source(1.0),
        SymmetricStableSource(StableParams(0.7, 0.0, 1.3, 0.0)),
        UniformSource(1.0),
    ], ids=["cauchy", "stable0.7", "uniform"])
    def test_single_point_at_zero_integrates_once(self, source, monkeypatch):
        # G of the one-point quantizer equals the explicit two-region sum bit for bit
        psi = reference_neg_log_density(1.5)
        for s in (0.05, 0.7, 3.0):
            _, _, (x, w), _, calls = _nodes_against_regions(
                np.array([0.0]), np.empty(0), source, 1.5, s, monkeypatch
            )
            assert calls == 1
            region = np.sum(w * source.pdf_vec(x) * psi(x / s))
            assert _g(source.strength_nodes(1.5), psi, s) == region + region


def _cauchy_pdf(x):
    return 1.0 / (math.pi * (1.0 + x * x))


# name: (density, support, width); the quantizers are scaled by the width
_TABULATED = {
    "triangle": (lambda x: max(0.0, 1.0 - abs(x)), (-1.0, 1.0), 1.0),
    "laplace": (lambda x: 0.5 * math.exp(-abs(x)), (-np.inf, np.inf), 1.0),
    "laplace0.05": (lambda x: 10.0 * math.exp(-20.0 * abs(x)), (-np.inf, np.inf), 0.05),
    "cauchy": (_cauchy_pdf, (-np.inf, np.inf), 1.0),
    "flat": (lambda x: 0.2, (-2.0, 3.0), 1.0),
    # rate 2 on the right, 1/2 on the left, half the mass on each side
    "two-rate": (
        lambda x: math.exp(-2.0 * x) if x >= 0.0 else 0.25 * math.exp(0.5 * x),
        (-np.inf, np.inf),
        1.0,
    ),
}

# name: (points, boundaries or None for midpoints), in units of the width
_TABULATED_QUANTIZERS = {
    "M1-at-0": ([0.0], None),
    "M1-off-0": ([0.3], None),
    "M3-mirrored": ([-0.6, 0.0, 0.6], None),
    "M3-asymmetric": ([-0.5, 0.1, 0.8], None),
    "M4-mirrored": ([-1.2, -0.4, 0.4, 1.2], None),
    "M4-frozen": ([-1.2, -0.4, 0.4, 1.2], [-0.7, 0.0, 0.9]),
}


class TestTabulatedG:
    """Tabulated sources on the shared panel path.

    G is checked from half to 1.25 times the root, where the strength solve
    needs its accuracy; farther out the solve uses only the sign of G - h.
    """

    @pytest.mark.parametrize("quant", sorted(_TABULATED_QUANTIZERS))
    @pytest.mark.parametrize("kind", sorted(_TABULATED))
    def test_against_quad_oracle(self, kind, quant):
        density, support, width = _TABULATED[kind]
        source = TabulatedSource(density, support)
        pts, bnd = _TABULATED_QUANTIZERS[quant]
        points = width * np.array(pts)
        if bnd is not None:
            boundaries = width * np.array(bnd)
        else:
            boundaries = midpoint_boundaries(points) if points.size > 1 else np.empty(0)
        root = _error_strength_raw(points, boundaries, source, 1.5).value
        nodes = source.error_nodes(points, boundaries, 1.5)
        for s in (0.5 * root, root, 1.25 * root):
            want = oracles.quad_g(points, boundaries, source, 1.5, s)
            got = _g(nodes, reference_neg_log_density(1.5), s)
            assert got == pytest.approx(want, rel=1e-9, abs=0.0), s

    def test_cauchy_callback_matches_stable_route(self):
        q = Quantizer.from_points([-0.6, 0.0, 0.6])
        got = error_strength(q, TabulatedSource(_cauchy_pdf), 1.5).value
        want = error_strength(q, cauchy_source(1.0), 1.5).value
        assert got == pytest.approx(want, rel=1e-9, abs=0.0)


class TestOnePointG:
    """The one-point quantizer's G, which every scalar strength solves, where s
    is several times the density's width (these panels once missed the peak)."""

    @pytest.mark.parametrize("source, s", [
        (cauchy_source(1.0), 4.76),
        (cauchy_source(1.0), 9.52),
        (TabulatedSource(_cauchy_pdf), 4.76),
        (TabulatedSource(_cauchy_pdf), 9.52),
        (TabulatedSource(lambda x: 10.0 * math.exp(-20.0 * abs(x))), 3.0),
        (gaussian_source(0.05), 3.0),
    ], ids=["cauchy-4.76", "cauchy-9.52", "cauchy-callback-4.76", "cauchy-callback-9.52",
            "laplace0.05-3", "gaussian0.05-3"])
    def test_against_quad_oracle(self, source, s):
        got = _g(source.strength_nodes(1.5), reference_neg_log_density(1.5), s)
        want = oracles.quad_g([0.0], [], source, 1.5, s)
        assert got == pytest.approx(want, rel=1e-11, abs=0.0)


def _flat_asymmetric(x):
    return 0.2


class TestAsymmetricTabulated:
    """A source that is not symmetric about 0 (flat 0.2 on (-2, 3)): the left
    outer region and its mass come from `source.reflected`."""

    density, support = staticmethod(_flat_asymmetric), (-2.0, 3.0)

    @staticmethod
    def _entropy(p):
        p = np.asarray(p)
        return float(-np.sum(p * np.log(p)))

    def test_output_entropy(self):
        q = Quantizer.from_points([-0.6, 0.0, 0.6])
        got = output_entropy(q, TabulatedSource(self.density, self.support))
        assert got == pytest.approx(self._entropy([0.34, 0.12, 0.54]), rel=1e-12, abs=0.0)

    def test_uniform_levels_against_quad_oracle(self):
        source = TabulatedSource(self.density, self.support)
        sol, entropy, q = uniform_levels_strength(0.3, 5, source, 1.5)
        # regions (-2, -0.45], three of width 0.3, (0.45, 3)
        assert entropy == pytest.approx(
            self._entropy([0.31, 0.06, 0.06, 0.06, 0.51]), rel=1e-12, abs=0.0
        )
        G = oracles.quad_residual(q.points, q.boundaries, source, 1.5)
        want = oracles.root(G, 0.5 * sol.value, 2.0 * sol.value)
        assert sol.value == pytest.approx(want, rel=1e-9, abs=0.0)


def _half_cauchy(x):
    return 2.0 / (math.pi * (1.0 + x * x)) if x >= 0.0 else 0.0


class TestOneSidedLattice:
    """A source with no left tail (the half-Cauchy on (0, inf)): the direct
    lattice route groups the regions past k_core through each side's own
    tail mass, the left one from `source.reflected`."""

    source = TabulatedSource(_half_cauchy, (0.0, math.inf))

    @pytest.mark.parametrize("delta", [0.5, 0.1])
    def test_weights_sum_to_one(self, delta):
        _, W = _direct_weights(delta, self.source, _direct_radius(delta, self.source))
        assert W.sum() == pytest.approx(1.0, rel=0.0, abs=1e-14)

    def test_high_rate_law(self):
        # s / delta against s_1(U), the paper's high-rate limit
        sol = uniform_error_strength(UniformSpec(0.1), self.source, 1.0)
        assert sol.value / 0.1 == pytest.approx(strength_of_uniform(1.0), rel=1e-9, abs=0.0)


class _FullLattice:
    """A source seen through a proxy that is not its own reflection, so
    `_truncated_uniform_g` evaluates the density at every inner node."""

    def __init__(self, source):
        self._source = source

    def __getattr__(self, name):
        return getattr(self._source, name)

    @property
    def reflected(self):
        return self._source


def _count_pdf_points(monkeypatch, cls):
    """Patch cls.pdf_vec to record how many points each call sees."""
    sizes = []
    pdf_vec = cls.pdf_vec

    def counted(self, x):
        sizes.append(np.size(x))
        return pdf_vec(self, x)

    monkeypatch.setattr(cls, "pdf_vec", counted)
    return sizes


class TestMirroredLattice:
    """A source that is its own reflection has its truncated-uniform lattice
    evaluated at x >= 0 only, and its left outer region folded onto the
    right one: the region masses and the inner nodes stay bitwise those of
    the full evaluation, and the outer weights are the two regions' sum."""

    @pytest.mark.parametrize("M", [2, 3, 8, 9])
    @pytest.mark.parametrize("source", [
        SymmetricStableSource(StableParams(0.7, 0.0, 1.3, 0.0)),
        SymmetricStableSource(StableParams(1.5, 0.0, 1.0, 0.0)),
        gaussian_source(1.0),
        cauchy_source(1.0),
        UniformSource(2.0),
    ], ids=["stable0.7", "stable1.5", "gaussian", "cauchy", "uniform"])
    def test_bitwise_equal_to_full_nodes(self, source, M):
        delta = 0.4
        sol, _, _ = uniform_levels_strength(delta, M, source, 1.5)
        nodes, probs = quantizer._truncated_uniform_g(delta, M, source, 1.5)
        nodes_full, probs_full = quantizer._truncated_uniform_g(
            delta, M, _FullLattice(source), 1.5
        )
        assert probs.tobytes() == probs_full.tobytes()
        inner = 32 if M > 2 else 0
        for f in (0.8, 1.0, 1.25):
            e, W = nodes(f * sol.value)
            e_full, W_full = nodes_full(f * sol.value)
            n = e.size
            assert e_full[:n].tobytes() == e.tobytes()
            assert e_full[n:].tobytes() == (-e[inner:]).tobytes()
            assert W_full[:inner].tobytes() == W[:inner].tobytes()
            # doubling w before the product with f is exact but for subnormal
            # products (the Gaussian's far nodes), which no sum can see
            both = W_full[inner:n] + W_full[n:]
            normal = np.abs(both) >= np.finfo(float).tiny
            assert both[normal].tobytes() == W[inner:][normal].tobytes()
            assert np.all(np.abs(W[inner:][~normal]) < np.finfo(float).tiny)

    @pytest.mark.parametrize("M", [8, 9])
    def test_density_sees_half_the_inner_nodes(self, M, monkeypatch):
        source = SymmetricStableSource(StableParams(1.5, 0.0, 1.0, 0.0))
        monkeypatch.setattr(SymmetricStableSource, "tail_mass", lambda self, x: 0.25)
        sizes = _count_pdf_points(monkeypatch, SymmetricStableSource)
        quantizer._truncated_uniform_g(0.4, M, source, 1.5)
        # rows at the (M - 2) // 2 positive inner points, and the centre row at odd M
        assert sum(sizes) == ((M - 2) // 2 + M % 2) * 32
        sizes.clear()
        quantizer._truncated_uniform_g(0.4, M, _FullLattice(source), 1.5)
        assert sum(sizes) == (M - 2) * 32

    def test_tabulated_source_takes_the_full_path(self, monkeypatch):
        source = TabulatedSource(lambda x: max(0.0, 1.0 - abs(x)), (-1.0, 1.0))
        sizes = _count_pdf_points(monkeypatch, TabulatedSource)
        quantizer._truncated_uniform_g(0.3, 6, source, 1.5)
        assert sum(sizes) == 4 * 32


class TestIndexTwoPowerTail:
    """psi grows as x^2 at index 2, so a power-tailed source has no G there:
    every entry point that integrates an unbounded outer region raises
    NonFiniteLogMoment, while the lattice error, which is bounded, keeps a
    finite strength."""

    SOURCES = [SymmetricStableSource(StableParams(1.5, 0.0, 1.0, 0.0)), cauchy_source(1.0)]
    IDS = ["stable1.5", "cauchy"]

    @pytest.mark.parametrize("source", SOURCES, ids=IDS)
    def test_error_strength(self, source):
        with pytest.raises(NonFiniteLogMoment):
            error_strength(Quantizer.from_points([0.0]), source, 2.0)

    @pytest.mark.parametrize("source", SOURCES, ids=IDS)
    def test_uniform_levels_strength(self, source):
        with pytest.raises(NonFiniteLogMoment):
            uniform_levels_strength(0.3, 4, source, 2.0)

    @pytest.mark.parametrize("source", SOURCES, ids=IDS)
    def test_best_uniform_design(self, source):
        with pytest.raises(NonFiniteLogMoment):
            quantizer.best_uniform_design(source, 2.0, 4)

    @pytest.mark.parametrize("source", SOURCES, ids=IDS)
    def test_design_optimal(self, source):
        with pytest.raises(NonFiniteLogMoment):
            design_optimal(source, 2.0, 2)

    @pytest.mark.parametrize("source", SOURCES, ids=IDS)
    def test_lattice_error_stays_finite(self, source):
        # at a lattice this fine the error is uniform: s = delta / sqrt(12)
        sol = uniform_error_strength(UniformSpec(0.3), source, 2.0)
        assert sol.value == pytest.approx(0.3 / math.sqrt(12.0), rel=1e-9, abs=0.0)


class TestOnePsiCall:
    """One G evaluation runs the density engine at most twice: psi once on
    every offset, and the source density once on every node."""

    SOURCE = SymmetricStableSource(StableParams(1.5, 0.0, 1.0, 0.0))

    @staticmethod
    def _calls(nodes, monkeypatch):
        psi = reference_neg_log_density(1.5, slope=True)
        _g(nodes, psi, 0.7)  # the tables are built
        log_pdf_vec = _StandardDensity.log_pdf_vec
        calls = []

        def counted(self, u, slope=False):
            calls.append(np.size(u))
            return log_pdf_vec(self, u, slope)

        monkeypatch.setattr(_StandardDensity, "log_pdf_vec", counted)
        _g(nodes, psi, 0.7)
        return len(calls)

    @pytest.mark.parametrize("points", [[0.0], [-0.6, 0.0, 0.6]], ids=["M1", "M3"])
    def test_partition(self, points, monkeypatch):
        points = np.array(points)
        bnd = midpoint_boundaries(points) if points.size > 1 else np.empty(0)
        assert self._calls(self.SOURCE.error_nodes(points, bnd, 1.5), monkeypatch) <= 2

    def test_truncated_uniform(self, monkeypatch):
        nodes, _ = quantizer._truncated_uniform_g(0.1, 32, self.SOURCE, 1.5)
        assert self._calls(nodes, monkeypatch) <= 2

    def test_lattice(self, monkeypatch):
        u, W = _uniform_weights(UniformSpec(0.25), self.SOURCE)
        assert self._calls(lambda s: (u, W), monkeypatch) <= 1

    def test_samples(self, monkeypatch):
        source = EmpiricalSource(sample(StableParams(1.5, 0.0, 1.0, 0.0), 1000, seed=1))
        assert self._calls(source.strength_nodes(1.5), monkeypatch) <= 1


class TestBestUniform:
    def test_sample_source_rejected(self):
        src = EmpiricalSource(sample(StableParams(1.5, 0.0, 1.0, 0.0), 2000, seed=21))
        with pytest.raises(ValueError, match="needs a density source"):
            uniform_levels_strength(0.5, 8, src, 1.5)
        with pytest.raises(ValueError, match="needs a density source"):
            quantizer.best_uniform_design(src, 1.5, 8)

    def test_result_is_the_solve_at_the_returned_width(self, monkeypatch):
        source = SymmetricStableSource(StableParams(1.5, 0.0, 1.0, 0.0))
        widths = []
        tug = quantizer._truncated_uniform_g

        def counted(delta, *args):
            widths.append(delta)
            return tug(delta, *args)

        monkeypatch.setattr(quantizer, "_truncated_uniform_g", counted)
        d, sol, entropy, q = quantizer.best_uniform_design(source, 1.5, 32)
        assert len(widths) == len(set(widths))  # no width is solved twice
        assert d in widths
        monkeypatch.setattr(quantizer, "_truncated_uniform_g", tug)
        cold, cold_entropy, cold_q = uniform_levels_strength(d, 32, source, 1.5)
        assert sol.value == pytest.approx(cold.value, rel=1e-14, abs=0.0)
        assert sol.residual <= 1e-9
        assert (entropy, q.points.tobytes()) == (cold_entropy, cold_q.points.tobytes())

    def test_one_quantizer_per_result(self, monkeypatch):
        # the widths searched are solved without a Quantizer; only the
        # returned one is built and validated
        source = SymmetricStableSource(StableParams(1.5, 0.0, 1.0, 0.0))
        built = []
        post_init = Quantizer.__post_init__

        def counted(self):
            built.append(np.size(self.points))
            post_init(self)

        monkeypatch.setattr(Quantizer, "__post_init__", counted)
        d, sol, entropy, q = quantizer.best_uniform_design(source, 1.5, 32)
        assert built == [32]
        built.clear()
        cold, cold_entropy, cold_q = uniform_levels_strength(d, 32, source, 1.5)
        assert built == [32]
        want = truncated_uniform(d, 32).points.tobytes()
        assert q.points.tobytes() == cold_q.points.tobytes() == want

    def test_warm_starts_save_evaluations(self, monkeypatch):
        def evaluations(source, alpha, M):
            total = []
            solve = strength._solve_monotone

            def counted(*args):
                sol = solve(*args)
                total.append(sol.evaluations)
                return sol

            monkeypatch.setattr(strength, "_solve_monotone", counted)
            d = quantizer.best_uniform_design(source, alpha, M)[0]
            monkeypatch.setattr(strength, "_solve_monotone", solve)
            return sum(total), d

        source = cauchy_source(1.0)
        warm, d_warm = evaluations(source, 1.0, 64)
        cold_from = quantizer._uniform_levels_from
        monkeypatch.setattr(
            quantizer, "_uniform_levels_from",
            lambda delta, M, src, alpha, s0: cold_from(delta, M, src, alpha, 0.3 * delta),
        )
        cold, d_cold = evaluations(source, 1.0, 64)
        assert d_warm == pytest.approx(d_cold, rel=1e-9)
        assert warm < 0.9 * cold

    @pytest.mark.xfail(strict=True, reason="the width search is clamped to the low end "
                       "of its bracket, 6 scale / M^1.35, at M = 2")
    def test_cauchy_two_levels_reach_the_designed_strength(self):
        designed = design_optimal(cauchy_source(1.0), 1.0, 2, seed=7).error_strength
        _, sol, _, _ = quantizer.best_uniform_design(cauchy_source(1.0), 1.0, 2)
        assert sol.value == pytest.approx(designed, rel=1e-6, abs=0.0)
