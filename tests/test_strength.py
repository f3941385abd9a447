import math

import numpy as np
import pytest
from scipy import special

from stablerd import (
    EmpiricalSource,
    NonFiniteLogMoment,
    Quantizer,
    ReferenceLaw,
    SampleBatch,
    StableParams,
    SymmetricStableSource,
    TabulatedSource,
    UniformSource,
    cauchy_source,
    cb_strength,
    error_strength,
    g_value,
    gaussian_source,
    log_pdf_reference,
    reference_entropy,
    sample,
    solve_strength,
    strength_closed_form,
    strength_of_uniform,
)
from stablerd.strength import _g, reference_neg_log_density

import oracles


def empirical(values, seed=0):
    return EmpiricalSource(SampleBatch(values=np.asarray(values, dtype=float), seed=seed))


def scaled_tabulated(base_density, c, support=(-np.inf, np.inf)):
    a = abs(c)
    lo, hi = support
    new_support = tuple(sorted((lo * a if math.isfinite(lo) else math.copysign(np.inf, lo * c),
                                hi * a if math.isfinite(hi) else math.copysign(np.inf, hi * c))))
    return TabulatedSource(lambda x: base_density(x / a) / a, new_support)


class TestGValue:
    def test_cauchy_at_its_strength(self):
        # -E[log f_ref(X)] = ln pi + E[ln(1 + X^2)] = ln pi + ln 4
        assert g_value(cauchy_source(1.0), 1.0, 1.0) == pytest.approx(
            math.log(4.0 * math.pi), abs=1e-9
        )

    def test_uniform_against_gaussian_reference(self):
        expected = 0.5 * math.log(2.0 * math.pi) + 1.0 / 24.0
        assert g_value(UniformSource(0.5), 2.0, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_empirical_closed_form(self):
        src = empirical([-1.0, 0.0, 1.0])
        expected = math.log(math.pi) + (2.0 / 3.0) * math.log(1.25)
        assert g_value(src, 1.0, 2.0) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "source",
        [
            cauchy_source(1.0),
            gaussian_source(2.0),
            UniformSource(1.5),
            empirical(np.linspace(-3, 3, 101)),
            SymmetricStableSource(StableParams(1.4, 0.0, 0.7, 0.0)),
        ],
        ids=["cauchy", "gaussian", "uniform", "empirical", "stable14"],
    )
    def test_monotone_in_s(self, source):
        scales = np.geomspace(0.05, 20.0, 20)
        vals = [g_value(source, 1.0, s) for s in scales]
        assert all(a >= b - 1e-10 for a, b in zip(vals, vals[1:]))

    def test_heavy_tail_at_alpha2_diverges(self):
        with pytest.raises(NonFiniteLogMoment):
            g_value(cauchy_source(1.0), 2.0, 1.0)

    def test_tabulated_heavy_tail_at_alpha2_diverges(self):
        cauchy_pdf = lambda x: 1.0 / (math.pi * (1.0 + x * x))
        with pytest.raises(NonFiniteLogMoment):
            g_value(TabulatedSource(cauchy_pdf), 2.0, 1.0)


SMALL_ALPHA = SymmetricStableSource(StableParams(0.3, 0.0, 1.0, 0.0))


class TestStrengthIsOnePointG:
    """At d = 1, g(s) is G(s) of the quantizer with one point at 0."""

    @pytest.mark.parametrize("alpha", [1.0, 1.5])
    def test_small_alpha_root_residual_against_quad_oracle(self, alpha):
        sol = solve_strength(SMALL_ALPHA, alpha)
        h = reference_entropy(ReferenceLaw(alpha, 1))
        assert abs(oracles.quad_g([0.0], [], SMALL_ALPHA, alpha, sol.value) - h) <= 1e-9

    @pytest.mark.parametrize("source, alpha", [
        (SMALL_ALPHA, 1.0), (SMALL_ALPHA, 1.5), (UniformSource(0.5), 0.1),
    ], ids=["stable0.3-index1", "stable0.3-index1.5", "uniform-index0.1"])
    def test_one_point_error_strength_equals_solve_strength(self, source, alpha):
        one = error_strength(Quantizer.from_points([0.0]), source, alpha).value
        assert one == pytest.approx(solve_strength(source, alpha).value, rel=1e-12, abs=0.0)


class TestSolveStrength:
    @pytest.mark.parametrize("alpha", [0.6, 1.0, 1.4, 2.0])
    def test_matches_closed_form(self, alpha):
        src = SymmetricStableSource(StableParams(alpha, 0.0, 1.0, 0.0))
        sol = solve_strength(src, alpha)
        assert sol.value == pytest.approx(strength_closed_form(alpha, 1.0), rel=1e-4)

    def test_gaussian_standard(self):
        sol = solve_strength(gaussian_source(1.0), 2.0)
        assert sol.value == pytest.approx(1.0, rel=1e-9)

    def test_two_point_empirical(self):
        sol = solve_strength(empirical([-2.0, 2.0]), 1.0)
        assert sol.value == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-10)

    def test_residual_contract(self):
        for source in (cauchy_source(3.0), empirical([-1.0, 0.5, 2.0, -2.5])):
            sol = solve_strength(source, 1.0, tol=1e-9)
            h = reference_entropy(ReferenceLaw(1.0))
            assert sol.residual <= 1e-9
            assert abs(g_value(source, 1.0, sol.value) - h) <= 1e-9

    def test_zero_source(self):
        sol = solve_strength(empirical([0.0, 0.0, 0.0]), 1.0)
        assert sol.value == 0.0 and sol.evaluations == 0

    @pytest.mark.parametrize("c", [0.5, 2.0, -3.0])
    def test_scaling_law_empirical(self, c):
        rng = np.random.default_rng(5)
        base = rng.standard_t(3, size=4000)
        s1 = solve_strength(empirical(base), 1.0).value
        s2 = solve_strength(empirical(c * base), 1.0).value
        assert s2 == pytest.approx(abs(c) * s1, rel=1e-6)

    @pytest.mark.parametrize("c", [0.5, 2.0, -3.0])
    def test_scaling_law_tabulated(self, c):
        tri = lambda x: max(0.0, 1.0 - abs(x))
        base = TabulatedSource(tri, (-1.0, 1.0))
        scaled = scaled_tabulated(tri, c, (-1.0, 1.0))
        s1 = solve_strength(base, 1.0).value
        s2 = solve_strength(scaled, 1.0).value
        assert s2 == pytest.approx(abs(c) * s1, rel=1e-6)


class TestClosedForm:
    def test_values(self):
        assert strength_closed_form(2.0, math.sqrt(2.0)) == pytest.approx(2.0)
        assert strength_closed_form(1.0, 5.0) == pytest.approx(5.0)
        assert strength_closed_form(0.5, 1.0) == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            strength_closed_form(2.5, 1.0)
        with pytest.raises(ValueError):
            strength_closed_form(1.0, -1.0)


class TestCBStrength:
    def test_standard_cauchy_density(self):
        cauchy_pdf = lambda x: 1.0 / (math.pi * (1.0 + x * x))
        assert cb_strength(TabulatedSource(cauchy_pdf)) == pytest.approx(1.0, rel=1e-6)

    def test_point_mass_is_zero(self):
        assert cb_strength(empirical([0.0, 0.0])) == 0.0

    def test_circular_cauchy_samples_d2(self):
        batch = sample(StableParams(1.0, 0.0, 1.0, 0.0), 10 ** 6, seed=77, d=2)
        value = cb_strength(EmpiricalSource(batch), d=2)
        assert value == pytest.approx(1.0, abs=0.01)

    def test_matches_solve_strength_for_alpha1(self):
        src = empirical([-3.0, -1.0, 1.0, 3.0])
        assert cb_strength(src) == pytest.approx(solve_strength(src, 1.0).value, rel=1e-8)

    def test_one_column_samples_and_dimension_checks(self):
        values = [-3.0, -1.0, 0.5, 1.0, 3.0]
        column = cb_strength(empirical([[v] for v in values]))
        assert column == pytest.approx(cb_strength(empirical(values)), rel=1e-14, abs=0.0)
        with pytest.raises(ValueError, match="requires d-dimensional samples"):
            cb_strength(empirical(values), d=2)
        with pytest.raises(ValueError, match="does not match d"):
            cb_strength(empirical([[1.0, 2.0]]), d=3)


class TestUniformStrength:
    def test_gaussian_case_exact(self):
        assert strength_of_uniform(2.0) == 1.0 / math.sqrt(12.0)

    def test_cauchy_case(self):
        assert strength_of_uniform(1.0) == pytest.approx(0.13589753213807249, abs=1e-12)

    def test_ratio(self):
        r = strength_of_uniform(2.0) / strength_of_uniform(1.0)
        assert r == pytest.approx(2.124, abs=0.01)

    def test_alpha_15_against_fixed_grid_oracle(self):
        h = reference_entropy(ReferenceLaw(1.5))
        oracle = oracles.root(lambda s: oracles.uniform_g_trapezoid(1.5, s) - h, 0.01, 1.0)
        assert strength_of_uniform(1.5) == pytest.approx(oracle, rel=1e-6)

    def test_library_solver_agrees_with_arctan_route(self):
        generic = solve_strength(UniformSource(0.5), 1.0).value
        assert generic == pytest.approx(strength_of_uniform(1.0), rel=1e-8)


class TestStableInfiniteEnds:
    """Masses of a stable source with an infinite end."""

    @pytest.mark.parametrize("alpha", [0.7, 1.0, 1.5])
    def test_masses(self, alpha):
        src = SymmetricStableSource(StableParams(alpha, 0.0, 1.0, 0.0))
        assert (src.tail_mass(math.inf), src.tail_mass(-math.inf)) == (0.0, 1.0)
        for a in (0.0, 2.5, 30.0, 100.0, math.inf):
            assert src.mass(a, math.inf) == src.tail_mass(a)
        # short of 1 by the table's deficit
        assert src.mass(-math.inf, math.inf) == pytest.approx(1.0, rel=0.0, abs=1e-10)


class TestTabulatedValidation:
    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            TabulatedSource(lambda x: 1.0, (0.0, 2.0))

    def test_normalized_accepted(self):
        TabulatedSource(lambda x: 0.5, (-1.0, 1.0))


class TestTabulatedTail:
    @staticmethod
    def _integral(src, phi, x0):
        x, w, _ = src.tail_nodes(x0)
        return float(np.sum(w * src.pdf_vec(x) * phi(x)))

    def test_cauchy_tail_mass_matches_arctan(self):
        src = TabulatedSource(lambda x: 1.0 / (math.pi * (1.0 + x * x)))
        # the segments stop once one adds below 1e-15 of the mass; the
        # segments beyond halve, so at most about 1e-15 more is left out
        for x0 in (64.0, 1000.0):
            got = self._integral(src, np.ones_like, x0)
            assert got == pytest.approx(0.5 - math.atan(x0) / math.pi, rel=0.0, abs=2e-13)

    def test_last_segment_cut_at_finite_end(self):
        src = TabulatedSource(lambda x: 0.2, (-2.0, 3.0))
        assert self._integral(src, lambda x: x, 1.0) == pytest.approx(0.8, rel=1e-14)
        assert self._integral(src, lambda x: x, 3.0) == 0.0

    def test_second_moment_of_a_heavy_tail_diverges(self):
        # at index 2 the segments must bound the second moment, not the mass
        src = TabulatedSource(lambda x: 1.0 / (math.pi * (1.0 + x * x)))
        src.tail_nodes(64.0)
        with pytest.raises(NonFiniteLogMoment):
            src.tail_nodes(64.0, moment=2.0)

    def test_reflection(self):
        src = TabulatedSource(lambda x: 0.2, (-2.0, 3.0))
        ref = src.reflected
        assert ref.support == (-3.0, 2.0)
        assert ref is src.reflected  # built once
        x = np.linspace(-4.0, 4.0, 33)
        np.testing.assert_array_equal(ref.pdf_vec(x), src.pdf_vec(-x))

    # (s, G(s), dG/d ln s) of the Cauchy callback's strength G at index 0.5,
    # at 0.8, 1 and 1.25 times its root, as float.hex, recorded when the
    # tail's density was still read a second time by the partition
    G_AT_INDEX_HALF = [
        ("0x1.58a03a7b57664p-4", "0x1.52582ad5803c6p+2", "-0x1.2ef99e3056b4bp+0"),
        ("0x1.aec8491a2d3fdp-4", "0x1.41ad91a5704edp+2", "-0x1.266b61ad1493dp+0"),
        ("0x1.0d3d2db05c47ep-3", "0x1.31824a0b4f22fp+2", "-0x1.1d242f54a0fbap+0"),
    ]

    def test_g_reads_each_tail_node_once(self):
        # the tail's stop test reads the density at its nodes, and G reuses
        # those values: at these s (below 64 / 240) the one-point partition's
        # outer regions end at x0 = 64, and per G evaluation the callback is
        # read once per node, 1,376 times past 64 where it used to be read
        # 2,752 times; G and its slope are bitwise what they were
        reads = []

        def cauchy(x):
            reads.append(x)
            return 1.0 / (math.pi * (1.0 + x * x))

        src = TabulatedSource(cauchy)
        nodes = src.strength_nodes(0.5)
        psi = reference_neg_log_density(0.5, True)
        n_tail = src.tail_nodes(64.0)[0].size + src.reflected.tail_nodes(64.0)[0].size
        assert n_tail == 1376
        for s, g, slope in self.G_AT_INDEX_HALF:
            s = float.fromhex(s)
            e, _ = nodes(s)
            reads.clear()
            got = _g(nodes, psi, s)
            assert len(reads) == e.size
            assert sum(abs(x) > 64.0 for x in reads) == n_tail
            assert (float(got[0]).hex(), float(got[1]).hex()) == (g, slope)


LAPLACE = TabulatedSource(lambda x: 0.5 * math.exp(-abs(x)))
TRIANGLE = TabulatedSource(lambda x: max(0.0, 1.0 - abs(x)), (-1.0, 1.0))
# One-sided sources; the ramp's callback is nonzero (negative) left of its support
RAMP = TabulatedSource(lambda x: 2.0 * x, (0.0, 1.0))
EXPONENTIAL = TabulatedSource(lambda x: math.exp(-x), (0.0, np.inf))


class TestAbsQuantile:
    """The p-quantile of |X| against its closed form."""

    @pytest.mark.parametrize("source, quantile", [
        (cauchy_source(2.0), lambda p: 2.0 * math.tan(math.pi * p / 2.0)),
        (gaussian_source(1.0), lambda p: math.sqrt(2.0) * float(special.erfinv(p))),
        (LAPLACE, lambda p: -math.log1p(-p)),
        (TRIANGLE, lambda p: 1.0 - math.sqrt(1.0 - p)),
        (RAMP, math.sqrt),
        (EXPONENTIAL, lambda p: -math.log1p(-p)),
    ], ids=["cauchy", "gaussian", "laplace", "triangle", "ramp", "exponential"])
    @pytest.mark.parametrize("p", [1.0 / 6.0, 0.25, 0.5, 0.75])
    def test_closed_forms(self, source, quantile, p):
        assert source.abs_quantile(p) == pytest.approx(quantile(p), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("source, median", [
        (LAPLACE, math.log(2.0)),
        (TRIANGLE, 1.0 - math.sqrt(0.5)),
        (RAMP, math.sqrt(0.5)),
        (EXPONENTIAL, math.log(2.0)),
    ], ids=["laplace", "triangle", "ramp", "exponential"])
    def test_tabulated_start_scale_is_the_median(self, source, median):
        assert abs(source.start_scale - median) <= 2.0 * math.ulp(median)

    def test_callback_outside_the_support_is_ignored(self):
        # the same law with its callback zeroed outside (0, 1)
        masked = TabulatedSource(lambda x: 2.0 * x if 0.0 <= x <= 1.0 else 0.0, (0.0, 1.0))
        assert RAMP.mass(-1.0, 0.5) == pytest.approx(0.25, rel=1e-14, abs=0.0)
        assert solve_strength(RAMP, 1.0).value == pytest.approx(
            solve_strength(masked, 1.0).value, rel=1e-12, abs=0.0)
        assert cb_strength(RAMP) == pytest.approx(cb_strength(masked), rel=1e-12, abs=0.0)


class TestSolverEdges:
    def test_bracket_failure_when_no_sign_change(self):
        from stablerd import BracketFailure
        from stablerd.strength import _solve_monotone

        with pytest.raises(BracketFailure):
            _solve_monotone(lambda s: (1.0, 0.0), 1.0, 1e-9)

    @pytest.mark.parametrize("slope", [1.0, math.nan, -math.inf])
    def test_unusable_slope_falls_back_to_bisection(self, slope):
        from stablerd.strength import _solve_monotone

        # fn = ln(2.5 / s) crosses 0 at s = 2.5; the slope it reports is wrong
        sol = _solve_monotone(lambda s: (math.log(2.5 / s), slope), 0.1, 1e-12)
        assert sol.residual <= 1e-12
        assert sol.value == pytest.approx(2.5, rel=1e-12, abs=0.0)
        assert sol.bracket[0] <= sol.value <= sol.bracket[1]

    def test_warm_design_solve_takes_at_most_four_evaluations(self, monkeypatch):
        from stablerd import strength
        from stablerd.quantizer import _error_strength_raw, _mirror, midpoint_boundaries

        solve = strength._solve_monotone
        calls = []

        def counted(fn, s0, tol):
            def f(s):
                calls.append(s)
                return fn(s)

            return solve(f, s0, tol)

        monkeypatch.setattr(strength, "_solve_monotone", counted)
        source = cauchy_source(1.0)
        hint = _error_strength_raw(np.array([-0.79, 0.79]), np.array([0.0]), source, 1.0).value
        # moves of the design loop's objective: the points shift with the
        # boundary frozen and the hint is the current strength, 2% to 10% from
        # the new root (the median start of the design pass is 9% away)
        for a in (0.4, 0.5, 0.6, 1.0, 1.3):
            calls.clear()
            sol = _error_strength_raw(_mirror(np.array([a]), 2), np.array([0.0]), source, 1.0,
                                      s_hint=hint)
            assert sol.evaluations == len(calls) <= 4
        pts = _mirror(np.array([0.3, 1.1]), 4)
        hint = _error_strength_raw(pts, midpoint_boundaries(pts), source, 1.0).value
        calls.clear()
        sol = _error_strength_raw(pts * 1.02, midpoint_boundaries(pts), source, 1.0, s_hint=hint)
        assert sol.evaluations == len(calls) <= 4

    def test_d2_solver_agrees_with_cb_strength(self):
        # for alpha = 1 the generic d-dimensional defining equation reduces to
        # the closed CB condition, so the two solvers must agree
        batch = sample(StableParams(1.0, 0.0, 1.0, 0.0), 20000, seed=13, d=2)
        src = EmpiricalSource(batch)
        generic = solve_strength(src, 1.0).value
        closed = cb_strength(src, d=2)
        assert generic == pytest.approx(closed, rel=1e-8)

    def test_concurrent_solves_are_safe(self):
        from concurrent.futures import ThreadPoolExecutor

        src = SymmetricStableSource(StableParams(1.4, 0.0, 1.0, 0.0))
        with ThreadPoolExecutor(max_workers=4) as pool:
            vals = list(pool.map(lambda _: solve_strength(src, 1.4).value, range(8)))
        assert max(vals) - min(vals) == 0.0


class TestMultiDimensional:
    def test_g_value_d2_general_alpha_smoke(self):
        # the d = 2 table at alpha 1.5, on a small batch
        batch = sample(StableParams(1.5, 0.0, 1.0, 0.0), 4, seed=2, d=2)
        val = g_value(EmpiricalSource(batch), 1.5, 1.0)
        assert math.isfinite(val) and val > 0.0

    @pytest.mark.parametrize("d", [2, 3])
    def test_forced_table_gives_the_cauchy_slope(self, d):
        # kappa_d = r f_d'/f_d, the slope behind the d >= 2 strength at alpha
        # off {1, 2}, from the d >= 2 tables built at alpha = 1 (d = 3 from
        # the d = 2 table), against the circular Cauchy's -(d + 1) r^2 / (1 + r^2);
        # 0.05 and 0.3 lie below the tables, on the small-r series
        with oracles.tabulated_engines(1.0, [2, 3]) as engines:
            for r in (0.05, 0.3, 1.0, 3.0, 10.0):
                kappa = float(engines[d].log_pdf_vec(r, slope=True)[1])
                assert kappa == pytest.approx(-(d + 1.0) * r * r / (1.0 + r * r), rel=0.0, abs=3e-7)

    def test_g_value_d2_general_alpha_slope(self):
        # the slope against a five-point central difference of the value in ln s
        src = empirical([[0.3, -1.0], [2.0, 0.5], [-0.7, 0.1], [5.0, -3.0], [0.05, 0.02]])
        h = 1e-3
        for s in (0.5, 1.0, 2.0):
            _, slope = g_value(src, 1.5, s, slope=True)
            at = [g_value(src, 1.5, s * math.exp(k * h)) for k in (-2, -1, 1, 2)]
            want = (8.0 * (at[2] - at[1]) - (at[3] - at[0])) / (12.0 * h)
            assert slope == pytest.approx(want, rel=1e-7, abs=0.0)

    def test_slope_is_finite_in_the_far_tail(self):
        # past TAIL_CUTOFF the slope is the radial series' own
        value, slope = g_value(empirical([[80.0, 0.0]]), 0.7, 1.0, slope=True)
        assert math.isfinite(value) and math.isfinite(slope) and slope < 0.0

    def test_d3_general_alpha_solve_steps_by_newton(self):
        src = EmpiricalSource(sample(StableParams(1.5, 0.0, 1.0, 0.0), 50, seed=0, d=3))
        sol = solve_strength(src, 1.5)
        assert sol.evaluations <= 6
        assert sol.value == pytest.approx(1.4934409391126169, rel=1e-12, abs=0.0)

    def test_reference_density_d2_far_tail(self):
        ref = ReferenceLaw(0.7, 2)
        for r in (80.0, 100.0):
            assert math.isfinite(log_pdf_reference(ref, np.array([r, 0.0])))

    # 4 times the spread of the d = 1 strength over 20 seeds (1e5 samples,
    # gamma 1.3), set before the d >= 2 runs: 8.4e-3 at alpha 0.7, 3.8e-3 at 1.5
    SAMPLING_BOUND = {0.7: 3.4e-2, 1.5: 1.5e-2}

    @pytest.mark.parametrize("alpha", [0.7, 1.5])
    @pytest.mark.parametrize("d", [2, 3])
    def test_subgaussian_strength_is_dimension_free(self, alpha, d):
        # X / s has the reference law at s = alpha^(1/alpha) gamma in every d
        batch = sample(StableParams(alpha, 0.0, 1.3, 0.0), 10 ** 5, seed=1, d=d)
        got = solve_strength(EmpiricalSource(batch), alpha).value
        assert got == pytest.approx(strength_closed_form(alpha, 1.3), rel=self.SAMPLING_BOUND[alpha], abs=0.0)


class TestSortedEmpirical:
    """Sample means run over a cached ascending copy of the samples: results
    depend only on the multiset of samples, and `batch.values` keeps its order."""

    @staticmethod
    def _sources():
        values = sample(StableParams(1.5, 0.0, 1.0, 0.0), 20000, seed=21).values
        shuffled = np.random.default_rng(4).permutation(values)
        return empirical(values), empirical(shuffled)

    @staticmethod
    def _solves(source):
        from stablerd import Quantizer, UniformSpec, error_strength, uniform_error_strength

        q = Quantizer.from_points([-1.0, 0.0, 1.0])
        return {
            "solve_strength": solve_strength(source, 1.5),
            "uniform_error_strength": uniform_error_strength(UniformSpec(0.25), source, 1.5),
            "error_strength": error_strength(q, source, 1.5),
        }

    @staticmethod
    def _unsorted_oracle(source):
        """The same solves, each from the same start, with the mean taken over
        the samples in their given order."""
        from stablerd.quantizer import midpoint_boundaries
        from stablerd.strength import _solve_monotone

        vals = source.batch.values
        psi = reference_neg_log_density(1.5, slope=True)
        h = reference_entropy(ReferenceLaw(1.5))
        pts = np.array([-1.0, 0.0, 1.0])
        offs = {
            "solve_strength": vals,
            "uniform_error_strength": vals - np.round(vals / 0.25) * 0.25,
            "error_strength": vals - pts[np.searchsorted(midpoint_boundaries(pts), vals)],
        }
        starts = {"solve_strength": source.start_scale, "uniform_error_strength": 0.2 * 0.25,
                  "error_strength": 0.3}
        return {
            key: _solve_monotone(
                lambda s, x=x: np.mean(psi(x / s), axis=-1) - (h, 0.0), starts[key], 1e-9
            )
            for key, x in offs.items()
        }

    def test_shuffled_samples_give_bitwise_equal_results(self):
        ordered, shuffled = self._sources()
        for key, sol in self._solves(ordered).items():
            other = self._solves(shuffled)[key]
            assert (sol.value, sol.residual, sol.evaluations) == (
                other.value, other.residual, other.evaluations
            ), key

    def test_results_match_the_unsorted_mean(self):
        _, shuffled = self._sources()
        oracle = self._unsorted_oracle(shuffled)
        for key, sol in self._solves(shuffled).items():
            assert sol.value == pytest.approx(oracle[key].value, rel=1e-15, abs=0.0), key

    def test_batch_order_is_kept(self):
        _, source = self._sources()
        before = source.batch.values.copy()
        self._solves(source)
        assert source.batch.values.tobytes() == before.tobytes()
        assert np.all(np.diff(source.sorted_values) >= 0.0)
        assert not source.sorted_values.flags.writeable

    def test_concurrent_first_access(self):
        from concurrent.futures import ThreadPoolExecutor

        _, source = self._sources()
        with ThreadPoolExecutor(max_workers=2) as pool:
            copies = list(pool.map(lambda _: source.sorted_values, range(4)))
        assert all(c.tobytes() == copies[0].tobytes() for c in copies)
        assert source.sorted_values is source.sorted_values
