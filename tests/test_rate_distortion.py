import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from stablerd import (
    InvalidDistortion,
    StableParams,
    add_independent,
    distortion_at_rate,
    rd_scalar,
    rd_vector_subgaussian,
    reverse_waterfill,
    strength_closed_form,
)
from stablerd import test_channel as backward_channel  # alias: pytest must not collect it


class TestScalarRD:
    def test_gaussian_specialization(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            sigma = rng.uniform(0.2, 5.0)
            D = sigma * rng.uniform(0.05, 0.95)
            point = rd_scalar(2.0, sigma / math.sqrt(2.0), D)
            assert point.rate == pytest.approx(0.5 * math.log(sigma ** 2 / D ** 2), rel=1e-13)

    def test_zero_at_strength(self):
        assert rd_scalar(1.0, 2.0, 2.0).rate == 0.0

    def test_cauchy_log2(self):
        assert rd_scalar(1.0, 2.0, 1.0).rate == pytest.approx(math.log(2.0), rel=1e-15)

    def test_invalid_distortion(self):
        with pytest.raises(InvalidDistortion):
            rd_scalar(1.0, 1.0, 0.0)

    @given(st_.floats(0.2, 2.0), st_.floats(0.05, 10.0))
    @settings(max_examples=80, deadline=None)
    def test_nonincreasing_convex_clamped(self, alpha, gamma):
        s = strength_closed_form(alpha, gamma)
        grid = np.linspace(0.05 * s, 2.0 * s, 40)
        rates = np.array([rd_scalar(alpha, gamma, float(D)).rate for D in grid])
        assert np.all(np.diff(rates) <= 1e-12)
        inner = rates[1:-1]
        assert np.all(inner <= 0.5 * (rates[:-2] + rates[2:]) + 1e-10)
        assert np.all(rates[grid >= s] == 0.0)


class TestInverse:
    def test_zero_rate(self):
        assert distortion_at_rate(1.3, 2.0, 0.0) == pytest.approx(
            strength_closed_form(1.3, 2.0)
        )

    def test_algebraic_inverse(self):
        assert distortion_at_rate(1.0, 1.0, math.log(4.0)) == pytest.approx(0.25, rel=1e-14)

    def test_gaussian_example(self):
        D = distortion_at_rate(2.0, 1.0 / math.sqrt(2.0), 0.5 * math.log(100.0))
        assert D == pytest.approx(0.1, rel=1e-13)

    @given(st_.floats(0.2, 2.0), st_.floats(0.05, 10.0), st_.floats(0.0, 8.0))
    @settings(max_examples=80, deadline=None)
    def test_roundtrip(self, alpha, gamma, R):
        D = distortion_at_rate(alpha, gamma, R)
        assert rd_scalar(alpha, gamma, D).rate == pytest.approx(R, rel=1e-10, abs=1e-12)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            distortion_at_rate(1.0, 1.0, -0.1)


class TestVector:
    def test_zero_at_strength(self):
        assert rd_vector_subgaussian(1.0, 1.0, 3, 1.0).rate == 0.0

    def test_formula(self):
        r = rd_vector_subgaussian(1.5, 2.0, 2, 1.0)
        assert r.rate == pytest.approx(math.log(1.5 ** (2.0 / 3.0) * 2.0), rel=1e-13)

    def test_gaussian_d2(self):
        r = rd_vector_subgaussian(2.0, 1.0, 2, 0.5)
        assert r.rate == pytest.approx(math.log(2.0 * math.sqrt(2.0)), rel=1e-13)
        # cross-check: equal-component reverse water-filling at the same
        # per-component distortion gives d times the scalar rate
        per = reverse_waterfill(2.0, [math.sqrt(2.0)] * 2, 2.0 * 0.25)
        scalar = rd_scalar(2.0, 1.0, 0.25).rate
        assert per.rate == pytest.approx(2.0 * scalar, rel=1e-12)


def waterfill_objective(strengths, distortions):
    return sum(max(math.log(s / d), 0.0) for s, d in zip(strengths, distortions))


class TestReverseWaterfill:
    def test_two_components(self):
        alloc = reverse_waterfill(1.0, [1.0, 3.0], 2.0)
        assert alloc.level == pytest.approx(1.0, rel=1e-14)
        np.testing.assert_allclose(alloc.distortions, [1.0, 1.0], rtol=1e-14)
        assert alloc.rate == pytest.approx(math.log(3.0), rel=1e-14)

    def test_grid_oracle_two_components(self):
        # exhaustive split of D between the two components
        best = min(
            waterfill_objective([1.0, 3.0], [d1, 2.0 - d1])
            for d1 in np.linspace(1e-4, 2.0 - 1e-4, 20001)
        )
        assert reverse_waterfill(1.0, [1.0, 3.0], 2.0).rate == pytest.approx(best, abs=1e-6)

    def test_saturated(self):
        alloc = reverse_waterfill(1.0, [1.0, 3.0], 4.0)
        np.testing.assert_allclose(alloc.distortions, [1.0, 3.0])
        assert alloc.rate == 0.0

    def test_oversupplied(self):
        alloc = reverse_waterfill(1.0, [1.0, 3.0], 10.0)
        np.testing.assert_allclose(alloc.distortions, [1.0, 3.0])
        assert alloc.rate == 0.0 and alloc.level == 3.0

    def test_symmetric_three(self):
        alloc = reverse_waterfill(1.0, [2.0, 2.0, 2.0], 1.5)
        assert alloc.level == pytest.approx(0.5)
        np.testing.assert_allclose(alloc.distortions, 0.5)
        assert alloc.rate == pytest.approx(3.0 * math.log(4.0), rel=1e-14)

    def test_invalid(self):
        with pytest.raises(InvalidDistortion):
            reverse_waterfill(1.0, [1.0], 0.0)
        with pytest.raises(ValueError):
            reverse_waterfill(1.0, [1.0, -2.0], 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_strength(self, bad):
        # NaN passes a test for s <= 0, and inf gives an infinite rate
        with pytest.raises(ValueError, match="finite"):
            reverse_waterfill(1.0, [1.0, bad], 1.0)

    @given(
        st_.lists(st_.floats(0.05, 20.0), min_size=1, max_size=6),
        st_.floats(0.01, 0.99),
    )
    @settings(max_examples=100, deadline=None)
    def test_constraint_and_level_structure(self, strengths, frac):
        D = frac * sum(strengths)
        alloc = reverse_waterfill(1.0, strengths, D)
        assert float(np.sum(alloc.distortions)) == pytest.approx(D, abs=1e-9)
        s = np.asarray(strengths)
        active = alloc.distortions < s - 1e-12
        if np.any(active):
            np.testing.assert_allclose(alloc.distortions[active], alloc.level, rtol=1e-12)
        assert np.all(alloc.distortions <= s + 1e-12)

    @given(st_.integers(2, 6), st_.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_beats_random_feasible_allocations(self, d, seed):
        rng = np.random.default_rng(seed)
        s = rng.uniform(0.1, 5.0, size=d)
        D = rng.uniform(0.05, 0.95) * s.sum()
        alloc = reverse_waterfill(1.0, s, D)
        for _ in range(200):
            split = rng.dirichlet(np.ones(d)) * D
            if np.any(split <= 0.0):
                continue
            assert alloc.rate <= waterfill_objective(s, split) + 1e-9


class TestTestChannel:
    def test_gaussian_half_split(self):
        ch = backward_channel(2.0, 1.0, 1.0)
        assert ch.gamma_z == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-14)
        assert ch.gamma_xhat == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-14)

    def test_cauchy(self):
        ch = backward_channel(1.0, 2.0, 1.0)
        assert ch.gamma_z == pytest.approx(1.0) and ch.gamma_xhat == pytest.approx(1.0)

    def test_alpha_15(self):
        ch = backward_channel(1.5, 2.0, 1.0)
        assert ch.gamma_z == pytest.approx(1.5 ** (-2.0 / 3.0), rel=1e-14)
        assert ch.gamma_xhat == pytest.approx(
            (2.0 ** 1.5 - 1.0 / 1.5) ** (2.0 / 3.0), rel=1e-14
        )
        assert strength_closed_form(1.5, ch.gamma_z) == pytest.approx(1.0, rel=1e-14)

    @given(st_.floats(0.3, 2.0), st_.floats(0.1, 5.0), st_.floats(0.05, 0.95))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, alpha, gamma_x, frac):
        s = strength_closed_form(alpha, gamma_x)
        D = frac * s
        ch = backward_channel(alpha, gamma_x, D)
        assert strength_closed_form(alpha, ch.gamma_z) == pytest.approx(D, rel=1e-12)
        combined = add_independent(
            StableParams(alpha, 0.0, ch.gamma_xhat, 0.0),
            StableParams(alpha, 0.0, ch.gamma_z, 0.0),
        )
        assert combined.gamma == pytest.approx(gamma_x, rel=1e-12)

    def test_invalid_when_distortion_reaches_strength(self):
        with pytest.raises(InvalidDistortion):
            backward_channel(1.0, 2.0, 2.0)
