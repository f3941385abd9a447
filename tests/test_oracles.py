"""The oracles of `tests/oracles.py` against closed forms, and `quad_g`
against a 4-node rule on its own panels.  Each mpmath series is summed to 20
digits past its largest term."""

import math

import mpmath
import pytest

from stablerd import StableParams, SymmetricStableSource, TabulatedSource, UniformSource
from stablerd import cauchy_source

import oracles

STABLE = SymmetricStableSource(StableParams(0.7, 0.0, 1.3, 0.0))


@pytest.mark.parametrize("u", [0.01, 0.5, 0.9, 1.1, 3.0, 30.0, 1e4])
def test_cauchy_series(u):
    # the small-u series below u = 1, the power-tail series and its survival form above
    with mpmath.workdps(40):
        assert abs(oracles.pdf0(1.0, u) * mpmath.pi * (1 + mpmath.mpf(u) ** 2) - 1) < 1e-20
        if u > 1.0:
            survival = mpmath.mpf(1) / 2 - mpmath.atan(u) / mpmath.pi
            assert abs(oracles.series(1.0, u, "survival") / survival - 1) < 1e-20


@pytest.mark.parametrize("u", [0.01, 0.5, 3.0, 10.0, 30.0])
def test_gaussian_series(u):
    # alpha = 2 is N(0, 2); every power-tail term vanishes there
    with mpmath.workdps(40):
        want = mpmath.exp(-mpmath.mpf(u) ** 2 / 4) / mpmath.sqrt(4 * mpmath.pi)
        assert abs(oracles.pdf0(2.0, u) / want - 1) < 1e-20


@pytest.mark.parametrize("s", [0.05, 0.1358975, 1.0, 10.0])
def test_quad_g_uniform_at_index_one_against_arctan_form(s):
    # int_{-1/2}^{1/2} ln pi + ln(1 + x^2/s^2) dx
    want = math.log(math.pi) + math.log1p(0.25 / (s * s)) - 2.0 + 4.0 * s * math.atan(0.5 / s)
    got = oracles.quad_g([0.0], [], UniformSource(0.5), 1.0, s)
    assert got == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("points, boundaries, source, s", [
    ([0.0], [], UniformSource(1.0), 0.452),
    ([0.0], [], cauchy_source(1.0), 4.76),
    ([0.0], [], STABLE, 7.99),
    ([-0.6, 0.0, 0.6], [-0.3, 0.3], STABLE, 7.6),
    ([-0.6, 0.0, 0.6], [-0.3, 0.3], TabulatedSource(lambda x: 0.5 * math.exp(-abs(x))), 0.5),
], ids=["uniform", "cauchy", "stable", "stable-M3", "laplace-M3"])
def test_quad_g_four_nodes_agree_with_thirty_two(points, boundaries, source, s):
    # no panel holds a spline knot, so the 4-node rule is exact to rounding
    want = oracles.quad_g(points, boundaries, source, 1.5, s)
    got = oracles.quad_g(points, boundaries, source, 1.5, s, nodes=4)
    assert got == pytest.approx(want, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("r", [0.3, 3.0, 40.0])
def test_radial_cauchy(d, r):
    # the Hankel integral at r = 0.3, the power-tail series beyond
    with mpmath.workdps(40):
        h = mpmath.mpf(d + 1) / 2
        want = mpmath.gamma(h) / mpmath.pi ** h * (1 + mpmath.mpf(r) ** 2) ** -h
        assert abs(oracles.radial_pdf(1.0, d, r) / want - 1) < 1e-20


@pytest.mark.parametrize("d", [2, 3])
def test_radial_gaussian(d):
    # alpha = 2 is N(0, 2 I); every power-tail term vanishes, so the Hankel
    # integral gives it
    with mpmath.workdps(40):
        want = (4 * mpmath.pi) ** (-mpmath.mpf(d) / 2) * mpmath.exp(-mpmath.mpf(0.5) ** 2 / 4)
        assert abs(oracles.radial_pdf(2.0, d, 0.5) / want - 1) < 1e-20


@pytest.mark.parametrize("alpha, d, r", [(0.7, 2, 0.05), (1.5, 3, 2.0)])
def test_radial_small_series_against_hankel(alpha, d, r):
    # the small-r series that `radial_entropy` also reads, where the power-
    # tail series does not get there
    with mpmath.workdps(40):
        assert abs(oracles.series(alpha, r, "small", d) / oracles.radial_hankel(alpha, d, r) - 1) < 1e-20


@pytest.mark.parametrize("d", [2, 3])
def test_radial_entropy_cauchy(d):
    half = (d + 1.0) / 2.0
    want = half * math.log(math.pi) - math.lgamma(half) \
        + half * (math.log(4.0) + float(mpmath.digamma(half)) + float(mpmath.euler))
    assert oracles.radial_entropy(1.0, d) == pytest.approx(want, rel=0.0, abs=1e-13)
