"""Pinned outputs of every analytic source kind through the quantizer and
strength entry points.

The values were recorded from the implementation and are compared with
`==`: a change to how a source kind evaluates its density, masses, tails or
G must leave every figure here bit-identical.  Every strength is
solved by safeguarded Newton in ln s to machine precision: each pinned root
lies within 3.9e-15 relative of the brentq root (rtol 4 eps) of the same G's
value, and each two-point design strength within 9e-16 of that root at its
pinned points.  The `solve_strength` and `cb_strength` pins are roots of G
of the one-point quantizer at 0, on the shared panels with their geometric
grading from the point.  Under `oracles.quad_g`, a Gauss-Legendre sum on
panels that hold no spline knot, every `solve_strength` residual is below
1.4e-12 nats; so is every `cb_strength` one but the stable source's,
-5.4e-12: its density table integrates to 1 - 4.7e-12, and cb's psi,
log1p(z^2), carries no ln pi to see that.  The tabulated `error_strength`
and `levels_strength` pins come from the shared panel path for G; each lies
within 2.1e-11 relative of the root of `quad_g` over the same regions,
apart from the lattice rule across the kink at 0 inside `levels_strength`.
"""

import math

import pytest

from stablerd import (
    Quantizer,
    StableParams,
    SymmetricStableSource,
    TabulatedSource,
    UniformSource,
    UniformSpec,
    cb_strength,
    design_optimal,
    error_strength,
    output_entropy,
    solve_strength,
    uniform_error_strength,
)
from stablerd.quantizer import uniform_levels_strength

ALPHA = 1.5


def _triangle(x):
    return max(0.0, 1.0 - abs(x))


def _laplace(x):
    return 0.5 * math.exp(-abs(x))


SOURCES = {
    "uniform": UniformSource(1.0),
    "triangle": TabulatedSource(_triangle, (-1.0, 1.0)),
    "laplace": TabulatedSource(_laplace),
    "stable": SymmetricStableSource(StableParams(0.7, 0.0, 1.3, 0.0)),
}

PINNED = {
    "uniform": {
        "error_strength": 0.15387604875057817,
        "output_entropy": 1.0960673284468554,
        "uniform_error_strength": 0.056509780482134515,
        "levels_strength": 0.11454432828180594,
        "levels_entropy": 1.5637452929222075,
        "solve_strength": 0.45207824386469403,
        "cb_strength": 0.271795064276145,
    },
    "triangle": {
        "error_strength": 0.13368817714106418,
        "output_entropy": 1.0325892856988514,
        "uniform_error_strength": 0.056509780482134515,
        "levels_strength": 0.07587553174804744,
        "levels_entropy": 1.5825825142645626,
        "solve_strength": 0.30700782344853206,
        "cb_strength": 0.17505864191390685,
    },
    "laplace": {
        "error_strength": 0.565655060564024,
        "output_entropy": 1.0856954039879534,
        "uniform_error_strength": 0.056447749700113244,
        "levels_strength": 0.5527473281184733,
        "levels_entropy": 1.4927658691523313,
        "solve_strength": 0.9222822854090115,
        "cb_strength": 0.48250711187256606,
    },
    "stable": {
        "error_strength": 7.615950155850771,
        "output_entropy": 1.033879717524604,
        "uniform_error_strength": 0.056509361775282,
        "levels_strength": 7.614849188376572,
        "levels_entropy": 1.345135938730626,
        "solve_strength": 7.987558824791292,
        "cb_strength": 2.4123898191111106,
    },
}

QUANTIZER = Quantizer.from_points([-0.6, 0.0, 0.6])


@pytest.mark.parametrize("kind", sorted(SOURCES))
class TestPinnedSourceOutputs:
    def test_error_strength(self, kind):
        got = error_strength(QUANTIZER, SOURCES[kind], ALPHA).value
        assert got == PINNED[kind]["error_strength"]

    def test_output_entropy(self, kind):
        assert output_entropy(QUANTIZER, SOURCES[kind]) == PINNED[kind]["output_entropy"]

    def test_uniform_error_strength(self, kind):
        got = uniform_error_strength(UniformSpec(0.25), SOURCES[kind], ALPHA).value
        assert got == PINNED[kind]["uniform_error_strength"]

    def test_uniform_levels_strength(self, kind):
        sol, entropy, _ = uniform_levels_strength(0.3, 5, SOURCES[kind], ALPHA)
        assert sol.value == PINNED[kind]["levels_strength"]
        assert entropy == PINNED[kind]["levels_entropy"]

    def test_solve_strength(self, kind):
        assert solve_strength(SOURCES[kind], ALPHA).value == PINNED[kind]["solve_strength"]

    def test_cb_strength(self, kind):
        assert cb_strength(SOURCES[kind]) == PINNED[kind]["cb_strength"]


# The uniform optimum is a = 0.5 exactly, whose root is 0.22603912194328546;
# the pin sits 8.6e-16 above it, inside Nelder-Mead's fatol (1e-9 s) and
# xatol (1e-7 in ln a).
@pytest.mark.parametrize("kind, strength, point", [
    ("uniform", 0.22603912194328565, 0.5000000142248026),
    ("laplace", 0.6075328411050206, 0.7341141526000362),
    ("stable", 7.027664214765503, 2.6536630037302436),
], ids=["uniform", "laplace", "stable"])
def test_pinned_two_point_design(kind, strength, point):
    report = design_optimal(SOURCES[kind], ALPHA, 2, seed=1)
    assert report.error_strength == strength
    assert list(report.quantizer.points) == [-point, point]
