"""Pinned outputs of every analytic source kind through the quantizer and
strength entry points.

The values were recorded from the implementation and are compared with
`==`: a change to how a source kind evaluates its density, masses, tails or
expectations must leave every figure here bit-identical.  Every strength is
solved by safeguarded Newton in ln s to machine precision: each pinned root
lies within 3.6e-15 relative of the brentq root (rtol 4 eps) of the same G's
value, and each two-point design strength within 9e-16 of that root at its
pinned points.  The stable `solve_strength` and `cb_strength` pins come from
the one power-tail rule of `stable_core._tail_integral`; they lie within
1.35e-12 and 8e-16 (absolute) of the roots of a dense oracle (3000 tail
panels over a span 40/alpha longer).  The tabulated `error_strength` and
`levels_strength` pins come from the shared panel path for G; each lies
within 4e-11 relative of an adaptive-quadrature oracle (epsrel 1e-13) that
integrates the same regions, apart from the lattice rule across the kink at
0 inside `levels_strength`.
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
        "error_strength": 0.1538760487505783,
        "output_entropy": 1.0960673284468554,
        "uniform_error_strength": 0.05650978048213454,
        "levels_strength": 0.11454432828180604,
        "levels_entropy": 1.5637452929222075,
        "solve_strength": 0.4520782438656484,
        "cb_strength": 0.27179506427614497,
    },
    "triangle": {
        "error_strength": 0.13368817714106423,
        "output_entropy": 1.0325892856988514,
        "uniform_error_strength": 0.05650978048213454,
        "levels_strength": 0.07587553174804751,
        "levels_entropy": 1.5825825142645626,
        "solve_strength": 0.30700782345689737,
        "cb_strength": 0.17505864191339143,
    },
    "laplace": {
        "error_strength": 0.5656550605640245,
        "output_entropy": 1.0856954039879534,
        "uniform_error_strength": 0.056447749700113264,
        "levels_strength": 0.5527473281184758,
        "levels_entropy": 1.4927658691523313,
        "solve_strength": 0.9222822853876929,
        "cb_strength": 0.4825071118725661,
    },
    "stable": {
        "error_strength": 7.615950155850792,
        "output_entropy": 1.033879717524604,
        "uniform_error_strength": 0.05650936177528203,
        "levels_strength": 7.6148491883765885,
        "levels_entropy": 1.345135938730626,
        "solve_strength": 7.987558824691353,
        "cb_strength": 2.4123898191111652,
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


@pytest.mark.parametrize("kind, strength, point", [
    ("uniform", 0.22603912194328563, 0.5000000008516365),
    ("laplace", 0.6075328411050209, 0.7341141526000362),
    ("stable", 7.027664214765514, 2.653663121211462),
], ids=["uniform", "laplace", "stable"])
def test_pinned_two_point_design(kind, strength, point):
    report = design_optimal(SOURCES[kind], ALPHA, 2, seed=1)
    assert report.error_strength == strength
    assert list(report.quantizer.points) == [-point, point]
