"""The slope contract of every strength equation.

Each entry point hands `_solve_monotone` a function fn(s) = (G(s) - h,
dG/d ln s), the slope taken from G's own nodes.  Captured from the entry
point itself, it is checked against independent routes:

* the slope against a five-point central difference of the value in ln s,
  at 0.8, 1 and 1.25 times the root, to 1e-7 relative;  where the panel
  rule's own error in G moves with s by more than that (a stable source of
  scale 1.3 under regions of width 0.6 at a root of 7.6; the regions'
  panel edges are spaced by s and miss the density's peak), the central
  difference is taken of `oracles.quad_g` over the same regions, a sum on
  panels that hold no spline knot;
* the solved root against `oracles.root` (`brentq` at rtol 4 eps) on the
  same value, to 1e-14 relative;
* the solution's `evaluations` against the number of calls of fn.

A tabulated source's `solve_strength` and `cb_strength` first find the start
scale, the median of |X|, with the same solver; every captured solve has its
evaluations and residual checked, and the strength solve, the last one, its
slope and root.
"""

import math

import numpy as np
import pytest

from stablerd import (
    EmpiricalSource,
    Quantizer,
    SampleBatch,
    StableParams,
    SymmetricStableSource,
    TabulatedSource,
    UniformSource,
    UniformSpec,
    cauchy_source,
    cb_strength,
    error_strength,
    gaussian_source,
    quantizer,
    sample,
    solve_strength,
    strength,
    strength_of_uniform,
    uniform_error_strength,
)
from stablerd.quantizer import truncated_uniform, uniform_levels_strength
from stablerd.strength import _aliasing_terms, _direct_radius

import oracles

STABLE = SymmetricStableSource(StableParams(0.7, 0.0, 1.3, 0.0))
UNIFORM = UniformSource(1.0)
TRIANGLE = TabulatedSource(lambda x: max(0.0, 1.0 - abs(x)), (-1.0, 1.0))
LAPLACE = TabulatedSource(lambda x: 0.5 * math.exp(-abs(x)))
EMPIRICAL = EmpiricalSource(sample(StableParams(1.5, 0.0, 1.0, 0.0), 2000, seed=3))
EMPIRICAL_2D = EmpiricalSource(sample(StableParams(1.0, 0.0, 1.0, 0.0), 2000, seed=4, d=2))
Q3 = Quantizer.from_points([-0.6, 0.0, 0.6])


def _route(delta, source):
    """The lattice route `uniform_error_strength` takes."""
    aliasing = _aliasing_terms(delta, source) <= 2 * _direct_radius(delta, source) + 1
    return "aliasing" if aliasing else "direct"


CASES = {
    "solve-stable": lambda: solve_strength(STABLE, 1.5),
    "solve-cauchy": lambda: solve_strength(cauchy_source(2.0), 1.0),
    "solve-gaussian": lambda: solve_strength(gaussian_source(1.0), 2.0),
    "solve-uniform": lambda: solve_strength(UNIFORM, 1.5),
    "solve-triangle": lambda: solve_strength(TRIANGLE, 1.5),
    "solve-laplace": lambda: solve_strength(LAPLACE, 1.5),
    "solve-empirical": lambda: solve_strength(EMPIRICAL, 1.5),
    "solve-empirical-d2-alpha1": lambda: solve_strength(EMPIRICAL_2D, 1.0),
    "solve-empirical-d2-alpha2": lambda: solve_strength(
        EmpiricalSource(SampleBatch(np.array([[0.3, -1.0], [2.0, 0.5], [-0.7, 0.1]]), 0)), 2.0
    ),
    "error-stable": lambda: error_strength(Q3, STABLE, 1.5),
    "error-cauchy": lambda: error_strength(Quantizer.from_points([-0.8, 0.8]), cauchy_source(1.0), 1.0),
    "error-uniform": lambda: error_strength(Q3, UNIFORM, 1.5),
    "error-triangle": lambda: error_strength(Q3, TRIANGLE, 1.5),
    "error-laplace": lambda: error_strength(Q3, LAPLACE, 1.5),
    "error-empirical": lambda: error_strength(Q3, EMPIRICAL, 1.5),
    "lattice-aliasing": lambda: uniform_error_strength(UniformSpec(0.25), STABLE, 1.5),
    "lattice-direct-stable": lambda: uniform_error_strength(UniformSpec(500.0), STABLE, 1.5),
    "lattice-direct-laplace": lambda: uniform_error_strength(UniformSpec(0.25), LAPLACE, 1.5),
    "lattice-empirical": lambda: uniform_error_strength(UniformSpec(0.25), EMPIRICAL, 1.5),
    "levels-stable": lambda: uniform_levels_strength(0.3, 5, STABLE, 1.5)[0],
    "levels-laplace": lambda: uniform_levels_strength(0.3, 5, LAPLACE, 1.5)[0],
    "levels-uniform": lambda: uniform_levels_strength(0.3, 4, UNIFORM, 0.7)[0],
    "cb-stable": lambda: cb_strength(STABLE),
    "cb-laplace": lambda: cb_strength(LAPLACE),
    "cb-empirical-d2": lambda: cb_strength(EMPIRICAL_2D, d=2),
    "uniform-arctan": lambda: strength_of_uniform(1.0),
}


LEVELS = truncated_uniform(0.3, 5)
# (points, boundaries, source, alpha) of the cases differenced under quad_g
QUAD_G = {
    "error-stable": (Q3.points, Q3.boundaries, STABLE, 1.5),
    "levels-stable": (LEVELS.points, LEVELS.boundaries, STABLE, 1.5),
}


def _capture(call, monkeypatch):
    """Run call(); return (fn, solution, fn calls) of each of its root solves,
    in the order they finish."""
    solve = strength._solve_monotone
    seen = []

    def spy(fn, s0, tol):
        calls = []

        def counted(s):
            calls.append(s)
            return fn(s)

        sol = solve(counted, s0, tol)
        seen.append((fn, sol, len(calls)))
        return sol

    monkeypatch.setattr(strength, "_solve_monotone", spy)
    monkeypatch.setattr(quantizer, "_solve_monotone", spy)
    call()
    return seen


def test_lattice_routes():
    assert _route(0.25, STABLE) == "aliasing"
    assert _route(500.0, STABLE) == "direct"


@pytest.mark.parametrize("case", sorted(CASES))
def test_slope_root_and_evaluations(case, monkeypatch):
    solves = _capture(CASES[case], monkeypatch)
    for _, sol, calls in solves:
        assert sol.evaluations == calls
        assert sol.residual <= 1e-9
    fn, sol, _ = solves[-1]
    root = sol.value

    def value(s):
        return float(fn(s)[0])

    differenced = oracles.quad_residual(*QUAD_G[case]) if case in QUAD_G else value
    for s in (0.8 * root, root, 1.25 * root):
        v, slope = fn(s)
        h = 1e-3
        at = [differenced(s * math.exp(k * h)) for k in (-2, -1, 1, 2)]
        want = (8.0 * (at[2] - at[1]) - (at[3] - at[0])) / (12.0 * h)
        assert float(v) == value(s)
        assert slope == pytest.approx(want, rel=1e-7, abs=0.0), s
    oracle = oracles.root(value, 0.9 * root, 1.1 * root)
    assert root == pytest.approx(oracle, rel=1e-14, abs=0.0)
