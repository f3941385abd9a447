"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import time

import numpy as np
import pytest

from stablerd import (
    StableParams,
    SymmetricStableSource,
    UniformSpec,
    cauchy_source,
    design_optimal,
    distortion_at_rate,
    gaussian_source,
    kkt_width_solution,
    output_entropy,
    rd_scalar,
    reference_entropy,
    ReferenceLaw,
    reverse_waterfill,
    solve_strength,
    strength_closed_form,
    strength_of_uniform,
    uniform_error_strength,
)
from stablerd.quantizer import best_uniform_design
from stablerd.stable_core import pdf

import oracles


def report(n, detail, t0, limit):
    elapsed = time.time() - t0
    assert elapsed < limit, f"criterion {n} exceeded its {limit}s budget ({elapsed:.0f}s)"
    print(f"PASS criterion {n}: {detail} [{elapsed:.1f}s < {limit:.0f}s]")


@pytest.fixture(scope="module")
def cauchy_designs():
    # shared across criteria 5 and 6; standard Cauchy, seeded
    return {m: design_optimal(cauchy_source(1.0), 1.0, m, seed=7) for m in (1, 2, 3, 4)}


def test_criterion_1_uniform_law_constants():
    t0 = time.time()
    s1 = strength_of_uniform(1.0)
    s2 = strength_of_uniform(2.0)
    assert abs(s1 - 0.1359) <= 5e-4
    assert abs(s2 - 1.0 / math.sqrt(12.0)) <= 1e-9
    assert abs(s2 / s1 - 2.124) <= 0.01
    report(1, f"s1(U)={s1:.6f}, s2(U)={s2:.6f}, ratio={s2 / s1:.4f}", t0, 1.0)


def test_criterion_2_closed_form_strength():
    t0 = time.time()
    worst = 0.0
    for alpha in (0.6, 1.0, 1.4, 2.0):
        for gamma in (0.5, 1.0, 4.0):
            src = SymmetricStableSource(StableParams(alpha, 0.0, gamma, 0.0))
            got = solve_strength(src, alpha).value
            want = strength_closed_form(alpha, gamma)
            rel = abs(got - want) / want
            worst = max(worst, rel)
            assert rel <= 1e-4, (alpha, gamma, got, want)
    report(2, f"12 (alpha, gamma) pairs, worst relative error {worst:.2e}", t0, 30.0)


def test_criterion_3_gaussian_specialization():
    t0 = time.time()
    rng = np.random.default_rng(42)
    for _ in range(10):
        sigma = rng.uniform(0.1, 8.0)
        D = sigma * rng.uniform(0.02, 0.98)
        rate = rd_scalar(2.0, sigma / math.sqrt(2.0), D).rate
        assert rate == pytest.approx(0.5 * math.log(sigma ** 2 / D ** 2), rel=1e-13)
    report(3, "rate matches (1/2) ln(sigma^2/D^2) to 1e-13 on 10 random pairs", t0, 1.0)


def test_criterion_4_high_rate_convergence():
    t0 = time.time()
    deltas = (0.1, 0.05, 0.02, 0.01)
    outcomes = {}
    for label, source, alpha, target in (
        ("cauchy", cauchy_source(1.0), 1.0, 0.1359),
        ("gaussian", gaussian_source(1.0), 2.0, 1.0 / math.sqrt(12.0)),
    ):
        ratios = [
            uniform_error_strength(UniformSpec(d), source, alpha).value / d
            for d in deltas
        ]
        dist = [abs(r - target) for r in ratios]
        # approach is monotone up to the solver's noise floor
        assert all(b <= a + 1e-9 for a, b in zip(dist, dist[1:])), (label, ratios)
        assert dist[-1] <= 0.02 * target, (label, ratios[-1])
        outcomes[label] = ratios[-1]
    report(
        4,
        f"s/Delta at Delta=0.01: cauchy={outcomes['cauchy']:.6f}, "
        f"gaussian={outcomes['gaussian']:.6f}",
        t0,
        300.0,
    )


def test_criterion_5_design_properties(cauchy_designs):
    t0 = time.time()
    # (a) every run's trace is non-increasing
    for m, rep in cauchy_designs.items():
        trace = np.asarray(rep.strength_trace)
        assert np.all(np.diff(trace) <= 0.0), (m, trace)
    # (b) strength decreasing in M
    strengths = [cauchy_designs[m].error_strength for m in (1, 2, 3, 4)]
    assert all(b < a for a, b in zip(strengths, strengths[1:])), strengths
    # (c) scale equivariance: linear in gamma with R^2 > 0.9999
    gammas = np.arange(1.0, 11.0)
    points, svals = [], []
    for g in gammas:
        repg = design_optimal(cauchy_source(float(g)), 1.0, 2, seed=7)
        assert np.all(np.diff(repg.strength_trace) <= 0.0)
        points.append(repg.quantizer.points[1])
        svals.append(repg.error_strength)
    for series in (points, svals):
        r = np.corrcoef(gammas, series)[0, 1]
        assert r * r > 0.9999, (series, r * r)
    # (d) M = 2 and M = 3 match the exhaustive 1e-3 grid-search oracle
    a2, s2 = oracles.design_grid_search(lambda a: (np.array([-a, a]), np.array([0.0])))
    a3, s3 = oracles.design_grid_search(
        lambda a: (np.array([-a, 0.0, a]), np.array([-a / 2.0, a / 2.0]))
    )
    rel2 = abs(cauchy_designs[2].error_strength - s2) / s2
    rel3 = abs(cauchy_designs[3].error_strength - s3) / s3
    assert rel2 <= 1e-3, (cauchy_designs[2].error_strength, s2)
    assert rel3 <= 1e-3, (cauchy_designs[3].error_strength, s3)
    report(
        5,
        "traces monotone; strengths decreasing in M "
        f"{[f'{s:.4f}' for s in strengths]}; equivariance R^2 ok; "
        f"oracle match M2 {rel2:.1e}, M3 {rel3:.1e}",
        t0,
        600.0,
    )


def test_criterion_6_dr_floor(cauchy_designs):
    t0 = time.time()
    fig4_ms = tuple(2 ** k for k in range(1, 15))
    fig5_ms = tuple(2 ** k for k in range(1, 9))

    def gaps_for(source, alpha, gamma_x, ms):
        gaps = []
        for m in ms:
            _, sol, H, _ = best_uniform_design(source, alpha, m)
            gaps.append(sol.value - distortion_at_rate(alpha, gamma_x, H))
        return gaps

    cauchy_gaps = gaps_for(cauchy_source(1.0), 1.0, 1.0, fig4_ms)
    gauss_gaps = gaps_for(gaussian_source(1.0), 2.0, 1.0 / math.sqrt(2.0), fig5_ms)
    for gaps, label in ((cauchy_gaps, "cauchy"), (gauss_gaps, "gaussian")):
        assert all(g >= -1e-9 for g in gaps), (label, gaps)
        assert all(b < a + 1e-9 for a, b in zip(gaps, gaps[1:])), (label, gaps)
    # designed quantizers also sit above the floor (design-feasible M values;
    # the full fig4 grid is uniform-only)
    for m in (2, 3, 4):
        rep = cauchy_designs[m]
        H = output_entropy(rep.quantizer, cauchy_source(1.0))
        gap = rep.error_strength - distortion_at_rate(1.0, 1.0, H)
        assert gap >= -1e-9, (m, gap)
        repg = design_optimal(gaussian_source(1.0), 2.0, m, seed=7)
        Hg = output_entropy(repg.quantizer, gaussian_source(1.0))
        gapg = repg.error_strength - distortion_at_rate(2.0, 1.0 / math.sqrt(2.0), Hg)
        assert gapg >= -1e-9, (m, gapg)
    # heavy tails need at least 4x the representation points for a 0.05 gap
    m_cauchy = next(m for m, g in zip(fig4_ms, cauchy_gaps) if g <= 0.05)
    m_gauss = next(m for m, g in zip(fig5_ms, gauss_gaps) if g <= 0.05)
    assert m_cauchy >= 4 * m_gauss, (m_cauchy, m_gauss)
    report(
        6,
        f"gaps nonnegative and decreasing; M(gap<=0.05): cauchy={m_cauchy}, "
        f"gaussian={m_gauss}",
        t0,
        900.0,
    )


def test_criterion_7_reverse_waterfill():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    for _ in range(100):
        d = rng.integers(1, 7)
        s = rng.uniform(0.05, 5.0, size=d)
        D = rng.uniform(0.05, 0.99) * s.sum()
        alloc = reverse_waterfill(1.0, s, D)
        assert abs(float(np.sum(alloc.distortions)) - D) <= 1e-9
        splits = rng.dirichlet(np.ones(d), size=1000) * D
        rates = np.sum(np.maximum(np.log(s[None, :] / splits), 0.0), axis=1)
        assert alloc.rate <= float(np.min(rates)) + 1e-9
    report(7, "100 random instances: constraint met, allocation optimal", t0, 60.0)


def test_criterion_8_density_machinery():
    t0 = time.time()
    # inversion vs closed forms
    for alpha, gamma in ((1.0, 1.0), (2.0, 1.0 / math.sqrt(2.0))):
        p = StableParams(alpha, 0.0, gamma, 0.0)
        for x in np.linspace(-20.0, 20.0, 81):
            assert abs(oracles.pdf_by_inversion(p, float(x)) - pdf(p, float(x))) <= 1e-8
    # total mass
    for alpha in (0.5, 0.8, 1.3, 1.7):
        mass = oracles.quadpack_mass(alpha)
        assert abs(mass - 1.0) <= 1e-6, (alpha, mass)
    # reference entropy
    assert abs(reference_entropy(ReferenceLaw(1.0)) - math.log(4.0 * math.pi)) <= 1e-6
    report(8, "inversion matches closed forms; densities normalize; h(ref_1)=ln 4 pi", t0, 120.0)


def test_criterion_9_kkt():
    t0 = time.time()
    rng = np.random.default_rng(9)
    for ratio in rng.uniform(1e-3, 2.0 - 1e-3, size=50):
        target = 1.0 - ratio / 2.0
        oracle = oracles.root(lambda u: math.atan(u) / u - target, 1e-12, 1e12)
        assert kkt_width_solution(float(ratio)) == pytest.approx(oracle, rel=1e-9)
    u = np.geomspace(1e-6, 1e6, 2000)
    vals = np.arctan(u) / u
    assert np.all(np.diff(vals) < 0.0)
    report(9, "50 ratios match the brentq root oracle; arctan(u)/u strictly decreasing", t0, 1.0)
