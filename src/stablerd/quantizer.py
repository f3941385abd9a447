"""Strength-optimal scalar quantizers.

Covers the Lloyd-Max-style alternating design (midpoint regions vs.
derivative-free point updates), the strength of the quantization error for
arbitrary and uniform quantizers, the high-rate prediction delta * s(U),
the output entropy H(V), and the KKT width equation for non-uniform
region-width optimality.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

# scipy.optimize is imported by the functions that use it, so `import
# stablerd` does not load it.
from . import stable_core, strength
from .errors import DegenerateDesignWarning, NotSorted, OutOfRange
from .strength import (
    DEFAULT_TOL,
    EmpiricalSource,
    SourceSpec,
    StrengthSolution,
    _outer_regions,
    _solve_g,
    _solve_monotone,
    solve_strength,
)

__all__ = [
    "Quantizer",
    "DesignReport",
    "UniformSpec",
    "midpoint_boundaries",
    "quantize",
    "error_strength",
    "design_optimal",
    "uniform_error_strength",
    "high_rate_prediction",
    "output_entropy",
    "kkt_width_solution",
    "quantizer_to_json",
    "quantizer_from_json",
    "truncated_uniform",
    "best_uniform_design",
]

_MERGE_GAP = 1e-9
_MAX_OUTER = 200  # outer iterations of design_optimal


# ---------------------------------------------------------------------------
# types


@dataclass(frozen=True)
class Quantizer:
    """Representation points and region boundaries on the real line.

    Regions are left-open right-closed: x in (r_{j-1}, r_j] maps to point j,
    with the outer regions unbounded.
    """

    points: np.ndarray
    boundaries: np.ndarray
    symmetric: bool = False

    def __post_init__(self):
        pts = np.atleast_1d(np.asarray(self.points, dtype=float))
        bnd = np.atleast_1d(np.asarray(self.boundaries, dtype=float)) if np.size(
            self.boundaries
        ) else np.empty(0)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "boundaries", bnd)
        if pts.size < 1:
            raise ValueError("a quantizer needs at least one point")
        if np.any(np.diff(pts) <= 0.0):
            raise NotSorted("representation points must be strictly increasing")
        if bnd.size != pts.size - 1:
            raise ValueError("need exactly M - 1 boundaries for M points")
        if bnd.size:
            if np.any(np.diff(bnd) <= 0.0):
                raise NotSorted("boundaries must be strictly increasing")
            if np.any(bnd <= pts[:-1]) or np.any(bnd >= pts[1:]):
                raise ValueError("each boundary must lie strictly between its points")
        if self.symmetric:
            if not np.allclose(pts, -pts[::-1], rtol=0.0, atol=1e-12 * (1 + np.max(np.abs(pts)))):
                raise ValueError("symmetric quantizer points must be closed under negation")
            mids = midpoint_boundaries(pts) if pts.size > 1 else np.empty(0)
            if bnd.size and not np.allclose(bnd, mids, rtol=1e-12, atol=1e-12):
                raise ValueError("symmetric quantizer boundaries must be midpoints")

    @property
    def levels(self) -> int:
        return self.points.size

    @classmethod
    def from_points(cls, points, symmetric: bool = False) -> "Quantizer":
        pts = np.atleast_1d(np.asarray(points, dtype=float))
        bnd = midpoint_boundaries(pts) if pts.size > 1 else np.empty(0)
        return cls(points=pts, boundaries=bnd, symmetric=symmetric)


@dataclass(frozen=True)
class DesignReport:
    """Result of a quantizer design run.

    stop_reason says why the outer loop ended: "tol" when an improvement
    fell below the tolerance (and for M = 1, which has nothing to update),
    "no_improvement" when a point update came back worse than the state it
    started from, which is kept, and "max_outer" when the iteration budget
    ran out.  converged is False only for "max_outer".
    """

    quantizer: Quantizer
    error_strength: float
    iterations: int
    strength_trace: list
    seed: int
    converged: bool
    stop_reason: str


@dataclass(frozen=True)
class UniformSpec:
    """Uniform quantizer with region width delta; the source's
    `lattice_nodes` give its error's node set."""

    delta: float

    def __post_init__(self):
        if not self.delta > 0.0:
            raise ValueError("delta must be positive")


# ---------------------------------------------------------------------------
# basic operations


def midpoint_boundaries(points) -> np.ndarray:
    """r_j = (x_j + x_{j+1}) / 2 for strictly increasing points."""
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    if pts.size < 2:
        raise ValueError("need at least two points")
    if np.any(np.diff(pts) <= 0.0):
        raise NotSorted("points must be strictly increasing")
    return 0.5 * (pts[:-1] + pts[1:])


def quantize(q: Quantizer, x: float):
    """Map x to its (region index, reproduction); boundary points go left."""
    idx = int(np.searchsorted(q.boundaries, x, side="left"))
    return idx, float(q.points[idx])


# ---------------------------------------------------------------------------
# error strength of a quantizer


def _error_strength_raw(
    points,
    boundaries,
    source: SourceSpec,
    alpha: float,
    tol: float = DEFAULT_TOL,
    s_hint: float | None = None,
) -> StrengthSolution:
    if s_hint is not None and s_hint > 0.0:
        s0 = s_hint
    else:
        pts = np.atleast_1d(np.asarray(points, dtype=float))
        if pts.size > 1:
            s0 = max(float(np.median(np.diff(pts))) * 0.3, 1e-12)
        else:
            s0 = max(source.scale, 1e-12)
    return _solve_g(source.error_nodes(points, boundaries, alpha), alpha, s0, tol)


def error_strength(
    q: Quantizer,
    source: SourceSpec,
    alpha: float,
    tol: float = DEFAULT_TOL,
    s_hint: float | None = None,
) -> StrengthSolution:
    """Strength s of the quantization error X - Q(X), solving the defining
    piecewise-integral equation for s."""
    return _error_strength_raw(q.points, q.boundaries, source, alpha, tol, s_hint)


# ---------------------------------------------------------------------------
# output entropy


def output_entropy(q: Quantizer, source: SourceSpec) -> float:
    """Entropy H(V) of the quantizer output, in nats."""
    p = np.clip(source.region_masses(q.boundaries), 0.0, 1.0)
    p = p[p > 0.0]
    return float(-np.sum(p * np.log(p)))


# ---------------------------------------------------------------------------
# design (alternating midpoint regions / point optimization)


def _mirror(free_positive: np.ndarray, M: int) -> np.ndarray:
    pos = np.sort(np.asarray(free_positive, dtype=float))
    if M % 2 == 0:
        return np.concatenate([-pos[::-1], pos])
    return np.concatenate([-pos[::-1], [0.0], pos])


def design_optimal(
    source: SourceSpec,
    alpha: float,
    M: int,
    tol: float | None = None,
    seed: int = 0,
) -> DesignReport:
    """Design a strength-optimal M-point quantizer for a symmetric unimodal source.

    Alternates the midpoint rule for the regions with a Nelder-Mead update of
    the mirrored positive points (searched in log space from the current
    points), until the strength improvement falls below tol (default: 1e-6 of
    the current strength).  The seed perturbs only the start points.
    """
    from scipy import optimize

    if M < 1:
        raise ValueError("M must be >= 1")
    source.check_symmetric_unimodal()

    if M == 1:
        sol = solve_strength(source, alpha)
        quant = Quantizer(points=np.array([0.0]), boundaries=np.empty(0), symmetric=True)
        return DesignReport(
            quantizer=quant,
            error_strength=sol.value,
            iterations=0,
            strength_trace=[sol.value],
            seed=int(seed),
            converged=True,
            stop_reason="tol",
        )

    m = M // 2
    levels = (2.0 * np.arange(m) + 1.0) / (2.0 * M)
    init = np.array([source.abs_quantile(p) for p in levels])
    init = np.maximum(init, 1e-9)
    init *= np.exp(0.05 * np.random.default_rng(seed).standard_normal(m))
    init = np.sort(init)

    s_hint = None

    def measure(free_pos):
        pts = _mirror(free_pos, M)
        bnd = midpoint_boundaries(pts)
        return _error_strength_raw(pts, bnd, source, alpha, s_hint=s_hint).value

    free = init
    s_cur = measure(free)
    trace = [s_cur]
    s_hint = s_cur
    iterations = 0
    stop_reason = "max_outer"

    for _ in range(_MAX_OUTER):
        iterations += 1
        pts = _mirror(free, M)
        bnd_fixed = midpoint_boundaries(pts)  # regions frozen during the point update
        # Regions, tol and s_hint are fixed for this iteration, so a point set
        # solved before (the same v again, or another v with the same sorted
        # points) has the same deterministic root: each is solved once.
        solved = {}

        def objective(v):
            p = np.sort(np.exp(v))
            if np.any(np.diff(p) < _MERGE_GAP) or (M % 2 and p[0] < _MERGE_GAP):
                return s_cur * 10.0
            full = _mirror(p, M)
            key = full.tobytes()
            if key not in solved:
                solved[key] = _error_strength_raw(
                    full, bnd_fixed, source, alpha, tol=max(1e-10, 1e-8 * s_cur),
                    s_hint=s_hint,
                ).value
            return solved[key]

        res = optimize.minimize(
            objective,
            np.log(free),
            method="Nelder-Mead",
            options={"xatol": 1e-7, "fatol": 1e-9 * s_cur, "maxiter": 250 * m},
        )
        free_new = np.sort(np.exp(res.x))
        s_new = measure(free_new)  # midpoint-consistent state
        if s_new > s_cur:
            stop_reason = "no_improvement"  # numerical noise floor reached
            break
        improvement = s_cur - s_new
        free = free_new
        s_cur = s_new
        trace.append(s_cur)
        s_hint = s_cur
        threshold = tol if tol is not None else 1e-6 * s_cur
        if improvement <= threshold:  # at a fixed point, tol = 0 stops too
            stop_reason = "tol"
            break

    pts = _mirror(free, M)
    if np.any(np.diff(pts) < _MERGE_GAP):
        warnings.warn(
            "representation points collapsed; merging coincident points",
            DegenerateDesignWarning,
        )
        keep = np.concatenate([[True], np.diff(pts) >= _MERGE_GAP])
        pts = pts[keep]
        quant = Quantizer.from_points(pts, symmetric=False)
    else:
        quant = Quantizer.from_points(pts, symmetric=True)
    return DesignReport(
        quantizer=quant,
        error_strength=s_cur,
        iterations=iterations,
        strength_trace=trace,
        seed=int(seed),
        converged=stop_reason != "max_outer",
        stop_reason=stop_reason,
    )


# ---------------------------------------------------------------------------
# uniform quantizers


def _uniform_weights(spec: UniformSpec, source: SourceSpec):
    """The source's `lattice_nodes`: offsets u_i and weights W_i, with
    G(s) = sum_i W_i psi(u_i / s) for the untruncated uniform quantizer."""
    return source.lattice_nodes(spec.delta)


def uniform_error_strength(
    spec: UniformSpec,
    source: SourceSpec,
    alpha: float,
    tol: float = DEFAULT_TOL,
) -> StrengthSolution:
    """Error strength of the uniform quantizer x -> round(x / delta) * delta.

    The error's density is the lattice sum sum_k f(k delta + u).  For a
    symmetric stable source it comes from the Poisson summation formula,
    delta * sum_k f(k delta + u) = sum_m phi(2 pi m / delta) exp(2 pi i m u / delta),
    whose terms phi(t) = exp(-(gamma |t|)^alpha) die so fast that at high rate
    the error is uniform to machine precision (Sripad & Snyder); see
    `SymmetricStableSource.lattice_nodes` for when the lattice is summed
    directly instead.
    """
    u, W = _uniform_weights(spec, source)
    return _solve_g(lambda s: (u, W), alpha, 0.2 * spec.delta, tol)


def high_rate_prediction(alpha: float, delta: float) -> float:
    """High-rate limit of the uniform error strength: delta * s_alpha(U)."""
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    return delta * strength.strength_of_uniform(alpha)


def truncated_uniform(delta: float, M: int) -> Quantizer:
    """M-level uniform quantizer with width-delta inner regions.

    Even M uses points +-(k - 1/2) delta (mid-rise); odd M uses k delta
    (mid-tread).  The two outer regions are unbounded.
    """
    return Quantizer.from_points(_uniform_points(delta, M), symmetric=True)


def _uniform_points(delta: float, M: int) -> np.ndarray:
    """The points of `truncated_uniform(delta, M)`, without building it."""
    if M < 2:
        raise ValueError("M must be >= 2")
    if M % 2 == 0:
        ks = np.arange(1, M // 2 + 1)
        return np.concatenate([-(ks[::-1] - 0.5), ks - 0.5]) * delta
    half = (M - 1) // 2
    return np.arange(-half, half + 1) * delta


def _truncated_uniform_g(delta, M, source, alpha):
    """The node set s -> (e, W) of G and the region masses of the M-level
    uniform quantizer: the inner regions' lattice density at 32 fixed
    offsets, and both outer regions placed from s."""
    pts = _uniform_points(delta, M)
    top = pts[-1]
    edge = top - 0.5 * delta  # the top region is (top - delta/2, infinity)
    n_inner = M - 2
    xg, wg = stable_core._gauss_legendre(32)
    u = 0.5 * delta * xg
    # The left outer region (-inf, -edge] is the right one of the reflected
    # source; a source that is its own reflection reuses the right one.
    reflected = source.reflected
    mirrored = reflected is source
    if n_inner > 0:
        inner_pts = pts[1:-1]
        # The points and the nodes u are exact negatives of each other read
        # backwards, and a mirrored density is even to the bit, so its row at
        # -x is the row at x reversed: only the cells at x >= 0 are evaluated.
        evaluated = inner_pts[inner_pts >= 0.0] if mirrored else inner_pts
        nodes = evaluated[:, None] + u[None, :]
        fvals = source.pdf_vec(nodes.ravel()).reshape(nodes.shape)
        if mirrored:
            fvals = np.concatenate([fvals[::-1, ::-1][: n_inner // 2], fvals])
        W = 0.5 * delta * wg * fvals.sum(axis=0)
        p_inner = (0.5 * delta * wg[None, :] * fvals).sum(axis=1)
    else:
        u = W = p_inner = np.empty(0)

    def nodes_at(s):
        x, e, w, f = _outer_regions(source, alpha, (top, edge), (top, edge), s)
        return np.concatenate([u, e]), np.concatenate([W, w * (source.pdf_vec(x) if f is None else f)])

    p_right = source.tail_mass(edge)
    p_left = p_right if mirrored else reflected.tail_mass(edge)
    probs = np.concatenate([[p_left], p_inner, [p_right]])
    return nodes_at, probs


def _require_density(source: SourceSpec) -> None:
    """The M-level uniform G integrates a density; samples have none yet."""
    if isinstance(source, EmpiricalSource):
        raise ValueError(
            "the M-level uniform quantizer's G needs a density source; "
            "sample sources are not supported"
        )


def uniform_levels_strength(
    delta: float, M: int, source: SourceSpec, alpha: float, tol: float = DEFAULT_TOL
):
    """(strength solution, output entropy, quantizer) for the M-level uniform
    quantizer of width delta, for a density source."""
    _require_density(source)
    sol, entropy = _uniform_levels_from(delta, M, source, alpha, 0.3 * delta, tol)
    return sol, entropy, truncated_uniform(delta, M)


def _uniform_levels_from(delta, M, source, alpha, s0, tol=DEFAULT_TOL):
    """(strength solution, output entropy) of `uniform_levels_strength`, with
    its root solve started at s0."""
    nodes, probs = _truncated_uniform_g(delta, M, source, alpha)
    sol = _solve_g(nodes, alpha, s0, tol)
    p = probs[probs > 0.0]
    p = p / p.sum()
    entropy = float(-np.sum(p * np.log(p)))
    return sol, entropy


def best_uniform_design(source: SourceSpec, alpha: float, M: int, tol: float = 1e-6):
    """Pick the region width minimizing the M-level uniform error strength.

    Returns (delta, strength solution, output entropy, quantizer).  Each
    solve starts from the strength at the nearest width already solved,
    scaled by the ratio of the widths, and the chosen width's solve is
    reused for the result; only its quantizer is built.  The source must have
    a density.
    """
    from scipy import optimize

    _require_density(source)
    scale = source.scale
    solved = {}  # ln delta -> (strength solution, output entropy)

    def strength_of(logd):
        if logd not in solved:
            s0 = 0.3 * math.exp(logd)
            if solved:
                near = min(solved, key=lambda t: abs(t - logd))
                s0 = solved[near][0].value * math.exp(logd - near)
            solved[logd] = _uniform_levels_from(math.exp(logd), M, source, alpha, s0)
        return solved[logd][0].value

    lo = math.log(6.0 * scale / M ** 1.35)
    hi = math.log(8.0 * scale)
    grid = np.linspace(lo, hi, 18)
    vals = [strength_of(g) for g in grid]
    i = int(np.argmin(vals))
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, len(grid) - 1)]
    res = optimize.minimize_scalar(
        strength_of, bounds=(a, b), method="bounded",
        options={"xatol": tol},
    )
    strength_of(res.x)  # the optimizer returns a width it evaluated: no new solve
    delta = math.exp(res.x)
    return (delta, *solved[res.x], truncated_uniform(delta, M))


# ---------------------------------------------------------------------------
# KKT width equation


def kkt_width_solution(ratio: float) -> float:
    """Unique u = delta/(2s) > 0 with arctan(u)/u = 1 - ratio/2, 0 < ratio < 2."""
    if not 0.0 < ratio < 2.0:
        raise OutOfRange("ratio must lie in (0, 2)")
    target = 1.0 - ratio / 2.0

    def fn(u):
        # arctan(u)/u falls in u, with slope 1/(1 + u^2) - arctan(u)/u in ln u
        q = math.atan(u) / u
        return q - target, 1.0 / (1.0 + u * u) - q

    # a residual of 4 eps: the rounding of arctan(u)/u, which is below 1
    return _solve_monotone(fn, 1.0, 8.9e-16).value


# ---------------------------------------------------------------------------
# serialization


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def quantizer_to_json(q: Quantizer, alpha: float, error_strength_value: float) -> str:
    """Serialize to the fixed-field JSON document (17 significant digits)."""
    pts = ", ".join(_fmt(p) for p in q.points)
    bnd = ", ".join(_fmt(b) for b in q.boundaries)
    sym = "true" if q.symmetric else "false"
    return (
        "{"
        f'"alpha": {_fmt(alpha)}, '
        f'"points": [{pts}], '
        f'"boundaries": [{bnd}], '
        f'"symmetric": {sym}, '
        f'"error_strength": {_fmt(error_strength_value)}'
        "}"
    )


def quantizer_from_json(text: str):
    """Parse the JSON document back into (Quantizer, alpha, error_strength)."""
    doc = json.loads(text)
    q = Quantizer(
        points=np.asarray(doc["points"], dtype=float),
        boundaries=np.asarray(doc["boundaries"], dtype=float),
        symmetric=bool(doc["symmetric"]),
    )
    return q, float(doc["alpha"]), float(doc["error_strength"])
