"""The alpha-power ("strength") of scalar and sampled sources.

The strength of X at index alpha is the unique s > 0 with

    g(s) = -E[log f_ref(X / s)] = h(ref),

where `ref` is the reference symmetric stable law of `stable_core`.  g is
non-increasing and continuous in s.  Each evaluation also gives dg/d ln s
from the same nodes, and the root is found by safeguarded Newton in ln s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Union

import numpy as np
# scipy.integrate is imported by TabulatedSource.mass, the one function that
# uses it, so `import stablerd` loads no SciPy module.

from . import stable_core
from .errors import BracketFailure, NonFiniteLogMoment, NonSymmetricSource
from .stable_core import ReferenceLaw, SampleBatch, StableParams, standard_density

__all__ = [
    "SymmetricStableSource",
    "EmpiricalSource",
    "TabulatedSource",
    "UniformSource",
    "SourceSpec",
    "StrengthSolution",
    "cauchy_source",
    "gaussian_source",
    "g_value",
    "solve_strength",
    "strength_closed_form",
    "cb_strength",
    "strength_of_uniform",
]

DEFAULT_TOL = 1e-9  # nats, on the residual |g(s) - h|
_BRACKET_BUDGET = 60
_STEP_LIMIT = math.log(4.0)  # the longest step in ln s: a factor of 4 in s
# After a Newton step of this size in ln s, quadratic convergence leaves the
# new iterate about (step)^2 = 1e-16 from the root: it is returned as it is.
_NEWTON_DONE = 1e-8
# An iterate whose own Newton step is below this, in ln s, is returned.
_ROOT_STEP = 4e-15


class _Source:
    """The protocol every source kind implements, with the shared defaults.

    Every kind has `dim`, `is_zero`, `scale` (for panel placement),
    `start_scale` (where strength root solves start), `tail_k`,
    `abs_quantile(p)`, `region_masses(boundaries)`,
    `check_symmetric_unimodal()` and four node sets, offsets e_i and
    weights W_i with G(s) = sum_i W_i psi(e_i / s) (see `_g`):
    `strength_nodes(alpha)` of X and `error_nodes(points, boundaries, alpha)`
    of a partition's error, both functions of s, `lattice_nodes(delta)` of
    the uniform quantizer's error, and `levels_nodes(delta, M, alpha)`, the
    M-level uniform quantizer's function of s with its region masses.
    Density-backed kinds also have `support`, `core_extent`, `breakpoints`,
    `pdf_vec(x)`, `mass(a, b)`, `tail_mass(x)`, `tail_nodes(x0, moment)`
    (nodes x and weights w with sum_i w_i f(x_i) phi(x_i) the integral of
    f phi over (x0, infinity), x0 >= core_extent, for a phi of log growth or
    of growth x^moment, and f(x) where placing the nodes read it, else
    None) and `reflected` (the source of -X; a symmetric kind returns
    itself).  The defaults serve every density-backed kind; `EmpiricalSource`
    answers from its samples, and `SymmetricStableSource` sums its lattice
    by the aliasing series where that is shorter.
    """

    dim = 1
    is_zero = False
    # k with f(x) ~ k |x|^-(a+1), 0 < a < 2, for a power tail; 0 without one
    tail_k = 0.0

    @property
    def start_scale(self) -> float:
        return self.scale

    @property
    def breakpoints(self) -> tuple:
        """Finite ends of the support, where the density may jump."""
        return tuple(x for x in self.support if math.isfinite(x))

    def tail_mass(self, x0: float) -> float:
        """P(X > x0)."""
        return self.mass(x0, self.support[1])

    def tail_nodes(self, x0: float, moment: float = 0.0):
        """No nodes: a kind with no mass beyond its core extent."""
        return _NO_TAIL

    def strength_nodes(self, alpha: float):
        """s -> (e, W) of g(s) = -E[log f_ref(X / s)]: the error of the
        one-point quantizer at 0."""
        return self.error_nodes(_ZERO, _NONE, alpha)

    def error_nodes(self, points, boundaries, alpha: float):
        """s -> (e, W) of the partition's error X - Q(X) (`_partition_nodes`)."""
        return _partition_nodes(self, points, boundaries, alpha)

    def lattice_nodes(self, delta: float):
        """(u, W) of the error of x -> round(x / delta) delta: the lattice
        density summed directly (`_direct_weights`)."""
        return _direct_weights(delta, self, _direct_radius(delta, self))

    def levels_nodes(self, delta: float, M: int, alpha: float):
        """(s -> (e, W), region masses) of the M-level uniform quantizer of
        width delta: the inner cells' density at 32 fixed offsets, and both
        outer regions placed from s.  The left one, (-inf, -edge], is the
        right one of the reflected source, whose mass a mirrored source
        reuses."""
        pts = _uniform_points(delta, M)
        top = pts[-1]
        edge = top - 0.5 * delta  # the top region is (top - delta/2, infinity)
        if M > 2:
            xg, wg = stable_core._gauss_legendre(32)
            u = 0.5 * delta * xg
            f = _cell_density(self, pts[1:-1], u)
            W = 0.5 * delta * wg * f.sum(axis=0)
            p_inner = (0.5 * delta * wg[None, :] * f).sum(axis=1)
        else:
            u = W = p_inner = np.empty(0)

        def nodes(s):
            x, e, w, f = _outer_regions(self, alpha, (top, edge), (top, edge), s)
            return np.concatenate([u, e]), np.concatenate([W, w * (self.pdf_vec(x) if f is None else f)])

        p_right = self.tail_mass(edge)
        p_left = p_right if self.reflected is self else self.reflected.tail_mass(edge)
        return nodes, np.concatenate([[p_left], p_inner, [p_right]])

    def region_masses(self, boundaries) -> np.ndarray:
        """P(X in R_j) for the regions (r_{j-1}, r_j] between the boundaries;
        the lowest one is the upper tail of the reflected source."""
        b = np.asarray(boundaries, dtype=float)
        if b.size == 0:
            return np.ones(1)
        inner = [self.mass(lo, hi) for lo, hi in zip(b[:-1], b[1:])]
        return np.array([self.reflected.tail_mass(-b[0]), *inner, self.tail_mass(b[-1])])

    def check_symmetric_unimodal(self) -> None:
        """Raise NonSymmetricSource unless the density is even and falls away from 0."""
        xs = self.scale * np.linspace(0.05, 4.0, 10)
        fp = self.pdf_vec(xs)
        fm = self.pdf_vec(-xs)
        ref = self.pdf_vec(np.array([0.0]))[0]
        if np.any(np.abs(fp - fm) > 1e-6 * (ref + fp)):
            raise NonSymmetricSource("density is not symmetric about 0")
        seq = np.concatenate([[ref], fp])
        if np.any(np.diff(seq) > 1e-9 * ref):
            raise NonSymmetricSource("density is not unimodal about 0")

    def abs_quantile(self, p: float) -> float:
        """The p-quantile of |X|: the root of p - mass(-x, x), found by the
        strength solver's Newton in ln x with the slope -x (f(x) + f(-x))."""

        def fn(x):
            return p - self.mass(-x, x), -x * float(np.sum(self.pdf_vec(np.array([x, -x]))))

        return _solve_monotone(fn, self.scale, 4.0 * np.finfo(float).eps).value


@dataclass(frozen=True)
class SymmetricStableSource(_Source):
    """A symmetric stable scalar source (beta = delta = 0)."""

    params: StableParams

    support = (-math.inf, math.inf)

    def __post_init__(self):
        if not self.params.is_symmetric:
            raise ValueError("symmetric stable source requires beta = delta = 0")

    @property
    def scale(self) -> float:
        return self.params.gamma

    @property
    def core_extent(self) -> float:
        return stable_core.TAIL_CUTOFF * self.params.gamma

    @cached_property
    def tail_k(self) -> float:
        a = self.params.alpha
        k = 0.0 if a == 2.0 else math.exp(math.lgamma(a + 1.0)) * math.sin(math.pi * a / 2.0) / math.pi
        return k * self.params.gamma ** a

    @property
    def reflected(self) -> "SymmetricStableSource":
        return self

    def pdf_vec(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        g = self.params.gamma
        return standard_density(self.params.alpha).pdf_vec(x / g) / g

    def mass(self, a: float, b: float) -> float:
        """Integral of the density over [a, b], split at the core extent."""
        if b <= a:
            return 0.0
        pieces = 0.0
        cut = self.core_extent
        core_lo, core_hi = max(a, -cut), min(b, cut)
        if core_hi > core_lo:
            n_lin = max(8, min(int(16 * (core_hi - core_lo) / (1 + cut)) + 2, 64))
            edges = np.linspace(core_lo, core_hi, n_lin)
            if core_lo < 0.0 < core_hi:  # resolve the density peak
                peak = self.scale * np.geomspace(1e-7, 1.0, 10)
                extra = np.concatenate([-peak[::-1], peak])
                extra = extra[(extra > core_lo) & (extra < core_hi)]
                edges = np.unique(np.concatenate([edges, extra]))
            pieces += stable_core._panel_integral(self.pdf_vec, edges)
        if b > cut:
            pieces += self.tail_mass(max(a, cut)) - self.tail_mass(b)
        if a < -cut:
            pieces += self.tail_mass(-min(b, -cut)) - self.tail_mass(-a)
        return pieces

    def tail_mass(self, x0: float) -> float:
        """P(X > x0)."""
        a_s, g = self.params.alpha, self.params.gamma
        if math.isinf(x0):
            return float(x0 < 0.0)
        if a_s == 2.0:
            return 0.5 * math.erfc(x0 / (2.0 * g))
        if x0 / g < stable_core.TAIL_CUTOFF:
            # (30 g) / g can round below 30, so the core extent is passed on
            # to the tail integral directly, not back through this test
            cut = self.core_extent
            return self.mass(x0, cut) + stable_core._tail_integral(a_s, np.ones_like, cut / g)
        return stable_core._tail_integral(a_s, np.ones_like, x0 / g)

    def tail_nodes(self, x0: float, moment: float = 0.0):
        """`stable_core._tail_nodes` in u = x / gamma (a power tail is refused
        at index 2 before its nodes are built, so moment is not read)."""
        if self.tail_k == 0.0:
            return _NO_TAIL  # no power tail: no mass beyond the core (Gaussian: below 1e-98)
        g = self.params.gamma
        u, w = stable_core._tail_nodes(self.params.alpha, x0 / g)
        return g * u, g * w, None

    def lattice_nodes(self, delta: float):
        """(u, W) of the lattice error: the aliasing series whenever it needs no
        more terms than the 2 k_core + 1 regions of the direct sum."""
        k_core, m_max = _direct_radius(delta, self), _aliasing_terms(delta, self)
        if m_max <= 2 * k_core + 1:
            return _aliasing_weights(delta, self, m_max)
        return _direct_weights(delta, self, k_core)


@dataclass(frozen=True)
class EmpiricalSource(_Source):
    """A source given by i.i.d. samples (scalars, or rows of d-vectors)."""

    batch: SampleBatch

    @property
    def dim(self) -> int:
        vals = self.batch.values
        return vals.shape[1] if vals.ndim == 2 else 1

    @property
    def is_zero(self) -> bool:
        return bool(np.all(self.batch.values == 0.0))

    @property
    def scale(self) -> float:
        """The median of |x| over all sample entries."""
        return float(np.median(np.abs(self.batch.values)))

    @property
    def start_scale(self) -> float:
        """The median of |X| (vector norms for d >= 2), or its mean if that is 0."""
        vals = self.batch.values
        r = np.sqrt(self.squared_norms) if vals.ndim == 2 else np.abs(vals)
        med = float(np.median(r))
        return med if med > 0.0 else float(np.mean(r))

    @cached_property
    def squared_norms(self) -> np.ndarray:
        """||x_i||^2 of the d-vector samples: a read-only array, computed once."""
        vals = self.batch.values
        out = np.einsum("ij,ij->i", vals, vals)
        out.flags.writeable = False
        return out

    @cached_property
    def sorted_values(self) -> np.ndarray:
        """The 1-d samples in ascending order: a read-only copy, sorted once.
        The density table's spline finds its intervals fastest on ordered
        input, so every sample mean runs over this copy; a mean depends only
        on the multiset of samples, and `batch.values` keeps its order."""
        if self.dim != 1:
            raise ValueError("scalar expectation requires 1-d samples")
        out = np.sort(self.batch.values.ravel())
        out.flags.writeable = False
        return out

    def abs_quantile(self, p: float) -> float:
        return float(np.quantile(np.abs(self.batch.values), p))

    # Every node set is the samples' own offsets, each of weight 1/n.

    def strength_nodes(self, alpha: float):
        """s -> (X, 1/n): the samples, or their radii at d >= 2."""
        r = np.sqrt(self.squared_norms) if self.dim > 1 else self.sorted_values
        return lambda s: (r, 1.0 / r.size)

    def error_nodes(self, points, boundaries, alpha: float):
        vals = self.sorted_values
        offs = vals - np.asarray(points)[np.searchsorted(boundaries, vals, side="left")]
        return lambda s: (offs, 1.0 / vals.size)

    def lattice_nodes(self, delta: float):
        vals = self.sorted_values
        return np.sort(vals - np.round(vals / delta) * delta), 1.0 / vals.size  # see sorted_values

    def levels_nodes(self, delta: float, M: int, alpha: float):
        """The partition's error nodes and region masses at the points of
        `_uniform_points` and their midpoints."""
        pts = _uniform_points(delta, M)
        bnd = 0.5 * (pts[:-1] + pts[1:])
        return self.error_nodes(pts, bnd, alpha), self.region_masses(bnd)

    def region_masses(self, boundaries) -> np.ndarray:
        vals = self.sorted_values
        counts = np.bincount(np.searchsorted(boundaries, vals, side="left"),
                             minlength=np.size(boundaries) + 1).astype(float)
        return counts / counts.sum()

    def check_symmetric_unimodal(self) -> None:
        """Samples: compare their median with their scale."""
        scale = self.scale
        if scale > 0.0 and abs(float(np.median(self.batch.values))) > 0.1 * scale:
            raise NonSymmetricSource("sample median is far from 0")


@dataclass(frozen=True)
class TabulatedSource(_Source):
    """A source given by a density callback with support hints.

    `density` maps a scalar x to f(x); `support` is (lo, hi) and may be
    infinite, and the callback is read only inside it.  Normalization is
    checked to 1e-6 on construction.
    """

    density: Callable[[float], float]
    support: tuple = (-np.inf, np.inf)

    def __post_init__(self):
        mass = self.mass(*self.support)
        if abs(mass - 1.0) > 1e-6:
            raise ValueError(f"tabulated density has mass {mass}, expected 1 +- 1e-6")

    @property
    def core_extent(self) -> float:
        ends = self.breakpoints
        return min(max(abs(x) for x in ends) if len(ends) == 2 else 64.0, 1e6)

    @property
    def scale(self) -> float:
        return max(self.core_extent / 4.0, 1e-6)

    @property
    def start_scale(self) -> float:
        """The median of |X|."""
        return self.abs_quantile(0.5)

    @cached_property
    def _density_vec(self):
        return np.vectorize(self.density, otypes=[float])

    def pdf_vec(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        vals = self._density_vec(x)
        lo, hi = self.support
        return np.where((x >= lo) & (x <= hi), vals, 0.0)

    def mass(self, a: float, b: float) -> float:
        """The integral of the density over [a, b] cut to the support."""
        from scipy import integrate

        lo, hi = self.support
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            return 0.0
        return integrate.quad(self.density, a, b, limit=400)[0]

    @cached_property
    def reflected(self) -> "TabulatedSource":
        """The source of -X, built once."""
        f = self.density
        lo, hi = self.support
        return TabulatedSource(lambda x: f(-x), (-hi, -lo))

    def tail_nodes(self, x0: float, moment: float = 0.0):
        """Tail nodes over (x0, hi), x0 > 0 past every kink: a 16-node
        Gauss-Legendre rule on each doubling segment [x0 2^k, x0 2^(k+1)], the
        last one cut at a finite hi.  They stop once a segment adds less than
        1e-15 of the sum so far (or 1e-15 absolute) to the integral of
        f (x / x0)^moment: the mass for a phi of log growth, the second moment
        for one that grows as x^2.  Segments that fail to decay declare the
        log-moment proxy divergent.  The density read for that test is
        returned with the nodes, so a G reads each node once.
        """
        hi = self.support[1]
        xs, ws, fs = [np.empty(0)], [np.empty(0)], [np.empty(0)]
        total, prev, a = 0.0, math.inf, x0
        for k in range(_BRACKET_BUDGET):
            if a >= hi:
                break
            x, w = stable_core._gl_nodes(np.array([a, min(2.0 * a, hi)]))
            f = self.pdf_vec(x)
            xs.append(x)
            ws.append(w)
            fs.append(f)
            lead = float(np.sum(w * f * (x / x0) ** moment))
            total += lead
            if lead < 1e-15 * max(total, 1.0):
                break
            if k > 6 and lead > prev:
                raise NonFiniteLogMoment(
                    "tail integral fails to decay; log-moment proxy diverges"
                )
            prev = lead
            a *= 2.0
        else:
            raise NonFiniteLogMoment("tail integral did not converge within the doubling budget")
        return np.concatenate(xs), np.concatenate(ws), np.concatenate(fs)


@dataclass(frozen=True)
class UniformSource(_Source):
    """Uniform on (-half_width, half_width)."""

    half_width: float

    def __post_init__(self):
        if self.half_width < 0.0:
            raise ValueError("half_width must be nonnegative")

    @property
    def is_zero(self) -> bool:
        return self.half_width == 0.0

    @property
    def scale(self) -> float:
        return self.half_width

    @property
    def support(self) -> tuple:
        return (-self.half_width, self.half_width)

    @property
    def core_extent(self) -> float:
        return self.half_width

    @property
    def reflected(self) -> "UniformSource":
        return self

    def pdf_vec(self, x) -> np.ndarray:
        w = self.half_width
        return np.where(np.abs(np.asarray(x, dtype=float)) < w, 0.5 / w, 0.0)

    def mass(self, a: float, b: float) -> float:
        if b <= a:
            return 0.0
        w = self.half_width
        return max(0.0, (min(b, w) - max(a, -w))) / (2.0 * w)

    def abs_quantile(self, p: float) -> float:
        return p * self.half_width


SourceSpec = Union[SymmetricStableSource, EmpiricalSource, TabulatedSource, UniformSource]


def cauchy_source(gamma: float = 1.0) -> SymmetricStableSource:
    return SymmetricStableSource(StableParams(1.0, 0.0, gamma, 0.0))


def gaussian_source(sigma: float = 1.0) -> SymmetricStableSource:
    """Centered normal with standard deviation sigma (a 2-stable with scale sigma/sqrt 2)."""
    return SymmetricStableSource(StableParams(2.0, 0.0, sigma / math.sqrt(2.0), 0.0))


@dataclass(frozen=True)
class StrengthSolution:
    """A solved strength with solver diagnostics."""

    value: float
    residual: float
    bracket: tuple
    evaluations: int


# ---------------------------------------------------------------------------
# the negative reference log-density


def reference_neg_log_density(alpha: float, slope: bool = False, d: int = 1):
    """Vectorized psi(z) = -log f_ref(z) for the d-dimensional reference at
    index alpha, z a scalar (d = 1) or a radius (d >= 2).

    With slope, psi(z) returns the stack (psi(z), kappa(|z| / c)) of shape
    (2,) + z.shape, c the reference scale and kappa = d ln f / d ln u.  The
    second row is the derivative of psi(x / s) in ln s at z = x / s, so an
    integral of f psi(x / s) carries its own slope in ln s along.
    """
    ref_scale = (1.0 / alpha) ** (1.0 / alpha)
    eng = standard_density(alpha, d)
    log_scale = d * math.log(ref_scale)

    def psi(z):
        return log_scale - eng.log_pdf_vec(np.asarray(z, dtype=float) / ref_scale)

    def psi_and_slope(z):
        out = eng.log_pdf_vec(np.asarray(z, dtype=float) / ref_scale, slope=True)
        np.subtract(log_scale, out[0], out=out[0])
        return out

    return psi_and_slope if slope else psi


# ---------------------------------------------------------------------------
# node sets: G(s) = sum_i W_i psi(e_i / s) behind every strength equation


_NO_TAIL = (np.empty(0), np.empty(0), None)
_ZERO, _NONE = np.zeros(1), np.empty(0)  # the one-point quantizer at 0

_LADDER = (-60.0, -25.0, -10.0, -4.0, -1.5, -0.5, 0.0, 0.5, 1.5, 4.0, 10.0, 25.0, 60.0)
_PEAK = (-3.0, -1.0, -0.25, 0.0, 0.25, 1.0, 3.0)
# An outer region that starts at its own point, which only a one-point
# quantizer has, also gets the edges r0 + _GRADE_START scale _GRADE^k up to
# its end: they resolve the density's peak and psi's core at any s.
_GRADE_START = 1e-13
_GRADE = 1.1


def _g(nodes, psi, s: float):
    """G(s) = sum_i W_i psi(e_i / s) for (e, W) = nodes(s), from one psi call.

    With the stacked psi of `reference_neg_log_density(alpha, slope=True)`,
    G(s) is the pair (G, dG/d ln s) from the same nodes.
    """
    e, W = nodes(s)
    return np.sum(W * psi(e / s), axis=-1)


def _solve_g(nodes, alpha: float, s0: float, tol: float, d: int = 1) -> StrengthSolution:
    """The root of G(s) = h(ref) for the node set nodes(s), started at s0:
    every strength equation's psi and h, those of the d-dimensional reference
    law at index alpha, are built here."""
    h = stable_core.reference_entropy(ReferenceLaw(alpha, d))
    psi = reference_neg_log_density(alpha, True, d)
    return _solve_monotone(lambda s: _g(nodes, psi, s) - (h, 0.0), s0, tol)


def _region_edges(a: float, b: float, rep: float, s_scale: float, source) -> np.ndarray:
    """Panel edges inside [a, b] refined around the representation point,
    around the source peak, and at density breakpoints.

    Plain floats: at a few dozen edges NumPy's per-call overhead costs more
    than the arithmetic.  Each capped gap is filled with the points of
    np.linspace(prev, e, n + 2)[1:-1], computed as k * step + prev.
    """
    a, b, rep, s_scale = float(a), float(b), float(rep), float(s_scale)
    edges = {a, b}
    for c in _LADDER:
        x = rep + s_scale * c
        if a < x < b:
            edges.add(x)
    if a < 0.0 < b:
        g = source.scale
        for c in _PEAK:
            x = g * c
            if a < x < b:
                edges.add(x)
    for brk in source.breakpoints:
        if a < brk < b:
            edges.add(float(brk))
    edges = sorted(edges)
    # cap the widest panels
    prev = edges[0]
    out = [prev]
    cap = max((b - a) / 8.0, 4.0 * s_scale)
    for e in edges[1:]:
        n_extra = int((e - prev) / cap)  # at most 8: cap >= (b - a) / 8
        if n_extra >= 1:
            step = (e - prev) / (n_extra + 1)
            out.extend([k * step + prev for k in range(1, n_extra + 1)])
        out.append(e)
        prev = e
    return np.array(out)


def _outer_nodes(source, alpha: float, rep: float, r0: float, s: float):
    """Nodes x, weights w (W = w f(x)) and f over (r0, infinity) for the point
    rep: 16-node panels up to C, at most the support end, and the source's
    tail nodes beyond.  f is the density at x when the tail read it at its
    nodes, else None.  psi grows as x^2 at index 2, so a power tail raises
    NonFiniteLogMoment there."""
    if alpha == 2.0 and source.tail_k > 0.0:
        raise NonFiniteLogMoment(
            "a heavy-tailed source has no finite second moment, so G diverges "
            "at alpha = 2"
        )
    s_scale = s * 3.0
    C = max(r0 + 80.0 * s_scale, 2.0 * abs(r0) + 4.0 * source.scale, source.core_extent)
    C = min(C, source.support[1])
    if C <= r0:
        return np.empty(0), np.empty(0), np.empty(0)  # no node, nothing to read
    edges = _region_edges(r0, C, min(max(rep, r0), C), s_scale, source)
    if rep == r0:
        step = _GRADE_START * source.scale
        graded = r0 + step * _GRADE ** np.arange(math.log((C - r0) / step) / math.log(_GRADE))
        edges = np.union1d(edges, graded[graded < C])
    x, w = stable_core._gl_nodes(edges)
    tx, tw, tf = source.tail_nodes(C, 2.0 if alpha == 2.0 else 0.0)
    f = None if tf is None else np.concatenate([source.pdf_vec(x), tf])
    return np.concatenate([x, tx]), np.concatenate([w, tw]), f


def _outer_regions(source, alpha: float, right, left, s: float):
    """Nodes x, offsets e, weights w (W = w f(x)) and f (or None, see
    `_outer_nodes`) of both outer regions: right = (x_M, r) is (r, inf) for
    the point x_M, and left = (-x_1, -r_1) is (-inf, r_1], the reflected
    source's right region mirrored back into x.  For a mirrored partition
    (every design candidate) of a source that is its own reflection the two
    are the same integral: the right one is built once and its weights are
    doubled."""
    x, w, f = _outer_nodes(source, alpha, *right, s)
    if source.reflected is source and right == left:
        return x, x - right[0], w + w, f
    xl, wl, fl = _outer_nodes(source.reflected, alpha, *left, s)
    return (np.concatenate([x, -xl]), np.concatenate([x - right[0], left[0] - xl]),
            np.concatenate([w, wl]), None if f is None or fl is None else np.concatenate([f, fl]))


def _partition_nodes(source, points, boundaries, alpha: float):
    """s -> (e, W), e = x - x_j on region R_j, so that G(s) = sum_j
    int_{R_j} f(x) psi((x - x_j)/s) dx for a density source.  Interior
    regions take 14-node Gauss-Legendre rules on `_region_edges` panels, the
    outer ones `_outer_regions`, all placed from s, and the density is read
    once on every node: in one call, unless the outer regions' tails read it.
    A single region covering the line is split at its point.
    """
    points = np.asarray(points, dtype=float)
    boundaries = np.asarray(boundaries, dtype=float)
    ends = boundaries if points.size > 1 else points
    right, left = (points[-1], ends[-1]), (-points[0], -ends[0])

    def nodes(s):
        parts = []
        for j in range(1, points.size - 1):
            edges = _region_edges(boundaries[j - 1], boundaries[j], points[j], 3.0 * s, source)
            x, w = stable_core._gl_nodes(edges, 14)
            parts.append((x, x - points[j], w))
        *outer, f = _outer_regions(source, alpha, right, left, s)
        parts.append(outer)
        x, e, w = (np.concatenate(z) for z in zip(*parts))
        if f is None:
            return e, w * source.pdf_vec(x)
        return e, w * np.concatenate([source.pdf_vec(x[:x.size - f.size]), f])

    return nodes


# The error of the uniform quantizer x -> round(x / delta) delta has the
# lattice density sum_k f(k delta + u) on (-delta/2, delta/2), which these
# routes sum at _LATTICE_NODES Gauss-Legendre offsets u.

_ALIAS_TOL = 1e-16  # bound on the dropped aliasing terms; the m = 0 term is 1
_LOG_Q_TOL = 1e-12  # residual in ln Q at which the aliasing count's root may stop
_GAMMA_EPS = 2.0 ** -52  # relative size of the last term or factor taken in Q
_GAMMA_TINY = 1e-300  # Lentz's guard against a zero denominator
_LATTICE_NODES = 48  # Gauss-Legendre nodes across one region of width delta


def _direct_radius(delta: float, source) -> int:
    """Regions k_core on each side of zero that the direct route sums term by term."""
    # beyond this radius the density sits in its power tail and the
    # flat-grouping (midpoint) error, bounded through |f''|, stays below
    # 1e-10 nats
    x_req = 3.0 * source.core_extent
    k_x = source.tail_k
    if k_x > 0.0:
        a_s = source.params.alpha
        bound = (delta ** 2 / 24.0) * k_x * (a_s + 1.0) * (a_s + 2.0) * 6.0
        x_req = max(x_req, (bound / 1e-10) ** (1.0 / (a_s + 2.0)))
    k_core = int(math.ceil(x_req / delta)) + 2
    return min(k_core, 200_000)


def _uniform_points(delta: float, M: int) -> np.ndarray:
    """The points of `quantizer.truncated_uniform(delta, M)`."""
    if M < 2:
        raise ValueError("M must be >= 2")
    if M % 2 == 0:
        ks = np.arange(1, M // 2 + 1)
        return np.concatenate([-(ks[::-1] - 0.5), ks - 0.5]) * delta
    half = (M - 1) // 2
    return np.arange(-half, half + 1) * delta


def _cell_density(source, centres: np.ndarray, u: np.ndarray) -> np.ndarray:
    """f(c_j + u_i), a row per cell centre c_j, for centres and offsets that
    are their own negatives read backwards.  A source that is its own
    reflection is even to the bit, so its row at -c is the row at c
    reversed: only the cells at c >= 0 are evaluated."""
    mirrored = source.reflected is source
    evaluated = centres[centres >= 0.0] if mirrored else centres
    nodes = evaluated[:, None] + u[None, :]
    f = source.pdf_vec(nodes.ravel()).reshape(nodes.shape)
    if mirrored:
        f = np.concatenate([f[::-1, ::-1][: centres.size // 2], f])
    return f


def _direct_weights(delta: float, source, k_core: int):
    """(u, W) from the lattice density summed term by term over |k| <= k_core,
    with all remaining regions grouped through their exact tail mass."""
    xg, wg = stable_core._gauss_legendre(_LATTICE_NODES)
    u = 0.5 * delta * xg  # offsets within a region
    fsum = _cell_density(source, np.arange(-k_core, k_core + 1) * delta, u).sum(axis=0)
    # grouped mass of all remaining regions on each side: the left side's is
    # the right side's of -X
    edge = k_core * delta + 0.5 * delta
    fsum = fsum + (source.tail_mass(edge) + source.reflected.tail_mass(edge)) / delta
    return u, 0.5 * delta * wg * fsum


def _aliasing_terms(delta: float, source: SymmetricStableSource):
    """Length m_max of the aliasing series for a symmetric stable source.

    With c = 2 pi gamma / delta, the dropped terms 2 sum_{m > m_max}
    exp(-(c m)^alpha) are bounded by the integral test,
    2 int_{m_max}^inf exp(-(c x)^alpha) dx
    = (2 / (c alpha)) Gamma(1/alpha) Q(1/alpha, (c m_max)^alpha),
    and m_max is the smallest integer taking that bound below _ALIAS_TOL.
    Returns math.inf when the count would not fit in a float.
    """
    a = source.params.alpha
    c = 2.0 * math.pi * source.scale / delta
    log_q = math.log(_ALIAS_TOL * c * a / 2.0) - math.lgamma(1.0 / a)
    if log_q >= 0.0:
        return 0  # the bound holds with no term at all

    def fn(y):
        value, slope = _log_gamma_q(1.0 / a, y)
        return value - log_q, slope

    # (c m_max)^alpha = y, the root of ln Q(1/alpha, y) = log_q
    y = _solve_monotone(fn, 1.0 / a - log_q, _LOG_Q_TOL).value
    log_m = math.log(y) / a - math.log(c)
    return math.ceil(math.exp(log_m)) if log_m < 700.0 else math.inf


def _log_gamma_q(a: float, y: float):
    """(ln Q(a, y), d ln Q / d ln y) for the regularized upper incomplete gamma
    Q(a, y) = Gamma(a, y) / Gamma(a), a, y > 0 (Numerical Recipes 6.2): below
    y = a + 1 from the series of P = 1 - Q, above it from the continued
    fraction by Lentz's method.  The slope is -y^a e^-y / (Gamma(a) Q)."""
    log_pre = a * math.log(y) - y - math.lgamma(a)  # ln(y^a e^-y / Gamma(a))
    if y < a + 1.0:
        # P = y^a e^-y / Gamma(a) sum_n y^n / (a (a + 1) ... (a + n))
        term = total = 1.0 / a
        n = a
        while abs(term) > abs(total) * _GAMMA_EPS:
            n += 1.0
            term *= y / n
            total += term
        log_q = math.log1p(-total * math.exp(log_pre))
    else:
        # Q = y^a e^-y / Gamma(a) * 1/(y + 1 - a - 1 (1 - a)/(y + 3 - a - ...))
        b = y + 1.0 - a
        c, d = 1.0 / _GAMMA_TINY, 1.0 / b
        h = d
        i, delta = 0, 0.0
        while abs(delta - 1.0) > _GAMMA_EPS:
            i += 1
            an = -i * (i - a)
            b += 2.0
            d = an * d + b
            d = 1.0 / (d if abs(d) > _GAMMA_TINY else _GAMMA_TINY)
            c = b + an / c
            c = c if abs(c) > _GAMMA_TINY else _GAMMA_TINY
            delta = d * c
            h *= delta
        log_q = log_pre + math.log(h)
    return log_q, -math.exp(log_pre - log_q)


def _aliasing_weights(delta: float, source: SymmetricStableSource, m_max: int):
    """(u, W) from the lattice density of a symmetric stable source by Poisson
    summation: with u = (delta/2) x and phi(t) = exp(-(gamma |t|)^alpha),

        delta * sum_k f(k delta + u) = 1 + 2 sum_{m >= 1} phi(2 pi m / delta) cos(pi m x),

    truncated after m_max terms."""
    xg, wg = stable_core._gauss_legendre(_LATTICE_NODES)
    c = 2.0 * math.pi * source.scale / delta
    m = np.arange(1, m_max + 1)
    amp = np.exp(-((c * m) ** source.params.alpha))
    alias = 1.0 + 2.0 * (amp @ np.cos(np.pi * np.outer(m, xg)))
    return 0.5 * delta * xg, 0.5 * wg * alias


# ---------------------------------------------------------------------------
# g and the strength solver


def g_value(source: SourceSpec, alpha: float, s: float, slope: bool = False):
    """g(s) = -E[log f_ref(X / s)] in nats.

    G(s) of the source's `strength_nodes`: at d = 1 the one-point quantizer
    at 0, at d >= 2 the mean over the samples' radii.  With slope, the pair
    (g(s), dg/d ln s), both from the same evaluation.
    """
    if not s > 0.0:
        raise ValueError("s must be positive")
    psi = reference_neg_log_density(alpha, slope, source.dim)
    g = _g(source.strength_nodes(alpha), psi, s)
    return (float(g[0]), float(g[1])) if slope else float(g)


def _solve_monotone(fn, s0: float, tol: float) -> StrengthSolution:
    """Root of a non-increasing fn(s) by safeguarded Newton in t = ln s.

    fn(s) returns (value, slope) with slope = d value / d ln s, a float that
    may be NaN where none is at hand.  One call is one evaluation.

    With slopes at the last two iterates, the step is the root of the local
    quadratic whose curvature is their difference quotient: it has the sign
    of the Newton step and up to twice its length, and converges faster.
    A step is clamped to +-ln 4.  Until the values change sign, a slope
    that is not negative and finite gives a full step towards the root, and
    BracketFailure is raised after _BRACKET_BUDGET such steps.  Once the
    root is bracketed, a step that leaves the bracket, that would not halve
    the step before the last one, or that has no usable slope is replaced
    by bisection in ln s.

    The last evaluated point is returned, with its measured residual, once
    its own Newton step is below _ROOT_STEP in ln s, or once the Newton
    step to it was small enough that quadratic convergence leaves it at
    machine precision.  Either way its residual must be at most tol, or the
    iteration goes on until it is or the bracket closes at machine
    precision.
    """
    evals = 0
    t = math.log(s0)
    lo = hi = None  # ln s of the closest points with fn > 0 and fn < 0
    prev = None  # (t, slope) of the previous iterate
    step = step_before = math.inf
    modelled = False  # whether the step to t came from a slope
    steps_unbracketed = 0
    while True:
        value, slope = fn(math.exp(t))
        evals += 1
        value = float(value)
        if math.isnan(value):
            raise BracketFailure(f"the function is NaN at s = {math.exp(t)!r}")
        if value == 0.0:
            lo = hi = t
            break
        if value > 0.0:
            lo = t
        else:
            hi = t
        slope = float(slope)
        curvature = None if prev is None or t == prev[0] else (slope - prev[1]) / (t - prev[0])
        usable = math.isfinite(slope) and slope < 0.0
        if abs(value) <= tol and (
            (usable and abs(value / slope) <= _ROOT_STEP)
            or (modelled and step * step <= _NEWTON_DONE ** 2)
        ):
            break
        bracketed = lo is not None and hi is not None
        if bracketed and abs(hi - lo) <= 4.0 * np.finfo(float).eps * max(1.0, abs(t)):
            break
        prev = (t, slope)
        new = None
        if usable:
            new = -value / slope
            if curvature is not None:
                disc = slope * slope - 2.0 * curvature * value
                if 0.0 <= disc < math.inf:
                    new = 2.0 * value / (math.sqrt(disc) - slope)
            if bracketed and not (min(lo, hi) < t + new < max(lo, hi)
                                  and abs(new) <= 0.5 * abs(step_before)):
                new = None
        step_before = step
        modelled = new is not None
        if bracketed and new is None:
            new = 0.5 * (lo + hi) - t
        elif not bracketed:
            steps_unbracketed += 1
            if steps_unbracketed > _BRACKET_BUDGET:
                raise BracketFailure(
                    "no sign change found while stepping "
                    + ("upward" if value > 0.0 else "downward")
                )
            if new is None:
                new = _STEP_LIMIT if value > 0.0 else -_STEP_LIMIT
            new = max(-_STEP_LIMIT, min(_STEP_LIMIT, new))
        step = new
        t += step
    root = math.exp(t)
    bracket = tuple(math.exp(x) if x is not None else root for x in (lo, hi))
    return StrengthSolution(root, abs(value), bracket, evals)


def solve_strength(source: SourceSpec, alpha: float, tol: float = DEFAULT_TOL) -> StrengthSolution:
    """Solve g(s) = h(ref) for the strength of the source at index alpha."""
    if source.is_zero:
        return StrengthSolution(0.0, 0.0, (0.0, 0.0), 0)
    s0 = source.start_scale
    if not s0 > 0.0:
        s0 = 1.0
    return _solve_g(source.strength_nodes(alpha), alpha, s0, tol, source.dim)


def strength_closed_form(alpha: float, gamma: float) -> float:
    """Strength of a symmetric stable law: alpha^(1/alpha) * gamma."""
    if not 0.0 < alpha <= 2.0:
        raise ValueError("alpha must lie in (0, 2]")
    if not gamma > 0.0:
        raise ValueError("gamma must be positive")
    return alpha ** (1.0 / alpha) * gamma


def cb_strength(source: SourceSpec, d: int = 1, tol: float = DEFAULT_TOL) -> float:
    """Cauchy-based strength: the unique s with E[ln(1 + ||X||^2/s^2)] equal to
    ln 4 + psi((d+1)/2) + euler_gamma (which reduces to ln 4 when d = 1).

    At d >= 2 this is the strength at alpha = 1.  At d = 1 the condition is
    integrated as it stands, free of the constant ln pi in g at alpha = 1.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if source.is_zero:
        return 0.0
    if source.dim != d:
        raise ValueError(
            "d >= 2 requires d-dimensional samples" if source.dim == 1
            else "sample dimension does not match d"
        )
    if d >= 2:
        return solve_strength(source, 1.0, tol).value

    def psi(z):
        q = z ** 2
        return np.stack([np.log1p(q), -2.0 * q / (1.0 + q)])

    nodes, s0 = source.strength_nodes(1.0), source.start_scale
    if not s0 > 0.0:
        s0 = 1.0
    return _solve_monotone(lambda s: _g(nodes, psi, s) - (math.log(4.0), 0.0), s0, tol).value


def strength_of_uniform(alpha: float, tol: float = DEFAULT_TOL) -> float:
    """Strength of Uniform(-1/2, 1/2) at index alpha.

    alpha = 2 is sqrt(1/12) exactly; alpha = 1 solves the closed arctan
    equation; other indices run the generic solver against the reference
    log-density.
    """
    if not 0.0 < alpha <= 2.0:
        raise ValueError("alpha must lie in (0, 2]")
    if alpha == 2.0:
        return 1.0 / math.sqrt(12.0)
    if alpha == 1.0:
        def fn(s):
            # the slope in ln s of ln(1 + 1/(4 s^2)) + 4 s arctan(1/(2 s)) is
            # 4 s arctan(1/(2 s)) - 2
            arc = 4.0 * s * math.atan(1.0 / (2.0 * s))
            return math.log1p(1.0 / (4.0 * s * s)) - 2.0 + arc - math.log(4.0), arc - 2.0

        return _solve_monotone(fn, 0.5, tol).value
    return solve_strength(UniformSource(0.5), alpha, tol=tol).value
