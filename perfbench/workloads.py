"""The benchmark's workloads: inputs from the seed, set-up, and one timed pass.

A pass is a fixed list of operations.  Each operation is a CLI invocation or a
library call, timed by a ``calibrate.Clock``; its outputs are checked against
the oracle after it is timed.  The amount of work in a pass does not depend on
the seed, so runs on different seeds time the same computation.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time

from calibrate import Clock, to_reference
from oracle import (
    arctan_uniform_strength,
    closed_form_strength,
    rd_floor,
    read_csv_rows,
)

RUN_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")

# Design seeds are taken modulo this pool so that every design output is pinned.
DESIGN_SEED_POOL = 8
# (M, --tol) of the design pass.  M = 2 runs to convergence (two outer
# iterations).  M = 3 stops after its first outer iteration, whose improvement
# is at most s(start) - s(optimum), about 0.84 - 0.56, so below 0.5 for every
# design seed; a full M = 3 design takes twelve outer iterations.
DESIGNS = ((2, None), (3, 0.5))
# tables-cold: stable strengths at fixed alphas off the 0.1 grid and away from
# the closed forms at 1 and 2, with a scale from the seed (the solver's work
# does not depend on the scale); uniform strengths are rows of fig3.
COLD_STABLE_ALPHAS = (0.65, 1.35)
COLD_GAMMA_RANGE = (0.5, 4.0)
COLD_UNIFORM_ALPHAS = (0.6, 1.4, 1.0, 2.0)
FIG1_ALPHAS = (0.5, 1.0, 1.5, 2.0)
UNIFORM_ALPHA = 1.5
BEST_UNIFORM_MS = (32, 4096)
UNIFORM_DELTAS = (0.01, 0.001)
EMPIRICAL_ALPHAS = (0.8, 1.5)
EMPIRICAL_SAMPLES = 200_000

# Tolerances of the reference checks.
RTOL_PINNED_DESIGN = 1e-6  # Nelder-Mead optimum; the pinned seeds agree to ~1e-15
RTOL_PINNED = 1e-9  # root solves at the library's 1e-9-nat residual
RTOL_PINNED_BEST_UNIFORM = 1e-7  # strength at a bounded 1-D optimum
RTOL_CLOSED_FORM = 1e-7  # solved stable strength vs alpha^(1/alpha) gamma; seen <= 8e-10
RTOL_EXACT = 1e-12  # closed forms the library evaluates directly
RTOL_HIGH_RATE = 1e-6  # uniform error strength / delta vs s_alpha(U); seen ~1e-10
RTOL_EMPIRICAL = 0.05  # 2e5 samples: the estimate's spread is ~0.5%


def run_cli(argv):
    """Run the stablerd CLI in this process; return its exit status."""
    from stablerd import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(argv))


def _check_exit(oracle, rc, check_outputs):
    if rc != 0:
        oracle.fail(f"exit status {rc}")
        return
    try:
        check_outputs()
    except (OSError, ValueError, KeyError, IndexError) as exc:
        oracle.fail(f"unreadable output: {exc!r}")


def _op(oracle, clock, name, fn, check):
    """Time fn() as one operation, then check its result outside the timing."""
    oracle.start(name)
    try:
        result = clock.time(fn)
    except (Exception, SystemExit) as exc:  # a failed operation is counted, not fatal
        oracle.fail(f"raised {exc!r}")
    else:
        check(result)
    oracle.finish()


def _cli_op(oracle, clock, name, argv, check_outputs):
    _op(oracle, clock, name, lambda: run_cli(argv),
        lambda rc: _check_exit(oracle, rc, check_outputs))


# ---------------------------------------------------------------------------
# design


class Design:
    """``stablerd design`` for a Cauchy source at M = 2 and M = 3, warm caches."""

    name = "design"

    def __init__(self, seed):
        self.design_seed = seed % DESIGN_SEED_POOL

    def setup(self):
        from stablerd import quantizer, strength

        q = quantizer.Quantizer.from_points([-0.6, 0.6], symmetric=True)
        quantizer.error_strength(q, strength.cauchy_source(1.0), 1.0)

    def run_pass(self, oracle, clock, traced=False):
        strengths = {}
        for M, tol in DESIGNS:
            out = f"design_M{M}.json"
            argv = ["design", "--source", "cauchy", "--gamma", "1", "--M", str(M),
                    "--seed", str(self.design_seed), "--output", out]
            if tol is not None:
                argv += ["--tol", repr(tol)]
            _cli_op(oracle, clock, f"design M={M}", argv,
                    lambda: self._check(oracle, M, tol, out, strengths))
        if len(strengths) == 2:
            oracle.start("design strength decreases in M")
            oracle.holds("s(M=3) < s(M=2)", strengths[3] < strengths[2])
            oracle.finish()
        return None

    def _check(self, oracle, M, tol, path, strengths):
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        s = float(doc["error_strength"])
        strengths[M] = s
        key = f"M{M}" if tol is None else f"M{M}/tol{tol:g}"
        oracle.pinned(f"design/{key}/seed{self.design_seed}/error_strength", s,
                      RTOL_PINNED_DESIGN)
        # output entropy under the standard Cauchy law, then the D(R) floor
        edges = [-math.inf] + [float(b) for b in doc["boundaries"]] + [math.inf]
        cdf = [0.5 + math.atan(e) / math.pi for e in edges]
        probs = [b - a for a, b in zip(cdf[:-1], cdf[1:]) if b > a]
        entropy = -sum(p * math.log(p) for p in probs)
        oracle.at_least(f"design M={M} strength >= D(H)", s, rd_floor(1.0, 1.0, entropy))
        oracle.holds(f"design M={M} has {M} points", len(doc["points"]) == M)
        oracle.digest(f"design_{key.replace('/', '_')}_seed{self.design_seed}.json", path)


# ---------------------------------------------------------------------------
# tables-cold


class TablesCold:
    """A fresh process runs ``reproduce fig1``, ``strength --source stable``
    and ``strength --uniform`` on an alpha grid: every table and reference
    entropy is built inside the timed pass, as on each CLI call."""

    name = "tables-cold"

    def __init__(self, seed):
        self.seed = seed
        rng = random.Random(seed)
        self.gammas = tuple(round(rng.uniform(*COLD_GAMMA_RANGE), 3) for _ in COLD_STABLE_ALPHAS)

    def commands(self):
        cmds = [["reproduce", "fig1", "--outdir", "."]]
        for a, g in zip(COLD_STABLE_ALPHAS, self.gammas):
            cmds.append(["strength", "--source", "stable", "--alpha", repr(a),
                         "--gamma", repr(g), "--output", f"strength_a{a:g}.csv"])
        for a in COLD_UNIFORM_ALPHAS:
            cmds.append(["strength", "--uniform", "--alpha", repr(a),
                         "--output", f"strength_u{a:g}.csv"])
        return cmds

    def setup(self):
        pass  # each pass starts its own process; set-up is the import

    def run_pass(self, oracle, clock, traced=False):
        """Run the commands in a child process; return its trace summary.

        The pass is the child's start-up, from launch until it is ready, plus
        the commands, each timed in the child by a clock of its own.
        """
        argv = [sys.executable, RUN_PY, "--workload", self.name, "--seed", str(self.seed),
                "--cold-child", "--trace", "1" if traced else "0"]
        before = clock.last
        launched = time.monotonic()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=170)
        try:
            report = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            report = None
        results = report["commands"] if report and proc.returncode == 0 else []
        if results:
            startup = report["ready"] - launched
            clock.add(startup, to_reference(startup, [before, report["kernel_at_ready"]]))
            clock.add(report["raw_s"], report["ref_s"])
            clock.probe()
        self.check_results(oracle, results)
        if len(results) != len(self.commands()):
            oracle.start("cold process")
            oracle.fail(f"exit status {proc.returncode}: {proc.stderr.strip()[-300:]}")
            oracle.finish()
        return (report or {}).get("trace")

    def check_results(self, oracle, results):
        """Check each command's exit status and outputs as one operation."""
        for cmd, result in zip(self.commands(), results):
            oracle.start(" ".join(cmd[:-2]))  # without the output option
            if result["error"]:
                oracle.fail(result["error"])
            else:
                _check_exit(oracle, result["rc"], lambda cmd=cmd: self._check(oracle, cmd))
            oracle.finish()

    def _check(self, oracle, cmd):
        if cmd[1] == "fig1":
            for a in FIG1_ALPHAS:
                path = f"fig1_alpha{a:g}.csv"
                s = closed_form_strength(a, 2.0)
                for D, R in read_csv_rows(path):
                    oracle.close(f"fig1 alpha={a} R({D:g})", R, max(math.log(s / D), 0.0),
                                 RTOL_EXACT, atol=1e-12)
                oracle.digest(path, path)
        elif cmd[1] == "--uniform":
            a = float(cmd[3])
            path = cmd[-1]
            (row,) = read_csv_rows(path)
            oracle.pinned(f"fig3/alpha{a:g}", row[1], RTOL_PINNED)
            if a == 1.0:
                oracle.close("s_1(U) arctan root", row[1], arctan_uniform_strength(), RTOL_EXACT)
            if a == 2.0:
                oracle.close("s_2(U) = 1/sqrt(12)", row[1], 1.0 / math.sqrt(12.0), RTOL_EXACT)
            oracle.digest(path, path)
        else:
            a, gamma = float(cmd[4]), float(cmd[6])
            (row,) = read_csv_rows(cmd[-1])
            oracle.close(f"strength alpha={a:g} gamma={gamma:g}", row[1],
                         closed_form_strength(a, gamma), RTOL_CLOSED_FORM)
            oracle.holds(f"strength alpha={a:g} residual <= 1e-9", row[2] <= 1e-9)


def cold_child(workload, traced):
    """Body of the tables-cold child process: run the commands, report as JSON."""
    from tracer import Tracer

    ready = time.monotonic()
    clock = Clock(sampling=not traced)
    tracer = Tracer()
    if traced:
        tracer.install()
    results = []
    for argv in workload.commands():
        try:
            results.append({"rc": clock.time(lambda argv=argv: run_cli(argv)), "error": None})
        except (Exception, SystemExit) as exc:  # reported to the parent as a failure
            results.append({"rc": None, "error": repr(exc)})
    tracer.uninstall()
    report = {"commands": results, "ready": ready, "kernel_at_ready": clock.kernel_s[0],
              "raw_s": clock.raw_s, "ref_s": clock.ref_s, "trace": None}
    if traced:
        tracer.write_spans("spans-tables-cold.csv")
        report["trace"] = tracer.summary()
    sys.stdout.write(json.dumps(report) + "\n")


# ---------------------------------------------------------------------------
# uniform-highrate


class UniformHighrate:
    """Uniform quantizers at high rate over large vectors, warm alpha tables."""

    name = "uniform-highrate"

    def __init__(self, seed):
        self.seed = seed
        self.samples = {}

    def setup(self):
        import numpy as np
        from stablerd import stable_core, strength

        for a in sorted(set(EMPIRICAL_ALPHAS + (UNIFORM_ALPHA,))):
            stable_core.standard_density(a).log_pdf_vec(np.array([0.5, 5.0]))
            stable_core.reference_entropy(stable_core.ReferenceLaw(a, 1))
        for k, a in enumerate(EMPIRICAL_ALPHAS):
            batch = stable_core.sample(stable_core.StableParams(a, 0.0, 1.0, 0.0),
                                       EMPIRICAL_SAMPLES, seed=2 * self.seed + k)
            self.samples[a] = strength.EmpiricalSource(batch)

    def run_pass(self, oracle, clock, traced=False):
        from stablerd import quantizer, strength
        from stablerd.stable_core import StableParams

        _cli_op(oracle, clock, "reproduce fig5", ["reproduce", "fig5", "--outdir", "."],
                lambda: self._check_fig5(oracle))

        source = strength.SymmetricStableSource(StableParams(UNIFORM_ALPHA, 0.0, 1.0, 0.0))
        previous = [math.inf]

        def check_best(M, res):
            _, sol, entropy, _ = res
            oracle.pinned(f"best_uniform/M{M}/strength", sol.value, RTOL_PINNED_BEST_UNIFORM)
            oracle.at_least(f"best_uniform M={M} strength >= D(H)", sol.value,
                            rd_floor(UNIFORM_ALPHA, 1.0, entropy))
            oracle.holds(f"best_uniform M={M} below the smaller M", sol.value < previous[0])
            previous[0] = sol.value

        for M in BEST_UNIFORM_MS:
            _op(oracle, clock, f"best_uniform M={M}",
                lambda: quantizer.best_uniform_design(source, UNIFORM_ALPHA, M),
                lambda res: check_best(M, res))

        s_u = oracle.pins.get("values", {}).get(f"fig3/alpha{UNIFORM_ALPHA:g}", math.nan)

        def check_uniform(delta, sol):
            oracle.pinned(f"uniform/delta{delta:g}", sol.value, RTOL_PINNED)
            oracle.close(f"uniform delta={delta:g} s/delta vs s(U)", sol.value / delta,
                         s_u, RTOL_HIGH_RATE)

        for delta in UNIFORM_DELTAS:
            spec = quantizer.UniformSpec(delta)
            _op(oracle, clock, f"uniform delta={delta:g}",
                lambda: quantizer.uniform_error_strength(spec, source, UNIFORM_ALPHA),
                lambda sol: check_uniform(delta, sol))

        def check_empirical(a, sol):
            oracle.close(f"empirical alpha={a:g} vs alpha^(1/alpha)", sol.value,
                         closed_form_strength(a, 1.0), RTOL_EMPIRICAL)
            oracle.holds(f"empirical alpha={a:g} residual <= 1e-9", sol.residual <= 1e-9)

        for a, src in self.samples.items():
            _op(oracle, clock, f"empirical alpha={a:g}",
                lambda: strength.solve_strength(src, a),
                lambda sol: check_empirical(a, sol))
        return None

    def _check_fig5(self, oracle):
        alpha, gamma = 2.0, 1.0 / math.sqrt(2.0)
        rows = read_csv_rows("fig5.csv")
        oracle.holds("fig5 has rows", len(rows) > 0)
        for M, _, s, entropy, gap, _ in rows:
            floor = rd_floor(alpha, gamma, entropy)
            oracle.at_least(f"fig5 M={M:g} strength >= D(H)", s, floor)
            oracle.close(f"fig5 M={M:g} gap", gap, s - floor, RTOL_EXACT, atol=1e-12 * s)
            oracle.pinned(f"fig5/M{M:g}/strength", s, RTOL_PINNED)
        oracle.digest("fig5.csv", "fig5.csv")


WORKLOADS = {w.name: w for w in (Design, TablesCold, UniformHighrate)}
