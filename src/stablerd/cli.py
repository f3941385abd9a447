"""Command-line front end.

Every computation of the library is reachable as a subcommand; outputs are
CSV (comma separated, '.' decimals, '#' comment lines echoing the resolved
configuration and the library version, UTF-8, LF endings) or JSON.  Rates
and entropies are stored in nats and converted to bits on request.

Exit status: 0 on success, 1 on a domain error, 2 on a usage error.
Relative output paths resolve under $STABLERD_OUTPUT_DIR when it is set.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__, figures
from . import quantizer as qt
from . import rate_distortion as rd
from .errors import StableRDError
from .stable_core import ReferenceLaw, SampleBatch, StableParams, pdf, reference_entropy
from .strength import (
    EmpiricalSource,
    SymmetricStableSource,
    UniformSource,
    cauchy_source,
    gaussian_source,
    solve_strength,
    strength_of_uniform,
)

LN2 = math.log(2.0)


@dataclass
class RunConfig:
    """Fully resolved run description; echoed into every output header."""

    command: str
    params: dict = field(default_factory=dict)
    output_path: str = "-"
    format: str = "csv"
    units: str = "nats"
    seed: int = 0

    def echo_lines(self):
        items = " ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return [
            f"stablerd {__version__}",
            f"config: command={self.command} format={self.format} "
            f"units={self.units} seed={self.seed} output={self.output_path} {items}",
        ]


def _resolve_output(path: str | None) -> str:
    if path is None or path == "-":
        return "-"
    base = os.environ.get("STABLERD_OUTPUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _open_out(path: str):
    if path == "-":
        return sys.stdout, False
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="\n"), True


def _write_table(config: RunConfig, header, rows, extra_comments=()):
    out, close = _open_out(config.output_path)
    try:
        if config.format == "json":
            import json

            doc = {
                "config": {
                    "command": config.command,
                    "format": config.format,
                    "units": config.units,
                    "seed": config.seed,
                    **{k: v for k, v in sorted(config.params.items())},
                },
                "columns": list(header),
                "rows": [list(map(float, r)) for r in rows],
            }
            out.write(json.dumps(doc, indent=2))
            out.write("\n")
        else:
            for line in config.echo_lines():
                out.write(f"# {line}\n")
            for line in extra_comments:
                out.write(f"# {line}\n")
            out.write(",".join(header) + "\n")
            for r in rows:
                out.write(",".join(repr(float(v)) for v in r) + "\n")
    finally:
        if close:
            out.close()


def _rate(value_nats: float, units: str) -> float:
    return value_nats / LN2 if units == "bits" else value_nats


def _source_from_args(args) -> SymmetricStableSource | EmpiricalSource:
    if getattr(args, "samples_file", None):
        values = np.loadtxt(args.samples_file, dtype=float).ravel()
        return EmpiricalSource(SampleBatch(values=values, seed=args.seed))
    name = args.source
    if name == "cauchy":
        return cauchy_source(args.gamma)
    if name == "gaussian":
        return gaussian_source(args.sigma if args.sigma is not None else 1.0)
    if name == "stable":
        return SymmetricStableSource(StableParams(args.alpha, 0.0, args.gamma, 0.0))
    raise ValueError(f"unknown source {name!r}")


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_pdf(args, config: RunConfig) -> int:
    params = StableParams(args.alpha, args.beta, args.gamma, args.delta)
    if args.x is not None:
        xs = [args.x]
    else:
        xs = np.linspace(args.xmin, args.xmax, args.steps)
    rows = [(float(x), pdf(params, float(x))) for x in xs]
    _write_table(config, ("x", "pdf"), rows)
    return 0


def _cmd_entropy(args, config: RunConfig) -> int:
    h = reference_entropy(ReferenceLaw(args.alpha, args.d))
    _write_table(config, ("alpha", "d", f"entropy_{config.units}"),
                 [(args.alpha, args.d, _rate(h, config.units))])
    return 0


def _cmd_strength(args, config: RunConfig) -> int:
    alpha = _infer_alpha(args)
    if args.uniform:
        value = strength_of_uniform(alpha)
        residual, evaluations = 0.0, 0
    else:
        source = _source_from_args(args)
        sol = solve_strength(source, alpha)
        value, residual, evaluations = sol.value, sol.residual, sol.evaluations
    _write_table(
        config,
        ("alpha", "strength", "residual_nats", "evaluations"),
        [(alpha, value, residual, evaluations)],
    )
    return 0


def _cmd_rd(args, config: RunConfig) -> int:
    rows = [
        (D, _rate(R, config.units))
        for D, R in figures.rd_curve(args.alpha, args.gamma, args.dmin, args.dmax, args.steps)
    ]
    _write_table(config, ("D", f"R_{config.units}"), rows)
    return 0


def _cmd_waterfill(args, config: RunConfig) -> int:
    strengths = [float(x) for x in args.strengths.split(",")]
    alloc = rd.reverse_waterfill(args.alpha, strengths, args.D)
    rows = [
        (i, strengths[i], float(alloc.distortions[i]))
        for i in range(len(strengths))
    ]
    _write_table(
        config,
        ("component", "strength", "distortion"),
        rows,
        extra_comments=[
            f"level={alloc.level!r}",
            f"rate_{config.units}={_rate(alloc.rate, config.units)!r}",
        ],
    )
    return 0


def _cmd_design(args, config: RunConfig) -> int:
    alpha = _infer_alpha(args)
    source = _source_from_args(args)
    report = qt.design_optimal(source, alpha, args.M, tol=args.tol, seed=args.seed)
    doc = qt.quantizer_to_json(report.quantizer, alpha, report.error_strength)
    out, close = _open_out(config.output_path)
    try:
        out.write(doc)
        out.write("\n")
    finally:
        if close:
            out.close()
    # the quantizer document schema is pinned, so the config echo goes to stderr
    for line in config.echo_lines():
        print(f"# {line}", file=sys.stderr)
    return 0


def _cmd_uniform_sweep(args, config: RunConfig) -> int:
    alpha = _infer_alpha(args)
    source = _source_from_args(args)
    s_u = strength_of_uniform(alpha)
    rows = []
    for d in (float(x) for x in args.deltas.split(",")):
        sol = qt.uniform_error_strength(qt.UniformSpec(d), source, alpha)
        rows.append((d, sol.value, sol.value / d, d * s_u))
    _write_table(
        config, ("delta", "strength", "strength_over_delta", "high_rate_prediction"), rows
    )
    return 0


_FIGURES = ("fig1", "fig2", "fig3", "fig4", "fig5")


def _cmd_reproduce(args, config: RunConfig) -> int:
    outdir = args.outdir or os.environ.get("STABLERD_OUTPUT_DIR") or "."
    os.makedirs(outdir, exist_ok=True)
    failures = 0

    def emit(name, header, rows):
        sub = RunConfig(
            command=f"reproduce:{args.figure}",
            params=dict(config.params),
            output_path=os.path.join(outdir, name),
            format="csv",
            units=config.units,
            seed=config.seed,
        )
        _write_table(
            sub, header, rows,
            extra_comments=[f"figure-defaults: v{figures.FIG_DEFAULTS_VERSION}"],
        )

    if args.figure == "fig1":
        curves = figures.fig1_curves()
        for label, header, rows in curves:
            rows = [(d, _rate(r, config.units)) for d, r in rows]
            header = ("D", f"R_{config.units}")
            emit(f"fig1_{label}.csv", header, rows)
    elif args.figure == "fig2":
        for M in figures.FIG2_MS:
            try:
                (label, header, rows), = figures.fig2_curves(ms=(M,), seed=config.seed)
                emit(f"fig2_{label}.csv", header, rows)
            except StableRDError as exc:
                failures += 1
                print(f"fig2 M={M} failed: {exc}", file=sys.stderr)
    elif args.figure == "fig3":
        rows = []
        for a in figures.FIG3_ALPHAS:
            try:
                rows.extend(figures.fig3_rows(alphas=(a,)))
            except StableRDError as exc:
                failures += 1
                print(f"fig3 alpha={a} failed: {exc}", file=sys.stderr)
        emit("fig3.csv", ("alpha", "uniform_strength"), rows)
    elif args.figure == "fig4":
        emit("fig4.csv", figures.FIG45_HEADER, figures.fig4_rows())
    elif args.figure == "fig5":
        emit("fig5.csv", figures.FIG45_HEADER, figures.fig5_rows())
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# parser


def _add_common(p):
    p.add_argument("--output", default=None, help="output path ('-' for stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--units", choices=("nats", "bits"), default="nats")
    p.add_argument("--seed", type=int, default=0)


def _add_source(p, alpha_required=False):
    p.add_argument(
        "--alpha", type=float, required=alpha_required, default=None,
        help="strength index; defaults to 1 for cauchy and 2 for gaussian sources",
    )
    p.add_argument("--source", choices=("cauchy", "gaussian", "stable"), default="cauchy")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=None, help="for --source gaussian")
    p.add_argument("--samples-file", default=None, help="empirical source, one value per line")


def _infer_alpha(args) -> float:
    if args.alpha is not None:
        return args.alpha
    if getattr(args, "uniform", False) or getattr(args, "samples_file", None):
        raise ValueError("--alpha is required for this source")
    defaults = {"cauchy": 1.0, "gaussian": 2.0}
    if args.source in defaults:
        return defaults[args.source]
    raise ValueError("--alpha is required for --source stable")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="stablerd",
        description="strength, rate-distortion and quantizer computations "
        "for alpha-stable sources",
    )
    ap.add_argument("--version", action="version", version=f"stablerd {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pdf", help="stable density values")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--xmin", type=float, default=-5.0)
    p.add_argument("--xmax", type=float, default=5.0)
    p.add_argument("--steps", type=int, default=101)
    _add_common(p)
    p.set_defaults(fn=_cmd_pdf)

    p = sub.add_parser("entropy", help="reference-law differential entropy")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--d", type=int, default=1)
    _add_common(p)
    p.set_defaults(fn=_cmd_entropy)

    p = sub.add_parser("strength", help="solve for the strength of a source")
    p.add_argument("--uniform", action="store_true",
                   help="the Uniform(-1/2, 1/2) source")
    _add_source(p)
    _add_common(p)
    p.set_defaults(fn=_cmd_strength)

    p = sub.add_parser("rd", help="scalar rate-distortion curve")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--dmin", type=float, required=True)
    p.add_argument("--dmax", type=float, required=True)
    p.add_argument("--steps", type=int, default=50)
    _add_common(p)
    p.set_defaults(fn=_cmd_rd)

    p = sub.add_parser("waterfill", help="reverse water-filling allocation")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--strengths", required=True, help="comma-separated component strengths")
    p.add_argument("--D", type=float, required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_waterfill)

    p = sub.add_parser("design", help="design a strength-optimal quantizer")
    _add_source(p)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--tol", type=float, default=None)
    _add_common(p)
    p.set_defaults(fn=_cmd_design)

    p = sub.add_parser("uniform-sweep", help="uniform quantizer error strength per width")
    _add_source(p)
    p.add_argument("--deltas", required=True, help="comma-separated region widths")
    _add_common(p)
    p.set_defaults(fn=_cmd_uniform_sweep)

    p = sub.add_parser("reproduce", help="regenerate a figure's tables")
    p.add_argument("figure", choices=_FIGURES)
    p.add_argument("--outdir", default=None)
    _add_common(p)
    p.set_defaults(fn=_cmd_reproduce)

    return ap


def _config_from_args(args) -> RunConfig:
    skip = {"fn", "command", "output", "format", "units", "seed"}
    params = {k: v for k, v in vars(args).items() if k not in skip and v is not None}
    return RunConfig(
        command=args.command,
        params=params,
        output_path=_resolve_output(args.output),
        format=args.format,
        units=args.units,
        seed=args.seed,
    )


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    config = _config_from_args(args)
    try:
        return args.fn(args, config)
    except (StableRDError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
