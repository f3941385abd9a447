"""stablerd benchmark: end-to-end metrics of one workload, or its per-layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload design --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the workload's pass repeats for ``--seconds`` seconds and the
end-to-end metrics of BENCHMARK.json are reported.  With ``--trace 1`` one
untraced and one traced pass run, and the per-layer metrics are reported.
Times are seconds at the reference speed of ``calibrate.py``; the raw seconds
and the calibration kernel's times are in the details line.
The last line of standard output is the result as one JSON object; the line
before it carries the run environment and the reference-check details.

``pins.json`` holds the reference values and output digests the oracle checks
against; it is committed data, not regenerated by this script.
"""

from __future__ import annotations

import os
import sys
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
PINS = os.path.join(HERE, "pins.json")
SETUP_SAMPLES = 5


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_library():
    if not os.path.isfile(os.path.join(SRC, "stablerd", "__init__.py")):
        _fail(f"no stablerd sources under {SRC}")
    sys.path.insert(0, SRC)
    import stablerd
    import stablerd.cli  # noqa: F401  (the CLI loads every layer)

    if os.path.dirname(os.path.dirname(os.path.abspath(stablerd.__file__))) != SRC:
        _fail(f"stablerd imported from {stablerd.__file__}, not from {SRC}")


def _environment():
    import numpy
    import scipy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "loadavg_at_start": os.getloadavg(),
    }


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _metric_specs(kind):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError) as exc:
        _fail(f"cannot read BENCHMARK.json: {exc}")
    return {m["name"]: m["unit"] for m in spec[kind]}


def _load_pins():
    try:
        with open(PINS, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as exc:
        _fail(f"cannot read {PINS}: {exc}")


def _setup_sample(args, clock):
    """Seconds from starting a fresh process until the workload is ready:
    (raw, at reference speed)."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"]
    before = clock.last
    start = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        _fail(f"set-up failed: {proc.stderr.strip()[-500:]}")
    raw = float(proc.stdout.strip().splitlines()[-1]) - start
    return raw, clock.scaled(raw, before)


def _timed_pass(workload, oracle, clock, traced=False):
    """One pass: (raw seconds, seconds at reference speed, child trace summary)."""
    clock.begin()
    summary = workload.run_pass(oracle, clock, traced)
    return clock.raw_s, clock.ref_s, summary


def _measure(args, workload, oracle, clock):
    """End-to-end metrics from untraced passes repeated for --seconds."""
    setup = [_setup_sample(args, clock) for _ in range(SETUP_SAMPLES)]
    workload.setup()
    raw, ref = [], []
    start = time.monotonic()
    while True:
        pass_raw, pass_ref, _ = _timed_pass(workload, oracle, clock)
        raw.append(pass_raw)
        ref.append(pass_ref)
        elapsed = time.monotonic() - start
        if elapsed * (len(raw) + 1) / len(raw) > args.seconds:
            break
    values = {
        "pass_ref_s": statistics.median(ref),
        "setup_s": statistics.median(r for _, r in setup),
        "peak_rss_mb": _peak_rss_mb(),
    }
    info = {"pass_ref_s": ref, "pass_raw_s": raw,
            "setup_ref_s": [r for _, r in setup], "setup_raw_s": [r for r, _ in setup],
            "kernel_s": clock.kernel_s}
    return values, info


def _wrapped_calls(summary):
    return sum(s["count"] for s in summary["stats"].values())


def _trace(workload, oracle, clock, names):
    """Per-layer metrics from the traced set-up and one traced pass.

    An untraced pass in between gives the tracing overhead, at reference
    speed.  It is a single difference of two passes, so it is read together
    with the number of wrapped calls in the traced pass.
    """
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()  # set-up work counts with the traced pass
    try:
        workload.setup()
    finally:
        tracer.uninstall()
    _, untraced, _ = _timed_pass(workload, oracle, clock)
    setup_calls = _wrapped_calls(tracer.summary())
    tracer.install()
    try:
        _, traced, child_summary = _timed_pass(workload, oracle, clock, traced=True)
    finally:
        tracer.uninstall()
    if child_summary is not None:
        summary = child_summary  # the child process traced only the pass
        setup_calls = 0
    else:
        summary = tracer.summary()
        tracer.write_spans(f"spans-{workload.name}.csv")
    values, missing = layer_metrics(
        summary, [n for n in names if not n.startswith(("trace.", "oracle."))]
    )
    root = summary["stats"].get("strength.root_solve", {"counters": {}})["counters"]
    report = oracle.report()
    values.update({
        "trace.overhead_s": traced - untraced,
        "trace.wrapped_calls": _wrapped_calls(summary) - setup_calls,
        "trace.hooks_installed": len(summary["installed"]),
        "trace.g_evals_mismatch": abs(root.get("implied_g_evals", 0) - root.get("g_evals", 0)),
        "oracle.ops_failed_frac": report["ops_failed_frac"],
        "oracle.max_ref_err": report["max_ref_err"],
        "oracle.digests_checked": report["digests_checked"],
        "oracle.digest_mismatches": report["digest_mismatches"],
    })
    info = {
        "pass_ref_s": {"untraced": untraced, "traced": traced},
        "kernel_s": clock.kernel_s,
        "hooks_installed": summary["installed"],
        "hooks_missing": summary["missing"],
        "metrics_missing": missing,
    }
    return values, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--cold-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    sys.path.insert(0, HERE)
    from calibrate import Clock
    from oracle import Oracle
    from workloads import WORKLOADS, cold_child

    if args.workload not in WORKLOADS:
        _fail(f"--workload must be one of {sorted(WORKLOADS)}")
    specs = _metric_specs("per_layer" if args.trace else "end_to_end")
    _import_library()
    workload = WORKLOADS[args.workload](args.seed)

    if args.setup_probe:
        workload.setup()
        print(repr(time.monotonic()))
        return 0
    if args.cold_child:
        cold_child(workload, args.trace == 1)
        return 0

    env = _environment()
    os.makedirs(os.path.join(OUT, args.workload), exist_ok=True)
    os.chdir(os.path.join(OUT, args.workload))
    oracle = Oracle(_load_pins())
    clock = Clock(sampling=not args.trace)
    if args.trace:
        values, info = _trace(workload, oracle, clock, list(specs))
    else:
        values, info = _measure(args, workload, oracle, clock)
    report = oracle.report()
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "environment": env, "oracle": report, **info}
    with open(f"result-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as f:
        json.dump({**details, "metrics": values}, f, indent=1)
    print(json.dumps(details))
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in specs.items() if name in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
