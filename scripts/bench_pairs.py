#!/usr/bin/env python3
"""Run perfbench in a parent and a change checkout, alternately, and write BENCH_<n>.json.

For each workload, pair i runs `perfbench/run.py --trace 0` once in each
checkout with seed FIRST_SEED + i; the parent runs first in even pairs and the
change in odd ones, so that a drift of the host's speed hits both sides alike.
Then one `--trace 1` run per side at TRACE_SEED gives the per-layer counts.
Before the first run both checkouts are byte-compiled (PRECOMPILE), so that
neither side pays for compiling its modules, or peaks higher in memory for
it, in every process.

The output holds, per workload and end-to-end metric of BENCHMARK.json, both
sides' medians and quartiles, every run's value, the seeds, the pairs the
change won (ties count for neither side), the relative change of the median,
and whether a gain passes the rule: at least 10 pairs, a win in at least 9 of
10 of them, and a median drop larger than the parent's interquartile range.  The traced counts
are the per-layer metrics whose unit is not seconds.

    python scripts/bench_pairs.py --parent ../parent --change . \\
        --workloads design=10,tables-cold=4,uniform-highrate=4 --out BENCH_N.json

Both checkouts must hold the same perfbench/ and BENCHMARK.json; the script
refuses to compare runs of different benchmark code.  A run takes about a
minute, so ten design pairs take about twenty minutes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

TRACE_SEED = 5  # the seed of every traced count recorded in CHANGES.md and ROADMAP.md
PRECOMPILE = ("-m", "compileall", "-q", "src", "perfbench")


def _tree_digest(root, sub):
    """sha256 over the relative paths and bytes of the .py/.json files under root/sub."""
    h = hashlib.sha256()
    base = os.path.join(root, sub)
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d not in ("__pycache__", "out"))
        for name in sorted(filenames):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def _revision(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def _run(root, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"bench_pairs: {' '.join(cmd)} in {root} failed:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def _summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def _compare(parent, change, better, bound):
    p, c = _summary(parent), _summary(change)
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for a, b in zip(parent, change) if sign * (a - b) > 0.0)
    losses = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0.0)
    gain = sign * (p["median"] - c["median"])
    return {
        "parent": p,
        "change": c,
        "pairs": len(parent),
        "change_won": wins,
        "parent_won": losses,
        "median_rel_change": (c["median"] - p["median"]) / p["median"],
        "worse_than_bound": -gain > bound * p["median"],
        "gain_rule_met": (len(parent) >= 10 and wins >= 0.9 * len(parent)
                          and gain > p["q3"] - p["q1"]),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workloads", default="design=10,tables-cold=4,uniform-highrate=4",
                    help="comma-separated WORKLOAD=PAIRS")
    ap.add_argument("--first-seed", type=int, default=4101)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    bench = {name: _tree_digest(root, "perfbench") for name, root in sides.items()}
    specs = {}
    for name, root in sides.items():
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
            specs[name] = json.load(f)
    if bench["parent"] != bench["change"] or specs["parent"] != specs["change"]:
        sys.exit("bench_pairs: the checkouts hold different perfbench/ or BENCHMARK.json")
    spec = specs["change"]
    seconds = float(spec["run_seconds"])
    wanted = [item.split("=") for item in args.workloads.split(",")]

    for root in sides.values():
        subprocess.run([sys.executable, *PRECOMPILE], cwd=root, check=True)
    result = {
        "benchmark": {"perfbench_sha256": bench["change"], "run_seconds": seconds},
        "bytecode": "python " + " ".join(PRECOMPILE) + " in both checkouts before the first run",
        "sides": {name: {"revision": _revision(root), "src_sha256": _tree_digest(root, "src")}
                  for name, root in sides.items()},
        "workloads": {},
    }
    for workload, pairs in wanted:
        runs = {"parent": [], "change": []}
        seeds = [args.first_seed + i for i in range(int(pairs))]
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                details, res = _run(sides[side], workload, seed, seconds, 0)
                runs[side].append(res)
                result.setdefault("environment", {
                    k: v for k, v in details["environment"].items() if k != "loadavg_at_start"
                })
                metrics = {k: v["value"] for k, v in res["metrics"].items()}
                print(f"{workload} seed {seed} {side}: {metrics} failed {res['failed']}",
                      file=sys.stderr, flush=True)
        entry = {"seeds": seeds, "metrics": {}, "failed": {}, "traced_seed": TRACE_SEED,
                 "traced": {}}
        for side in ("parent", "change"):
            entry["failed"][side] = {
                "failed": sum(r["failed"] for r in runs[side]),
                "attempted": sum(r["attempted"] for r in runs[side]),
            }
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
            entry["metrics"][name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                **_compare(values["parent"], values["change"], metric["better"],
                           metric["bound"]),
            }
        for side in ("parent", "change"):
            _, res = _run(sides[side], workload, TRACE_SEED, seconds, 1)
            entry["traced"][side] = {k: v["value"] for k, v in res["metrics"].items()
                                     if v["unit"] != "s"}
        result["workloads"][workload] = entry
        with open(args.out, "w", encoding="utf-8") as f:  # rewritten after each workload
            json.dump(result, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
