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
are the per-layer metrics whose unit is not seconds.  `raw_pass_s` summarizes
each run's median raw pass seconds (the details line's `pass_raw_s`) the same
way, outside the gain rule: a gain that shows in reference seconds but not in
raw ones came from the calibration kernel, not from the change.
`raw_setup_s` does the same for the median raw set-up seconds (`setup_raw_s`),
since `setup_s` at reference speed spreads about as widely as its bound.

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
# each summary of raw wall seconds, and the details line's per-pass list it reads
RAW = {"raw_pass_s": "pass_raw_s", "raw_setup_s": "setup_raw_s"}


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


def _git(root, *args):
    """stdout of `git -C root args`, or None where git fails (not a checkout)."""
    try:
        out = subprocess.run(["git", "-C", root, *args], capture_output=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout


def _side(root):
    """A checkout's revision, and whether its src/ differs from that revision
    (untracked files included), with a sha256 of `git diff HEAD -- src`: an
    uncommitted change is measured as it stands, and recorded as such."""
    head = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain", "--", "src")
    diff = _git(root, "diff", "HEAD", "--", "src")
    return {
        "revision": None if head is None else head.decode().strip(),
        "src_dirty": None if status is None else bool(status.strip()),
        "src_diff_sha256": None if diff is None else hashlib.sha256(diff).hexdigest(),
        "src_sha256": _tree_digest(root, "src"),
    }


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


def _compare(parent, change, better, bound=None):
    """Both sides' summaries and the pairs each won; with a bound, also the
    bound check and the gain rule."""
    p, c = _summary(parent), _summary(change)
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for a, b in zip(parent, change) if sign * (a - b) > 0.0)
    losses = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0.0)
    gain = sign * (p["median"] - c["median"])
    out = {
        "parent": p,
        "change": c,
        "pairs": len(parent),
        "change_won": wins,
        "parent_won": losses,
        "median_rel_change": (c["median"] - p["median"]) / p["median"],
    }
    if bound is not None:
        out["worse_than_bound"] = -gain > bound * p["median"]
        out["gain_rule_met"] = (len(parent) >= 10 and wins >= 0.9 * len(parent)
                                and gain > p["q3"] - p["q1"])
    return out


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
        "sides": {name: _side(root) for name, root in sides.items()},
        "workloads": {},
    }
    for workload, pairs in wanted:
        runs = {"parent": [], "change": []}
        raw = {name: {"parent": [], "change": []} for name in RAW}  # per run, the median
        seeds = [args.first_seed + i for i in range(int(pairs))]
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                details, res = _run(sides[side], workload, seed, seconds, 0)
                runs[side].append(res)
                for name, key in RAW.items():
                    raw[name][side].append(statistics.median(details[key]))
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
        for name in RAW:
            entry[name] = {
                "unit": "s",
                "better": "lower",
                "note": "wall seconds, not scaled to the reference speed; outside the gain rule",
                **_compare(raw[name]["parent"], raw[name]["change"], "lower"),
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
