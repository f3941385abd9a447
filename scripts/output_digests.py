#!/usr/bin/env python3
"""Print a sha256 digest of every pinned CLI output, for byte-identity checks.

Runs `reproduce fig1/fig3/fig4/fig5`, a seeded Cauchy design, two stable
strengths (alpha 1.35 and 0.3) and a stable uniform sweep from the `src/`
tree next to this script, each in its own process, into a temporary
directory.  For each output file it
prints one `sha256  file` line.  The '#' comment lines are left out of the
digest because they echo the output path, which differs per run.

Run it in two checkouts and diff the output; a refactor that keeps the
answers prints the same lines (about 16 s on 2 cores):

    python scripts/output_digests.py > digests.txt
"""

import hashlib
import os
import subprocess
import sys
import tempfile

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# (output file or None for `reproduce`, CLI arguments)
COMMANDS = (
    (None, ["reproduce", "fig1"]),
    (None, ["reproduce", "fig3"]),
    (None, ["reproduce", "fig4"]),
    (None, ["reproduce", "fig5"]),
    ("design_cauchy_M4_seed7.json",
     ["design", "--source", "cauchy", "--gamma", "1", "--M", "4", "--seed", "7"]),
    ("strength_stable_a1.35_g2.csv",
     ["strength", "--source", "stable", "--alpha", "1.35", "--gamma", "2"]),
    ("strength_stable_a0.3_g1.csv",
     ["strength", "--source", "stable", "--alpha", "0.3", "--gamma", "1"]),
    ("uniform_sweep_stable_a0.7_g1.3.csv",
     ["uniform-sweep", "--source", "stable", "--alpha", "0.7", "--gamma", "1.3",
      "--deltas", "0.5,0.1,0.01"]),
)


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        body = b"".join(line for line in fh if not line.startswith(b"#"))
    return hashlib.sha256(body).hexdigest()


def main() -> int:
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("STABLERD_OUTPUT_DIR", None)
    with tempfile.TemporaryDirectory() as out:
        for name, args in COMMANDS:
            where = ["--outdir", out] if name is None else ["--output", os.path.join(out, name)]
            cmd = [sys.executable, "-m", "stablerd.cli", *args, *where]
            subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL)
        for name in sorted(os.listdir(out)):
            print(f"{_digest(os.path.join(out, name))}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
