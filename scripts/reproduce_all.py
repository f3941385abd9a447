#!/usr/bin/env python3
"""Regenerate every figure table into ./out (or $STABLERD_OUTPUT_DIR).

fig2 designs 30 quantizers and takes the longest (about 15 seconds on a
2-vCPU VM); the rest finish in about 2 seconds combined, most of it fig3
(about 1.5 seconds), which builds a density table for each of its 18 alphas
off {1, 2}.  Pass figure names to restrict, e.g.
`python scripts/reproduce_all.py fig1 fig4`.
"""

import os
import sys
import time

from stablerd.cli import main

FIGURES = ("fig1", "fig2", "fig3", "fig4", "fig5")


def run(figures):
    outdir = os.environ.get("STABLERD_OUTPUT_DIR", "out")
    status = 0
    for fig in figures:
        t0 = time.time()
        rc = main(["reproduce", fig, "--outdir", outdir])
        print(f"{fig}: exit {rc} in {time.time() - t0:.1f}s -> {outdir}/")
        status = status or rc
    return status


if __name__ == "__main__":
    wanted = sys.argv[1:] or FIGURES
    unknown = [f for f in wanted if f not in FIGURES]
    if unknown:
        sys.exit(f"unknown figures: {unknown}; choose from {FIGURES}")
    sys.exit(run(wanted))
