#!/usr/bin/env python3
"""Print one line per alpha on the d = 1 density table's Chebyshev panels.

For each alpha, a cold build of the d = 1 table (`_StandardDensity(alpha)
._build_table()`, timed), then the panel statistics of its route part
(`stable_core._chebyshev_route` on the same knots): the route's node count,
the certified panels, the bisections, the largest trailing Chebyshev
coefficient of a certified panel and its largest ratio to the panel's
tolerance.  Where the panels do not serve (`stable_core._route_is_accurate`
false: alpha below 0.2 and in the band around 1) the route runs on the
knots, and the line gives their count and "knots" in place of the panel
columns.  A build that raises prints FAIL and the message.  The default grid
is alpha 0.1 to 1.995 in steps of 0.005 (about a minute on 2 cores); the
numbers in README's numerical notes come from it:

    python scripts/table_map.py [alpha ...]
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from stablerd import stable_core  # noqa: E402
from stablerd.errors import QuadratureFailure  # noqa: E402


def main(argv):
    alphas = [float(a) for a in argv] or [round(0.1 + 0.005 * k, 3) for k in range(380)]
    print("alpha nodes panels splits trail ratio build_s")
    for alpha in alphas:
        eng = stable_core._StandardDensity(alpha)
        start = max(0, eng._first - stable_core._SERIES_BLEND)
        try:
            t0 = time.perf_counter()
            eng._build_table()
            seconds = time.perf_counter() - t0
            if not stable_core._route_is_accurate(alpha):
                print(f"{alpha} {eng.KNOTS.size - start} knots - - - {seconds:.4f}", flush=True)
                continue
            _, st = stable_core._chebyshev_route(alpha, eng.KNOTS[start:])
        except QuadratureFailure as exc:
            print(f"{alpha} FAIL {exc}", flush=True)
            continue
        print(f"{alpha} {st['nodes']} {st['panels']} {st['splits']} {st['trail']:.2g} "
              f"{st['ratio']:.3f} {seconds:.4f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
