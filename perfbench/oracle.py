"""Reference checks for the benchmark's operations.

Every operation is checked against independent closed forms where they exist
and otherwise against values pinned from the library (``pins.json``).  A
raised exception, a non-zero exit or a missed reference fails the operation.
The sha256 digests of the CLI output files are compared with pinned digests
and only counted: output that changes on purpose does not fail a run.
"""

from __future__ import annotations

import hashlib
import math


def closed_form_strength(alpha, gamma):
    """Strength of a symmetric alpha-stable law of scale gamma."""
    return alpha ** (1.0 / alpha) * gamma


def arctan_uniform_strength():
    """s_1(U) of Uniform(-1/2, 1/2): the root of
    ln(1 + 1/(4 s^2)) - 2 + 4 s arctan(1/(2 s)) = ln 4, by bisection."""

    def fn(s):
        return math.log1p(1.0 / (4.0 * s * s)) - 2.0 + 4.0 * s * math.atan(1.0 / (2.0 * s)) \
            - math.log(4.0)

    lo, hi = 1e-3, 10.0  # fn(lo) > 0 > fn(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fn(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def rd_floor(alpha, gamma, rate_nats):
    """D(R) = s_alpha(X) exp(-R) of a symmetric alpha-stable source."""
    return closed_form_strength(alpha, gamma) * math.exp(-rate_nats)


def read_csv_rows(path):
    """Numeric rows of a stablerd CSV table (comment and header lines skipped)."""
    rows = []
    with open(path, encoding="utf-8") as f:
        lines = [line for line in f.read().splitlines() if line and not line.startswith("#")]
    for line in lines[1:]:
        rows.append([float(v) for v in line.split(",")])
    return rows


def sha256_of(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


class Oracle:
    """Counts operations and failures, and tracks the worst relative error."""

    def __init__(self, pins):
        self.pins = pins
        self.attempted = 0
        self.failed = 0
        self.max_ref_err = 0.0
        self.worst = None
        self.digests_checked = 0
        self.digest_mismatches = 0
        self.misses = []
        self._op = None
        self._op_failed = False

    # -- operations -----------------------------------------------------------

    def start(self, name):
        self._op = name
        self._op_failed = False
        self.attempted += 1

    def finish(self):
        if self._op_failed:
            self.failed += 1
        self._op = None

    def fail(self, what):
        self._op_failed = True
        if len(self.misses) < 20:
            self.misses.append(f"{self._op}: {what}")

    # -- checks ---------------------------------------------------------------

    def _deviation(self, what, value, ref, rtol, atol=0.0):
        err = abs(value - ref)
        rel = err / abs(ref) if ref != 0.0 else err
        if not math.isfinite(err) or err > max(rtol * abs(ref), atol):
            self.fail(f"{what}: {value!r} vs reference {ref!r} (rtol {rtol:g})")
        if math.isfinite(rel) and rel > self.max_ref_err:  # JSON has no inf or nan
            self.max_ref_err = rel
            self.worst = what

    def close(self, what, value, ref, rtol, atol=0.0):
        """|value - ref| within rtol of |ref| (or within atol)."""
        self._deviation(what, float(value), float(ref), rtol, atol)

    def at_least(self, what, value, floor, rtol=1e-12):
        """value >= floor, allowing a relative rounding margin."""
        if not value >= floor * (1.0 - rtol):
            self.fail(f"{what}: {value!r} below its floor {floor!r}")

    def holds(self, what, condition):
        if not condition:
            self.fail(what)

    def pinned(self, key, value, rtol):
        """Compare with the value pinned under key."""
        table = self.pins.get("values", {})
        if key not in table:
            self.fail(f"{key}: no pinned value")
            return
        self._deviation(key, float(value), table[key], rtol)

    def digest(self, key, path):
        """Count whether the file's sha256 matches the pinned digest."""
        self.digests_checked += 1
        if self.pins.get("digests", {}).get(key) != sha256_of(path):
            self.digest_mismatches += 1

    def report(self):
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "ops_failed_frac": self.failed / self.attempted if self.attempted else 1.0,
            "max_ref_err": self.max_ref_err,
            "worst_check": self.worst,
            "digests_checked": self.digests_checked,
            "digest_mismatches": self.digest_mismatches,
            "misses": self.misses,
        }

