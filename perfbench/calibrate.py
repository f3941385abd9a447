"""A fixed reference computation that tracks the machine's current speed.

On a shared host the same stablerd call can take 16 s or 29 s: the whole
virtual CPU speeds up and slows down by tens of percent within seconds.  The
benchmark therefore runs this kernel before and after each timed operation
and, every ``SAMPLE_EVERY_S`` seconds, inside it, from a timer signal; the
kernel's own time is taken out of the operation's.  Each kernel time k says
that the machine ran at ``REFERENCE_S / k`` of the reference speed then, and
the operation's seconds are scaled by the mean of these ratios.  The result is
the operation's time at the reference speed.  The kernel does what the
library's hot paths do (Gauss-Legendre nodes, small NumPy vectors, a Python
loop) and calls nothing in stablerd, so it moves with the machine, never with
the program.  It allocates only small arrays: the price of a fresh large
allocation depends on the allocator's state, which the program changes.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

# Median kernel seconds on the reference machine: a 2-vCPU VM (Intel Xeon,
# 2.1 GHz), Python 3.11, NumPy 2.4, one BLAS thread.
REFERENCE_S = 0.030
# A kernel run inside an operation after each this many seconds of its work.
SAMPLE_EVERY_S = 0.3


def kernel():
    acc = 0.0
    for n in range(8, 72, 2):
        x, w = np.polynomial.legendre.leggauss(n)
        y = np.log1p(np.exp(-3.0 * np.abs(x))) / (1.0 + x * x)
        acc += float(np.dot(w, y))
    for i in range(1, 20_000):
        acc += math.log(i) / (1.0 + 1e-3 * i)
    return acc


def probe():
    """Seconds of one kernel run now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def to_reference(seconds, kernel_times):
    """Seconds at the reference speed, given kernel times taken over them."""
    return seconds * REFERENCE_S * statistics.fmean(1.0 / k for k in kernel_times)


class Clock:
    """Times the operations of a pass and sums them raw and at reference speed.

    The kernel run after one operation also serves as the run before the
    next.  With ``sampling`` off the kernel runs only between operations, so
    that a tracer's spans inside an operation hold no kernel time.
    """

    def __init__(self, sampling=True):
        kernel()  # first-call costs of NumPy's polynomial module
        self.sampling = sampling
        self.last = probe()
        self.kernel_s = [self.last]
        self.raw_s = 0.0
        self.ref_s = 0.0
        self._samples = None  # kernel times of the operation being timed
        self._spent = 0.0  # seconds of kernel runs inside it
        if sampling:
            signal.signal(signal.SIGALRM, self._sample)

    def begin(self):
        """Start a pass: zero its totals."""
        self.raw_s = 0.0
        self.ref_s = 0.0

    def probe(self):
        """Run the kernel; return its seconds and keep them as the latest."""
        self.last = probe()
        self.kernel_s.append(self.last)
        return self.last

    def scaled(self, raw, before):
        """Seconds at reference speed of an interval that has just ended and
        began after the kernel time ``before``; runs the kernel once."""
        return to_reference(raw, [before, self.probe()])

    def add(self, raw, ref):
        self.raw_s += raw
        self.ref_s += ref

    def _sample(self, signum, frame):
        if self._samples is None:  # the operation has ended
            return
        start = time.perf_counter()
        self._samples.append(probe())
        self._spent += time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)

    def time(self, fn):
        """Run fn(); add its seconds to the pass and return its result."""
        self._samples, self._spent = [self.last], 0.0
        start = time.perf_counter()
        if self.sampling:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)
        try:
            return fn()
        finally:
            # Stop sampling before reading the end time, so every kernel run
            # counted in _spent lies inside the measured interval.
            samples, self._samples = self._samples, None
            end = time.perf_counter()
            if self.sampling:
                signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = end - start - self._spent
            self.kernel_s.extend(samples[1:])
            samples.append(self.probe())
            self.add(elapsed, to_reference(elapsed, samples))
