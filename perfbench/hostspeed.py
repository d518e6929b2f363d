"""The host's speed, measured while the benchmark runs, to rescale its times.

On a shared host every process slows down by up to 2x, for seconds to
minutes at a time; ten runs of the same code spread by 15-30% around their
median.  A fixed reference kernel slows down with the program, because it
does the same kind of work: mpmath complex q-series (eta, E2, E4, E6) at a
few hundred bits, the work behind every value the CLI prints.  The kernel
lives here and shares no code with the library, so a change to the library
does not change it.

``Sampler`` times the kernel every ``PERIOD_S`` seconds of a pass from a
SIGALRM handler, which runs between the program's bytecodes in the main
thread.  (A sampling thread would not do: under the GIL its timings would
include the program's.)  A pass's time, minus the time spent in the handler, is rescaled by
``NOMINAL_S`` over the mean kernel time seen during the pass.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import mpmath
from mpmath import mpc, mpf

BITS = 544
TERMS = 60
PERIOD_S = 0.25
# The kernel's time on a quiet host; rescaled times are seconds at that speed.
NOMINAL_S = 0.006


def _divisor_sums(power: int) -> list[int]:
    sums = [0] * TERMS
    for d in range(1, TERMS):
        for m in range(d, TERMS, d):
            sums[m] += d ** power
    return sums


_E_COEFFS = [(-24, _divisor_sums(1)), (240, _divisor_sums(3)), (-504, _divisor_sums(5))]
_PENTAGONAL = sorted((k * (3 * k - 1) // 2, -1 if k % 2 else 1)
                     for k in range(-6, 7) if k)


def kernel():
    """eta(d tau)^24 and E2 E4 E6 (d tau) for d in 1, 2, 3, 6 at a fixed
    tau, by Horner sums in q and a pentagonal sum."""
    with mpmath.workprec(BITS):
        tau = mpc(mpf(1) / 7, mpf(11) / 10)
        total = mpc(0)
        for d in (1, 2, 3, 6):
            q = mpmath.exp(2j * mpmath.pi * d * tau)
            terms = TERMS // d  # |q|^TERMS is below 2^-BITS at d = 1
            product = mpc(1)
            for scale, coeffs in _E_COEFFS:
                acc = mpc(0)
                for c in reversed(coeffs[1:terms]):
                    acc = (acc + c) * q
                product *= 1 + scale * acc
            eta = mpc(1)
            power = mpc(1)
            last = 0
            for exponent, sign in _PENTAGONAL:
                power *= q ** (exponent - last)
                last = exponent
                eta += sign * power
            total += product / eta ** 24
        return total


def kernel_seconds(calls: int = 3) -> float:
    """Mean time of ``calls`` kernel evaluations."""
    t0 = time.perf_counter()
    for _ in range(calls):
        kernel()
    return (time.perf_counter() - t0) / calls


class Sampler:
    """Kernel times taken every PERIOD_S seconds while ``sampling`` is on."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, _signum, _frame):
        t0 = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        self.spent += elapsed

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @contextmanager
    def paused(self):
        """No samples inside, for work that is not timed."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def factor(self, since: int = 0) -> float:
        """NOMINAL_S over the mean kernel time of the samples from index
        ``since`` on (a fresh sample is taken if there are none)."""
        samples = self.samples[since:] or [kernel_seconds()]
        return NOMINAL_S / statistics.fmean(samples)
