"""Precision settings, the one acceptance loop on top of mpmath, and the
fork pool that spreads one rung's independent evaluations over the CPUs.

All numerical modules run at an explicit binary precision taken from a
PrecisionConfig.  p(n), eval and the norms of j and beta rest on one loop,
run_adaptive: each rung returns its value with a bound on its absolute
error, and the first rung whose bound is within the configured tolerance is
accepted.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from typing import Callable, ClassVar

import mpmath
from mpmath import mpf

from .errors import PrecisionExhausted, WorkerLost

DEFAULT_WORKING_BITS = 256
DEFAULT_MAX_BITS = 8192


@dataclass(frozen=True)
class PrecisionConfig:
    """Immutable precision settings shared read-only by all computations.

    abs_tol defaults to 2^(-working_bits/2): large enough that a genuine
    integer (residual ~2^(-working_bits+small)) is always accepted, small
    enough that accidental near-integers are not.  Evaluations run a fixed
    32 guard bits above the working precision.
    """

    guard_bits: ClassVar[int] = 32

    working_bits: int = DEFAULT_WORKING_BITS
    max_bits: int = DEFAULT_MAX_BITS
    abs_tol: mpf | None = None

    def __post_init__(self):
        if self.working_bits <= 0:
            raise ValueError("working_bits must be positive")
        if self.working_bits > self.max_bits:
            raise ValueError("working_bits must not exceed max_bits")
        if self.abs_tol is None:
            object.__setattr__(self, "abs_tol", mpf(2) ** (-mpf(self.working_bits) / 2))

    @property
    def eval_bits(self) -> int:
        """Precision actually used inside evaluations (working + guard)."""
        return self.working_bits + self.guard_bits

    def with_bits(self, working_bits: int) -> "PrecisionConfig":
        """Copy of this config at a different working precision (same tolerance)."""
        return PrecisionConfig(working_bits, max(self.max_bits, working_bits),
                               self.abs_tol)

    @property
    def tol_bits(self) -> int:
        """ceil(-log2 abs_tol), exactly 1 - mpmath.mag(abs_tol): the bits
        past a value's magnitude at which a rung's bound can first meet the
        tolerance, and the step of a ladder sized by it.  At least 1, and at
        most max_bits, which a tolerance of 0 (met by no bound) takes."""
        return int(min(max(1 - mpmath.mag(self.abs_tol), 1), self.max_bits))


def _fork_map(fn, arg_tuples) -> list:
    """[fn(*args) for args in arg_tuples], in order, split over forked
    processes, one per CPU this process may run on: worker k of p takes tasks
    k, k + p, ... (a list sorted by falling cost splits evenly).  Forked
    workers see the caller's modules as they are (the library starts no
    threads), and only the results are pickled.  The first exception a
    worker raised is raised here, and WorkerLost for a worker that ended
    without a result.  Serial when there is one process to use.
    """
    tasks = list(arg_tuples)
    processes = min(len(os.sched_getaffinity(0)), len(tasks))
    if processes <= 1:
        return [fn(*args) for args in tasks]
    workers = []
    try:
        for k in range(processes):
            out = tempfile.TemporaryFile()
            pid = os.fork()
            if pid == 0:
                _work(fn, tasks[k::processes], out)
            workers.append((pid, out))
    finally:
        shares = [_collect(pid, out) for pid, out in workers]
    for failed, share in shares:
        if failed:
            raise share
    results = [None] * len(tasks)
    for k, (_, share) in enumerate(shares):
        results[k::processes] = share
    return results


def _work(fn, tasks, out) -> None:
    """A forked worker: pickle (False, results) or (True, exception) to out
    and exit, never returning into the caller's code."""
    try:
        import pickle  # here, not at the top: only runs that fork need it
        share = (False, [fn(*args) for args in tasks])
    except BaseException as exc:  # handed to the parent, which raises it
        share = (True, exc)
    try:
        pickle.dump(share, out)
        out.flush()
    finally:
        os._exit(0)


def _collect(pid: int, out) -> tuple:
    """Wait for worker pid and read what it pickled to out."""
    import pickle
    os.waitpid(pid, 0)
    with out:
        out.seek(0)
        try:
            return pickle.load(out)
        except (EOFError, pickle.UnpicklingError):
            return True, WorkerLost(f"worker process {pid} ended without a result")


def _magnitude(value) -> int:
    """The largest max(mpmath.mag(x), 0), an integer at least log2 |x|, over
    the numbers in a value (a number, or lists and tuples of them)."""
    if isinstance(value, (list, tuple)):
        return max((_magnitude(v) for v in value), default=0)
    return int(max(mpmath.mag(value), 0))


def run_adaptive(task: Callable[[int], tuple], cfg: PrecisionConfig, magnitude: int | None = None):
    """(value, bound, bits) from the rungs task(bits) = (value, bound), bound
    bounding the absolute error of every number in value: the first rung
    whose bound is at most cfg.abs_tol, and its working bits.  The first rung
    runs at w = cfg.working_bits and gives the magnitude M of its value; the
    next run at M + w, M + 2w, M + 4w, ...  A caller that can predict M
    passes it as magnitude: the first rung runs at magnitude + w, and any
    later one at M + 2w, M + 4w, ..., M from that rung, so a prediction too
    low costs a rung, never a result.  The excess over M is capped at
    cfg.max_bits, beyond which PrecisionExhausted."""
    bits, excess = ((cfg.working_bits, 0) if magnitude is None
                    else (magnitude + cfg.working_bits, cfg.working_bits))
    value, bound = task(bits)
    magnitude = _magnitude(value)
    while not bound <= cfg.abs_tol:
        if excess >= cfg.max_bits:
            e = mpmath.mag(bound) if bound < mpmath.inf else 0  # nstr prints every exponent digit
            shown = mpmath.nstr(bound, 5) if e < 10**6 else f"2^{mpmath.nstr(mpf(e), 3)}"
            raise PrecisionExhausted(
                f"bound {shown} above {mpmath.nstr(cfg.abs_tol, 5)} at {bits} bits")
        excess = min(2 * excess, cfg.max_bits) if excess else cfg.working_bits
        bits = magnitude + excess
        value, bound = task(bits)
    return value, bound, bits
