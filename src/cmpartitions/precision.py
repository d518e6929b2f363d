"""Precision settings, the adaptive agreement ladder on top of mpmath, and
the fork pool that spreads one rung's independent evaluations over the CPUs.

All numerical modules run at an explicit binary precision taken from a
PrecisionConfig.  p(n) and eval rest on the adaptive ladder: a computation
is rerun at doubled precision until two consecutive runs agree to the
configured absolute tolerance.  The norms of j and beta take no ladder: they
are accepted on an error bound (modpoly._certified_norm).
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from typing import Callable, ClassVar

import mpmath
from mpmath import mpf

from .errors import PrecisionExhausted

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


def deviation(a, b, bits: int = 256) -> mpf:
    """Max absolute componentwise difference between two structured results.

    Accepts mpf/mpc/int scalars and (possibly nested) sequences or dicts
    with identical shape.  Each difference is taken from the operands
    as they are and only the difference is rounded, to bits + 16 bits, so
    values far larger than 2^bits are still compared in full.
    """
    with mpmath.workprec(bits + 16):
        return _dev(a, b)


def _dev(a, b) -> mpf:
    if isinstance(a, dict):
        if set(a) != set(b):
            raise ValueError("mismatched result shapes")
        return max((_dev(a[k], b[k]) for k in a), default=mpf(0))
    if isinstance(a, (list, tuple)):
        if len(a) != len(b):
            raise ValueError("mismatched result shapes")
        return max((_dev(x, y) for x, y in zip(a, b)), default=mpf(0))
    # mpmath rounds only the result of a - b, ints included
    return mpf(abs(a - b))


def _fork_map(fn, arg_tuples) -> list:
    """[fn(*args) for args in arg_tuples], in order, split over forked
    processes, one per CPU this process may run on: worker k of p takes tasks
    k, k + p, ... (a list sorted by falling cost splits evenly).  Forked
    workers see the caller's modules as they are (the library starts no
    threads), and only the results are pickled.  The first exception a
    worker raised is raised here.  Serial when there is one process to use.
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
            return True, RuntimeError(f"worker process {pid} ended without a result")


def run_adaptive(task: Callable[[int], object], cfg: PrecisionConfig):
    """Rerun ``task(bits)`` at doubling precision until two consecutive runs
    agree to cfg.abs_tol: (result, achieved_bits), the higher run's output of
    the first agreeing pair and the precision of the lower one.  Raises
    PrecisionExhausted if max_bits is reached without agreement."""
    bits = prev_bits = cfg.working_bits
    prev = task(bits)
    while bits < cfg.max_bits:
        bits = min(2 * bits, cfg.max_bits)
        cur = task(bits)
        if deviation(prev, cur, bits) <= cfg.abs_tol:
            return cur, prev_bits
        prev, prev_bits = cur, bits
    raise PrecisionExhausted(
        f"no agreement to {mpmath.nstr(cfg.abs_tol, 5)} at max_bits={cfg.max_bits}")
