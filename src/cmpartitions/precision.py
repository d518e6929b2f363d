"""Precision settings and the adaptive agreement ladder on top of mpmath.

All numerical modules run at an explicit binary precision taken from a
PrecisionConfig.  Correctness does not rest on per-operation error bounds but
on the adaptive ladder: a computation is rerun at doubled precision until two
consecutive runs agree to the configured absolute tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar

import mpmath
from mpmath import mpc, mpf

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

    Accepts mpf/mpc/int/Fraction scalars and (possibly nested) sequences or
    dicts with identical shape.
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
    return abs(mpc(a) - mpc(b))


def run_adaptive(task: Callable[[int], object], cfg: PrecisionConfig):
    """Rerun ``task(bits)`` at doubling precision until two consecutive runs
    agree to cfg.abs_tol.

    Returns (result, achieved_bits) where ``result`` is the output of the
    higher-precision run of the first agreeing pair and ``achieved_bits`` the
    precision at which the value was first confirmed.  Raises
    PrecisionExhausted if max_bits is reached without agreement.
    """
    bits = cfg.working_bits
    prev = task(bits)
    prev_bits = bits
    while bits < cfg.max_bits:
        bits = min(2 * bits, cfg.max_bits)
        cur = task(bits)
        if deviation(prev, cur, bits) <= cfg.abs_tol:
            return cur, prev_bits
        prev, prev_bits = cur, bits
    raise PrecisionExhausted(
        f"no agreement to {mpmath.nstr(cfg.abs_tol, 5)} at max_bits={cfg.max_bits}")
