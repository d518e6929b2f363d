"""High-precision evaluation of eta quotients, Eisenstein series, j and the
weight -2 / weight 0 pair (F, P) with its A + B*C split, at arbitrary points
of the upper half-plane.

Every point evaluation routes through reduction into the standard fundamental
domain, where one sparse kernel gives eta, E2, E4 and E6 together: a single
exponential r = exp(pi i w) = q^(1/2), one table of its powers at the
pentagonal and theta exponents, eta and E2 from the pentagonal sum (E2 via
theta(log eta) = E2/24) and E4, E6 from the theta constants.  Values are
transported back along the exact word of T/S moves, accumulating the
automorphy factor (including the quasimodular E2 shift and the eta
multiplier) step by step.  Derivatives are analytic, via
theta(E2) = (E2^2 - E4)/12 and theta(log eta) = E2/24 - numerical
differentiation is demoted to a test oracle.
"""

from __future__ import annotations

import math as _math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mpc, mpf

from .errors import NearSingularity, NotUpperHalfPlane
from .precision import PrecisionConfig
from .quadforms import _mat_mul
from .series import (FP_E2_COMBINATION, FP_ETA_FACTORS, FP_PREFACTOR,
                     _pentagonal_exponents)


@dataclass(frozen=True)
class ReductionWord:
    """Word in T, S carrying a point into the standard fundamental domain."""

    matrix: tuple[int, int, int, int]
    word: tuple[tuple, ...]

    def __len__(self):
        return len(self.word)


@dataclass(frozen=True)
class FormDescriptor:
    """prefactor * sum(c_d E2(d z)) / prod(eta(d z)^e_d), weight -2 shape."""

    e2_terms: tuple[tuple[int, Fraction], ...]
    eta_factors: tuple[tuple[int, int], ...]
    prefactor: Fraction
    level: int
    weight: int = -2


def partition_form() -> FormDescriptor:
    """The level-6 weight -2 form whose CM values encode partition numbers."""
    return FormDescriptor(
        e2_terms=tuple((d, Fraction(c)) for d, c in FP_E2_COMBINATION),
        eta_factors=FP_ETA_FACTORS,
        prefactor=FP_PREFACTOR,
        level=6,
    )


_S = (0, -1, 1, 0)


def _walk(z: mpc):
    """Reduce z into the fundamental domain under the ambient precision.

    Returns (z_reduced, steps) where each step is ('T', m, z_before) meaning
    z -> z + m, or ('S', None, z_before) meaning z -> -1/z.
    """
    steps = []
    for _ in range(100000):
        k = int(mpmath.nint(mpmath.re(z)))
        if k != 0:
            steps.append(("T", -k, z))
            z = z - k
        if abs(z) < 1:
            steps.append(("S", None, z))
            z = -1 / z
        else:
            return z, steps
    raise RuntimeError("fundamental domain reduction did not terminate")


def reduce_to_fundamental(z: mpc, cfg: PrecisionConfig):
    """Reduce z to the standard fundamental domain; returns (z_red, word)."""
    z = mpc(z)
    if not mpmath.im(z) > 0:
        raise NotUpperHalfPlane(f"Im(z) = {mpmath.im(z)} is not positive")
    with mpmath.workprec(cfg.eval_bits):
        z_red, steps = _walk(z)
    matrix = (1, 0, 0, 1)
    word = []
    for kind, param, _ in steps:
        if kind == "T":
            matrix = _mat_mul((1, param, 0, 1), matrix)
            word.append(("T", param))
        else:
            matrix = _mat_mul(_S, matrix)
            word.append(("S",))
    return z_red, ReductionWord(matrix=matrix, word=tuple(word))


def _nterms(bits: int, im_w) -> int:
    """Series length so the geometric tail exp(-2 pi Im(w) N) is below 2^-bits."""
    n = int(bits * _math.log(2) / (2 * _math.pi * float(im_w))) + 9
    return max(n, 4)


def _ipow(x: mpc, n: int) -> mpc:
    """x**n for n >= 0 by binary squaring: mpmath routes complex integer
    powers through log/exp, which dominates profiles at high precision."""
    if n == 0:
        return mpc(1)
    result = None
    base = x
    while n:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if n:
            base = base * base
    return result


def _power_table(x: mpc, exponents) -> dict:
    """{e: x^e} over a sparse set of exponents, walked in ascending order.

    Consecutive gaps are short (~sqrt of the largest exponent), so a small
    table of x^gap makes each listed power one product rather than an
    independent exponentiation.
    """
    exps = sorted(set(exponents))
    max_gap = max((b - a for a, b in zip([0] + exps, exps)), default=0)
    gap_pow = [mpc(1), x]
    while len(gap_pow) <= max_gap:
        gap_pow.append(gap_pow[-1] * x)
    powers = {}
    acc = mpc(1)
    prev = 0
    for e in exps:
        acc = acc * gap_pow[e - prev]
        powers[e] = acc
        prev = e
    return powers


def _reduced_basics(w: mpc, bits: int) -> dict:
    """eta, E2, E4 and E6 at a fundamental-domain point from one exponential.

    With r = exp(pi i w) = q^(1/2) and the pentagonal sum P = sum s q^e:

        eta = q^(1/24) P,   E2 = 1 + 24 (sum s e q^e) / P,
        E4 = (th2^8 + th3^8 + th4^8) / 2,
        E6 = (th2^4 + th3^4) (th3^4 + th4^4) (th4^4 - th2^4) / 2,

    where th3, th4 = sum (+-1)^m r^(m^2) and th2^4 = 16 r (sum r^(m(m+1)))^4.
    Every power of r comes from one sparse table; each sum has O(sqrt n) terms.
    """
    n = _nterms(bits, mpmath.im(w))
    q24 = mpmath.exp(mpmath.pi * mpc(0, 1) * w / 12)
    r = _ipow(q24, 12)
    pent = list(_pentagonal_exponents(n))
    roots = range(1, _math.isqrt(2 * n - 1) + 1)  # r^(m^2) below r^(2n) = q^n
    oblongs = [m * (m + 1) for m in roots if m * (m + 1) < 2 * n]
    power = _power_table(r, [2 * e for e, _ in pent] + [m * m for m in roots] + oblongs)
    qe = [power[2 * e] for e, _ in pent]
    p = 1 + mpmath.fdot([s for _, s in pent], qe)
    theta_p = mpmath.fdot([s * e for e, s in pent], qe)
    even = mpmath.fsum(power[m * m] for m in roots if m % 2 == 0)
    odd = mpmath.fsum(power[m * m] for m in roots if m % 2)
    th3, th4 = 1 + 2 * (even + odd), 1 + 2 * (even - odd)
    th2_4 = 16 * r * _ipow(1 + mpmath.fsum(power[e] for e in oblongs), 4)
    th3_4, th4_4 = _ipow(th3, 4), _ipow(th4, 4)
    return {
        "eta": q24 * p,
        "e2": 1 + 24 * theta_p / p,
        "e4": (th2_4 * th2_4 + th3_4 * th3_4 + th4_4 * th4_4) / 2,
        "e6": (th2_4 + th3_4) * (th3_4 + th4_4) * (th4_4 - th2_4) / 2,
    }


def _j_reduced(w: mpc, bits: int) -> mpc:
    """j at a fundamental-domain point via the eta quotient
    u = 2^12 (eta(2w)/eta(w))^24 and the classical identity
    j = (u + 16)^3 / u.

    The fractional eta prefactors collapse to one factor of q, so a single
    exponential and two sparse pentagonal sums (sharing one table of q
    powers) give j; at very high precision this takes fewer products than
    E4^3 / Delta from the theta constants.
    """
    n = _nterms(bits, mpmath.im(w))
    q = mpmath.exp(mpmath.pi * mpc(0, 2) * w)
    t1 = list(_pentagonal_exponents(n))
    t2 = [(2 * e, s) for e, s in _pentagonal_exponents((n + 1) // 2)]
    power = _power_table(q, [e for e, _ in t1 + t2])
    p1 = 1 + mpmath.fdot([s for _, s in t1], [power[e] for e, _ in t1])
    p2 = 1 + mpmath.fdot([s for _, s in t2], [power[e] for e, _ in t2])
    u = 4096 * q * _ipow(p2 / p1, 24)
    return _ipow(u + 16, 3) / u


def _j_from_eta(z: mpc, bits: int) -> mpc:
    """j anywhere on the upper half-plane along the eta-only route (j is
    invariant under the full modular group, so no transport is needed)."""
    w, _ = _walk(mpc(z))
    return _j_reduced(w, bits)


def _basics(z: mpc, bits: int) -> dict:
    """eta, E2, E4 and E6 at z, by reduction and transport."""
    if not mpmath.im(z) > 0:
        raise NotUpperHalfPlane(f"Im(z) = {mpmath.im(z)} is not positive")
    w, steps = _walk(mpc(z))
    vals = _reduced_basics(w, bits)
    pi = +mpmath.pi
    for kind, param, zb in reversed(steps):
        if kind == "T":
            vals["eta"] *= mpmath.exp(mpc(0, -1) * pi * param / 12)
        else:
            vals["eta"] /= mpmath.sqrt(mpc(0, -1) * zb)
            zb2 = zb * zb
            vals["e2"] = (vals["e2"] + 6j * zb / pi) / zb2
            vals["e4"] /= zb2 * zb2
            vals["e6"] /= zb2 * zb2 * zb2
    return vals


def _j_of(v: dict) -> mpc:
    """j = E4^3 / Delta from the basics at one point."""
    return _ipow(v["e4"], 3) / _ipow(v["eta"], 24)


def eval_eta(z: mpc, cfg: PrecisionConfig) -> mpc:
    with mpmath.workprec(cfg.eval_bits):
        return _basics(z, cfg.eval_bits)["eta"]


def eval_eisenstein(k: int, z: mpc, cfg: PrecisionConfig) -> mpc:
    if k not in (2, 4, 6):
        raise ValueError(f"unsupported Eisenstein weight {k}")
    with mpmath.workprec(cfg.eval_bits):
        return _basics(z, cfg.eval_bits)[f"e{k}"]


def eval_j(z: mpc, cfg: PrecisionConfig) -> mpc:
    with mpmath.workprec(cfg.eval_bits):
        return _j_of(_basics(z, cfg.eval_bits))


def eval_theta_j(z: mpc, cfg: PrecisionConfig) -> mpc:
    """theta applied to j, analytically: -E4^2 E6 / Delta."""
    with mpmath.workprec(cfg.eval_bits):
        v = _basics(z, cfg.eval_bits)
        return -(v["e4"] * v["e4"]) * v["e6"] / _ipow(v["eta"], 24)


def _form_and_theta(desc: FormDescriptor, z: mpc, bits: int):
    """(F(z), thetaF(z), basics at z) from per-multiple basics, exactly by
    the chain rule: theta f(dz) = d * (theta f)(dz),
    theta E2 = (E2^2 - E4)/12, theta log eta = E2/24."""
    multiples = {1} | {d for d, _ in desc.e2_terms + desc.eta_factors}
    at = {d: _basics(d * z, bits) for d in multiples}
    num = mpc(0)
    theta_num = mpc(0)
    for d, c in desc.e2_terms:
        cc = mpc(c.numerator) / c.denominator
        e2d, e4d = at[d]["e2"], at[d]["e4"]
        num += cc * e2d
        theta_num += cc * d * (e2d * e2d - e4d) / 12
    den = mpc(1)
    theta_log_den = mpc(0)
    for d, e in desc.eta_factors:
        den *= _ipow(at[d]["eta"], e) if e >= 0 else 1 / _ipow(at[d]["eta"], -e)
        theta_log_den += mpf(e) * d * at[d]["e2"] / 24
    pre = mpc(desc.prefactor.numerator) / desc.prefactor.denominator
    f = pre * num / den
    theta_f = pre * (theta_num - num * theta_log_den) / den
    return f, theta_f, at[1]


def eval_form(desc: FormDescriptor, z: mpc, cfg: PrecisionConfig) -> mpc:
    with mpmath.workprec(cfg.eval_bits):
        return _form_and_theta(desc, z, cfg.eval_bits)[0]


def eval_theta_form(desc: FormDescriptor, z: mpc, cfg: PrecisionConfig) -> mpc:
    with mpmath.workprec(cfg.eval_bits):
        return _form_and_theta(desc, z, cfg.eval_bits)[1]


def eval_P(desc: FormDescriptor, z: mpc, cfg: PrecisionConfig) -> mpc:
    """The weight-0 completion -thetaF - F/(2 pi Im z)."""
    with mpmath.workprec(cfg.eval_bits):
        f, theta_f, _ = _form_and_theta(desc, z, cfg.eval_bits)
        return -theta_f - f / (2 * mpmath.pi * mpmath.im(z))


def _guarded_j(v: dict, cfg: PrecisionConfig) -> mpc:
    """j from the basics at a point, refused within 2^(-working_bits/4) of a
    zero of j, j - 1728, E4 or E6, where A, B and C have poles."""
    jval = _j_of(v)
    threshold = mpf(2) ** (-(cfg.working_bits // 4))
    for name, x in (("j", jval), ("j_1728", jval - 1728), ("e4", v["e4"]), ("e6", v["e6"])):
        if abs(x) < threshold:
            raise NearSingularity(f"|{name}| = {mpmath.nstr(abs(x), 5)} below guard")
    return jval


def _a_b_j(desc: FormDescriptor, z: mpc, cfg: PrecisionConfig):
    """(A, B, j) at z, with A = -thetaF - F E2/6 + F E6 (7j - 6912)/(6 E4 (j - 1728))
    and B = F E6 j / E4."""
    f, theta_f, v = _form_and_theta(desc, z, cfg.eval_bits)
    jval = _guarded_j(v, cfg)
    a = (-theta_f - f * v["e2"] / 6
         + f * v["e6"] * (7 * jval - 6912) / (6 * v["e4"] * (jval - 1728)))
    return a, f * v["e6"] * jval / v["e4"], jval


def eval_A(desc: FormDescriptor, z: mpc, cfg: PrecisionConfig) -> mpc:
    with mpmath.workprec(cfg.eval_bits):
        return _a_b_j(desc, z, cfg)[0]


def eval_B(desc: FormDescriptor, z: mpc, cfg: PrecisionConfig) -> mpc:
    with mpmath.workprec(cfg.eval_bits):
        return _a_b_j(desc, z, cfg)[1]


def eval_C(z: mpc, cfg: PrecisionConfig) -> mpc:
    """E4/(6 E6 j) * (E2 - 3/(pi y)) - (7j - 6912)/(6 j (j - 1728)); level-1
    invariant, so the value at a CM point only depends on its class."""
    with mpmath.workprec(cfg.eval_bits):
        v = _basics(z, cfg.eval_bits)
        jval = _guarded_j(v, cfg)
        e2star = v["e2"] - 3 / (mpmath.pi * mpmath.im(mpc(z)))
        return (v["e4"] * e2star / (6 * v["e6"] * jval)
                - (7 * jval - 6912) / (6 * jval * (jval - 1728)))


def eval_Aprime(desc: FormDescriptor, z: mpc, cfg: PrecisionConfig) -> mpc:
    """A * j * (j - 1728), regular at CM points of the discriminants in use."""
    with mpmath.workprec(cfg.eval_bits):
        a, _, jval = _a_b_j(desc, z, cfg)
        return a * jval * (jval - 1728)


ATKIN_LEHNER_MATRICES = {2: (2, -1, 6, -2), 3: (3, 1, 6, 3), 6: (0, -1, 6, 0)}


@dataclass(frozen=True)
class ALCheck:
    deviation: mpf
    sign: int


def al_deviation(fn, d: int, z: mpc, cfg: PrecisionConfig) -> ALCheck:
    """Deviation of fn from being a weight -2 eigenfunction of the level-6
    Atkin-Lehner involution W_d, minimized over both signs."""
    p, q, r, s = ATKIN_LEHNER_MATRICES[d]
    with mpmath.workprec(cfg.eval_bits):
        z = mpc(z)
        wz = (p * z + q) / (r * z + s)
        fw = fn(wz)
        rz = r * z + s
        base = d / (rz * rz) * fn(z)
        scale = 1 + abs(base)
        dev_plus = abs(fw - base) / scale
        dev_minus = abs(fw + base) / scale
    if dev_plus <= dev_minus:
        return ALCheck(deviation=dev_plus, sign=1)
    return ALCheck(deviation=dev_minus, sign=-1)


def atkin_lehner_check(desc: FormDescriptor, d: int, z: mpc,
                       cfg: PrecisionConfig) -> ALCheck:
    if d not in ATKIN_LEHNER_MATRICES:
        raise ValueError(f"d = {d} is not an exact divisor of level 6")
    return al_deviation(lambda w: eval_form(desc, w, cfg), d, z, cfg)
