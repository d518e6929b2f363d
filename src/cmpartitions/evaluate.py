"""High-precision evaluation of eta quotients, Eisenstein series, j and the
weight -2 / weight 0 pair (F, P) with its A + B*C split, at arbitrary points
of the upper half-plane.

Every point is reduced into the standard fundamental domain (numerically by
_reduce, or, at CM points given by their forms, exactly through the reduction
of the forms, with one kernel call per class in a _ClassTable), where one
sparse kernel gives eta, E2, E4 and E6 together: a
single exponential r = exp(pi i w) = q^(1/2), one table of its powers at the
pentagonal and theta exponents (on fixed-point Python ints), eta and E2 from
the pentagonal sum (E2 via theta(log eta) = E2/24) and E4, E6 from the theta
constants.  Values are transported back in one step (_transport) by the
reducing matrix: the automorphy factor cz + d, the quasimodular E2 shift and
the eta multiplier from Rademacher's Dedekind-sum formula.  Derivatives are
analytic, via theta(E2) = (E2^2 - E4)/12 and theta(log eta) = E2/24 -
numerical differentiation is demoted to a test oracle.
"""

from __future__ import annotations

import math as _math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mpc, mpf
from mpmath.libmp import from_man_exp, mpf_neg, to_fixed

from .errors import NearSingularity, NotUpperHalfPlane, PrecisionExhausted
from .precision import PrecisionConfig
from .quadforms import QuadForm, _root, reduce_with_matrix
from .series import (FP_E2_COMBINATION, FP_ETA_FACTORS, FP_PREFACTOR,
                     _pentagonal_exponents)


def _reduce(z: mpc):
    """Reduce z into the fundamental domain under the ambient precision.

    Returns (w, (a, b, c, d)) with w = (a z + b)/(c z + d), normalised so
    that c > 0, or c = 0 and d > 0.  This is the one place that rejects a
    point that is not finite with Im z > 0.
    """
    z = mpc(z)
    if not (mpmath.isfinite(z.real) and mpmath.isfinite(z.imag) and z.imag > 0):
        raise NotUpperHalfPlane(f"z = {mpmath.nstr(z, 10)} is not a finite point "
                                "of the upper half-plane")
    a, b, c, d = 1, 0, 0, 1
    for _ in range(100000):
        k = int(mpmath.nint(z.real))
        if k != 0:
            z = z - k
            a, b = a - k * c, b - k * d
        if abs(z) < 1:
            z = -1 / z
            a, b, c, d = -c, -d, a, b
        else:
            return z, _normalised((a, b, c, d))
    raise RuntimeError("fundamental domain reduction did not terminate")


def _normalised(m):
    """The sign of the matrix m that has c > 0, or c = 0 and d > 0."""
    return m if m[2] > 0 or (m[2] == 0 and m[3] > 0) else tuple(-x for x in m)


def _dedekind_sum(h: int, k: int) -> Fraction:
    """s(h, k) for k > 0 and gcd(h, k) = 1, by reciprocity:
    s(h, k) + s(k, h) = (h/k + k/h + 1/(hk))/12 - 1/4."""
    total = Fraction(0)
    sign = 1
    h %= k
    while h:
        total += sign * (Fraction(h * h + k * k + 1, 12 * h * k) - Fraction(1, 4))
        sign = -sign
        h, k = k % h, h
    return total


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


# Guard bits of the fixed-point kernels below, and the precision below which
# their error budget (in _reduced_basics) holds.
_GUARD = 32
_BUDGET_BITS = 1 << 15


def _check_budget(bits: int) -> None:
    if bits >= _BUDGET_BITS:
        raise PrecisionExhausted(f"{bits} bits asked of a kernel whose error budget "
                                 f"holds below {_BUDGET_BITS} bits")


def _fixed(z: mpc, prec: int) -> tuple[int, int]:
    """(re, im) of z as Python ints scaled by 2^prec, truncated."""
    return to_fixed(z._mpc_[0], prec), to_fixed(z._mpc_[1], prec)


def _to_mpc(z: tuple[int, int], prec: int, bits: int) -> mpc:
    """A fixed-point complex scaled by 2^prec, rounded to a bits-bit mpc."""
    return mpmath.mp.make_mpc((from_man_exp(z[0], -prec, bits, "n"),
                               from_man_exp(z[1], -prec, bits, "n")))


def _cmul(a: tuple[int, int], b: tuple[int, int], prec: int) -> tuple[int, int]:
    """Product of two fixed-point complex numbers from three integer products
    (Gauss), truncated back to scale 2^prec."""
    k1 = b[0] * (a[0] + a[1])
    k2 = a[0] * (b[1] - b[0])
    k3 = a[1] * (b[0] + b[1])
    return (k1 - k3) >> prec, (k1 + k2) >> prec


def _fourth(a: tuple[int, int], prec: int) -> tuple[int, int]:
    """a^4 in fixed point, by two squarings."""
    a2 = _cmul(a, a, prec)
    return _cmul(a2, a2, prec)


def _csum(terms) -> tuple[int, int]:
    """sum(c * z) over (integer weight c, fixed-point complex z) pairs."""
    terms = list(terms)
    return sum(c * z[0] for c, z in terms), sum(c * z[1] for c, z in terms)


def _size(z: tuple[int, int]) -> int:
    """Bits of the larger part of a fixed-point complex."""
    return max(z[0].bit_length(), z[1].bit_length())


def _cmul_within(a: tuple[int, int], b: tuple[int, int], prec: int,
                 m: int) -> tuple[int, int]:
    """_cmul(a, b, prec) to within a further 2^m units of its last place:
    each factor drops the low bits that, times the other factor, stay below
    2^(prec + m - 2), so small factors make cheap products."""
    ka = min(max(m + prec - 2 - _size(b), 0), prec)
    kb = min(max(m + prec - 2 - _size(a), 0), prec - ka)
    return _cmul((a[0] >> ka, a[1] >> ka), (b[0] >> kb, b[1] >> kb), prec - ka - kb)


# Bits below a product's last place that a cut factor keeps, and the
# precision from which _power_table cuts: below it the bookkeeping costs more
# than the cuts save (_reduced_basics: 23% slower at 288 bits, 6% faster at
# 1056 and 9% at 4128).
_TAPER = 16
_TAPER_BITS = 1 << 11


def _power_table(x: tuple[int, int], exponents, prec: int) -> dict:
    """{e: x^e} in fixed point over a sparse set of exponents, ascending.

    Consecutive gaps are short (~sqrt of the largest exponent), so a small
    table of x^gap, extended as larger gaps come up, makes each listed power
    one product rather than an independent exponentiation.

    From prec = _TAPER_BITS on, the powers (which shrink as e grows,
    |x| < 1) are formed only to the accuracy they can contribute: each step x^e = x^prev x^gap
    keeps of x^gap only what reaches 2^-_TAPER of its last place, and a gap
    first needed at that step is formed to 2^-(_TAPER + 10) of what the
    current power can use (under 400 products add up to less than 2^-_TAPER
    of it).  A step then adds under 2^(-_TAPER + 1) of its last place to its
    truncation, which stays under the 2 ulp that the _reduced_basics budget
    allows per product, and at 30000 bits the table takes about half the
    time.
    """
    exps = sorted(set(exponents))
    one = (1 << prec, 0)
    gap_pow = [one, x]
    powers = {}
    acc = one
    prev = 0
    taper = prec >= _TAPER_BITS
    for e in exps:
        if taper:
            room = prec - _size(acc)
            while len(gap_pow) <= e - prev:
                gap_pow.append(_cmul_within(gap_pow[-1], x, prec, room - _TAPER - 10))
            acc = _cmul_within(acc, gap_pow[e - prev], prec, -_TAPER)
        else:
            while len(gap_pow) <= e - prev:
                gap_pow.append(_cmul(gap_pow[-1], x, prec))
            acc = _cmul(acc, gap_pow[e - prev], prec)
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

    The table, the sums, the theta fourth powers and E4, E6 run on Python
    ints scaled by 2^prec, prec = bits + _GUARD; q^(1/24) comes from
    mpmath, and only eta = q^(1/24) P and the quotient E2 are formed in mpc.

    Error budget.  On the fundamental domain |r| <= exp(-pi sqrt(3)/2)
    ~ 0.066 and |q^(1/24)| < 0.8, so every factor has modulus below 1: a
    product adds its own truncation (under 2 ulp = 2^(-prec+1)) to the
    errors of its factors without magnifying them.  Each table entry and
    each unweighted sum is therefore off by less than
    (#products) * 2^(-prec+2), with under 400 products for bits < 2^15.
    The weights e of sum s e q^e raise that sum's bound to
    (sum e) * 2^(-prec+2) < 2^(-prec+20), and the fourth powers, E4 and E6
    (all of modulus below 3) magnify the errors of the theta sums by less
    than 2^6.  After the factor 24 of E2, 32 guard bits keep eta, E2, E4
    and E6 within 2^(-bits-8) of exact for bits < 2^15; a call at or above
    that raises PrecisionExhausted.
    """
    _check_budget(bits)
    n = _nterms(bits, mpmath.im(w))
    prec = bits + _GUARD
    with mpmath.workprec(prec):
        q24 = mpmath.exp(mpmath.pi * mpc(0, 1) * w / 12)
    x4 = _fourth(_fixed(q24, prec), prec)
    r = _cmul(_cmul(x4, x4, prec), x4, prec)
    pent = list(_pentagonal_exponents(n))
    roots = range(1, _math.isqrt(2 * n - 1) + 1)  # r^(m^2) below r^(2n) = q^n
    oblongs = [m * (m + 1) for m in roots if m * (m + 1) < 2 * n]
    power = _power_table(r, [2 * e for e, _ in pent] + [m * m for m in roots] + oblongs,
                         prec)
    one = [(1, (1 << prec, 0))]
    p = _csum(one + [(s, power[2 * e]) for e, s in pent])
    theta_p = _csum((s * e, power[2 * e]) for e, s in pent)
    th3_4 = _fourth(_csum(one + [(2, power[m * m]) for m in roots]), prec)
    th4_4 = _fourth(_csum(one + [(2 - 4 * (m % 2), power[m * m]) for m in roots]), prec)
    th2_4 = _cmul((16 * r[0], 16 * r[1]),
                  _fourth(_csum(one + [(1, power[e]) for e in oblongs]), prec), prec)
    e4 = _csum((1, _cmul(t, t, prec)) for t in (th2_4, th3_4, th4_4))
    e6 = _cmul(_cmul(_csum([(1, th2_4), (1, th3_4)]), _csum([(1, th3_4), (1, th4_4)]), prec),
               _csum([(1, th4_4), (-1, th2_4)]), prec)
    p = _to_mpc(p, prec, bits)
    return {
        "eta": q24 * p,
        "e2": 1 + 24 * _to_mpc(theta_p, prec, bits) / p,
        "e4": _to_mpc(e4, prec + 1, bits),  # scale 2^(prec+1): the halving
        "e6": _to_mpc(e6, prec + 1, bits),
    }


def _j_reduced(w: mpc, bits: int, q: mpc | None = None) -> tuple[mpc, mpf]:
    """(j, eps): j at a fundamental-domain point w via the eta quotient
    u = 2^12 (eta(2w)/eta(w))^24 = 2^12 q prod (1 + q^k)^24 and the
    classical identity j = (u + 16)^3 / u, with a bound eps on its relative
    error.

    The fractional eta prefactors collapse to one factor of q, so a single
    exponential and two sparse pentagonal sums (sharing one table of q
    powers) give j; at very high precision this takes fewer products than
    E4^3 / Delta from the theta constants.  The table and both sums run in
    fixed point under the budget of _reduced_basics (|q| < 0.005 here).  u
    and j are formed in mpc at the guarded precision too: the 24th power
    and, near rho, the cancellation in u + 16 would otherwise cost up to
    10 bits of the ambient precision.  Like that budget, it is refused at
    bits >= 2^15.  q = exp(2 pi i w) is computed here unless the caller
    passes it (see _nomes).

    Error budget.  Let prec = bits + _GUARD and K = (2|u| + 16)/|u + 16|,
    which bounds |d log j / d log u| = |2u - 16|/|u + 16| and is at least 1;
    |w| >= 1 on the fundamental domain.  Each source is a relative error
    of j, for the exact j at any point within |w| 2^(2-bits) of w:
      - the rounding of the root: w off by up to |w| 2^(2-bits) (a root
        rounded at bits bits, and moved once more by _reduce at most), and
        |d log u / dw| = 2 pi |1 + 24 sum k q^k/(1 + q^k)| < 7, so less than
        28 K |w| 2^-bits;
      - the exponential: the argument 2 pi i w off by 2 pi |w| 2^(2-prec)
        and exp's own rounding, so q off by less than 2^(5-prec) |w|
        relative (2^(18-prec) |w| from _nomes), weighted by
        d log u / d log q < 1.2 and K;
      - the fixed-point sums: off by under 2^(-prec+11) each by the
        _reduced_basics budget, and of modulus above 0.99, so p2/p1 is off
        by under 2^(-prec+13) relative;
      - the 24th power: 24 times that plus five roundings, and the factor
        2^12 q, so u is off by under 2^(-prec+18) relative;
      - the cancellation |u|/|u + 16|: u + 16, its cube and the quotient
        carry u's error times at most 2K, plus four roundings.
    With 32 guard bits everything after the first item is under
    2^(-bits-12) K |w|, so the total is under 2^(5-bits) K |w|.  eps is
    twice that, 2^(6-bits) K |w|, so that the bound holds with K and |w|
    taken at 53 bits and at the computed u, and relative to the computed j.
    """
    _check_budget(bits)
    n = _nterms(bits, mpmath.im(w))
    prec = bits + _GUARD
    t1 = list(_pentagonal_exponents(n))
    t2 = [(2 * e, s) for e, s in _pentagonal_exponents((n + 1) // 2)]
    one = [(1, (1 << prec, 0))]
    with mpmath.workprec(prec):
        if q is None:
            q = mpmath.exp(mpmath.pi * mpc(0, 2) * w)
        power = _power_table(_fixed(q, prec), [e for e, _ in t1 + t2], prec)
        p1 = _to_mpc(_csum(one + [(s, power[e]) for e, s in t1]), prec, prec)
        p2 = _to_mpc(_csum(one + [(s, power[e]) for e, s in t2]), prec, prec)
        u = 4096 * q * _ipow(p2 / p1, 24)
        shifted = u + 16
        j = _ipow(shifted, 3) / u
    with mpmath.workprec(53):
        eps = abs(w) * (2 * abs(u) + 16) / abs(shifted) * mpf(2) ** (6 - bits)
    return j, eps


def _j_from_eta(z: mpc, bits: int, q: mpc | None = None) -> tuple[mpc, mpf]:
    """(j, relative error bound) anywhere on the upper half-plane along the
    eta-only route (j is invariant under the full modular group, so no
    transport is needed); the bound is _j_reduced's.  q = exp(2 pi i z), if
    given, is used when z needs no reduction."""
    w, m = _reduce(z)
    return _j_reduced(w, bits, q if m == (1, 0, 0, 1) else None)


def _transport(vals: dict, z: mpc, m) -> dict:
    """eta, E2, E4 and E6 at z from their values vals at w = m z,
    m = (a, b, c, d), by the automorphy factors of m alone:

        E4(z) = E4(w)/(cz + d)^4,   E6(z) = E6(w)/(cz + d)^6,
        E2(z) = (E2(w) + 6ic(cz + d)/pi)/(cz + d)^2,
        eta(z) = exp(-pi i k/12) eta(w)/sqrt(-i(cz + d)),

    with Rademacher's integer k = (a + d)/c - 12 s(d, c).  A translation
    (c = 0) has k = b and leaves all but the root of unity out.  One
    reciprocal r of cz + d serves every factor (1/sqrt(-i(cz + d)) =
    sqrt(i r), both arguments having positive real part), and the root of
    unity is skipped when k = 0 (mod 24).  vals is left as it is.
    """
    a, b, c, d = m
    k = int(Fraction(a + d, c) - 12 * _dedekind_sum(d, c)) if c else b
    eta = vals["eta"]
    if k % 24:
        eta = eta * mpmath.expjpi(mpf(-k % 24) / 12)
    if not c:
        return dict(vals, eta=eta)
    r = 1 / (c * mpc(z) + d)
    r2 = r * r
    return {"eta": eta * mpmath.sqrt(mpc(0, 1) * r),
            "e2": vals["e2"] * r2 + 6j * c * r / mpmath.pi,
            "e4": vals["e4"] * r2 * r2,
            "e6": vals["e6"] * r2 * r2 * r2}


def _basics(z: mpc, bits: int) -> dict:
    """eta, E2, E4 and E6 at z, from the kernel at the reduced point."""
    w, m = _reduce(z)
    return _transport(_reduced_basics(w, bits), z, m)


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


def _j_and_theta_j(z: mpc, cfg: PrecisionConfig):
    """(j, theta j) at z from one evaluation, theta j = -E4^2 E6 / Delta."""
    with mpmath.workprec(cfg.eval_bits):
        v = _basics(z, cfg.eval_bits)
        return _j_of(v), -(v["e4"] * v["e4"]) * v["e6"] / _ipow(v["eta"], 24)


def eval_theta_j(z: mpc, cfg: PrecisionConfig) -> mpc:
    """theta applied to j, analytically."""
    return _j_and_theta_j(z, cfg)[1]


def _combine(at: dict):
    """(F, thetaF) at z from the basics at[d] at d z, d = 1, 2, 3, 6, exactly
    by the chain rule: theta f(dz) = d * (theta f)(dz),
    theta E2 = (E2^2 - E4)/12, theta log eta = E2/24."""
    num = mpc(0)
    theta_num = mpc(0)
    for d, c in FP_E2_COMBINATION:
        e2d, e4d = at[d]["e2"], at[d]["e4"]
        num += c * e2d
        theta_num += c * d * (e2d * e2d - e4d) / 12
    den = mpc(1)
    theta_log_den = mpc(0)
    for d, e in FP_ETA_FACTORS:
        den *= _ipow(at[d]["eta"], e)
        theta_log_den += e * d * at[d]["e2"] / 24
    pre = mpf(FP_PREFACTOR.numerator) / FP_PREFACTOR.denominator
    return pre * num / den, pre * (theta_num - num * theta_log_den) / den


def _form_and_theta(z: mpc, bits: int):
    """(F(z), thetaF(z), basics at z) for the form F of series.fp_series,
    from the basics at z, 2z, 3z and 6z."""
    at = {d: _basics(d * z, bits) for d, _ in FP_ETA_FACTORS}
    return (*_combine(at), at[1])


def eval_form(z: mpc, cfg: PrecisionConfig) -> mpc:
    with mpmath.workprec(cfg.eval_bits):
        return _form_and_theta(z, cfg.eval_bits)[0]


def eval_theta_form(z: mpc, cfg: PrecisionConfig) -> mpc:
    with mpmath.workprec(cfg.eval_bits):
        return _form_and_theta(z, cfg.eval_bits)[1]


def _p_of(f: mpc, theta_f: mpc, z: mpc) -> mpc:
    """The weight-0 completion P = -thetaF - F/(2 pi Im z)."""
    return -theta_f - f / (2 * mpmath.pi * mpmath.im(z))


def eval_P(z: mpc, cfg: PrecisionConfig) -> mpc:
    with mpmath.workprec(cfg.eval_bits):
        f, theta_f, _ = _form_and_theta(z, cfg.eval_bits)
        return _p_of(f, theta_f, z)


def _conj(value):
    """The exact complex conjugate of an mpc, an mpf (itself), or a dict or
    tuple of them: the imaginary part is negated, nothing is rounded
    (mpmath.conj rounds to the ambient precision)."""
    if isinstance(value, dict):
        return {k: _conj(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return tuple(_conj(v) for v in value)
    if isinstance(value, mpc):
        re_part, im_part = value._mpc_
        return mpmath.mp.make_mpc((re_part, mpf_neg(im_part)))
    return value


def _nomes(forms, bits: int) -> list[mpc]:
    """q = exp(2 pi i w) at the roots w of reduced forms [a, b, c] that share
    a and the discriminant D, at the guarded precision of a bits-bit kernel:
    q = exp(-pi sqrt|D|/a) * exp(-pi i/a)^b, one real exponential and one
    root of unity for all of them, its powers by _ipow (conjugated for
    b < 0).  With |b| < 2^10 the power is off by under
    |b| (3 + 2 log2 |b|) 2^(1-prec) < 2^(16-prec) relative, and q by under
    2^(18-prec) |w|."""
    a, d = forms[0].a, forms[0].discriminant()
    if any((f.a, f.discriminant()) != (a, d) or abs(f.b) >= 1 << 10 for f in forms):
        raise ValueError("forms must share a and D, with |b| < 2^10")
    with mpmath.workprec(bits + _GUARD):
        modulus = mpmath.exp(-mpmath.pi * mpmath.sqrt(-d) / a)
        root = mpmath.expjpi(mpf(-1) / a)
        return [modulus * (_ipow(root, f.b) if f.b >= 0 else _conj(_ipow(root, -f.b)))
                for f in forms]


class _ClassTable(dict):
    """Reduced form -> kernel(form), for the values at the forms' roots
    within one precision.  A miss runs the kernel once; every value (a miss's
    or one computed elsewhere and ``put``) also fills the mirror [a, -b, c],
    when it is reduced and distinct, with the exact conjugate: its root is
    -conj of the form's, and eta, E2, E4, E6 and j have real Fourier
    coefficients."""

    def __init__(self, kernel):
        super().__init__()
        self.kernel = kernel

    def __missing__(self, red: QuadForm):
        return self.put(red, self.kernel(red))

    def put(self, red: QuadForm, value):
        self[red] = value
        mirror = QuadForm(red.a, -red.b, red.c)
        if mirror != red and mirror.is_reduced():
            self[mirror] = _conj(value)
        return value


def eval_P_cm(forms, cfg: PrecisionConfig) -> list:
    """P at the CM points alpha of forms [a, b, c] with 6 | a, with one
    kernel call per SL2(Z) class.

    d alpha (d = 1, 2, 3, 6) is the CM point of [a/d, b, dc], of the same
    discriminant.  reduce_with_matrix gives its reduced form R and g with
    [a/d, b, dc] g = R, so R's root is g^-1 (d alpha): the kernel runs once
    per R (and its mirror) in a _ClassTable, at R's root, and _transport
    carries the value by g^-1.  The table lives for one call.
    """
    bits = cfg.eval_bits
    values = []
    with mpmath.workprec(bits):
        table = _ClassTable(lambda red: _reduced_basics(_root(red), bits))
        for form in forms:
            if form.a % 6:
                raise ValueError(f"form {form} has 6 not dividing a")
            at = {}
            for d, _ in FP_ETA_FACTORS:
                point = QuadForm(form.a // d, form.b, d * form.c)
                red, (p, q, r, s) = reduce_with_matrix(point)
                at[d] = _transport(table[red], _root(point), _normalised((s, -q, -r, p)))
            values.append(_p_of(*_combine(at), _root(form)))
    return values


def _guarded_j(v: dict, cfg: PrecisionConfig) -> mpc:
    """j from the basics at a point, refused within 2^(-working_bits/4) of a
    zero of j, j - 1728, E4 or E6, where A, B and C have poles."""
    jval = _j_of(v)
    threshold = mpf(2) ** (-(cfg.working_bits // 4))
    for name, x in (("j", jval), ("j_1728", jval - 1728), ("e4", v["e4"]), ("e6", v["e6"])):
        if abs(x) < threshold:
            raise NearSingularity(f"|{name}| = {mpmath.nstr(abs(x), 5)} below guard")
    return jval


def _c_of(v: dict, jval: mpc, z: mpc) -> mpc:
    """C = E4/(6 E6 j) * (E2 - 3/(pi y)) - (7j - 6912)/(6 j (j - 1728)) from
    the basics and j at z."""
    e2star = v["e2"] - 3 / (mpmath.pi * mpmath.im(mpc(z)))
    return (v["e4"] * e2star / (6 * v["e6"] * jval)
            - (7 * jval - 6912) / (6 * jval * (jval - 1728)))


def _values(z: mpc, cfg: PrecisionConfig) -> dict:
    """P, A, B, C, A' and j at z from one evaluation, keyed "p", "a", "b",
    "c", "aprime" and "j", under the ambient precision, with

        A = -thetaF - F E2/6 + F E6 (7j - 6912)/(6 E4 (j - 1728)),
        B = F E6 j / E4,   A' = A j (j - 1728),

    so that P = A + B C, and A' is regular at CM points of the
    discriminants in use."""
    f, theta_f, v = _form_and_theta(z, cfg.eval_bits)
    jval = _guarded_j(v, cfg)
    a = (-theta_f - f * v["e2"] / 6
         + f * v["e6"] * (7 * jval - 6912) / (6 * v["e4"] * (jval - 1728)))
    return {"p": _p_of(f, theta_f, z), "a": a, "b": f * v["e6"] * jval / v["e4"],
            "c": _c_of(v, jval, z), "aprime": a * jval * (jval - 1728), "j": jval}


def eval_A(z: mpc, cfg: PrecisionConfig) -> mpc:
    with mpmath.workprec(cfg.eval_bits):
        return _values(z, cfg)["a"]


def eval_B(z: mpc, cfg: PrecisionConfig) -> mpc:
    with mpmath.workprec(cfg.eval_bits):
        return _values(z, cfg)["b"]


def eval_C(z: mpc, cfg: PrecisionConfig) -> mpc:
    """C from the basics at z alone; level-1 invariant, so the value at a CM
    point only depends on its class."""
    with mpmath.workprec(cfg.eval_bits):
        v = _basics(z, cfg.eval_bits)
        return _c_of(v, _guarded_j(v, cfg), z)


def eval_Aprime(z: mpc, cfg: PrecisionConfig) -> mpc:
    with mpmath.workprec(cfg.eval_bits):
        return _values(z, cfg)["aprime"]


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


def atkin_lehner_check(d: int, z: mpc, cfg: PrecisionConfig) -> ALCheck:
    if d not in ATKIN_LEHNER_MATRICES:
        raise ValueError(f"d = {d} is not an exact divisor of level 6")
    return al_deviation(lambda w: eval_form(w, cfg), d, z, cfg)
