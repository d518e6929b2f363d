"""High-precision evaluation of eta quotients, Eisenstein series, j and the
weight -2 / weight 0 pair (F, P) with its A + B*C split.

Every caller hands over the integer form whose root is its point: a CM form,
an exact image of one, or at the public eval_*(z, cfg) the form of z's exact
binary value (_form); 1/(2 pi Im) = a/(pi sqrt|D|) is read off the form
(_form_and_theta).  One sparse kernel gives eta^2, E2, E4 and E6 at the
reduced root (_reducing) from one exponential q^(1/12) and a table of
powers of q^(1/2), once per class of the caller's _ClassTable.  From the kernel to F, thetaF and P values
are fixed-point Gaussian ints (Python ints scaled by 2^prec, _cmul); eta^2
carries its own power of two, so a product of them (2^-1800 at Im z = 200)
keeps its relative precision.  _transport carries values back by the
reducing matrix and t = i/(cz + d), in integers (_t), eta^2 with a twelfth
root of unity from Rademacher's integer k (_eta_k).  Derivatives are
analytic: theta(E2) = (E2^2 - E4)/12, theta(log eta) = E2/24.  Every
fixed-point value carries an integer error exponent (_emul, _esum, _ediv,
_eprod), seeded by the kernels' budgets: the bounds of P at CM points
(eval_P_cm), of the eval command (_eval_bounded) and of j (_j_reduced).

Two tails take the basics on to j, theta j, A, B, C and A' = A j (j - 1728)
with one statement of each formula (_j_of, _j_and_theta, _abc), in whatever
arithmetic their numbers carry.  The verify commands' internal callers
(_values, _j_and_theta_j) stay on the pairs (_Pair: _emul, _ediv, _esum)
and round to mpc once at the end; the public eval_* and the eval command
round the basics to mpc first and bound the mpc tail in mpmath.iv, whose
relative boxes stay tight where a fixed-point bound is absolute (C near
2^-1700 at 200i).
"""

from __future__ import annotations

import cmath
import functools
import math as _math

import mpmath
from mpmath import mpc, mpf
from mpmath.libmp import from_man_exp, mpf_div, mpf_neg, pi_fixed, to_fixed

from .errors import NearSingularity, NotUpperHalfPlane, PrecisionExhausted
from .precision import PrecisionConfig
from .quadforms import QuadForm, reduce_with_matrix
from .series import (FP_E2_COMBINATION, FP_ETA_FACTORS, FP_PREFACTOR,
                     _pentagonal_exponents, _power)


def _form(z: mpc) -> QuadForm:
    """The form 36 [4^-low, -x 2^(1-low), x^2 + y^2] of z's exact binary value
    (x + i y) 2^low: 6 | a as at a CM point, and an exact isqrt of |D| =
    (72 y 2^-low)^2.  The one place that rejects z not finite with Im z > 0."""
    z = mpmath.mpmathify(z)  # not mpc(z), which rounds
    if not (isinstance(z, mpc) and mpmath.isfinite(z) and z.imag > 0):
        raise NotUpperHalfPlane(f"z = {mpmath.nstr(z, 10)} is not a finite point "
                                "of the upper half-plane")
    (sx, x, ex, _), (_, y, ey, _) = z._mpc_
    low = min(ex, ey, 0)
    x, y = (-x if sx else x) << (ex - low), y << (ey - low)
    return QuadForm(36 << -2 * low, -36 * x << 1 - low, 36 * (x * x + y * y))


def _reducing(form: QuadForm):
    """(R, m): R = form g reduced (reduce_with_matrix), and m = g^-1 with the
    sign that has c > 0, or c = 0 and d > 0; m carries the root of form to
    the root of R."""
    red, (p, q, r, s) = reduce_with_matrix(form)
    m = (s, -q, -r, p)
    return red, m if r < 0 or (r == 0 and p > 0) else tuple(-x for x in m)


@functools.lru_cache(maxsize=64)
def _sqrt_disc(disc: int, prec: int) -> tuple[int, bool]:
    """(isqrt(|D| 2^2prec), whether it is exact), once per discriminant."""
    root = _math.isqrt(-disc << 2 * prec)
    return root, root * root == -disc << 2 * prec


def _quotient(n: int, e: int, d: int, prec: int):
    """n 2^e / d rounded at prec, trailing zeros shifted out at once (libmp
    strips them bytewise) and an exact dyadic quotient divided out first."""
    j = (d & -d).bit_length() - 1
    if not n % (d >> j):
        n, e, d, j = n // (d >> j), e - j, 1, 0
    k = max((n & -n).bit_length() - 1, 0)
    return mpf_div(from_man_exp(n >> k, e + k), from_man_exp(d >> j, j), prec, "n")


def _form_root(form: QuadForm, prec: int) -> mpc:
    """The root (-b + i sqrt|D|)/(2a) of form, -b and the isqrt rounded at
    prec over 2a (bit for bit mpc(-b, ldexp(isqrt, -prec))/(2a) at CM forms)."""
    _, im, ex, _ = _quotient(_sqrt_disc(form.discriminant(), prec)[0], -prec, 1, prec)
    return mpmath.mp.make_mpc((_quotient(-form.b, 0, 2 * form.a, prec),
                               _quotient(im, ex, 2 * form.a, prec)))


def _t(form: QuadForm, red: QuadForm, m, prec: int):
    """t = i/(c alpha + d) = (c sqrt|D| + iX)/(2A), X = 2ad - cb', at the root
    alpha of form [a, b, c'] for the normalised m = (p, q, c, d) that
    carries it to the root of red = [A, ., .] (X^2 + c^2 |D| = 4aA), in
    integers (_sqrt_disc): a (value, error exponent) pair (_emul), each part
    truncated, the real part moved c/(2A) more units by an inexact isqrt."""
    (_, _, c, d), a2 = m, 2 * red.a
    root, exact = _sqrt_disc(form.discriminant(), prec)
    t = (c * root // a2, (2 * form.a * d - c * form.b << prec) // a2)
    return t, 1 if exact else (c // a2 + 3).bit_length()


def _dedekind6(h: int, k: int) -> int:
    """The integer 6k s(h, k) for k > 0 and gcd(h, k) = 1, by reciprocity:
    12hk (s(h, k) + s(k, h)) = h^2 + k^2 + 1 - 3hk, s(h, k) = s(h mod k, k)."""
    h %= k
    if not h:
        return 0
    return (h * h + k * k + 1 - 3 * h * k - 2 * k * _dedekind6(k, h)) // (2 * h)


def _eta_k(m) -> int:
    """Rademacher's integer k of a normalised m = (a, b, c, d), for which
    eta(m z) = exp(pi i k/12) sqrt(-i(cz + d)) eta(z):
    k = (a + d)/c - 12 s(d, c) = (a + d - 2 (6c s(d, c)))/c, and b if c = 0."""
    a, b, c, d = m
    return (a + d - 2 * _dedekind6(d, c)) // c if c else b


def _nterms(bits: int, im_w) -> int:
    """Series length so the geometric tail exp(-2 pi Im(w) N) is below 2^-bits."""
    return max(int(bits * _math.log(2) / (2 * _math.pi * float(im_w))) + 9, 4)


def _ipow(x: mpc, n: int) -> mpc:
    """x**n for n >= 0 by binary squaring (series._power)."""
    return _power(x, n) if n else mpc(1)


# Guard bits of the fixed-point kernels below, and the precision below which
# their error budget (in _reduced_basics) holds.
_GUARD = 32
_BUDGET_BITS = 1 << 15


def _check_budget(bits: int) -> None:
    if bits >= _BUDGET_BITS:
        shown = bits if bits < 10**6 else mpmath.nstr(mpf(bits), 3)
        raise PrecisionExhausted(f"{shown} bits asked of a kernel whose error budget "
                                 f"holds below {_BUDGET_BITS} bits")


def _fixed(z: mpc, prec: int) -> tuple[int, int]:
    """(re, im) of z as Python ints scaled by 2^prec, truncated."""
    return to_fixed(z._mpc_[0], prec), to_fixed(z._mpc_[1], prec)


def _to_mpc(z: tuple[int, int], prec: int, bits: int) -> mpc:
    """A fixed-point complex scaled by 2^prec as an mpc, rounded to bits
    bits (exact for bits = 0)."""
    return mpmath.mp.make_mpc((from_man_exp(z[0], -prec, bits, "n"),
                               from_man_exp(z[1], -prec, bits, "n")))


def _cmul(a: tuple[int, int], b: tuple[int, int], prec: int) -> tuple[int, int]:
    """Product of two fixed-point complex numbers from three integer products
    (Gauss), or two when b is real, truncated back to scale 2^prec."""
    if not b[1]:
        return a[0] * b[0] >> prec, a[1] * b[0] >> prec
    k1 = b[0] * (a[0] + a[1])
    k2 = a[0] * (b[1] - b[0])
    k3 = a[1] * (b[0] + b[1])
    return (k1 - k3) >> prec, (k1 + k2) >> prec


def _cdiv(a: tuple[int, int], b: tuple[int, int], prec: int) -> tuple[int, int]:
    """a/b in fixed point, from a conj(b) and |b|^2 (b nonzero)."""
    norm = b[0] * b[0] + b[1] * b[1]
    return (((a[0] * b[0] + a[1] * b[1]) << prec) // norm,
            ((a[1] * b[0] - a[0] * b[1]) << prec) // norm)


def _fourth(a: tuple[int, int], prec: int) -> tuple[int, int]:
    """a^4 in fixed point, by two squarings."""
    a2 = _cmul(a, a, prec)
    return _cmul(a2, a2, prec)


@functools.lru_cache(maxsize=32)
def _constants(prec: int):
    """(units[k] = exp(-pi i k/6) for k < 12, 1/pi) at scale 2^prec; one isqrt."""
    one, half, root3 = 1 << prec, 1 << (prec - 1), _math.isqrt(3 << 2 * prec) >> 1
    cos = (one, root3, half, 0, -half, -root3, -one, -root3, -half, 0, half, root3)
    return tuple((cos[k], -cos[k - 3]) for k in range(12)), (1 << 2 * prec) // pi_fixed(prec)


def _csum(terms) -> tuple[int, int]:
    """sum(c * z) over (integer weight c, fixed-point complex z) pairs."""
    terms = list(terms)
    return sum(c * z[0] for c, z in terms), sum(c * z[1] for c, z in terms)


def _size(z: tuple[int, int]) -> int:
    """Bits of the larger part of a fixed-point complex."""
    return max(z[0].bit_length(), z[1].bit_length())


# Error bounds ride along as integer exponents: a pair (z, e) is a
# fixed-point complex z at scale 2^prec within 2^e units of 2^-prec of the
# exact value.  |z| < 2^(_size(z) + 1/2) units.


def _emul(a, b, prec: int):
    """_cmul of two (value, error exponent) pairs, with its error exponent:
    |a| e_b + |b| e_a < 2^(m + 3/2) units, m = max(size a + e_b, size b +
    e_a) - prec, and e_a e_b and the truncation (under 2 units) are each
    below 2^s, s = max(e_a + e_b - prec, 1); under 2^(m + 2) in all when
    s <= m - 2, else under 2^(max(m, s) + 3)."""
    (x, ex), (y, ey) = a, b
    m = max(max(x[0].bit_length(), x[1].bit_length()) + ey,
            max(y[0].bit_length(), y[1].bit_length()) + ex) - prec
    small = max(ex + ey - prec, 1)
    return _cmul(x, y, prec), m + 2 if small <= m - 2 else max(m, small) + 3


def _esum(terms):
    """_csum over (integer weight, (value, error exponent)) pairs, with its
    error exponent: the bit length of sum |c| 2^e, inf if any e is."""
    re = im = err = 0
    for c, ((x, y), e) in terms:
        re, im = re + c * x, im + c * y
        err = _math.inf if e == _math.inf else err + (abs(c) << max(e, 0))
    return (re, im), err if err == _math.inf else err.bit_length()


def _eprod(pairs, prec: int):
    """The product P of (value, error exponent) pairs by _cmul, with its
    error exponent.  The exact product is P prod (1 + d_i) prod (1 - t_k/Q_k),
    |d_i| <= 2^e_i/|x_i| for the factors x_i and |t_k| < 2 the truncation of
    the k-th partial product Q_k: within (exp(rho) - 1)|P| < 2 rho |P| of P
    for rho = sum 2^e_i/|x_i| + sum 2/|Q_k| <= 1, else inf.  rho is summed,
    rounded up, in one integer at scale 2^s (|x| >= max(|Re x|, |Im x|),
    |Q_k| >= 2^(size Q_k - 1)); an _emul chain gives up 1-2 bits a product."""
    (acc, _), *rest = pairs
    sizes = []
    for x, _ in rest:
        acc = _cmul(acc, x, prec)
        sizes.append(_size(acc))
    if any(e == _math.inf for _, e in pairs):
        return acc, _math.inf
    s = max(_size(x) - max(e, 0) for x, e in pairs) + 20
    rho = sum(1 << max(s + 2 - size, 0) for size in sizes) + sum(
        (1 << max(e, 0) + s) // max(abs(x[0]), abs(x[1]), 1) + 1 for x, e in pairs)
    if rho > 1 << s:
        return acc, _math.inf
    return acc, ((rho * (abs(acc[0]) + abs(acc[1])) >> s - 1) + 1).bit_length()


def _ediv(a, b, prec: int):
    """_cdiv of two (value, error exponent) pairs, with its error exponent.
    With |b| >= 2^(size b - 1) units and b's error at most 2^(size b - 4),
    so that the exact |b*| >= 7|b|/8: e_a/|b*| < 2^(X + 1/5) and |a| e_b/(|b|
    |b*|) < 2^(X - 3/10) units, X = max(e_a - size b + 1, size a + e_b -
    2 size b + 3) + prec, and the truncation is under 2; in all under
    2^(max(X, 1) + 2).  Unbounded (inf) when b's error is larger."""
    (x, ex), (y, ey) = a, b
    sy = _size(y)
    if ey > sy - 4:
        return _cdiv(x, y, prec), _math.inf
    return _cdiv(x, y, prec), max(ex - sy + 1, _size(x) + ey - 2 * sy + 3, 1 - prec) + prec + 2


def _rounded(z, prec: int, bits: int):
    """(mpc, error exponent): the pair z at scale 2^prec rounded to a
    bits-bit mpc (exact for bits = 0), within 2^e absolute of the exact
    value: its error and the rounding, under 2^(size z - bits) units; inf
    stays inf, whatever prec."""
    (x, e) = z
    if e != _math.inf:
        e = (max(e, _size(x) - bits) + 1 if bits else e) - prec
    return _to_mpc(x, prec, bits), e


def _cmul_within(a: tuple[int, int], b: tuple[int, int], prec: int,
                 m: int) -> tuple[int, int]:
    """_cmul(a, b, prec) to within a further 2^m units of its last place:
    each factor drops the low bits that, times the other factor, stay below
    2^(prec + m - 2), so small factors make cheap products."""
    ka = min(max(m + prec - 2 - _size(b), 0), prec)
    kb = min(max(m + prec - 2 - _size(a), 0), prec - ka)
    return _cmul((a[0] >> ka, a[1] >> ka), (b[0] >> kb, b[1] >> kb), prec - ka - kb)


# Bits below a product's last place that a cut factor keeps, and the
# precision from which _power_table cuts (below it the bookkeeping costs more:
# _reduced_basics 23% slower at 288 bits, 6% faster at 1056, 9% at 4128).
_TAPER = 16
_TAPER_BITS = 1 << 11


def _power_table(x: tuple[int, int], exponents, prec: int) -> dict:
    """{e: x^e} in fixed point over a sparse set of exponents, ascending.
    The gaps are short (~sqrt of the largest exponent), so a table of x^gap
    makes each power one product.

    Below prec = _TAPER_BITS every gap up to the largest is formed, as
    x^gap = x^(gap - 1) x.  From _TAPER_BITS on, the powers (shrinking,
    |x| < 1) are formed only to the accuracy they can contribute, and only
    the gaps that occur: at the step that first needs a gap, it and the
    smaller gaps that occur are formed in ascending order, each as x^h
    x^(gap - h) from two gaps already held (one unused gap more where no two
    add up to it), to 2^-(_TAPER + 10) of what the current power can use,
    and each step x^e = x^prev x^gap keeps of x^gap what reaches 2^-_TAPER
    of its last place.  By induction x^gap carries at most gap - 1
    truncations, each made with no more room than the step that first uses
    it has, and gaps stay under 400, so they add up to less than 2^-_TAPER
    of that step's last place.  A step thus adds under 2^(-_TAPER + 1) of
    its last place to its truncation, within the 2 ulp per product of the
    _reduced_basics budget; at 30000 bits the table takes about half the
    time.
    """
    acc = one = (1 << prec, 0)
    powers, prev = {}, 0
    if prec < _TAPER_BITS:
        gap_pow = [one, x]
        for e in sorted(set(exponents)):
            while len(gap_pow) <= e - prev:
                gap_pow.append(_cmul(gap_pow[-1], x, prec))
            powers[e] = acc = _cmul(acc, gap_pow[e - prev], prec)
            prev = e
        return powers
    exponents = sorted(set(exponents))
    gaps = sorted({e - p for p, e in zip([0] + exponents, exponents)}, reverse=True)
    gap_pow = {1: x}
    for e in exponents:
        while gaps and gaps[-1] <= e - prev:
            _form_gap(gap_pow, gaps.pop(), prec, prec - _size(acc) - _TAPER - 10)
        acc = gap_pow[e] if not prev else _cmul_within(acc, gap_pow[e - prev], prec, -_TAPER)
        powers[e] = acc
        prev = e
    return powers


def _form_gap(gap_pow: dict, gap: int, prec: int, m: int) -> None:
    """Put x^gap into gap_pow (gap -> x^gap, holding x^1) unless held: the
    product, within 2^m units (_cmul_within), of the largest held x^h whose
    x^(gap - h) is held too, or else of the largest held x^h below gap and
    x^(gap - h), formed first."""
    if gap in gap_pow:
        return
    below = sorted((h for h in gap_pow if h < gap), reverse=True)
    h = next((h for h in below if gap - h in gap_pow), below[0])
    _form_gap(gap_pow, gap - h, prec, m)
    gap_pow[gap] = _cmul_within(gap_pow[h], gap_pow[gap - h], prec, m)


def _reduced_basics(w: mpc, bits: int) -> dict:
    """eta^2, E2, E4 and E6 at a fundamental-domain point as fixed-point
    Gaussian ints at scale 2^prec, prec = bits + _GUARD, with eta^2 =
    v["eta2"][0] 2^v["eta2_exp"].  With x 2^ex = q^(1/12), the one exponential
    (ex <= 0, the larger part of x in [1/2, 1)), r = q^(1/2) = x^6 2^(6 ex)
    and P = sum s q^e:
        eta^2 = q^(1/12) P^2,   E2 = 1 + 24 (sum s e q^e) / P,
        E4 = (th2^8 + th3^8 + th4^8) / 2,
        E6 = (th2^4 + th3^4) (th3^4 + th4^4) (th4^4 - th2^4) / 2,
    th3, th4 = sum (+-1)^m r^(m^2) and th2^4 = 16 r (sum r^(m(m+1)))^4,
    every power of r from one sparse table, each sum O(sqrt n) terms long.

    Error budget.  |r| <= exp(-pi sqrt(3)/2) ~ 0.066 on the fundamental
    domain, so the factors of the table and sums have modulus below 1 and a
    product adds its truncation (under 2 ulp = 2^(-prec+1)) to its factors'
    errors without magnifying them.  r is off by under 2^3 ulp: |x| < sqrt 2,
    and the shift by 6|ex| >= 6 bits absorbs what x^6 magnifies, unless
    ex = 0 and |x| < 0.64.  So a table entry or unweighted sum is off by
    under (#products) 2^(-prec+2), with under 400 products for bits < 2^15;
    the weights e raise the bound of sum s e q^e to (sum e) 2^(-prec+2) <
    2^(-prec+20), and the fourth powers, E4 and E6 (of modulus below 3)
    magnify the theta sums' errors by under 2^6.  After E2's factor 24, 32
    guard bits keep eta^2 (relative to 2^ex), E2, E4 and E6 within
    2^(-bits-8) for bits < 2^15; a call at or above that raises
    PrecisionExhausted.

    Each comes as a (value, error exponent) pair (units of 2^-prec, see
    _emul) whose exponent also covers the value at any point within
    4 |w| 2^-prec of w (_form_root rounds w within |w| 2^-prec): |d/dw| of
    each is under 2^5 on the fundamental domain (|E2| < 1.2, |E4| < 2.1,
    |E6| < 3.3, d/dw = 2 pi i theta).
    """
    _check_budget(bits)
    n = _nterms(bits, mpmath.im(w))
    prec = bits + _GUARD
    with mpmath.workprec(prec):
        q12 = mpmath.exp(mpmath.pi * mpc(0, 1) * w / 6)
    ex = max(part[2] + part[3] for part in q12._mpc_ if part[1])
    x = _fixed(q12, prec - ex)
    x3 = _cmul(_cmul(x, x, prec), x, prec)
    r = _cmul(x3, x3, prec)
    r = (r[0] >> -6 * ex, r[1] >> -6 * ex)
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
    e2 = _cdiv(theta_p, p, prec)
    err = max(_GUARD - 8, int(mpmath.mag(w)) + 7) + 1
    return {
        "eta2": (_cmul(x, _cmul(p, p, prec), prec), err), "eta2_exp": ex,
        "e2": (((1 << prec) + 24 * e2[0], 24 * e2[1]), err),
        "e4": ((e4[0] >> 1, e4[1] >> 1), err),
        "e6": ((e6[0] >> 1, e6[1] >> 1), err),
    }


def _j_reduced(w: mpc, bits: int, nome=None):
    """j at a fundamental-domain point w as a (value, error exponent) pair
    at scale 2^prec, prec = bits + _GUARD (_emul), from the eta quotient
    u = 2^12 (eta(2w)/eta(w))^24 = 2^12 q r^24, r = p2/p1 = prod (1 + q^k)
    for the pentagonal sums p1 = prod (1 - q^k) and p2 = prod (1 - q^2k):
        j = (u + 16)^3 / u = q^-1 / r^24 + 768 + 48 u + u^2,
    its leading q^-1 read from a fixed point of 1/q, so that it keeps its
    relative precision at small |q|.  One nome and two sparse sums on one
    table of q powers (fewer products at very high precision than E4^3 /
    Delta from the theta constants); refused at bits >= 2^15.  nome, the
    fixed points (1/q, q) at scale 2^prec (_nomes), is formed here from
    the mpc exp(2 pi i w) unless passed.

    Error budget, against j at the root w* of the form (|w* - w| <= 4|w|
    2^-prec, _form_root; |w| >= 1 and |q^-1| >= 230), as two parts.  With a and b the fixed
    points of q^-1 and q, the tail is J(a, b) = a R(b)^-1 + 768 + 48 U +
    U^2, U = 2^12 b R(b), R(b) = prod (1 + b^k)^24, and j(w*) = J(1/q*,
    q*) at q* = exp(2 pi i w*).
      - The arithmetic: the sums are within 2^11 units of the full products
        at b (the budget of _reduced_basics, under 400 products of 2 units,
        and a tail below 2^(-prec-30)); _ediv, _emul and _esum carry that
        through r, r^24, u and J(a, b).
      - The inputs: q is within eta = 2^(18-prec) |w| relative of q*
        (_nomes' root is within 2^(6-prec) |w|, and so is exp here after
        the root's rounding), so |a - 1/q*| < (2^18 |w| + 3) |q^-1| units
        (1/q rounded, a truncated) and |b - q*| < 0.00434 * 2^18 |w| + 1.5
        < 1140 |w| units (0.28 |w| + 3 from _nomes' fixed points).  Along
        b, |beta| <= 0.00434 (exp(-pi sqrt 3) = 0.004333 on the domain), so
        sum |beta|^k < 0.00436, |R| and |R^-1|
        < exp(24 * 0.00436/0.9957) < 1.111, sum k |beta|^(k-1)/|1 + beta^k|
        < 0.9956^-3 < 1.0132, |d R^-1/d beta| < 1.111 * 24 * 1.0132 < 27.1,
        |U| < 19.8 and |dU/d beta| < 2^12 * 1.111 (1 + 24 * 0.00434 *
        1.0132) < 5040; so |dJ/db| < 27.1 |q^-1| + (48 + 2 * 19.8) 5040 <
        27.1 |q^-1| + 2^18.76.  In all |J(a, b) - j(w*)| < 1.111 (2^18 |w| +
        3) |q^-1| + 1140 |w| (27.1 |q^-1| + 2^18.76) < (|q^-1| + 2^10) 2^19
        |w| units, under 2^(max(size a - prec + 1, 10) + 20 + mag w).
    """
    _check_budget(bits)
    n = _nterms(bits, mpmath.im(w))
    prec = bits + _GUARD
    t1 = list(_pentagonal_exponents(n))
    t2 = [(2 * e, s) for e, s in _pentagonal_exponents((n + 1) // 2)]
    one = (1 << prec, 0)
    if nome is None:
        with mpmath.workprec(prec):
            q = mpmath.exp(mpmath.pi * mpc(0, 2) * w)
            nome = _fixed(1 / q, prec), _fixed(q, prec)
    a, b = nome
    power = _power_table(b, [e for e, _ in t1 + t2], prec)
    p1 = (_csum([(1, one)] + [(s, power[e]) for e, s in t1]), 11)
    p2 = (_csum([(1, one)] + [(s, power[e]) for e, s in t2]), 11)
    r8 = _ediv(p2, p1, prec)
    for _ in range(3):
        r8 = _emul(r8, r8, prec)
    r24 = _emul(_emul(r8, r8, prec), r8, prec)
    u = _emul(((4096 * b[0], 4096 * b[1]), 0), r24, prec)
    j, err = _esum([(1, _ediv((a, 0), r24, prec)), (768, (one, 0)), (48, u),
                    (1, _emul(u, u, prec))])
    inputs = max(_size(a) - prec + 1, 10) + 20 + int(mpmath.mag(w))
    return j, max(err, inputs) + 1


def _j_from_eta(red: QuadForm, bits: int, nome=None):
    """_j_reduced at the root w of a reduced form, with its nome (1/q, q)
    if given (_nomes)."""
    return _j_reduced(_form_root(red, bits + _GUARD), bits, nome)


def _transport(v: dict, m, t, prec: int) -> dict:
    """The fixed-point basics at z from their values v at w = m z, for a
    normalised m = (a, b, c, d) and t = i/(cz + d), all (value, error
    exponent) pairs (_emul, _esum; the unit is within 1 unit, 1/pi within
    2): eta^2(z) = exp(-pi i k/6) t eta^2(w) (Rademacher's k, _eta_k: the
    eta multiplier exp(-pi i k/12)/sqrt(-i(cz + d)) squared), E2(z) =
    -t^2 E2(w) + 6ct/pi, E4(z) = t^4 E4(w) and, when v has it, E6(z) =
    -t^6 E6(w).  v is left as it is."""
    units, inv_pi = _constants(prec)
    unit, c = (units[_eta_k(m) % 12], 0), m[2]
    if not c:
        return dict(v, eta2=_emul(unit, v["eta2"], prec))
    t2 = _emul(t, t, prec)
    t4 = _emul(t2, t2, prec)
    e2 = _esum([(6 * c, _emul(t, ((inv_pi, 0), 1), prec)), (-1, _emul(v["e2"], t2, prec))])
    out = dict(v, eta2=_emul(_emul(unit, t, prec), v["eta2"], prec), e2=e2,
               e4=_emul(v["e4"], t4, prec))
    if "e6" in v:
        out["e6"] = _esum([(-1, _emul(_emul(v["e6"], t4, prec), t2, prec))])
    return out


def _kernel_table(bits: int, e6: bool = True) -> _ClassTable:
    """Reduced form -> the basics at its root (_reduced_basics), E6 dropped
    unless e6; the budget is checked before any work at its precision."""
    _check_budget(bits)

    def kernel(red: QuadForm) -> dict:
        v = _reduced_basics(_form_root(red, bits + _GUARD), bits)
        if not e6:
            del v["e6"]
        return v

    return _ClassTable(kernel)


def _at(form: QuadForm, table, bits: int) -> dict:
    """The basics at the root of form: table[R] carried back from R (_reducing, _t)."""
    red, m = _reducing(form)
    return _transport(table[red], m, _t(form, red, m, bits + _GUARD), bits + _GUARD)


def _as_mpc(v: dict, bits: int) -> dict:
    """eta^2, E2, E4 and E6 from the fixed-point basics v as bits-bit mpc."""
    prec = bits + _GUARD
    return {"eta2": _to_mpc(v["eta2"][0], prec - v["eta2_exp"], bits),
            **{key: _to_mpc(v[key][0], prec, bits) for key in ("e2", "e4", "e6")}}


def _j_of(v: dict):
    """j = E4^3 / Delta from the basics at one point, in their arithmetic
    (mpc, mpmath.iv or _Pair)."""
    return _ipow(v["e4"], 3) / _ipow(v["eta2"], 12)


def _j_and_theta(v: dict):
    """(j, theta j) from the basics at one point, in their arithmetic: j as
    in _j_of and theta j = -E4^2 E6 / Delta, over one Delta."""
    delta = _ipow(v["eta2"], 12)
    return _ipow(v["e4"], 3) / delta, -(v["e4"] * v["e4"]) * v["e6"] / delta


def eval_eta(z: mpc, cfg: PrecisionConfig) -> mpc:
    """eta(z): the square root of eta^2(z) that exp(pi i k/12) turns into
    the principal root of t eta^2(w) (argument within pi/3 of 0), so a
    53-bit root of unity tells the two apart."""
    bits, form = cfg.eval_bits, _form(z)
    with mpmath.workprec(bits):
        root = mpmath.sqrt(_as_mpc(_at(form, _kernel_table(bits), bits), bits)["eta2"])
        k = _eta_k(_reducing(form)[1])
        unit = mpmath.mpmathify(cmath.exp(1j * _math.pi * (k % 24) / 12))
        return root if mpmath.re(root * unit) > 0 else -root


def eval_eisenstein(k: int, z: mpc, cfg: PrecisionConfig) -> mpc:
    if k not in (2, 4, 6):
        raise ValueError(f"unsupported Eisenstein weight {k}")
    bits = cfg.eval_bits
    return _as_mpc(_at(_form(z), _kernel_table(bits), bits), bits)[f"e{k}"]


def eval_j(z: mpc, cfg: PrecisionConfig) -> mpc:
    return _eval_mp("j", z, cfg)[0]


def eval_theta_j(z: mpc, cfg: PrecisionConfig) -> mpc:
    """theta applied to j, analytically (_j_and_theta on the mpc basics)."""
    bits = cfg.eval_bits
    with mpmath.workprec(bits):
        return _j_and_theta(_as_mpc(_at(_form(z), _kernel_table(bits), bits), bits))[1]


def _form_and_theta(form: QuadForm, table, bits: int, keys=("f", "theta_f", "p")):
    """({"f": F, "theta_f": thetaF, "p": P} for the keys asked, ex, the
    basics at alpha with "e2star": E2* = E2 - 6g), the parts (value, error
    exponent) pairs at scale 2^(prec + ex) (F 2^ex at scale 2^prec; _rounded
    there gives F as an mpc), the basics at scale 2^prec, at the root alpha
    of a form [a, b, c] with 6 | a, from table: F of series.fp_series, P =
    -thetaF - F g, g = 1/(2 pi Im alpha) = a/(pi sqrt|D|) in integers.  With
    s = 2^-prec isqrt(|D| 2^2prec) (_sqrt_disc; s >= sqrt 3 - 2^-prec), g is
    off by under 2a/s units from 1/pi (within 2), a/(5s) from the isqrt and 1
    from the floor: in all under 3a/s + 1 units.  d alpha (d = 1, 2, 3, 6) is
    the root of [a/d, b, dc] (_at); F = f/den 2^-ex and thetaF = theta_f/den
    2^-ex by the chain rule, theta E2 = (E2^2 - E4)/12, theta log eta =
    E2/24, and den 2^ex is the eta^2 product times 24/FP_PREFACTOR."""
    prec, pre = bits + _GUARD, FP_PREFACTOR
    root = _sqrt_disc(form.discriminant(), prec)[0]
    g = (((form.a * _constants(prec)[1] << prec) // root, 0),
         (((3 * form.a << prec) // root) + 2).bit_length())
    at = {d: _at(QuadForm(form.a // d, form.b, d * form.c), table, bits)
          for d, _ in FP_ETA_FACTORS}
    num = _esum((c, at[d]["e2"]) for d, c in FP_E2_COMBINATION)
    theta = _esum((2 * c * d, _esum([(1, _emul(at[d]["e2"], at[d]["e2"], prec)),
                                     (-1, at[d]["e4"])])) for d, c in FP_E2_COMBINATION)
    drift = _emul(num, _esum((e * d, at[d]["e2"]) for d, e in FP_ETA_FACTORS), prec)
    den, ex = ((1 << prec, 0), 0), 0
    for d, e in FP_ETA_FACTORS:  # every e is even
        for _ in range(e // 2):
            den, ex = _emul(den, at[d]["eta2"], prec), ex + at[d]["eta2_exp"]
    f = _esum([(24 * pre.numerator, num)])
    theta_f = _esum([(pre.numerator, theta), (-pre.numerator, drift)])
    den = _esum([(24 * pre.denominator, den)])
    parts = {"f": f, "theta_f": theta_f, "p": _esum([(-1, theta_f), (-1, _emul(f, g, prec))])}
    return ({key: _ediv(x, den, prec) for key, x in parts.items() if key in keys}, ex,
            dict(at[1], e2star=_esum([(1, at[1]["e2"]), (-6, g)])))


def eval_form(z: mpc, cfg: PrecisionConfig) -> mpc:
    return _eval_mp("F", z, cfg)[0]


def eval_P(z: mpc, cfg: PrecisionConfig) -> mpc:
    return _eval_mp("P", z, cfg)[0]


def _conj(value):
    """The exact conjugate (mpmath.conj rounds) of an mpc, a fixed-point
    complex (two ints), a real (mpf or int: itself), or a dict or tuple of them."""
    if isinstance(value, dict):
        return {k: _conj(v) for k, v in value.items()}
    if isinstance(value, tuple):
        if len(value) == 2 and all(isinstance(v, int) for v in value):
            return value[0], -value[1]
        return tuple(_conj(v) for v in value)
    if isinstance(value, mpc):
        return mpmath.mp.make_mpc((value._mpc_[0], mpf_neg(value._mpc_[1])))
    return value


def _disc_exp(d: int, bits: int) -> mpf:
    """E_D = exp(-pi sqrt|D|) at the guarded precision P = bits + _GUARD of
    a bits-bit kernel, within (3.1 pi sqrt|D| + 2) 2^-P relative (sqrt, pi
    and their product rounded once each, and exp's own rounding)."""
    with mpmath.workprec(bits + _GUARD):
        return mpmath.exp(-mpmath.pi * mpmath.sqrt(-d))


def _nomes(forms, bits: int, exps=None) -> list:
    """(1/q, q) as fixed-point complexes at scale 2^prec, prec = bits +
    _GUARD, for q = exp(2 pi i w) at the roots w of reduced forms [a, b, c]
    with a < 2^20, from one exponential E_D per discriminant (_disc_exp;
    exps, if given, maps D to E_D and keeps those computed here).

    With y = -log2 |q| = pi sqrt|D|/(a ln 2) and k = floor(y), v = 2^-k/q
    = 2^(y - k) exp(pi i b/a), of modulus in [1, 2), is the root of
    C v^a = 1, C = (-1)^b E_D 2^(k a), near the start v0 formed from y and
    b/a at 64 + (bit length of |D|) bits, within 2^-58 + 2^(2 - p0) relative
    once held at scale 2^p0.  Newton's v <- v + v (1 - C v^a)/a maps
    v_C (1 + delta) to v_C (1 + delta') with |delta'| <= 2a |delta|^2 while
    a |delta| <= 1/4, so it contracts that disc about the root v_C it
    started near; the other roots v_C exp(2 pi i j/a) are at least 4/a
    relative away, so the start picks the branch of the point.  Each step at
    precision p (C truncated at scale 2^(p + a), v^a by binary powering, its
    truncations raised by at most a and divided by a again) adds under
    2^(4 - p) relative, so the error stays under 2^(5 - p) when the
    precision doubles from p' to p <= 2 p' - bitlen(a) - 7, and v ends
    within 2^(5 - prec) of v_C.  E_D's error moves v_C by its a-th part,
    under (19.5 Im w + 2) 2^-prec.  So 1/q = 2^k v (exact) is within
    (19.5 Im w + 34) 2^-prec < 2^(6 - prec) |w| relative of its exact value,
    and q = 2^-k/v (_cdiv, then shifted) within as much relative and 3
    units more.
    """
    exps = {} if exps is None else exps
    for form in forms:
        if form.a >> 20:
            raise ValueError(f"{form} has a >= 2^20")
        d = form.discriminant()
        if d not in exps:
            exps[d] = _disc_exp(d, bits)
    return [_nome(form, exps[form.discriminant()], bits + _GUARD) for form in forms]


def _nome(form: QuadForm, e_d: mpf, prec: int):
    """(1/q, q) at the root of form from E_D, by _nomes' Newton root."""
    a, b, d = form.a, form.b, form.discriminant()
    with mpmath.workprec(64 + (-d).bit_length()):
        y = mpmath.pi * mpmath.sqrt(-d) / (a * mpmath.ln2)
        k = int(y)
        v0 = mpmath.exp(mpc((y - k) * mpmath.ln2, mpmath.pi * b / a))
    precs = [prec]
    while precs[-1] > 64:
        precs.append((precs[-1] + a.bit_length() + 8) // 2 + 1)
    sign, man, ex, _ = e_d._mpf_
    v = _fixed(v0, precs[-1])
    for p, p_next in zip(precs[::-1], precs[-2::-1] + [prec]):
        shift = ex + k * a + p + a
        c = man << shift if shift >= 0 else man >> -shift
        c = -c if (b + sign) % 2 else c
        power = v
        for bit in bin(a)[3:]:
            power = _cmul(power, power, p)
            if bit == "1":
                power = _cmul(power, v, p)
        rest = ((1 << p) - (c * power[0] >> p + a), -(c * power[1] >> p + a))
        step = _cmul(v, rest, p)
        v = ((v[0] + step[0] // a) << p_next - p, (v[1] + step[1] // a) << p_next - p)
    q = _cdiv((1 << prec, 0), v, prec)
    return (v[0] << k, v[1] << k), (q[0] >> k, q[1] >> k)


class _ClassTable(dict):
    """Reduced form -> kernel(form) within one precision.  A miss takes the
    exact conjugate (_conj) of a held mirror [a, -b, c], whose root is -conj
    of the form's (eta^2, E2, E4, E6 and j have real Fourier coefficients),
    else runs the kernel once."""

    def __init__(self, kernel):
        super().__init__()
        self.kernel = kernel

    def __missing__(self, red: QuadForm):
        mirror = self.get(QuadForm(red.a, -red.b, red.c)) if self else None
        self[red] = value = self.kernel(red) if mirror is None else _conj(mirror)
        return value


def eval_P_cm(forms, cfg: PrecisionConfig) -> tuple[list, list]:
    """(values, error exponents), |P - value| < 2^e, of P at the CM points
    of forms [a, b, c] with 6 | a (_form_and_theta), one kernel call per
    SL2(Z) class of one table, without E6."""
    bits = cfg.eval_bits
    table = _kernel_table(bits, e6=False)
    pairs = []
    for form in forms:
        if form.a % 6:
            raise ValueError(f"form {form} has 6 not dividing a")
        parts, ex, _ = _form_and_theta(form, table, bits, ("p",))
        pairs.append(_rounded(parts["p"], bits + _GUARD + ex, bits))
    return [value for value, _ in pairs], [err for _, err in pairs]


class _Pair:
    """A (value, error exponent) pair at scale 2^prec (_emul) as a number,
    so that _j_of, _j_and_theta and _abc state their formulas once for mpc,
    mpmath.iv and pairs: two pairs add by _esum, multiply by _emul and
    divide by _ediv; an int adds exactly, weights by _esum and divides by
    the floor, within 2^e/|k| + 1 <= 2^max(e, 1) units."""

    __slots__ = ("pair", "prec")

    def __init__(self, pair, prec: int):
        self.pair, self.prec = pair, prec

    def __add__(self, other):
        if isinstance(other, _Pair):
            return _Pair(_esum([(1, self.pair), (1, other.pair)]), self.prec)
        (x, y), e = self.pair
        return _Pair(((x + (other << self.prec), y), e), self.prec)

    def __neg__(self):
        (x, y), e = self.pair
        return _Pair(((-x, -y), e), self.prec)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if isinstance(other, _Pair):
            return _Pair(_emul(self.pair, other.pair, self.prec), self.prec)
        return _Pair(_esum([(other, self.pair)]), self.prec)

    def __truediv__(self, other):
        if isinstance(other, _Pair):
            return _Pair(_ediv(self.pair, other.pair, self.prec), self.prec)
        (x, y), e = self.pair
        return _Pair(((x // other, y // other), max(e, 1)), self.prec)

    __rmul__ = __mul__


def _shift(pair, s: int):
    """The pair times 2^s, s >= 0: F or j with the eta product's binary
    exponent taken out.  Refused before the shift when s reaches the
    kernels' budget of 2^15 bits (j(10^30 i) is about 2^(9 10^30))."""
    if s >= _BUDGET_BITS:
        shown = s if s < 10**6 else mpmath.nstr(mpf(s), 3)
        raise PrecisionExhausted(f"a value of magnitude 2^{shown}, at or beyond the "
                                 f"kernels' budget of {_BUDGET_BITS} bits")
    (x, y), e = pair
    return (x << s, y << s), e + s


def _guarded_j(v: dict, cfg: PrecisionConfig) -> mpc:
    """j from the mpc basics at a point, refused within 2^(-working_bits/4)
    of a zero of j, j - 1728, E4 or E6, where A, B and C have poles."""
    jval = _j_of(v)
    threshold = mpf(2) ** (-(cfg.working_bits // 4))
    for name, x in (("j", jval), ("j_1728", jval - 1728), ("e4", v["e4"]), ("e6", v["e6"])):
        if abs(x) < threshold:
            raise NearSingularity(f"|{name}| = {mpmath.nstr(abs(x), 5)} below guard")
    return jval


def _guard(values: dict, cfg: PrecisionConfig) -> None:
    """_guarded_j's refusal for _Pair values at scale 2^prec, compared
    exactly in integers: |x|^2 < 2^(2 (prec - working_bits/4))."""
    for name, x in values.items():
        (re, im), _ = x.pair
        if re * re + im * im < 1 << 2 * (x.prec - cfg.working_bits // 4):
            size = abs(_to_mpc((re, im), x.prec, 53))
            raise NearSingularity(f"|{name}| = {mpmath.nstr(size, 5)} below guard")


def _abc(f, theta_f, v: dict, jval, e2star):
    """A, B and C from F, thetaF, the basics, j and E2* = E2 - 3/(pi y) at a
    point of imaginary part y, in their arithmetic (mpc, mpmath.iv for
    enclosures, or _Pair); f and theta_f are not read for C alone:
        A = -thetaF - F E2/6 + F E6 (7j - 6912)/(6 E4 (j - 1728)),
        B = F E6 j / E4,
        C = E4 E2*/(6 E6 j) - (7j - 6912)/(6 j (j - 1728))."""
    c = (v["e4"] * e2star / (6 * v["e6"] * jval)
         - (7 * jval - 6912) / (6 * jval * (jval - 1728)))
    if f is None:
        return None, None, c
    a = (-theta_f - f * v["e2"] / 6
         + f * v["e6"] * (7 * jval - 6912) / (6 * v["e4"] * (jval - 1728)))
    return a, f * v["e6"] * jval / v["e4"], c


def _tail(form: QuadForm, table, cfg: PrecisionConfig) -> dict:
    """P, A, B, C, A' = A j (j - 1728) and j at the root alpha of form
    (6 | a), keyed "p", "a", "b", "c", "aprime" and "j", as (value, error
    exponent) pairs at scale 2^prec, prec = eval_bits + _GUARD, from one
    evaluation in table (_form_and_theta): _j_of and _abc on _Pair, with
    E2* = E2 - 6g, g = 1/(2 pi Im alpha), and F, thetaF, P and j shifted
    out of the eta product's exponent (_shift).  P = A + B C, and A' is
    regular at CM points."""
    bits, prec = cfg.eval_bits, cfg.eval_bits + _GUARD
    parts, ex, basics = _form_and_theta(form, table, bits)
    f, theta_f, p = (_Pair(_shift(parts[key], -ex), prec) for key in ("f", "theta_f", "p"))
    v = {key: _Pair(basics[key], prec) for key in ("eta2", "e2", "e4", "e6", "e2star")}
    jval = _Pair(_shift(_j_of(v).pair, -12 * basics["eta2_exp"]), prec)
    _guard({"j": jval, "j_1728": jval - 1728, "e4": v["e4"], "e6": v["e6"]}, cfg)
    a, b, c = _abc(f, theta_f, v, jval, v["e2star"])
    out = {"p": p, "a": a, "b": b, "c": c, "aprime": a * jval * (jval - 1728), "j": jval}
    return {key: x.pair for key, x in out.items()}


def _values(form: QuadForm, table, cfg: PrecisionConfig) -> dict:
    """_tail's values as eval_bits-bit mpc (_rounded), P exactly as
    eval_P_cm gives it."""
    bits = cfg.eval_bits
    return {key: _rounded(x, bits + _GUARD, bits)[0] for key, x in _tail(form, table, cfg).items()}


def _j_pairs(form: QuadForm, table, cfg: PrecisionConfig):
    """(j, theta j) at the root of form as (value, error exponent) pairs at
    scale 2^prec: _j_and_theta on _Pair from the basics there (_at in
    table), shifted out of eta^2's exponent (_shift)."""
    bits, prec = cfg.eval_bits, cfg.eval_bits + _GUARD
    basics = _at(form, table, bits)
    pairs = _j_and_theta({key: _Pair(basics[key], prec) for key in ("eta2", "e4", "e6")})
    return tuple(_shift(x.pair, -12 * basics["eta2_exp"]) for x in pairs)


def _j_and_theta_j(form: QuadForm, table, cfg: PrecisionConfig):
    """(j, theta j) at the root of form as eval_bits-bit mpc (_j_pairs)."""
    bits = cfg.eval_bits
    return tuple(_rounded(x, bits + _GUARD, bits)[0] for x in _j_pairs(form, table, cfg))


def _tail_of(what: str, ctx, v: dict, f, theta_f, jval, y):
    """what ("A", "B", "C", "Aprime" or "j") from the basics v, F, thetaF
    and j at a point of imaginary part y, in the arithmetic of ctx
    (mpmath.mp, or mpmath.iv for enclosures)."""
    if what == "j":
        return jval
    a, b, c = _abc(f, theta_f, v, jval, v["e2"] - 3 / (ctx.pi * y))
    return a * jval * (jval - 1728) if what == "Aprime" else {"A": a, "B": b, "C": c}[what]


def _eval_mp(what: str, z: mpc, cfg: PrecisionConfig):
    """(value, parts, basics): what ("F", "P", "A", "B", "C", "Aprime" or
    "j") at z as the public eval_* give it, by the mpc tail (_tail_of) at
    eval_bits; the (mpc, error exponent) pairs of F, thetaF and P (_rounded;
    none for C and j) and the fixed-point basics at z it came from."""
    bits, form = cfg.eval_bits, _form(z)
    table = _kernel_table(bits)
    parts, ex, basics = (({}, 0, _at(form, table, bits)) if what in ("C", "j")
                         else _form_and_theta(form, table, bits))
    parts = {key: _rounded(x, bits + _GUARD + ex, bits) for key, x in parts.items()}
    if what in ("F", "P"):
        return parts[what.lower()][0], parts, basics
    with mpmath.workprec(bits):
        v = _as_mpc(basics, bits)
        jval = _j_of(v) if what == "j" else _guarded_j(v, cfg)
        f, theta_f = (parts.get(key, (None,))[0] for key in ("f", "theta_f"))
        return _tail_of(what, mpmath.mp, v, f, theta_f, jval, mpmath.im(z)), parts, basics


def eval_A(z: mpc, cfg: PrecisionConfig) -> mpc:
    return _eval_mp("A", z, cfg)[0]


def eval_B(z: mpc, cfg: PrecisionConfig) -> mpc:
    return _eval_mp("B", z, cfg)[0]


def eval_C(z: mpc, cfg: PrecisionConfig) -> mpc:
    """C from the basics at z alone; level-1 invariant, so the value at a CM
    point only depends on its class."""
    return _eval_mp("C", z, cfg)[0]


def eval_Aprime(z: mpc, cfg: PrecisionConfig) -> mpc:
    return _eval_mp("Aprime", z, cfg)[0]


def _eval_bounded(what: str, z: mpc, cfg: PrecisionConfig):
    """(value, bound) for the eval command: what ("F", "P", "A", "B", "C"
    or "j") at z as eval_form, eval_P, eval_A, ... give it (_eval_mp), and
    a bound on its absolute error at z's exact binary value.  F and P carry
    their fixed-point error exponents; A, B, C and j repeat their mpc tail
    in complex interval arithmetic (mpmath.iv) from boxes around F, thetaF
    and the basics at z, and the bound is the farthest point of the
    result's box from the value.  On _Pair (_tail) the bounds came out 4-15
    bits looser, and supported no digit of C at 200i (C near 2^-1700, its
    absolute bound 2^-314)."""
    value, parts, basics = _eval_mp(what, z, cfg)
    if what in ("F", "P"):
        return value, mpf(2) ** parts[what.lower()][1]
    bits, iv = cfg.eval_bits, mpmath.iv
    prec, saved, iv.prec = bits + _GUARD, iv.prec, bits

    def box(x, err):
        r = iv.mpf([-mpf(2) ** err, mpf(2) ** err])
        return iv.mpc(x.real, x.imag) + iv.mpc(r, r)

    try:
        vbox = {key: box(_to_mpc(basics[key][0], prec - basics.get(key + "_exp", 0), 0),
                         basics[key][1] - prec + basics.get(key + "_exp", 0))
                for key in ("eta2", "e2", "e4", "e6")}
        fbox = [box(*parts[key]) if parts else None for key in ("f", "theta_f")]
        tail = _tail_of(what, iv, vbox, *fbox, _j_of(vbox), mpmath.im(z))
        bound = abs(iv.mpc(value.real, value.imag) - tail)
        return value, mpmath.mp.make_mpf(bound._mpi_[1])
    finally:
        iv.prec = saved
