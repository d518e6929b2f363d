"""High-precision evaluation of eta quotients, Eisenstein series, j and the
weight -2 / weight 0 pair (F, P) with its A + B*C split.

Every caller hands over the integer form whose root is its point: a CM form,
an exact image of one, or at the public eval_*(z, cfg) the form of z's exact
binary value (_form); 1/(2 pi Im) = a/(pi sqrt|D|) is read off the form
(_g).  Two kernels share one table of q powers at the pentagonal
exponents, one product a power on an addition sequence (_power_table),
and one real reciprocal of P (_recip, _series): P = prod
(1 - q^n) and its theta-derivatives give E2, E4 and E6 by Ramanujan's
identities, eta^2 = q^(1/12) P^2 (_reduced_basics, at the reduced root
(_reducing), q^(1/12) from the form in integers and one exponential, once
per class of the caller's _ClassTable, which can fill itself over the CPUs)
and j = (1/q) E4^3 P^-24 (_j_from_eta, from the nome pair of _nome).  From
the kernel to F, thetaF and P values are fixed-point Gaussian ints (Python
ints scaled by 2^prec, _cmul); eta^2 carries its own power of two, so a
product of them (2^-1800 at Im z = 200) keeps its relative precision.
_transport carries values back by the reducing matrix and t = i/(cz + d),
in integers (_t), eta^2 with a twelfth root of unity from Rademacher's
integer k (_eta_k).
Derivatives are analytic: theta(E2) = (E2^2 - E4)/12, theta(log eta) =
E2/24.  Every fixed-point value carries an integer error exponent (_emul, _esum, _ediv,
_eprod), seeded by the kernels' budgets: the bounds of P at CM points
(eval_P_cm), of the eval command (_eval_bounded) and of j (_j_from_eta).

One tail (_tail) takes the basics at a form on to F, thetaF, P, j, theta
j, A, B, C and A' = A j (j - 1728), forming only the values asked for, on
pairs that carry their own power of two (_Pair: _emul, _ediv, _esum), so
that a value keeps its relative precision however small (C near 2^-1813
at 200i) or large.  The verify commands (_values), p(n) (eval_P_cm) and
the public eval_* and the eval command (_eval_bounded) round its pairs to
mpc once, at the end.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import math as _math

import mpmath
from mpmath import mpc, mpf
from mpmath.libmp import (from_int, from_man_exp, mpf_cos_sin, mpf_div, mpf_exp, mpf_mul,
                          mpf_neg, mpf_pi, pi_fixed, to_fixed)

from .errors import NearSingularity, NotUpperHalfPlane, PrecisionExhausted
from .precision import PrecisionConfig, _fork_map
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


# ln 2/pi at scale 2^32, rounded up.
_LN2_BY_PI = 947622687


def _nterms(bits: int, red: QuadForm) -> int:
    """Series length N with exp(-2 pi Im(w) N) below 2^-(bits + 62) at the
    root w of a reduced form [a, b, c], in integers: with Im w = sqrt|D|/(2a)
    and s = isqrt(|D| 2^64) <= sqrt|D| 2^32, bits ln 2/(2 pi Im w) <= bits a
    (ln 2/pi) 2^32/s, and 8 terms more take exp(-8 pi sqrt 3) < 2^-62."""
    return max(bits * red.a * _LN2_BY_PI // _math.isqrt(-red.discriminant() << 64) + 9, 4)


# Guard bits of the fixed-point kernels below, and the precision below which
# their error budget (in _series) holds.
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
    (Gauss), or two when b is real or is a itself (a square: (a0 + a1)(a0 -
    a1) and 2 a0 a1, the same integers before the shift), truncated back to
    scale 2^prec."""
    if not b[1]:
        return a[0] * b[0] >> prec, a[1] * b[0] >> prec
    if a is b:
        return (a[0] + a[1]) * (a[0] - a[1]) >> prec, a[0] * a[1] >> prec - 1
    k1 = b[0] * (a[0] + a[1])
    k2 = a[0] * (b[1] - b[0])
    k3 = a[1] * (b[0] + b[1])
    return (k1 - k3) >> prec, (k1 + k2) >> prec


def _cdiv(a: tuple[int, int], b: tuple[int, int], prec: int) -> tuple[int, int]:
    """a/b in fixed point, from a conj(b) and |b|^2 (b nonzero)."""
    norm = b[0] * b[0] + b[1] * b[1]
    return (((a[0] * b[0] + a[1] * b[1]) << prec) // norm,
            ((a[1] * b[0] - a[0] * b[1]) << prec) // norm)


def _recip(b: tuple[int, int], prec: int) -> tuple[int, int]:
    """1/b in fixed point for 1/2 <= |b| <= 2: conj(b) times one real
    reciprocal of |b|^2, the norm cut to scale 2^prec.  The cut norm N is
    within a unit below |b|^2 2^prec, so the floor of 2^2prec/N is within
    max(1, 1.0001 |b|^-4) units of 1/|b|^2, and 1/b within |b| max(1,
    1.0001 |b|^-4) + sqrt 2 units (the two truncations): under 2.5 for
    |b| within 0.5% of 1, 3.5 for 1 <= |b| <= 2 and 9.5 at |b| = 1/2."""
    inv = (1 << 2 * prec) // (b[0] * b[0] + b[1] * b[1] >> prec)
    return b[0] * inv >> prec, -b[1] * inv >> prec


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


# Bits below a product's last place that a cut factor keeps, and the
# precision from which _power_table cuts (below it the bookkeeping costs more:
# _reduced_basics 23% slower at 288 bits, 6% faster at 1056, 9% at 4128).
_TAPER = 16
_TAPER_BITS = 1 << 11


def _cmul_within(a: tuple[int, int], b: tuple[int, int], prec: int) -> tuple[int, int]:
    """_cmul(a, b, prec) to within a further 2^-_TAPER units of its last
    place: each factor drops the low bits that, times the other factor, stay
    below 2^(prec - _TAPER - 2), so small factors make cheap products (a
    square, b a, stays one)."""
    ka = min(max(prec - _TAPER - 2 - _size(b), 0), prec)
    kb = min(max(prec - _TAPER - 2 - _size(a), 0), prec - ka)
    cut = (a[0] >> ka, a[1] >> ka)
    return _cmul(cut, cut if a is b and ka == kb else (b[0] >> kb, b[1] >> kb), prec - ka - kb)


# The one addition sequence over the generalised pentagonal numbers, grown
# on demand (_sequence): (c, a, b, square) ascending in c, x^c = x^a x^b.
_STEPS: list = []


def _sequence(n: int) -> list:
    """The steps of the addition sequence up to the generalised pentagonal
    numbers below n, a prefix of _STEPS.  Each pentagonal c > 1 is a + b
    for held exponents a <= b (the largest such a), else 2a + b (the
    largest such a): then x^(2a) is held as well, formed first as the square
    of x^a (square = True, a in the step is that 2a).  Every pentagonal c
    >= 5 is 2a + b for smaller pentagonals a and b (Enge, Hart and Johansson,
    "Short addition sequences for theta functions", 2018), so one of the two
    exists.  About 1.2 products a pentagonal: 41 for the 34 below 463, 116
    for the 101 below 3922."""
    top = _STEPS[-1][0] if _STEPS else 1
    if top < n:
        held = {1} | {c for c, *_ in _STEPS} | {a for _, a, _, square in _STEPS if square}
        for c, _ in _pentagonal_exponents(n):
            if c <= top:
                continue
            pairs = [a for a in held if 2 * a <= c and c - a in held]
            if pairs:
                step = (c, max(pairs), c - max(pairs), False)
            else:
                a = max(a for a in held if 2 * a < c and c - 2 * a in held)
                step = (c, 2 * a, c - 2 * a, True)
                held.add(2 * a)
            held.add(c)
            _STEPS.append(step)
    return _STEPS[:bisect.bisect_left(_STEPS, (n,))]


def _power_table(x: tuple[int, int], exponents, prec: int) -> dict:
    """{e: x^e} in fixed point over the generalised pentagonal numbers e in
    exponents (those below some n), one product a power on the addition
    sequence (_sequence), and one square more where the sequence holds
    x^(2a).  Below prec = _TAPER_BITS each is a _cmul; from it on, the
    powers (shrinking, |x| < 1) are formed only to the accuracy they can
    contribute, each product within 2^-_TAPER of its last place
    (_cmul_within).

    Error, in units of 2^-prec against the exact powers of x: x^(a+b) is
    off by |x^a| e_b + |x^b| e_a + e_a e_b 2^-prec and the product's
    truncation, under sqrt 2 + 2^-_TAPER.  As |x| < 0.00434 on the
    fundamental domain, entries within 2 units make entries within 0.0174 +
    1.415 + 2^-16 < 1.44 units: every entry stays within 2 units, however
    long the sequence."""
    exponents = sorted(set(exponents))
    product = _cmul if prec < _TAPER_BITS else _cmul_within
    powers = {1: x}
    for c, a, b, square in _sequence(exponents[-1] + 1):
        if square:
            powers[a] = product(powers[a // 2], powers[a // 2], prec)
        powers[c] = product(powers[a], powers[b], prec)
    return {e: powers[e] for e in exponents}


@functools.lru_cache(maxsize=256)
def _lift(n: int, k: int) -> int:
    """Guard bits g a kernel adds to _GUARD for the weights e^k of its sums
    (k = 2 or 3): with W = sum e^k over the pentagonal e < n, an exact
    integer, g = bitlen(W) + 2, so that 4 W < 2^g <= 8 W (about 3 log2 n
    bits for k = 3)."""
    return sum(e ** k for e, _ in _pentagonal_exponents(n)).bit_length() + 2


def _series(q: tuple[int, int], n: int, prec: int, e6: bool):
    """(P, R = 1/P, E2, E4, E6 or None) in fixed point at scale 2^prec from
    one table of q powers at the pentagonal exponents e < n (_power_table):
    P = 1 + sum s q^e and its theta-derivatives S_k = sum s e^k q^e (k <= 3,
    2 without E6) give L_k = S_k R by one reciprocal, and

        E2 = 1 + 24 L1,   theta E2 = 24 (L2 - L1^2),   E4 = E2^2 - 12 theta E2,
        E6 = E2 E4 - 3 (2 E2 theta E2 - 288 (L3 - 3 L1 L2 + 2 L1^3)),

    by E2 = 1 + 24 theta log P and Ramanujan's theta E2 = (E2^2 - E4)/12
    and theta E4 = (E2 E4 - E6)/3.

    Error budget, in units of 2^-prec, for q within d units of the exact q*
    at a fundamental-domain point (|q*| <= exp(-pi sqrt 3) < 0.00434), with
    W = sum e^k over the table (k = 3, or 2 without E6) and prec = bits +
    _GUARD + g for the kernel's bits < 2^15 and g = _lift(n, k).  A table
    entry is off by under 2 units (_power_table), taken here as 2^11, and
    d moves S_k by under sum e^(k+1) |q|^(e-1) d <
    1.08 d.  The tail past n is under 1.04 n^k |q*|^n, with |q*|^n <
    2^-(bits + 62) (_nterms) and 2^g <= 8W: under 2^-27.7 n^3 W < 2^8.4 W
    units, as n < 4200.  So P and every S_k are off by under eta =
    2^11.22 W + 1.08 d units.  |P| > 0.9956, |S_k| < 0.0046 and |L_k| <
    0.0047 for k >= 1, and a product truncates by under 1.5: R (_recip) is
    off by under 1.009 eta + 2.5, each L_k by under lambda = 1.01 eta + 2, E2
    (|E2| < 1.113) by 24 lambda, theta E2 (|theta E2| < 0.114) by 24.33
    lambda, E4 (|E4| < 2.08) by 346 lambda, L3 - 3 L1 L2 + 2 L1^3 by 1.035
    lambda, and E6 by under 436 + 179.4 + 894.2 < 1510 lambda."""
    pent = list(_pentagonal_exponents(n))
    power = _power_table(q, [e for e, _ in pent], prec)
    one = (1 << prec, 0)
    p = _csum([(1, one)] + [(s, power[e]) for e, s in pent])
    r = _recip(p, prec)
    l1, l2, *l3 = (_cmul(_csum((s * e ** k, power[e]) for e, s in pent), r, prec)
                   for k in range(1, 4 if e6 else 3))
    l11 = _cmul(l1, l1, prec)
    e2 = _csum([(1, one), (24, l1)])
    theta_e2 = _csum([(24, l2), (-24, l11)])
    e4 = _csum([(1, _cmul(e2, e2, prec)), (-12, theta_e2)])
    if not e6:
        return p, r, e2, e4, None
    m = _csum([(1, l3[0]), (-3, _cmul(l1, l2, prec)), (2, _cmul(l11, l1, prec))])
    return p, r, e2, e4, _csum([(1, _cmul(e2, e4, prec)), (-6, _cmul(e2, theta_e2, prec)),
                                (864, m)])


def _arguments(form: QuadForm, d: int, prec: int):
    """(t, phi) with 2 pi i w/d = -t + i phi at the root w of form [a, b, c],
    t = pi sqrt|D|/(d a) and phi = -pi b/(d a), as mpf rounded at prec from
    _sqrt_disc's isqrt (exact at 2^-prec, |D| >= 3): t within 3.6 t 2^-prec
    and phi within 3 |phi| 2^-prec."""
    pi, da = mpf_pi(prec, "n"), from_int(d * form.a)
    root = from_man_exp(_sqrt_disc(form.discriminant(), prec)[0], -prec)
    return (mpf_div(mpf_mul(pi, root, prec, "n"), da, prec, "n"),
            mpf_div(mpf_mul(pi, from_int(-form.b), prec, "n"), da, prec, "n"))


def _reduced_basics(red: QuadForm, bits: int, e6: bool = True) -> dict:
    """eta^2, E2, E4 and, if e6, E6 at the root w of a reduced form [a, b, c]
    as (value, error exponent) pairs (_emul) at scale 2^prec, prec = bits +
    _GUARD, with eta^2 = v["eta2"][0] 2^v["eta2_exp"]: q^(1/12) = exp(-t)
    exp(i phi) (_arguments, d = 12: one mpf_exp, one mpf_cos_sin) is held
    as x 2^ex with the larger part of x in [1/2, 1), q = x^12 2^(12 ex),
    and _series gives P, E2, E4 and E6 at wp = prec + g bits (_lift);
    eta^2 = q^(1/12) P^2.  Each is shifted back by g bits.

    Error budget, in units of 2^-wp.  The real part of q^(1/12) is the
    larger (|phi| <= pi/12), so |x| < 1.036, and x is off by under eps =
    3.85 t + 7.6 units (t's 3.6 t 2^-wp moves exp(-t) by 3.64 t relative
    while that is under 2^-10; the exp, cos, sin and phi 6 more, the
    truncation 1.5).  As |q| t < 0.002 and |q| < 0.00434 on the domain, q
    is off by under d = 22 (12 |q| 2 eps, four products and the shift; and
    under 2 where t 2^-wp > 2^-12, both q and its computed value being
    below 2^-wp there), so eta < 2^11.24 W and lambda < 2^11.26 W (_series).
    So E2, E4 and E6 are off by under 24, 346 and 1510 lambda, and after
    the shift by under 2^13.85 + 1, 2^17.69 + 1 and 2^19.82 + 1 units of
    2^-prec: under 2^14, 2^18 and 2^20.  eta^2 (relative to 2^ex) is off by under
    1.009 eps + 2.1 eta + 4.5, so by under 1.018 v 2^-g + 2^10.3 + 1 <
    2^max(12, bitlen(v) - g + 1) units of 2^-prec after the shift, for the
    integer v = isqrt|D| // a + 1 > 3.85 t; unbounded (inf) unless v <
    2^(wp - 12).  A call at or above 2^15 bits raises PrecisionExhausted.
    """
    _check_budget(bits)
    n, prec = _nterms(bits, red), bits + _GUARD
    g = _lift(n, 3 if e6 else 2)
    wp = prec + g
    t, phi = _arguments(red, 12, wp)
    cos, sin = mpf_cos_sin(phi, wp, "n")
    size = mpf_exp(mpf_neg(t), wp, "n")
    re, im = mpf_mul(size, cos), mpf_mul(size, sin)
    ex = re[2] + re[3]
    x = to_fixed(re, wp - ex), to_fixed(im, wp - ex)
    x3 = _cmul(_cmul(x, x, wp), x, wp)
    x6 = _cmul(x3, x3, wp)
    q = _cmul(x6, x6, wp)
    p, _, *basics = _series((q[0] >> -12 * ex, q[1] >> -12 * ex), n, wp, e6)
    v = (_math.isqrt(-red.discriminant()) // red.a + 1).bit_length()  # bitlen(v)

    def back(z):
        return z[0] >> g, z[1] >> g

    out = {"eta2": (back(_cmul(x, _cmul(p, p, wp), wp)),
                    max(12, v - g + 1) if v <= wp - 12 else _math.inf), "eta2_exp": ex}
    out.update((key, (back(z), e)) for key, z, e in zip(("e2", "e4", "e6"), basics, (14, 18, 20))
               if z is not None)
    return out


def _j_from_eta(red: QuadForm, bits: int, nome):
    """j at the root w of a reduced form [a, b, c] as a (value, error
    exponent) pair at scale 2^prec, prec = bits + _GUARD (_emul), from the
    nome pair (1/q, q) at scale 2^prec that _nome gives:

        j = E4^3 / Delta = (1/q) E4^3 P^-24 = (1/q) Y^3,   Y = E4 R^8,

    with R = 1/P and E4 from _series at wp = prec + g bits (_lift, k = 2),
    Y^3 shifted back by g bits, so that j keeps its relative precision at
    small |q|.  Refused at bits >= 2^15.

    Error budget, against j at the root (|w|^2 = c/a >= 1, |1/q| >= 230).
    1/q is within 2^(6 - prec) |w| relative and q as much and 3 units more
    (_nome), so q lifted by g bits is within d < 3.32 2^g <= 27 W units of
    2^-wp (|w q| < 0.005), and eta < 2^11.24 W (_series).  R is off by under
    1.009 eta + 2.5 and E4 by under 346 lambda; R^8 (|R^8| < 1.037) by under
    8.254 (1.009 eta + 2.5) + 10.7, Y (|Y| < 2.157) by under 376 lambda + 67
    < 377 lambda (lambda > 2^11),
    Y^2 by 1627 lambda and Y^3 (|Y^3| < 10.04) by under 5264 lambda <
    2^23.62 W units, so by under 2^21.62 + 1 units of 2^-prec after the
    shift.  With 1/q's own error, j is off by under |1/q| (10.04 2^6 |w| +
    2^21.63) + 1.5 < 2^(size(1/q) - prec + 23 + m) units, |w| <= 2^m.
    """
    _check_budget(bits)
    n, prec = _nterms(bits, red), bits + _GUARD
    g = _lift(n, 2)
    wp = prec + g
    inv_q, q = nome
    _, r, _, e4, _ = _series((q[0] << g, q[1] << g), n, wp, False)
    r2 = _cmul(r, r, wp)
    r4 = _cmul(r2, r2, wp)
    y = _cmul(e4, _cmul(r4, r4, wp), wp)
    y3 = _cmul(_cmul(y, y, wp), y, wp)
    m = (red.c.bit_length() - red.a.bit_length() + 2) // 2  # c/a < 4^m
    return _cmul(inv_q, (y3[0] >> g, y3[1] >> g), prec), _size(inv_q) - prec + 23 + m


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
    """Reduced form -> the basics at its root (_reduced_basics), E6 only if
    e6; the budget is checked before any work at its precision."""
    _check_budget(bits)
    return _ClassTable(lambda red: _reduced_basics(red, bits, e6))


def _at(form: QuadForm, table, bits: int) -> dict:
    """The basics at the root of form: table[R] carried back from R (_reducing, _t)."""
    red, m = _reducing(form)
    return _transport(table[red], m, _t(form, red, m, bits + _GUARD), bits + _GUARD)


def eval_eta(z: mpc, cfg: PrecisionConfig) -> mpc:
    """eta(z): the square root of eta^2(z) that exp(pi i k/12) turns into
    the principal root of t eta^2(w) (argument within pi/3 of 0), so a
    53-bit root of unity tells the two apart."""
    bits, form = cfg.eval_bits, _form(z)
    with mpmath.workprec(bits):
        v = _at(form, _kernel_table(bits, e6=False), bits)
        root = mpmath.sqrt(_rounded(v["eta2"], bits + _GUARD - v["eta2_exp"], bits)[0])
        k = _eta_k(_reducing(form)[1])
        unit = mpmath.mpmathify(cmath.exp(1j * _math.pi * (k % 24) / 12))
        return root if mpmath.re(root * unit) > 0 else -root


def eval_eisenstein(k: int, z: mpc, cfg: PrecisionConfig) -> mpc:
    if k not in (2, 4, 6):
        raise ValueError(f"unsupported Eisenstein weight {k}")
    bits = cfg.eval_bits
    return _rounded(_at(_form(z), _kernel_table(bits, e6=k == 6), bits)[f"e{k}"],
                    bits + _GUARD, bits)[0]


def eval_j(z: mpc, cfg: PrecisionConfig) -> mpc:
    return _eval_bounded("j", z, cfg)[0]


def eval_theta_j(z: mpc, cfg: PrecisionConfig) -> mpc:
    """theta applied to j, analytically (_tail)."""
    return _eval_bounded("theta_j", z, cfg)[0]


def _g(form: QuadForm, prec: int):
    """g = 1/(2 pi Im alpha) = a/(pi sqrt|D|) at the root alpha of form,
    in integers, as a (value, error exponent) pair at scale 2^prec.  With
    s = 2^-prec isqrt(|D| 2^2prec) (_sqrt_disc; s >= sqrt 3 - 2^-prec), g is
    off by under 2a/s units from 1/pi (within 2), a/(5s) from the isqrt and 1
    from the floor: in all under 3a/s + 1 units."""
    root = _sqrt_disc(form.discriminant(), prec)[0]
    return (((form.a * _constants(prec)[1] << prec) // root, 0),
            (((3 * form.a << prec) // root) + 2).bit_length())


def eval_form(z: mpc, cfg: PrecisionConfig) -> mpc:
    return _eval_bounded("F", z, cfg)[0]


def eval_P(z: mpc, cfg: PrecisionConfig) -> mpc:
    return _eval_bounded("P", z, cfg)[0]


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


def _nome(form: QuadForm, e_d: mpf, prec: int):
    """(1/q, q) as fixed-point complexes at scale 2^prec for q = exp(2 pi i
    w) at the root w of a reduced form [a, b, c] with a < 2^20, from the
    exponential E_D of its discriminant (_disc_exp at prec - _GUARD bits).

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
    and q = 2^-k/v within as much relative and 3 units more: 1/v (_recip,
    |v| within 2^-58 of [1, 2)) is within 3.5 units, and the shift by k >= 7
    bits (|q| < 0.00434) leaves under 3.5/2^7 + sqrt 2 < 1.5 of them.
    """
    a, b, d = form.a, form.b, form.discriminant()
    if a >> 20:
        raise ValueError(f"{form} has a >= 2^20")
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
    q = _recip(v, prec)
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

    def fill(self, reds) -> None:
        """Run the kernel at the reduced forms reds at once over the CPUs
        (_fork_map), longest series (least Im w) first: once per class and
        its mirror, and not where the table holds either."""
        wanted = {}
        for red in reds:
            mirror = QuadForm(red.a, -red.b, red.c)
            if mirror not in wanted and red not in self and mirror not in self:
                wanted[red] = None
        order = sorted(wanted, key=lambda red: -red.discriminant() / red.a ** 2)
        self.update(zip(order, _fork_map(self.kernel, [(red,) for red in order])))


def eval_P_cm(forms, cfg: PrecisionConfig) -> tuple[list, list]:
    """(values, error exponents), |P - value| < 2^e, of P at the CM points
    of forms [a, b, c] with 6 | a (_tail), one kernel call per SL2(Z) class
    of one table, without E6."""
    bits = cfg.eval_bits
    table = _kernel_table(bits, e6=False)
    pairs = []
    for form in forms:
        if form.a % 6:
            raise ValueError(f"form {form} has 6 not dividing a")
        pairs.append(_tail(form, table, cfg, ("p",))["p"].rounded(bits))
    return [value for value, _ in pairs], [err for _, err in pairs]


class _Pair:
    """The number z 2^(s - prec) within 2^(e + s - prec): a (value, error
    exponent) pair (z, e) at scale 2^prec (_emul) with its own binary
    exponent s, as eta^2 carries one.  Two pairs multiply and divide by
    _emul and _ediv, which add and subtract s, and the result is shifted to
    about prec bits (_normal), so that it keeps its relative precision
    however small or large; they add by _esum at the larger s, the other
    cut to it (cut).  An int adds exactly where it reaches the pair's last
    place (else within 1 unit), weights by _esum and divides by the floor,
    within 2^e/|k| + sqrt 2 <= 2^max(e, 1) units for |k| >= 4."""

    __slots__ = ("pair", "s", "prec")

    def __init__(self, pair, s: int, prec: int):
        self.pair, self.s, self.prec = pair, s, prec

    def cut(self, s: int):
        """The pair at the exponent s >= self.s: cut by d = s - self.s bits,
        within 2^(e - d) + 2 units."""
        ((x, y), e), d = self.pair, s - self.s
        return self.pair if not d else ((x >> d, y >> d), max(e - d, 1) + 1)

    def __add__(self, other):
        if isinstance(other, _Pair):
            s = max(self.s, other.s)
            return _Pair(_esum([(1, self.cut(s)), (1, other.cut(s))]), s, self.prec)
        ((x, y), e), k = self.pair, self.prec - self.s
        if k >= 0:
            return _Pair(((x + (other << k), y), e), self.s, self.prec)
        return _Pair(_esum([(1, self.pair), (1, ((other >> -k, 0), 0))]), self.s, self.prec)

    def __neg__(self):
        (x, y), e = self.pair
        return _Pair(((-x, -y), e), self.s, self.prec)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if isinstance(other, _Pair):
            return _normal(_emul(self.pair, other.pair, self.prec), self.s + other.s, self.prec)
        return _Pair(_esum([(other, self.pair)]), self.s, self.prec)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _Pair):
            return _normal(_ediv(self.pair, other.pair, self.prec), self.s - other.s, self.prec)
        (x, y), e = self.pair
        return _Pair(((x // other, y // other), max(e, 1)), self.s, self.prec)

    def rounded(self, bits: int):
        """(mpc, error exponent): the pair rounded to a bits-bit mpc (_rounded)."""
        return _rounded(self.pair, self.prec - self.s, bits)


def _normal(pair, s: int, prec: int) -> _Pair:
    """The (value, error exponent) pair at exponent s as a _Pair of about
    prec bits: shifted left exactly, or right within 2 units more (_Pair.cut)."""
    (x, y), e = pair
    t = _size(pair[0]) - prec if x or y else 0
    if t > 0:
        return _Pair(((x >> t, y >> t), max(e - t, 1) + 1), s + t, prec)
    return _Pair(((x << -t, y << -t), e - t), s + t, prec)


def _guard(values: dict, cfg: PrecisionConfig) -> None:
    """Refuse (NearSingularity) _Pairs within 2^(-working_bits/4) of zero,
    compared exactly in integers: |z|^2 < 2^k, k = 2 (prec - s -
    working_bits/4)."""
    for name, x in values.items():
        ((re, im), _), k = x.pair, 2 * (x.prec - x.s - cfg.working_bits // 4)
        if (re * re + im * im).bit_length() <= max(k, 0):
            size = abs(x.rounded(53)[0])
            raise NearSingularity(f"|{name}| = {mpmath.nstr(size, 5)} below guard")


# The keys of _tail that read F, thetaF and P.
_READ_BY = {"f": ("f", "a", "b", "aprime"), "theta_f": ("a", "aprime"), "p": ("p",)}


def _tail(form: QuadForm, table, cfg: PrecisionConfig, keys) -> dict:
    """The keys asked for of F, P, A, B, C, A' = A j (j - 1728), j and theta j
    ("f", "p", "a", "b", "c", "aprime", "j" and "theta_j") at the root alpha
    of form (6 | a), as _Pairs at prec = eval_bits + _GUARD from table.

    F of series.fp_series, thetaF and P = -thetaF - F g (_g) are formed only
    for the keys that read them (_READ_BY), from the basics at d alpha (d =
    1, 2, 3, 6 in this order: a class table's value at a form depends on
    which of its mirror pair it computed first), the root of [a/d, b, dc]
    (_at): F = f/den 2^-ex and thetaF = theta_f/den 2^-ex by the chain
    rule, theta E2 = (E2^2 - E4)/12, theta log eta = E2/24, and den 2^ex is
    the eta^2 product times 24/FP_PREFACTOR; they are _Pairs at s = -ex.
    C, j and theta j alone read the basics at alpha, at s = 0, eta^2 at its
    eta2_exp, and
        j = E4^3 / Delta,   theta j = -E4^2 E6 / Delta,   Delta = eta^24,
        A = -thetaF - F E2/6 + F E6 (7j - 6912)/(6 E4 (j - 1728)),
        B = F E6 j / E4,
        C = E4 E2*/(6 E6 j) - (7j - 6912)/(6 j (j - 1728)),
    E2* = E2 - 6g.  P = A + B C, and A' is regular at CM points.  j reads
    only eta^2 and E4, so a table for F, P and j needs no E6.  Asked for A,
    B, C or A', it refuses within 2^(-working_bits/4) of a zero of j, j -
    1728, E4 or E6, where they have poles (_guard)."""
    bits, prec, asked = cfg.eval_bits, cfg.eval_bits + _GUARD, set(keys)
    parts = [part for part, readers in _READ_BY.items() if not asked.isdisjoint(readers)]
    at = {d: _at(QuadForm(form.a // d, form.b, d * form.c), table, bits)
          for d in ([d for d, _ in FP_ETA_FACTORS] if parts else [1])}
    basics, out = at[1], {}
    if parts:
        pre = FP_PREFACTOR
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
        values = {"f": f, "theta_f": theta_f,
                  "p": _esum([(-1, theta_f), (-1, _emul(f, _g(form, prec), prec))])}
        out = {part: _Pair(_ediv(values[part], den, prec), -ex, prec) for part in parts}
    if asked <= {"f", "p"}:
        return {key: out[key] for key in keys}
    e4 = _Pair(basics["e4"], 0, prec)
    delta = _power(_Pair(basics["eta2"], basics["eta2_exp"], prec), 12)
    out["j"] = j = _power(e4, 3) / delta
    if asked <= {"f", "p", "j"}:
        return {key: out[key] for key in keys}
    e2, e6 = (_Pair(basics[key], 0, prec) for key in ("e2", "e6"))
    if "theta_j" in keys:
        out["theta_j"] = -(e4 * e4) * e6 / delta
    if not asked.isdisjoint(("a", "b", "c", "aprime")):
        _guard({"j": j, "j_1728": j - 1728, "e4": e4, "e6": e6}, cfg)
    if "c" in keys:
        e2star = _Pair(_esum([(1, basics["e2"]), (-6, _g(form, prec))]), 0, prec)
        out["c"] = e4 * e2star / (6 * e6 * j) - (7 * j - 6912) / (6 * j * (j - 1728))
    if "b" in keys:
        out["b"] = out["f"] * e6 * j / e4
    if "theta_f" in out:
        f = out["f"]
        out["a"] = a = (-out["theta_f"] - f * e2 / 6
                        + f * e6 * (7 * j - 6912) / (6 * e4 * (j - 1728)))
        out["aprime"] = a * j * (j - 1728)
    return {key: out[key] for key in keys}


def _values(form: QuadForm, table, cfg: PrecisionConfig, keys) -> dict:
    """_tail's pairs for keys, in the order asked, as eval_bits-bit mpc."""
    return {key: x.rounded(cfg.eval_bits)[0] for key, x in _tail(form, table, cfg, keys).items()}


def _eval_bounded(what: str, z: mpc, cfg: PrecisionConfig):
    """(value, bound): what ("F", "P", "A", "B", "C", "Aprime", "j" or
    "theta_j") at z as every public eval_* gives it, _tail at z's form
    (_form) in a table of its own rounded to eval_bits, and a bound on its
    absolute error at z's exact binary value."""
    key = what.lower()
    table = _kernel_table(cfg.eval_bits, e6=key not in ("f", "p", "j"))
    value, e = _tail(_form(z), table, cfg, (key,))[key].rounded(cfg.eval_bits)
    return value, mpf(2) ** e


def eval_A(z: mpc, cfg: PrecisionConfig) -> mpc:
    return _eval_bounded("A", z, cfg)[0]


def eval_B(z: mpc, cfg: PrecisionConfig) -> mpc:
    return _eval_bounded("B", z, cfg)[0]


def eval_C(z: mpc, cfg: PrecisionConfig) -> mpc:
    """C from the basics at z alone; level-1 invariant, so the value at a CM
    point only depends on its class."""
    return _eval_bounded("C", z, cfg)[0]


def eval_Aprime(z: mpc, cfg: PrecisionConfig) -> mpc:
    return _eval_bounded("Aprime", z, cfg)[0]
