"""Degree-12 resolvent polynomials of A' and B over the full modular group.

A' and B are weight-0 level-6 functions, so the monic product of
(X - g(gamma z)) over the 12 cosets of the level-6 group has coefficients
that are integer polynomials in j(z).  They are tabulated in their factored
shape and evaluated in it (a formal series as j gives the exact polynomials),
compared with the coset product over the exact image forms of z's form; at
CM values of j they witness that A' and B are algebraic integers.
"""

from __future__ import annotations

import mpmath
from mpmath import mpc, mpf

from .evaluate import _form, _kernel_table, _values
from .precision import PrecisionConfig
from .quadforms import QuadForm
from .recognize import _carried_bits, orbit_product
from .series import _power


def _aprime_coefficients(j) -> tuple:
    """a_0..a_11 of the A' resolvent at j, in the factored shape of the
    table: numbers at a number, the exact polynomials at the series j."""
    a11 = -2 * (j - 2**6 * 3**3) * (j - 2**5 * 3**3) * j
    a10 = -1 * ((j - 2**6 * 3**3) * j**2
                * (7 * 67 * j**2 - 2**6 * 3**2 * 2053 * j + 2**11 * 3**5 * 31 * 53))
    a9 = 2 * (j - 2**6 * 3**3)**2 * j**2 * (
        3**2 * j**4 - 2**3 * 6379 * j**3 + 2**6 * 3**2 * 162713 * j**2
        - 2**12 * 3**5 * 72797 * j + 2**25 * 3**12)
    a8 = 2 * (j - 2**6 * 3**3)**2 * j**3 * (
        2 * 7 * 13**2 * j**5 - 3**2 * 409 * 3373 * j**4
        + 2**7 * 3**4 * 1237 * 1973 * j**3 - 2**14 * 3**7 * 5 * 311 * 443 * j**2
        + 2**21 * 3**10 * 31 * 2897 * j - 2**31 * 3**14 * 163)
    a7 = 2**2 * (j - 2**6 * 3**3)**3 * j**4 * (
        11 * 61 * 193 * j**5 - 2**3 * 3 * 27510443 * j**4
        + 2**9 * 3**3 * 97550587 * j**3 - 2**16 * 3**6 * 11 * 2599451 * j**2
        + 2**23 * 3**9 * 5 * 739 * 1109 * j - 2**34 * 3**13 * 4691)
    a6 = 2**3 * (j - 2**6 * 3**3)**3 * j**4 * (
        2**4 * 3**2 * j**8 + 7 * 199 * 1373 * j**7
        - 2**2 * 29 * 37 * 281 * 13913 * j**6 + 2**13 * 3**3 * 7 * 233 * 143281 * j**5
        - 2**15 * 3**7 * 5 * 11 * 21117827 * j**4 + 2**23 * 3**9 * 3943 * 117577 * j**3
        - 2**31 * 3**12 * 769 * 45317 * j**2 + 2**41 * 3**16 * 7 * 15923 * j
        - 2**50 * 3**20 * 269)
    a5 = 2**4 * (j - 2**6 * 3**3)**4 * j**5 * (
        2**6 * 3**4 * 5 * j**8 - 7 * 5051 * 5939 * j**7
        + 2**3 * 3**2 * 5 * 61 * 101 * 330037 * j**6
        - 2**9 * 3**5 * 96289 * 119173 * j**5 + 2**16 * 3**9 * 17 * 77252741 * j**4
        - 2**22 * 3**11 * 11 * 71 * 523 * 4091 * j**3
        + 2**35 * 3**14 * 5 * 673 * 977 * j**2 - 2**41 * 3**18 * 79 * 1831 * j
        + 2**55 * 3**24)
    a4 = (j - 2**6 * 3**3)**4 * j**6 * (
        2**8 * 3**3 * 5 * 2003 * j**9 - 409 * 39157 * 44483 * j**8
        + 2**9 * 3 * 2092618568983 * j**7 - 2**20 * 3**4 * 98512996093 * j**6
        + 2**20 * 3**7 * 41 * 242261 * 608831 * j**5
        - 2**28 * 3**10 * 5 * 1231 * 155631757 * j**4
        + 2**32 * 3**13 * 521 * 3077579657 * j**3
        - 2**42 * 3**16 * 997 * 1607 * 16657 * j**2
        + 2**52 * 3**20 * 23 * 541 * 6863 * j - 2**63 * 3**24 * 5 * 11987)
    a3 = 2 * (j - 2**6 * 3**3)**5 * j**6 * (
        3**2 * 377732207 * j**10 - 2**6 * 5**2 * 7 * 101 * 28520381 * j**9
        + 2**11 * 11 * 337 * 17990477821 * j**8
        - 2**20 * 3**3 * 179 * 389 * 171956657 * j**7
        + 2**23 * 3**6 * 5 * 479 * 37193046587 * j**6
        - 2**30 * 3**9 * 1283 * 28703 * 758137 * j**5
        + 2**36 * 3**12 * 7 * 31 * 54791988203 * j**4
        - 2**45 * 3**15 * 19**2 * 151 * 7738067 * j**3
        + 2**55 * 3**20 * 41 * 12810583 * j**2 - 2**65 * 3**24 * 1103107 * j
        + 2**76 * 3**27 * 1447)
    a2 = 2**2 * (j - 2**6 * 3**3)**5 * j**7 * (
        42967 * 2406947 * j**11 - 2**3 * 557 * 1783 * 140768209 * j**10
        + 2**9 * 3**4 * 6205891 * 21226039 * j**9
        - 2**19 * 3**7 * 5 * 11 * 251872948013 * j**8
        + 2**24 * 3**9 * 5 * 13 * 23 * 37 * 521 * 3203149 * j**7
        - 2**29 * 3**13 * 47242981376477 * j**6
        + 2**35 * 3**16 * 227 * 112292655271 * j**5
        - 2**41 * 3**18 * 107 * 269749728667 * j**4
        + 2**54 * 3**22 * 43 * 449215127 * j**3
        - 2**61 * 3**27 * 5 * 653 * 54193 * j**2
        + 2**72 * 3**30 * 139 * 3719 * j - 2**82 * 3**35 * 139)
    a1 = 2**3 * (j - 2**6 * 3**3)**6 * j**8 * (
        1847032397279 * j**11 - 2**6 * 47 * 157 * 3691 * 11660843 * j**10
        + 2**14 * 3**4 * 383 * 25679 * 7797631 * j**9
        - 2**20 * 3**6 * 400129001343469 * j**8
        + 2**24 * 3**9 * 5 * 41 * 503 * 67307 * 267271 * j**7
        - 2**30 * 3**12 * 19 * 509 * 13597 * 11431571 * j**6
        + 2**37 * 3**15 * 31 * 3038701 * 4610147 * j**5
        - 2**43 * 3**20 * 7**2 * 41 * 73 * 2381 * 56891 * j**4
        + 2**52 * 3**21 * 5 * 139 * 9239401667 * j**3
        - 2**62 * 3**25 * 5 * 1381 * 3698087 * j**2
        + 2**73 * 3**29 * 11 * 47 * 58693 * j - 2**85 * 3**33 * 8161)
    a0 = -(2**4) * (j - 2**6 * 3**3)**6 * j**8 * (
        2**3 * 3**2 * 7**6 * j**14 - 5 * 13 * 3109 * 76441597 * j**13
        + 2**4 * 3449 * 4363 * 873750089 * j**12
        - 2**11 * 3**4 * 7 * 2087 * 57859 * 9420337 * j**11
        + 2**16 * 3**8 * 11**2 * 73 * 125183 * 10636957 * j**10
        - 2**26 * 3**9 * 691 * 14434308694753 * j**9
        + 2**31 * 3**13 * 101 * 283 * 252059913139 * j**8
        - 2**37 * 3**16 * 11 * 13 * 17 * 647 * 863 * 4253233 * j**7
        + 2**43 * 3**18 * 631819 * 16451871913 * j**6
        - 2**48 * 3**23 * 149 * 233 * 90533 * 330413 * j**5
        + 2**59 * 3**25 * 23 * 1408302006413 * j**4
        - 2**70 * 3**27 * 726838208711 * j**3
        + 2**80 * 3**32 * 7 * 263 * 337 * 1327 * j**2
        - 2**90 * 3**37 * 569731 * j + 2**100 * 3**39 * 17**3)
    return (a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11)


def _b_coefficients(j) -> tuple:
    """b_0..b_11 of the B resolvent at j, in the factored shape of the
    table: numbers at a number, the exact polynomials at the series j."""
    b11 = -1 * ((j - 2**6 * 3**3) * j)
    b10 = -2 * 13 * 3**2 * (j - 2**6 * 3**3) * j**2
    b9 = 2**2 * (j - 2**3 * 3**6) * (j - 2**6 * 3**3)**2 * j**2
    b8 = 3**4 * (13 * j - 2**5 * 3 * 163) * (j - 2**6 * 3**3)**2 * j**3
    b7 = 5 * 2**5 * 3**6 * (j - 2**6 * 3**3)**3 * j**4
    b6 = 2**2 * 3**3 * (j - 2**6 * 3**3)**3 * j**4 * (
        j**2 + 2**4 * 3**5 * 13 * j - 2**9 * 3**5 * 269)
    b5 = 2**5 * 3**5 * (5 * j - 2**6 * 3**4) * (j - 2**6 * 3**3)**4 * j**5
    b4 = 2**5 * 3**8 * (31 * j - 2**3 * 3**2 * 1471) * (j - 2**6 * 3**3)**4 * j**6
    b3 = 2**8 * 3**8 * (383 * j - 2**6 * 3 * 1447) * (j - 2**6 * 3**3)**5 * j**6
    b2 = 2**9 * 3**9 * (3923 * j - 2**6 * 3**5 * 139) * (j - 2**6 * 3**3)**5 * j**7
    b1 = 13 * 19 * 3**11 * 2**15 * (j - 2**6 * 3**3)**6 * j**8
    b0 = -(2**8) * 3**9 * (j - 2**6 * 3**3)**6 * j**8 * (
        j**2 - 2**7 * 3**3 * 1399 * j + 2**12 * 3**6 * 17**3)
    return (b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11)


def coset_reps():
    """A complete system of 12 coset representatives of the level-6 group in
    the full modular group, grown from the identity by T/S products and kept
    pairwise inequivalent by the exact mod-6 test."""
    reps = []
    seen = set()
    queue = [(1, 0, 0, 1)]
    while queue and len(reps) < 12:
        mat = queue.pop(0)
        key = _coset_key(mat)
        if key in seen:
            continue
        seen.add(key)
        reps.append(mat)
        a, b, c, d = mat
        queue.append((a, a + b, c, c + d))  # right multiply by T
        queue.append((b, -a, d, -c))  # right multiply by S
    assert len(reps) == 12
    return reps


def _coset_key(mat):
    """Projective class of the bottom row mod 6: gamma1 ~ gamma2 exactly
    when the bottom rows agree up to a unit mod 6."""
    _, _, c, d = mat
    return min(((u * c) % 6, (u * d) % 6) for u in (1, 5))  # units mod 6


def _psi_and_j(z: mpc, cfg: PrecisionConfig):
    """(psi, j(z)): psi the coefficients (ascending, monic degree 12) of
    prod(X - g(gamma z)) over the coset representatives, keyed "aprime" and
    "b" for g = A' and B (level-6 invariant), and j the identity's, from each
    coset image gamma z at its exact form z's form.transform(gamma^-1)
    (_form; 6 | a kept), in one class table: with 2, 3 and 6 times each, 48
    points in 20 classes."""
    form, table = _form(z), _kernel_table(cfg.eval_bits)
    values = [_values(form.transform((d, -b, -c, a)), table, cfg, ("aprime", "b", "j"))
              for a, b, c, d in coset_reps()]
    return ({key: list(reversed(orbit_product([v[key] for v in values], 1)))
             for key in ("aprime", "b")}, values[0]["j"])


class _Rounded:
    """A number whose ** is series._power, so that the factored tables take
    rounded powers, not mpmath's exact complex ones; a power is formed once
    per (value, exponent) in the powers dict its numbers share."""

    def __init__(self, value, powers: dict):
        self.value, self.powers = value, powers

    def __add__(self, other):
        return _Rounded(self.value + getattr(other, "value", other), self.powers)

    def __sub__(self, other):
        return _Rounded(self.value - getattr(other, "value", other), self.powers)

    def __mul__(self, other):
        return _Rounded(self.value * getattr(other, "value", other), self.powers)

    def __pow__(self, n: int):
        key = (self.value._mpc_, n)
        power = self.powers.get(key)
        if power is None:
            power = self.powers[key] = _power(self.value, n)
        return _Rounded(power, self.powers)

    __radd__, __rmul__ = __add__, __mul__


def psi_tabulated(j_value) -> dict:
    """The tabulated coefficients of both resolvents evaluated in their
    factored shape at a j-value, with rounded powers shared within the call
    (ascending, with the monic leading 1), keyed "aprime" and "b"."""
    with mpmath.workprec(_carried_bits([j_value]) + 32):
        j_value = _Rounded(mpc(j_value), {})
        return {key: [c.value for c in table(j_value)] + [mpc(1)]
                for key, table in (("aprime", _aprime_coefficients), ("b", _b_coefficients))}


def tabulated_deviations(z: mpc, cfg: PrecisionConfig) -> dict:
    """Normalized per-coefficient deviations (ascending) between the
    numerically expanded resolvents and the tabulated polynomials at j(z),
    keyed "aprime" and "b"."""
    numeric, jval = _psi_and_j(z, cfg)
    with mpmath.workprec(cfg.eval_bits):
        tabulated = psi_tabulated(jval)
        return {key: [abs(num - tab) / (1 + abs(tab))
                      for num, tab in zip(numeric[key], tabulated[key])]
                for key in numeric}


def _residual_at(coeffs: list, g: mpc) -> mpf:
    """|sum c_k g^k| relative to its largest term (and at least 1)."""
    total = mpc(0)
    largest = mpf(1)
    power = mpc(1)
    for c in coeffs:
        term = c * power
        total += term
        largest = max(largest, abs(term))
        power *= g
    return abs(total) / largest


def psi_root_check(form: QuadForm, cfg: PrecisionConfig) -> dict:
    """Residuals of A'(alpha) and B(alpha) against their own tabulated
    resolvents at j(alpha), alpha the CM point of form, keyed "aprime" and
    "b": the numerical witness that both values are algebraic integers."""
    with mpmath.workprec(cfg.eval_bits):
        v = _values(form, _kernel_table(cfg.eval_bits), cfg, ("aprime", "b", "j"))
        tables = psi_tabulated(v["j"])
        return {key: _residual_at(tables[key], v[key]) for key in tables}
