"""Exact formal Laurent series in q over arbitrary-precision rationals.

Coefficients are ints or fractions.Fraction, never floats: the whole point of
this module is integrality checking, which rounding would beg.  A series knows
its truncation modulus ``order``: coefficients are valid for every exponent
strictly below it, and arithmetic never silently extends validity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import FractionalPower, ZeroLeadingCoefficient


def _norm_coeff(c):
    """Keep exact coefficients as plain ints whenever possible (much faster)."""
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return int(c)
        return c
    if isinstance(c, int):
        return c
    raise TypeError(f"coefficient must be int or Fraction, got {type(c)!r}")


def _is_integer(c) -> bool:
    return isinstance(c, int) or c.denominator == 1


def _power(x, n: int):
    """x**n for n >= 1 by binary squaring, in x's own products (rounded ones
    for an mpc: mpmath forms small complex powers exactly, and large ones
    through log/exp)."""
    result = None
    while n:
        if n & 1:
            result = x if result is None else result * x
        n >>= 1
        if n:
            x = x * x
    return result


class FormalSeries:
    """Truncated Laurent series sum_{e >= start} coeffs[e-start] * q^e + O(q^order)."""

    __slots__ = ("start", "coeffs", "order")

    def __init__(self, start: int, coeffs: Sequence, order: int | None = None):
        coeffs = [_norm_coeff(c) for c in coeffs]
        if order is None:
            order = start + len(coeffs)
        if start + len(coeffs) > order:
            # zero entries beyond the stated validity carry no information
            keep = max(0, order - start)
            if any(c != 0 for c in coeffs[keep:]):
                raise ValueError("nonzero coefficient beyond the truncation order")
            coeffs = coeffs[:keep]
        # pad implicit zeros up to the stated order, then strip leading zeros
        coeffs.extend([0] * (order - start - len(coeffs)))
        lead = 0
        while lead < len(coeffs) and coeffs[lead] == 0:
            lead += 1
        self.start = start + lead if coeffs[lead:] else order
        self.coeffs = tuple(coeffs[lead:])
        self.order = order

    @classmethod
    def zero(cls, order: int) -> "FormalSeries":
        return cls(order, [], order)

    @classmethod
    def constant(cls, value, order: int) -> "FormalSeries":
        return cls(0, [value], order)

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, exponent: int):
        """Coefficient of q^exponent; exponent must lie below the valid order."""
        if exponent >= self.order:
            raise IndexError(f"exponent {exponent} beyond valid order {self.order}")
        i = exponent - self.start
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def truncate(self, order: int) -> "FormalSeries":
        if order > self.order:
            raise ValueError("cannot extend validity by truncation")
        return FormalSeries(self.start, self.coeffs[: max(0, order - self.start)], order)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FormalSeries) and self.start == other.start
                and self.order == other.order and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.start, self.coeffs, self.order))

    def __neg__(self) -> "FormalSeries":
        return FormalSeries(self.start, [-c for c in self.coeffs], self.order)

    def __add__(self, other) -> "FormalSeries":
        if not isinstance(other, FormalSeries):
            other = FormalSeries.constant(other, self.order)
        order = min(self.order, other.order)
        if self.is_zero():
            return other.truncate(order)
        if other.is_zero():
            return self.truncate(order)
        start = min(self.start, other.start)
        out = [0] * (order - start)
        for src in (self, other):
            for i, c in enumerate(src.coeffs):
                e = src.start + i
                if e < order:
                    out[e - start] += c
        return FormalSeries(start, out, order)

    __radd__ = __add__

    def __sub__(self, other) -> "FormalSeries":
        if not isinstance(other, FormalSeries):
            other = FormalSeries.constant(other, self.order)
        return self + (-other)

    def __rsub__(self, other) -> "FormalSeries":
        return (-self) + other

    def __mul__(self, other) -> "FormalSeries":
        if not isinstance(other, FormalSeries):
            return FormalSeries(self.start, [c * other for c in self.coeffs], self.order)
        if self.is_zero() or other.is_zero():
            return FormalSeries.zero(min(self.order + other.start, other.order + self.start))
        # validity of a product: exponent e is complete iff every split
        # i + j = e with i >= a.start, j >= b.start has both factors known
        order = min(self.order + other.start, other.order + self.start)
        start = self.start + other.start
        out = [0] * (order - start)
        bc = other.coeffs
        for i, ca in enumerate(self.coeffs):
            if ca == 0:
                continue
            base = self.start + i + other.start - start
            top = min(len(bc), order - start - base)
            for jj in range(top):
                cb = bc[jj]
                if cb:
                    out[base + jj] += ca * cb
        return FormalSeries(start, out, order)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "FormalSeries":
        """Exact quotient by one recurrence over the divisor's nonzero terms:
        q_k = (a_k - sum_{j >= 1, b_j != 0} b_j q_{k-j}) / b_0, in ints when
        b_0 is +-1 and through Fractions otherwise.  Valid wherever the
        product with the inverse would be (__mul__, inverse())."""
        if not isinstance(other, FormalSeries):
            return NotImplemented
        if other.is_zero():
            raise ZeroLeadingCoefficient("cannot divide by the zero series")
        start = self.start - other.start
        order = min(self.order - other.start, other.order - 2 * other.start + self.start)
        n = max(0, order - start)
        lead, a = other.coeffs[0], self.coeffs
        unit_lead = lead == 1 or lead == -1  # fast path: no Fraction churn
        inv_lead = lead if unit_lead else Fraction(1) / lead
        terms = [(j, c) for j, c in enumerate(other.coeffs[1:n], 1) if c]
        out = [0] * n
        live = 0  # terms[:live] are the divisor terms with j <= k
        for k in range(n):
            while live < len(terms) and terms[live][0] <= k:
                live += 1
            acc = a[k] if k < len(a) else 0
            for j, c in terms[:live]:
                acc -= c * out[k - j]
            out[k] = acc * lead if unit_lead else _norm_coeff(acc * inv_lead)
        return FormalSeries(start, out, order)

    def __rtruediv__(self, other) -> "FormalSeries":
        # a numerator known as far as self's unit part makes the quotient
        # valid as far as the inverse (order 1 for a zero self, which the
        # division refuses)
        return FormalSeries.constant(other, max(1, self.order - self.start)) / self

    def inverse(self) -> "FormalSeries":
        """Multiplicative inverse as 1 / self: the one exact division, a
        recurrence over self's nonzero terms that stays in ints when the
        leading coefficient is +-1; requires a nonzero series."""
        return 1 / self

    def __pow__(self, n: int) -> "FormalSeries":
        if not isinstance(n, int):
            raise TypeError("series powers must be integers")
        if n < 0:
            return self.inverse() ** (-n)
        # validity is tracked by the multiplications themselves
        return _power(self, n) if n else FormalSeries.constant(1, self.order - self.start)

    def rescale_exponents(self, d: int) -> "FormalSeries":
        """Substitute q -> q^d (d >= 1)."""
        if d < 1:
            raise ValueError("substitution degree must be >= 1")
        out = [0] * ((len(self.coeffs) - 1) * d + 1) if self.coeffs else []
        for i, c in enumerate(self.coeffs):
            out[i * d] = c
        return FormalSeries(self.start * d, out, self.order * d)

    def theta(self) -> "FormalSeries":
        """Apply q d/dq: the coefficient of q^m becomes m times itself."""
        return FormalSeries(self.start,
                            [(self.start + i) * c for i, c in enumerate(self.coeffs)],
                            self.order)

    def first_nonintegral(self, through: int | None = None):
        """Smallest exponent < through (default: order) with a non-integer coefficient."""
        top = self.order if through is None else min(through, self.order)
        for i, c in enumerate(self.coeffs):
            e = self.start + i
            if e >= top:
                break
            if not _is_integer(c):
                return e
        return None

    def to_json_dict(self) -> dict:
        return {"start_exp": self.start, "order": self.order,
                "coeffs": [str(Fraction(c)) for c in self.coeffs]}

    def __repr__(self):
        shown = ", ".join(f"q^{self.start + i}: {c}" for i, c in enumerate(self.coeffs[:4]))
        more = "..." if len(self.coeffs) > 4 else ""
        return f"FormalSeries({shown}{more} + O(q^{self.order}))"


def _divisor_power_sums(k: int, n: int) -> list[int]:
    """sigma_k(m) for m = 0..n (index 0 unused) via a divisor sieve."""
    sig = [0] * (n + 1)
    for d in range(1, n + 1):
        dk = d ** k
        for m in range(d, n + 1, d):
            sig[m] += dk
    return sig


def eisenstein_series(k: int, order: int) -> FormalSeries:
    """E_2, E_4 or E_6 as an exact integer series to the given order."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if k == 2:
        mult, power = -24, 1
    elif k == 4:
        mult, power = 240, 3
    elif k == 6:
        mult, power = -504, 5
    else:
        raise ValueError(f"unsupported Eisenstein weight {k}")
    sig = _divisor_power_sums(power, order - 1)
    coeffs = [1] + [mult * sig[m] for m in range(1, order)]
    return FormalSeries(0, coeffs, order)


def _pentagonal_exponents(order: int):
    """(exponent, sign) of the nonconstant terms of prod_{n>=1} (1 - q^n)
    below ``order``, ascending: by the pentagonal number theorem they sit at
    k(3k - 1)/2 and k(3k + 1)/2 with sign (-1)^k."""
    k = 1
    while True:
        e1 = k * (3 * k - 1) // 2
        if e1 >= order:
            return
        s = -1 if k % 2 else 1
        yield e1, s
        e2 = k * (3 * k + 1) // 2
        if e2 < order:
            yield e2, s
        k += 1


def euler_product_series(order: int) -> FormalSeries:
    """prod_{n>=1} (1 - q^n) by the pentagonal number theorem."""
    coeffs = [0] * max(order, 1)
    if order > 0:
        coeffs[0] = 1
    for e, s in _pentagonal_exponents(order):
        coeffs[e] = s
    return FormalSeries(0, coeffs, order)


def _euler_factor(d: int, order: int) -> FormalSeries:
    """prod_{n>=1} (1 - q^(dn)) below ``order``: the unit part of eta(d z)."""
    return euler_product_series(order).rescale_exponents(d).truncate(order)


def eta_quotient_series(factors, order: int) -> FormalSeries:
    """Exact expansion of prod eta(d z)^e over the (d, e) factors; the
    q-power sum(d*e)/24 in front must be an integer."""
    num = sum(d * e for d, e in factors)
    if num % 24 != 0:
        raise FractionalPower(f"weight-shift exponent {num}/24 is not an integer")
    shift = num // 24
    unit_order = order - shift
    if unit_order < 1:
        raise ValueError("order too small for this eta quotient")
    result = FormalSeries.constant(1, unit_order)
    for d, e in factors:
        result = result * (_euler_factor(d, unit_order) ** e)
    return FormalSeries(result.start + shift, result.coeffs, result.order + shift)


FP_ETA_FACTORS = ((1, 2), (2, 2), (3, 2), (6, 2))
FP_E2_COMBINATION = ((1, 1), (2, -2), (3, -3), (6, 6))
FP_PREFACTOR = Fraction(1, 2)


def fp_series(order: int) -> FormalSeries:
    """The weight -2 eta-quotient form whose CM values encode partition numbers.

    Exact expansion of (E2(z) - 2E2(2z) - 3E2(3z) + 6E2(6z)) / 2 divided by
    eta(z)^2 eta(2z)^2 eta(3z)^2 eta(6z)^2 = q prod (1 - q^(dn))^2 over
    d = 1, 2, 3, 6: eight exact divisions, each one recurrence over the
    Euler factor's pentagonal terms (about 2 sqrt(order) of them), all in
    ints since every factor is monic; starts q^-1 - 10 - 29q - ...
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    margin = order + 4
    e2 = eisenstein_series(2, margin)
    num = FormalSeries.zero(margin)
    for d, c in FP_E2_COMBINATION:
        num = num + e2.rescale_exponents(d).truncate(margin) * c
    quotient = num * FP_PREFACTOR
    for d, e in FP_ETA_FACTORS:
        factor = _euler_factor(d, margin)
        for _ in range(e):
            quotient = quotient / factor
    shift = sum(d * e for d, e in FP_ETA_FACTORS) // 24
    return FormalSeries(quotient.start - shift, quotient.coeffs,
                        quotient.order - shift).truncate(order)


def delta_series(order: int) -> FormalSeries:
    """The discriminant cusp form as eta(z)^24, exact integer coefficients."""
    return eta_quotient_series(((1, 24),), order)


def j_series(order: int) -> FormalSeries:
    """The modular j-function E4^3 / Delta as an exact integer series."""
    if order < 2:
        raise ValueError("order must be >= 2")
    margin = order + 4
    e4 = eisenstein_series(4, margin)
    return ((e4 ** 3) / delta_series(margin)).truncate(order)


@dataclass(frozen=True)
class HypothesisReport:
    f_integral: bool
    companion_integral: bool
    first_failure: int | None


def _companion(f: FormalSeries, order: int) -> FormalSeries:
    """theta(F) + F*(E2*E4 - E6)/(6*E4), exact through exponents below order,
    as theta(F) + F*theta(E4)/(2*E4) by Ramanujan's theta(E4) = (E2*E4 -
    E6)/3: F*theta(E4) divided by E4 in one recurrence (in ints when F is,
    E4 being monic), then the 1/2 as a Fraction."""
    e4 = eisenstein_series(4, order - min(0, f.start) + 4)
    return f.theta() + f * e4.theta() / e4 * Fraction(1, 2)


def hypothesis_check(f: FormalSeries, order: int) -> HypothesisReport:
    """Integrality at infinity of F and of theta(F) + F*(E2*E4 - E6)/(6*E4).

    Both series are computed exactly through exponents below ``order``; the
    division by E4 is exact and the 1/2 exact rational arithmetic
    (_companion), so that integrality is a post-hoc finding, never an
    assumption.
    """
    f_fail = f.first_nonintegral(order)
    c_fail = _companion(f, order).first_nonintegral(order)
    failures = [e for e in (f_fail, c_fail) if e is not None]
    return HypothesisReport(f_integral=f_fail is None,
                            companion_integral=c_fail is None,
                            first_failure=min(failures) if failures else None)
