"""Turning multisets of high-precision CM values into exact integers.

Integer recognition is plain nearest-integer rounding: every target here is
a rational integer (orbit products, traces and norms), so rounding plus
enough precision is complete, and lattice-based relation detection would be
overkill.  compute_pn rounds under the adaptive precision ladder; the norms
(modpoly.j_norm and modpoly.beta_norm) round through norm_6unit_check with
their error bound as the tolerance.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import mpmath
from mpmath import mpc, mpf

from .errors import NotNearIntegral
from .evaluate import _cmul, _conj, _csum, _fixed, _to_mpc, eval_P_cm
from .precision import PrecisionConfig, run_adaptive
from .quadforms import QuadForm, conjugate_partners, enumerate_qn
from .series import _pentagonal_exponents


def _carried_bits(values) -> int:
    """Highest mantissa precision present in the values (so later arithmetic
    never silently truncates them to the ambient context).  The values must
    not be converted first: mpc()/mpf() round to the ambient precision."""
    best = 53
    for v in values:
        for part in (getattr(v, "real", v), getattr(v, "imag", 0)):
            t = getattr(part, "_mpf_", None)
            if t is not None:
                best = max(best, int(t[3]))
    return best


def orbit_product(values, scale: int = 1):
    """Monic polynomial prod(x - scale*v) over the values, coefficients
    leading-first as exact mpc, on Gaussian ints scaled by 2^(32 + the bits
    the values carry).  A value whose exact conjugate is also among the
    values enters with it as one real quadratic x^2 - 2 Re(sv) x + |sv|^2,
    so conjugate pairs and real values give exactly real coefficients; the
    others enter as linear factors, in input order."""
    if not values:
        raise ValueError("orbit product needs at least one value")
    prec = _carried_bits(values) + 32
    with mpmath.workprec(prec):
        values = [mpc(v) for v in values]
    unpaired = Counter(v._mpc_ for v in values)
    coeffs = [(1 << prec, 0)]
    for v in values:
        if not unpaired[v._mpc_]:
            continue  # entered with its conjugate
        unpaired[v._mpc_] -= 1
        x = _csum([(scale, _fixed(v, prec))])
        conj = _conj(v)._mpc_
        if v.imag and unpaired[conj]:
            unpaired[conj] -= 1
            lower = [(-2 * x[0], 0), ((x[0] * x[0] + x[1] * x[1]) >> prec, 0)]
        else:
            lower = [(-x[0], -x[1])]
        product = coeffs + [(0, 0)] * len(lower)
        for i, c in enumerate(coeffs):
            for k, f in enumerate(lower, i + 1):
                term = _cmul(c, f, prec)
                product[k] = (product[k][0] + term[0], product[k][1] + term[1])
        coeffs = product
    return [_to_mpc(c, prec, 0) for c in coeffs]


def round_to_integers(poly, tol):
    """Round complex coefficients to integers; fails loudly above tolerance.

    Returns (integer coefficients, residual) where the residual is the max
    distance to the rounded value including imaginary parts.
    """
    rounded = []
    residual = mpf(0)
    with mpmath.workprec(_carried_bits(poly) + 32):
        for c in poly:
            c = mpc(c)
            n = int(mpmath.nint(mpmath.re(c)))
            residual = max(residual, abs(c - n))
            rounded.append(n)
    if not residual < tol:
        raise NotNearIntegral(
            f"residual {mpmath.nstr(residual, 5)} above tolerance {mpmath.nstr(mpf(tol), 5)}",
            residual=residual)
    return rounded, residual


_pentagonal_cache = [1]


def pentagonal_pn(n: int) -> int:
    """p(n) by Euler's pentagonal recurrence (exact, all big integers)."""
    if n < 0:
        return 0
    while len(_pentagonal_cache) <= n:
        m = len(_pentagonal_cache)
        # prod (1 - q^k) * sum p(m) q^m = 1
        _pentagonal_cache.append(-sum(s * _pentagonal_cache[m - e]
                                      for e, s in _pentagonal_exponents(m + 1)))
    return _pentagonal_cache[n]


@dataclass(frozen=True)
class OrbitRecord:
    """Everything computed for one n: forms, CM values, the scaled orbit
    polynomial, the recognized p(n) and the residuals that certify it."""

    n: int
    d: int
    forms: tuple[QuadForm, ...]
    p_values: tuple[mpc, ...]
    scaled_poly: tuple[int, ...]
    pn: int
    residual: mpf
    achieved_bits: int
    sharpness_divisor: int

    def to_json_dict(self) -> dict:
        digits = max(30, int(self.achieved_bits * 0.30103))
        return {
            "n": self.n,
            "discriminant": self.d,
            "forms": [[f.a, f.b, f.c] for f in self.forms],
            "p_values": [[mpmath.nstr(mpmath.re(v), digits),
                          mpmath.nstr(mpmath.im(v), digits)] for v in self.p_values],
            "scaled_poly": [str(c) for c in self.scaled_poly],
            "pn": str(self.pn),
            "residual": mpmath.nstr(self.residual, 10),
            "achieved_bits": self.achieved_bits,
            "sharpness_divisor": self.sharpness_divisor,
        }


def sharpness_divisor(p_values, n: int, tol) -> int:
    """24n - 1 when prod(x - (24n - 1) P) is integral, else 0.  No smaller
    divisor d needs a try: if prod(x - d P) is integral, so is
    prod(x - (24n - 1) P), its k-th coefficient times ((24n - 1)/d)^k."""
    scale = 24 * n - 1
    try:
        round_to_integers(orbit_product(p_values, scale), tol)
    except NotNearIntegral:
        return 0
    return scale


def compute_pn(n: int, cfg: PrecisionConfig) -> OrbitRecord:
    """The full orbit record for n under the adaptive ladder: the values
    and the scaled orbit polynomial must stabilize across a precision
    doubling before anything is rounded.  The polynomial's x^(h-1)
    coefficient is -(24n - 1)^2 p(n), so p(n) is read from it exactly, and
    the full scale 24n - 1 is the sharpness divisor it has just confirmed.

    P is evaluated once per conjugate pair, in one ``eval_P_cm`` call per
    rung.  The partner of [a, b, c] is the class of [6c, b, a/6]
    (``conjugate_partners``), at 1/(6 conj alpha): P has real Fourier
    coefficients and W6 sign +1, so its value there is exactly conj P(alpha).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    forms = enumerate_qn(n)
    partners = conjugate_partners(forms)
    firsts = [i for i, k in enumerate(partners) if k >= i]
    scale = 24 * n - 1

    def task(bits):
        sub = cfg.with_bits(bits)
        own = dict(zip(firsts, eval_P_cm([forms[i] for i in firsts], sub)))
        with mpmath.workprec(sub.eval_bits):
            ps = [own[i] if k >= i else mpmath.conj(own[k])
                  for i, k in enumerate(partners)]
        return {"p_values": ps, "poly": orbit_product(ps, scale)}

    result, achieved = run_adaptive(task, cfg)
    poly_int, residual = round_to_integers(result["poly"], cfg.abs_tol)
    pn, remainder = divmod(-poly_int[1], scale * scale)
    if remainder:
        raise NotNearIntegral(
            f"p({n}): trace {-poly_int[1]} of {scale} P is not divisible "
            f"by {scale}^2", residual=residual)
    return OrbitRecord(
        n=n, d=1 - 24 * n, forms=tuple(forms),
        p_values=tuple(result["p_values"]),
        scaled_poly=tuple(poly_int), pn=pn,
        residual=residual, achieved_bits=achieved,
        sharpness_divisor=scale)


def norm_6unit_check(value, label: str, tol):
    """Round a norm (the product over a full Galois-stable multiset) to an
    integer and report whether it is coprime to 6: (norm, coprime_to_6)."""
    try:
        (norm,), _ = round_to_integers([value], tol)
    except NotNearIntegral as exc:
        raise NotNearIntegral(f"{label}: {exc}", residual=exc.residual) from None
    return norm, math.gcd(norm, 6) == 1

