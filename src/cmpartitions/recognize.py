"""Turning multisets of high-precision CM values into exact integers.

Integer recognition is plain nearest-integer rounding: every target here is
a rational integer (orbit products, traces and norms), so rounding plus
enough precision is complete, and lattice-based relation detection would be
overkill.  compute_pn and the norms (modpoly.j_norm and modpoly.beta_norm)
accept a rung of precision.run_adaptive on its error bound and round with
that bound as the tolerance.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import mpmath
from mpmath import mpc, mpf
from mpmath.libmp import from_man_exp, fzero

from .errors import NotNearIntegral, PrecisionExhausted
from .evaluate import (_BUDGET_BITS, _cmul, _conj, _csum, _eprod, _fixed, _to_mpc,
                       eval_P_cm)
from .precision import PrecisionConfig, _magnitude, run_adaptive
from .quadforms import QuadForm, conjugate_partners, enumerate_qn, height
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


def orbit_product(values, scale: int = 1, errors=None):
    """Monic polynomial prod(x - scale*v) over the values, coefficients
    leading-first as exact mpc, on Gaussian ints scaled by 2^(32 + the bits
    the values carry).  A value whose exact conjugate is also among the
    values enters with it as one real quadratic x^2 - 2 Re(sv) x + |sv|^2,
    so conjugate pairs and real values give exactly real coefficients; the
    others enter as linear factors, in input order.

    With errors, one exponent per value (|v - exact| < 2^e; a conjugate pair
    must have exactly conjugate exact values), (coefficients, bound), bound
    at least every coefficient's error.  The roots x_i = scale v_i formed
    here are off by eps_i < scale (2^e_i + 2^(1 - prec)) (the error and the
    conversion), so the exact coefficients e_k of prod(x - x_i) move by at
    most prod(1 + |x_i| + eps_i) - prod(1 + |x_i|), and the truncations here
    add under t prod(1 + |x_i| + eps_i), t = 8 h (h + 1) 2^-prec for h values
    (their 1-norms grow by at most the factors' own).  Both together are at
    most prod(X_i + eps_i) (1 + t) - prod X_i for any X_i >= 1 + |x_i|, since
    that grows with each |x_i|.  _eprod of the factors X_i (|x_i| rounded up)
    with errors eps_i and of 1 with error t bounds it by 2^(e - prec), since
    its truncated product of non-negative reals is at most prod X_i (inf
    where _eprod's relative errors sum beyond 1).  Values whose magnitudes
    sum to 2^15 bits or more would need a rung beyond the kernels' budget:
    refused."""
    if not values:
        raise ValueError("orbit product needs at least one value")
    magnitude = sum(_magnitude(v) for v in values)
    if magnitude >= _BUDGET_BITS:
        raise PrecisionExhausted(f"orbit product of magnitude 2^{mpmath.nstr(mpf(magnitude), 3)}, "
                                 f"at or beyond the kernels' budget of {_BUDGET_BITS} bits")
    prec = _carried_bits(values) + 32
    with mpmath.workprec(prec):
        values = [mpc(v) for v in values]
    unpaired = Counter(v._mpc_ for v in values)
    roots, coeffs = {}, [(1 << prec, 0)]
    for v in values:
        if not unpaired[v._mpc_]:
            continue  # entered with its conjugate
        unpaired[v._mpc_] -= 1
        x = roots[v._mpc_] = _csum([(scale, _fixed(v, prec))])
        conj = _conj(v)._mpc_
        if v.imag and unpaired[conj]:
            unpaired[conj] -= 1
            roots[conj] = x  # the root conj(x), of the same modulus
            lower = [(-2 * x[0], 0), ((x[0] * x[0] + x[1] * x[1]) >> prec, 0)]
        else:
            lower = [(-x[0], -x[1])]
        product = coeffs + [(0, 0)] * len(lower)
        for i, c in enumerate(coeffs):
            for k, f in enumerate(lower, i + 1):
                term = _cmul(c, f, prec)
                product[k] = (product[k][0] + term[0], product[k][1] + term[1])
        coeffs = product
    coeffs = [_to_mpc(c, prec, 0) for c in coeffs]
    if errors is None:
        return coeffs
    if math.inf in errors:
        return coeffs, mpmath.inf
    one, h = 1 << prec, len(values)
    factors = [((one + math.isqrt(x[0] ** 2 + x[1] ** 2) + 1, 0),
                (scale * ((1 << max(e + prec, 0)) + 2)).bit_length())
               for x, e in zip([roots[v._mpc_] for v in values], errors)]
    _, e = _eprod([((one, 0), (8 * h * (h + 1)).bit_length()), *factors], prec)
    return coeffs, mpf(2) ** (e - prec)


def round_to_integers(poly, tol):
    """Round complex coefficients to integers; fails loudly above tolerance.

    Returns (integer coefficients, residual) where the residual is the max
    distance to the rounded value including imaginary parts.  Each
    coefficient (mpc or mpf) is read as its exact binary parts, mantissa
    and exponent; the real part is rounded in integers, half to even as
    mpmath.nint rounds, and the squared distances are compared exactly.
    The residual is the square root of the largest, rounded 32 bits above
    the carried precision.
    """
    rounded = []
    worst, worst_exp = 0, 0  # the largest squared distance, worst 2^worst_exp
    for c in poly:
        re, im = c._mpc_ if isinstance(c, mpc) else (c._mpf_, fzero)
        (sign, man, e, _), (isign, iman, ie, _) = re, im
        x = -man if sign else man
        if e >= 0 or not x:
            n, dist, e = x << max(e, 0), 0, ie
        else:
            n, rest = divmod(x, 1 << -e)
            if 2 * rest + (n & 1) > 1 << -e:
                n, rest = n + 1, rest - (1 << -e)
            dist = rest
        low = min(e, ie)
        d = (dist << e - low) ** 2 + (iman << ie - low) ** 2
        if d and (not worst or d << max(2 * low - worst_exp, 0) > worst << max(worst_exp - 2 * low, 0)):
            worst, worst_exp = d, 2 * low
        rounded.append(n)
    with mpmath.workprec(_carried_bits(poly) + 32):
        residual = mpmath.sqrt(mpmath.mp.make_mpf(from_man_exp(worst, worst_exp)))
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


def _predicted_magnitude(forms, partners, n: int) -> int:
    """The magnitude in bits that compute_pn's first rung is sized for:
    |P(alpha)| is about exp(2 pi h) at the height h of alpha
    (quadforms.height), since P has weight 0, a sign under each W_d and the
    pole q^-1 at every cusp, so the scaled orbit polynomial's coefficients
    have at most about sum max(0, log2(24n - 1) + 2 pi h/ln 2) bits.  A form
    and its conjugate partner (conjugate_partners) share h, since W6 and
    conjugation carry the images of one root onto those of the other, so
    each pair is measured once."""
    scale = math.log2(24 * n - 1)
    terms = ((1 + (k != i)) * max(0.0, scale + 2 * math.pi * height(forms[i]) / math.log(2))
             for i, k in enumerate(partners) if k >= i)
    return math.ceil(sum(terms))


def compute_pn(n: int, cfg: PrecisionConfig) -> OrbitRecord:
    """The full orbit record for n, accepted by run_adaptive on the error
    bound of the scaled orbit polynomial (eval_P_cm's error exponents
    through orbit_product), which it is rounded with as the tolerance.  The
    polynomial's x^(h-1) coefficient is -(24n - 1)^2 p(n), so p(n) is read
    from it exactly, and the full scale 24n - 1 is the sharpness divisor it
    has just confirmed.

    Rounding proves the other coefficients integral only against what is
    known of them in advance.  By Bruinier and Ono, 6 (24n - 1) P(alpha_Q)
    is an algebraic integer, so the coefficient c_k of x^(h-k) lies in
    6^-k Z, and a c_k of N + 6^-k would round to N all the same unless
    2 bound < 6^-k.  So a rung is accepted only when its bound is also at
    most 2^-(ceil(h log2 6) + 2) < 6^-h/2 for the h forms.

    The polynomial's magnitude is predicted from the forms
    (_predicted_magnitude), so the first rung runs at it plus the working
    bits, with no probe rung before it; it is capped below the kernels'
    budget, so a prediction too high cannot refuse an n that a probe would
    have sized within it, and one too low costs a further rung.  The first
    rung's bound has come out near 2^-(w + 16 + 0.7 h), the prediction
    over-counting about 0.7 bits a form (2^-274 at h = 3 to 2^-503 at
    h = 320, n = 2000).  Where w + 32 + h/2, below that from h = 114 on,
    falls short of ceil(h log2 6) + 2, the shortfall is added to the
    prediction, so the one rung clears 6^-h as well; it is 0 through
    n = 600 (h = 130).

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
        own = dict(zip(firsts, zip(*eval_P_cm([forms[i] for i in firsts],
                                              cfg.with_bits(bits)))))
        ps, errors = zip(*[own[i] if k >= i else (_conj(own[k][0]), own[k][1])
                           for i, k in enumerate(partners)])
        poly, bound = orbit_product(ps, scale, errors)
        return (ps, poly), bound

    h = len(forms)
    integral = (6**h - 1).bit_length() + 2  # ceil(h log2 6) + 2
    shortfall = max(integral - cfg.working_bits - cfg.guard_bits - h // 2, 0)
    cap = _BUDGET_BITS - cfg.guard_bits - 1 - cfg.working_bits
    magnitude = max(min(_predicted_magnitude(forms, partners, n) + shortfall, cap), 0)
    tol = min(cfg.abs_tol, mpf(2) ** -integral)
    (p_values, poly), bound, bits = run_adaptive(
        task, PrecisionConfig(cfg.working_bits, cfg.max_bits, tol), magnitude)
    poly_int, residual = round_to_integers(poly, bound)
    pn, remainder = divmod(-poly_int[1], scale * scale)
    if remainder:
        raise NotNearIntegral(
            f"p({n}): trace {-poly_int[1]} of {scale} P is not divisible "
            f"by {scale}^2", residual=residual)
    return OrbitRecord(
        n=n, d=1 - 24 * n, forms=tuple(forms), p_values=p_values,
        scaled_poly=tuple(poly_int), pn=pn, residual=residual,
        achieved_bits=bits, sharpness_divisor=scale)


def norm_6unit_check(value, label: str, tol):
    """Round a norm (the product over a full Galois-stable multiset) to an
    integer and report whether it is coprime to 6: (norm, coprime_to_6)."""
    try:
        (norm,), _ = round_to_integers([value], tol)
    except NotNearIntegral as exc:
        raise NotNearIntegral(f"{label}: {exc}", residual=exc.residual) from None
    return norm, math.gcd(norm, 6) == 1

