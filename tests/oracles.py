"""Oracles that only the tests run: each reaches its value by a route the
library does not take, so agreement with the library's own route means
something.

- ``taylor_fd_fit``: the Taylor data of the modular polynomial by a
  finite-difference fit over a local inversion of j at numerically embedded
  points, against ``modpoly.taylor_coeffs``' chain rule on exact image forms.
- ``psi_from_cosets`` and ``verify_tabulated``: the coset products of A' and
  B, and their largest deviation from the tabulated resolvents.
- ``nome_of``: the nome pair (1/q, q) at any reduced form from one
  exponential and one cosine and sine of its own, for the generic binary
  points whose reduced a >= 2^20 ``evaluate._nome`` refuses.
"""

import mpmath
from mpmath import mpc, mpf
from mpmath.libmp import mpf_cos_sin, mpf_exp, mpf_mul, mpf_neg, to_fixed

from cmpartitions.evaluate import _arguments, eval_j, eval_theta_j
from cmpartitions.modpoly import TaylorData
from cmpartitions.quadforms import cm_point
from cmpartitions.resolvent import _psi_and_j, tabulated_deviations


def taylor_fd_fit(form, classes, cfg) -> TaylorData:
    """Finite-difference oracle for the Taylor data at form's CM point.

    j is inverted locally around alpha by Newton iteration, the polynomial
    value is formed on a 5x5 grid of offsets (step |delta| = 1e-8 |j0|),
    and a least-squares fit of a total-degree-4 model recovers the quadratic
    coefficients.  Nothing is shared with the analytic chain-rule path, so
    agreement between the two is meaningful.
    """
    alpha = cm_point(form, cfg)
    j0 = eval_j(alpha, cfg)
    bits = cfg.eval_bits
    with mpmath.workprec(bits):
        delta = mpf("1e-8") * abs(j0)
        offsets = range(-2, 3)
        # invert j on the X-grid: sigma(u) with j(sigma(u)) = j0 + u*delta
        sigmas = {}
        for u in offsets:
            target = j0 + u * delta
            sigma = alpha
            for _ in range(80):
                val = eval_j(sigma, cfg)
                err = val - target
                if abs(err) < mpf(2) ** (-bits + 8) * (1 + abs(target)):
                    break
                sigma -= err / (2j * mpmath.pi * eval_theta_j(sigma, cfg))
            sigmas[u] = sigma
        # polynomial values on the (u, v) grid
        rows = []
        rhs = []
        monomials = [(mu, nu) for mu in range(5) for nu in range(5)
                     if mu + nu <= 4]
        for u in offsets:
            roots = [eval_j((cl.p * sigmas[u] + cl.q) / cl.s, cfg) for cl in classes]
            for v in offsets:
                y = j0 + v * delta
                phi = mpc(1)
                for r in roots:
                    phi *= y - r
                rows.append([mpf(u) ** mu * mpf(v) ** nu for mu, nu in monomials])
                rhs.append(phi)
        coeffs = lstsq(rows, rhs, bits)
        by_mono = dict(zip(monomials, coeffs))
        return TaylorData(
            j0=j0,
            beta=by_mono[(0, 1)] / delta,
            beta02=by_mono[(0, 2)] / delta ** 2,
            beta11=by_mono[(1, 1)] / delta ** 2,
            beta20=by_mono[(2, 0)] / delta ** 2,
        )


def lstsq(rows, rhs, bits: int):
    """Least squares by normal equations at full precision (tiny systems)."""
    with mpmath.workprec(bits):
        a = mpmath.matrix(rows)
        b = mpmath.matrix(rhs)
        at = a.T
        return list(mpmath.lu_solve(at * a, at * b))


def psi_from_cosets(z, cfg) -> dict:
    """Coefficients (ascending, monic degree 12) of prod(X - g(gamma z)) over
    the coset representatives (g is level-6 invariant), for g = A' and B,
    keyed "aprime" and "b", from one evaluation per coset image."""
    return _psi_and_j(z, cfg)[0]


def verify_tabulated(z, cfg) -> mpf:
    """Max normalized deviation, over both resolvents, between the
    numerically expanded resolvent and the tabulated polynomials specialized
    at j(z)."""
    return max(max(devs) for devs in tabulated_deviations(z, cfg).values())


def nome_of(red, prec: int):
    """(1/q, q) at scale 2^prec at the root of red, from exp(+-t) and
    cos, sin phi (evaluate._arguments, d = 1) at prec + 8 bits: within
    (3.64 t + 6) 2^-(prec + 8) relative and a unit, within what
    evaluate._nome states of its own, as evaluate._j_from_eta takes it."""
    t, phi = _arguments(red, 1, prec + 8)
    cos, sin = mpf_cos_sin(phi, prec + 8, "n")
    big, small = mpf_exp(t, prec + 8, "n"), mpf_exp(mpf_neg(t), prec + 8, "n")
    return ((to_fixed(mpf_mul(big, cos), prec), -to_fixed(mpf_mul(big, sin), prec)),
            (to_fixed(mpf_mul(small, cos), prec), to_fixed(mpf_mul(small, sin), prec)))
