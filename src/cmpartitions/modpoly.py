"""Matrix classes of determinant m, local Taylor data of the classical
modular polynomial at (j(alpha), j(alpha)), and the modular-polynomial
expression for C.

The modular polynomial itself is never built as an exact bivariate integer
polynomial (its coefficients are enormous and nothing here needs them); only
the first- and second-order Taylor coefficients at the CM point are computed,
analytically from j and theta j at its image forms in one class table (the
tests check them against a finite-difference fit over a local inversion of j).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import mpmath
from mpmath import mpc, mpf

from .errors import NearSingularity, NoFixingClass
from .evaluate import (_GUARD, _check_budget, _ClassTable, _disc_exp, _eprod, _esum,
                       _j_from_eta, _kernel_table, _nomes, _rounded, _values)
from .precision import PrecisionConfig, _fork_map, run_adaptive
from .quadforms import QuadForm, enumerate_qn, reduce_with_matrix
from .recognize import _carried_bits, norm_6unit_check


@dataclass(frozen=True)
class MatrixClass:
    """Hermite-normal-form representative (p q / 0 s) of a class of primitive
    integer matrices of determinant p*s, acting by z -> (p z + q)/s."""

    p: int
    q: int
    s: int

    def __post_init__(self):
        if self.p <= 0 or self.s <= 0 or not 0 <= self.q < max(self.s, 1):
            raise ValueError(f"not a normal form: {self}")
        if math.gcd(math.gcd(self.p, self.q), self.s) != 1:
            raise ValueError(f"imprimitive class: {self}")

    @property
    def determinant(self) -> int:
        return self.p * self.s


def hnf_classes(m: int) -> list[MatrixClass]:
    """One normal form per class of primitive determinant-m matrices: all
    (p, q, s) with p*s = m, 0 <= q < s, gcd(p, q, s) = 1."""
    if m < 1:
        raise ValueError("determinant must be positive")
    return sorted((MatrixClass(m // s, q, s) for s in range(1, m + 1) if m % s == 0
                   for q in range(s) if math.gcd(math.gcd(m // s, q), s) == 1),
                  key=lambda c: (c.s, c.q))


def _image_form(form: QuadForm, cl: MatrixClass) -> tuple[QuadForm, int]:
    """(F, g): the primitive form F whose root is (p alpha + q)/s for alpha
    the root of form [a, b, c], and the content g of

        [a s^2, b p s - 2 a q s, a q^2 - b p q + c p^2],

    which is form(x, 1) at x = (s z - q)/p, times p^2.  F has discriminant
    D m^2 / g^2 for form's D and m = p s."""
    a, b, c = form.a, form.b, form.c
    p, q, s = cl.p, cl.q, cl.s
    coeffs = (a * s * s, (b * p - 2 * a * q) * s, a * q * q - b * p * q + c * p * p)
    g = math.gcd(*coeffs)
    return QuadForm(*(x // g for x in coeffs)), g


def fixing_class(form: QuadForm, classes: list[MatrixClass]) -> MatrixClass:
    """The unique class whose orbit contains a matrix fixing the CM point
    alpha of form; NoFixingClass unless there is exactly one (several only
    for |D| = 3 k^2, which D = 1 - 24n never is).  M has such a matrix
    gamma M exactly when M alpha is SL2(Z)-equivalent to alpha: when its
    image form has content m times form's own (so the same discriminant) and
    the reduced form of form's primitive part.  Decided in integers."""
    if not classes:
        raise ValueError("empty class list")
    m = classes[0].determinant
    f = form.content()
    own = reduce_with_matrix(QuadForm(form.a // f, form.b // f, form.c // f))[0]
    found = []
    for cl in classes:
        image, g = _image_form(form, cl)
        if g == m * f and reduce_with_matrix(image)[0] == own:
            found.append(cl)
    if len(found) != 1:
        raise NoFixingClass(
            f"{form} has {len(found)} fixing classes of determinant {m}")
    return found[0]


def _images(form: QuadForm, classes):
    """(fixing class, {class: image form}) for every class."""
    return fixing_class(form, classes), {
        cl: _image_form(form, cl)[0] for cl in classes}


@functools.lru_cache(maxsize=64)
def _reduced_images(form: QuadForm, classes: tuple) -> tuple:
    """(R, images): the reduced forms of form and of its images under the
    classes that do not fix its CM point (_images), once per form and class
    tuple."""
    fix, images = _images(form, classes)
    return reduce_with_matrix(form)[0], tuple(
        reduce_with_matrix(image)[0] for cl, image in images.items() if cl != fix)


def _log2_j(red: QuadForm) -> float:
    """2 pi Im(w)/ln 2 = pi sqrt|D|/(a ln 2) = -log2 |q| at the root w of a
    reduced form [a, b, c]: log2 |j(w)| but for log2 |q j(w)|."""
    return math.pi * math.sqrt(-red.discriminant()) / (red.a * math.log(2))


def _j_class(red: QuadForm, bits: int, exps: dict):
    """j at the root of a reduced form as a (value, error exponent) pair at
    scale 2^(bits + _GUARD), from its nome (1/q, q), a Newton root of the
    one exponential of its discriminant in exps (_nomes); the kernel runs
    through this module's _j_from_eta."""
    return _j_from_eta(red, bits, _nomes([red], bits, exps)[0])


def _j_table(cfg: PrecisionConfig, reds=()) -> _ClassTable:
    """Reduced form -> j at its root (_j_class), at cfg's evaluation
    precision.  The kernel calls for the reduced forms reds, one per class
    and its mirror, are made at once over the CPUs (``_fork_map``), longest
    series (least Im w) first, after one exponential E_D per discriminant
    (_disc_exp) taken here; a mirror is conjugated and any other form
    computed on a miss.  The kernel's budget is checked first, so a
    precision it refuses fails before any process starts."""
    bits = cfg.eval_bits
    _check_budget(bits)
    wanted = {}
    for red in reds:
        if QuadForm(red.a, -red.b, red.c) not in wanted:
            wanted[red] = None
    exps = {d: _disc_exp(d, bits) for d in {red.discriminant() for red in wanted}}
    table = _ClassTable(lambda red: _j_class(red, bits, exps))
    order = sorted(wanted, key=lambda red: -red.discriminant() / red.a ** 2)
    table.update(zip(order, _fork_map(_j_class, [(red, bits, exps) for red in order])))
    return table


def beta_product(form: QuadForm, classes, cfg: PrecisionConfig, table):
    """beta = prod over non-fixing classes of (j(alpha) - j(class * alpha))
    for alpha the CM point of form, as a (value, error exponent) pair at
    scale 2^(cfg.eval_bits + _GUARD): each j read from table (a _j_table at cfg's
    precision, shared by the forms of one rung) at the reduced form of form
    or of the image (_reduced_images), each difference taken by _esum and
    the product by _eprod.  j comes from _j_from_eta, (1/q) E4^3 P^-24 on
    the pentagonal table that the basics kernel reads too.
    """
    red, images = _reduced_images(form, tuple(classes))
    return _eprod([_esum([(1, table[red]), (-1, table[image])]) for image in images],
                  cfg.eval_bits + _GUARD)


@dataclass(frozen=True)
class TaylorData:
    """Local second-order data of the modular polynomial at (j0, j0)."""

    j0: mpc
    beta: mpc
    beta02: mpc
    beta11: mpc
    beta20: mpc

    def masser_c(self) -> mpc:
        with mpmath.workprec(_carried_bits([self.beta, self.beta02, self.beta11]) + 16):
            return (self.beta02 - self.beta11 + self.beta20) / self.beta


def taylor_coeffs(form: QuadForm, classes, cfg: PrecisionConfig) -> TaylorData:
    """Analytic first/second-order Taylor coefficients of the determinant-m
    modular polynomial about (j(alpha), j(alpha)), alpha the CM point of
    form.  With f_i(s) = j(M_i s) and Phi(j(s), Y) = prod_i (Y - f_i(s)),
    differentiating through the local inverse of j gives

      beta    = prod_{i != fix} (j0 - f_i(alpha)),
      beta02  = beta * sum_{k != fix} 1/(j0 - f_k(alpha)),
      beta11  = -(f_fix' * beta02 + beta * sum_{k != fix} f_k'/(j0 - f_k)) / j'(alpha),

    all other terms vanishing because the factor through the fixing class is
    zero at the expansion point.  beta20 = beta02 by the symmetry of the
    polynomial, which the tests' finite-difference fit checks.  j and
    theta j at alpha and at each image form's own root (_image_form, so no
    weight factor) come from one class table, which _taylor shares.
    """
    return _taylor(form, classes, cfg, _kernel_table(cfg.eval_bits))


def _taylor(form: QuadForm, classes, cfg: PrecisionConfig, table) -> TaylorData:
    if len(classes) < 2:
        raise ValueError("need a non-trivial class list (determinant > 1)")
    fix, images = _images(form, classes)
    j0, theta_j0 = _values(form, table, cfg, ("j", "theta_j")).values()
    with mpmath.workprec(cfg.eval_bits):
        two_pi_i = 2j * mpmath.pi
        jprime_alpha = two_pi_i * theta_j0
        if abs(jprime_alpha) < mpf(2) ** (-(cfg.working_bits // 4)):
            raise NearSingularity("j'(alpha) too small for Taylor data")
        beta = mpc(1)
        inv_sum = mpc(0)
        deriv_sum = mpc(0)
        for cl in classes:
            jk, theta_jk = _values(images[cl], table, cfg, ("j", "theta_j")).values()
            fk_prime = (two_pi_i * theta_jk * cl.p) / cl.s
            if cl == fix:
                ffix_prime = fk_prime
                continue
            diff = j0 - jk
            beta *= diff
            inv_sum += 1 / diff
            deriv_sum += fk_prime / diff
        beta02 = beta * inv_sum
        beta11 = -(ffix_prime * beta02 + beta * deriv_sum) / jprime_alpha
    return TaylorData(j0=j0, beta=beta, beta02=beta02, beta11=beta11, beta20=beta02)


def masser_c(form: QuadForm, cfg: PrecisionConfig) -> mpc:
    """(beta02 - beta11 + beta20) / beta at form's CM point, m = |D|."""
    classes = hnf_classes(-form.discriminant())
    return taylor_coeffs(form, classes, cfg).masser_c()


def _norm_rung(product, prec: int):
    """(value, bound) of one norm rung from its product, a (value, error
    exponent) pair at scale 2^prec: the value as an exact mpc (_rounded at
    0 bits) and the bound 2^e on its absolute error."""
    value, e = _rounded(product, prec, 0)
    return value, mpf(2) ** e


def j_norm(n: int, cfg: PrecisionConfig):
    """Product of j over the class representatives for n, as an integer,
    with the coprime-to-6 flag and its rung's working bits (run_adaptive,
    rounded with the rung's bound as the tolerance; at 256 working bits the
    first rung closes for n <= 4).  Each j comes from a class table filled
    on a miss: 2 to 31 kernel calls per rung for n <= 30 cost less than a
    fork.  The product and its bound are _eprod's."""
    reduced = [reduce_with_matrix(f)[0] for f in enumerate_qn(n)]

    def rung(bits):
        sub = cfg.with_bits(bits)
        table, prec = _j_table(sub), sub.eval_bits + _GUARD
        return _norm_rung(_eprod([table[red] for red in reduced], prec), prec)

    prod, bound, bits = run_adaptive(rung, cfg)
    return (*norm_6unit_check(prod, f"j-norm(n={n})", bound), bits)


def beta_norm(n: int, cfg: PrecisionConfig):
    """Product of beta over the primitive class representatives for n, as an
    integer, with the coprime-to-6 flag and its rung's working bits.  One
    rung, at the magnitude predicted from the forms plus the tolerance's
    ceil(-log2 abs_tol) bits (cfg.tol_bits, also the step of any later
    rung), is accepted on its bound (run_adaptive; 2^-157, 2^-152 and
    2^-149 for n = 1, 2 and 3 at the default 2^-128).  A rung's kernel
    calls, one per class pair, are split over the CPUs (_j_table).

    The magnitude is the sum over the forms' non-fixing classes of
    max(log2 |j(alpha)|, log2 |j(M alpha)|), each log2 |j| taken as
    _log2_j at the reduced form (3281, 13256 and 30428 bits for n = 1, 2
    and 3, against 3280, 13258 and 30432 in the norms).  With j = q^-1 (1 +
    eps), |eps| <= q j(iy) - 1 at Im w = y (j's coefficients are positive),
    under 9.01 * 2^(Y0 - Y) for Y = _log2_j >= Y0 = pi sqrt 3/ln 2, a factor
    j1 - j2 with Y1 >= Y2 has log2 |j1 - j2| at most Y1 + log2(1 + eps1 +
    2^(Y2 - Y1) (1 + eps2)): the norm's magnitude exceeds the prediction by
    at most the sum of those, 26, 72 and 162 bits for n = 1, 2 and 3.  Too
    low a prediction by s bits raises the rung's bound 2^s times; beyond
    the rung's margin below the tolerance it costs a rung, never a result.
    Nothing bounds the magnitude from below (a j near its zero at rho makes
    a factor small), and too high a prediction costs only precision.
    """
    # only primitive forms have a fixing class of determinant 24n - 1
    forms = [f for f in enumerate_qn(n) if f.content() == 1]
    classes = tuple(hnf_classes(24 * n - 1))
    reduced = [_reduced_images(f, classes) for f in forms]
    magnitude = math.ceil(sum(max(_log2_j(red), _log2_j(image))
                              for red, images in reduced for image in images))
    reds = [red for own, images in reduced for red in (own, *images)]

    def rung(bits):
        sub = cfg.with_bits(bits)
        table, prec = _j_table(sub, reds), sub.eval_bits + _GUARD
        betas = [beta_product(f, classes, sub, table) for f in forms]
        return _norm_rung(_eprod(betas, prec), prec)

    ladder = PrecisionConfig(cfg.tol_bits, cfg.max_bits, cfg.abs_tol)
    prod, bound, bits = run_adaptive(rung, ladder, magnitude)
    return (*norm_6unit_check(prod, f"beta-norm(n={n})", bound), bits)
