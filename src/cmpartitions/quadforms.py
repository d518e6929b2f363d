"""Binary quadratic forms, class representatives and their CM points.

A form (a, b, c) means a x^2 + b x y + c y^2, always positive definite here.
The level-6 representative sets pair each discriminant 1 - 24n with one form
per orbit of forms having 6 | a and b = 1 (mod 12) under the congruence group
of level 6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
from mpmath import mpc

from .precision import PrecisionConfig

IDENTITY = (1, 0, 0, 1)


@dataclass(frozen=True, order=True)
class QuadForm:
    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a <= 0 or self.discriminant() >= 0:
            raise ValueError(f"form {self} is not positive definite")

    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def content(self) -> int:
        return math.gcd(math.gcd(self.a, self.b), self.c)

    def transform(self, m) -> "QuadForm":
        """Right action by an integer matrix (p, q, r, s): substitute
        (x, y) -> (p x + q y, r x + s y)."""
        p, q, r, s = m
        a, b, c = self.a, self.b, self.c
        return QuadForm(a * p * p + b * p * r + c * r * r,
                        2 * a * p * q + b * (p * s + q * r) + 2 * c * r * s,
                        a * q * q + b * q * s + c * s * s)

    def is_reduced(self) -> bool:
        a, b, c = self.a, self.b, self.c
        return abs(b) <= a <= c and not ((abs(b) == a or a == c) and b < 0)


def reduce_with_matrix(q: QuadForm):
    """Reduce q under the full modular group, returning (reduced, g) with
    q.transform(g) == reduced.  The steps run on the integer triple and the
    matrix entries (a step cannot change the discriminant), and one QuadForm
    is built at the end."""
    a, b, c = q.a, q.b, q.c
    g0, g1, g2, g3 = IDENTITY
    while True:
        if not -a < b <= a:
            # (1, k, 0, 1) brings b into (-a, a]
            k = (a - b) // (2 * a)
            b, c = b + 2 * a * k, (a * k + b) * k + c
            g1, g3 = g0 * k + g1, g2 * k + g3
        elif a > c or (a == c and b < 0):
            # (0, -1, 1, 0)
            a, b, c = c, -b, a
            g0, g1, g2, g3 = g1, -g0, g3, -g2
        else:
            return QuadForm(a, b, c), (g0, g1, g2, g3)


def reduced_forms(d: int) -> list[QuadForm]:
    """All primitive reduced forms of discriminant d < 0; the count is the
    class number h(d)."""
    if d >= 0 or d % 4 not in (0, 1):
        raise ValueError(f"{d} is not a negative discriminant")
    forms = []
    b = d % 2
    while 3 * b * b <= -d:
        q, r = divmod(b * b - d, 4)
        assert r == 0
        a = max(b, 1)
        while a * a <= q:
            if q % a == 0:
                c = q // a
                if math.gcd(math.gcd(a, b), c) == 1:
                    forms.append(QuadForm(a, b, c))
                    if 0 < b < a < c:
                        forms.append(QuadForm(a, -b, c))
            a += 1
        b += 2
    return sorted(forms, key=lambda f: (f.a, abs(f.b), -f.b))


def _level6_pick(red: QuadForm, f: int) -> QuadForm:
    """The (a, |b|, -b)-least form with 6 | a, b = 1 (mod 12) and -a < b <= a
    in the SL2(Z) class of f times the reduced form red.

    The images of red under (p, q; r, s) have first coefficient red(p, r),
    and those of one coprime (p, r) up to sign are the translates of one
    image, whose b run over one class mod 2a: so each (p, r) gives one form
    with -a < b <= a, and 12 | 2a fixes b mod 12 on it.  The coprime (p, r)
    with red(p, r) <= bound are walked (4 A red(p, r) = (2 A p + B r)^2 +
    |D| r^2 for red = [A, B, C] of discriminant D), the bound doubled until
    one gives such a form; every form of the class with a <= f bound was
    then seen."""
    big_a, big_b, big_c = red.a, red.b, red.c
    disc = -red.discriminant()
    bound = 6
    while True:
        picks = []
        for r in range(math.isqrt(4 * big_a * bound // disc) + 1):
            # |2 A p + B r| <= sqrt(4 A bound - |D| r^2)
            width = math.isqrt(4 * big_a * bound - disc * r * r)
            for p in range(-((width + big_b * r) // (2 * big_a)),
                           (width - big_b * r) // (2 * big_a) + 1):
                if math.gcd(p, r) != 1 or (r == 0 and p != 1):
                    continue
                a = big_a * p * p + big_b * p * r + big_c * r * r
                if a % 6:  # f is prime to 6, as D is
                    continue
                # (q, s) with p s - q r = 1 completes (p, r) to SL2(Z)
                s = pow(p, -1, r) if r else p
                q = (p * s - 1) // r if r else 0
                b = 2 * big_a * p * q + big_b * (p * s + q * r) + 2 * big_c * r * s
                b = (b + a - 1) % (2 * a) - a + 1  # into (-a, a]
                if (f * b) % 12 == 1:
                    picks.append(QuadForm(f * a, f * b, f * ((b * b + disc) // (4 * a))))
        if picks:
            return min(picks, key=lambda g: (g.a, abs(g.b), -g.b))
        bound *= 2


def enumerate_qn(n: int) -> list[QuadForm]:
    """One representative per level-6 class of discriminant 1 - 24n forms with
    6 | a, a > 0, b = 1 (mod 12).

    D = 1 - 24n is prime to 6, so each SL2(Z) class of discriminant D holds
    exactly one such level-6 class (Gross-Kohnen-Zagier, Math. Ann. 278
    (1987), section I.1).  For each f with f^2 | D and each reduced form of
    discriminant D/f^2, the class of f times it gives its (a, |b|, -b)-least
    such form with -a < b <= a (_level6_pick), and the picks are returned in
    that order: the first form of each class in a scan of the rows a = 6,
    12, ... with b in the order (|b|, b < 0).  Imprimitive classes are kept:
    the trace formula for p(n) runs over every form of discriminant 1 - 24n,
    and they occur only when 24n - 1 is not squarefree (first at n = 24).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    d = 1 - 24 * n
    picks = [_level6_pick(red, f) for f in range(1, math.isqrt(-d) + 1) if d % (f * f) == 0
             for red in reduced_forms(d // (f * f))]
    return sorted(picks, key=lambda g: (g.a, abs(g.b), -g.b))


def conjugate_partners(forms) -> list[int]:
    """Index of each form's partner: the form in the class of [6c, b, a/6].
    That map is complex conjugation followed by the Atkin-Lehner involution
    W6 on CM points (alpha -> 1/(6 conj alpha)), and keeps 6 | a and
    b = 1 (mod 12); such forms of one discriminant prime to 6 share a
    level-6 class exactly when they share an SL2(Z) class (``enumerate_qn``),
    so the partner is looked up by the reduced image.  Raises ValueError
    unless 6 divides every a, no two forms share a class, every form has a
    partner and the map is an involution."""
    index = {reduce_with_matrix(form)[0]: i for i, form in enumerate(forms)}
    if len(index) != len(forms):
        raise ValueError("two forms share a class")
    partners = []
    for form in forms:
        if form.a % 6:
            raise ValueError(f"form {form} has 6 not dividing a")
        image = QuadForm(6 * form.c, form.b, form.a // 6)
        k = index.get(reduce_with_matrix(image)[0])
        if k is None:
            raise ValueError(f"form {form} has no partner")
        partners.append(k)
    if any(partners[k] != i for i, k in enumerate(partners)):
        raise ValueError("the partner map is not an involution")
    return partners


ATKIN_LEHNER_MATRICES = {2: (2, -1, 6, -2), 3: (3, 1, 6, 3), 6: (0, -1, 6, 0)}


def _min_gamma0(form: QuadForm) -> int:
    """min form(x, y) over coprime (x, y) with 6 | y: y = 0 gives a, and
    form(x, y) >= |D| y^2/(4a) bounds the y > 0 worth scanning; at each, the
    first x coprime to y on either side of the vertex -b y/(2a) is its least."""
    a, b, disc = form.a, form.b, -form.discriminant()
    best, y = a, 6
    while disc * y * y < 4 * a * best:
        vertex = -b * y // (2 * a)
        for x, step in ((vertex, -1), (vertex + 1, 1)):
            while math.gcd(x, y) != 1:
                x += step
            best = min(best, a * x * x + b * x * y + form.c * y * y)
        y += 6
    return best


def height(form: QuadForm) -> float:
    """The largest Im over the images of the root alpha of form under
    Gamma_0(6) and the Atkin-Lehner W_d (d = 1, 2, 3, 6): Im gamma alpha' =
    sqrt|D'|/(2 Q'(s, -r)) at the root alpha' of a form Q' for gamma =
    (p, q; r, s), and W_d alpha is the root of form transformed by the
    adjugate of W_d (_min_gamma0)."""
    images = [form] + [form.transform((s, -q, -r, p))
                       for p, q, r, s in ATKIN_LEHNER_MATRICES.values()]
    return max(math.sqrt(-f.discriminant()) / (2 * _min_gamma0(f)) for f in images)


def _root(form: QuadForm) -> mpc:
    """The root (-b + sqrt(D))/(2a) of form(x, 1) in the upper half-plane,
    under the ambient precision: sqrt(|D|) is rounded, then each part is
    divided by 2a with one rounding."""
    return mpc(-form.b, mpmath.sqrt(-form.discriminant())) / (2 * form.a)


def cm_point(q: QuadForm, cfg: PrecisionConfig) -> mpc:
    """The CM point of a positive definite form, _root at cfg's evaluation
    precision."""
    with mpmath.workprec(cfg.eval_bits):
        return _root(q)
