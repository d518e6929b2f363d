import math
import random

import mpmath
import pytest
from mpmath import mpc, mpf

from cmpartitions.precision import PrecisionConfig
from cmpartitions.quadforms import (ATKIN_LEHNER_MATRICES, QuadForm, cm_point,
                                    conjugate_partners, enumerate_qn, height,
                                    reduce_with_matrix, reduced_forms)


def brute_force_reduced(d):
    """Direct scan of |b| <= a <= c with the boundary conventions; the
    independent count oracle for small discriminants."""
    found = []
    limit = int((-d / 3) ** 0.5) + 1
    for a in range(1, limit + 1):
        for b in range(-a, a + 1):
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if (abs(b) == a or a == c) and b < 0:
                continue
            from math import gcd
            if gcd(gcd(a, b), c) == 1:
                found.append(QuadForm(a, b, c))
    return sorted(found, key=lambda f: (f.a, abs(f.b), -f.b))


def random_gamma0_element(rng, level=6):
    """Random word in the translations and the level-6 parabolic."""
    mat = (1, 0, 0, 1)
    for _ in range(rng.randint(1, 6)):
        if rng.random() < 0.5:
            k = rng.randint(-3, 3)
            other = (1, k, 0, 1)
        else:
            k = rng.randint(-2, 2)
            other = (1, 0, level * k, 1)
        a, b, c, d = mat
        e, f, g, h = other
        mat = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
    return mat


def transporter(q1, q2):
    """An SL2(Z) matrix g with q1.transform(g) == q2, or None.

    For discriminants below -4 the stabilizer of a form is {+-identity}, so
    g is unique up to sign and the result is canonical.
    """
    if q1.discriminant() != q2.discriminant():
        return None
    r1, (a, b, c, d) = reduce_with_matrix(q1)
    r2, (e, f, g, h) = reduce_with_matrix(q2)
    if r1 != r2:
        return None
    # g1 times the inverse (h, -f, -g, e) of the determinant-1 g2
    return (a * h - b * g, -a * f + b * e, c * h - d * g, -c * f + d * e)


def gamma0_equivalent(q1, q2):
    """Whether some matrix in Gamma_0(6) carries q1 to q2.

    Decided exactly: the transporter between the forms is unique up to sign
    (discriminant < -4), and both signs share the same lower-left entry mod
    6, so a single congruence settles membership.
    """
    if q1.discriminant() >= -4:
        raise ValueError("equivalence test requires discriminant < -4")
    g = transporter(q1, q2)
    return g is not None and g[2] % 6 == 0


def row_scan_qn(n):
    """The rows a = 6, 12, ... scanned with b = 1 (mod 12) in (-a, a] in the
    order (|b|, b < 0), keeping the first form of each SL2(Z) class (keyed
    by its reduced form) and stopping after the first row at which every
    class, of every content f with f^2 | D, has a form: a reference for
    enumerate_qn, which searches each class from its reduced form."""
    d = 1 - 24 * n
    classes = sum(len(reduced_forms(d // (f * f)))
                  for f in range(1, math.isqrt(-d) + 1) if d % (f * f) == 0)
    reps = {}
    for a in range(6, 4 * (-d) + 1, 6):
        # translation z -> z+1 shifts b by 2a and 12 | 2a, so one period
        # of b mod 2a meets every translate class exactly once
        row = [QuadForm(a, b, (b * b - d) // (4 * a))
               for b in range(1 - 12 * (a // 12), a + 1, 12) if (b * b - d) % (4 * a) == 0]
        for form in sorted(row, key=lambda f: (abs(f.b), -f.b)):
            reps.setdefault(reduce_with_matrix(form)[0], form)
        if len(reps) == classes:
            return list(reps.values())
    raise AssertionError(f"only {len(reps)} of the {classes} classes of "
                         f"discriminant {d} have a form with a <= {4 * -d}")


def exhaustive_qn(n):
    """Every form with a <= 4|D|, 6 | a and b = 1 (mod 12), bucketed by the
    reduced form and split by the level-6 test, keeping the first member of
    each level-6 class in the order (a, |b|, b < 0): the reference for
    enumerate_qn."""
    d = 1 - 24 * n
    candidates = []
    for a in range(6, 4 * (-d) + 1, 6):
        for b in range(1 - 12 * (a // 12), a + 1, 12):
            if (b * b - d) % (4 * a) == 0:
                candidates.append(QuadForm(a, b, (b * b - d) // (4 * a)))
    candidates.sort(key=lambda f: (f.a, abs(f.b), -f.b))
    buckets = {}
    for form in candidates:
        cls = buckets.setdefault(reduce_with_matrix(form)[0], [])
        if not any(gamma0_equivalent(rep, form) for rep in cls):
            cls.append(form)
    return sorted((rep for cls in buckets.values() for rep in cls),
                  key=lambda f: (f.a, abs(f.b), -f.b))


class TestReducedForms:
    def test_d3(self):
        assert reduced_forms(-3) == [QuadForm(1, 1, 1)]

    def test_d23_against_brute_force(self):
        forms = reduced_forms(-23)
        assert forms == brute_force_reduced(-23)
        assert len(forms) == 3

    def test_d47_class_number(self):
        assert len(reduced_forms(-47)) == 5
        assert reduced_forms(-47) == brute_force_reduced(-47)

    def test_invalid_discriminant(self):
        with pytest.raises(ValueError):
            reduced_forms(-5)
        with pytest.raises(ValueError):
            reduced_forms(4)

    def test_reduction_reaches_the_reduced_form(self):
        rng = random.Random(5)
        for form in reduced_forms(-71):
            for _ in range(5):
                g = random_gamma0_element(rng)
                moved = form.transform(g)
                red, word = reduce_with_matrix(moved)
                assert red.is_reduced()
                assert moved.transform(word) == red


class TestGamma0Equivalence:
    def test_identity(self):
        q = QuadForm(6, 1, 1)
        assert gamma0_equivalent(q, q)

    def test_translation_image(self):
        # z -> z + 2 carries (6,1,1) to (6,25,27)
        q = QuadForm(6, 1, 1)
        image = q.transform((1, 2, 0, 1))
        assert image == QuadForm(6, 25, 27)
        assert gamma0_equivalent(q, image)

    def test_distinct_classes(self):
        assert not gamma0_equivalent(QuadForm(6, 1, 1), QuadForm(12, 13, 4))

    def test_random_translates(self):
        rng = random.Random(17)
        for form in enumerate_qn(2):
            for _ in range(20):
                g = random_gamma0_element(rng)
                assert gamma0_equivalent(form, form.transform(g))

    def test_pairwise_inequivalent_representatives(self):
        for n in (1, 2, 3):
            reps = enumerate_qn(n)
            for i in range(len(reps)):
                for k in range(i + 1, len(reps)):
                    assert not gamma0_equivalent(reps[i], reps[k])

    def test_full_group_equivalent_but_not_level6(self):
        # an S-translate stays in the full-group class but leaves the
        # level-6 class: the unique transporter has lower-left entry 1
        q = QuadForm(6, 1, 1)
        image = q.transform((0, -1, 1, 0))
        g = transporter(q, image)
        assert g is not None and g[2] % 6 != 0
        assert not gamma0_equivalent(q, image)

    def test_distinct_representatives_distinct_full_classes(self):
        # the level-6 representative set maps bijectively onto the reduced
        # forms for these discriminants
        for n in (1, 2, 3):
            reduced = {reduce_with_matrix(f)[0] for f in enumerate_qn(n)}
            assert len(reduced) == len(enumerate_qn(n))


class TestEnumerateQn:
    def test_n1(self):
        forms = enumerate_qn(1)
        assert len(forms) == 3
        assert forms[0] == QuadForm(6, 1, 1)
        assert [f.a for f in forms] == [6, 12, 18]

    def test_n1_alternative_representatives(self):
        # the same classes are often listed as (12,13,4) and (18,25,9)
        forms = enumerate_qn(1)
        assert gamma0_equivalent(forms[1], QuadForm(12, 13, 4))
        assert gamma0_equivalent(forms[2], QuadForm(18, 25, 9))

    def test_n2_count(self):
        assert len(enumerate_qn(2)) == 5

    def test_defining_congruences(self):
        for n in (1, 2, 3, 4, 7):
            d = 1 - 24 * n
            for f in enumerate_qn(n):
                assert f.a > 0 and f.a % 6 == 0
                assert f.b % 12 == 1
                assert f.discriminant() == d

    def test_counts_match_class_numbers(self):
        for n in range(1, 11):
            assert len(enumerate_qn(n)) == len(reduced_forms(1 - 24 * n))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            enumerate_qn(0)

    def test_matches_exhaustive_scan_through_60(self):
        # the reference scans every a <= 4|D| and splits by the level-6 test
        for n in range(1, 61):
            assert enumerate_qn(n) == exhaustive_qn(n), n

    def test_matches_the_row_scan_through_300(self):
        # list for list, order included, against the rows scanned until
        # every class has a form; n = 24, 49, 74, ... (24n - 1 divisible by
        # 25, 49, ...) have imprimitive classes.  About 5.5 s, nearly all
        # of it the scan
        assert any(f.content() > 1 for f in enumerate_qn(24))
        for n in range(1, 301):
            assert enumerate_qn(n) == row_scan_qn(n), n

    def test_matches_the_row_scan_at_1000(self):
        # h = 242; the last class's first form lies in the row a = 18n, so
        # the scan takes about 0.5 s here against 0.01 s for the search
        forms = enumerate_qn(1000)
        assert len(forms) == 242 and forms[-1] == QuadForm(18000, -11999, 2000)
        assert forms == row_scan_qn(1000)


class TestConjugatePartners:
    def test_n1(self):
        # (6, 1, 1) is its own partner; (12, -11, 3) <-> (18, -11, 2)
        assert conjugate_partners(enumerate_qn(1)) == [0, 2, 1]

    def test_involution_with_one_partner_each_through_60(self):
        # checked against every representative, not only the helper's bucket
        for n in range(1, 61):
            forms = enumerate_qn(n)
            partners = conjugate_partners(forms)
            assert [partners[k] for k in partners] == list(range(len(forms))), n
            for form, k in zip(forms, partners):
                image = QuadForm(6 * form.c, form.b, form.a // 6)
                found = [i for i, rep in enumerate(forms)
                         if gamma0_equivalent(rep, image)]
                assert found == [k], (n, form)

    def test_missing_partner_raises(self):
        with pytest.raises(ValueError):
            conjugate_partners(enumerate_qn(1)[:2])

    def test_two_forms_of_one_class_raise(self):
        # (6, 25, 27) is the translate of (6, 1, 1) by z -> z + 2
        with pytest.raises(ValueError):
            conjugate_partners([QuadForm(6, 1, 1), QuadForm(6, 25, 27)])

    def test_a_not_divisible_by_6_raises(self):
        with pytest.raises(ValueError):
            conjugate_partners([QuadForm(1, 1, 6)])


def _rounded(num: int, den: int, prec: int) -> tuple:
    """num / den (den > 0) rounded to nearest, ties to even, at prec bits,
    as an mpf's (sign, man, exp, bc) with man odd."""
    if num == 0:
        return (0, 0, 0, 0)
    sign, num = int(num < 0), abs(num)
    exp = num.bit_length() - den.bit_length() - prec - 1
    while True:
        top, bottom = (num << -exp, den) if exp < 0 else (num, den << exp)
        man, rem = divmod(top, bottom)
        if man.bit_length() <= prec:
            break
        exp += 1
    if 2 * rem > bottom or (2 * rem == bottom and man & 1):
        man += 1
    zeros = (man & -man).bit_length() - 1
    man >>= zeros
    return (sign, man, exp + zeros, man.bit_length())


def _sqrt_rounded(n: int, prec: int) -> tuple:
    """sqrt(n) for an integer n > 0 rounded to nearest at prec bits (a tie
    cannot occur), as an mpf's (sign, man, exp, bc)."""
    shift = prec - (n.bit_length() + 1) // 2 + 1
    while True:
        assert shift >= 0
        man = math.isqrt(n << 2 * shift)
        if man.bit_length() <= prec:
            break
        shift -= 1
    if (n << 2 * shift) - man * man > man:
        man += 1
    return _rounded(man, 1 << shift, prec)


def _quotient_rounded(x: tuple, den: int, prec: int) -> tuple:
    """A positive (sign, man, exp, bc) divided by an integer den > 0,
    rounded at prec."""
    man, exp = x[1], x[2]
    return _rounded(man << exp, den, prec) if exp >= 0 else _rounded(man, den << -exp, prec)


class TestHeight:
    def test_against_a_box_of_gamma0_matrices(self):
        # the largest Im of gamma W_d alpha over the bottom rows (r, s) of
        # Gamma_0(6) with 0 <= r, |s| <= 60, in floats: for every form of
        # n = 1..8 the box attains the height and nothing in it exceeds it
        box = [(r, s) for r in range(0, 61, 6) for s in range(-60, 61) if math.gcd(r, s) == 1]
        for n in range(1, 9):
            for form in enumerate_qn(n):
                alpha = complex(-form.b, math.sqrt(-form.discriminant())) / (2 * form.a)
                best = 0.0
                for p, q, r, s in [(1, 0, 0, 1), *ATKIN_LEHNER_MATRICES.values()]:
                    w = (p * alpha + q) / (r * alpha + s)
                    best = max(best, *(w.imag / abs(r2 * w + s2) ** 2 for r2, s2 in box))
                assert height(form) == pytest.approx(best, rel=1e-12), form

    def test_conjugate_partners_share_it(self):
        # W6 and conjugation carry the images of alpha onto those of its
        # partner's root, so recognize measures one form of each pair
        for n in [*range(1, 31), 100]:
            forms = enumerate_qn(n)
            for form, k in zip(forms, conjugate_partners(forms)):
                assert height(form) == pytest.approx(height(forms[k]), rel=1e-12), form

    def test_reached_through_a_row_below_the_first(self):
        # [12, -11, 3] (n = 1): alpha has Im sqrt(23)/24, and the W_3 image
        # form [414, -345, 72] of discriminant 9 * -23 has first coefficient
        # 414 but takes the value 18 at (x, y) = (5, 12), so the height is
        # sqrt(207)/36 = sqrt(23)/12
        assert QuadForm(12, -11, 3).transform((3, -1, -6, 3)) == QuadForm(414, -345, 72)
        assert 414 * 25 - 345 * 60 + 72 * 144 == 18
        assert height(QuadForm(12, -11, 3)) == pytest.approx(math.sqrt(23) / 12, rel=1e-15)


class TestCMPoint:
    def test_i(self, cfg256):
        assert abs(cm_point(QuadForm(1, 0, 1), cfg256) - mpc(0, 1)) < mpf(2) ** -250

    def test_omega(self, cfg256):
        point = cm_point(QuadForm(1, 1, 1), cfg256)
        with mpmath.workprec(300):
            expected = mpc(mpf(-1) / 2, mpmath.sqrt(3) / 2)
            assert abs(point - expected) < mpf(2) ** -250

    def test_first_representative(self, cfg256):
        point = cm_point(QuadForm(6, 1, 1), cfg256)
        with mpmath.workprec(300):
            assert abs(mpmath.re(point) + mpf(1) / 12) < mpf(2) ** -250
            assert abs(mpmath.im(point) - mpmath.sqrt(23) / 12) < mpf(2) ** -250

    def test_root_residual(self, cfg256):
        bound = mpf(2) ** (-cfg256.working_bits + cfg256.guard_bits + 8)
        with mpmath.workprec(cfg256.eval_bits):
            for n in (1, 3, 6):
                for f in enumerate_qn(n):
                    alpha = cm_point(f, cfg256)
                    residual = abs(f.a * alpha * alpha + f.b * alpha + f.c)
                    assert residual < bound * (abs(f.a) + abs(f.b) + abs(f.c))

    def test_exact_matches_embed(self):
        # bit for bit against rounding done exactly in integers: the real
        # part is -b / (2a) correctly rounded; the imaginary part is the
        # correctly rounded quotient of sqrt(|D|), itself correctly rounded,
        # by 2a.  The printed digits of a CM point depend on exactly these
        # roundings: the forms command's im_alpha, and verify-decomp's
        # worst_at when its worst point is a CM point.
        forms = [f for n in range(1, 61) for f in enumerate_qn(n)]
        forms += [QuadForm(1, 0, 1), QuadForm(1, 1, 1)]
        for bits in (256, 512, 4096):
            cfg = PrecisionConfig(bits, 4096)
            p = cfg.eval_bits
            for f in forms:
                point = cm_point(f, cfg)
                assert point.real._mpf_ == _rounded(-f.b, 2 * f.a, p), (bits, f)
                im = _quotient_rounded(_sqrt_rounded(-f.discriminant(), p), 2 * f.a, p)
                assert point.imag._mpf_ == im, (bits, f)

