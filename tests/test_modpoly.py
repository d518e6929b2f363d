import hashlib
import math
from itertools import product

import mpmath
import pytest
from mpmath import mpc, mpf

from cmpartitions import modpoly
from cmpartitions.errors import (NoFixingClass, NotNearIntegral,
                                  PrecisionExhausted)
from cmpartitions.evaluate import (_GUARD, _form, _j_from_eta, _nomes, _reducing, _to_mpc,
                                   eval_C, eval_j)
from cmpartitions.modpoly import (MatrixClass, beta_norm, beta_product,
                                  fixing_class, hnf_classes, j_norm, masser_c,
                                  taylor_coeffs, taylor_fd_fit, _image_form,
                                  _j_table, _norm_rung)
from cmpartitions.precision import PrecisionConfig, run_adaptive
from cmpartitions.quadforms import (QuadForm, _root, cm_point, enumerate_qn,
                                    reduce_with_matrix)


def class_count(m: int) -> int:
    """m * prod(1 + 1/p) over primes p | m (the classical index formula)."""
    count = m
    rest = m
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            count += count // p
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        count += count // rest
    return count


def _xgcd(a: int, b: int):
    """(g, x, y) with g = gcd > 0 and x*a + y*b = g."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        k, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - k * x1
        y0, y1 = y1, y0 - k * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def _hnf_of(mat) -> MatrixClass:
    """Hermite normal form of an integer matrix with positive determinant,
    under left multiplication by the modular group."""
    a, b, c, d = mat
    assert a * d - b * c > 0
    if c == 0:
        g, x, y = abs(a), (1 if a > 0 else -1), 0
    else:
        g, x, y = _xgcd(a, c)
    # bottom row of the reducing matrix kills the lower-left entry
    u, v = -c // g, a // g
    p, q = g, x * b + y * d
    s = u * b + v * d  # positive: p = gcd > 0 and p*s = det > 0
    return MatrixClass(p, q % s, s)


def _fixes_root(mat, form) -> bool:
    """Whether (p, q, r, s) fixes the root alpha of form [a, b, c]:
    r alpha^2 + (s - p) alpha - q = 0 is then a multiple of
    a alpha^2 + b alpha + c = 0, which in integers reads
    r b = (s - p) a, r c = -q a and (s - p) c = -q b."""
    p, q, r, s = mat
    a, b, c = form.a, form.b, form.c
    return r * b == (s - p) * a and r * c == -q * a and (s - p) * c == -q * b


def reference_fixing_classes(form, m):
    """Normal forms of the primitive determinant-m matrices that fix the
    root of form, checked in integers (_fixes_root): the matrices
    ((t - u b)/2, -u c, u a, (t + u b)/2) with t^2 = 4m + u^2 D, up to sign.
    The independent reference for fixing_class's form rule."""
    a, b, c = form.a, form.b, form.c
    d = form.discriminant()
    found = set()
    u = 0
    while u * u * (-d) <= 4 * m:
        t2 = 4 * m + u * u * d
        t = math.isqrt(t2)
        if t * t == t2:
            for tt in {t, -t}:
                if (tt - u * b) % 2:
                    continue
                mat = ((tt - u * b) // 2, -u * c, u * a, (tt + u * b) // 2)
                if math.gcd(*mat) == 1 and _fixes_root(mat, form):
                    found.add(_hnf_of(mat))
        u += 1
    return found


def brute_force_class_reps(m, bound=None):
    """All distinct normal forms of primitive determinant-m matrices with
    entries up to the bound: the matrix-orbit enumeration oracle."""
    bound = bound or m
    reps = set()
    for a, b, c, d in product(range(-bound, bound + 1), repeat=4):
        if a * d - b * c != m:
            continue
        if math.gcd(math.gcd(a, b), math.gcd(c, d)) != 1:
            continue
        reps.add(_hnf_of((a, b, c, d)))
    return reps


class TestHnfClasses:
    def test_m1(self):
        assert hnf_classes(1) == [MatrixClass(1, 0, 1)]

    def test_m23(self):
        classes = hnf_classes(23)
        assert len(classes) == 24 == class_count(23)
        assert MatrixClass(23, 0, 1) in classes
        assert all(MatrixClass(1, q, 23) in classes for q in range(23))

    def test_m4_primitivity(self):
        classes = hnf_classes(4)
        assert len(classes) == 6
        assert MatrixClass(2, 1, 2) in classes
        # (2, 0, 2) is imprimitive and must be absent
        assert all((c.p, c.q, c.s) != (2, 0, 2) for c in classes)

    def test_count_formula_through_50(self):
        for m in range(1, 51):
            assert len(hnf_classes(m)) == class_count(m)

    def test_against_matrix_orbit_oracle(self):
        for m in range(1, 7):
            assert set(hnf_classes(m)) == brute_force_class_reps(m)


class TestFixingClass:
    def test_unique_for_partition_discriminants(self):
        for n in (1, 2, 3):
            classes = hnf_classes(24 * n - 1)
            for form in enumerate_qn(n):
                fix = fixing_class(form, classes)
                assert fix in classes

    def test_identity_for_m1(self):
        fix = fixing_class(QuadForm(1, 0, 1), hnf_classes(1))
        assert fix == MatrixClass(1, 0, 1)

    def test_special_detected(self):
        # discriminant -27 = -3*3^2 admits three fixing classes for m = 27
        form = QuadForm(1, 1, 7)
        assert len(reference_fixing_classes(form, 27)) == 3
        with pytest.raises(NoFixingClass, match="3 fixing classes"):
            fixing_class(form, hnf_classes(27))

    def test_form_rule_matches_fixing_matrices_through_40(self):
        checked = 0
        for n in range(1, 41):
            m = 24 * n - 1
            classes = hnf_classes(m)
            for form in enumerate_qn(n):
                if form.content() != 1:
                    continue
                assert {fixing_class(form, classes)} == reference_fixing_classes(form, m)
                checked += 1
        assert checked == 799

    def test_imprimitive_form_has_none(self):
        # n = 24: 575 = 23 * 5^2, and the fixing matrices of 5 [6, 5, 2]
        # all have content 5
        form = QuadForm(30, 25, 10)
        assert reference_fixing_classes(form, 575) == set()
        with pytest.raises(NoFixingClass, match="0 fixing classes"):
            fixing_class(form, hnf_classes(575))


class TestBetaAndTaylor:
    def test_beta_nonzero(self, cfg512):
        classes = hnf_classes(23)
        table = _j_table(cfg512)
        for form in enumerate_qn(1):
            beta, _ = beta_product(form, classes, cfg512, table)
            assert abs(_to_mpc(beta, cfg512.eval_bits + _GUARD, 0)) > 1

    def test_beta_error_bound_holds(self, cfg512):
        # beta at 512 bits is within its stated bound of beta at 1024 bits
        classes = hnf_classes(23)
        hi = cfg512.with_bits(1024)
        table_lo, table_hi = _j_table(cfg512), _j_table(hi)
        for form in enumerate_qn(1):
            beta, err = beta_product(form, classes, cfg512, table_lo)
            beta = _to_mpc(beta, cfg512.eval_bits + _GUARD, 0)
            exact = _to_mpc(beta_product(form, classes, hi, table_hi)[0], hi.eval_bits + _GUARD, 0)
            bound = mpf(2) ** (err - cfg512.eval_bits - _GUARD)
            with mpmath.workprec(hi.eval_bits):
                assert abs(beta - exact) <= bound
                assert bound < mpf(2) ** -480 * abs(beta)

    def test_taylor_rejects_trivial(self, cfg256):
        with pytest.raises(ValueError):
            taylor_coeffs(QuadForm(1, 0, 1), hnf_classes(1), cfg256)

    def test_symmetry_imposed(self, cfg512):
        classes = hnf_classes(23)
        data = taylor_coeffs(enumerate_qn(1)[0], classes, cfg512)
        assert data.beta20 == data.beta02

    def test_masser_matches_direct_c_n1(self, cfg512):
        with mpmath.workprec(cfg512.eval_bits):
            for form in enumerate_qn(1):
                diff = abs(masser_c(form, cfg512) - eval_C(cm_point(form, cfg512), cfg512))
                assert diff < mpf("1e-15")

    def test_masser_matches_direct_c_n3(self, cfg512):
        classes = hnf_classes(71)
        with mpmath.workprec(cfg512.eval_bits):
            for form in enumerate_qn(3):
                data = taylor_coeffs(form, classes, cfg512)
                diff = abs(data.masser_c() - eval_C(cm_point(form, cfg512), cfg512))
                assert diff < mpf("1e-15")

    def test_finite_difference_oracle_agrees(self, cfg512):
        classes = hnf_classes(23)
        form = enumerate_qn(1)[0]
        analytic = taylor_coeffs(form, classes, cfg512)
        fitted = taylor_fd_fit(form, classes, cfg512)
        with mpmath.workprec(cfg512.eval_bits):
            for name in ("beta", "beta02", "beta11", "beta20"):
                a = getattr(analytic, name)
                b = getattr(fitted, name)
                assert abs(a - b) / (1 + abs(a)) < mpf("1e-10")

    def test_ladder_agreement(self):
        # a precision doubling leaves the Taylor data inside tolerance
        lo, hi = PrecisionConfig(256), PrecisionConfig(512)
        classes = hnf_classes(23)
        form = enumerate_qn(1)[0]
        d_lo = taylor_coeffs(form, classes, lo)
        d_hi = taylor_coeffs(form, classes, hi)
        with mpmath.workprec(600):
            rel = abs(d_lo.beta11 - d_hi.beta11) / (1 + abs(d_hi.beta11))
            assert rel < mpf(2) ** -200


class TestJFast:
    def test_matches_eisenstein_route(self, cfg256):
        import random
        rng = random.Random(5)
        with mpmath.workprec(cfg256.eval_bits):
            for _ in range(10):
                z = mpc(mpf(rng.uniform(-0.5, 0.5)), mpf(rng.uniform(0.05, 3)))
                a = eval_j(z, cfg256)
                b = _to_mpc(_j_from_eta(_reducing(_form(z))[0], cfg256.eval_bits)[0],
                            cfg256.eval_bits + _GUARD, 0)
                assert abs(a - b) / (1 + abs(a)) < mpf(2) ** -240


class TestClassTable:
    @pytest.mark.parametrize("n", [1, 2])
    def test_image_values_match_direct_j(self, cfg512, n):
        # every class value, mirror fills included, against j at the
        # numerically embedded image point (p alpha + q)/s
        bits = cfg512.eval_bits
        classes = hnf_classes(24 * n - 1)
        table = _j_table(cfg512)
        with mpmath.workprec(bits):
            for form in enumerate_qn(n):
                alpha = cm_point(form, cfg512)
                for cl in classes:
                    image, _ = _image_form(form, cl)
                    value = _to_mpc(table[reduce_with_matrix(image)[0]][0], bits + _GUARD, 0)
                    image_z = (cl.p * alpha + cl.q) / cl.s
                    direct = _to_mpc(_j_from_eta(_reducing(_form(image_z))[0], bits)[0],
                                     bits + _GUARD, 0)
                    assert abs(value - direct) <= abs(direct) * mpf(2) ** -cfg512.working_bits
        assert len(table) == {1: 72, 2: 240}[n]

    def test_shared_exponential_within_its_bound(self):
        # the nomes of n = 1 and n = 3's forms and images, one exponential
        # per discriminant and a Newton root each, against exp(2 pi i w):
        # 1/q within 2^(6 - prec) |w| relative, q within as much relative
        # and 3 units more
        forms = sorted({reduce_with_matrix(image)[0]
                        for n in (1, 3) for f in enumerate_qn(n)
                        for image in [f] + [_image_form(f, cl)[0]
                                            for cl in hnf_classes(24 * n - 1)[::7]]},
                       key=lambda f: (f.discriminant(), f.a, f.b))
        assert len({f.discriminant() for f in forms}) == 4
        assert {f.a for f in forms} >= {1, 2, 3, 4, 6} and any(f.b < 0 for f in forms)
        for bits in (544, 3568, 13500):
            self.nomes_within_their_bound(forms, bits)

    @staticmethod
    def nomes_within_their_bound(forms, bits):
        prec = bits + _GUARD
        unit = mpf(2) ** -prec
        with mpmath.workprec(prec + 64):
            for form, (inv_q, q) in zip(forms, _nomes(forms, bits)):
                w = _root(form)
                exact = mpmath.exp(2j * mpmath.pi * w)
                rel = mpf(2) ** 6 * unit * abs(w)
                assert abs(_to_mpc(inv_q, prec, 0) - 1 / exact) <= rel / abs(exact), form
                assert abs(_to_mpc(q, prec, 0) - exact) <= rel * abs(exact) + 3 * unit, form

    def test_image_form_root(self, cfg256):
        # the root of the image form is the image of the root
        form = enumerate_qn(3)[-1]
        with mpmath.workprec(cfg256.eval_bits):
            alpha = cm_point(form, cfg256)
            for cl in hnf_classes(71):
                image, g = _image_form(form, cl)
                assert image.content() == 1 and g * g * image.discriminant() == -71 ** 3
                z = (cl.p * alpha + cl.q) / cl.s
                assert abs(image.a * z * z + image.b * z + image.c) < mpf(2) ** -200 * image.c


class TestBetaNorm:
    # SHA-256 of the decimal norms, as perfbench/oracle.json records them
    SHA256 = {1: "633fc9cfe3d0f29425be59665d4ab01f8812c2f1b330840c1715846547fda0ac",
              2: "14c97bb8cf30db83f33d198c0ffe8a3601454da7df09d963b2f1808cb972b27e"}

    def test_n1(self):
        norm, coprime, achieved = beta_norm(1, PrecisionConfig(256, 8192))
        assert coprime
        assert norm % 2 != 0 and norm % 3 != 0
        assert len(str(abs(norm))) == 987 and abs(norm).bit_length() == 3279
        assert hashlib.sha256(str(norm).encode()).hexdigest() == self.SHA256[1]

    @pytest.fixture
    def rungs(self, monkeypatch):
        # the working bits of each rung, one class table per rung
        bits = []
        original = modpoly._j_table

        def spy(cfg, *args):
            bits.append(cfg.working_bits)
            return original(cfg, *args)

        monkeypatch.setattr(modpoly, "_j_table", spy)
        return bits

    def test_n1_one_certified_rung(self, rungs):
        # no probe rung: the one rung, at the magnitude predicted from the
        # forms (3281) + 256 bits, is bounded well below 2^-128
        _, _, achieved = beta_norm(1, PrecisionConfig(256, 8192))
        assert rungs == [3281 + 256] and achieved == 3537

    def test_ladder_when_the_bound_does_not_close(self, rungs):
        # one rung at the predicted magnitude + 256 bits cannot be certified
        # to 2^-400, the next, at the measured magnitude 3280 + 512, can
        cfg = PrecisionConfig(256, 8192, abs_tol=mpf(2) ** -400)
        norm, coprime, achieved = beta_norm(1, cfg)
        assert rungs == [3537, 3792] and achieved == 3792
        assert coprime
        assert hashlib.sha256(str(norm).encode()).hexdigest() == self.SHA256[1]

    # the bit lengths of the norms: n = 1 and 2 as test_n1 and test_n2
    # compute them, n = 3 that of the 9161-digit norm (SHA-256 prefix
    # 2beafe00631e9ce5) that criterion 5 computes
    BIT_LENGTHS = {1: 3279, 2: 13257, 3: 30431}

    @staticmethod
    def slack(n):
        """The derived excess of the norm's log2 over the prediction
        (beta_norm's docstring): per factor log2(1 + eps1 + 2^(Y2 - Y1)
        (1 + eps2)), eps <= q j(iy) - 1 scaled down from y = sqrt 3/2 by
        q/q0, q j(iy) - 1 taken at y = sqrt 3/2 from mpmath's kleinj."""
        y0 = math.sqrt(3) / 2
        eps0 = float(mpmath.re(mpmath.exp(-2 * mpmath.pi * y0)
                               * 1728 * mpmath.kleinj(mpc(0, y0)))) - 1
        big_y0 = 2 * math.pi * y0 / math.log(2)
        classes = tuple(hnf_classes(24 * n - 1))
        total = 0.0
        for form in enumerate_qn(n):
            red, images = modpoly._reduced_images(form, classes)
            for image in images:
                y2, y1 = sorted([modpoly._log2_j(red), modpoly._log2_j(image)])
                eps1, eps2 = (eps0 * 2 ** (big_y0 - y) for y in (y1, y2))
                total += math.log2(1 + eps1 + 2 ** (y2 - y1) * (1 + eps2))
        return eps0, total

    @pytest.mark.parametrize("n, predicted", [(1, 3281), (2, 13256), (3, 30428)])
    def test_predicted_magnitude_within_its_slack(self, monkeypatch, n, predicted):
        # the prediction, from the forms alone (no kernel call), against
        # the norm's measured magnitude
        magnitudes = []

        def record(task, cfg, magnitude):
            magnitudes.append(magnitude)
            raise StopIteration  # before any rung runs

        monkeypatch.setattr(modpoly, "run_adaptive", record)
        with pytest.raises(StopIteration):
            beta_norm(n, PrecisionConfig(256, 8192))
        assert magnitudes == [predicted]
        eps0, slack = self.slack(n)
        assert 9.0 < eps0 < 9.01
        assert round(slack) == {1: 26, 2: 72, 3: 162}[n]
        measured = self.BIT_LENGTHS[n] + 1  # run_adaptive's _magnitude
        # the derived side: the magnitude exceeds the prediction by at most
        # the slack; the other side has no bound from the forms, and the
        # prediction came out within 4 bits
        assert measured <= predicted + slack
        assert abs(measured - predicted) <= 4

    def test_n2(self):
        norm, coprime, _ = beta_norm(2, PrecisionConfig(256, 8192))
        assert coprime
        assert len(str(abs(norm))) == 3991 and abs(norm).bit_length() == 13257
        assert hashlib.sha256(str(norm).encode()).hexdigest() == self.SHA256[2]


class TestCertifiedNorm:
    """The norms' rungs run through precision.run_adaptive, each a product
    as a (value, error exponent) pair at scale 2^prec, taken as the exact
    value and the absolute bound 2^(e - prec) (_norm_rung)."""

    @staticmethod
    def stub(prod, err):
        """A norm rung that returns prod within 2^err at every rung, as a
        pair at scale 2^(b + 64), and records the rung's bits."""
        bits = []

        def rung(b):
            bits.append(b)
            return _norm_rung(((prod << b + 64, 0), err + b + 64), b + 64)

        return rung, bits

    def test_first_rung_closes(self):
        task, bits = self.stub(-7, -300)
        assert run_adaptive(task, PrecisionConfig(256)) == (-7, mpf(2) ** -300, 256)
        assert bits == [256]

    def test_integer_farther_than_its_bound(self, monkeypatch):
        # a product within its bound of 5.5 is refused, not retried
        monkeypatch.setattr(modpoly, "_eprod",
                            lambda pairs, prec: ((11 << prec - 1, 0), prec - 300))
        with pytest.raises(NotNearIntegral, match="j-norm"):
            j_norm(1, PrecisionConfig(256))

    def test_bound_never_closes(self):
        # magnitude 10, then 10 + 256, 512, 1024, 2048 and the cap 3000
        task, bits = self.stub(1000, 11)
        with pytest.raises(PrecisionExhausted, match="at 3010 bits"):
            run_adaptive(task, PrecisionConfig(256, 3000))
        assert bits == [256, 266, 522, 1034, 2058, 3010]

    def test_j_norm_past_the_first_rung(self):
        # the product of j for n = 5 needs its magnitude plus 256 bits
        norm, coprime, achieved = j_norm(5, PrecisionConfig(256, 4096))
        assert norm == -11669920442373800031513478208679663025064587635901689887
        assert coprime and achieved == 440
        # n = 4 closes at the first rung, its bound 2^-133 against the
        # tolerance 2^-128 (a plain _emul chain for the product takes 404 bits)
        norm, coprime, achieved = j_norm(4, PrecisionConfig(256, 4096))
        assert norm == 107789694576540010002976771996177148681640625
        assert coprime and achieved == 256
