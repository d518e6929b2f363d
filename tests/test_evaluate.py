import math
import random
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpc, mpf
from mpmath.libmp import to_rational

from cmpartitions import evaluate, recognize
from cmpartitions.errors import NearSingularity, NotUpperHalfPlane
from cmpartitions.evaluate import (_GUARD, _ClassTable, _eprod, _esum, _eta_k,
                                   _eval_bounded, _form, _j_from_eta, _kernel_table, _nterms,
                                   _reduced_basics, _reducing, _rounded, _t, _tail, _to_mpc,
                                   _values, eval_A, eval_Aprime, eval_B,
                                   eval_C, eval_eisenstein, eval_eta, eval_form,
                                   eval_j, eval_P, eval_P_cm, eval_theta_j)
from cmpartitions.precision import PrecisionConfig
from cmpartitions.quadforms import (ATKIN_LEHNER_MATRICES, QuadForm, _root, cm_point,
                                    enumerate_qn)
from cmpartitions.recognize import compute_pn
from cmpartitions.series import _power, eisenstein_series, fp_series
from oracles import nome_of


def random_points(seed, count, im_low=0.1, im_high=3.0):
    rng = random.Random(seed)
    with mpmath.workprec(128):
        return [mpc(mpf(rng.uniform(-0.5, 0.5)), mpf(rng.uniform(im_low, im_high)))
                for _ in range(count)]


def eval_theta_form(z, cfg):
    """theta F = q dF/dq at z, from P = -theta F - F/(2 pi Im z)."""
    return -eval_P(z, cfg) - eval_form(z, cfg) / (2 * mpmath.pi * z.imag)


def apply_moebius(mat, z):
    a, b, c, d = mat
    return (a * z + b) / (c * z + d)


def random_gamma0_matrices(rng, count, level=6):
    mats = []
    for _ in range(count):
        mat = (1, 0, 0, 1)
        for _ in range(rng.randint(1, 5)):
            if rng.random() < 0.5:
                other = (1, rng.randint(-3, 3), 0, 1)
            else:
                other = (1, 0, level * rng.randint(-2, 2), 1)
            a, b, c, d = mat
            e, f, g, h = other
            mat = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
        mats.append(mat)
    return mats


def exact_form(z):
    """The primitive integer form whose root is z's exact binary value."""
    x, y = (Fraction(*to_rational(part._mpf_)) for part in (z.real, z.imag))
    den = math.lcm((2 * x).denominator, (x * x + y * y).denominator)
    return QuadForm(den, int(-2 * x * den), int((x * x + y * y) * den))


class TestReduction:
    PREC = 288

    def test_fixed_point(self):
        red, matrix = _reducing(_form(mpc(0, 1)))
        assert matrix == (1, 0, 0, 1)
        assert red == QuadForm(36, 0, 36)
        assert _t(_form(mpc(0, 1)), red, matrix, self.PREC) == ((0, 1 << self.PREC), 1)

    def test_translation(self):
        red, matrix = _reducing(_form(mpc(5, 1)))
        assert matrix == (1, -5, 0, 1)
        assert red == QuadForm(36, 0, 36)

    def test_deep_point(self):
        with mpmath.workprec(self.PREC):
            z = mpc(mpf("0.1"), mpf("0.01"))
            red, matrix = _reducing(_form(z))
            w = _root(red)
            assert mpmath.im(w) >= mpmath.sqrt(3) / 2
            a, b, c, d = matrix
            assert a * d - b * c == 1
            assert c > 0 or (c == 0 and d > 0)
            assert abs(apply_moebius(matrix, z) - w) < mpf(2) ** -270
            t, err = _t(_form(z), red, matrix, self.PREC)
            assert err == 1  # the isqrt of a binary form's |D| is exact
            assert abs(mpc(*t) / 2 ** self.PREC - 1j / (c * z + d)) < mpf(2) ** -280

    def test_rejects_lower_half(self):
        for z in (mpc(0, -1), mpf(1), mpc(0, mpmath.inf), mpc(mpmath.nan, 1)):
            with pytest.raises(NotUpperHalfPlane):
                _form(z)

    def test_matrix_reduces_exact_form(self):
        # The matrix is normalised, in SL2(Z), and carries the form of z's
        # exact binary value to a reduced form, at seeded random points and
        # on the boundary of the fundamental domain
        rng = random.Random(18)
        with mpmath.workprec(128):
            points = [mpc(mpf(rng.uniform(-3, 3)), mpf(10) ** rng.uniform(-3, 3))
                      for _ in range(1000)]
        points += [mpc(0.5, 1), mpc(-0.5, 1), mpc(0, 1)]
        for z in points:
            red, matrix = _reducing(_form(z))
            a, b, c, d = matrix
            assert a * d - b * c == 1
            assert c > 0 or (c == 0 and d > 0)
            exact = exact_form(z).transform((d, -b, -c, a))
            assert exact.is_reduced(), (z, matrix)
            k = red.a // exact.a
            assert red == QuadForm(k * exact.a, k * exact.b, k * exact.c), (z, matrix)

    def test_boundary_follows_forms(self):
        # Re z = 1/2 on the boundary goes to Re w = -1/2, as reduced forms
        # [a, b, c] have b = a, not -a
        red, matrix = _reducing(_form(mpc(0.5, 1)))
        assert matrix == (1, -1, 0, 1)
        assert _root(red) == mpc(-0.5, 1)


class TestEta:
    def test_eta_i_gamma_oracle(self, cfg512):
        # eta(i) = Gamma(1/4)/(2 pi^(3/4)), evaluated via the gamma function
        with mpmath.workprec(cfg512.eval_bits):
            value = eval_eta(mpc(0, 1), cfg512)
            oracle = mpmath.gamma(mpf(1) / 4) / (2 * mpmath.pi ** (mpf(3) / 4))
            assert abs(value - oracle) < mpf(2) ** -500

    def test_translation_law(self, cfg256):
        with mpmath.workprec(cfg256.eval_bits):
            z = mpc(mpf("0.3"), mpf("0.8"))
            lhs = eval_eta(z + 1, cfg256)
            rhs = mpmath.exp(mpc(0, 1) * mpmath.pi / 12) * eval_eta(z, cfg256)
            assert abs(lhs - rhs) < mpf(2) ** -240

    def test_inversion_law_at_2i(self, cfg256):
        with mpmath.workprec(cfg256.eval_bits):
            z = mpc(0, 2)
            lhs = eval_eta(-1 / z, cfg256)
            rhs = mpmath.sqrt(mpc(0, -1) * z) * eval_eta(z, cfg256)
            assert abs(lhs - rhs) < mpf(2) ** -240

    def test_inversion_law_random(self, cfg256):
        bound = mpf(2) ** (-cfg256.working_bits + cfg256.guard_bits + 8)
        with mpmath.workprec(cfg256.eval_bits):
            for z in random_points(23, 100):
                lhs = eval_eta(-1 / z, cfg256)
                rhs = mpmath.sqrt(mpc(0, -1) * z) * eval_eta(z, cfg256)
                assert abs(lhs - rhs) < bound

    @pytest.mark.parametrize("im_z", ["0.1", "0.01", "0.002"])
    def test_multiplier_against_unreduced_sum(self, cfg256, im_z):
        # Reducing these points takes matrices with c up to 3, 10 and 19, so
        # eval_eta leans on the Dedekind-sum multiplier; the oracle is the
        # pentagonal sum q^(1/24) sum (-1)^m q^(m(3m-1)/2) at z itself
        bits = cfg256.working_bits
        terms = int(((bits + 80) / (4 * float(im_z))) ** 0.5) + 2
        rng = random.Random(4)
        for _ in range(10):
            with mpmath.workprec(bits + 64):
                z = mpc(mpf(rng.uniform(-0.5, 0.5)), mpf(im_z))
                q = mpmath.exp(2j * mpmath.pi * z)
                oracle = mpmath.exp(2j * mpmath.pi * z / 24) * sum(
                    (-1) ** m * q ** (m * (3 * m - 1) // 2) for m in range(-terms, terms + 1))
            value = eval_eta(z, cfg256)
            assert abs(value - oracle) < mpf(2) ** -(bits - 8) * abs(oracle)


def dedekind_sum(h: int, k: int) -> Fraction:
    """s(h, k) for k > 0 and gcd(h, k) = 1, by reciprocity in exact
    rationals: s(h, k) + s(k, h) = (h/k + k/h + 1/(hk))/12 - 1/4."""
    total = Fraction(0)
    sign = 1
    h %= k
    while h:
        total += sign * (Fraction(h * h + k * k + 1, 12 * h * k) - Fraction(1, 4))
        sign = -sign
        h, k = k % h, h
    return total


class TestMultiplier:
    def test_integer_k_against_rational_dedekind_sum(self):
        # Rademacher's k = (a + d)/c - 12 s(d, c) in exact rationals against
        # the library's integer k, for every coprime (d, c) with c <= 300
        # and -c <= d <= 2c, a = d^-1 (mod c); eta^2 uses k mod 12, eta k
        # mod 24
        sums = {}
        for c in range(1, 301):
            for d in range(-c, 2 * c + 1):
                if math.gcd(d, c) != 1:
                    continue
                a = pow(d, -1, c)
                if (d % c, c) not in sums:
                    sums[d % c, c] = dedekind_sum(d, c)
                k = Fraction(a + d, c) - 12 * sums[d % c, c]
                assert k.denominator == 1, (c, d)
                assert (_eta_k((a, (a * d - 1) // c, c, d)) - k.numerator) % 24 == 0, (c, d)


class TestEisenstein:
    def test_e6_vanishes_at_i(self, cfg256):
        # S fixes i and has weight-6 factor i^6 = -1, forcing E6(i) = 0
        with mpmath.workprec(cfg256.eval_bits):
            assert abs(eval_eisenstein(6, mpc(0, 1), cfg256)) < mpf(2) ** -240

    def test_e2_periodicity(self, cfg256):
        with mpmath.workprec(cfg256.eval_bits):
            z = mpc(mpf("0.3"), mpf("0.8"))
            diff = eval_eisenstein(2, z + 1, cfg256) - eval_eisenstein(2, z, cfg256)
            assert abs(diff) < mpf(2) ** -240

    def test_e2_inversion_random(self, cfg256):
        bound = mpf(2) ** (-cfg256.working_bits + cfg256.guard_bits + 8)
        with mpmath.workprec(cfg256.eval_bits):
            for z in random_points(29, 100):
                lhs = eval_eisenstein(2, -1 / z, cfg256)
                rhs = z * z * eval_eisenstein(2, z, cfg256) - 6j * z / mpmath.pi
                assert abs(lhs - rhs) < bound * (1 + abs(rhs))

    def test_e2_star_weight_two(self, cfg256):
        # E2 - 3/(pi y) transforms with weight 2 under both generators
        bound = mpf(2) ** (-cfg256.working_bits + cfg256.guard_bits + 8)

        def e2star(z):
            return (eval_eisenstein(2, z, cfg256)
                    - 3 / (mpmath.pi * mpmath.im(z)))

        with mpmath.workprec(cfg256.eval_bits):
            for z in random_points(31, 100):
                lhs_s = e2star(-1 / z)
                assert abs(lhs_s - z * z * e2star(z)) < bound * (1 + abs(lhs_s))
                lhs_t = e2star(z + 1)
                assert abs(lhs_t - e2star(z)) < bound * (1 + abs(lhs_t))

    def test_point_values_against_divisor_sums(self, cfg512):
        # the pentagonal/theta kernel against the exact divisor-sum series,
        # which shares no code with it; 100 terms leave a tail below 2^-700
        points = [("0.49", "0.88"), ("-0.45", "0.9"), ("0.3", "0.96"),
                  ("0.1", "1.2"), ("-0.25", "1.35"), ("0.45", "1.5")]
        with mpmath.workprec(512):
            for k in (2, 4, 6):
                coeffs = eisenstein_series(k, 100).coeffs
                for x, y in points:
                    z = mpc(mpf(x), mpf(y))
                    ref = mpmath.polyval(coeffs[::-1], mpmath.exp(2j * mpmath.pi * z))
                    err = abs(eval_eisenstein(k, z, cfg512) - ref)
                    assert err < mpf(2) ** -480 * abs(ref), (k, x, y)

    def test_bad_weight(self, cfg256):
        with pytest.raises(ValueError):
            eval_eisenstein(8, mpc(0, 1), cfg256)


class TestJ:
    def test_j_at_i(self, cfg256):
        with mpmath.workprec(cfg256.eval_bits):
            assert abs(eval_j(mpc(0, 1), cfg256) - 1728) < mpf(2) ** -230

    def test_j_at_omega(self, cfg256):
        with mpmath.workprec(cfg256.eval_bits):
            omega = mpc(mpf(-1) / 2, mpmath.sqrt(3) / 2)
            assert abs(eval_j(omega, cfg256)) < mpf(2) ** -230

    def test_theta_j_at_i(self, cfg256):
        with mpmath.workprec(cfg256.eval_bits):
            assert abs(eval_theta_j(mpc(0, 1), cfg256)) < mpf(2) ** -220

    def test_theta_j_finite_difference(self, cfg512):
        # central difference of j against the analytic -E4^2 E6 / Delta
        with mpmath.workprec(cfg512.eval_bits):
            z = mpc(mpf("0.13"), mpf("1.21"))
            h = mpf(10) ** -30
            fd = ((eval_j(z + h, cfg512) - eval_j(z - h, cfg512))
                  / (2 * h * 2j * mpmath.pi))
            analytic = eval_theta_j(z, cfg512)
            assert abs(fd - analytic) / (1 + abs(analytic)) < mpf(10) ** -25


# fundamental-domain points next to rho, at i and at Im w = 3
KERNEL_POINTS = [("-0.49", "0.876"), ("0", "1"), ("0.25", "3")]
# and for j, where the norms take it: the highest reduced root for n <= 30
# (Im sqrt(719)/2), Im 24, and within 10^-3 of rho
J_POINTS = KERNEL_POINTS + [("0.5", "13.4070876778"), ("0.1", "24"), ("-0.4995", "0.8665")]


def kernel_form(x, y, bits):
    """(w, the reduced form whose root is w's exact binary value) for the
    point x + iy of the fundamental domain rounded at bits."""
    with mpmath.workprec(bits):
        w = mpc(mpf(x), mpf(y))
    assert abs(w) >= 1 and abs(w.real) <= 0.5
    return w, _reducing(_form(w))[0]


class TestFixedPointKernels:
    """The integer kernels against oracles that share no code with them, to
    2^-(bits-8) relative; E2, E4 and E6 to 2^-(bits-8) absolute where they
    are below 1, since E6(i) = 0.  The stated error exponents cover the
    measured errors.  The 13500-bit cases take 6-10 s in all on two cores
    with mpmath's Python backend, nearly all of it the basics' reference
    series."""

    @pytest.mark.parametrize("bits, points", [pytest.param(544, J_POINTS, id="544"),
                                              pytest.param(3600, J_POINTS, id="3600"),
                                              pytest.param(13500, J_POINTS[-2:], id="13500")])
    def test_j_against_kleinj(self, bits, points):
        for x, y in points:
            w, red = kernel_form(x, y, bits)
            value, err = _rounded(_j_from_eta(red, bits, nome_of(red, bits + _GUARD)),
                                  bits + _GUARD, 0)
            with mpmath.workprec(bits + 64):
                ref = 1728 * mpmath.kleinj(w)
                assert abs(value - ref) < mpf(2) ** (8 - bits) * abs(ref), (x, y)
                # the stated bound covers the actual error
                assert abs(value - ref) <= mpf(2) ** err, (x, y)

    @pytest.mark.parametrize("bits", [256, 1024, 4096, 13500])
    def test_basics_against_divisor_sums(self, bits):
        for x, y in KERNEL_POINTS + J_POINTS[-1:]:
            w, red = kernel_form(x, y, bits)
            basics = _reduced_basics(red, bits)
            value = {key: _rounded(basics[key], bits + _GUARD, bits)[0]
                     for key in ("e2", "e4", "e6")}
            n = _nterms(bits + 64, red)
            with mpmath.workprec(bits + 64):
                q = mpmath.exp(2j * mpmath.pi * w)
                for k in (2, 4, 6):
                    ref = mpmath.polyval(eisenstein_series(k, n).coeffs[::-1], q)
                    err = abs(value[f"e{k}"] - ref)
                    assert err < mpf(2) ** (8 - bits) * max(1, abs(ref)), (k, x, y)
                    # the pair's own exponent covers the error of its exact value
                    exact, e = _rounded(basics[f"e{k}"], bits + _GUARD, 0)
                    assert abs(exact - ref) <= mpf(2) ** e, (k, x, y)

    @pytest.mark.parametrize("bits", [544, 3568, 13500])
    def test_both_kernels_read_one_pentagonal_table(self, monkeypatch, bits):
        # every kernel call asks for one table of q powers, at the pentagonal
        # exponents below its series length: no powers of q^(1/2), no
        # squares or oblongs and no doubled exponents
        tables = []
        original = evaluate._power_table

        def spy(x, exponents, prec):
            tables.append(list(exponents))
            return original(x, exponents, prec)

        monkeypatch.setattr(evaluate, "_power_table", spy)
        for x, y in (KERNEL_POINTS[0], KERNEL_POINTS[2]):
            _, red = kernel_form(x, y, bits)
            for kernel in (_reduced_basics,
                           lambda red, bits: _j_from_eta(red, bits,
                                                         nome_of(red, bits + _GUARD)),
                           lambda red, bits: _reduced_basics(red, bits, False)):
                tables.clear()
                kernel(red, bits)
                assert tables == [j_exponents(bits, red)], (x, y)


def j_exponents(bits, red):
    """The exponents of the kernels' table of q powers at the root of red:
    the pentagonal exponents below the series length."""
    from cmpartitions.series import _pentagonal_exponents
    return [e for e, _ in _pentagonal_exponents(_nterms(bits, red))]


def full_table(x, exponents, prec):
    """Every gap up to the largest, x^gap = x^(gap - 1) x, each power one
    _cmul further: the table _power_table builds below _TAPER_BITS."""
    acc = one = (1 << prec, 0)
    gap_pow, powers, prev = [one, x], {}, 0
    for e in sorted(set(exponents)):
        while len(gap_pow) <= e - prev:
            gap_pow.append(evaluate._cmul(gap_pow[-1], x, prec))
        powers[e] = acc = evaluate._cmul(acc, gap_pow[e - prev], prec)
        prev = e
    return powers


class TestPowerTable:
    @staticmethod
    def nome(prec, w):
        with mpmath.workprec(prec):
            return evaluate._fixed(mpmath.exp(2j * mpmath.pi * w), prec)

    @pytest.mark.parametrize("bits, count, gap_table", [(3568, 41, 57), (30720, 116, 175)])
    def test_tapered_table_products_at_rho(self, monkeypatch, bits, count, gap_table):
        # the kernels' table at rho (Im w = 0.866) on the addition sequence:
        # one product a power past x and one square a held x^(2a), fewer
        # than the table of gaps between exponents took (gap_table)
        prec = bits + _GUARD
        assert prec >= evaluate._TAPER_BITS
        exponents = j_exponents(bits, QuadForm(1, 1, 1))
        squares = sum(square for *_, square in evaluate._sequence(exponents[-1] + 1))
        products = []
        original = evaluate._cmul_within

        def counting(a, b, prec):
            products.append(prec)
            return original(a, b, prec)

        monkeypatch.setattr(evaluate, "_cmul_within", counting)
        x = self.nome(prec, mpc(mpf("0.3"), mpf("0.866")))
        powers = evaluate._power_table(x, exponents, prec)
        assert sorted(powers) == exponents
        assert len(products) == (len(exponents) - 1) + squares == count < gap_table

    @pytest.mark.parametrize("bits", [3568, 13500])
    def test_tapered_powers_within_the_taper_budget(self, bits):
        # each step adds under 2 + 2^(1 - _TAPER) units to its power's
        # error, against the exact powers (64 bits more, cut back)
        prec = bits + _GUARD
        w = mpc(mpf("-0.4"), mpf("0.9"))
        exponents = j_exponents(bits, _reducing(_form(w))[0])
        x = self.nome(prec, w)
        powers = evaluate._power_table(x, exponents, prec)
        exact = full_table(self.nome(prec + 64, w), exponents, prec + 64)
        for k, e in enumerate(sorted(powers)):
            error = max(abs(u - (v >> 64)) for u, v in zip(powers[e], exact[e]))
            assert error <= 3 * (k + 1), e

    @pytest.mark.parametrize("bits", [256, 1024, 1984])
    def test_full_table_below_the_taper(self, bits):
        # below _TAPER_BITS every entry is within the 2 units _power_table
        # states of the exact powers of x (formed with 64 bits more)
        prec = bits + _GUARD
        assert prec < evaluate._TAPER_BITS
        w = mpc(mpf("0.1"), mpf("0.95"))
        x = self.nome(prec, w)
        exponents = j_exponents(bits, _reducing(_form(w))[0])
        powers = evaluate._power_table(x, exponents, prec)
        exact = full_table((x[0] << 64, x[1] << 64), exponents, prec + 64)
        assert sorted(powers) == exponents
        for e in exponents:
            re, im = ((u << 64) - v for u, v in zip(powers[e], exact[e]))
            assert re * re + im * im < 4 << 128, e

    def test_every_table_takes_a_prefix_of_one_sequence(self, monkeypatch):
        # grown in any order, the sequence is the same, and the steps below
        # n reach exactly the pentagonal numbers below n, each from two
        # exponents held before it
        from cmpartitions.series import _pentagonal_exponents
        monkeypatch.setattr(evaluate, "_STEPS", [])
        whole = list(evaluate._sequence(5000))
        monkeypatch.setattr(evaluate, "_STEPS", [])
        for n in (3, 100, 40, 463, 3922, 5000):
            steps = evaluate._sequence(n)
            assert steps == whole[:len(steps)]
            assert [c for c, *_ in steps] == [e for e, _ in _pentagonal_exponents(n)][1:]
        held = {1}
        for c, a, b, square in whole:
            if square:
                assert a // 2 in held and a == a // 2 * 2
                held.add(a)
            assert a + b == c and a in held and b in held
            held.add(c)

    @pytest.mark.parametrize("bits", [288, 3568, 30720])
    def test_square_matches_the_three_products(self, bits):
        # _cmul(a, a) takes two products, bit for bit Gauss's three
        rng = random.Random(bits)
        for _ in range(20):
            a = tuple(rng.randrange(-1 << bits, 1 << bits) >> rng.randrange(0, bits // 2)
                      for _ in range(2))
            assert evaluate._cmul(a, a, bits) == evaluate._cmul(a, (a[0], a[1]), bits)

    @pytest.mark.parametrize("bits", [544, 3568, 30720])
    @pytest.mark.parametrize("size", ["0.5", "0.5002", "0.9956", "1", "1.0044", "1.9998", "2"])
    def test_reciprocal_within_its_units(self, bits, size):
        # _recip's 1/b against the exact 1/b, within |b| max(1, 1.0001
        # |b|^-4) + sqrt 2 units, at random arguments
        rng = random.Random(bits)
        for _ in range(5):
            with mpmath.workprec(bits + 64):
                b = evaluate._fixed(mpf(size) * mpmath.expjpi(mpf(rng.uniform(-1, 1))), bits)
                exact = mpf(2) ** (2 * bits) / mpc(*b)
                got = mpc(*evaluate._recip(b, bits))
                size_b = abs(mpc(*b)) / mpf(2) ** bits
                assert abs(got - exact) <= size_b * max(1, 1.0001 / size_b ** 4) + mpf(2).sqrt()


class TestErrorExponents:
    """The (value, error exponent) helpers at their edges."""

    def test_sum_with_an_unbounded_term_is_unbounded(self):
        # a j from an _ediv that gave up (inf) makes its beta difference, and
        # so the rung's bound, inf: run_adaptive then takes the next rung
        one = ((1 << 64, 0), 3)
        assert _esum([(1, one), (-1, ((3 << 64, 5), math.inf))]) == ((-2 << 64, -5), math.inf)
        assert _esum([(1, one), (-1, one)]) == ((0, 0), 5)

    def test_exact_rounding_adds_no_error(self):
        # at 0 bits _rounded converts exactly, so only the pair's error counts
        x = (-(7 << 300) - 12345, 1 << 200)
        value, err = _rounded((x, 40), 100, 0)
        assert value == _to_mpc(x, 100, 0) and err == 40 - 100
        assert _rounded((x, math.inf), 100, 0)[1] == math.inf

    def test_product_bound_covers_perturbed_factors(self):
        # the exact product of factors moved by up to their errors, against
        # _eprod's value and bound; and one unbounded factor makes it inf
        rng = random.Random(11)
        prec = 200
        for _ in range(20):
            pairs = [((rng.randrange(-1 << 260, 1 << 260), rng.randrange(-1 << 230, 1 << 230)),
                      rng.randrange(0, 40)) for _ in range(rng.randrange(1, 12))]
            value, err = _eprod(pairs, prec)
            with mpmath.workprec(2000):
                exact = mpc(1)
                for (re, im), e in pairs:
                    move = mpmath.expjpi(mpf(rng.random()) * 2) * mpf(2) ** e
                    exact *= (mpc(re, im) + move) / mpf(2) ** prec
                assert abs(exact - _to_mpc(value, prec, 0)) <= mpf(2) ** (err - prec)
        assert _eprod(pairs + [((1 << prec, 0), math.inf)], prec)[1] == math.inf


class TestFormAndP:
    def test_series_point_crossvalidation(self, cfg256):
        series = fp_series(12)
        with mpmath.workprec(cfg256.eval_bits):
            z = mpc(mpf(1) / 7, 10)
            q = mpmath.exp(2j * mpmath.pi * z)
            truncated = sum(mpc(series.coeff(m)) * q ** m for m in range(-1, 12))
            value = eval_form(z, cfg256)
            # |F| ~ |q|^-1 ~ 1e27 here, so the bound is relative
            assert abs(value - truncated) / (1 + abs(value)) < mpf(2) ** -200

    def test_weight_minus_two_modularity(self, cfg256):
        rng = random.Random(37)
        bound = mpf(2) ** (-cfg256.working_bits + cfg256.guard_bits + 8)
        with mpmath.workprec(cfg256.eval_bits):
            mats = random_gamma0_matrices(rng, 10)
            for z, mat in zip(random_points(41, 10, 0.5, 2.0), mats):
                a, b, c, d = mat
                lhs = eval_form(apply_moebius(mat, z), cfg256)
                rhs = (c * z + d) ** -2 * eval_form(z, cfg256)
                assert abs(lhs - rhs) < bound * (1 + abs(rhs))

    def test_periodicity(self, cfg256):
        with mpmath.workprec(cfg256.eval_bits):
            z = mpc(mpf("0.2"), mpf("1.1"))
            diff = eval_form(z + 1, cfg256) - eval_form(z, cfg256)
            assert abs(diff) < mpf(2) ** -220

    def test_theta_form_finite_difference(self, cfg512):
        with mpmath.workprec(cfg512.eval_bits):
            z = mpc(mpf("0.17"), mpf("1.4"))
            h = mpf(10) ** -30
            fd = ((eval_form(z + h, cfg512) - eval_form(z - h, cfg512))
                  / (2 * h * 2j * mpmath.pi))
            analytic = eval_theta_form(z, cfg512)
            assert abs(fd - analytic) / (1 + abs(analytic)) < mpf(10) ** -25

    def test_p_weight_zero_invariance(self, cfg256):
        rng = random.Random(43)
        bound = mpf(2) ** (-cfg256.working_bits + cfg256.guard_bits + 8)
        with mpmath.workprec(cfg256.eval_bits):
            points = random_points(47, 10, 0.5, 2.0)
            mats = random_gamma0_matrices(rng, 10)
            for z in points:
                base = eval_P(z, cfg256)
                for mat in mats:
                    moved = eval_P(apply_moebius(mat, z), cfg256)
                    assert abs(moved - base) < bound * (1 + abs(base))

    def test_partition_trace_n1(self, cfg256):
        with mpmath.workprec(cfg256.eval_bits):
            total = mpc(0)
            for form in enumerate_qn(1):
                total += eval_P(cm_point(form, cfg256), cfg256)
            assert abs(total - 23) < mpf(2) ** -200

    def test_precision_ladder_stability(self):
        # doubling the working precision moves the value by less than the
        # coarser run's own tolerance
        lo, hi = PrecisionConfig(256), PrecisionConfig(512)
        alpha_lo = cm_point(enumerate_qn(1)[0], lo)
        alpha_hi = cm_point(enumerate_qn(1)[0], hi)
        with mpmath.workprec(hi.eval_bits):
            v_lo = eval_P(alpha_lo, lo)
            v_hi = eval_P(alpha_hi, hi)
            assert abs(v_lo - v_hi) < mpf(2) ** (-lo.working_bits + lo.guard_bits + 8)


class TestCMValues:
    """eval_P_cm (exact reduction, one kernel call per class, mirror classes
    by conjugation) against the generic eval_P at each CM point."""

    # n = 1..30, the first n whose 24n - 1 is not squarefree beyond 24, and
    # five n in 31..60 drawn with a fixed seed
    SAMPLE = [*range(1, 31), 47, 49,
              *sorted(random.Random(1987).sample(range(31, 61), 5))]

    @pytest.mark.parametrize("bits", [256, 1024])
    def test_matches_generic_eval_P(self, bits):
        assert self.SAMPLE[32:] == [35, 46, 50, 52, 58]
        cfg = PrecisionConfig(bits)
        tol = mpf(2) ** -cfg.working_bits
        for n in self.SAMPLE:
            forms = enumerate_qn(n)
            values, _ = eval_P_cm(forms, cfg)
            assert len(values) == len(forms)
            with mpmath.workprec(cfg.eval_bits):
                for form, value in zip(forms, values):
                    generic = eval_P(cm_point(form, cfg), cfg)
                    assert abs(value - generic) < tol * abs(generic), (n, form)

    def test_rejects_a_not_divisible_by_6(self, cfg256):
        with pytest.raises(ValueError):
            eval_P_cm([QuadForm(1, 1, 6)], cfg256)

    @pytest.mark.parametrize("bits", [256, 1024])
    def test_relative_accuracy_across_magnitudes(self, bits):
        # |P| runs from 0.07 to 2e19 over these forms, and their eta^2
        # products down to 2^-64 (n = 300): each value is within
        # 2^-(bits+16) relative of the value 256 bits higher
        for n in (30, 100, 300):
            forms = enumerate_qn(n)
            lo, _ = eval_P_cm(forms, PrecisionConfig(bits))
            hi, _ = eval_P_cm(forms, PrecisionConfig(bits + 256))
            with mpmath.workprec(bits + 320):
                for form, value, ref in zip(forms, lo, hi):
                    assert abs(value - ref) < mpf(2) ** -(bits + 16) * abs(ref), (n, form)

    def test_mirror_fill_matches_the_kernel(self, monkeypatch):
        # every entry eval_P_cm fills as a mirror (n = 1..5) against a direct
        # kernel call at the mirror's root, to 2^-bits
        tables = []

        class Recording(_ClassTable):
            def __init__(self, kernel):
                def recording(red):
                    self.computed.add(red)
                    return kernel(red)

                super().__init__(recording)
                self.computed = set()
                tables.append(self)

        monkeypatch.setattr(evaluate, "_ClassTable", Recording)
        cfg = PrecisionConfig(256)
        ulps = 1 << (evaluate._GUARD)  # 2^-eval_bits at scale 2^(eval_bits + _GUARD)
        filled = 0
        for n in range(1, 6):
            eval_P_cm(enumerate_qn(n), cfg)
            table = tables[-1]
            for red in set(table) - table.computed:
                direct, filled_in = table.kernel(red), table[red]
                assert set(direct) == set(filled_in)
                assert direct["eta2_exp"] == filled_in["eta2_exp"]
                for key in ("eta2", "e2", "e4"):
                    assert direct[key][1] == filled_in[key][1]
                    assert all(abs(x - y) < ulps for x, y in zip(direct[key][0], filled_in[key][0])), \
                        (n, red, key)
                filled += 1
        assert filled >= 5

    def test_compute_pn_takes_no_mpc_transport(self, monkeypatch):
        # no eta multiplier by expjpi, and no square root per point: at most
        # one mpmath.sqrt per eval_P_cm call
        def refuse(*args):
            raise AssertionError("expjpi called")

        sqrt, original = mpmath.sqrt, recognize.eval_P_cm
        roots, calls = [], []

        def counted_sqrt(*args, **kwargs):
            roots.append(args)
            return sqrt(*args, **kwargs)

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(mpmath, "expjpi", refuse)
        monkeypatch.setattr(mpmath, "sqrt", counted_sqrt)
        monkeypatch.setattr(recognize, "eval_P_cm", counted)
        assert compute_pn(5, PrecisionConfig(256)).pn == 7
        assert calls and len(roots) <= len(calls)

    def test_mirror_fill_is_exact_outside_workprec(self):
        # a value filled at the default 53 bits keeps its mirror's 600 bits
        with mpmath.workprec(600):
            value = mpc(1, 3) / 7
            conj = mpmath.conj(value)
        table = _ClassTable(lambda red: {"j": value, "eps": mpf(1)})
        table[QuadForm(2, 1, 3)]
        mirror = table[QuadForm(2, -1, 3)]
        assert mirror["j"].real == conj.real and mirror["j"].imag == conj.imag
        assert mirror["eps"] == 1 and len(table) == 2

    def test_one_off_point_fills_no_mirror(self, monkeypatch):
        # a table takes a mirror's conjugate on lookup only, so it holds
        # just the classes asked for: one form, or a generic point's four
        # multiples in the one table of its own
        table = _ClassTable(lambda red: {"j": mpc(1, 3), "eps": mpf(1)})
        table[QuadForm(2, 1, 3)]
        assert list(table) == [QuadForm(2, 1, 3)]
        tables = []

        class Recording(_ClassTable):
            def __init__(self, kernel):
                super().__init__(kernel)
                tables.append(self)

        monkeypatch.setattr(evaluate, "_ClassTable", Recording)
        eval_P(mpc(0.13, 0.021), PrecisionConfig(256))
        (table,) = tables
        assert len(table) == 4
        assert not any(QuadForm(red.a, -red.b, red.c) in table for red in table if red.b)


class TestDecomposition:
    def test_random_points(self, cfg512):
        with mpmath.workprec(cfg512.eval_bits):
            for z in random_points(7, 20, 0.8, 3.0):
                lhs = eval_P(z, cfg512)
                rhs = (eval_A(z, cfg512)
                       + eval_B(z, cfg512) * eval_C(z, cfg512))
                assert abs(lhs - rhs) < mpf(2) ** -400

    def test_cm_points(self, cfg256):
        with mpmath.workprec(cfg256.eval_bits):
            for n in range(1, 7):
                for form in enumerate_qn(n):
                    alpha = cm_point(form, cfg256)
                    lhs = eval_P(alpha, cfg256)
                    rhs = (eval_A(alpha, cfg256)
                           + eval_B(alpha, cfg256) * eval_C(alpha, cfg256))
                    assert abs(lhs - rhs) < mpf(2) ** -160

    def test_b_definition_replay(self, cfg256):
        from cmpartitions.evaluate import _at, _kernel_table
        alpha = cm_point(enumerate_qn(1)[0], cfg256)
        bits = cfg256.eval_bits
        with mpmath.workprec(bits):
            b = eval_B(alpha, cfg256)
            basics = _at(_form(alpha), _kernel_table(bits), bits)
            v = {key: _rounded(basics[key], bits + _GUARD, bits)[0] for key in ("e4", "e6")}
            eta2 = _rounded(basics["eta2"], bits + _GUARD - basics["eta2_exp"], bits)[0]
            jval = _power(v["e4"], 3) / _power(eta2, 12)
            raw = eval_form(alpha, cfg256) * v["e6"] * jval / v["e4"]
            assert abs(b - raw) < mpf(2) ** -200 * (1 + abs(b))

    def test_near_singularity_guard(self, cfg256):
        # j vanishes at the corner point omega
        with mpmath.workprec(cfg256.eval_bits):
            omega = mpc(mpf(-1) / 2, mpmath.sqrt(3) / 2)
            with pytest.raises(NearSingularity):
                eval_C(omega, cfg256)

    def test_aprime_is_a_j_j1728(self, cfg256):
        with mpmath.workprec(cfg256.eval_bits):
            z = mpc(mpf("0.2"), mpf("1.3"))
            a = eval_A(z, cfg256)
            jval = eval_j(z, cfg256)
            expected = a * jval * (jval - 1728)
            assert abs(eval_Aprime(z, cfg256) - expected) < mpf(2) ** -180 * (1 + abs(expected))


class TestPairTail:
    """F, P, A, B, C, A', j and theta j on pairs with their own power of two
    (_tail), the one tail of the verify commands and of eval."""

    KEYS = ("f", "p", "a", "b", "c", "aprime", "j", "theta_j")

    @staticmethod
    def forms():
        # verify-decomp's seed-1 points, the eval bound's points at 200i,
        # +-0.5 + 1.25i and 0.13 + 0.021i, the 12 coset images of 3 random
        # points and the Hecke images of the CM forms of n = 1
        from cmpartitions import cli, modpoly
        from cmpartitions.resolvent import coset_reps
        forms = [_form(z) for z in cli._random_points(1, 20) + TestEvalBound.points()[8:]]
        forms += [f for n in range(1, 7) for f in enumerate_qn(n)]
        forms += [_form(z).transform((d, -b, -c, a)) for z in random_points(3, 3, 0.8, 3.0)
                  for a, b, c, d in coset_reps()]
        classes = modpoly.hnf_classes(23)
        return forms + [image for f in enumerate_qn(1) if f.content() == 1
                        for image in modpoly._images(f, classes)[1].values()]

    def test_error_exponents_hold_against_256_more_bits(self):
        lo, hi = PrecisionConfig(256), PrecisionConfig(512)
        tables = {cfg: _kernel_table(cfg.eval_bits) for cfg in (lo, hi)}

        def exact(form, cfg):
            table = tables[cfg]
            pairs = {key: x.rounded(0) for key, x in _tail(form, table, cfg, self.KEYS).items()}
            for key in ("j", "c", "theta_j"):  # read from the basics at alpha alone
                assert _tail(form, table, cfg, (key,))[key].rounded(0) == pairs[key]
            return pairs

        forms = self.forms()
        assert len(forms) > 150
        with mpmath.workprec(4096):
            for form in forms:
                low, high = exact(form, lo), exact(form, hi)
                for key, (value, e) in low.items():
                    assert value and e < mpmath.mag(value) - 240, (form, key)
                    assert abs(value - high[key][0]) <= mpf(2) ** e, (form, key)

    @pytest.mark.parametrize("form", [QuadForm(6, 0, 6), QuadForm(6, 6, 6)])
    def test_refused_at_i_and_rho(self, cfg256, form):
        # j - 1728 and E6 vanish at i, j and E4 at rho
        with pytest.raises(NearSingularity):
            _values(form, _kernel_table(cfg256.eval_bits), cfg256, ("p", "a", "b", "c"))

    def test_values_round_the_pairs(self, cfg256):
        form, table = enumerate_qn(2)[0], _kernel_table(cfg256.eval_bits)
        values = _values(form, table, cfg256, self.KEYS)
        for key, x in _tail(form, table, cfg256, self.KEYS).items():
            assert values[key] == x.rounded(cfg256.eval_bits)[0]
        assert values["p"] == eval_P_cm([form], cfg256)[0][0]


@dataclass(frozen=True)
class ALCheck:
    deviation: mpf
    sign: int


def al_deviation(fn, d: int, z: mpc, cfg: PrecisionConfig) -> ALCheck:
    """Deviation of fn from being a weight -2 eigenfunction of the level-6
    Atkin-Lehner involution W_d, minimized over both signs."""
    p, q, r, s = ATKIN_LEHNER_MATRICES[d]
    with mpmath.workprec(cfg.eval_bits):
        z = mpc(z)
        wz = (p * z + q) / (r * z + s)
        fw = fn(wz)
        rz = r * z + s
        base = d / (rz * rz) * fn(z)
        scale = 1 + abs(base)
        dev_plus = abs(fw - base) / scale
        dev_minus = abs(fw + base) / scale
    if dev_plus <= dev_minus:
        return ALCheck(deviation=dev_plus, sign=1)
    return ALCheck(deviation=dev_minus, sign=-1)


def atkin_lehner_check(d: int, z: mpc, cfg: PrecisionConfig) -> ALCheck:
    if d not in ATKIN_LEHNER_MATRICES:
        raise ValueError(f"d = {d} is not an exact divisor of level 6")
    return al_deviation(lambda w: eval_form(w, cfg), d, z, cfg)


class TestAtkinLehner:
    def test_eigenform_with_consistent_signs(self, cfg256):
        # W6 = +1 is what lets compute_pn take the partner's P value as a
        # conjugate; the signs are those seen at z = 0.21 + 1.23i
        tol = mpf(2) ** (-cfg256.working_bits + cfg256.guard_bits + 8)
        for d, sign in ((2, -1), (3, -1), (6, 1)):
            signs = set()
            for z in random_points(100 + d, 10, 0.8, 2.5):
                res = atkin_lehner_check(d, z, cfg256)
                assert res.deviation < tol
                signs.add(res.sign)
            assert signs == {sign}, d

    def test_sign_well_defined_on_orbit(self, cfg256):
        rng = random.Random(59)
        z = mpc(mpf("0.21"), mpf("1.23"))
        base = atkin_lehner_check(6, z, cfg256)
        for mat in random_gamma0_matrices(rng, 5):
            with mpmath.workprec(cfg256.eval_bits):
                moved = apply_moebius(mat, z)
            res = atkin_lehner_check(6, moved, cfg256)
            assert res.sign == base.sign

    def test_non_eigenform_control(self, cfg256):
        z = mpc(mpf("0.21"), mpf("1.3"))
        res = al_deviation(
            lambda w: eval_form(w, cfg256) + eval_j(w, cfg256),
            6, z, cfg256)
        assert res.deviation > mpf("1e6")

    def test_invalid_divisor(self, cfg256):
        with pytest.raises(ValueError):
            atkin_lehner_check(4, mpc(0, 1), cfg256)


class TestEvalBound:
    """The eval command's bound (_eval_bounded) at generic points."""

    FUNCTIONS = {"F": eval_form, "P": eval_P, "A": eval_A, "B": eval_B,
                 "C": eval_C, "j": eval_j}

    @staticmethod
    def points():
        # Im z from 10^-3 (reduced by matrices with c up to ~10^3) to 5, and
        # both sides of the boundary Re z = +-1/2
        rng = random.Random(5)
        with mpmath.workprec(600):
            points = [mpc(mpf(rng.uniform(-0.7, 0.7)), mpf(10) ** rng.uniform(-3, 0.7))
                      for _ in range(8)] + [mpc(0, 200), mpc(0.5, 1.25), mpc(-0.5, 1.25)]
        # read at 4128 bits, as eval reads --z: a form of ~8000-bit coefficients
        with mpmath.workprec(4128):
            return points + [mpc(mpf("0.13"), mpf("0.021"))]

    @pytest.mark.parametrize("what", sorted(FUNCTIONS))
    def test_bound_holds_against_256_more_bits(self, what):
        lo, hi = PrecisionConfig(256), PrecisionConfig(512)
        checked = 0
        for z in self.points():
            try:
                value, bound = _eval_bounded(what, z, lo)
            except NearSingularity:
                continue
            assert value == self.FUNCTIONS[what](z, lo)
            reference, _ = _eval_bounded(what, z, hi)
            assert abs(value - reference) <= bound, (what, z)
            checked += 1
        assert checked >= 6

