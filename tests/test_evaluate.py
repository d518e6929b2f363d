import random

import mpmath
import pytest
from mpmath import mpc, mpf

from cmpartitions.errors import NearSingularity, NotUpperHalfPlane
from cmpartitions.evaluate import (_j_reduced, _nterms, _reduced_basics,
                                   al_deviation, atkin_lehner_check, eval_A,
                                   eval_Aprime, eval_B, eval_C,
                                   eval_eisenstein, eval_eta, eval_form,
                                   eval_j, eval_P, eval_theta_form,
                                   eval_theta_j, partition_form,
                                   reduce_to_fundamental)
from cmpartitions.precision import PrecisionConfig
from cmpartitions.quadforms import cm_point, enumerate_qn
from cmpartitions.series import eisenstein_series, fp_series

DESC = partition_form()


def random_points(seed, count, im_low=0.1, im_high=3.0):
    rng = random.Random(seed)
    with mpmath.workprec(128):
        return [mpc(mpf(rng.uniform(-0.5, 0.5)), mpf(rng.uniform(im_low, im_high)))
                for _ in range(count)]


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


class TestReduction:
    def test_fixed_point(self, cfg256):
        z_red, word = reduce_to_fundamental(mpc(0, 1), cfg256)
        assert word.matrix == (1, 0, 0, 1)
        assert z_red == mpc(0, 1)

    def test_translation(self, cfg256):
        z_red, word = reduce_to_fundamental(mpc(5, 1), cfg256)
        assert word.matrix == (1, -5, 0, 1)
        assert abs(z_red - mpc(0, 1)) < mpf(2) ** -250

    def test_deep_point(self, cfg256):
        with mpmath.workprec(cfg256.eval_bits):
            z = mpc(mpf("0.1"), mpf("0.01"))
            z_red, word = reduce_to_fundamental(z, cfg256)
            assert mpmath.im(z_red) >= mpmath.sqrt(3) / 2 - mpf(2) ** -20
            a, b, c, d = word.matrix
            assert a * d - b * c == 1
            assert abs(apply_moebius(word.matrix, z) - z_red) < mpf(2) ** -240

    def test_rejects_lower_half(self, cfg256):
        with pytest.raises(NotUpperHalfPlane):
            reduce_to_fundamental(mpc(0, -1), cfg256)


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


class TestFixedPointKernels:
    """The integer kernels against oracles that share no code with them, to
    2^-(bits-8) relative; E2, E4 and E6 to 2^-(bits-8) absolute where they
    are below 1, since E6(i) = 0."""

    @pytest.mark.parametrize("bits", [544, 3600])
    def test_j_against_kleinj(self, bits):
        for x, y in KERNEL_POINTS:
            with mpmath.workprec(bits):
                w = mpc(mpf(x), mpf(y))
                value = _j_reduced(w, bits)
            with mpmath.workprec(bits + 64):
                ref = 1728 * mpmath.kleinj(w)
                assert abs(value - ref) < mpf(2) ** (8 - bits) * abs(ref), (x, y)

    @pytest.mark.parametrize("bits", [256, 1024, 4096])
    def test_basics_against_divisor_sums(self, bits):
        for x, y in KERNEL_POINTS:
            with mpmath.workprec(bits):
                w = mpc(mpf(x), mpf(y))
                value = _reduced_basics(w, bits)
            n = _nterms(bits + 64, mpmath.im(w))
            with mpmath.workprec(bits + 64):
                q = mpmath.exp(2j * mpmath.pi * w)
                for k in (2, 4, 6):
                    ref = mpmath.polyval(eisenstein_series(k, n).coeffs[::-1], q)
                    err = abs(value[f"e{k}"] - ref)
                    assert err < mpf(2) ** (8 - bits) * max(1, abs(ref)), (k, x, y)


class TestFormAndP:
    def test_series_point_crossvalidation(self, cfg256):
        series = fp_series(12)
        with mpmath.workprec(cfg256.eval_bits):
            z = mpc(mpf(1) / 7, 10)
            q = mpmath.exp(2j * mpmath.pi * z)
            truncated = sum(mpc(series.coeff(m)) * q ** m for m in range(-1, 12))
            value = eval_form(DESC, z, cfg256)
            # |F| ~ |q|^-1 ~ 1e27 here, so the bound is relative
            assert abs(value - truncated) / (1 + abs(value)) < mpf(2) ** -200

    def test_weight_minus_two_modularity(self, cfg256):
        rng = random.Random(37)
        bound = mpf(2) ** (-cfg256.working_bits + cfg256.guard_bits + 8)
        with mpmath.workprec(cfg256.eval_bits):
            mats = random_gamma0_matrices(rng, 10)
            for z, mat in zip(random_points(41, 10, 0.5, 2.0), mats):
                a, b, c, d = mat
                lhs = eval_form(DESC, apply_moebius(mat, z), cfg256)
                rhs = (c * z + d) ** -2 * eval_form(DESC, z, cfg256)
                assert abs(lhs - rhs) < bound * (1 + abs(rhs))

    def test_periodicity(self, cfg256):
        with mpmath.workprec(cfg256.eval_bits):
            z = mpc(mpf("0.2"), mpf("1.1"))
            diff = eval_form(DESC, z + 1, cfg256) - eval_form(DESC, z, cfg256)
            assert abs(diff) < mpf(2) ** -220

    def test_theta_form_finite_difference(self, cfg512):
        with mpmath.workprec(cfg512.eval_bits):
            z = mpc(mpf("0.17"), mpf("1.4"))
            h = mpf(10) ** -30
            fd = ((eval_form(DESC, z + h, cfg512) - eval_form(DESC, z - h, cfg512))
                  / (2 * h * 2j * mpmath.pi))
            analytic = eval_theta_form(DESC, z, cfg512)
            assert abs(fd - analytic) / (1 + abs(analytic)) < mpf(10) ** -25

    def test_p_weight_zero_invariance(self, cfg256):
        rng = random.Random(43)
        bound = mpf(2) ** (-cfg256.working_bits + cfg256.guard_bits + 8)
        with mpmath.workprec(cfg256.eval_bits):
            points = random_points(47, 10, 0.5, 2.0)
            mats = random_gamma0_matrices(rng, 10)
            for z in points:
                base = eval_P(DESC, z, cfg256)
                for mat in mats:
                    moved = eval_P(DESC, apply_moebius(mat, z), cfg256)
                    assert abs(moved - base) < bound * (1 + abs(base))

    def test_partition_trace_n1(self, cfg256):
        with mpmath.workprec(cfg256.eval_bits):
            total = mpc(0)
            for form in enumerate_qn(1):
                total += eval_P(DESC, cm_point(form, cfg256).embed, cfg256)
            assert abs(total - 23) < mpf(2) ** -200

    def test_precision_ladder_stability(self):
        # doubling the working precision moves the value by less than the
        # coarser run's own tolerance
        lo, hi = PrecisionConfig(256), PrecisionConfig(512)
        alpha_lo = cm_point(enumerate_qn(1)[0], lo).embed
        alpha_hi = cm_point(enumerate_qn(1)[0], hi).embed
        with mpmath.workprec(hi.eval_bits):
            v_lo = eval_P(DESC, alpha_lo, lo)
            v_hi = eval_P(DESC, alpha_hi, hi)
            assert abs(v_lo - v_hi) < mpf(2) ** (-lo.working_bits + lo.guard_bits + 8)


class TestDecomposition:
    def test_random_points(self, cfg512):
        with mpmath.workprec(cfg512.eval_bits):
            for z in random_points(7, 20, 0.8, 3.0):
                lhs = eval_P(DESC, z, cfg512)
                rhs = (eval_A(DESC, z, cfg512)
                       + eval_B(DESC, z, cfg512) * eval_C(z, cfg512))
                assert abs(lhs - rhs) < mpf(2) ** -400

    def test_cm_points(self, cfg256):
        with mpmath.workprec(cfg256.eval_bits):
            for n in range(1, 7):
                for form in enumerate_qn(n):
                    alpha = cm_point(form, cfg256).embed
                    lhs = eval_P(DESC, alpha, cfg256)
                    rhs = (eval_A(DESC, alpha, cfg256)
                           + eval_B(DESC, alpha, cfg256) * eval_C(alpha, cfg256))
                    assert abs(lhs - rhs) < mpf(2) ** -160

    def test_b_definition_replay(self, cfg256):
        from cmpartitions.evaluate import _basics, _ipow
        alpha = cm_point(enumerate_qn(1)[0], cfg256).embed
        with mpmath.workprec(cfg256.eval_bits):
            b = eval_B(DESC, alpha, cfg256)
            v = _basics(alpha, cfg256.eval_bits)
            jval = _ipow(v["e4"], 3) / _ipow(v["eta"], 24)
            raw = eval_form(DESC, alpha, cfg256) * v["e6"] * jval / v["e4"]
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
            a = eval_A(DESC, z, cfg256)
            jval = eval_j(z, cfg256)
            expected = a * jval * (jval - 1728)
            assert abs(eval_Aprime(DESC, z, cfg256) - expected) < mpf(2) ** -180 * (1 + abs(expected))


class TestAtkinLehner:
    def test_eigenform_with_consistent_signs(self, cfg256):
        tol = mpf(2) ** (-cfg256.working_bits + cfg256.guard_bits + 8)
        for d in (2, 3, 6):
            signs = set()
            for z in random_points(100 + d, 10, 0.8, 2.5):
                res = atkin_lehner_check(DESC, d, z, cfg256)
                assert res.deviation < tol
                signs.add(res.sign)
            assert len(signs) == 1

    def test_sign_well_defined_on_orbit(self, cfg256):
        rng = random.Random(59)
        z = mpc(mpf("0.21"), mpf("1.23"))
        base = atkin_lehner_check(DESC, 6, z, cfg256)
        for mat in random_gamma0_matrices(rng, 5):
            with mpmath.workprec(cfg256.eval_bits):
                moved = apply_moebius(mat, z)
            res = atkin_lehner_check(DESC, 6, moved, cfg256)
            assert res.sign == base.sign

    def test_non_eigenform_control(self, cfg256):
        z = mpc(mpf("0.21"), mpf("1.3"))
        res = al_deviation(
            lambda w: eval_form(DESC, w, cfg256) + eval_j(w, cfg256),
            6, z, cfg256)
        assert res.deviation > mpf("1e6")

    def test_invalid_divisor(self, cfg256):
        with pytest.raises(ValueError):
            atkin_lehner_check(DESC, 4, mpc(0, 1), cfg256)
