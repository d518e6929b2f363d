import random
from fractions import Fraction

import pytest

from cmpartitions.errors import FractionalPower, ZeroLeadingCoefficient
from cmpartitions.series import (FP_E2_COMBINATION, FP_ETA_FACTORS,
                                 FP_PREFACTOR, FormalSeries, _companion,
                                 delta_series, eisenstein_series,
                                 eta_quotient_series, euler_product_series,
                                 fp_series, hypothesis_check, j_series)


def sigma(n, k):
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


def newton_inverse_oracle(series, order):
    """Series inverse by Newton iteration x -> x(2 - a x), doubling the
    number of correct terms; independent of the direct recurrence."""
    assert series.start == 0
    x = FormalSeries(0, [Fraction(1) / Fraction(series.coeff(0))], 1)
    length = 1
    while length < order:
        length = min(2 * length, order)
        a = series.truncate(length)
        x = FormalSeries(0, x.coeffs, length)
        x = x * (FormalSeries(0, [2], length) - a * x).truncate(length)
        x = x.truncate(length)
    return x


def recurrence_inverse_oracle(series):
    """The dense inverse b_k = -(sum_{i=1..k} a_i b_{k-i}) / a_0 over every
    term, as FormalSeries.inverse computed it before the sparse division."""
    lead = Fraction(series.coeffs[0])
    n = series.order - series.start  # number of valid unit-part terms
    a = series.coeffs
    b = [1 / lead] + [0] * (n - 1)
    for k in range(1, n):
        acc = sum(a[i] * b[k - i] for i in range(1, min(k, len(a) - 1) + 1))
        b[k] = -acc / lead
    return FormalSeries(-series.start, b, n - series.start)


def random_series(rng, zero_share):
    """A series with a random start in -3..3, 1..12 valid terms and
    coefficients of which about zero_share vanish, some of them Fractions;
    its leading coefficient is nonzero."""
    start = rng.randint(-3, 3)
    length = rng.randint(1, 12)

    def coeff():
        if rng.random() < zero_share:
            return 0
        if rng.random() < 0.25:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        return rng.randint(-9, 9)

    lead = rng.choice([1, -1, 2, -3, Fraction(2, 3), Fraction(-5, 4)])
    return FormalSeries(start, [lead] + [coeff() for _ in range(length - 1)],
                        start + length)


def product_delta_oracle(order):
    """Delta as q * (sequential product of (1 - q^n))^24, never using the
    pentagonal theorem."""
    unit = FormalSeries(0, [1], order)
    for n in range(1, order):
        unit = unit * FormalSeries(0, [1] + [0] * (n - 1) + [-1], order)
    unit = unit ** 24
    return FormalSeries(1, unit.coeffs, order + 1)


class TestArithmetic:
    def test_mul_basic(self):
        one_plus = FormalSeries(0, [1, 1], 8)
        one_minus = FormalSeries(0, [1, -1], 8)
        prod = one_plus * one_minus
        assert [prod.coeff(k) for k in range(3)] == [1, 0, -1]

    def test_mul_laurent_cancel(self):
        qinv = FormalSeries(-1, [1], 4)
        q = FormalSeries(1, [1], 4)
        prod = qinv * q
        assert prod.start == 0 and prod.coeff(0) == 1

    def test_e4_square_coefficient(self):
        e4 = eisenstein_series(4, 6)
        assert (e4 * e4).coeff(1) == 2 * 240 * sigma(1, 3)

    def test_validity_tracking(self):
        # b's unknown O(q^3) tail multiplies a's constant term, so the
        # product is only valid below min(3+2, 3+0) = 3
        a = FormalSeries(0, [1, 2, 3], 3)
        b = FormalSeries(2, [5], 3)
        prod = a * b
        assert prod.order == 3
        assert prod.coeff(2) == 5

    def test_inverse_geometric(self):
        inv = FormalSeries(0, [1, -1], 10).inverse()
        assert all(inv.coeff(k) == 1 for k in range(10))

    def test_inverse_of_monomial(self):
        inv = FormalSeries(-1, [1], 4).inverse()
        assert inv.start == 1 and inv.coeff(1) == 1

    def test_inverse_e4_against_newton_oracle(self):
        e4 = eisenstein_series(4, 40)
        direct = e4.inverse()
        oracle = newton_inverse_oracle(e4, 40)
        assert direct.coeff(1) == -240
        assert all(direct.coeff(k) == oracle.coeff(k) for k in range(40))

    def test_inverse_zero_rejected(self):
        with pytest.raises(ZeroLeadingCoefficient):
            FormalSeries.zero(5).inverse()

    def test_division_against_inverse_times_product(self):
        rng = random.Random(23)
        for case in range(200):
            # every fourth divisor is sparse, every fifth numerator zero
            num = random_series(rng, 0.3)
            if case % 5 == 0:
                num = FormalSeries.zero(rng.randint(-2, 12))
            den = random_series(rng, 0.85 if case % 4 == 0 else 0.2)
            assert num / den == num * recurrence_inverse_oracle(den), case

    def test_inverse_against_recurrence_oracle(self):
        rng = random.Random(24)
        for _ in range(50):
            series = random_series(rng, 0.3)
            assert series.inverse() == recurrence_inverse_oracle(series)
            assert 1 / series == series.inverse()

    def test_division_by_zero_rejected(self):
        with pytest.raises(ZeroLeadingCoefficient):
            FormalSeries(0, [1, 2], 5) / FormalSeries.zero(5)

    def test_inverse_mul_roundtrip_random(self):
        rng = random.Random(9)
        for _ in range(100):
            coeffs = [1] + [rng.randint(-9, 9) for _ in range(11)]
            s = FormalSeries(0, coeffs, 12)
            prod = s * s.inverse()
            assert prod.coeff(0) == 1
            assert all(prod.coeff(k) == 0 for k in range(1, 12))

    def test_theta(self):
        qinv = FormalSeries(-1, [1], 3)
        assert qinv.theta().coeff(-1) == -1
        assert FormalSeries(0, [7], 3).theta().is_zero()

    def test_theta_j_leading(self):
        tj = j_series(4).theta()
        assert tj.coeff(-1) == -1
        assert tj.coeff(0) == 0
        assert tj.coeff(1) == 196884

    def test_json_dict(self):
        s = FormalSeries(-1, [1, Fraction(1, 3), -2], 4)
        # coefficients are padded with zeros up to q^(order - 1)
        assert s.to_json_dict() == {"start_exp": -1, "order": 4,
                                    "coeffs": ["1", "1/3", "-2", "0", "0"]}


class TestEisenstein:
    def test_e2_first(self):
        assert eisenstein_series(2, 3).coeff(1) == -24

    def test_e4_second(self):
        assert eisenstein_series(4, 3).coeff(2) == 240 * sigma(2, 3)

    def test_e6_second(self):
        assert eisenstein_series(6, 3).coeff(2) == -504 * sigma(2, 5)

    def test_bad_weight(self):
        with pytest.raises(ValueError):
            eisenstein_series(8, 4)


class TestEtaQuotients:
    def test_delta_pentagonal_vs_product_oracle(self):
        order = 60
        delta = delta_series(order)
        oracle = product_delta_oracle(order - 1)
        assert delta.coeff(1) == 1 and delta.coeff(2) == -24
        assert delta.coeff(3) == 252 and delta.coeff(4) == -1472
        assert all(delta.coeff(k) == oracle.coeff(k) for k in range(1, order - 1))

    def test_fp_denominator_starts_at_one(self):
        den = eta_quotient_series(((1, 2), (2, 2), (3, 2), (6, 2)), 6)
        assert den.start == 1

    def test_fractional_power_rejected(self):
        with pytest.raises(FractionalPower):
            eta_quotient_series(((1, 1),), 6)

    def test_euler_product_signs(self):
        p = euler_product_series(13)
        assert [p.coeff(k) for k in range(13)] == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]


class TestNamedSeries:
    def test_fp_leading_coefficients(self):
        f = fp_series(6)
        assert f.start == -1
        assert f.coeff(-1) == 1
        assert f.coeff(0) == -10
        assert f.coeff(1) == -29

    def test_fp_equals_numerator_times_dense_inverse(self):
        order, margin = 120, 124
        e2 = eisenstein_series(2, margin)
        num = FormalSeries.zero(margin)
        for d, c in FP_E2_COMBINATION:
            num = num + e2.rescale_exponents(d).truncate(margin) * c
        den = eta_quotient_series(FP_ETA_FACTORS, margin)
        assert fp_series(order) == (num * FP_PREFACTOR * den.inverse()).truncate(order)

    def test_j_leading_coefficients(self):
        j = j_series(4)
        assert j.coeff(-1) == 1
        assert j.coeff(0) == 744
        assert j.coeff(1) == 196884

    def test_eta24_equals_delta(self):
        order = 100
        lhs = eta_quotient_series(((1, 24),), order)
        e4 = eisenstein_series(4, order)
        e6 = eisenstein_series(6, order)
        rhs = (e4 ** 3 - e6 ** 2) * Fraction(1, 1728)
        assert all(lhs.coeff(k) == rhs.coeff(k) for k in range(1, order - 2))


class TestRamanujanIdentities:
    ORDER = 100

    def test_theta_e4(self):
        e2 = eisenstein_series(2, self.ORDER)
        e4 = eisenstein_series(4, self.ORDER)
        e6 = eisenstein_series(6, self.ORDER)
        lhs = e4.theta()
        rhs = (e2 * e4 - e6) * Fraction(1, 3)
        assert all(lhs.coeff(k) == rhs.coeff(k) for k in range(self.ORDER))

    def test_theta_delta(self):
        e2 = eisenstein_series(2, self.ORDER)
        delta = delta_series(self.ORDER)
        lhs = delta.theta()
        rhs = e2 * delta
        assert all(lhs.coeff(k) == rhs.coeff(k) for k in range(1, self.ORDER))

    def test_theta_j(self):
        order = self.ORDER
        e4 = eisenstein_series(4, order + 4)
        e6 = eisenstein_series(6, order + 4)
        lhs = j_series(order).theta()
        rhs = -(e4 ** 2) * e6 * delta_series(order + 4).inverse()
        assert all(lhs.coeff(k) == rhs.coeff(k) for k in range(-1, order - 6))


class TestHypothesisCheck:
    def test_companion_equals_the_inverse_formula_through_200(self):
        f = fp_series(202)
        margin = 200 - f.start + 4
        e2, e4, e6 = (eisenstein_series(k, margin) for k in (2, 4, 6))
        multiplier = (e2 * e4 - e6) * recurrence_inverse_oracle(e4) * Fraction(1, 6)
        old = f.theta() + f * multiplier
        new = _companion(f, 200)
        assert new.order == old.order >= 200
        assert all(new.coeff(k) == old.coeff(k) for k in range(-1, 200))

    @pytest.mark.parametrize("k", [-1, 0, 1, 37, 150])
    def test_half_shift_fails_at_its_exponent(self, k):
        f = fp_series(202)
        coeffs = list(f.coeffs)
        coeffs[k - f.start] += Fraction(1, 2)
        report = hypothesis_check(FormalSeries(f.start, coeffs, f.order), 200)
        assert not report.f_integral
        assert report.first_failure == k

    def test_fp_through_200(self):
        report = hypothesis_check(fp_series(205), 200)
        assert report.f_integral and report.companion_integral
        assert report.first_failure is None

    def test_zero_series(self):
        report = hypothesis_check(FormalSeries.zero(50), 40)
        assert report.f_integral and report.companion_integral

    def test_constructed_counterexample(self):
        bad = FormalSeries(-1, [Fraction(1, 2)], 10)
        report = hypothesis_check(bad, 10)
        assert not report.f_integral
        assert report.first_failure == -1

    def test_fp_integral_through_500(self):
        assert fp_series(500).first_nonintegral(500) is None
