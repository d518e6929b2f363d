import random

import mpmath
import pytest
from mpmath import mpc, mpf

from cmpartitions.errors import NotNearIntegral
from cmpartitions.evaluate import eval_P, partition_form
from cmpartitions.quadforms import cm_point, enumerate_qn
from cmpartitions.recognize import (compute_pn, j_norm, norm_6unit_check,
                                    orbit_product, pentagonal_pn,
                                    round_to_integers, sharpness_divisor)


def partitions_by_listing(n):
    """Count partitions by direct recursive enumeration (small n only)."""
    def count(remaining, largest):
        if remaining == 0:
            return 1
        return sum(count(remaining - k, k)
                   for k in range(1, min(remaining, largest) + 1))
    return count(n, n)


class TestOrbitProduct:
    def test_single_value(self):
        poly = orbit_product([mpc(1)], 1)
        assert [int(mpmath.re(c)) for c in poly] == [1, -1]

    def test_conjugate_pair(self):
        poly = orbit_product([mpc(0, 1), mpc(0, -1)], 1)
        rounded, residual = round_to_integers(poly, mpf("1e-10"))
        assert rounded == [1, 0, 1]
        assert residual < mpf("1e-15")

    def test_n1_scaled_polynomial(self, cfg256):
        desc = partition_form()
        values = [eval_P(desc, cm_point(f, cfg256).embed, cfg256)
                  for f in enumerate_qn(1)]
        poly = orbit_product(values, 23)
        rounded, residual = round_to_integers(poly, mpf("1e-40"))
        assert rounded == [1, -529, 82616, -5097973]
        assert residual < mpf("1e-40")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            orbit_product([], 1)


class TestRounding:
    def test_close_polynomial(self):
        poly = [mpc(1), mpc(mpf("-1.0000000001")), mpc(2)]
        rounded, residual = round_to_integers(poly, mpf("1e-6"))
        assert rounded == [1, -1, 2]
        assert mpf("0.9e-10") < residual < mpf("1.1e-10")

    def test_half_rejected(self):
        with pytest.raises(NotNearIntegral):
            round_to_integers([mpc(1), mpf("-0.5")], mpf("1e-6"))

    def test_imaginary_counts(self):
        with pytest.raises(NotNearIntegral):
            round_to_integers([mpc(1, mpf("1e-3"))], mpf("1e-6"))


class TestPentagonal:
    def test_p0(self):
        assert pentagonal_pn(0) == 1

    def test_p4_against_listing(self):
        assert pentagonal_pn(4) == 5 == partitions_by_listing(4)

    def test_small_values_against_listing(self):
        for n in range(1, 9):
            assert pentagonal_pn(n) == partitions_by_listing(n)

    def test_p100(self):
        assert pentagonal_pn(100) == 190569292

    def test_negative(self):
        assert pentagonal_pn(-3) == 0


class TestComputePn:
    def test_oracle_match_through_12(self, cfg256):
        # 24, 47 and 49 are the first n with 24n - 1 not squarefree, where
        # imprimitive forms join the trace
        for n in [*range(1, 13), 24, 47, 49]:
            record = compute_pn(n, cfg256)
            assert record.pn == pentagonal_pn(n)
            assert record.residual < mpf("1e-15")
            assert record.d == 1 - 24 * n
            assert len(record.scaled_poly) == len(record.forms) + 1

    def test_property_seeded_sample_31_to_60(self, cfg256):
        # six n in 31..60 drawn with a fixed seed, so every run checks the
        # same ones: 38, 40, 47, 48, 51 and 56
        sample = sorted(random.Random(2011).sample(range(31, 61), 6))
        assert sample == [38, 40, 47, 48, 51, 56]
        for n in sample:
            assert compute_pn(n, cfg256).pn == pentagonal_pn(n), n

    def test_rejects_zero(self, cfg256):
        with pytest.raises(ValueError):
            compute_pn(0, cfg256)

    def test_trace_imaginary_part_vanishes(self, cfg256):
        # individual values form conjugate pairs with large imaginary parts;
        # only the trace is (numerically) real
        record = compute_pn(2, cfg256)
        with mpmath.workprec(cfg256.eval_bits):
            total = mpmath.fsum(record.p_values)
            assert abs(mpmath.im(total)) < cfg256.abs_tol
            assert any(abs(mpmath.im(v)) > 1 for v in record.p_values)

    def test_scaled_poly_integral_through_6(self, cfg256):
        for n in range(1, 7):
            record = compute_pn(n, cfg256)
            assert record.residual < cfg256.abs_tol

    def test_weaker_scaling_by_6(self, cfg256):
        # prod(x - 6(24n-1) P) is integral too, with coefficients equal to
        # the scaled ones times powers of 6
        for n in (1, 2, 6):
            record = compute_pn(n, cfg256)
            poly6 = orbit_product(record.p_values, 6 * (24 * n - 1))
            rounded, _ = round_to_integers(poly6, cfg256.abs_tol)
            assert rounded == [c * 6 ** k
                               for k, c in enumerate(record.scaled_poly)]

    def test_sharpness_at_full_scale(self, cfg256):
        for n in (1, 2, 3):
            record = compute_pn(n, cfg256)
            assert record.sharpness_divisor == 24 * n - 1

    def test_representative_independence(self, cfg256):
        # a different representative choice moves the trace by less than tol
        rng = random.Random(71)
        desc = partition_form()
        for n in (1, 2):
            base = compute_pn(n, cfg256)
            with mpmath.workprec(cfg256.eval_bits):
                total = mpc(0)
                for form in base.forms:
                    mat = (1, 0, 0, 1)
                    for _ in range(rng.randint(1, 4)):
                        if rng.random() < 0.5:
                            other = (1, rng.randint(-2, 2), 0, 1)
                        else:
                            other = (1, 0, 6 * rng.randint(-1, 1), 1)
                        a, b, c, d = mat
                        e, f, g, h = other
                        mat = (a * e + b * g, a * f + b * h,
                               c * e + d * g, c * f + d * h)
                    moved = form.transform(mat)
                    total += eval_P(desc, cm_point(moved, cfg256).embed, cfg256)
                expected = mpmath.fsum(base.p_values)
                assert abs(total - expected) < cfg256.abs_tol

    def test_json_dict_shape(self, cfg256):
        entry = compute_pn(1, cfg256).to_json_dict()
        assert entry["pn"] == "1"
        assert entry["scaled_poly"] == ["1", "-529", "82616", "-5097973"]
        assert entry["forms"][0] == [6, 1, 1]


class TestSharpness:
    def test_constructed_divisors(self):
        with mpmath.workprec(300):
            # 24*1 - 1 = 23: the full scaling works for 1/23
            assert sharpness_divisor([mpc(1) / 23], 1, mpf("1e-20")) == 23
            # no divisor of 23 clears a half-integer
            assert sharpness_divisor([mpc(mpf(1) / 2)], 1, mpf("1e-20")) == 0
            # integers succeed already at the full scale
            assert sharpness_divisor([mpc(4)], 1, mpf("1e-20")) == 23


class TestNorms:
    def test_two_is_not_coprime(self):
        norm, coprime = norm_6unit_check([mpc(2)], "toy", mpf("1e-10"))
        assert (norm, coprime) == (2, False)

    def test_j_norm_n1_class_polynomial_constant(self, cfg256):
        # the product of the three j-values equals minus the constant term
        # of the degree-3 class polynomial built by this package
        from cmpartitions.evaluate import eval_j
        values = [eval_j(cm_point(f, cfg256).embed, cfg256)
                  for f in enumerate_qn(1)]
        poly = orbit_product(values, 1)
        rounded, _ = round_to_integers(poly, mpf("1e-20"))
        assert rounded[-1] == 12771880859375  # (-1)^3 * product of roots
        norm, coprime, _ = j_norm(1, cfg256)
        assert norm == -12771880859375
        assert coprime

    def test_j_norms_through_6(self, cfg256):
        for n in range(2, 7):
            norm, coprime, _ = j_norm(n, cfg256)
            assert coprime, f"j-norm at n={n} not coprime to 6"

    def test_norm_not_near_integer(self):
        with pytest.raises(NotNearIntegral):
            norm_6unit_check([mpc(mpf("2.5"))], "toy", mpf("1e-10"))
