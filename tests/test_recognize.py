import math
import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpc, mpf

from cmpartitions import recognize
from cmpartitions.errors import NotNearIntegral
from cmpartitions.evaluate import _BUDGET_BITS, eval_P, eval_P_cm
from cmpartitions.modpoly import j_norm
from cmpartitions.precision import PrecisionConfig, _magnitude, run_adaptive
from cmpartitions.quadforms import cm_point, conjugate_partners, enumerate_qn
from cmpartitions.recognize import (compute_pn, norm_6unit_check,
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
        values = [eval_P(cm_point(f, cfg256), cfg256)
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

    def test_integers_as_nint_and_residual_as_abs(self):
        # the rounding in integers gives mpmath.nint's integers (ties to
        # even) and the largest |c - n|, rounded 32 bits above the 72 bits
        # the coefficients carry
        rng = random.Random(3)
        with mpmath.workprec(300):
            poly = [mpc(mpf(rng.randrange(-2**40, 2**40)) / 2**rng.randrange(0, 60),
                        mpf(rng.randrange(-9, 9)) / 2**rng.randrange(0, 80))
                    for _ in range(40)]
            poly += [mpf(5) / 2, mpf(-7) / 2, mpc(mpf(2)**70 + 1, 0), mpf(0)]
            rounded, residual = round_to_integers(poly, mpf(100))
            assert rounded == [int(mpmath.nint(mpmath.re(c))) for c in poly]
            worst = max(abs(mpc(c) - n) for c, n in zip(poly, rounded))
            assert abs(residual - worst) <= mpf(2) ** -100 * worst

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

    def test_against_part_by_part_count_through_200(self):
        # counts[m] after each part: partitions of m into parts <= part;
        # shares no code with the pentagonal generator
        counts = [1] + [0] * 200
        for part in range(1, 201):
            for m in range(part, 201):
                counts[m] += counts[m - part]
        assert [pentagonal_pn(n) for n in range(201)] == counts

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

    def test_partner_values_are_conjugate(self, cfg256):
        # compute_pn evaluates one form per pair and conjugates; here both
        # partners are evaluated at their own CM points
        sample = sorted(random.Random(2011).sample(range(1, 61), 6))
        assert sample == [16, 20, 34, 35, 41, 52]
        tol = mpf(2) ** -200
        for n in (1, 24, 47, *sample):
            forms = enumerate_qn(n)
            ps = [eval_P(cm_point(f, cfg256), cfg256) for f in forms]
            with mpmath.workprec(cfg256.eval_bits):
                for i, k in enumerate(conjugate_partners(forms)):
                    assert abs(ps[k] - mpmath.conj(ps[i])) < tol, (n, forms[i])

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
                    total += eval_P(cm_point(moved, cfg256), cfg256)
                expected = mpmath.fsum(base.p_values)
                assert abs(total - expected) < cfg256.abs_tol

    def test_trace_not_divisible_raises(self, cfg256, monkeypatch):
        # P + 1/23 keeps prod(x - 23 P) integral (it shifts x by 1) but adds
        # 3 to its trace 23^2 p(1), so p(1) is not read off exactly
        def shifted(forms, cfg):
            values, errors = eval_P_cm(forms, cfg)
            with mpmath.workprec(cfg.eval_bits):
                return [p + mpf(1) / 23 for p in values], errors
        monkeypatch.setattr(recognize, "eval_P_cm", shifted)
        with pytest.raises(NotNearIntegral):
            compute_pn(1, cfg256)

    def test_json_dict_shape(self, cfg256):
        entry = compute_pn(1, cfg256).to_json_dict()
        assert entry["pn"] == "1"
        assert entry["scaled_poly"] == ["1", "-529", "82616", "-5097973"]
        assert entry["forms"][0] == [6, 1, 1]


class TestBound:
    def test_bound_holds_against_256_more_bits(self, cfg256, monkeypatch):
        # n = 1..30 and 60: the accepted rung's orbit coefficients and P
        # values lie within the rung's bound of the same values computed
        # 256 bits higher
        runs = []

        def spy(task, cfg, magnitude=None):
            result = run_adaptive(task, cfg, magnitude)
            runs.append((task, result))
            return result

        monkeypatch.setattr(recognize, "run_adaptive", spy)
        for n in [*range(1, 31), 60]:
            compute_pn(n, cfg256)
            task, ((ps, poly), bound, bits) = runs[-1]
            (ps_hi, poly_hi), _ = task(bits + 256)
            assert bound <= cfg256.abs_tol
            for lo, hi in zip([*ps, *poly], [*ps_hi, *poly_hi]):
                assert abs(lo - hi) <= bound, n

    @pytest.fixture
    def ladders(self, monkeypatch):
        # (magnitude, working bits of each rung, result) of each ladder
        runs = []

        def spy(task, cfg, magnitude=None):
            rungs = []

            def counted(bits):
                rungs.append(bits)
                return task(bits)

            result = run_adaptive(counted, cfg, magnitude)
            runs.append((magnitude, rungs, result))
            return result

        monkeypatch.setattr(recognize, "run_adaptive", spy)
        return runs

    def test_one_rung_at_the_predicted_magnitude(self, cfg256, ladders):
        # n = 1..60, 100, 200 and 300: the magnitude predicted from the
        # forms is at least the magnitude M of the accepted value and at most
        # w/2 above it, and the rung at the prediction plus the 6^-h
        # shortfall (80 bits at n = 300, none below) plus t = 128 bits, the
        # tolerance's, is the only one
        w, t = cfg256.working_bits, cfg256.tol_bits
        assert t == 128
        for n in [*range(1, 61), 100, 200, 300]:
            h = len(compute_pn(n, cfg256).forms)
            magnitude, rungs, (value, _, bits) = ladders[-1]
            shortfall = max((6**h - 1).bit_length() + 2 - t - cfg256.guard_bits - h // 2, 0)
            assert shortfall == (80 if n == 300 else 0), n
            assert _magnitude(value) <= magnitude - shortfall <= _magnitude(value) + w // 2, n
            assert rungs == [bits] == [magnitude + t], n

    @pytest.mark.parametrize("n, k, rungs", [(3, 1000, [1079]), (30, 600, [1116])])
    def test_one_rung_at_a_tight_tolerance(self, cfg256, ladders, n, k, rungs):
        # the step is the k bits of the tolerance 2^-k, so the first rung
        # meets it, and the record is the default tolerance's but for them
        default = compute_pn(n, cfg256)
        record = compute_pn(n, PrecisionConfig(256, 4096, mpf(2) ** -k))
        assert ladders[-1][1] == rungs and record.achieved_bits == rungs[-1]
        assert record.pn == default.pn and record.scaled_poly == default.scaled_poly

    def test_bound_proves_every_coefficient_integral(self, cfg256, monkeypatch):
        # 6 (24n - 1) P is an algebraic integer (Bruinier-Ono), so the
        # coefficient of x^(h-k) lies in 6^-k Z and rounding proves it
        # integral only when 2 bound < 6^-k, for k up to h; n = 1000 failed
        # with 2^-445 against 6^-242 before the rung was sized for it
        bounds = []

        def spy(task, cfg, magnitude=None):
            result = run_adaptive(task, cfg, magnitude)
            bounds.append(result[1])
            return result

        monkeypatch.setattr(recognize, "run_adaptive", spy)
        for n in [*range(1, 61), 300, 1000]:
            h = len(compute_pn(n, cfg256).forms)
            assert fraction(2 * bounds[-1]) < Fraction(1, 6**h), n

    def test_prediction_too_high_is_capped_at_the_kernels_budget(self, cfg256, monkeypatch):
        # the one rung runs at the last precision the kernels accept, and
        # p(1) is found, not refused
        monkeypatch.setattr(recognize, "_predicted_magnitude", lambda *args: 10**6)
        record = compute_pn(1, cfg256)
        assert record.pn == 1
        assert record.achieved_bits + cfg256.guard_bits == _BUDGET_BITS - 1

    def test_unbounded_values_give_no_bound(self):
        _, bound = orbit_product([mpc(1), mpc(2)], 1, [-100, math.inf])
        assert bound == mpmath.inf


def fraction(x) -> Fraction:
    """An mpf as the exact rational it is (mpf(x) would round it)."""
    sign, man, exp, _ = x._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** exp


def exact_poly(roots):
    """Coefficients, leading first, of prod(x - r) over roots given as (re,
    im) pairs of Fractions, in exact arithmetic."""
    coeffs = [(Fraction(1), Fraction(0))]
    for a, b in roots:
        out = coeffs + [(Fraction(0), Fraction(0))]
        for k, (c, d) in enumerate(coeffs, 1):
            out[k] = (out[k][0] - (c * a - d * b), out[k][1] - (c * b + d * a))
        coeffs = out
    return coeffs


def seeded_roots(rng):
    """Up to 20 values and error exponents, of three kinds: real values,
    exact conjugate pairs and unpaired complex values, of magnitudes 2^-40
    (below the fixed point's exact range) and 2^-8 to 2^10, with errors from
    2^-80 to 2^-40 relative, of one unit of the fixed point (2^-85 for
    53-bit values) or far below it."""
    values, errors, kinds = [], [], []
    while len(values) < rng.randint(1, 20):
        kind = rng.choice(["real", "pair", "complex"])
        size = 2.0 ** rng.choice([rng.randint(-8, 8), -40])
        v = mpc(rng.uniform(-4, 4) * size, 0 if kind == "real" else rng.uniform(-4, 4) * size)
        e = rng.choice([rng.randint(-80, -40) + mpmath.mag(v), -85, -400])
        values.append(v)
        errors.append(e)
        kinds.append(kind)
        if kind == "pair":
            values.append(mpmath.conj(v))
            errors.append(e)
            kinds.append("partner")
    return values, errors, kinds


class TestOrbitBound:
    """orbit_product's bound against exact arithmetic: each root moved within
    its stated error in a random direction, a conjugate pair's partner by the
    conjugate move, and the exact polynomial of the moved roots expanded in
    Fractions."""

    @pytest.mark.parametrize("scale", [1, 47])
    def test_every_coefficient_moves_by_at_most_the_bound(self, scale):
        for seed in range(12):
            rng = random.Random(seed)
            values, errors, kinds = seeded_roots(rng)
            coeffs, bound = orbit_product(values, scale, errors)
            moved = []
            for v, e, kind in zip(values, errors, kinds):
                if kind == "partner":
                    re, im = moved[-1]
                    moved.append((re, -im))
                    continue
                # a random direction on the unit circle, exactly rational
                t = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
                sign = rng.choice([1, -1])
                radius = Fraction(2) ** e * (1 - Fraction(1, 2**20)) * sign
                moved.append((fraction(v.real) + radius * (1 - t * t) / (1 + t * t),
                              fraction(v.imag) + radius * 2 * t / (1 + t * t)))
            exact = exact_poly([(scale * re, scale * im) for re, im in moved])
            limit = fraction(bound) ** 2
            for c, (re, im) in zip(coeffs, exact):
                assert (fraction(c.real) - re) ** 2 + (fraction(c.imag) - im) ** 2 <= limit, seed

    def test_errors_above_the_values_give_no_bound(self):
        _, bound = orbit_product([mpc(1), mpc(2)], 1, [4, -100])
        assert bound == mpmath.inf


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
        norm, coprime = norm_6unit_check(mpc(2), "toy", mpf("1e-10"))
        assert (norm, coprime) == (2, False)

    def test_j_norm_n1_class_polynomial_constant(self, cfg256):
        # the product of the three j-values equals minus the constant term
        # of the degree-3 class polynomial built by this package
        from cmpartitions.evaluate import eval_j
        values = [eval_j(cm_point(f, cfg256), cfg256)
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
            norm_6unit_check(mpc(mpf("2.5")), "toy", mpf("1e-10"))
