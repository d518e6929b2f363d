"""Acceptance suite: one test per exit criterion, each at its stated
tolerance, printing a PASS line with the measured margin and runtime.

Default rig: 256-bit start, adaptive to 4096, absolute tolerance 2^-80
unless a criterion states otherwise.
"""

import random
import time

import mpmath
from mpmath import mpc, mpf

from cmpartitions.evaluate import (eval_A, eval_B, eval_C, eval_eisenstein,
                                   eval_eta, eval_j, eval_P, eval_theta_j)
from cmpartitions.modpoly import beta_norm, hnf_classes, j_norm, taylor_coeffs
from cmpartitions.precision import PrecisionConfig
from cmpartitions.quadforms import cm_point, enumerate_qn
from cmpartitions.recognize import compute_pn, pentagonal_pn
from cmpartitions.resolvent import psi_root_check
from cmpartitions.series import fp_series, hypothesis_check
from oracles import taylor_fd_fit, verify_tabulated

RIG = PrecisionConfig(256, 4096, abs_tol=mpf(2) ** -80)
RIG512 = PrecisionConfig(512, 8192, abs_tol=mpf(2) ** -80)


def _report(name, margin, budget, t0):
    elapsed = time.time() - t0
    print(f"PASS {name}: worst {mpmath.nstr(mpf(margin), 6)}, "
          f"{elapsed:.1f}s (budget {budget}s)")
    assert elapsed < budget


def seeded_points(seed, count):
    rng = random.Random(seed)
    with mpmath.workprec(128):
        return [mpc(mpf(rng.uniform(-0.5, 0.5)), mpf(rng.uniform(0.8, 3.0)))
                for _ in range(count)]


def test_criterion_1_partition_formula():
    t0 = time.time()
    worst = mpf(0)
    for n in range(1, 13):
        record = compute_pn(n, RIG)
        assert record.pn == pentagonal_pn(n), f"p({n}) mismatch"
        worst = max(worst, record.residual)
    assert worst < mpf(10) ** -15
    _report("criterion 1 (partition formula, n=1..12)", worst, 120, t0)


def test_criterion_2_scaled_orbit_polynomials():
    t0 = time.time()
    worst = mpf(0)
    for n in range(1, 7):
        record = compute_pn(n, RIG)
        worst = max(worst, record.residual)
        assert record.residual < mpf(10) ** -15
        if n == 1:
            assert record.scaled_poly == (1, -529, 82616, -5097973)
    _report("criterion 2 (integral orbit polynomials, n=1..6)", worst, 120, t0)


def test_criterion_3_decomposition():
    t0 = time.time()
    bound = mpf(2) ** -160
    points = seeded_points(7, 100)
    for n in range(1, 7):
        points.extend(cm_point(f, RIG512) for f in enumerate_qn(n))
    worst = mpf(0)
    with mpmath.workprec(RIG512.eval_bits):
        for z in points:
            dev = abs(eval_P(z, RIG512)
                      - (eval_A(z, RIG512)
                         + eval_B(z, RIG512) * eval_C(z, RIG512)))
            worst = max(worst, dev)
    assert worst < bound
    _report(f"criterion 3 (P = A + B*C at {len(points)} points)", worst, 60, t0)


def test_criterion_4_masser_formula():
    t0 = time.time()
    worst_c = mpf(0)
    worst_fit = mpf(0)
    for n in (1, 2):
        classes = hnf_classes(24 * n - 1)
        for form in enumerate_qn(n):
            analytic = taylor_coeffs(form, classes, RIG512)
            with mpmath.workprec(RIG512.eval_bits):
                diff = abs(analytic.masser_c() - eval_C(cm_point(form, RIG512), RIG512))
                worst_c = max(worst_c, diff)
                fitted = taylor_fd_fit(form, classes, RIG512)
                for name in ("beta", "beta02", "beta11", "beta20"):
                    a = getattr(analytic, name)
                    b = getattr(fitted, name)
                    worst_fit = max(worst_fit, abs(a - b) / (1 + abs(a)))
    assert worst_c < mpf(10) ** -15
    assert worst_fit < mpf(10) ** -10  # 10 significant digits
    _report("criterion 4 (Taylor-quotient C, 3+5 points; fd oracle "
            f"{mpmath.nstr(worst_fit, 4)})", worst_c, 180, t0)


def test_criterion_5_six_unit_norms():
    t0 = time.time()
    for n in (1, 2, 3):
        norm, coprime, _ = j_norm(n, RIG)
        assert coprime, f"j-norm(n={n}) not coprime to 6"
        bnorm, bcoprime, _ = beta_norm(n, RIG)
        assert bcoprime, f"beta-norm(n={n}) not coprime to 6"
    _report("criterion 5 (j and beta norms are 6-units, n<=3)", 0, 120, t0)


def test_criterion_6_resolvent_tables():
    t0 = time.time()
    worst = mpf(0)
    for z in seeded_points(11, 25):
        worst = max(worst, verify_tabulated(z, RIG512))
    assert worst < mpf(10) ** -30
    root_worst = mpf(0)
    for n in (1, 2, 3):
        for form in enumerate_qn(n):
            root_worst = max(root_worst, *psi_root_check(form, RIG512).values())
    assert root_worst < mpf(10) ** -25
    _report(f"criterion 6 (tabulated resolvents at 25 points; roots "
            f"{mpmath.nstr(root_worst, 4)})", worst, 180, t0)


def test_criterion_7_series_integrality():
    t0 = time.time()
    report = hypothesis_check(fp_series(505), 500)
    assert report.f_integral and report.companion_integral
    assert report.first_failure is None
    _report("criterion 7 (exact series integrality through 500 terms)", 0, 30, t0)


def test_criterion_8_property_suites():
    t0 = time.time()
    tol = mpf(2) ** (-RIG.working_bits + RIG.guard_bits + 8)
    worst = mpf(0)
    with mpmath.workprec(RIG.eval_bits):
        # eta inversion and E2 quasimodularity at 100 random points
        rng = random.Random(13)
        for _ in range(100):
            z = mpc(mpf(rng.uniform(-0.5, 0.5)), mpf(rng.uniform(0.1, 3.0)))
            eta_dev = abs(eval_eta(-1 / z, RIG)
                          - mpmath.sqrt(mpc(0, -1) * z) * eval_eta(z, RIG))
            e2 = eval_eisenstein(2, z, RIG)
            e2_dev = abs(eval_eisenstein(2, -1 / z, RIG)
                         - (z * z * e2 - 6j * z / mpmath.pi))
            worst = max(worst, eta_dev, e2_dev / (1 + abs(e2) * abs(z) ** 2))
        assert worst < tol
        # theta j agreement with central differences at 512 bits
        z = mpc(mpf("0.29"), mpf("1.31"))
        h = mpf(10) ** -30
        with mpmath.workprec(RIG512.eval_bits):
            fd = ((eval_j(z + h, RIG512) - eval_j(z - h, RIG512))
                  / (2 * h * 2j * mpmath.pi))
            analytic = eval_theta_j(z, RIG512)
            theta_dev = abs(fd - analytic) / (1 + abs(analytic))
        assert theta_dev < mpf(10) ** -25
        # weight-0 invariance of P under level-6 elements
        gammas = [(1, 1, 0, 1), (1, 0, 6, 1), (5, -1, 6, -1), (7, -3, 12, -5)]
        for z in seeded_points(17, 5):
            base = eval_P(z, RIG)
            for a, b, c, d in gammas:
                moved = eval_P((a * z + b) / (c * z + d), RIG)
                assert abs(moved - base) < tol * (1 + abs(base))
        # precision-ladder stability at a CM point
        lo, hi = PrecisionConfig(256), PrecisionConfig(512)
        form = enumerate_qn(2)[0]
        with mpmath.workprec(hi.eval_bits):
            v_lo = eval_P(cm_point(form, lo), lo)
            v_hi = eval_P(cm_point(form, hi), hi)
            assert abs(v_lo - v_hi) < mpf(2) ** (-lo.working_bits + 40)
    _report("criterion 8 (property suites)", worst, 300, t0)


# Ramanujan identities are exact-series statements; they are part of the
# criterion-8 umbrella and already covered in test_series, but the suite
# reasserts the headline ones here so this module alone certifies the gate.
def test_criterion_8_exact_identities():
    t0 = time.time()
    from fractions import Fraction

    from cmpartitions.series import delta_series, eisenstein_series, j_series
    order = 100
    e2 = eisenstein_series(2, order + 4)
    e4 = eisenstein_series(4, order + 4)
    e6 = eisenstein_series(6, order + 4)
    delta = delta_series(order + 4)
    theta_e4 = e4.theta()
    rhs = (e2 * e4 - e6) * Fraction(1, 3)
    assert all(theta_e4.coeff(k) == rhs.coeff(k) for k in range(order))
    theta_delta = delta.theta()
    rhs = e2 * delta
    assert all(theta_delta.coeff(k) == rhs.coeff(k) for k in range(1, order))
    theta_j = j_series(order).theta()
    rhs = -(e4 ** 2) * e6 * delta.inverse()
    assert all(theta_j.coeff(k) == rhs.coeff(k) for k in range(-1, order - 6))
    assert ((e4 ** 3) - (e6 ** 2) - 1728 * delta).is_zero()
    _report("criterion 8 (Ramanujan theta identities, order 100)", 0, 300, t0)
