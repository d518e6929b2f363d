import hashlib
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpc, mpf

from cmpartitions import resolvent
from cmpartitions.cli import _random_points
from cmpartitions.evaluate import _kernel_table, _values, eval_Aprime, eval_B
from cmpartitions.quadforms import QuadForm, cm_point, conjugate_partners, enumerate_qn
from cmpartitions.recognize import orbit_product
from cmpartitions.resolvent import (_aprime_coefficients, _b_coefficients,
                                    _psi_and_j, coset_reps, psi_root_check)
from cmpartitions.series import FormalSeries
from oracles import psi_from_cosets, verify_tabulated

# frozen checksums of the expanded integer coefficients: a second, textual
# guard against accidental edits of the tables (the numerical guard is
# verify_tabulated against the coset product)
APRIME_SHA256 = "1ae3dd8166cbe129cbefb2e230c4c0e345879a73bd927cd67f02786fd010bff4"
B_SHA256 = "03bd45659cd5406f894d3012c75d305f05ad66d4f3f0d7346b8f788c6b5ca5f4"

# j as a formal series: the tables evaluated at it are their exact integer
# polynomials (every degree is below 30, far inside the order)
J = FormalSeries(0, [0, 1], 64)


def expanded(coefficients):
    """The ascending integer coefficients, trailing zeros stripped, of each
    table polynomial: the tables evaluated at the series J."""
    dense = []
    for poly in coefficients(J):
        coeffs = [poly.coeff(e) for e in range(poly.order)]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        dense.append(coeffs)
    return dense


def table_digest(table):
    text = ";".join(",".join(str(c) for c in coeffs) for coeffs in table)
    return hashlib.sha256(text.encode()).hexdigest()


def horner(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


class TestTables:
    def test_checksums(self):
        assert table_digest(expanded(_aprime_coefficients)) == APRIME_SHA256
        assert table_digest(expanded(_b_coefficients)) == B_SHA256

    @pytest.mark.parametrize("coefficients", [_aprime_coefficients, _b_coefficients],
                             ids=["aprime", "b"])
    def test_factored_values_match_expansion(self, coefficients):
        # the factored text evaluated at an integer j is the expanded
        # polynomial's value there, exactly
        table = expanded(coefficients)
        for j in (-5, 0, 32, 1728, 1995):
            assert list(coefficients(j)) == [horner(c, j) for c in table]

    def test_b11_roots(self):
        assert _b_coefficients(0)[11] == 0
        assert _b_coefficients(2 ** 6 * 3 ** 3)[11] == 0

    def test_a11_roots(self):
        assert _aprime_coefficients(2 ** 6 * 3 ** 3)[11] == 0
        assert _aprime_coefficients(2 ** 5 * 3 ** 3)[11] == 0

    def test_b0_structure(self):
        assert _b_coefficients(0)[0] == 0
        assert _b_coefficients(1728)[0] == 0
        assert len(expanded(_b_coefficients)[0]) - 1 == 16


class TestCosets:
    def test_twelve_with_identity(self):
        reps = coset_reps()
        assert len(reps) == 12
        assert (1, 0, 0, 1) in reps
        for a, b, c, d in reps:
            assert a * d - b * c == 1

    def test_pairwise_inequivalent(self):
        reps = coset_reps()
        for i in range(12):
            for k in range(i + 1, 12):
                c1, d1 = reps[i][2:]
                c2, d2 = reps[k][2:]
                assert (c1 * d2 - d1 * c2) % 6 != 0


class TestPsiNumeric:
    def test_monic(self, cfg256):
        for coeffs in psi_from_cosets(mpc(mpf(1) / 3, mpf(2)), cfg256).values():
            assert len(coeffs) == 13
            assert abs(coeffs[12] - 1) == 0

    @pytest.mark.parametrize("which,evaluator",
                             [("aprime", eval_Aprime), ("b", eval_B)],
                             ids=["aprime", "b"])
    def test_representative_independence(self, cfg256, which, evaluator):
        # replacing each representative by a level-6 left translate leaves
        # the coefficients unchanged
        z = mpc(mpf(1) / 5, mpf("1.7"))
        base = psi_from_cosets(z, cfg256)[which]
        gamma = (5, -1, 6, -1)  # determinant 1, lower-left = 6
        with mpmath.workprec(cfg256.eval_bits):
            values = []
            for a, b, c, d in coset_reps():
                e, f, g, h = gamma
                moved = (e * a + f * c, e * b + f * d, g * a + h * c, g * b + h * d)
                ma, mb, mc, md = moved
                w = (ma * z + mb) / (mc * z + md)
                values.append(evaluator(w, cfg256))
            other = list(reversed(orbit_product(values, 1)))
        for lhs, rhs in zip(base, other):
            assert abs(lhs - rhs) < mpf(2) ** -180 * (1 + abs(rhs))

    def test_coefficients_are_level_one(self, cfg256):
        # z -> z + 1 and z -> -1/z leave every coefficient unchanged
        z = mpc(mpf("0.23"), mpf("1.4"))
        with mpmath.workprec(cfg256.eval_bits):
            base = psi_from_cosets(z, cfg256)["aprime"]
            shifted = psi_from_cosets(z + 1, cfg256)["aprime"]
            inverted = psi_from_cosets(-1 / z, cfg256)["aprime"]
        for b, s, i in zip(base, shifted, inverted):
            assert abs(b - s) < mpf(2) ** -170 * (1 + abs(b))
            assert abs(b - i) < mpf(2) ** -170 * (1 + abs(b))

    def test_x11_coefficient_is_b11_of_j(self, cfg512):
        from cmpartitions.evaluate import eval_j
        z = mpc(mpf(1) / 2, mpf(2))
        with mpmath.workprec(cfg512.eval_bits):
            numeric = psi_from_cosets(z, cfg512)["b"]
            jval = eval_j(z, cfg512)
            expected = _b_coefficients(jval)[11]
            assert abs(numeric[11] - expected) / (1 + abs(expected)) < mpf("1e-100")


def exact(x) -> Fraction:
    """An mpf's exact binary value."""
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


class TestCosetForms:
    def test_exact_images_of_the_verify_appendix_points(self, monkeypatch, cfg512):
        # every form _psi_and_j evaluates has 6 | a, and its root is gamma z
        # exactly, in Fractions from z's binary value; the values are not
        # computed
        forms = []

        def record(form, table, cfg, keys):
            forms.append(form)
            return {"aprime": mpc(1), "b": mpc(1), "j": mpc(0)}

        monkeypatch.setattr(resolvent, "_values", record)
        for z in _random_points(1, 25):
            forms.clear()
            _psi_and_j(z, cfg512)
            x, y = exact(z.real), exact(z.imag)
            assert len(forms) == 12
            for form, (a, b, c, d) in zip(forms, coset_reps()):
                assert form.a % 6 == 0
                norm = (c * x + d) ** 2 + (c * y) ** 2
                re = ((a * x + b) * (c * x + d) + a * c * y * y) / norm
                assert Fraction(-form.b, 2 * form.a) == re
                assert Fraction(-form.discriminant(), 4 * form.a ** 2) == (y / norm) ** 2


class TestVerifyTabulated:
    def test_at_half_plus_2i(self, cfg512):
        z = mpc(mpf(1) / 2, mpf(2))
        assert verify_tabulated(z, cfg512) < mpf("1e-30")

    def test_at_second_point(self, cfg512):
        z = mpc(mpf("0.1"), mpf("1.7"))
        assert verify_tabulated(z, cfg512) < mpf("1e-30")


class TestRootCheck:
    def test_n1_points(self, cfg512):
        for form in enumerate_qn(1):
            residuals = psi_root_check(form, cfg512)
            assert residuals["b"] < mpf("1e-25")
            assert residuals["aprime"] < mpf("1e-25")

    def test_n2_n3_points(self, cfg512):
        for n in (2, 3):
            for form in enumerate_qn(n):
                assert max(psi_root_check(form, cfg512).values()) < mpf("1e-25")

    def test_partners_take_no_conjugate_values(self, cfg256):
        # P takes conjugate values on a form and its W6-conj partner, so
        # compute_pn evaluates one of each pair; A' and B do not, so the root
        # check evaluates every form.  n = 2, [6, 1, 2]: the partner's A' is
        # 1.0e21 from conj A'(alpha), |A'(alpha)| = 1.4e11, and its B 3.8e11
        # from conj B(alpha), |B(alpha)| = 4.0e6
        forms = enumerate_qn(2)
        i = forms.index(QuadForm(6, 1, 2))
        table = _kernel_table(cfg256.eval_bits)
        own, partner = (_values(forms[k], table, cfg256, ("p", "aprime", "b"))
                        for k in (i, conjugate_partners(forms)[i]))
        with mpmath.workprec(cfg256.eval_bits):
            assert abs(partner["p"] - mpmath.conj(own["p"])) < mpf(2) ** -200
            assert abs(partner["aprime"] - mpmath.conj(own["aprime"])) > 10**9 * abs(own["aprime"])
            assert abs(partner["b"] - mpmath.conj(own["b"])) > 10**4 * abs(own["b"])
