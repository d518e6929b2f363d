import mpmath
import pytest
from mpmath import mpc, mpf

from cmpartitions.errors import PrecisionExhausted
from cmpartitions.precision import PrecisionConfig, deviation, run_adaptive


def machin_pi(bits):
    """pi from 16 atan(1/5) - 4 atan(1/239) in scaled integer arithmetic."""
    scale = 1 << (bits + 16)

    def atan_inv(x):
        total = 0
        power = scale // x
        k = 0
        while power:
            term = power // (2 * k + 1)
            total += -term if k % 2 else term
            power //= x * x
            k += 1
        return total

    value = 16 * atan_inv(5) - 4 * atan_inv(239)
    with mpmath.workprec(bits):
        return mpf(value) / scale


class TestConfig:
    def test_defaults(self):
        cfg = PrecisionConfig()
        assert cfg.working_bits == 256
        assert cfg.max_bits == 8192
        assert cfg.abs_tol == mpf(2) ** -128

    def test_invalid(self):
        with pytest.raises(ValueError):
            PrecisionConfig(512, 256)
        with pytest.raises(ValueError):
            PrecisionConfig(working_bits=0)


class TestRunAdaptive:
    def test_pi_against_machin(self):
        cfg = PrecisionConfig(64, 1024)

        def task(bits):
            with mpmath.workprec(bits):
                return +mpmath.pi

        value, achieved = run_adaptive(task, cfg)
        assert achieved == 64
        assert abs(value - machin_pi(256)) < mpf(10) ** -19

    def test_constant_achieves_initial(self, cfg256):
        value, achieved = run_adaptive(lambda bits: mpc(1), cfg256)
        assert value == 1
        assert achieved == cfg256.working_bits

    def test_exhaustion(self):
        cfg = PrecisionConfig(128, 128, abs_tol=mpf(0))
        with pytest.raises(PrecisionExhausted):
            run_adaptive(lambda bits: mpf(1), cfg)

    def test_deterministic(self, cfg256):
        def task(bits):
            with mpmath.workprec(bits):
                return mpmath.sqrt(mpf(2))

        first = run_adaptive(task, cfg256)
        second = run_adaptive(task, cfg256)
        assert first == second

    def test_structured_results(self, cfg256):
        def task(bits):
            with mpmath.workprec(bits):
                return {"x": [mpmath.sqrt(mpf(2)), mpmath.mpf(3)], "y": mpc(0, 1)}

        value, achieved = run_adaptive(task, cfg256)
        assert achieved == cfg256.working_bits
        assert deviation(value, value) == 0
