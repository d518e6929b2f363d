import os

import mpmath
import pytest
from mpmath import mpc, mpf

from cmpartitions.errors import PrecisionExhausted
from cmpartitions.precision import (PrecisionConfig, _fork_map, deviation,
                                    run_adaptive)


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


class TestDeviation:
    def test_whole_values_compared(self):
        # 2^1000 and 2^1000 + 1 agree in their top 272 bits; the difference
        # is 1 all the same
        assert deviation(2 ** 1000, 2 ** 1000 + 1) == 1

    def test_large_complex_values(self):
        with mpmath.workprec(1100):
            a = mpc(2) ** 1000 * mpc(1, 1)
            b = a + mpc(0, 2) ** -10
        assert deviation(a, b, bits=64) == mpf(2) ** -10


def _square_where(i):
    # a task in a worker: its square and its pid
    return i * i, os.getpid()


def _refuse(i):
    if i == 3:
        raise PrecisionExhausted(f"task {i}")
    return i


@pytest.fixture
def cpus(monkeypatch):
    """Set the number of CPUs _fork_map sees."""
    def set_cpus(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    return set_cpus


class TestForkMap:
    def test_results_in_order(self, cpus):
        cpus(2)
        out = _fork_map(_square_where, [(i,) for i in range(7)])
        assert [v for v, _ in out] == [i * i for i in range(7)]
        workers = {pid for _, pid in out}
        assert len(workers) == 2 and os.getpid() not in workers

    def test_worker_exception_raised_in_caller(self, cpus):
        cpus(2)
        with pytest.raises(PrecisionExhausted, match="task 3"):
            _fork_map(_refuse, [(i,) for i in range(6)])

    def test_serial_with_one_process(self, cpus):
        cpus(1)
        assert _fork_map(os.getpid, [(), ()]) == [os.getpid()] * 2
