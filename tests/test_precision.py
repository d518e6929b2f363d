import os

import mpmath
import pytest
from mpmath import mpc, mpf

from cmpartitions.errors import PrecisionExhausted
from cmpartitions.precision import PrecisionConfig, _fork_map, run_adaptive


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


def rungs_of(value, bound_at):
    """A task returning (value, bound_at(bits)) that records each rung's
    bits."""
    bits = []

    def task(b):
        bits.append(b)
        return value, bound_at(b)

    return task, bits


class TestRunAdaptive:
    def test_pi_against_machin(self):
        # the first rung closes: pi at 64 bits is within 2^-64, under 2^-32
        cfg = PrecisionConfig(64, 1024)

        def task(bits):
            with mpmath.workprec(bits):
                return +mpmath.pi, mpf(2) ** -bits

        value, bound, achieved = run_adaptive(task, cfg)
        assert achieved == 64 and bound == mpf(2) ** -64
        assert abs(value - machin_pi(256)) < mpf(10) ** -19

    def test_constant_achieves_initial(self, cfg256):
        task, bits = rungs_of(mpc(1), lambda b: mpf(0))
        assert run_adaptive(task, cfg256) == (1, 0, cfg256.working_bits)
        assert bits == [cfg256.working_bits]

    def test_schedule(self):
        # magnitude M = 1001 (mpmath.mag, at least log2) from the first
        # rung, then M + w, M + 2w: the bound 2^(1300 - bits) first reaches
        # 2^-128 at M + 2w = 1513
        task, bits = rungs_of(mpf(2) ** 1000 + 1, lambda b: mpf(2) ** (1300 - b))
        value, bound, achieved = run_adaptive(task, PrecisionConfig(256))
        assert bits == [256, 1257, 1513]
        assert achieved == 1513 and bound == mpf(2) ** -213

    def test_predicted_magnitude(self):
        # with M = 1001 predicted as 1200 the one rung runs at 1200 + w, where
        # the bound 2^(1300 - bits) is below 2^-128
        task, bits = rungs_of(mpf(2) ** 1000 + 1, lambda b: mpf(2) ** (1300 - b))
        assert run_adaptive(task, PrecisionConfig(256), 1200)[1:] == (mpf(2) ** -156, 1456)
        assert bits == [1456]

    def test_predicted_magnitude_too_low(self):
        # predicted 900: the rung at 900 + w misses, and the next runs at the
        # M = 1001 that rung measured plus 2w, as after a probe's M + w
        value = mpf(2) ** 1000 + 1
        task, bits = rungs_of(value, lambda b: mpf(2) ** (1300 - b))
        assert run_adaptive(task, PrecisionConfig(256), 900) == (value, mpf(2) ** -213, 1513)
        assert bits == [1156, 1513]

    def test_exhaustion(self):
        # excesses 256, 512, 1024 and the cap 1500 over M = 10, then refused
        task, bits = rungs_of(mpf(1000), lambda b: mpf(1))
        with pytest.raises(PrecisionExhausted, match="at 1510 bits"):
            run_adaptive(task, PrecisionConfig(256, 1500))
        assert bits == [256, 266, 522, 1034, 1510]

    def test_exhaustion_with_a_predicted_magnitude(self):
        # the predicted rung takes the excess 256, then 512, 1024 and the cap
        # 1500 over the measured M = 10, and the refusal is the same
        task, bits = rungs_of(mpf(1000), lambda b: mpf(1))
        with pytest.raises(PrecisionExhausted, match="at 1510 bits"):
            run_adaptive(task, PrecisionConfig(256, 1500), 5)
        assert bits == [261, 522, 1034, 1510]

    def test_exhaustion_at_zero_tolerance(self):
        cfg = PrecisionConfig(128, 128, abs_tol=mpf(0))
        task, bits = rungs_of(mpf(1), lambda b: mpf(2) ** -b)
        with pytest.raises(PrecisionExhausted):
            run_adaptive(task, cfg)
        assert bits == [128, 129]  # magnitude 1, excess 128

    def test_deterministic(self, cfg256):
        def task(bits):
            with mpmath.workprec(bits):
                return mpmath.sqrt(mpf(2)), mpf(2) ** -bits

        first = run_adaptive(task, cfg256)
        second = run_adaptive(task, cfg256)
        assert first == second

    def test_structured_results(self, cfg256):
        # the magnitude is the largest over a nested value: 301 here, from
        # |(2i)^300| = 2^300
        value = ([mpmath.sqrt(mpf(2)), mpf(3)], (mpc(0, 2) ** 300, 7))
        task, bits = rungs_of(value, lambda b: mpf(2) ** (300 - b))
        result, _, achieved = run_adaptive(task, cfg256)
        assert result is value
        assert bits == [256, 557] and achieved == 557


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
