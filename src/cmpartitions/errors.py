"""Exception types shared across the package."""


class CMPartitionsError(Exception):
    """Base class for all package-specific errors."""


class PrecisionExhausted(CMPartitionsError):
    """Precision ran out: no rung of precision.run_adaptive up to max_bits
    above the magnitude had an error bound within the tolerance, or a kernel
    call was asked for at 2^15 bits or more, beyond its stated error budget
    (evaluate._check_budget)."""


class ZeroLeadingCoefficient(CMPartitionsError, ZeroDivisionError):
    """Inversion of a formal series whose leading coefficient vanishes."""


class FractionalPower(CMPartitionsError):
    """An eta quotient whose weight-shift exponent sum is not divisible by 24."""


class NotUpperHalfPlane(CMPartitionsError, ValueError):
    """A point evaluation was requested outside the upper half-plane."""


class NearSingularity(CMPartitionsError):
    """Evaluation too close to a zero of j, j-1728, E4 or E6 to be trusted."""


class NotNearIntegral(CMPartitionsError):
    """A quantity expected to round to an integer has residual above tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class WorkerLost(CMPartitionsError):
    """A forked worker of precision._fork_map ended without handing back a
    result or an exception (killed, for instance, when memory ran out)."""


class NoFixingClass(CMPartitionsError):
    """Not exactly one matrix class of the requested determinant fixes the
    CM point: none, or several (only for |D| = 3 k^2)."""
