"""Partition numbers as finite traces of CM values of a weight-0 weak Maass
form, with numerical verification of the attached integrality statements.

The package computes p(n) = (sum of P over the discriminant 1-24n class
representatives) / (24n - 1) at a precision accepted on an error bound,
recognizes the scaled orbit polynomials as integer polynomials within that
bound, checks the A + B*C split of P and
its modular-polynomial expression, and verifies the 6-unit norm properties of
j and of the singular-moduli products behind them.
"""

from .errors import (CMPartitionsError, FractionalPower, NearSingularity,
                     NoFixingClass, NotNearIntegral, NotUpperHalfPlane,
                     PrecisionExhausted, WorkerLost, ZeroLeadingCoefficient)
from .evaluate import (eval_A, eval_Aprime, eval_B, eval_C, eval_eisenstein,
                       eval_eta, eval_form, eval_j, eval_P, eval_P_cm,
                       eval_theta_j)
from .modpoly import (MatrixClass, TaylorData, beta_norm, beta_product,
                      fixing_class, hnf_classes, j_norm, masser_c,
                      taylor_coeffs, taylor_fd_fit)
from .precision import PrecisionConfig, run_adaptive
from .quadforms import (QuadForm, cm_point, enumerate_qn, gamma0_equivalent,
                        reduced_forms)
from .recognize import (OrbitRecord, compute_pn, norm_6unit_check,
                        orbit_product, pentagonal_pn, round_to_integers,
                        sharpness_divisor)
from .resolvent import (coset_reps, psi_from_cosets, psi_root_check,
                        psi_tabulated, verify_tabulated)
from .series import (FormalSeries, HypothesisReport, delta_series,
                     eisenstein_series, eta_quotient_series,
                     euler_product_series, fp_series, hypothesis_check,
                     j_series)

__version__ = "0.1.0"
