"""Exactly solvable difference-equation quantum mechanics.

Eleven orthogonal-polynomial systems (the continuous Askey scheme and its
q-deformations) with their Hamiltonians, shift and ladder operators,
orthogonality weights and coherent states, plus a verifier that checks
every identity numerically.
"""

from .families import (
    CoefficientBundle,
    ClosurePolys,
    EtaPolynomial,
    FamilyId,
    FamilySpec,
    ParamSet,
    ValidationError,
    aw_to_wilson_scaled,
    closure_polys,
    coefficients,
    energy,
    eval_poly_hypergeometric,
    eval_poly_recurrence,
    family_names,
    get_family,
    ground_state,
    potential,
    validate_params,
)
from .fixtures import fixture_names, fixture_params, parse_complex
from .operators import OperatorContext, lambda_shift_X, sample_points
from .quadrature import OrthoMatrix, orthogonality_matrix
from .specfun import (
    basic_hypergeometric_phi,
    complex_gamma,
    hypergeometric_F,
    pochhammer,
    q_gamma,
    q_pochhammer,
    q_pochhammer_inf,
)
from .verify import SUITES, CheckResult, VerifyConfig, run_suite

__version__ = "0.1.0"
