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
from .specfun import (
    basic_hypergeometric_phi,
    complex_gamma,
    hypergeometric_F,
    pochhammer,
    q_gamma,
    q_pochhammer,
    q_pochhammer_inf,
)

__version__ = "0.1.0"

# The verifier's names, each with the submodule that defines it.  They load
# on first access (PEP 562), so list, eval and table never import them.
_LAZY = {
    "OperatorContext": "operators",
    "lambda_shift_X": "operators",
    "sample_points": "operators",
    "orthogonality_matrix": "quadrature",
    "SUITES": "verify",
    "CheckResult": "verify",
    "VerifyConfig": "verify",
    "run_suite": "verify",
}

__all__ = [
    "CoefficientBundle",
    "ClosurePolys",
    "EtaPolynomial",
    "FamilyId",
    "FamilySpec",
    "ParamSet",
    "ValidationError",
    "aw_to_wilson_scaled",
    "closure_polys",
    "coefficients",
    "energy",
    "eval_poly_hypergeometric",
    "eval_poly_recurrence",
    "family_names",
    "get_family",
    "ground_state",
    "potential",
    "validate_params",
    "fixture_names",
    "fixture_params",
    "parse_complex",
    "basic_hypergeometric_phi",
    "complex_gamma",
    "hypergeometric_F",
    "pochhammer",
    "q_gamma",
    "q_pochhammer",
    "q_pochhammer_inf",
    *_LAZY,
]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, not importlib.import_module: -X importtime logs only imports
    # that go through the import statement's machinery
    return getattr(__import__(f"{__name__}.{module}", fromlist=[name]), name)
