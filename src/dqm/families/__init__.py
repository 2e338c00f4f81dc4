"""Registry and catalog-level operations for the eleven families.

The module-level functions (validate_params, potential, energy, ...) are the
public catalog surface; they dispatch to the family objects.
"""

from __future__ import annotations

from ..polynomials import DegeneracyError, EtaPolynomial
from .base import (
    ClosurePolys,
    CoefficientBundle,
    Family,
    FamilyId,
    FamilySpec,
    ParamSet,
    SingularityError,
    ValidationError,
)
from .limits import aw_to_wilson_scaled
from .linear import ContinuousHahn, MeixnerPollaczek
from .quadratic import ContinuousDualHahn, Wilson
from .trig import RESTRICTIONS, AskeyWilson

__all__ = [
    "FamilyId",
    "ParamSet",
    "FamilySpec",
    "CoefficientBundle",
    "ClosurePolys",
    "ValidationError",
    "SingularityError",
    "DegeneracyError",
    "EtaPolynomial",
    "FAMILIES",
    "get_family",
    "family_names",
    "validate_params",
    "potential",
    "energy",
    "closure_polys",
    "coefficients",
    "ground_state",
    "eval_poly_hypergeometric",
    "eval_poly_recurrence",
    "aw_to_wilson_scaled",
]

FAMILIES: dict[FamilyId, Family] = {
    fam.spec.id: fam
    for fam in (
        ContinuousHahn(),
        MeixnerPollaczek(),
        Wilson(),
        ContinuousDualHahn(),
        *(AskeyWilson(row) for row in RESTRICTIONS),
    )
}

_ALIASES = {
    "q-hermite": FamilyId.CONTINUOUS_Q_HERMITE,
    "big-q-hermite": FamilyId.CONTINUOUS_BIG_Q_HERMITE,
    "q-jacobi": FamilyId.CONTINUOUS_Q_JACOBI,
    "q-laguerre": FamilyId.CONTINUOUS_Q_LAGUERRE,
    "dual-hahn": FamilyId.CONTINUOUS_DUAL_HAHN,
    "dual-q-hahn": FamilyId.CONTINUOUS_DUAL_Q_HAHN,
}


# every canonical name and alias, normalised, to its family
_BY_NAME = {
    **{fid.value: fam for fid, fam in FAMILIES.items()},
    **{alias: FAMILIES[fid] for alias, fid in _ALIASES.items()},
}


def family_names() -> list[str]:
    return [fid.value for fid in FAMILIES]


def get_family(key) -> Family:
    """Look up a family by FamilyId, canonical name, or alias."""
    if isinstance(key, FamilyId):
        return FAMILIES[key]
    if isinstance(key, Family):
        return key
    fam = _BY_NAME.get(str(key).strip().lower().replace("_", "-").replace(" ", "-"))
    if fam is None:
        raise ValidationError(
            f"unknown family {key!r}; known: {', '.join(family_names())}"
        )
    return fam


# ------------------------------------------------------- catalog operations

def validate_params(family, p: ParamSet) -> None:
    get_family(family).validate(p)


def potential(family, p: ParamSet, point) -> complex:
    return get_family(family).V(p, point)


def energy(family, p: ParamSet, n: int) -> float:
    return get_family(family).energy(p, n)


def closure_polys(family, p: ParamSet) -> ClosurePolys:
    return get_family(family).closure(p)


def coefficients(family, p: ParamSet, n: int) -> CoefficientBundle:
    return get_family(family).coefficients(p, n)


def ground_state(family, p: ParamSet, x):
    return get_family(family).phi0(p, x)


def eval_poly_hypergeometric(family, p: ParamSet, n: int, eta_point) -> complex:
    """P_n at a point of the eta plane, via the definitional series.

    The series lives in the natural variable, so eta is pulled back through
    the principal inverse of the coordinate map first.
    """
    fam = get_family(family)
    x = fam.x_from_eta(eta_point)
    return fam.series_eval_x(p, n, x)


def eval_poly_recurrence(family, p: ParamSet, n: int) -> EtaPolynomial:
    """P_n, with P_0 .. P_{n-1}, as its three-term recurrence data from one
    pass of `Family.recurrence`.  `eval` gives P_n at a point and
    `eval_levels` every level."""
    fam = get_family(family)
    if n < 0:
        raise ValidationError(f"level must be >= 0, got {n}")
    return EtaPolynomial.ascend(*fam.recurrence(p, n), n)
