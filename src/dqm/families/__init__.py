"""Registry and catalog-level operations for the eleven families.

The module-level functions (validate_params, potential, energy, ...) are the
public catalog surface; they dispatch to the family objects.
"""

from __future__ import annotations

import warnings

from ..polynomials import DEGREE_SOFT_CAP, DegeneracyError, EtaPolynomial
from ..specfun import ConditioningWarning
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
    "eval_polys_recurrence",
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


def family_names() -> list[str]:
    return [fid.value for fid in FAMILIES]


def get_family(key) -> Family:
    """Look up a family by FamilyId, canonical name, or alias."""
    if isinstance(key, FamilyId):
        return FAMILIES[key]
    if isinstance(key, Family):
        return key
    name = str(key).strip().lower().replace("_", "-").replace(" ", "-")
    for fid in FAMILIES:
        if fid.value == name:
            return FAMILIES[fid]
    if name in _ALIASES:
        return FAMILIES[_ALIASES[name]]
    raise ValidationError(
        f"unknown family {key!r}; known: {', '.join(family_names())}"
    )


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
    if n > DEGREE_SOFT_CAP:
        warnings.warn(
            f"series degree {n} exceeds {DEGREE_SOFT_CAP}; double precision "
            "cancellation may dominate",
            ConditioningWarning,
            stacklevel=2,
        )
    x = fam.x_from_eta(eta_point)
    return fam.series_eval_x(p, n, x)


def _monic_ascent(fam: Family, p: ParamSet, n: int):
    """Yield the monic coefficient lists of P_0 .. P_n, ascending once."""
    if n < 0:
        raise ValidationError(f"level must be >= 0, got {n}")
    prev = [complex(0.0)]          # monic P_{-1} = 0
    cur = [complex(1.0)]           # monic P_0 = 1
    yield cur
    for k in range(n):
        c_k = fam.c_n(p, k)
        c_k1 = fam.c_n(p, k + 1)
        if c_k1 == 0 or c_k / c_k1 == 0:
            raise DegeneracyError(f"A_{k} vanished while ascending to n={n}")
        a_k = complex(fam.a_rec(p, k))
        b_k = complex(fam.b_rec(p, k))
        nxt = [complex(0.0)] * (k + 2)
        for i, c in enumerate(cur):
            nxt[i + 1] += c          # eta * P_k
            nxt[i] -= a_k * c        # -a_k P_k
        for i, c in enumerate(prev):
            nxt[i] -= b_k * c        # -b_k P_{k-1}
        prev, cur = cur, nxt
        yield cur


def _scaled(fam: Family, p: ParamSet, n: int, monic: list) -> EtaPolynomial:
    c_n = fam.c_n(p, n)
    return EtaPolynomial(tuple(c * c_n for c in monic), fam.spec.id, p, n)


def eval_poly_recurrence(family, p: ParamSet, n: int) -> EtaPolynomial:
    """Coefficient vector of P_n built by the three-term recurrence."""
    fam = get_family(family)
    for monic in _monic_ascent(fam, p, n):
        pass
    return _scaled(fam, p, n, monic)


def eval_polys_recurrence(family, p: ParamSet, n_max: int) -> list[EtaPolynomial]:
    """P_0 .. P_{n_max} from one recurrence ascent; entry n equals
    eval_poly_recurrence(family, p, n) exactly."""
    fam = get_family(family)
    return [_scaled(fam, p, n, monic)
            for n, monic in enumerate(_monic_ascent(fam, p, n_max))]
