"""Scaled Askey-Wilson quantities converging to Wilson as q -> 1.

The correspondence sets q = e^{-pi/L} and x = pi x'/L with Wilson-side
exponents a'_j, i.e. the Askey-Wilson parameters are a_j = q^{a'_j}.
Each quantity is rescaled (including sign and constant factors) so that its
L -> infinity limit equals the corresponding Wilson quantity:

    energy:      E_n / (1-q)^2                      -> E_n^W
    potential:   conj(V(pi x'/L)) / (1-q)^2         -> V^W(x')
    polynomial:  P_n(eta(pi x'/L)) / (1-q)^{3n}     -> P_n^W(x'^2)
    phi0:        (q;q)_inf^3 (1-q)^{3-sum a'} phi0  -> phi0^W(x')
    f_n:         -f_n / (1-q)^2                     -> f_n^W
    b_n:         -b_n                               -> b_n^W
"""

from __future__ import annotations

import math

import numpy as np

from ..specfun import log_q_pochhammer_inf
from .base import FamilyId, ParamSet, ValidationError

__all__ = ["aw_to_wilson_scaled", "LIMIT_QUANTITIES"]

LIMIT_QUANTITIES = ("energy", "potential", "polynomial", "phi0", "f_n", "b_n")


def _aw_params(wilson_params: ParamSet, L: float) -> ParamSet:
    q = math.exp(-math.pi / L)
    return ParamSet(a=tuple(q**aj for aj in wilson_params.a), q=q)


def aw_to_wilson_scaled(quantity: str, wilson_params: ParamSet, L: float,
                        n: int | None = None, x: float | None = None):
    """The rescaled Askey-Wilson quantity at q = e^{-pi/L}.

    ``n`` is the level (energy, polynomial, f_n, b_n); ``x`` the Wilson-side
    coordinate x' (potential, polynomial, phi0).
    """
    from . import FAMILIES  # local import to avoid a cycle

    if L <= 0:
        raise ValidationError(f"L must be positive, got {L}")
    if quantity not in LIMIT_QUANTITIES:
        raise ValidationError(
            f"unknown limit quantity {quantity!r}; known: {LIMIT_QUANTITIES}"
        )
    wilson = FAMILIES[FamilyId.WILSON]
    wilson.validate(wilson_params)
    aw = FAMILIES[FamilyId.ASKEY_WILSON]
    p = _aw_params(wilson_params, L)
    q = p.q
    one_minus_q = 1.0 - q

    if quantity == "energy":
        return aw.energy(p, n) / one_minus_q**2
    if quantity == "f_n":
        return -aw.f_shift(p, n) / one_minus_q**2
    if quantity == "b_n":
        return -aw.b_shift(p, n)
    x_aw = math.pi * x / L
    if quantity == "potential":
        return np.conj(aw.V(p, x_aw)) / one_minus_q**2
    if quantity == "polynomial":
        from . import eval_poly_recurrence

        poly = eval_poly_recurrence(aw, p, n)
        return poly.eval(aw.eta(x_aw)) / one_minus_q ** (3 * n)
    # phi0: composed in log space, since every q-product underflows as q -> 1
    sum_ap = sum(aj.real for aj in wilson_params.a)
    log_val = (aw.log_amplitude(p, x_aw).real
               + 3.0 * log_q_pochhammer_inf(q, q).real
               + (3.0 - sum_ap) * math.log(one_minus_q))
    return math.exp(log_val)
