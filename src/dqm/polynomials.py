"""Dense polynomial-in-eta representation of the eigenpolynomials.

Coefficients are stored in ascending powers of eta; evaluation is Horner's
scheme at arbitrary complex eta.  Degree is capped softly at 30: beyond
that a ConditioningWarning is attached, since double precision cancellation
in the high-degree terminating series grows quickly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .specfun import ConditioningWarning

__all__ = ["EtaPolynomial", "DEGREE_SOFT_CAP", "DegeneracyError"]

DEGREE_SOFT_CAP = 30


class DegeneracyError(ArithmeticError):
    """Recurrence ascent hit a vanishing leading coefficient A_k."""


@dataclass(frozen=True)
class EtaPolynomial:
    """Polynomial in the sinusoidal coordinate, with its family context."""

    coeffs: tuple
    family_id: object = None
    params: object = None
    level: int | None = None

    def __post_init__(self):
        coeffs = tuple(complex(c) for c in self.coeffs)
        # normalise the degree: drop trailing (near-)zeros beyond an exact zero
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)
        if self.degree > DEGREE_SOFT_CAP:
            warnings.warn(
                f"degree {self.degree} exceeds {DEGREE_SOFT_CAP}; double "
                "precision cancellation may dominate",
                ConditioningWarning,
                stacklevel=2,
            )

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, eta):
        return self.eval(eta)

    def eval(self, eta):
        """Horner evaluation at scalar or ndarray eta (complex allowed)."""
        if isinstance(eta, np.ndarray):
            out = np.full(eta.shape, self.coeffs[-1], dtype=complex)
            for c in reversed(self.coeffs[:-1]):
                out = out * eta + c
            return out
        eta = complex(eta)
        out = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            out = out * eta + c
        return out

    def scaled(self, factor: complex) -> "EtaPolynomial":
        return EtaPolynomial(
            tuple(c * factor for c in self.coeffs),
            self.family_id,
            self.params,
            self.level,
        )

    def leading(self) -> complex:
        return self.coeffs[-1]


def monomial(power: int, family_id=None, params=None) -> EtaPolynomial:
    """eta^power as an EtaPolynomial."""
    return EtaPolynomial((0.0,) * power + (1.0,), family_id, params, None)
