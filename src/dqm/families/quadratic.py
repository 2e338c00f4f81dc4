"""Families with eta(x) = x^2 on (0, inf): Wilson and continuous dual Hahn.
gamma = 1, kappa = 1, auxiliary factor 2x.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from ..specfun import hypergeometric_F, log_gamma, pochhammer
from .base import (
    ClosurePolys,
    Family,
    FamilyId,
    FamilySpec,
    ParamSet,
    SingularityError,
    any_zero,
    as_complex,
    conjugate_closed,
    elementary_symmetric,
    require,
)

__all__ = ["Wilson", "ContinuousDualHahn"]


class _GammaRatioFamily(Family):
    """Common code for the two x^2 families: V and phi0 share their shape."""

    def validate(self, p: ParamSet) -> None:
        m = self.spec.n_params
        require(len(p.a) == m, f"{self.spec.name} needs {m} parameters, got {len(p.a)}")
        for i, ai in enumerate(p.a, start=1):
            require(ai.real > 0, f"Re a{i} > 0 violated (a{i} = {ai})")
        require(
            conjugate_closed(p.a),
            "parameter set must be closed under complex conjugation (as a set)",
        )

    def shifted(self, p: ParamSet, k: int = 1) -> ParamSet:
        return ParamSet(a=tuple(ai + 0.5 * k for ai in p.a))

    def V(self, p: ParamSet, w) -> complex:
        w = as_complex(w)
        den = 2j * w * (2j * w + 1.0)
        if any_zero(den):
            raise SingularityError(f"potential singular at x = {w}")
        num = complex(1.0)
        for ai in p.a:
            num *= ai + 1j * w
        return num / den

    def log_amplitude(self, p: ParamSet, w):
        # prod Gamma(a_i + iw) / Gamma(2iw), with 1/Gamma(2iw) = 2iw /
        # Gamma(1 + 2iw): regular at w = 0, where it vanishes
        iw = 1j * as_complex(w)
        with np.errstate(divide="ignore"):
            out = np.log(2.0 * iw) - log_gamma(1.0 + 2.0 * iw)
        for ai in p.a:
            out = out + log_gamma(ai + iw)
        return out

    @staticmethod
    def _log_2pi_gamma_pairs(p: ParamSet) -> float:
        """log(2 pi prod_{j<k} Gamma(a_j + a_k)): the pairs come in conjugate
        pairs or are real and positive, so the product is positive."""
        sums = np.array([aj + ak for aj, ak in combinations(p.a, 2)])
        return math.log(2.0 * math.pi) + log_gamma(sums).real.sum()


class Wilson(_GammaRatioFamily):
    """Four parameters, conjugation-closed with positive real parts."""

    spec = FamilySpec(
        id=FamilyId.WILSON,
        ks_tag="KS1.1",
        eta_kind="x^2",
        interval=(0.0, math.inf),
        n_params=4,
        uses_q=False,
        uses_phi=False,
        param_names=("a1", "a2", "a3", "a4"),
    )

    def energy(self, p: ParamSet, n: int) -> float:
        b1 = elementary_symmetric(p.a, 1).real
        return n * (n + b1 - 1.0)

    def closure(self, p: ParamSet) -> ClosurePolys:
        b1 = elementary_symmetric(p.a, 1).real
        b2 = elementary_symmetric(p.a, 2).real
        b3 = elementary_symmetric(p.a, 3).real
        return ClosurePolys(
            r1=(0.0, 2.0),
            r0=(0.0, 4.0, b1 * (b1 - 2.0)),
            rm1=(-2.0, b1 - 2.0 * b2, (2.0 - b1) * b3),
        )

    def c_n(self, p: ParamSet, n: int):
        b1 = elementary_symmetric(p.a, 1).real
        return (-1.0) ** n * pochhammer(n + b1 - 1.0, n).real

    def a_rec(self, p: ParamSet, n: int):
        a1, a2, a3, a4 = p.a
        b1 = elementary_symmetric(p.a, 1)
        t1 = complex(n + b1 - 1)
        for aj in (a2, a3, a4):
            t1 *= n + a1 + aj
        t1 /= (2 * n + b1 - 1) * (2 * n + b1)
        t2 = complex(n)
        for aj, ak in combinations((a2, a3, a4), 2):
            t2 *= n + aj + ak - 1
        t2 /= (2 * n + b1 - 2) * (2 * n + b1 - 1)
        return t1 + t2 - a1 * a1

    def b_rec(self, p: ParamSet, n: int):
        if n == 0:
            return 0.0  # multiplies P_{-1}; avoids 0/0 when b1 = 3
        b1 = elementary_symmetric(p.a, 1)
        prod = complex(1.0)
        for aj, ak in combinations(p.a, 2):
            prod *= n + aj + ak - 1
        return (
            n * (n + b1 - 2) * prod
            / ((2 * n + b1 - 3) * (2 * n + b1 - 2) ** 2 * (2 * n + b1 - 1))
        )

    def f_shift(self, p: ParamSet, n: int):
        b1 = elementary_symmetric(p.a, 1).real
        return -n * (n + b1 - 1.0)

    def b_shift(self, p: ParamSet, n: int):
        return -1.0

    def log_h0(self, p: ParamSet) -> float:
        b1 = elementary_symmetric(p.a, 1).real
        return self._log_2pi_gamma_pairs(p) - log_gamma(b1).real

    def h0_over_hn(self, p: ParamSet, n: int) -> float:
        b1 = elementary_symmetric(p.a, 1)
        prod = complex(1.0)
        for aj, ak in combinations(p.a, 2):
            prod *= pochhammer(aj + ak, n)
        val = (
            (b1 + 2 * n - 1)
            / (b1 + n - 1)
            * pochhammer(b1, n)
            / (math.factorial(n) * prod)
        )
        return complex(val).real

    def level_from_energy(self, p: ParamSet, energy: float) -> float:
        b1 = elementary_symmetric(p.a, 1).real
        if not b1 > 1.0:
            raise ValueError(f"number-operator inversion needs b1 > 1, got {b1}")
        return math.sqrt(energy + 0.25 * (b1 - 1.0) ** 2) - 0.5 * (b1 - 1.0)

    def series_eval_x(self, p: ParamSet, n: int, x) -> complex:
        a1, a2, a3, a4 = p.a
        b1 = elementary_symmetric(p.a, 1)
        pref = (
            pochhammer(a1 + a2, n)
            * pochhammer(a1 + a3, n)
            * pochhammer(a1 + a4, n)
        )
        x = complex(x)
        f = hypergeometric_F(
            [-n, n + b1 - 1, a1 + 1j * x, a1 - 1j * x],
            [a1 + a2, a1 + a3, a1 + a4],
            1.0,
            n,
        )
        return pref * f


class ContinuousDualHahn(_GammaRatioFamily):
    """Wilson with a4 = 0: linear spectrum E_n = n."""

    spec = FamilySpec(
        id=FamilyId.CONTINUOUS_DUAL_HAHN,
        ks_tag="KS1.3",
        eta_kind="x^2",
        interval=(0.0, math.inf),
        n_params=3,
        uses_q=False,
        uses_phi=False,
        param_names=("a1", "a2", "a3"),
    )

    def energy(self, p: ParamSet, n: int) -> float:
        return float(n)

    def closure(self, p: ParamSet) -> ClosurePolys:
        b1 = elementary_symmetric(p.a, 1).real
        b2 = elementary_symmetric(p.a, 2).real
        return ClosurePolys(
            r1=(0.0, 0.0),
            r0=(0.0, 0.0, 1.0),
            rm1=(-2.0, 1.0 - 2.0 * b1, -b2),
        )

    def c_n(self, p: ParamSet, n: int):
        return (-1.0) ** n

    def a_rec(self, p: ParamSet, n: int):
        a1, a2, a3 = p.a
        return (n + a1 + a2) * (n + a1 + a3) + n * (n + a2 + a3 - 1) - a1 * a1

    def b_rec(self, p: ParamSet, n: int):
        prod = complex(n)
        for aj, ak in combinations(p.a, 2):
            prod *= n + aj + ak - 1
        return prod

    def f_shift(self, p: ParamSet, n: int):
        return -float(n)

    def b_shift(self, p: ParamSet, n: int):
        return -1.0

    def log_h0(self, p: ParamSet) -> float:
        return self._log_2pi_gamma_pairs(p)

    def h0_over_hn(self, p: ParamSet, n: int) -> float:
        prod = complex(1.0)
        for aj, ak in combinations(p.a, 2):
            prod *= pochhammer(aj + ak, n)
        return (1.0 / (math.factorial(n) * prod)).real

    def level_from_energy(self, p: ParamSet, energy: float) -> float:
        return energy

    def series_eval_x(self, p: ParamSet, n: int, x) -> complex:
        a1, a2, a3 = p.a
        pref = pochhammer(a1 + a2, n) * pochhammer(a1 + a3, n)
        x = complex(x)
        f = hypergeometric_F(
            [-n, a1 + 1j * x, a1 - 1j * x],
            [a1 + a2, a1 + a3],
            1.0,
            n,
        )
        return pref * f
