"""Families with sinusoidal coordinate eta(x) = x on (-inf, inf):
continuous Hahn and Meixner-Pollaczek.  Here gamma = 1 and kappa = 1.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from ..specfun import hypergeometric_F, log_gamma, pochhammer
from .base import (
    ClosurePolys,
    Family,
    FamilyId,
    FamilySpec,
    ParamSet,
    as_complex,
    require,
)

__all__ = ["ContinuousHahn", "MeixnerPollaczek"]


class ContinuousHahn(Family):
    """Potential (a1+ix)(a2+ix) with complex a1, a2, Re a_i > 0.

    The conjugates enter as (a3, a4) = (a1*, a2*), so b1 = 2 Re(a1 + a2).
    """

    spec = FamilySpec(
        id=FamilyId.CONTINUOUS_HAHN,
        ks_tag="KS1.4",
        eta_kind="x",
        interval=(-math.inf, math.inf),
        n_params=2,
        uses_q=False,
        uses_phi=False,
        param_names=("a1", "a2"),
    )

    def validate(self, p: ParamSet) -> None:
        require(len(p.a) == 2, f"continuous Hahn needs 2 parameters, got {len(p.a)}")
        for i, ai in enumerate(p.a, start=1):
            require(ai.real > 0, f"Re a{i} > 0 violated (a{i} = {ai})")

    def shifted(self, p: ParamSet, k: int = 1) -> ParamSet:
        return ParamSet(a=tuple(ai + 0.5 * k for ai in p.a))

    @staticmethod
    def _abcd(p: ParamSet):
        a1, a2 = p.a
        return a1, a2, a1.conjugate(), a2.conjugate()

    def _b1(self, p: ParamSet) -> float:
        a1, a2 = p.a
        return 2.0 * (a1.real + a2.real)

    def V(self, p: ParamSet, w) -> complex:
        a1, a2 = p.a
        w = as_complex(w)
        return (a1 + 1j * w) * (a2 + 1j * w)

    def energy(self, p: ParamSet, n: int) -> float:
        return n * (n + self._b1(p) - 1.0)

    def closure(self, p: ParamSet) -> ClosurePolys:
        a1, a2 = p.a
        b1 = self._b1(p)
        im_sum = (a1 + a2).imag
        im_prod = (a1 * a2).imag
        return ClosurePolys(
            r1=(0.0, 2.0),
            r0=(0.0, 4.0, b1 * (b1 - 2.0)),
            rm1=(0.0, 2.0 * im_sum, 2.0 * (b1 - 2.0) * im_prod),
        )

    def c_n(self, p: ParamSet, n: int):
        return pochhammer(n + self._b1(p) - 1.0, n).real / math.factorial(n)

    def a_rec(self, p: ParamSet, n: int):
        a1, a2, a3, a4 = self._abcd(p)
        b1 = self._b1(p)
        term1 = (
            (n + b1 - 1) * (n + a1 + a3) * (n + a1 + a4)
            / ((2 * n + b1 - 1) * (2 * n + b1))
        )
        term2 = (
            n * (n + a2 + a3 - 1) * (n + a2 + a4 - 1)
            / ((2 * n + b1 - 2) * (2 * n + b1 - 1))
        )
        return 1j * (a1 - term1 + term2)

    def b_rec(self, p: ParamSet, n: int):
        if n == 0:
            return 0.0  # multiplies P_{-1}; avoids 0/0 when b1 = 3
        a1, a2, a3, a4 = self._abcd(p)
        b1 = self._b1(p)
        prod = complex(1.0)
        for aj in (a1, a2):
            for ak in (a3, a4):
                prod *= n + aj + ak - 1
        return (
            n * (n + b1 - 2) * prod
            / ((2 * n + b1 - 3) * (2 * n + b1 - 2) ** 2 * (2 * n + b1 - 1))
        )

    def f_shift(self, p: ParamSet, n: int):
        return n + self._b1(p) - 1.0

    def b_shift(self, p: ParamSet, n: int):
        return float(n + 1)

    def log_h0(self, p: ParamSet) -> float:
        a1, a2, a3, a4 = self._abcd(p)
        sums = np.array([aj + ak for aj in (a1, a2) for ak in (a3, a4)])
        return (math.log(2.0 * math.pi) + log_gamma(sums).real.sum()
                - log_gamma(self._b1(p)).real)

    def h0_over_hn(self, p: ParamSet, n: int) -> float:
        a1, a2, a3, a4 = self._abcd(p)
        b1 = self._b1(p)
        prod = complex(1.0)
        for aj in (a1, a2):
            for ak in (a3, a4):
                prod *= pochhammer(aj + ak, n)
        val = (
            (b1 + 2 * n - 1)
            / (b1 + n - 1)
            * math.factorial(n)
            * pochhammer(b1, n)
            / prod
        )
        return complex(val).real

    def log_amplitude(self, p: ParamSet, w):
        a1, a2 = p.a
        iw = 1j * as_complex(w)
        return log_gamma(a1 + iw) + log_gamma(a2 + iw)

    def level_from_energy(self, p: ParamSet, energy: float) -> float:
        # E_n = n(n + b1 - 1)  =>  N = sqrt(E + (b1-1)^2/4) - (b1-1)/2
        b1 = self._b1(p)
        if not b1 > 1.0:
            raise ValueError(f"number-operator inversion needs b1 > 1, got {b1}")
        return math.sqrt(energy + 0.25 * (b1 - 1.0) ** 2) - 0.5 * (b1 - 1.0)

    def series_eval_x(self, p: ParamSet, n: int, x) -> complex:
        a1, a2, a3, a4 = self._abcd(p)
        b1 = self._b1(p)
        pref = (
            (1j**n)
            * pochhammer(a1 + a3, n)
            * pochhammer(a1 + a4, n)
            / math.factorial(n)
        )
        f = hypergeometric_F(
            [-n, n + b1 - 1, a1 + 1j * complex(x)],
            [a1 + a3, a1 + a4],
            1.0,
            n,
        )
        return pref * f


class MeixnerPollaczek(Family):
    """Potential e^{i(pi/2 - phi)} (a + ix) with a > 0 and angle phi in (0, pi)."""

    spec = FamilySpec(
        id=FamilyId.MEIXNER_POLLACZEK,
        ks_tag="KS1.7",
        eta_kind="x",
        interval=(-math.inf, math.inf),
        n_params=1,
        uses_q=False,
        uses_phi=True,
        param_names=("a",),
    )

    def validate(self, p: ParamSet) -> None:
        require(len(p.a) == 1, f"Meixner-Pollaczek needs 1 parameter, got {len(p.a)}")
        a = p.a[0]
        require(abs(a.imag) < 1e-12, f"a must be real, got {a}")
        require(a.real > 0, f"a>0 violated (a = {a.real})")
        require(p.phi is not None, "angle phi is required")
        require(0.0 < p.phi < math.pi, f"phi must lie in (0,pi), got {p.phi}")

    def shifted(self, p: ParamSet, k: int = 1) -> ParamSet:
        return ParamSet(a=(p.a[0] + 0.5 * k,), phi=p.phi)

    def V(self, p: ParamSet, w) -> complex:
        a = p.a[0].real
        return cmath.exp(1j * (math.pi / 2 - p.phi)) * (a + 1j * as_complex(w))

    def energy(self, p: ParamSet, n: int) -> float:
        return 2.0 * n * math.sin(p.phi)

    def closure(self, p: ParamSet) -> ClosurePolys:
        a = p.a[0].real
        s = math.sin(p.phi)
        return ClosurePolys(
            r1=(0.0, 0.0),
            r0=(0.0, 0.0, 4.0 * s * s),
            rm1=(0.0, 2.0 * math.cos(p.phi), 2.0 * a * math.sin(2.0 * p.phi)),
        )

    def c_n(self, p: ParamSet, n: int):
        return (2.0 * math.sin(p.phi)) ** n / math.factorial(n)

    def a_rec(self, p: ParamSet, n: int):
        a = p.a[0].real
        return -(n + a) / math.tan(p.phi)

    def b_rec(self, p: ParamSet, n: int):
        a = p.a[0].real
        return n * (n + 2 * a - 1) / (2.0 * math.sin(p.phi)) ** 2

    def f_shift(self, p: ParamSet, n: int):
        return 2.0 * math.sin(p.phi)

    def b_shift(self, p: ParamSet, n: int):
        return float(n + 1)

    def log_h0(self, p: ParamSet) -> float:
        a = p.a[0].real
        return (math.log(2.0 * math.pi) + log_gamma(2 * a).real
                - 2 * a * math.log(2.0 * math.sin(p.phi)))

    def h0_over_hn(self, p: ParamSet, n: int) -> float:
        a = p.a[0].real
        return math.factorial(n) / pochhammer(2 * a, n).real

    def log_amplitude(self, p: ParamSet, w):
        w = as_complex(w)
        return (p.phi - math.pi / 2) * w + log_gamma(p.a[0].real + 1j * w)

    def level_from_energy(self, p: ParamSet, energy: float) -> float:
        return energy / (2.0 * math.sin(p.phi))

    def series_eval_x(self, p: ParamSet, n: int, x) -> complex:
        a = p.a[0].real
        phi = p.phi
        pref = pochhammer(2 * a, n) / math.factorial(n) * cmath.exp(1j * n * phi)
        f = hypergeometric_F(
            [-n, a + 1j * complex(x)],
            [2 * a],
            1.0 - cmath.exp(-2j * phi),
            n,
        )
        return pref * f
