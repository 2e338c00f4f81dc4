"""Families with sinusoidal coordinate eta(x) = x on (-inf, inf):
continuous Hahn and Meixner-Pollaczek.  Here gamma = 1 and kappa = 1.
Continuous Hahn takes its spectrum, R1, R0 and recurrence terms from
base.QuadraticSpectrum, as Wilson does.
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
    LambdaShift,
    ParamSet,
    QuadraticSpectrum,
    as_complex,
    log_2pi_gamma_pairs,
    real_parts,
    require,
)

__all__ = ["ContinuousHahn", "MeixnerPollaczek"]


class ContinuousHahn(QuadraticSpectrum):
    """Potential (a1+ix)(a2+ix) with complex a1, a2, Re a_i > 0.

    The conjugates enter as (a3, a4) = (a1*, a2*), so b1 = 2 Re(a1 + a2).
    """

    spec = FamilySpec(
        id=FamilyId.CONTINUOUS_HAHN,
        ks_tag="KS1.4",
        eta_kind="x",
        uses_phi=False,
        param_names=("a1", "a2"),
    )

    def _check_domain(self, p: ParamSet) -> None:
        require(len(p.a) == 2, f"continuous Hahn needs 2 parameters, got {len(p.a)}")
        for i, ai in enumerate(p.a, start=1):
            require(ai.real > 0, f"Re a{i} > 0 violated (a{i} = {ai})")

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

    def closure(self, p: ParamSet) -> ClosurePolys:
        a1, a2 = p.a
        return self._closure(p, (0.0, 2.0 * (a1 + a2).imag,
                                 2.0 * (self._b1(p) - 2.0) * (a1 * a2).imag))

    def recurrence(self, p: ParamSet, n: int) -> tuple:
        a1, a2, a3, a4 = self._abcd(p)
        b1 = self._b1(p)
        a, b, c = [], [], [1.0]
        for k, t1, t2, b_k in self._terms(n, b1, a1, (a3, a4), ((a2, a3), (a2, a4)),
                                          ((a1, a3), (a1, a4), (a2, a3), (a2, a4))):
            a.append(1j * (a1 - t1 + t2))
            b.append(b_k)
            # c_k = (k + b1 - 1)_k / k!; its ratio reads 0/0 at k = 0 when
            # b1 = 1, so c_1 = b1 is taken closed.  Below b1 = 1, k + b1 - 1
            # adds its integer part first: it is b1 at k = 1 (_terms_below_one)
            c.append(c[k] * (2 * k + b1 - 1) * (2 * k + b1)
                     / ((k - 1 + b1 if b1 < 1.0 else k + b1 - 1) * (k + 1)) if k else b1)
        return real_parts(a), real_parts(b), tuple(c)

    def f_shift(self, p: ParamSet, n: int):
        return n + self._b1(p) - 1.0

    def b_shift(self, p: ParamSet, n: int):
        return float(n + 1)

    def log_h0(self, p: ParamSet) -> float:
        a1, a2, a3, a4 = self._abcd(p)
        return log_2pi_gamma_pairs([aj + ak for aj in (a1, a2) for ak in (a3, a4)], self._b1(p))

    def _norm_factors(self, p: ParamSet, n: int):
        # h0/h_k = (2k - 1 + b1) (b1)_{k-1} k! / prod (a_j + a_k)_k over the
        # pairs of (a1, a2) and (a3, a4), KS 1.4.2
        a1, a2, a3, a4 = self._abcd(p)
        b1 = self._b1(p)
        sums = [aj + ak for aj in (a1, a2) for ak in (a3, a4)]
        for j in range(1, n + 1):
            yield 2 * j - 1 + b1, (j, j - 2 + b1) if j > 1 else (j,), [j - 1 + s for s in sums]

    def log_amplitude(self, p: ParamSet, w):
        iw = 1j * as_complex(w)
        logs = log_gamma(np.stack([ai + iw for ai in p.a]))
        return logs[0] + logs[1]

    def series_eval_x(self, p: ParamSet, n: int, x) -> complex:
        a1, a2, a3, a4 = self._abcd(p)
        b1 = self._b1(p)
        f = hypergeometric_F(
            [-n, n + b1 - 1, a1 + 1j * complex(x)],
            [a1 + a3, a1 + a4],
            1.0,
            n,
            scaled=True,
        )
        return (1j**n) / math.factorial(n) * f


class MeixnerPollaczek(Family):
    """Potential e^{i(pi/2 - phi)} (a + ix) with a > 0 and angle phi in (0, pi)."""

    spec = FamilySpec(
        id=FamilyId.MEIXNER_POLLACZEK,
        ks_tag="KS1.7",
        eta_kind="x",
        uses_phi=True,
        param_names=("a",),
    )

    def _check_domain(self, p: ParamSet) -> None:
        require(len(p.a) == 1, f"Meixner-Pollaczek needs 1 parameter, got {len(p.a)}")
        a = p.a[0]
        require(abs(a.imag) < 1e-12, f"a must be real, got {a}")
        require(a.real > 0, f"a>0 violated (a = {a.real})")
        require(p.phi is not None, "angle phi is required")
        require(0.0 < p.phi < math.pi, f"phi must lie in (0,pi), got {p.phi}")

    def V(self, p: ParamSet, w) -> complex:
        a = p.a[0].real
        return cmath.exp(1j * (math.pi / 2 - p.phi)) * (a + 1j * as_complex(w))

    def lambda_shift(self, p: ParamSet) -> LambdaShift | None:
        # X and X-dagger have a difference-operator form at phi = pi/2 alone
        if abs(p.phi - math.pi / 2) >= 1e-12:
            return None
        return LambdaShift(half=1, x_factor=0.5,
                           xdag_factor=lambda n: 0.25 * (n + 2 * p.a[0].real),
                           X=lambda ctx, levels, f, lat: 0.25 * (f.at(-1) + f.at(1)),
                           Xdag=self._lambda_xdag)

    @staticmethod
    def _lambda_xdag(ctx, levels, f, lat):
        V, V_star = ctx.potential(lat, 0)
        return 0.25 * (V * f.at(-1) + V_star * f.at(1))

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

    def recurrence(self, p: ParamSet, n: int) -> tuple:
        lam = p.a[0].real
        tan = math.tan(p.phi)
        two_sin = 2.0 * math.sin(p.phi)
        two_sin_sq = two_sin**2
        a, b, c = [], [], [1.0]  # c_k = (2 sin phi)^k / k!
        for k in range(n):
            a.append(-(k + lam) / tan)
            b.append(k * (k + 2 * lam - 1) / two_sin_sq)
            c.append(c[k] * two_sin / (k + 1))
        return tuple(a), tuple(b), tuple(c)

    def f_shift(self, p: ParamSet, n: int):
        return 2.0 * math.sin(p.phi)

    def b_shift(self, p: ParamSet, n: int):
        return float(n + 1)

    def log_h0(self, p: ParamSet) -> float:
        a = p.a[0].real
        return (math.log(2.0 * math.pi) + log_gamma(2 * a).real
                - 2 * a * math.log(2.0 * math.sin(p.phi)))

    def _norm_factors(self, p: ParamSet, n: int):
        # h0/h_k = k! / (2a)_k, KS 1.7.2
        a = p.a[0].real
        for j in range(1, n + 1):
            yield 1.0, (j,), (j - 1 + 2 * a,)

    def log_amplitude(self, p: ParamSet, w):
        w = as_complex(w)
        return (p.phi - math.pi / 2) * w + log_gamma(p.a[0].real + 1j * w)

    def level_from_energy(self, p: ParamSet, energy: float) -> float:
        return energy / (2.0 * math.sin(p.phi))

    def coherent_closed_form(self, p: ParamSet, alpha: complex, xs):
        # 1F1(a + ix; 2a; -4i alpha sin^2 phi), summed through k = 80
        a = p.a[0].real
        k = np.arange(80.0)[:, None]
        z = -4j * alpha * math.sin(p.phi) ** 2
        return ((a + 1j * xs + k) / ((2 * a + k) * (k + 1)) * z,
                cmath.exp(1j * alpha * (1.0 - cmath.exp(2j * p.phi))))

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
