"""Families with eta(x) = x^2 on (0, inf): Wilson and continuous dual Hahn.
gamma = 1, kappa = 1, auxiliary factor 2x.  Wilson takes its spectrum, R1,
R0 and recurrence terms from base.QuadraticSpectrum, as continuous Hahn does.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from ..specfun import hypergeometric_F, log_gamma
from .base import (
    ClosurePolys,
    Family,
    FamilyId,
    FamilySpec,
    LambdaShift,
    ParamSet,
    QuadraticSpectrum,
    SingularityError,
    any_zero,
    as_complex,
    conjugate_closed,
    elementary_symmetric,
    log_2pi_gamma_pairs,
    real_parts,
    require,
)
from .limits import aw_to_wilson_scaled

__all__ = ["Wilson", "ContinuousDualHahn"]


def _real_first(a) -> tuple:
    """a with its first real entry, if it has one, moved to the front.  The
    series is symmetric in the a's, and at a real a1 the pair a1 +- ix (at
    a real x) and the sums a1 + a_j of a conjugate pair a_j are exact
    conjugate pairs, which the series and its Pochhammer prefactor take as
    real factors.  The series forms the prefactor with the sum: in doubles,
    two conjugate Pochhammer symbols round twice as much as the one complex
    symbol beside a real one that a complex a1 gives."""
    i = next((i for i, aj in enumerate(a) if not aj.imag), 0)
    return (a[i], *a[:i], *a[i + 1:])


class _GammaRatioFamily(Family):
    """Common code for the two x^2 families: V and phi0 share their shape."""

    def _check_domain(self, p: ParamSet) -> None:
        m = self.spec.n_params
        require(len(p.a) == m, f"{self.spec.name} needs {m} parameters, got {len(p.a)}")
        for i, ai in enumerate(p.a, start=1):
            require(ai.real > 0, f"Re a{i} > 0 violated (a{i} = {ai})")
        require(
            conjugate_closed(p.a),
            "parameter set must be closed under complex conjugation (as a set)",
        )

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
        # Gamma(1 + 2iw): regular at w = 0, where it vanishes.  One log_gamma
        # call on the rows 1 + 2iw, a_1 + iw, ..., summed in that order
        iw = 1j * as_complex(w)
        logs = log_gamma(np.stack([1.0 + 2.0 * iw, *(ai + iw for ai in p.a)]))
        with np.errstate(divide="ignore"):
            out = np.log(2.0 * iw) - logs[0]
        for row in logs[1:]:
            out = out + row
        return out


class Wilson(_GammaRatioFamily, QuadraticSpectrum):
    """Four parameters, conjugation-closed with positive real parts."""

    spec = FamilySpec(
        id=FamilyId.WILSON,
        ks_tag="KS1.1",
        eta_kind="x^2",
        uses_phi=False,
        param_names=("a1", "a2", "a3", "a4"),
    )
    q_limit = staticmethod(aw_to_wilson_scaled)

    def _b1(self, p: ParamSet) -> float:
        return elementary_symmetric(p.a, 1).real

    def closure(self, p: ParamSet) -> ClosurePolys:
        b1 = self._b1(p)
        b2 = elementary_symmetric(p.a, 2).real
        b3 = elementary_symmetric(p.a, 3).real
        return self._closure(p, (-2.0, b1 - 2.0 * b2, (2.0 - b1) * b3))

    def recurrence(self, p: ParamSet, n: int) -> tuple:
        a1, *later = p.a
        b1 = elementary_symmetric(p.a, 1)  # the terms take b1 complex
        b1_real = b1.real
        a, b, c = [], [], [1.0]
        for k, t1, t2, b_k in self._terms(n, b1, a1, later, tuple(combinations(later, 2)),
                                          tuple(combinations(p.a, 2))):
            a.append(t1 + t2 - a1 * a1)
            b.append(b_k)
            # c_k = (-1)^k (k + b1 - 1)_k; its ratio reads 0/0 at k = 0 when
            # b1 = 1, so c_1 = -b1 is taken closed.  Below b1 = 1, k + b1 - 1
            # adds its integer part first: it is b1 at k = 1 (_terms_below_one)
            c.append(-c[k] * (2 * k + b1_real - 1) * (2 * k + b1_real)
                     / (k - 1 + b1_real if b1_real < 1.0 else k + b1_real - 1)
                     if k else -b1_real)
        return real_parts(a), real_parts(b), tuple(c)

    def f_shift(self, p: ParamSet, n: int):
        return -n * (n + self._b1(p) - 1.0)

    def b_shift(self, p: ParamSet, n: int):
        return -1.0

    def log_h0(self, p: ParamSet) -> float:
        return log_2pi_gamma_pairs([aj + ak for aj, ak in combinations(p.a, 2)], self._b1(p))

    def _norm_factors(self, p: ParamSet, n: int):
        # h0/h_k = (2k - 1 + b1) (b1)_{k-1} / (k! prod (a_j + a_k)_k), KS 1.1.2
        b1 = self._b1(p)
        sums = [aj + ak for aj, ak in combinations(p.a, 2)]
        for j in range(1, n + 1):
            yield 2 * j - 1 + b1, (j - 2 + b1,) if j > 1 else (), (j, *(j - 1 + s for s in sums))

    def series_eval_x(self, p: ParamSet, n: int, x) -> complex:
        a1, *rest = _real_first(p.a)
        b1 = elementary_symmetric(p.a, 1)
        x = complex(x)
        return hypergeometric_F(
            [-n, n + b1 - 1, a1 + 1j * x, a1 - 1j * x],
            [a1 + aj for aj in rest],
            1.0,
            n,
            scaled=True,
        )


class ContinuousDualHahn(_GammaRatioFamily):
    """Wilson with a4 = 0: linear spectrum E_n = n."""

    spec = FamilySpec(
        id=FamilyId.CONTINUOUS_DUAL_HAHN,
        ks_tag="KS1.3",
        eta_kind="x^2",
        uses_phi=False,
        param_names=("a1", "a2", "a3"),
    )

    def lambda_shift(self, p: ParamSet) -> LambdaShift:
        a1, a2, a3 = p.a
        return LambdaShift(half=3, x_factor=1.0, X=self._lambda_x, Xdag=self._lambda_xdag,
                           xdag_factor=lambda n: (n + a1 + a2) * (n + a1 + a3) * (n + a2 + a3))

    @staticmethod
    def _lambda_x(ctx, levels, f, lat):
        """Similarity-transformed explicit X."""
        from ..operators import Terms

        pi3 = complex(1.0)
        for aj in ctx.p.a:
            pi3 *= 2.0 * aj - 1.0
        w = lat.rows(0)
        corr = Terms(1j * pi3 / (8.0 * (1.0 + w * w)))
        v_m = Terms(ctx.potential(lat, 1)[0]).at(-1)  # V(w - i/2) = conj(V*(w + i/2))
        c_plus = Terms(w) - 1j * v_m.conj() - corr
        c_minus = Terms(w) + 1j * v_m + corr
        return (
            -1j * v_m * f.at(-3)
            + c_plus * f.at(-1)
            + 1j * v_m.conj() * f.at(3)
            + c_minus * f.at(1)
        ) / lat.nonzero_phi(0)

    def _lambda_xdag(self, ctx, levels, f, lat):
        """X-dagger = a^(-) B(lambda) (kappa H(lambda+delta) + E_1)^{-1}; the
        resolvent is the scalar 1/(kappa E_n(lambda+delta) + E_1(lambda)) on
        level-n data, and the rest is a composition of explicit operators."""
        from ..operators import ladder_action, per_level

        p_shift = self.shifted(ctx.p)
        scalar = per_level([
            1.0 / (ctx.kappa * self.energy(p_shift, m) + ctx.energy(1)) for m in levels
        ])
        return scalar * ladder_action(ctx, "-", levels + 1, ctx.backward(f, lat), lat)

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

    def recurrence(self, p: ParamSet, n: int) -> tuple:
        a1, a2, a3 = p.a
        a, b = [], []
        for k in range(n):
            # a_k = A_k + C_k - a1^2 and b_k = A_{k-1} C_k (KS 1.3.5); b_0
            # multiplies P_{-1}
            A = (k + a1 + a2) * (k + a1 + a3)
            C = k * (k + a2 + a3 - 1)
            a.append(A + C - a1 * a1)
            b.append(A_prev * C if k else 0.0)
            A_prev = A
        # c_k = (-1)^k
        return real_parts(a), real_parts(b), tuple((-1.0) ** k for k in range(n + 1))

    def f_shift(self, p: ParamSet, n: int):
        return -float(n)

    def b_shift(self, p: ParamSet, n: int):
        return -1.0

    def log_h0(self, p: ParamSet) -> float:
        return log_2pi_gamma_pairs([aj + ak for aj, ak in combinations(p.a, 2)])

    def _norm_factors(self, p: ParamSet, n: int):
        # h0/h_k = 1 / (k! prod (a_j + a_k)_k), KS 1.3.2
        sums = [aj + ak for aj, ak in combinations(p.a, 2)]
        for j in range(1, n + 1):
            yield 1.0, (), (j, *(j - 1 + s for s in sums))

    def level_from_energy(self, p: ParamSet, energy: float) -> float:
        return energy

    def series_eval_x(self, p: ParamSet, n: int, x) -> complex:
        a1, *rest = _real_first(p.a)
        x = complex(x)
        return hypergeometric_F(
            [-n, a1 + 1j * x, a1 - 1j * x],
            [a1 + aj for aj in rest],
            1.0,
            n,
            scaled=True,
        )
