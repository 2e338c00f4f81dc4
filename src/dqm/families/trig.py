"""Families with eta(x) = cos x on (0, pi): the Askey-Wilson system and the
six families obtained from it.  gamma = log q < 0, kappa = 1/q, auxiliary
factor 2 sin x.  All shifted evaluations act on z = e^{ix} as z -> q^s z.

One class, `AskeyWilson`, holds every closed form, written once in the four
Askey-Wilson parameters a1..a4 (KS 3.1) and their elementary symmetric
functions e1..e4.  Each family is one row of `RESTRICTIONS`: its FamilySpec,
the map from its own parameters to a1..a4, its validation rule and whether
its polynomials carry the normalisation k_n below.

    continuous dual q-Hahn    (a1, a2, a3)  -> (a1, a2, a3, 0)      KS 3.3
    Al-Salam-Chihara          (a1, a2)      -> (a1, a2, 0, 0)       KS 3.8
    continuous big q-Hermite  (a,)          -> (a, 0, 0, 0)         KS 3.18
    continuous q-Hermite      ()            -> (0, 0, 0, 0)         KS 3.26
    continuous q-Jacobi       (alpha, beta) -> (s, s q^{1/2}, -t, -t q^{1/2}) KS 3.10
    continuous q-Laguerre     (alpha,)      -> (s, s q^{1/2}, 0, 0)         KS 3.19

with s = q^{(alpha+1/2)/2} and t = q^{(beta+1/2)/2}.

A zero parameter drops out of every product: its factors (0; q)_k are 1.
So the closed forms run over the non-zero a_i and the non-zero pair products
only, and with e4 = 0 the e4 factors vanish (c_n = 2^n, E_n = q^{-n} - 1).

The continuous q-Jacobi and q-Laguerre polynomials are the Askey-Wilson ones
at the mapped parameters times

    k_n = a1^n / (q, a1 a3, a1 a4; q)_n.

The monic recurrence (a_n, b_n), E_n, the closure, phi0 and h0 do not
change under k_n; the rest do:

    c_n -> c_n k_n,    h0/h_n -> (h0/h_n) / k_n^2,
    f_n -> f_n k_n(lambda) / k_{n-1}(lambda + delta),
    b_n -> b_n k_n(lambda + delta) / k_{n+1}(lambda).

Their parameters are exponents, so lambda + delta adds 1 to alpha and beta;
through the map that is a_i -> q^{1/2} a_i, the Askey-Wilson shift.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable

import numpy as np

from ..specfun import (
    basic_hypergeometric_phi,
    log_q_pochhammer_inf,
    q_pochhammer,
)
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
    real_parts,
    require,
)

__all__ = ["AskeyWilson", "Restriction", "RESTRICTIONS"]


def _z_of(w) -> complex:
    return np.exp(1j * as_complex(w))


# ----------------------------------------------------------- the restrictions

def _require_q(p: ParamSet) -> None:
    require(p.q is not None, "q is required")
    require(0.0 < p.q < 1.0, f"q must lie in (0,1), got {p.q}")


def _inside_disc(spec: FamilySpec, p: ParamSet, real: bool = False) -> None:
    """a_i inside the unit disc; real, or closed under conjugation."""
    m = spec.n_params
    require(len(p.a) == m, f"{spec.name} needs {m} parameters, got {len(p.a)}")
    _require_q(p)
    for i, ai in enumerate(p.a, start=1):
        require(abs(ai) < 1.0, f"|a{i}| >= 1 violated (|{ai}| = {abs(ai):.6g})")
    if real:
        for i, ai in enumerate(p.a, start=1):
            require(abs(ai.imag) < 1e-12, f"a{i} must be real, got {ai}")
    else:
        require(
            conjugate_closed(p.a),
            "parameter set must be closed under complex conjugation (as a set)",
        )


def _exponents(arity: str):
    """Real exponents >= -1/2, named by the spec; `arity` opens the count message."""

    def check(spec: FamilySpec, p: ParamSet) -> None:
        require(len(p.a) == spec.n_params, f"{arity}, got {len(p.a)}")
        _require_q(p)
        for name, v in zip(spec.param_names, p.a):
            require(abs(v.imag) < 1e-12, f"{name} must be real, got {v}")
            require(v.real >= -0.5, f"{name} >= -1/2 violated ({name} = {v.real})")
            # q^((v+3/2)/2) is the smaller of the two parameters v maps to
            require(p.q ** (0.5 * (v.real + 1.5)) > 0, f"{name} = {v.real} maps to "
                    f"an Askey-Wilson parameter that underflows to 0 at q = {p.q}")

    return check


def _padded(a: tuple, q: float) -> tuple:
    return a + (0.0,) * (4 - len(a))


def _from_exponents(a: tuple, q: float) -> tuple:
    """(alpha[, beta]) -> (s, s q^{1/2}[, -t, -t q^{1/2}]), zeros padded."""
    out = ()
    for sign, v in zip((1.0, -1.0), a):
        out += (sign * q ** (0.5 * (v.real + 0.5)), sign * q ** (0.5 * (v.real + 1.5)))
    return _padded(out, q)


@dataclass(frozen=True)
class Restriction:
    """One cos-x family as a parameter map into Askey-Wilson."""

    spec: FamilySpec
    to_aw: Callable       # (a, q) of the family -> (a1, a2, a3, a4)
    validate: Callable    # (spec, ParamSet) -> None; raises ValidationError
    exponents: bool = False  # (alpha, beta): delta adds 1 and P_n carries k_n


def _spec(fid: FamilyId, ks_tag: str, names: tuple) -> FamilySpec:
    return FamilySpec(
        id=fid,
        ks_tag=ks_tag,
        eta_kind="cos x",
        uses_phi=False,
        param_names=names,
    )


RESTRICTIONS = (
    Restriction(_spec(FamilyId.ASKEY_WILSON, "KS3.1", ("a1", "a2", "a3", "a4")),
                _padded, _inside_disc),
    Restriction(_spec(FamilyId.CONTINUOUS_DUAL_Q_HAHN, "KS3.3", ("a1", "a2", "a3")),
                _padded, _inside_disc),
    Restriction(_spec(FamilyId.AL_SALAM_CHIHARA, "KS3.8", ("a1", "a2")),
                _padded, _inside_disc),
    Restriction(_spec(FamilyId.CONTINUOUS_BIG_Q_HERMITE, "KS3.18", ("a",)),
                _padded, functools.partial(_inside_disc, real=True)),
    Restriction(_spec(FamilyId.CONTINUOUS_Q_HERMITE, "KS3.26", ()),
                _padded, _inside_disc),
    Restriction(_spec(FamilyId.CONTINUOUS_Q_JACOBI, "KS3.10", ("alpha", "beta")),
                _from_exponents, _exponents("continuous q-Jacobi needs (alpha, beta)"),
                exponents=True),
    Restriction(_spec(FamilyId.CONTINUOUS_Q_LAGUERRE, "KS3.19", ("alpha",)),
                _from_exponents, _exponents("continuous q-Laguerre needs alpha"),
                exponents=True),
)


@dataclass(frozen=True)
class _AW:
    """One parameter set in Askey-Wilson terms, derived once."""

    a: tuple        # the non-zero a_i, in order
    pairs: tuple    # the non-zero products a_j a_k, j < k
    e1: float
    e3: float
    e4: float
    # k_n = k_a1^n / (q, k_pairs; q)_n on the rows that carry it (else None),
    # k_den = (1 - a1 a3)(1 - a1 a4): what its ratios in f_n and b_n keep
    k_a1: float | None = None
    k_pairs: tuple = ()
    k_den: float = 1.0


# ------------------------------------------------------------------- family

class AskeyWilson(Family):
    """The Askey-Wilson forms, at the parameters a restriction maps to."""

    def __init__(self, row: Restriction):
        self.row = row
        self.spec = row.spec
        self._key = f"_aw {row.spec.name}"  # never a field name: it has a space

    def _check_domain(self, p: ParamSet) -> None:
        self.row.validate(self.spec, p)

    def shifted(self, p: ParamSet, k: int = 1) -> ParamSet:
        if self.row.exponents:
            return ParamSet(a=tuple(v.real + k for v in p.a), q=p.q)
        factor = p.q ** (0.5 * k)
        return ParamSet(a=tuple(ai * factor for ai in p.a), q=p.q)

    def _aw(self, p: ParamSet) -> _AW:
        # derived once per ParamSet and kept in its __dict__, as
        # functools.cached_property does: the dataclass fields, and with them
        # its equality, hash and repr, do not see it
        d = vars(p).get(self._key)
        if d is None:
            d = vars(p)[self._key] = self._derive(p)
        return d

    def _derive(self, p: ParamSet) -> _AW:
        full = self.row.to_aw(p.a, p.q)
        nz = tuple(ai for ai in full if ai != 0)
        k = {}
        if self.row.exponents:
            a1 = full[0]
            prods = tuple(a1 * aj for aj in full[2:] if aj != 0)
            k = dict(k_a1=a1, k_pairs=prods,
                     k_den=math.prod(1.0 - ajk for ajk in prods))
        e1, e3, e4 = real_parts([elementary_symmetric(nz, j) for j in (1, 3, 4)])
        return _AW(
            a=nz,
            pairs=tuple(aj * ak for aj, ak in combinations(nz, 2)),
            e1=e1,
            e3=e3,
            e4=e4,
            **k,
        )

    def nonzero_parameters(self, p: ParamSet) -> tuple:
        return self._aw(p).a

    def _k_n(self, d: _AW, q: float, n: int) -> float:
        """k_n = a1^n / (q, a1 a3, a1 a4; q)_n."""
        den = q_pochhammer(q, q, n)
        for ajk in d.k_pairs:
            den *= q_pochhammer(ajk, q, n)
        return (d.k_a1**n / den).real

    # -- potential and ground state ------------------------------------------
    def V(self, p: ParamSet, w) -> complex:
        z = _z_of(w)
        z2 = z * z
        den = (1.0 - z2) * (1.0 - p.q * z2)
        if any_zero(den):
            raise SingularityError(f"potential singular at x = {w}")
        num = complex(1.0)
        for ai in self._aw(p).a:
            num *= 1.0 - ai * z
        return num / den

    def log_amplitude(self, p: ParamSet, w):
        # (e^{2iw}; q)_inf / prod_i (a_i e^{iw}; q)_inf in one kernel call:
        # every row runs to the largest |a| of the stack, so a row with a
        # smaller |a| takes extra factors, each within 1e-15 of 1
        z = _z_of(w)
        rows = [z * z, *(ai * z for ai in self._aw(p).a)]
        logs = log_q_pochhammer_inf(np.stack(rows), p.q)
        out = logs[0]
        for row in logs[1:]:
            out = out - row
        return out

    # -- spectrum and closure --------------------------------------------------
    def energy(self, p: ParamSet, n: int) -> float:
        return (p.q ** (-n) - 1.0) * (1.0 - self._aw(p).e4 * p.q ** (n - 1))

    def level_from_energy(self, p: ParamSet, energy: float) -> float:
        # E + 1 + b4/q = q^{-N} + (b4/q) q^N =: hp, a quadratic in q^N whose
        # smaller root is q^N; taken in the conjugate form, which does not
        # cancel as hp^2 >> 4 b4/q.  For b4 > q the smaller root at level 0
        # is q/b4, not 1, so that range is rejected; at b4 = q both are 1.
        q = p.q
        b4 = self._aw(p).e4
        if not b4 <= q:
            raise ValueError(
                f"number-operator inversion needs b4 <= q, got b4={b4}, q={q}"
            )
        hp = energy + 1.0 + b4 / q
        qn = 2.0 / (hp + math.sqrt(hp * hp - 4.0 * b4 / q))
        return math.log(qn) / math.log(q)

    def closure(self, p: ParamSet) -> ClosurePolys:
        q = p.q
        d = self._aw(p)
        s2 = 1.0 / q - 2.0 + q    # (q^{-1/2} - q^{1/2})^2
        u = 1.0 + d.e4 / q
        lin = d.e1 + d.e3 / q
        const = (1.0 + 1.0 / q) * (d.e3 + d.e1 * d.e4 / q)
        return ClosurePolys(
            r1=(s2, s2 * u),
            r0=(s2, 2.0 * s2 * u, s2 * (u * u - (1.0 + 1.0 / q) ** 2 * d.e4)),
            rm1=(0.0, -0.5 * s2 * lin, -0.5 * s2 * (lin * u - const)),
        )

    # -- recurrence, shifts and norms ------------------------------------------
    def recurrence(self, p: ParamSet, n: int) -> tuple:
        q = p.q
        d = self._aw(p)
        e1, e3, e4 = d.e1, d.e3, d.e4
        a, b, c = [], [], [1.0]
        # the q^j the levels form, q^lo .. q^(2n-2), each once: q^-3 only
        # where e4 enters and q^-1 only where a pair product does, none at
        # n = 0, so a tiny q overflows no power that the levels do not form
        lo = -3 if e4 else -1 if d.pairs else 0
        qp = [q**j for j in range(lo, 2 * n - 1)] if n else []
        # the numerator of a_k is n0 - q^k n1 + q^2k n2
        q2 = q * q
        n0 = q2 * e1 + q * e3
        n1 = q2 * e3 + q * e1 * e4 + q * e3 + e1 * e4
        n2 = q * e1 * e4 + e3 * e4
        qk = 1.0  # q^k stepped as q_pochhammer steps it
        for k in range(n):
            w, t = k - lo, 2 * k - lo  # q^(k+j) is qp[w + j], q^(2k+j) is qp[t + j]
            # (a1 + 1/a1 - A_k - C_k)/2 of KS 3.1.5 with the 1/a1 pivot
            # cancelled in closed form: the plain form loses up to 1e-6
            # relative as a_k -> 0.  At k = 0 the numerator is (q^2 - e4)
            # (e1 - e3) and cancels against 1 - e4 q^{-2}, which is rounding
            # noise near e4 = q^2 (q-Jacobi at alpha + beta = 0)
            qn = qp[w]
            if k == 0:
                a.append((e1 - e3) / (2.0 * (1.0 - e4)))
            else:
                num = (n0 - qn * n1 + qn * qn * n2) / (
                    (1.0 - e4 * qp[t - 2]) * (1.0 - e4 * qp[t]))
                a.append(0.5 * qn * num / q2)
            prod = 1.0
            for ajk in d.pairs:
                prod *= 1.0 - ajk * qp[w - 1]
            # c_k = 2^k (e4 q^{k-1}; q)_k, carried by its ratio r; that
            # reads 0/0 at k = 0 when e4 = q, so c_1 = 2 (1 - e4) is closed
            if not e4:
                b.append((1.0 - qn) * prod / 4.0)
                r = 2.0
            else:
                # `or 1.0` writes the limit 1 of (1 - e4 q^{k-2})/(1 - e4 q^{2k-3}),
                # 0/0 at k = 1 when e4 = q; den reads 0 at k = 0 when e4 = q or
                # q^2, where b_0 is 0 by its factor 1 - q^0
                den = (4.0 * (1.0 - e4 * qp[t - 3] or 1.0)
                       * (1.0 - e4 * qp[t - 2]) ** 2 * (1.0 - e4 * qp[t - 1]))
                b.append((1.0 - qn) * (1.0 - e4 * qp[w - 2] or 1.0) * prod / den
                         if den else 0.0)
                r = 2.0 * (1.0 - e4) if k == 0 else (
                    2.0 * (1.0 - e4 * qp[t - 1]) * (1.0 - e4 * qp[t])
                    / (1.0 - e4 * qp[w - 1]))
            if d.k_a1 is not None:
                # times k_{k+1} / k_k = a1 / ((1 - q^{k+1}) prod (1 - a1 a_j q^k))
                den = 1.0 - q * qk
                for ajk in d.k_pairs:
                    den *= 1.0 - ajk * qk
                r *= d.k_a1 / den
            c.append(c[k] * r)
            qk *= q
        return tuple(a), real_parts(b), tuple(c)

    def f_shift(self, p: ParamSet, n: int):
        d = self._aw(p)
        if d.k_a1 is None:
            return p.q ** (0.5 * n) * self.energy(p, n)
        # q^{n/2} E_n k_n(lambda) / k_{n-1}(lambda+delta), (1 - q^n) cancelled
        q = p.q
        return d.k_a1 * q ** (0.5 - n) * (1.0 - d.e4 * q ** (n - 1)) / d.k_den

    def b_shift(self, p: ParamSet, n: int):
        d = self._aw(p)
        if d.k_a1 is None:
            return p.q ** (-0.5 * (n + 1))
        # q^{-(n+1)/2} k_n(lambda+delta) / k_{n+1}(lambda)
        return (1.0 - p.q ** (n + 1)) * d.k_den / (d.k_a1 * math.sqrt(p.q))

    def log_h0(self, p: ParamSet) -> float:
        # 2 pi (e4; q)_inf / ((q; q)_inf prod_{j<k} (a_j a_k; q)_inf)
        d = self._aw(p)
        logs = log_q_pochhammer_inf(np.array([d.e4, p.q, *d.pairs]), p.q)
        return math.log(2.0 * math.pi) + (logs[0] - logs[1:].sum()).real

    def _norm_factors(self, p: ParamSet, n: int):
        # h0/h_k = (1 - e4 q^{2k-1}) (e4; q)_{k-1} / ((q; q)_k prod (a_j a_k; q)_k),
        # KS 3.1.2, over the non-zero pair products; over k_k^2 on the rows
        # that carry k_n, each level j times ((1 - q^j) prod (1 - a1 a_l
        # q^{j-1}) / a1)^2
        q = p.q
        d = self._aw(p)
        e4_num = []  # 1 - e4 q^{j-2}, from j = 2
        qj = 1.0     # q^{j-1}, stepped as q_pochhammer steps it
        for j in range(1, n + 1):
            num = e4_num
            den = [1.0 - q * qj, *(1.0 - ajk * qj for ajk in d.pairs)]
            if d.k_a1 is not None:
                num = num + [1.0 - q * qj, *(1.0 - ajk * qj for ajk in d.k_pairs)] * 2
                den += [d.k_a1] * 2
            yield 1.0 - d.e4 * q ** (2 * j - 1), num, den
            e4_num = [1.0 - d.e4 * qj]
            qj *= q

    def coherent_closed_form(self, p: ParamSet, alpha: complex, xs):
        # with at most two non-zero parameters, (a1, a2) zero-padded, the
        # Al-Salam-Chihara 2phi1(a1 z, a2 z; a1 a2; q; 2 alpha / z) / (2 alpha z;
        # q)_inf, summed through k = 200.  By the q-binomial theorem (Gasper &
        # Rahman (1.3.2)) it is a product of q-products at a2 = 0
        nonzero = self._aw(p).a
        if len(nonzero) > 2:
            return None
        a1, a2 = nonzero + (0.0,) * (2 - len(nonzero))
        q = p.q
        z = np.exp(1j * xs)
        qk = q ** np.arange(200.0)[:, None]
        ratios = ((1.0 - a1 * z * qk) * (1.0 - a2 * z * qk)
                  / ((1.0 - a1 * a2 * qk) * (1.0 - q * qk)) * (2 * alpha / z))
        return ratios, np.exp(-log_q_pochhammer_inf(2 * alpha * z, q))

    # -- the definitional series ----------------------------------------------
    def series_eval_x(self, p: ParamSet, n: int, x) -> complex:
        q = p.q
        d = self._aw(p)
        z = _z_of(x)
        if not d.a:
            # all parameters vanish: continuous q-Hermite form
            return z**n * basic_hypergeometric_phi(
                [Fraction(q) ** -n, 0.0], [], q, q**n / (z * z), n
            )
        # the series' 'a1': the largest, by symmetry, and of equal ones a real
        # one, which makes a1 z, a1 / z (at a real x) and a1 a_j of a
        # conjugate pair a_j exact conjugate pairs
        a1 = max(d.a, key=lambda aj: (abs(aj), not aj.imag))
        rest = list(d.a)
        rest.remove(a1)
        pref = a1 ** (-n)
        den_params = []
        for aj in rest:
            pref *= q_pochhammer(a1 * aj, q, n)
            den_params.append(a1 * aj)
        # q^-n exact: the series' cancellation amplifies any error in it.  At
        # a real x, 1 / z is conj(z) exactly, so a1 conj(z) is the nearer
        # rounding of a1 / z, and at a real a1 it is a1 z's exact conjugate
        num_params = [Fraction(q) ** -n, a1 * z, a1 / z if x.imag else a1 * z.conjugate()]
        zeros = 4 - len(d.a)
        if zeros:
            # each zero a_j gives a denominator 0; the first of them cancels
            # the numerator e4 q^{n-1} = 0, and (0; q)_k = 1 in pref
            den_params += [0.0] * (zeros - 1)
        else:
            num_params.insert(1, d.e4 * q ** (n - 1))
        f = basic_hypergeometric_phi(num_params, den_params, q, q, n)
        if d.k_a1 is not None:
            pref *= self._k_n(d, q, n)
        return pref * f
