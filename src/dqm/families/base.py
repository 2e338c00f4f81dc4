"""Shared machinery for the eleven polynomial families.

Each family object is stateless: static structure lives in its FamilySpec,
parameter values travel in a ParamSet, and every method is a pure function
of (params, arguments).
"""

from __future__ import annotations

import cmath
import enum
import math
import operator
from collections import namedtuple
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from ..specfun import log_gamma, pochhammer_levels

__all__ = [
    "FamilyId",
    "ParamSet",
    "FamilySpec",
    "CoefficientBundle",
    "ClosurePolys",
    "LambdaShift",
    "ValidationError",
    "SingularityError",
    "Family",
    "QuadraticSpectrum",
    "elementary_symmetric",
    "three_term",
    "real_parts",
    "as_complex",
    "any_zero",
]


class ValidationError(ValueError):
    """Parameter set violates a family condition; message names it."""


class SingularityError(ZeroDivisionError):
    """Evaluation requested at (or too close to) a pole of the potential or
    a zero of the auxiliary factor phi."""


class FamilyId(enum.Enum):
    CONTINUOUS_HAHN = "continuous-hahn"
    MEIXNER_POLLACZEK = "meixner-pollaczek"
    WILSON = "wilson"
    CONTINUOUS_DUAL_HAHN = "continuous-dual-hahn"
    ASKEY_WILSON = "askey-wilson"
    CONTINUOUS_DUAL_Q_HAHN = "continuous-dual-q-hahn"
    AL_SALAM_CHIHARA = "al-salam-chihara"
    CONTINUOUS_BIG_Q_HERMITE = "continuous-big-q-hermite"
    CONTINUOUS_Q_HERMITE = "continuous-q-hermite"
    CONTINUOUS_Q_JACOBI = "continuous-q-jacobi"
    CONTINUOUS_Q_LAGUERRE = "continuous-q-laguerre"


@dataclass(frozen=True)
class ParamSet:
    """Parameter vector plus q and the angle phi where the family uses them.

    ``a`` holds the family's lambda entries in order: the a_i for the
    Hahn/Wilson/Askey-Wilson chains, (alpha, beta) for continuous q-Jacobi,
    (alpha,) for continuous q-Laguerre, (a,) for Meixner-Pollaczek and the
    big q-Hermite, and () for continuous q-Hermite.
    """

    a: tuple = ()
    q: float | None = None
    phi: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(complex(v) for v in self.a))
        if self.q is not None:
            object.__setattr__(self, "q", float(self.q))
        if self.phi is not None:
            object.__setattr__(self, "phi", float(self.phi))

    def as_dict(self) -> dict:
        out: dict = {"a": [_complex_str(v) for v in self.a]}
        if self.q is not None:
            out["q"] = self.q
        if self.phi is not None:
            out["phi"] = self.phi
        return out


def _complex_str(v: complex) -> str:
    if v.imag == 0.0:
        return repr(v.real)
    sign = "+" if v.imag >= 0 else "-"
    return f"{v.real!r}{sign}{abs(v.imag)!r}i"


_INTERVALS = {"x": (-math.inf, math.inf), "x^2": (0.0, math.inf), "cos x": (0.0, math.pi)}


@dataclass(frozen=True)
class FamilySpec:
    """Static description: coordinate kind, parameter names and shift
    structure.  The interval, the number of parameters and the use of q
    follow from the coordinate kind and the parameter names."""

    id: FamilyId
    ks_tag: str
    eta_kind: str            # "x", "x^2" or "cos x"
    uses_phi: bool
    param_names: tuple       # the lambda entries

    @property
    def name(self) -> str:
        return self.id.value

    @property
    def interval(self) -> tuple:
        """(lo, hi) of x; an unbounded end is math.inf."""
        return _INTERVALS[self.eta_kind]

    @property
    def n_params(self) -> int:
        return len(self.param_names)

    @property
    def uses_q(self) -> bool:
        """Only the cos-x families have a base q."""
        return self.eta_kind == "cos x"


@dataclass(frozen=True)
class CoefficientBundle:
    """All per-level constants of one family at one level n."""

    n: int
    E_n: float
    c_n: float
    a_n_rec: float
    b_n_rec: float
    A_n: float
    B_n: float
    C_n: float
    f_n: float
    b_n_shift: float
    h0: float
    h0_over_hn: float
    N_n: float


@dataclass(frozen=True)
class ClosurePolys:
    """Closure-relation polynomials, coefficients in descending powers of y.

    R1(y) = r1[0] y + r1[1]; R0 and Rm1 are quadratic.  The parametrisation
    satisfies r0^(2) = r1^(1) and r0^(1) = 2 r1^(0).
    """

    r1: tuple = (0.0, 0.0)
    r0: tuple = (0.0, 0.0, 0.0)
    rm1: tuple = (0.0, 0.0, 0.0)

    def R1(self, y):
        return self.r1[0] * y + self.r1[1]

    def R0(self, y):
        return (self.r0[0] * y + self.r0[1]) * y + self.r0[2]

    def Rm1(self, y):
        return (self.rm1[0] * y + self.rm1[1]) * y + self.rm1[2]


# The explicit parameter-shift operators at one parameter set: X P_n(lambda)
# = x_factor P_n(lambda + delta) and X-dagger P_n(lambda + delta) =
# xdag_factor(n) P_n(lambda).  X and Xdag map (ctx, levels, f, lat), f the
# levels on the rows -half..half of the OperatorContext ctx's lattice lat, to
# a Terms on the centre row.
LambdaShift = namedtuple("LambdaShift", "half x_factor xdag_factor X Xdag")


# ------------------------------------------------------ scalars and arrays

def as_complex(w):
    """w as a Python complex, or as a complex ndarray when w is an array.

    The pointwise methods take either through one expression: a scalar call
    runs exactly the scalar arithmetic, and an array stays numpy arithmetic.
    log_amplitude is the exception: it stacks its factors into one array, so
    a scalar w takes numpy's array path there too.
    """
    if type(w) is complex:  # the common case, and complex(w) is w itself
        return w
    if isinstance(w, np.ndarray):
        return w.astype(complex, copy=False)
    return complex(w)


def any_zero(v) -> bool:
    """v == 0 for a scalar; whether any entry is 0 for an ndarray."""
    if type(v) is np.ndarray:  # cheaper than isinstance on the scalar path
        return bool((v == 0).any())
    return v == 0


# --------------------------------------------------------- parameter algebra

def elementary_symmetric(values, k):
    """Elementary symmetric polynomial of order k."""
    out = complex(0.0)
    for combo in combinations(values, k):
        term = complex(1.0)
        for v in combo:
            term *= v
        out += term
    return out


# ------------------------------------------------------------------- family

class Family:
    """Base class; concrete families fill in the closed forms."""

    spec: FamilySpec
    # (quantity, params, L, n=, x=) -> the scaled quantity of the q-family
    # whose q -> 1 limit this one is (limits.py); None if there is none
    q_limit = None

    # -- parameters ---------------------------------------------------------
    def validate(self, p: ParamSet) -> None:
        """Raise ValidationError, with the reason, unless every a_i, q and
        phi that p carries is finite and the family's domain holds."""
        for name, v in (*zip(self.spec.param_names, p.a), ("q", p.q), ("phi", p.phi)):
            require(v is None or cmath.isfinite(v), f"{name} must be finite, got {v}")
        self._check_domain(p)

    def _check_domain(self, p: ParamSet) -> None:
        raise NotImplementedError

    def shifted(self, p: ParamSet, k: int = 1) -> ParamSet:
        """Parameters at lambda + k*delta: every a_i moves by k/2, q and phi
        stay."""
        return replace(p, a=tuple(ai + 0.5 * k for ai in p.a))

    def nonzero_parameters(self, p: ParamSet) -> tuple | None:
        """The non-zero Askey-Wilson parameters p maps to, which name the
        restriction it lies in (KLS ch. 14); None off the Askey-Wilson chain."""
        return None

    # -- geometry -----------------------------------------------------------
    def gamma(self, p: ParamSet) -> float:
        """Shift constant in e^{gamma p}: 1, or log q for the cos-x group."""
        if self.spec.uses_q:
            return math.log(p.q)
        return 1.0

    def kappa(self, p: ParamSet) -> float:
        if self.spec.uses_q:
            return 1.0 / p.q
        return 1.0

    def eta(self, w):
        """Sinusoidal coordinate at (possibly complex) w, scalar or array."""
        kind = self.spec.eta_kind
        w = as_complex(w)
        if kind == "x":
            return w
        if kind == "x^2":
            return w * w
        return np.cos(w) if isinstance(w, np.ndarray) else cmath.cos(w)

    def phi_aux(self, w):
        """Auxiliary factor in the shift operators: 1, 2x or 2 sin x."""
        kind = self.spec.eta_kind
        w = as_complex(w)
        if kind == "x":
            return np.ones_like(w) if isinstance(w, np.ndarray) else complex(1.0)
        if kind == "x^2":
            return 2.0 * w
        return 2.0 * np.sin(w)

    def x_from_eta(self, eta_point):
        """Principal inverse of the coordinate map."""
        kind = self.spec.eta_kind
        eta_point = complex(eta_point)
        if kind == "x":
            return eta_point
        if kind == "x^2":
            return cmath.sqrt(eta_point)
        return cmath.acos(eta_point)

    # -- potential ----------------------------------------------------------
    def V(self, p: ParamSet, w) -> complex:
        """Potential at (possibly complex) w, scalar or array."""
        raise NotImplementedError

    # -- spectral data ------------------------------------------------------
    def energy(self, p: ParamSet, n: int) -> float:
        raise NotImplementedError

    def closure(self, p: ParamSet) -> ClosurePolys:
        raise NotImplementedError

    # -- recurrence / normalisation ----------------------------------------
    def recurrence(self, p: ParamSet, n: int) -> tuple:
        """(a, b, c): the monic recurrence data a_0 .. a_{n-1} and
        b_0 .. b_{n-1} and the scales c_0 .. c_n of P_0 .. P_n, as tuples of
        floats, from one pass over the levels.  c_{k+1} = c_k r_k with the
        closed-form ratio r_k, and c_1 taken closed, where r_0 may be 0/0.
        The data are real (Favard); a value formed in complex arithmetic
        from conjugate-closed parameters passes through `real_parts`, which
        raises ValidationError on an imaginary part beyond rounding noise."""
        raise NotImplementedError

    def f_shift(self, p: ParamSet, n: int) -> float:
        raise NotImplementedError

    def b_shift(self, p: ParamSet, n: int) -> float:
        raise NotImplementedError

    def log_h0(self, p: ParamSet) -> float:
        """log h0, h0 = (phi0, phi0): finite where h0 leaves the double range."""
        raise NotImplementedError

    def h0(self, p: ParamSet) -> float:
        """h0 = (phi0, phi0); inf past the double range."""
        with np.errstate(over="ignore"):
            return float(np.exp(self.log_h0(p)))

    def h0_over_hn_levels(self, p: ParamSet, n: int) -> tuple:
        """h0/h_k for k = 0..n, from one running product over the levels."""
        raise NotImplementedError

    def h0_over_hn(self, p: ParamSet, n: int) -> float:
        """h0/h_n, the last entry of `h0_over_hn_levels`."""
        return self.h0_over_hn_levels(p, n)[n]

    # -- eigenfunctions ------------------------------------------------------
    def log_amplitude(self, p: ParamSet, w):
        """A logarithm of g(w), the closed form of the ground state: phi0(x)
        = |g(x)| on the real axis, and g continues off it.  Scalar or array
        w; only exp() and the real part are used, so any branch will do.
        The factors' arguments go to one kernel call as one stacked array,
        so a scalar w runs array arithmetic and returns a numpy scalar."""
        raise NotImplementedError

    def phi0(self, p: ParamSet, x):
        """Ground-state weight function |g(x)|, vectorised over real x; a
        float at a scalar x; inf past the double range."""
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):
            out = np.exp(np.real(self.log_amplitude(p, x)))
        return float(out) if out.ndim == 0 else out

    def weight_square(self, p: ParamSet, w):
        """Analytic continuation of phi0(x)^2 to complex w, scalar or array:
        g(w) g*(w) with g*(w) = conj(g(conj w)).

        phi0 itself is a modulus and does not continue; its square does,
        which is what the shifted ground-state identity needs.
        """
        w = np.asarray(w, dtype=complex)
        log_g, log_g_mirror = self.log_amplitude(p, np.stack([w, np.conj(w)]))
        out = np.exp(log_g + np.conj(log_g_mirror))
        return complex(out) if out.ndim == 0 else out

    def series_eval_x(self, p: ParamSet, n: int, x) -> complex:
        """Definitional hypergeometric series for P_n, evaluated at x."""
        raise NotImplementedError

    # -- facts that only some families have -----------------------------------
    def lambda_shift(self, p: ParamSet) -> LambdaShift | None:
        """The explicit X and X-dagger at p; None where the family has none."""
        return None

    def coherent_closed_form(self, p: ParamSet, alpha: complex, xs):
        """(ratios, prefactor) of sum_n alpha^n / (C_1 ... C_n) P_n at the
        real points xs in closed form, prefactor (1 + r_0 + r_0 r_1 + ...)
        with one row of ratios per r_k; None where the family has none."""
        return None

    # -- assembled views ------------------------------------------------------
    def coefficients(self, p: ParamSet, n: int) -> CoefficientBundle:
        n = operator.index(n)  # a numpy integer would run the closed forms in numpy arithmetic
        if n < 0:
            raise ValidationError(f"level must be >= 0, got {n}")
        a, b, c = self.recurrence(p, n + 1)
        A, B, C = three_term(a, b, c)
        h0 = self.h0(p)
        h0_over_hn = self.h0_over_hn(p, n)
        return CoefficientBundle(
            n=n,
            E_n=self.energy(p, n),
            c_n=c[n],
            a_n_rec=B[n],
            b_n_rec=b[n],
            A_n=A[n],
            B_n=B[n],
            C_n=C[n],
            f_n=self.f_shift(p, n),
            b_n_shift=self.b_shift(p, n),
            h0=h0,
            h0_over_hn=h0_over_hn,
            N_n=math.sqrt(h0_over_hn),
        )


class QuadraticSpectrum(Family):
    """Families with E_n = n(n + b1 - 1), Wilson and continuous Hahn: the
    spectrum, its inversion, R1 and R0 of the closure and the terms of the
    recurrence.  A subclass supplies the real b1 as `_b1(p)`."""

    def energy(self, p: ParamSet, n: int) -> float:
        return n * (n + self._b1(p) - 1.0)

    def level_from_energy(self, p: ParamSet, energy: float) -> float:
        # E_n = n(n + b1 - 1)  =>  N = sqrt(E + (b1-1)^2/4) - (b1-1)/2; at
        # b1 = 1, E_n = n^2 and the root is exact
        b1 = self._b1(p)
        if not b1 >= 1.0:
            raise ValueError(f"number-operator inversion needs b1 >= 1, got {b1}")
        return math.sqrt(energy + 0.25 * (b1 - 1.0) ** 2) - 0.5 * (b1 - 1.0)

    def _closure(self, p: ParamSet, rm1: tuple) -> ClosurePolys:
        b1 = self._b1(p)
        return ClosurePolys(r1=(0.0, 2.0), r0=(0.0, 4.0, b1 * (b1 - 2.0)), rm1=rm1)

    @staticmethod
    def _terms(n, b1, a1, t1_with, t2_pairs, b_pairs):
        """(k, t1, t2, b_k) for k < n; a_k is assembled from t1, with a factor
        k + a1 + a_j per a_j in t1_with, and t2, with a factor k + a_j + a_k - 1
        per pair in t2_pairs.  b_k is t1 at k - 1 times t2 at k, the
        A_{k-1} C_k of the monic recurrence (KS 1.1.4, 1.4.4).  Below b1 = 1
        `_terms_below_one` forms b_k from its own factors instead, one
        k + a_j + a_k - 1 per pair in b_pairs."""
        for k in range(n):
            if k and b1.real < 1.0:
                yield k, *_terms_below_one(k, b1, a1, t1_with, t2_pairs, b_pairs)
                continue
            # `or 1.0` writes the limit where a factor reads 0/0, at k <= 1 when
            # b1 = 1 or 2: 1 for a ratio of two vanishing factors, 0 for t2
            t1 = complex(k + b1 - 1 or 1.0)
            for aj in t1_with:
                t1 *= k + a1 + aj
            t1 /= (2 * k + b1 - 1 or 1.0) * (2 * k + b1)
            t2 = complex(k)
            for aj, ak in t2_pairs:
                t2 *= k + aj + ak - 1
            t2 /= (2 * k + b1 - 2) * (2 * k + b1 - 1) or 1.0
            # b_0 multiplies P_{-1}
            yield k, t1, t2, t1_prev * t2 if k else 0.0
            t1_prev = t1

    @staticmethod
    def _norm_ratios_below_one(b1, scales, pairs) -> tuple:
        """h0/h_k = (2k - 1 + b1) (b1)_{k-1} s_k / prod (a_j + a_k)_k for
        k = 0..n when b1 < 1, with the scales s_k (k! or 1/k!) and the pair
        symbols (a_j + a_k)_0 .. (a_j + a_k)_n in `pairs`.  The general form
        (b1 + 2k - 1)/(b1 + k - 1) (b1)_k keeps only b1's leading digits at
        k = 1 and divides by 0 once b1 < 2^-53, and the product of the pair
        symbols, each as small as a_j + a_k at k = 1, underflows.  So the
        integer part is added first, (b1)_{k-1} is the previous level's
        symbol, and the pair symbols divide one at a time: the largest left
        while the value is at least 1, else the smallest, so that a small
        pair sum meets the small (b1)_{k-1} before it is multiplied.  The
        ratio is positive, so it is formed from the moduli, in floats: a
        value past the double range reads inf, not a complex NaN."""
        b1_levels = pochhammer_levels(b1, len(scales) - 1)
        out = [1.0]
        for k in range(1, len(scales)):
            value = (2 * k - 1 + b1.real) * abs(b1_levels[k - 1]) * scales[k]
            rest = sorted(abs(pochs[k]) for pochs in pairs)
            while rest:
                value /= rest.pop() if value >= 1.0 else rest.pop(0)
            out.append(value)
        return tuple(out)


def _terms_below_one(k, b1, a1, t1_with, t2_pairs, b_pairs) -> tuple:
    """(t1, t2, b_k) of `QuadraticSpectrum._terms` at a level k >= 1 when
    b1 < 1.  There the general forms cancel at k = 1 and 2, where 2k + b1 - 2,
    k + b1 - 1 and k + b1 - 2 are b1 and k + a_j + a_k - 1 is a_j + a_k: left
    to right, 2 + b1 - 2 keeps only b1's leading digits and rounds to 0 once
    b1 < 2^-52.  So each factor adds its integer part first, and each factor
    2k - 2 + b1 of a denominator divides one of the smallest pair factors,
    so that tiny pair sums do not underflow before their quotient."""
    d = 2 * k - 2 + b1

    def pairs_over_d(pairs, m):
        # prod (k - 1 + a_j + a_k) / d^m
        sums = sorted((k - 1 + aj + ak for aj, ak in pairs), key=abs)
        return math.prod(v / d for v in sums[:m]) * math.prod(sums[m:])

    t1 = ((k - 1 + b1) * math.prod(k + a1 + aj for aj in t1_with)
          / ((2 * k - 1 + b1) * (2 * k + b1)))
    t2 = k * pairs_over_d(t2_pairs, 1) / (2 * k - 1 + b1)
    b_k = k * (k - 2 + b1) * pairs_over_d(b_pairs, 2) / ((2 * k - 3 + b1) * (2 * k - 1 + b1))
    return t1, t2, b_k


def log_2pi_gamma_pairs(sums, *over) -> float:
    """log(2 pi prod Gamma(sums) / prod Gamma(over)) from one log_gamma call;
    the pair sums a_j + a_k are conjugate pairs or positive."""
    logs = log_gamma(np.array([*sums, *over])).real
    return math.log(2.0 * math.pi) + logs[:len(sums)].sum() - logs[len(sums):].sum()


def three_term(a, b, c) -> tuple:
    """(A, B, C) of eta P_k = A_k P_{k+1} + B_k P_k + C_k P_{k-1} for k below
    len(a), from the real monic recurrence data: A_k = c_k / c_{k+1},
    B_k = a_k, C_k = b_k c_k / c_{k-1} and C_0 = 0 (it multiplies P_{-1} = 0)."""
    A = [c[k] / c[k + 1] for k in range(len(a))]
    C = [c[k] / c[k - 1] * b[k] if k else 0.0 for k in range(len(a))]
    return A, list(a), C


def real_parts(values) -> tuple:
    """The real parts of values, complex coefficients that are real but were
    formed from conjugate-closed parameters, as floats: ValidationError where
    an imaginary part exceeds 1e-10 max(1, |v|), more than rounding noise."""
    for v in values:
        # |Im v| > 1e-10 max(1, |v|) as two tests, the cheaper one first
        if abs(v.imag) > 1e-10 and abs(v.imag) > 1e-10 * abs(v):
            raise ValidationError(
                f"coefficient expected to be real, got {v} (imaginary part too large)")
    return tuple([v.real for v in values])


def require(cond: bool, message: str) -> None:
    if not cond:
        raise ValidationError(message)


def conjugate_closed(values, tol: float = 1e-12) -> bool:
    """Multiset {v*} == {v} within tol."""
    vals = [complex(v) for v in values]
    remaining = list(vals)
    for v in vals:
        target = v.conjugate()
        best = None
        best_d = tol * max(1.0, abs(target))
        for i, u in enumerate(remaining):
            d = abs(u - target)
            if d <= best_d:
                best = i
                best_d = d
        if best is None:
            return False
        remaining.pop(best)
    return True
