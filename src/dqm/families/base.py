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
from dataclasses import dataclass
from itertools import combinations

import numpy as np

__all__ = [
    "FamilyId",
    "ParamSet",
    "FamilySpec",
    "CoefficientBundle",
    "ClosurePolys",
    "ValidationError",
    "SingularityError",
    "Family",
    "elementary_symmetric",
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


@dataclass(frozen=True)
class FamilySpec:
    """Static description: coordinate kind, interval and shift structure."""

    id: FamilyId
    ks_tag: str
    eta_kind: str            # "x", "x^2" or "cos x"
    interval: tuple          # (0, inf) uses math.inf
    n_params: int            # number of lambda entries
    uses_q: bool
    uses_phi: bool
    param_names: tuple

    @property
    def name(self) -> str:
        return self.id.value


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


# ------------------------------------------------------ scalars and arrays

def as_complex(w):
    """w as a Python complex, or as a complex ndarray when w is an array.

    The pointwise methods take either through one expression: a scalar call
    runs exactly the scalar arithmetic, and an array stays numpy arithmetic.
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

    # -- parameters ---------------------------------------------------------
    def validate(self, p: ParamSet) -> None:
        raise NotImplementedError

    def shifted(self, p: ParamSet, k: int = 1) -> ParamSet:
        """Parameters at lambda + k*delta."""
        raise NotImplementedError

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

    def V_star(self, p: ParamSet, w) -> complex:
        """Analytic continuation of x -> V(x)^*: conj(V(conj(w)))."""
        return np.conj(self.V(p, as_complex(w).conjugate()))

    # -- spectral data ------------------------------------------------------
    def energy(self, p: ParamSet, n: int) -> float:
        raise NotImplementedError

    def closure(self, p: ParamSet) -> ClosurePolys:
        raise NotImplementedError

    # -- recurrence / normalisation ----------------------------------------
    def c_n(self, p: ParamSet, n: int) -> float:
        raise NotImplementedError

    def a_rec(self, p: ParamSet, n: int) -> float:
        raise NotImplementedError

    def b_rec(self, p: ParamSet, n: int) -> float:
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

    def h0_over_hn(self, p: ParamSet, n: int) -> float:
        raise NotImplementedError

    # -- eigenfunctions ------------------------------------------------------
    def log_amplitude(self, p: ParamSet, w):
        """A logarithm of g(w), the closed form of the ground state: phi0(x)
        = |g(x)| on the real axis, and g continues off it.  Scalar or array
        w; only exp() and the real part are used, so any branch will do."""
        raise NotImplementedError

    def phi0(self, p: ParamSet, x):
        """Ground-state weight function |g(x)|, vectorised over real x; a
        float at a scalar x."""
        x = np.asarray(x, dtype=float)
        out = np.exp(np.real(self.log_amplitude(p, x)))
        return float(out) if out.ndim == 0 else out

    def weight_square(self, p: ParamSet, w):
        """Analytic continuation of phi0(x)^2 to complex w, scalar or array:
        g(w) g*(w) with g*(w) = conj(g(conj w)).

        phi0 itself is a modulus and does not continue; its square does,
        which is what the shifted ground-state identity needs.
        """
        w = np.asarray(w, dtype=complex)
        out = np.exp(self.log_amplitude(p, w)
                     + np.conj(self.log_amplitude(p, np.conj(w))))
        return complex(out) if out.ndim == 0 else out

    def series_eval_x(self, p: ParamSet, n: int, x) -> complex:
        """Definitional hypergeometric series for P_n, evaluated at x."""
        raise NotImplementedError

    # -- assembled views ------------------------------------------------------
    def coefficients(self, p: ParamSet, n: int) -> CoefficientBundle:
        n = operator.index(n)  # a numpy integer would run b_rec in numpy arithmetic
        if n < 0:
            raise ValidationError(f"level must be >= 0, got {n}")
        c_n = self.c_n(p, n)
        c_np = self.c_n(p, n + 1)
        A_n = c_n / c_np
        B_n = self.a_rec(p, n)
        if n == 0:
            C_n = 0.0  # multiplies P_{-1} = 0
        else:
            C_n = c_n / self.c_n(p, n - 1) * self.b_rec(p, n)
        h0 = self.h0(p)
        h0_over_hn = self.h0_over_hn(p, n)
        return CoefficientBundle(
            n=n,
            E_n=self.energy(p, n),
            c_n=_as_real(c_n),
            a_n_rec=_as_real(B_n),
            b_n_rec=_as_real(self.b_rec(p, n)),
            A_n=_as_real(A_n),
            B_n=_as_real(B_n),
            C_n=_as_real(C_n),
            f_n=_as_real(self.f_shift(p, n)),
            b_n_shift=_as_real(self.b_shift(p, n)),
            h0=h0,
            h0_over_hn=h0_over_hn,
            N_n=math.sqrt(h0_over_hn),
        )


def _as_real(v) -> float:
    v = complex(v)
    scale = max(1.0, abs(v))
    if abs(v.imag) > 1e-10 * scale:
        raise ValidationError(
            f"coefficient expected to be real, got {v} (imaginary part too large)"
        )
    return v.real


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
