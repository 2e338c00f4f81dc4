"""Pointwise application of the similarity-transformed Hamiltonian, the
forward/backward shift operators, commutators, ladder operators and the
explicit parameter-shift operators.

Everything acts on callables w -> complex (the polynomial part of a state,
analytically continued), so operators compose: the output of one application
is again a callable evaluable at complex arguments.  Functions of the
Hamiltonian are never inverted numerically; on eigenfunction data they
reduce to spectral scalars.

H-tilde also acts on arrays: at an ndarray w, with f returning one row per
level, it returns the (levels, points) array of the actions, and V(w)
broadcasts over the levels.  A scalar w runs the scalar arithmetic.

Composed operators revisit the same points many times (H-tilde of a ladder
output evaluates the ladder at x and x +/- i*gamma, and each of those
evaluates the operand at its own shifted points), so the operands built here
are memoised per point with `memo`: each value is computed once, by the same
arithmetic, and the memo is freed with the callable that owns it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .families import ParamSet, SingularityError, get_family
from .families.base import as_complex
from .polynomials import EtaPolynomial

__all__ = [
    "OperatorContext",
    "LadderContext",
    "SingularPointError",
    "sample_points",
    "apply_tilde_H",
    "apply_forward_shift",
    "apply_backward_shift",
    "commutator_H_eta",
    "apply_ladder",
    "lambda_shift_X",
    "rodrigues_polynomial",
    "memo",
]

SINGULAR_MARGIN = 1e-8


# a second name for the families' exception, for callers that import it here
SingularPointError = SingularityError


def memo(f):
    """f with its values kept per point, in a dict the returned callable owns.

    For pure f only: a repeated point returns the value computed the first
    time, so the arithmetic is unchanged and only repeated work is removed.
    """
    values = {}

    def memoised(w):
        try:
            return values[w]
        except KeyError:
            out = values[w] = f(w)
            return out

    return memoised


@dataclass(frozen=True)
class LadderContext:
    """Spectral scalars entering the ladder action at one level."""

    n: int
    E_n: float
    E_n_plus: float
    E_n_minus: float
    alpha_plus: float      # E_{n+1} - E_n
    alpha_minus: float     # E_{n-1} - E_n
    Rm1_at_En: float


class OperatorContext:
    """Family + parameter bundle with the analytic ingredients of H-tilde."""

    def __init__(self, family, params: ParamSet):
        self.family = get_family(family)
        self.p = params
        self.gamma = self.family.gamma(params)
        self.kappa = self.family.kappa(params)
        self.closure = self.family.closure(params)
        self.eta = memo(self.family.eta)
        self._ladder = {}

    def phi_aux(self, w) -> complex:
        return self.family.phi_aux(w)

    def V(self, w) -> complex:
        return self.family.V(self.p, w)

    def V_star(self, w) -> complex:
        return self.family.V_star(self.p, w)

    def energy(self, n: int) -> float:
        return self.family.energy(self.p, n)

    def shifted(self, k: int = 1) -> "OperatorContext":
        return OperatorContext(self.family, self.family.shifted(self.p, k))

    def poly_fn(self, poly: EtaPolynomial):
        eta = self.eta
        return memo(lambda w: poly.eval(eta(w)))

    def ladder_context(self, n: int) -> LadderContext:
        lc = self._ladder.get(n)
        if lc is None:
            e_n = self.energy(n)
            e_up = self.energy(n + 1)
            e_dn = self.energy(n - 1)
            lc = self._ladder[n] = LadderContext(
                n=n,
                E_n=e_n,
                E_n_plus=e_up,
                E_n_minus=e_dn,
                alpha_plus=e_up - e_n,
                alpha_minus=e_dn - e_n,
                Rm1_at_En=self.closure.Rm1(e_n),
            )
        return lc

    # -- core difference operators ------------------------------------------
    def H_tilde(self, f, w) -> complex:
        """V(x)(f(x-ig) - f(x)) + V*(x)(f(x+ig) - f(x)), at a scalar or an
        array w; f returns a scalar, or (levels, points) at an array."""
        w = as_complex(w)
        self._check_regular(w)
        # for the cos-x group the shifts act on z = e^{ix} as z -> q^{+/-1} z;
        # evaluating at the literally shifted argument is the same thing,
        # since the coordinate functions are entire
        g = self.gamma
        minus_shift = f(w + 1j * g)   # e^{-gamma p} direction
        plus_shift = f(w - 1j * g)    # e^{+gamma p} direction
        center = f(w)
        return self.V(w) * (plus_shift - center) + self.V_star(w) * (
            minus_shift - center
        )

    def comm_H_eta(self, f, w) -> complex:
        """[H-tilde, eta] f at w."""
        eta_f = lambda u: self.eta(u) * f(u)
        return self.H_tilde(eta_f, w) - self.eta(w) * self.H_tilde(f, w)

    def forward(self, f, w) -> complex:
        """Forward shift F(lambda): maps lambda-data down one level."""
        w = complex(w)
        g = self.gamma
        phi = self.phi_aux(w)
        if abs(phi) < SINGULAR_MARGIN:
            raise SingularityError(f"phi(x) vanishes at x = {w}")
        return 1j / phi * (f(w - 0.5j * g) - f(w + 0.5j * g))

    def backward(self, f, w) -> complex:
        """Backward shift B(lambda): acts on data at lambda+delta."""
        w = complex(w)
        self._check_regular(w)
        g = self.gamma
        return -1j * (
            self.V(w) * self.phi_aux(w - 0.5j * g) * f(w - 0.5j * g)
            - self.V_star(w) * self.phi_aux(w + 0.5j * g) * f(w + 0.5j * g)
        )

    def inside_guard(self, w):
        """True where w lies within SINGULAR_MARGIN of a pole of V on the
        real line; a bool for a scalar w, a boolean array for an array."""
        kind = self.family.spec.eta_kind
        if kind == "cos x":
            # poles of V at z^2 = 1, i.e. x = 0 mod pi
            s = np.sin(w.real) if isinstance(w, np.ndarray) else math.sin(w.real)
            return (abs(s) < SINGULAR_MARGIN) & (abs(w.imag) < SINGULAR_MARGIN)
        if kind == "x^2":
            return abs(w) < SINGULAR_MARGIN
        return np.zeros(w.shape, dtype=bool) if isinstance(w, np.ndarray) else False

    def _check_regular(self, w) -> None:
        inside = self.inside_guard(w)
        if inside is False:  # a scalar outside the guard, the common case
            return
        if isinstance(inside, np.ndarray):
            if not inside.any():
                return
            w = w[inside][0]
        raise SingularityError(f"potential singular near x = {w}")


def sample_points(family, params: ParamSet, count: int = 20, seed: int = 0):
    """Deterministic low-discrepancy points in the open interval.

    A golden-ratio sequence, keeping a margin of 1e-3 away from the
    potential's singularities and the zeros of phi(x).  Unbounded intervals
    are sampled on a fixed finite window where every identity is generic.
    """
    fam = get_family(family)
    lo, hi = fam.spec.interval
    margin = 1e-3
    if lo == -math.inf:
        lo, hi = -3.0, 3.0
    elif hi == math.inf:
        lo, hi = margin, 3.5
    else:
        lo, hi = lo + margin, hi - margin
    g = 0.6180339887498949
    offset = (0.17 + 0.31 * seed) % 1.0
    pts = []
    k = 0
    while len(pts) < count:
        t = (offset + k * g) % 1.0
        x = lo + t * (hi - lo)
        k += 1
        if lo < x < hi:
            pts.append(x)
    return pts


# ------------------------------------------------------------- spec surface

def _context_for(poly: EtaPolynomial, shift_back: int = 0) -> OperatorContext:
    if poly.family_id is None or poly.params is None:
        raise ValueError("polynomial carries no family context")
    fam = get_family(poly.family_id)
    p = fam.shifted(poly.params, shift_back) if shift_back else poly.params
    return OperatorContext(fam, p)


def apply_tilde_H(poly: EtaPolynomial, x) -> complex:
    """H-tilde applied to a polynomial, evaluated at x."""
    ctx = _context_for(poly)
    return ctx.H_tilde(ctx.poly_fn(poly), x)


def apply_forward_shift(poly: EtaPolynomial, x) -> complex:
    """F(lambda) on lambda-data: f_n P_{n-1}(eta; lambda+delta)."""
    ctx = _context_for(poly)
    return ctx.forward(ctx.poly_fn(poly), x)


def apply_backward_shift(poly_at_shifted_params: EtaPolynomial, x) -> complex:
    """B(lambda) on (lambda+delta)-data: b_n P_{n+1}(eta; lambda).

    The operator parameters are recovered by undoing one delta-shift of the
    polynomial's own parameter set.
    """
    ctx = _context_for(poly_at_shifted_params, shift_back=-1)
    return ctx.backward(ctx.poly_fn(poly_at_shifted_params), x)


def commutator_H_eta(poly: EtaPolynomial, x) -> complex:
    ctx = _context_for(poly)
    return ctx.comm_H_eta(ctx.poly_fn(poly), x)


def ladder_action(ctx: OperatorContext, sign: str, level: int, f, w) -> complex:
    """Annihilation/creation action on level-`level` eigen-data.

    The Heisenberg-solution form: a combination of [H,eta], eta and the
    closure polynomial R_{-1} evaluated at the level's energy.
    """
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    if sign == "-" and level == 0:
        return 0j  # C_0 multiplies P_{-1} = 0
    lc = ctx.ladder_context(level)
    comm = ctx.comm_H_eta(f, w)
    eta_w = ctx.eta(w)
    fw = f(w)
    span = lc.E_n_plus - lc.E_n_minus
    if sign == "+":
        val = comm - lc.alpha_minus * eta_w * fw + lc.Rm1_at_En / lc.alpha_plus * fw
        return val / span
    val = comm - lc.alpha_plus * eta_w * fw + lc.Rm1_at_En / lc.alpha_minus * fw
    return -val / span


def apply_ladder(sign: str, n: int, poly: EtaPolynomial, x) -> complex:
    """a^(+) P_n -> A_n P_{n+1}, a^(-) P_n -> C_n P_{n-1} (pointwise)."""
    ctx = _context_for(poly)
    return ladder_action(ctx, sign, n, ctx.poly_fn(poly), x)


def rodrigues_polynomial(family, params: ParamSet, n: int):
    """P_n(.;lambda) reconstructed by the n-fold backward-shift chain.

    Returns a callable built from B(lambda) ... B(lambda+(n-1)delta) acting
    on the constant 1, divided by the product of the b-constants.
    """
    fam = get_family(family)
    f = lambda w: 1.0 + 0j
    for j in range(n - 1, -1, -1):
        ctx_j = OperatorContext(fam, fam.shifted(params, j))
        b = fam.b_shift(fam.shifted(params, j), n - 1 - j)
        prev = f
        # memoised: the two branches of each backward shift meet again at
        # the same points, so unmemoised the chain costs 2^n evaluations
        f = memo((lambda g, c, bb: (lambda w: c.backward(g, w) / bb))(prev, ctx_j, b))
    return f


# --------------------------------------------------- lambda-shift operators

def lambda_shift_X(family, params: ParamSet, kind: str, n: int,
                   poly: EtaPolynomial, x) -> complex:
    """Action of the explicit parameter-shift operators X / X-dagger.

    Supported: Meixner-Pollaczek at phi = pi/2 and the continuous dual Hahn
    family, the two cases with explicit difference-operator realisations.
    ``kind`` is "X" (operand at lambda) or "Xdag" (operand at lambda+delta).
    """
    fam = get_family(family)
    name = fam.spec.name
    ctx = OperatorContext(fam, params)
    f = ctx.poly_fn(poly)
    if name == "meixner-pollaczek":
        if abs(params.phi - math.pi / 2) > 1e-12:
            raise ValueError(
                f"explicit X for Meixner-Pollaczek needs phi = pi/2, got {params.phi}"
            )
        w = complex(x)
        if kind == "X":
            return 0.25 * (f(w - 0.5j) + f(w + 0.5j))
        if kind == "Xdag":
            return 0.25 * (ctx.V(w) * f(w - 0.5j) + ctx.V_star(w) * f(w + 0.5j))
        raise ValueError(f"kind must be 'X' or 'Xdag', got {kind!r}")
    if name == "continuous-dual-hahn":
        if kind == "X":
            return _dual_hahn_X(ctx, f, complex(x))
        if kind == "Xdag":
            return _dual_hahn_Xdag(ctx, n, f, complex(x))
        raise ValueError(f"kind must be 'X' or 'Xdag', got {kind!r}")
    raise ValueError(
        f"no explicit lambda-shift operator implemented for {name}"
    )


def _dual_hahn_X(ctx: OperatorContext, f, w: complex) -> complex:
    """Similarity-transformed explicit X for continuous dual Hahn."""
    V = ctx.V
    Vs = ctx.V_star
    pi3 = complex(1.0)
    for aj in ctx.p.a:
        pi3 *= 2.0 * aj - 1.0
    corr = 1j * pi3 / (8.0 * (1.0 + w * w))
    c_plus = w - 1j * np.conj(V(np.conj(w) - 0.5j)) - corr
    c_minus = w + 1j * V(w - 0.5j) + corr
    phi = ctx.phi_aux(w)
    if abs(phi) < SINGULAR_MARGIN:
        raise SingularityError(f"phi(x) vanishes at x = {w}")
    return (
        -1j * V(w - 0.5j) * f(w - 1.5j)
        + c_plus * f(w - 0.5j)
        + 1j * Vs(w + 0.5j) * f(w + 1.5j)
        + c_minus * f(w + 0.5j)
    ) / phi


def _dual_hahn_Xdag(ctx: OperatorContext, n: int, f, w: complex) -> complex:
    """X-dagger action via its spectral decomposition.

    X-dagger = a^(-) B(lambda) (kappa H(lambda+delta) + E_1)^{-1}; the
    resolvent is the scalar 1/(kappa E_n(lambda+delta) + E_1(lambda)) on
    level-n data, and the rest is a composition of explicit operators.
    """
    fam = ctx.family
    p_shift = fam.shifted(ctx.p)
    scalar = 1.0 / (
        ctx.kappa * fam.energy(p_shift, n) + ctx.energy(1)
    )
    b_out = memo(lambda u: ctx.backward(f, u))  # level n+1 data at lambda
    val = ladder_action(ctx, "-", n + 1, b_out, w)
    return scalar * val
