"""Difference operators on the shift lattice: the similarity-transformed
Hamiltonian, the forward/backward shift operators, the commutator
[H-tilde, eta], the ladder operators and the explicit parameter-shift
operators.

Every operator of the framework shifts its operand's argument by multiples
of i*gamma/2.  So an operand is evaluated once, as an array, on the lattice
w + k*i*gamma/2 (k = -K..K) over real points w (`Lattice`), and each
operator is a weighted sum of slices of that array.  The eigenpolynomials
P_0 .. P_n come from one pass of their three-term recurrence over every
level and lattice point (`Lattice.operand`).  Its output lives on the
lattice shrunk by the shifts it takes, two rows at each end for H-tilde and
one for F and B, so a composed operator is a composed array expression.
Arrays are laid out (..., 2K+1, points): the lattice rows, then the points,
with any leading axes (one row per level, say) broadcast through.

Every value carries the magnitude of the terms summed into it (`Terms`):
the same expression with |.| on every factor, which is running error
analysis in its simplest form (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., s. 3.3).  Round-off in a value is a few units of the
last place of its magnitude, however much its terms cancel.

Functions of the Hamiltonian are never inverted numerically; on
eigenfunction data they reduce to spectral scalars.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .families import ParamSet, SingularityError, get_family
from .polynomials import EtaPolynomial

__all__ = [
    "OperatorContext",
    "Lattice",
    "Terms",
    "per_level",
    "sample_points",
    "ladder_action",
    "lambda_shift_X",
    "rodrigues_polynomial",
]

SINGULAR_MARGIN = 1e-8


def _rows(a, k: int, half: int):
    """The rows of a (axis -2, centred) at lattice offsets k-half .. k+half."""
    c = (a.shape[-2] - 1) // 2
    return a[..., c + k - half:c + k + half + 1, :]


class Terms:
    """Values together with the magnitude of the terms summed into them.

    Arithmetic carries the magnitude as the same expression with |.| on
    every factor: a sum or a difference adds the magnitudes, a product
    multiplies them.  A plain number or array is a factor whose magnitude is
    its modulus.
    """

    __slots__ = ("val", "mag")
    __array_ufunc__ = None  # so that ndarray * Terms defers to Terms

    def __init__(self, val, mag=None):
        self.val = val
        self.mag = np.abs(val) if mag is None else mag

    @property
    def half(self) -> int:
        return (self.val.shape[-2] - 1) // 2

    def at(self, k: int, half: int = 0) -> "Terms":
        """The lattice rows at offsets k-half .. k+half of the centre."""
        return Terms(_rows(self.val, k, half), _rows(self.mag, k, half))

    def __getitem__(self, index) -> "Terms":
        return Terms(self.val[index], self.mag[index])

    def __add__(self, other) -> "Terms":
        other = _terms(other)
        return Terms(self.val + other.val, self.mag + other.mag)

    __radd__ = __add__

    def __sub__(self, other) -> "Terms":
        other = _terms(other)
        return Terms(self.val - other.val, self.mag + other.mag)

    def __rsub__(self, other) -> "Terms":
        return _terms(other) - self

    def __neg__(self) -> "Terms":
        return Terms(-self.val, self.mag)

    def __mul__(self, other) -> "Terms":
        other = _terms(other)
        return Terms(self.val * other.val, self.mag * other.mag)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Terms":
        other = _terms(other)
        return Terms(self.val / other.val, self.mag / np.abs(other.val))

    def conj(self) -> "Terms":
        return Terms(np.conj(self.val), self.mag)

    @property
    def real(self) -> "Terms":
        return Terms(np.real(self.val), self.mag)

    def sum(self, axis: int) -> "Terms":
        return Terms(self.val.sum(axis=axis), self.mag.sum(axis=axis))


def _terms(x) -> Terms:
    return x if isinstance(x, Terms) else Terms(x)


def per_level(values):
    """One value per level as a (levels, 1, 1) array, which broadcasts
    against (levels, rows, points) operands."""
    return np.reshape(np.asarray(values), (-1, 1, 1))


class Lattice:
    """The points w + k*i*gamma/2, k = -half..half, over real points w.

    `w` is the (2*half+1, points) array of the lattice; its centre row holds
    the real points.  eta and phi are evaluated on it once.
    """

    def __init__(self, family, gamma: float, xs, half: int):
        self.family = get_family(family)
        self.half = half
        k = np.arange(-half, half + 1)[:, None]
        self.w = np.asarray(xs, dtype=complex)[None, :] + (0.5j * gamma) * k

    def rows(self, half: int, k: int = 0):
        """w at the offsets k-half .. k+half."""
        return _rows(self.w, k, half)

    @cached_property
    def eta(self) -> Terms:
        return Terms(self.family.eta(self.w))

    @cached_property
    def phi(self) -> Terms:
        return Terms(self.family.phi_aux(self.w))

    def operand(self, poly: EtaPolynomial, half: int | None = None) -> Terms:
        """P_0 .. P_n of `poly` on the rows -half..half, from one pass of its
        recurrence: a (levels, 2*half+1, points) array."""
        eta = _rows(self.eta.val, 0, self.half if half is None else half)
        return Terms(poly.eval_levels(eta))


def _nonzero_phi(lat: Lattice, h: int) -> Terms:
    """phi on the rows -h..h, once no row point is within SINGULAR_MARGIN of
    a zero of phi."""
    phi = lat.phi.at(0, h)
    small = np.abs(phi.val) < SINGULAR_MARGIN
    if small.any():
        raise SingularityError(f"phi(x) vanishes at x = {lat.rows(h)[small][0]}")
    return phi


class OperatorContext:
    """Family + parameter bundle with the analytic ingredients of H-tilde."""

    def __init__(self, family, params: ParamSet):
        self.family = get_family(family)
        self.p = params
        self.gamma = self.family.gamma(params)
        self.kappa = self.family.kappa(params)
        self.closure = self.family.closure(params)

    def V(self, w) -> complex:
        return self.family.V(self.p, w)

    def V_star(self, w) -> complex:
        return self.family.V_star(self.p, w)

    def energy(self, n: int) -> float:
        return self.family.energy(self.p, n)

    def shifted(self, k: int = 1) -> "OperatorContext":
        return OperatorContext(self.family, self.family.shifted(self.p, k))

    def lattice(self, xs, half: int) -> Lattice:
        return Lattice(self.family, self.gamma, xs, half)

    # -- core difference operators ------------------------------------------
    # f is a Terms on a lattice of `lat`'s points; the result is a Terms on
    # the rows the shifts leave.
    def H_tilde(self, f: Terms, lat: Lattice) -> Terms:
        """V(w)(f(w - i gamma) - f(w)) + V*(w)(f(w + i gamma) - f(w))."""
        # for the cos-x group the shifts act on z = e^{ix} as z -> q^{+/-1} z;
        # evaluating at the literally shifted argument is the same thing,
        # since the coordinate functions are entire
        h = f.half - 2
        V, V_star = self._potential(lat, h)
        center = f.at(0, h)
        return V * (f.at(-2, h) - center) + V_star * (f.at(2, h) - center)

    def comm_H_eta(self, f: Terms, lat: Lattice) -> Terms:
        """[H-tilde, eta] f = V (eta(w - i gamma) - eta) f(w - i gamma) + mirror;
        the f(w) terms of H-tilde(eta f) - eta H-tilde f cancel exactly."""
        h = f.half - 2
        V, V_star = self._potential(lat, h)
        eta = lat.eta
        center = eta.at(0, h)
        return (V * (eta.at(-2, h) - center) * f.at(-2, h)
                + V_star * (eta.at(2, h) - center) * f.at(2, h))

    def forward(self, f: Terms, lat: Lattice) -> Terms:
        """Forward shift F(lambda): maps lambda-data down one level."""
        h = f.half - 1
        return 1j * (f.at(-1, h) - f.at(1, h)) / _nonzero_phi(lat, h)

    def backward(self, f: Terms, lat: Lattice) -> Terms:
        """Backward shift B(lambda): acts on data at lambda+delta."""
        h = f.half - 1
        V, V_star = self._potential(lat, h)
        phi = lat.phi
        return -1j * (V * phi.at(-1, h) * f.at(-1, h)
                      - V_star * phi.at(1, h) * f.at(1, h))

    def _potential(self, lat: Lattice, h: int):
        """V and V* on the rows -h..h, once no row point is inside the guard."""
        w = lat.rows(h)
        inside = self.inside_guard(w)
        if inside.any():
            raise SingularityError(f"potential singular near x = {w[inside][0]}")
        return Terms(self.V(w)), Terms(self.V_star(w))

    def inside_guard(self, w: np.ndarray) -> np.ndarray:
        """Where the points w lie within SINGULAR_MARGIN of a pole of V on
        the real line."""
        kind = self.family.spec.eta_kind
        if kind == "cos x":
            # poles of V at z^2 = 1, i.e. x = 0 mod pi
            return (np.abs(np.sin(w.real)) < SINGULAR_MARGIN) & (np.abs(w.imag) < SINGULAR_MARGIN)
        if kind == "x^2":
            return np.abs(w) < SINGULAR_MARGIN
        return np.zeros(w.shape, dtype=bool)


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


# ------------------------------------------- ladder and Rodrigues chain

def ladder_action(ctx: OperatorContext, sign: str, level, f: Terms,
                  lat: Lattice) -> Terms:
    """Annihilation/creation action on eigen-data at `level`: an int, or one
    level per leading row of f.

    The Heisenberg-solution form: a combination of [H,eta], eta and the
    closure polynomial R_{-1} evaluated at the level's energy.  a^(-) gives
    exact zeros at level 0, where C_0 multiplies P_{-1} = 0.
    """
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    n = np.ravel(level)
    e_dn, e_n, e_up = (np.array([ctx.energy(int(m)) for m in n + k], dtype=float)
                       for k in (-1, 0, 1))
    rm1 = ctx.closure.Rm1(e_n)
    if sign == "+":
        other, r, sgn = e_dn - e_n, rm1 / (e_up - e_n), 1.0
    else:
        live = n != 0
        other = e_up - e_n
        r = np.divide(rm1, e_dn - e_n, out=np.zeros_like(e_n), where=live)
        sgn = -1.0 * live
    shape = np.shape(level) + (1, 1)
    comm = ctx.comm_H_eta(f, lat)
    h = comm.half
    fw = f.at(0, h)
    return np.reshape(sgn / (e_up - e_dn), shape) * (
        comm - np.reshape(other, shape) * lat.eta.at(0, h) * fw + np.reshape(r, shape) * fw
    )


def rodrigues_polynomial(family, params: ParamSet, n: int, xs) -> Terms:
    """P_0 .. P_n(.;lambda) at the points xs, reconstructed by the backward-
    shift chains B(lambda) ... B(lambda+(m-1)delta) acting on the constant 1,
    each divided by the product of its b-constants.  A (n+1, 1, points)
    Terms.

    B(lambda+j*delta) is the same step of every chain longer than j, so the
    chains run as one stack: at step j the chain of level j+1 joins it with
    ones on the rows -(j+1)..(j+1), where every live chain then sits, and
    one backward shift acts on them all."""
    fam = get_family(family)
    lat = OperatorContext(fam, params).lattice(xs, n)
    f = Terms(np.ones((0,) + lat.w.shape, dtype=complex))
    for j in range(n - 1, -1, -1):
        p_j = fam.shifted(params, j)
        f = OperatorContext(fam, p_j).backward(_ones_first(f), lat) / per_level(
            [fam.b_shift(p_j, k) for k in range(n - j)])
    return _ones_first(f)


def _ones_first(f: Terms) -> Terms:
    """The stack f with one chain of ones on its rows put in front."""
    one = np.ones((1,) + f.val.shape[1:])
    return Terms(np.concatenate((one, f.val)), np.concatenate((one, f.mag)))


# --------------------------------------------------- lambda-shift operators

def lambda_shift_X(family, params: ParamSet, kind: str, levels, poly, xs) -> Terms:
    """Action of the explicit parameter-shift operators X / X-dagger.

    Supported: Meixner-Pollaczek at phi = pi/2 and the continuous dual Hahn
    family, the two cases with explicit difference-operator realisations.
    ``kind`` is "X" (operand at lambda) or "Xdag" (operand at lambda+delta).
    The operands are the given levels of `poly`'s recurrence (P_0 .. P_m,
    m >= every level), at the points xs; the result is a (levels, 1, points)
    Terms.
    """
    fam = get_family(family)
    name = fam.spec.name
    if name == "meixner-pollaczek":
        if abs(params.phi - math.pi / 2) > 1e-12:
            raise ValueError(
                f"explicit X for Meixner-Pollaczek needs phi = pi/2, got {params.phi}"
            )
        half = 1
    elif name == "continuous-dual-hahn":
        half = 3
    else:
        raise ValueError(
            f"no explicit lambda-shift operator implemented for {name}"
        )
    if kind not in ("X", "Xdag"):
        raise ValueError(f"kind must be 'X' or 'Xdag', got {kind!r}")
    levels = np.asarray(levels)
    ctx = OperatorContext(fam, params)
    lat = ctx.lattice(xs, half)
    f = lat.operand(poly)[levels]
    if name == "meixner-pollaczek":
        if kind == "X":
            return 0.25 * (f.at(-1) + f.at(1))
        V, V_star = ctx._potential(lat, 0)
        return 0.25 * (V * f.at(-1) + V_star * f.at(1))
    if kind == "X":
        return _dual_hahn_X(ctx, f, lat)
    return _dual_hahn_Xdag(ctx, levels, f, lat)


def _dual_hahn_X(ctx: OperatorContext, f: Terms, lat: Lattice) -> Terms:
    """Similarity-transformed explicit X for continuous dual Hahn."""
    pi3 = complex(1.0)
    for aj in ctx.p.a:
        pi3 *= 2.0 * aj - 1.0
    w = lat.rows(0)
    corr = Terms(1j * pi3 / (8.0 * (1.0 + w * w)))
    v_m = Terms(ctx.V(lat.rows(0, -1)))            # V(w - i/2)
    v_star_p = Terms(ctx.V_star(lat.rows(0, 1)))   # V*(w + i/2)
    c_plus = Terms(w) - 1j * v_star_p - corr
    c_minus = Terms(w) + 1j * v_m + corr
    return (
        -1j * v_m * f.at(-3)
        + c_plus * f.at(-1)
        + 1j * v_star_p * f.at(3)
        + c_minus * f.at(1)
    ) / _nonzero_phi(lat, 0)


def _dual_hahn_Xdag(ctx: OperatorContext, levels: np.ndarray, f: Terms,
                    lat: Lattice) -> Terms:
    """X-dagger action via its spectral decomposition.

    X-dagger = a^(-) B(lambda) (kappa H(lambda+delta) + E_1)^{-1}; the
    resolvent is the scalar 1/(kappa E_n(lambda+delta) + E_1(lambda)) on
    level-n data, and the rest is a composition of explicit operators.
    """
    fam = ctx.family
    p_shift = fam.shifted(ctx.p)
    scalar = per_level([
        1.0 / (ctx.kappa * fam.energy(p_shift, m) + ctx.energy(1)) for m in levels
    ])
    return scalar * ladder_action(ctx, "-", levels + 1, ctx.backward(f, lat), lat)
