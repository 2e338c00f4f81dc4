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

An `OperatorContext` is one (family, parameters) pair.  It evaluates what
its operators read once and keeps it while it lives: V and V* with their
singularity guard per lattice and rows, E_n per level and the closure
polynomials once first read.  Every operator takes the caller's context,
(ctx, ..., f, lat), and a step to lambda + k*delta is `ctx.shifted(k)`.
Each suite call makes one context, so no value is kept from one call to
the next.

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
import weakref
from functools import cached_property

import numpy as np

from .families import ClosurePolys, ParamSet, SingularityError, get_family
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

# |phi| below this marks a singular point: within 1e-8 of a zero of phi, as
# |phi'| = 2 at every real zero
SINGULAR_PHI = 2e-8


def _rows(a, k: int, half: int):
    """The rows of a (axis -2, centred) at lattice offsets k-half .. k+half;
    a is an array or a Terms."""
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
    def shape(self) -> tuple:
        return self.val.shape

    @property
    def half(self) -> int:
        return (self.val.shape[-2] - 1) // 2

    def at(self, k: int, half: int = 0) -> "Terms":
        """The lattice rows at offsets k-half .. k+half of the centre."""
        return _rows(self, k, half)

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

    def __rmul__(self, other) -> "Terms":
        # the left factor stays left: a complex product rounds by operand
        # order where it fuses a multiply into an add
        return _terms(other) * self

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
        if np.any(np.imag(xs)):
            raise ValueError("lattice points must be real")
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

    def nonzero_phi(self, h: int) -> Terms:
        """phi on the rows -h..h, once no row point has |phi| < SINGULAR_PHI."""
        phi = self.phi.at(0, h)
        small = np.abs(phi.val) < SINGULAR_PHI
        if small.any():
            raise SingularityError(f"phi(x) vanishes at x = {self.rows(h)[small][0]}")
        return phi

    def operand(self, poly: EtaPolynomial, half: int | None = None) -> Terms:
        """P_0 .. P_n of `poly` on the rows -half..half, from one pass of its
        recurrence: a (levels, 2*half+1, points) array."""
        eta = _rows(self.eta.val, 0, self.half if half is None else half)
        return Terms(poly.eval_levels(eta))


class OperatorContext:
    """Family + parameter bundle with the analytic ingredients of H-tilde.

    A context evaluates each ingredient once and keeps it while it lives:
    E_n per level, V and V* with their guard per (lattice, rows), and the
    closure polynomials from their first read.  A suite call makes one
    context, hands it to every operator it applies and drops it, so no
    value outlives the call, and a family method replaced between two calls
    is read afresh by the second.
    """

    def __init__(self, family, params: ParamSet):
        self.family = get_family(family)
        self.p = params
        self.gamma = self.family.gamma(params)
        self.kappa = self.family.kappa(params)
        self._energies = {}
        # {h: (V, V*)} per lattice; an entry is dropped with its lattice
        self._potentials = weakref.WeakKeyDictionary()

    @cached_property
    def closure(self) -> ClosurePolys:
        return self.family.closure(self.p)

    def energy(self, n: int) -> float:
        e = self._energies.get(n)
        if e is None:
            e = self._energies[n] = self.family.energy(self.p, n)
        return e

    def energies(self, levels) -> np.ndarray:
        """E_n at each of the levels, one scalar `Family.energy` call per
        level: numpy's power is not libm's pow, so E_n over an array of
        levels may differ in the last place."""
        return np.array([self.energy(int(n)) for n in levels], dtype=float)

    def shifted(self, k: int = 1) -> "OperatorContext":
        """The context at lambda + k*delta; self where the shift leaves the
        parameters as they are (every family at k = 0, q-Hermite at any k)."""
        p = self.family.shifted(self.p, k)
        return self if p == self.p else OperatorContext(self.family, p)

    def lattice(self, xs, half: int) -> Lattice:
        return Lattice(self.family, self.gamma, xs, half)

    # -- core difference operators ------------------------------------------
    # f is a Terms on a lattice of `lat`'s points; the result is a Terms on
    # the rows the shifts leave.
    def H_tilde(self, f, lat: Lattice):
        """V(w)(f(w - i gamma) - f(w)) + V*(w)(f(w + i gamma) - f(w)); f is
        a Terms, or a plain array for the values alone."""
        # for the cos-x group the shifts act on z = e^{ix} as z -> q^{+/-1} z;
        # evaluating at the literally shifted argument is the same thing,
        # since the coordinate functions are entire
        h = (f.shape[-2] - 1) // 2 - 2
        V, V_star = self.potential(lat, h)
        center = _rows(f, 0, h)
        return V * (_rows(f, -2, h) - center) + V_star * (_rows(f, 2, h) - center)

    def comm_H_eta(self, f: Terms, lat: Lattice) -> Terms:
        """[H-tilde, eta] f = V (eta(w - i gamma) - eta) f(w - i gamma) + mirror;
        the f(w) terms of H-tilde(eta f) - eta H-tilde f cancel exactly."""
        h = f.half - 2
        V, V_star = self.potential(lat, h)
        eta = lat.eta
        center = eta.at(0, h)
        return (V * (eta.at(-2, h) - center) * f.at(-2, h)
                + V_star * (eta.at(2, h) - center) * f.at(2, h))

    def forward(self, f: Terms, lat: Lattice) -> Terms:
        """Forward shift F(lambda): maps lambda-data down one level."""
        h = f.half - 1
        return 1j * (f.at(-1, h) - f.at(1, h)) / lat.nonzero_phi(h)

    def backward(self, f: Terms, lat: Lattice) -> Terms:
        """Backward shift B(lambda): acts on data at lambda+delta."""
        h = f.half - 1
        V, V_star = self.potential(lat, h)
        phi = lat.phi
        return -1j * (V * phi.at(-1, h) * f.at(-1, h)
                      - V_star * phi.at(1, h) * f.at(1, h))

    def potential(self, lat: Lattice, h: int):
        """V and V* on the rows -h..h of lat as plain arrays, once no row
        point is inside the guard; V*(w) = conj(V(conj w)) is V's rows
        mirrored and conjugated.  A product with a Terms takes |V| as its
        magnitude.

        V is evaluated and guarded on the rows asked for, once per lattice:
        a later call reads the kept arrays, or their centre rows where they
        are wider.  V evaluates point by point, so those rows are the values
        an evaluation on them alone gives."""
        kept = self._potentials.setdefault(lat, {})
        wider = min((k for k in kept if k >= h), default=None)
        if wider is not None:
            V, V_star = kept[wider]
            return _rows(V, 0, h), _rows(V_star, 0, h)
        w = lat.rows(h)
        inside = self.inside_guard(w)
        if inside.any():
            raise SingularityError(f"potential singular near x = {w[inside][0]}")
        V = self.family.V(self.p, w)
        kept[h] = V, np.conj(V[..., ::-1, :])
        return kept[h]

    def inside_guard(self, w: np.ndarray) -> np.ndarray:
        """Where |phi(w)| < SINGULAR_PHI, the bound of `Lattice.nonzero_phi`.  V's
        denominator is phi(x) phi(x - i gamma/2) up to a factor that never
        vanishes, so on the real line the poles of V are the zeros of phi."""
        return np.abs(self.family.phi_aux(w)) < SINGULAR_PHI


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
    closure polynomial R_{-1} evaluated at the level's energy, over E_{n+1} -
    E_{n-1}.  a^(-) gives exact zeros at level 0, where C_0 multiplies P_{-1}
    = 0.  Where E_1 = E_{-1} (b1 = 1, e4 = q) level 0 reads 0/0 and takes its
    limit, a^(+)phi_0 = [H,eta]phi_0 / (E_1 - E_0) and a^(-)phi_0 = 0.
    """
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    n = np.ravel(level)
    e_dn, e_n, e_up = (ctx.energies(n + k) for k in (-1, 0, 1))
    rm1 = ctx.closure.Rm1(e_n)
    if sign == "+":
        other, r, sgn = e_dn - e_n, rm1 / (e_up - e_n), 1.0
    else:
        live = n != 0
        other = e_up - e_n
        r = np.divide(rm1, e_dn - e_n, out=np.zeros_like(e_n), where=live)
        sgn = -1.0 * live
    den = e_up - e_dn
    flat = den == 0  # only ever at level 0
    if flat.any():
        other, r = np.where(flat, 0.0, other), np.where(flat, 0.0, r)
        den = np.where(flat, e_up - e_n, den)
    shape = np.shape(level) + (1, 1)
    comm = ctx.comm_H_eta(f, lat)
    h = comm.half
    fw = f.at(0, h)
    return np.reshape(sgn / den, shape) * (
        comm - np.reshape(other, shape) * lat.eta.at(0, h) * fw + np.reshape(r, shape) * fw
    )


def rodrigues_polynomial(ctx: OperatorContext, n: int, xs) -> Terms:
    """P_0 .. P_n(.;lambda) at the points xs, lambda ctx's parameters, by
    the backward-shift chains B(lambda) ... B(lambda+(m-1)delta) acting on
    the constant 1, each divided by the product of its b-constants.  A
    (n+1, 1, points) Terms.

    B(lambda+j*delta) is the same step of every chain longer than j, so the
    chains run as one stack: at step j the chain of level j+1 joins it with
    ones on the rows -(j+1)..(j+1), where every live chain then sits, and
    one backward shift, by `ctx.shifted(j)`, acts on them all."""
    lat = ctx.lattice(xs, n)
    f = Terms(np.ones((0,) + lat.w.shape, dtype=complex))
    for j in range(n - 1, -1, -1):
        step = ctx.shifted(j)
        f = step.backward(_ones_first(f), lat) / per_level(
            [ctx.family.b_shift(step.p, k) for k in range(n - j)])
    return _ones_first(f)


def _ones_first(f: Terms) -> Terms:
    """The stack f with one chain of ones on its rows put in front."""
    one = np.ones((1,) + f.val.shape[1:])
    return Terms(np.concatenate((one, f.val)), np.concatenate((one, f.mag)))


# --------------------------------------------------- lambda-shift operators

def lambda_shift_X(ctx: OperatorContext, kind: str, levels, f: Terms,
                   lat: Lattice) -> Terms:
    """Action of the explicit parameter-shift operators X ("X", operand at
    lambda) or X-dagger ("Xdag", operand at lambda+delta) where the family
    has them (`Family.lambda_shift`).  f is one operand per level on the
    rows -half..half of lat, half the `LambdaShift`'s; the result is a
    (levels, 1, points) Terms."""
    shift = ctx.family.lambda_shift(ctx.p)
    action = None if shift is None else {"X": shift.X, "Xdag": shift.Xdag}.get(kind)
    if action is None:
        raise ValueError(f"no explicit lambda-shift operator {kind!r} for "
                         f"{ctx.family.spec.name} at {ctx.p.as_dict()}")
    return action(ctx, np.asarray(levels), f, lat)
