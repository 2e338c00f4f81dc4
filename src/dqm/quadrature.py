"""The unit-normalised matrices (phi0 P_n, A phi0 P_m) / sqrt(h_n h_m)
over every pair of levels 0..n_max: the Gram matrix G (A the identity) and
K = (phi0 P_n, H phi0 P_m) (A = H, applied as H-tilde to the polynomials).
The mirror form (H phi0 P_n, phi0 P_m) is conj(K_mn), so hermiticity is
K = K^H and the spectrum is diag(K) = E_n.

Every interval runs one nested trapezoid ladder in t, halving the step
until two levels agree.  A level adds the odd multiples of its step, so
its sums are half the last ones plus those over its new nodes, and no
node is evaluated twice.  The ladder is evaluated a pass at a time: the
first pass holds levels 0 and 1 (FIRST_PASS), since the first comparison
needs both, and every later pass one level.  The interval picks only the
map x(t):

    (0, pi)                sin^2       x = t - sin(2t)/2
    (-inf, inf)            sinh-sinh   x = c + s sinh(pi/2 sinh t)
    (0, inf), s >= 0.1 c   exp-sinh    x = (c + s) e^{pi/2 sinh t}
    (0, inf), s < 0.1 c    tanh-sinh on [0, c] plus exp-sinh x = c + s e^{pi/2 sinh t}

On (0, pi) the cos-x integrands P_n(cos x) |g(x)|^2 are even, 2 pi-periodic
and analytic, where the trapezoid rule converges geometrically (Trefethen
& Weideman 2014, SIAM Rev. 56:385).  Sidi's map (Numerical Integration IV,
ISNM 112, 1993, 359), dx = 2 sin^2 t dt, keeps them so and gives the ends
weight 0, so w(0) != 0 (q-Laguerre `edge`) needs no end node.  The step
runs from pi/64 to pi/16384: at n_max 8, the verify default, every cos-x
fixture matrix is accepted at pi/128 (one at pi/256; at n_max 30, pi/256),
so pi/64 is its first comparison.  The first node lies (2/3) h^3 from an
end, inside the singularity guard (below) from step pi/2048 on.

The double-exponential rules (Takahasi & Mori 1974, Publ. RIMS 9:721; Mori
& Sugihara 2001, J. Comput. Appl. Math. 127:287) run over [-T_MAX, T_MAX]
at steps 1/32 to 1/512, placed by the peak c of w = phi0^2 and its width s
(`weight_window`).  They crowd their nodes towards the interval's ends,
not onto the peak, and exp-sinh's relative spacing dx/x is finest at
t = 0, about pi/2 times the step.  So one exp-sinh rule stalls on a peak
narrower than about 3 % of its distance from 0, as a conjugate pair
a = r +- i m puts one about r wide at x = m; below s/c = NARROW_PEAK the
rule splits at c into two pieces that crowd their nodes onto c.  The
fixtures have s/c = 0.45 to 0.54, and their 16 G and K matrices are
accepted at step 1/64 at n_max 8, the verify default, and 1/128 to 1/256
at n_max 30, so 1/32 is their first comparison and the first pass holds
all an n_max 8 matrix needs.  At n_max 1 they would be accepted at 1/32;
the 1/32 start takes them to 1/64, one level more than a coarser start.

The weight enters as log w - log h0 (`Family.log_amplitude`, `log_h0`), so
weights and norms beyond the double range cost nothing; `_levels` forms
each node's weight dx w / h0 once and drops those that underflow to zero.
`_matrix` computes both matrices: per pass it evaluates the weight and
P_0 .. P_n once on the pass's nodes, by one pass of their recurrence on
their shift lattice, in blocks of at most NODE_BLOCK nodes, and applies A
to them as plain arrays.  It then sums each level over its own nodes, in
blocks of at most NODE_BLOCK counted from the level's start, so a level
sums to the same bits in a pass of two as in a pass of its own, and stops
when every entry, with the l1 sum of its integrand, passes `_converged`.
Nodes inside the operator's singularity guard around the poles of V (at
an interval end) count as zero: the weight has crushed the integrand
there.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .families import ParamSet, eval_poly_recurrence, get_family
from .operators import OperatorContext, Terms, per_level

__all__ = [
    "ToleranceNotMet",
    "weight_window",
    "orthogonality_matrix",
    "hermiticity_forms",
]


class ToleranceNotMet(RuntimeError):
    """Refinement stalled above the requested tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(message)
        self.achieved = achieved


ABS_TOL = 1e-10       # the stopping tolerance, relative beyond order-one magnitudes
SIN2_LEVELS = 9       # levels of the sin^2 ladder on (0, pi): steps pi/64 .. pi/16384
DE_LEVELS = 5         # levels of the double-exponential rules: steps 1/32 .. 1/512
T_MAX = 4.0           # the double-exponential rules run over t in [-T_MAX, T_MAX]
NARROW_PEAK = 0.1     # on (0, inf), a peak with s < NARROW_PEAK c splits the rule at c
FIRST_PASS = 2        # levels of a ladder's first pass: the first comparison needs two

# nodes per block of the evaluations and the sums: bounds the transient
# (levels, lattice rows, nodes) arrays whatever the refinement depth
NODE_BLOCK = 512


# no dqm code calls this: its one reader is perfbench/spans.py, which traces it
def _call_vectorized(f, x: np.ndarray) -> np.ndarray:
    """f at the nodes x as a complex array of x's shape; f must be vectorised."""
    out = np.asarray(f(x), dtype=complex)
    if out.shape != x.shape:
        raise ValueError(
            f"integrand returned shape {out.shape} at nodes of shape {x.shape}; "
            "it must take and return arrays"
        )
    return out


@lru_cache(maxsize=16)
def _sin2_grid(level: int):
    """x = t - sin(2t)/2 and h dx/dt = 2 h sin^2 t at the t = h k in (0, pi)
    that a level adds: h = pi/64 / 2^level, every k at level 0, odd k past it."""
    h = math.pi / 64 / 2**level
    t = h * np.arange(1, 64 * 2**level, 2 if level else 1)
    return t - 0.5 * np.sin(2.0 * t), 2.0 * h * np.sin(t) ** 2


@lru_cache(maxsize=16)
def _de_grid(level: int):
    """u = pi/2 sinh t and h du/dt at the t = h k in [-T_MAX, T_MAX] that a
    level adds: h = 1/32 / 2^level, every k at level 0, odd k past it."""
    h = 0.03125 / 2**level
    n = round(T_MAX / h)  # even at every level
    t = h * (np.arange(1 - n, n, 2) if level else np.arange(-n, n + 1))
    return 0.5 * math.pi * np.sinh(t), h * 0.5 * math.pi * np.cosh(t)


def _tanh_sinh(a: float, b: float, u, du):
    """Tanh-sinh (nodes, weights) on [a, b] at the t grid points (u, du);
    the nodes keep their full relative accuracy near both ends."""
    d = (b - a) / (1.0 + np.exp(2.0 * np.abs(u)))  # distance to the nearer end
    return np.where(u < 0.0, a + d, b - d), 0.5 * (b - a) * du / np.cosh(u) ** 2


def weight_window(family, p: ParamSet):
    """(c, s): the peak c of log w = 2 Re log_amplitude on an unbounded
    interval and the width s = (-(log w)''(c))^(-1/2) there, which place
    and, on (0, inf), pick the rules of the module docstring's table.

    The peak is the largest of log w on a geometric grid +-(1e-3 .. 1e5)
    and 0, refined three times on 33 points between the neighbours of the
    best one.  The width is a second difference, taken first at the grid
    step around the peak and then at the width it gives.
    """
    fam = get_family(family)
    lo, hi = fam.spec.interval
    if hi != math.inf:
        raise ValueError(f"{fam.spec.name}: the window is for unbounded intervals")

    def log_w(x):
        return 2.0 * np.real(fam.log_amplitude(p, x))

    def around_peak(x):
        k = int(np.nanargmax(log_w(x)))
        return np.linspace(x[max(k - 1, 0)], x[min(k + 1, x.size - 1)], 33)

    pos = np.geomspace(1e-3, 1e5, 161)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = around_peak(np.concatenate(
            [-pos[::-1], [0.0], pos] if lo == -math.inf else [[0.0], pos]))
        s = 0.5 * float(x[-1] - x[0])
        for _ in range(3):
            x = around_peak(x)
        c = float(x[16])
        for _ in range(2):
            h = s if lo == -math.inf else min(s, 0.5 * c)
            f = log_w(np.array([c - h, c, c + h]))
            s = float(h / np.sqrt(2.0 * f[1] - f[0] - f[2]))
    return c, s


def _levels(fam, p: ParamSet):
    """Per pass of the family's ladder: the nodes its levels add, their
    weights dx w / h0 and the end of each level among them.  The first pass
    holds levels 0 .. FIRST_PASS - 1, every later pass one level.  A level's
    sums are half the last level's plus those over its own nodes."""
    lo, hi = fam.spec.interval
    if hi == math.inf:
        c, s = weight_window(fam, p)

    def added(level):
        """x and dx at the t nodes the level adds."""
        if hi != math.inf:
            return _sin2_grid(level)
        u, du = _de_grid(level)
        if lo == -math.inf:
            return c + s * np.sinh(u), s * np.cosh(u) * du
        if s < NARROW_PEAK * c:
            e = s * np.exp(u)
            x0, dx0 = _tanh_sinh(0.0, c, u, du)
            return np.concatenate([x0, c + e]), np.concatenate([dx0, e * du])
        x = (c + s) * np.exp(u)
        return x, x * du

    log_h0 = fam.log_h0(p)
    top = DE_LEVELS if hi == math.inf else SIN2_LEVELS
    passes = [range(FIRST_PASS)] + [range(k, k + 1) for k in range(FIRST_PASS, top)]
    for levels in passes:
        grids = [added(level) for level in levels]
        x, dx = (np.concatenate(parts) for parts in zip(*grids))
        wx = dx * np.exp(2.0 * np.real(fam.log_amplitude(p, x)) - log_h0)
        keep = wx != 0.0  # a NaN stays, and fails its level
        ends = np.cumsum([xl.size for xl, _ in grids])
        yield x[keep], wx[keep], _kept(keep, ends)


def _kept(keep, ends):
    """A pass's level ends once its nodes are masked by keep."""
    return np.concatenate([[0], np.cumsum(keep)])[ends]


def _converged(err, value, l1):
    """The per-integral stopping test, elementwise over arrays of integrals:
    |delta| <= ABS_TOL max(1, |value|), or below the cancellation floor
    1e-14 L1 that the integrand's L1 mass sets in doubles."""
    return err <= np.maximum(ABS_TOL * np.maximum(1.0, np.abs(value)), 1e-14 * l1)


def _matrix(fam, p: ParamSet, n_max: int, half: int, act) -> Terms:
    """(phi0 P_n, A phi0 P_m) / sqrt(h_n h_m) over levels n, m = 0..n_max,
    with the l1 sum of its integrand as its magnitude.

    A is given on the polynomials: act(ctx, f, lat) maps their values f, a
    plain array on the rows -half..half of the lattice lat, to the values of
    phi0^-1 A phi0 f on its centre row, ctx being the context of (fam, p)."""
    ctx = OperatorContext(fam, p)
    poly = eval_poly_recurrence(fam, p, n_max)
    # sqrt(h0/h_n): the weight is already over h0
    ratios = fam.h0_over_hn_levels(p, n_max)
    for n, ratio in enumerate(ratios):
        if not math.isfinite(ratio):
            raise ValueError(f"h0/h_{n} = {ratio} is not finite in doubles, "
                             f"so the quadrature cannot normalise P_{n}")
    unit = per_level(np.sqrt(ratios))
    value, l1 = np.zeros((n_max + 1,) * 2, dtype=complex), np.zeros((n_max + 1,) * 2)
    prev = None
    err = math.inf
    for nodes, weights, ends in _levels(fam, p):
        # nodes inside the operator's singularity guard count as zero
        keep = ~ctx.inside_guard(nodes)
        nodes, weights, ends = nodes[keep], weights[keep], _kept(keep, ends)
        # P_n and A P_n on the centre row at every node of the pass
        f0 = np.empty((n_max + 1, nodes.size), dtype=complex)
        g = np.empty_like(f0)
        for lo in range(0, nodes.size, NODE_BLOCK):
            block = slice(lo, lo + NODE_BLOCK)
            lat = ctx.lattice(nodes[block], half)
            f = unit * poly.eval_levels(fam.eta(lat.w))
            g[:, block] = act(ctx, f, lat)[:, 0]
            f0[:, block] = f[:, half]
        # each level's sums over its own nodes, in blocks from its start
        for start, end in zip([0, *ends[:-1]], ends):
            # new arrays, not in place: prev is the last level's value
            value, l1 = 0.5 * value, 0.5 * l1
            for lo in range(start, end, NODE_BLOCK):
                block = slice(lo, min(lo + NODE_BLOCK, end))
                wx = weights[block]
                value += np.conj(f0[:, block]) @ (g[:, block] * wx).T
                l1 += np.abs(f0[:, block]) @ (np.abs(g[:, block]) * np.abs(wx)).T
            if prev is not None:
                delta = np.abs(value - prev)
                err = float(delta.max())
                if _converged(delta, value, l1).all():
                    return Terms(value, l1)
            prev = value
    raise ToleranceNotMet(
        f"quadrature stalled at estimated error {err:.3e} > {ABS_TOL:.3e}", err)


def orthogonality_matrix(family, p: ParamSet, n_max: int) -> Terms:
    """The unit-normalised Gram matrix G_nm = (phi0 P_n, phi0 P_m) /
    sqrt(h_n h_m), the identity in exact arithmetic."""
    return _matrix(get_family(family), p, n_max, 0, lambda ctx, f, lat: f)


def hermiticity_forms(family, p: ParamSet, n_max: int) -> Terms:
    """K_nm = (phi0 P_n, H phi0 P_m) / sqrt(h_n h_m) = int phi0^2 conj(P_n)
    (H-tilde P_m) / sqrt(h_n h_m), which is E_n delta_nm in exact arithmetic.
    The mirror form (H phi0 P_n, phi0 P_m) is conj(K_mn)."""
    # read at the call, so that a method patched onto the class is applied
    return _matrix(get_family(family), p, n_max, 2, OperatorContext.H_tilde)
