"""Orthogonality matrices against the ground-state weight and the two
sesquilinear forms of the hermiticity check.

Each interval has one rule, refined level by level until two successive
levels agree.  (0, pi) takes composite Gauss-Legendre, its panels doubling
from 2 to 512.  The two unbounded intervals take double-exponential rules
(Takahasi & Mori 1974, Publ. RIMS 9:721; Mori & Sugihara 2001, J. Comput.
Appl. Math. 127:287) centred on the peak c of the weight w = phi0^2 and
scaled by its width s (`weight_window`):

    (-inf, inf)   sinh-sinh   x = c + s sinh(pi/2 sinh t)
    (0, inf)      tanh-sinh on [0, c] plus exp-sinh x = c + s e^{pi/2 sinh t}

with t in [-T_MAX, T_MAX] and the step halving from 0.5.  The weight enters
as log w - log h0 from `Family.log_amplitude` and `Family.log_h0`, so a
weight or a norm beyond the double range costs nothing: the Gram matrix and
the forms come out in units of h0.  Nodes where the node weight times w/h0
underflows to zero are dropped.

Each refinement level is one node set, shared by every integral computed on
it: the Gram matrix takes all its entries from one evaluation of the weight
and one pass of the three-term recurrence for P_0..P_n per level, and
`hermiticity_forms` takes both forms of all its pairs from one weight
evaluation per level and one application of H-tilde to the polynomials'
values on the shift lattice of the nodes.  A level is accepted when every
one of its integrals passes the per-integral stopping test.  The
hermiticity sums run over blocks of at most NODE_BLOCK nodes, so the
transient arrays stay small at any depth.  Nodes inside the operator's
singularity guard around the poles of V (exponentially close to an interval
end) are masked out of the hermiticity sums, that is, counted as zero: the
weight has crushed the integrand there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .families import ParamSet, eval_poly_recurrence, get_family
from .operators import OperatorContext, Terms

__all__ = [
    "ToleranceNotMet",
    "OrthoMatrix",
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
LEVELS = 9            # refinement levels of every rule
T_MAX = 4.0           # the double-exponential rules run over t in [-T_MAX, T_MAX]

# nodes per block of the hermiticity sums: bounds the transient
# (polynomials, lattice rows, nodes) arrays whatever the refinement depth
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
def _de_grid(level: int):
    """u = pi/2 sinh t and the step times du/dt on the t grid of one level."""
    h = 0.5 / 2**level
    t = h * np.arange(-round(T_MAX / h), round(T_MAX / h) + 1)
    return 0.5 * math.pi * np.sinh(t), h * 0.5 * math.pi * np.cosh(t)


def _tanh_sinh(a: float, b: float, level: int):
    """Tanh-sinh (nodes, weights) on [a, b]; the nodes keep their full
    relative accuracy near both ends."""
    u, du = _de_grid(level)
    d = (b - a) / (1.0 + np.exp(2.0 * np.abs(u)))  # distance to the nearer end
    return np.where(u < 0.0, a + d, b - d), 0.5 * (b - a) * du / np.cosh(u) ** 2


@lru_cache(maxsize=16)
def _gauss_legendre(level: int):
    """Composite 32-point Gauss-Legendre on (0, pi) with 2^(level+1) panels."""
    xs, ws = np.polynomial.legendre.leggauss(32)
    edges = np.linspace(0.0, math.pi, 2 ** (level + 1) + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * np.diff(edges)
    return ((mids[:, None] + halves[:, None] * xs[None, :]).ravel(),
            (halves[:, None] * ws[None, :]).ravel())


def weight_window(family, p: ParamSet):
    """(c, s): the peak c of log w = 2 Re log_amplitude on an unbounded
    interval and the width s = (-(log w)''(c))^(-1/2) there.

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
    """Per refinement level of the family's rule: the nodes, their
    quadrature weights and log w - log h0 there."""
    lo, hi = fam.spec.interval
    if hi == math.inf:
        c, s = weight_window(fam, p)
    log_h0 = fam.log_h0(p)
    for level in range(LEVELS):
        u, du = _de_grid(level)
        if hi != math.inf:
            x, dx = _gauss_legendre(level)
        elif lo == -math.inf:
            x, dx = c + s * np.sinh(u), s * np.cosh(u) * du
        else:
            e = s * np.exp(u)
            x0, dx0 = _tanh_sinh(0.0, c, level)
            x, dx = np.concatenate([x0, c + e]), np.concatenate([dx0, e * du])
        log_w = 2.0 * np.real(fam.log_amplitude(p, x)) - log_h0
        keep = dx * np.exp(log_w) != 0.0  # a NaN stays, and fails the level
        yield x[keep], dx[keep], log_w[keep]


def _converged(err, value, l1):
    """The per-integral stopping test, elementwise over arrays of integrals:
    |delta| <= ABS_TOL max(1, |value|), or below the cancellation floor
    1e-14 L1 that the integrand's L1 mass sets in doubles."""
    return err <= np.maximum(ABS_TOL * np.maximum(1.0, np.abs(value)), 1e-14 * l1)


@dataclass(frozen=True)
class OrthoMatrix:
    """Unit-normalised Gram matrix of phi_0 P_n against phi_0 P_m:
    entries N_nm = (phi0 P_n, phi0 P_m) / sqrt(h_n h_m), the identity in
    exact arithmetic."""

    entries: np.ndarray          # (n_max+1, n_max+1), real
    log_norms: tuple             # log h_n from the closed forms


def orthogonality_matrix(family, p: ParamSet, n_max: int = 6) -> OrthoMatrix:
    """Quadrature Gram matrix for levels 0..n_max on shared nodes."""
    fam = get_family(family)
    if n_max > 8:
        raise ValueError(f"n_max <= 8 (quadrature accuracy budget), got {n_max}")
    poly = eval_poly_recurrence(fam, p, n_max)
    ratios = np.array([fam.h0_over_hn(p, n) for n in range(n_max + 1)])
    unit = np.sqrt(ratios)  # sqrt(h0/h_n): the weight is already over h0

    prev = None
    err = math.inf
    for nodes, weights, log_w in _levels(fam, p):
        vals = unit[:, None] * poly.eval_levels(fam.eta(nodes))
        g = np.real(np.einsum("k,ik,jk->ij", weights * np.exp(log_w), np.conj(vals), vals))
        gram = 0.5 * (g + g.T)  # the form is symmetric; remove summation noise
        if prev is not None:
            err = float(np.max(np.abs(gram - prev)))
            if err <= ABS_TOL * max(1.0, float(np.max(np.abs(gram)))):
                break
        prev = gram
    else:
        raise ToleranceNotMet(f"Gram refinement stalled at {err:.3e}", err)
    return OrthoMatrix(entries=gram, log_norms=tuple(fam.log_h0(p) - np.log(ratios)))


def hermiticity_forms(family, p: ParamSet, P, Q):
    """The two sesquilinear forms ((g, Hf), (Hg, f)) with f = phi0 P, g = phi0 Q,
    in units of h0.

    P and Q are two equal-length sequences of EtaPolynomials; the forms of
    every pair (P[i], Q[i]) come back as two Terms over the pairs, each with
    the l1 sum of its integrand as its magnitude.  Both forms go through the
    polynomial-level Hamiltonian: (g, Hf) = int phi0^2 conj(Q) (H-tilde P),
    and its mirror image.
    """
    Ps, Qs = tuple(P), tuple(Q)
    if len(Ps) != len(Qs):
        raise ValueError(f"{len(Ps)} polynomials P against {len(Qs)} Q")
    # each distinct polynomial is one row of the (polynomials, nodes) arrays
    polys = tuple({id(poly): poly for poly in Ps + Qs}.values())
    row = {id(poly): i for i, poly in enumerate(polys)}
    ip = [row[id(poly)] for poly in Ps]
    iq = [row[id(poly)] for poly in Qs]

    fam = get_family(family)
    ctx = OperatorContext(fam, p)

    prev = None
    err = math.inf
    for nodes, weights, log_w in _levels(fam, p):
        # nodes inside the operator's singularity guard count as zero
        keep = ~ctx.inside_guard(nodes)
        nodes = nodes[keep]
        wp = (weights * np.exp(log_w))[keep]
        value = np.zeros((2, len(Ps)), dtype=complex)
        l1 = np.zeros((2, len(Ps)))
        for lo in range(0, nodes.size, NODE_BLOCK):
            x = nodes[lo:lo + NODE_BLOCK]
            wx = wp[lo:lo + NODE_BLOCK]
            lat = ctx.lattice(x, 2)
            f = Terms(np.array([poly.eval(lat.eta.val) for poly in polys]))
            vals = f.val[:, 2]
            h = ctx.H_tilde(f, lat).val[:, 0]
            terms = np.stack([np.conj(vals[iq]) * h[ip], np.conj(h[iq]) * vals[ip]])
            value += terms @ wx
            l1 += np.abs(terms) @ np.abs(wx)
        if prev is not None:
            delta = np.abs(value - prev)
            err = float(delta.max())
            if _converged(delta, value, l1).all():
                return Terms(value[0], l1[0]), Terms(value[1], l1[1])
        prev = value
    raise ToleranceNotMet(
        f"hermiticity forms stalled at estimated error {err:.3e} > {ABS_TOL:.3e}",
        err,
    )
