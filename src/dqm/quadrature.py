"""Inner products against the ground-state weight, orthogonality matrices
and the numerical hermiticity check.

Infinite intervals are reduced to a finite window outside of which the
weight is below truncation_threshold times its maximum, then integrated
with a tanh-sinh (double-exponential) rule; (0, pi) uses composite
Gauss-Legendre with panel doubling by default.  Both rules report an error
estimate from their final refinement step.

Each refinement level is one node set, shared by every integral computed on
it: the Gram matrix takes all its entries from one evaluation of phi0^2 and
of P_0..P_n per level, and `hermiticity_forms` takes both forms of all its
pairs from one phi0^2 per level and one application of H-tilde to the
(polynomials, nodes) array.  A level is accepted when every one of its
integrals passes the per-integral stopping test.  The hermiticity sums run
over blocks of at most NODE_BLOCK nodes, so the transient arrays stay small
at any depth.  Nodes inside the operator's singularity guard around the
poles of V (exponentially close to an interval end) are masked out of the
hermiticity sums, that is, counted as zero: the weight has crushed the
integrand there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .families import ParamSet, get_family
from .operators import OperatorContext
from .polynomials import EtaPolynomial

__all__ = [
    "QuadratureSpec",
    "ToleranceNotMet",
    "OrthoMatrix",
    "integrate",
    "inner_product",
    "orthogonality_matrix",
    "hermiticity_check",
    "hermiticity_forms",
]


class ToleranceNotMet(RuntimeError):
    """Refinement stalled above the requested tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(message)
        self.achieved = achieved


@dataclass(frozen=True)
class QuadratureSpec:
    """Rule selection and tolerances.

    rule "auto" follows the per-interval default: double-exponential for the
    two unbounded intervals, composite Gauss-Legendre on (0, pi).
    """

    rule: str = "auto"
    abs_tol: float = 1e-10        # relative beyond order-one magnitudes
    truncation_threshold: float = 1e-18

    def __post_init__(self):
        if self.abs_tol <= 0:
            raise ValueError(f"abs_tol must be positive, got {self.abs_tol}")
        if self.rule not in ("auto", "double-exponential", "gauss-legendre-composite"):
            raise ValueError(f"unknown quadrature rule {self.rule!r}")


DEFAULT_SPEC = QuadratureSpec()

# nodes per block of the hermiticity sums: bounds the transient
# (polynomials, nodes) arrays whatever the refinement depth
NODE_BLOCK = 1024


def _call_vectorized(f, x: np.ndarray) -> np.ndarray:
    """f at the nodes x as a complex array of x's shape; f must be vectorised."""
    out = np.asarray(f(x), dtype=complex)
    if out.shape != x.shape:
        raise ValueError(
            f"integrand returned shape {out.shape} at nodes of shape {x.shape}; "
            "it must take and return arrays"
        )
    return out


@lru_cache(maxsize=32)
def _tanh_sinh_nodes(level: int, t_max: float = 3.6):
    h = 1.0 / 2**level
    k = np.arange(-int(t_max / h), int(t_max / h) + 1)
    t = k * h
    u = 0.5 * math.pi * np.sinh(t)
    x = np.tanh(u)                       # in (-1, 1)
    w = h * 0.5 * math.pi * np.cosh(t) / np.cosh(u) ** 2
    keep = w > 1e-300
    return x[keep], w[keep]


@lru_cache(maxsize=8)
def _gl_nodes(order: int = 32):
    return np.polynomial.legendre.leggauss(order)


def _node_levels(use_gl: bool, a: float, b: float, first_ts_level: int = 2):
    """(nodes, weights) on [a, b] at each refinement level of one rule.

    Composite Gauss-Legendre doubles its panels from 2 to 512; tanh-sinh
    halves its step from level first_ts_level to level 10.
    """
    if use_gl:
        xs0, ws0 = _gl_nodes()
        panels = 2
        for _ in range(9):
            edges = np.linspace(a, b, panels + 1)
            mids = 0.5 * (edges[:-1] + edges[1:])
            halves = 0.5 * np.diff(edges)
            yield (
                (mids[:, None] + halves[:, None] * xs0[None, :]).ravel(),
                (halves[:, None] * ws0[None, :]).ravel(),
            )
            panels *= 2
    else:
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        for level in range(first_ts_level, 11):
            xs, ws = _tanh_sinh_nodes(level)
            yield mid + half * xs, half * ws


def _converged(err, value, l1, spec: QuadratureSpec):
    """The per-integral stopping test, elementwise over arrays of integrals:
    |delta| <= abs_tol max(1, |value|), or below the cancellation floor
    1e-14 L1 that the integrand's L1 mass sets in doubles."""
    return err <= np.maximum(spec.abs_tol * np.maximum(1.0, np.abs(value)), 1e-14 * l1)


def _integrate(f, levels, spec: QuadratureSpec):
    prev = None
    err = math.inf
    for nodes, weights in levels:
        vals = _call_vectorized(f, nodes)
        value = np.sum(weights * vals)
        if prev is not None:
            err = abs(value - prev)
            l1 = float(np.sum(np.abs(weights) * np.abs(vals)))
            if _converged(err, value, l1, spec):
                return complex(value), float(err)
        prev = value
    raise ToleranceNotMet(
        f"quadrature refinement stalled at estimated error {err:.3e} > {spec.abs_tol:.3e}",
        float(err),
    )


def _use_gl(family, spec: QuadratureSpec) -> bool:
    if spec.rule == "gauss-legendre-composite":
        return True
    if spec.rule == "double-exponential":
        return False
    return get_family(family).spec.interval == (0.0, math.pi)


def integrate(f, a: float, b: float, spec: QuadratureSpec = DEFAULT_SPEC):
    """Integrate a (vectorised) callable over [a, b]; returns (value, err)."""
    use_gl = spec.rule == "gauss-legendre-composite"
    return _integrate(f, _node_levels(use_gl, a, b), spec)


def weight_window(family, p: ParamSet, spec: QuadratureSpec = DEFAULT_SPEC,
                  poly_degree: int = 8):
    """Finite [a, b] outside of which the weight times a degree bound on the
    polynomial factor drops below truncation_threshold of its maximum.

    The polynomial growth matters: phi0^2 alone can be negligible at a point
    where phi0^2 eta^{2n} still contributes at the working accuracy.
    """
    fam = get_family(family)
    lo, hi = fam.spec.interval
    if lo == 0.0 and hi == math.pi:
        return 0.0, math.pi
    if lo == -math.inf:
        grid = np.linspace(-120.0, 120.0, 4801)
    else:
        grid = np.linspace(0.0, 150.0, 6001)
    w = np.asarray(fam.phi0(p, grid), dtype=float) ** 2
    eta2 = np.abs(fam.eta_vec(grid)) ** 2
    with np.errstate(divide="ignore"):
        log_bound = np.log(w) + poly_degree * np.log1p(eta2)
    top = float(np.max(log_bound))
    keep = np.nonzero(log_bound >= top + math.log(spec.truncation_threshold))[0]
    pad = 2.0
    a = float(grid[keep[0]]) - pad
    b = float(grid[keep[-1]]) + pad
    if lo == 0.0:
        a = max(a, 0.0)
    return a, b


def inner_product(family, p: ParamSet, F, G,
                  spec: QuadratureSpec = DEFAULT_SPEC) -> complex:
    """(F, G) = integral of conj(F(x)) G(x) over the family's interval.

    The integrands must be dominated by the ground-state weight's decay;
    the integration window is truncated accordingly.
    """
    fam = get_family(family)
    a, b = weight_window(fam, p, spec)

    def integrand(x):
        return np.conj(_call_vectorized(F, x)) * _call_vectorized(G, x)

    value, _err = _integrate(integrand, _node_levels(_use_gl(fam, spec), a, b), spec)
    return value


@dataclass(frozen=True)
class OrthoMatrix:
    """Gram matrix of phi_0 P_n against phi_0 P_m, with the expected norms."""

    entries: np.ndarray          # (n_max+1, n_max+1), real
    expected_diag: tuple         # h_n values from the closed forms
    max_offdiag_rel: float       # max |entry_nm| / sqrt(h_n h_m), n != m


def orthogonality_matrix(family, p: ParamSet, n_max: int = 6,
                         spec: QuadratureSpec = DEFAULT_SPEC) -> OrthoMatrix:
    """Quadrature Gram matrix for levels 0..n_max on shared nodes."""
    from .families import eval_poly_recurrence

    fam = get_family(family)
    if n_max > 8:
        raise ValueError(f"n_max <= 8 (quadrature accuracy budget), got {n_max}")
    a, b = weight_window(fam, p, spec)
    polys = [eval_poly_recurrence(fam, p, n) for n in range(n_max + 1)]
    h0 = fam.h0(p)
    expected = tuple(h0 / fam.h0_over_hn(p, n) for n in range(n_max + 1))

    def gram_at(nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
        w2 = np.asarray(fam.phi0(p, nodes), dtype=float) ** 2
        eta = fam.eta_vec(nodes)
        vals = np.array([poly.eval(eta) for poly in polys])
        wp = weights * w2
        g = np.real(np.einsum("k,ik,jk->ij", wp, np.conj(vals), vals))
        return 0.5 * (g + g.T)  # the form is symmetric; remove summation noise

    prev = None
    err = math.inf
    for nodes, weights in _node_levels(_use_gl(fam, spec), a, b, first_ts_level=3):
        gram = gram_at(nodes, weights)
        if prev is not None:
            err = float(np.max(np.abs(gram - prev)))
            if err <= spec.abs_tol * max(1.0, float(np.max(np.abs(gram)))):
                break
        prev = gram
    else:
        raise ToleranceNotMet(f"Gram refinement stalled at {err:.3e}", err)

    scale = np.sqrt(np.outer(expected, expected))
    off = np.abs(gram) / scale
    np.fill_diagonal(off, 0.0)
    return OrthoMatrix(
        entries=gram,
        expected_diag=expected,
        max_offdiag_rel=float(off.max()),
    )


def hermiticity_forms(family, p: ParamSet, P, Q,
                      spec: QuadratureSpec = DEFAULT_SPEC):
    """The two sesquilinear forms ((g, Hf), (Hg, f)) with f = phi0 P, g = phi0 Q.

    P and Q are two EtaPolynomials, or two equal-length sequences of them;
    for sequences the forms of every pair (P[i], Q[i]) come back as two
    arrays.  Both forms go through the polynomial-level Hamiltonian:
    (g, Hf) = int phi0^2 conj(Q) (H-tilde P), and its mirror image.
    """
    one = isinstance(P, EtaPolynomial)
    Ps, Qs = ((P,), (Q,)) if one else (tuple(P), tuple(Q))
    if len(Ps) != len(Qs):
        raise ValueError(f"{len(Ps)} polynomials P against {len(Qs)} Q")
    # each distinct polynomial is one row of the (polynomials, nodes) arrays
    polys = tuple({id(poly): poly for poly in Ps + Qs}.values())
    row = {id(poly): i for i, poly in enumerate(polys)}
    ip = [row[id(poly)] for poly in Ps]
    iq = [row[id(poly)] for poly in Qs]

    fam = get_family(family)
    ctx = OperatorContext(fam, p)
    a, b = weight_window(fam, p, spec)

    def rows(eta):
        return np.array([poly.eval(eta) for poly in polys])

    prev = None
    err = math.inf
    for nodes, weights in _node_levels(_use_gl(fam, spec), a, b):
        # nodes inside the operator's singularity guard count as zero
        keep = ~ctx.inside_guard(nodes)
        nodes = nodes[keep]
        wp = weights[keep] * np.asarray(fam.phi0(p, nodes), dtype=float) ** 2
        value = np.zeros((2, len(Ps)), dtype=complex)
        l1 = np.zeros((2, len(Ps)))
        for lo in range(0, nodes.size, NODE_BLOCK):
            x = nodes[lo:lo + NODE_BLOCK]
            wx = wp[lo:lo + NODE_BLOCK]
            vals = rows(fam.eta_vec(x))
            h = ctx.H_tilde(lambda w: rows(fam.eta(w)), x)
            terms = np.stack([np.conj(vals[iq]) * h[ip], np.conj(h[iq]) * vals[ip]])
            value += terms @ wx
            l1 += np.abs(terms) @ np.abs(wx)
        if prev is not None:
            delta = np.abs(value - prev)
            err = float(delta.max())
            if _converged(delta, value, l1, spec).all():
                if one:
                    return complex(value[0, 0]), complex(value[1, 0])
                return value[0], value[1]
        prev = value
    raise ToleranceNotMet(
        f"hermiticity forms stalled at estimated error {err:.3e} > {spec.abs_tol:.3e}",
        err,
    )


def hermiticity_check(family, p: ParamSet, P: EtaPolynomial, Q: EtaPolynomial,
                      spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """|(g,Hf) - (Hg,f)| / (1 + |(g,Hf)|)."""
    v_lhs, v_rhs = hermiticity_forms(family, p, P, Q, spec)
    return abs(v_lhs - v_rhs) / (1.0 + abs(v_lhs))
