"""Inner products against the ground-state weight, orthogonality matrices
and the numerical hermiticity check.

Infinite intervals are reduced to a finite window outside of which the
weight is below truncation_threshold times its maximum, then integrated
with a tanh-sinh (double-exponential) rule; (0, pi) uses composite
Gauss-Legendre with panel doubling by default.  Both rules report an error
estimate from their final refinement step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .families import ParamSet, SingularityError, get_family
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


def _call_vectorized(f, x: np.ndarray) -> np.ndarray:
    try:
        out = f(x)
        out = np.asarray(out, dtype=complex)
        if out.shape == x.shape:
            return out
    except Exception:
        pass
    return np.array([f(float(v)) for v in x], dtype=complex)


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


def _integrate_tanh_sinh(f, a: float, b: float, spec: QuadratureSpec):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    prev = None
    value = 0j
    err = math.inf
    for level in range(2, 11):
        xs, ws = _tanh_sinh_nodes(level)
        vals = _call_vectorized(f, mid + half * xs)
        value = half * np.sum(ws * vals)
        if prev is not None:
            err = abs(value - prev)
            # the L1 mass sets the cancellation floor reachable in doubles
            floor = 1e-14 * abs(half) * float(np.sum(ws * np.abs(vals)))
            if err <= max(spec.abs_tol * max(1.0, abs(value)), floor):
                return complex(value), float(err)
        prev = value
    raise ToleranceNotMet(
        f"tanh-sinh stalled at estimated error {err:.3e} > {spec.abs_tol:.3e}",
        float(err),
    )


@lru_cache(maxsize=8)
def _gl_nodes(order: int = 32):
    return np.polynomial.legendre.leggauss(order)


def _integrate_gl_composite(f, a: float, b: float, spec: QuadratureSpec):
    xs0, ws0 = _gl_nodes()
    prev = None
    value = 0j
    err = math.inf
    panels = 2
    for _ in range(9):
        edges = np.linspace(a, b, panels + 1)
        total = 0j
        l1 = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            mid = 0.5 * (lo + hi)
            half = 0.5 * (hi - lo)
            vals = _call_vectorized(f, mid + half * xs0)
            total += half * np.sum(ws0 * vals)
            l1 += half * float(np.sum(ws0 * np.abs(vals)))
        value = total
        if prev is not None:
            err = abs(value - prev)
            if err <= max(spec.abs_tol * max(1.0, abs(value)), 1e-14 * l1):
                return complex(value), float(err)
        prev = value
        panels *= 2
    raise ToleranceNotMet(
        f"Gauss-Legendre refinement stalled at {err:.3e} > {spec.abs_tol:.3e}",
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
    if spec.rule == "gauss-legendre-composite":
        return _integrate_gl_composite(f, a, b, spec)
    return _integrate_tanh_sinh(f, a, b, spec)


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

    if _use_gl(fam, spec):
        value, _err = _integrate_gl_composite(integrand, a, b, spec)
    else:
        value, _err = _integrate_tanh_sinh(integrand, a, b, spec)
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
    use_gl = _use_gl(fam, spec)

    def gram_at(nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
        w2 = np.asarray(fam.phi0(p, nodes), dtype=float) ** 2
        eta = fam.eta_vec(nodes)
        vals = np.array([poly.eval(eta) for poly in polys])
        wp = weights * w2
        g = np.real(np.einsum("k,ik,jk->ij", wp, np.conj(vals), vals))
        return 0.5 * (g + g.T)  # the form is symmetric; remove summation noise

    prev = None
    gram = None
    err = math.inf
    if use_gl:
        xs0, ws0 = _gl_nodes()
        panels = 2
        for _ in range(9):
            edges = np.linspace(a, b, panels + 1)
            mids = 0.5 * (edges[:-1] + edges[1:])
            halves = 0.5 * np.diff(edges)
            nodes = (mids[:, None] + halves[:, None] * xs0[None, :]).ravel()
            weights = (halves[:, None] * ws0[None, :]).ravel()
            gram = gram_at(nodes, weights)
            if prev is not None:
                err = float(np.max(np.abs(gram - prev)))
                if err <= spec.abs_tol * max(1.0, float(np.max(np.abs(gram)))):
                    break
            prev = gram
            panels *= 2
        else:
            raise ToleranceNotMet(
                f"Gram refinement stalled at {err:.3e}", err
            )
    else:
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        for level in range(3, 11):
            xs, ws = _tanh_sinh_nodes(level)
            gram = gram_at(mid + half * xs, half * ws)
            if prev is not None:
                err = float(np.max(np.abs(gram - prev)))
                if err <= spec.abs_tol * max(1.0, float(np.max(np.abs(gram)))):
                    break
            prev = gram
        else:
            raise ToleranceNotMet(
                f"Gram refinement stalled at {err:.3e}", err
            )

    scale = np.sqrt(np.outer(expected, expected))
    off = np.abs(gram) / scale
    np.fill_diagonal(off, 0.0)
    return OrthoMatrix(
        entries=gram,
        expected_diag=expected,
        max_offdiag_rel=float(off.max()),
    )


def hermiticity_forms(family, p: ParamSet, P: EtaPolynomial, Q: EtaPolynomial,
                      spec: QuadratureSpec = DEFAULT_SPEC):
    """The two sesquilinear forms ((g, Hf), (Hg, f)) with f = phi0 P, g = phi0 Q.

    Both are computed through the polynomial-level Hamiltonian:
    (g, Hf) = int phi0^2 conj(Q) (H-tilde P) and its mirror image.
    """
    fam = get_family(family)
    ctx = OperatorContext(fam, p)
    a, b = weight_window(fam, p, spec)
    # not ctx.poly_fn: quadrature nodes are never revisited, so a per-point
    # memo would only hold every node's values until the forms return
    fP = lambda w: P.eval(fam.eta(w))
    fQ = lambda w: Q.eval(fam.eta(w))

    def h_applied(f, x):
        # nodes exponentially close to an interval end can sit inside the
        # operator's singularity guard, or on the pole of V itself; the weight
        # has already crushed the contribution there, so count it as zero
        out = np.empty(x.shape, dtype=complex)
        for i, v in enumerate(x):
            try:
                out[i] = ctx.H_tilde(f, float(v))
            except SingularityError:
                out[i] = 0.0
        return out

    def lhs(x):
        w2 = np.asarray(fam.phi0(p, x), dtype=float) ** 2
        eta = fam.eta_vec(x)
        return w2 * np.conj(Q.eval(eta)) * h_applied(fP, x)

    def rhs(x):
        w2 = np.asarray(fam.phi0(p, x), dtype=float) ** 2
        eta = fam.eta_vec(x)
        return w2 * np.conj(h_applied(fQ, x)) * P.eval(eta)

    if _use_gl(fam, spec):
        v_lhs, _ = _integrate_gl_composite(lhs, a, b, spec)
        v_rhs, _ = _integrate_gl_composite(rhs, a, b, spec)
    else:
        v_lhs, _ = _integrate_tanh_sinh(lhs, a, b, spec)
        v_rhs, _ = _integrate_tanh_sinh(rhs, a, b, spec)
    return v_lhs, v_rhs


def hermiticity_check(family, p: ParamSet, P: EtaPolynomial, Q: EtaPolynomial,
                      spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """|(g,Hf) - (Hg,f)| / (1 + |(g,Hf)|)."""
    v_lhs, v_rhs = hermiticity_forms(family, p, P, Q, spec)
    return abs(v_lhs - v_rhs) / (1.0 + abs(v_lhs))
