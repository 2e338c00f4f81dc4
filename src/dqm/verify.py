"""Named verification suites: every identity of the framework is exercised
by exactly one suite.

Suites: eigen, shape_invariance, closure, dual_closure, shifts, ladder,
coherent, orthogonality, hermiticity, limit, number_operator.

The seven pointwise suites (eigen to coherent) evaluate each operand once,
as a (levels, lattice rows, points) array on the shift lattice of the
sample points (`operators.Lattice`), and apply the operators to it as array
expressions that carry the magnitude of the terms they sum
(`operators.Terms`).  Each of their checks is one (check_id, lhs, rhs)
entry judged by one rule, |lhs - rhs| / (1 + mag(lhs) + mag(rhs)), at its
worst over levels and points, with a NaN failing the check.  Every
tolerance lives in TOLERANCES.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .families import (
    FamilyId,
    ParamSet,
    aw_to_wilson_scaled,
    eval_poly_recurrence,
    get_family,
)
from .families.base import _as_real
from .operators import (
    Lattice,
    OperatorContext,
    Terms,
    ladder_action,
    lambda_shift_X,
    per_level,
    rodrigues_polynomial,
    sample_points,
)
from .quadrature import hermiticity_forms, orthogonality_matrix
from .specfun import log_q_pochhammer_inf

__all__ = [
    "SUITES",
    "TOLERANCES",
    "VerifyConfig",
    "CheckResult",
    "CoherentStateEval",
    "run_suite",
    "check_shape_invariance",
    "check_coherent",
    "check_number_operator",
    "check_limit_aw_wilson",
]

@dataclass(frozen=True)
class VerifyConfig:
    n_max: int = 8
    samples: int = 20
    seed: int = 0
    alpha: complex | None = None       # coherent-state eigenvalue
    L_sequence: tuple = (20.0, 40.0, 80.0)
    tol_override: float | None = None


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    family: str
    params: dict
    level_range: tuple
    max_residual: float
    tolerance: float
    passed: bool
    samples_used: int

    @staticmethod
    def build(check_id, fam, p, levels, residual, tol, samples) -> "CheckResult":
        return CheckResult(
            check_id=check_id,
            family=fam.spec.name,
            params=p.as_dict(),
            level_range=levels,
            max_residual=float(residual),
            tolerance=float(tol),
            passed=bool(residual <= tol),
            samples_used=int(samples),
        )


@dataclass(frozen=True)
class CoherentStateEval:
    alpha: complex
    truncation_N: int
    partial_sum: complex
    closed_form: complex | None
    annihilation_residual: float
    tail_estimate: float


# The tolerance of every check.  A pointwise check's tolerance is 10 times
# the largest residual it reads over verify seeds 0-99 on the bundled
# fixtures, rounded up to two figures, or an earlier, tighter value; a
# tolerance is never loosened.  The quadrature checks (orthogonality and
# hermiticity) take the same rule over the fixtures and the random parameter
# sets of tools/sweep_domain.py.  `python3 tools/sweep_tolerances.py` and
# `python3 tools/sweep_domain.py` print those residuals.  None may be looser
# than its entry in perfbench/checks.py, which fails a report with a looser
# one.
TOLERANCES = {
    "eigen.eigenvalue_equation": 2.5e-13,
    "eigen.lower_triangularity": 7.8e-12,
    "shape_invariance.potential_identities": 5.3e-13,
    "shape_invariance.ground_state_shift": 5.5e-13,
    "shape_invariance.spectrum_generation": 3.1e-15,
    "closure.double_commutator": 1.6e-14,
    "closure.expanded_conditions": 2.4e-14,
    "closure.coordinate_condition": 7.2e-16,
    "dual_closure.double_commutator": 1.1e-15,
    "shifts.forward_action": 3.8e-14,
    "shifts.backward_action": 2.6e-13,
    "shifts.factorization": 2e-13,
    "shifts.energy_factorization": 1.2e-15,
    "shifts.rodrigues_chain": 5.6e-14,
    "shifts.lambda_shift_x": 1.7e-14,
    "ladder.level_actions": 2.9e-14,
    "ladder.hamiltonian_commutator": 2.7e-14,
    "ladder.pair_commutator": 6.4e-15,
    "ladder.q_deformed_commutator": 8.6e-15,
    "ladder.q_oscillator_pair": 9.9e-16,
    "ladder.shape_invariance_q_oscillator": 7.6e-14,
    "ladder.level_diagonal_operator": 7e-14,
    "coherent.annihilation_eigenvector": 2.1e-13,
    "coherent.closed_form": 4.6e-11,
    "orthogonality.diagonal_norms": 3.1e-12,
    "orthogonality.off_diagonal": 2.5e-12,
    "hermiticity.symmetric_form": 4.3e-13,
    "hermiticity.diagonal_energy": 2.6e-13,
    "limit.monotone_decrease": 1.0,
    "limit.extrapolated_deviation": 1e-2,
    "number_operator.inversion": 1e-10,
}


def _worst(worst: float, residual: float) -> float:
    """max(worst, residual), except that a NaN on either side wins.

    max() drops a NaN residual (max(0.0, nan) is 0.0), which would let a
    check pass on a value that is not a number.
    """
    return residual if residual > worst or residual != residual else worst


def _tol(config: VerifyConfig, check_id: str) -> float:
    if config.tol_override is not None:
        return config.tol_override
    return TOLERANCES[check_id]


def _residual(lhs, rhs) -> float:
    """max |lhs - rhs| / (1 + mag(lhs) + mag(rhs)) over the entries of two
    Terms, or over each pair of two tuples of Terms; NaN if any entry is."""
    if not isinstance(lhs, tuple):
        lhs, rhs = (lhs,), (rhs,)
    worst = 0.0
    for a, b in zip(lhs, rhs):
        a, b = (t if isinstance(t, Terms) else Terms(t) for t in (a, b))
        r = np.abs(a.val - b.val) / (1.0 + a.mag + b.mag)
        worst = _worst(worst, float(np.max(r)))
    return worst


def _judge(fam, p, config: VerifyConfig, checks):
    """CheckResults for (check_id, level range, samples, lhs, rhs) entries,
    each judged by the one residual rule against its tolerance."""
    return [
        CheckResult.build(check_id, fam, p, levels, _residual(lhs, rhs),
                          _tol(config, check_id), samples)
        for check_id, levels, samples, lhs, rhs in checks
    ]


# ------------------------------------------------------------------- eigen

def check_eigen(family, p: ParamSet, config: VerifyConfig = VerifyConfig()):
    """H-tilde P_n = E_n P_n pointwise, plus lower-triangularity on eta^n."""
    fam = get_family(family)
    ctx = OperatorContext(fam, p)
    xs = sample_points(fam, p, config.samples, config.seed)
    n_max = config.n_max
    lat = ctx.lattice(xs, 2)
    f = lat.operand(eval_poly_recurrence(fam, p, n_max))
    energies = per_level([ctx.energy(n) for n in range(n_max + 1)])
    # triangularity: H-tilde eta^n - E_n eta^n is a polynomial of degree < n,
    # so a degree-(n-1) fit through it must reproduce it.  The fit is in
    # Chebyshev polynomials of eta mapped onto [-1, 1]: a well-conditioned
    # basis whose terms are of the size of the fit across the interval
    mono = Terms(lat.eta.val ** per_level(range(1, n_max + 1)))
    rems = ctx.H_tilde(mono, lat) - energies[1:] * mono.at(0)
    eta = lat.eta.val[lat.half].real
    lo, hi = eta.min(), eta.max()
    t = (2.0 * eta - (hi + lo)) / ((hi - lo) or 1.0)
    fits = []
    for n in range(1, n_max + 1):
        basis = np.polynomial.chebyshev.chebvander(t, n - 1)
        coef, *_ = np.linalg.lstsq(basis, rems.val[n - 1, 0], rcond=None)
        fits.append(Terms(basis @ coef, np.abs(basis) @ np.abs(coef)))
    return _judge(fam, p, config, [
        ("eigen.eigenvalue_equation", (0, n_max), len(xs),
         ctx.H_tilde(f, lat), energies * f.at(0)),
        ("eigen.lower_triangularity", (1, n_max), len(xs),
         tuple(fits), tuple(rems[i, 0] for i in range(n_max))),
    ])


# -------------------------------------------------------- shape invariance

def check_shape_invariance(family, p: ParamSet, x_samples=None,
                           config: VerifyConfig = VerifyConfig()):
    """The two potential-function identities behind shape invariance."""
    fam = get_family(family)
    ctx = OperatorContext(fam, p)
    ctx_s = ctx.shifted()
    xs = x_samples if x_samples is not None else sample_points(
        fam, p, config.samples, config.seed
    )
    lat = ctx.lattice(xs, 2)
    kappa = ctx.kappa
    # the stars conjugate the evaluated values at the shifted points
    v_m = Terms(ctx.V(lat.rows(0, -1)))
    v_p = Terms(ctx.V(lat.rows(0, 1)))
    v_s = Terms(ctx_s.V(lat.rows(0)))
    potential = (
        (v_m * v_p.conj(), 2.0 * v_p.real),
        (kappa**2 * v_s * Terms(ctx_s.V(lat.rows(0, 2))).conj(),
         kappa * 2.0 * v_s.real - ctx.energy(1)),
    )
    # the shifted ground state relation, squared so that the weight
    # continues analytically: phi0^2(x - ig/2; lambda+delta)
    #   = V(x; lambda) phi(x - ig/2)^2 phi0^2(x; lambda),
    # and the continuation agrees with the modulus form on the real axis
    p_s = fam.shifted(p)
    weight = Terms(fam.weight_square(p, xs))
    shifted = Terms(fam.weight_square(p_s, lat.rows(0, -1)[0]))
    phi_m = lat.phi.at(-1)[0]
    ground = (
        (shifted, weight),
        (Terms(ctx.V(lat.rows(0)[0])) * phi_m * phi_m * weight,
         Terms(fam.phi0(p, np.asarray(xs)) ** 2)),
    )
    # the spectrum generated by E_1 under repeated shifts
    steps = []
    pp = p
    for s in range(10):
        steps.append(kappa**s * fam.energy(pp, 1))
        pp = fam.shifted(pp)
    generated = Terms(np.cumsum([0.0] + steps), np.cumsum([0.0] + [abs(v) for v in steps]))
    spectrum = Terms(np.array([fam.energy(p, n) for n in range(11)]))
    return _judge(fam, p, config, [
        ("shape_invariance.potential_identities", (0, 1), len(xs), *potential),
        ("shape_invariance.ground_state_shift", (0, 0), len(xs), *ground),
        ("shape_invariance.spectrum_generation", (0, 10), 1, generated, spectrum),
    ])


# ----------------------------------------------------------------- closure

def check_closure(family, p: ParamSet, config: VerifyConfig = VerifyConfig()):
    """Double-commutator relation on eigenpolynomials, the five expanded
    pointwise conditions, and the pure-coordinate condition."""
    fam = get_family(family)
    ctx = OperatorContext(fam, p)
    cp = ctx.closure
    xs = sample_points(fam, p, config.samples, config.seed)
    n_max = config.n_max
    lat = ctx.lattice(xs, 4)
    f = lat.operand(eval_poly_recurrence(fam, p, n_max))
    e_n = per_level([ctx.energy(n) for n in range(n_max + 1)])
    comm = ctx.comm_H_eta(f, lat)
    f0, comm0 = f.at(0), comm.at(0)
    eta = lat.eta
    double = (
        ctx.H_tilde(comm, lat) - e_n * comm0,
        eta.at(0) * cp.R0(e_n) * f0 + comm0 * cp.R1(e_n) + cp.Rm1(e_n) * f0,
    )

    r1_1, r1_0 = cp.r1
    r0_2, r0_1, r0_0 = cp.r0
    rm1_2, rm1_1, rm1_0 = cp.rm1
    # eta one and two steps down and up
    eta0, eta_m, eta_p, eta_mm, eta_pp = (eta.at(k) for k in (0, -2, 2, -4, 4))
    V0 = Terms(ctx.V(lat.rows(0)))
    Vm = Terms(ctx.V(lat.rows(0, -2)))
    Vp = Terms(ctx.V(lat.rows(0, 2)))
    # stars conjugate the shifted values
    V0s, Vms, Vps = V0.conj(), Vm.conj(), Vp.conj()
    base = r0_2 * eta0 + rm1_2
    conditions = tuple(zip(
        # condition 1 and its mirror
        (eta_mm - 2 * eta_m + eta0, base + r1_1 * (eta_m - eta0)),
        (eta_pp - 2 * eta_p + eta0, base + r1_1 * (eta_p - eta0)),
        # condition 2 and its mirror
        ((eta_m - eta0) * (Vm + Vps - V0 - V0s),
         -base * (Vm + Vps + V0 + V0s) - r1_1 * (eta_m - eta0) * (Vm + Vps)
         + r0_1 * eta0 + rm1_1 + r1_0 * (eta_m - eta0)),
        ((eta_p - eta0) * (Vms + Vp - V0s - V0),
         -base * (Vms + Vp + V0s + V0) - r1_1 * (eta_p - eta0) * (Vms + Vp)
         + r0_1 * eta0 + rm1_1 + r1_0 * (eta_p - eta0)),
        # condition 3
        (2 * (eta0 - eta_m) * V0 * Vps + 2 * (eta0 - eta_p) * V0s * Vp,
         base * (V0 * Vps + V0s * Vp + (V0 + V0s) * (V0 + V0s))
         + r1_1 * (eta_m - eta0) * V0 * Vps + r1_1 * (eta_p - eta0) * V0s * Vp
         - (r0_1 * eta0 + rm1_1) * (V0 + V0s) + r0_0 * eta0 + rm1_0),
    ))
    return _judge(fam, p, config, [
        ("closure.double_commutator", (0, n_max), len(xs), *double),
        ("closure.expanded_conditions", (0, 0), len(xs), *conditions),
        ("closure.coordinate_condition", (0, 0), len(xs),
         eta_m - (2.0 + r1_1) * eta0 + eta_p, rm1_2),
    ])


def check_dual_closure(family, p: ParamSet, config: VerifyConfig = VerifyConfig()):
    """[eta,[eta,H]] expressed through the dual closure polynomials.

    The dual R's multiply the operand before H and [eta,H] act; they are
    functions of eta, evaluated through the coordinate at complex points.
    """
    fam = get_family(family)
    ctx = OperatorContext(fam, p)
    xs = sample_points(fam, p, config.samples, config.seed)
    lat = ctx.lattice(xs, 4)
    f = lat.operand(eval_poly_recurrence(fam, p, config.n_max), half=2)
    eta = lat.eta
    e = eta.at(0, 2)
    e_m, e_p = eta.at(-2, 2), eta.at(2, 2)
    r1_dual = e_m + e_p - 2 * e
    r0_dual = -(e_m - e) * (e_p - e)
    eta0 = e.at(0)
    rm1d = 2.0 * Terms(ctx.V(lat.rows(0))).real * r0_dual.at(0)
    H = ctx.H_tilde
    lhs = H(e * e * f, lat) - 2 * eta0 * H(e * f, lat) + eta0 * eta0 * H(f, lat)
    rhs = (H(r0_dual * f, lat) + eta0 * H(r1_dual * f, lat)
           - H(e * r1_dual * f, lat) + rm1d * f.at(0))
    return _judge(fam, p, config, [
        ("dual_closure.double_commutator", (0, config.n_max), len(xs), lhs, rhs),
    ])


# ------------------------------------------------------------------ shifts

def check_shifts(family, p: ParamSet, config: VerifyConfig = VerifyConfig()):
    """Forward/backward intertwining, factorisation, the Rodrigues chain and
    the explicit parameter-shift operators where they exist."""
    fam = get_family(family)
    ctx = OperatorContext(fam, p)
    p_s = fam.shifted(p)
    xs = sample_points(fam, p, config.samples, config.seed)
    n_max = min(config.n_max, 8)
    levels = range(n_max + 1)
    lat = ctx.lattice(xs, 2)
    poly = eval_poly_recurrence(fam, p, n_max + 1)
    poly_s = eval_poly_recurrence(fam, p_s, n_max)
    f = lat.operand(poly, half=1)                  # levels 0 .. n_max+1
    f_s = lat.operand(poly_s)                      # levels 0 .. n_max
    at_x, at_x_s = f.at(0), f_s.at(0)
    prev = np.maximum(np.arange(n_max + 1) - 1, 0)   # level 0 pairs with f_0 = 0
    # F P_0 = 0, and F P_n = f_n P_{n-1}(lambda+delta)
    f_n = per_level([fam.f_shift(p, n) if n else 0.0 for n in levels])
    b_n = per_level([fam.b_shift(p, n) for n in levels])
    # F(lambda) B(lambda) on (lambda+delta)-data
    fac = per_level([ctx.kappa * fam.energy(p_s, n) + ctx.energy(1) for n in levels])
    back = ctx.backward(f_s, lat)
    checks = [
        ("shifts.forward_action", (0, n_max), len(xs),
         ctx.forward(f[: n_max + 1], lat), f_n * at_x_s[prev]),
        ("shifts.backward_action", (0, n_max), len(xs), back.at(0), b_n * at_x[1:]),
        ("shifts.factorization", (0, n_max), len(xs),
         ctx.forward(back, lat), fac * at_x_s),
        ("shifts.energy_factorization", (1, n_max), 1,
         Terms(np.array([fam.f_shift(p, n) for n in levels[1:]]))
         * Terms(np.array([fam.b_shift(p, n - 1) for n in levels[1:]])),
         Terms(np.array([fam.energy(p, n) for n in levels[1:]]))),
    ]
    k = max(4, len(xs) // 4)
    checks.append(
        ("shifts.rodrigues_chain", (0, n_max), k,
         tuple(rodrigues_polynomial(fam, p, n, xs[:k]) for n in levels),
         tuple(at_x[n, ..., :k] for n in levels)))

    name = fam.spec.name
    mp_at_half_pi = (
        name == "meixner-pollaczek"
        and p.phi is not None
        and abs(p.phi - math.pi / 2) < 1e-12
    )
    if mp_at_half_pi or name == "continuous-dual-hahn":
        n_x = min(6, n_max)
        lv = range(n_x + 1)
        on_x = at_x[: n_x + 1, ..., :8]
        on_x_s = at_x_s[: n_x + 1, ..., :8]
        if mp_at_half_pi:
            x_factor = 0.5
            xdag_factor = per_level([0.25 * (n + 2 * p.a[0].real) for n in lv])
        else:
            x_factor = 1.0
            xdag_factor = per_level([
                (n + p.a[0] + p.a[1]) * (n + p.a[0] + p.a[2]) * (n + p.a[1] + p.a[2])
                for n in lv]).real
        checks.append(
            ("shifts.lambda_shift_x", (0, n_x), 8,
             (lambda_shift_X(fam, p, "X", lv, poly, xs[:8]),
              lambda_shift_X(fam, p, "Xdag", lv, poly_s, xs[:8])),
             (x_factor * on_x_s, xdag_factor * on_x)))
    return _judge(fam, p, config, checks)


# ------------------------------------------------------------------ ladder

_Q_DEFORMED = ("continuous-dual-q-hahn", "al-salam-chihara", "continuous-big-q-hermite",
               "continuous-q-hermite", "continuous-q-laguerre")
_FIRST_10 = (..., slice(None, 10))  # the first 10 sample points


def check_ladder(family, p: ParamSet, config: VerifyConfig = VerifyConfig()):
    """Annihilation/creation actions, their commutators with H, the pair
    commutator on levels, and the deformed/q-oscillator specialisations."""
    fam = get_family(family)
    ctx = OperatorContext(fam, p)
    xs = sample_points(fam, p, config.samples, config.seed)
    n_max = config.n_max
    lv = np.arange(n_max + 1)
    prev = np.maximum(lv - 1, 0)   # level 0 pairs with a zero factor
    lat = ctx.lattice(xs, 4)
    # P_0 .. P_{n_max+1} on the lattice, shared by every block below
    poly = eval_poly_recurrence(fam, p, n_max + 1)
    f = lat.operand(poly)
    at_x = f.at(0)
    f_n = f[: n_max + 1]
    up = ladder_action(ctx, "+", lv, f_n, lat)
    dn = ladder_action(ctx, "-", lv, f_n, lat)      # zero at level 0
    up0, dn0 = up.at(0), dn.at(0)
    A_n, C_n = _ladder_ratios(poly)
    H_up, H_dn = ctx.H_tilde(up, lat), ctx.H_tilde(dn, lat)
    # [a-, a+] phi_n = (b_{n+1} - b_n) phi_n
    a_minus_a_plus = ladder_action(ctx, "-", lv + 1, up, lat)
    a_plus_a_minus = ladder_action(ctx, "+", prev, dn, lat)
    b_rec = [complex(fam.b_rec(p, n)).real for n in range(n_max + 2)]
    checks = [
        ("ladder.level_actions", (0, n_max), len(xs), (up0, dn0),
         (per_level(A_n) * at_x[1:], per_level(C_n) * at_x[prev])),
        # [H, a^(pm)] phi_n = (E_{n pm 1} - E_n) a^(pm) phi_n, i.e. the
        # ladder output is an eigenfunction at the neighbouring level
        ("ladder.hamiltonian_commutator", (0, n_max), len(xs), (H_up, H_dn),
         (per_level([ctx.energy(n + 1) for n in lv]) * up0,
          per_level([ctx.energy(n - 1) for n in lv]) * dn0)),
        ("ladder.pair_commutator", (0, n_max), len(xs),
         a_minus_a_plus - a_plus_a_minus,
         per_level([b_rec[n + 1] - b_rec[n] for n in lv]) * at_x[: n_max + 1]),
    ]
    q = p.q
    if fam.spec.name in _Q_DEFORMED:
        # deformed commutator for the simple q-spectrum families
        e_n = per_level([ctx.energy(n) for n in lv])
        checks.append(
            ("ladder.q_deformed_commutator", (0, n_max), 10,
             ((H_up - (1.0 / q) * e_n * up0)[_FIRST_10], (H_dn - q * e_n * dn0)[_FIRST_10]),
             (((1.0 / q - 1.0) * up0)[_FIRST_10], ((q - 1.0) * dn0)[_FIRST_10])))
    if fam.spec.name in ("continuous-big-q-hermite", "continuous-q-hermite"):
        # q-oscillator realisations on the two Hermite-type families
        checks.append(
            ("ladder.q_oscillator_pair", (0, n_max), 10,
             (a_minus_a_plus - q * a_plus_a_minus)[_FIRST_10],
             (0.25 * (1.0 - q) * at_x[: n_max + 1])[_FIRST_10]))
    if fam.spec.name == "continuous-q-hermite":
        checks.extend(_qhermite_special(ctx, lat, f_n.at(0, 2), n_max))
    return _judge(fam, p, config, checks)


def _ladder_ratios(poly):
    """A_n = c_n / c_{n+1} and C_n = b_n c_n / c_{n-1} (C_0 = 0) for n below
    the degree of the ascent `poly`, real as `Family.coefficients` gives them."""
    c, b = poly.c, poly.b
    A_n = [_as_real(c[n] / c[n + 1]) for n in range(poly.degree)]
    C_n = [0.0] + [_as_real(c[n] / c[n - 1] * b[n]) for n in range(1, poly.degree)]
    return A_n, C_n


def _x_tilde(ctx: OperatorContext, lat: Lattice, g: Terms, e_plus_1) -> Terms:
    """The level-diagonal operator X of continuous q-Hermite on level data,
    with its resolvent 1/(E_n + 1)."""
    h = g.half - 1
    z2 = np.exp(2j * lat.rows(h))
    return 0.5 * math.sqrt(ctx.p.q) * (
        g.at(-1, h) / (1.0 - z2) + g.at(1, h) / (1.0 - 1.0 / z2)
    ) / e_plus_1


def _qhermite_special(ctx, lat, f, n_max):
    """Shape-invariance q-oscillator and the explicit level-diagonal
    operator special to continuous q-Hermite."""
    q = ctx.p.q
    at_x = f.at(0)
    # A A^dag - q^{-1} A^dag A = q^{-1} - 1 transcribed to F/B level
    fb = ctx.forward(ctx.backward(f, lat), lat)
    bf = ctx.backward(ctx.forward(f, lat), lat)
    lv = np.arange(n_max + 1)
    e1 = per_level([ctx.energy(n) + 1.0 for n in lv])
    x_f = _x_tilde(ctx, lat, f, e1)
    # (2 q^{-1/2} X (H+1))^2 = H + 1 on level-n data
    m1 = 2.0 * q ** (-0.5) * x_f * e1
    return [
        ("ladder.shape_invariance_q_oscillator", (0, n_max), 10,
         (fb - bf / q)[_FIRST_10], ((1.0 / q - 1.0) * at_x)[_FIRST_10]),
        ("ladder.level_diagonal_operator", (0, n_max), 10,
         (x_f.at(0)[_FIRST_10], (2.0 * q ** (-0.5) * _x_tilde(ctx, lat, m1, e1) * e1)[_FIRST_10]),
         ((0.5 * q ** (0.5 * (per_level(lv) + 1)) * at_x)[_FIRST_10],
          (e1 * at_x)[_FIRST_10])),
    ]


# ---------------------------------------------------------------- coherent

_COHERENT_ALPHA_BOUND_Q = 0.3
_COHERENT_ALPHA_BOUND = 1.0
_COHERENT_CAP = 60


def _default_alpha(fam) -> complex:
    return 0.2 if fam.spec.uses_q else 0.5


def check_coherent(family, p: ParamSet, alpha=None, x_samples=None, N=None,
                   config: VerifyConfig = VerifyConfig()):
    """Annihilation-eigenvector property of the coherent series, plus the
    closed-form resummations where one exists."""
    fam = get_family(family)
    ctx = OperatorContext(fam, p)
    if alpha is None:
        alpha = config.alpha if config.alpha is not None else _default_alpha(fam)
    alpha = complex(alpha)
    bound = _COHERENT_ALPHA_BOUND_Q if fam.spec.uses_q else _COHERENT_ALPHA_BOUND
    if abs(alpha) > bound:
        raise ValueError(
            f"|alpha| = {abs(alpha):.3g} outside the default convergence "
            f"bound {bound} for {fam.spec.name}"
        )
    xs = x_samples if x_samples is not None else sample_points(
        fam, p, 6, config.seed
    )

    # coefficients alpha^n / prod_{k<=n} C_k, C_cap from one level more
    cap = N if N is not None else _COHERENT_CAP
    poly = eval_poly_recurrence(fam, p, cap + 1)
    _, C_n = _ladder_ratios(poly)
    coeffs = per_level(np.cumprod([1.0, *(alpha / np.array(C_n[1: cap + 1]))]))

    # every level on the lattice at once, shared by the partial sums and
    # the lowering operator
    lat = ctx.lattice(xs, 2)
    f = lat.operand(poly)[: cap + 1]
    terms = coeffs * f.at(0)

    n_trunc, tail = _truncation(terms.val[:, 0, 0])
    if tail > 1e-12:
        warnings.warn(
            f"coherent series truncated at N={n_trunc} with relative tail "
            f"{tail:.2e} > 1e-12",
            RuntimeWarning,
            stacklevel=2,
        )

    sums = terms[: n_trunc + 1].sum(axis=0)
    levels = range(1, n_trunc + 1)
    lowered = (coeffs[1: n_trunc + 1]
               * ladder_action(ctx, "-", levels, f[1: n_trunc + 1], lat)).sum(axis=0)
    worst_ann = _residual(lowered, alpha * sums)

    closed = _coherent_closed_form(fam, p, alpha, xs)
    worst_closed = None if closed is None else _residual(sums, closed)

    return CoherentStateEval(
        alpha=alpha,
        truncation_N=n_trunc,
        partial_sum=complex(sums.val[0, 0]),
        closed_form=None if closed is None else complex(closed.val[0]),
        annihilation_residual=worst_ann,
        tail_estimate=float(tail),
    ), worst_closed


def _truncation(terms):
    """The truncation index N of a coherent series and its relative tail
    |t_N| / |sum_{n<=N} t_n|: the first N >= 10 where t_N and t_{N-1} are
    both below 1e-14 of the running sum through N, else the last index.  Two
    small terms are required, since a single term can vanish through a zero
    of its polynomial factor."""
    running = np.cumsum(terms)
    small = np.abs(terms) < 1e-14 * np.abs(running)
    small[1:] &= np.abs(terms[:-1]) < 1e-14 * np.abs(running[1:])
    small[:10] = False
    n = int(np.argmax(small)) if small.any() else len(terms) - 1
    return n, abs(terms[n]) / max(abs(running[n]), 1e-300)


def _series_terms(ratios) -> Terms:
    """Sum over axis 0 of the series 1 + r_0 + r_0 r_1 + ... whose term
    ratios are the rows of `ratios`, in plain double, with the sum of the
    terms' moduli as its magnitude."""
    t = np.cumprod(ratios, axis=0)
    return Terms(1.0 + t.sum(axis=0), 1.0 + np.abs(t).sum(axis=0))


def _coherent_closed_form(fam, p: ParamSet, alpha: complex, xs):
    """phi0-stripped closed form of the coherent series at the points xs, as
    Terms carrying the magnitude of its hypergeometric sum; None for the
    families without one.  The 2phi1 and 1F1 are summed through k = 200 and
    k = 80."""
    name = fam.spec.name
    xs = np.asarray(xs, dtype=float)
    if name == "meixner-pollaczek":
        a = p.a[0].real
        phi = p.phi
        pref = cmath.exp(1j * alpha * (1.0 - cmath.exp(2j * phi)))
        k = np.arange(80.0)[:, None]
        # 1F1(a + ix; 2a; -4i alpha sin^2 phi)
        return pref * _series_terms(
            (a + 1j * xs + k) / ((2 * a + k) * (k + 1))
            * (-4j * alpha * math.sin(phi) ** 2)
        )
    if name not in ("al-salam-chihara", "continuous-big-q-hermite",
                    "continuous-q-hermite", "continuous-q-laguerre"):
        return None
    q = p.q
    z = np.exp(1j * xs)
    if name in ("continuous-q-hermite", "continuous-big-q-hermite"):
        # (2 alpha a; q)_inf / ((2 alpha z, 2 alpha / z; q)_inf), a = 0 for q-Hermite
        a = p.a[0] if p.a else 0.0
        log_den = log_q_pochhammer_inf(np.stack([2 * alpha * z, 2 * alpha / z]), q)
        return Terms(np.exp(log_q_pochhammer_inf(2 * alpha * a, q) - log_den.sum(axis=0)))
    if name == "al-salam-chihara":
        num, den = p.a, p.a[0] * p.a[1]
    else:
        k = q ** (0.5 * (p.a[0].real + 0.5))
        num, den = (k, k * math.sqrt(q)), q ** (p.a[0].real + 1)
    # 2phi1(num_1 z, num_2 z; den; q; 2 alpha / z) / (2 alpha z; q)_inf
    qk = q ** np.arange(200.0)[:, None]
    ratios = ((1.0 - num[0] * z * qk) * (1.0 - num[1] * z * qk)
              / ((1.0 - den * qk) * (1.0 - q * qk)) * (2 * alpha / z))
    return np.exp(-log_q_pochhammer_inf(2 * alpha * z, q)) * _series_terms(ratios)


def coherent_results(family, p: ParamSet, config: VerifyConfig = VerifyConfig()):
    fam = get_family(family)
    ev, worst_closed = check_coherent(family, p, config=config)
    levels = (0, ev.truncation_N)
    results = [
        CheckResult.build("coherent.annihilation_eigenvector", fam, p, levels,
                          ev.annihilation_residual,
                          _tol(config, "coherent.annihilation_eigenvector"), 6)
    ]
    if worst_closed is not None:
        results.append(
            CheckResult.build("coherent.closed_form", fam, p, levels, worst_closed,
                              _tol(config, "coherent.closed_form"), 6)
        )
    return results


# ----------------------------------------------- orthogonality/hermiticity

def check_orthogonality(family, p: ParamSet, config: VerifyConfig = VerifyConfig()):
    fam = get_family(family)
    n_max = min(config.n_max, 6)
    # the unit-normalised Gram matrix against the identity; a NaN propagates
    dev = np.abs(orthogonality_matrix(fam, p, n_max).entries - np.eye(n_max + 1))
    diag = np.diag(dev)
    return [
        CheckResult.build("orthogonality.diagonal_norms", fam, p, (0, n_max),
                          np.max(diag), _tol(config, "orthogonality.diagonal_norms"),
                          (n_max + 1) ** 2),
        CheckResult.build("orthogonality.off_diagonal", fam, p, (0, n_max),
                          np.max(dev - np.diag(diag)), _tol(config, "orthogonality.off_diagonal"),
                          (n_max + 1) ** 2),
    ]


def check_hermiticity(family, p: ParamSet, config: VerifyConfig = VerifyConfig()):
    fam = get_family(family)
    # phi0 P_n sqrt(h0/h_n) is unit-normed in the forms' units of h0, so the
    # forms stay at order one and each diagonal pair gives E_n
    polys = [eval_poly_recurrence(fam, p, n).scaled(math.sqrt(fam.h0_over_hn(p, n)))
             for n in range(5)]
    pairs = [(0, 0), (1, 1), (1, 2), (3, 0), (2, 4)]
    lhs, rhs = hermiticity_forms(fam, p, [polys[n] for n, _ in pairs],
                                 [polys[m] for _, m in pairs])
    energy = Terms(np.array([fam.energy(p, 0), fam.energy(p, 1)]))
    return _judge(fam, p, config, [
        ("hermiticity.symmetric_form", (0, 4), len(pairs), lhs, rhs),
        ("hermiticity.diagonal_energy", (0, 1), 2, (lhs[:2], rhs[:2]), (energy, energy)),
    ])


# ------------------------------------------------------------------- limit

def check_limit_aw_wilson(wilson_params: ParamSet, L_sequence=(20.0, 40.0, 80.0),
                          config: VerifyConfig = VerifyConfig()):
    """Scaled Askey-Wilson quantities must approach Wilson monotonically.

    The scaled quantities converge like 1/L, so at the prescribed sequence
    the raw deviations still sit at a few times 1e-2.  Two results are
    produced: a strict monotone-decrease check on the raw deviation
    sequences, and the deviation of the final 1/L Richardson extrapolant
    (2 S(L) - S(L/2)), which removes the leading term and must land below
    1e-2 of the Wilson values.
    """
    from .families import FAMILIES

    if len(L_sequence) < 3:
        raise ValueError("L_sequence must have at least 3 increasing entries")
    if not all(b > a for a, b in zip(L_sequence, L_sequence[1:])):
        raise ValueError("L_sequence must be strictly increasing")
    wilson = FAMILIES[FamilyId.WILSON]
    p = wilson_params
    x_pts = (0.6, 1.1, 1.9)

    def scaled_batch(L):
        out = {}
        for n in (1, 2, 3):
            out[f"energy_n{n}"] = (
                aw_to_wilson_scaled("energy", p, L, n=n), wilson.energy(p, n)
            )
        for n in (1, 2):
            out[f"f_n{n}"] = (
                aw_to_wilson_scaled("f_n", p, L, n=n), wilson.f_shift(p, n)
            )
            out[f"b_n{n}"] = (
                aw_to_wilson_scaled("b_n", p, L, n=n), wilson.b_shift(p, n)
            )
        for x in x_pts:
            out[f"potential_x{x}"] = (
                aw_to_wilson_scaled("potential", p, L, x=x), wilson.V(p, x)
            )
        return out

    values = [scaled_batch(L) for L in L_sequence]
    keys = values[0].keys()
    monotone_worst = 0.0
    extrap_worst = 0.0
    for key in keys:
        devs = [abs(v[key][0] - v[key][1]) / (1.0 + abs(v[key][1]))
                for v in values]
        for cur, nxt in zip(devs, devs[1:]):
            monotone_worst = _worst(
                monotone_worst, nxt / cur if cur > 0 else math.inf
            )
        got_last, target = values[-1][key]
        got_prev, _ = values[-2][key]
        l_last, l_prev = L_sequence[-1], L_sequence[-2]
        extrapolated = got_last + (got_last - got_prev) * l_prev / (
            l_last - l_prev
        )
        extrap_worst = _worst(
            extrap_worst, abs(extrapolated - target) / (1.0 + abs(target))
        )
    return [
        CheckResult.build(
            "limit.monotone_decrease", wilson, p, (1, 3), monotone_worst,
            TOLERANCES["limit.monotone_decrease"], len(L_sequence),
        ),
        CheckResult.build(
            "limit.extrapolated_deviation", wilson, p, (1, 3), extrap_worst,
            _tol(config, "limit.extrapolated_deviation"), len(L_sequence),
        ),
    ]


# --------------------------------------------------------- number operator

def check_number_operator(family, p: ParamSet, n_range=range(0, 31),
                          config: VerifyConfig = VerifyConfig()):
    """The level recovered from its energy through the stated inversion."""
    fam = get_family(family)
    worst = 0.0
    for n in n_range:
        e_n = fam.energy(p, n)
        got = fam.level_from_energy(p, e_n)
        worst = _worst(worst, abs(got - n) / (1.0 + n))
    return CheckResult.build(
        "number_operator.inversion", fam, p,
        (min(n_range), max(n_range)), worst, _tol(config, "number_operator.inversion"),
        len(list(n_range)),
    )


# --------------------------------------------------------------- dispatch

def _limit_suite(fam, params: ParamSet, config: VerifyConfig):
    if fam.spec.id is not FamilyId.WILSON:
        return []  # the limit dictionary targets the Wilson system
    return check_limit_aw_wilson(params, config.L_sequence, config)


_SUITE_RUNNERS = {
    "eigen": check_eigen,
    "shape_invariance": lambda fam, p, config: check_shape_invariance(
        fam, p, config=config),
    "closure": check_closure,
    "dual_closure": check_dual_closure,
    "shifts": check_shifts,
    "ladder": check_ladder,
    "coherent": coherent_results,
    "orthogonality": check_orthogonality,
    "hermiticity": check_hermiticity,
    "limit": _limit_suite,
    "number_operator": lambda fam, p, config: [
        check_number_operator(fam, p, config=config)],
}
SUITES = tuple(_SUITE_RUNNERS)


def run_suite(suite_id: str, family, params: ParamSet,
              config: VerifyConfig = VerifyConfig()):
    """Run one named suite; deterministic for a fixed config."""
    fam = get_family(family)
    fam.validate(params)
    runner = _SUITE_RUNNERS.get(suite_id)
    if runner is None:
        raise ValueError(f"unknown suite {suite_id!r}; known: {', '.join(SUITES)}")
    return runner(fam, params, config)
