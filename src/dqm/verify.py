"""Named verification suites: every identity of the framework is exercised
by exactly one suite.

Suites: eigen, shape_invariance, closure, dual_closure, shifts, ladder,
coherent, orthogonality, hermiticity, limit, number_operator.

The seven pointwise suites (eigen to coherent) evaluate each operand once,
as a (levels, lattice rows, points) array on the shift lattice of the
sample points (`operators.Lattice`), and apply the operators to it as array
expressions that carry the magnitude of the terms they sum
(`operators.Terms`).  Each of their checks compares two sides by one rule,
|lhs - rhs| / (1 + mag(lhs) + mag(rhs)), at its worst over levels and
points, with a NaN failing the check.

No suite tests a family's name: what holds on some families only is read
off a family method that is None where it does not hold.  lambda_shift adds
shifts.lambda_shift_x, coherent_closed_form coherent.closed_form and q_limit
the limit suite.  nonzero_parameters, the restriction of the Askey-Wilson
chain a set lies in, adds ladder.q_deformed_commutator below 4 non-zero
parameters, ladder.q_oscillator_pair at most 1 and the q-Hermite checks 0.

Every suite is a function (family, params, config) that returns its checks
as (check_id, level range, samples, residual) entries; `run_suite` alone
turns them into CheckResults, each judged against its tolerance in
TOLERANCES.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .families import EtaPolynomial, ParamSet, eval_poly_recurrence, get_family
from .families.base import three_term
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

__all__ = ["SUITES", "TOLERANCES", "VerifyConfig", "CheckResult", "run_suite"]


@dataclass(frozen=True)
class VerifyConfig:
    n_max: int = 8
    seed: int = 0
    tol_override: float | None = None


# the sample points of a pointwise suite (the coherent suite takes 6), the
# L of the q -> 1 limit, the levels of the number-operator inversion and the
# highest level of shifts.lambda_shift_x
_SAMPLES = 20
_L_SEQUENCE = (20.0, 40.0, 80.0)
_LEVELS = range(31)
_LAMBDA_SHIFT_LEVELS = 30


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
    "eigen.lower_triangularity": 3e-13,
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
    "number_operator.inversion": 2e-15,
}


def _tol(config: VerifyConfig, check_id: str) -> float:
    """The check's entry in TOLERANCES, or the config's override.  The
    override spares limit.monotone_decrease: its bound of 1 is on the ratio
    of successive deviations, not on a residual."""
    if config.tol_override is None or check_id == "limit.monotone_decrease":
        return TOLERANCES[check_id]
    return config.tol_override


def _residual(lhs, rhs) -> float:
    """max |lhs - rhs| / (1 + mag(lhs) + mag(rhs)) over the entries of two
    Terms, or over each pair of two tuples of Terms; NaN if any entry is
    (np.max keeps a NaN, where max() may drop it), 0 over no entries."""
    if not isinstance(lhs, tuple):
        lhs, rhs = (lhs,), (rhs,)
    worst = []
    for a, b in zip(lhs, rhs):
        a, b = (t if isinstance(t, Terms) else Terms(t) for t in (a, b))
        worst.append(np.max(np.abs(a.val - b.val) / (1.0 + a.mag + b.mag), initial=0.0))
    return float(np.max(worst, initial=0.0))


# ------------------------------------------------------------------- eigen

def _eigen(fam, p: ParamSet, config: VerifyConfig):
    """H-tilde P_n = E_n P_n pointwise, and lower-triangularity: H-tilde maps
    eta P_{n-1} to E_n eta P_{n-1} plus lower degrees.  By the three-term
    relation eta P_k = A_k P_{k+1} + B_k P_k + C_k P_{k-1} the lower degrees
    are B_{n-1} (E_{n-1} - E_n) P_{n-1} + C_{n-1} (E_{n-2} - E_n) P_{n-2},
    at every level 1..n_max."""
    ctx = OperatorContext(fam, p)
    xs = sample_points(fam, p, _SAMPLES, config.seed)
    n_max = config.n_max
    lat = ctx.lattice(xs, 2)
    poly = eval_poly_recurrence(fam, p, n_max)
    f = lat.operand(poly)
    at_x = f.at(0)
    energies = Terms(per_level(ctx.energies(range(n_max + 1))))
    _, B, C = three_term(poly.a, poly.b, poly.c)
    prev = np.maximum(np.arange(n_max) - 1, 0)   # P_{-1} enters with C_0 = 0
    e_n = energies[1:]
    eta_f = lat.eta * f[:n_max]
    return [
        ("eigen.eigenvalue_equation", (0, n_max), len(xs),
         _residual(ctx.H_tilde(f, lat), energies * at_x)),
        ("eigen.lower_triangularity", (1, n_max), len(xs),
         _residual(ctx.H_tilde(eta_f, lat) - e_n * eta_f.at(0),
                   per_level(B) * (energies[:-1] - e_n) * at_x[:n_max]
                   + per_level(C) * (energies[prev] - e_n) * at_x[prev])),
    ]


# -------------------------------------------------------- shape invariance

def _shape_invariance(fam, p: ParamSet, config: VerifyConfig):
    """The two potential-function identities behind shape invariance."""
    ctx = OperatorContext(fam, p)
    ctx_s = ctx.shifted()
    xs = sample_points(fam, p, _SAMPLES, config.seed)
    lat = ctx.lattice(xs, 2)
    kappa = ctx.kappa
    # the stars conjugate the evaluated values at the shifted points; the
    # wider rows first, as V's are read off them where ctx_s is ctx
    V_s = Terms(ctx_s.potential(lat, 2)[0])
    V = Terms(ctx.potential(lat, 1)[0])
    v_m, v_p, v_s = V.at(-1), V.at(1), V_s.at(0)
    potential = (
        (v_m * v_p.conj(), 2.0 * v_p.real),
        (kappa**2 * v_s * V_s.at(2).conj(),
         kappa * 2.0 * v_s.real - ctx.energy(1)),
    )
    # the shifted ground state relation, squared so that the weight
    # continues analytically: phi0^2(x - ig/2; lambda+delta)
    #   = V(x; lambda) phi(x - ig/2)^2 phi0^2(x; lambda),
    # and the continuation agrees with the modulus form on the real axis
    weight = Terms(fam.weight_square(p, xs))
    shifted = Terms(fam.weight_square(ctx_s.p, lat.rows(0, -1)[0]))
    phi_m = lat.phi.at(-1)[0]
    ground = (
        (shifted, weight),
        (V.at(0)[0] * phi_m * phi_m * weight,
         Terms(fam.phi0(p, np.asarray(xs)) ** 2)),
    )
    # the spectrum generated by E_1 under repeated shifts
    steps = []
    pp = p
    for s in range(10):
        steps.append(kappa**s * fam.energy(pp, 1))
        pp = fam.shifted(pp)
    generated = Terms(np.cumsum([0.0] + steps), np.cumsum([0.0] + [abs(v) for v in steps]))
    spectrum = Terms(ctx.energies(range(11)))
    return [
        ("shape_invariance.potential_identities", (0, 1), len(xs), _residual(*potential)),
        ("shape_invariance.ground_state_shift", (0, 0), len(xs), _residual(*ground)),
        ("shape_invariance.spectrum_generation", (0, 10), 1, _residual(generated, spectrum)),
    ]


# ----------------------------------------------------------------- closure

def _closure(fam, p: ParamSet, config: VerifyConfig):
    """Double-commutator relation on eigenpolynomials, the five expanded
    pointwise conditions, and the pure-coordinate condition."""
    ctx = OperatorContext(fam, p)
    cp = ctx.closure
    xs = sample_points(fam, p, _SAMPLES, config.seed)
    n_max = config.n_max
    lat = ctx.lattice(xs, 4)
    f = lat.operand(eval_poly_recurrence(fam, p, n_max))
    e_n = per_level(ctx.energies(range(n_max + 1)))
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
    # V on the rows -2..2, as [H-tilde, eta] read it
    V = Terms(ctx.potential(lat, 2)[0])
    V0, Vm, Vp = V.at(0), V.at(-2), V.at(2)
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
    return [
        ("closure.double_commutator", (0, n_max), len(xs), _residual(*double)),
        ("closure.expanded_conditions", (0, 0), len(xs), _residual(*conditions)),
        ("closure.coordinate_condition", (0, 0), len(xs),
         _residual(eta_m - (2.0 + r1_1) * eta0 + eta_p, rm1_2)),
    ]


def _dual_closure(fam, p: ParamSet, config: VerifyConfig):
    """[eta,[eta,H]] expressed through the dual closure polynomials.

    The dual R's multiply the operand before H and [eta,H] act; they are
    functions of eta, evaluated through the coordinate at complex points.
    """
    ctx = OperatorContext(fam, p)
    xs = sample_points(fam, p, _SAMPLES, config.seed)
    lat = ctx.lattice(xs, 4)
    f = lat.operand(eval_poly_recurrence(fam, p, config.n_max), half=2)
    eta = lat.eta
    e = eta.at(0, 2)
    e_m, e_p = eta.at(-2, 2), eta.at(2, 2)
    r1_dual = e_m + e_p - 2 * e
    r0_dual = -(e_m - e) * (e_p - e)
    eta0 = e.at(0)
    rm1d = 2.0 * Terms(ctx.potential(lat, 0)[0]).real * r0_dual.at(0)
    H = ctx.H_tilde
    lhs = H(e * e * f, lat) - 2 * eta0 * H(e * f, lat) + eta0 * eta0 * H(f, lat)
    rhs = (H(r0_dual * f, lat) + eta0 * H(r1_dual * f, lat)
           - H(e * r1_dual * f, lat) + rm1d * f.at(0))
    return [("dual_closure.double_commutator", (0, config.n_max), len(xs), _residual(lhs, rhs))]


# ------------------------------------------------------------------ shifts

def _shifts(fam, p: ParamSet, config: VerifyConfig):
    """Forward/backward intertwining, factorisation, the Rodrigues chain and
    the explicit parameter-shift operators where they exist."""
    ctx = OperatorContext(fam, p)
    p_s = fam.shifted(p)
    xs = sample_points(fam, p, _SAMPLES, config.seed)
    n_max = config.n_max
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
         _residual(ctx.forward(f[: n_max + 1], lat), f_n * at_x_s[prev])),
        ("shifts.backward_action", (0, n_max), len(xs),
         _residual(back.at(0), b_n * at_x[1:])),
        ("shifts.factorization", (0, n_max), len(xs),
         _residual(ctx.forward(back, lat), fac * at_x_s)),
        ("shifts.energy_factorization", (1, n_max), 1,
         _residual(Terms(f_n[1:]) * Terms(b_n[:-1]),
                   Terms(per_level(ctx.energies(levels[1:]))))),
    ]
    k = max(4, len(xs) // 4)
    checks.append(
        ("shifts.rodrigues_chain", (0, n_max), k,
         _residual(rodrigues_polynomial(ctx, n_max, xs[:k]), at_x[: n_max + 1, ..., :k])))

    shift = fam.lambda_shift(p)
    if shift is not None:
        # past level 30 the operands' recurrence round-off, which their
        # magnitudes do not carry, outgrows this check's tolerance
        n_x = min(n_max, _LAMBDA_SHIFT_LEVELS)
        lv = range(n_x + 1)
        xdag_factor = per_level([shift.xdag_factor(n) for n in lv]).real
        # one lattice for both; X-dagger first, as where V's rows differ
        # (continuous dual Hahn) X reads the centre of X-dagger's wider ones
        lat_x = ctx.lattice(xs[:8], shift.half)
        xdag = lambda_shift_X(ctx, "Xdag", lv, lat_x.operand(poly_s)[: n_x + 1], lat_x)
        checks.append(
            ("shifts.lambda_shift_x", (0, n_x), 8,
             _residual((lambda_shift_X(ctx, "X", lv, lat_x.operand(poly)[: n_x + 1], lat_x),
                        xdag),
                       (shift.x_factor * at_x_s[: n_x + 1, ..., :8],
                        xdag_factor * at_x[: n_x + 1, ..., :8]))))
    return checks


# ------------------------------------------------------------------ ladder

_FIRST_10 = (..., slice(None, 10))  # the first 10 sample points


def _ladder(fam, p: ParamSet, config: VerifyConfig):
    """Annihilation/creation actions, their commutators with H, the pair
    commutator on levels, and the deformed/q-oscillator specialisations."""
    ctx = OperatorContext(fam, p)
    xs = sample_points(fam, p, _SAMPLES, config.seed)
    n_max = config.n_max
    lv = np.arange(n_max + 1)
    prev = np.maximum(lv - 1, 0)   # level 0 pairs with a zero factor
    lat = ctx.lattice(xs, 4)
    # P_0 .. P_{n_max+1} on the lattice, shared by every block below, and
    # b_0 .. b_{n_max+1} of the pair commutator, from one recurrence pass
    rec_a, rec_b, rec_c = fam.recurrence(p, n_max + 2)
    poly = EtaPolynomial.ascend(rec_a, rec_b, rec_c, n_max + 1)
    f = lat.operand(poly)
    at_x = f.at(0)
    f_n = f[: n_max + 1]
    up = ladder_action(ctx, "+", lv, f_n, lat)
    dn = ladder_action(ctx, "-", lv, f_n, lat)      # zero at level 0
    up0, dn0 = up.at(0), dn.at(0)
    A_n, _, C_n = three_term(poly.a, poly.b, poly.c)
    H_up, H_dn = ctx.H_tilde(up, lat), ctx.H_tilde(dn, lat)
    # [a-, a+] phi_n = (b_{n+1} - b_n) phi_n
    a_minus_a_plus = ladder_action(ctx, "-", lv + 1, up, lat)
    a_plus_a_minus = ladder_action(ctx, "+", prev, dn, lat)
    checks = [
        ("ladder.level_actions", (0, n_max), len(xs),
         _residual((up0, dn0), (per_level(A_n) * at_x[1:], per_level(C_n) * at_x[prev]))),
        # [H, a^(pm)] phi_n = (E_{n pm 1} - E_n) a^(pm) phi_n, i.e. the
        # ladder output is an eigenfunction at the neighbouring level
        ("ladder.hamiltonian_commutator", (0, n_max), len(xs),
         _residual((H_up, H_dn), (per_level(ctx.energies(lv + 1)) * up0,
                                  per_level(ctx.energies(lv - 1)) * dn0))),
        ("ladder.pair_commutator", (0, n_max), len(xs),
         _residual(a_minus_a_plus - a_plus_a_minus,
                   per_level([rec_b[n + 1] - rec_b[n] for n in lv]) * at_x[: n_max + 1])),
    ]
    q = p.q
    # with fewer than 4 non-zero parameters e4 = 0 and E_n = q^{-n} - 1; at
    # most 1 is big q-Hermite, none q-Hermite.  Off the chain: no q-identity
    nonzero = fam.nonzero_parameters(p)
    k = 4 if nonzero is None else len(nonzero)
    if k < 4:
        e_n = per_level(ctx.energies(lv))
        checks.append(
            ("ladder.q_deformed_commutator", (0, n_max), 10,
             _residual(((H_up - (1.0 / q) * e_n * up0)[_FIRST_10],
                        (H_dn - q * e_n * dn0)[_FIRST_10]),
                       (((1.0 / q - 1.0) * up0)[_FIRST_10], ((q - 1.0) * dn0)[_FIRST_10]))))
    if k <= 1:
        checks.append(
            ("ladder.q_oscillator_pair", (0, n_max), 10,
             _residual((a_minus_a_plus - q * a_plus_a_minus)[_FIRST_10],
                       (0.25 * (1.0 - q) * at_x[: n_max + 1])[_FIRST_10])))
    if k == 0:
        checks.extend(_qhermite_special(ctx, lat, f_n.at(0, 2), n_max))
    return checks


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
    operator special to continuous q-Hermite, Askey-Wilson at (0, 0, 0, 0)."""
    q = ctx.p.q
    at_x = f.at(0)
    # A A^dag - q^{-1} A^dag A = q^{-1} - 1 transcribed to F/B level
    fb = ctx.forward(ctx.backward(f, lat), lat)
    bf = ctx.backward(ctx.forward(f, lat), lat)
    lv = np.arange(n_max + 1)
    e1 = per_level(ctx.energies(lv) + 1.0)
    x_f = _x_tilde(ctx, lat, f, e1)
    # (2 q^{-1/2} X (H+1))^2 = H + 1 on level-n data
    m1 = 2.0 * q ** (-0.5) * x_f * e1
    return [
        ("ladder.shape_invariance_q_oscillator", (0, n_max), 10,
         _residual((fb - bf / q)[_FIRST_10], ((1.0 / q - 1.0) * at_x)[_FIRST_10])),
        ("ladder.level_diagonal_operator", (0, n_max), 10,
         _residual((x_f.at(0)[_FIRST_10],
                    (2.0 * q ** (-0.5) * _x_tilde(ctx, lat, m1, e1) * e1)[_FIRST_10]),
                   ((0.5 * q ** (0.5 * (per_level(lv) + 1)) * at_x)[_FIRST_10],
                    (e1 * at_x)[_FIRST_10]))),
    ]


# ---------------------------------------------------------------- coherent

_COHERENT_CAP = 60


def _default_alpha(fam) -> complex:
    """The coherent-state eigenvalue alpha of the coherent suite."""
    return complex(0.2 if fam.spec.uses_q else 0.5)


def _coherent(fam, p: ParamSet, config: VerifyConfig):
    """Annihilation-eigenvector property of the coherent series, plus the
    closed-form resummations where one exists."""
    alpha = _default_alpha(fam)
    xs = sample_points(fam, p, 6, config.seed)
    n_trunc, _, sums, lowered = _coherent_series(OperatorContext(fam, p), alpha, xs)
    checks = [("coherent.annihilation_eigenvector", (0, n_trunc), 6,
               _residual(lowered, alpha * sums))]
    closed = _coherent_closed_form(fam, p, alpha, xs)
    if closed is not None:
        checks.append(("coherent.closed_form", (0, n_trunc), 6, _residual(sums, closed)))
    return checks


def _coherent_series(ctx: OperatorContext, alpha: complex, xs):
    """The coherent series sum_n alpha^n / (C_1 ... C_n) P_n at the points
    xs, truncated at N (`_truncation`): (N, its relative tail, the partial
    sums and the lowering operator applied to them), the last two as Terms
    on the centre row of the shift lattice of xs."""
    # coefficients alpha^n / prod_{k<=n} C_k, C_cap from one level more
    poly = eval_poly_recurrence(ctx.family, ctx.p, _COHERENT_CAP + 1)
    *_, C_n = three_term(poly.a, poly.b, poly.c)
    coeffs = per_level(np.cumprod([1.0, *(alpha / np.array(C_n[1: _COHERENT_CAP + 1]))]))

    # every level on the whole lattice in one pass, N from the first sample
    # point, then the levels through N, shared by the partial sums and the
    # lowering operator.  Levels past N may overflow (Wilson a = 30:
    # P_56 .. P_61) and are never used; a non-finite tail at N is warned of
    lat = ctx.lattice(xs, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        levels = poly.eval_levels(lat.eta.val)[: _COHERENT_CAP + 1]
        n_trunc, tail = _truncation(coeffs[:, 0, 0] * levels[:, lat.half, 0])
    if not tail <= 1e-12:
        warnings.warn(
            f"coherent series truncated at N={n_trunc} with relative tail "
            f"{tail:.2e} > 1e-12",
            RuntimeWarning,
            stacklevel=2,
        )

    f = Terms(levels[: n_trunc + 1])
    sums = (coeffs[: n_trunc + 1] * f.at(0)).sum(axis=0)
    lowered = (coeffs[1: n_trunc + 1]
               * ladder_action(ctx, "-", range(1, n_trunc + 1), f[1:], lat)).sum(axis=0)
    return n_trunc, float(tail), sums, lowered


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


def _coherent_closed_form(fam, p: ParamSet, alpha: complex, xs):
    """The family's closed form of the coherent series at the points xs, its
    series summed in plain double, as Terms with the sum of the terms' moduli
    as its magnitude; None where the family has none."""
    closed = fam.coherent_closed_form(p, alpha, np.asarray(xs, dtype=float))
    if closed is None:
        return None
    ratios, prefactor = closed
    t = np.cumprod(ratios, axis=0)
    return Terms(1.0 + t.sum(axis=0), 1.0 + np.abs(t).sum(axis=0)) * prefactor


# ----------------------------------------------- orthogonality/hermiticity

def _orthogonality(fam, p: ParamSet, config: VerifyConfig):
    n_max = config.n_max
    # the unit-normalised Gram matrix against the identity; a NaN propagates
    dev = np.abs(orthogonality_matrix(fam, p, n_max).val - np.eye(n_max + 1))
    diag = np.diag(dev)
    return [
        ("orthogonality.diagonal_norms", (0, n_max), (n_max + 1) ** 2, np.max(diag)),
        ("orthogonality.off_diagonal", (0, n_max), (n_max + 1) ** 2,
         np.max(dev - np.diag(diag))),
    ]


def _hermiticity(fam, p: ParamSet, config: VerifyConfig):
    # K_nm = (phi0 P_n, H phi0 P_m) on unit-normed phi0 P_n; the mirror form
    # (H phi0 P_n, phi0 P_m) is conj(K_mn), and diag(K) is the spectrum
    n_max = config.n_max
    K = hermiticity_forms(fam, p, n_max)
    # diag(K) against E_n at levels 0 and 1 only: above them the round-off
    # of H-tilde P_n can exceed the tolerance (Meixner-Pollaczek a = 40)
    top = min(n_max, 1)
    diag = Terms(np.diag(K.val), np.diag(K.mag))[:top + 1]
    energy = np.array([fam.energy(p, n) for n in range(top + 1)])
    return [
        ("hermiticity.symmetric_form", (0, n_max), (n_max + 1) ** 2,
         _residual(K, Terms(np.conj(K.val.T), K.mag.T))),
        ("hermiticity.diagonal_energy", (0, top), top + 1, _residual(diag, energy)),
    ]


# ------------------------------------------------------------------- limit

def _limit(fam, p: ParamSet, config: VerifyConfig):
    """The scaled quantities of the q-family whose q -> 1 limit this family
    is (`Family.q_limit`) must approach the family's own monotonically.

    The scaled quantities converge like 1/L, so along _L_SEQUENCE the raw
    deviations still sit at a few times 1e-2.  Two checks: a strict
    monotone decrease of the raw deviation sequences, and the deviation of
    the final 1/L Richardson extrapolant (2 S(L) - S(L/2)), which removes
    the leading term and must land below 1e-2 of the family's values.  Both
    are array expressions over one (L x cell) array of scaled values.  A
    family that is no such limit has no checks here.
    """
    scaled = fam.q_limit
    if scaled is None:
        return []
    # one cell per quantity, with its target: E_1..E_3, f_1, b_1, f_2, b_2
    # and V at three points; one row of scaled values per L
    cells = [("energy", {"n": n}, fam.energy(p, n)) for n in (1, 2, 3)]
    for n in (1, 2):
        cells += [("f_n", {"n": n}, fam.f_shift(p, n)), ("b_n", {"n": n}, fam.b_shift(p, n))]
    cells += [("potential", {"x": x}, fam.V(p, x)) for x in (0.6, 1.1, 1.9)]
    got = np.array([[scaled(kind, p, L, **at) for kind, at, _ in cells] for L in _L_SEQUENCE])
    target = np.array([t for *_, t in cells])
    dev = np.abs(got - target) / (1.0 + np.abs(target))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(dev[:-1] > 0, dev[1:] / dev[:-1], math.inf)
    l_prev, l_last = _L_SEQUENCE[-2:]
    extrapolated = got[-1] + (got[-1] - got[-2]) * l_prev / (l_last - l_prev)
    return [
        ("limit.monotone_decrease", (1, 3), len(_L_SEQUENCE),
         float(np.max(ratios, initial=0.0))),
        ("limit.extrapolated_deviation", (1, 3), len(_L_SEQUENCE),
         float(np.max(np.abs(extrapolated - target) / (1.0 + np.abs(target)), initial=0.0))),
    ]


# --------------------------------------------------------- number operator

def _number_operator(fam, p: ParamSet, config: VerifyConfig):
    """The level recovered from its energy through the stated inversion."""
    worst = np.max([abs(fam.level_from_energy(p, fam.energy(p, n)) - n) / (1.0 + n)
                    for n in _LEVELS], initial=0.0)
    return [("number_operator.inversion", (_LEVELS[0], _LEVELS[-1]), len(_LEVELS),
             float(worst))]


# --------------------------------------------------------------- dispatch

_SUITE_RUNNERS = {
    "eigen": _eigen,
    "shape_invariance": _shape_invariance,
    "closure": _closure,
    "dual_closure": _dual_closure,
    "shifts": _shifts,
    "ladder": _ladder,
    "coherent": _coherent,
    "orthogonality": _orthogonality,
    "hermiticity": _hermiticity,
    "limit": _limit,
    "number_operator": _number_operator,
}
SUITES = tuple(_SUITE_RUNNERS)


def run_suite(suite_id: str, family, params: ParamSet,
              config: VerifyConfig = VerifyConfig()):
    """Run one named suite; deterministic for a fixed config.

    Every entry (check_id, level range, samples, residual) that the suite
    returns becomes a CheckResult, judged against the check's tolerance."""
    fam = get_family(family)
    fam.validate(params)
    runner = _SUITE_RUNNERS.get(suite_id)
    if runner is None:
        raise ValueError(f"unknown suite {suite_id!r}; known: {', '.join(SUITES)}")
    results = []
    as_dict = params.as_dict()
    for check_id, levels, samples, residual in runner(fam, params, config):
        tol = _tol(config, check_id)
        results.append(CheckResult(
            check_id=check_id,
            family=fam.spec.name,
            params=as_dict,
            level_range=levels,
            max_residual=float(residual),
            tolerance=float(tol),
            passed=bool(residual <= tol),
            samples_used=int(samples),
        ))
    return results
