"""Named verification suites: every identity of the framework is exercised
by exactly one suite, with residuals reported relative to term magnitude.

Suites: eigen, shape_invariance, closure, dual_closure, shifts, ladder,
coherent, orthogonality, hermiticity, limit, number_operator.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .families import (
    FamilyId,
    ParamSet,
    aw_to_wilson_scaled,
    eval_polys_recurrence,
    get_family,
)
from .operators import OperatorContext, ladder_action, memo, rodrigues_polynomial, sample_points
from .polynomials import monomial
from .quadrature import QuadratureSpec, hermiticity_forms, orthogonality_matrix
from .specfun import basic_hypergeometric_phi, hypergeometric_F, q_pochhammer_inf

__all__ = [
    "SUITES",
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


def _worst(worst: float, residual: float) -> float:
    """max(worst, residual), except that a NaN on either side wins.

    max() drops a NaN residual (max(0.0, nan) is 0.0), which would let a
    check pass on a value that is not a number.
    """
    return residual if residual > worst or residual != residual else worst


def _rel(diff: float, scale: float) -> float:
    return diff / (1.0 + scale)


def _tol(config: VerifyConfig, default: float) -> float:
    return config.tol_override if config.tol_override is not None else default


# ------------------------------------------------------------------- eigen

def check_eigen(family, p: ParamSet, config: VerifyConfig = VerifyConfig()):
    """H-tilde P_n = E_n P_n pointwise, plus lower-triangularity on eta^n."""
    fam = get_family(family)
    ctx = OperatorContext(fam, p)
    xs = sample_points(fam, p, config.samples, config.seed)
    tol = _tol(config, 1e-9)
    worst = 0.0
    for n, poly in enumerate(eval_polys_recurrence(fam, p, config.n_max)):
        f = ctx.poly_fn(poly)
        e_n = ctx.energy(n)
        for x in xs:
            target = e_n * poly.eval(ctx.eta(x))
            worst = _worst(worst, _rel(abs(ctx.H_tilde(f, x) - target), abs(target)))
    results = [
        CheckResult.build(
            "eigen.eigenvalue_equation", fam, p, (0, config.n_max), worst, tol,
            len(xs),
        )
    ]
    # triangularity: H-tilde eta^n - E_n eta^n is a polynomial of degree < n
    worst_tri = 0.0
    for n in range(1, config.n_max + 1):
        mono = monomial(n, fam.spec.id, p)
        f = ctx.poly_fn(mono)
        e_n = ctx.energy(n)
        etas = np.array([ctx.eta(x) for x in xs])
        rem = np.array(
            [ctx.H_tilde(f, x) - e_n * ctx.eta(x) ** n for x in xs]
        )
        scale = float(np.max(np.abs(rem))) + float(np.max(np.abs(etas))) ** n
        # fit a degree-(n-1) polynomial through the remainder; the fit must
        # reproduce it, otherwise a degree-n component is present
        vander = np.vander(etas, n, increasing=True)
        coef, *_ = np.linalg.lstsq(vander, rem, rcond=None)
        resid = float(np.max(np.abs(vander @ coef - rem)))
        worst_tri = _worst(worst_tri, _rel(resid, scale))
    results.append(
        CheckResult.build(
            "eigen.lower_triangularity", fam, p, (1, config.n_max), worst_tri,
            tol, len(xs),
        )
    )
    return results


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
    g = ctx.gamma
    kappa = ctx.kappa
    e1 = ctx.energy(1)
    tol = _tol(config, 1e-10)
    worst = 0.0
    for x in xs:
        # the stars conjugate the evaluated values at the shifted points
        v_m = ctx.V(x - 0.5j * g)
        v_p = ctx.V(x + 0.5j * g)
        lhs1 = v_m * np.conj(v_p)
        rhs1 = kappa**2 * ctx_s.V(x) * np.conj(ctx_s.V(x + 1j * g))
        scale1 = abs(lhs1) + abs(rhs1)
        worst = _worst(worst, _rel(abs(lhs1 - rhs1), scale1))
        lhs2 = 2.0 * complex(v_p).real
        rhs2 = kappa * 2.0 * complex(ctx_s.V(x)).real - e1
        scale2 = abs(lhs2) + abs(rhs2)
        worst = _worst(worst, _rel(abs(lhs2 - rhs2), scale2))
    results = [
        CheckResult.build(
            "shape_invariance.potential_identities", fam, p, (0, 1), worst,
            tol, len(xs),
        )
    ]
    # the shifted ground state relation, squared so that the weight
    # continues analytically: phi0^2(x - ig/2; lambda+delta)
    #   = V(x; lambda) phi(x - ig/2)^2 phi0^2(x; lambda)
    p_s = fam.shifted(p)
    worst_gs = 0.0
    for x in xs:
        lhs = fam.weight_square(p_s, x - 0.5j * g)
        rhs = (
            ctx.V(x)
            * ctx.phi_aux(x - 0.5j * g) ** 2
            * fam.weight_square(p, x)
        )
        worst_gs = _worst(worst_gs, _rel(abs(lhs - rhs), abs(lhs) + abs(rhs)))
        # the continuation agrees with the modulus form on the real axis
        direct = fam.phi0(p, x) ** 2
        worst_gs = _worst(
            worst_gs,
            _rel(abs(fam.weight_square(p, x) - direct), abs(direct)),
        )
    results.append(
        CheckResult.build(
            "shape_invariance.ground_state_shift", fam, p, (0, 0), worst_gs,
            tol, len(xs),
        )
    )
    # the spectrum generated by E_1 under repeated shifts
    worst_sg = 0.0
    for n in range(min(10, max(config.n_max, 10)) + 1):
        total = 0.0
        pp = p
        for s in range(n):
            total += kappa**s * fam.energy(pp, 1)
            pp = fam.shifted(pp)
        worst_sg = _worst(worst_sg, _rel(abs(total - fam.energy(p, n)),
                                      abs(fam.energy(p, n))))
    results.append(
        CheckResult.build(
            "shape_invariance.spectrum_generation", fam, p, (0, 10), worst_sg,
            _tol(config, 1e-10), 1,
        )
    )
    return results


# ----------------------------------------------------------------- closure

def check_closure(family, p: ParamSet, config: VerifyConfig = VerifyConfig()):
    """Double-commutator relation on eigenpolynomials, the five expanded
    pointwise conditions, and the pure-coordinate condition."""
    fam = get_family(family)
    ctx = OperatorContext(fam, p)
    cp = ctx.closure
    xs = sample_points(fam, p, config.samples, config.seed)
    tol = _tol(config, 1e-9)

    worst_dc = 0.0
    for n, poly in enumerate(eval_polys_recurrence(fam, p, config.n_max)):
        f = ctx.poly_fn(poly)
        e_n = ctx.energy(n)
        comm = memo(lambda w: ctx.comm_H_eta(f, w))
        for x in xs:
            lhs = ctx.H_tilde(comm, x) - e_n * comm(x)
            rhs = (
                ctx.eta(x) * cp.R0(e_n) * f(x)
                + comm(x) * cp.R1(e_n)
                + cp.Rm1(e_n) * f(x)
            )
            worst_dc = _worst(worst_dc, _rel(abs(lhs - rhs), abs(lhs) + abs(rhs)))
    results = [
        CheckResult.build(
            "closure.double_commutator", fam, p, (0, config.n_max), worst_dc,
            tol, len(xs),
        )
    ]

    r1_1, r1_0 = cp.r1
    r0_2, r0_1, r0_0 = cp.r0
    rm1_2, rm1_1, rm1_0 = cp.rm1
    g = ctx.gamma
    worst_cond = 0.0
    for x in xs:
        eta0 = ctx.eta(x)
        eta_m = ctx.eta(x - 1j * g)      # one step down
        eta_p = ctx.eta(x + 1j * g)
        eta_mm = ctx.eta(x - 2j * g)
        eta_pp = ctx.eta(x + 2j * g)
        V0 = ctx.V(x)
        V0s = np.conj(V0)
        Vm = ctx.V(x - 1j * g)
        Vp = ctx.V(x + 1j * g)
        Vps = np.conj(Vp)                # stars conjugate the shifted values
        Vms = np.conj(Vm)

        # condition 1 and its mirror
        lhs = eta_mm - 2 * eta_m + eta0
        rhs = r0_2 * eta0 + rm1_2 + r1_1 * (eta_m - eta0)
        worst_cond = _worst(worst_cond, _rel(abs(lhs - rhs), abs(lhs) + abs(rhs)))
        lhs = eta_pp - 2 * eta_p + eta0
        rhs = r0_2 * eta0 + rm1_2 + r1_1 * (eta_p - eta0)
        worst_cond = _worst(worst_cond, _rel(abs(lhs - rhs), abs(lhs) + abs(rhs)))

        # condition 2 and its mirror
        lhs = (eta_m - eta0) * (Vm + Vps - V0 - V0s)
        rhs = (
            -(r0_2 * eta0 + rm1_2) * (Vm + Vps + V0 + V0s)
            - r1_1 * (eta_m - eta0) * (Vm + Vps)
            + r0_1 * eta0
            + rm1_1
            + r1_0 * (eta_m - eta0)
        )
        worst_cond = _worst(worst_cond, _rel(abs(lhs - rhs), abs(lhs) + abs(rhs)))
        lhs = (eta_p - eta0) * (Vms + Vp - V0s - V0)
        rhs = (
            -(r0_2 * eta0 + rm1_2) * (Vms + Vp + V0s + V0)
            - r1_1 * (eta_p - eta0) * (Vms + Vp)
            + r0_1 * eta0
            + rm1_1
            + r1_0 * (eta_p - eta0)
        )
        worst_cond = _worst(worst_cond, _rel(abs(lhs - rhs), abs(lhs) + abs(rhs)))

        # condition 3
        lhs = (
            2 * (eta0 - eta_m) * V0 * Vps
            + 2 * (eta0 - eta_p) * V0s * Vp
        )
        rhs = (
            (r0_2 * eta0 + rm1_2)
            * (V0 * Vps + V0s * Vp + (V0 + V0s) ** 2)
            + r1_1 * (eta_m - eta0) * V0 * Vps
            + r1_1 * (eta_p - eta0) * V0s * Vp
            - (r0_1 * eta0 + rm1_1) * (V0 + V0s)
            + r0_0 * eta0
            + rm1_0
        )
        worst_cond = _worst(worst_cond, _rel(abs(lhs - rhs), abs(lhs) + abs(rhs)))
    results.append(
        CheckResult.build(
            "closure.expanded_conditions", fam, p, (0, 0), worst_cond, tol,
            len(xs),
        )
    )

    worst_cc = 0.0
    for x in xs:
        lhs = (
            ctx.eta(x - 1j * g)
            - (2.0 + r1_1) * ctx.eta(x)
            + ctx.eta(x + 1j * g)
        )
        worst_cc = _worst(worst_cc, abs(lhs - rm1_2))
    results.append(
        CheckResult.build(
            "closure.coordinate_condition", fam, p, (0, 0), worst_cc,
            _tol(config, 1e-12), len(xs),
        )
    )
    return results


def check_dual_closure(family, p: ParamSet, config: VerifyConfig = VerifyConfig()):
    """[eta,[eta,H]] expressed through the dual closure polynomials.

    The dual R's multiply the operand before H and [eta,H] act; they are
    functions of eta, evaluated through the coordinate at complex points.
    """
    fam = get_family(family)
    ctx = OperatorContext(fam, p)
    xs = sample_points(fam, p, config.samples, config.seed)
    g = ctx.gamma
    tol = _tol(config, 1e-9)

    def r1_dual(w):
        return ctx.eta(w - 1j * g) + ctx.eta(w + 1j * g) - 2 * ctx.eta(w)

    def r0_dual(w):
        return -(ctx.eta(w - 1j * g) - ctx.eta(w)) * (
            ctx.eta(w + 1j * g) - ctx.eta(w)
        )

    worst = 0.0
    for poly in eval_polys_recurrence(fam, p, config.n_max):
        f = ctx.poly_fn(poly)
        eta_f = memo(lambda w: ctx.eta(w) * f(w))
        eta2_f = memo(lambda w: ctx.eta(w) ** 2 * f(w))
        r0_f = memo(lambda w: r0_dual(w) * f(w))
        r1_f = memo(lambda w: r1_dual(w) * f(w))
        eta_r1_f = memo(lambda w: ctx.eta(w) * r1_dual(w) * f(w))
        for x in xs:
            eta0 = ctx.eta(x)
            rm1d = 2.0 * complex(ctx.V(x)).real * r0_dual(x)
            lhs = (
                ctx.H_tilde(eta2_f, x)
                - 2 * eta0 * ctx.H_tilde(eta_f, x)
                + eta0**2 * ctx.H_tilde(f, x)
            )
            rhs = (
                ctx.H_tilde(r0_f, x)
                + eta0 * ctx.H_tilde(r1_f, x)
                - ctx.H_tilde(eta_r1_f, x)
                + rm1d * f(x)
            )
            worst = _worst(worst, _rel(abs(lhs - rhs), abs(lhs) + abs(rhs)))
    return [
        CheckResult.build(
            "dual_closure.double_commutator", fam, p, (0, config.n_max),
            worst, tol, len(xs),
        )
    ]


# ------------------------------------------------------------------ shifts

def check_shifts(family, p: ParamSet, config: VerifyConfig = VerifyConfig()):
    """Forward/backward intertwining, factorisation, the Rodrigues chain and
    the explicit parameter-shift operators where they exist."""
    from .operators import lambda_shift_X

    fam = get_family(family)
    ctx = OperatorContext(fam, p)
    p_s = fam.shifted(p)
    ctx_s = OperatorContext(fam, p_s)
    xs = sample_points(fam, p, config.samples, config.seed)
    n_max = min(config.n_max, 8)
    tol = _tol(config, 1e-9)

    polys = eval_polys_recurrence(fam, p, n_max + 1)
    polys_s = eval_polys_recurrence(fam, p_s, n_max + 1)

    worst_f = 0.0
    worst_b = 0.0
    worst_fac = 0.0
    for n in range(n_max + 1):
        f_lam = ctx.poly_fn(polys[n])
        f_lam_s = ctx.poly_fn(polys_s[n])
        f_n = fam.f_shift(p, n)
        b_n = fam.b_shift(p, n)
        fac_scalar = ctx.kappa * fam.energy(p_s, n) + ctx.energy(1)
        for x in xs:
            if n >= 1:
                target = f_n * polys_s[n - 1].eval(ctx.eta(x))
                got = ctx.forward(f_lam, x)
                worst_f = _worst(worst_f, _rel(abs(got - target), abs(target)))
            else:
                worst_f = _worst(worst_f, abs(ctx.forward(f_lam, x)))
            target = b_n * polys[n + 1].eval(ctx.eta(x))
            got = ctx.backward(f_lam_s, x)
            worst_b = _worst(worst_b, _rel(abs(got - target), abs(target)))
            # F(lambda) B(lambda) on (lambda+delta)-data
            b_out = memo(lambda w: ctx.backward(f_lam_s, w))
            got = ctx.forward(b_out, x)
            target = fac_scalar * polys_s[n].eval(ctx.eta(x))
            worst_fac = _worst(worst_fac, _rel(abs(got - target), abs(target)))
    results = [
        CheckResult.build("shifts.forward_action", fam, p, (0, n_max),
                          worst_f, tol, len(xs)),
        CheckResult.build("shifts.backward_action", fam, p, (0, n_max),
                          worst_b, tol, len(xs)),
        CheckResult.build("shifts.factorization", fam, p, (0, n_max),
                          worst_fac, tol, len(xs)),
    ]

    worst_e = 0.0
    for n in range(1, n_max + 1):
        lhs = fam.f_shift(p, n) * fam.b_shift(p, n - 1)
        worst_e = _worst(worst_e, _rel(abs(lhs - fam.energy(p, n)),
                                    abs(fam.energy(p, n))))
    results.append(
        CheckResult.build("shifts.energy_factorization", fam, p, (1, n_max),
                          worst_e, tol, 1)
    )

    worst_r = 0.0
    for n in range(n_max + 1):
        chain = rodrigues_polynomial(fam, p, n)
        for x in xs[: max(4, len(xs) // 4)]:
            target = polys[n].eval(ctx.eta(x))
            worst_r = _worst(worst_r, _rel(abs(chain(x) - target), abs(target)))
    results.append(
        CheckResult.build("shifts.rodrigues_chain", fam, p, (0, n_max),
                          worst_r, tol, max(4, len(xs) // 4))
    )

    name = fam.spec.name
    mp_at_half_pi = (
        name == "meixner-pollaczek"
        and p.phi is not None
        and abs(p.phi - math.pi / 2) < 1e-12
    )
    if mp_at_half_pi or name == "continuous-dual-hahn":
        worst_x = 0.0
        n_x = min(6, n_max)
        for n in range(n_x + 1):
            for x in xs[:8]:
                got = lambda_shift_X(fam, p, "X", n, polys[n], x)
                if mp_at_half_pi:
                    target = 0.5 * polys_s[n].eval(ctx.eta(x))
                else:
                    target = polys_s[n].eval(ctx.eta(x))
                worst_x = _worst(worst_x, _rel(abs(got - target), abs(target)))
                got = lambda_shift_X(fam, p, "Xdag", n, polys_s[n], x)
                if mp_at_half_pi:
                    a = p.a[0].real
                    target = 0.25 * (n + 2 * a) * polys[n].eval(ctx.eta(x))
                else:
                    factor = complex(1.0)
                    for i in range(3):
                        for j in range(i + 1, 3):
                            factor *= n + p.a[i] + p.a[j]
                    target = factor.real * polys[n].eval(ctx.eta(x))
                worst_x = _worst(worst_x, _rel(abs(got - target), abs(target)))
        results.append(
            CheckResult.build("shifts.lambda_shift_x", fam, p, (0, n_x),
                              worst_x, tol, 8)
        )
    return results


# ------------------------------------------------------------------ ladder

def check_ladder(family, p: ParamSet, config: VerifyConfig = VerifyConfig()):
    """Annihilation/creation actions, their commutators with H, the pair
    commutator on levels, and the deformed/q-oscillator specialisations."""
    fam = get_family(family)
    ctx = OperatorContext(fam, p)
    xs = sample_points(fam, p, config.samples, config.seed)
    n_max = config.n_max
    tol = _tol(config, 1e-10)
    # one memoised operand per level, shared by every block below, so each
    # P_n is evaluated once per point
    fs = [ctx.poly_fn(P) for P in eval_polys_recurrence(fam, p, n_max + 1)]

    worst_act = 0.0
    worst_comm = 0.0
    worst_pair = 0.0
    for n in range(n_max + 1):
        f = fs[n]
        bundle = fam.coefficients(p, n)
        up = memo(lambda w: ladder_action(ctx, "+", n, f, w))
        dn = memo(lambda w: ladder_action(ctx, "-", n, f, w))
        e_up = ctx.energy(n + 1)
        e_dn = ctx.energy(n - 1)
        b_next = complex(fam.b_rec(p, n + 1)).real
        b_this = complex(fam.b_rec(p, n)).real
        for x in xs:
            target = bundle.A_n * fs[n + 1](x)
            worst_act = _worst(worst_act, _rel(abs(up(x) - target), abs(target)))
            if n >= 1:
                target = bundle.C_n * fs[n - 1](x)
                worst_act = _worst(worst_act, _rel(abs(dn(x) - target), abs(target)))
            else:
                worst_act = _worst(worst_act, abs(dn(x)))
            # [H, a^(pm)] phi_n = (E_{n pm 1} - E_n) a^(pm) phi_n, i.e. the
            # ladder output is an eigenfunction at the neighbouring level
            got = ctx.H_tilde(up, x)
            target = e_up * up(x)
            worst_comm = _worst(worst_comm, _rel(abs(got - target), abs(target)))
            if n >= 1:
                got = ctx.H_tilde(dn, x)
                target = e_dn * dn(x)
                worst_comm = _worst(worst_comm, _rel(abs(got - target), abs(target)))
            # [a-, a+] phi_n = (b_{n+1} - b_n) phi_n
            a_minus_a_plus = ladder_action(ctx, "-", n + 1, up, x)
            a_plus_a_minus = (
                ladder_action(ctx, "+", n - 1, dn, x) if n >= 1 else 0j
            )
            got = a_minus_a_plus - a_plus_a_minus
            target = (b_next - b_this) * f(x)
            worst_pair = _worst(worst_pair, _rel(abs(got - target), abs(target)))
    results = [
        CheckResult.build("ladder.level_actions", fam, p, (0, n_max),
                          worst_act, tol, len(xs)),
        CheckResult.build("ladder.hamiltonian_commutator", fam, p,
                          (0, n_max), worst_comm, tol, len(xs)),
        CheckResult.build("ladder.pair_commutator", fam, p, (0, n_max),
                          worst_pair, tol, len(xs)),
    ]

    # deformed commutator for the simple q-spectrum families
    q = p.q
    if q is not None and fam.spec.name in (
        "continuous-dual-q-hahn",
        "al-salam-chihara",
        "continuous-big-q-hermite",
        "continuous-q-hermite",
        "continuous-q-laguerre",
    ):
        worst_def = 0.0
        for n in range(n_max + 1):
            f = fs[n]
            e_n = ctx.energy(n)
            for sign, defq in (("+", 1.0 / q), ("-", q)):
                lad = memo(lambda w: ladder_action(ctx, sign, n, f, w))
                for x in xs[:10]:
                    got = ctx.H_tilde(lad, x) - defq * e_n * lad(x)
                    target = (defq - 1.0) * lad(x)
                    worst_def = _worst(
                        worst_def, _rel(abs(got - target), abs(target))
                    )
        results.append(
            CheckResult.build("ladder.q_deformed_commutator", fam, p,
                              (0, n_max), worst_def, tol, 10)
        )

    # q-oscillator realisations on the two Hermite-type families
    if fam.spec.name in ("continuous-big-q-hermite", "continuous-q-hermite"):
        worst_osc = 0.0
        for n in range(n_max + 1):
            f = fs[n]
            up = memo(lambda w: ladder_action(ctx, "+", n, f, w))
            dn = memo(lambda w: ladder_action(ctx, "-", n, f, w))
            for x in xs[:10]:
                ama = ladder_action(ctx, "-", n + 1, up, x)
                apa = ladder_action(ctx, "+", n - 1, dn, x) if n >= 1 else 0j
                got = ama - q * apa
                target = 0.25 * (1.0 - q) * f(x)
                worst_osc = _worst(worst_osc, _rel(abs(got - target), abs(target)))
        results.append(
            CheckResult.build("ladder.q_oscillator_pair", fam, p, (0, n_max),
                              worst_osc, tol, 10)
        )

    if fam.spec.name == "continuous-q-hermite":
        results.extend(_qhermite_special(fam, p, ctx, fs, xs, n_max, tol))
    return results


def _qhermite_special(fam, p, ctx, fs, xs, n_max, tol):
    """Shape-invariance q-oscillator and the explicit level-diagonal
    operator special to continuous q-Hermite."""
    q = p.q
    worst = 0.0
    for n in range(n_max + 1):
        f = fs[n]
        # A A^dag - q^{-1} A^dag A = q^{-1} - 1 transcribed to F/B level
        fb = memo(lambda w: ctx.forward(lambda u: ctx.backward(f, u), w))
        bf = memo(lambda w: ctx.backward(lambda u: ctx.forward(f, u), w))
        for x in xs[:10]:
            got = fb(x) - bf(x) / q
            target = (1.0 / q - 1.0) * f(x)
            worst = _worst(worst, _rel(abs(got - target), abs(target)))
    results = [
        CheckResult.build("ladder.shape_invariance_q_oscillator", fam, p,
                          (0, n_max), worst, tol, 10)
    ]

    def x_tilde(level, f, w):
        w = complex(w)
        g = ctx.gamma
        z = cmath.exp(1j * w)
        scalar = 1.0 / (ctx.energy(level) + 1.0)
        val = 0.5 * math.sqrt(q) * (
            f(w - 0.5j * g) / (1.0 - z * z)
            + f(w + 0.5j * g) / (1.0 - z ** (-2.0))
        )
        return val * scalar

    worst_x = 0.0
    for n in range(n_max + 1):
        f = fs[n]
        for x in xs[:10]:
            got = x_tilde(n, f, x)
            target = 0.5 * q ** (0.5 * (n + 1)) * f(x)
            worst_x = _worst(worst_x, _rel(abs(got - target), abs(target)))
            # (2 q^{-1/2} X (H+1))^2 = H + 1 on level-n data
            m1 = lambda w: 2.0 * q ** (-0.5) * x_tilde(n, f, w) * (
                ctx.energy(n) + 1.0
            )
            got = 2.0 * q ** (-0.5) * x_tilde(n, m1, x) * (ctx.energy(n) + 1.0)
            target = (ctx.energy(n) + 1.0) * f(x)
            worst_x = _worst(worst_x, _rel(abs(got - target), abs(target)))
    results.append(
        CheckResult.build("ladder.level_diagonal_operator", fam, p,
                          (0, n_max), worst_x, tol, 10)
    )
    return results


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

    # coefficients alpha^n / prod_{k<=n} C_k
    cap = N if N is not None else _COHERENT_CAP
    coeffs = [complex(1.0)]
    prod_c = complex(1.0)
    for k in range(1, cap + 1):
        bundle = fam.coefficients(p, k)
        prod_c *= bundle.C_n
        coeffs.append(alpha**k / prod_c)

    import warnings as _warnings

    from .specfun import ConditioningWarning

    with _warnings.catch_warnings():
        # tail terms beyond degree 30 carry coefficients ~1e-14 of the sum,
        # so their reduced pointwise accuracy cannot surface in the result
        _warnings.simplefilter("ignore", ConditioningWarning)
        polys = eval_polys_recurrence(fam, p, cap)

    # one memoised operand per level, shared by the partial sums and the
    # lowering operator, so each P_n is evaluated once per point
    fs = [ctx.poly_fn(poly) for poly in polys]
    terms_at = [[coeffs[n] * fs[n](x) for n in range(cap + 1)] for x in xs]

    # choose the truncation where the terms dip below 1e-14 of the sum; two
    # consecutive small terms are required, since a single term can vanish
    # through a zero of its polynomial factor
    terms0 = terms_at[0]
    running = 0j
    n_trunc = cap
    for n, t in enumerate(terms0):
        running += t
        if (
            n >= 10
            and abs(t) < 1e-14 * abs(running)
            and abs(terms0[n - 1]) < 1e-14 * abs(running)
        ):
            n_trunc = n
            break
    tail = abs(terms0[n_trunc]) / max(abs(running), 1e-300)
    if tail > 1e-12:
        import warnings as _w

        _w.warn(
            f"coherent series truncated at N={n_trunc} with relative tail "
            f"{tail:.2e} > 1e-12",
            RuntimeWarning,
            stacklevel=2,
        )

    sums = [sum(terms[: n_trunc + 1]) for terms in terms_at]
    worst_ann = 0.0
    for x, s in zip(xs, sums):
        lowered = 0j
        for n in range(1, n_trunc + 1):
            lowered += coeffs[n] * ladder_action(ctx, "-", n, fs[n], x)
        target = alpha * s
        if target == 0:
            # alpha = 0: the state is the ground state and must be killed
            worst_ann = _worst(worst_ann, abs(lowered))
        else:
            worst_ann = _worst(worst_ann, abs(lowered - target) / abs(target))

    closed0 = None
    worst_closed = None
    closed_fn = _coherent_closed_form(fam, p, alpha)
    if closed_fn is not None:
        worst_closed = 0.0
        for x, s in zip(xs, sums):
            cval = closed_fn(x)
            if closed0 is None:
                closed0 = cval
            worst_closed = _worst(worst_closed, abs(s - cval) / (1.0 + abs(cval)))

    return CoherentStateEval(
        alpha=alpha,
        truncation_N=n_trunc,
        partial_sum=sums[0],
        closed_form=closed0,
        annihilation_residual=worst_ann,
        tail_estimate=float(tail),
    ), worst_closed


def _coherent_closed_form(fam, p: ParamSet, alpha: complex):
    """phi0-stripped closed form of the coherent series, where known."""
    name = fam.spec.name
    if name == "meixner-pollaczek":
        a = p.a[0].real
        phi = p.phi

        def mp_form(x):
            pref = cmath.exp(1j * alpha * (1.0 - cmath.exp(2j * phi)))
            f = hypergeometric_F(
                [a + 1j * x], [2 * a], -4j * alpha * math.sin(phi) ** 2, 80
            )
            return pref * f

        return mp_form
    q = p.q
    if name == "al-salam-chihara":
        a1, a2 = p.a

        def asc_form(x):
            z = cmath.exp(1j * x)
            pref = 1.0 / q_pochhammer_inf(2 * alpha * z, q)
            f = basic_hypergeometric_phi(
                [a1 * z, a2 * z], [a1 * a2], q, 2 * alpha / z, 200
            )
            return pref * f

        return asc_form
    if name == "continuous-big-q-hermite":
        a = p.a[0]

        def bqh_form(x):
            z = cmath.exp(1j * x)
            return q_pochhammer_inf(2 * alpha * a, q) / (
                q_pochhammer_inf(2 * alpha * z, q)
                * q_pochhammer_inf(2 * alpha / z, q)
            )

        return bqh_form
    if name == "continuous-q-hermite":

        def qh_form(x):
            z = cmath.exp(1j * x)
            return 1.0 / (
                q_pochhammer_inf(2 * alpha * z, q)
                * q_pochhammer_inf(2 * alpha / z, q)
            )

        return qh_form
    if name == "continuous-q-laguerre":
        al = p.a[0].real
        k = q ** (0.5 * (al + 0.5))

        def ql_form(x):
            z = cmath.exp(1j * x)
            pref = 1.0 / q_pochhammer_inf(2 * alpha * z, q)
            f = basic_hypergeometric_phi(
                [k * z, k * math.sqrt(q) * z], [q ** (al + 1)], q,
                2 * alpha / z, 200,
            )
            return pref * f

        return ql_form
    return None


def coherent_results(family, p: ParamSet, config: VerifyConfig = VerifyConfig()):
    fam = get_family(family)
    ev, worst_closed = check_coherent(family, p, config=config)
    results = [
        CheckResult.build("coherent.annihilation_eigenvector", fam, p,
                          (0, ev.truncation_N), ev.annihilation_residual,
                          _tol(config, 1e-7), 6)
    ]
    if worst_closed is not None:
        results.append(
            CheckResult.build("coherent.closed_form", fam, p,
                              (0, ev.truncation_N), worst_closed,
                              _tol(config, 1e-8), 6)
        )
    return results


# ----------------------------------------------- orthogonality/hermiticity

def check_orthogonality(family, p: ParamSet, config: VerifyConfig = VerifyConfig()):
    fam = get_family(family)
    n_max = min(config.n_max, 6)
    m = orthogonality_matrix(fam, p, n_max, QuadratureSpec())
    worst_diag = 0.0
    for n in range(n_max + 1):
        worst_diag = _worst(
            worst_diag,
            abs(m.entries[n, n] - m.expected_diag[n]) / m.expected_diag[n],
        )
    return [
        CheckResult.build("orthogonality.diagonal_norms", fam, p, (0, n_max),
                          worst_diag, _tol(config, 1e-5), (n_max + 1) ** 2),
        CheckResult.build("orthogonality.off_diagonal", fam, p, (0, n_max),
                          m.max_offdiag_rel, _tol(config, 1e-6),
                          (n_max + 1) ** 2),
    ]


def check_hermiticity(family, p: ParamSet, config: VerifyConfig = VerifyConfig()):
    fam = get_family(family)
    # unit-norm scaling keeps the two forms at order one, so the reported
    # asymmetry is not swamped by cancellation inside each integral
    h0 = fam.h0(p)
    polys = [
        poly.scaled(math.sqrt(fam.h0_over_hn(p, n) / h0))
        for n, poly in enumerate(eval_polys_recurrence(fam, p, 4))
    ]
    pairs = [
        (polys[0], polys[0]),
        (polys[1], polys[1]),
        (polys[1], polys[2]),
        (polys[3], polys[0]),
        (polys[2], polys[4]),
    ]
    Ps, Qs = zip(*pairs)
    worst = 0.0
    for lhs, rhs in zip(*hermiticity_forms(fam, p, Ps, Qs)):
        worst = _worst(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    return [
        CheckResult.build("hermiticity.symmetric_form", fam, p, (0, 4),
                          worst, _tol(config, 1e-6), len(pairs)),
    ]


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
            1.0, len(L_sequence),
        ),
        CheckResult.build(
            "limit.extrapolated_deviation", wilson, p, (1, 3), extrap_worst,
            _tol(config, 1e-2), len(L_sequence),
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
        (min(n_range), max(n_range)), worst, _tol(config, 1e-10),
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
