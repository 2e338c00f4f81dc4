"""Operator engine: Hamiltonian action, shift operators, commutators,
ladder operators and the explicit parameter-shift operators."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from dqm.families import (
    FAMILIES,
    FamilyId,
    ParamSet,
    SingularityError,
    eval_poly_recurrence,
    get_family,
)
from dqm.fixtures import fixture_names, fixture_params
from dqm.operators import (
    OperatorContext,
    Terms,
    ladder_action,
    lambda_shift_X,
    rodrigues_polynomial,
    sample_points,
)
from dqm.polynomials import EtaPolynomial


def all_fixtures():
    out = []
    for fid in FamilyId:
        fam = FAMILIES[fid]
        for name in fixture_names(fam):
            out.append((fam.spec.name, name))
    return out


ONE = EtaPolynomial((), (), (1.0,))  # the constant 1 as a polynomial


def _apply(op, family, p, poly, xs, half):
    """The OperatorContext method op on P_0 .. P_n of poly at the points xs,
    given on the lattice rows -half..half: a (levels, points) array."""
    ctx = OperatorContext(family, p)
    lat = ctx.lattice(xs, half)
    return op(ctx, lat.operand(poly), lat).val[:, 0]


_H, _F, _B = OperatorContext.H_tilde, OperatorContext.forward, OperatorContext.backward


# -------------------------------------------------------------- H-tilde

@pytest.mark.parametrize("family,name", all_fixtures())
def test_H_annihilates_constants(family, name):
    p = fixture_params(family, name)
    fam = get_family(family)
    got = _apply(_H, fam, p, ONE, sample_points(fam, p, 5), 2)
    assert got.shape == (1, 5)
    assert np.all(np.abs(got) <= 1e-12)

@pytest.mark.parametrize("family,name", all_fixtures())
def test_eigen_equation(family, name):
    p = fixture_params(family, name)
    fam = get_family(family)
    xs = sample_points(fam, p, 10)
    got = _apply(_H, fam, p, eval_poly_recurrence(fam, p, 8), xs, 2)
    for n in range(0, 9, 2):
        poly = eval_poly_recurrence(fam, p, n)
        e_n = fam.energy(p, n)
        for g, x in zip(got[n], xs):
            target = e_n * poly.eval(fam.eta(x))
            assert abs(g - target) <= 1e-9 * (1 + abs(target))

def test_H_triangular_on_monomials():
    # H eta^n = E_n eta^n + lower orders: subtracting the top term leaves
    # something a degree-(n-1) interpolant reproduces
    p = fixture_params("askey-wilson")
    fam = get_family("askey-wilson")
    ctx = OperatorContext(fam, p)
    lat = ctx.lattice(sample_points(fam, p, 14), 2)
    etas = lat.eta.val[2]
    for n in (2, 5, 8):
        mono = Terms(lat.eta.val ** n)
        rem = ctx.H_tilde(mono, lat).val[0] - fam.energy(p, n) * etas ** n
        vander = np.vander(etas, n, increasing=True)
        coef, *_ = np.linalg.lstsq(vander, rem, rcond=None)
        fit = vander @ coef
        assert float(np.max(np.abs(fit - rem))) <= 1e-9 * (
            1 + float(np.max(np.abs(rem)))
        )

def test_H_singularity_guard():
    p = fixture_params("wilson")
    with pytest.raises(SingularityError):
        _apply(_H, "wilson", p, ONE, [1e-12], 2)


@pytest.mark.parametrize("family,name", all_fixtures())
def test_array_operators_match_the_scalar_ones(family, name):
    # the family methods take a scalar or an array, and H-tilde of every
    # level on many points is H-tilde of each level alone on one point;
    # numpy's array arithmetic may round the last bits differently from
    # the scalar path, hence the 1e-13
    p = fixture_params(family, name)
    fam = get_family(family)
    ctx = OperatorContext(fam, p)
    xs = sample_points(fam, p, 7)
    ws = np.array(xs + [x + 0.3j for x in xs] + [x - 0.2j for x in xs])
    for method in (fam.eta, fam.phi_aux, lambda w: fam.V(p, w), lambda w: fam.V_star(p, w)):
        got = method(ws)
        assert got.shape == ws.shape
        for g, w in zip(got, ws):
            want = method(complex(w))
            assert abs(g - want) <= 1e-13 * (1 + abs(want))
    polys = [eval_poly_recurrence(fam, p, n) for n in range(4)]
    lat = ctx.lattice(xs, 2)
    got = ctx.H_tilde(lat.operand(polys[3]), lat).val
    assert got.shape == (4, 1, len(xs))
    for n, poly in enumerate(polys):
        for g, x in zip(got[n, 0], xs):
            one = ctx.lattice([x], 2)
            want = ctx.H_tilde(one.operand(poly)[-1:], one).val[0, 0, 0]
            assert abs(g - want) <= 1e-13 * (1 + abs(want))


def test_array_H_guards_every_point():
    p = fixture_params("wilson")
    ctx = OperatorContext(get_family("wilson"), p)
    lat = ctx.lattice([0.5, 1.5], 2)
    assert ctx.H_tilde(lat.operand(ONE), lat).val.shape == (1, 1, 2)
    lat = ctx.lattice([0.5, 1e-12, 1.5], 2)
    with pytest.raises(SingularityError, match="1e-12"):
        ctx.H_tilde(lat.operand(ONE), lat)


# ---------------------------------------------------------------- shifts

@pytest.mark.parametrize("family,name", all_fixtures())
def test_forward_kills_constants(family, name):
    p = fixture_params(family, name)
    fam = get_family(family)
    got = _apply(_F, fam, p, ONE, sample_points(fam, p, 4), 1)
    assert got.shape == (1, 4)
    assert np.all(np.abs(got) <= 1e-13)

@pytest.mark.parametrize("family,name", all_fixtures())
def test_forward_action(family, name):
    p = fixture_params(family, name)
    fam = get_family(family)
    p_s = fam.shifted(p)
    xs = sample_points(fam, p, 6)
    got = _apply(_F, fam, p, eval_poly_recurrence(fam, p, 6), xs, 1)
    for n in (1, 3, 6):
        down = eval_poly_recurrence(fam, p_s, n - 1)
        f_n = fam.f_shift(p, n)
        for g, x in zip(got[n], xs):
            target = f_n * down.eval(fam.eta(x))
            assert abs(g - target) <= 1e-9 * (1 + abs(target))

def test_forward_q_hermite_level_one():
    # F H_1 = f_1 * 1 with f_1 = q^{1/2} (q^{-1} - 1)
    q = 0.5
    p = ParamSet(q=q)
    poly = eval_poly_recurrence("continuous-q-hermite", p, 1)
    expected = math.sqrt(q) * (1 / q - 1)
    got = _apply(_F, "continuous-q-hermite", p, poly, [0.4, 1.2, 2.6], 1)[1]
    for g in got:
        assert g == pytest.approx(expected, rel=1e-12)

@pytest.mark.parametrize("family,name", all_fixtures())
def test_backward_action(family, name):
    p = fixture_params(family, name)
    fam = get_family(family)
    p_s = fam.shifted(p)
    xs = sample_points(fam, p, 6)
    # B(lambda) acts on the levels of lambda+delta
    got = _apply(_B, fam, p, eval_poly_recurrence(fam, p_s, 5), xs, 1)
    for n in (0, 2, 5):
        up = eval_poly_recurrence(fam, p, n + 1)
        b_n = fam.b_shift(p, n)
        for g, x in zip(got[n], xs):
            target = b_n * up.eval(fam.eta(x))
            assert abs(g - target) <= 1e-9 * (1 + abs(target))

@pytest.mark.parametrize("family,name", all_fixtures())
def test_backward_then_forward_is_H(family, name):
    # B(lambda) F(lambda) = H-tilde(lambda) on eigenfunctions
    p = fixture_params(family, name)
    fam = get_family(family)
    ctx = OperatorContext(fam, p)
    xs = sample_points(fam, p, 5)
    lat = ctx.lattice(xs, 2)
    for n in (1, 4):
        poly = eval_poly_recurrence(fam, p, n)
        e_n = fam.energy(p, n)
        got = ctx.backward(ctx.forward(lat.operand(poly), lat), lat).val[n, 0]
        for g, x in zip(got, xs):
            target = e_n * poly.eval(fam.eta(x))
            assert abs(g - target) <= 1e-9 * (1 + abs(target))

@pytest.mark.parametrize("family,name", all_fixtures())
def test_rodrigues_chain(family, name):
    p = fixture_params(family, name)
    fam = get_family(family)
    xs = sample_points(fam, p, 4)
    chains = rodrigues_polynomial(fam, p, 7, xs)
    assert chains.val.shape == (8, 1, 4)
    for n in (0, 1, 4, 7):
        poly = eval_poly_recurrence(fam, p, n)
        for got, x in zip(chains.val[n, 0], xs):
            target = poly.eval(fam.eta(x))
            assert abs(got - target) <= 1e-9 * (1 + abs(target))


def _rodrigues_one_level(fam, p, n, xs):
    """P_n alone by its own chain B(lambda) ... B(lambda+(n-1)delta) 1: the
    reference the stacked chains must reproduce bit for bit."""
    lat = OperatorContext(fam, p).lattice(xs, n)
    f = Terms(np.ones(lat.w.shape, dtype=complex))
    for j in range(n - 1, -1, -1):
        p_j = fam.shifted(p, j)
        f = OperatorContext(fam, p_j).backward(f, lat) / fam.b_shift(p_j, n - 1 - j)
    return f


@pytest.mark.parametrize("family,name,n_max",
                         [(f, x, 8) for f, x in all_fixtures()]
                         + [(f, x, 30) for f, x in all_fixtures() if x == "default"])
def test_rodrigues_stack_is_bit_identical_to_one_chain_per_level(family, name, n_max):
    fam = get_family(family)
    p = fixture_params(family, name)
    xs = sample_points(fam, p, 5, seed=1)
    chains = rodrigues_polynomial(fam, p, n_max, xs)
    assert chains.val.shape == (n_max + 1, 1, 5)
    for n in range(n_max + 1):
        one = _rodrigues_one_level(fam, p, n, xs)
        assert np.array_equal(chains.val[n], one.val)
        assert np.array_equal(chains.mag[n], one.mag)


def test_forward_singular_at_phi_zero():
    p = fixture_params("wilson")
    poly = eval_poly_recurrence("wilson", p, 2)
    with pytest.raises(SingularityError):
        _apply(_F, "wilson", p, poly, [0.0], 1)


# ------------------------------------------------------------ commutators

def test_commutator_on_constants():
    # [H, eta] 1 = H eta: the defining expansion on constants
    p = fixture_params("al-salam-chihara")
    fam = get_family("al-salam-chihara")
    ctx = OperatorContext(fam, p)
    g = ctx.gamma
    xs = sample_points(fam, p, 6)
    [got] = _apply(OperatorContext.comm_H_eta, fam, p, ONE, xs, 2)
    for x, c in zip(xs, got):
        expected = ctx.V(x) * (fam.eta(x - 1j * g) - fam.eta(x)) + ctx.V_star(
            x
        ) * (fam.eta(x + 1j * g) - fam.eta(x))
        assert cmath.isclose(c, expected, rel_tol=1e-12, abs_tol=1e-12)


# ----------------------------------------------------------------- ladder

def _ladder(sign, level, family, p, poly, xs):
    """a^(sign) on P_level of poly alone at the points xs."""
    ctx = OperatorContext(family, p)
    lat = ctx.lattice(xs, 2)
    f = lat.operand(poly)[level:level + 1]
    return ladder_action(ctx, sign, level, f, lat).val[0, 0]


def test_annihilation_of_ground_state_is_exact_zero():
    p = fixture_params("continuous-q-hermite")
    poly = eval_poly_recurrence("continuous-q-hermite", p, 0)
    got = _ladder("-", 0, "continuous-q-hermite", p, poly, [0.3, 1.0, 2.9])
    assert np.all(got == 0)

def test_creation_on_q_hermite_ground_state():
    # a^(+) 1 = A_0 H_1 = eta
    p = ParamSet(q=0.5)
    poly = eval_poly_recurrence("continuous-q-hermite", p, 0)
    xs = [0.4, 1.3, 2.2]
    for g, x in zip(_ladder("+", 0, "continuous-q-hermite", p, poly, xs), xs):
        assert g == pytest.approx(math.cos(x), rel=1e-12)

@pytest.mark.parametrize("family,name", all_fixtures())
def test_ladder_actions(family, name):
    p = fixture_params(family, name)
    fam = get_family(family)
    xs = sample_points(fam, p, 6)
    for n in (1, 3, 6):
        poly = eval_poly_recurrence(fam, p, n)
        up = eval_poly_recurrence(fam, p, n + 1)
        down = eval_poly_recurrence(fam, p, n - 1)
        c = fam.coefficients(p, n)
        raised = _ladder("+", n, fam, p, poly, xs)
        lowered = _ladder("-", n, fam, p, poly, xs)
        for x, got_up, got_down in zip(xs, raised, lowered):
            target = c.A_n * up.eval(fam.eta(x))
            assert abs(got_up - target) <= 1e-10 * (1 + abs(target))
            target = c.C_n * down.eval(fam.eta(x))
            assert abs(got_down - target) <= 1e-10 * (1 + abs(target))

def test_ladder_spectral_commutator():
    # [H, a^(pm)] phi_n = (E_{n pm 1} - E_n) a^(pm) phi_n
    p = fixture_params("continuous-dual-q-hahn")
    fam = get_family("continuous-dual-q-hahn")
    ctx = OperatorContext(fam, p)
    lat = ctx.lattice(sample_points(fam, p, 5), 4)
    for n in (1, 4):
        f = lat.operand(eval_poly_recurrence(fam, p, n))[-1:]  # P_n alone
        for sign, m in (("+", n + 1), ("-", n - 1)):
            lad = ladder_action(ctx, sign, n, f, lat)
            e_m = fam.energy(p, m)
            got = ctx.H_tilde(lad, lat).val[0, 0]
            for g, target in zip(got, e_m * lad.val[0, 2]):
                assert abs(g - target) <= 1e-10 * (1 + abs(target))

def test_meixner_pollaczek_explicit_ladder_form():
    # a^(pm) = pm [H,eta]/(4 sin phi) + eta/2 + cos phi (H + 2a sin phi)/(4 sin^2 phi)
    p = fixture_params("meixner-pollaczek")
    fam = get_family("meixner-pollaczek")
    ctx = OperatorContext(fam, p)
    a = p.a[0].real
    s, c = math.sin(p.phi), math.cos(p.phi)
    xs = sample_points(fam, p, 5)
    lat = ctx.lattice(xs, 2)
    for n in (0, 2, 5):
        f = lat.operand(eval_poly_recurrence(fam, p, n))[-1:]  # P_n alone
        e_n = fam.energy(p, n)
        comm = ctx.comm_H_eta(f, lat).val[0, 0]
        f_x = f.val[0, 2]
        base = 0.5 * fam.eta(np.array(xs)) * f_x + c / (4 * s * s) * (
            e_n + 2 * a * s
        ) * f_x
        for sign, expl in (("+", base + comm / (4 * s)),
                           ("-", base - comm / (4 * s))):
            got = ladder_action(ctx, sign, n, f, lat).val[0, 0]
            if sign == "-" and n == 0:
                continue
            for g, e in zip(got, expl):
                assert cmath.isclose(g, e, rel_tol=1e-10, abs_tol=1e-12)

def test_continuous_dual_hahn_explicit_ladder_form():
    # a^(pm) = pm [H,eta]/2 + eta/2 - H^2 - (b1 - 1/2) H - b2/2
    p = fixture_params("continuous-dual-hahn")
    fam = get_family("continuous-dual-hahn")
    ctx = OperatorContext(fam, p)
    b1 = sum(p.a).real
    b2 = (p.a[0] * p.a[1] + p.a[0] * p.a[2] + p.a[1] * p.a[2]).real
    xs = sample_points(fam, p, 5)
    lat = ctx.lattice(xs, 2)
    for n in (1, 3):
        f = lat.operand(eval_poly_recurrence(fam, p, n))[-1:]  # P_n alone
        e_n = fam.energy(p, n)
        scalar = -e_n * e_n - (b1 - 0.5) * e_n - 0.5 * b2
        comm = ctx.comm_H_eta(f, lat).val[0, 0]
        f_x = f.val[0, 2]
        base = 0.5 * fam.eta(np.array(xs)) * f_x + scalar * f_x
        got_p = ladder_action(ctx, "+", n, f, lat).val[0, 0]
        got_m = ladder_action(ctx, "-", n, f, lat).val[0, 0]
        for i in range(len(xs)):
            assert cmath.isclose(got_p[i], base[i] + 0.5 * comm[i],
                                 rel_tol=1e-10, abs_tol=1e-10)
            assert cmath.isclose(got_m[i], base[i] - 0.5 * comm[i],
                                 rel_tol=1e-10, abs_tol=1e-10)

def test_q_oscillator_on_big_q_hermite():
    # a- a+ - q a+ a- = (1-q)/4 on every level
    p = fixture_params("continuous-big-q-hermite")
    fam = get_family("continuous-big-q-hermite")
    ctx = OperatorContext(fam, p)
    q = p.q
    lat = ctx.lattice(sample_points(fam, p, 4), 4)
    for n in (0, 2, 5):
        f = lat.operand(eval_poly_recurrence(fam, p, n))[-1:]  # P_n alone
        up = ladder_action(ctx, "+", n, f, lat)
        dn = ladder_action(ctx, "-", n, f, lat)
        ama = ladder_action(ctx, "-", n + 1, up, lat).val[0, 0]
        apa = ladder_action(ctx, "+", n - 1, dn, lat).val[0, 0] if n >= 1 else 0j
        got = ama - q * apa
        target = 0.25 * (1 - q) * f.val[0, 4]
        for g, t in zip(got, target):
            assert abs(g - t) <= 1e-10 * (1 + abs(t))


# ------------------------------------------------------ lambda-shift X ops

def test_lambda_shift_unsupported_family():
    p = fixture_params("wilson")
    poly = eval_poly_recurrence("wilson", p, 1)
    with pytest.raises(ValueError, match="no explicit"):
        lambda_shift_X("wilson", p, "X", [1], poly, [1.0])

def test_lambda_shift_meixner_pollaczek_needs_right_angle():
    p = fixture_params("meixner-pollaczek")  # phi = pi/3
    poly = eval_poly_recurrence("meixner-pollaczek", p, 1)
    with pytest.raises(ValueError, match="pi/2"):
        lambda_shift_X("meixner-pollaczek", p, "X", [1], poly, [1.0])

def test_lambda_shift_meixner_pollaczek_actions():
    p = fixture_params("meixner-pollaczek", "half-pi")
    fam = get_family("meixner-pollaczek")
    p_s = fam.shifted(p)
    a = p.a[0].real
    xs = [-1.8, 0.7, 2.3]
    levels = range(7)
    x_all = lambda_shift_X(fam, p, "X", levels, eval_poly_recurrence(fam, p, 6), xs)
    xdag_all = lambda_shift_X(fam, p, "Xdag", levels,
                              eval_poly_recurrence(fam, p_s, 6), xs)
    assert x_all.val.shape == xdag_all.val.shape == (7, 1, 3)
    for n in levels:
        poly = eval_poly_recurrence(fam, p, n)
        poly_s = eval_poly_recurrence(fam, p_s, n)
        for x, got_x, got_xdag in zip(xs, x_all.val[n, 0], xdag_all.val[n, 0]):
            target = 0.5 * poly_s.eval(x)
            assert abs(got_x - target) <= 1e-9 * (1 + abs(target))
            target = 0.25 * (n + 2 * a) * poly.eval(x)
            assert abs(got_xdag - target) <= 1e-9 * (1 + abs(target))

def test_lambda_shift_dual_hahn_actions():
    p = fixture_params("continuous-dual-hahn")
    fam = get_family("continuous-dual-hahn")
    p_s = fam.shifted(p)
    xs = [0.6, 1.4, 2.9]
    levels = range(7)
    x_all = lambda_shift_X(fam, p, "X", levels, eval_poly_recurrence(fam, p, 6), xs)
    xdag_all = lambda_shift_X(fam, p, "Xdag", levels,
                              eval_poly_recurrence(fam, p_s, 6), xs)
    assert x_all.val.shape == xdag_all.val.shape == (7, 1, 3)
    for n in levels:
        poly = eval_poly_recurrence(fam, p, n)
        poly_s = eval_poly_recurrence(fam, p_s, n)
        factor = complex(1.0)
        for i in range(3):
            for j in range(i + 1, 3):
                factor *= n + p.a[i] + p.a[j]
        for x, got_x, got_xdag in zip(xs, x_all.val[n, 0], xdag_all.val[n, 0]):
            target = poly_s.eval(fam.eta(x))
            assert abs(got_x - target) <= 1e-9 * (1 + abs(target))
            target = factor.real * poly.eval(fam.eta(x))
            assert abs(got_xdag - target) <= 1e-9 * (1 + abs(target))


# ------------------------------------------------------------- sample set

def test_sample_points_deterministic_and_interior():
    p = fixture_params("askey-wilson")
    fam = get_family("askey-wilson")
    xs1 = sample_points(fam, p, 20, seed=0)
    xs2 = sample_points(fam, p, 20, seed=0)
    assert xs1 == xs2
    assert all(1e-3 <= x <= math.pi - 1e-3 for x in xs1)
    assert len(set(xs1)) == 20
