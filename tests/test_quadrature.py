"""Quadrature: inner products against the ground-state weight, Gram
matrices vs the closed-form norms, and the hermiticity residual."""

from __future__ import annotations

import math

import numpy as np
import pytest

from dqm.families import (
    FAMILIES,
    FamilyId,
    ParamSet,
    eval_poly_recurrence,
    eval_polys_recurrence,
    get_family,
)
from dqm.fixtures import fixture_names, fixture_params
from dqm.quadrature import (
    QuadratureSpec,
    ToleranceNotMet,
    hermiticity_check,
    hermiticity_forms,
    inner_product,
    integrate,
    orthogonality_matrix,
    weight_window,
)
from dqm.specfun import q_pochhammer_inf


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=-1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(rule="monte-carlo")


def test_integrate_polynomial_both_rules():
    # oracle: exact antiderivative of x^3 - 2x on [0, 2]
    exact = 2.0**4 / 4 - 2.0**2
    for rule in ("double-exponential", "gauss-legendre-composite"):
        val, err = integrate(
            lambda x: x**3 - 2 * x, 0.0, 2.0, QuadratureSpec(rule=rule)
        )
        assert val.real == pytest.approx(exact, abs=1e-11)
        assert err < 1e-9


def test_inner_product_q_hermite_norm():
    # (phi0, phi0) = h_0 = 2 pi / (q;q)_inf at q = 1/2
    fam = get_family("continuous-q-hermite")
    p = ParamSet(q=0.5)
    phi0 = lambda x: fam.phi0(p, x)
    expected = 2 * math.pi / q_pochhammer_inf(0.5, 0.5).real
    got = inner_product(fam, p, phi0, phi0)
    assert got.real == pytest.approx(expected, rel=1e-8)
    assert got.real == pytest.approx(21.7570786818, rel=1e-9)
    assert abs(got.imag) < 1e-12


def test_inner_product_orthogonality():
    fam = get_family("continuous-q-hermite")
    p = ParamSet(q=0.5)
    P1 = eval_poly_recurrence(fam, p, 1)

    def f(x):
        return fam.phi0(p, x) * P1.eval(fam.eta_vec(x))

    phi0 = lambda x: fam.phi0(p, x)
    assert abs(inner_product(fam, p, f, phi0)) < 1e-9


def test_inner_product_zero():
    fam = get_family("continuous-q-hermite")
    p = ParamSet(q=0.5)
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    assert inner_product(fam, p, zero, zero) == 0


def test_positivity_of_norm():
    fam = get_family("meixner-pollaczek")
    p = fixture_params("meixner-pollaczek")
    P2 = eval_poly_recurrence(fam, p, 2)

    def f(x):
        return fam.phi0(p, x) * P2.eval(fam.eta_vec(x))

    assert inner_product(fam, p, f, f).real > 0


ALL_FAMILIES = [FAMILIES[fid].spec.name for fid in FamilyId]


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_gram_matrix(family):
    p = fixture_params(family)
    m = orthogonality_matrix(family, p, 6)
    for n in range(7):
        rel = abs(m.entries[n, n] - m.expected_diag[n]) / m.expected_diag[n]
        assert rel <= 1e-5
    assert m.max_offdiag_rel <= 1e-6
    assert np.allclose(m.entries, m.entries.T, rtol=1e-12, atol=1e-12)


def test_gram_diag_level_zero_matches_h0():
    p = fixture_params("meixner-pollaczek")
    fam = get_family("meixner-pollaczek")
    m = orthogonality_matrix(fam, p, 2)
    assert m.entries[0, 0] == pytest.approx(fam.h0(p), rel=1e-6)


def test_meixner_pollaczek_norm_ratios():
    # h_0/h_n = n!/(2a)_n, so successive diagonal ratios follow (2a+n-1)/n
    p = fixture_params("meixner-pollaczek")
    fam = get_family("meixner-pollaczek")
    a = p.a[0].real
    m = orthogonality_matrix(fam, p, 6)
    for n in range(1, 7):
        got = m.entries[n, n] / m.entries[n - 1, n - 1]
        expected = (2 * a + n - 1) / n
        assert got == pytest.approx(expected, rel=1e-5)
    got01 = m.entries[0, 0] / m.entries[1, 1]
    assert got01 == pytest.approx(1.0 / (2 * a), rel=1e-5)


def test_gram_level_budget():
    with pytest.raises(ValueError, match="n_max"):
        orthogonality_matrix("continuous-q-hermite", ParamSet(q=0.5), 9)


def test_quadrature_self_consistency():
    # doubling the node budget moves the result by less than the estimate
    fam = get_family("al-salam-chihara")
    p = fixture_params("al-salam-chihara")
    a, b = weight_window(fam, p)
    phi2 = lambda x: np.asarray(fam.phi0(p, x)) ** 2
    v1, err = integrate(phi2, a, b, QuadratureSpec(rule="gauss-legendre-composite"))
    v2, _ = integrate(
        phi2, a, b, QuadratureSpec(rule="gauss-legendre-composite", abs_tol=1e-13)
    )
    assert abs(v1 - v2) <= max(err, 1e-12)


def test_rules_agree_on_finite_interval():
    fam = get_family("continuous-q-hermite")
    p = ParamSet(q=0.5)
    phi2 = lambda x: np.asarray(fam.phi0(p, x)) ** 2
    vd, _ = integrate(phi2, 0.0, math.pi, QuadratureSpec(rule="double-exponential"))
    vg, _ = integrate(
        phi2, 0.0, math.pi, QuadratureSpec(rule="gauss-legendre-composite")
    )
    assert vd.real == pytest.approx(vg.real, rel=1e-10)


# -------------------------------------------------------------- hermiticity

@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_hermiticity_residual(family):
    p = fixture_params(family)
    fam = get_family(family)
    P1 = eval_poly_recurrence(fam, p, 1)
    P2 = eval_poly_recurrence(fam, p, 2)
    assert hermiticity_check(fam, p, P1, P2) <= 1e-6


def test_hermiticity_diagonal_form_is_real():
    p = fixture_params("askey-wilson")
    fam = get_family("askey-wilson")
    P2 = eval_poly_recurrence(fam, p, 2)
    lhs, rhs = hermiticity_forms(fam, p, P2, P2)
    assert abs(lhs - rhs) <= 1e-6 * (1 + abs(lhs))
    assert abs(lhs.imag) <= 1e-8 * (1 + abs(lhs))


def test_hermiticity_on_ground_state_is_zero():
    # P = Q = 1: both forms equal (phi0, H phi0) = 0
    p = fixture_params("continuous-q-hermite")
    fam = get_family("continuous-q-hermite")
    one = eval_poly_recurrence(fam, p, 0)
    lhs, rhs = hermiticity_forms(fam, p, one, one)
    assert abs(lhs) <= 1e-10
    assert abs(rhs) <= 1e-10


def test_hermiticity_cross_eigenpolynomials():
    # P = P_1, Q = P_2: both sides vanish by orthogonality
    p = fixture_params("wilson")
    fam = get_family("wilson")
    P1 = eval_poly_recurrence(fam, p, 1)
    P2 = eval_poly_recurrence(fam, p, 2)
    assert hermiticity_check(fam, p, P1, P2) <= 1e-6


def test_hermiticity_forms_count_a_pole_of_V_at_a_node_as_zero(monkeypatch):
    # on (-pi, pi) the tanh-sinh rule puts its centre node exactly on x = 0,
    # the pole of the q-Hermite V; the integrand is even in x
    import dqm.quadrature as quadrature
    from dqm.families import SingularityError
    from dqm.quadrature import _tanh_sinh_nodes

    fam = get_family("continuous-q-hermite")
    p = fixture_params("continuous-q-hermite")
    P = eval_poly_recurrence(fam, p, 2)
    Q = eval_poly_recurrence(fam, p, 3)
    spec = QuadratureSpec(rule="double-exponential")
    plain = hermiticity_forms(fam, p, P, Q, spec)

    monkeypatch.setattr(quadrature, "weight_window", lambda *args: (-math.pi, math.pi))
    assert 0.0 in 0.0 + math.pi * _tanh_sinh_nodes(2)[0]
    with pytest.raises(SingularityError):
        fam.V(p, 0.0)
    doubled = hermiticity_forms(fam, p, P, Q, spec)
    for got, want in zip(doubled, plain):
        assert np.isfinite(got)
        assert abs(0.5 * got - want) <= 1e-10 * (1 + abs(want))


FIXTURES = [(name, fx) for name in ALL_FAMILIES for fx in fixture_names(name)]


@pytest.mark.parametrize("family,fixture", FIXTURES)
def test_hermiticity_forms_reproduce_the_spectrum(family, fixture):
    # phi0 P_n / sqrt(h_n) are orthonormal eigenfunctions: both forms of the
    # pair (P_n, P_m) equal E_n delta_nm; the pairs are check_hermiticity's
    fam = get_family(family)
    p = fixture_params(family, fixture)
    h0 = fam.h0(p)
    polys = [
        poly.scaled(math.sqrt(fam.h0_over_hn(p, n) / h0))
        for n, poly in enumerate(eval_polys_recurrence(fam, p, 4))
    ]
    levels = [(0, 0), (1, 1), (1, 2), (3, 0), (2, 4)]
    lhs, rhs = hermiticity_forms(
        fam, p, [polys[n] for n, _ in levels], [polys[m] for _, m in levels])
    for (n, m), gHf, Hgf in zip(levels, lhs, rhs):
        e_n = fam.energy(p, n)
        want = e_n if n == m else 0.0
        assert abs(gHf - want) <= 1e-11 * (1 + e_n)
        assert abs(Hgf - want) <= 1e-11 * (1 + e_n)


@pytest.mark.parametrize("family,fixture", FIXTURES)
def test_hermiticity_evaluates_phi0_once_per_level(family, fixture, monkeypatch):
    from dqm.verify import check_hermiticity

    fam = get_family(family)
    p = fixture_params(family, fixture)
    plain_phi0 = type(fam).phi0
    sizes = []

    def counted(self, params, x):
        sizes.append(np.size(x))
        return plain_phi0(self, params, x)

    monkeypatch.setattr(type(fam), "phi0", counted)
    assert check_hermiticity(fam, p)[0].passed
    if fam.spec.interval != (0.0, math.pi):
        assert sizes.pop(0) in (4801, 6001)  # the integration window's grid
    # one call per refinement level, each on more nodes than the last: a
    # level evaluated twice (per pair or per form) would repeat a size
    assert len(sizes) >= 2
    assert all(a < b for a, b in zip(sizes, sizes[1:]))


def test_integrand_that_is_not_vectorised_raises():
    with pytest.raises(ValueError, match="shape"):
        integrate(lambda x: 1.0, 0.0, 1.0)
    with pytest.raises(TypeError):
        integrate(lambda x: math.exp(x), 0.0, 1.0)
