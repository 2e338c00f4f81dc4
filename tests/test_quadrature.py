"""Quadrature: Gram matrices against the ground-state weight vs the
closed-form norms, and the hermiticity forms."""

from __future__ import annotations

import math

import numpy as np
import pytest

from dqm.families import (
    FAMILIES,
    FamilyId,
    ParamSet,
    eval_poly_recurrence,
    get_family,
)
from dqm.fixtures import fixture_names, fixture_params
from dqm.quadrature import (
    ToleranceNotMet,
    _levels,
    _tanh_sinh,
    hermiticity_forms,
    orthogonality_matrix,
    weight_window,
)
from dqm.specfun import q_pochhammer_inf
from dqm.verify import VerifyConfig, run_suite


def _norms(m):
    """The Gram matrix's diagonal in absolute units: the quadrature of
    (phi0 P_n, phi0 P_n)."""
    return np.diag(m.entries) * np.exp(m.log_norms)


def test_gram_q_hermite_norm():
    # (phi0, phi0) = h_0 = 2 pi / (q;q)_inf at q = 1/2
    fam = get_family("continuous-q-hermite")
    p = ParamSet(q=0.5)
    expected = 2 * math.pi / q_pochhammer_inf(0.5, 0.5).real
    [got] = _norms(orthogonality_matrix(fam, p, 0))
    assert got == pytest.approx(expected, rel=1e-8)
    assert got == pytest.approx(21.7570786818, rel=1e-9)


def test_gram_orthogonality():
    # (phi0 P_1, phi0) in absolute units
    fam = get_family("continuous-q-hermite")
    p = ParamSet(q=0.5)
    m = orthogonality_matrix(fam, p, 1)
    assert abs(m.entries[1, 0]) * math.exp(0.5 * sum(m.log_norms)) < 1e-9


def test_hermiticity_forms_of_zero_are_zero():
    fam = get_family("continuous-q-hermite")
    p = ParamSet(q=0.5)
    zero = eval_poly_recurrence(fam, p, 2).scaled(0.0)
    for form in hermiticity_forms(fam, p, [zero], [zero]):
        assert form.val[0] == 0


def test_positivity_of_norm():
    fam = get_family("meixner-pollaczek")
    p = fixture_params("meixner-pollaczek")
    assert orthogonality_matrix(fam, p, 2).entries[2, 2] > 0


ALL_FAMILIES = [FAMILIES[fid].spec.name for fid in FamilyId]


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_gram_matrix(family):
    p = fixture_params(family)
    m = orthogonality_matrix(family, p, 6)
    # unit-normalised: the identity, to round-off
    assert np.max(np.abs(m.entries - np.eye(7))) <= 1e-12
    assert np.array_equal(m.entries, m.entries.T)


@pytest.mark.parametrize("family", ["askey-wilson", "wilson", "meixner-pollaczek"])
def test_gram_matrix_takes_its_polynomials_from_one_ascent(family, monkeypatch):
    import dqm.quadrature as quadrature

    fam = get_family(family)
    p = fixture_params(family)
    ascents = []

    def one_ascent(family, params, n_max):
        ascents.append(n_max)
        return eval_poly_recurrence(family, params, n_max)

    class PerLevelAscents:
        """P_0 .. P_n, each from its own ascent and its own evaluation."""

        def __init__(self, family, params, n_max):
            self.polys = [eval_poly_recurrence(family, params, n) for n in range(n_max + 1)]

        def eval_levels(self, eta):
            return np.array([poly.eval(eta) for poly in self.polys])

    monkeypatch.setattr(quadrature, "eval_poly_recurrence", one_ascent)
    gram = orthogonality_matrix(fam, p, 6).entries
    assert ascents == [6]
    # every level of the one pass equals its polynomial's own evaluation
    # exactly, so the Gram matrix is bit-identical to the one built level by level
    monkeypatch.setattr(quadrature, "eval_poly_recurrence", PerLevelAscents)
    assert np.array_equal(gram, orthogonality_matrix(fam, p, 6).entries)


def test_gram_diag_level_zero_matches_h0():
    # the quadrature of phi0^2 in units of h0 is 1, and log_norms[0] is log h0
    p = fixture_params("meixner-pollaczek")
    fam = get_family("meixner-pollaczek")
    m = orthogonality_matrix(fam, p, 2)
    assert m.entries[0, 0] == pytest.approx(1.0, rel=1e-12)
    assert m.log_norms[0] == pytest.approx(math.log(fam.h0(p)), rel=1e-14)
    assert _norms(m)[0] == pytest.approx(fam.h0(p), rel=1e-12)


def test_meixner_pollaczek_norm_ratios():
    # h_0/h_n = n!/(2a)_n, so successive norms follow (2a+n-1)/n
    p = fixture_params("meixner-pollaczek")
    fam = get_family("meixner-pollaczek")
    a = p.a[0].real
    norms = _norms(orthogonality_matrix(fam, p, 6))
    for n in range(1, 7):
        assert norms[n] / norms[n - 1] == pytest.approx((2 * a + n - 1) / n, rel=1e-12)
    assert norms[0] == pytest.approx(fam.h0(p), rel=1e-12)


def test_gram_level_budget():
    with pytest.raises(ValueError, match="n_max"):
        orthogonality_matrix("continuous-q-hermite", ParamSet(q=0.5), 9)


def test_quadrature_self_consistency():
    # the weight's integral in units of h0 is 1 on each interval's rule: once
    # two levels agree to the stopping tolerance, every finer level stays there
    for family in ("al-salam-chihara", "wilson", "meixner-pollaczek"):
        fam = get_family(family)
        p = fixture_params(family)
        sums = np.array([np.sum(dx * np.exp(log_w)) for _, dx, log_w in _levels(fam, p)])
        accepted = int(np.argmax(np.abs(np.diff(sums)) <= 1e-10)) + 1
        assert accepted < len(sums) - 1
        assert np.all(np.abs(sums[accepted:] - 1.0) <= 1e-13)


def test_rules_agree_on_finite_interval():
    # tanh-sinh on [0, pi] against the composite Gauss-Legendre nodes of the
    # cos-x families, which the Gram matrix runs on
    fam = get_family("continuous-q-hermite")
    p = ParamSet(q=0.5)
    x, dx = _tanh_sinh(0.0, math.pi, 5)
    vd = np.sum(dx * np.asarray(fam.phi0(p, x)) ** 2)
    [vg] = _norms(orthogonality_matrix(fam, p, 0))
    assert vd == pytest.approx(vg, rel=1e-12)


def test_weight_window_finds_a_peak_off_any_fixed_grid():
    # Meixner-Pollaczek: log w ~ -2 phi |x| + (2a - 1) log|x| as x -> -inf,
    # a peak near -(2a - 1)/(2 phi) of width about |c|/sqrt(2a - 1)
    fam = get_family("meixner-pollaczek")
    c, s = weight_window(fam, ParamSet(a=(40.0,), phi=0.01))
    assert c == pytest.approx(-79 / 0.02, rel=1e-3)
    assert s == pytest.approx(abs(c) / math.sqrt(79), rel=1e-2)
    with pytest.raises(ValueError, match="unbounded"):
        weight_window("continuous-q-hermite", ParamSet(q=0.5))


# Parameter sets whose weight peaks far out, narrowly, or beyond the double
# range (Wilson a = 30: phi0^2 ~ 1e282; Meixner-Pollaczek a = 200: h0 ~ 1e873),
# and the sets of the domain sweep that failed a fixed-window rule
HARD_SETS = [
    ("wilson", ParamSet(a=(30, 30, 30, 30))),
    ("continuous-hahn", ParamSet(a=(0.01, 0.01))),
    ("meixner-pollaczek", ParamSet(a=(40,), phi=0.01)),
    ("meixner-pollaczek", ParamSet(a=(200,), phi=0.5)),
    ("meixner-pollaczek", ParamSet(a=(0.3,), phi=3.09)),
    ("continuous-hahn", ParamSet(a=(0.9354905404881151 + 0.7471068907925238j,
                                    0.06553264846844545 + 0.6424568367655326j))),
    ("meixner-pollaczek", ParamSet(a=(0.22661737992930092,), phi=1.6152620136249658)),
    ("meixner-pollaczek", ParamSet(a=(2.357719825360181,), phi=2.838190030506271)),
    ("continuous-dual-hahn",
     ParamSet(a=(3.388043567454484, 3.782545276022669, 3.620471313373911))),
]


@pytest.mark.parametrize("family,p", HARD_SETS)
@pytest.mark.parametrize("suite", ["orthogonality", "hermiticity"])
def test_quadrature_suites_pass_where_the_weight_is_hard(family, p, suite):
    results = run_suite(suite, family, p, VerifyConfig())
    assert results and all(r.passed for r in results), [
        (r.check_id, r.max_residual) for r in results]


def test_two_equal_peaks_raise_and_never_pass():
    # continuous Hahn a = (0.05 + i, 0.05 - i): two peaks about 0.05 wide at
    # x = -1 and 1; a rule centred on one of them stalls on the other
    p = ParamSet(a=(0.05 + 1j, 0.05 - 1j))
    for suite in ("orthogonality", "hermiticity"):
        with pytest.raises(ToleranceNotMet):
            run_suite(suite, "continuous-hahn", p, VerifyConfig())


# -------------------------------------------------------------- hermiticity

def _hermiticity_residual(fam, p, P, Q):
    """|(g,Hf) - (Hg,f)| / (1 + mag(g,Hf) + mag(Hg,f)), the forms in units of h0."""
    lhs, rhs = hermiticity_forms(fam, p, [P], [Q])
    return abs(lhs.val[0] - rhs.val[0]) / (1.0 + lhs.mag[0] + rhs.mag[0])


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_hermiticity_residual(family):
    p = fixture_params(family)
    fam = get_family(family)
    P1 = eval_poly_recurrence(fam, p, 1)
    P2 = eval_poly_recurrence(fam, p, 2)
    assert _hermiticity_residual(fam, p, P1, P2) <= 1e-6


def test_hermiticity_diagonal_form_is_real():
    p = fixture_params("askey-wilson")
    fam = get_family("askey-wilson")
    P2 = eval_poly_recurrence(fam, p, 2)
    lhs, rhs = (form.val[0] for form in hermiticity_forms(fam, p, [P2], [P2]))
    assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))
    assert abs(lhs.imag) <= 1e-12 * (1 + abs(lhs))


def test_hermiticity_on_ground_state_is_zero():
    # P = Q = 1: both forms equal (phi0, H phi0) = 0
    p = fixture_params("continuous-q-hermite")
    fam = get_family("continuous-q-hermite")
    one = eval_poly_recurrence(fam, p, 0)
    lhs, rhs = hermiticity_forms(fam, p, [one], [one])
    assert abs(lhs.val[0]) <= 1e-10
    assert abs(rhs.val[0]) <= 1e-10


def test_hermiticity_cross_eigenpolynomials():
    # P = P_1, Q = P_2: both sides vanish by orthogonality
    p = fixture_params("wilson")
    fam = get_family("wilson")
    P1 = eval_poly_recurrence(fam, p, 1)
    P2 = eval_poly_recurrence(fam, p, 2)
    assert _hermiticity_residual(fam, p, P1, P2) <= 1e-6


def test_hermiticity_forms_count_a_pole_of_V_at_a_node_as_zero(monkeypatch):
    # a node exactly on x = 0, the pole of the q-Hermite V, with an order-one
    # weight, added to every level: inside the guard it counts as zero
    import dqm.quadrature as quadrature
    from dqm.families import SingularityError
    from dqm.operators import OperatorContext

    fam = get_family("continuous-q-hermite")
    p = fixture_params("continuous-q-hermite")
    P = eval_poly_recurrence(fam, p, 2)
    Q = eval_poly_recurrence(fam, p, 3)
    plain = hermiticity_forms(fam, p, [P], [Q])
    levels = quadrature._levels

    def with_pole(fam, p):
        for x, dx, log_w in levels(fam, p):
            yield np.append(x, 0.0), np.append(dx, 1.0), np.append(log_w, 0.0)

    monkeypatch.setattr(quadrature, "_levels", with_pole)
    with pytest.raises(SingularityError):
        fam.V(p, 0.0)
    for got, want in zip(hermiticity_forms(fam, p, [P], [Q]), plain):
        assert np.isfinite(got.val[0])
        assert abs(got.val[0] - want.val[0]) <= 1e-14 * (1 + abs(want.val[0]))
    # on (0, inf) the tanh-sinh nodes next to x = 0 fall inside the guard
    wilson = get_family("wilson")
    x, _, _ = next(levels(wilson, fixture_params("wilson")))
    assert OperatorContext(wilson, fixture_params("wilson")).inside_guard(x).any()


FIXTURES = [(name, fx) for name in ALL_FAMILIES for fx in fixture_names(name)]


@pytest.mark.parametrize("family,fixture", FIXTURES)
def test_hermiticity_forms_reproduce_the_spectrum(family, fixture):
    # phi0 P_n / sqrt(h_n) are orthonormal eigenfunctions: both forms of the
    # pair (P_n, P_m) equal E_n delta_nm; the pairs are the hermiticity suite's
    fam = get_family(family)
    p = fixture_params(family, fixture)
    polys = [
        eval_poly_recurrence(fam, p, n).scaled(math.sqrt(fam.h0_over_hn(p, n)))
        for n in range(5)
    ]
    levels = [(0, 0), (1, 1), (1, 2), (3, 0), (2, 4)]
    lhs, rhs = hermiticity_forms(
        fam, p, [polys[n] for n, _ in levels], [polys[m] for _, m in levels])
    for (n, m), gHf, Hgf in zip(levels, lhs.val, rhs.val):
        e_n = fam.energy(p, n)
        want = e_n if n == m else 0.0
        assert abs(gHf - want) <= 1e-11 * (1 + e_n)
        assert abs(Hgf - want) <= 1e-11 * (1 + e_n)


@pytest.mark.parametrize("family,fixture", FIXTURES)
def test_hermiticity_evaluates_phi0_once_per_level(family, fixture, monkeypatch):
    import dqm.quadrature as quadrature
    from dqm.verify import run_suite

    fam = get_family(family)
    p = fixture_params(family, fixture)
    if fam.spec.interval[1] == math.inf:
        window = weight_window(fam, p)  # its own weight evaluations are not counted
        monkeypatch.setattr(quadrature, "weight_window", lambda *args: window)
    plain = type(fam).log_amplitude
    sizes = []

    def counted(self, params, x):
        sizes.append(np.size(x))
        return plain(self, params, x)

    monkeypatch.setattr(type(fam), "log_amplitude", counted)
    assert all(r.passed for r in run_suite("hermiticity", fam, p))
    # one weight evaluation per refinement level, each on more nodes than the
    # last: a level evaluated twice (per pair or per form) would repeat a size
    assert len(sizes) >= 2
    assert all(a < b for a, b in zip(sizes, sizes[1:]))
