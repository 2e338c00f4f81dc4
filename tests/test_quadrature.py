"""Quadrature: the Gram matrix against the ground-state weight vs the
closed-form norms, and H-tilde's matrix K against the spectrum."""

from __future__ import annotations

import math
from dataclasses import replace

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
from dqm.operators import OperatorContext
from dqm.quadrature import (
    ToleranceNotMet,
    _de_grid,
    _levels,
    _sin2_grid,
    _tanh_sinh,
    hermiticity_forms,
    orthogonality_matrix,
    weight_window,
)
from dqm.specfun import q_pochhammer_inf
from dqm.verify import VerifyConfig, run_suite


def _log_norms(fam, p, n_max):
    """log h_n from the closed forms, n = 0..n_max."""
    return fam.log_h0(p) - np.log([fam.h0_over_hn(p, n) for n in range(n_max + 1)])


def _norms(fam, p, n_max):
    """The Gram matrix's diagonal in absolute units: the quadrature of
    (phi0 P_n, phi0 P_n)."""
    gram = orthogonality_matrix(fam, p, n_max).val
    return np.real(np.diag(gram)) * np.exp(_log_norms(fam, p, n_max))


def test_gram_q_hermite_norm():
    # (phi0, phi0) = h_0 = 2 pi / (q;q)_inf at q = 1/2
    fam = get_family("continuous-q-hermite")
    p = ParamSet(q=0.5)
    expected = 2 * math.pi / q_pochhammer_inf(0.5, 0.5).real
    [got] = _norms(fam, p, 0)
    assert got == pytest.approx(expected, rel=1e-8)
    assert got == pytest.approx(21.7570786818, rel=1e-9)


def test_gram_orthogonality():
    # (phi0 P_1, phi0) in absolute units
    fam = get_family("continuous-q-hermite")
    p = ParamSet(q=0.5)
    gram = orthogonality_matrix(fam, p, 1).val
    assert abs(gram[1, 0]) * math.exp(0.5 * sum(_log_norms(fam, p, 1))) < 1e-9


def test_hermiticity_forms_of_zero_are_zero(monkeypatch):
    import dqm.quadrature as quadrature

    fam = get_family("continuous-q-hermite")
    p = ParamSet(q=0.5)

    def zero_ascent(*args):
        poly = eval_poly_recurrence(*args)
        return replace(poly, c=(0.0,) * len(poly.c))

    monkeypatch.setattr(quadrature, "eval_poly_recurrence", zero_ascent)
    for matrix in (orthogonality_matrix(fam, p, 2), hermiticity_forms(fam, p, 2)):
        assert np.all(matrix.val == 0)
        assert np.all(matrix.mag == 0)


def test_positivity_of_norm():
    fam = get_family("meixner-pollaczek")
    p = fixture_params("meixner-pollaczek")
    assert orthogonality_matrix(fam, p, 2).val[2, 2].real > 0


ALL_FAMILIES = [FAMILIES[fid].spec.name for fid in FamilyId]


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_gram_matrix(family):
    p = fixture_params(family)
    gram = orthogonality_matrix(family, p, 6)
    # unit-normalised: the identity, to round-off
    assert np.max(np.abs(gram.val - np.eye(7))) <= 1e-12
    # hermitian, and the l1 sum of a diagonal entry's positive integrand is
    # the entry itself
    assert np.max(np.abs(gram.val - gram.val.conj().T)) <= 1e-15
    assert np.allclose(np.diag(gram.mag), np.diag(gram.val).real, rtol=1e-14, atol=0)


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
    gram = orthogonality_matrix(fam, p, 6).val
    assert ascents == [6]
    # every level of the one pass equals its polynomial's own evaluation
    # exactly, so the Gram matrix is bit-identical to the one built level by level
    monkeypatch.setattr(quadrature, "eval_poly_recurrence", PerLevelAscents)
    assert np.array_equal(gram, orthogonality_matrix(fam, p, 6).val)


def test_gram_diag_level_zero_matches_h0():
    # the quadrature of phi0^2 in units of h0 is 1, and log h_0 is log h0
    p = fixture_params("meixner-pollaczek")
    fam = get_family("meixner-pollaczek")
    assert orthogonality_matrix(fam, p, 2).val[0, 0] == pytest.approx(1.0, rel=1e-12)
    assert _log_norms(fam, p, 2)[0] == pytest.approx(math.log(fam.h0(p)), rel=1e-14)
    assert _norms(fam, p, 2)[0] == pytest.approx(fam.h0(p), rel=1e-12)


def test_meixner_pollaczek_norm_ratios():
    # h_0/h_n = n!/(2a)_n, so successive norms follow (2a+n-1)/n
    p = fixture_params("meixner-pollaczek")
    fam = get_family("meixner-pollaczek")
    a = p.a[0].real
    norms = _norms(fam, p, 6)
    for n in range(1, 7):
        assert norms[n] / norms[n - 1] == pytest.approx((2 * a + n - 1) / n, rel=1e-12)
    assert norms[0] == pytest.approx(fam.h0(p), rel=1e-12)


@pytest.mark.parametrize("matrix", [orthogonality_matrix, hermiticity_forms])
def test_quadrature_rejects_an_underflowed_norm_ratio_by_level(matrix):
    # Wilson `default`: h0/h_42 is about 5e-313, subnormal, and h0/h_n reads
    # 0 from level 44; either would scale or zero P_n's rows of the matrix
    with pytest.raises(ValueError, match=r"^h0/h_42 = 4\.9\d*e-313 underflows the "
                       r"double range, so the quadrature cannot normalise P_42$"):
        matrix("wilson", fixture_params("wilson", "default"), 45)


@pytest.mark.parametrize("suite", ["orthogonality", "hermiticity"])
def test_quadrature_suites_pass_at_n_max_30(suite):
    # the CLI's ceiling, on every bundled fixture
    for family in ALL_FAMILIES:
        for fixture in fixture_names(family):
            results = run_suite(suite, family, fixture_params(family, fixture),
                                VerifyConfig(n_max=30))
            assert all(r.passed for r in results), [
                (family, fixture, r.check_id, r.max_residual) for r in results]


def test_quadrature_checks_cover_every_level():
    p = fixture_params("wilson")
    ranges = {r.check_id: r.level_range for suite in ("orthogonality", "hermiticity")
              for r in run_suite(suite, "wilson", p, VerifyConfig(n_max=12))}
    assert ranges == {
        "orthogonality.diagonal_norms": (0, 12),
        "orthogonality.off_diagonal": (0, 12),
        "hermiticity.symmetric_form": (0, 12),
        "hermiticity.diagonal_energy": (0, 1),
    }


def test_quadrature_self_consistency():
    # the weight's integral in units of h0 is 1 on each interval's rule: once
    # two levels agree to the stopping tolerance, every finer level stays there
    for family in ("al-salam-chihara", "wilson", "meixner-pollaczek"):
        fam = get_family(family)
        p = fixture_params(family)
        sums = []
        for _, wx, ends in _levels(fam, p):
            for part in np.split(wx, ends[:-1]):
                sums.append(0.5 * (sums[-1] if sums else 0.0) + np.sum(part))
        sums = np.array(sums)
        accepted = int(np.argmax(np.abs(np.diff(sums)) <= 1e-10)) + 1
        assert accepted < len(sums) - 1
        assert np.all(np.abs(sums[accepted:] - 1.0) <= 1e-13)


def test_rules_agree_on_finite_interval():
    # tanh-sinh on [0, pi], run up its nested ladder to step 1/64, against the
    # sin^2 trapezoid that the Gram matrix of the cos-x families runs on: two
    # independent rules
    fam = get_family("continuous-q-hermite")
    p = ParamSet(q=0.5)
    vd = 0.0
    for level in range(4):
        x, dx = _tanh_sinh(0.0, math.pi, *_de_grid(level))
        vd = 0.5 * vd + np.sum(dx * np.asarray(fam.phi0(p, x)) ** 2)
    [vg] = _norms(fam, p, 0)
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


# hard cos-x sets: a parameter near +-1 puts a peak of the weight next to
# an end of (0, pi), where the sin^2 map crowds its nodes, and q = 0.95
# narrows the q-Hermite peak at pi/2 to about 0.26 wide (0.9 at q = 0.5).
# Continuous q-Laguerre alpha = -1/2 maps to a1 = 1, where w(0) != 0; at
# q = 0.99 a2 = q^{1/2} is near 1 too, and w(0) is 11 h0 (1.4 h0 at q = 0.5)
COS_X_HARD_SETS = [
    ("askey-wilson", ParamSet(a=(0.99, 0.6, 0.4, 0.2), q=0.5)),
    ("askey-wilson", ParamSet(a=(-0.97, 0.6, 0.4, 0.2), q=0.9)),
    ("askey-wilson", ParamSet(a=(0.95 * np.exp(1j), 0.95 * np.exp(-1j), 0.6, 0.4), q=0.5)),
    ("continuous-big-q-hermite", ParamSet(a=(0.98,), q=0.5)),
    ("continuous-q-hermite", ParamSet(q=0.95)),
    ("al-salam-chihara", ParamSet(a=(0.9, -0.9), q=0.5)),
    ("continuous-q-laguerre", ParamSet(a=(-0.5,), q=0.99)),
]


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
    # narrow peaks far from x = 0 on (0, inf): a pair a = r +- i m puts a
    # peak about r wide at x = m, and all six have s/c below NARROW_PEAK, so
    # they take tanh-sinh on [0, c] plus exp-sinh on [c, inf).  A sinh-sinh
    # rule folded onto x = 0 stalls on all six, the one exp-sinh rule on
    # the last four.  The third is from the domain sweep's conjugate-pair draws
    ("wilson", ParamSet(a=(0.1 + 3j, 0.1 - 3j, 0.5, 2.0))),
    ("continuous-dual-hahn", ParamSet(a=(0.05 + 2j, 0.05 - 2j, 0.3))),
    ("wilson", ParamSet(a=(0.055344748145423284 + 2.5765535924281426j,
                           0.055344748145423284 - 2.5765535924281426j,
                           3.9340438649303935, 3.1492089180570844))),
    ("wilson", ParamSet(a=(0.3 + 15j, 0.3 - 15j, 0.5, 2.0))),
    ("wilson", ParamSet(a=(0.03 + 3j, 0.03 - 3j, 0.5, 2.0))),
    ("wilson", ParamSet(a=(0.05 + 6j, 0.05 - 6j, 0.5, 2.0))),
    *COS_X_HARD_SETS,
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

def _mirror_residual(K, n, m):
    """|(phi0 P_n, H phi0 P_m) - (H phi0 P_n, phi0 P_m)| over 1 plus the l1
    sums of both, read off K: the mirror form is conj(K_mn)."""
    return abs(K.val[n, m] - np.conj(K.val[m, n])) / (1.0 + K.mag[n, m] + K.mag[m, n])


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_hermiticity_residual(family):
    p = fixture_params(family)
    assert _mirror_residual(hermiticity_forms(family, p, 2), 2, 1) <= 1e-6


def test_hermiticity_diagonal_form_is_real():
    p = fixture_params("askey-wilson")
    k22 = hermiticity_forms("askey-wilson", p, 2).val[2, 2]
    assert abs(k22 - np.conj(k22)) <= 1e-12 * (1 + abs(k22))
    assert abs(k22.imag) <= 1e-12 * (1 + abs(k22))


def test_hermiticity_on_ground_state_is_zero():
    # P_0 = 1: (phi0, H phi0) = 0
    p = fixture_params("continuous-q-hermite")
    K = hermiticity_forms("continuous-q-hermite", p, 0)
    assert abs(K.val[0, 0]) <= 1e-10


def test_quadrature_counts_a_pole_of_V_at_a_node_as_zero(monkeypatch):
    # a node exactly on x = 0, the pole of the q-Hermite V, with an order-one
    # weight, added to every level: inside the guard it counts as zero, in
    # the Gram matrix as in K
    import dqm.quadrature as quadrature
    from dqm.families import SingularityError

    fam = get_family("continuous-q-hermite")
    p = fixture_params("continuous-q-hermite")
    plain = [orthogonality_matrix(fam, p, 3), hermiticity_forms(fam, p, 3)]
    levels = quadrature._levels

    def with_pole(fam, p):
        for x, wx, ends in levels(fam, p):
            yield (np.insert(x, ends, 0.0), np.insert(wx, ends, 1.0),
                   ends + np.arange(1, ends.size + 1))

    monkeypatch.setattr(quadrature, "_levels", with_pole)
    with pytest.raises(SingularityError):
        fam.V(p, 0.0)
    got = [orthogonality_matrix(fam, p, 3), hermiticity_forms(fam, p, 3)]
    for matrix, want in zip(got, plain):
        assert np.all(np.isfinite(matrix.val))
        assert np.max(np.abs(matrix.val - want.val) / (1 + np.abs(want.val))) <= 1e-14
    # on (0, inf) the exp-sinh nodes that crowd towards x = 0 fall inside the guard
    wilson = get_family("wilson")
    x, _, _ = next(levels(wilson, fixture_params("wilson")))
    assert OperatorContext(wilson, fixture_params("wilson")).inside_guard(x).any()


FIXTURES = [(name, fx) for name in ALL_FAMILIES for fx in fixture_names(name)]


@pytest.mark.parametrize("family,fixture", FIXTURES)
def test_hermiticity_forms_reproduce_the_spectrum(family, fixture):
    # phi0 P_n / sqrt(h_n) are orthonormal eigenfunctions: K_nm and the
    # mirror form conj(K_mn) equal E_n delta_nm, on every pair of levels 0..4
    fam = get_family(family)
    p = fixture_params(family, fixture)
    K = hermiticity_forms(fam, p, 4).val
    for n in range(5):
        e_n = fam.energy(p, n)
        for m in range(5):
            want = e_n if n == m else 0.0
            assert abs(K[n, m] - want) <= 1e-11 * (1 + e_n)
            assert abs(np.conj(K[m, n]) - want) <= 1e-11 * (1 + e_n)


COS_X_SETS = [(name, fixture_params(name, fx)) for name, fx in FIXTURES
              if get_family(name).spec.interval[1] == math.pi] + COS_X_HARD_SETS


def test_sin2_ladder_reaches_the_guard_from_step_pi_over_2048():
    # the first node of the sin^2 ladder lies (2/3) h^3 from x = 0: outside
    # the guard |2 sin x| < 2e-8 down to step pi/1024, inside from pi/2048 on
    ctx = OperatorContext(get_family("continuous-q-hermite"), ParamSet(q=0.5))
    first = np.array([_sin2_grid(level)[0][0] for level in range(9)])
    assert ctx.inside_guard(first).tolist() == [False] * 5 + [True] * 4


@pytest.mark.parametrize("family,p", COS_X_SETS)
@pytest.mark.parametrize("n_max", [8, 30])
def test_guard_masks_no_weight_up_to_the_accepted_level(family, p, n_max, monkeypatch):
    # every cos-x fixture's matrix is accepted by step pi/256, before its
    # ladder reaches the guard, so no node is masked, where w(0) != 0
    # (q-Laguerre `edge`) too.  Of the hard sets, q-Laguerre at q = 0.99
    # (w(0) = 11 h0, where a masked node would drop about 1e-7 of h0) is
    # accepted by pi/512, and only K of the Askey-Wilson pair 0.95 e^{+-i}
    # at n_max 30 goes on to pi/2048: it masks two nodes, where w(0) = 0 has
    # crushed the weight to about 4e-27 of h0
    import dqm.quadrature as quadrature

    fam = get_family(family)
    ctx = OperatorContext(fam, p)
    levels = quadrature._levels
    masked = []

    def traced(fam, p):
        for x, wx, ends in levels(fam, p):
            for xl, wl in zip(np.split(x, ends[:-1]), np.split(wx, ends[:-1])):
                inside = ctx.inside_guard(xl)
                masked.append((int(inside.sum()), float(np.sum(np.abs(wl[inside])))))
            yield x, wx, ends

    monkeypatch.setattr(quadrature, "_levels", traced)
    for matrix in (orthogonality_matrix, hermiticity_forms):
        masked.clear()
        matrix(fam, p, n_max)
        counts, weights = zip(*masked)
        assert len(counts) >= 2 and sum(weights) <= 1e-20, masked
        assert (family, p) in COS_X_HARD_SETS or not any(counts), masked


@pytest.mark.parametrize("family,fixture", FIXTURES)
@pytest.mark.parametrize("suite", ["orthogonality", "hermiticity"])
def test_quadrature_evaluates_phi0_once_per_level(suite, family, fixture, monkeypatch):
    import dqm.quadrature as quadrature
    from dqm.verify import run_suite

    fam = get_family(family)
    p = fixture_params(family, fixture)
    if fam.spec.interval[1] == math.inf:
        window = weight_window(fam, p)  # its own weight evaluations are not counted
        monkeypatch.setattr(quadrature, "weight_window", lambda *args: window)
    plain = type(fam).log_amplitude
    nodes = []

    def counted(self, params, x):
        nodes.append(np.ravel(x))
        return plain(self, params, x)

    monkeypatch.setattr(type(fam), "log_amplitude", counted)
    results = run_suite(suite, fam, p)
    # one weight evaluation per pass.  The first takes levels 0 and 1: the
    # t = h k over [-4, 4] at h = 1/64 on the unbounded intervals (513
    # nodes), over (0, pi) at h = pi/128 on the sin^2 ladder (127).  Every
    # later one takes one level
    unbounded = fam.spec.interval[1] == math.inf
    assert nodes[0].size == (513 if unbounded else 127)
    # each evaluation takes only the nodes its levels add: together they
    # are the finest level's grid, one rule on every interval, and no node
    # comes twice.  That grid is at h = 1/32 / 2^level on the unbounded
    # intervals and h = pi/64 / 2^level on the sin^2 ladder
    finest = 2 ** len(nodes)
    want = 256 * finest + 1 if unbounded else 64 * finest - 1
    x = np.concatenate(nodes)
    assert sum(map(np.size, nodes)) == np.unique(x).size == want
    assert all(r.passed for r in results)


# one set per rule: sin^2, sinh-sinh, exp-sinh, and tanh-sinh + exp-sinh
# (the narrow Wilson peak of HARD_SETS)
RULE_SETS = [
    ("continuous-q-hermite", fixture_params("continuous-q-hermite")),
    ("meixner-pollaczek", fixture_params("meixner-pollaczek")),
    ("wilson", fixture_params("wilson")),
    ("wilson", ParamSet(a=(0.1 + 3j, 0.1 - 3j, 0.5, 2.0))),
]


@pytest.mark.parametrize("family,p", RULE_SETS)
@pytest.mark.parametrize("matrix", [orthogonality_matrix, hermiticity_forms])
def test_first_pass_sums_each_level_as_a_pass_of_its_own_would(family, p, matrix, monkeypatch):
    # the first pass evaluates the weight of levels 0 and 1 in one call, and
    # every level's sums, read where the ladder compares them, are those of
    # a run that takes one level per pass and one weight call per level
    import dqm.quadrature as quadrature

    fam = get_family(family)
    if fam.spec.interval[1] == math.inf:
        window = weight_window(fam, p)  # its own weight evaluations are not counted
        monkeypatch.setattr(quadrature, "weight_window", lambda *args: window)
    plain, converged = type(fam).log_amplitude, quadrature._converged
    calls, compared = [], []

    def counted(self, params, x):
        calls.append(np.size(x))
        return plain(self, params, x)

    def traced(delta, value, l1):
        compared.append((delta, value, l1))
        return converged(delta, value, l1)

    monkeypatch.setattr(type(fam), "log_amplitude", counted)
    monkeypatch.setattr(quadrature, "_converged", traced)

    def run():
        calls.clear()
        _, _, ends = next(quadrature._levels(fam, p))
        first = (ends.size, len(calls))
        compared.clear()
        matrix(fam, p, 8)
        return first, list(compared)

    first, by_pass = run()
    monkeypatch.setattr(quadrature, "FIRST_PASS", 1)
    first_alone, by_level = run()
    assert first == (2, 1) and first_alone == (1, 1)
    assert len(by_pass) == len(by_level) >= 1
    for got, want in zip(by_pass, by_level):
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
