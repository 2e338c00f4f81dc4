"""Verifier: suite execution, determinism, coherent states, the q -> 1
dictionary and the number-operator inversions."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from dqm.families import FAMILIES, FamilyId, ParamSet, eval_poly_recurrence, get_family
from dqm.fixtures import fixture_names, fixture_params
from dqm.operators import OperatorContext, ladder_action, per_level, sample_points
from dqm.polynomials import EtaPolynomial
from dqm.specfun import basic_hypergeometric_phi, hypergeometric_F, q_pochhammer_inf
from dqm.verify import (
    SUITES,
    TOLERANCES,
    CheckResult,
    VerifyConfig,
    run_suite,
    _coherent_closed_form,
    _coherent_series,
    _default_alpha,
    _ladder_ratios,
    _residual,
    _truncation,
)

ALL_FAMILIES = [FAMILIES[fid].spec.name for fid in FamilyId]
ALL_FIXTURES = [(f, fx) for f in ALL_FAMILIES for fx in fixture_names(get_family(f))]


def test_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nonsense", "continuous-q-hermite", ParamSet(q=0.5))


def test_eigen_suite_q_hermite():
    results = run_suite("eigen", "continuous-q-hermite", ParamSet(q=0.5))
    assert all(r.passed for r in results)
    assert max(r.max_residual for r in results) < 1e-9


def test_closure_suite_wilson():
    results = run_suite("closure", "wilson", fixture_params("wilson"))
    assert all(r.passed for r in results)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_fast_suites_pass(family):
    p = fixture_params(family)
    cfg = VerifyConfig(n_max=5)
    for suite in ("eigen", "shape_invariance", "closure", "dual_closure",
                  "shifts", "ladder", "number_operator"):
        for r in run_suite(suite, family, p, cfg):
            assert r.passed, (family, r.check_id, r.max_residual)


def test_determinism_bit_identical():
    cfg = VerifyConfig(n_max=4, seed=3)
    a = run_suite("closure", "askey-wilson", fixture_params("askey-wilson"), cfg)
    b = run_suite("closure", "askey-wilson", fixture_params("askey-wilson"), cfg)
    assert a == b


def test_check_result_invariant():
    r = CheckResult(
        check_id="x", family="f", params={}, level_range=(0, 1),
        max_residual=2.0, tolerance=1.0, passed=False, samples_used=1,
    )
    assert r.passed == (r.max_residual <= r.tolerance)


def test_suite_ids_unique_across_suites():
    # every identity is exercised by exactly one suite
    p = fixture_params("continuous-q-hermite")
    seen = {}
    for suite in SUITES:
        for r in run_suite(suite, "continuous-q-hermite", p, VerifyConfig(n_max=3)):
            assert r.check_id not in seen, (r.check_id, suite, seen.get(r.check_id))
            seen[r.check_id] = suite
        # limit runs only on wilson
    results = run_suite("limit", "wilson", fixture_params("wilson"))
    for r in results:
        assert r.check_id.startswith("limit.")


def test_every_tolerance_judges_an_emitted_check():
    # at the default config the bundled fixtures emit every check of
    # TOLERANCES, and no check without an entry there
    emitted = {r.check_id for family, fixture in ALL_FIXTURES for suite in SUITES
               for r in run_suite(suite, family, fixture_params(family, fixture))}
    assert emitted == set(TOLERANCES)


# --------------------------------------------------------- shape invariance

def test_shape_invariance_q_hermite_constants():
    fam = get_family("continuous-q-hermite")
    p = ParamSet(q=0.5)
    assert fam.kappa(p) == pytest.approx(2.0)
    assert fam.energy(p, 1) == pytest.approx(1.0)
    results = run_suite("shape_invariance", fam, p)
    assert all(r.passed for r in results)


def test_shape_invariance_meixner_pollaczek_constants():
    fam = get_family("meixner-pollaczek")
    p = fixture_params("meixner-pollaczek")
    assert fam.kappa(p) == 1.0
    assert fam.energy(p, 1) == pytest.approx(2 * math.sin(p.phi))
    results = run_suite("shape_invariance", fam, p)
    assert all(r.passed for r in results)


# ------------------------------------------------------------------- shifts

@pytest.mark.parametrize("family,fixture",
                         [(f, "default") for f in ALL_FAMILIES]
                         + [("meixner-pollaczek", "half-pi")])
def test_shifts_suite_covers_levels_to_n_max_30(family, fixture):
    # every check, the Rodrigues chain and the explicit X (Meixner-Pollaczek
    # at pi/2, continuous dual Hahn) included, covers levels 0..30
    results = run_suite("shifts", family, fixture_params(family, fixture),
                        VerifyConfig(n_max=30))
    assert "shifts.rodrigues_chain" in {r.check_id for r in results}
    if fixture == "half-pi" or family == "continuous-dual-hahn":
        assert "shifts.lambda_shift_x" in {r.check_id for r in results}
    for r in results:
        assert r.passed, (r.check_id, r.max_residual, r.tolerance)
        assert r.level_range[1] == 30, (r.check_id, r.level_range)


def test_lambda_shift_x_stops_at_level_30():
    # above level 30 the explicit X misses its tolerance (2.2e-14 against
    # 1.7e-14 at level 40 here); the other shifts checks run to n_max
    p = fixture_params("continuous-dual-hahn", "real")
    results = run_suite("shifts", "continuous-dual-hahn", p, VerifyConfig(n_max=40, seed=1))
    for r in results:
        assert r.passed, (r.check_id, r.max_residual, r.tolerance)
        assert r.level_range[1] == (30 if r.check_id == "shifts.lambda_shift_x" else 40)


# ----------------------------------------------------------------- coherent

@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_coherent_annihilation(family):
    fam = get_family(family)
    p = fixture_params(family)
    n, tail, _, _ = _coherent_series(fam, p, _default_alpha(fam), sample_points(fam, p, 6, 0))
    assert n >= 10
    assert tail < 1e-12
    ann = run_suite("coherent", family, p)[0]
    assert ann.check_id == "coherent.annihilation_eigenvector"
    assert ann.level_range == (0, n)
    assert ann.max_residual <= 1e-7


@pytest.mark.parametrize(
    "family",
    ["meixner-pollaczek", "al-salam-chihara", "continuous-big-q-hermite",
     "continuous-q-hermite", "continuous-q-laguerre"],
)
def test_coherent_closed_forms(family):
    p = fixture_params(family)
    closed = run_suite("coherent", family, p)[1]
    assert closed.check_id == "coherent.closed_form"
    assert closed.max_residual <= 1e-8


def _truncation_by_a_loop(terms):
    running = 0j
    for n, t in enumerate(terms):
        running += t
        if (n >= 10 and abs(t) < 1e-14 * abs(running)
                and abs(terms[n - 1]) < 1e-14 * abs(running)):
            return n, abs(t) / max(abs(running), 1e-300)
    return len(terms) - 1, abs(terms[-1]) / max(abs(running), 1e-300)


def test_coherent_truncation_matches_the_loop():
    rng = np.random.default_rng(3)
    k = np.arange(61)
    series = [
        0.3**k * np.exp(1j * rng.uniform(0, 6, 61)),
        0.5**k * rng.uniform(-1, 1, 61),
        0.9**k + 0j,  # never small enough: the last index
        np.where(k == 15, 0.0, 0.2**k),  # one vanishing term does not stop it
    ]
    for terms in series:
        terms = terms.astype(complex)
        assert _truncation(terms) == _truncation_by_a_loop(terms)


def _coherent_by_all_levels(fam, p, seed):
    """The coherent suite as it was before N was found first: every level
    P_0 .. P_60 on the whole shift lattice, N read off the centre row at the
    first point.  (N, tail, partial sum at the first point, annihilation
    residual, closed-form residual)."""
    ctx = OperatorContext(fam, p)
    alpha = complex(_default_alpha(fam))
    xs = sample_points(fam, p, 6, seed)
    poly = eval_poly_recurrence(fam, p, 61)
    _, C_n = _ladder_ratios(poly)
    coeffs = per_level(np.cumprod([1.0, *(alpha / np.array(C_n[1:61]))]))
    lat = ctx.lattice(xs, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        f = lat.operand(poly)[:61]
        terms = coeffs * f.at(0)
    n, tail = _truncation(terms.val[:, 0, 0])
    sums = terms[: n + 1].sum(axis=0)
    lowered = (coeffs[1: n + 1]
               * ladder_action(ctx, "-", range(1, n + 1), f[1: n + 1], lat)).sum(axis=0)
    closed = _coherent_closed_form(fam, p, alpha, xs)
    return (n, tail, complex(sums.val[0, 0]), _residual(lowered, alpha * sums),
            None if closed is None else _residual(sums, closed))


@pytest.mark.parametrize("family,fixture", ALL_FIXTURES)
def test_coherent_truncation_first_matches_all_levels(family, fixture):
    fam = get_family(family)
    p = fixture_params(family, fixture)
    for seed in range(5):
        n, tail, sums, _ = _coherent_series(fam, p, _default_alpha(fam),
                                            sample_points(fam, p, 6, seed))
        results = run_suite("coherent", fam, p, VerifyConfig(seed=seed))
        assert {r.level_range for r in results} == {(0, n)}
        residuals = [r.max_residual for r in results]
        got = (n, tail, complex(sums.val[0, 0]), residuals[0],
               residuals[1] if len(residuals) > 1 else None)
        assert got == _coherent_by_all_levels(fam, p, seed)


def test_coherent_wilson_large_parameters_warn_of_nothing(recwarn):
    # P_56 .. P_61 overflow on the lattice; N = 10 never reaches them
    results = run_suite("coherent", "wilson", ParamSet(a=(30, 30, 30, 30)))
    assert [r.passed for r in results] == [True]
    assert not [w for w in recwarn.list if issubclass(w.category, RuntimeWarning)]


def _closed_form_by_the_series_kernels(name, p, alpha, x):
    """The closed form at one point from the double-double series and the
    scalar q-product."""
    if name == "meixner-pollaczek":
        a, phi = p.a[0].real, p.phi
        pref = cmath.exp(1j * alpha * (1.0 - cmath.exp(2j * phi)))
        return pref * hypergeometric_F([a + 1j * x], [2 * a],
                                       -4j * alpha * math.sin(phi) ** 2, 80)
    q, z = p.q, cmath.exp(1j * x)
    if name == "al-salam-chihara":
        num, den = [p.a[0] * z, p.a[1] * z], [p.a[0] * p.a[1]]
    else:
        k = q ** (0.5 * (p.a[0].real + 0.5))
        num, den = [k * z, k * math.sqrt(q) * z], [q ** (p.a[0].real + 1)]
    return (basic_hypergeometric_phi(num, den, q, 2 * alpha / z, 200)
            / q_pochhammer_inf(2 * alpha * z, q))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize(
    "family,fixture",
    [(f, fx) for f in ("meixner-pollaczek", "al-salam-chihara", "continuous-q-laguerre")
     for fx in fixture_names(get_family(f))],
)
def test_coherent_closed_form_matches_the_series_kernels(family, fixture, seed):
    # the plain-double array sums against the double-double series, point
    # by point, relative to the magnitude of the sum's terms
    fam = get_family(family)
    p = fixture_params(family, fixture)
    alpha = _default_alpha(fam)
    xs = sample_points(fam, p, 6, seed)
    closed = _coherent_closed_form(fam, p, alpha, xs)
    dd = np.array([_closed_form_by_the_series_kernels(family, p, alpha, x) for x in xs])
    assert np.max(np.abs(closed.val - dd) / (1.0 + closed.mag)) <= 1e-14


def test_coherent_alpha_zero_reduces_to_ground_state():
    fam = get_family("continuous-q-hermite")
    p = fixture_params("continuous-q-hermite")
    _, _, sums, _ = _coherent_series(fam, p, 0.0, sample_points(fam, p, 6, 0))
    assert complex(sums.val[0, 0]) == pytest.approx(1.0)


def test_coherent_q_hermite_golden_value():
    # phi0-stripped closed form at x = pi/2, q = 1/2, alpha = 0.2:
    # 1/((2 a i; q)_inf (-2 a i; q)_inf); oracle = truncated product
    q, alpha = 0.5, 0.2
    prod = 1.0 + 0j
    for k in range(60):
        prod *= (1 - 2 * alpha * 1j * q**k) * (1 + 2 * alpha * 1j * q**k)
    expected = 1.0 / prod
    fam, p = get_family("continuous-q-hermite"), ParamSet(q=q)
    assert _default_alpha(fam) == alpha
    _, _, sums, _ = _coherent_series(fam, p, alpha, [math.pi / 2])
    closed = _coherent_closed_form(fam, p, alpha, [math.pi / 2])
    assert complex(closed.val[0]) == pytest.approx(expected, rel=1e-10)
    assert complex(sums.val[0, 0]) == pytest.approx(expected, rel=1e-8)


def test_coherent_al_salam_chihara_symmetric():
    p = fixture_params("al-salam-chihara")
    p_swapped = ParamSet(a=(p.a[1], p.a[0]), q=p.q)
    fam = get_family("al-salam-chihara")
    alpha = _default_alpha(fam)
    c1 = _coherent_closed_form(fam, p, alpha, [1.1]).val[0]
    c2 = _coherent_closed_form(fam, p_swapped, alpha, [1.1]).val[0]
    assert c1 == pytest.approx(c2, rel=1e-10)


# -------------------------------------------------------------------- limit

def test_limit_results():
    results = run_suite("limit", "wilson", fixture_params("wilson"))
    assert [r.check_id for r in results] == [
        "limit.monotone_decrease", "limit.extrapolated_deviation",
    ]
    assert all(r.passed for r in results)


def test_limit_suite_skips_non_wilson():
    assert run_suite("limit", "continuous-q-hermite", ParamSet(q=0.5)) == []


# --------------------------------------------------------- number operator

@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_number_operator_all_families(family):
    p = fixture_params(family)
    [r] = run_suite("number_operator", family, p)
    assert r.passed


def test_number_operator_level_zero():
    for family in ("meixner-pollaczek", "wilson", "continuous-q-hermite",
                   "askey-wilson"):
        p = fixture_params(family)
        fam = get_family(family)
        assert fam.level_from_energy(p, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_number_operator_regime_error():
    # the Askey-Wilson inversion holds for every b4 < q, negative b4 included
    fam = get_family("askey-wilson")
    p = fixture_params("askey-wilson", "real")
    assert math.prod(p.a).real < 0
    for n in range(31):
        assert fam.level_from_energy(p, fam.energy(p, n)) == pytest.approx(n, abs=1e-13)
    # for b4 >= q the smaller root at level 0 is q/b4, not 1: rejected by name
    p = ParamSet(a=(0.95, 0.9, 0.9, 0.9), q=0.5)
    fam.validate(p)
    assert math.prod(p.a).real >= p.q
    with pytest.raises(ValueError, match="needs b4 < q"):
        fam.level_from_energy(p, fam.energy(p, 1))


@pytest.mark.parametrize("family,fixture", [
    ("askey-wilson", "default"),
    ("continuous-q-jacobi", "default"),
    ("continuous-q-jacobi", "steep"),
])
def test_number_operator_inverts_high_levels(family, fixture):
    # the conjugate root does not cancel as hp^2 >> 4 b4/q
    fam = get_family(family)
    p = fixture_params(family, fixture)
    for n in range(31):
        assert abs(fam.level_from_energy(p, fam.energy(p, n)) - n) <= 1e-14 * (1 + n)


def test_number_operator_meixner_pollaczek_linear():
    p = fixture_params("meixner-pollaczek")
    fam = get_family("meixner-pollaczek")
    for n in range(8):
        got = fam.level_from_energy(p, fam.energy(p, n))
        assert got == pytest.approx(n, abs=1e-12)


def test_number_operator_wilson_sqrt_form():
    p = fixture_params("wilson")
    fam = get_family("wilson")
    b1 = sum(v.real for v in p.a)
    assert b1 > 1
    for n in range(8):
        e = fam.energy(p, n)
        got = math.sqrt(e + 0.25 * (b1 - 1) ** 2) - 0.5 * (b1 - 1)
        assert got == pytest.approx(n, abs=1e-10)


# ------------------------------------------------------------------ report

def test_report_round_trips_schema(tmp_path):
    import json

    from dqm.cli import main

    path = tmp_path / "report.json"
    rc = main([
        "verify", "continuous-q-hermite", "--q", "0.5",
        "--suite", "eigen", "--report", str(path),
    ])
    assert rc == 0
    doc = json.loads(path.read_text())
    from dqm.cli import validate_report

    validate_report(doc)  # must not raise
    assert doc["version"] == 1
    assert all(r["passed"] for r in doc["results"])


def test_report_bit_identical_across_runs(tmp_path):
    from dqm.cli import main

    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", "askey-wilson", "--fixture", "default",
            "--suite", "closure", "--seed", "7"]
    assert main(argv + ["--report", str(p1)]) == 0
    assert main(argv + ["--report", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_identity_suites_at_generic_q():
    # the operator identities do not depend on the dyadic default q
    p = ParamSet(a=(0.3 + 0.4j, 0.3 - 0.4j, 0.6, 0.4), q=0.8)
    cfg = VerifyConfig(n_max=4)
    for suite in ("eigen", "closure", "ladder", "shifts"):
        for r in run_suite(suite, "askey-wilson", p, cfg):
            assert r.passed, (r.check_id, r.max_residual)


def test_params_serialisation_round_trip():
    from dqm.fixtures import parse_complex

    p = fixture_params("askey-wilson")
    d = p.as_dict()
    back = ParamSet(
        a=tuple(parse_complex(v) for v in d["a"]), q=d.get("q"),
        phi=d.get("phi"),
    )
    assert back == p


def test_ground_state_shift_identity_in_suite():
    for family in ("wilson", "continuous-q-jacobi", "meixner-pollaczek"):
        p = fixture_params(family)
        results = run_suite("shape_invariance", family, p, VerifyConfig())
        ids = [r.check_id for r in results]
        assert "shape_invariance.ground_state_shift" in ids
        assert all(r.passed for r in results)


def test_weight_square_continues_phi0():
    # on the real axis the analytic weight square equals phi0^2
    from dqm.operators import sample_points

    for family in ALL_FAMILIES:
        p = fixture_params(family)
        fam = get_family(family)
        for x in sample_points(fam, p, 5):
            w2 = fam.weight_square(p, x)
            direct = fam.phi0(p, x) ** 2
            assert abs(w2 - direct) <= 1e-12 * (1 + abs(direct))
            assert abs(complex(w2).imag) <= 1e-12 * (1 + abs(direct))


def test_nan_residual_fails_its_check(monkeypatch):
    # max(worst, nan) returns worst; the residual fold must keep the NaN
    fam = get_family("continuous-q-hermite")
    p = fixture_params("continuous-q-hermite")
    exact = type(fam).level_from_energy

    def nan_at_level_five(self, params, e_n):
        n = exact(self, params, e_n)
        return math.nan if round(n) == 5 else n

    monkeypatch.setattr(type(fam), "level_from_energy", nan_at_level_five)
    [r] = run_suite("number_operator", fam, p)
    assert math.isnan(r.max_residual)
    assert not r.passed


def _count_evaluations(monkeypatch):
    """One (polynomial, point) pair for every level the recurrence steps
    through at every element of every array it runs on; level k is named by
    its recurrence data a_0 .. a_{k-1}, b_0 .. b_{k-1}, c_0 .. c_k."""
    calls = []
    plain_steps = EtaPolynomial._monic_values

    def counting_steps(self, eta):
        for k, value in enumerate(plain_steps(self, eta)):
            level = (self.a[:k], self.b[:k], self.c[:k + 1])
            calls.extend((level, complex(e)) for e in np.ravel(eta))
            yield value

    monkeypatch.setattr(EtaPolynomial, "_monic_values", counting_steps)
    return calls


def test_coherent_evaluates_each_polynomial_once_per_point(monkeypatch):
    calls = _count_evaluations(monkeypatch)
    results = run_suite("coherent", "meixner-pollaczek",
                        fixture_params("meixner-pollaczek"), VerifyConfig())
    assert len(results) == 2
    assert calls
    assert len(calls) <= len(set(calls))


def test_ladder_evaluates_each_polynomial_once_per_point(monkeypatch):
    calls = _count_evaluations(monkeypatch)
    # q-Hermite runs every block of the ladder suite
    results = run_suite("ladder", "continuous-q-hermite",
                        fixture_params("continuous-q-hermite"),
                        VerifyConfig(seed=54))
    assert len(results) == 7
    assert calls
    assert len(calls) <= len(set(calls))


POINTWISE_SUITES = ("eigen", "shape_invariance", "closure", "dual_closure",
                    "shifts", "ladder", "coherent")


@pytest.mark.parametrize("family,fixture,seed,suites", [
    # residuals scaled by the target instead of the cancelling terms missed
    # here: closure and shifts at seed 43, the ladder near x = 0 at seed 54
    ("continuous-hahn", "real", 43, POINTWISE_SUITES),
    ("wilson", "real", 43, POINTWISE_SUITES),
    ("continuous-dual-hahn", "real", 54, ("ladder",)),
    ("continuous-dual-q-hahn", "default", 54, ("ladder",)),
    ("continuous-dual-q-hahn", "real", 54, ("ladder",)),
    ("al-salam-chihara", "default", 54, ("ladder",)),
    ("al-salam-chihara", "real", 54, ("ladder",)),
    ("continuous-big-q-hermite", "default", 54, ("ladder",)),
    ("continuous-big-q-hermite", "negative", 54, ("ladder",)),
    ("continuous-q-hermite", "default", 54, ("ladder",)),
    ("continuous-q-hermite", "high-q", 54, ("ladder",)),
])
def test_pointwise_suites_pass_at_the_seeds_that_missed(family, fixture, seed, suites):
    p = fixture_params(family, fixture)
    for suite in suites:
        for r in run_suite(suite, family, p, VerifyConfig(seed=seed)):
            assert r.passed, (suite, r.check_id, r.max_residual, r.tolerance)


@pytest.mark.parametrize("family", ["askey-wilson", "wilson", "continuous-q-jacobi",
                                    "continuous-hahn"])
def test_pointwise_suites_flag_a_perturbed_recurrence(family, monkeypatch):
    # b_n (1 + 1e-9) for n >= 2 rebuilds P_n slightly wrong: no longer an
    # eigenpolynomial, nor the image of its neighbours under the shifts
    fam = get_family(family)
    p = fixture_params(family)
    exact = fam.b_rec

    def perturbed(params, n):
        v = exact(params, n)
        return v * (1 + 1e-9) if n >= 2 else v

    monkeypatch.setattr(fam, "b_rec", perturbed)
    failed = [r.check_id for suite in POINTWISE_SUITES
              for r in run_suite(suite, fam, p, VerifyConfig()) if not r.passed]
    assert failed
