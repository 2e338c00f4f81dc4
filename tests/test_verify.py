"""Verifier: suite execution, determinism, coherent states, the q -> 1
dictionary and the number-operator inversions."""

from __future__ import annotations

import math

import numpy as np
import pytest

from dqm.families import FAMILIES, FamilyId, ParamSet, get_family
from dqm.fixtures import fixture_params
from dqm.polynomials import EtaPolynomial
from dqm.verify import (
    SUITES,
    CheckResult,
    VerifyConfig,
    check_coherent,
    check_limit_aw_wilson,
    check_number_operator,
    check_shape_invariance,
    run_suite,
)

ALL_FAMILIES = [FAMILIES[fid].spec.name for fid in FamilyId]


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
    cfg = VerifyConfig(n_max=5, samples=8)
    for suite in ("eigen", "shape_invariance", "closure", "dual_closure",
                  "shifts", "ladder", "number_operator"):
        for r in run_suite(suite, family, p, cfg):
            assert r.passed, (family, r.check_id, r.max_residual)


def test_determinism_bit_identical():
    cfg = VerifyConfig(n_max=4, samples=6, seed=3)
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
        for r in run_suite(suite, "continuous-q-hermite", p, VerifyConfig(n_max=3, samples=4)):
            assert r.check_id not in seen, (r.check_id, suite, seen.get(r.check_id))
            seen[r.check_id] = suite
        # limit runs only on wilson
    results = check_limit_aw_wilson(fixture_params("wilson"))
    for r in results:
        assert r.check_id.startswith("limit.")


# --------------------------------------------------------- shape invariance

def test_shape_invariance_q_hermite_constants():
    fam = get_family("continuous-q-hermite")
    p = ParamSet(q=0.5)
    assert fam.kappa(p) == pytest.approx(2.0)
    assert fam.energy(p, 1) == pytest.approx(1.0)
    results = check_shape_invariance(fam, p)
    assert all(r.passed for r in results)


def test_shape_invariance_meixner_pollaczek_constants():
    fam = get_family("meixner-pollaczek")
    p = fixture_params("meixner-pollaczek")
    assert fam.kappa(p) == 1.0
    assert fam.energy(p, 1) == pytest.approx(2 * math.sin(p.phi))
    results = check_shape_invariance(fam, p)
    assert all(r.passed for r in results)


# ----------------------------------------------------------------- coherent

@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_coherent_annihilation(family):
    p = fixture_params(family)
    ev, _ = check_coherent(family, p)
    assert ev.truncation_N >= 10
    assert ev.tail_estimate < 1e-12
    assert ev.annihilation_residual <= 1e-7


@pytest.mark.parametrize(
    "family",
    ["meixner-pollaczek", "al-salam-chihara", "continuous-big-q-hermite",
     "continuous-q-hermite", "continuous-q-laguerre"],
)
def test_coherent_closed_forms(family):
    p = fixture_params(family)
    ev, worst_closed = check_coherent(family, p)
    assert ev.closed_form is not None
    assert worst_closed is not None and worst_closed <= 1e-8


def test_coherent_alpha_zero_reduces_to_ground_state():
    p = fixture_params("continuous-q-hermite")
    ev, _ = check_coherent("continuous-q-hermite", p, alpha=0.0)
    assert ev.partial_sum == pytest.approx(1.0)


def test_coherent_q_hermite_golden_value():
    # phi0-stripped closed form at x = pi/2, q = 1/2, alpha = 0.2:
    # 1/((2 a i; q)_inf (-2 a i; q)_inf); oracle = truncated product
    q, alpha = 0.5, 0.2
    prod = 1.0 + 0j
    for k in range(60):
        prod *= (1 - 2 * alpha * 1j * q**k) * (1 + 2 * alpha * 1j * q**k)
    expected = 1.0 / prod
    ev, worst = check_coherent(
        "continuous-q-hermite", ParamSet(q=q), alpha=alpha,
        x_samples=[math.pi / 2],
    )
    assert ev.closed_form == pytest.approx(expected, rel=1e-10)
    assert ev.partial_sum == pytest.approx(expected, rel=1e-8)


def test_coherent_al_salam_chihara_symmetric():
    p = fixture_params("al-salam-chihara")
    p_swapped = ParamSet(a=(p.a[1], p.a[0]), q=p.q)
    ev1, _ = check_coherent("al-salam-chihara", p, x_samples=[1.1])
    ev2, _ = check_coherent("al-salam-chihara", p_swapped, x_samples=[1.1])
    assert ev1.closed_form == pytest.approx(ev2.closed_form, rel=1e-10)


def test_coherent_alpha_bound():
    with pytest.raises(ValueError, match="convergence"):
        check_coherent("continuous-q-hermite", ParamSet(q=0.5), alpha=0.5)


# -------------------------------------------------------------------- limit

def test_limit_results():
    results = check_limit_aw_wilson(fixture_params("wilson"))
    assert [r.check_id for r in results] == [
        "limit.monotone_decrease", "limit.extrapolated_deviation",
    ]
    assert all(r.passed for r in results)


def test_limit_needs_three_points():
    with pytest.raises(ValueError, match="at least 3"):
        check_limit_aw_wilson(fixture_params("wilson"), (20.0, 40.0))


def test_limit_suite_skips_non_wilson():
    assert run_suite("limit", "continuous-q-hermite", ParamSet(q=0.5)) == []


# --------------------------------------------------------- number operator

@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_number_operator_all_families(family):
    p = fixture_params(family)
    r = check_number_operator(family, p)
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
    cfg = VerifyConfig(n_max=4, samples=6)
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
    r = check_number_operator(fam, p)
    assert math.isnan(r.max_residual)
    assert not r.passed


def _count_evaluations(monkeypatch):
    """One (polynomial, point) pair for every level the recurrence steps
    through at every element of every array it runs on; level k is named by
    its parameters and its data a_0 .. a_{k-1}, b_0 .. b_{k-1}."""
    calls = []
    plain_steps = EtaPolynomial._monic_values

    def counting_steps(self, eta):
        for k, value in enumerate(plain_steps(self, eta)):
            level = (self.params, self.a[:k], self.b[:k])
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
