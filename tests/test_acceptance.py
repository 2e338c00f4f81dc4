"""Acceptance gate: the twelve exit criteria, each at its stated tolerance.

Every test prints one PASS/FAIL line (run pytest with -s to see them all).
"""

from __future__ import annotations

import math
import time

import pytest

from dqm.families import (
    FAMILIES,
    FamilyId,
    eval_poly_hypergeometric,
    eval_poly_recurrence,
    get_family,
)
from dqm.fixtures import fixture_params
from dqm.operators import sample_points
from dqm.specfun import complex_gamma, q_pochhammer_inf
from dqm.verify import VerifyConfig, run_suite

ALL_FAMILIES = [FAMILIES[fid].spec.name for fid in FamilyId]

_suite_cache: dict = {}


def suite_results(family, suite, n_max=8):
    key = (family, suite, n_max)
    if key not in _suite_cache:
        p = fixture_params(family)
        _suite_cache[key] = run_suite(suite, family, p, VerifyConfig(n_max=n_max))
    return _suite_cache[key]


def report(num, label, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:2d} {status}  {label}  {detail}")
    assert passed, f"criterion {num}: {label} {detail}"


def test_criterion_01_dual_path_equivalence():
    t0 = time.time()
    worst = 0.0
    for family in ALL_FAMILIES:
        p = fixture_params(family)
        fam = get_family(family)
        xs = sample_points(fam, p, 20)
        for n in range(11):
            poly = eval_poly_recurrence(fam, p, n)
            for x in xs:
                eta = fam.eta(x)
                v1 = eval_poly_hypergeometric(fam, p, n, eta)
                v2 = poly.eval(eta)
                worst = max(worst, abs(v1 - v2) / (1 + abs(v2)))
    elapsed = time.time() - t0
    report(
        1, "dual-path equivalence (11 families, n<=10, 20 points, rel 1e-9)",
        worst <= 1e-9 and elapsed < 10.0,
        f"worst={worst:.2e} runtime={elapsed:.1f}s",
    )


def test_criterion_02_eigen_equation_and_triangularity():
    worst = 0.0
    ok = True
    for family in ALL_FAMILIES:
        for r in suite_results(family, "eigen", n_max=10):
            worst = max(worst, r.max_residual)
            ok = ok and r.max_residual <= 1e-9
    report(2, "eigen-equation + lower triangularity (rel 1e-9)", ok,
           f"worst={worst:.2e}")


def test_criterion_03_shape_invariance():
    worst = 0.0
    for family in ALL_FAMILIES:
        for r in suite_results(family, "shape_invariance"):
            if r.check_id == "shape_invariance.potential_identities":
                worst = max(worst, r.max_residual)
    report(3, "shape invariance identities (rel 1e-10)", worst <= 1e-10,
           f"worst={worst:.2e}")


def test_criterion_04_closure_and_dual_closure():
    worst = worst_cc = worst_dual = 0.0
    for family in ALL_FAMILIES:
        for r in suite_results(family, "closure"):
            if r.check_id == "closure.coordinate_condition":
                worst_cc = max(worst_cc, r.max_residual)
            else:
                worst = max(worst, r.max_residual)
        for r in suite_results(family, "dual_closure"):
            worst_dual = max(worst_dual, r.max_residual)
    ok = worst <= 1e-9 and worst_cc <= 1e-12 and worst_dual <= 1e-9
    report(4, "closure relation + 5 conditions (1e-9, coord 1e-12) + dual (1e-9)",
           ok, f"closure={worst:.2e} coord={worst_cc:.2e} dual={worst_dual:.2e}")


def test_criterion_05_shift_actions():
    worst = 0.0
    ok = True
    ids = {"shifts.forward_action", "shifts.backward_action",
           "shifts.energy_factorization", "shifts.rodrigues_chain",
           "shifts.factorization"}
    for family in ALL_FAMILIES:
        for r in suite_results(family, "shifts"):
            if r.check_id in ids:
                worst = max(worst, r.max_residual)
                ok = ok and r.max_residual <= 1e-9
    report(5, "forward/backward shifts, f*b=E, Rodrigues chain (rel 1e-9, n<=8)",
           ok, f"worst={worst:.2e}")


def test_criterion_06_ladder_algebra():
    worst = 0.0
    ok = True
    for family in ALL_FAMILIES:
        for r in suite_results(family, "ladder"):
            worst = max(worst, r.max_residual)
            ok = ok and r.max_residual <= 1e-10
    report(6, "ladder actions, commutators, q-deformations (rel 1e-10)", ok,
           f"worst={worst:.2e}")


def test_criterion_07_orthogonality():
    t0 = time.time()
    worst_diag = worst_off = 0.0
    for family in ALL_FAMILIES:
        for r in suite_results(family, "orthogonality", n_max=6):
            if r.check_id == "orthogonality.diagonal_norms":
                worst_diag = max(worst_diag, r.max_residual)
            else:
                worst_off = max(worst_off, r.max_residual)
    # golden h0 values
    q = 0.5
    p = fixture_params("continuous-q-hermite")
    h0_qh = get_family("continuous-q-hermite").h0(p)
    gold_qh = 2 * math.pi / q_pochhammer_inf(q, q).real
    p = fixture_params("meixner-pollaczek")
    a = p.a[0].real
    h0_mp = get_family("meixner-pollaczek").h0(p)
    gold_mp = (
        2 * math.pi * complex_gamma(2 * a).real / (2 * math.sin(p.phi)) ** (2 * a)
    )
    elapsed = time.time() - t0
    ok = (
        worst_diag <= 1e-5
        and worst_off <= 1e-6
        and abs(h0_qh - gold_qh) <= 1e-12 * gold_qh
        and abs(h0_mp - gold_mp) <= 1e-12 * gold_mp
        and elapsed < 60.0
    )
    report(7, "orthogonality Gram (diag 1e-5, offdiag 1e-6) + h0 golden values",
           ok, f"diag={worst_diag:.2e} off={worst_off:.2e} runtime={elapsed:.1f}s")


def test_criterion_08_hermiticity():
    worst = 0.0
    for family in ALL_FAMILIES:
        for r in suite_results(family, "hermiticity"):
            worst = max(worst, r.max_residual)
    report(8, "hermiticity (g,Hf)=(Hg,f) over 5 pairs per family (1e-6)",
           worst <= 1e-6, f"worst={worst:.2e}")


def test_criterion_09_coherent_states():
    worst_ann = worst_closed = 0.0
    closed_families = set()
    for family in ALL_FAMILIES:
        for r in suite_results(family, "coherent"):
            if r.check_id == "coherent.annihilation_eigenvector":
                worst_ann = max(worst_ann, r.max_residual)
            else:
                worst_closed = max(worst_closed, r.max_residual)
                closed_families.add(family)
    ok = (
        worst_ann <= 1e-7
        and worst_closed <= 1e-8
        and closed_families
        == {
            "meixner-pollaczek",
            "al-salam-chihara",
            "continuous-big-q-hermite",
            "continuous-q-hermite",
            "continuous-q-laguerre",
        }
    )
    report(9, "coherent states: annihilation (1e-7) + 5 closed forms (1e-8)",
           ok, f"ann={worst_ann:.2e} closed={worst_closed:.2e}")


def test_criterion_10_lambda_shift_operators():
    worst = 0.0
    found = 0
    for family, fixture in (("meixner-pollaczek", "half-pi"),
                            ("continuous-dual-hahn", "default")):
        p = fixture_params(family, fixture)
        for r in run_suite("shifts", family, p, VerifyConfig(n_max=6)):
            if r.check_id == "shifts.lambda_shift_x":
                worst = max(worst, r.max_residual)
                found += 1
    report(10, "explicit X / X-dagger actions (MP pi/2, dual Hahn; rel 1e-9)",
           found == 2 and worst <= 1e-9, f"worst={worst:.2e}")


def test_criterion_11_q_to_1_limit():
    results = run_suite("limit", "wilson", fixture_params("wilson"))
    by_id = {r.check_id: r for r in results}
    mono = by_id["limit.monotone_decrease"]
    ext = by_id["limit.extrapolated_deviation"]
    report(
        11, "q->1 limit: monotone decrease over L=20,40,80 + limit within 1e-2",
        mono.passed and ext.passed,
        f"decrease_ratio={mono.max_residual:.3f} extrapolated={ext.max_residual:.2e}",
    )


def test_criterion_12_spectrum_generation():
    worst = 0.0
    for family in ALL_FAMILIES:
        p = fixture_params(family)
        fam = get_family(family)
        kappa = fam.kappa(p)
        for n in range(11):
            total = 0.0
            pp = p
            for s in range(n):
                total += kappa**s * fam.energy(pp, 1)
                pp = fam.shifted(pp)
            e_n = fam.energy(p, n)
            worst = max(worst, abs(total - e_n) / (1 + abs(e_n)))
    report(12, "spectrum generation E_n = sum kappa^s E_1(lambda+s delta) (1e-10)",
           worst <= 1e-10, f"worst={worst:.2e}")
