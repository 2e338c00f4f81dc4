"""Catalog-level checks: parameter validation, closed-form constants,
ground states, both polynomial evaluation paths and their invariants."""

from __future__ import annotations

import cmath
import dataclasses
import decimal
import functools
import json
import math
import struct
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dqm.families import (
    FAMILIES,
    Family,
    FamilyId,
    ParamSet,
    ValidationError,
    aw_to_wilson_scaled,
    closure_polys,
    coefficients,
    energy,
    eval_poly_hypergeometric,
    eval_poly_recurrence,
    get_family,
    ground_state,
    potential,
    validate_params,
)
from dqm.fixtures import fixture_names, fixture_params
from dqm.operators import sample_points
from dqm.verify import SUITES, VerifyConfig, run_suite

ALL_IDS = list(FamilyId)


def all_fixtures():
    out = []
    for fid in ALL_IDS:
        fam = FAMILIES[fid]
        for name in fixture_names(fam):
            out.append((fam.spec.name, name))
    return out


# ------------------------------------------------------------- validation

def test_validate_askey_wilson_ok():
    p = ParamSet(a=(0.3 + 0.4j, 0.5, 0.2 + 0.4j, 0.2 - 0.4j), q=0.5)
    # conjugate-closed requires pairing 0.3+0.4i too; use a closed set
    p = ParamSet(a=(0.3 + 0.4j, 0.3 - 0.4j, 0.5, 0.2), q=0.5)
    validate_params("askey-wilson", p)

def test_validate_askey_wilson_modulus():
    with pytest.raises(ValidationError, match=r"\|a1\| >= 1"):
        validate_params("askey-wilson", ParamSet(a=(1.2, 0.1, 0.1, 0.1), q=0.5))

def test_validate_askey_wilson_conjugation():
    with pytest.raises(ValidationError, match="conjugation"):
        validate_params(
            "askey-wilson", ParamSet(a=(0.3 + 0.4j, 0.5, 0.2, 0.1), q=0.5)
        )

def test_validate_meixner_pollaczek_positive():
    with pytest.raises(ValidationError, match="a>0"):
        validate_params(
            "meixner-pollaczek", ParamSet(a=(-1.0,), phi=math.pi / 2)
        )

def test_validate_q_jacobi_range():
    with pytest.raises(ValidationError, match="alpha"):
        validate_params("continuous-q-jacobi", ParamSet(a=(-0.7, 0.3), q=0.5))

@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("fid", ALL_IDS)
def test_validate_rejects_a_non_finite_value(fid, bad):
    # each a_i, q and phi in turn, on every family, named in the reason
    fam = FAMILIES[fid]
    p = fixture_params(fam)
    sets = [(name, ParamSet(a=p.a[:i] + (bad,) + p.a[i + 1:], q=p.q, phi=p.phi))
            for i, name in enumerate(fam.spec.param_names)]
    sets += [("q", ParamSet(a=p.a, q=bad, phi=p.phi)), ("phi", ParamSet(a=p.a, q=p.q, phi=bad))]
    for name, bad_set in sets:
        with pytest.raises(ValidationError, match=f"^{name} must be finite"):
            fam.validate(bad_set)


@pytest.mark.parametrize("family,exponents", [
    ("continuous-q-jacobi", (1e308, 0.0)),
    ("continuous-q-jacobi", (0.3, 5000.0)),
    ("continuous-q-laguerre", (1e308,)),
    ("continuous-q-laguerre", (3000.0,)),
])
def test_validate_rejects_an_exponent_whose_parameter_underflows(family, exponents):
    # q^((alpha + 3/2)/2) = 0 would read as a zero Askey-Wilson parameter,
    # that is, as another restriction
    with pytest.raises(ValidationError, match="underflows to 0 at q = 0.5"):
        validate_params(family, ParamSet(a=exponents, q=0.5))


# lambda + k delta per family, written out: the reference the default shift must match
_OWN_SHIFTS = {
    "continuous-hahn": lambda p, k: ParamSet(a=tuple(ai + 0.5 * k for ai in p.a)),
    "meixner-pollaczek": lambda p, k: ParamSet(a=(p.a[0] + 0.5 * k,), phi=p.phi),
    "wilson": lambda p, k: ParamSet(a=tuple(ai + 0.5 * k for ai in p.a)),
    "continuous-dual-hahn": lambda p, k: ParamSet(a=tuple(ai + 0.5 * k for ai in p.a)),
}


@pytest.mark.parametrize("family,name", all_fixtures())
def test_the_default_shift_is_each_familys_own(family, name):
    fam = get_family(family)
    p = fixture_params(family, name)
    own = _OWN_SHIFTS.get(family)
    # the Askey-Wilson chain keeps its own shift; every other family the default
    assert (type(fam).shifted is Family.shifted) == (own is not None)
    for k in range(31):
        got = fam.shifted(p, k)
        if own is not None:
            assert got == own(p, k)
        assert (got.q, got.phi) == (p.q, p.phi)


@pytest.mark.parametrize("family,name", all_fixtures())
def test_fixtures_validate(family, name):
    fixture_params(family, name)  # validates internally


# -------------------------------------------------------------- potential

def test_potential_q_hermite_at_right_angle():
    # z = i makes the denominator (1-z^2)(1-q z^2) = 2 * 1.5
    v = potential("continuous-q-hermite", ParamSet(q=0.5), math.pi / 2)
    assert v == pytest.approx(1.0 / 3.0, rel=1e-14)

def test_potential_continuous_hahn_origin():
    v = potential("continuous-hahn", ParamSet(a=(1.0, 2.0)), 0.0)
    assert v == pytest.approx(2.0, rel=1e-14)

def test_potential_wilson_direct_arithmetic():
    expected = (1 + 1j) ** 4 / ((2j) * (2j + 1))  # oracle: plain arithmetic
    v = potential("wilson", ParamSet(a=(1.0, 1.0, 1.0, 1.0)), 1.0)
    assert cmath.isclose(v, expected, rel_tol=1e-14)

def test_potential_singularities():
    from dqm.families import SingularityError

    with pytest.raises(SingularityError):
        potential("continuous-q-hermite", ParamSet(q=0.5), 0.0)
    with pytest.raises(SingularityError):
        potential("wilson", ParamSet(a=(1.0, 1.0, 1.0, 1.0)), 0.0)


# ----------------------------------------------------------------- energy

@pytest.mark.parametrize("family,name", all_fixtures())
def test_ground_energy_vanishes(family, name):
    assert energy(family, fixture_params(family, name), 0) == 0.0

def test_energy_meixner_pollaczek():
    p = ParamSet(a=(0.4,), phi=math.pi / 6)
    assert energy("meixner-pollaczek", p, 3) == pytest.approx(3.0, rel=1e-14)

def test_energy_askey_wilson():
    p = ParamSet(a=(0.5, 0.8, 0.5, 0.5), q=0.5)  # b4 = 0.1
    assert energy("askey-wilson", p, 1) == pytest.approx(0.9, rel=1e-14)

@pytest.mark.parametrize("family,name", all_fixtures())
def test_energy_strictly_increasing(family, name):
    p = fixture_params(family, name)
    es = [energy(family, p, n) for n in range(21)]
    assert all(b > a for a, b in zip(es, es[1:]))


# ---------------------------------------------------------------- closure

def test_closure_continuous_dual_hahn():
    cp = closure_polys("continuous-dual-hahn", fixture_params("continuous-dual-hahn"))
    assert cp.r1 == (0.0, 0.0)
    assert cp.r0 == (0.0, 0.0, 1.0)

def test_closure_q_hermite_rm1_zero():
    cp = closure_polys("continuous-q-hermite", ParamSet(q=0.5))
    assert cp.rm1 == (0.0, 0.0, 0.0)

def test_closure_meixner_pollaczek():
    a, phi = 0.9, 1.1
    cp = closure_polys("meixner-pollaczek", ParamSet(a=(a,), phi=phi))
    # R_{-1}(y) = 2 y cos(phi) + 2 a sin(2 phi)
    assert cp.rm1[0] == 0.0
    assert cp.rm1[1] == pytest.approx(2 * math.cos(phi), rel=1e-14)
    assert cp.rm1[2] == pytest.approx(2 * a * math.sin(2 * phi), rel=1e-14)

@pytest.mark.parametrize("family,name", all_fixtures())
def test_closure_parametrisation_constraints(family, name):
    # r0^(2) = r1^(1) and r0^(1) = 2 r1^(0)
    cp = closure_polys(family, fixture_params(family, name))
    assert cp.r0[0] == pytest.approx(cp.r1[0], abs=1e-14)
    assert cp.r0[1] == pytest.approx(2 * cp.r1[1], abs=1e-13)


# ------------------------------------------------------------ coefficients

def test_coefficients_q_hermite():
    p = ParamSet(q=0.5)
    for n in range(6):
        c = coefficients("continuous-q-hermite", p, n)
        assert c.a_n_rec == 0.0
        assert c.c_n == pytest.approx(2.0**n)

def test_coefficients_al_salam_chihara():
    p = ParamSet(a=(0.3, 0.5), q=0.5)
    c = coefficients("al-salam-chihara", p, 1)
    assert c.b_n_rec == pytest.approx(0.10625, rel=1e-14)

def test_coefficients_wilson_shift_constants():
    p = fixture_params("wilson")
    fam = get_family("wilson")
    b1 = sum(v.real for v in p.a)
    for n in range(1, 8):
        c = coefficients("wilson", p, n)
        assert c.f_n == pytest.approx(-n * (n + b1 - 1), rel=1e-13)
        assert c.b_n_shift == -1.0
        assert c.f_n * coefficients("wilson", p, n - 1).b_n_shift == pytest.approx(
            fam.energy(p, n), rel=1e-13
        )

@pytest.mark.parametrize("family,name", all_fixtures())
def test_coefficients_at_a_numpy_integer_level(family, name):
    # a numpy level must give the bits of the Python int, not run the
    # recurrence coefficients in numpy complex arithmetic
    p = fixture_params(family, name)
    fam = get_family(family)
    for n in range(9):
        bundle = fam.coefficients(p, np.int64(n))
        assert type(bundle.n) is int
        assert bundle == fam.coefficients(p, n)

@pytest.mark.parametrize("family,name", all_fixtures())
def test_energy_factorization(family, name):
    p = fixture_params(family, name)
    fam = get_family(family)
    for n in range(1, 11):
        prod = fam.f_shift(p, n) * fam.b_shift(p, n - 1)
        assert prod == pytest.approx(fam.energy(p, n), rel=1e-12)

@pytest.mark.parametrize("family,name", all_fixtures())
def test_three_term_coefficients_consistent(family, name):
    p = fixture_params(family, name)
    fam = get_family(family)
    a, b, c_k = fam.recurrence(p, 9)
    for n in range(1, 9):
        c = coefficients(family, p, n)
        assert c.A_n == pytest.approx((c_k[n] / c_k[n + 1]).real, rel=1e-12)
        assert c.B_n == pytest.approx(a[n].real, rel=1e-12, abs=1e-14)
        assert c.C_n == pytest.approx(
            (c_k[n] / c_k[n - 1]).real * b[n].real,
            rel=1e-12,
        )
        assert c.N_n == pytest.approx(math.sqrt(c.h0_over_hn), rel=1e-14)

# h0 on the bundled fixtures as the linear-space products of complex gamma
# values and q-products gave it, before h0 became exp(log_h0)
H0_LINEAR = {
    ("continuous-hahn", "default"): 1.0716929464360079,
    ("continuous-hahn", "real"): 1.7603400288145816,
    ("meixner-pollaczek", "default"): 2.583733769335142,
    ("meixner-pollaczek", "half-pi"): 1.570796326794898,
    ("wilson", "default"): 0.9197612387943049,
    ("wilson", "real"): 1.708634883094391,
    ("continuous-dual-hahn", "default"): 4.576868589074101,
    ("continuous-dual-hahn", "real"): 5.427337566223708,
    ("askey-wilson", "default"): 173.0280323626452,
    ("askey-wilson", "real"): 19.824291273620698,
    ("continuous-dual-q-hahn", "default"): 85.26593096664648,
    ("continuous-dual-q-hahn", "real"): 22.380703914743574,
    ("al-salam-chihara", "default"): 47.31605691096632,
    ("al-salam-chihara", "real"): 29.855759360120597,
    ("continuous-big-q-hermite", "default"): 21.7570786818458,
    ("continuous-big-q-hermite", "negative"): 21.7570786818458,
    ("continuous-q-hermite", "default"): 21.7570786818458,
    ("continuous-q-hermite", "high-q"): 1865.550590614061,
    ("continuous-q-jacobi", "default"): 7.075918772633673,
    ("continuous-q-jacobi", "steep"): 9.681401316284143,
    ("continuous-q-laguerre", "default"): 43.50747107121379,
    ("continuous-q-laguerre", "edge"): 167.49346876124255,
}


@pytest.mark.parametrize("family,name", all_fixtures())
def test_h0_from_its_logarithm(family, name):
    fam = get_family(family)
    p = fixture_params(family, name)
    assert fam.h0(p) == pytest.approx(H0_LINEAR[(family, name)], rel=1e-14)


def test_phi0_is_inf_past_the_double_range_without_a_warning():
    # phi0 ~ 2e436 at a = 200, phi = 0.5, x = -365 (see test_cli), as h0 is
    # inf past the range: silently, at a scalar and on an array
    fam = get_family("meixner-pollaczek")
    p = ParamSet(a=(200.0,), phi=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fam.phi0(p, -365.0) == math.inf
        assert np.isinf(fam.phi0(p, np.array([-365.0, -400.0]))).all()


@pytest.mark.parametrize("family,name", all_fixtures())
def test_measure_positivity(family, name):
    p = fixture_params(family, name)
    fam = get_family(family)
    b = fam.recurrence(p, 21)[1]
    for n in range(1, 21):
        assert b[n].real > 0.0

@pytest.mark.parametrize("family,name", all_fixtures())
def test_norm_recurrence_consistency(family, name):
    # b_n^rec = (c_{n-1}/c_n)^2 h_n/h_{n-1}, read off the h0_over_hn fields
    p = fixture_params(family, name)
    fam = get_family(family)
    _, b, c = fam.recurrence(p, 11)
    for n in range(1, 11):
        lhs = b[n].real
        rhs = (
            (c[n - 1].real / c[n].real) ** 2
            * fam.h0_over_hn(p, n - 1)
            / fam.h0_over_hn(p, n)
        )
        assert lhs == pytest.approx(rhs, rel=1e-12)

@pytest.mark.parametrize("family,name", all_fixtures())
def test_norm_ratio_levels_do_not_depend_on_the_top_level(family, name):
    # h0/h_k comes off one running product over the levels: the list to
    # level 30 starts with the list to any lower level, bit for bit, and
    # h0_over_hn(p, k) is its k-th entry
    p = fixture_params(family, name)
    fam = get_family(family)
    top = fam.h0_over_hn_levels(p, 30)
    assert len(top) == 31
    for n in (0, 1, 8):
        assert fam.h0_over_hn_levels(p, n) == top[: n + 1]
    assert [fam.h0_over_hn(p, k) for k in range(31)] == list(top)

# b1 = 1, 2 on Wilson and continuous Hahn; e4 = q, q^2, q^3 on Askey-Wilson
ZERO_OVER_ZERO_SETS = [
    ("wilson", ParamSet(a=(0.25, 0.25, 0.25, 0.25))),
    ("continuous-hahn", ParamSet(a=(0.25, 0.25))),
    ("wilson", ParamSet(a=(0.5, 0.5, 0.5, 0.5))),
    ("continuous-hahn", ParamSet(a=(0.5, 0.5))),
    ("askey-wilson", ParamSet(a=(0.5, 0.5, 0.5, 0.5), q=0.0625)),
    ("askey-wilson", ParamSet(a=(0.5, 0.5, 0.5, 0.5), q=0.25)),
    ("askey-wilson", ParamSet(a=(0.5, 0.5, 0.25, 0.25), q=0.25)),
]


@pytest.mark.parametrize("family,p", ZERO_OVER_ZERO_SETS)
def test_norm_ratio_where_its_first_level_factor_reads_zero_over_zero(family, p):
    # b1 = 1 (e4 = q on the Askey-Wilson chain) makes the k = 0 factor
    # (b1 + 2k - 1)/(b1 + k - 1) of h0/h_k read 0/0, and b1 = 1 or 2 (e4 = q,
    # q^2 or q^3) makes some low-level factors of the recurrence do so too;
    # h0/h0 is 1, and every level lies within the perturbation of that of a
    # nearby set
    fam = get_family(family)
    levels = fam.h0_over_hn_levels(p, 3)
    assert levels[0] == fam.h0_over_hn(p, 0) == 1.0
    assert fam.h0_over_hn(p, 3) == levels[3]
    near = ParamSet(a=[v * (1 + 1e-8) for v in p.a], q=p.q)
    assert levels == pytest.approx(fam.h0_over_hn_levels(near, 3), rel=1e-6)
    for n in range(4):
        got = dataclasses.astuple(coefficients(family, p, n))
        assert all(math.isfinite(v) for v in got)
        assert got == pytest.approx(dataclasses.astuple(coefficients(family, near, n)),
                                    rel=1e-6, abs=1e-6)


@pytest.mark.parametrize("family,p", ZERO_OVER_ZERO_SETS)
def test_every_suite_passes_where_a_low_level_factor_reads_zero_over_zero(family, p):
    # at b1 = 1 (e4 = q) E_1 = E_{-1}, so the level-0 ladder action reads 0/0
    # and the number-operator inversion sits at the end of its range
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        failed = [r.check_id for suite in SUITES
                  for r in run_suite(suite, family, p, VerifyConfig(n_max=8)) if not r.passed]
    assert failed == []


# ------------------------------------------------------------ ground state

def test_ground_state_q_hermite_value():
    # |(-1;q)_inf| = 2 (-q;q)_inf, oracle = truncated product
    q = 0.5
    oracle = 2.0
    for k in range(1, 60):
        oracle *= 1 + q**k
    got = ground_state("continuous-q-hermite", ParamSet(q=q), math.pi / 2)
    assert got == pytest.approx(oracle, rel=1e-12)
    assert got == pytest.approx(4.7684620580, abs=1e-9)

def test_ground_state_near_q_one():
    # q = 0.999 takes ~35 000 factors of (e^{2ix}; q)_inf; oracle = the
    # plain sum of log|1 - e^{2ix} q^k| over the same truncation
    q, x = 0.999, 1.0
    z2 = cmath.exp(2j * x)
    log_oracle = 0.0
    k = 0
    while q**k >= 1e-15:
        log_oracle += math.log(abs(1.0 - z2 * q**k))
        k += 1
    got = ground_state("continuous-q-hermite", ParamSet(q=q), x)
    assert math.log(got) == pytest.approx(log_oracle, rel=1e-13)

@pytest.mark.parametrize(
    "family", ["askey-wilson", "continuous-q-hermite", "continuous-q-jacobi"]
)
def test_ground_state_vanishes_at_edges(family):
    p = fixture_params(family)
    assert ground_state(family, p, 0.0) == pytest.approx(0.0, abs=1e-14)

def test_ground_state_meixner_pollaczek_origin():
    p = ParamSet(a=(1.0,), phi=math.pi / 2)
    assert ground_state("meixner-pollaczek", p, 0.0) == pytest.approx(1.0, rel=1e-13)

@pytest.mark.parametrize("family,name", all_fixtures())
def test_ground_state_positive_inside(family, name):
    p = fixture_params(family, name)
    fam = get_family(family)
    for x in sample_points(fam, p, 8):
        assert ground_state(family, p, x) > 0.0


GOLDEN_WEIGHTS_FILE = Path(__file__).resolve().parent / "golden_weights.json"


@functools.lru_cache(maxsize=1)
def _golden_weights():
    with open(GOLDEN_WEIGHTS_FILE, encoding="utf-8") as fh:
        return json.load(fh)["entries"]


@pytest.mark.parametrize("family,name", all_fixtures())
def test_weights_match_the_golden_values(family, name):
    # phi0 at 5 sample points, and the continued square at the shifted
    # parameters one half-step below them, against mpmath at 40 digits
    # (tools/golden_weights.py); phi0 and weight_square share one closed
    # form per family, so only these constants pin it independently
    fam = get_family(family)
    p = fixture_params(family, name)
    entries = [e for e in _golden_weights()
               if (e["family"], e["fixture"]) == (family, name)]
    assert len(entries) == 5
    for e in entries:
        x = e["x"]
        assert abs(fam.phi0(p, x) - e["phi0"]) <= 1e-13 * abs(e["phi0"])
        target = complex(*e["weight_square_shifted"])
        got = fam.weight_square(fam.shifted(p), x - 0.5j * fam.gamma(p))
        assert abs(got - target) <= 1e-13 * abs(target)


def _weight_points(fam, p):
    """16 sample points on the real line and the same points half a shift
    below it, where the shape-invariance suite continues the weight."""
    x = np.asarray(sample_points(fam, p, 16))
    return np.concatenate([x, x - 0.5j * fam.gamma(p)])


def _kernel(fam):
    """(module, name) of the special function a family's weight is built of."""
    name = "log_q_pochhammer_inf" if fam.spec.uses_q else "log_gamma"
    return sys.modules[type(fam).__module__], name


@pytest.mark.parametrize("family", [FAMILIES[fid].spec.name for fid in ALL_IDS])
def test_one_kernel_call_per_weight(family, monkeypatch):
    # log_amplitude stacks its factors into one kernel call, and
    # weight_square takes w and conj(w) in one log_amplitude call
    fam = get_family(family)
    p = fixture_params(family)
    w = _weight_points(fam, p)
    module, name = _kernel(fam)
    kernel = getattr(module, name)
    kernel_calls, amplitude_calls = [], []

    def counted_kernel(*args):
        kernel_calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(module, name, counted_kernel)
    fam.log_amplitude(p, w)
    assert len(kernel_calls) == 1
    amplitude = type(fam).log_amplitude

    def counted_amplitude(self, *args):
        amplitude_calls.append(args)
        return amplitude(self, *args)

    monkeypatch.setattr(type(fam), "log_amplitude", counted_amplitude)
    kernel_calls.clear()
    fam.weight_square(fam.shifted(p), w)
    assert len(amplitude_calls) == 1
    assert len(kernel_calls) == 1


def _per_factor_log_amplitude(fam, p, w):
    """log g(w) one factor per kernel call, each added in turn."""
    from dqm.specfun import log_gamma, log_q_pochhammer_inf

    kind = fam.spec.eta_kind
    if kind == "cos x":
        z = np.exp(1j * w)
        out = log_q_pochhammer_inf(z * z, p.q)
        for ai in fam.row.to_aw(p.a, p.q):
            if ai != 0:
                out = out - log_q_pochhammer_inf(ai * z, p.q)
        return out
    iw = 1j * w
    if kind == "x^2":
        with np.errstate(divide="ignore"):
            out = np.log(2.0 * iw) - log_gamma(1.0 + 2.0 * iw)
        for ai in p.a:
            out = out + log_gamma(ai + iw)
        return out
    if fam.spec.uses_phi:
        return (p.phi - math.pi / 2) * w + log_gamma(p.a[0].real + iw)
    a1, a2 = p.a
    return log_gamma(a1 + iw) + log_gamma(a2 + iw)


@pytest.mark.parametrize("family,name", all_fixtures())
def test_stacked_weight_equals_the_per_factor_form(family, name):
    # the Gamma families sum the same rows in the same order; a stacked
    # q-product runs to the largest |a| of its rows, so a row with a smaller
    # |a| takes extra factors, each within 1e-15 of 1
    fam = get_family(family)
    p = fixture_params(family, name)
    w = _weight_points(fam, p)
    got = fam.log_amplitude(p, w)
    want = _per_factor_log_amplitude(fam, p, w)
    if fam.spec.uses_q:
        assert np.max(np.abs(got.real - want.real)) <= 1e-14
    else:
        assert np.array_equal(got, want)
    scalar = fam.log_amplitude(p, w[3])
    assert isinstance(scalar, complex) and np.ndim(scalar) == 0
    assert abs(scalar.real - want[3].real) <= 1e-14


# ------------------------------------------------------- evaluation paths

@pytest.mark.parametrize("family,name", all_fixtures())
def test_series_level_zero_is_one(family, name):
    p = fixture_params(family, name)
    fam = get_family(family)
    v = eval_poly_hypergeometric(family, p, 0, fam.eta(0.7))
    assert cmath.isclose(v, 1.0, rel_tol=1e-14)

def test_series_q_hermite_level_one():
    # oracle: the three-term recurrence gives P_1 = 2 eta
    p = ParamSet(q=0.5)
    for x in (0.3, 1.1, 2.0):
        v = eval_poly_hypergeometric("continuous-q-hermite", p, 1, math.cos(x))
        assert v == pytest.approx(2 * math.cos(x), rel=1e-13)

def test_series_meixner_pollaczek_level_one():
    p = ParamSet(a=(0.8,), phi=math.pi / 2)
    for x in (-1.5, 0.4, 2.0):
        v = eval_poly_hypergeometric("meixner-pollaczek", p, 1, x)
        assert cmath.isclose(v, 2 * x, rel_tol=1e-13)

def test_recurrence_level_zero():
    poly = eval_poly_recurrence("continuous-q-hermite", ParamSet(q=0.5), 0)
    assert poly.degree == 0
    etas = np.array([-0.9, 0.2, 0.7 + 0.3j])
    assert [poly.eval(complex(eta)) for eta in etas] == [1 + 0j] * 3
    assert np.array_equal(poly.eval(etas), np.ones(3, dtype=complex))

def test_recurrence_q_hermite_level_two():
    # P_2 = 4 eta^2 - (1 - q)
    q = 0.5
    poly = eval_poly_recurrence("continuous-q-hermite", ParamSet(q=q), 2)
    for eta in (-0.8, 0.0, 0.35, 1.0, 0.4 - 0.6j):
        assert poly.eval(eta) == pytest.approx(4.0 * eta * eta - (1 - q), abs=1e-15)

@pytest.mark.parametrize("family,name", all_fixtures())
def test_recurrence_leading_coefficient(family, name):
    # the coefficients of P_n in powers of eta from n + 2 values on a circle
    # of radius r (a discrete Fourier transform): eta^n carries c_n and
    # eta^{n+1} nothing; r above the zeros keeps the transform well conditioned
    p = fixture_params(family, name)
    for n in range(9):
        poly = eval_poly_recurrence(family, p, n)
        assert poly.degree == n
        r = 4.0 * (1.0 + max((abs(v) for v in poly.a + poly.b), default=0.0))
        etas = r * np.exp(2j * np.pi * np.arange(n + 2) / (n + 2))
        coef = np.fft.fft(poly.eval(etas)) / (n + 2) / r ** np.arange(n + 2)
        c_n = _c_direct(family, p, n)
        assert abs(coef[n] - c_n) <= 1e-12 * abs(c_n)
        assert abs(coef[n + 1]) <= 1e-12 * abs(c_n)

def _etas(family):
    fam = get_family(family)
    xs = np.array(sample_points(fam, fixture_params(family), 5))
    return fam.eta(np.concatenate([xs, xs + 0.3j]))

@pytest.mark.parametrize("family", [FAMILIES[fid].spec.name for fid in ALL_IDS])
def test_one_ascent_equals_per_level_ascents(family):
    # level n of one pass to 30 is bit-identical to P_n from its own ascent
    p = fixture_params(family, "default")
    top = eval_poly_recurrence(family, p, 30)
    assert top.degree == 30
    etas = _etas(family)
    levels = top.eval_levels(etas)
    assert levels.shape == (31, etas.size)
    for n in range(31):
        assert np.array_equal(levels[n], eval_poly_recurrence(family, p, n).eval(etas))


def test_levels_at_a_scalar_a_0d_array_and_an_array_agree():
    # eval and eval_levels take a Python scalar, a 0-d array or an array of
    # points, and give the same values at a point
    poly = eval_poly_recurrence("askey-wilson", fixture_params("askey-wilson"), 6)
    eta = 0.3 + 0.1j
    want = poly.eval_levels(np.array([eta]))[:, 0]
    for at in (eta, np.asarray(eta)):
        assert np.array_equal(poly.eval_levels(at), want)
        assert poly.eval(at) == want[-1]


@pytest.mark.parametrize("family", ["continuous-q-jacobi", "askey-wilson", "wilson"])
def test_ascent_makes_one_recurrence_call(family, monkeypatch):
    # the data of every level of an ascent to n comes from one pass
    fam = get_family(family)
    p = fixture_params(family)
    n = 12
    etas = _etas(family)
    want = eval_poly_recurrence(fam, p, n).eval_levels(etas)
    calls = []
    exact = fam.recurrence

    def counting_recurrence(params, k):
        calls.append(k)
        return exact(params, k)

    monkeypatch.setattr(fam, "recurrence", counting_recurrence)
    got = eval_poly_recurrence(fam, p, n)
    assert calls == [n]
    assert np.array_equal(got.eval_levels(etas), want)


def _c_direct(family, p, n):
    """c_n as the direct product of its closed form (KS), independent of the
    ratios that carry it from level to level in `Family.recurrence`."""
    from dqm.specfun import pochhammer
    from dqm.specfun import q_pochhammer as qp

    if family == "continuous-hahn":
        b1 = 2.0 * (p.a[0].real + p.a[1].real)
        return pochhammer(n + b1 - 1, n).real / math.factorial(n)
    if family == "meixner-pollaczek":
        return (2.0 * math.sin(p.phi)) ** n / math.factorial(n)
    if family == "wilson":
        return (-1.0) ** n * pochhammer(n + sum(p.a).real - 1, n).real
    if family == "continuous-dual-hahn":
        return (-1.0) ** n
    # the cos-x families: 2^n (e4 q^{n-1}; q)_n in the Askey-Wilson a_i,
    # times k_n = a1^n / (q, a1 a3, a1 a4; q)_n for q-Jacobi and q-Laguerre
    q = p.q
    k_n = 1.0
    if family in ("continuous-q-jacobi", "continuous-q-laguerre"):
        aw = []
        for sign, v in zip((1.0, -1.0), p.a):
            aw += [sign * q ** (0.5 * (v.real + 0.5)), sign * q ** (0.5 * (v.real + 1.5))]
        aw += [0.0] * (4 - len(aw))
        k_n = aw[0] ** n / (qp(q, q, n) * qp(aw[0] * aw[2], q, n) * qp(aw[0] * aw[3], q, n))
    else:
        aw = list(p.a) + [0.0] * (4 - len(p.a))
    e4 = (aw[0] * aw[1] * aw[2] * aw[3]).real
    return (2.0**n * qp(e4 * q ** (n - 1), q, n) * k_n).real


@pytest.mark.parametrize("family,name", all_fixtures())
def test_recurrence_scales_match_their_direct_products(family, name):
    # c_0 .. c_60 from one pass of ratios, against each c_n as a product
    p = fixture_params(family, name)
    c = get_family(family).recurrence(p, 60)[2]
    assert len(c) == 61
    for n in range(61):
        want = _c_direct(family, p, n)
        assert abs(c[n] - want) <= 4e-15 * abs(want), n


def _bits(*values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def _complex_steps(poly, eta):
    """P_n from the data of poly stepped in complex arithmetic, the reference
    for the float steps of `EtaPolynomial.eval` at a real eta."""
    eta, cur, prev = complex(eta), 1 + 0j, 0j
    for a_k, b_k in zip(poly.a, poly.b):
        prev, cur = cur, (eta - complex(a_k)) * cur - complex(b_k) * prev
    return complex(poly.c[-1]) * cur


@pytest.mark.parametrize("family,p", [(family, fixture_params(family, name))
                                      for family, name in all_fixtures()]
                         + ZERO_OVER_ZERO_SETS)
def test_recurrence_data_are_floats_and_real_points_step_in_floats(family, p):
    # the data are real (Favard), so P_n at a real eta has imaginary part
    # exactly 0 and the real part of the same data stepped in complex numbers
    fam = get_family(family)
    data = fam.recurrence(p, 31)
    assert all(type(v) is float for values in data for v in values)
    etas = [fam.eta(float(x)) for x in sample_points(fam, p, 16)]
    for n in range(31):
        poly = eval_poly_recurrence(fam, p, n)
        for eta in etas:
            got = poly.eval(eta)
            assert type(got) is complex and got.imag == 0.0
            assert got.real == _complex_steps(poly, eta).real
        # a float skips the complex() round trip into the same loop: the
        # bits of eval at the complex it converts to, at any value
        for eta in [eta.real for eta in etas] + [0.0, -0.0, 1e300, math.inf, math.nan]:
            got, want = poly.eval(eta), poly.eval(complex(eta))
            assert type(got) is complex
            assert _bits(got.real, got.imag) == _bits(want.real, want.imag), (n, eta)


def _complex_b(b_k):
    return b_k * (1 + 1e-3j)


@pytest.mark.parametrize("family", ["continuous-hahn", "wilson", "askey-wilson"])
def test_a_genuinely_complex_recurrence_value_raises(family, monkeypatch):
    # b_k with Im = 1e-3 |b_k| is no rounding noise of a real value: the
    # recurrence names it instead of dropping its imaginary part
    fam = get_family(family)
    if family == "askey-wilson":
        derive = type(fam)._derive

        def complex_pairs(self, p):
            d = derive(self, p)
            return dataclasses.replace(d, pairs=tuple(map(_complex_b, d.pairs)))

        monkeypatch.setattr(type(fam), "_derive", complex_pairs)
    else:
        terms = type(fam)._terms
        monkeypatch.setattr(type(fam), "_terms", staticmethod(
            lambda *args: ((k, t1, t2, _complex_b(b_k)) for k, t1, t2, b_k in terms(*args))))
    with pytest.raises(ValidationError, match="expected to be real"):
        eval_poly_recurrence(family, fixture_params(family), 5)


# b1 below 1, down to where 2 + b1 - 2 rounds to 0; continuous Hahn's and
# Wilson's b1 here are 4e-10, 4e-14, 4e-13, 4e-300 and 1 - 4e-16
SMALL_B1_SETS = [
    ("continuous-hahn", ParamSet(a=(1e-10 + 1j, 1e-10 - 1j))),
    ("continuous-hahn", ParamSet(a=(1e-14 + 0.5j, 1e-14 - 0.5j))),
    ("wilson", ParamSet(a=(1e-13 + 1j, 1e-13 - 1j, 1e-13, 1e-13))),
    ("wilson", ParamSet(a=(1e-300 + 1j, 1e-300 - 1j, 1e-300, 1e-300))),
    ("continuous-hahn", ParamSet(a=(0.25, 0.2499999999999998))),
]


@pytest.mark.parametrize("family,p", SMALL_B1_SETS)
def test_recurrence_matches_the_series_where_b1_is_small(family, p):
    # below b1 = 1 the terms and the ratios of c_k add each factor's integer
    # part first, so b1 keeps its digits; left to right, 2 + b1 - 2 lost them
    fam = get_family(family)
    fam.validate(p)
    for n in range(9):
        poly = eval_poly_recurrence(fam, p, n)
        for x in (0.3, 1.1, 2.5):
            eta = fam.eta(x)
            rec, ser = poly.eval(eta), eval_poly_hypergeometric(fam, p, n, eta)
            assert abs(rec - ser) <= 1e-13 * (1 + abs(ser)), (n, x)



@pytest.mark.parametrize("family,name", all_fixtures())
def test_recurrence_data_do_not_depend_on_the_top_level(family, name):
    # a level's data come from the same arithmetic whatever n is: the
    # Askey-Wilson chain reads q^j from a table that runs to q^(2n-2), and
    # the Gamma side carries the previous level's factor into b_k
    fam = get_family(family)
    p = fixture_params(family, name)
    a, b, c = fam.recurrence(p, 62)
    for m in range(63):
        got = fam.recurrence(p, m)
        assert [_bits(*v) for v in got] == [_bits(*a[:m]), _bits(*b[:m]), _bits(*c[:m + 1])], m

def _exact(z) -> tuple:
    return Fraction(z.real), Fraction(z.imag)


def _times(u, v) -> tuple:
    return u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def _exact_pair_product(pairs, shift) -> Fraction:
    """prod (shift + a_j + a_k) over the pairs, in exact arithmetic; real,
    as the parameters are conjugate-closed."""
    out = (Fraction(1), Fraction(0))
    for aj, ak in pairs:
        out = _times(out, (shift + aj[0] + ak[0], aj[1] + ak[1]))
    assert out[1] == 0
    return out[0]


def _ks_pairs(family, p) -> list:
    """The pairs (a_j, a_k) of b_k's explicit KS form, as exact complexes."""
    a = [_exact(v) for v in p.a]
    if family == "continuous-hahn":
        conj = [(re, -im) for re, im in a]
        return [(aj, ak) for aj in a for ak in conj]
    return [(a[j], a[k]) for j in range(len(a)) for k in range(j + 1, len(a))]


def _ks_b(family, p, k) -> Fraction:
    """b_k of KS 1.1.4, 1.3.5 and 1.4.4 as the explicit pair product, exactly:
    k prod (k + a_j + a_k - 1) over (2k + b1 - 3)(2k + b1 - 2)^2 (2k + b1 - 1)
    times k + b1 - 2, whose ratio to 2k + b1 - 3 is 1 where both vanish."""
    prod = k * _exact_pair_product(_ks_pairs(family, p), k - 1)
    if family == "continuous-dual-hahn":
        return prod
    b1 = sum(_exact(v)[0] for v in p.a) * (2 if family == "continuous-hahn" else 1)
    ratio = (k + b1 - 2) / (2 * k + b1 - 3) if 2 * k + b1 - 3 else 1
    return prod * ratio / ((2 * k + b1 - 2) ** 2 * (2 * k + b1 - 1))


GAMMA_SIDE_SETS = [(family, fixture_params(family, name))
                   for family, name in all_fixtures()
                   if family in ("continuous-hahn", "wilson", "continuous-dual-hahn")]
# b1 = 1, 2 and 3, where factors of the explicit form read 0/0
GAMMA_SIDE_SETS += ZERO_OVER_ZERO_SETS[:4] + [
    ("wilson", ParamSet(a=(0.75, 0.75, 0.75, 0.75))),
    ("continuous-hahn", ParamSet(a=(0.75, 0.75))),
]


@pytest.mark.parametrize("family,p", GAMMA_SIDE_SETS)
def test_gamma_side_b_is_the_explicit_pair_product(family, p):
    # b_k = A_{k-1} C_k from factors that a_{k-1} and a_k already formed;
    # the bound is twice the worst error seen, 9.9e-16 at continuous Hahn
    # `default`, and the explicit form in doubles reads 8.8e-16 there
    b = get_family(family).recurrence(p, 63)[1]
    assert b[0] == 0.0
    for k in range(1, 63):
        want = _ks_b(family, p, k)
        assert abs(Fraction(b[k]) - want) <= Fraction(2e-15) * abs(want), k


def _exact_norm_ratio(family, p, k) -> Fraction:
    """h0/h_k = (2k - 1 + b1) (b1)_{k-1} s_k / prod (a_j + a_k)_k, s_k = k! on
    continuous Hahn and 1/k! on Wilson, exactly."""
    pairs = _ks_pairs(family, p)
    b1 = sum(_exact(v)[0] for v in p.a) * (2 if family == "continuous-hahn" else 1)
    value = (2 * k - 1 + b1) * math.prod((b1 + j for j in range(k - 1)), start=Fraction(1))
    value *= math.factorial(k) if family == "continuous-hahn" else Fraction(1, math.factorial(k))
    for j in range(k):
        value /= _exact_pair_product(pairs, j)
    return value


@pytest.mark.parametrize("family,p", SMALL_B1_SETS
                         + [("continuous-hahn", ParamSet(a=(1e-300, 1e-300))),
                            ("wilson", ParamSet(a=(1e-300,) * 4)),
                            ("wilson", ParamSet(a=(0.1 + 1j, 0.1 - 1j, 0.2, 0.3)))])
def test_norm_ratios_where_b1_is_small(family, p):
    # below b1 = 1 the level factor adds its integer part first and the pair
    # symbols divide one at a time, so b1 keeps its digits and a value past
    # the double range reads inf; b1 + 1 - 1 lost them, and read 0 at b1 = 4e-300
    got = get_family(family).h0_over_hn_levels(p, 30)
    assert got[0] == 1.0
    for k in range(1, 31):
        want = _exact_norm_ratio(family, p, k)
        if want > Fraction(sys.float_info.max):
            assert got[k] == math.inf, k
        elif want > Fraction(sys.float_info.min):
            assert abs(Fraction(got[k]) - want) <= Fraction(1e-14) * want, k


def test_recurrence_forms_no_power_of_q_that_its_levels_do_not():
    # at e4 = 0 with no pair product the levels read q^0 .. q^(2n-2) only;
    # q^-3 overflows at q = 1e-103
    p = ParamSet(a=(0.5,), q=1e-103)
    a, b, c = get_family("continuous-big-q-hermite").recurrence(p, 8)
    assert all(math.isfinite(v) for values in (a, b, c) for v in values)
    assert b == tuple((1.0 - p.q**k) / 4.0 for k in range(8))

ORACLE_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "oracle_data.json"


@functools.cache
def _oracle():
    with open(ORACLE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("family,name", all_fixtures())
def test_recurrence_matches_the_oracle(family, name):
    # the committed 60-digit values at every pool point: levels 0, 5, 10, 20
    # and 30 of the default fixtures, 0 .. 8 of the others
    doc = _oracle()
    raw = doc["inputs"]["fixtures"][family][name]
    p = fixture_params(family, name)
    assert [complex(*v) for v in raw["a"]] == list(p.a)
    assert (raw["q"], raw["phi"]) == (p.q, p.phi)
    levels = (0, 5, 10, 20, 30) if name == "default" else range(9)
    etas = doc["inputs"]["pool"][family]
    for n in levels:
        exact = [complex(*v) for v in doc["P"][family][name][n]]
        bound = 1e-12 * (1.0 + max(abs(o) for o in exact))
        poly = eval_poly_recurrence(family, p, n)
        for eta, o in zip(etas, exact, strict=True):
            assert abs(poly.eval(eta) - o) <= bound, (n, eta)


@pytest.mark.parametrize("family,name", all_fixtures())
def test_series_matches_the_oracle(family, name):
    # the series path on the same cells, to the dual-path test's 5e-14
    doc = _oracle()
    p = fixture_params(family, name)
    levels = (0, 5, 10, 20, 30) if name == "default" else range(9)
    etas = doc["inputs"]["pool"][family]
    for n in levels:
        exact = [complex(*v) for v in doc["P"][family][name][n]]
        bound = 5e-14 * (1.0 + max(abs(o) for o in exact))
        for eta, o in zip(etas, exact, strict=True):
            assert abs(eval_poly_hypergeometric(family, p, n, eta) - o) <= bound, (n, eta)

# parameter sets off the fixtures' dyadic grid: q^-n, q^k and the products
# a_j a_k are not doubles, and the q-series cancel past 1e100 by n = 30
NON_DYADIC = {
    ("askey-wilson", "q0.37"): ParamSet(a=(0.3, -0.45, 0.2 + 0.1j, 0.2 - 0.1j), q=0.37),
    ("askey-wilson", "q0.83"): ParamSet(a=(0.6, 0.1, -0.7, 0.33), q=0.83),
    ("continuous-dual-q-hahn", "q0.71"): ParamSet(a=(0.3, 0.55, -0.2), q=0.71),
    # a real a below the largest |a|: the series' a1 stays complex
    ("continuous-dual-q-hahn", "complex-q0.71"): ParamSet(a=(0.6 + 0.2j, 0.6 - 0.2j, 0.3),
                                                         q=0.71),
    ("al-salam-chihara", "q0.29"): ParamSet(a=(0.3, -0.65), q=0.29),
    ("continuous-big-q-hermite", "q0.61"): ParamSet(a=(0.7,), q=0.61),
    ("continuous-q-jacobi", "q0.43"): ParamSet(a=(0.7, 1.3), q=0.43),
}


@pytest.mark.parametrize("family,name", all_fixtures() + list(NON_DYADIC))
def test_dual_path_equivalence(family, name):
    # the series agrees with the recurrence at every level 0..30, to 5e-14
    # of the level's largest value on the points
    p = NON_DYADIC.get((family, name)) or fixture_params(family, name)
    validate_params(family, p)
    fam = get_family(family)
    etas = [fam.eta(x) for x in sample_points(fam, p, 8)]
    levels = eval_poly_recurrence(family, p, 30).eval_levels(np.array(etas))
    for n, values in enumerate(levels):
        bound = 5e-14 * (1 + np.abs(values).max())
        for eta, v2 in zip(etas, values):
            v1 = eval_poly_hypergeometric(family, p, n, eta)
            assert abs(v1 - v2) <= min(bound, 1e-9 * (1 + abs(v2))), (n, eta)


def test_series_values_take_one_decimal_pass_almost_always(monkeypatch):
    # the series' precision schedule: each pass opens one decimal.Context, a
    # second pass doubles a value's cost, and a third would mean that the
    # jump to the precision the bound asks for fell short
    precisions = []
    context = decimal.Context
    monkeypatch.setattr(decimal, "Context",
                        lambda prec: precisions.append(prec) or context(prec=prec))
    passes = []
    for fid in ALL_IDS:
        fam = FAMILIES[fid]
        p = fixture_params(fam.spec.name, "default")
        for x in sample_points(fam, p, 4):
            for n in range(31):
                precisions.clear()
                eval_poly_hypergeometric(fam.spec.name, p, n, fam.eta(x))
                passes.append(len(precisions))
    assert len(passes) == 1364 and max(passes) <= 2
    assert passes.count(1) >= 0.95 * len(passes)

@pytest.mark.parametrize("family", [FAMILIES[fid].spec.name for fid in ALL_IDS])
def test_recurrence_at_degree_60_is_silent_and_accurate(family):
    # the value recurrence cancels no digits, so it needs no degree cap: at
    # n = 60 it matches the same recurrence run at 60 digits; any warning
    # is an error
    mpmath = pytest.importorskip("mpmath")
    fam = get_family(family)
    p = fixture_params(family)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        poly = eval_poly_recurrence(family, p, 60)
    etas = [complex(eta) for eta in _etas(family)]
    got = [poly.eval(eta) for eta in etas]
    a, b, c = fam.recurrence(p, 60)
    with mpmath.workdps(60):
        exact = []
        for eta in etas:
            prev, cur = mpmath.mpc(0), mpmath.mpc(1)
            for k in range(60):
                a_k, b_k = mpmath.mpc(a[k]), mpmath.mpc(b[k])
                prev, cur = cur, (mpmath.mpc(eta) - a_k) * cur - b_k * prev
            exact.append(complex(mpmath.mpc(c[60]) * cur))
    scale = 1.0 + max(abs(v) for v in exact)
    for g, e in zip(got, exact):
        assert abs(g - e) <= 1e-13 * scale


# --------------------------------------------------------------- symmetry

def test_continuous_hahn_swap_symmetry():
    p1 = ParamSet(a=(0.7 + 0.4j, 1.2 - 0.2j))
    p2 = ParamSet(a=(1.2 - 0.2j, 0.7 + 0.4j))
    for n in range(6):
        for x in (-1.7, 0.3, 2.1):
            v1 = eval_poly_hypergeometric("continuous-hahn", p1, n, x)
            v2 = eval_poly_hypergeometric("continuous-hahn", p2, n, x)
            assert abs(v1 - v2) <= 1e-10 * (1 + abs(v1))

@pytest.mark.parametrize("family", ["wilson", "askey-wilson"])
def test_four_parameter_permutation_symmetry(family):
    from itertools import permutations

    p = fixture_params(family)
    fam = get_family(family)
    xs = sample_points(fam, p, 3)
    for perm in list(permutations(range(4)))[::7]:
        p2 = ParamSet(a=tuple(p.a[i] for i in perm), q=p.q)
        for n in (1, 4, 7):
            for x in xs:
                eta = fam.eta(x)
                v1 = eval_poly_hypergeometric(family, p, n, eta)
                v2 = eval_poly_hypergeometric(family, p2, n, eta)
                assert abs(v1 - v2) <= 1e-10 * (1 + abs(v1))

def test_meixner_pollaczek_reflection():
    # P_n^(a)(x; -phi) = P_n^(a)(-x; phi); the left side evaluated through
    # the series with the angle negated
    a, phi = 0.8, 1.0
    fam = get_family("meixner-pollaczek")
    p_pos = ParamSet(a=(a,), phi=phi)
    for n in range(7):
        for x in (-2.0, -0.4, 0.9, 1.7):
            lhs = fam.series_eval_x(ParamSet(a=(a,), phi=-phi), n, x)
            rhs = fam.series_eval_x(p_pos, n, -x)
            assert cmath.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-12)


def test_al_salam_chihara_conjugate_pair_reality():
    # the (a e^{i phi}, a e^{-i phi}) parametrisation must produce real
    # recurrence data: B_n and C_n A_{n-1} real
    a, phi, q = 0.6, 0.8, 0.5
    p = ParamSet(a=(a * cmath.exp(1j * phi), a * cmath.exp(-1j * phi)), q=q)
    fam = get_family("al-salam-chihara")
    fam.validate(p)
    a, b, _ = fam.recurrence(p, 11)
    for n in range(1, 11):
        b_n = a[n]
        assert abs(complex(b_n).imag) <= 1e-12 * (1 + abs(b_n))
        prod = b[n]  # = C_n A_{n-1}
        assert abs(prod.imag) <= 1e-12 * (1 + abs(prod))
    # and the polynomials themselves are real on the interval
    poly = eval_poly_recurrence(fam, p, 5)
    vals = poly.eval(np.cos(np.linspace(0.3, 2.8, 7)))
    assert np.max(np.abs(vals.imag)) <= 1e-12


# --------------------------------------------- commutator scalar expansions

def _b_levels(fam, p, top):
    """b_0 .. b_top of the recurrence, real."""
    return [b_n.real for b_n in fam.recurrence(p, top + 1)[1]]

def _b_diff(fam, p, n):
    b = _b_levels(fam, p, n + 1)
    return b[n + 1] - b[n]

def test_pair_commutator_meixner_pollaczek():
    a, phi = 0.7, 1.1
    p = ParamSet(a=(a,), phi=phi)
    fam = get_family("meixner-pollaczek")
    for n in range(9):
        assert _b_diff(fam, p, n) == pytest.approx(
            (n + a) / (2 * math.sin(phi) ** 2), rel=1e-12
        )

def test_pair_commutator_continuous_dual_hahn():
    p = fixture_params("continuous-dual-hahn")
    fam = get_family("continuous-dual-hahn")
    b1 = sum(p.a).real
    b2 = (p.a[0] * p.a[1] + p.a[0] * p.a[2] + p.a[1] * p.a[2]).real
    prod = (p.a[0] * p.a[1] * p.a[2]).real
    for n in range(9):
        expected = (
            4 * n**3
            + 3 * (2 * b1 - 1) * n**2
            + (2 * b1 * (b1 - 1) + 2 * b2 + 1) * n
            + b1 * b2
            - prod
        )
        assert _b_diff(fam, p, n) == pytest.approx(expected, rel=1e-12)

def test_pair_commutator_continuous_dual_q_hahn():
    p = fixture_params("continuous-dual-q-hahn")
    fam = get_family("continuous-dual-q-hahn")
    q = p.q
    a1, a2, a3 = p.a
    b1 = (a1 + a2 + a3).real
    b2 = (a1 * a2 + a1 * a3 + a2 * a3).real
    b3 = (a1 * a2 * a3).real
    for n in range(9):
        qn = q**n
        expected = (
            -0.25 * (q**-4 - 1) * q * b3**2 * qn**4
            + 0.25 * (q**-3 - 1) * b3 * (b3 + q * b1) * qn**3
            - 0.25 * (q**-2 - 1) * (b1 * b3 + q * b2) * qn**2
            + 0.25 * (q**-1 - 1) * (b2 + q) * qn
        )
        assert _b_diff(fam, p, n) == pytest.approx(expected, rel=1e-11)

def test_deformed_pair_commutators_al_salam_chihara():
    p = fixture_params("al-salam-chihara")
    fam = get_family("al-salam-chihara")
    q = p.q
    a12 = (p.a[0] * p.a[1]).real
    b = _b_levels(fam, p, 9)
    for n in range(9):
        qn = q**n
        b_np, b_n = b[n + 1], b[n]
        assert b_np - b_n == pytest.approx(
            0.25 * (1 / q - 1) * (-(1 + q) * a12 * qn**2 + (a12 + q) * qn),
            rel=1e-12,
        )
        assert b_np - q * b_n == pytest.approx(
            0.25 * (1 - q) * (1 - a12 * qn**2), rel=1e-12
        )
        assert b_np - q**2 * b_n == pytest.approx(
            0.25 * (1 - q) * (1 + q - (a12 + q) * qn), rel=1e-12
        )

@pytest.mark.parametrize(
    "family", ["continuous-big-q-hermite", "continuous-q-hermite"]
)
def test_q_oscillator_scalar_relations(family):
    p = fixture_params(family)
    fam = get_family(family)
    q = p.q
    b = _b_levels(fam, p, 9)
    for n in range(9):
        b_np, b_n = b[n + 1], b[n]
        assert b_np - b_n == pytest.approx(0.25 * (1 - q) * q**n, rel=1e-13)
        assert b_np - q * b_n == pytest.approx(0.25 * (1 - q), rel=1e-13)

def test_deformed_pair_commutators_q_laguerre():
    p = fixture_params("continuous-q-laguerre")
    fam = get_family("continuous-q-laguerre")
    q = p.q
    al = p.a[0].real
    b = _b_levels(fam, p, 9)
    for n in range(9):
        qn = q**n
        b_np, b_n = b[n + 1], b[n]
        assert b_np - b_n == pytest.approx(
            0.25 * (1 - q) * (-(1 + q) * q**al * qn**2 + (1 + q**al) * qn),
            rel=1e-12,
        )
        assert b_np - q * b_n == pytest.approx(
            0.25 * (1 - q) * (1 - q ** (al + 1) * qn**2), rel=1e-12
        )
        assert b_np - q**2 * b_n == pytest.approx(
            0.25 * (1 - q) * (1 + q - (1 + q**al) * q * qn), rel=1e-12
        )


# --------------------------------------------------------- ladder scalars

def test_frequency_scalars_quadratic_spectrum():
    # alpha_pm(E_n) = E_{n pm 1} - E_n with alpha_pm = 1 pm 2 sqrt(H')
    p = fixture_params("wilson")
    fam = get_family("wilson")
    b1 = sum(v.real for v in p.a)
    for n in range(1, 9):
        e = fam.energy(p, n)
        root = math.sqrt(e + 0.25 * (b1 - 1) ** 2)
        assert 1 + 2 * root == pytest.approx(
            fam.energy(p, n + 1) - e, rel=1e-12
        )
        assert 1 - 2 * root == pytest.approx(
            fam.energy(p, n - 1) - e, rel=1e-12
        )

def test_frequency_scalars_askey_wilson():
    # the signed square root sqrt(H'^2 - 4 b4/q) = q^{-n} - b4 q^{n-1}
    p = fixture_params("askey-wilson")
    fam = get_family("askey-wilson")
    q = p.q
    b4 = 1.0
    for v in p.a:
        b4 *= v
    b4 = b4.real
    s2 = 1 / q - 2 + q
    for n in range(9):
        e = fam.energy(p, n)
        hp = e + 1 + b4 / q
        root = q**-n - b4 * q ** (n - 1)
        assert hp * hp - 4 * b4 / q == pytest.approx(root * root, rel=1e-12)
        up = 0.5 * s2 * hp + 0.5 * (1 / q - q) * root
        dn = 0.5 * s2 * hp - 0.5 * (1 / q - q) * root
        assert up == pytest.approx(fam.energy(p, n + 1) - e, rel=1e-12)
        assert dn == pytest.approx(fam.energy(p, n - 1) - e, rel=1e-12)


# ---------------------------------------------------------------- q -> 1

def test_limit_energy_level_zero():
    p = fixture_params("wilson")
    for L in (20.0, 40.0, 80.0):
        assert aw_to_wilson_scaled("energy", p, L, n=0) == 0.0

def test_limit_energy_monotone():
    p = fixture_params("wilson")
    fam = get_family("wilson")
    target = fam.energy(p, 1)
    devs = [
        abs(aw_to_wilson_scaled("energy", p, L, n=1) - target)
        for L in (20.0, 40.0, 80.0)
    ]
    assert devs[0] > devs[1] > devs[2]

def test_limit_shift_constants_signs():
    # -f_n/(1-q)^2 -> f_n^W < 0 and -b_n -> b_n^W = -1; the approach rate
    # is ~c/L, so at L = 640 a percent-level agreement is the honest bound
    p = fixture_params("wilson")
    fam = get_family("wilson")
    got = aw_to_wilson_scaled("f_n", p, 640.0, n=1)
    assert got == pytest.approx(fam.f_shift(p, 1), rel=1e-2)
    got = aw_to_wilson_scaled("b_n", p, 640.0, n=1)
    assert got == pytest.approx(-1.0, rel=1e-2)
    assert got < 0

def test_limit_polynomial_and_phi0():
    p = fixture_params("wilson")
    fam = get_family("wilson")
    x = 1.1
    target = eval_poly_recurrence(fam, p, 2).eval(fam.eta(x))
    got = aw_to_wilson_scaled("polynomial", p, 640.0, n=2, x=x)
    assert abs(got - target) / (1 + abs(target)) < 2e-2
    target = fam.phi0(p, x)
    got = aw_to_wilson_scaled("phi0", p, 640.0, x=x)
    assert abs(got - target) / (1 + abs(target)) < 2e-2


# ------------------------------------------------ the Askey-Wilson restrictions

# a_n (= B_n) at n = 0, 5, 10, 20, 30: KS 3.1.5 evaluated once in mpmath at
# 60 digits, at each fixture's double-precision parameters; continuous
# q-Jacobi and q-Laguerre through their Askey-Wilson parameter maps
_GOLDEN_A_N = {
    ("askey-wilson", "default"): (6.4148936170212764585e-1, 3.6469157943882452186e-2, 1.1651778120758081615e-3, 1.1386863343436546034e-6, 1.1119991533284703779e-9),
    ("askey-wilson", "real"): (3.4288537549407113832e-1, 6.5957517101438285862e-3, 2.0132692631936959453e-4, 1.964570570635109824e-7, 1.9185245051182157615e-10),
    ("continuous-dual-q-hahn", "default"): (5.8750000000000001943e-1, 2.4035644531250000859e-2, 7.5665712356567385522e-4, 7.3909742468458719405e-7, 7.2177499516436554959e-10),
    ("continuous-dual-q-hahn", "real"): (4.4387500000000002316e-1, 9.8863525390625006368e-3, 3.0505716800689699247e-4, 2.9778492501009170271e-7, 2.9080547403784967416e-10),
    ("al-salam-chihara", "default"): (2.999999999999999889e-1, 9.3749999999999996531e-3, 2.9296874999999998916e-4, 2.8610229492187498941e-7, 2.7939677238464354435e-10),
    ("al-salam-chihara", "real"): (3.9999999999999999445e-1, 1.2499999999999999827e-2, 3.9062499999999999458e-4, 3.8146972656249999471e-7, 3.7252902984619140108e-10),
    ("continuous-big-q-hermite", "default"): (2.000000000000000111e-1, 6.2500000000000003469e-3, 1.9531250000000001084e-4, 1.9073486328125001059e-7, 1.8626451492309571346e-10),
    ("continuous-big-q-hermite", "negative"): (-2.750000000000000222e-1, -8.5937500000000006939e-3, -2.6855468750000002168e-4, -2.6226043701171877118e-7, -2.5611370801925661248e-10),
    ("continuous-q-hermite", "default"): (0.0, 0.0, 0.0, 0.0, 0.0),
    ("continuous-q-hermite", "high-q"): (0.0, 0.0, 0.0, 0.0, 0.0),
    ("continuous-q-jacobi", "default"): (-1.8123353333444278347e-1, -1.3322447194398260681e-3, -4.0392994961681323039e-5, -3.9408207195317041374e-8, -3.8484541053464241259e-11),
    ("continuous-q-jacobi", "steep"): (-1.5125595117908381812e-1, -2.0548759018099880992e-3, -6.2906342618203890533e-5, -6.1391469762179382675e-8, -5.995256858045167314e-11),
    ("continuous-q-laguerre", "default"): (5.6313522557742542751e-1, 1.759797579929454461e-2, 5.4993674372795451905e-4, 5.3704760129683058501e-7, 5.2446054814143611817e-10),
    ("continuous-q-laguerre", "edge"): (8.535533905932737622e-1, 2.6673543456039805069e-2, 8.335482330012439084e-4, 8.140119462902772543e-7, 7.9493354129909888115e-10),
}


@pytest.mark.parametrize("family,name", sorted(_GOLDEN_A_N))
def test_recurrence_a_n_golden(family, name):
    p = fixture_params(family, name)
    for n, exact in zip((0, 5, 10, 20, 30), _GOLDEN_A_N[family, name]):
        got = coefficients(family, p, n).a_n_rec
        assert abs(got - exact) <= 1e-14 * abs(exact), (n, got, exact)


def test_cos_x_families_share_one_implementation():
    from dqm.families.trig import AskeyWilson

    cos_x = [fam for fam in FAMILIES.values() if fam.spec.eta_kind == "cos x"]
    assert len(cos_x) == 7
    assert {type(fam) for fam in cos_x} == {AskeyWilson}


def _ks_q_jacobi(p, n):
    """KS 3.10 for the normalised continuous q-Jacobi polynomials."""
    from dqm.specfun import q_pochhammer as qp

    al, be = (v.real for v in p.a)
    q = p.q
    s1, s2 = q ** (0.5 * (al + be + 1)), q ** (0.5 * (al + be + 2))
    return {
        "c_n": 2.0**n * q ** (0.5 * (al + 0.5) * n) * qp(q ** (n + al + be + 1), q, n)
        / (qp(q, q, n) * qp(-s1, q, n) * qp(-s2, q, n)),
        "f_n": q ** (0.5 * (al + 1.5)) * q ** (-n) * (1 - q ** (n + al + be + 1))
        / ((1 + s1) * (1 + s2)),
        "b_n_shift": q ** (-0.5 * (al + 1.5)) * (1 - q ** (n + 1)) * (1 + s1) * (1 + s2),
        "h0_over_hn": (1 - q ** (2 * n + al + be + 1)) * qp(q, q, n)
        * qp(q ** (al + be + 1), q, n) * qp(-s1, q, n)
        / ((1 - q ** (al + be + 1)) * qp(q ** (al + 1), q, n)
           * qp(q ** (be + 1), q, n) * qp(-(q ** (0.5 * (al + be + 3))), q, n))
        * q ** (-(al + 0.5) * n),
    }


def _ks_q_laguerre(p, n):
    """KS 3.19 for the normalised continuous q-Laguerre polynomials."""
    from dqm.specfun import q_pochhammer as qp

    al = p.a[0].real
    q = p.q
    return {
        "c_n": 2.0**n * q ** (0.5 * (al + 0.5) * n) / qp(q, q, n),
        "f_n": q ** (0.5 * (al + 1.5)) * q ** (-n),
        "b_n_shift": q ** (-0.5 * (al + 1.5)) * (1 - q ** (n + 1)),
        "h0_over_hn": qp(q, q, n) / qp(q ** (al + 1), q, n) * q ** (-(al + 0.5) * n),
    }


@pytest.mark.parametrize("family,name,closed", [
    ("continuous-q-jacobi", "default", _ks_q_jacobi),
    ("continuous-q-jacobi", "steep", _ks_q_jacobi),
    ("continuous-q-laguerre", "default", _ks_q_laguerre),
    ("continuous-q-laguerre", "edge", _ks_q_laguerre),
])
def test_normalisation_k_n_matches_closed_forms(family, name, closed):
    # the Askey-Wilson forms times the ratios of k_n reproduce the families'
    # own normalisation, level 0 included (f_0 is a limit there)
    p = fixture_params(family, name)
    for n in range(16):
        c = coefficients(family, p, n)
        for field, want in closed(p, n).items():
            want = complex(want).real
            assert abs(getattr(c, field) - want) <= 1e-13 * abs(want), (field, n)
