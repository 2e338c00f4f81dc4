"""Kernel-level checks: every golden value is either trivial arithmetic or
computed here by an independent oracle (direct products, classical gamma
identities, exact-rational summation)."""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from dqm.specfun import (
    ConvergenceError,
    DomainError,
    PoleError,
    SeriesTolerance,
    basic_hypergeometric_phi,
    complex_gamma,
    hypergeometric_F,
    log_gamma,
    log_q_pochhammer_inf,
    pochhammer,
    q_gamma,
    q_pochhammer,
    q_pochhammer_inf,
)


# ---------------------------------------------------------------- pochhammer

def test_pochhammer_empty_product():
    assert pochhammer(3.7 + 2j, 0) == 1

def test_pochhammer_small_integers():
    assert pochhammer(3, 2) == pytest.approx(12)
    assert pochhammer(0.5, 3) == pytest.approx(1.875)

@pytest.mark.parametrize("a", [0.3, -2.5, 1.4 + 0.7j, -0.5 - 3j])
def test_pochhammer_recurrence(a):
    for n in range(51):
        lhs = pochhammer(a, n + 1)
        rhs = pochhammer(a, n) * (a + n)
        assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-300)


# -------------------------------------------------------------- q-pochhammer

def test_q_pochhammer_values():
    assert q_pochhammer(0.7 - 0.2j, 0.5, 0) == 1
    assert q_pochhammer(0.5, 0.5, 2) == pytest.approx(0.375)
    assert q_pochhammer(2, 0.5, 1) == pytest.approx(-1.0)

def test_q_pochhammer_domain():
    with pytest.raises(DomainError):
        q_pochhammer(0.5, 1.2, 3)
    with pytest.raises(DomainError):
        q_pochhammer(0.5, 0.0, 3)

@pytest.mark.parametrize("a,q", [(0.4, 0.5), (-1.3, 0.8), (0.6 + 0.8j, 0.3)])
def test_q_pochhammer_recurrence(a, q):
    qn = 1.0
    for n in range(51):
        lhs = q_pochhammer(a, q, n + 1)
        rhs = q_pochhammer(a, q, n) * (1 - a * qn)
        assert lhs == pytest.approx(rhs, rel=1e-13)
        qn *= q


def _qpoch_inf_oracle(a, q, factors=60):
    # plain truncated product, independent of the implementation's stopping rule
    out = 1.0
    for k in range(factors):
        out *= 1 - a * q**k
    return out

def test_q_pochhammer_inf_zero_argument():
    assert q_pochhammer_inf(0.0, 0.37) == 1

def test_q_pochhammer_inf_golden():
    # (q;q)_inf and (-q;q)_inf at q = 1/2, frozen from the 60-factor oracle
    assert _qpoch_inf_oracle(0.5, 0.5) == pytest.approx(0.2887880951, abs=1e-10)
    assert _qpoch_inf_oracle(-0.5, 0.5) == pytest.approx(2.3842310290, abs=1e-10)
    assert q_pochhammer_inf(0.5, 0.5) == pytest.approx(_qpoch_inf_oracle(0.5, 0.5), rel=1e-13)
    assert q_pochhammer_inf(-0.5, 0.5) == pytest.approx(_qpoch_inf_oracle(-0.5, 0.5), rel=1e-13)

@pytest.mark.parametrize("a,q", [(0.5, 0.5), (-0.8, 0.7), (0.3 + 0.4j, 0.6)])
def test_q_pochhammer_inf_shift_property(a, q):
    # (a;q)_inf / (aq;q)_inf = 1 - a
    lhs = q_pochhammer_inf(a, q) / q_pochhammer_inf(a * q, q)
    assert lhs == pytest.approx(1 - a, rel=1e-12)

def test_q_pochhammer_inf_nonconvergence():
    with pytest.raises(ConvergenceError):
        q_pochhammer_inf(1.0, 0.999999, SeriesTolerance(rel_eps=1e-15, max_terms=50))


# -------------------------------------------------------------------- gamma

def test_gamma_classical_values():
    assert complex_gamma(1) == pytest.approx(1.0, rel=1e-13)
    assert complex_gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)

def test_gamma_modulus_identity():
    # |Gamma(1+ix)|^2 = pi x / sinh(pi x), here at x = 1
    x = 1.0
    expected = math.sqrt(math.pi * x / math.sinh(math.pi * x))
    assert abs(complex_gamma(1 + 1j)) == pytest.approx(expected, rel=1e-12)
    # frozen from the oracle: sqrt(pi / sinh(pi)) = 0.52156404690...
    assert abs(complex_gamma(1 + 1j)) == pytest.approx(0.5215640469, abs=1e-9)

def test_gamma_poles():
    for z in (0, -1, -2, -7):
        with pytest.raises(PoleError):
            complex_gamma(z)

def test_gamma_recurrence_on_domain():
    # gamma(z+1) = z gamma(z) to 1e-11 across |Re| <= 50, |Im| <= 50
    res = [-49.3, -20.0, -3.7, -0.3, 0.7, 2.0, 14.5, 49.0]
    ims = [-49.0, -11.2, -1.0, 0.0, 0.4, 7.7, 48.5]
    for re in res:
        for im in ims:
            z = complex(re, im)
            if im == 0.0 and re <= 0 and abs(re - round(re)) < 1e-6:
                continue
            lhs = complex_gamma(z + 1)
            rhs = z * complex_gamma(z)
            assert cmath.isclose(lhs, rhs, rel_tol=1e-11)

@pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.0, 5.0])
def test_gamma_reflection_check(x):
    val = abs(complex_gamma(1 + 1j * x)) ** 2 * math.sinh(math.pi * x)
    assert val == pytest.approx(math.pi * x, rel=1e-10)


def test_log_gamma_on_an_array_across_the_reflection_line():
    # one array with entries on both sides of Re z = 1/2: each agrees with
    # the scalar gamma, and gamma(z+1) = z gamma(z) holds entrywise
    z = np.array([-3.7 + 0.4j, -0.3 - 2.0j, 0.2 + 1.1j, 0.49, 0.5 + 0.3j,
                  0.51 - 0.2j, 2.0 + 7.7j, 14.5 - 3.0j])
    lg = log_gamma(z)
    assert lg.shape == z.shape
    for zi, v in zip(z, lg):
        assert cmath.isclose(cmath.exp(v), complex_gamma(zi), rel_tol=1e-14)
    up = np.exp(log_gamma(z + 1))
    assert np.all(np.abs(up - z * np.exp(lg)) <= 1e-12 * np.abs(up))


# log|gamma(z)| left of Re z = 1/2 and far off the real axis, from mpmath's
# loggamma at 40 digits; sin(pi z) of the reflection overflows past |Im z| ~ 226
LOG_ABS_GAMMA_FAR = [
    (0.066 + 230j, -362.72434296540450024),
    (-20.0 + 25.0j, -106.27871017322305252),
    (-19.999999 - 300j, -587.26341671889633314),
    (-7.5 + 21j, -56.608915877070702308),
    (-3.0000001 + 1000j, -1594.0545394288810614),
    (0.49 - 2000j, -3140.7497240810798616),
    (-0.5 + 226.5j, -360.2891768672968712),
    (-12.25 - 20.5j, -70.53289771885484854),
    (0.0 + 500j, -787.58652891345473275),
    (-1.0 - 60j, -99.470496787424612372),
]


def test_log_gamma_far_from_the_real_axis_left_of_one_half(recwarn):
    z, ref = (np.array(v) for v in zip(*LOG_ABS_GAMMA_FAR))
    for got in (log_gamma(z).real, np.array([log_gamma(zi).real for zi in z])):
        assert np.all(np.abs(got - ref) <= 1e-14 * (1 + np.abs(ref)))
    assert not recwarn.list


# ------------------------------------------------------------ hypergeometric

def test_2f1_two_term_truncation():
    b, c, z = 2.3, 1.1, 0.7 + 0.2j
    assert hypergeometric_F([-1, b], [c], z, 1) == pytest.approx(1 - b * z / c, rel=1e-14)

def test_1f1_vanishing_numerator():
    assert hypergeometric_F([0], [2.5], 0.9, 10) == 1

def test_3f2_brute_force():
    # sum the three terms of 3F2(-2,5,1;2,3;1) directly
    expected = 0.0
    for k in range(3):
        term = (
            pochhammer(-2, k) * pochhammer(5, k) * pochhammer(1, k)
            / (pochhammer(2, k) * pochhammer(3, k) * math.factorial(k))
        )
        expected += term.real
    got = hypergeometric_F([-2, 5, 1], [2, 3], 1.0, 10)
    assert got == pytest.approx(expected, rel=1e-14)
    assert got == pytest.approx(1 - 5 / 3 + 5 / 6, rel=1e-14)

def test_hypergeometric_denominator_pole():
    with pytest.raises(PoleError):
        hypergeometric_F([-5, 1.0], [-2.0], 1.0, 5)


# ---------------------------------------------------------------- basic phi

def test_phi_unit_numerator_parameter():
    # first numerator parameter q^0 = 1 kills every term beyond n = 0
    assert basic_hypergeometric_phi([1.0, 0.3], [0.2], 0.5, 0.8, 20) == 1

def test_phi_zero_argument():
    assert basic_hypergeometric_phi([0.4, 0.3], [0.2], 0.5, 0.0, 20) == 1

def test_2phi0_two_term_sum():
    # 2phi0(q^-1, 0; -; q; zq) = 1 + (1 - q^-1)/(1 - q) * (-1)^-1 q^0 * zq
    q = 0.5
    z = 0.3
    manual = 1 + (1 - 1 / q) / (1 - q) * (-1.0) * (z * q)
    got = basic_hypergeometric_phi([1 / q, 0.0], [], q, z * q, 5)
    assert got == pytest.approx(manual, rel=1e-14)

def test_terminating_2phi1_exact_rational_oracle():
    # term-by-term sum with exact rational q, no summation identities used
    q = Fraction(1, 2)
    m = 3
    a = q ** (-m)
    b = Fraction(1, 4)
    c = Fraction(1, 8)
    z = q

    def qp(val, k):
        out = Fraction(1)
        for j in range(k):
            out *= 1 - val * q**j
        return out

    exact = Fraction(0)
    for k in range(m + 1):
        exact += qp(a, k) * qp(b, k) / (qp(c, k) * qp(q, k)) * z**k
    got = basic_hypergeometric_phi([float(a), float(b)], [float(c)], 0.5, 0.5, m)
    assert got == pytest.approx(float(exact), rel=1e-12)


def test_log_q_pochhammer_inf_on_an_array():
    a = np.array([0.3 + 0.4j, 0.3 - 0.4j, -0.55, 0.9, 1.7 - 0.2j, 0.05j, 0.0])
    got = np.exp(log_q_pochhammer_inf(a, 0.5))
    for ai, g in zip(a, got):
        want = _qpoch_inf_oracle(ai, 0.5)
        assert abs(g - want) <= 1e-14 * abs(want)

def test_log_q_pochhammer_inf_vanishing_factor():
    # 1 - a q^k = 0 at k = 0 and k = 2: the log's real part is -inf
    got = log_q_pochhammer_inf(np.array([1.0, 4.0, 0.5]), 0.5)
    assert got.real[0] == got.real[1] == -math.inf
    assert math.isfinite(got.real[2])

def test_log_q_pochhammer_inf_where_the_product_underflows():
    # (a;q)_inf at q = 0.999 is below the double range (|log| ~ 1e3); the
    # runs of factors must add up to the plain sum of the factors' logs
    q = 0.999
    a = np.array([q, 0.5 + 0.5j, -0.9])
    got = log_q_pochhammer_inf(a, q, SeriesTolerance(max_terms=100_000))
    for ai, g in zip(a, got):
        want = 0j
        k = 0
        while abs(a).max() * q**k >= 1e-15:
            want += cmath.log(1.0 - ai * q**k)
            k += 1
        assert abs(g.real - want.real) <= 1e-12 * abs(want.real)
        # the imaginary parts may differ by a multiple of 2 pi
        assert abs(cmath.exp(1j * (g.imag - want.imag)) - 1.0) <= 1e-10
    assert got.real[0] < -1000.0


# ------------------------------------------------------------------ q-gamma

def test_q_gamma_at_one():
    assert q_gamma(1, 0.5) == pytest.approx(1.0, rel=1e-12)

def test_q_gamma_at_two_via_functional_equation():
    # Gamma_q(z+1) = (1-q^z)/(1-q) Gamma_q(z) with Gamma_q(1) = 1 gives
    # Gamma_q(2) = 1 exactly
    assert q_gamma(2, 0.5) == pytest.approx(1.0, rel=1e-12)

@pytest.mark.parametrize("z,q", [(1.7, 0.4), (2.5, 0.7), (0.9 + 0.3j, 0.55)])
def test_q_gamma_functional_equation(z, q):
    lhs = q_gamma(z + 1, q)
    rhs = (1 - q**z) / (1 - q) * q_gamma(z, q)
    assert cmath.isclose(lhs, rhs, rel_tol=1e-12)

@pytest.mark.parametrize("z", [0, -1, -2])
def test_q_gamma_poles(z):
    with pytest.raises(PoleError):
        q_gamma(z, 0.5)

def test_q_gamma_classical_limit():
    tol = SeriesTolerance(rel_eps=1e-12, max_terms=200_000)
    assert q_gamma(3, 0.999, tol) == pytest.approx(2.0, abs=1e-2)
