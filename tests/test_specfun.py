"""Kernel-level checks: every golden value is either trivial arithmetic or
computed here by an independent oracle (direct products, classical gamma
identities, exact-rational summation)."""

from __future__ import annotations

import cmath
import decimal
import functools
import math
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from dqm import specfun
from dqm.specfun import (
    ConvergenceError,
    DomainError,
    PoleError,
    basic_hypergeometric_phi,
    complex_gamma,
    factorials,
    hypergeometric_F,
    log_gamma,
    log_q_pochhammer_inf,
    pochhammer,
    pochhammer_levels,
    q_gamma,
    q_pochhammer,
    q_pochhammer_inf,
    q_pochhammer_levels,
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

def test_factorials_are_exact():
    assert factorials(0) == [1]
    assert factorials(25) == [math.factorial(k) for k in range(26)]

@pytest.mark.parametrize("a", [0.3, -2.5, 1.4 + 0.7j, -0.5 - 3j])
def test_pochhammer_levels_are_the_loop_products(a):
    # each level takes one more factor, in the order a, a + 1, ...
    want, prod = [], complex(1.0)
    for k in range(31):
        want.append(prod)
        prod *= complex(a) + k
    assert pochhammer_levels(a, 30) == want
    assert [pochhammer(a, k) for k in range(31)] == want
    with pytest.raises(DomainError):
        pochhammer_levels(a, -1)


# -------------------------------------------------------------- q-pochhammer

@pytest.mark.parametrize("a,q", [(0.4, 0.5), (-1.3, 0.8), (0.6 + 0.8j, 0.3)])
def test_q_pochhammer_levels_are_the_loop_products(a, q):
    want, prod, qk = [], complex(1.0), 1.0
    for _ in range(31):
        want.append(prod)
        prod *= 1.0 - complex(a) * qk
        qk *= q
    assert q_pochhammer_levels(a, q, 30) == want
    assert [q_pochhammer(a, q, k) for k in range(31)] == want

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
    # ~3.5e9 factors, past the 2 000 000 of the truncation rule
    with pytest.raises(ConvergenceError):
        q_pochhammer_inf(1.0, 1 - 1e-8)


def test_q_pochhammer_inf_is_the_exponential_of_the_log_kernel():
    # one truncation rule: q = 0.999 takes ~35 000 factors on both paths
    assert q_pochhammer_inf(0.5, 0.999) == cmath.exp(log_q_pochhammer_inf(0.5, 0.999))


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

def test_hypergeometric_negative_term_count():
    with pytest.raises(DomainError):
        hypergeometric_F([-2, 1.0], [3.0], 0.5, -1)


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

def test_terminating_1phi1_exact_rational_oracle():
    # r < s + 1: each term carries ((-1)^k q^(k(k-1)/2))^(1+s-r), here to the
    # power 1; summed term by term with exact rational q
    q = Fraction(1, 2)
    m = 4
    a = q ** (-m)
    b = Fraction(1, 8)
    z = Fraction(3, 4)

    def qp(val, k):
        out = Fraction(1)
        for j in range(k):
            out *= 1 - val * q**j
        return out

    exact = Fraction(0)
    for k in range(m + 1):
        tail = (-1) ** k * q ** (k * (k - 1) // 2)
        exact += qp(a, k) / (qp(b, k) * qp(q, k)) * tail * z**k
    got = basic_hypergeometric_phi([float(a)], [float(b)], 0.5, 0.75, m)
    assert got == pytest.approx(float(exact), rel=1e-14)

def test_phi_denominator_pole():
    # 1 - b q^k vanishes exactly at k = 1 for b = 1/q, before the numerator
    # q^-3 ends the series
    with pytest.raises(PoleError):
        basic_hypergeometric_phi([8.0, 0.3], [2.0], 0.5, 0.5, 5)

def test_phi_negative_term_count():
    with pytest.raises(DomainError):
        basic_hypergeometric_phi([0.4], [0.2], 0.5, 0.3, -1)


# exact oracles over the Gaussian rationals: every double (and every
# Fraction) is a pair of Fractions exactly, so the sums below are exact

def _gauss(v):
    if isinstance(v, Fraction):
        return v, Fraction(0)
    v = complex(v)
    return Fraction(v.real), Fraction(v.imag)

def _gmul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]

def _gdiv(x, y):
    d = y[0] ** 2 + y[1] ** 2
    return (x[0] * y[0] + x[1] * y[1]) / d, (x[1] * y[0] - x[0] * y[1]) / d

def _exact_sum(ratio, z, n):
    # t_0 + ... + t_n of t_0 = 1, t_{k+1} = t_k z ratio(k)
    z, term, total = _gauss(z), (Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))
    for k in range(n + 1):
        total = total[0] + term[0], total[1] + term[1]
        term = _gmul(_gmul(term, z), ratio(k))
    return total

def _exact_F(num, den, z, n):
    def ratio(k):
        r = Fraction(1, k + 1), Fraction(0)
        for a, ai in map(_gauss, num):
            r = _gmul(r, (a + k, ai))
        for b, bi in map(_gauss, den):
            r = _gdiv(r, (b + k, bi))
        return r
    return _exact_sum(ratio, z, n)

def _exact_phi(num, den, q, z, n):
    q, excess = Fraction(q), 1 + len(den) - len(num)

    def ratio(k):
        qk = q**k
        r = (-qk) ** excess / (1 - q * qk), Fraction(0)
        for a, ai in map(_gauss, num):
            r = _gmul(r, (1 - a * qk, -ai * qk))
        for b, bi in map(_gauss, den):
            r = _gdiv(r, (1 - b * qk, -bi * qk))
        return r
    return _exact_sum(ratio, z, n)

def _askey_wilson_4phi3(q, n=12):
    # the Askey-Wilson chain's 4phi3 at a = (0.6, 0.3 + 0.4i, 0.3 - 0.4i,
    # 0.4), z = e^(1.1 i): exact q^-n, a1 z and a1 / z, and a conjugate pair
    # a1 a2, a1 a3 beside the real a1 a4 in the denominator
    a1, rest, z = 0.6, (0.3 + 0.4j, 0.3 - 0.4j, 0.4), cmath.exp(1.1j)
    e4 = a1 * rest[0] * rest[1] * rest[2]
    num = [Fraction(q) ** -n, e4.real * q ** (n - 1), a1 * z, a1 / z]
    return num, [a1 * aj for aj in rest], q, q, n

def _wilson_4f3(x, n=12):
    # the Wilson 4F3 at a = (0.9, 0.9 + 0.4i, 0.9 - 0.4i, 1.3), the real a1
    # first: a1 +- ix and a1 + a2, a1 + a3 are exact conjugate pairs
    a1, rest = 0.9, (0.9 + 0.4j, 0.9 - 0.4j, 1.3)
    b1 = a1 + sum(rest).real
    return [-n, n + b1 - 1, a1 + 1j * x, a1 - 1j * x], [a1 + aj for aj in rest], 1.0, n

def _askey_wilson_4phi3_pairs(q, n=12):
    # the same 4phi3 with a1 conj(z) for a1 / z: a1 z, a1 conj(z) are an
    # exact conjugate pair, as a1 a2, a1 a3 are
    num, den, q, z, n = _askey_wilson_4phi3(q, n)
    return num[:3] + [num[2].conjugate()], den, q, z, n

@pytest.mark.parametrize("series,exact,args", [
    # 3F2 with a complex and a real parameter above and below
    (hypergeometric_F, _exact_F, ([-12, 0.3 + 0.7j, 1.25], [0.5 - 0.2j, 1.75], 1.0, 12)),
    # 2F1 at a complex z
    (hypergeometric_F, _exact_F, ([-12, 0.75], [1.5], 0.3 + 0.4j, 12)),
    # the Wilson 4F3 at a = (0.9 + 0.4i, 0.9 - 0.4i, 0.9, 1.3), x = 1.3
    (hypergeometric_F, _exact_F, ([-12, 15.0, 0.9 + 1.7j, 0.9 - 0.9j],
                                  [1.8, 1.8 + 0.4j, 2.2 + 0.4j], 1.0, 12)),
    (basic_hypergeometric_phi, _exact_phi, _askey_wilson_4phi3(0.5)),
    (basic_hypergeometric_phi, _exact_phi, _askey_wilson_4phi3(0.37)),
    # the continuous q-Hermite 2phi0 at z = q^n / e^(1.4 i)
    (basic_hypergeometric_phi, _exact_phi,
     ([Fraction(0.5) ** -12, 0.0], [], 0.5, 0.5**12 / cmath.exp(1.4j), 12)),
    # the same Wilson 4F3 as the family passes it now: real
    (hypergeometric_F, _exact_F, _wilson_4f3(1.3)),
    (basic_hypergeometric_phi, _exact_phi, _askey_wilson_4phi3_pairs(0.5)),
    (basic_hypergeometric_phi, _exact_phi, _askey_wilson_4phi3_pairs(0.37)),
    # a pair above and below beside an unpaired complex parameter
    (hypergeometric_F, _exact_F, ([-12, 0.4 + 0.7j, 1.1 + 0.2j, 0.4 - 0.7j],
                                  [0.6 + 0.3j, 2.5, 0.6 - 0.3j], 1.0, 12)),
    (basic_hypergeometric_phi, _exact_phi,
     ([Fraction(0.5) ** -12, 0.3 + 0.5j, 0.2 + 0.1j, 0.3 - 0.5j], [0.4 + 0.2j, 0.4 - 0.2j, 0.7],
      0.5, 0.5, 12)),
    # near-conjugate parameters one ulp apart, in the imaginary part above
    # and in the real part below, are no pair: the sum stays complex
    (hypergeometric_F, _exact_F,
     ([-12, 15.0, 0.9 + 1.3j, complex(0.9, -math.nextafter(1.3, 2.0))],
      [complex(math.nextafter(1.8, 2.0), 0.4), 1.8 - 0.4j, 2.2], 1.0, 12)),
])
def test_series_match_exact_gaussian_rational_sums(series, exact, args):
    # each component within one ulp of the correctly rounded exact sum, and
    # an exactly real sum comes back with an imaginary part of exactly 0
    got = series(*args)
    for g, e in zip((got.real, got.imag), exact(*args)):
        want = float(e)
        assert abs(g - want) <= math.ulp(want), (g, want)
    assert (got.imag == 0.0) == (exact(*args)[1] == 0)

@pytest.mark.parametrize("args", [
    # the Wilson 4F3 at a real a1: its prefactor, a pair beside a real
    # parameter, is real, and so is the product
    _wilson_4f3(1.3),
    # a pair beside an unpaired complex parameter above and below
    ([-12, 0.4 + 0.7j, 1.1 + 0.2j, 0.4 - 0.7j], [0.6 + 0.3j, 2.5, 0.6 - 0.3j], 1.0, 12),
    # continuous dual Hahn at a = (1e-300, 1e-300, 1e-143), x = 0.5, n = 2:
    # the prefactor alone underflows a double and the sum alone overflows it
    ([-2, 1e-300 + 0.5j, 1e-300 - 0.5j], [2e-300, 1e-143], 1.0, 2),
])
def test_scaled_sum_is_the_exact_product_rounded_once(args):
    num, den, z, n = args
    exact = _exact_F(*args)
    for b, bi in map(_gauss, den):
        for k in range(n):
            exact = _gmul(exact, (b + k, bi))
    got = hypergeometric_F(*args, scaled=True)
    for g, e in zip((got.real, got.imag), exact):
        assert abs(g - float(e)) <= math.ulp(float(e)), (g, float(e))
    assert (got.imag == 0.0) == (exact[1] == 0)

def test_split_pairs_exact_conjugates_only():
    # a pair is bitwise: a conjugate one ulp off, in either part, is not one
    off = complex(0.2, -math.nextafter(0.1, 1.0))
    real, cx = specfun._split([0.9 + 1.3j, 0.5, 0.2 + 0.1j, 0.9 - 1.3j, off, 0.2 - 0.1j])
    assert real == [(Decimal(0.5), None), (Decimal(0.9), Decimal(-1.3)),
                    (Decimal(0.2), Decimal(-0.1))]
    assert cx == [(Decimal(off.real), Decimal(off.imag))]

@pytest.mark.parametrize("series,args", [
    (hypergeometric_F, ([-2, math.nan], [1.0], 0.5, 2)),
    (hypergeometric_F, ([-2, 0.5], [math.inf], 0.5, 2)),
    (hypergeometric_F, ([-2, 0.5], [1.0], complex(math.inf, 0.0), 2)),
    (basic_hypergeometric_phi, ([0.25, math.nan], [0.3], 0.5, 0.5, 2)),
    (basic_hypergeometric_phi, ([-math.inf, 0.3], [0.3], 0.5, 0.5, 2)),
    (basic_hypergeometric_phi, ([0.25, 0.3], [0.3], 0.5, math.nan, 2)),
    (functools.partial(hypergeometric_F, scaled=True), ([-2, 0.5], [math.inf], 0.5, 2)),
])
def test_non_finite_input_sums_to_complex_nan(series, args):
    got = series(*args)
    assert math.isnan(got.real) and math.isnan(got.imag)

def test_a_sum_that_cancels_to_zero_stops_at_a_bounded_precision():
    # 1 - 0.3 / 0.3 is 0 exactly at any precision, and 1 - 2 (1/3) / (2/3)
    # is rounding noise at each: the precision rises only until the rounding
    # bound is below the smallest positive double.  A child process runs
    # them under a 512 MiB address-space limit and a 60 s timeout, which a
    # precision growing without end exhausts
    script = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))\n"
        "from fractions import Fraction\n"
        "from dqm.specfun import hypergeometric_F\n"
        "print(hypergeometric_F([-1, 0.3], [0.3], 1.0, 1))\n"
        "print(hypergeometric_F([-1, Fraction(1, 3)], [Fraction(2, 3)], 2.0, 1))\n"
    )
    src = os.path.dirname(os.path.dirname(specfun.__file__))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0j", "0j"]


def test_a_sum_of_rounding_noise_takes_two_passes(monkeypatch):
    # 1 - 2 (1/3) / (2/3) is noise at every precision, so the floor it sets
    # sinks with it: the second pass goes straight to the precision of the
    # absolute floor instead of climbing about 20 digits a pass
    precisions = []
    context = decimal.Context
    monkeypatch.setattr(decimal, "Context",
                        lambda prec: precisions.append(prec) or context(prec=prec))
    assert hypergeometric_F([-1, Fraction(1, 3)], [Fraction(2, 3)], 2.0, 1) == 0
    assert len(precisions) <= 2, precisions


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
    got = log_q_pochhammer_inf(a, q)
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


def _log_q_pochhammer_inf_by_a_loop(a, q):
    """The factor loop the block kernel replaced, kept as its reference:
    factors counted one by one until |a|max q^k < 1e-15 (at most 2 000 000),
    one prod *= 1 - a q^k per factor, one log per run of factors."""
    a = np.asarray(a, dtype=complex)
    amax = float(np.abs(a).max()) if a.size else 0.0
    n_factors = 0
    qk = 1.0
    while not amax * qk < 1e-15:
        n_factors += 1
        if n_factors >= 2_000_000:
            raise ConvergenceError("no convergence")
        qk *= q
    run = max(1, int(300.0 / max(math.log1p(amax), -math.log1p(-q))))
    out = np.zeros_like(a)
    prod = np.ones_like(a)
    qk = 1.0
    with np.errstate(divide="ignore"):
        for k in range(1, n_factors + 1):
            prod *= 1.0 - a * qk
            qk *= q
            if k % run == 0 or k == n_factors:
                out += np.log(prod)
                prod[...] = 1.0
    return complex(out) if out.ndim == 0 else out


def _same_bits(got, want):
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("block", [None, 7, 1])
def test_log_q_pochhammer_inf_matches_the_factor_loop_bit_for_bit(block, monkeypatch):
    # block: the kernel's element cap, small enough at 7 and 1 that each run
    # is split over blocks
    if block is not None:
        monkeypatch.setattr(specfun, "_BLOCK", block)
    rng = np.random.default_rng(11)
    shapes = [(), (0,), (1,), (9,), (3, 4), (2, 1, 5)]
    for i in range(120):
        q = float(np.exp(rng.uniform(math.log(0.05), math.log(0.995))))
        if i == 0 and block is None:
            q = 0.9995  # ~70 000 factors in ~1 800 runs
        shape = shapes[i % len(shapes)]
        a = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * rng.choice([0.1, 1.0, 5.0])
        if i % 5 == 0:
            a = a.real + 0j
        if shape == ():
            a = complex(a)
        _same_bits(log_q_pochhammer_inf(a, q), _log_q_pochhammer_inf_by_a_loop(a, q))


def test_log_q_pochhammer_inf_runs_per_call():
    # several runs per call, through large |a| and at q near 1
    for a, q in ((np.array([1e6, -2.0 + 1j]), 0.5), (np.array([0.5, 0.9j]), 0.99)):
        run = int(300.0 / max(math.log1p(np.abs(a).max()), -math.log1p(-q)))
        n = math.ceil(math.log(1e-15 / np.abs(a).max()) / math.log(q))
        assert n > 3 * run
        _same_bits(log_q_pochhammer_inf(a, q), _log_q_pochhammer_inf_by_a_loop(a, q))


def test_log_q_pochhammer_inf_vanishing_factor_matches_the_loop(monkeypatch):
    monkeypatch.setattr(specfun, "_BLOCK", 3)  # the zero lands inside a split run
    a = np.array([[1.0, 4.0], [0.5 + 0j, 0.25j]])
    got = log_q_pochhammer_inf(a, 0.5)
    _same_bits(got, _log_q_pochhammer_inf_by_a_loop(a, 0.5))
    assert got.real[0, 0] == got.real[0, 1] == -math.inf
    assert np.isfinite(got.real[1]).all()
    assert log_q_pochhammer_inf(1.0, 0.3).real == -math.inf


def test_log_q_pochhammer_inf_never_converges_on_nan():
    with pytest.raises(ConvergenceError):
        log_q_pochhammer_inf(np.array([0.5, complex(0.2, math.nan)]), 0.5)
    with pytest.raises(ConvergenceError):
        log_q_pochhammer_inf(math.nan, 0.5)
    with pytest.raises(ConvergenceError):
        log_q_pochhammer_inf(np.array([math.inf, 0.5]), 0.5)


def test_log_q_pochhammer_inf_counts_the_factors_as_the_loop_does():
    # |a| q^k at and next to 1e-15: the count taken from the log estimate is
    # the loop's first k with |a| q^k < 1e-15, q^k as a running product
    for q in (0.25, 0.5, 0.9, 0.995):
        for k in (1, 2, 10, 100):
            for s in (1 - 2**-52, 1.0, 1 + 2**-52):
                a = 1e-15 / q**k * s
                _same_bits(log_q_pochhammer_inf(a, q), _log_q_pochhammer_inf_by_a_loop(a, q))


def test_log_q_pochhammer_inf_memory_stays_linear_in_the_points():
    # 10^5 points at q = 0.9: ~330 factors in runs of ~130; unblocked, one
    # run's (factors x points) array would be ~200 MB.  The factor loop
    # peaked at 6.4 MB.
    rng = np.random.default_rng(5)
    a = rng.uniform(0.0, 0.9, 100_000) * np.exp(1j * rng.uniform(0.0, 6.3, 100_000))
    tracemalloc.start()
    try:
        log_q_pochhammer_inf(a, 0.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 6.4e6


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
    assert q_gamma(3, 0.999) == pytest.approx(2.0, abs=1e-2)
