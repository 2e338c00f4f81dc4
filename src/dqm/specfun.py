"""Complex special-function kernels: gamma, Pochhammer symbols, q-products,
terminating (q-)hypergeometric sums and the q-gamma function.

Everything here is a pure function of its arguments.  Scalar inputs give
scalar outputs.  The two log kernels, ``log_gamma`` and
``log_q_pochhammer_inf``, also take numpy arrays elementwise; the families'
ground states, h0 and the coherent closed forms are built from them.  They
return *a* logarithm: the real part is log|value|, the imaginary part is
right only modulo 2 pi, so use them through exp() or their real part.
There is one infinite q-product kernel: ``q_pochhammer_inf`` is the
exponential of ``log_q_pochhammer_inf`` at a scalar.

The terminating sums ``hypergeometric_F`` and ``basic_hypergeometric_phi``
run in double-double arithmetic; they serve the families' series path, the
independent cross-check of the recurrence.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SeriesTolerance",
    "DomainError",
    "PoleError",
    "ConvergenceError",
    "ConditioningWarning",
    "pochhammer",
    "q_pochhammer",
    "q_pochhammer_inf",
    "log_q_pochhammer_inf",
    "log_gamma",
    "complex_gamma",
    "hypergeometric_F",
    "basic_hypergeometric_phi",
    "q_gamma",
]


class DomainError(ValueError):
    """An argument lies outside the supported domain."""


class PoleError(ZeroDivisionError):
    """Evaluation was requested at (or too near) a pole."""


class ConvergenceError(RuntimeError):
    """An infinite product/series did not converge within the term budget."""


class ConditioningWarning(UserWarning):
    """High-degree series evaluation where double precision cancellation grows."""


@dataclass(frozen=True)
class SeriesTolerance:
    """Truncation control for infinite products and series."""

    rel_eps: float = 1e-15
    max_terms: int = 10_000

    def __post_init__(self):
        if not (0.0 < self.rel_eps < 1.0):
            raise DomainError(f"rel_eps must be in (0,1), got {self.rel_eps}")
        if self.max_terms < 1:
            raise DomainError(f"max_terms must be >= 1, got {self.max_terms}")


DEFAULT_TOL = SeriesTolerance()


def _check_q(q: float) -> float:
    q = float(q)
    if not (0.0 < q < 1.0):
        raise DomainError(f"q must lie in (0,1), got {q}")
    return q


def pochhammer(a: complex, n: int) -> complex:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1); empty product is 1."""
    if n < 0:
        raise DomainError(f"pochhammer order must be >= 0, got {n}")
    result = complex(1.0)
    a = complex(a)
    for k in range(n):
        result *= a + k
    return result


def q_pochhammer(a: complex, q: float, n: int) -> complex:
    """Finite q-shifted factorial (a;q)_n = prod_{k=0}^{n-1} (1 - a q^k)."""
    q = _check_q(q)
    if n < 0:
        raise DomainError(f"q_pochhammer order must be >= 0, got {n}")
    result = complex(1.0)
    a = complex(a)
    qk = 1.0
    for _ in range(n):
        result *= 1.0 - a * qk
        qk *= q
    return result


def q_pochhammer_inf(a: complex, q: float, tol: SeriesTolerance = DEFAULT_TOL) -> complex:
    """Infinite q-product (a;q)_inf at a scalar a: the exponential of
    log_q_pochhammer_inf, truncated by the same rule, once |a q^k| < tol.rel_eps.

    The omitted tail multiplies the result by factors within rel_eps of 1,
    so the relative error is bounded by ~ rel_eps / (1-q).
    """
    return cmath.exp(log_q_pochhammer_inf(complex(a), q, tol))


# Lanczos rational approximation, g = 7 with 9 coefficients.  Gives gamma to
# 14-15 significant digits for Re z >= 0.5; the reflection formula extends it
# to the left half plane.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_PI = math.log(math.pi)


def log_gamma(z):
    """A logarithm of gamma(z) on the whole plane, scalar complex or ndarray.

    Lanczos where Re z >= 0.5; the reflection gamma(z) gamma(1-z) =
    pi / sin(pi z) elsewhere, done only when some entry needs it.  The real
    part is log|gamma(z)|, but left of Re z = 0.5 the imaginary part is not
    the principal branch: use the value through exp() or its real part.  The
    poles are not checked (complex_gamma does that).
    """
    z = np.asarray(z, dtype=complex)
    left = z.real < 0.5
    reflect = left.any()
    w = np.where(left, -z, z - 1.0) if reflect else z - 1.0  # at z or 1 - z
    series = np.full_like(w, _LANCZOS_C[0])
    for k in range(1, len(_LANCZOS_C)):
        series = series + _LANCZOS_C[k] / (w + k)
    t = w + _LANCZOS_G + 0.5
    out = np.asarray(_LOG_SQRT_2PI + (w + 0.5) * np.log(t) - t + np.log(series))
    if reflect:
        zl = z[left]
        far = np.abs(zl.imag) > 20.0
        if far.any():
            # sin(pi z) overflows past |Im z| ~ 226; beyond |Im z| = 20 its
            # log is log(i s/2) - i s pi z with s = sign(Im z), up to the
            # factor 1 - e^{2 pi i s z}, which is 1 within e^{-40 pi}
            s = np.where(zl.imag < 0.0, -1.0, 1.0)
            log_sin = np.where(far, np.log(0.5j * s) - 1j * s * np.pi * zl,
                               np.log(np.sin(np.pi * np.where(far, 0.5, zl))))
        else:
            log_sin = np.log(np.sin(np.pi * zl))
        out[left] = _LOG_PI - log_sin - out[left]
    return complex(out) if out.ndim == 0 else out


def complex_gamma(z: complex) -> complex:
    """Gamma function on the test domain |Re z| <= 50, |Im z| <= 50.

    Raises PoleError at the non-positive integers.
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == round(z.real):
        raise PoleError(f"gamma pole at z={z}")
    return cmath.exp(log_gamma(z))


# --------------------------------------------------------------------------
# Double-double compensated arithmetic for the terminating series.
#
# The terminating sums cancel violently: intermediate terms can exceed the
# result by factors of 1e6..1e10 at degree ~10, which caps plain double
# precision near 1e-9 relative error.  Keeping each term (and the ascending
# running sum) as an unevaluated double+double pair removes that cap without
# reordering or restructuring the series.

_SPLITTER = 134217729.0  # 2**27 + 1


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a, b):
    p = a * b
    at = _SPLITTER * a
    ah = at - (at - a)
    al = a - ah
    bt = _SPLITTER * b
    bh = bt - (bt - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_add(xh, xl, yh, yl):
    sh, se = _two_sum(xh, yh)
    se += xl + yl
    h = sh + se
    return h, se - (h - sh)


def _dd_mul(xh, xl, yh, yl):
    ph, pe = _two_prod(xh, yh)
    pe += xh * yl + xl * yh
    h = ph + pe
    return h, pe - (h - ph)


def _dd_div(xh, xl, yh, yl):
    q1 = xh / yh
    th, te = _two_prod(q1, yh)
    rh, rl = _dd_add(xh, xl, -th, -(te + q1 * yl))
    q2 = (rh + rl) / yh
    h = q1 + q2
    return h, q2 - (h - q1)


def _cdd(z):
    z = complex(z)
    return (z.real, 0.0, z.imag, 0.0)


def _cdd_add(x, y):
    rh, rl = _dd_add(x[0], x[1], y[0], y[1])
    ih, il = _dd_add(x[2], x[3], y[2], y[3])
    return (rh, rl, ih, il)


def _cdd_mul(x, y):
    ach, acl = _dd_mul(x[0], x[1], y[0], y[1])
    bdh, bdl = _dd_mul(x[2], x[3], y[2], y[3])
    adh, adl = _dd_mul(x[0], x[1], y[2], y[3])
    bch, bcl = _dd_mul(x[2], x[3], y[0], y[1])
    rh, rl = _dd_add(ach, acl, -bdh, -bdl)
    ih, il = _dd_add(adh, adl, bch, bcl)
    return (rh, rl, ih, il)


def _cdd_div(x, y):
    d2h, d2l = _dd_mul(y[0], y[1], y[0], y[1])
    d3h, d3l = _dd_mul(y[2], y[3], y[2], y[3])
    dh, dl = _dd_add(d2h, d2l, d3h, d3l)
    n = _cdd_mul(x, (y[0], y[1], -y[2], -y[3]))
    rh, rl = _dd_div(n[0], n[1], dh, dl)
    ih, il = _dd_div(n[2], n[3], dh, dl)
    return (rh, rl, ih, il)


def _cdd_value(x):
    return complex(x[0] + x[1], x[2] + x[3])


_CDD_ONE = (1.0, 0.0, 0.0, 0.0)
_CDD_ZERO = (0.0, 0.0, 0.0, 0.0)


def hypergeometric_F(num, den, z: complex, n_terms: int) -> complex:
    """Truncated hypergeometric sum of the first n_terms+1 terms.

    Terms are accumulated in ascending order; the terms and the running sum
    are carried in compensated double-double precision so that the heavy
    cancellation of terminating series does not erode the result.  A
    vanishing denominator Pochhammer before termination raises PoleError.
    """
    if n_terms < 0:
        raise DomainError(f"n_terms must be >= 0, got {n_terms}")
    num = [complex(a) for a in num]
    den = [complex(b) for b in den]
    zc = _cdd(z)
    term = _CDD_ONE
    total = _CDD_ZERO
    for k in range(n_terms + 1):
        total = _cdd_add(total, term)
        if k == n_terms:
            break
        ratio = _CDD_ONE
        done = False
        for a in num:
            f = _cdd_add(_cdd(a), _cdd(k))
            if f[0] == 0.0 and f[2] == 0.0:
                done = True  # a numerator parameter hit -k: series terminated
                break
            ratio = _cdd_mul(ratio, f)
        if done:
            break
        for b in den:
            f = _cdd_add(_cdd(b), _cdd(k))
            if f[0] == 0.0 and f[2] == 0.0:
                raise PoleError(
                    f"denominator parameter {b} produced a zero Pochhammer "
                    f"factor at term {k + 1}"
                )
            ratio = _cdd_div(ratio, f)
        ratio = _cdd_div(ratio, _cdd(k + 1))
        term = _cdd_mul(_cdd_mul(term, ratio), zc)
    return _cdd_value(total)


def basic_hypergeometric_phi(num, den, q: float, z: complex, n_terms: int) -> complex:
    """Basic hypergeometric sum r_phi_s through n_terms+1 terms.

    Includes the ((-1)^k q^(k(k-1)/2))^(1+s-r) factor attached to each term,
    so non-standard (r, s) combinations evaluate correctly.  Same ascending
    double-double accumulation as hypergeometric_F.
    """
    q = _check_q(q)
    if n_terms < 0:
        raise DomainError(f"n_terms must be >= 0, got {n_terms}")
    num = [_cdd(a) for a in num]
    den = [_cdd(b) for b in den]
    zc = _cdd(z)
    excess = 1 + len(den) - len(num)
    term = _CDD_ONE
    total = _CDD_ZERO
    qk = (1.0, 0.0)  # q^k as a real double-double
    for k in range(n_terms + 1):
        total = _cdd_add(total, term)
        if k == n_terms:
            break
        qk_c = (qk[0], qk[1], 0.0, 0.0)
        ratio = _CDD_ONE
        done = False
        for a in num:
            prod = _cdd_mul(a, qk_c)
            f = _cdd_add(_CDD_ONE, (-prod[0], -prod[1], -prod[2], -prod[3]))
            if f[0] == 0.0 and f[2] == 0.0:
                done = True
                break
            ratio = _cdd_mul(ratio, f)
        if done:
            break
        for b in den:
            prod = _cdd_mul(b, qk_c)
            f = _cdd_add(_CDD_ONE, (-prod[0], -prod[1], -prod[2], -prod[3]))
            if f[0] == 0.0 and f[2] == 0.0:
                raise PoleError(
                    "a denominator parameter produced a zero q-Pochhammer "
                    f"factor at term {k + 1}"
                )
            ratio = _cdd_div(ratio, f)
        qq = _dd_mul(qk[0], qk[1], q, 0.0)  # q^{k+1}
        f = _cdd_add(_CDD_ONE, (-qq[0], -qq[1], 0.0, 0.0))
        ratio = _cdd_div(ratio, f)  # the (q;q)_k factor
        if excess > 0:
            neg_qk = (-qk[0], -qk[1], 0.0, 0.0)
            for _ in range(excess):
                ratio = _cdd_mul(ratio, neg_qk)
        elif excess < 0:
            neg_qk = (-qk[0], -qk[1], 0.0, 0.0)
            for _ in range(-excess):
                ratio = _cdd_div(ratio, neg_qk)
        term = _cdd_mul(_cdd_mul(term, ratio), zc)
        qk = qq
    return _cdd_value(total)


# log (a;q)_inf multiplies its factors in runs and takes one log per run: a
# log per factor costs several times the product.  A factor's modulus is at
# most 1 + |a|max and, away from a zero of the product, about 1 - q or more,
# so a run of _RUN_LOG / max(log(1 + |a|max), -log(1 - q)) factors keeps its
# product within about e^(+-_RUN_LOG), far inside double range, as q -> 1
# or at large |a| alike
_RUN_LOG = 300.0
# the log form is the one for q near 1, which takes ~35 / (1 - q) factors
_LOG_TOL = SeriesTolerance(max_terms=2_000_000)


def log_q_pochhammer_inf(a, q: float, tol: SeriesTolerance = _LOG_TOL):
    """A logarithm of (a;q)_inf, elementwise over a scalar or an ndarray.

    Truncated as q_pochhammer_inf is, once |a|max q^k < tol.rel_eps.  The
    real part is log|(a;q)_inf|, -inf at a vanishing factor; the imaginary
    part is a sum of principal logs of partial products, so use the value
    through exp() or its real part.  For q near 1 the product itself
    underflows double range while its log does not.
    """
    q = _check_q(q)
    a = np.asarray(a, dtype=complex)
    amax = float(np.abs(a).max()) if a.size else 0.0
    n_factors = 0
    qk = 1.0
    while not amax * qk < tol.rel_eps:  # a NaN never converges
        n_factors += 1
        if n_factors >= tol.max_terms:
            raise ConvergenceError(
                f"log (a;q)_inf with |a| up to {amax}, q={q} did not reach "
                f"|a q^k| < {tol.rel_eps} within {tol.max_terms} factors"
            )
        qk *= q
    run = max(1, int(_RUN_LOG / max(math.log1p(amax), -math.log1p(-q))))
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


def q_gamma(z: complex, q: float, tol: SeriesTolerance = DEFAULT_TOL) -> complex:
    """q-gamma function (q;q)_inf / (q^z;q)_inf * (1-q)^(1-z).

    The two infinite products are combined in log space; for q close to 1
    each underflows on its own while the ratio stays finite.  A vanishing
    factor of (q^z;q)_inf, at z = 0, -1, -2, ..., raises PoleError.
    """
    q = _check_q(q)
    z = complex(z)
    qz = cmath.exp(z * math.log(q))
    log_num = log_q_pochhammer_inf(q, q, tol)
    log_den = log_q_pochhammer_inf(qz, q, tol)
    if log_den.real == -math.inf:
        raise PoleError(f"q-gamma pole at z={z}: (q^z;q)_inf has a vanishing factor")
    return cmath.exp(log_num - log_den + (1.0 - z) * math.log(1.0 - q))
