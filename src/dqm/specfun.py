"""Complex special-function kernels: gamma, Pochhammer symbols, q-products,
terminating (q-)hypergeometric sums and the q-gamma function.

Everything here is a pure function of its arguments.  Scalar inputs give
scalar outputs.  The two log kernels, ``log_gamma`` and
``log_q_pochhammer_inf``, also take numpy arrays elementwise; the families'
ground states, h0 and the coherent closed forms are built from them.  A
ground state stacks all its factors' arguments into one array and makes
one kernel call, so a q-product runs to the largest |a| of the whole
array.  They return *a* logarithm: the real part is log|value|, the
imaginary part is right only modulo 2 pi, so use them through exp() or
their real part.
There is one infinite q-product kernel: ``q_pochhammer_inf`` is the
exponential of ``log_q_pochhammer_inf`` at a scalar.  It forms each run of
factors 1 - a q^k as one (factors x points) array, at most _BLOCK elements
at a time, so its memory stays O(a.size).

The terminating sums ``hypergeometric_F`` and ``basic_hypergeometric_phi``
serve the families' series path, the independent cross-check of the
recurrence.  Both are summed by one loop, ``_series``, in the standard
library's decimal floating point; each supplies only the factors of its
term ratio, sorted once per call into real factors, pair factors and
complex ones.  The real factors (k + 1, 1 - q^(k+1), -q^k, those of the
real parameters and a real z) are multiplied as plain Decimals.  An exact
(bitwise) conjugate pair of parameters, such as a1 +- ix at a real a1 and
x, gives one real factor, the product of its two: (a + k)^2 + b^2, or
(1 - a q^k)^2 + (b q^k)^2.  Complex arithmetic is kept to the factors with
a nonzero imaginary part that have no partner, and each term takes one
real division; with no such factor the imaginary part stays exactly 0.
The loop starts at 150 significant digits and checks each sum against its
own rounding bound, redoing it at the precision the bound asks for when it
misses, so the sum of the parameters as given is good to about one double
rounding however violently the series cancels.  ``hypergeometric_F`` can
also multiply its sum by the Pochhammer prefactor prod_j (b_j)_n of its
denominator parameters in the same pass, so the product is rounded once
and stays finite where the prefactor alone underflows or the sum alone
overflows the double range.
"""

from __future__ import annotations

import cmath
import decimal
import itertools
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np

__all__ = [
    "DomainError",
    "PoleError",
    "ConvergenceError",
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


def q_pochhammer_inf(a: complex, q: float) -> complex:
    """Infinite q-product (a;q)_inf at a scalar a: the exponential of
    log_q_pochhammer_inf, truncated by its rule, once |a q^k| < _REL_EPS.

    The omitted tail multiplies the result by factors within _REL_EPS of 1,
    so the relative error is bounded by ~ _REL_EPS / (1-q).
    """
    return cmath.exp(log_q_pochhammer_inf(complex(a), q))


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

# k and C_k of the terms C_k / (w + k), k = 1..8
_LANCZOS_K = np.arange(1, len(_LANCZOS_C))
_LANCZOS_C_K = np.array(_LANCZOS_C[1:])
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
    # the series C_0 + sum_k C_k / (w + k) as one stack of terms; a sum
    # over its leading axis adds them in row order, the loop's, but over
    # one point numpy sums pairwise, and an accumulation keeps the order
    terms = np.empty((len(_LANCZOS_C),) + w.shape, dtype=complex)
    terms[0] = _LANCZOS_C[0]
    k = _LANCZOS_K.reshape((-1,) + (1,) * w.ndim)
    np.divide(_LANCZOS_C_K.reshape(k.shape), w + k, out=terms[1:])
    series = (np.add.reduce(terms, axis=0) if w.size > 1
              else np.add.accumulate(terms, axis=0)[-1])
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
# The terminating sums, in decimal floating point.
#
# At q-levels past ~12 the terms exceed the result by 1e100 and more.  Every
# double converts to a Decimal exactly, so the rounding that remains is the
# working precision's, and `_series` checks each sum against its bound.

# the start precision: of the 12 648 series values at levels 0..30 of the
# default fixtures' 16 pool points and the dual-path test's points, 12 196
# (96 %) need no second pass, the other 452 take two and none a third; the
# counts are the same with conjugate pairs summed as complex factors
_DIGITS = 150
_ZERO, _ONE = Decimal(0), Decimal(1)
# accepted when the rounding bound is below _REL of |sum|, a tenth of the
# double rounding the result then gets, or below _TINY, the smallest
# positive double: a sum that cancels to zero stops at a bounded precision
_REL = Decimal("1e-17")
_TINY = Decimal(math.ulp(0.0))


def _split(params):
    """params as Decimals, sorted once into (real, cx).  real holds a real
    number (a Fraction, or a zero imaginary part) as (a, None), and an exact
    conjugate pair a +- ib, listed once, as (a, b): two numbers whose real
    parts are equal and whose imaginary parts are equal but for the sign,
    bit for bit, so that their two factors multiply to one real factor.  cx
    holds the other complex numbers as (real, imag).  A number converts
    exactly, a Fraction rounds to the working precision."""
    real, cx = [], []
    for v in params:
        if isinstance(v, Fraction):
            real.append((Decimal(v.numerator) / v.denominator, None))
        elif not (v := complex(v)).imag:
            real.append((Decimal(v.real), None))
        elif v.conjugate() in cx:
            cx.remove(v.conjugate())
            real.append((Decimal(v.real), Decimal(v.imag)))
        else:
            cx.append(v)
    return real, [(Decimal(v.real), Decimal(v.imag)) for v in cx]


def _pair(re, im):
    """(re + i im)(re - i im) = re^2 + im^2, the real product of a pair's
    two factors"""
    return re * re + im * im


def _series(ratios, params, z, n_terms: int, width: int, scale=None) -> complex:
    """Sum t_0 + ... + t_{n_terms} of t_0 = 1, t_{k+1} = t_k z ratio_k.

    ratios() yields, for k = 0, 1, ..., the factors (rnum, cnum, rden, cden)
    of ratio_k, the product of the numerator factors over the product of the
    denominator factors, formed at the working precision: the real ones as
    Decimals, the ones with a nonzero imaginary part as (real, imag) pairs;
    rden is never empty.  A real factor may be the product of a conjugate
    pair's two factors; width is the number of factors of a ratio, such a
    product counted as the two it stands for.  params are the numbers the
    factors are made of: a NaN or infinite one, or z, makes the sum complex
    NaN.  A real num factor that vanishes exactly ends the series; a real
    den factor that vanishes exactly raises PoleError (a complex factor, or
    a pair's product, never vanishes).  scale(), if given, returns a factor
    (real, imag) formed at the working precision, and the sum comes back
    multiplied by it before its one rounding to doubles.
    """
    if n_terms < 0:
        raise DomainError(f"n_terms must be >= 0, got {n_terms}")
    if not all(isinstance(v, Fraction) or cmath.isfinite(v) for v in (*params, z)):
        return complex(math.nan, math.nan)
    digits = _DIGITS
    while True:
        with decimal.localcontext(decimal.Context(prec=digits)):
            (zr, zc), steps = _split([z]), ratios()  # z: one more num factor
            zr = [a for a, _ in zr]
            t0, t1, re, im, size = _ONE, _ZERO, _ZERO, _ZERO, _ZERO
            for k in range(n_terms + 1):
                re += t0
                im += t1
                size += abs(t0) + abs(t1)
                if k == n_terms:
                    break
                rnum, cnum, rden, cden = next(steps)
                s = math.prod(zr + rnum)
                if not s:
                    break  # the series terminated
                d = math.prod(rden)
                if not d:
                    raise PoleError(f"a denominator factor vanishes at term {k + 1}")
                for a, b in zc + cnum:
                    t0, t1 = t0 * a - t1 * b, t0 * b + t1 * a
                if cden:
                    # t / c = t conj(c) / |c|^2: one real division per term
                    c0, c1 = cden[0]
                    for a, b in cden[1:]:
                        c0, c1 = c0 * a - c1 * b, c0 * b + c1 * a
                    t0, t1 = t0 * c0 + t1 * c1, t1 * c0 - t0 * c1
                    d *= c0 * c0 + c1 * c1
                s /= d
                t0, t1 = t0 * s, t1 * s
            # The rounding bound, to first order in u = 10^(1 - digits) / 2
            # and normwise, for F = width factors of a ratio, R real and C
            # complex: forming a factor rounds at most four times (a Fraction
            # parameter, q^k, a q^k, 1 - a q^k).  A real product or quotient
            # rounds once and a complex product adds 3u (Higham, Lemma 3.5).
            # A step takes at most R - 1 real products (s and d), C + 1
            # complex ones (z and the complex factors into t, c, t conj(c)),
            # 2u for |c|^2 and one rounding each for d |c|^2, s / d and its
            # product with t: R + 3C + 7 <= 3F + 5 in all, as R >= 1 (k + 1
            # or 1 - q^(k+1)).  A pair's product, (a + k)^2 + b^2 or
            # (1 - a q^k)^2 + (b q^k)^2, counts as the two factors it stands
            # for, 2 of F, and needs less than their 2 (4u + 3u): forming it
            # rounds at most 8u (q^k, a q^k, 1 - a q^k and its square make
            # 7u, b q^k and its square 5u, and a sum of two positive numbers
            # adds u to the larger), and it takes one real product into s or
            # d.  So t_k is off by at most k (7F + 5) u |t_k|, and each of the
            # n_terms + 1 additions by u sum |t_k|: in all at most (n_terms +
            # 1)(7F + 6) u sum |t_k| <= c (n_terms + 1) 10^(1 - digits) sum
            # |t_k|, c = 4 (F + 1).  A factor 1 - a q^k that cancels, a q^k
            # near 1, scales its roundings by |a q^k| / |1 - a q^k|, and a
            # pair's product by the same ratio of moduli, which c does not
            # count.  |re| + |im| bounds |t_k| from above, max(|re|, |im|)
            # bounds |sum| from below.
            bound = 4 * (width + 1) * (n_terms + 1) * size.scaleb(1 - digits)
            total = max(abs(re), abs(im))
            floor = max(_REL * total, _TINY)
            if bound <= floor:
                # a part not above the bound is rounding noise: a real sum
                # comes back real
                re = re if abs(re) > bound else _ZERO
                im = im if abs(im) > bound else _ZERO
                if scale:
                    # each factor of the scale rounds at most 5 times
                    # ((b + k)^2 + c^2 four times, and once into the
                    # product): with digits >= 150 its relative error stays
                    # far below _REL for any n_terms summed
                    p0, p1 = scale()
                    re, im = re * p0 - im * p1, re * p1 + im * p0
                return complex(float(re), float(im))
            # a sum not above its bound may be all rounding, and a floor read
            # off it would sink with it at every pass: aim at _TINY at once
            digits += (bound / (floor if bound < total else _TINY)).adjusted() + 1


def hypergeometric_F(num, den, z: complex, n_terms: int, scaled: bool = False) -> complex:
    """Truncated hypergeometric sum pFq of the first n_terms+1 terms.

    The term ratio is prod (a + k) / (prod (b + k) (k + 1)), summed by
    _series; a conjugate pair of parameters gives one real factor (a + k)^2
    + b^2.  A vanishing denominator Pochhammer before termination raises
    PoleError.  With scaled, the sum comes back multiplied by prod_j
    (b_j)_{n_terms} over the den parameters, formed from the same factors
    and rounded once with the sum.
    """

    def ratios():
        (ra, ca), (rb, cb) = _split(num), _split(den)
        for k in itertools.count():
            yield ([a + k if ai is None else _pair(a + k, ai) for a, ai in ra],
                   [(a + k, ai) for a, ai in ca],
                   [b + k if bi is None else _pair(b + k, bi) for b, bi in rb] + [k + 1],
                   [(b + k, bi) for b, bi in cb])

    def scale():
        rb, cb = _split(den)
        r, c0, c1 = _ONE, _ONE, _ZERO
        for k in range(n_terms):
            for b, bi in rb:
                r *= b + k if bi is None else _pair(b + k, bi)
            for b, bi in cb:
                c0, c1 = c0 * (b + k) - c1 * bi, c0 * bi + c1 * (b + k)
        return r * c0, r * c1

    return _series(ratios, [*num, *den], z, n_terms, len(num) + len(den) + 1,
                   scale if scaled else None)


def basic_hypergeometric_phi(num, den, q: float, z: complex, n_terms: int) -> complex:
    """Basic hypergeometric sum r_phi_s through n_terms+1 terms.

    The term ratio is prod (1 - a q^k) / (prod (1 - b q^k) (1 - q^(k+1)))
    times (-q^k)^(1+s-r), the ratio of the ((-1)^k q^(k(k-1)/2))^(1+s-r)
    factor attached to each term, so non-standard (r, s) combinations
    evaluate correctly; a conjugate pair of parameters gives one real factor
    (1 - a q^k)^2 + (b q^k)^2.  A parameter may be a Fraction, such as an
    exact q^-n; it is rounded only to the working precision of _series.
    """
    q = _check_q(q)
    excess = 1 + len(den) - len(num)

    def ratios():
        (ra, ca), (rb, cb), qd = _split(num), _split(den), Decimal(q)
        qk = _ONE
        for k in itertools.count(1):
            qq = qd**k  # q^(j+1) at step j = k - 1, rounded once
            # (-q^k)^excess: excess factors of num, or -excess of den
            # ([x] * m is empty for m <= 0)
            yield ([1 - a * qk if ai is None else _pair(1 - a * qk, ai * qk) for a, ai in ra]
                   + [-qk] * excess,
                   [(1 - a * qk, -ai * qk) for a, ai in ca],
                   [1 - b * qk if bi is None else _pair(1 - b * qk, bi * qk) for b, bi in rb]
                   + [1 - qq] + [-qk] * -excess,
                   [(1 - b * qk, -bi * qk) for b, bi in cb])
            qk = qq

    return _series(ratios, [*num, *den], z, n_terms, len(num) + len(den) + 1 + abs(excess))


# log (a;q)_inf multiplies its factors in runs and takes one log per run: a
# log per factor costs several times the product.  A factor's modulus is at
# most 1 + |a|max and, away from a zero of the product, about 1 - q or more,
# so a run of _RUN_LOG / max(log(1 + |a|max), -log(1 - q)) factors keeps its
# product within about e^(+-_RUN_LOG), far inside double range, as q -> 1
# or at large |a| alike
_RUN_LOG = 300.0
# the one truncation rule of (a;q)_inf: stop once |a|max q^k < _REL_EPS.
# The log form is the one for q near 1, which takes ~35 / (1 - q) factors,
# so up to _MAX_FACTORS of them (q = 1 - 1.75e-5 at |a| = 1)
_REL_EPS = 1e-15
_MAX_FACTORS = 2_000_000
# a run's factors are formed as blocks of (factors x points) of at most this
# many elements (1 MiB of complex), so memory stays O(a.size) however many
# factors a run has
_BLOCK = 1 << 16


def _qpow(amax: float, q: float):
    """q^0 .. q^(n-1) as the running product 1, q, q*q, ..., n the number of
    factors of (a;q)_inf at |a| <= amax: the first k with amax q^k < _REL_EPS.

    n is read off the same running product, formed to the log estimate of n
    plus a margin: the product is within ~k 1.1e-16 of q^k, and one factor
    moves it by 1 - q >= 1.75e-5 here, so the estimate is off by under one."""
    if not math.isfinite(amax):
        raise ConvergenceError(f"log (a;q)_inf with |a| up to {amax}: not a finite number")
    if amax < _REL_EPS:
        return np.ones(0)
    estimate = math.log(_REL_EPS / amax) / math.log(q)
    if estimate < _MAX_FACTORS + 2:
        qpow = np.full(min(int(estimate) + 4, _MAX_FACTORS), q)
        qpow[0] = 1.0
        qpow = np.multiply.accumulate(qpow)
        small = amax * qpow < _REL_EPS
        if small.any():
            return qpow[: np.argmax(small)]
    raise ConvergenceError(
        f"log (a;q)_inf with |a| up to {amax}, q={q} did not reach "
        f"|a q^k| < {_REL_EPS} within {_MAX_FACTORS} factors"
    )


def log_q_pochhammer_inf(a, q: float):
    """A logarithm of (a;q)_inf, elementwise over a scalar or an ndarray.

    Truncated once |a|max q^k < _REL_EPS, at most _MAX_FACTORS factors; a
    product that needs more, or a non-finite |a|, raises ConvergenceError.  The
    real part is log|(a;q)_inf|, -inf at a vanishing factor; the imaginary
    part is a sum of principal logs of partial products, so use the value
    through exp() or its real part.  For q near 1 the product itself
    underflows double range while its log does not.

    Each run of factors is one (factors x points) array 1 - q^k a, reduced
    by a product over the factors and one log; a run longer than _BLOCK /
    a.size factors is split over blocks, the running product multiplied
    into the next block's first row.  The arithmetic is that of the loop
    prod *= 1 - a q^k, in the same order.
    """
    q = _check_q(q)
    a = np.asarray(a, dtype=complex)
    amax = float(np.abs(a).max()) if a.size else 0.0
    qpow = _qpow(amax, q)
    n_factors = len(qpow)
    run = max(1, int(_RUN_LOG / max(math.log1p(amax), -math.log1p(-q))))
    flat = a.ravel()
    rows = max(1, _BLOCK // max(flat.size, 1))
    out = np.zeros_like(flat)
    with np.errstate(divide="ignore"):
        for start in range(0, n_factors, run):
            stop = min(start + run, n_factors)
            prod = None
            for lo in range(start, stop, rows):
                block = np.multiply.outer(qpow[lo:min(lo + rows, stop)], flat)
                np.subtract(1.0, block, out=block)
                if prod is not None:
                    np.multiply(prod, block[0], out=block[0])
                prod = np.multiply.reduce(block, axis=0)
            out += np.log(prod)
    out = out.reshape(a.shape)
    return complex(out) if out.ndim == 0 else out


def q_gamma(z: complex, q: float) -> complex:
    """q-gamma function (q;q)_inf / (q^z;q)_inf * (1-q)^(1-z).

    The two infinite products are combined in log space; for q close to 1
    each underflows on its own while the ratio stays finite.  A vanishing
    factor of (q^z;q)_inf, at z = 0, -1, -2, ..., raises PoleError.
    """
    q = _check_q(q)
    z = complex(z)
    qz = cmath.exp(z * math.log(q))
    log_num = log_q_pochhammer_inf(q, q)
    log_den = log_q_pochhammer_inf(qz, q)
    if log_den.real == -math.inf:
        raise PoleError(f"q-gamma pole at z={z}: (q^z;q)_inf has a vanishing factor")
    return cmath.exp(log_num - log_den + (1.0 - z) * math.log(1.0 - q))
