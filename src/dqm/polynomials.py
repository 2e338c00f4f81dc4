"""The eigenpolynomials as their three-term recurrence.

An EtaPolynomial P_n holds the recurrence data of P_0 .. P_n, real floats,
and evaluates them on the values themselves: the monic P^_k obey

    P^_{k+1} = (eta - a_k) P^_k - b_k P^_{k-1},   P^_0 = 1,  P^_{-1} = 0,

and P_k = c_k P^_k.  Stepping the values keeps the error at a few units of
round-off in the size of the terms (Gautschi, SIAM Rev. 9 (1967) 24), at
any degree; expanding into powers of eta instead would cancel digits.  One
pass yields every level P_0 .. P_n at once.

eta is a Python scalar or an ndarray.  A scalar steps in its own type: a
real eta in float arithmetic, whose value has imaginary part exactly 0, and
a complex eta in complex arithmetic.  A Python float goes straight to the
loop; any other real scalar, such as the complex with imaginary part 0 that
`Family.eta` gives on the real axis, steps as the float it converts to.  An
ndarray steps in complex arithmetic with complex scalars: numpy dispatches a
ufunc on a complex array and a Python float more slowly than on a complex
array and a Python complex (1.4-1.5 against 1.2-1.3 us for a 40-point
`subtract` or `multiply`, numpy 2.4.6 on a 2-CPU x86-64 machine), and the
lattices the operators act on are complex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["EtaPolynomial", "DegeneracyError"]


class DegeneracyError(ArithmeticError):
    """Recurrence ascent hit a vanishing leading coefficient A_k."""


@dataclass(frozen=True)
class EtaPolynomial:
    """P_n in the sinusoidal coordinate as its recurrence data
    a_0 .. a_{n-1}, b_0 .. b_{n-1} and the scales c_0 .. c_n."""

    a: tuple
    b: tuple
    c: tuple

    @classmethod
    def ascend(cls, a, b, c, n: int) -> "EtaPolynomial":
        """P_0 .. P_n from the first levels of recurrence data a, b, c,
        which may run further; DegeneracyError where a leading coefficient
        A_k = c_k / c_{k+1}, k < n, vanishes."""
        for k in range(n):
            if c[k + 1] == 0 or c[k] / c[k + 1] == 0:
                raise DegeneracyError(f"A_{k} vanished while ascending to n={n}")
        return cls(a[:n], b[:n], c[:n + 1])

    @property
    def degree(self) -> int:
        return len(self.a)

    def _monic_values(self, eta: np.ndarray, rows=None):
        """Yield P^_0 .. P^_n at the array eta, level k stepped in place into
        rows[k % len(rows)]: by default a ring of three arrays, so that a
        value holds only until two more levels have been yielded."""
        if rows is None:
            rows = np.empty((3,) + eta.shape, dtype=complex)
        cur = rows[0, ...]
        cur[...] = 1.0
        yield cur
        # complex scalars, which numpy dispatches faster (module docstring)
        a, b = np.array((self.a, self.b), dtype=complex).tolist()
        step = np.empty(eta.shape, dtype=complex)
        for k, (a_k, b_k) in enumerate(zip(a, b)):
            nxt = np.subtract(eta, a_k, rows[(k + 1) % len(rows), ...])
            if k:  # P^_1 = eta - a_0, as P^_{-1} = 0
                np.multiply(nxt, cur, nxt)
                np.subtract(nxt, np.multiply(b_k, prev, step), nxt)
            prev, cur = cur, nxt
            yield cur

    def eval_levels(self, eta) -> np.ndarray:
        """P_0 .. P_n at eta, as a (n+1, *shape(eta)) array: the monic
        values stepped in place into its rows, then scaled by c_k at once."""
        eta = np.asarray(eta)
        out = np.empty((self.degree + 1,) + eta.shape, dtype=complex)
        for _ in self._monic_values(eta, out):
            pass
        c = np.array(self.c, dtype=complex)
        return np.multiply(out, c.reshape((-1,) + (1,) * eta.ndim), out)

    def eval(self, eta):
        """P_n at eta: a complex at a scalar eta, an array at an ndarray."""
        if isinstance(eta, np.ndarray):
            for value in self._monic_values(eta):
                pass
            return complex(self.c[-1]) * value
        if type(eta) is float:
            x = eta
        else:
            eta = complex(eta)
            x = eta if eta.imag else eta.real
        cur, prev = 1.0, 0.0
        for a_k, b_k in zip(self.a, self.b):
            prev, cur = cur, (x - a_k) * cur - b_k * prev
        return complex(self.c[-1] * cur)
