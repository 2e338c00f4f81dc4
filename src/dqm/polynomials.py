"""The eigenpolynomials as their three-term recurrence.

An EtaPolynomial P_n holds the recurrence data of P_0 .. P_n and evaluates
them on the values themselves: the monic P^_k obey

    P^_{k+1} = (eta - a_k) P^_k - b_k P^_{k-1},   P^_0 = 1,  P^_{-1} = 0,

and P_k = c_k P^_k.  Stepping the values keeps the error at a few units of
round-off in the size of the terms (Gautschi, SIAM Rev. 9 (1967) 24), at
any degree; expanding into powers of eta instead would cancel digits.  One
pass yields every level P_0 .. P_n at once.  eta is a Python complex (plain
scalar arithmetic) or an ndarray.
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

    def _monic_values(self, eta):
        """Yield P^_0 .. P^_n at eta.  At an ndarray each level is stepped
        in place into one of three arrays that take turns, so a value holds
        only until two more levels have been yielded."""
        if not isinstance(eta, np.ndarray):
            eta, cur, prev = complex(eta), 1.0, 0.0
            yield cur
            for a_k, b_k in zip(self.a, self.b):
                prev, cur = cur, (eta - a_k) * cur - b_k * prev
                yield cur
            return
        rows = np.empty((3,) + eta.shape, dtype=complex)
        prev, cur, spare = rows[0, ...], rows[1, ...], rows[2, ...]
        cur[...] = 1.0
        yield cur
        step = np.empty(eta.shape, dtype=complex)
        for k, (a_k, b_k) in enumerate(zip(self.a, self.b)):
            np.subtract(eta, a_k, spare)
            np.multiply(spare, cur, spare)
            # P^_{-1} = 0 at k = 0
            np.subtract(spare, np.multiply(b_k, prev, step) if k else b_k * 0.0, spare)
            prev, cur, spare = cur, spare, prev
            yield cur

    def eval_levels(self, eta) -> np.ndarray:
        """P_0 .. P_n at eta, as a (n+1, *shape(eta)) array."""
        if not np.ndim(eta):
            return np.array([c_k * v for c_k, v in zip(self.c, self._monic_values(eta))],
                            dtype=complex)
        out = np.empty((self.degree + 1,) + eta.shape, dtype=complex)
        for k, value in enumerate(self._monic_values(eta)):
            np.multiply(self.c[k], value, out[k])
        return out

    def eval(self, eta):
        """P_n at eta: a complex at a scalar eta, an array at an ndarray."""
        for value in self._monic_values(eta):
            pass
        return self.c[-1] * value
