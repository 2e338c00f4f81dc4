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

from dataclasses import dataclass, replace

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

    @property
    def degree(self) -> int:
        return len(self.a)

    def _monic_values(self, eta):
        """Yield P^_0 .. P^_n at eta."""
        if isinstance(eta, np.ndarray):
            cur = np.ones(eta.shape, dtype=complex)
        else:
            eta, cur = complex(eta), 1.0
        prev = 0.0
        yield cur
        for a_k, b_k in zip(self.a, self.b):
            prev, cur = cur, (eta - a_k) * cur - b_k * prev
            yield cur

    def eval_levels(self, eta) -> np.ndarray:
        """P_0 .. P_n at eta, as a (n+1, *shape(eta)) array."""
        out = np.empty((self.degree + 1,) + np.shape(eta), dtype=complex)
        for k, value in enumerate(self._monic_values(eta)):
            out[k] = self.c[k] * value
        return out

    def eval(self, eta):
        """P_n at eta: a complex at a scalar eta, an array at an ndarray."""
        for value in self._monic_values(eta):
            pass
        return self.c[-1] * value

    def truncated(self, n: int) -> "EtaPolynomial":
        """P_n of the same ascent, with P_0 .. P_{n-1}."""
        return replace(self, a=self.a[:n], b=self.b[:n], c=self.c[: n + 1])

    def scaled(self, factor: complex) -> "EtaPolynomial":
        """Every level multiplied by factor."""
        return replace(self, c=tuple(c * factor for c in self.c))
