"""Regenerate tests/golden_weights.json: the ground-state weight of every
bundled fixture, evaluated once in mpmath at 40 digits.

For each of the 22 fixtures the file holds 5 sample points x and, at each,

    phi0(x; lambda)                        = |g(x; lambda)|
    weight_square(x - i gamma/2; lambda + delta)
                                           = g(w) conj(g(conj w)),

the second at the shifted parameters, where the shifted ground-state
identity of the shape_invariance suite evaluates it.  The amplitudes g are
the standard ones (Koekoek, Lesky and Swarttouw, Hypergeometric Orthogonal
Polynomials and Their q-Analogues, 2010):

    continuous Hahn          Gamma(a1 + iw) Gamma(a2 + iw)
    Meixner-Pollaczek        e^{(phi - pi/2) w} Gamma(a + iw)
    Wilson, cont. dual Hahn  prod Gamma(a_i + iw) / Gamma(2iw)
    the cos-x families       (e^{2iw}; q)_inf / prod (a_i e^{iw}; q)_inf

The cos-x families are written here in Askey-Wilson parameters through their
own maps, and the shift lambda + delta is written out per family, so the
constants share nothing with dqm's closed forms but the fixture values, the
sample points and the shift constant gamma.  mpmath is needed only to run
this script, not by the test that reads its output.

    python3 tools/golden_weights.py
"""

from __future__ import annotations

import json
import os
import sys

import mpmath as mp

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from dqm.families import FAMILIES  # noqa: E402
from dqm.fixtures import fixture_names, fixture_params  # noqa: E402
from dqm.operators import sample_points  # noqa: E402

OUT = os.path.join(ROOT, "tests", "golden_weights.json")
DIGITS = 40
POINTS = 5


def askey_wilson_a(name: str, a: tuple, q):
    """The family's parameters as the non-zero Askey-Wilson a_i."""
    if name in ("continuous-q-jacobi", "continuous-q-laguerre"):
        out = []
        for sign, v in zip((1, -1), a):
            s = q ** ((v + mp.mpf(0.5)) / 2)
            out += [sign * s, sign * s * mp.sqrt(q)]
        return out
    return [v for v in a if v != 0]


def shifted(name: str, a: tuple, q):
    """lambda + delta: exponents gain 1, q-parameters q^{1/2}, the rest 1/2."""
    if name in ("continuous-q-jacobi", "continuous-q-laguerre"):
        return tuple(v + 1 for v in a)
    if q is not None:
        return tuple(v * mp.sqrt(q) for v in a)
    return tuple(v + mp.mpf(0.5) for v in a)


def amplitude(name: str, a: tuple, q, phi, w):
    """g(w) at the parameters a (and q, phi where the family has them)."""
    if name == "continuous-hahn":
        return mp.gamma(a[0] + 1j * w) * mp.gamma(a[1] + 1j * w)
    if name == "meixner-pollaczek":
        return mp.exp((phi - mp.pi / 2) * w) * mp.gamma(a[0] + 1j * w)
    if name in ("wilson", "continuous-dual-hahn"):
        out = 1 / mp.gamma(2j * w)
        for v in a:
            out *= mp.gamma(v + 1j * w)
        return out
    z = mp.exp(1j * w)
    out = mp.qp(z * z, q)
    for v in askey_wilson_a(name, a, q):
        out /= mp.qp(v * z, q)
    return out


def weight_square(name, a, q, phi, w):
    return amplitude(name, a, q, phi, w) * mp.conj(
        amplitude(name, a, q, phi, mp.conj(w)))


def main() -> int:
    mp.mp.dps = DIGITS
    entries = []
    for fam in FAMILIES.values():
        name = fam.spec.name
        for fixture in fixture_names(fam):
            p = fixture_params(fam, fixture)
            a = tuple(mp.mpc(v) if v.imag else mp.mpf(v.real) for v in p.a)
            q = None if p.q is None else mp.mpf(p.q)
            phi = None if p.phi is None else mp.mpf(p.phi)
            a_s = shifted(name, a, q)
            gamma = fam.gamma(p)
            for x in sample_points(fam, p, POINTS):
                w = complex(x, -0.5 * gamma)  # x - i gamma/2, as a double
                phi0 = abs(amplitude(name, a, q, phi, mp.mpf(x)))
                ws = weight_square(name, a_s, q, phi, mp.mpc(w))
                entries.append({
                    "family": name,
                    "fixture": fixture,
                    "x": x,
                    "phi0": float(phi0),
                    "weight_square_shifted": [float(ws.real), float(ws.imag)],
                })
    comment = (f"phi0(x) and weight_square(shifted(p), x - i gamma/2) at {POINTS} "
               f"sample points of every bundled fixture, from mpmath at {DIGITS} "
               "digits; regenerate with tools/golden_weights.py")
    with open(OUT, "w", encoding="utf-8") as fh:
        # one entry a line, so that a regenerated file diffs line by line
        fh.write('{"comment": %s,\n "entries": [\n' % json.dumps(comment))
        fh.write(",\n".join("  " + json.dumps(e) for e in entries))
        fh.write("\n]}\n")
    print(f"{len(entries)} entries written to {os.path.relpath(OUT, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
