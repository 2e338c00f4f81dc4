"""Independent high-precision oracle for P_n and E_n of the eleven families.

P_n is recomputed in mpmath from the Koekoek-Swarttouw definitional
(q-)hypergeometric finite sums, in the normalisation of the source paper
(which is KS's); nothing here imports dqm.  Each sum runs at a working
precision that grows until it exceeds the cancellation of the sum
(log10 of max|term| / |sum|) by GUARD_DIGITS, so every stored value is
correct to double precision.

    python3 perfbench/oracle.py     # rewrites perfbench/oracle_data.json

The file records the inputs it was made from (fixture parameters read from
the checkout's fixtures.json, the point pools, the CLI points) and the hash
of this file; the benchmark refuses an oracle whose record does not match.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

import mpmath as mp

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402

GUARD_DIGITS = 30


def source_hash() -> str:
    with open(os.path.abspath(__file__), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ------------------------------------------------------------ finite sums

def _hyp_terms(num, den, z, n):
    """Terms of the terminating pFq(-n, ...; ...; z) (num includes -n)."""
    terms = [mp.mpc(1)]
    t = mp.mpc(1)
    for k in range(n):
        for a in num:
            t *= a + k
        for b in den:
            t /= b + k
        t *= z / (k + 1)
        terms.append(t)
    return terms


def _qhyp_terms(num, den, q, z, n):
    """Terms of the terminating r phi s(q^-n, ...; ...; q, z), KS (1.10.1)."""
    extra = 1 + len(den) - len(num)
    terms = [mp.mpc(1)]
    t = mp.mpc(1)
    qk = mp.mpf(1)
    for k in range(n):
        for a in num:
            t *= 1 - a * qk
        for b in den:
            t /= 1 - b * qk
        t *= z / (1 - qk * q)
        if extra:
            t *= (-qk) ** extra
        terms.append(t)
        qk *= q
    return terms


def _qpoch(a, q, n):
    out = mp.mpc(1)
    for k in range(n):
        out *= 1 - a * q**k
    return out


def _poch(a, n):
    out = mp.mpc(1)
    for k in range(n):
        out *= a + k
    return out


# ------------------------------------------------------- the eleven P_n

def _pn_terms(family, prm, n, eta):
    """(prefactor, terms) with P_n(eta) = prefactor * sum(terms)."""
    a = [mp.mpc(re, im) for re, im in prm["a"]]
    q = mp.mpf(prm["q"]) if prm.get("q") is not None else None
    if family in inputs.COS_FAMILIES:
        x = mp.acos(eta)
        z = mp.expj(x)
    elif family in inputs.SQUARE_FAMILIES:
        x = mp.sqrt(eta)
    else:
        x = eta
    one = mp.mpf(1)
    if family == "continuous-hahn":           # KS (1.4.1)
        a1, a2 = a
        a3, a4 = mp.conj(a1), mp.conj(a2)
        pref = mp.mpc(0, 1) ** n * _poch(a1 + a3, n) * _poch(a1 + a4, n) / mp.factorial(n)
        return pref, _hyp_terms([-n, n + a1 + a2 + a3 + a4 - 1, a1 + 1j * x],
                                [a1 + a3, a1 + a4], one, n)
    if family == "meixner-pollaczek":         # KS (1.7.1)
        lam = a[0]
        phi = mp.mpf(prm["phi"])
        pref = _poch(2 * lam, n) / mp.factorial(n) * mp.expj(n * phi)
        return pref, _hyp_terms([-n, lam + 1j * x], [2 * lam], 1 - mp.expj(-2 * phi), n)
    if family == "wilson":                    # KS (1.1.1)
        a1, a2, a3, a4 = a
        pref = _poch(a1 + a2, n) * _poch(a1 + a3, n) * _poch(a1 + a4, n)
        return pref, _hyp_terms([-n, n + a1 + a2 + a3 + a4 - 1, a1 + 1j * x, a1 - 1j * x],
                                [a1 + a2, a1 + a3, a1 + a4], one, n)
    if family == "continuous-dual-hahn":      # KS (1.3.1)
        a1, a2, a3 = a
        pref = _poch(a1 + a2, n) * _poch(a1 + a3, n)
        return pref, _hyp_terms([-n, a1 + 1j * x, a1 - 1j * x], [a1 + a2, a1 + a3], one, n)
    if family == "askey-wilson":              # KS (3.1.1)
        a1, a2, a3, a4 = a
        pref = a1 ** (-n) * _qpoch(a1 * a2, q, n) * _qpoch(a1 * a3, q, n) * _qpoch(a1 * a4, q, n)
        return pref, _qhyp_terms(
            [q ** (-n), a1 * a2 * a3 * a4 * q ** (n - 1), a1 * z, a1 / z],
            [a1 * a2, a1 * a3, a1 * a4], q, q, n)
    if family == "continuous-dual-q-hahn":    # KS (3.3.1)
        a1, a2, a3 = a
        pref = a1 ** (-n) * _qpoch(a1 * a2, q, n) * _qpoch(a1 * a3, q, n)
        return pref, _qhyp_terms([q ** (-n), a1 * z, a1 / z], [a1 * a2, a1 * a3], q, q, n)
    if family == "al-salam-chihara":          # KS (3.8.1)
        a1, a2 = a
        pref = a1 ** (-n) * _qpoch(a1 * a2, q, n)
        return pref, _qhyp_terms([q ** (-n), a1 * z, a1 / z], [a1 * a2, 0], q, q, n)
    if family == "continuous-big-q-hermite":  # KS (3.18.1)
        (a1,) = a
        return a1 ** (-n), _qhyp_terms([q ** (-n), a1 * z, a1 / z], [0, 0], q, q, n)
    if family == "continuous-q-hermite":      # KS (3.26.1)
        return z**n, _qhyp_terms([q ** (-n), 0], [], q, q**n / (z * z), n)
    if family == "continuous-q-jacobi":       # KS (3.10.1)
        al, be = (v.real for v in a)
        k = q ** ((2 * al + 1) / 4)
        pref = _qpoch(q ** (al + 1), q, n) / _qpoch(q, q, n)
        return pref, _qhyp_terms(
            [q ** (-n), q ** (n + al + be + 1), k * z, k / z],
            [q ** (al + 1), -q ** ((al + be + 1) / 2), -q ** ((al + be + 2) / 2)], q, q, n)
    if family == "continuous-q-laguerre":     # KS (3.19.1)
        al = a[0].real
        k = q ** ((2 * al + 1) / 4)
        pref = _qpoch(q ** (al + 1), q, n) / _qpoch(q, q, n)
        return pref, _qhyp_terms([q ** (-n), k * z, k / z], [q ** (al + 1), 0], q, q, n)
    raise KeyError(family)


def p_n(family, prm, n, eta) -> complex:
    """P_n at the exact double eta (or an mpmath expression of it)."""
    for dps in (50, 100, 200, 400, 800, 1600):
        with mp.workdps(dps):
            pref, terms = _pn_terms(family, prm, n, eta() if callable(eta) else mp.mpf(eta))
            s = mp.fsum(terms)
            big = max(abs(t) for t in terms)
            if s != 0 and mp.log10(big / abs(s)) + GUARD_DIGITS < dps:
                return complex(pref * s)
    raise ArithmeticError(f"{family} n={n} eta={eta}: no precision suffices")


def energy(family, prm, n) -> float:
    """E_n from the closed forms of the source paper."""
    with mp.workdps(50):
        a = [mp.mpc(re, im) for re, im in prm["a"]]
        q = mp.mpf(prm["q"]) if prm.get("q") is not None else None
        if family in ("continuous-hahn", "wilson"):
            b1 = sum(a) + (sum(mp.conj(v) for v in a) if family == "continuous-hahn" else 0)
            return float(mp.re(n * (n + b1 - 1)))
        if family == "meixner-pollaczek":
            return float(2 * n * mp.sin(mp.mpf(prm["phi"])))
        if family == "continuous-dual-hahn":
            return float(n)
        if family == "askey-wilson":
            b4 = mp.re(a[0] * a[1] * a[2] * a[3])
            return float((q ** (-n) - 1) * (1 - b4 * q ** (n - 1)))
        if family == "continuous-q-jacobi":
            al, be = (v.real for v in a)
            return float((q ** (-n) - 1) * (1 - q ** (n + al + be + 1)))
        return float(q ** (-n) - 1)


# ------------------------------------------------------------- the file

def _pair(v: complex) -> list:
    return [v.real, v.imag]


def build() -> dict:
    spec = inputs.oracle_inputs()
    fixtures = spec["fixtures"]
    P, E = {}, {}
    for family, table in fixtures.items():
        pool = spec["pool"][family]
        P[family], E[family] = {}, {}
        for fx, prm in table.items():
            top = spec["levels"][fx if fx == "default" else "other"]
            P[family][fx] = [[_pair(p_n(family, prm, n, eta)) for eta in pool]
                             for n in range(top + 1)]
            E[family][fx] = [energy(family, prm, n) for n in range(top + 1)]
        print(f"  {family}", file=sys.stderr, flush=True)
    cli = []
    for pt in spec["cli_points"]:
        prm = pt["params"]
        x = pt["x"]
        exact = {
            "cos": lambda: mp.cos(mp.mpf(x)),
            "square": lambda: mp.mpf(x) ** 2,
            "linear": lambda: mp.mpf(x),
        }[inputs.eta_kind(pt["family"])]
        cli.append({"P": _pair(p_n(pt["family"], prm, pt["n"], exact)),
                    "E": energy(pt["family"], prm, pt["n"])})
    return {"source_sha256": source_hash(), "inputs": spec, "P": P, "E": E, "cli": cli}


def main() -> int:
    t0 = time.perf_counter()
    doc = build()
    with open(inputs.ORACLE_FILE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {inputs.ORACLE_FILE} in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
