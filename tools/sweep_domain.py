"""Run every verify suite on random parameter sets across each family's
domain and report the checks that miss or raise.

One numpy.random.default_rng(7) runs through the families in registry
order.  For each family it draws parameter sets until six pass `validate`,
with at most 60 tries; the draws are

    continuous Hahn               a_j = U(0.05, 3) + i U(-1, 1)
    Meixner-Pollaczek             a = U(0.05, 5), phi = U(0.05, 3.09)
    Wilson, continuous dual Hahn  a_j = U(0.05, 4)
    the q families                q = U(0.1, 0.9), then
      Askey-Wilson, continuous dual q-Hahn, Al-Salam-Chihara and
      continuous big q-Hermite    a_j = U(-0.9, 0.9)
      continuous q-Jacobi and q-Laguerre   a_j = U(-0.45, 3)

Then a second generator, numpy.random.default_rng(8), draws six more sets
for each of the four Askey-Wilson rows with a_j parameters (Askey-Wilson,
continuous dual q-Hahn, Al-Salam-Chihara, continuous big q-Hermite) from
the same ranges and sets between one and all of their a_j to 0.  Such a
set lies in a smaller restriction and gets its q-identities; the table
lists it under its family's name with " +0" appended.

A third generator, numpy.random.default_rng(9), draws six sets each for
Wilson and continuous dual Hahn with one conjugate pair
a_1, a_2 = U(0.05, 1) +- i U(0.5, 3) and the other a_j = U(0.05, 4).  The
pair puts a narrow peak of the weight far from x = 0; these rows are
listed with " pair" appended.  No generator's draws depend on another's.

Each set then runs all 11 suites at VerifyConfig(n_max=--n-max, seed=1),
--n-max defaulting to 8, the verify default.  For each
(family, check) the sweep prints the worst residual, ten times that worst
rounded up to two figures and the current tolerance, as
`sweep_tolerances.py` does, and the number of misses; then every miss and
every suite that raised, with its parameters.  It exits 1 on any miss or
exception.

    python3 tools/sweep_domain.py [--n-max N]
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from dqm.families import ParamSet, ValidationError, family_names, get_family  # noqa: E402
from dqm.verify import SUITES, TOLERANCES, VerifyConfig, run_suite  # noqa: E402
from sweep_tolerances import two_figures_up  # noqa: E402

SETS = 6
TRIES = 60
ZERO_ROWS = ("askey-wilson", "continuous-dual-q-hahn", "al-salam-chihara",
             "continuous-big-q-hermite")
PAIR_ROWS = ("wilson", "continuous-dual-hahn")


def draw(rng, fam) -> ParamSet:
    """One random parameter set of `fam` from the ranges above."""
    name, n = fam.spec.name, fam.spec.n_params
    if name == "continuous-hahn":
        return ParamSet(a=[rng.uniform(0.05, 3) + 1j * rng.uniform(-1, 1) for _ in range(n)])
    if name == "meixner-pollaczek":
        return ParamSet(a=(rng.uniform(0.05, 5),), phi=rng.uniform(0.05, 3.09))
    if not fam.spec.uses_q:
        return ParamSet(a=rng.uniform(0.05, 4, n))
    q = rng.uniform(0.1, 0.9)
    if name in ("continuous-q-jacobi", "continuous-q-laguerre"):
        return ParamSet(a=rng.uniform(-0.45, 3, n), q=q)
    return ParamSet(a=rng.uniform(-0.9, 0.9, n), q=q)


def draw_with_zeros(rng, fam) -> ParamSet:
    """One draw of `fam` with between one and all of its a_j set to 0."""
    p = draw(rng, fam)
    n = fam.spec.n_params
    zero = rng.permutation(n)[: rng.integers(1, n + 1)]
    return ParamSet(a=[0.0 if j in zero else a for j, a in enumerate(p.a)], q=p.q)


def draw_pair(rng, fam) -> ParamSet:
    """One draw of `fam` whose a_1, a_2 are a conjugate pair."""
    re, im = rng.uniform(0.05, 1), rng.uniform(0.5, 3)
    rest = rng.uniform(0.05, 4, fam.spec.n_params - 2)
    return ParamSet(a=[re + 1j * im, re - 1j * im, *rest])


def valid_sets(rng, fam, draw_one=draw) -> list:
    sets = []
    for _ in range(TRIES):
        p = draw_one(rng, fam)
        try:
            fam.validate(p)
        except ValidationError:
            continue
        sets.append(p)
        if len(sets) == SETS:
            break
    return sets


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-max", type=int, default=8, metavar="N",
                        help="levels 0..N (default 8)")
    config = VerifyConfig(n_max=parser.parse_args().n_max, seed=1)
    rng, zero_rng, pair_rng = (np.random.default_rng(seed) for seed in (7, 8, 9))
    runs = [(family, p) for family in family_names()
            for p in valid_sets(rng, get_family(family))]
    runs += [(family + " +0", p) for family in ZERO_ROWS
             for p in valid_sets(zero_rng, get_family(family), draw_with_zeros)]
    runs += [(family + " pair", p) for family in PAIR_ROWS
             for p in valid_sets(pair_rng, get_family(family), draw_pair)]
    worst: dict[tuple, float] = {}
    n_miss: dict[tuple, int] = {}
    misses, errors = [], []
    calls = 0
    for family, p in runs:
        fam = get_family(family.split(" ")[0])
        for suite in SUITES:
            calls += 1
            try:
                results = run_suite(suite, fam, p, config)
            except Exception as exc:  # a suite that cannot run is reported
                errors.append((family, suite, p, f"{type(exc).__name__}: {exc}"))
                continue
            for r in results:
                key = (family, r.check_id)
                if key not in worst or not r.max_residual <= worst[key]:
                    worst[key] = r.max_residual
                n_miss[key] = n_miss.get(key, 0) + (not r.passed)
                if not r.passed:
                    misses.append((family, r.check_id, p, r.max_residual, r.tolerance))

    print(f"{'family':26s} {'check':40s} {'worst':>9s} {'10x worst':>9s} {'tolerance':>9s} misses")
    for (family, check_id), w in worst.items():
        print(f"{family:26s} {check_id:40s} {w:9.2g} {two_figures_up(10 * w):9.2g} "
              f"{TOLERANCES[check_id]:9.2g} {n_miss[(family, check_id)]:6d}")
    for family, check_id, p, residual, tol in misses:
        print(f"MISS {family} {p.as_dict()}: {check_id} {residual:.3g} > {tol:.3g}")
    for family, suite, p, message in errors:
        print(f"ERROR {family} {p.as_dict()} {suite}: {message}")
    print(f"{calls} suite calls: {len(misses)} misses, {len(errors)} errors")
    return 1 if misses or errors else 0


if __name__ == "__main__":
    sys.exit(main())
