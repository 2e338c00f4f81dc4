"""Sweep every verify check over the bundled fixtures and report how close
each comes to its tolerance.

The seven pointwise suites run at verify seeds 0-99 on all 22 bundled
fixtures; the seed-free suites (orthogonality, hermiticity, limit,
number_operator) run once per fixture.  For each check the sweep prints its
worst residual, ten times that worst rounded up to two figures (the rule
behind the pointwise entries of dqm.verify.TOLERANCES) and the current
tolerance.  It exits 1 if any check misses its tolerance or any suite raises.
Every suite runs at --n-max levels (default 8, the verify default).

    python3 tools/sweep_tolerances.py [--n-max N]
"""

from __future__ import annotations

import argparse
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from dqm.families import FAMILIES  # noqa: E402
from dqm.fixtures import fixture_names, fixture_params  # noqa: E402
from dqm.verify import TOLERANCES, VerifyConfig, run_suite  # noqa: E402

POINTWISE = ("eigen", "shape_invariance", "closure", "dual_closure", "shifts",
             "ladder", "coherent")
SEED_FREE = ("orthogonality", "hermiticity", "limit", "number_operator")
SEEDS = range(100)


def two_figures_up(x: float) -> float:
    """x rounded up to two significant figures."""
    if not x > 0:
        return x
    e = math.floor(math.log10(x)) - 1
    return math.ceil(x / 10.0**e - 1e-9) * 10.0**e


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-max", type=int, default=8, metavar="N",
                        help="levels 0..N (default 8)")
    n_max = parser.parse_args().n_max
    worst: dict[str, tuple] = {}
    misses, errors = [], []
    runs = [(suite, seed) for seed in SEEDS for suite in POINTWISE]
    runs += [(suite, 0) for suite in SEED_FREE]
    fixtures = [(fam.spec.name, fx) for fam in FAMILIES.values()
                for fx in fixture_names(fam)]
    for family, fx in fixtures:
        p = fixture_params(family, fx)
        for suite, seed in runs:
            where = (family, fx, suite, seed)
            try:
                results = run_suite(suite, family, p, VerifyConfig(n_max=n_max, seed=seed))
            except Exception as exc:  # a suite that cannot run is reported
                errors.append((*where, f"{type(exc).__name__}: {exc}"))
                continue
            for r in results:
                if r.check_id not in worst or not r.max_residual <= worst[r.check_id][0]:
                    worst[r.check_id] = (r.max_residual, where)
                if not r.passed:
                    misses.append((*where, r.check_id, r.max_residual, r.tolerance))

    print(f"{'check':40s} {'worst':>9s} {'10x worst':>9s} {'tolerance':>9s}  at")
    for check_id in TOLERANCES:
        if check_id not in worst:
            continue
        w, (family, fx, suite, seed) = worst[check_id]
        print(f"{check_id:40s} {w:9.2g} {two_figures_up(10 * w):9.2g} "
              f"{TOLERANCES[check_id]:9.2g}  {family}/{fx} seed {seed}")
    for family, fx, suite, seed, check_id, residual, tol in misses:
        print(f"MISS {family}/{fx} {suite} seed {seed}: {check_id} {residual:.3g} > {tol:.3g}")
    for family, fx, suite, seed, message in errors:
        print(f"ERROR {family}/{fx} {suite} seed {seed}: {message}")
    print(f"{len(fixtures)} fixtures, {len(runs)} suite runs each: "
          f"{len(misses)} misses, {len(errors)} errors")
    return 1 if misses or errors else 0


if __name__ == "__main__":
    sys.exit(main())
