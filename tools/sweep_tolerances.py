"""Sweep every verify check over the bundled fixtures and report how close
each comes to its tolerance.

The seven pointwise suites run at verify seeds 0-99 on all 22 bundled
fixtures; the seed-free suites (orthogonality, hermiticity, limit,
number_operator) run once per fixture.  For each check the sweep prints its
worst residual, ten times that worst rounded up to two figures (the rule
behind the pointwise entries of dqm.verify.TOLERANCES), the current
tolerance, and where the worst occurs: the fixture and seed, then the level
and the sample point (the index along the last axis of the check's residual
array) that read it.  A check whose rows are not levels (coherent.*, limit.*,
shape_invariance.potential_identities and ground_state_shift) shows level
"-"; a check with no axis but the level (orthogonality.diagonal_norms,
hermiticity.diagonal_energy, spectrum_generation, number_operator) shows
point "-".  The residual arrays are read by wrapping `dqm.verify._fold`, which
run_suite calls once per check in the order of its results.  It exits 1 if
any check misses its tolerance or any suite raises.  Every suite runs at
--n-max levels (default 8, the verify default).

    python3 tools/sweep_tolerances.py [--n-max N]
"""

from __future__ import annotations

import argparse
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import dqm.verify as verify  # noqa: E402
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


def worst_at(residuals, levels: tuple) -> tuple:
    """(level, point) of the worst entry of a check's residual array, or of
    the arrays of a tuple: the first NaN if there is one.  The level is "-"
    where the rows are not the levels of the range, the point "-" where the
    array has no axis besides the levels."""
    arrays = residuals if isinstance(residuals, tuple) else (residuals,)
    worst = max((a for a in arrays if np.size(a)),
                key=lambda a: math.inf if np.isnan(a).any() else np.max(a), default=None)
    if worst is None:
        return "-", "-"
    at = np.unravel_index(np.argmax(worst), np.shape(worst))
    lo, hi = levels
    by_level = len(worst) == hi - lo + 1
    return (lo + at[0] if by_level else "-",
            at[-1] if np.ndim(worst) > 1 or not by_level else "-")


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
    fold, arrays = verify._fold, []

    def traced_fold(residuals):
        arrays.append(residuals)
        return fold(residuals)

    verify._fold = traced_fold
    try:
        for family, fx in fixtures:
            p = fixture_params(family, fx)
            for suite, seed in runs:
                where = (family, fx, suite, seed)
                arrays.clear()
                try:
                    results = run_suite(suite, family, p, VerifyConfig(n_max=n_max, seed=seed))
                except Exception as exc:  # a suite that cannot run is reported
                    errors.append((*where, f"{type(exc).__name__}: {exc}"))
                    continue
                for r, residuals in zip(results, arrays):
                    if r.check_id not in worst or not r.max_residual <= worst[r.check_id][0]:
                        worst[r.check_id] = (r.max_residual, where,
                                             worst_at(residuals, r.level_range))
                    if not r.passed:
                        misses.append((*where, r.check_id, r.max_residual, r.tolerance))
    finally:
        verify._fold = fold

    print(f"{'check':40s} {'worst':>9s} {'10x worst':>9s} {'tolerance':>9s}  at")
    for check_id in TOLERANCES:
        if check_id not in worst:
            continue
        w, (family, fx, suite, seed), (level, point) = worst[check_id]
        print(f"{check_id:40s} {w:9.2g} {two_figures_up(10 * w):9.2g} "
              f"{TOLERANCES[check_id]:9.2g}  {family}/{fx} seed {seed} "
              f"level {level} point {point}")
    for family, fx, suite, seed, check_id, residual, tol in misses:
        print(f"MISS {family}/{fx} {suite} seed {seed}: {check_id} {residual:.3g} > {tol:.3g}")
    for family, fx, suite, seed, message in errors:
        print(f"ERROR {family}/{fx} {suite} seed {seed}: {message}")
    print(f"{len(fixtures)} fixtures, {len(runs)} suite runs each: "
          f"{len(misses)} misses, {len(errors)} errors")
    return 1 if misses or errors else 0


if __name__ == "__main__":
    sys.exit(main())
