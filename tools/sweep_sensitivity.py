"""Inject one small fault at a time into a family's own numbers and report,
for each verify check, the highest level at which some fault makes it fail.

A mutant at level n scales one number by (1 + 1e-9):

    a_{n-1}, b_{n-1}     the recurrence step of Family.recurrence that builds
                         P_n (none at level 0)
    c_n                  the scale of P_n
    E_n, f_n, b_n        Family.energy, f_shift and b_shift at n
    closure              one nonzero coefficient of Family.closure, which has
                         no level: the sweep counts it at level 0

The levels are 0, 1, 2, n_max/2, n_max - 1 and n_max, and on each family
the top reported level of every check that passes unmutated there: a check
whose range ends below n_max/2, or past n_max, is tried at its own top too.
Each mutant runs all 11 suites at VerifyConfig(n_max=--n-max) on the
`default` fixture of every family, --n-max defaulting to 8, the verify
default.  A check that fails unmutated on a family is left out for that
family.

For each check the sweep prints its reported level range and the highest
level at which some mutant fails it, the lowest over the families where it
runs and some mutant fails it.  A check falls short on a family when some
mutant fails it there, but none at the highest level tried there that it
reports.  One that no mutant fails anywhere is listed as not reached: these
mutants cannot test it.  Then the sweep lists each short check with its
families, and every suite that raised; its last line names the checks' top
levels that were tried beyond the fixed ones.  It exits 1 if any check
falls short.

    python3 tools/sweep_sensitivity.py [--n-max N]
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from dqm.families import FAMILIES  # noqa: E402
from dqm.fixtures import fixture_params  # noqa: E402
from dqm.verify import SUITES, TOLERANCES, VerifyConfig, run_suite  # noqa: E402

SCALE = 1 + 1e-9
RECURRENCE = {"a": 0, "b": 1, "c": 2}
LEVEL_METHODS = {"E": "energy", "f": "f_shift", "b_shift": "b_shift"}


def levels_of(n_max: int) -> list:
    return sorted({0, 1, 2, n_max // 2, n_max - 1, n_max} & set(range(n_max + 1)))


def mutants(fam, p, levels):
    """Yield (name, level, attribute, replacement) at the given levels: the
    family method to replace on the family object, and its faulty
    replacement."""
    recurrence = fam.recurrence
    for name, i in RECURRENCE.items():
        for level in levels:
            k = level if name == "c" else level - 1   # the entry that makes P_level
            if k < 0:
                continue

            def perturbed(params, n, i=i, k=k):
                data = list(recurrence(params, n))
                data[i] = tuple(v * SCALE if j == k else v for j, v in enumerate(data[i]))
                return tuple(data)
            yield f"{name}_{k}", level, "recurrence", perturbed
    for name, method in LEVEL_METHODS.items():
        exact = getattr(fam, method)
        for level in levels:
            def perturbed(params, n, exact=exact, level=level):
                return exact(params, n) * (SCALE if n == level else 1)
            yield f"{name}_{level}", level, method, perturbed
    closure = fam.closure
    cp = closure(p)
    for field in dataclasses.fields(cp):
        for j, v in enumerate(getattr(cp, field.name)):
            if v == 0:
                continue  # scaling it changes nothing

            def perturbed(params, field=field.name, j=j):
                out = closure(params)
                values = list(getattr(out, field))
                values[j] *= SCALE
                return dataclasses.replace(out, **{field: tuple(values)})
            yield f"closure.{field.name}[{j}]", 0, "closure", perturbed


def run_all(fam, p, config):
    """{check_id: CheckResult} over every suite, and the suites that raised."""
    results, errors = {}, []
    for suite in SUITES:
        try:
            results.update((r.check_id, r) for r in run_suite(suite, fam, p, config))
        except Exception as exc:  # a suite that cannot run is reported
            errors.append((suite, f"{type(exc).__name__}: {exc}"))
    return results, errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-max", type=int, default=8, metavar="N",
                        help="levels 0..N (default 8)")
    n_max = parser.parse_args().n_max
    config = VerifyConfig(n_max=n_max)
    tried = levels_of(n_max)
    warnings.simplefilter("ignore")
    reported: dict[str, dict] = {}   # check -> family -> level range
    caught: dict[str, dict] = {}     # check -> family -> levels failed
    tried_on: dict[str, list] = {}   # family -> levels tried
    errors = []
    for fam in FAMILIES.values():
        family = fam.spec.name
        p = fixture_params(family)
        clean, raised = run_all(fam, p, config)
        errors += [(family, "unmutated", *e) for e in raised]
        for check_id, r in clean.items():
            if r.passed:
                reported.setdefault(check_id, {})[family] = r.level_range
                caught.setdefault(check_id, {})[family] = set()
        tried_on[family] = sorted(set(tried).union(
            r.level_range[1] for r in clean.values() if r.passed))
        for name, level, attr, replacement in mutants(fam, p, tried_on[family]):
            setattr(fam, attr, replacement)
            try:
                results, raised = run_all(fam, p, config)
            finally:
                delattr(fam, attr)
            errors += [(family, name, *e) for e in raised]
            for check_id, r in results.items():
                if not r.passed and family in caught.get(check_id, {}):
                    caught[check_id][family].add(level)

    short = []
    print(f"{'check':40s} {'reported':>9s} {'caught to':>9s}  falls short on")
    for check_id in TOLERANCES:
        if check_id not in reported:
            continue
        tops = {family: max(levels, default=None) for family, levels in caught[check_id].items()}
        lo = min(r[0] for r in reported[check_id].values())
        hi = max(r[1] for r in reported[check_id].values())
        if all(top is None for top in tops.values()):
            print(f"{check_id:40s} {f'{lo}..{hi}':>9s} {'-':>9s}  not reached")
            continue
        behind = {}
        for family, (first, last) in reported[check_id].items():
            top = tops[family]
            inside = [level for level in tried_on[family] if first <= level <= last]
            if top is not None and inside and top < inside[-1]:
                behind[family] = top
        short += [(check_id, behind)] if behind else []
        caught_to = min((top for top in tops.values() if top is not None), default=None)
        print(f"{check_id:40s} {f'{lo}..{hi}':>9s} {caught_to:>9}  {len(behind) or '-'}")
    for check_id, behind in short:
        print(f"SHORT {check_id}: " + ", ".join(
            f"{family} to {'-' if top is None else top} of {reported[check_id][family][1]}"
            for family, top in behind.items()))
    for family, mutant, suite, message in errors:
        print(f"ERROR {family} {mutant} {suite}: {message}")
    extra = sorted(set().union(*tried_on.values()) - set(tried))
    print(f"{len(FAMILIES)} fixtures, levels {', '.join(map(str, tried))}"
          f" and the checks' tops {', '.join(map(str, extra)) or '-'}: "
          f"{len(short)} checks fall short, {len(errors)} errors")
    return 1 if short else 0


if __name__ == "__main__":
    sys.exit(main())
