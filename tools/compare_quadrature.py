"""Dump the quadrature matrices, the weights, the recurrence data and every
check's residual of the 22 bundled fixtures, and compare two dumps entry by
entry.

    python3 tools/compare_quadrature.py dump OUT.npz [--n-max N]
    python3 tools/compare_quadrature.py compare A.npz B.npz

`dump` runs the dqm of the checkout it sits in.  Per fixture it stores

    G, K        orthogonality_matrix and hermiticity_forms at levels
                0..N (default 8): the value and the l1 sum of each entry,
                the step of the refinement level the matrix accepted and
                the nodes its levels summed over, whether a pass of the
                ladder carried one level or two.  The step is the t step
                of that level's trapezoid, read off its grid: of the sin^2
                ladder on (0, pi), of the double-exponential rules on
                the unbounded intervals
    log_amp     log_amplitude at the 33 real points of
                dqm.operators.sample_points and at those points minus i gamma/2
    weight_sq   weight_square at the shifted parameters and the points
                minus i gamma/2, as the shape-invariance suite evaluates it
    a, b, c     Family.recurrence at level 62: a_0 .. a_61, b_0 .. b_61
                and c_0 .. c_62, whatever N is
    residuals   the max_residual of every check of the 11 suites at
                VerifyConfig(n_max=N), in suite order; a suite that
                raises stores NaN for one entry named after it

`compare` prints one line per fixture.  Each part shows its bit-identical
entries over its total and its largest difference: |delta| / (1 + l1) for
G and K, |delta Re| for log_amp (the imaginary part of a logarithm is only
defined modulo 2 pi), |delta| / (1 + |value|) for weight_sq, |delta| /
|value| for a, b and c (|delta| where the value is 0) and |delta| for the
residuals.  NaNs at the same place count as equal.  G and K also show
their accepted step and node count, and a step that differs between the
dumps is flagged `step A -> B !`; the last line counts the flagged
matrices.  A fixture or check in only one dump is reported as missing.  It
exits 1 if the two dumps differ in shape or naming, 0 otherwise.

To compare two commits, run the same copy of this script in each
checkout, since a dump runs the dqm of the checkout the script sits in.
A commit whose quadrature grids or `_levels` differ in name or shape
needs its own copy: this one reads `_levels` as passes of (nodes,
weights, level ends), a pass holding one or more levels.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import dqm.quadrature as quadrature  # noqa: E402
from dqm.families import FAMILIES  # noqa: E402
from dqm.fixtures import fixture_names, fixture_params  # noqa: E402
from dqm.operators import sample_points  # noqa: E402
from dqm.quadrature import hermiticity_forms, orthogonality_matrix  # noqa: E402
from dqm.verify import SUITES, VerifyConfig, run_suite  # noqa: E402

POINTS = 33
LEVELS = 62


def _refined(matrix, fam, p, n_max: int):
    """matrix(fam, p, n_max), the step of the refinement level it accepted
    and the number of nodes its levels yielded.  The quadrature's grid and
    its level generator are wrapped for the call.  The generator yields a
    pass at a time, whose `ends` count its levels, and it asks the grid for
    each level of a pass before it yields the pass; the matrix accepts the
    last level of the last pass it reads, the last level asked for.  A
    level's step h is a power of 2 on a double-exponential grid and pi
    times a power of 2 on the sin^2 grid, and the grid's h du/dt or h dx/dt
    reads it to a factor 1 + O(h^2):
    h pi/2 cosh t at the nodes nearest t = 0, 2 h sin^2 t at those nearest
    t = pi/2."""
    unbounded = fam.spec.interval[1] == math.inf
    grid_name = "_de_grid" if unbounded else "_sin2_grid"
    grid, levels = getattr(quadrature, grid_name), quadrature._levels
    steps, nodes, read = [], [], []

    def traced_grid(level):
        a, b = grid(level)
        steps.append(2.0 ** round(math.log2(2.0 * b.min() / math.pi)) if unbounded
                     else math.pi * 2.0 ** round(math.log2(0.5 * b.max() / math.pi)))
        return a, b

    def traced_levels(*args):
        for x, wx, ends in levels(*args):
            nodes.append(x.size)
            read.append(ends.size)
            yield x, wx, ends

    setattr(quadrature, grid_name, traced_grid)
    quadrature._levels = traced_levels
    try:
        terms = matrix(fam, p, n_max)
    finally:
        setattr(quadrature, grid_name, grid)
        quadrature._levels = levels
    return terms, steps[sum(read) - 1], sum(nodes)


def dump(path: str, n_max: int) -> None:
    out = {}
    config = VerifyConfig(n_max=n_max)
    for fam in FAMILIES.values():
        for fx in fixture_names(fam):
            key = f"{fam.spec.name}/{fx}"
            p = fixture_params(fam, fx)
            for name, matrix in (("G", orthogonality_matrix), ("K", hermiticity_forms)):
                terms, step, nodes = _refined(matrix, fam, p, n_max)
                out[f"{key}/{name}"] = terms.val
                out[f"{key}/{name}_l1"] = terms.mag
                out[f"{key}/{name}_step"] = step
                out[f"{key}/{name}_nodes"] = nodes
            x = np.asarray(sample_points(fam, p, POINTS))
            w = x - 0.5j * fam.gamma(p)
            out[f"{key}/log_amp"] = fam.log_amplitude(p, np.concatenate([x, w]))
            out[f"{key}/weight_sq"] = fam.weight_square(fam.shifted(p), w)
            for name, values in zip("abc", fam.recurrence(p, LEVELS)):
                out[f"{key}/{name}"] = np.array(values)
            ids, residuals = [], []
            for suite in SUITES:
                try:
                    results = run_suite(suite, fam, p, config)
                except Exception:  # a suite that cannot run is a NaN entry
                    ids.append(suite)
                    residuals.append(math.nan)
                    continue
                ids += [r.check_id for r in results]
                residuals += [r.max_residual for r in results]
            out[f"{key}/check_ids"] = np.array(ids)
            out[f"{key}/residuals"] = np.array(residuals)
    np.savez(path, n_max=n_max, **out)


def _same(a, b):
    """Elementwise: the same bits, or NaN at both."""
    return (a == b) | (np.isnan(a) & np.isnan(b)) if np.isrealobj(a) else (
        _same(a.real, b.real) & _same(a.imag, b.imag))


def _worst(delta) -> float:
    delta = np.asarray(delta, dtype=float)
    return float(np.nanmax(delta)) if delta.size and not np.isnan(delta).all() else 0.0


def compare(path_a: str, path_b: str) -> int:
    a, b = np.load(path_a), np.load(path_b)
    bad = 0
    moved = 0
    if a["n_max"] != b["n_max"]:
        print(f"n_max differs: {a['n_max']} and {b['n_max']}")
        bad = 1
    keys = sorted({k.rsplit("/", 1)[0] for k in (*a.files, *b.files) if "/" in k})
    for key in keys:
        if f"{key}/G" not in a.files or f"{key}/G" not in b.files:
            print(f"{key:40s} missing from {path_a if f'{key}/G' not in a.files else path_b}")
            bad = 1
            continue
        if list(a[f"{key}/check_ids"]) != list(b[f"{key}/check_ids"]):
            print(f"{key:40s} the checks differ")
            bad = 1
            continue
        parts = []
        for name in ("G", "K", "log_amp", "weight_sq", "a", "b", "c", "residuals"):
            va, vb = a[f"{key}/{name}"], b[f"{key}/{name}"]
            if va.shape != vb.shape:
                parts.append(f"{name} shapes {va.shape} {vb.shape}")
                bad = 1
                continue
            delta = np.abs(va - vb)
            if name in ("G", "K"):
                delta = delta / (1.0 + a[f"{key}/{name}_l1"])
            elif name == "log_amp":
                delta = np.abs(va.real - vb.real)
            elif name == "weight_sq":
                delta = delta / (1.0 + np.abs(va))
            elif name in ("a", "b", "c"):
                delta = delta / np.where(va == 0, 1.0, np.abs(va))
            same = int(_same(va, vb).sum())
            parts.append(f"{name} {same}/{va.size} {_worst(delta):.2g}")
            if name in ("G", "K"):
                step_a, step_b = float(a[f"{key}/{name}_step"]), float(b[f"{key}/{name}_step"])
                nodes = f"nodes {a[f'{key}/{name}_nodes']}->{b[f'{key}/{name}_nodes']}"
                if step_a == step_b:
                    parts[-1] += f" step {step_a:.4g} {nodes}"
                else:
                    parts[-1] += f" step {step_a:.4g} -> {step_b:.4g} ! {nodes}"
                    moved += 1
        print(f"{key:40s} " + "  ".join(parts))
    print(f"{moved} matrices changed their accepted step")
    return bad


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    d = sub.add_parser("dump", help="write one dump")
    d.add_argument("path")
    d.add_argument("--n-max", type=int, default=8, metavar="N", help="levels 0..N (default 8)")
    c = sub.add_parser("compare", help="compare two dumps")
    c.add_argument("a")
    c.add_argument("b")
    args = parser.parse_args()
    if args.command == "dump":
        dump(args.path, args.n_max)
        return 0
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
