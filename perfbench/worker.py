"""One fresh interpreter of a benchmark run.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE ROLE

It imports dqm from the checkout, prepares the workload's inputs and prints
READY: the launching process takes the time until then as set-up time.  With
ROLE "setup" it stops there.  With ROLE "measure" it runs whole rounds of the
workload until SECONDS have passed, one call at a time, and prints one JSON
line with the raw outputs and timings; the launching process checks them.
Timings are in reference seconds (calib.py), raw wall times ride along.
ROLE "probe" (cli-cold) asks `validate` about each stress parameter set.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time
import warnings
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calib  # noqa: E402
import inputs  # noqa: E402

clock = time.perf_counter


def _pair(v) -> list:
    v = complex(v)
    return [v.real, v.imag]


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def import_dqm(cli: bool = False):
    sys.path.insert(0, inputs.SRC)
    import dqm

    if cli:
        import dqm.cli  # noqa: F401
    where = os.path.realpath(dqm.__file__)
    if not where.startswith(os.path.realpath(inputs.SRC) + os.sep):
        raise SystemExit(f"dqm imported from {where}, not from {inputs.SRC}")
    return dqm


class Signals:
    """Counts UserWarnings (e.g. ConditioningWarning) as the program signals them."""

    def __init__(self):
        self.count = 0
        warnings.simplefilter("always")
        warnings.showwarning = self._show

    def _show(self, message, category, *args, **kwargs):
        if issubclass(category, UserWarning):
            self.count += 1


# ---------------------------------------------------------------- verify

def setup_verify_matrix(dqm, seed):
    fixtures = inputs.load_fixtures()
    params = {
        (family, fx): dqm.fixture_params(family, fx)
        for family in inputs.FAMILIES
        for fx in fixtures[family]
    }
    configs = {suite: dqm.VerifyConfig(n_max=inputs.VERIFY_N_MAX,
                                       seed=inputs.LADDER_SEED if suite == "ladder" else seed)
               for suite in inputs.SUITES}
    return params, configs, inputs.spot_cells(seed, fixtures)


def measure_verify_matrix(dqm, state, seconds):
    params, configs, _spots = state
    run_suite = dqm.run_suite
    speed = calib.SpeedClock()
    rounds = []
    t_run = clock()
    while True:
        calls = []
        t_pass = clock()
        for (family, fx), p in params.items():
            for suite in inputs.SUITES:
                f0 = speed.now()
                t0 = clock()
                try:
                    results = run_suite(suite, family, p, configs[suite])
                    out, err = [[r.check_id, r.passed, r.max_residual, r.tolerance]
                                for r in results], None
                except Exception as exc:  # counted as a failed operation
                    out, err = None, _error(exc)
                secs = clock() - t0
                calls.append([family, fx, suite, speed.scaled(secs, f0), out, err])
        rounds.append({"raw_pass_s": clock() - t_pass,
                       "pass_s": sum(c[3] for c in calls), "calls": calls})
        if clock() - t_run >= seconds:
            return rounds


def spot_values(dqm, state):
    """P_n at the spot points and E_n, once per run: outputs to check, not
    timed.  Each carries whether a UserWarning was raised while its P_n was
    built or evaluated."""
    params, _configs, spots = state
    out = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for family, fx, n, idx in spots:
            p = params[(family, fx)]
            pool = inputs.pool(family)
            start = len(caught)
            try:
                poly = dqm.eval_poly_recurrence(family, p, n)
                values = [_pair(poly.eval(pool[i])) for i in idx]
                energy, err = dqm.energy(family, p, n), None
            except Exception as exc:  # a wrong spot value makes the run incorrect
                values, energy, err = None, None, _error(exc)
            signalled = any(issubclass(w.category, UserWarning) for w in caught[start:])
            out.append([values, energy, err, signalled])
    return out


# ------------------------------------------------------------ eval paths

def setup_eval_dual_path(dqm, seed):
    params = {family: dqm.fixture_params(family, "default") for family in inputs.FAMILIES}
    pools = {family: inputs.pool(family) for family in inputs.FAMILIES}
    cells = [(family, n, path, [pools[family][i] for i in idx])
             for family, n, path, _fault, idx in inputs.eval_cells(seed)]
    return params, cells


def measure_eval_dual_path(dqm, state, seconds):
    """Values go into flat arrays, so the outputs kept for checking add no
    objects for the garbage collector to scan while later rounds are timed."""
    params, cells = state
    signals = Signals()
    speed = calib.SpeedClock()
    recurrence, series = dqm.eval_poly_recurrence, dqm.eval_poly_hypergeometric
    rounds = []
    t_run = clock()
    while True:
        time_by_path = {"recurrence": 0.0, "series": 0.0}
        evals_by_path = {"recurrence": 0, "series": 0}
        values, flags, errors = array("d"), bytearray(), {}
        t_round = clock()
        for c, (family, n, path, etas) in enumerate(cells):
            p = params[family]
            start = len(flags)
            f0 = speed.now()
            t0 = clock()
            try:
                if path == "recurrence":
                    # a warning raised while P_n is built covers all its values
                    k = signals.count
                    poly = recurrence(family, p, n)
                    built = signals.count > k
                    for eta in etas:
                        k = signals.count
                        v = complex(poly.eval(eta))
                        values.append(v.real)
                        values.append(v.imag)
                        flags.append(built or signals.count > k)
                else:
                    for eta in etas:
                        k = signals.count
                        v = complex(series(family, p, n, eta))
                        values.append(v.real)
                        values.append(v.imag)
                        flags.append(signals.count > k)
            except Exception as exc:  # the cell's evaluations count as failed
                errors[c] = _error(exc)
                del values[2 * start:]
                del flags[start:]
                values.extend([math.nan] * (2 * len(etas)))
                flags.extend(bytes(len(etas)))
            time_by_path[path] += speed.scaled(clock() - t0, f0)
            evals_by_path[path] += len(etas)
        rounds.append({
            "raw_pass_s": clock() - t_round,
            "pass_s": time_by_path["recurrence"] + time_by_path["series"],
            "recurrence_ms": 1e3 * time_by_path["recurrence"] / evals_by_path["recurrence"],
            "series_ms": 1e3 * time_by_path["series"] / evals_by_path["series"],
            "values": values, "flags": flags, "errors": errors,
        })
        if clock() - t_run >= seconds:
            for r in rounds:
                r["values"], r["flags"] = r["values"].tolist(), list(r["flags"])
            return rounds


# ------------------------------------------------------------- cli-cold

def validate_probe(dqm) -> list:
    """Exit code of `table spectrum --n-max 0` per stress parameter set: 2 means
    that `validate` rejects the set, so `verify` may reject it too."""
    import contextlib
    import io

    codes = []
    for _fault, args in inputs.STRESS_CALLS:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            codes.append(dqm.cli.main(["table", "spectrum", *args, "--n-max", "0"]))
    return codes


# ----------------------------------------------------------------- main

def main(argv) -> int:
    workload, seed, seconds, trace, role = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    dqm = import_dqm(cli=workload == "cli-cold")
    if workload == "cli-cold":
        from dqm.fixtures import load_fixtures

        load_fixtures()
        state = None
    elif workload == "verify-matrix":
        state = setup_verify_matrix(dqm, seed)
    else:
        state = setup_eval_dual_path(dqm, seed)
    print("READY", flush=True)
    if role == "setup":
        return 0
    if role == "probe":
        sys.stdout.write(json.dumps(validate_probe(dqm)) + "\n")
        return 0
    doc = {}
    if workload == "verify-matrix":
        doc["spots"] = spot_values(dqm, state)
    rec = None
    if trace:
        import spans as tracing

        rec = tracing.install()
    measure = measure_verify_matrix if workload == "verify-matrix" else measure_eval_dual_path
    rounds = measure(dqm, state, seconds)
    doc["rounds"] = rounds
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if rec is not None:
        doc["layers"] = rec.summary(len(rounds))
        doc["counts"] = {k: v // len(rounds) for k, v in rec.counts.items()}
        out_dir = os.path.join(inputs.ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        rec.dump(os.path.join(out_dir, f"spans-{workload}.npz"))
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
