"""Benchmark of dqm: one workload, one seed, one run.

    python3 perfbench/run.py --workload verify-matrix --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md): verify-matrix, eval-dual-path, cli-cold.
Load comes from one closed-loop client: each call starts when the previous
one has returned.  The program runs in fresh interpreters started from here;
this process only times them and checks their outputs.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer ones with --trace 1.  The line before it records the machine and
the failed operations per named fault.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calib  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402

WORKLOADS = ("verify-matrix", "eval-dual-path", "cli-cold")
SETUP_SAMPLES = 13          # fresh interpreters timed to READY per run
RUN_DEADLINE_S = 170.0      # the whole run ends well inside 180 s
HEAVY_SUITES = ("coherent", "orthogonality", "hermiticity")
OUT_DIR = os.path.join(inputs.ROOT, ".bench_out")

clock = time.perf_counter


class BenchError(RuntimeError):
    """The run cannot produce a trustworthy result."""


def machine_record() -> dict:
    from importlib import metadata

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "loadavg_at_start": list(os.getloadavg()),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = inputs.SRC
    return env


class Deadline:
    def __init__(self, seconds: float):
        self.end = clock() + seconds

    def left(self) -> float:
        left = self.end - clock()
        if left <= 0:
            raise BenchError(f"run exceeded {RUN_DEADLINE_S} s")
        return left


@contextlib.contextmanager
def child(cmd, deadline: Deadline, **popen):
    """A child interpreter that is killed at the run deadline and always waited for."""
    left = deadline.left()
    proc = subprocess.Popen(cmd, cwd=inputs.ROOT, env=child_env(), **popen)
    killer = threading.Timer(left, proc.kill)
    killer.start()
    try:
        yield proc
    finally:
        killer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()


# ------------------------------------------------------------- workers

IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def parse_importtime(stderr: str) -> tuple[dict, str]:
    """(-X importtime records {module: (self_us, cumulative_us)}, other stderr)."""
    times, rest = {}, []
    for line in stderr.splitlines():
        m = IMPORT_LINE.match(line)
        if m:
            times.setdefault(m.group(4), (int(m.group(1)), int(m.group(2))))
        elif not line.startswith("import time: self"):
            rest.append(line)
    return times, "\n".join(rest)


def run_worker(args, role: str, deadline: Deadline, importtime: bool = False):
    """Start worker.py; return (raw seconds to READY, its JSON output, importtime)."""
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [os.path.join(HERE, "worker.py"), args.workload, str(args.seed),
            str(args.seconds), str(args.trace), role]
    os.makedirs(OUT_DIR, exist_ok=True)
    err_path = os.path.join(OUT_DIR, "worker.stderr")
    with open(err_path, "w") as err_file:
        t0 = clock()
        with child(cmd, deadline, stdout=subprocess.PIPE, text=True,
                   stderr=err_file if importtime else None) as proc:
            first = proc.stdout.readline()
            ready = clock() - t0
            out = proc.stdout.read()
            proc.wait()
    if proc.returncode < 0:
        raise BenchError(f"worker {role} was killed ({proc.returncode}), "
                         "at the run deadline or from outside")
    imports = {}
    if importtime:
        with open(err_path) as fh:
            imports, err = parse_importtime(fh.read())
        if err:
            sys.stderr.write(err + "\n")
    if proc.returncode != 0 or first.strip() != "READY":
        raise BenchError(f"worker {role} exited {proc.returncode} before finishing")
    lines = out.strip().splitlines()
    return ready, json.loads(lines[-1]) if lines else None, imports


def run_child(argv, deadline: Deadline) -> float:
    """Raw seconds of a child run to its end (the calibration reference child)."""
    t0 = clock()
    subprocess.run(argv, cwd=inputs.ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                   check=True, timeout=deadline.left())
    return clock() - t0


def setup_times(args, deadline: Deadline, kids) -> list:
    """Seconds from a fresh interpreter to READY, in reference seconds."""
    out = []
    for _ in range(SETUP_SAMPLES):
        kids.before()
        ready = run_worker(args, "setup", deadline)[0]
        out.append(kids.scaled(ready))
    return out


# ------------------------------------------------------------- results

class Tally:
    """Attempted and failed operations, failures sorted by named fault."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.by_fault: dict[str, int] = {}
        self.unexpected: list[str] = []

    def op(self, problem: str | None, fault: str | None, what: str) -> None:
        self.attempted += 1
        if problem is None:
            return
        self.failed += 1
        key = fault or "unledgered"
        self.by_fault[key] = self.by_fault.get(key, 0) + 1
        if fault is None and len(self.unexpected) < 20:
            self.unexpected.append(f"{what}: {problem}")


def layer_metrics(per_layer: list, layers: dict, counts: dict, imports: dict,
                  extra: dict) -> dict:
    """Every per-layer metric of BENCHMARK.json.  A traced name that was never
    called reads 0, and so does a module this workload never imports; a name
    the traced run does not know stops the run."""
    values = {}
    for name, (calls, self_s, total_s) in layers.items():
        if name.startswith("verify."):
            values[f"{name}.s"] = total_s
        else:
            values[f"{name}.calls"] = calls
            values[f"{name}.self_s"] = self_s
    values.update(counts)
    values.update(imports)
    values.update(extra)
    unknown = [m["name"] for m in per_layer
               if m["name"] not in values and not m["name"].startswith("import.")]
    if unknown:
        raise BenchError(f"the traced run does not measure {unknown}")
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
            for m in per_layer}


def import_metrics(samples: list) -> dict:
    """import.<module>.self_ms and .cumulative_ms, medians over the samples
    that import the module."""
    picked = {}
    for sample in samples:
        for module, (self_us, cumulative_us) in sample.items():
            picked.setdefault(f"import.{module}.self_ms", []).append(self_us / 1e3)
            picked.setdefault(f"import.{module}.cumulative_ms", []).append(cumulative_us / 1e3)
    return {name: statistics.median(v) for name, v in picked.items()}


def sum_layers(summaries: list, rounds: int) -> tuple[dict, dict]:
    layers, counts = {}, {}
    for s in summaries:
        for name, (calls, self_s, total_s) in s["layers"].items():
            c, t, u = layers.get(name, (0, 0.0, 0.0))
            layers[name] = (c + calls, t + self_s, u + total_s)
        for name, v in s["counts"].items():
            counts[name] = counts.get(name, 0) + v
    return ({k: (c // rounds, t / rounds, u / rounds) for k, (c, t, u) in layers.items()},
            {k: v // rounds for k, v in counts.items()})


# ------------------------------------------------------- verify-matrix

def verify_matrix(args, oracle, deadline, kids):
    setups = setup_times(args, deadline, kids)
    _, doc, imports = run_worker(args, "measure", deadline, importtime=args.trace)
    tally = Tally()
    light, heavy = [], []
    for rnd in doc["rounds"]:
        for family, fx, suite, secs, out, err in rnd["calls"]:
            (heavy if suite in HEAVY_SUITES else light).append(secs * 1e3)
            problem = err or checks.check_suite_results(family, suite, out)
            if (family, fx, suite) == ("askey-wilson", "real", "number_operator"):
                fault = "aw-real-number-operator"
            else:
                ladder = suite == "ladder" and (family, fx) in inputs.LADDER_FAULT_CALLS
                fault = "ladder-seed-sensitive" if ladder else None
            tally.op(problem, fault, f"{suite} {family}/{fx}")
    # spot values are outputs checked once per run, not operations
    spot_problems = []
    fixtures = inputs.load_fixtures()
    for (family, fx, n, idx), (vals, energy, err, signalled) in zip(
            inputs.spot_cells(args.seed, fixtures), doc["spots"]):
        problem = err or checks.check_energy(energy, oracle.E[family][fx][n])
        for i, v in zip(idx, [] if signalled else vals or []):
            problem = problem or oracle.check_p(family, fx, n, complex(*v), oracle.P[family][fx][n][i])
        if problem:
            spot_problems.append(f"spot P_{n} {family}/{fx}: {problem}")
    metrics = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(r["pass_s"] for r in doc["rounds"]),
        "peak_rss_mb": doc["peak_rss_mb"],
        "light_ms": statistics.median(light),
        "heavy_ms": statistics.median(heavy),
    }
    metrics["raw_pass_s"] = statistics.median(r["raw_pass_s"] for r in doc["rounds"])
    layers = (doc.get("layers", {}), doc.get("counts", {}), import_metrics([imports]))
    return tally, spot_problems, metrics, layers


# ------------------------------------------------------ eval-dual-path

def eval_dual_path(args, oracle, deadline, kids):
    setups = setup_times(args, deadline, kids)
    _, doc, imports = run_worker(args, "measure", deadline, importtime=args.trace)
    cells = inputs.eval_cells(args.seed)
    pools = {family: inputs.pool(family) for family in inputs.FAMILIES}
    tally = Tally()
    for rnd in doc["rounds"]:
        values, flags, errors = rnd["values"], rnd["flags"], rnd["errors"]
        at = 0
        for c, (family, n, path, fault, idx) in enumerate(cells):
            exact = oracle.P[family]["default"][n]
            err = errors.get(str(c))
            for i in idx:
                if err:
                    problem = err
                elif flags[at]:
                    problem = None  # the program said this value may be inaccurate
                else:
                    value = complex(values[2 * at], values[2 * at + 1])
                    problem = oracle.check_p(family, "default", n, value, exact[i])
                tally.op(problem, fault, f"{path} P_{n} {family} at eta={pools[family][i]!r}")
                at += 1
    rounds = doc["rounds"]
    metrics = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(r["pass_s"] for r in rounds),
        "peak_rss_mb": doc["peak_rss_mb"],
        "light_ms": statistics.median(r["recurrence_ms"] for r in rounds),
        "heavy_ms": statistics.median(r["series_ms"] for r in rounds),
    }
    metrics["raw_pass_s"] = statistics.median(r["raw_pass_s"] for r in rounds)
    layers = (doc.get("layers", {}), doc.get("counts", {}), import_metrics([imports]))
    return tally, [], metrics, layers


# ------------------------------------------------------------ cli-cold

class CliRunner:
    """Runs one CLI invocation at a time in a fresh interpreter."""

    def __init__(self, args, deadline, kids):
        self.kids = kids
        self.trace = args.trace
        self.deadline = deadline
        self.summaries, self.imports = [], []
        os.makedirs(OUT_DIR, exist_ok=True)
        self.peak_rss_mb = 0.0

    def __call__(self, argv, regular: bool):
        """(exit code, stdout, stderr, reference seconds)."""
        out_path = os.path.join(OUT_DIR, "cli.stdout")
        err_path = os.path.join(OUT_DIR, "cli.stderr")
        span_path = os.path.join(OUT_DIR, "cli.spans.json")
        if self.trace:
            cmd = [sys.executable, "-X", "importtime",
                   os.path.join(HERE, "cli_launch.py"), span_path, *argv]
        else:
            cmd = [sys.executable, "-m", "dqm.cli", *argv]
        if regular:
            self.kids.before()
        with open(out_path, "w") as out, open(err_path, "w") as err:
            t0 = clock()
            with child(cmd, self.deadline, stdout=out, stderr=err,
                       stdin=subprocess.DEVNULL) as proc:
                _pid, status, usage = os.wait4(proc.pid, 0)
                secs = clock() - t0
                proc.returncode = os.waitstatus_to_exitcode(status)
            if proc.returncode < 0:
                raise BenchError(f"dqm {' '.join(argv)} was killed ({proc.returncode})")
            if regular:
                self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        if regular:
            secs = self.kids.scaled(secs)
        else:
            self.kids.other_child()
        with open(out_path) as fh:
            stdout = fh.read()
        with open(err_path) as fh:
            stderr = fh.read()
        if self.trace:
            with open(span_path) as fh:
                self.summaries.append(json.load(fh))
            os.remove(span_path)
            imports, stderr = parse_importtime(stderr)
            if regular:
                self.imports.append(imports)
        return proc.returncode, stdout, stderr, secs


def _json(text):
    try:
        return json.loads(text)
    except ValueError:
        return None


def cli_cold(args, oracle, deadline, kids):
    setups = setup_times(args, deadline, kids)
    run = CliRunner(args, deadline, kids)
    with open(inputs.REPORT_SCHEMA) as fh:
        schema = json.load(fh)
    tally = Tally()
    light, heavy, passes = [], [], []       # heavy: mean verify call per round
    evals = inputs.cli_evals(args.seed)
    t_run = clock()
    rounds = 0
    while True:
        rounds += 1
        round_s = 0.0
        verify_s = []

        def light_op(argv, check, fault=None):
            nonlocal round_s
            rc, out, err, secs = run(argv, regular=True)
            light.append(secs * 1e3)
            round_s += secs
            try:
                problem = f"exit {rc}: {err.strip()[-200:]}" if rc != 0 else check(_json(out), err)
            except (KeyError, ValueError, TypeError, IndexError) as exc:
                problem = f"malformed output: {exc!r}"
            tally.op(problem, fault, " ".join(argv))
            return _json(out) if rc == 0 else None

        light_op(["list", "--output", "json"],
                 lambda doc, err: None if doc and [r["name"] for r in doc] == list(inputs.FAMILIES)
                 else "list does not name the eleven families")
        for family, n, x, k, fault in evals:
            exact_p, exact_e = oracle.cli[k]
            scale = oracle.scale[family]["default"][n]
            light_op(["eval", family, "--fixture", "default", "--n", str(n), "--x", repr(x),
                      "--output", "json"],
                     lambda doc, err, p=exact_p, e=exact_e, s=scale:
                     checks.check_eval_record(doc, err, p, e, s),
                     fault)
        tables = {}
        for kind, family, fx in inputs.TABLES:
            tables[(kind, family, fx)] = light_op(
                ["table", kind, family, "--fixture", fx, "--output", "json"],
                lambda doc, err: None if isinstance(doc, list) and doc else "empty table")
        for family, fx in sorted({(f, fx) for _k, f, fx in inputs.TABLES}):
            rec, norms, spec = (tables.get((k, family, fx))
                                for k in ("recurrence", "norms", "spectrum"))
            try:
                problem = (checks.check_tables(rec, norms, spec, oracle.E[family][fx])
                           if rec and norms and spec else "a table is missing")
            except (KeyError, ValueError, TypeError, IndexError) as exc:
                problem = f"malformed table: {exc!r}"
            tally.op(problem, None, f"table identities {family}/{fx}")
        report = os.path.join(OUT_DIR, "report.json")

        def verify_op(argv_params, family, fault=None, regular=True):
            nonlocal round_s
            if os.path.exists(report):
                os.remove(report)
            argv = ["verify", *argv_params, "--suite", "all", "--seed", str(inputs.LADDER_SEED),
                    "--report", report, "--output", "json"]
            rc, out, err, secs = run(argv, regular=regular)
            if regular:
                verify_s.append(secs)
                round_s += secs
            doc = _json(out)
            if rc != 0:
                return rc, f"exit {rc}: {err.strip()[-200:]}"
            if not os.path.exists(report):
                return rc, "no report written"
            with open(report) as fh:
                written = _json(fh.read())
            if written != doc:
                return rc, "report file differs from the printed report"
            try:
                return rc, checks.check_report(doc, family, inputs.LADDER_SEED, schema)
            except (KeyError, ValueError, TypeError, IndexError) as exc:
                return rc, f"malformed report: {exc!r}"

        for family, fx in inputs.VERIFY_CALLS:
            _rc, problem = verify_op([family, "--fixture", fx], family)
            tally.op(problem, None, f"verify {family}/{fx}")
        _, probe, _ = run_worker(args, "probe", deadline)
        run.kids.other_child()
        for (fault, params), validate_rc in zip(inputs.STRESS_CALLS, probe):
            rc, problem = verify_op(params, params[0], fault, regular=False)
            if rc == 2 and validate_rc == 2:
                problem = None  # rejected by validate with a named reason
            tally.op(problem, fault, "verify " + " ".join(params))
        passes.append(round_s)
        heavy.append(1e3 * statistics.fmean(verify_s))
        if clock() - t_run >= args.seconds:
            break
    metrics = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(passes),
        "peak_rss_mb": run.peak_rss_mb,
        "light_ms": statistics.median(light),
        "heavy_ms": statistics.median(heavy),
    }
    layers = (*sum_layers(run.summaries, rounds), import_metrics(run.imports))
    return tally, [], metrics, layers


# ---------------------------------------------------------------- main

def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = Deadline(RUN_DEADLINE_S)
    if not os.path.isfile(os.path.join(inputs.SRC, "dqm", "__init__.py")):
        print(f"error: no dqm package under {inputs.SRC}", file=sys.stderr)
        return 2
    try:
        with open(os.path.join(inputs.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        oracle = checks.Oracle()
        machine = machine_record()
        fn = {"verify-matrix": verify_matrix, "eval-dual-path": eval_dual_path,
              "cli-cold": cli_cold}[args.workload]
        kids = calib.ChildClock(lambda argv: run_child(argv, deadline))
        tally, problems, metrics, layers = fn(args, oracle, deadline, kids)
        raw = {"raw_pass_s": metrics.pop("raw_pass_s")} if "raw_pass_s" in metrics else {}
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        if set(metrics) != set(units):
            raise BenchError(f"measured {sorted(metrics)}, BENCHMARK.json lists {sorted(units)}")
        if args.trace:
            out_metrics = layer_metrics(bench["per_layer"], *layers,
                                        {"traced.pass_s": metrics["pass_s"]})
        else:
            out_metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    except (BenchError, checks.OracleError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    problems = problems + tally.unexpected
    for line in problems:
        print(f"unexpected: {line}", file=sys.stderr)
    print(json.dumps({"machine": machine, "failed_by_fault": tally.by_fault, **raw}))
    print(json.dumps({
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": out_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
