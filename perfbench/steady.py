"""Steadiness of the benchmark: repeated runs, spread of each metric beside its bound.

    python3 perfbench/steady.py                      # 10 seeds on every workload
    python3 perfbench/steady.py --workloads cli-cold --seeds 5
    python3 perfbench/steady.py --traced 2           # plus traced runs per workload

For each workload and end-to-end metric it prints the median of the runs and
their spread, the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound in BENCHMARK.json, and it fails (exit 1) when a spread reaches
its bound.  It also checks that every run is correct and that the share of
failed operations is the same in every run.  With --traced K it makes K
traced runs of the first seed, checks that their .calls counts agree, and
reports the tracing overhead: traced.pass_s minus the untraced pass_s.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["ledger"] = json.loads(lines[-2])
    return result


def spread(values: list) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--traced", type=int, default=0)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            runs.append(run_once(workload, seed, args.seconds, 0))
            r = runs[-1]
            print(f"{workload} seed {seed}: correct={r['correct']} "
                  f"failed {r['failed']}/{r['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
                  flush=True)
        shares = {r["failed"] / r["attempted"] for r in runs}
        row = {"failed_share": sorted(shares), "correct": all(r["correct"] for r in runs),
               "failed_by_fault": runs[0]["ledger"]["failed_by_fault"],
               "attempted": [r["attempted"] for r in runs], "metrics": {}}
        if len(shares) != 1 or not row["correct"]:
            ok = False
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread(values) if len(values) >= 2 else 0.0
            row["metrics"][name] = {"median": statistics.median(values), "spread": s,
                                    "bound": bound, "values": values}
            if s >= bound:
                ok = False
                flag = "  <-- at or above its bound"
            else:
                flag = "" if s < bound / 3 else "  <-- above bound/3"
            print(f"  {workload:15s} {name:12s} median {statistics.median(values):12.6g}"
                  f"  spread {s:6.3f}  bound {bound:5.2f}{flag}", flush=True)
        if args.traced:
            traced = [run_once(workload, args.first_seed, args.seconds, 1)
                      for _ in range(args.traced)]
            calls = [{k: v["value"] for k, v in t["metrics"].items() if k.endswith(".calls")}
                     for t in traced]
            same = all(c == calls[0] for c in calls)
            overhead = (statistics.median(t["metrics"]["traced.pass_s"]["value"] for t in traced)
                        - row["metrics"]["pass_s"]["median"])
            row["traced"] = {"calls_identical": same, "overhead_s": overhead,
                             "overhead_share": overhead / row["metrics"]["pass_s"]["median"]}
            ok = ok and same
            print(f"  {workload:15s} traced: calls identical {same}, overhead {overhead:.3f} s "
                  f"({row['traced']['overhead_share']:.1%} of pass_s)", flush=True)
        summary[workload] = row
    out = os.path.join(ROOT, ".bench_out", "steady.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(summary, fh, indent=1)
    print(f"wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
