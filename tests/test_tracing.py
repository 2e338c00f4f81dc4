"""The benchmark's traced run (`perfbench/run.py --trace 1`) wraps dqm's
functions by name from outside the program, in perfbench/spans.py.  Every
per-layer metric BENCHMARK.json lists must be one that install() registers:
a renamed or deleted function would otherwise stop every traced run."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# install() patches dqm in place, so it runs in its own interpreter
INSTALL = """
import json, sys
sys.path[:0] = sys.argv[1:]
import spans
rec = spans.install()
print(json.dumps({"names": rec.names, "counts": sorted(rec.counts)}))
"""


def test_every_per_layer_metric_is_registered_by_the_tracer():
    proc = subprocess.run(
        [sys.executable, "-c", INSTALL, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(proc.stdout)
    # the metric names perfbench/run.py's layer_metrics derives from a span name
    registered = set(traced["counts"])
    for name in traced["names"]:
        if name.startswith("verify."):
            registered.add(f"{name}.s")
        else:
            registered |= {f"{name}.calls", f"{name}.self_s"}
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    wanted = [m["name"] for m in per_layer
              if not m["name"].startswith("import.") and m["name"] != "traced.pass_s"]
    assert wanted
    assert [name for name in wanted if name not in registered] == []
