"""Inputs of the three workloads, derived from the checkout and a seed.

Nothing here imports dqm: the fixture parameters are read straight from
the checkout's fixtures.json, so the oracle and the checks stay independent
of the code under measurement.
"""

from __future__ import annotations

import json
import math
import os
import random

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
FIXTURES_JSON = os.path.join(SRC, "dqm", "data", "fixtures.json")
REPORT_SCHEMA = os.path.join(SRC, "dqm", "data", "report_schema.json")
ORACLE_FILE = os.path.join(ROOT, "perfbench", "oracle_data.json")

FAMILIES = (
    "continuous-hahn",
    "meixner-pollaczek",
    "wilson",
    "continuous-dual-hahn",
    "askey-wilson",
    "continuous-dual-q-hahn",
    "al-salam-chihara",
    "continuous-big-q-hermite",
    "continuous-q-hermite",
    "continuous-q-jacobi",
    "continuous-q-laguerre",
)
COS_FAMILIES = frozenset(FAMILIES[4:])
SQUARE_FAMILIES = frozenset(("wilson", "continuous-dual-hahn"))

SUITES = (
    "eigen", "shape_invariance", "closure", "dual_closure", "shifts", "ladder",
    "coherent", "orthogonality", "hermiticity", "limit", "number_operator",
)

# eval-dual-path: levels 0..EVAL_TOP at the default fixtures; verify-matrix
# spot values: levels 0..VERIFY_N_MAX at every fixture.
EVAL_TOP = 30
VERIFY_N_MAX = 8
POOL_SIZE = 16
SEEDED_POINTS = 6        # pool points a seed picks per (family, level)
SPOT_POINTS = 2          # per (fixture, level) in verify-matrix

# The ladder suite's checks miss their 1e-10 tolerance at some sample-point
# seeds (6 of 58 seeds scanned), so it always runs at this seed, where 9 of
# the 22 fixtures miss: its failures then count the same for every workload
# seed (fault ladder-seed-sensitive).  `dqm verify --suite all` in cli-cold
# includes the ladder suite and runs at this seed too.
LADDER_SEED = 54
LADDER_FAULT_CALLS = frozenset((
    ("continuous-dual-hahn", "real"),
    ("continuous-dual-q-hahn", "default"),
    ("continuous-dual-q-hahn", "real"),
    ("al-salam-chihara", "default"),
    ("al-salam-chihara", "real"),
    ("continuous-big-q-hermite", "default"),
    ("continuous-big-q-hermite", "negative"),
    ("continuous-q-hermite", "default"),
    ("continuous-q-hermite", "high-q"),
))

# Accuracy rule for a P_n value v against the oracle o at level n:
#   |v - o| <= TOL * (1 + S_n),  S_n = max |o| over the family's pool.
# It is the acceptance gate's 1e-9 "relative to 1 + magnitude", with the
# magnitude of P_n on the sampled interval in place of |o| at the point, so
# that points near a zero of P_n are not held to an absolute 1e-9.
TOL = 1e-9


def eta_kind(family: str) -> str:
    if family in COS_FAMILIES:
        return "cos"
    if family in SQUARE_FAMILIES:
        return "square"
    return "linear"


def parse_complex(text: str) -> complex:
    s = str(text).strip().replace(" ", "").replace("I", "i")
    return complex(s[:-1] + "j" if s.endswith("i") else s)


def load_fixtures() -> dict:
    """{family: {fixture: {"a": [[re, im], ...], "q": float|None, "phi": ...}}}."""
    with open(FIXTURES_JSON, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    out = {}
    for family in FAMILIES:
        out[family] = {}
        for name, raw in sorted(doc["families"][family].items()):
            out[family][name] = {
                "a": [parse_complex(v) for v in raw.get("a", [])],
                "q": raw.get("q"),
                "phi": raw.get("phi"),
            }
    return out


def _x_pool(family: str) -> list:
    """POOL_SIZE natural-coordinate points: both window ends plus an interior grid."""
    kind = eta_kind(family)
    if kind == "cos":
        lo, hi = 0.05, math.pi - 0.05
    elif kind == "square":
        lo, hi = 0.05, 3.5
    else:
        lo, hi = -3.0, 3.0
    inner = POOL_SIZE - 2
    return [lo] + [lo + (hi - lo) * (j + 1) / (inner + 1) for j in range(inner)] + [hi]


def eta_of_x(family: str, x: float) -> float:
    kind = eta_kind(family)
    if kind == "cos":
        return math.cos(x)
    if kind == "square":
        return x * x
    return x


def pool(family: str) -> list:
    """The oracle's eta points for a family, exact doubles."""
    return [eta_of_x(family, x) for x in _x_pool(family)]


# ----------------------------------------------------------- fault ledger

SERIES_FAULT_FROM = {
    "askey-wilson": 12,
    "continuous-dual-q-hahn": 12,
    "al-salam-chihara": 12,
    "continuous-big-q-hermite": 12,
    "continuous-q-jacobi": 13,
    "continuous-q-laguerre": 13,
}
HORNER_FAULT_FROM = 20


def ledger_fault(family: str, n: int, path: str) -> str | None:
    """The named fault whose cell (family, level, path) this is, if any.

    Ledger cells are evaluated at every pool point, never at seeded ones, so
    their failure count is the same for every seed.
    """
    if path == "series" and n >= SERIES_FAULT_FROM.get(family, EVAL_TOP + 1):
        return "series-unsignalled"
    if path == "recurrence" and n >= HORNER_FAULT_FROM:
        return "horner-ends"
    return None


def eval_cells(seed: int) -> list:
    """[(family, n, path, fault, [pool indices])] for one eval-dual-path round."""
    rng = random.Random(f"eval-dual-path/{seed}")
    cells = []
    for family in FAMILIES:
        for n in range(EVAL_TOP + 1):
            picked = sorted(rng.sample(range(POOL_SIZE), SEEDED_POINTS))
            for path in ("recurrence", "series"):
                fault = ledger_fault(family, n, path)
                idx = list(range(POOL_SIZE)) if fault else picked
                cells.append((family, n, path, fault, idx))
    return cells


def spot_cells(seed: int, fixtures: dict) -> list:
    """[(family, fixture, n, [pool indices])] for verify-matrix spot values."""
    rng = random.Random(f"verify-matrix/{seed}")
    return [
        (family, fx, n, sorted(rng.sample(range(POOL_SIZE), SPOT_POINTS)))
        for family in FAMILIES
        for fx in fixtures[family]
        for n in range(VERIFY_N_MAX + 1)
    ]


# ------------------------------------------------------------- cli-cold

# Per family, the (n, x) points `dqm eval` may be asked for; a seed picks one.
CLI_EVAL_CHOICES = {
    family: [(3, 0.7), (5, 1.9), (7, 0.35), (9, 2.6)]
    if eta_kind(family) == "cos"
    else [(3, 0.8), (5, 1.7), (7, 0.45), (9, 2.9)]
    if eta_kind(family) == "square"
    else [(3, -1.3), (5, 0.6), (7, 2.2), (9, -0.4)]
    for family in FAMILIES
}
# series-unsignalled at the CLI: prints 1296.13 against a true -0.2495
CLI_SERIES_FAULT = ("askey-wilson", 15, 1.3)

TABLES = (
    ("spectrum", "askey-wilson", "default"),
    ("recurrence", "askey-wilson", "default"),
    ("norms", "askey-wilson", "default"),
    ("spectrum", "wilson", "real"),
    ("recurrence", "wilson", "real"),
    ("norms", "wilson", "real"),
)
VERIFY_CALLS = (
    ("wilson", "default"),
    ("askey-wilson", "default"),
    ("continuous-q-jacobi", "default"),
    ("meixner-pollaczek", "half-pi"),
)
# Parameter sets that pass `validate` yet do not exit 0 from --suite all.
STRESS_CALLS = (
    ("aw-real-number-operator", ["askey-wilson", "--fixture", "real"]),
    ("validated-but-crashes", ["continuous-q-hermite", "--q", "1e-9"]),
    ("validated-but-crashes", ["wilson"] + ["--a", "30"] * 4),
    ("validated-but-crashes", ["continuous-hahn", "--a", "0.01", "--a", "0.01"]),
    ("validated-but-crashes", ["meixner-pollaczek", "--a", "40", "--phi", "0.01"]),
    ("validated-but-crashes",
     ["askey-wilson", "--a", "0.95", "--a", "0.9", "--a", "0.9", "--a", "0.9", "--q", "0.5"]),
)


def cli_points() -> list:
    """Every (family, fixture, n, x) the cli-cold script may evaluate."""
    pts = [(f, "default", n, x) for f in FAMILIES for n, x in CLI_EVAL_CHOICES[f]]
    f, n, x = CLI_SERIES_FAULT
    return pts + [(f, "default", n, x)]


def cli_evals(seed: int) -> list:
    """[(family, n, x, oracle index, fault)] for one cli-cold round."""
    rng = random.Random(f"cli-cold/{seed}")
    out = []
    for i, family in enumerate(FAMILIES):
        k = rng.randrange(len(CLI_EVAL_CHOICES[family]))
        n, x = CLI_EVAL_CHOICES[family][k]
        out.append((family, n, x, 4 * i + k, None))
    f, n, x = CLI_SERIES_FAULT
    out.append((f, n, x, 4 * len(FAMILIES), "series-unsignalled"))
    return out


# ------------------------------------------------------------- the oracle

def _json_params(prm: dict) -> dict:
    return {"a": [[v.real, v.imag] for v in prm["a"]], "q": prm["q"], "phi": prm["phi"]}


def oracle_inputs() -> dict:
    """Everything the oracle file depends on, in a JSON-comparable form."""
    fixtures = load_fixtures()
    return {
        "fixtures": {f: {fx: _json_params(p) for fx, p in t.items()} for f, t in fixtures.items()},
        "pool": {f: pool(f) for f in FAMILIES},
        "levels": {"default": EVAL_TOP, "other": VERIFY_N_MAX},
        "cli_points": [
            {"family": f, "fixture": fx, "n": n, "x": x,
             "params": _json_params(fixtures[f][fx])}
            for f, fx, n, x in cli_points()
        ],
    }
