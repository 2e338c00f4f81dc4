"""Command-line front end: list | eval | table | verify.

Exit codes: 0 success, 1 at least one check failed, 2 usage or parameter
validation error, 141 (128 + SIGPIPE, as a shell reports a process that
SIGPIPE ended) when the reader of stdout closed it early, as `head` does.
A verify report that fails report_schema.json is a fault in dqm:
ReportSchemaError escapes main.  Complex parameters are given as repeated
--a flags with 're+imi' literals; a named --fixture overrides inline
parameters.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import numbers
import os
import sys
from dataclasses import asdict
from decimal import Decimal
from importlib import resources

import numpy as np

from .families import (
    FAMILIES,
    FamilyId,
    ParamSet,
    ValidationError,
    eval_poly_hypergeometric,
    eval_poly_recurrence,
    get_family,
)
from .fixtures import fixture_params, parse_complex
from .verify import SUITES, VerifyConfig, run_suite

REPORT_VERSION = 1

_FMT = "{:.17g}"  # lossless double round-trip


def _fmt(v) -> str:
    if isinstance(v, complex):
        if v.imag == 0:
            return _FMT.format(v.real)
        sign = "+" if v.imag >= 0 else "-"
        return _FMT.format(v.real) + sign + _FMT.format(abs(v.imag)) + "i"
    return _FMT.format(float(v))


def _fmt_scaled(value, log_scale: float, unit=1.0) -> str:
    """_fmt(value) for value = exp(log_scale) * unit.  Where a part of value
    left the double range (inf, or 0 from a nonzero part of unit), that part
    is printed as exp(log_scale) * (part of unit) in decimal arithmetic, a
    mantissa and a decimal exponent."""
    value, unit = complex(value), complex(unit)

    def lost(v: float, u: float) -> bool:
        return u != 0.0 and not (math.isfinite(v) and v != 0.0)

    def part(v: float, u: float) -> str:
        if not lost(v, u):
            return _FMT.format(v)
        return _FMT.format(Decimal(log_scale).exp() * Decimal(u))

    if not math.isfinite(log_scale) or not (
        lost(value.real, unit.real) or lost(value.imag, unit.imag)
    ):
        return _fmt(value)
    if unit.imag == 0:
        return part(value.real, unit.real)
    im = part(value.imag, unit.imag)
    return part(value.real, unit.real) + ("" if im.startswith("-") else "+") + im + "i"


def _family_row(fam) -> dict:
    lo, hi = fam.spec.interval
    iv = {
        (-math.inf, math.inf): "(-inf, inf)",
        (0.0, math.inf): "(0, inf)",
        (0.0, math.pi): "(0, pi)",
    }[(lo, hi)]
    schema = list(fam.spec.param_names)
    if fam.spec.uses_q:
        schema.append("q")
    if fam.spec.uses_phi:
        schema.append("phi")
    return {
        "name": fam.spec.name,
        "ks_tag": f"[{fam.spec.ks_tag}]",
        "eta": fam.spec.eta_kind,
        "interval": iv,
        "parameters": schema,
    }


def _params_from_args(args) -> ParamSet:
    fam = get_family(args.family)
    if args.fixture:
        return fixture_params(fam, args.fixture)
    a: list[complex] = [parse_complex(v) for v in (args.a or [])]
    if args.alpha_param is not None:
        a.append(complex(args.alpha_param))
    if args.beta_param is not None:
        a.append(complex(args.beta_param))
    p = ParamSet(a=tuple(a), q=args.q, phi=args.phi)
    fam.validate(p)
    return p


def _add_param_flags(sp):
    sp.add_argument("family", help="family name or alias (see 'dqm list')")
    sp.add_argument("--fixture", help="named fixture (overrides inline parameters)")
    sp.add_argument("--a", action="append", metavar="RE+IMi",
                    help="parameter a_j; repeat once per parameter")
    sp.add_argument("--q", type=float, help="base q in (0,1)")
    sp.add_argument("--phi", type=float, help="angle phi in (0,pi)")
    sp.add_argument("--alpha-param", type=float, dest="alpha_param",
                    help="exponent alpha (q-Jacobi / q-Laguerre)")
    sp.add_argument("--beta-param", type=float, dest="beta_param",
                    help="exponent beta (q-Jacobi)")


def cmd_list(args) -> int:
    rows = [_family_row(FAMILIES[fid]) for fid in FamilyId]
    if args.output == "json":
        print(json.dumps(rows, indent=2))
        return 0
    if args.output == "csv":
        print("name,ks_tag,eta,interval,parameters")
        for r in rows:
            print(
                f"{r['name']},{r['ks_tag']},{r['eta']},\"{r['interval']}\","
                f"\"{' '.join(r['parameters'])}\""
            )
        return 0
    width = max(len(r["name"]) for r in rows)
    for r in rows:
        print(
            f"{r['name']:{width}s}  {r['ks_tag']:9s} eta={r['eta']:6s} "
            f"x in {r['interval']:12s} params: {', '.join(r['parameters']) or '-'}"
        )
    return 0


def cmd_eval(args) -> int:
    fam = get_family(args.family)
    p = _params_from_args(args)
    n = args.n
    x = args.x
    eta = fam.eta(x)
    poly = eval_poly_recurrence(fam, p, n)
    v_rec = poly.eval(eta)
    v_hyp = eval_poly_hypergeometric(fam, p, n, eta)
    phi0 = fam.phi0(p, x)  # inf past the double range, printed from its log
    log_phi0 = float(np.real(fam.log_amplitude(p, x)))
    record = {
        "family": fam.spec.name,
        "n": n,
        "x": x,
        "eta": _fmt(eta),
        "P_n_recurrence": _fmt(v_rec),
        "P_n_hypergeometric": _fmt(v_hyp),
        "path_discrepancy": _fmt(abs(v_rec - v_hyp)),
        "phi0": _fmt_scaled(phi0, log_phi0),
        "phi_n": _fmt_scaled(phi0 * v_rec, log_phi0, v_rec),
        "E_n": _fmt(fam.energy(p, n)),
    }
    if args.output == "json":
        print(json.dumps(record, indent=2))
    elif args.output == "csv":
        print(",".join(record.keys()))
        print(",".join(str(v) for v in record.values()))
    else:
        for k, v in record.items():
            print(f"{k:22s} {v}")
    return 0


def cmd_table(args) -> int:
    fam = get_family(args.family)
    p = _params_from_args(args)
    n_max = args.n_max
    rows = []
    if args.kind == "spectrum":
        header = ["n", "E_n"]
        for n in range(n_max + 1):
            rows.append([n, _fmt(fam.energy(p, n))])
    elif args.kind == "recurrence":
        header = ["n", "A_n", "B_n", "C_n", "c_n", "a_n_rec", "b_n_rec",
                  "f_n", "b_n_shift"]
        for n in range(n_max + 1):
            c = fam.coefficients(p, n)
            rows.append([
                n, _fmt(c.A_n), _fmt(c.B_n),
                "unused" if n == 0 else _fmt(c.C_n),
                _fmt(c.c_n), _fmt(c.a_n_rec), _fmt(c.b_n_rec),
                _fmt(c.f_n), _fmt(c.b_n_shift),
            ])
    elif args.kind == "norms":
        header = ["n", "h0", "hn_over_h0", "N_n"]
        log_h0 = fam.log_h0(p)
        for n in range(n_max + 1):
            c = fam.coefficients(p, n)
            rows.append([n, _fmt_scaled(c.h0, log_h0), _fmt(1.0 / c.h0_over_hn),
                         _fmt(c.N_n)])
    else:  # pragma: no cover - argparse restricts choices
        raise ValidationError(f"unknown table kind {args.kind}")
    if args.output == "json":
        print(json.dumps([dict(zip(header, r)) for r in rows], indent=2))
    else:
        sep = "," if args.output == "csv" else "  "
        print(sep.join(str(h) for h in header))
        for r in rows:
            print(sep.join(str(v) for v in r))
    return 0


class ReportSchemaError(Exception):
    """A report that does not match report_schema.json.  That is a fault in
    dqm, not a usage error, so this is neither a ValueError nor a
    ValidationError, which main maps to exit code 2."""


# The JSON Schema 2020-12 types as jsonschema checks them: a bool is no
# number, 1.0 is an integer, NaN and +-inf are numbers.
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and v.is_integer()),
}
# The keywords report_schema.json uses, annotations first; _check_schema
# refuses any other, so a schema the checker does not understand never passes.
_KEYWORDS = {"$schema", "title", "description", "type", "required", "properties",
             "additionalProperties", "items", "minimum", "minItems", "maxItems"}


def _check_schema(schema) -> None:
    """Raise on any keyword the report checker does not implement."""
    if not isinstance(schema, dict) or set(schema) - _KEYWORDS or (
        schema.get("additionalProperties", False) is not False
    ):
        raise ReportSchemaError(f"unsupported schema {schema!r}")
    for sub in schema.get("properties", {}).values():
        _check_schema(sub)
    if "items" in schema:
        _check_schema(schema["items"])


def _conform(schema: dict, v, path: str = "report") -> None:
    """Raise ReportSchemaError where v does not match schema."""
    def fail(why: str):
        raise ReportSchemaError(f"{path}: {why}")

    types = schema.get("type", ())
    types = [types] if isinstance(types, str) else types
    if types and not any(_TYPES[t](v) for t in types):
        fail(f"{v!r} is not of type {' or '.join(types)}")
    if isinstance(v, dict):
        props = schema.get("properties", {})
        if missing := [k for k in schema.get("required", ()) if k not in v]:
            fail(f"missing {missing}")
        if "additionalProperties" in schema and (extra := v.keys() - props.keys()):
            fail(f"unexpected {sorted(extra)}")
        for k in props.keys() & v.keys():
            _conform(props[k], v[k], f"{path}.{k}")
    if isinstance(v, list):
        if not schema.get("minItems", 0) <= len(v) <= schema.get("maxItems", math.inf):
            fail(f"{len(v)} items")
        for i, item in enumerate(v):
            _conform(schema.get("items", {}), item, f"{path}[{i}]")
    if "minimum" in schema and _TYPES["number"](v) and v < schema["minimum"]:
        fail(f"{v!r} is less than {schema['minimum']!r}")


@functools.cache
def _report_schema() -> dict:
    """report_schema.json, read and checked for keywords once per process.

    The schema is not checked against its meta-schema here.  The tests do
    that with jsonschema and compare its verdicts with _conform's.
    """
    with resources.files("dqm.data").joinpath("report_schema.json").open(
        "r", encoding="utf-8"
    ) as fh:
        schema = json.load(fh)
    _check_schema(schema)
    return schema


def validate_report(doc: dict) -> None:
    """Raise ReportSchemaError unless doc matches report_schema.json."""
    _conform(_report_schema(), doc)


def cmd_verify(args) -> int:
    fam = get_family(args.family)
    p = _params_from_args(args)
    suites = args.suite or ["all"]
    if "all" in suites:
        suites = list(SUITES)
    for s in suites:
        if s not in SUITES:
            raise ValidationError(f"unknown suite {s!r}; known: {', '.join(SUITES)}")
    config = VerifyConfig(
        n_max=args.n_max,
        seed=args.seed,
        tol_override=args.tol,
    )
    results = []
    for s in suites:
        results.extend(run_suite(s, fam, p, config))
    doc = {
        "version": REPORT_VERSION,
        "config": {
            "families": [fam.spec.name],
            "suites": suites,
            "n_max": config.n_max,
            "seed": config.seed,
            "tol": config.tol_override,
            "params": p.as_dict(),
            **({"fixture": args.fixture} if args.fixture else {}),
        },
        "results": [
            {**asdict(r), "level_range": list(r.level_range)} for r in results
        ],
    }
    validate_report(doc)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
    failed = [r for r in results if not r.passed]
    if args.output == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    elif args.output == "csv":
        print("check_id,family,n_min,n_max,max_residual,tolerance,passed,samples_used")
        for r in results:
            print(
                f"{r.check_id},{r.family},{r.level_range[0]},{r.level_range[1]},"
                f"{_fmt(r.max_residual)},{_fmt(r.tolerance)},{r.passed},"
                f"{r.samples_used}"
            )
    else:
        for r in results:
            mark = "PASS" if r.passed else "FAIL"
            print(
                f"{mark} {r.family:26s} {r.check_id:42s} "
                f"residual={r.max_residual:9.3e} tol={r.tolerance:8.1e}"
            )
        print(
            f"{len(results) - len(failed)}/{len(results)} checks passed "
            f"({fam.spec.name}, suites: {', '.join(suites)})"
        )
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dqm",
        description=(
            "Evaluate and machine-verify the eleven exactly solvable "
            "difference-equation quantum systems"
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("list", help="list the families")
    sp.add_argument("--output", choices=("human", "json", "csv"), default="human")
    sp.set_defaults(func=cmd_list)

    sp = sub.add_parser("eval", help="evaluate P_n, phi_n and E_n at a point")
    _add_param_flags(sp)
    sp.add_argument("--n", type=int, default=0, help="level (default 0)")
    sp.add_argument("--x", type=float, default=1.0, help="coordinate x")
    sp.add_argument("--output", choices=("human", "json", "csv"), default="human")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("table", help="tabulate spectrum/recurrence/norm data")
    sp.add_argument("kind", choices=("spectrum", "recurrence", "norms"))
    _add_param_flags(sp)
    sp.add_argument("--n-max", type=int, default=8, dest="n_max")
    sp.add_argument("--output", choices=("human", "json", "csv"), default="human")
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("verify", help="run verification suites")
    _add_param_flags(sp)
    sp.add_argument("--suite", action="append",
                    help="suite id or 'all'; repeatable")
    sp.add_argument("--n-max", type=int, default=8, dest="n_max")
    sp.add_argument("--tol", type=float,
                    help="override every tolerance but the ratio bound of "
                         "limit.monotone_decrease")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--report", help="write the JSON report to this path")
    sp.add_argument("--output", choices=("human", "json", "csv"), default="human")
    sp.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if not 0 <= getattr(args, "n_max", 0) <= 30:
        print("error: n_max must be in 0..30", file=sys.stderr)
        return 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the
        # interpreter's final flush of what is still buffered cannot raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
