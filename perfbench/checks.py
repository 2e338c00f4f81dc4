"""Checks of dqm's outputs against the oracle file and the identities its
outputs must satisfy.  Every function returns None when the output is right
and a short reason when it is not."""

from __future__ import annotations

import hashlib
import json
import math
import os
import re

import inputs

ORACLE_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracle.py")

# The tolerance each verify check sets today.  A report may tighten one but
# never loosen it; VerifyConfig carries no --tol override in the workloads.
TOLERANCES = {
    "closure.coordinate_condition": 1e-12,
    "closure.double_commutator": 1e-9,
    "closure.expanded_conditions": 1e-9,
    "coherent.annihilation_eigenvector": 1e-7,
    "coherent.closed_form": 1e-8,
    "dual_closure.double_commutator": 1e-9,
    "eigen.eigenvalue_equation": 1e-9,
    "eigen.lower_triangularity": 1e-9,
    "hermiticity.symmetric_form": 1e-6,
    "ladder.hamiltonian_commutator": 1e-10,
    "ladder.level_actions": 1e-10,
    "ladder.level_diagonal_operator": 1e-10,
    "ladder.pair_commutator": 1e-10,
    "ladder.q_deformed_commutator": 1e-10,
    "ladder.q_oscillator_pair": 1e-10,
    "ladder.shape_invariance_q_oscillator": 1e-10,
    "limit.extrapolated_deviation": 1e-2,
    "limit.monotone_decrease": 1.0,
    "number_operator.inversion": 1e-10,
    "orthogonality.diagonal_norms": 1e-5,
    "orthogonality.off_diagonal": 1e-6,
    "shape_invariance.ground_state_shift": 1e-10,
    "shape_invariance.potential_identities": 1e-10,
    "shape_invariance.spectrum_generation": 1e-10,
    "shifts.backward_action": 1e-9,
    "shifts.energy_factorization": 1e-9,
    "shifts.factorization": 1e-9,
    "shifts.forward_action": 1e-9,
    "shifts.lambda_shift_x": 1e-9,
    "shifts.rodrigues_chain": 1e-9,
}
ENERGY_TOL = 1e-12
IDENTITY_TOL = 1e-10


class OracleError(RuntimeError):
    """The oracle file is missing or was made from other inputs."""


class Oracle:
    """P_n and E_n from oracle_data.json, checked against today's inputs."""

    def __init__(self):
        path = inputs.ORACLE_FILE
        if not os.path.isfile(path):
            raise OracleError(f"{path} is missing; run python3 perfbench/oracle.py")
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        with open(ORACLE_SOURCE, "rb") as fh:
            source = hashlib.sha256(fh.read()).hexdigest()
        if doc.get("source_sha256") != source:
            raise OracleError("oracle file was made by another oracle.py; "
                              "rerun python3 perfbench/oracle.py")
        if doc.get("inputs") != inputs.oracle_inputs():
            raise OracleError("oracle file was made from other fixtures, pools or "
                              "CLI points; rerun python3 perfbench/oracle.py")
        self.P = {f: {fx: [[complex(*v) for v in row] for row in rows]
                      for fx, rows in t.items()} for f, t in doc["P"].items()}
        self.E = doc["E"]
        self.cli = [(complex(*c["P"]), c["E"]) for c in doc["cli"]]
        # S_n: the size of P_n on the family's pool, the scale of the accuracy rule
        self.scale = {f: {fx: [max(abs(v) for v in row) for row in rows]
                          for fx, rows in t.items()} for f, t in self.P.items()}

    def check_p(self, family, fixture, n, value, exact) -> str | None:
        return check_value(value, exact, self.scale[family][fixture][n])


def check_value(value, exact: complex, scale: float) -> str | None:
    if value is None:
        return "no value"
    err = abs(complex(value) - exact)
    if not err <= inputs.TOL * (1.0 + scale):  # NaN fails too
        return f"off the oracle by {err:.3g} (limit {inputs.TOL * (1.0 + scale):.3g})"
    return None


def check_energy(value, exact: float) -> str | None:
    if value is None or not abs(value - exact) <= ENERGY_TOL * (1.0 + abs(exact)):
        return f"E_n = {value}, oracle {exact}"
    return None


def check_suite_results(family, suite, results) -> str | None:
    """A run_suite output: every check passed at a tolerance no looser than today's."""
    if not results and not (suite == "limit" and family != "wilson"):
        return "no results"
    for check_id, passed, residual, tol in results:
        if check_id in TOLERANCES and not tol <= TOLERANCES[check_id]:
            return f"{check_id}: tolerance loosened to {tol}"
        if not (passed and math.isfinite(residual) and residual <= tol):
            return f"{check_id}: residual {residual} > tol {tol} (passed={passed})"
    return None


# ------------------------------------------------------------------ CLI

# A warning line as Python prints it on stderr, for dqm's ConditioningWarning
# (a UserWarning) or a plain UserWarning: "FILE:LINE: ConditioningWarning: ..."
SIGNAL_LINE = re.compile(r"^.*:\d+: (ConditioningWarning|UserWarning): ", re.MULTILINE)


def check_eval_record(doc, stderr, exact_p, exact_e, scale) -> str | None:
    """`dqm eval --output json`: P_n on both paths and E_n against the oracle,
    phi_n = phi0 P_n.  As in the worker workloads, a P_n value may miss when
    dqm signalled, with a UserWarning during the call that made it, that it
    may be inaccurate."""
    if not doc:
        return "no JSON record"
    signalled = SIGNAL_LINE.search(stderr) is not None
    rec = inputs.parse_complex(doc["P_n_recurrence"])
    problem = None if signalled else check_value(rec, exact_p, scale)
    problem = problem or check_energy(float(doc["E_n"]), exact_e)
    phi_n = inputs.parse_complex(doc["phi_n"])
    phi0 = inputs.parse_complex(doc["phi0"])
    if not abs(phi_n - phi0 * rec) <= 1e-12 * (1 + abs(phi_n)):
        problem = problem or "phi_n != phi0 P_n"
    if not signalled:
        bad = check_value(inputs.parse_complex(doc["P_n_hypergeometric"]), exact_p, scale)
        problem = problem or (bad and f"P_n_hypergeometric {bad}")
    return problem


def check_report(doc, family, seed, schema) -> str | None:
    """A verify report: schema-valid, the requested run, every check passed."""
    import jsonschema

    try:
        jsonschema.validate(doc, schema)
    except jsonschema.ValidationError as exc:
        return f"report fails report_schema.json: {exc.message}"
    cfg = doc["config"]
    if cfg.get("families") != [family] or cfg.get("seed") != seed or cfg.get("tol") is not None:
        return f"report config {cfg} is not the requested run"
    if cfg.get("suites") != list(inputs.SUITES) or cfg.get("n_max") != inputs.VERIFY_N_MAX:
        return f"report covers {cfg.get('suites')} at n_max {cfg.get('n_max')}"
    rows = [(r["check_id"], r["passed"], r["max_residual"], r["tolerance"])
            for r in doc["results"]]
    return check_suite_results(family, "all", rows)


def check_tables(recurrence, norms, spectrum, energies) -> str | None:
    """Identities tying the three tables of one parameter set together:
    A_n c_{n+1} = c_n, C_n = (c_n / c_{n-1}) b_n, B_n = a_n,
    h_n/h_0 = (c_n/c_0)^2 prod_{k<=n} b_k, N_n^2 h_n/h_0 = 1, E_n = oracle."""
    def close(a, b, what):
        if not abs(a - b) <= IDENTITY_TOL * (abs(a) + abs(b) + 1e-300):
            return f"{what}: {a} vs {b}"
        return None

    num = lambda row, key: float(row[key])  # noqa: E731
    rec = recurrence
    for n, row in enumerate(rec):
        if int(row["n"]) != n:
            return f"recurrence row {n} is level {row['n']}"
        bad = close(num(row, "B_n"), num(row, "a_n_rec"), f"B_{n} = a_{n}")
        if n + 1 < len(rec):
            bad = bad or close(num(row, "A_n") * num(rec[n + 1], "c_n"), num(row, "c_n"),
                               f"A_{n} c_{n + 1} = c_{n}")
        if n >= 1:
            bad = bad or close(num(row, "C_n"),
                               num(row, "c_n") / num(rec[n - 1], "c_n") * num(row, "b_n_rec"),
                               f"C_{n} = c_{n}/c_{n - 1} b_{n}")
            if not num(row, "b_n_rec") > 0:
                bad = bad or f"b_{n} = {row['b_n_rec']} is not positive"
        if bad:
            return bad
    c0 = num(rec[0], "c_n")
    prod = 1.0
    for n, row in enumerate(norms):
        if n >= 1:
            prod *= num(rec[n], "b_n_rec")
        ratio = num(row, "hn_over_h0")
        bad = close(ratio, (num(rec[n], "c_n") / c0) ** 2 * prod, f"h_{n}/h_0")
        bad = bad or close(num(row, "N_n") ** 2 * ratio, 1.0, f"N_{n}^2 h_{n}/h_0")
        if bad:
            return bad
    for n, row in enumerate(spectrum):
        bad = check_energy(num(row, "E_n"), energies[n])
        if bad:
            return bad
    return None
