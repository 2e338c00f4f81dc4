"""Command-line interface: subcommands, output formats and exit codes."""

from __future__ import annotations

import copy
import errno
import io
import json
import math
import os
import random
import subprocess
import sys
from decimal import Decimal
from importlib import resources

import jsonschema
import pytest

import dqm
from dqm import cli
from dqm.cli import ReportSchemaError, main, validate_report
from dqm.fixtures import load_fixtures


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_list_has_eleven_rows(capsys):
    rc, out = run_cli(capsys, "list")
    rows = [line for line in out.strip().splitlines() if line]
    assert rc == 0
    assert len(rows) == 11
    assert any("continuous-q-hermite" in r and "[KS3.26]" in r for r in rows)


def test_list_json(capsys):
    rc, out = run_cli(capsys, "list", "--output", "json")
    assert rc == 0
    rows = json.loads(out)
    assert len(rows) == 11
    assert {"name", "ks_tag", "eta", "interval", "parameters"} <= set(rows[0])


def test_eval_q_hermite(capsys):
    rc, out = run_cli(
        capsys, "eval", "q-hermite", "--q", "0.5", "--n", "1", "--x", "1.0",
        "--output", "json",
    )
    assert rc == 0
    rec = json.loads(out)
    # oracle: recurrence gives P_1 = 2 cos x
    assert float(rec["P_n_recurrence"]) == pytest.approx(2 * math.cos(1.0), rel=1e-12)
    assert float(rec["path_discrepancy"]) < 1e-12


def test_eval_level_zero(capsys):
    rc, out = run_cli(
        capsys, "eval", "continuous-q-hermite", "--q", "0.5", "--n", "0",
        "--x", "0.7", "--output", "json",
    )
    assert rc == 0
    rec = json.loads(out)
    assert float(rec["P_n_recurrence"]) == 1.0
    assert float(rec["E_n"]) == 0.0


def test_eval_meixner_pollaczek(capsys):
    rc, out = run_cli(
        capsys, "eval", "meixner-pollaczek", "--a", "1", "--phi",
        "1.5707963267948966", "--n", "1", "--x", "2", "--output", "json",
    )
    assert rc == 0
    rec = json.loads(out)
    assert float(rec["P_n_recurrence"]) == pytest.approx(4.0, rel=1e-12)


def test_table_spectrum(capsys):
    rc, out = run_cli(
        capsys, "table", "spectrum", "meixner-pollaczek", "--a", "1",
        "--phi", str(math.pi / 6), "--n-max", "3", "--output", "csv",
    )
    assert rc == 0
    lines = out.strip().splitlines()
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == pytest.approx([0.0, 1.0, 2.0, 3.0], rel=1e-12)


def test_table_norms_q_hermite(capsys):
    # h_0/h_n = 1/(q;q)_n, so h_n/h_0 = (q;q)_n
    from dqm.specfun import q_pochhammer

    rc, out = run_cli(
        capsys, "table", "norms", "q-hermite", "--q", "0.5", "--n-max", "4",
        "--output", "csv",
    )
    assert rc == 0
    lines = out.strip().splitlines()
    for n, line in enumerate(lines[1:]):
        got = float(line.split(",")[2])
        assert got == pytest.approx(q_pochhammer(0.5, 0.5, n).real, rel=1e-12)


def test_table_norms_wilson_beyond_the_gamma_range(capsys):
    # h0 = 2 pi Gamma(60)^6 / Gamma(120): the gamma factors overflow one by
    # one, h0 itself does not; mpmath at 40 digits gives 8.0187903898989154e284
    rc, out = run_cli(
        capsys, "table", "norms", "wilson", "--a", "30", "--a", "30", "--a", "30",
        "--a", "30", "--n-max", "0", "--output", "csv",
    )
    assert rc == 0
    h0 = float(out.strip().splitlines()[1].split(",")[1])
    assert h0 == pytest.approx(8.0187903898989154427e284, rel=1e-13)


def test_eval_prints_phi_beyond_the_double_range(capsys):
    # phi0 = e^{(phi - pi/2) x} |Gamma(a + ix)| at a = 200, phi = 0.5,
    # x = -365 is ~2e436; mpmath at 30 digits gives the constant below
    rc, out = run_cli(
        capsys, "eval", "meixner-pollaczek", "--a", "200", "--phi", "0.5",
        "--n", "1", "--x", "-365", "--output", "json",
    )
    assert rc == 0
    rec = json.loads(out)
    phi0 = Decimal(rec["phi0"])
    assert abs(phi0 / Decimal("1.95906021846702176397559266347e436") - 1) < Decimal("1e-12")
    phi_n = Decimal(rec["phi_n"])  # P_1 is real here
    assert abs(phi_n / (phi0 * Decimal(rec["P_n_recurrence"])) - 1) < Decimal("1e-15")
    # and the other way, below the double range: ~3e-2748 at x = 3000
    rc, out = run_cli(
        capsys, "eval", "meixner-pollaczek", "--a", "200", "--phi", "0.5",
        "--n", "1", "--x", "3000", "--output", "json",
    )
    assert rc == 0
    assert Decimal(json.loads(out)["phi0"]).adjusted() == -2748


def test_table_norms_beyond_the_double_range(capsys):
    # h0 = 2 pi Gamma(2a) / (2 sin phi)^{2a} at a = 200, phi = 0.5;
    # mpmath at 30 digits gives the constant below
    rc, out = run_cli(
        capsys, "table", "norms", "meixner-pollaczek", "--a", "200", "--phi",
        "0.5", "--n-max", "1", "--output", "csv",
    )
    assert rc == 0
    for line in out.strip().splitlines()[1:]:
        h0 = Decimal(line.split(",")[1])
        assert abs(h0 / Decimal("2.00479448828058869534399292006e874") - 1) < Decimal("1e-13")


def test_table_recurrence_marks_unused_C0(capsys):
    rc, out = run_cli(
        capsys, "table", "recurrence", "q-hermite", "--q", "0.5",
        "--n-max", "1", "--output", "csv",
    )
    assert rc == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    row0 = lines[1].split(",")
    assert row0[header.index("C_n")] == "unused"


def test_csv_seventeen_digit_round_trip(capsys):
    rc, out = run_cli(
        capsys, "table", "spectrum", "continuous-q-hermite", "--q", "0.5",
        "--n-max", "6", "--output", "csv",
    )
    lines = out.strip().splitlines()
    e6 = float(lines[-1].split(",")[1])
    assert e6 == 0.5**-6 - 1.0  # exact binary round-trip


def test_verify_passes(capsys):
    rc, out = run_cli(
        capsys, "verify", "askey-wilson", "--fixture", "default",
        "--suite", "eigen", "--suite", "shape_invariance",
    )
    assert rc == 0
    assert "FAIL" not in out


def test_verify_all_suites_exit_zero(capsys):
    rc, out = run_cli(
        capsys, "verify", "continuous-q-hermite", "--q", "0.5",
        "--suite", "all", "--n-max", "5",
    )
    assert rc == 0


def test_verify_n_max_zero_exits_zero(capsys):
    # every suite runs on the level range 0..0, shifts.energy_factorization
    # on the empty range 1..0, which reads 0
    rc, out = run_cli(
        capsys, "verify", "wilson", "--fixture", "default", "--n-max", "0",
        "--suite", "all", "--output", "json",
    )
    assert rc == 0
    results = {r["check_id"]: r for r in json.loads(out)["results"]}
    assert all(r["passed"] for r in results.values())
    assert results["shifts.energy_factorization"]["max_residual"] == 0.0


def test_verify_tol_spares_the_limit_ratio_bound(capsys):
    # limit.monotone_decrease bounds a ratio of deviations by 1, not a residual
    rc, out = run_cli(
        capsys, "verify", "wilson", "--fixture", "default", "--suite", "limit",
        "--tol", "1e-3", "--output", "json",
    )
    tols = {r["check_id"]: r["tolerance"] for r in json.loads(out)["results"]}
    assert tols == {"limit.monotone_decrease": 1.0, "limit.extrapolated_deviation": 1e-3}
    assert rc == 1  # the extrapolated deviation reads 5.6e-3


def test_verify_invalid_params_exit_two(capsys):
    rc, _ = run_cli(
        capsys, "verify", "askey-wilson", "--a", "1.2", "--a", "0.1",
        "--a", "0.1", "--a", "0.1", "--q", "0.5", "--suite", "eigen",
    )
    assert rc == 2


def test_verify_failure_exit_one(capsys):
    # an absurd tolerance forces every residual over the line
    rc, out = run_cli(
        capsys, "verify", "continuous-q-hermite", "--q", "0.5",
        "--suite", "eigen", "--tol", "1e-30",
    )
    assert rc == 1
    assert "FAIL" in out


def test_unknown_family_exit_two(capsys):
    rc, _ = run_cli(capsys, "eval", "notafamily", "--n", "0", "--x", "1.0")
    assert rc == 2


def test_unknown_suite_exit_two(capsys):
    rc, _ = run_cli(
        capsys, "verify", "continuous-q-hermite", "--q", "0.5",
        "--suite", "bogus",
    )
    assert rc == 2


@pytest.mark.parametrize("command", [
    ["table", "spectrum", "wilson", "--fixture", "default"],
    ["verify", "wilson", "--fixture", "default", "--suite", "eigen"],
])
def test_n_max_outside_zero_to_thirty_is_a_usage_error(capsys, command):
    for n_max, code in (("-1", 2), ("0", 0), ("30", 0), ("31", 2)):
        rc = main([*command, "--n-max", n_max])
        captured = capsys.readouterr()
        assert rc == code, (n_max, captured.err)
        if code == 2:
            assert captured.out == ""
            assert "n_max must be in 0..30" in captured.err


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd: int):
        self._fd = fd

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def fileno(self) -> int:
        return self._fd


def test_closed_stdout_exits_141_and_points_stdout_at_devnull(tmp_path, monkeypatch):
    path = tmp_path / "stdout"
    fd = os.open(path, os.O_WRONLY | os.O_CREAT)
    monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
    try:
        rc = main(["verify", "wilson", "--fixture", "default", "--suite", "eigen",
                   "--output", "json"])
        # what the interpreter would flush at exit now goes to devnull
        os.write(fd, b"flushed at exit")
    finally:
        os.close(fd)
    assert rc == 141
    assert path.read_bytes() == b""


def _env_with_src() -> dict:
    """The environment with this checkout's dqm first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(dqm.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_closed_pipe_ends_the_process_without_a_traceback():
    # `dqm list --output json | head -0`: the reader is gone before the first write
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "dqm.cli", "list", "--output", "json"],
                              stdout=write_end, stderr=subprocess.PIPE, env=_env_with_src(),
                              text=True, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""


def test_fixture_overrides_inline(capsys):
    rc, out = run_cli(
        capsys, "eval", "continuous-q-hermite", "--q", "0.9",
        "--fixture", "default", "--n", "1", "--x", "1.0", "--output", "json",
    )
    assert rc == 0
    # fixture default has q = 0.5: E_1 = 1
    assert float(json.loads(out)["E_n"]) == pytest.approx(1.0)


def test_fixtures_env_override(tmp_path, monkeypatch, capsys):
    doc = {
        "version": 1,
        "families": {"continuous-q-hermite": {"default": {"q": 0.25}}},
    }
    path = tmp_path / "fx.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setenv("DQM_FIXTURES", str(path))
    rc, out = run_cli(
        capsys, "eval", "continuous-q-hermite", "--fixture", "default",
        "--n", "1", "--x", "1.0", "--output", "json",
    )
    assert rc == 0
    assert float(json.loads(out)["E_n"]) == pytest.approx(3.0)  # q^-1 - 1


def test_complex_literal_parsing():
    from dqm.fixtures import parse_complex

    assert parse_complex("0.7+0.4i") == 0.7 + 0.4j
    assert parse_complex("1.2-0.2i") == 1.2 - 0.2j
    assert parse_complex("-0.55") == -0.55
    assert parse_complex("0.3+0.5j") == 0.3 + 0.5j


def _report_schema() -> dict:
    return json.loads(
        resources.files("dqm.data").joinpath("report_schema.json").read_text(
            encoding="utf-8"
        )
    )


def test_report_schema_is_valid_and_enforced():
    # validate_report skips the meta-schema check, so it is made here once
    schema = _report_schema()
    jsonschema.validators.validator_for(schema).check_schema(schema)
    with pytest.raises(ReportSchemaError):
        validate_report({"version": 1, "config": {}})


def _keywords(schema: dict):
    yield from schema
    for sub in schema.get("properties", {}).values():
        yield from _keywords(sub)
    if "items" in schema:
        yield from _keywords(schema["items"])


def test_report_checker_supports_every_schema_keyword():
    schema = _report_schema()
    assert set(_keywords(schema)) <= cli._KEYWORDS
    cli._check_schema(schema)
    # a keyword the checker does not implement is refused, never ignored
    patterned = copy.deepcopy(schema)
    patterned["properties"]["results"]["items"]["properties"]["check_id"][
        "pattern"] = "^[a-z_]+[.][a-z_]+$"
    with pytest.raises(ReportSchemaError):
        cli._check_schema(patterned)
    opened = copy.deepcopy(schema)
    opened["properties"]["config"]["additionalProperties"] = {"type": "string"}
    with pytest.raises(ReportSchemaError):
        cli._check_schema(opened)


def test_report_failing_the_schema_is_no_usage_error(monkeypatch):
    # a bad report is a fault in dqm: it escapes main rather than exit 2
    monkeypatch.setattr(cli, "REPORT_VERSION", 0)  # violates minimum: 1
    with pytest.raises(ReportSchemaError):
        main(["verify", "continuous-q-hermite", "--q", "0.5", "--suite", "eigen"])
    assert not issubclass(ReportSchemaError, (ValueError, cli.ValidationError))


def test_verify_does_not_import_jsonschema():
    script = (
        "import sys\n"
        "from dqm.cli import main\n"
        "rc = main(['verify', 'continuous-q-hermite', '--q', '0.5', '--suite', 'eigen'])\n"
        "assert rc == 0 and 'jsonschema' not in sys.modules, rc\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=_env_with_src(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.fixture(scope="module")
def eigen_reports(tmp_path_factory) -> list:
    """The eigen report of every bundled fixture (22)."""
    path = tmp_path_factory.mktemp("reports") / "report.json"
    reports = []
    for family, table in load_fixtures()["families"].items():
        for fixture in sorted(table):
            main(["verify", family, "--fixture", fixture, "--suite", "eigen",
                  "--report", str(path)])
            reports.append(json.loads(path.read_text(encoding="utf-8")))
    assert len(reports) == 22
    return reports


_DROP = object()


def _mutants(reports: list, rng: random.Random):
    """Seeded edits of real reports, valid and invalid, one per case.  A path
    starts at the report ("doc") or at one of its results ("result")."""
    def edit(path, value=_DROP):
        doc = copy.deepcopy(rng.choice(reports))
        root, *keys, last = path
        target = rng.choice(doc["results"]) if root == "result" else doc
        for key in keys:
            target = target[key]
        if value is _DROP:
            del target[last]
        else:
            target[last] = value
        return doc

    schema = _report_schema()
    objects = {
        ("doc",): schema,
        ("doc", "config"): schema["properties"]["config"],
        ("result",): schema["properties"]["results"]["items"],
    }
    for prefix, sub in objects.items():  # each key removed, required or not
        for key in sub["properties"]:
            yield edit([*prefix, key])
    for prefix in (*objects, ("doc", "config", "params"), ("result", "params")):
        yield edit([*prefix, "extra"], 1)
    values = {
        "int": [True, False, 1.0, -0.0, 2.5, -1, 0, 3, "1", None, float("nan")],
        "num": [float("nan"), float("inf"), -float("inf"), True, None, 0, 1e-3, "0.1", [1.0]],
    }
    slots = [
        (["doc", "version"], "int"), (["doc", "config", "n_max"], "int"),
        (["doc", "config", "seed"], "int"), (["doc", "config", "tol"], "num"),
        (["result", "samples_used"], "int"), (["result", "level_range", 0], "int"),
        (["result", "level_range", 1], "int"), (["result", "max_residual"], "num"),
        (["result", "tolerance"], "num"), (["result", "params", "q"], "num"),
        (["result", "passed"], "num"), (["result", "check_id"], "num"),
        (["doc", "config", "families"], "num"),
    ]
    for path, kind in slots:
        for value in values[kind]:
            yield edit(path, value)
    for size in range(5):
        yield edit(["result", "level_range"], list(range(size)))
    others = [None, {}, [], "x", 1, [1], [{}], {"a": 1}, ["0.5"], True]
    paths = [["doc", "config"], ["doc", "results"], ["doc", "config", "params"],
             ["doc", "config", "suites"], ["doc", "config", "fixture"],
             ["result", "params"], ["result", "params", "a"], ["result", "family"]]
    for _ in range(300):
        yield edit(rng.choice(paths), rng.choice(others))
    yield from copy.deepcopy(reports)


def test_report_checker_agrees_with_jsonschema(eigen_reports):
    schema = _report_schema()
    oracle = jsonschema.validators.validator_for(schema)(schema)
    verdicts = {True: 0, False: 0}
    for doc in _mutants(eigen_reports, random.Random(17)):
        try:
            validate_report(doc)
            valid = True
        except ReportSchemaError:
            valid = False
        assert valid == oracle.is_valid(doc), doc
        verdicts[valid] += 1
    assert verdicts[True] >= 50 and verdicts[False] >= 200, verdicts
