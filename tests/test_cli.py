"""Command-line interface: subcommands, output formats and exit codes."""

from __future__ import annotations

import json
import math
from importlib import resources

import jsonschema
import pytest

from dqm.cli import main, validate_report


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


def test_report_schema_is_valid_and_enforced():
    # validate_report skips the meta-schema check, so it is made here once
    schema = json.loads(
        resources.files("dqm.data").joinpath("report_schema.json").read_text(
            encoding="utf-8"
        )
    )
    jsonschema.validators.validator_for(schema).check_schema(schema)
    with pytest.raises(jsonschema.ValidationError):
        validate_report({"version": 1, "config": {}})
