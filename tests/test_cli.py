"""Command-line contract: exit codes, table output, JSON golden files,
and schema validation."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from germcalc.cli import main

HERE = Path(__file__).parent
GOLDEN = HERE / "golden"
SCHEMA = json.loads((HERE.parent / "schema" / "report.json").read_text())

GOLDEN_COMMANDS = {
    "invariants_t333.json": ["invariants", "--poly", "x^3+y^3+z^3+x*y*z", "--format", "json"],
    "invariants_a4.json": ["invariants", "--poly", "x^5+y^2+z^2", "--format", "json"],
    "invariants_nonisolated.json": [
        "invariants", "--poly", "x^2*y", "--vars", "x,y", "--format", "json",
    ],
    "scan_tpqr333.json": [
        "scan", "--family", "tpqr:3,3,3", "--param", "lambda=0,1,2,-3", "--format", "json",
    ],
    "scan_example7.json": [
        "scan", "--family", "example7-martin", "--param", "t=1,1/4,0",
        "--zero", "s1..s6", "--no-modular", "--format", "json",
    ],
    "scan_example8.json": [
        "scan", "--family", "example8-icis", "--param", "s=1,2", "--format", "json",
    ],
    "projective_quartic.json": [
        "projective", "--poly", "x^4+y^4+z^4+w^4", "--vars", "x,y,z,w", "--format", "json",
    ],
    "oracle_t333.json": [
        "oracle-dim", "--gens", "3*x^2+y*z;3*y^2+x*z;3*z^2+x*y",
        "--degree-bound", "5", "--format", "json",
    ],
}

EXPECTED_EXIT = {"invariants_nonisolated.json": 2}


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS), ids=lambda n: n.split(".")[0])
def test_golden_json_outputs(name, capsys):
    code, out, _ = run_cli(GOLDEN_COMMANDS[name], capsys)
    assert code == EXPECTED_EXIT.get(name, 0)
    payload = json.loads(out)
    assert payload == json.loads((GOLDEN / name).read_text())


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS), ids=lambda n: n.split(".")[0])
def test_golden_json_validates_against_schema(name):
    payload = json.loads((GOLDEN / name).read_text())
    jsonschema.validate(payload, SCHEMA)


def test_json_round_trips_losslessly():
    for name in GOLDEN_COMMANDS:
        payload = json.loads((GOLDEN / name).read_text())
        assert json.loads(json.dumps(payload)) == payload


def test_invariants_table_output(capsys):
    code, out, _ = run_cli(["invariants", "--poly", "x^3+y^3+z^3+x*y*z"], capsys)
    assert code == 0
    assert "milnor number: 8" in out
    assert "tjurina number: 8" in out
    assert "weights: (1, 1, 1)  degree: 3" in out
    assert "modular tangent dimension: 1" in out


def test_default_variables_need_xyz(capsys):
    code, _, err = run_cli(["invariants", "--poly", "a^2+b^2"], capsys)
    assert code == 1
    assert "--vars" in err


def test_parse_error_reports_position(capsys):
    code, _, err = run_cli(["invariants", "--poly", "x^"], capsys)
    assert code == 1
    assert "position" in err


def test_non_vanishing_input_is_an_error(capsys):
    code, _, err = run_cli(["invariants", "--poly", "x^2+1"], capsys)
    assert code == 1
    assert "origin" in err


def test_non_isolated_exit_code_two_with_report(capsys):
    code, out, _ = run_cli(["invariants", "--poly", "x^2*y", "--vars", "x,y"], capsys)
    assert code == 2
    assert "non-isolated" in out


@pytest.mark.parametrize("poly", ["x", "y+x^2"])
def test_smooth_germ_omitting_a_variable(poly, capsys):
    # a partial derivative that vanishes identically must not reach syzygies
    code, out, _ = run_cli(["invariants", "--poly", poly, "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["milnor_number"] == payload["tjurina_number"] == 0
    assert payload["modular_tangent_dimension"] == 0


def test_unknown_family_exit_one(capsys):
    code, _, err = run_cli(["scan", "--family", "nope", "--param", "t=1"], capsys)
    assert code == 1
    assert "unknown family" in err


def test_scan_bad_zero_range_exit_one(capsys):
    code, _, err = run_cli(
        ["scan", "--family", "example7-martin", "--param", "t=1", "--zero", "s..s6"], capsys
    )
    assert code == 1
    assert "bad range 's..s6'" in err


def test_scan_table_shows_jumps(capsys):
    code, out, _ = run_cli(
        ["scan", "--family", "tpqr:3,3,3", "--param", "lambda=0,-3", "--no-modular"],
        capsys,
    )
    assert code == 0
    assert "non-isolated" in out
    assert "tjurina jumps at: lambda=-3" in out


def test_scan_records_defaults(capsys):
    code, out, _ = run_cli(
        ["scan", "--family", "example6", "--param", "r=0", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["defaults_applied"]["mu"] == "1"
    assert payload["rows"][0]["tjurina_number"] == 8  # mu=1, rest zero: the (4,3,3) germ


def test_projective_rejects_non_homogeneous(capsys):
    code, _, err = run_cli(["projective", "--poly", "x^3+y"], capsys)
    assert code == 1
    assert "homogeneous" in err


def test_oracle_dim_requires_bound(capsys):
    with pytest.raises(SystemExit):
        main(["oracle-dim", "--gens", "x^2"])


def test_oracle_dim_table(capsys):
    code, out, _ = run_cli(
        ["oracle-dim", "--gens", "x^2;y^3", "--vars", "x,y", "--degree-bound", "4"],
        capsys,
    )
    assert code == 0
    assert "6" in out


def test_standard_basis_debug_serialization_validates():
    from germcalc import NEGDEGREVLEX, parse_poly, standard_basis

    f = parse_poly("x^3+y^3+z^3+x*y*z", ("x", "y", "z"))
    gens = [f] + [f.partial_derivative(v) for v in ("x", "y", "z")]
    payload = standard_basis(gens, NEGDEGREVLEX).to_dict()
    jsonschema.validate(payload, SCHEMA)
    assert json.loads(json.dumps(payload)) == payload


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "germcalc.cli", "invariants", "--poly", "x^4+y^2+z^2",
         "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["tjurina_number"] == 3


@pytest.mark.parametrize(
    "extra",
    [
        ["--param", "lambda=1", "--param", "lambda=2"],
        ["--zero", "lambda", "--param", "lambda=2"],
        ["--param", "lambda=2", "--zero", "lambda"],
        ["--zero", "lambda,lambda"],
    ],
    ids=["param-param", "zero-then-param", "param-then-zero", "zero-zero"],
)
def test_scan_parameter_given_twice_exit_one(extra, capsys):
    code, out, err = run_cli(["scan", "--family", "tpqr:3,3,3", "--no-modular", *extra], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: parameter 'lambda' given more than once\n"

