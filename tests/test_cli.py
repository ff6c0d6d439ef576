"""Command-line contract: exit codes, table output, JSON golden files,
and schema validation."""

import json
import os
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

import germcalc
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
    golden = (GOLDEN / name).read_text()
    assert json.loads(out) == json.loads(golden)
    assert out == golden  # byte for byte: number form, key order and indentation too


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


def test_superscript_exponent_is_a_parse_error(capsys):
    code, _, err = run_cli(["invariants", "--poly", "x^\u00b2+y^2"], capsys)
    assert code == 1
    assert err.startswith("error: unexpected character '\u00b2' (at position 2)")


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


@pytest.mark.parametrize("zero", ["s..s6", "s6..s1", "s1..t3"])
def test_scan_bad_zero_range_exit_one(zero, capsys):
    code, _, err = run_cli(
        ["scan", "--family", "example7-martin", "--param", "t=1", "--zero", zero], capsys
    )
    assert code == 1
    assert f"bad range {zero!r}" in err


def test_scan_table_shows_jumps(capsys):
    code, out, _ = run_cli(
        ["scan", "--family", "tpqr:3,3,3", "--param", "lambda=0,-3", "--no-modular"],
        capsys,
    )
    assert code == 0
    assert "non-isolated" in out
    assert "tjurina jumps at: lambda=-3" in out


def test_invariants_table_of_a_non_quasi_homogeneous_germ(capsys):
    code, out, _ = run_cli(["invariants", "--poly", "x^5+y^4+z^3+x*y*z"], capsys)
    assert code == 0
    assert out == (
        "input: x^5+y^4+x*y*z+z^3\n"
        "variables: x, y, z\n"
        "milnor number: 11\n"
        "tjurina number: 10\n"
        "weights: none found (not quasi-homogeneous in these coordinates)\n"
        "T1 basis: 1, z, y, x, z^2, y^2, x^2, y^3, x^3, x^4\n"
        "modular tangent dimension: 3\n"
        "  kernel vector: 1*[z^2]\n"
        "  kernel vector: 1*[y^3]\n"
        "  kernel vector: 1*[x^4]\n"
    )


def test_scan_table_with_fixed_parameters_and_no_jumps(capsys):
    # the empty chunk of --zero is skipped
    argv = ["scan", "--family", "example6", "--param", "r=0,1", "--zero", "s1,,s2", "--no-modular"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "fixed parameters: mu=1, t1=0, t2=0"
    assert [line.split(" | ")[2].strip() for line in lines[3:5]] == ["8", "8"]
    assert lines[-1] == "no tjurina jumps among sampled points"


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


def test_projective_singular_exit_one(capsys):
    # x^3+y^3 in x, y, z is a cone over three points: V(f) is singular at [0:0:1]
    code, out, err = run_cli(["projective", "--poly", "x^3+y^3"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: projective hypersurface V(f) is singular\n"


def test_projective_table_output(capsys):
    code, out, _ = run_cli(["projective", "--poly", "x^4+y^4+z^4+w^4", "--vars", "x,y,z,w"], capsys)
    assert code == 0
    assert out == (
        "input: x^4+y^4+z^4+w^4\n"
        "degree: 4 in 4 variables\n"
        "projective T1 dimension: 19\n"
        "closed form: 19 (matches)\n"
        "embedding comparison with weight-4 piece of the cone: equal\n"
    )


TPQR = ["scan", "--family", "tpqr:3,3,3", "--no-modular"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["invariants", "--poly", "x^2", "--vars", " , "], "empty --vars"),
        (TPQR + ["--param", "lambda"], "bad --param 'lambda', expected name=v1,v2,..."),
        (TPQR + ["--param", "mu=1"], "unknown parameter 'mu' for family tpqr:3,3,3"),
        (TPQR + ["--param", "lambda=1/0"], "bad rational in --param 'lambda=1/0'"),
        (TPQR + ["--param", "lambda=a"], "bad rational in --param 'lambda=a'"),
        (TPQR + ["--param", "lambda= , "], "no values in --param 'lambda= , '"),
        (TPQR + ["--zero", "mu"], "unknown parameter 'mu' in --zero"),
        (["oracle-dim", "--gens", "x^2", "--degree-bound", "0"], "--degree-bound must be positive"),
        (["oracle-dim", "--gens", " ; ", "--degree-bound", "3"], "no generators given"),
        (["invariants", "--poly", "0"], "zero polynomial does not define a germ"),
        (["invariants", "--poly", "x^2+1"], "equation does not vanish at the origin"),
    ],
    ids=[
        "empty-vars", "param-without-equals", "unknown-param", "zero-denominator",
        "not-a-rational", "no-values", "unknown-zero", "degree-bound-zero", "no-gens",
        "zero-poly", "not-at-origin",
    ],
)
def test_bad_arguments_exit_one(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_oracle_dim_requires_bound(capsys):
    with pytest.raises(SystemExit):
        main(["oracle-dim", "--gens", "x^2"])


def test_argument_error_leaves_the_parser_for_the_next_call(capsys):
    # the parser is built once per process, so an in-process caller that hits
    # an argument error gets the same parser back, unchanged
    with pytest.raises(SystemExit) as exit_info:
        main(["invariants", "--format", "yaml", "--poly", "x^2"])
    assert exit_info.value.code == 2
    capsys.readouterr()
    name = "invariants_t333.json"
    code, out, _ = run_cli(GOLDEN_COMMANDS[name], capsys)
    assert code == 0
    assert out == (GOLDEN / name).read_text()


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


def _module_basis():
    from germcalc import NEGDEGREVLEX, VectorPoly, parse_poly, standard_basis

    # ICIS Tjurina module in O^2: Jacobian columns and equation multiples
    ring = ("x", "y", "z")
    eqs = [parse_poly("x^4+y^4+2*z^2", ring), parse_poly("2*z-x*y", ring)]
    zero = parse_poly("0", ring)
    gens = [VectorPoly.from_polys([g.partial_derivative(v) for g in eqs]) for v in ring]
    gens += [VectorPoly.from_polys([g, zero]) for g in eqs]
    gens += [VectorPoly.from_polys([zero, g]) for g in eqs]
    return standard_basis(gens, NEGDEGREVLEX)


def _weighted_basis():
    from germcalc import parse_poly, standard_basis, weighted_local

    ring = ("x", "y", "z")
    f = parse_poly("x^6+y^3+z^2+x*y*z", ring)
    gens = [f] + [f.partial_derivative(v) for v in ring]
    return standard_basis(gens, weighted_local((1, 2, 3)))


@pytest.mark.parametrize(
    "build, components, order, weights",
    [(_module_basis, 2, "negdegrevlex", None), (_weighted_basis, 1, "weighted", [1, 2, 3])],
    ids=["module", "weighted"],
)
def test_standard_basis_to_dict_matches_its_schema_definition(build, components, order, weights):
    basis = build()
    payload = basis.to_dict()
    definition = {
        "$schema": SCHEMA["$schema"],
        "$ref": "#/definitions/standard_basis",
        "definitions": SCHEMA["definitions"],
    }
    jsonschema.validate(payload, definition)
    assert payload["order"] == order and payload.get("order_weights") == weights
    assert payload["components"] == components
    assert len(payload["generators"]) == len(payload["leading_terms"]) == len(basis.generators)
    assert all(len(g) == components for g in payload["generators"])
    assert {comp for comp, _ in payload["leading_terms"]} == set(range(components))
    assert json.loads(json.dumps(payload)) == payload


def test_console_script_entry_point(monkeypatch, capsys):
    # the child imports the package this suite imported, installed or not
    argv = ["invariants", "--poly", "x^4+y^2+z^2", "--format", "json"]
    source = str(Path(germcalc.__file__).parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "germcalc.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["tjurina_number"] == 3
    # the same run in this process, so a line tracer sees the __main__ guard;
    # runpy warns that germcalc.cli is already imported
    monkeypatch.setattr(sys, "argv", ["germcalc", *argv])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(SystemExit) as exit_info:
            runpy.run_module("germcalc.cli", run_name="__main__")
    assert exit_info.value.code == 0
    assert json.loads(capsys.readouterr().out) == payload


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

