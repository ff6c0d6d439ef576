"""Command-line front end.

Subcommands: ``invariants`` (single germ report), ``scan`` (family sweep),
``projective`` (homogeneous comparison), ``oracle-dim`` (brute-force
quotient dimension; the only place a degree bound exists).  Each
subcommand returns its JSON payload, the lines of its table and its exit
code; ``main`` alone writes the result, the human table by default or
machine JSON with ``--format json``.  JSON holds dimensions as integers,
infinite ones as the string "infinite", and exact rationals as strings.

Exit codes: 0 success, 1 user/input error, 2 mathematically degenerate
input (non-isolated singularity; the report is still emitted).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache
from math import inf

from .family import CATALOG_NAMES, _hypersurface_invariants, catalog, scan
from .modular import (
    homogeneous_degree,
    projective_closed_form,
    projective_t1_dimension,
    embedding_check,
)
from .oracle import truncated_quotient_dimension
from .parse import ParseError, parse_poly
from .poly import Polynomial, format_monomial
from .singularity import tjurina_algebra

DEFAULT_VARS = ("x", "y", "z")


class CliError(Exception):
    pass


def _dim(value):
    if value == inf:
        return "infinite"
    return int(value)


def _parse_vars(text: str | None) -> tuple[str, ...] | None:
    if text is None:
        return None
    names = tuple(v.strip() for v in text.split(",") if v.strip())
    if not names:
        raise CliError("empty --vars")
    return names


def _parse_input_poly(text: str, vars_opt: str | None) -> Polynomial:
    names = _parse_vars(vars_opt)
    if names is not None:
        return parse_poly(text, names)
    try:
        return parse_poly(text, DEFAULT_VARS)
    except ParseError as exc:
        raise CliError(f"{exc}; pass --vars if the polynomial uses other variables") from exc


def invariants_report(f: Polynomial) -> dict:
    mu, tau, t1, wdata, mt = _hypersurface_invariants(f)
    report: dict = {
        "input": str(f),
        "variables": list(f.ring),
        "milnor_number": _dim(mu),
        "tjurina_number": _dim(tau),
    }
    if wdata is not None:
        report["weights"] = list(wdata.weights)
        report["weight_degree"] = wdata.degree
    if t1 is not None:
        report["t1_basis"] = [format_monomial(f.ring, e) for e in t1.monomials]
        if t1.weights is not None:
            report["t1_weights"] = list(t1.weights)
        report["modular_tangent_dimension"] = mt.dimension
        report["modular_kernel_basis"] = [[str(c) for c in vec] for vec in mt.kernel_basis]
        if mt.convention_sensitive:
            report["convention_sensitive"] = True
    report["flags"] = {
        "non_isolated": t1 is None,
        "not_quasi_homogeneous": wdata is None,
    }
    return report


def _invariants_table(report: dict) -> list[str]:
    lines = [
        f"input: {report['input']}",
        f"variables: {', '.join(report['variables'])}",
        f"milnor number: {report['milnor_number']}",
        f"tjurina number: {report['tjurina_number']}",
    ]
    if "weights" in report:
        w = ", ".join(str(v) for v in report["weights"])
        lines.append(f"weights: ({w})  degree: {report['weight_degree']}")
    else:
        lines.append("weights: none found (not quasi-homogeneous in these coordinates)")
    if "t1_basis" in report:
        pieces = report["t1_basis"]
        if "t1_weights" in report:
            pieces = [f"{m} ({w})" for m, w in zip(pieces, report["t1_weights"])]
        lines.append(f"T1 basis: {', '.join(pieces) if pieces else '(empty)'}")
        lines.append(f"modular tangent dimension: {report['modular_tangent_dimension']}")
        for vec in report["modular_kernel_basis"]:
            combo = " + ".join(
                f"{c}*[{m}]" for c, m in zip(vec, report["t1_basis"]) if c != "0"
            )
            lines.append(f"  kernel vector: {combo}")
    if report["flags"]["non_isolated"]:
        lines.append("flag: non-isolated singularity")
    return lines


def cmd_invariants(args) -> tuple[dict, list[str], int]:
    report = invariants_report(_parse_input_poly(args.poly, args.vars))
    return report, _invariants_table(report), 2 if report["flags"]["non_isolated"] else 0


def _expand_zero_list(text: str) -> list[str]:
    names: list[str] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ".." in chunk:
            lo, hi = chunk.split("..", 1)
            stem = lo.rstrip("0123456789")
            if not hi.startswith(stem):
                raise CliError(f"bad range {chunk!r}")
            try:
                start = int(lo[len(stem):])
                end = int(hi[len(stem):])
            except ValueError:
                raise CliError(f"bad range {chunk!r}") from None
            if end < start:
                raise CliError(f"bad range {chunk!r}")
            names.extend(f"{stem}{i}" for i in range(start, end + 1))
        else:
            names.append(chunk)
    return names


def _scan_points(spec, args) -> tuple[list[dict[str, Fraction]], dict[str, Fraction]]:
    assignments: dict[str, list[Fraction]] = {}
    for item in args.param or []:
        if "=" not in item:
            raise CliError(f"bad --param {item!r}, expected name=v1,v2,...")
        name, _, values = item.partition("=")
        name = name.strip()
        if name not in spec.parameters:
            raise CliError(f"unknown parameter {name!r} for family {spec.name}")
        if name in assignments:
            raise CliError(f"parameter {name!r} given more than once")
        try:
            assignments[name] = [Fraction(v.strip()) for v in values.split(",") if v.strip()]
        except (ValueError, ZeroDivisionError) as exc:
            raise CliError(f"bad rational in --param {item!r}") from exc
        if not assignments[name]:
            raise CliError(f"no values in --param {item!r}")
    zeros = _expand_zero_list(args.zero) if args.zero else []
    for name in zeros:
        if name not in spec.parameters:
            raise CliError(f"unknown parameter {name!r} in --zero")
        if name in assignments:
            raise CliError(f"parameter {name!r} given more than once")
        assignments[name] = [Fraction(0)]
    defaults_applied = {
        n: spec.defaults.get(n, Fraction(0)) for n in spec.parameters if n not in assignments
    }
    assignments.update((n, [v]) for n, v in defaults_applied.items())
    # cartesian product; with a single swept parameter the rows follow the
    # requested value order
    points: list[dict[str, Fraction]] = [{}]
    for name in spec.parameters:
        points = [dict(pt, **{name: v}) for v in assignments[name] for pt in points]
    return points, defaults_applied


def scan_report_dict(spec, report, defaults_applied) -> dict:
    rows = []
    for row in report.rows:
        item: dict = {"point": {k: str(v) for k, v in row.point.items()}}
        if row.error is not None:
            item["error"] = row.error
        else:
            if row.mu is not None:
                item["milnor_number"] = _dim(row.mu)
            item["tjurina_number"] = _dim(row.tau)
            if row.modular_dim is not None:
                item["modular_tangent_dimension"] = row.modular_dim
            item["weights_found"] = row.weights_found
            item["non_isolated"] = row.non_isolated
        rows.append(item)
    out = {
        "family": spec.name,
        "parameters": list(spec.parameters),
        "rows": rows,
        "jump_indices": list(report.jump_indices),
    }
    if report.modal_tau is not None:
        out["modal_tjurina"] = report.modal_tau
    if defaults_applied:
        out["defaults_applied"] = {k: str(v) for k, v in defaults_applied.items()}
    return out


def cmd_scan(args) -> tuple[dict, list[str], int]:
    spec = catalog(args.family)
    points, defaults_applied = _scan_points(spec, args)
    report = scan(spec, points, with_modular=not args.no_modular)
    payload = scan_report_dict(spec, report, defaults_applied)
    lines = [f"family: {spec.name}  ({spec.description})"]
    if defaults_applied:
        fixed = ", ".join(f"{k}={v}" for k, v in sorted(defaults_applied.items()))
        lines.append(f"fixed parameters: {fixed}")
    header = ["point", "mu", "tau", "modular", "weights", "flags"]
    lines.append(" | ".join(h.ljust(12) for h in header))
    for item in payload["rows"]:
        pt = ",".join(f"{k}={v}" for k, v in item["point"].items())
        cells = [
            pt,
            str(item.get("milnor_number", "-")),
            str(item.get("tjurina_number", "-")),
            str(item.get("modular_tangent_dimension", "-")),
            "yes" if item.get("weights_found") else "no",
            "non-isolated" if item.get("non_isolated") else "",
        ]
        lines.append(" | ".join(c.ljust(12) for c in cells))
    if "modal_tjurina" in payload:
        lines.append(f"modal tjurina number: {payload['modal_tjurina']}")
    if payload["jump_indices"]:
        pts = ", ".join(
            ",".join(f"{k}={v}" for k, v in payload["rows"][i]["point"].items())
            for i in payload["jump_indices"]
        )
        lines.append(f"tjurina jumps at: {pts}")
    else:
        lines.append("no tjurina jumps among sampled points")
    return payload, lines, 0


def cmd_projective(args) -> tuple[dict, list[str], int]:
    f = _parse_input_poly(args.poly, args.vars)
    m = homogeneous_degree(f)
    dim = projective_t1_dimension(f)
    closed = projective_closed_form(len(f.ring), m)
    payload: dict = {
        "input": str(f),
        "variables": list(f.ring),
        "degree": m,
        "projective_t1_dimension": dim,
        "closed_form_value": closed,
        "closed_form_applies": closed == dim,
    }
    if len(f.ring) >= 4:
        _, t1 = tjurina_algebra(f)
        payload["embedding_check"] = embedding_check(f, t1)
    lines = [
        f"input: {payload['input']}",
        f"degree: {m} in {len(f.ring)} variables",
        f"projective T1 dimension: {dim}",
        f"closed form: {closed} ({'matches' if closed == dim else 'does not apply'})",
    ]
    if "embedding_check" in payload:
        verdict = "equal" if payload["embedding_check"] else "DIFFERENT"
        lines.append(f"embedding comparison with weight-{m} piece of the cone: {verdict}")
    return payload, lines, 0


def cmd_oracle_dim(args) -> tuple[dict, list[str], int]:
    names = _parse_vars(args.vars) or DEFAULT_VARS
    gens = []
    for chunk in args.gens.split(";"):
        chunk = chunk.strip()
        if chunk:
            gens.append(parse_poly(chunk, names))
    if not gens:
        raise CliError("no generators given")
    if args.degree_bound < 1:
        raise CliError("--degree-bound must be positive")
    dim = truncated_quotient_dimension(gens, args.degree_bound)
    payload = {
        "generators": [str(g) for g in gens],
        "variables": list(names),
        "degree_bound": args.degree_bound,
        "dimension": dim,
    }
    table = [f"dimension of O/(generators) truncated at degree {args.degree_bound}: {dim}"]
    return payload, table, 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="germcalc",
        description="Exact invariants of isolated singularities at the origin.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("table", "json"), default="table")
    variables = argparse.ArgumentParser(add_help=False)
    variables.add_argument("--vars", help="comma-separated variables (default x,y,z)")

    p_inv = sub.add_parser(
        "invariants", parents=[fmt, variables], help="Milnor/Tjurina numbers and modular data"
    )
    p_inv.add_argument("--poly", required=True, help="polynomial text, e.g. x^3+y^3+z^3+x*y*z")
    p_inv.set_defaults(run=cmd_invariants)

    p_scan = sub.add_parser(
        "scan", parents=[fmt], help="scan a catalog family over parameter points"
    )
    p_scan.add_argument("--family", required=True, help=f"one of: {', '.join(CATALOG_NAMES)}")
    p_scan.add_argument(
        "--param", action="append", help="name=v1,v2,... (repeatable; exact rationals)"
    )
    p_scan.add_argument("--zero", help="parameters to pin at zero, e.g. s1..s6 or a,b")
    p_scan.add_argument(
        "--no-modular", action="store_true", help="skip modular tangent dimensions"
    )
    p_scan.set_defaults(run=cmd_scan)

    p_proj = sub.add_parser(
        "projective", parents=[fmt, variables], help="projective hypersurface comparison"
    )
    p_proj.add_argument("--poly", required=True, help="homogeneous polynomial text")
    p_proj.set_defaults(run=cmd_projective)

    p_oracle = sub.add_parser(
        "oracle-dim",
        parents=[fmt, variables],
        help="brute-force local quotient dimension (cross-check)",
    )
    p_oracle.add_argument("--gens", required=True, help="semicolon-separated generators")
    p_oracle.add_argument(
        "--degree-bound", type=int, required=True, help="truncation degree for the oracle"
    )
    p_oracle.set_defaults(run=cmd_oracle_dim)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, table, code = args.run(args)
    except (CliError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(payload, indent=2) if args.format == "json" else "\n".join(table))
    return code


if __name__ == "__main__":
    sys.exit(main())
