"""Catalog families, exact evaluation, and invariant scans."""

from fractions import Fraction
from math import inf

import pytest

from germcalc import FamilySpec, ScanReport, ScanRow, catalog, evaluate, parse_poly, scan
from germcalc.cli import scan_report_dict

V2 = ("x", "y")
V3 = ("x", "y", "z")


# -- catalog -------------------------------------------------------------------


def test_tpqr_template():
    spec = catalog("tpqr:3,3,3")
    assert spec.parameters == ("lambda",)
    combined = V3 + ("lambda",)
    assert spec.equations[0] == parse_poly("x^3+y^3+z^3+lambda*x*y*z", combined)
    # the parenthesized spelling is accepted too
    assert catalog("tpqr(4,4,2)").equations[0] == parse_poly(
        "x^4+y^4+z^2+lambda*x*y*z", combined
    )


def test_example6_template_and_default():
    spec = catalog("example6")
    combined = V3 + ("mu", "r", "s1", "s2", "t1", "t2")
    assert spec.equations[0] == parse_poly(
        "x^4+y^3+z^3+mu*x*y*z+r*x^3+s1*y+s2*y^2+t1*z+t2*z^2", combined
    )
    assert spec.defaults == {"mu": Fraction(1)}


def test_example7_template():
    spec = catalog("example7-martin")
    combined = V2 + tuple(f"s{i}" for i in range(1, 7)) + ("t",)
    assert spec.equations[0] == parse_poly(
        "x^4-x^2*y^2+s1*x+s2*y+s3*x*y+s4*y^2+s5*y^3+s6*x*y^2+t*y^4+y^5", combined
    )


def test_example8_template_has_two_equations():
    spec = catalog("example8-icis")
    combined = V3 + ("s",)
    assert spec.k == 2
    assert spec.equations == (
        parse_poly("x^4+y^4+2*z^2", combined),
        parse_poly("s*z-x*y", combined),
    )


def test_example9_template():
    spec = catalog("example9-y642")
    combined = V3 + ("r", "s", "t", "v")
    assert spec.equations[0] == parse_poly(
        "x^6+y^4+z^2+x*y*z+r*x^4+s*x^5+t*y^3+v*z", combined
    )


def test_unknown_family():
    with pytest.raises(ValueError):
        catalog("nope")
    with pytest.raises(ValueError):
        catalog("tpqr:3,3")
    with pytest.raises(ValueError):
        catalog("tpqr:1,3,3")


# -- evaluation ------------------------------------------------------------------


def test_evaluate_tpqr_at_zero():
    spec = catalog("tpqr:3,3,3")
    germ = evaluate(spec, {"lambda": 0})
    assert germ.equations[0] == parse_poly("x^3+y^3+z^3", V3)


def test_evaluate_martin_family_at_quarter():
    spec = catalog("example7-martin")
    point = {f"s{i}": 0 for i in range(1, 7)}
    point["t"] = Fraction(1, 4)
    germ = evaluate(spec, point)
    assert germ.equations[0] == parse_poly("x^4-x^2*y^2+1/4*y^4+y^5", V2)


def test_evaluate_example6_point():
    spec = catalog("example6")
    point = {"mu": 1, "r": 1, "s1": 0, "s2": 0, "t1": 0, "t2": 0}
    germ = evaluate(spec, point)
    assert germ.equations[0] == parse_poly("x^4+y^3+z^3+x*y*z+x^3", V3)


def test_evaluate_missing_and_unknown_parameters():
    spec = catalog("tpqr:3,3,3")
    with pytest.raises(ValueError):
        evaluate(spec, {})
    with pytest.raises(ValueError):
        evaluate(spec, {"lambda": 1, "bogus": 2})


# -- scans -------------------------------------------------------------------------


def test_scan_tpqr_333_with_degenerate_point():
    spec = catalog("tpqr:3,3,3")
    points = [{"lambda": v} for v in (0, 1, 2, -3)]
    report = scan(spec, points, with_modular=False)
    assert [row.tau for row in report.rows] == [8, 8, 8, inf]
    assert report.modal_tau == 8
    assert report.jump_indices == (3,)
    assert report.rows[3].non_isolated


def test_scan_martin_family_computed_values():
    # recorded engine values; the fiber over t = 1/4 is a genuine Milnor jump
    spec = catalog("example7-martin")
    points = []
    for t in (1, Fraction(1, 4), 0):
        p = {f"s{i}": 0 for i in range(1, 7)}
        p["t"] = t
        points.append(p)
    report = scan(spec, points, with_modular=False)
    assert [row.mu for row in report.rows] == [9, 11, 10]
    assert [row.tau for row in report.rows] == [9, 10, 9]
    assert report.modal_tau == 9
    assert report.jump_indices == (1,)


def test_scan_icis_family():
    spec = catalog("example8-icis")
    report = scan(spec, [{"s": 0}, {"s": 2}, {"s": 1}])
    assert [row.tau for row in report.rows] == [9, 9, inf]
    assert report.rows[2].non_isolated
    assert report.jump_indices == (2,)


def test_scan_determinism():
    spec = catalog("tpqr:6,3,2")
    points = [{"lambda": v} for v in (0, 1, 2)]
    a = scan(spec, points)
    b = scan(spec, points)
    assert a == b


def test_scan_generic_fiber_stability():
    for name in ["tpqr:3,3,3", "tpqr:4,4,2", "tpqr:6,3,2"]:
        spec = catalog(name)
        report = scan(spec, [{"lambda": v} for v in (1, 2, 7)], with_modular=False)
        taus = {row.tau for row in report.rows}
        assert len(taus) == 1 and inf not in taus


def test_scan_upper_semicontinuity_of_jumps():
    spec = catalog("example7-martin")
    points = []
    for t in (1, 2, Fraction(1, 4), 0, -1):
        p = {f"s{i}": 0 for i in range(1, 7)}
        p["t"] = t
        points.append(p)
    report = scan(spec, points, with_modular=False)
    for i in report.jump_indices:
        assert report.rows[i].tau > report.modal_tau


def test_scan_reports_bad_point_as_row_error():
    spec = catalog("tpqr:3,3,3")
    report = scan(spec, [{"lambda": 1, "oops": 0}, {"lambda": 1}])
    assert report.rows[0].error is not None
    assert report.rows[1].tau == 8


def test_scan_modular_column():
    spec = catalog("tpqr:3,3,3")
    report = scan(spec, [{"lambda": 1}])
    assert report.rows[0].modular_dim == 1
    assert report.rows[0].weights_found


def test_scan_requires_points():
    with pytest.raises(ValueError):
        scan(catalog("tpqr:3,3,3"), [])


def test_example6_r_line_fiber_looks_like_the_cubic_family():
    # the fiber over (mu, r) = (1, 1) is a coordinate-changed member of the
    # three-term cubic family: same mu = tau = 8 and a one-dimensional
    # modular tangent, even though no diagonal weights exist as written
    from germcalc import GermInput, find_weights, milnor_number, modular_tangent_space, tjurina_number

    germ = evaluate(catalog("example6"), {"mu": 1, "r": 1, "s1": 0, "s2": 0, "t1": 0, "t2": 0})
    f = germ.equations[0]
    assert milnor_number(germ) == 8
    assert tjurina_number(germ)[0] == 8
    assert find_weights(f) is None
    assert modular_tangent_space(f).dimension == 1


def test_example9_t_line_fiber_looks_like_the_632_family():
    from germcalc import GermInput, milnor_number, modular_tangent_space, tjurina_number

    germ = evaluate(catalog("example9-y642"), {"r": 0, "s": 0, "t": 8, "v": 0})
    f = germ.equations[0]
    assert milnor_number(germ) == 10
    assert tjurina_number(germ)[0] == 10
    assert modular_tangent_space(f).dimension == 1


def test_family_spec_checks_its_rings():
    eq = parse_poly("x^2+a*y", ("x", "y", "a"))
    with pytest.raises(ValueError, match="^ring variables and parameters must be disjoint$"):
        FamilySpec("overlap", ("x", "y"), ("y",), (eq,), "a parameter named like a variable")
    with pytest.raises(ValueError, match=r"^template ring must be ring_vars \+ parameters$"):
        FamilySpec("ring", ("x", "y"), ("a",), (parse_poly("x^2", ("x", "y")),), "no parameter")


def test_tpqr_prefix_with_trailing_text_is_unknown():
    known = "tpqr:p,q,r, example6, example7-martin, example8-icis, example9-y642"
    with pytest.raises(ValueError, match=f"^unknown family 'tpqrx'; known: {known}$"):
        catalog("tpqrx")


def test_fiber_missing_the_origin_is_a_row_error():
    ring = ("x", "y", "a")
    spec = FamilySpec("shifted", ("x", "y"), ("a",), (parse_poly("x^2+y^2+a", ring),), "shift")
    report = scan(spec, [{"a": 1}, {"a": 0}])
    error = "fiber does not pass through the origin"
    assert report.rows[0].error == error
    assert (report.rows[0].tau, report.rows[0].non_isolated) == (None, False)
    assert (report.rows[1].tau, report.modal_tau, report.jump_indices) == (1, 1, ())
    rows = scan_report_dict(spec, report, {})["rows"]
    assert rows[0] == {"point": {"a": "1"}, "error": error}


@pytest.mark.parametrize(
    "taus, modal, jumps",
    [
        ((8, 9, 9, 8, inf, None), 8, (1, 2, 4)),  # a tie goes to the smaller tau
        ((10, 9, 10), 10, (1,)),  # the most frequent tau, not the smallest
        ((inf, None, inf), None, (0, 2)),  # no finite tau: every infinite row jumps
        ((None,), None, ()),
    ],
    ids=["tie", "most-frequent", "all-infinite", "all-errors"],
)
def test_scan_report_reads_modal_tau_and_jumps_off_its_rows(taus, modal, jumps):
    rows = tuple(ScanRow({}, None, t, None, False, error=None if t is not None else "error") for t in taus)
    report = ScanReport("rows", rows)
    assert (report.modal_tau, report.jump_indices) == (modal, jumps)
    assert [row.non_isolated for row in rows] == [t == inf for t in taus]
