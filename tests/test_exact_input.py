"""The one gate for outside input: exact numbers, variable names and order weights.

A float is already rounded, so every entry that takes a number refuses
one with the same ``TypeError``; an exact value passes as a ``Fraction``,
an int or a string.  An unknown variable name gets one message from every
entry, and a weighted order takes positive int weights, one per ring
variable.
"""

from fractions import Fraction

import pytest

from germcalc import (
    MonomialOrder,
    Polynomial,
    VectorPoly,
    catalog,
    evaluate,
    parse_poly,
    scan,
    standard_basis,
    syzygies,
    weighted_local,
)
from germcalc import family

V2 = ("x", "y")
V3 = ("x", "y", "z")
P = parse_poly("x^2+3*y", V2)
VEC = VectorPoly.from_polys([P, P])
EXAMPLE6 = {"mu": 1, "r": Fraction(-1, 27), "s1": 0, "s2": 0, "t1": 0, "t2": 0}

FLOAT_ENTRIES = {
    "Polynomial": lambda c: Polynomial(V2, {(1, 0): c}),
    "constant": lambda c: Polynomial.constant(V2, c),
    "monomial": lambda c: Polynomial.monomial(V2, (1, 0), c),
    "scale": lambda c: P.scale(c),
    "mul": lambda c: P * c,
    "rmul": lambda c: c * P,
    "evaluate": lambda c: P.evaluate({"x": c, "y": 1}),
    "substitute_values": lambda c: P.substitute_values({"x": c}),
    "scale_variable": lambda c: P.scale_variable("x", c),
    "VectorPoly": lambda c: VectorPoly(V2, 2, {(1, (0, 1)): c}),
    "VectorPoly.scale": lambda c: VEC.scale(c),
    "family.evaluate": lambda c: evaluate(catalog("tpqr:3,3,3"), {"lambda": c}),
    "scan": lambda c: scan(catalog("tpqr:3,3,3"), [{"lambda": c}], with_modular=False),
}


@pytest.mark.parametrize("entry", FLOAT_ENTRIES)
def test_every_entry_refuses_a_float(entry):
    with pytest.raises(TypeError, match=r"^inexact coefficient 0\.5$"):
        FLOAT_ENTRIES[entry](0.5)


@pytest.mark.parametrize("entry", sorted(set(FLOAT_ENTRIES) - {"scan"}))
def test_every_entry_takes_a_fraction_an_int_or_a_string_alike(entry):
    make = FLOAT_ENTRIES[entry]
    assert make(Fraction(2)) == make(2) == make("2")
    assert make(Fraction(-1, 27)) == make("-1/27")


def test_example6_scan_keeps_the_planted_jump_at_an_exact_r():
    for r in (Fraction(-1, 27), "-1/27"):
        (row,) = scan(catalog("example6"), [dict(EXAMPLE6, r=r)], with_modular=False).rows
        assert (row.mu, row.tau, row.point["r"]) == (11, 10, Fraction(-1, 27))


def test_scan_refuses_a_float_point_before_any_row(monkeypatch):
    def no_row(*args):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(family, "evaluate", no_row)
    with pytest.raises(TypeError, match="^inexact coefficient"):
        scan(catalog("example6"), [EXAMPLE6, dict(EXAMPLE6, r=-1 / 27)], with_modular=False)


UNKNOWN_NAME_ENTRIES = {
    "variable": lambda: Polynomial.variable(V2, "q"),
    "partial_derivative": lambda: P.partial_derivative("q"),
    "substitute_values": lambda: P.substitute_values({"q": 1}),
    "restrict_ring": lambda: P.restrict_ring(("x", "q")),
    "scale_variable": lambda: P.scale_variable("q", 2),
}


@pytest.mark.parametrize("entry", UNKNOWN_NAME_ENTRIES)
def test_every_entry_names_an_unknown_variable(entry):
    with pytest.raises(ValueError, match=r"^unknown variable 'q' in ring \('x', 'y'\)$"):
        UNKNOWN_NAME_ENTRIES[entry]()


@pytest.mark.parametrize(
    "make",
    [
        lambda: weighted_local((1.5, 2)),
        lambda: weighted_local(("2", "3")),
        lambda: MonomialOrder("weighted", (1.5, 2)),
    ],
    ids=["float", "string", "constructor"],
)
def test_weighted_order_takes_positive_int_weights_only(make):
    with pytest.raises(ValueError, match="^weighted order needs positive int weights"):
        make()


def test_int_weights_give_the_same_orders():
    order = MonomialOrder("weighted", (3, 2, 1))
    assert weighted_local((3, 2, 1)) == weighted_local([3, 2, 1]) == weighted_local(range(3, 0, -1))
    assert weighted_local((3, 2, 1)) == order
    assert order.degree((1, 1, 1)) == 6


@pytest.mark.parametrize("weights", [(1, 2), (1, 2, 3, 4)], ids=["short", "long"])
def test_order_weights_must_match_the_ring(weights):
    gens = [parse_poly("x^2+y^3+z^4", V3), parse_poly("x*y", V3)]
    message = f"^{len(weights)} order weights for a ring of 3 variables$"
    with pytest.raises(ValueError, match=message):
        standard_basis(gens, weighted_local(weights))
    with pytest.raises(ValueError, match=message):
        syzygies(gens, weighted_local(weights))
