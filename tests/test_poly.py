"""Exactness and ring axioms for the polynomial carrier."""

import random
from fractions import Fraction

import pytest

from germcalc import Polynomial, VectorPoly, parse_poly

V2 = ("x", "y")
V3 = ("x", "y", "z")


def random_poly(rng: random.Random, ring, max_terms=5, max_exp=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        expo = tuple(rng.randint(0, max_exp) for _ in ring)
        terms[expo] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return Polynomial(ring, terms)


@pytest.fixture(scope="module")
def rng():
    return random.Random(20250808)


def test_zero_and_constants():
    z = Polynomial.zero(V2)
    assert z.is_zero() and str(z) == "0"
    assert z.order_at_origin() == 0 and not z
    c = Polynomial.constant(V2, Fraction(-3, 2))
    assert c.constant_term() == Fraction(-3, 2) and c
    assert (c + (-c)).is_zero()
    # neither carrier equals a value of another type, nor the other carrier
    assert z != 0 and VectorPoly.from_polys([z]) != z


def test_ring_axioms_on_random_polys(rng):
    for _ in range(200):
        a = random_poly(rng, V3)
        b = random_poly(rng, V3)
        c = random_poly(rng, V3)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero()


def test_no_rounding_ever(rng):
    # every coefficient stays an exact Fraction through arbitrary products
    p = parse_poly("1/3*x+1/7*y^2", V2)
    q = p * p * p
    assert all(isinstance(c, Fraction) for _, c in q.iter_terms())
    assert q.terms[(3, 0)] == Fraction(1, 27)


def test_print_parse_round_trip_on_random_polys(rng):
    for _ in range(100):
        p = random_poly(rng, V3)
        assert parse_poly(str(p), V3) == p


def test_partial_derivative_power_rule():
    f = parse_poly("x^3+y^3+z^3+x*y*z", V3)
    assert f.partial_derivative("x") == parse_poly("3*x^2+y*z", V3)
    assert parse_poly("x^4", V2).partial_derivative("y").is_zero()


def test_partial_derivative_example9_polynomial():
    f = parse_poly("x^6+y^4+z^2+x*y*z", V3)
    assert f.partial_derivative("z") == parse_poly("2*z+x*y", V3)


def test_partial_derivative_unknown_variable():
    with pytest.raises(ValueError):
        parse_poly("x^2", V2).partial_derivative("q")


def test_leibniz_rule_on_random_pairs(rng):
    for _ in range(60):
        p = random_poly(rng, V2)
        q = random_poly(rng, V2)
        for v in V2:
            lhs = (p * q).partial_derivative(v)
            rhs = p * q.partial_derivative(v) + q * p.partial_derivative(v)
            assert lhs == rhs


def test_pow_matches_repeated_product(rng):
    p = random_poly(rng, V2, max_terms=3, max_exp=2)
    assert p**0 == Polynomial.constant(V2, 1)
    assert p**3 == p * p * p


def test_substitute_values_is_exact():
    f = parse_poly("x^2*t+y-t^2", ("x", "y", "t"))
    g = f.substitute_values({"t": Fraction(1, 2)})
    assert g == parse_poly("1/2*x^2+y-1/4", ("x", "y", "t"))
    h = g.restrict_ring(("x", "y"))
    assert h == parse_poly("1/2*x^2+y-1/4", V2)


def test_restrict_ring_rejects_used_variable():
    f = parse_poly("x+z", V3)
    with pytest.raises(ValueError):
        f.restrict_ring(V2)


def test_scale_variable():
    f = parse_poly("x^2+x*y", V2)
    assert f.scale_variable("x", 2) == parse_poly("4*x^2+2*x*y", V2)


def test_evaluate():
    f = parse_poly("x^2-y", V2)
    assert f.evaluate({"x": Fraction(3), "y": Fraction(2)}) == 7
    with pytest.raises(ValueError):
        f.evaluate({"x": Fraction(3)})


def test_ring_mismatch_raises():
    with pytest.raises(ValueError):
        parse_poly("x", V2) + parse_poly("x", V3)


@pytest.mark.parametrize("expo", [(1,), (1, -1)], ids=["short", "negative"])
def test_bad_exponent_raises(expo):
    with pytest.raises(ValueError, match=r"^bad exponent \(1,( -1)?\) for ring"):
        Polynomial(V2, {expo: Fraction(1)})


def test_values_are_immutable():
    with pytest.raises(AttributeError, match="^Polynomial is immutable$"):
        parse_poly("x", V2).ring = V3
    with pytest.raises(AttributeError, match="^VectorPoly is immutable$"):
        VectorPoly.from_poly(parse_poly("x", V2)).ncomp = 2


def test_unknown_variable_raises():
    with pytest.raises(ValueError, match="^unknown variable 'z' in ring"):
        Polynomial.variable(V2, "z")


def test_scale_by_zero_is_zero():
    assert parse_poly("x+y", V2).scale(0) == Polynomial.zero(V2)


def test_negative_power_raises():
    with pytest.raises(ValueError, match="^exponent must be a non-negative integer$"):
        parse_poly("x", V2) ** -1


def test_scale_variable_needs_a_unit():
    with pytest.raises(ValueError, match="^coordinate scale must be a unit$"):
        parse_poly("x", V2).scale_variable("x", 0)


def test_vector_component_out_of_range():
    with pytest.raises(ValueError, match=r"^component 2 out of range for O\^2$"):
        VectorPoly(V2, 2, {(2, (0, 0)): Fraction(1)})


def test_equal_vectors_hash_alike():
    # equal term maps built in another order are one set element
    a = VectorPoly(V2, 2, {(0, (1, 0)): Fraction(1, 2), (1, (0, 2)): -1})
    b = VectorPoly(V2, 2, {(1, (0, 2)): Fraction(-1), (0, (1, 0)): Fraction(1, 2)})
    assert a == b and hash(a) == hash(b) and len({a, b, a.scale(2)}) == 2


def test_from_polys_needs_one_ring():
    with pytest.raises(ValueError, match="^components from different rings$"):
        VectorPoly.from_polys([parse_poly("x", V2), parse_poly("x", V3)])
