"""Grammar coverage and error positions for the polynomial parser."""

import pytest

from germcalc import ParseError, parse_poly

V2 = ("x", "y")
V3 = ("x", "y", "z")


def test_four_term_cubic():
    p = parse_poly("x^3+y^3+z^3+1*x*y*z", V3)
    assert p.terms == {
        (3, 0, 0): 1,
        (0, 3, 0): 1,
        (0, 0, 3): 1,
        (1, 1, 1): 1,
    }


def test_zero_literal():
    assert parse_poly("0", ("x",)).is_zero()


def test_distributive_expansion():
    p = parse_poly("(x^3-x*y^2)*(x-2*y)", V2)
    assert p == parse_poly("x^4-2*x^3*y-x^2*y^2+2*x*y^3", V2)


def test_rational_coefficients_and_constant_power():
    from fractions import Fraction

    p = parse_poly("1/4*y^4", V2)
    assert p.terms == {(0, 4): Fraction(1, 4)}
    assert parse_poly("2^3", V2).constant_term() == 8


def test_unary_minus_and_signs():
    assert parse_poly("-x+y", V2) == parse_poly("y-x", V2)
    assert parse_poly("-2*x^2", V2).terms == {(2, 0): -2}
    assert parse_poly("x*(-y+1)", V2) == parse_poly("x-x*y", V2)


def test_whitespace_insignificant():
    assert parse_poly("  x ^ 2 +  y ", V2) == parse_poly("x^2+y", V2)


def test_juxtaposition_is_rejected():
    with pytest.raises(ParseError):
        parse_poly("2x", V2)
    with pytest.raises(ParseError):
        parse_poly("x y", V2)


def test_unknown_identifier_with_position():
    with pytest.raises(ParseError) as err:
        parse_poly("x^2+q*y", V2)
    assert err.value.position == 4
    assert "q" in str(err.value)


def test_syntax_error_positions():
    with pytest.raises(ParseError) as err:
        parse_poly("x^", V2)
    assert err.value.position == 2
    with pytest.raises(ParseError) as err:
        parse_poly("(x+y", V2)
    assert err.value.position == 4
    with pytest.raises(ParseError) as err:
        parse_poly("x++y", V2)
    assert err.value.position >= 1


def test_bad_exponent_forms():
    with pytest.raises(ParseError):
        parse_poly("x^-2", V2)
    with pytest.raises(ParseError):
        parse_poly("x^(2)", V2)
    with pytest.raises(ParseError):
        parse_poly("x^y", V2)


def test_zero_denominator():
    with pytest.raises(ParseError):
        parse_poly("1/0", V2)


def test_unexpected_character():
    with pytest.raises(ParseError) as err:
        parse_poly("x…y", V2)
    assert err.value.position == 1


@pytest.mark.parametrize("text, position", [("x^\u00b2", 2), ("x^\u0663", 2), ("\u00b9*x", 0)])
def test_only_ascii_digits_are_numbers(text, position):
    # str.isdigit() accepts the superscript two and the Arabic-Indic three;
    # neither may parse as a number or escape as a bare int() error
    with pytest.raises(ParseError, match="unexpected character") as err:
        parse_poly(text, V2)
    assert err.value.position == position


def test_bad_variable_names_rejected():
    with pytest.raises(ValueError):
        parse_poly("x", ("x", "x"))
    with pytest.raises(ValueError):
        parse_poly("x", ("2bad",))


def test_round_trip_spec_inputs():
    for text, vs in [
        ("x^3+y^3+z^3+x*y*z", V3),
        ("x^4-x^2*y^2+1/4*y^4+y^5", V2),
        ("x^6+y^4+z^2+x*y*z", V3),
    ]:
        p = parse_poly(text, vs)
        assert parse_poly(str(p), vs) == p
