"""Milnor and Tjurina numbers, weights, gradings, complete intersections."""

from fractions import Fraction
from functools import partial
from math import gcd, inf, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from germcalc import (
    GermInput,
    Polynomial,
    WeightData,
    find_weights,
    graded_piece,
    icis_tjurina,
    milnor_number,
    parse_poly,
    tjurina_number,
)
from germcalc import singularity
from conftest import CATALOG, cached_poly, cached_tjurina, dense_rref

PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)

V2 = ("x", "y")
V3 = ("x", "y", "z")


def germ(text, vs=V3):
    return GermInput((parse_poly(text, vs),))


# -- input validation ---------------------------------------------------------


def test_germ_must_vanish_at_origin():
    with pytest.raises(ValueError):
        germ("x^2+1")


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        milnor_number(germ("0", ("x",)))


def test_milnor_rejects_complete_intersections():
    g = GermInput((parse_poly("x", V3), parse_poly("y", V3)))
    with pytest.raises(ValueError):
        milnor_number(g)


@pytest.mark.parametrize("invariant", [milnor_number, tjurina_number], ids=["mu", "tau"])
def test_hypersurface_invariants_share_one_input_check(invariant):
    pair = GermInput((parse_poly("x", V3), parse_poly("y", V3)))
    message = "^a hypersurface germ has one equation, not 2; see icis_tjurina$"
    with pytest.raises(ValueError, match=message):
        invariant(pair)
    with pytest.raises(ValueError, match="^zero polynomial does not define a germ$"):
        invariant(germ("0", ("x",)))


def test_germ_needs_equations_from_one_ring():
    with pytest.raises(ValueError, match="^a germ needs at least one equation$"):
        GermInput(())
    with pytest.raises(ValueError, match="^equations from different rings$"):
        GermInput((parse_poly("x", V2), parse_poly("x", V3)))


def test_graded_t1_coordinates_reject_another_ring():
    _, t1 = cached_tjurina("x^3+y^3+z^3", V3)
    with pytest.raises(ValueError, match="^polynomial from a different ring$"):
        t1.coordinates(parse_poly("x", V2))


def test_zero_polynomial_has_no_weights():
    with pytest.raises(ValueError, match="^zero polynomial has no weights$"):
        find_weights(Polynomial.zero(V2))


def test_icis_of_zero_equations_is_degenerate():
    zero = Polynomial.zero(V3)
    with pytest.raises(ValueError, match="^degenerate input: all generators vanish$"):
        icis_tjurina(GermInput((zero, zero)))


# -- catalog values ------------------------------------------------------------


@pytest.mark.parametrize("entry", CATALOG, ids=lambda g: g.name)
def test_catalog_milnor_and_tjurina(entry):
    g = GermInput((cached_poly(entry.text, entry.vars),))
    assert milnor_number(g) == entry.mu
    tau, t1 = cached_tjurina(entry.text, entry.vars)
    assert tau == entry.tau
    assert t1.tau == entry.tau and len(t1.monomials) == entry.tau


def test_spec_examples_for_milnor():
    assert milnor_number(germ("x^4+y^2+z^2")) == 3
    assert milnor_number(germ("x^4-x^2*y^2+1*y^4+y^5", V2)) == 9
    assert milnor_number(germ("x^2*y", V2)) == inf


def test_mu_87_germ():
    # took minutes while pairs were selected by a linear scan and the
    # certificate reduced every pair; a return of either shows as a slow suite
    g = germ("x^10+y^9+z^7+x^2*y*z+x*y^3*z^2")
    assert milnor_number(g) == 87
    assert tjurina_number(g)[0] == 71


def test_non_isolated_tjurina():
    tau, t1 = tjurina_number(germ("x^3+y^3+z^3-3*x*y*z"))
    assert tau == inf and t1 is None


@pytest.mark.parametrize("entry", CATALOG, ids=lambda g: g.name)
def test_tau_at_most_mu(entry):
    g = GermInput((cached_poly(entry.text, entry.vars),))
    tau, _ = cached_tjurina(entry.text, entry.vars)
    assert tau <= milnor_number(g)


@pytest.mark.parametrize("entry", CATALOG, ids=lambda g: g.name)
def test_weights_found_iff_equality_of_mu_and_tau(entry):
    f = cached_poly(entry.text, entry.vars)
    wdata = find_weights(f)
    assert (wdata is not None) == entry.quasi_homogeneous
    if wdata is not None:
        assert entry.mu == entry.tau  # Euler relation puts f in the Jacobian ideal


# -- weights --------------------------------------------------------------------


def test_weights_of_the_three_term_families():
    assert find_weights(parse_poly("x^3+y^3+z^3+x*y*z", V3)) == WeightData((1, 1, 1), 3)
    assert find_weights(parse_poly("x^6+y^3+z^2+x*y*z", V3)) == WeightData((1, 2, 3), 6)
    assert find_weights(parse_poly("x^4+y^4+z^2+x*y*z", V3)) == WeightData((1, 1, 2), 4)


def test_weights_inconsistent_system():
    assert find_weights(parse_poly("x^4+y^3+z^3+x*y*z", V3)) is None


def test_weights_with_a_negative_entry_are_none():
    # x^2 + x^3*y forces w_x = 1/2 and w_y = -1/2: the solution is re-checked
    # and then refused for its nonpositive weight
    assert find_weights(parse_poly("x^2+x^3*y", V2)) is None


def test_weights_re_check_refuses_a_wrong_kernel(monkeypatch):
    # a kernel whose d = 1 vector gives positive weights that do not make
    # x^3+y^3 homogeneous: the re-check on every exponent must refuse them
    monkeypatch.setattr(
        singularity.linalg, "kernel_basis",
        lambda rows, ncols: [[Fraction(1, 2), Fraction(1, 3), 1]],
    )
    assert find_weights(parse_poly("x^3+y^3", V2)) is None


def test_weights_pinned_at_half_miss_a_positive_solution():
    # w_x + 2*w_y = 1 leaves w_y free; pinned at 1/2 it gives w_x = 0, so
    # None, although weights (2, 1, 2) of degree 4 make x*y^2+z^2 homogeneous
    f = parse_poly("x*y^2+z^2", V3)
    assert find_weights(f) is None
    assert {sum(w * e for w, e in zip((2, 1, 2), expo)) for expo in f.terms} == {4}


def test_weights_normalization_is_primitive():
    w = find_weights(parse_poly("x^4+y^2+z^2", V3))
    assert w == WeightData((1, 2, 2), 4)
    from math import gcd

    assert gcd(gcd(gcd(*w.weights[:2]), w.weights[2]), w.degree) == 1


def test_weights_underdetermined_support():
    # single term x*y: any positive pair works; the canonical pick is (1, 1)
    assert find_weights(parse_poly("x*y", V2)) == WeightData((1, 1), 2)


def reference_weights(f, pin=Fraction(1, 2)):
    """Weights by the dense sweep of ``conftest.dense_rref``, apart from ``germcalc.linalg``.

    Solves alpha . w = 1 (so d = 1) on the support with every free weight
    at ``pin``, then keeps a positive solution, scaled to primitive integers.
    """
    nvars = len(f.ring)
    red, pivots = dense_rref([list(expo) + [1] for expo in sorted(f.terms)])
    if nvars in pivots:
        return None
    w = [pin] * nvars
    for row, p in zip(red, pivots):
        w[p] = row[nvars] - sum(row[c] * pin for c in range(nvars) if c not in pivots)
    if any(x <= 0 for x in w):
        return None
    den = lcm(*(x.denominator for x in w))
    ints = [int(x * den) for x in w] + [den]
    g = gcd(*ints)
    return WeightData(tuple(v // g for v in ints[:-1]), den // g)


@st.composite
def supports(draw):
    """A polynomial on 1 to 4 variables whose support is random, rank-deficient or inconsistent.

    A rank-deficient support has fewer terms than variables, so some weight
    is free; an inconsistent one holds alpha and 2 alpha, which forces d = 0.
    """
    kind = draw(st.sampled_from(["random", "rank-deficient", "inconsistent"]))
    nvars = draw(st.integers(2 if kind == "rank-deficient" else 1, 4))
    expo = st.tuples(*[st.integers(0, 4)] * nvars)
    size = nvars - 1 if kind == "rank-deficient" else 5
    support = draw(st.sets(expo, min_size=1, max_size=size))
    if kind == "inconsistent":
        alpha = draw(expo.filter(any))
        support |= {alpha, tuple(2 * a for a in alpha)}
    coeff = st.integers(-3, 3).filter(bool)
    return Polynomial("xyzw"[:nvars], {e: draw(coeff) for e in support})


def weights_agree_with_the_reference(solve, f):
    assert solve(f) == reference_weights(f)


@PROPERTY
@given(supports())
@example(parse_poly("x*y", V3))  # z and one of x, y free
@example(parse_poly("x^2+x^3", V2))  # inconsistent
@example(parse_poly("x^4+y^3+z^3+x*y*z", V3))  # inconsistent, full rank
def test_weights_match_a_dense_reference_solve(f):
    weights_agree_with_the_reference(find_weights, f)


def test_weight_property_catches_free_weights_pinned_at_one():
    @PROPERTY
    @given(supports())
    def check(f):
        weights_agree_with_the_reference(partial(reference_weights, pin=Fraction(1)), f)

    with pytest.raises(AssertionError):
        check()


# -- grading ----------------------------------------------------------------------


def test_graded_piece_of_t333():
    f = cached_poly("x^3+y^3+z^3+x*y*z", V3)
    tau, t1 = cached_tjurina("x^3+y^3+z^3+x*y*z", V3)
    w = find_weights(f)
    piece = graded_piece(t1, w, 3)
    assert len(piece) == 1 and sum(piece[0]) == 3
    assert graded_piece(t1, w, -1) == []


def test_graded_piece_of_a3_at_top_weight_is_empty():
    f = cached_poly("x^4+y^2+z^2", V3)
    tau, t1 = cached_tjurina("x^4+y^2+z^2", V3)
    w = find_weights(f)
    assert w.degree == 4
    assert graded_piece(t1, w, 4) == []


def test_graded_piece_requires_grading():
    tau, t1 = cached_tjurina("x^4+y^3+z^3+x*y*z", V3)
    assert t1.weights is None
    with pytest.raises(ValueError):
        graded_piece(t1, WeightData((1, 1, 1), 3), 3)


def test_graded_piece_rejects_other_weights():
    tau, t1 = cached_tjurina("x^3+y^3+z^3", V3)
    assert graded_piece(t1, t1.weight_data, 3) == [(1, 1, 1)]
    with pytest.raises(ValueError, match="not the grading"):
        graded_piece(t1, WeightData((1, 2, 3), 6), 3)


@pytest.mark.parametrize(
    "entry", [g for g in CATALOG if g.quasi_homogeneous], ids=lambda g: g.name
)
def test_grading_consistency_weights_sum_to_tau(entry):
    f = cached_poly(entry.text, entry.vars)
    tau, t1 = cached_tjurina(entry.text, entry.vars)
    w = find_weights(f)
    total = 0
    for target in range(0, w.degree * (tau + 1)):
        total += len(graded_piece(t1, w, target))
        if total == tau:
            break
    assert total == tau


# -- homogeneity law ---------------------------------------------------------------


@pytest.mark.parametrize(
    "m,n,expected", [(3, 2, 4), (3, 3, 8), (4, 3, 27)]
)
def test_fermat_tau_is_m_minus_one_to_the_n(m, n, expected):
    vs = V3[:n]
    text = "+".join(f"{v}^{m}" for v in vs)
    tau, _ = tjurina_number(germ(text, vs))
    assert tau == (m - 1) ** n == expected


# -- coordinate scaling invariance ----------------------------------------------------


@pytest.mark.parametrize("name", ["t333_l1", "t632_l1", "t433"])
def test_unit_rescaling_changes_nothing(name):
    entry = next(g for g in CATALOG if g.name == name)
    f = cached_poly(entry.text, entry.vars)
    g2 = GermInput((f.scale_variable("x", 2),))
    assert milnor_number(g2) == entry.mu
    assert tjurina_number(g2)[0] == entry.tau


# -- complete intersections -------------------------------------------------------------


def test_icis_example_generic_and_degenerate_sections():
    f1 = parse_poly("x^4+y^4+2*z^2", V3)
    assert icis_tjurina(GermInput((f1, parse_poly("2*z-x*y", V3)))) == 9
    assert icis_tjurina(GermInput((f1, parse_poly("0-x*y", V3)))) == 9
    # s = 1 collapses the fiber onto a double conic: not isolated
    assert icis_tjurina(GermInput((f1, parse_poly("1*z-x*y", V3)))) == inf


@pytest.mark.parametrize("entry", [g for g in CATALOG if g.tau <= 10], ids=lambda g: g.name)
def test_icis_with_one_equation_equals_tjurina(entry):
    g = GermInput((cached_poly(entry.text, entry.vars),))
    assert icis_tjurina(g) == entry.tau


def test_icis_smooth_complete_intersection():
    g = GermInput((parse_poly("x", V3), parse_poly("y", V3)))
    assert icis_tjurina(g) == 0


def test_icis_too_many_equations():
    g = GermInput((parse_poly("x", V2), parse_poly("y", V2), parse_poly("x+y", V2)))
    with pytest.raises(ValueError):
        icis_tjurina(g)


def _substitute_poly(f, var, value):
    """f with the variable replaced by a polynomial (both over f's ring)."""
    from germcalc import Polynomial

    i = f.ring.index(var)
    out = Polynomial.zero(f.ring)
    for expo, coeff in f.iter_terms():
        stripped = expo[:i] + (0,) + expo[i + 1 :]
        term = Polynomial(f.ring, {stripped: coeff})
        out = out + term * value ** expo[i]
    return out


@pytest.mark.parametrize(
    "f1_text,g_text",
    [
        ("x^4+y^4+2*z^2", "1/2*x*y"),
        ("x^3+y^3+z^3", "x+y"),
        ("x^2+y^3+z^5", "x*y"),
        ("x^4+y^4+z^2", "x^2-y^2"),
        ("x^3+y^4+z^2+x*z", "y^2"),
    ],
)
def test_icis_graph_sections_match_eliminated_plane_curves(f1_text, g_text):
    # V(f1, z - g(x, y)) is isomorphic to the plane germ f1(x, y, g(x, y)),
    # so the module-valued Tjurina number must equal the scalar one
    f1 = parse_poly(f1_text, V3)
    g = parse_poly(g_text, V3)
    second = parse_poly("z", V3) - g
    module_tau = icis_tjurina(GermInput((f1, second)))
    plane = _substitute_poly(f1, "z", g).restrict_ring(V2)
    scalar_tau, _ = tjurina_number(GermInput((plane,)))
    assert module_tau == scalar_tau
