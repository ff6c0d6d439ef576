"""Tangent fields, twisted actions, modular tangent spaces, projective
comparison."""

import random
from fractions import Fraction

import pytest

from germcalc import (
    GermInput,
    NonIsolatedError,
    action_matrix,
    embedding_check,
    find_weights,
    graded_piece,
    linalg,
    modular_tangent_space,
    parse_poly,
    projective_closed_form,
    projective_t1_dimension,
    tangent_derivation,
    tjurina_number,
)
from germcalc.modular import _untwisted_matrix, homogeneous_degree
from germcalc.poly import Polynomial
from conftest import CATALOG, cached_derivations, cached_modular, cached_poly, cached_tjurina

V2 = ("x", "y")
V3 = ("x", "y", "z")
V4 = ("x", "y", "z", "w")


# -- derivations -------------------------------------------------------------


def test_tangency_identity_is_checked():
    f = parse_poly("x^2+y^2", V2)
    with pytest.raises(ValueError):
        tangent_derivation(f, (parse_poly("1", V2), parse_poly("0", V2)), parse_poly("0", V2))


@pytest.mark.parametrize(
    "entry", [g for g in CATALOG if g.vars == V3 and g.tau <= 10], ids=lambda g: g.name
)
def test_every_generator_satisfies_the_identity(entry):
    f = cached_poly(entry.text, entry.vars)
    partials = [f.partial_derivative(v) for v in entry.vars]
    for d in cached_derivations(entry.text, entry.vars):
        total = parse_poly("0", entry.vars)
        for a, df in zip(d.coefficients, partials):
            total = total + a * df
        assert total == d.cofactor * f


def test_quadric_has_rotations_and_euler():
    f = parse_poly("x^2+y^2+z^2", V3)
    ders = cached_derivations("x^2+y^2+z^2", V3)
    found_rotation = False
    found_euler = False
    for d in ders:
        coeffs = [str(c) for c in d.coefficients]
        if coeffs == ["y", "-x", "0"] or coeffs == ["2*y", "-2*x", "0"]:
            assert d.cofactor.is_zero()
            found_rotation = True
        if coeffs == ["x", "y", "z"]:
            assert d.cofactor == parse_poly("2", V3)
            found_euler = True
    assert found_rotation and found_euler


def test_euler_field_present_for_t333():
    ders = cached_derivations("x^3+y^3+z^3+x*y*z", V3)
    assert any(
        [str(c) for c in d.coefficients] == ["x", "y", "z"]
        and d.cofactor == parse_poly("3", V3)
        for d in ders
    )


def test_non_quasi_homogeneous_generators_vanish_at_origin():
    # no Euler-type direction: every coefficient lies in the maximal ideal
    for name in ["t433", "t642"]:
        entry = next(g for g in CATALOG if g.name == name)
        for d in cached_derivations(entry.text, entry.vars):
            for c in d.coefficients:
                assert c.constant_term() == 0


def test_derivation_module_requires_isolated():
    with pytest.raises(NonIsolatedError):
        cached_derivations("x^2*y", ("x", "y"))


# -- action matrices -----------------------------------------------------------


def test_hamiltonian_derivations_act_as_zero_on_every_catalog_germ():
    for entry in [g for g in CATALOG if g.tau <= 10]:
        f = cached_poly(entry.text, entry.vars)
        tau, t1 = cached_tjurina(entry.text, entry.vars)
        partials = [f.partial_derivative(v) for v in entry.vars]
        n = len(entry.vars)
        zero = parse_poly("0", entry.vars)
        for i in range(n):
            for j in range(i + 1, n):
                coeffs = [zero] * n
                coeffs[i] = partials[j]
                coeffs[j] = -partials[i]
                d = tangent_derivation(f, coeffs, zero)
                m = action_matrix(d, t1, f)
                assert all(c == 0 for row in m.entries for c in row)


@pytest.mark.parametrize(
    "entry",
    [g for g in CATALOG if g.quasi_homogeneous and g.tau <= 10],
    ids=lambda g: g.name,
)
def test_euler_action_is_diagonal_with_weight_shifts(entry):
    f = cached_poly(entry.text, entry.vars)
    tau, t1 = cached_tjurina(entry.text, entry.vars)
    w = find_weights(f)
    euler = tangent_derivation(
        f,
        [parse_poly(v, entry.vars).scale(wi) for v, wi in zip(entry.vars, w.weights)],
        parse_poly(str(w.degree), entry.vars),
    )
    m = action_matrix(euler, t1, f)
    for i in range(tau):
        for j in range(tau):
            expected = t1.weights[j] - w.degree if i == j else 0
            assert m.entries[i][j] == expected


def test_zero_derivation_acts_as_zero():
    f = cached_poly("x^3+y^3+z^3+x*y*z", V3)
    tau, t1 = cached_tjurina("x^3+y^3+z^3+x*y*z", V3)
    zero = parse_poly("0", V3)
    d = tangent_derivation(f, (zero, zero, zero), zero)
    m = action_matrix(d, t1, f)
    assert all(c == 0 for row in m.entries for c in row)


# -- modular tangent spaces -------------------------------------------------------


@pytest.mark.parametrize("entry", CATALOG, ids=lambda g: g.name)
def test_modular_dimension_catalog(entry):
    mt = cached_modular(entry.text, entry.vars)
    assert mt.dimension == entry.modular_dim
    assert len(mt.kernel_basis) == mt.dimension


@pytest.mark.parametrize(
    "entry", [g for g in CATALOG if g.quasi_homogeneous], ids=lambda g: g.name
)
def test_kernel_matches_top_weight_graded_piece(entry):
    f = cached_poly(entry.text, entry.vars)
    tau, t1 = cached_tjurina(entry.text, entry.vars)
    w = find_weights(f)
    piece = graded_piece(t1, w, w.degree)
    mt = cached_modular(entry.text, entry.vars)
    assert mt.dimension == len(piece)
    piece_positions = {t1.monomials.index(e) for e in piece}
    for vec in mt.kernel_basis:
        support = {i for i, c in enumerate(vec) if c != 0}
        assert support <= piece_positions


def test_every_kernel_vector_is_annihilated():
    for name in ["t333_l1", "t442_l1", "t632_l1", "t433", "t642"]:
        entry = next(g for g in CATALOG if g.name == name)
        f = cached_poly(entry.text, entry.vars)
        tau, t1 = cached_tjurina(entry.text, entry.vars)
        mt = cached_modular(entry.text, entry.vars)
        for d in cached_derivations(entry.text, entry.vars):
            m = action_matrix(d, t1, f)
            for vec in mt.kernel_basis:
                image = [
                    sum((row[j] * vec[j] for j in range(tau)), Fraction(0))
                    for row in m.entries
                ]
                assert all(c == 0 for c in image)


def test_generator_set_augmentation_invariance():
    rng = random.Random(4242)
    for name in ["t333_l1", "t433"]:
        entry = next(g for g in CATALOG if g.name == name)
        f = cached_poly(entry.text, entry.vars)
        tau, t1 = cached_tjurina(entry.text, entry.vars)
        ders = list(cached_derivations(entry.text, entry.vars))
        base_rows = []
        for d in ders:
            base_rows.extend(list(r) for r in action_matrix(d, t1, f).entries)
        base_kernel = linalg.kernel_basis(base_rows, ncols=tau)
        for _ in range(5):
            v = rng.choice(ders)
            mult = parse_poly(
                rng.choice(["x", "y", "1+x", "x*y", "2"]), entry.vars
            )
            augmented = tangent_derivation(
                f,
                [mult * c for c in v.coefficients],
                mult * v.cofactor,
            )
            rows = [list(r) for r in action_matrix(augmented, t1, f).entries]
            assert linalg.kernel_basis(base_rows + rows, ncols=tau) == base_kernel


def test_engel_positivity_and_nilpotency_for_hyperbolic_germs():
    for name in ["t433", "t642"]:
        entry = next(g for g in CATALOG if g.name == name)
        f = cached_poly(entry.text, entry.vars)
        tau, t1 = cached_tjurina(entry.text, entry.vars)
        mt = cached_modular(entry.text, entry.vars)
        assert mt.dimension >= 1
        for d in cached_derivations(entry.text, entry.vars):
            assert linalg.is_nilpotent(action_matrix(d, t1, f).rows())


def test_modular_tangent_rejects_non_isolated():
    with pytest.raises(NonIsolatedError):
        modular_tangent_space(parse_poly("x^2*y", V2))


# -- projective comparison ----------------------------------------------------------


def test_projective_dimension_fermat_quartic():
    f = parse_poly("x^4+y^4+z^4+w^4", V4)
    assert projective_t1_dimension(f) == 19
    assert projective_closed_form(4, 4) == 19


def test_projective_dimension_fermat_cubic():
    f = parse_poly("x^3+y^3+z^3+w^3", V4)
    assert projective_t1_dimension(f) == 4
    assert projective_closed_form(4, 3) == 4


def test_projective_dimension_quadric_vanishes():
    f = parse_poly("x^2+y^2+z^2+w^2", V4)
    assert projective_t1_dimension(f) == 0
    assert projective_closed_form(4, 2) < 0  # closed form does not apply here


def test_projective_rejects_non_homogeneous_and_singular():
    with pytest.raises(ValueError):
        projective_t1_dimension(parse_poly("x^3+y", V2))
    with pytest.raises(ValueError):
        projective_t1_dimension(parse_poly("x^2*y+y^2*z", V3))


def test_embedding_check_fermat_quartic_cone():
    f = parse_poly("x^4+y^4+z^4+w^4", V4)
    tau, t1 = tjurina_number(GermInput((f,)))
    assert tau == 81
    assert embedding_check(f, t1)


def test_embedding_check_five_variable_cubic():
    vs = ("x1", "x2", "x3", "x4", "x5")
    f = parse_poly("x1^3+x2^3+x3^3+x4^3+x5^3", vs)
    tau, t1 = tjurina_number(GermInput((f,)))
    assert embedding_check(f, t1)


def test_embedding_check_requires_homogeneous_and_enough_variables():
    with pytest.raises(ValueError):
        homogeneous_degree(parse_poly("x^3+y", V2))
    f3 = parse_poly("x^3+y^3+z^3", V3)
    tau, t1 = tjurina_number(GermInput((f3,)))
    with pytest.raises(ValueError):
        embedding_check(f3, t1)


# -- convention sensitivity flag ------------------------------------------------------


def test_untwisted_convention_flagged_only_when_dimension_changes():
    # for the simple germs the untwisted kernel keeps the class of 1, so the
    # dimensions differ and the flag is set
    mt = cached_modular("x^5+y^2+z^2", V3)
    assert mt.dimension == 0 and mt.convention_sensitive
    # for the three-term families both conventions give one dimension
    mt = cached_modular("x^3+y^3+z^3+x*y*z", V3)
    assert mt.dimension == 1 and not mt.convention_sensitive


def test_untwisted_matrix_differs_from_twisted_by_cofactor_multiplication():
    entry = next(g for g in CATALOG if g.name == "t333_l1")
    f = cached_poly(entry.text, entry.vars)
    tau, t1 = cached_tjurina(entry.text, entry.vars)
    euler = next(
        d for d in cached_derivations(entry.text, entry.vars)
        if [str(c) for c in d.coefficients] == ["x", "y", "z"]
    )
    twisted = action_matrix(euler, t1, f).rows()
    untwisted = _untwisted_matrix(euler, t1)
    for i in range(tau):
        for j in range(tau):
            shift = 3 if i == j else 0  # cofactor of the Euler field is d = 3
            assert untwisted[i][j] == twisted[i][j] + shift


# -- column builder against polynomial arithmetic ---------------------------------


def _reference_matrices(v, t1):
    """Twisted and untwisted action matrices through Polynomial arithmetic."""
    twisted, untwisted = [], []
    for e in t1.monomials:
        g = Polynomial.monomial(t1.ring, e)
        image = v.apply(g)
        twisted.append(t1.coordinates(image - v.cofactor * g))
        untwisted.append(t1.coordinates(image))
    return [list(r) for r in zip(*twisted)], [list(r) for r in zip(*untwisted)]


def _multiple_past_the_cut(v, f, t1, rng):
    """m * v for a seeded m with terms of every degree up to one past the cut."""
    cut = 1 + max(sum(e) for e in t1.monomials)
    terms = {}
    for degree in range(cut + 2):
        expo = [0] * len(t1.ring)
        for _ in range(degree):
            expo[rng.randrange(len(expo))] += 1
        terms[tuple(expo)] = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 7]))
    m = Polynomial(t1.ring, terms)
    return tangent_derivation(f, [m * a for a in v.coefficients], m * v.cofactor)


@pytest.mark.parametrize("entry", [g for g in CATALOG if g.tau <= 16], ids=lambda g: g.name)
def test_column_builder_matches_polynomial_arithmetic(entry):
    f = cached_poly(entry.text, entry.vars)
    tau, t1 = cached_tjurina(entry.text, entry.vars)
    rng = random.Random(f"columns-{entry.name}")
    for v in cached_derivations(entry.text, entry.vars):
        for field in (v, _multiple_past_the_cut(v, f, t1, rng)):
            twisted, untwisted = _reference_matrices(field, t1)
            assert action_matrix(field, t1, f).rows() == twisted
            assert _untwisted_matrix(field, t1) == untwisted


@pytest.mark.parametrize("entry", [g for g in CATALOG if g.tau <= 16], ids=lambda g: g.name)
def test_modular_kernel_matches_kernel_of_full_dense_stack(entry):
    tau, t1 = cached_tjurina(entry.text, entry.vars)
    stacked, stacked_untwisted = [], []
    for v in cached_derivations(entry.text, entry.vars):
        twisted, untwisted = _reference_matrices(v, t1)
        stacked.extend(twisted)
        stacked_untwisted.extend(untwisted)
    kernel = linalg.kernel_basis(stacked, ncols=tau)
    untwisted_dim = len(linalg.kernel_basis(stacked_untwisted, ncols=tau))
    mt = cached_modular(entry.text, entry.vars)
    assert [list(vec) for vec in mt.kernel_basis] == kernel
    assert mt.convention_sensitive == (untwisted_dim != len(kernel))
