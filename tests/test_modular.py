"""Tangent fields, twisted actions, modular tangent spaces, projective
comparison."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from germcalc import modular
from germcalc.groebner import Staircase, VectorPoly
from germcalc.modular import _action_rows, _dense, homogeneous_degree
from germcalc.packed import _primitive
from germcalc.poly import Polynomial
from conftest import (
    CATALOG,
    CATALOG_BY_NAME,
    cached_derivations,
    cached_modular,
    cached_poly,
    cached_tjurina,
    dense_kernel,
)

V2 = ("x", "y")
V3 = ("x", "y", "z")
V4 = ("x", "y", "z", "w")

PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)


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


@pytest.mark.parametrize("text", ["x+y^2", "x"])
def test_a_partial_that_vanishes_gives_its_coordinate_field(text):
    # d/dz f = 0, so d/dz is tangent with cofactor 0, whatever the syzygies
    zero, one = Polynomial.zero(V3), Polynomial.constant(V3, 1)
    assert modular.Derivation((zero, zero, one), zero) in cached_derivations(text, V3)


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


def _untwisted_matrix(v, t1):
    """Dense untwisted action matrix of v, from the sparse rows of the library."""
    _, rows = _action_rows(modular._field_terms(v), t1)
    return [_dense(rows.get(k, {}), t1.tau) for k in range(t1.tau)]


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


def sparse(matrix):
    """The nonzero rows of a dense matrix, as ``{row: {column: entry}}`` maps of nonzero entries."""
    return {
        k: {j: a for j, a in enumerate(row) if a} for k, row in enumerate(matrix) if any(row)
    }


def scaled(rows, scale):
    return {k: {j: a * scale for j, a in row.items()} for k, row in rows.items()}


def integer_rows_agree(fields, t1):
    """Each field's primitive integer row gives the rows of polynomial
    arithmetic (``_reference_matrices``) times its scale; return those
    reference rows, twisted and untwisted, stacked densely."""
    stacked, stacked_untwisted = [], []
    for v in fields:
        row, scale = _primitive(modular._field_terms(v))
        twisted, untwisted = _reference_matrices(v, t1)
        assert _action_rows(row, t1) == (
            scaled(sparse(twisted), scale),
            scaled(sparse(untwisted), scale),
        )
        stacked.extend(twisted)
        stacked_untwisted.extend(untwisted)
    return stacked, stacked_untwisted


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
            twisted, untwisted = integer_rows_agree([field], t1)
            assert action_matrix(field, t1, f).rows() == twisted
            assert _untwisted_matrix(field, t1) == untwisted


# the non-quasi-homogeneous germs of the benchmark's modular ladder, kept
# here so the test does not depend on the benchmark package
LADDER = [
    ("t543", "x^5+y^4+z^3+x*y*z"),
    ("quartic_t", "x^4+y^4+z^4+x^2*y^2+x*y*z"),
    ("t555", "x^5+y^5+z^5+x*y*z"),
    ("y642_fiber", "x^6+y^4+z^2+x*y*z+8*y^3"),
    ("mu34", "x^6+y^5+z^4+x^2*y*z"),
]


@pytest.mark.parametrize(
    "text, vars",
    [(g.text, g.vars) for g in CATALOG] + [(text, V3) for _, text in LADDER],
    ids=[g.name for g in CATALOG] + [name for name, _ in LADDER],
)
def test_modular_kernel_matches_kernel_of_full_dense_stack(text, vars):
    # reference: dense polynomial-arithmetic matrices of every generator of
    # the derivation module, eliminated by the test-local dense sweep rather
    # than the library's echelon form; each generator's integer rows are
    # checked against them on the way
    tau, t1 = cached_tjurina(text, vars)
    stacked, stacked_untwisted = integer_rows_agree(cached_derivations(text, vars), t1)
    kernel = dense_kernel(stacked, tau)
    untwisted_dim = len(dense_kernel(stacked_untwisted, tau))
    mt = cached_modular(text, vars)
    assert [list(vec) for vec in mt.kernel_basis] == kernel
    assert mt.convention_sensitive == (untwisted_dim != len(kernel))


# -- tangency certificate on the modular path ----------------------------------


def _count_fields(monkeypatch):
    """Fields checked for tangency (``tangent_derivation``) and fields whose action rows are taken."""
    built, acted = [], []
    check, rows = modular.tangent_derivation, modular._action_rows

    def counted_check(*args):
        field = check(*args)
        built.append(field)
        return field

    def counted_rows(field, t1):
        acted.append(field)
        return rows(field, t1)

    monkeypatch.setattr(modular, "tangent_derivation", counted_check)
    monkeypatch.setattr(modular, "_action_rows", counted_rows)
    return built, acted


@pytest.mark.parametrize(
    "name, kept", [("t433", 3), ("t642", 2), ("martin_t0", 2), ("t333_l1", 1)]
)
def test_tangency_is_checked_on_every_used_field_and_no_other(monkeypatch, name, kept):
    entry = CATALOG_BY_NAME[name]
    built, acted = _count_fields(monkeypatch)
    mt = modular_tangent_space(cached_poly(entry.text, entry.vars))
    assert mt.dimension == entry.modular_dim
    assert len(built) == kept
    # each field acts as its primitive integer row, a positive multiple of it
    assert acted == [_primitive(modular._field_terms(v))[0] for v in built]


def _relation_source(monkeypatch, edit):
    """Let the modular path read ``edit`` of the list of its real relations,
    each handed to ``edit`` as rational and taken back as an integer row with
    its scale; the rows come back unpacked, so their unpack only selects a slot."""
    real = modular._relations

    def source(vecs, order):
        rows, unpack = real(vecs, order)
        rels = [{t: c / scale for t, c in unpack(row).items()} for row, scale in rows]

        def select(row, slot=None):
            return row if slot is None else {e: c for (s, e), c in row.items() if s == slot}

        return list(map(_primitive, edit(rels))), select

    monkeypatch.setattr(modular, "_relations", source)


def test_modular_tangent_space_rejects_a_field_that_is_not_tangent(monkeypatch):
    entry = CATALOG_BY_NAME["t433"]
    f = cached_poly(entry.text, entry.vars)
    cofactor = len(f.ring)  # the slot of f: no partial of t433 vanishes

    def perturbed(rels):
        # the relation of lowest cofactor degree (a linear cofactor, outside
        # the Jacobian ideal) with x^7 added to its d/dx coefficient
        with_cofactor = [r for r in rels if any(slot == cofactor for slot, _ in r)]
        rel = dict(min(with_cofactor, key=lambda r: min(sum(e) for s, e in r if s == cofactor)))
        rel[(0, (7, 0, 0))] = rel.get((0, (7, 0, 0)), 0) + 1
        return [rel]

    _relation_source(monkeypatch, perturbed)
    with pytest.raises(ValueError, match="not tangent"):
        modular_tangent_space(f)


def test_cofactor_selection_must_span_the_whole_annihilator(monkeypatch):
    # the kept relations are the ones the exact syzygy check receives; with
    # them gone, the other relations span less than tau, and a kernel from
    # their fields could come out too large, so the selection must raise
    entry = CATALOG_BY_NAME["t433"]
    f = cached_poly(entry.text, entry.vars)
    check, kept = modular._check_syzygies, []

    def recorded(vecs, rels):
        kept.extend(rels)
        return check(vecs, rels)

    monkeypatch.setattr(modular, "_check_syzygies", recorded)
    assert modular_tangent_space(f).dimension == entry.modular_dim
    assert len(kept) == 3
    ring, slots = f.ring, len(f.ring) + 1
    _relation_source(
        monkeypatch, lambda rels: [r for r in rels if VectorPoly(ring, slots, r) not in kept]
    )
    with pytest.raises(RuntimeError, match="cofactor fields span"):
        modular_tangent_space(f)


# -- integer rows through the modular path ----------------------------------------

# two large germs that are not quasi-homogeneous: tau 44 and 49
LARGE = [
    ("a7b6c5", "x^7+y^6+z^5+x^2*y*z+x*y^3*z^2"),
    ("a8b7c5", "x^8+y^7+z^5+x^2*y*z+x*y^3*z^2"),
]


@pytest.mark.parametrize("text", [text for _, text in LARGE], ids=[name for name, _ in LARGE])
def test_kept_fields_give_rows_and_kernels_of_polynomial_arithmetic_on_large_germs(text):
    # the catalog and the ladder are checked on every generator of the
    # derivation module above; here the reference stacks only the kept
    # fields, since the whole module (92 and 135 generators) would take
    # several seconds per germ in polynomial arithmetic
    f = cached_poly(text, V3)
    tau, t1 = cached_tjurina(text, V3)
    fields = modular._cofactor_generators(f, t1)
    stacked, stacked_untwisted = integer_rows_agree(fields, t1)
    kernel = dense_kernel(stacked, tau)
    mt = cached_modular(text, V3)
    assert [list(vec) for vec in mt.kernel_basis] == kernel
    untwisted_dim = len(dense_kernel(stacked_untwisted, tau))
    assert mt.convention_sensitive == (untwisted_dim != len(kernel))


@pytest.mark.parametrize("name", ["t433", "martin_t0"])
def test_the_row_check_catches_a_cut_one_degree_too_low(monkeypatch, name):
    entry = CATALOG_BY_NAME[name]
    f = cached_poly(entry.text, entry.vars)
    tau, t1 = cached_tjurina(entry.text, entry.vars)
    fields = modular._cofactor_generators(f, t1)
    integer_rows_agree(fields, t1)  # fills the rows it needs at the true cut
    true_cut = Staircase.cut
    monkeypatch.setattr(Staircase, "cut", property(lambda stair: true_cut.func(stair) - 1))
    with pytest.raises(AssertionError):
        integer_rows_agree(fields, t1)


FIELD_GERMS = ["t333_l1", "t433", "t642", "martin_t0", "fermat_3_2"]
small_fraction = st.fractions(-9, 9, max_denominator=12).filter(bool)


@st.composite
def random_fields(draw):
    """A catalog germ's Tjurina algebra and a field on its ring, tangent or not,
    with terms on both sides of the cut."""
    entry = CATALOG_BY_NAME[draw(st.sampled_from(FIELD_GERMS))]
    n = len(entry.vars)
    expo = st.tuples(*[st.integers(0, 4)] * n)
    terms = draw(st.dictionaries(st.tuples(st.integers(0, n), expo), small_fraction, max_size=8))
    parts = [
        Polynomial(entry.vars, {e: c for (i, e), c in terms.items() if i == k})
        for k in range(n + 1)
    ]
    return cached_tjurina(entry.text, entry.vars)[1], modular.Derivation(tuple(parts[:n]), parts[n])


@PROPERTY
@given(random_fields())
def test_integer_rows_are_the_field_scale_times_the_rational_rows(case):
    t1, v = case
    integer_rows_agree([v], t1)


def refuses_a_field_that_only_its_cofactor_makes_wrong():
    # every coefficient is zero, so sum a_i df/dx_i = 0 while the cofactor gives f
    f = parse_poly("x^2+y^3", V2)
    zero = Polynomial.zero(V2)
    with pytest.raises(ValueError, match="^not tangent: "):
        tangent_derivation(f, (zero, zero), Polynomial.constant(V2, 1))


def test_the_tangency_check_refuses_a_bare_cofactor():
    refuses_a_field_that_only_its_cofactor_makes_wrong()


def test_a_tangency_check_that_skips_the_cofactor_fails_the_negative_test(monkeypatch):
    real = modular._tangency_defect

    def without_cofactor(f, field):
        return real(f, {(i, e): c for (i, e), c in field.items() if i < len(f.ring)})

    monkeypatch.setattr(modular, "_tangency_defect", without_cofactor)
    with pytest.raises(pytest.fail.Exception):
        refuses_a_field_that_only_its_cofactor_makes_wrong()


@pytest.mark.parametrize("name", ["t433", "t642", "martin_t14"])
def test_integer_tangency_agrees_with_polynomial_arithmetic(name):
    # every generator is tangent; each one with a term added to one part is not
    entry = CATALOG_BY_NAME[name]
    f = cached_poly(entry.text, entry.vars)
    bump = Polynomial.monomial(entry.vars, (1,) * len(entry.vars), Fraction(2, 3))
    for v in cached_derivations(entry.text, entry.vars):
        parts = [*v.coefficients, v.cofactor]
        for k in range(len(parts)):
            bumped = parts[:k] + [parts[k] + bump] + parts[k + 1 :]
            field = modular.Derivation(tuple(bumped[:-1]), bumped[-1])
            assert field.apply(f) != field.cofactor * f
            with pytest.raises(ValueError, match="^not tangent: "):
                tangent_derivation(f, bumped[:-1], bumped[-1])


def test_tangent_derivation_refuses_parts_over_another_ring():
    f = parse_poly("x^2+y^2", V2)
    x, zero = parse_poly("x", V3), Polynomial.zero(V2)
    with pytest.raises(ValueError, match="^coefficients, cofactor and polynomial from different"):
        tangent_derivation(f, [x, zero], zero)
    with pytest.raises(ValueError, match="^coefficients, cofactor and polynomial from different"):
        tangent_derivation(f, [zero, zero], Polynomial.zero(V3))


# -- input checks and derived fields ----------------------------------------


def test_tangent_derivation_needs_one_coefficient_per_variable():
    f = parse_poly("x^2+y^2", V2)
    with pytest.raises(ValueError, match="^one coefficient per ring variable required$"):
        tangent_derivation(f, [parse_poly("x", V2)], Polynomial.zero(V2))


def test_action_matrix_and_embedding_check_reject_another_ring():
    _, t1 = cached_tjurina("x^3+y^3+z^3", V3)
    f = parse_poly("x^3+y^3+z^3+w^3", V4)
    zero = Polynomial.zero(V4)
    v = tangent_derivation(f, [zero] * 4, zero)
    with pytest.raises(ValueError, match="^basis and polynomial from different rings$"):
        action_matrix(v, t1, f)
    with pytest.raises(ValueError, match="^basis and polynomial from different rings$"):
        embedding_check(f, t1)


def test_action_matrix_rejects_a_field_over_another_ring():
    # the Euler field of x^2+y^3 over (x, y) once came back as a zero matrix
    # on the T1 of a germ over (x, y, z)
    g = parse_poly("x^2+y^3", V2)
    euler = tangent_derivation(
        g, [parse_poly("3*x", V2), parse_poly("2*y", V2)], parse_poly("6", V2)
    )
    f = parse_poly("x^3+y^3+z^3+x*y*z", V3)
    _, t1 = cached_tjurina("x^3+y^3+z^3+x*y*z", V3)
    assert t1.tau == 8
    with pytest.raises(ValueError, match="^one coefficient per ring variable required$"):
        action_matrix(euler, t1, f)
    lifted = modular.Derivation(
        (parse_poly("3*x", V3), parse_poly("2*y", V3), parse_poly("0", V2)), parse_poly("6", V3)
    )
    with pytest.raises(ValueError, match="^coefficients, cofactor and polynomial from different"):
        action_matrix(lifted, t1, f)


def test_action_matrix_rejects_a_field_that_is_not_tangent():
    # d/dx with cofactor 0 over the ring of f once came back as an 8x8
    # matrix with 2 nonzero entries; the twisted action needs a tangent field
    f = parse_poly("x^3+y^3+z^3+x*y*z", V3)
    _, t1 = cached_tjurina("x^3+y^3+z^3+x*y*z", V3)
    d_dx = modular.Derivation(
        (parse_poly("1", V3), parse_poly("0", V3), parse_poly("0", V3)), parse_poly("0", V3)
    )
    with pytest.raises(ValueError, match="^not tangent: "):
        action_matrix(d_dx, t1, f)


def test_embedding_check_accepts_only_the_tjurina_algebra_of_f():
    f = parse_poly("x^4+y^4+z^4+w^4", V4)
    assert embedding_check(f, cached_tjurina("x^4+y^4+z^4+w^4", V4)[1])
    _, other = cached_tjurina("x^3+y^3+z^3+w^3", V4)
    with pytest.raises(ValueError, match="^basis is not the Tjurina algebra of the polynomial$"):
        embedding_check(f, other)


def test_action_matrix_accepts_only_the_tjurina_algebra_of_f():
    # a field of x^3+y^3+z^3+x*y*z on the T1 of x^4+y^3+z^3+x*y*z, over the
    # same ring, once came back as an 8x8 matrix with 7 nonzero entries
    f = parse_poly("x^3+y^3+z^3+x*y*z", V3)
    v = cached_derivations("x^3+y^3+z^3+x*y*z", V3)[0]
    _, other = cached_tjurina("x^4+y^3+z^3+x*y*z", V3)
    with pytest.raises(ValueError, match="^basis is not the Tjurina algebra of the polynomial$"):
        action_matrix(v, other, f)


def test_a_given_algebra_is_not_the_tjurina_algebra_of_a_non_isolated_germ():
    # f = x^4+y^4+z^4 is singular along the w-axis; a given algebra over its
    # ring fails the algebra check, before any NonIsolatedError
    _, t1 = cached_tjurina("x^4+y^4+z^4+w^4", V4)
    f = parse_poly("x^4+y^4+z^4", V4)
    zero = Polynomial.zero(V4)
    v = tangent_derivation(f, [zero] * 4, zero)
    for check in (lambda: action_matrix(v, t1, f), lambda: embedding_check(f, t1)):
        with pytest.raises(ValueError, match="^basis is not the Tjurina algebra") as raised:
            check()
        assert not isinstance(raised.value, NonIsolatedError)


def test_zero_polynomial_has_no_homogeneous_degree():
    with pytest.raises(ValueError, match="^zero polynomial is not homogeneous of a degree$"):
        homogeneous_degree(Polynomial.zero(V2))


def test_projective_t1_of_a_linear_form_is_zero():
    # only z_i d/dx of x is nonzero; the z_i d/dz_j x for the other j vanish
    assert projective_t1_dimension(parse_poly("x", V4)) == 0
