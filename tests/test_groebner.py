"""Normal forms, standard bases, staircases, syzygies, and the
brute-force oracle cross-check."""

import inspect
import random
import sys
from dataclasses import replace
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import product
from math import inf

import pytest

from germcalc import (
    DEGREVLEX,
    NEGDEGREVLEX,
    Polynomial,
    VectorPoly,
    normal_form,
    parse_poly,
    quotient_coordinates,
    spoly,
    staircase,
    standard_basis,
    syzygies,
    truncated_quotient_dimension,
    weighted_local,
)
from germcalc import groebner
from germcalc.groebner import (
    StandardBasis,
    _check_syzygies,
    _homogenize_terms,
    _std_engine,
    _verify_complete,
)
from germcalc.oracle import monomials_below
from germcalc.packed import _engine_packing
from germcalc.singularity import milnor_algebra
from test_engine_outputs import icis_generators
from test_relation_outputs import LADDER as RELATION_LADDER
from conftest import (
    CATALOG,
    cached_poly,
    cached_tjurina,
    engine_key,
    engine_pool,
    monic_row,
    monic_spoly,
    mora_normal_form,
    pair_key,
    residue_table,
    top_reduce,
    unpacked_lead,
)

V1 = ("x",)
V2 = ("x", "y")
V3 = ("x", "y", "z")


def jacobian(f):
    return [f.partial_derivative(v) for v in f.ring]


# -- normal forms --------------------------------------------------------


def test_nf_membership_trivial():
    sb = standard_basis([parse_poly("x", V1)], NEGDEGREVLEX)
    assert normal_form(parse_poly("x^2", V1), sb).is_zero()


def test_nf_local_unit_factor():
    # x^2 - x = -x(1 - x) and 1 - x is a local unit, so the ideal is (x)
    sb = standard_basis([parse_poly("x^2-x", V1)], NEGDEGREVLEX)
    assert sb.leading_terms == ((0, (1,)),)
    assert normal_form(parse_poly("x", V1), sb).is_zero()
    st = staircase(sb)
    assert st.dimension == 1 and st.standard_monomials == ((0, (0,)),)


def test_nf_one_stays_out_of_proper_ideal():
    f = parse_poly("x^2+y^2+z^2", V3)
    sb = standard_basis(jacobian(f), NEGDEGREVLEX)
    one = parse_poly("1", V3)
    assert normal_form(one, sb) == VectorPoly.from_poly(one)


def test_nf_idempotent_on_catalog():
    for germ in CATALOG[:8]:
        f = cached_poly(germ.text, germ.vars)
        sb = standard_basis([f] + jacobian(f), NEGDEGREVLEX)
        p = parse_poly("1+" + "*".join(germ.vars), germ.vars)
        once = normal_form(p, sb)
        again = normal_form(once, sb)
        assert once == again


def test_local_nf_refuses_an_infinite_staircase():
    # (x) has infinite codimension in O over (x, y): no residue table
    sb = standard_basis([parse_poly("x", V2)], NEGDEGREVLEX)
    with pytest.raises(ValueError, match="not finite dimensional"):
        normal_form(parse_poly("x*y", V2), sb)


MU35 = "x^7+y^5+z^4+x^2*y*z+x*y^3*z^2"


def test_local_nf_of_every_s_vector_of_a_minimal_jacobian_basis(monkeypatch):
    # Mora's weak normal form stalled on 8 of these 21 S-vectors, with
    # coefficients doubling in bit length; the residue table eliminates
    # nothing, so a limit on eliminations fails a stall without a hang
    sb = standard_basis(jacobian(parse_poly(MU35, V3)), NEGDEGREVLEX)
    assert len(sb.generators) == 7
    calls = 0
    eliminate = groebner._eliminate

    def counted(*args):
        nonlocal calls
        calls += 1
        if calls > 1000:
            raise RuntimeError("more than 1000 eliminations")
        return eliminate(*args)

    monkeypatch.setattr(groebner, "_eliminate", counted)
    gens = sb.generators
    pairs = [(i, j) for j in range(len(gens)) for i in range(j)]
    assert len(pairs) == 21
    for i, j in pairs:
        assert normal_form(spoly(gens[i], gens[j], sb.order.module_key), sb).is_zero(), (i, j)


def test_nf_ring_mismatch():
    sb = standard_basis([parse_poly("x", V1)], NEGDEGREVLEX)
    with pytest.raises(ValueError):
        normal_form(parse_poly("x", V2), sb)


@pytest.mark.parametrize(
    "expo", [(2,), (0, 0, 3), (-1, 2)], ids=["short", "long", "negative"]
)
def test_vector_rejects_bad_exponent(expo):
    with pytest.raises(ValueError, match="bad exponent"):
        VectorPoly(V2, 1, {(0, expo): 1, (0, (0, 3)): 1})


# -- standard bases -------------------------------------------------------


def test_global_basis_of_coprime_variables():
    sb = standard_basis([parse_poly("x", V2), parse_poly("y", V2)], DEGREVLEX)
    assert {lt for lt in sb.leading_terms} == {(0, (1, 0)), (0, (0, 1))}


def test_membership_soundness_every_input_reduces_to_zero():
    for germ in CATALOG:
        f = cached_poly(germ.text, germ.vars)
        gens = [f] + jacobian(f)
        sb = standard_basis(gens, NEGDEGREVLEX)
        for g in gens:
            assert normal_form(g, sb).is_zero()


def test_determinism_same_input_same_basis():
    f = parse_poly("x^3+y^3+z^3+x*y*z", V3)
    a = standard_basis(jacobian(f), NEGDEGREVLEX)
    b = standard_basis(jacobian(f), NEGDEGREVLEX)
    assert a.generators == b.generators


def test_completion_certificate_rejects_incomplete_set():
    # the S-polynomial y*(x^2-y) - x*(x*y) = -y^2 has no divisor among the leads
    gens = [parse_poly("x^2-y", V2), parse_poly("x*y", V2)]
    terms = [VectorPoly.from_poly(g).terms for g in gens]
    pk = _engine_packing(DEGREVLEX, 2)
    pool = engine_pool(terms, DEGREVLEX.module_key, pk)
    assert all(type(c) is int for r in pool for c in r.terms.values())
    with pytest.raises(RuntimeError):
        _verify_complete(pool, pk)


def test_completion_certificate_applies_no_product_criterion_to_modules():
    # leads x*e1 and y*e1 are coprime, yet the S-vector
    # y*(1, x) - x*(0, y) = y*e0 has no divisor among the leads
    gens = [
        VectorPoly.from_polys([parse_poly("1", V2), parse_poly("x", V2)]),
        VectorPoly.from_polys([parse_poly("0", V2), parse_poly("y", V2)]),
    ]
    pk = _engine_packing(DEGREVLEX, 2)
    pool = engine_pool([g.terms for g in gens], DEGREVLEX.module_key, pk)
    assert [unpacked_lead(r, pk) for r in pool] == [(1, (1, 0)), (1, (0, 1))]
    assert all(type(c) is int for r in pool for c in r.terms.values())
    with pytest.raises(RuntimeError):
        _verify_complete(pool, pk)


def all_pairs_complete(pool, keyfn, pk):
    """Reference certificate without criteria: every S-vector reduces to zero.

    It turns the engine's integer rows on packed exponents into monic
    rational rows on exponent tuples and reduces with its own division loop
    (``conftest.top_reduce``), so a fault in the engine's arithmetic or
    divisor lookup cannot corrupt this reference and the certificate alike.
    """
    rows = [monic_row(pk.unpack_terms(r.terms), keyfn, unpacked_lead(r, pk)) for r in pool]
    return not any(
        top_reduce(monic_spoly(rows[i], rows[j]), rows, keyfn)
        for j in range(len(rows))
        for i in range(j)
        if rows[i][0][0] == rows[j][0][0]
    )


def completed_sets():
    """(label, completed reducer set, key on tuples, packing) under local,
    global and module orders; every lead is the largest term under the key."""

    def complete(seeds, order, nvars):
        pk = _engine_packing(order, nvars)
        completed = _std_engine([pk.pack_terms(t) for t in seeds], pk)[0]
        keyfn = engine_key(order)
        key = pk.keyed(keyfn)
        assert all(r.lead == max(r.terms, key=key) for r in completed)
        return completed, keyfn, pk

    for germ in [g for g in CATALOG if g.tau <= 10]:
        f = cached_poly(germ.text, germ.vars)
        seeds = [_homogenize_terms(dict(VectorPoly.from_poly(g).terms)) for g in [f] + jacobian(f)]
        yield germ.name, *complete(seeds, NEGDEGREVLEX, len(f.ring))
    f = parse_poly("x^3+y^3+z^3+x*y*z", V3)
    seeds = [dict(VectorPoly.from_poly(g).terms) for g in jacobian(f)]
    yield "degrevlex", *complete(seeds, DEGREVLEX, 3)
    eqs = [parse_poly("x^4+y^4+2*z^2", V3), parse_poly("2*z-x*y", V3)]
    zero = parse_poly("0", V3)
    gens = [VectorPoly.from_polys([g.partial_derivative(v) for g in eqs]) for v in V3]
    gens += [VectorPoly.from_polys([g, zero]) for g in eqs]
    gens += [VectorPoly.from_polys([zero, g]) for g in eqs]
    seeds = [_homogenize_terms(dict(g.terms)) for g in gens]
    yield "icis", *complete(seeds, NEGDEGREVLEX, 3)


def certificate_agrees_with_all_pairs():
    """Deleting generators from completed sets gives complete and incomplete
    sets alike; the certificate must raise exactly on the incomplete ones."""
    rng = random.Random(4)
    raised = 0
    for label, completed, keyfn, pk in completed_sets():
        assert all_pairs_complete(completed, keyfn, pk), label
        _verify_complete(completed, pk)
        for _ in range(6):
            gone = set(rng.sample(range(len(completed)), rng.randint(1, 3)))
            pool = [r for n, r in enumerate(completed) if n not in gone]
            try:
                _verify_complete(pool, pk)
            except RuntimeError:
                raised += 1
                assert not all_pairs_complete(pool, keyfn, pk), (label, gone)
            else:
                assert all_pairs_complete(pool, keyfn, pk), (label, gone)
    assert raised


def test_completion_certificate_agrees_with_all_pairs_check():
    certificate_agrees_with_all_pairs()


def test_empty_generator_list_rejected():
    with pytest.raises(ValueError):
        standard_basis([], NEGDEGREVLEX)
    with pytest.raises(ValueError):
        standard_basis([parse_poly("0", V1)], NEGDEGREVLEX)


# -- staircases ------------------------------------------------------------


def test_one_variable_staircase():
    sb = standard_basis([parse_poly("x^4", V1)], NEGDEGREVLEX)
    st = staircase(sb)
    assert st.finite and st.dimension == 4


def test_t333_jacobian_staircase_dimension_eight():
    f = parse_poly("x^3+y^3+z^3+x*y*z", V3)
    st = staircase(standard_basis(jacobian(f), NEGDEGREVLEX))
    assert st.dimension == 8
    # the monomials 1, x, y, z, xy, xz, yz, xyz also form a basis of the
    # quotient: their residue classes must be linearly independent
    from germcalc import linalg

    sb = standard_basis(jacobian(f), NEGDEGREVLEX)
    box = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
    rows = [
        quotient_coordinates(parse_poly("*".join(
            [f"{v}^{e}" for v, e in zip(V3, expo) if e] or ["1"]), V3), sb, st)
        for expo in box
    ]
    assert linalg.rank(rows, 8) == 8


def test_pure_power_criterion_detects_infinite():
    sb = standard_basis([parse_poly("x^2*y", V2)], NEGDEGREVLEX)
    st = staircase(sb)
    assert not st.finite and st.dimension == inf


def box_staircase(basis):
    """Reference staircase: (standard monomials, finite) by testing every exponent
    of the pure-power box of each component against every lead, on tuples."""
    nvars, leads = len(basis.ring), basis.leading_terms
    found = []
    for comp in range(basis.ncomp):
        bounds = []
        for i in range(nvars):
            pure = [e[i] for c, e in leads if c == comp and not any(e[:i] + e[i + 1 :])]
            if not pure:
                return (), False
            bounds.append(min(pure))
        for expo in product(*(range(b) for b in bounds)):
            if not any(c == comp and all(a <= b for a, b in zip(e, expo)) for c, e in leads):
                found.append((comp, expo))
    return tuple(sorted(found, key=lambda t: (sum(t[1]), t[0], t[1]))), True


def staircase_cases():
    """(label, basis): Jacobian and Tjurina ideals of the catalog under a local
    and a global order, one ICIS module, and random monomial submodules."""
    for germ in CATALOG:
        f = cached_poly(germ.text, germ.vars)
        for order in (NEGDEGREVLEX, DEGREVLEX):
            yield f"{germ.name} jacobian {order.kind}", standard_basis(jacobian(f), order)
        yield f"{germ.name} tjurina", standard_basis([f] + jacobian(f), NEGDEGREVLEX)
    eqs = [parse_poly("x^4+y^4+2*z^2", V3), parse_poly("2*z-x*y", V3)]
    zero = parse_poly("0", V3)
    gens = [VectorPoly.from_polys([g.partial_derivative(v) for g in eqs]) for v in V3]
    gens += [VectorPoly.from_polys([g, zero]) for g in eqs]
    gens += [VectorPoly.from_polys([zero, g]) for g in eqs]
    yield "icis", standard_basis(gens, NEGDEGREVLEX)
    rng = random.Random(7)
    for n in range(60):
        ring = ("x", "y", "z")[: rng.randint(1, 3)]
        ncomp = rng.randint(1, 2)
        terms = [
            (rng.randrange(ncomp), tuple(rng.randint(0, 4) for _ in ring))
            for _ in range(rng.randint(1, 6))
        ]
        # most sets get a pure power of every variable in every component
        if rng.random() < 0.8:
            terms += [
                (c, tuple(rng.randint(1, 6) * (j == i) for j in range(len(ring))))
                for c in range(ncomp)
                for i in range(len(ring))
            ]
        gens = [VectorPoly(ring, ncomp, {t: 1}) for t in terms if any(t[1]) or rng.random() < 0.2]
        if gens:
            yield f"monomial {n}", standard_basis(gens, rng.choice([NEGDEGREVLEX, DEGREVLEX]))


def test_staircase_agrees_with_the_pure_power_box():
    finite = infinite = 0
    for label, sb in staircase_cases():
        st = staircase(sb)
        assert (st.standard_monomials, st.finite) == box_staircase(sb), label
        finite += st.finite
        infinite += not st.finite
    # both outcomes occur
    assert finite > 60 and infinite


# -- syzygies ---------------------------------------------------------------


def test_koszul_syzygy_of_two_variables():
    # the leads x and y are coprime and every real term lies in component 0;
    # the product criterion must stay off, since the Schreyer rows also
    # carry bookkeeping terms, held apart from the real ones
    x, y = parse_poly("x", V2), parse_poly("y", V2)
    expected = VectorPoly.from_polys([parse_poly("-y", V2), parse_poly("x", V2)])
    for order in (DEGREVLEX, NEGDEGREVLEX):
        syz = syzygies([x, y], order)
        assert any(s == expected or s == expected.scale(-1) for s in syz), order.kind


def test_syzygy_with_common_factor():
    gens = [parse_poly("x^2", V2), parse_poly("x*y", V2)]
    syz = syzygies(gens, DEGREVLEX)
    target = VectorPoly.from_polys([parse_poly("y", V2), parse_poly("-x", V2)])
    # (y, -x) itself must lie in the computed syzygy module; since every
    # returned vector is exact, check spanning via normal forms
    sb = standard_basis(syz, DEGREVLEX)
    assert normal_form(target, sb).is_zero()


def test_euler_relation_for_weighted_homogeneous():
    f = parse_poly("x^3+y^3+z^3+x*y*z", V3)
    syz = syzygies(jacobian(f) + [f], NEGDEGREVLEX)
    euler = VectorPoly.from_polys(
        [
            parse_poly("1/3*x", V3),
            parse_poly("1/3*y", V3),
            parse_poly("1/3*z", V3),
            parse_poly("-1", V3),
        ]
    )
    assert any(s == euler or s == euler.scale(-1) for s in syz)


def test_syzygies_verified_exactly_against_inputs():
    f = parse_poly("x^6+y^4+z^2+x*y*z", V3)
    gens = jacobian(f) + [f]
    for s in syzygies(gens, NEGDEGREVLEX):
        total = parse_poly("0", V3)
        for coeff, g in zip(s.to_polys(), gens):
            total = total + coeff * g
        assert total.is_zero()


def test_syzygies_of_duplicate_generators():
    x = parse_poly("x", V2)
    syz = syzygies([x, x], DEGREVLEX)
    diff = VectorPoly.from_polys([parse_poly("1", V2), parse_poly("-1", V2)])
    assert any(s == diff or s == diff.scale(-1) for s in syz)


def test_syzygy_certificate_rejects_a_wrong_vector():
    f = parse_poly("x^3+y^3+z^3+x*y*z", V3)
    gens = [VectorPoly.from_poly(g) for g in jacobian(f) + [f]]
    syz = syzygies(gens, NEGDEGREVLEX)
    _check_syzygies(gens, [s.terms for s in syz])
    # a true syzygy plus e_0 multiplies out to the nonzero first generator
    terms = dict(syz[0].terms)
    terms[(0, (0, 0, 0))] = terms.get((0, (0, 0, 0)), 0) + 1
    with pytest.raises(RuntimeError, match="syzygy verification failed"):
        _check_syzygies(gens, [terms])


def test_syzygy_certificate_catches_a_reduction_that_drops_the_bookkeeping_part(monkeypatch):
    # the one elimination step also subtracts the reducer's bookkeeping
    # part; a step that skips it returns wrong relations, which the exact
    # check refuses
    real_eliminate = groebner._eliminate

    def real_part_only(h, lt, red, rest, guard):
        return real_eliminate(h, lt, replace(red, book={}, book_top=0), rest, guard)

    monkeypatch.setattr(groebner, "_eliminate", real_part_only)
    germ = next(g for g in CATALOG if g.name == "t433")
    f = cached_poly(germ.text, germ.vars)
    with pytest.raises(RuntimeError, match="syzygy verification failed"):
        syzygies(jacobian(f) + [f], NEGDEGREVLEX)


def all_pairs_syzygies(gens, order):
    """Reference Schreyer collection with no pair criteria: every pair of
    the real block is reduced, and each remainder whose real part dies is
    one syzygy (homogenized for a local order, as in ``syzygies``)."""
    ring, r, k = gens[0].ring, gens[0].ncomp, len(gens)
    pad = 1 if order.is_local() else 0
    if pad:
        def scalar_key(ext):
            return (sum(ext), order.sort_key(ext[1:]))

        seeds = [_homogenize_terms(dict(g.terms)) for g in gens]
    else:
        scalar_key = order.sort_key
        seeds = [dict(g.terms) for g in gens]
    input_leads = [max(t, key=lambda m: (m[0], scalar_key(m[1]))) for t in seeds]

    def elim_key(term):
        comp, expo = term
        if comp < r:
            return (1, comp, scalar_key(expo))
        lead_c, lead_e = input_leads[comp - r]
        return (0, lead_c, scalar_key(tuple(a + b for a, b in zip(expo, lead_e))), -comp)

    zero = (0,) * (len(ring) + pad)
    basis = [monic_row({**t, (r + i, zero): 1}, elim_key) for i, t in enumerate(seeds)]
    leads = [lead for lead, _ in basis]
    pending = [
        pair_key(leads, i, j) for j in range(k) for i in range(j) if leads[i][0] == leads[j][0]
    ]
    heapify(pending)
    out = []
    while pending:
        _, _, i, j = heappop(pending)
        # top reduction that stops once the lead leaves the real block
        h = top_reduce(monic_spoly(basis[i], basis[j]), basis, elim_key, lambda t: t[0] >= r)
        if not h:
            continue
        if max(h, key=elim_key)[0] >= r:
            merged = {}
            for (comp, e), c in h.items():
                merged[(comp - r, e[pad:])] = merged.get((comp - r, e[pad:]), 0) + c
            out.append(VectorPoly(ring, k, merged))
            continue
        basis.append(monic_row(h, elim_key))
        leads.append(basis[-1][0])
        for i in range(len(basis) - 1):
            if leads[i][0] == leads[-1][0]:
                heappush(pending, pair_key(leads, i, len(basis) - 1))
    return out


def syzygy_inputs():
    """(label, generators, order): (df, f) of small catalog germs, of one germ
    under a global order, and the Jacobian columns and equation multiples of
    an ICIS in O^2."""
    for germ in [g for g in CATALOG if g.tau <= 16]:
        f = cached_poly(germ.text, germ.vars)
        yield germ.name, [VectorPoly.from_poly(g) for g in jacobian(f) + [f]], NEGDEGREVLEX
    f = parse_poly("x^3+y^3+z^3+x*y*z", V3)
    yield "degrevlex", [VectorPoly.from_poly(g) for g in jacobian(f) + [f]], DEGREVLEX
    f = parse_poly("x^6+y^3+z^2+x*y*z", V3)
    gens = [VectorPoly.from_poly(g) for g in jacobian(f) + [f]]
    yield "weighted", gens, weighted_local((1, 2, 3))
    eqs = [parse_poly("x^4+y^4+2*z^2", V3), parse_poly("2*z-x*y", V3)]
    zero = parse_poly("0", V3)
    gens = [VectorPoly.from_polys([g.partial_derivative(v) for g in eqs]) for v in V3]
    gens += [VectorPoly.from_polys([g, zero]) for g in eqs]
    gens += [VectorPoly.from_polys([zero, g]) for g in eqs]
    yield "icis", gens, NEGDEGREVLEX


@pytest.mark.parametrize(
    "gens,order", [pytest.param(g, o, id=label) for label, g, o in syzygy_inputs()]
)
def test_syzygies_generate_every_all_pairs_syzygy(gens, order):
    syzygies_generate_all_pairs_syzygies(gens, order)


def syzygies_generate_all_pairs_syzygies(gens, order):
    """The engine drops pairs by criteria B, F and M; what it returns must
    still generate every relation the criterion-free collection finds."""
    reference = all_pairs_syzygies(gens, order)
    assert reference
    sb = standard_basis(syzygies(gens, order), order)
    # a syzygy module has infinite codimension: a local order needs Mora
    nf = mora_normal_form if order.is_local() else normal_form
    for s in reference:
        assert nf(s, sb).is_zero(), s


# -- the shared skip rule --------------------------------------------------
#
# The certificate walks the pairs under the same rule as the engine, so a
# fault in the rule passes it.  Broken copies of the rule must fail the
# all-pairs checks above, which share no code with it.


def criterion_b_without_lcm_conditions(pending, leads, t, pk):
    """Criterion B that drops every pending pair whose lcm lead t divides,
    also when lcm(i, t) or lcm(j, t) equals it."""
    comp, lt = leads[t] >> pk.cshift, leads[t] & pk.low
    guard = pk.guard
    return [
        key for key in pending
        if leads[key[2]] >> pk.cshift != comp or ((key[1] | guard) - lt) & guard != guard
    ]


REAL_NEW_PAIRS = groebner._new_pairs


def new_pairs_without_tie_keeper(leads, t, ideal, pk):
    """Criteria F and M that drop each kept pair whose lcm another new pair shares:
    of equal lcms none is kept."""
    comp, lt = leads[t] >> pk.cshift, leads[t] & pk.low
    lcms = [pk.lcm(le, lt) for le in leads[:t] if le >> pk.cshift == comp]
    return [key for key in REAL_NEW_PAIRS(leads, t, ideal, pk) if lcms.count(key[1]) == 1]


@pytest.mark.parametrize(
    "rule,broken",
    [
        pytest.param("_criterion_b", criterion_b_without_lcm_conditions, id="criterion_b"),
        pytest.param("_new_pairs", new_pairs_without_tie_keeper, id="criterion_f"),
    ],
)
def test_all_pairs_checks_catch_a_broken_skip_rule(monkeypatch, rule, broken):
    monkeypatch.setattr(groebner, rule, broken)
    with pytest.raises(AssertionError):
        certificate_agrees_with_all_pairs()
    gens, order = next((g, o) for label, g, o in syzygy_inputs() if label == "degrevlex")
    with pytest.raises(AssertionError):
        syzygies_generate_all_pairs_syzygies(gens, order)


def verify_switch_inputs():
    """(label, generators, order) for comparing completions with and without the certificate."""
    f = parse_poly("x^6+y^3+z^2+x*y*z", V3)
    for label, order in [
        ("degrevlex", DEGREVLEX),
        ("negdegrevlex", NEGDEGREVLEX),
        ("weighted", weighted_local((1, 2, 3))),
    ]:
        yield label, [f] + jacobian(f), order
    yield next(case for case in syzygy_inputs() if case[0] == "icis")


@pytest.mark.parametrize(
    "gens,order", [pytest.param(g, o, id=label) for label, g, o in verify_switch_inputs()]
)
def test_unverified_completion_gives_the_same_basis(gens, order):
    # the certificate only re-checks the completed set; skipping it must not
    # change what is returned
    assert (
        standard_basis(gens, order, verify=False).generators
        == standard_basis(gens, order).generators
    )


def test_spoly_requires_matching_components():
    a = VectorPoly.from_polys([parse_poly("x", V2), parse_poly("0", V2)])
    b = VectorPoly.from_polys([parse_poly("0", V2), parse_poly("y", V2)])
    with pytest.raises(ValueError):
        spoly(a, b, NEGDEGREVLEX.module_key)


# -- minimal bases -----------------------------------------------------------


def divides(a, b):
    return a[0] == b[0] and all(p <= q for p, q in zip(a[1], b[1]))


def test_local_minimal_basis_drops_a_multiple_of_a_later_lead():
    # under a local order x sorts above its multiple x^3; x must still be
    # visited first, so that x^3 is dropped
    sb = standard_basis([parse_poly("x^3+y^3", V2), parse_poly("x", V2)], NEGDEGREVLEX)
    assert sb.leading_terms == ((0, (0, 3)), (0, (1, 0)))
    assert [str(g.to_polys()[0]) for g in sb.generators] == ["y^3", "x"]


@pytest.mark.parametrize(
    "order",
    [lambda n: NEGDEGREVLEX, lambda n: weighted_local(range(n, 0, -1))],
    ids=["negdegrevlex", "weighted"],
)
def test_no_kept_lead_divides_another(order):
    for germ in CATALOG:
        f = cached_poly(germ.text, germ.vars)
        o = order(len(germ.vars))
        for gens, dim in (([f] + jacobian(f), germ.tau), (jacobian(f), germ.mu)):
            sb = standard_basis(gens, o)
            leads = sb.leading_terms
            assert not [
                (a, b) for a in leads for b in leads if a != b and divides(a, b)
            ], (germ.name, o)
            assert len(set(leads)) == len(leads)
            assert list(leads) == sorted(leads, key=o.module_key)
            assert staircase(sb).dimension == dim


# -- order independence and the oracle -------------------------------------


WEIGHTS = {
    "t333_l0": (1, 1, 1),
    "t333_l1": (1, 1, 1),
    "t333_l5": (1, 1, 1),
    "t442_l1": (1, 1, 2),
    "t442_l2": (1, 1, 2),
    "t632_l1": (1, 2, 3),
    "t632_l2": (1, 2, 3),
}


@pytest.mark.parametrize("name", sorted(WEIGHTS))
def test_dimension_does_not_depend_on_local_order(name):
    germ = next(g for g in CATALOG if g.name == name)
    f = cached_poly(germ.text, germ.vars)
    gens = [f] + jacobian(f)
    dim_plain = staircase(standard_basis(gens, NEGDEGREVLEX)).dimension
    weighted_basis = standard_basis(gens, weighted_local(WEIGHTS[name]))
    assert dim_plain == staircase(weighted_basis).dimension == germ.tau
    # weighted-order membership soundness: every input reduces to zero
    for g in gens:
        assert normal_form(g, weighted_basis).is_zero()


@pytest.mark.parametrize(
    "germ", [g for g in CATALOG if g.tau <= 12], ids=lambda g: g.name
)
def test_oracle_equivalence_staircase_vs_truncated_linear_algebra(germ):
    tau, t1 = cached_tjurina(germ.text, germ.vars)
    bound = 1 + max((sum(e) for e in t1.monomials), default=0)
    f = cached_poly(germ.text, germ.vars)
    assert truncated_quotient_dimension([f] + jacobian(f), bound) == tau


# -- canonical coordinates ---------------------------------------------------


def test_quotient_coordinates_of_standard_monomials_are_unit_vectors():
    f = parse_poly("x^4+y^4+z^2+x*y*z", V3)
    sb = standard_basis([f] + jacobian(f), NEGDEGREVLEX)
    st = staircase(sb)
    for i, (_, expo) in enumerate(st.standard_monomials):
        mono = parse_poly(
            "*".join([f"{v}^{e}" for v, e in zip(V3, expo) if e] or ["1"]), V3
        )
        coords = quotient_coordinates(mono, sb, st)
        assert coords[i] == 1 and sum(1 for c in coords if c != 0) == 1


def test_quotient_coordinates_respect_ideal():
    f = parse_poly("x^3+y^3+z^3+x*y*z", V3)
    sb = standard_basis([f] + jacobian(f), NEGDEGREVLEX)
    st = staircase(sb)
    assert all(c == 0 for c in quotient_coordinates(f, sb, st))
    # high powers of the maximal ideal vanish in the quotient
    assert all(c == 0 for c in quotient_coordinates(parse_poly("x^9", V3), sb, st))


def test_quotient_coordinates_with_weighted_order():
    f = parse_poly("x^6+y^3+z^2+x*y*z", V3)
    order = weighted_local((1, 2, 3))
    sb = standard_basis([f] + jacobian(f), order)
    st = staircase(sb)
    coords = quotient_coordinates(parse_poly("1", V3), sb, st)
    assert sum(1 for c in coords if c != 0) == 1


def test_quotient_coordinates_infinite_rejected():
    sb = standard_basis([parse_poly("x^2*y", V2)], NEGDEGREVLEX)
    with pytest.raises(ValueError):
        quotient_coordinates(parse_poly("x", V2), sb, staircase(sb))


def test_quotient_coordinates_global_order_rejected():
    # a finite quotient, but under a global order the terms past the
    # staircase need not lie in the ideal
    sb = standard_basis([parse_poly("x^2", V2), parse_poly("y^3", V2)], DEGREVLEX)
    st = staircase(sb)
    assert st.finite and st.dimension == 6
    with pytest.raises(ValueError):
        quotient_coordinates(parse_poly("x*y", V2), sb, st)


def test_quotient_coordinates_staircase_of_another_basis_rejected():
    # two Tjurina bases with the same leading terms and staircase
    one, five = (
        standard_basis([f] + jacobian(f), NEGDEGREVLEX)
        for f in (parse_poly(t, V3) for t in ("x^3+y^3+z^3+x*y*z", "x^3+y^3+z^3+5*x*y*z"))
    )
    assert one.leading_terms == five.leading_terms and one != five
    p = parse_poly("x*y*z", V3)
    quotient_coordinates(p, one, staircase(one))
    with pytest.raises(ValueError, match="another basis"):
        quotient_coordinates(p, one, staircase(five))


def test_staircase_builds_its_residue_table_once():
    # each row is filled once: a repeated residue fills no new row
    f = parse_poly("x^4+y^4+z^2+x*y*z", V3)
    st = staircase(standard_basis([f] + jacobian(f), NEGDEGREVLEX))
    assert "_memo" not in vars(st)  # set up on first use only
    first = st.coordinates({(0, (1, 1, 1)): 1})
    table = st._memo[0]
    filled = dict(table)
    again = quotient_coordinates(parse_poly("x*y*z", V3), st.basis, st)
    assert again == first and st._memo[0] is table
    assert table.keys() == filled.keys()
    assert all(table[t] is row for t, row in filled.items())


def reached(stair, term):
    """The terms below the cut whose rows the residue of ``term`` needs: the
    term and, for a non-standard one, those of the shifted tail of the first
    generator whose lead divides it, on exponent tuples."""
    sb, order = stair.basis, stair.basis.order
    cut = 1 + max(order.degree(e) for _, e in stair.standard_monomials)
    seen, todo = set(), [term]
    while todo:
        comp, expo = todo.pop()
        if (comp, expo) in seen or order.degree(expo) >= cut:
            continue
        seen.add((comp, expo))
        if (comp, expo) in stair.standard_monomials:
            continue
        g, (_, lead) = next(
            (g, (c, e))
            for g, (c, e) in zip(sb.generators, sb.leading_terms)
            if c == comp and all(x >= y for x, y in zip(expo, e))
        )
        shift = tuple(x - y for x, y in zip(expo, lead))
        todo += [(c, tuple(x + y for x, y in zip(e, shift))) for c, e in g.terms]
    return seen


@pytest.mark.parametrize(
    "text, vars, expo",
    [
        ("x^5+y^5+z^5+w^5+x*y*z*w", ("x", "y", "z", "w"), (3, 2, 0, 1)),
        ("x^7+y^6+z^5+x^2*y*z+x*y^3*z^2", V3, (4, 1, 2)),
        ("x^9+y^7+x^3*y^3+x^5*y^2", V2, (6, 3)),
    ],
    ids=["quintic4", "a7b6c5", "curve33"],
)
def test_one_residue_fills_only_the_rows_it_reaches(text, vars, expo):
    stair = milnor_algebra(parse_poly(text, vars))
    stair = staircase(stair.basis)  # a fresh table
    start = set(stair._memo[0])
    stair.residue({(0, expo): 1})
    filled = set(stair._memo[0]) - start
    reach = reached(stair, (0, expo))
    assert filled == reach - set(stair.standard_monomials)
    assert (0, expo) in filled and len(filled) < len(residue_table(staircase(stair.basis))) / 4


def test_a_deep_chain_fills_under_a_tight_recursion_limit():
    # lead x of x - y sends x^k y^(n-1-k) to x^(k-1) y^(n-k): the row of
    # x^(n-1) rests on a chain of n - 1 rows, far deeper than the limit
    n = 1500
    sb = StandardBasis(
        tuple(VectorPoly.from_poly(parse_poly(t, V2)) for t in ("x-y", f"y^{n}")),
        NEGDEGREVLEX,
        ((0, (1, 0)), (0, (0, n))),
    )
    stair = staircase(sb)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 40)
    try:
        row = stair.residue({(0, (n - 1, 0)): 1})
    finally:
        sys.setrecursionlimit(limit)
    assert row == {n - 1: 1}
    assert len(stair._memo[0]) == n + (n - 1)  # the standard monomials and the chain


@pytest.mark.parametrize(
    "term", [(0, (1, 1)), (1, (1, 0, 0)), (0, (1, -1, 0))], ids=["arity", "component", "negative"]
)
def test_a_malformed_term_is_refused(term):
    stair = milnor_algebra(parse_poly("x^3+y^4+z^5", V3))
    with pytest.raises(ValueError, match="is not a term of O"):
        stair.residue({term: 1})
    with pytest.raises(ValueError, match="is not a term of O"):
        stair.coordinates({(0, (0, 0, 0)): 1, term: 1})


def cube_table(stair):
    """The residue table over every term of the cube range(cut)^n below the
    cut, filled smallest term first on exponent tuples: a standard term is
    its unit vector, any other minus the shifted tail of the first generator
    whose lead divides it, a tail term past the cut being zero."""
    sb, order = stair.basis, stair.basis.order
    cut = 1 + max((order.degree(e) for _, e in stair.standard_monomials), default=-1)
    below = [e for e in product(range(cut), repeat=len(sb.ring)) if order.degree(e) < cut]
    positions = {term: i for i, term in enumerate(stair.standard_monomials)}
    rows = {}
    terms = sorted(((c, e) for c in range(sb.ncomp) for e in below), key=order.module_key)
    for comp, expo in terms:
        if (comp, expo) in positions:
            rows[(comp, expo)] = {positions[(comp, expo)]: 1}
            continue
        g, lead = next(
            (g, e)
            for g, (c, e) in zip(sb.generators, sb.leading_terms)
            if c == comp and all(x >= y for x, y in zip(expo, e))
        )
        shift = tuple(x - y for x, y in zip(expo, lead))
        row = {}
        for (c, e), a in g.terms.items():
            term = (c, tuple(x + y for x, y in zip(e, shift)))
            if term != (comp, expo):
                for j, b in rows.get(term, {}).items():
                    row[j] = row.get(j, 0) - a * b
        rows[(comp, expo)] = {j: a for j, a in row.items() if a}
    return rows


TABLE_GERMS = [(g.name, g.text, g.vars) for g in CATALOG] + [
    (name, text, V3) for name, text in RELATION_LADDER.items()
]


@pytest.mark.parametrize(
    "text, vars", [(t, v) for _, t, v in TABLE_GERMS], ids=[n for n, _, _ in TABLE_GERMS]
)
def test_residue_table_grown_by_degree_equals_the_cube_fill(text, vars):
    # the Tjurina and the Milnor algebra of the catalog and the ``modular`` ladder
    f = cached_poly(text, vars)
    for stair in cached_tjurina(text, vars)[1].stair, milnor_algebra(f):
        assert residue_table(stair) == cube_table(stair)


def test_residue_table_grown_by_degree_equals_the_cube_fill_weighted_and_module():
    f = parse_poly("x^6+y^3+z^2+x*y*z", V3)
    for stair in (
        staircase(standard_basis([f] + jacobian(f), weighted_local((1, 2, 3)))),
        staircase(standard_basis(icis_generators(), NEGDEGREVLEX)),
    ):
        assert residue_table(stair) == cube_table(stair)


# -- residue table against Mora's weak normal form ----------------------------


def random_vector(rng, ring, ncomp, top):
    """Sparse random element of O^ncomp with terms of total degree up to ``top``."""
    terms = {}
    for _ in range(12):
        expo = [0] * len(ring)
        for _ in range(rng.randint(0, top)):
            expo[rng.randrange(len(ring))] += 1
        terms[(rng.randrange(ncomp), tuple(expo))] = Fraction(
            rng.randint(-9, 9), rng.randint(1, 4)
        )
    return VectorPoly(ring, ncomp, terms)


def assert_coordinates_match_mora(sb, st, rng, rounds=6):
    """p minus its coordinate representative must lie in the ideal/submodule."""
    # most terms fall below the cut, some at or past it
    top = 2 + max(sum(e) for _, e in st.standard_monomials)
    for _ in range(rounds):
        p = random_vector(rng, sb.ring, sb.ncomp, top)
        coords = quotient_coordinates(p, sb, st)
        rest = dict(p.terms)
        for term, c in zip(st.standard_monomials, coords):
            rest[term] = rest.get(term, 0) - c
        assert mora_normal_form(VectorPoly(sb.ring, sb.ncomp, rest), sb).is_zero()


@pytest.mark.parametrize(
    "germ", [g for g in CATALOG if g.tau <= 16], ids=lambda g: g.name
)
def test_residue_table_against_mora_normal_form(germ):
    tau, t1 = cached_tjurina(germ.text, germ.vars)
    rng = random.Random(germ.name)
    sb = t1.stair.basis
    assert_coordinates_match_mora(sb, t1.stair, rng)
    # a random O-combination of the generators, and one off it by a random
    # nonzero combination of standard monomials
    inside = sum(
        (random_vector(rng, sb.ring, 1, 3).component(0) * g.component(0) for g in sb.generators),
        Polynomial.zero(sb.ring),
    )
    picked = rng.sample(t1.stair.standard_monomials, min(2, tau))
    outside = inside + Polynomial(sb.ring, {e: rng.randint(1, 9) for _, e in picked})
    for p, member in ((inside, True), (outside, False)):
        nf = normal_form(p, sb)
        assert nf.is_zero() == mora_normal_form(p, sb).is_zero() == member
        assert normal_form(nf, sb) == nf
    for _ in range(3):
        p = random_vector(rng, t1.ring, 1, 6).component(0)
        assert t1.coordinates(p) == quotient_coordinates(p, t1.stair.basis, t1.stair)


def test_residue_table_weighted_order_and_module():
    rng = random.Random(11)
    f = parse_poly("x^6+y^3+z^2+x*y*z", V3)
    sb = standard_basis([f] + jacobian(f), weighted_local((1, 2, 3)))
    assert_coordinates_match_mora(sb, staircase(sb), rng)
    # ICIS module: Jacobian columns and equation multiples in O^2
    eqs = [parse_poly("x^4+y^4+2*z^2", V3), parse_poly("2*z-x*y", V3)]
    zero = parse_poly("0", V3)
    gens = [VectorPoly.from_polys([g.partial_derivative(v) for g in eqs]) for v in V3]
    gens += [VectorPoly.from_polys([g, zero]) for g in eqs]
    gens += [VectorPoly.from_polys([zero, g]) for g in eqs]
    sb = standard_basis(gens, NEGDEGREVLEX)
    assert_coordinates_match_mora(sb, staircase(sb), rng)


# -- input checks ------------------------------------------------------------


@pytest.mark.parametrize(
    "gens",
    [
        [parse_poly("x", V2), parse_poly("x", V3)],
        [
            VectorPoly.from_polys([parse_poly("x", V2)] * 2),
            VectorPoly.from_polys([parse_poly("y", V2)] * 3),
        ],
    ],
    ids=["rings", "components"],
)
def test_generators_must_share_ring_and_component_count(gens):
    with pytest.raises(ValueError, match="^generators must share ring and component count$"):
        standard_basis(gens, NEGDEGREVLEX)


def test_quotient_coordinates_rejects_another_ring():
    sb = standard_basis([parse_poly("x^2", V1)], NEGDEGREVLEX)
    with pytest.raises(ValueError, match="^ring or component mismatch with basis$"):
        quotient_coordinates(parse_poly("x", V2), sb, staircase(sb))


def test_syzygies_reject_a_zero_generator():
    with pytest.raises(ValueError, match="^zero generator has no meaningful syzygies$"):
        syzygies([parse_poly("x", V2), parse_poly("0", V2)], NEGDEGREVLEX)


def recursive_monomials_below(nvars, bound):
    """The recursive enumeration ``monomials_below`` replaced, kept as its reference."""
    out = []

    def rec(prefix, remaining, k):
        if k == nvars:
            out.append(tuple(prefix))
            return
        for e in range(remaining + 1):
            prefix.append(e)
            rec(prefix, remaining - e, k + 1)
            prefix.pop()

    if bound > 0:
        rec([], bound - 1, 0)
    return out


@pytest.mark.parametrize("nvars", range(5))
def test_monomials_below_lists_the_recursive_enumeration_in_its_order(nvars):
    for bound in range(-1, 8):
        assert monomials_below(nvars, bound) == recursive_monomials_below(nvars, bound)


def test_oracle_rejects_zero_and_mixed_generators():
    with pytest.raises(ValueError, match="^need at least one nonzero generator$"):
        truncated_quotient_dimension([parse_poly("0", V2)], 3)
    with pytest.raises(ValueError, match="^generators from different rings$"):
        truncated_quotient_dimension([parse_poly("x", V2), parse_poly("x", V3)], 3)
