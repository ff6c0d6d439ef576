"""Property tests for the engine's packed exponents, against exponent tuples.

Every packed operation is checked against the plain tuple operation it
stands for: shift, quotient, divisibility (through ``_divisors``), lcm,
degree and the order of packed ints against lex tuple order.  A packed
term carries its component above every other field; components are drawn
up to above 2^17, since the component field has no width limit, and a
divisor test whose mask lacks the component bits must fail the lookup
property.  The engine's packing (``packed._engine_packing``) puts order
fields above the exponent fields; under degrevlex, negdegrevlex and
weighted orders its packed terms must compare as the engine's tuple key
(``conftest.engine_key``), pack linearly, keep the divisor test exact and
pick the same lead with a plain ``max``, and broken copies of its order
fields must fail that property.  The divisor memo of a completion
(``_first_divisor``) must answer as a fresh scan of the leads at every step
while they grow.  The overflow guard gets tests of its own: an entry one
past the field raises ``ExponentOverflow``, a ValueError, and the largest
entry that fits still completes.
"""

from dataclasses import replace

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from germcalc import (
    DEGREVLEX,
    NEGDEGREVLEX,
    ExponentOverflow,
    normal_form,
    parse_poly,
    staircase,
    standard_basis,
    syzygies,
    weighted_local,
)
from germcalc.groebner import _divisors
from germcalc.packed import ENTRY_MAX, _engine_packing, _first_divisor, packing
from conftest import engine_key

PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)
# a negative test needs the first failure only, unshrunk
FIRST_FAILURE = settings(PROPERTY, report_multiple_bugs=False, phases=[Phase.generate])

# small entries, and entries next to the largest a field holds
entry = st.one_of(st.integers(0, 6), st.integers(ENTRY_MAX - 6, ENTRY_MAX))
# small components, and components wider than any exponent field
BIG = 1 << 17
component = st.one_of(st.integers(0, 2), st.integers(BIG, BIG + 2))


@st.composite
def exponent_pairs(draw):
    n = draw(st.integers(1, 5))
    a = tuple(draw(st.lists(entry, min_size=n, max_size=n)))
    # half the pairs divide by construction, the others are drawn freely
    if draw(st.booleans()):
        step = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        return a, tuple(min(x + d, ENTRY_MAX) for x, d in zip(a, step))
    return a, tuple(draw(st.lists(entry, min_size=n, max_size=n)))


@PROPERTY
@given(exponent_pairs())
def test_packed_operations_match_the_tuple_ones(pair):
    a, b = pair
    pk = packing(len(a))
    pa, pb = pk.pack(a), pk.pack(b)
    assert pk.unpack(pa) == a and pk.unpack(pb) == b
    # int order is lex tuple order
    assert (pa < pb) == (a < b) and (pa == pb) == (a == b)
    assert pk.degree(pa) == sum(a)
    assert pk.unpack(pk.lcm(pa, pb)) == tuple(max(x, y) for x, y in zip(a, b))
    # divisibility, through the one divisor search of the engine
    divides = all(x <= y for x, y in zip(a, b))
    assert list(_divisors([pa], pb, pk)) == ([0] if divides else [])
    if divides:
        assert pk.unpack(pb - pa) == tuple(y - x for x, y in zip(a, b))
    # a shift sets a guard bit exactly when an entry overflows its field
    total = tuple(x + y for x, y in zip(a, b))
    if max(total) <= ENTRY_MAX:
        assert not (pa + pb) & pk.guard
        assert pk.unpack(pa + pb) == total
    else:
        assert (pa + pb) & pk.guard


@st.composite
def pools_and_terms(draw):
    n = draw(st.integers(1, 4))
    expo = st.lists(entry, min_size=n, max_size=n).map(tuple)
    leads = draw(st.lists(st.tuples(component, expo), min_size=1, max_size=12))
    # terms drawn as multiples of a pool lead, or freely
    if draw(st.booleans()):
        comp, base = draw(st.sampled_from(leads))
        step = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        return leads, (comp, tuple(min(x + d, ENTRY_MAX) for x, d in zip(base, step)))
    return leads, (draw(component), draw(expo))


def lookup_agrees(make, case):
    """The divisor lookup on the packing ``make(size)`` finds what a scan of the tuples finds."""
    leads, (comp, expo) = case
    pk = make(len(expo))
    scan = [
        k for k, (lcomp, lexpo) in enumerate(leads)
        if lcomp == comp and all(x <= y for x, y in zip(lexpo, expo))
    ]
    assert list(_divisors(list(map(pk.pack_term, leads)), pk.pack_term((comp, expo)), pk)) == scan


@PROPERTY
@given(pools_and_terms())
def test_lookup_finds_what_a_linear_scan_finds(case):
    lookup_agrees(packing, case)


def mask_without_component_bits(size):
    """A broken packing: its divisor mask is the exponent guards alone."""
    pk = packing(size)
    return replace(pk, gmask=pk.guard)


def test_lookup_property_catches_a_mask_without_component_bits():
    # with that mask a lead of a higher component divides a term of a lower one
    @FIRST_FAILURE
    @given(pools_and_terms())
    def check(case):
        lookup_agrees(mask_without_component_bits, case)

    with pytest.raises(AssertionError):
        check()


@PROPERTY
@given(st.lists(st.lists(entry, min_size=3, max_size=3).map(tuple), min_size=1, max_size=6))
def test_top_is_the_entrywise_maximum(exponents):
    pk = packing(3)
    # components of any size: top reads the exponent fields alone
    terms = {pk.pack_term((k * BIG, e)): 1 for k, e in enumerate(exponents)}
    assert pk.unpack(pk.top(terms)) == tuple(map(max, zip(*exponents)))


# -- the engine's order fields ---------------------------------------------------------


# small weights, and weights that widen the weighted order field
weight = st.one_of(st.integers(1, 5), st.integers(1000, 1005))


@st.composite
def order_cases(draw):
    """An order, its number of ring variables, two terms and a row of terms
    on the engine's exponents (a local order's slack entry in front).

    The second term is drawn freely, as a multiple of the first, or as a
    permutation of it in its component, which has the same total degree; the
    row mixes such permutations and free terms, so that ties in the leading
    order fields are common.
    """
    n = draw(st.integers(1, 4))
    order = draw(st.sampled_from([DEGREVLEX, NEGDEGREVLEX, None]))
    if order is None:
        order = weighted_local(draw(st.lists(weight, min_size=n, max_size=n)))
    size = n + order.is_local()
    comp = st.one_of(st.integers(0, 1), st.integers(BIG, BIG + 1))
    term = st.tuples(comp, st.lists(entry, min_size=size, max_size=size).map(tuple))
    a = draw(term)
    permuted = st.tuples(st.just(a[0]), st.permutations(a[1]).map(tuple))
    how = draw(st.sampled_from(["free", "multiple", "permutation"]))
    if how == "multiple":
        step = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
        b = (a[0], tuple(min(x + d, ENTRY_MAX) for x, d in zip(a[1], step)))
    else:
        b = draw(term if how == "free" else permuted)
    row = draw(st.lists(st.one_of(permuted, term), min_size=1, max_size=8))
    return order, n, a, b, row


def order_packing_agrees(make, case):
    """Check the packing ``make(order, n)`` against the engine's tuple key on ``case``."""
    order, n, (ca, a), (cb, b), row = case
    pk = make(order, n)
    key = engine_key(order)
    pa, pb = pk.pack(a), pk.pack(b)
    assert pk.unpack(pa) == a and pk.unpack(pb) == b
    ta, tb = pk.pack_term((ca, a)), pk.pack_term((cb, b))
    assert pk.unpack_term(ta) == (ca, a) and pk.unpack_term(tb) == (cb, b)
    # int order is the engine's term order
    assert (ta < tb) == (key((ca, a)) < key((cb, b)))
    assert (ta == tb) == ((ca, a) == (cb, b))
    packed_row = list(map(pk.pack_term, row))
    assert max(packed_row) == max(packed_row, key=pk.keyed(key))
    # packing is linear: a shift is one addition while every entry fits,
    # and sets an exponent guard bit when one does not
    total = tuple(x + y for x, y in zip(a, b))
    if max(total) <= ENTRY_MAX:
        assert pk.pack(total) == pa + pb
    else:
        assert (pa + pb) & pk.guard
    # divisibility, through the one divisor search of the engine, and the quotient
    divides = ca == cb and all(x <= y for x, y in zip(a, b))
    assert list(_divisors([ta], tb, pk)) == ([0] if divides else [])
    if divides:
        assert tb - ta == pk.pack(tuple(y - x for x, y in zip(a, b)))
    # the lcm of the exponent fields, lifted, is the packed lcm, in b's component
    lcm = pk.lift(pk.lcm(ta, tb))
    assert lcm == pk.pack_term((cb, tuple(max(x, y) for x, y in zip(a, b))))


@PROPERTY
@given(order_cases())
def test_order_packing_compares_as_the_engine_key(case):
    order_packing_agrees(_engine_packing, case)


def reversed_partial_sums(order, nvars):
    """A broken engine packing: its partial sums in reverse."""
    pk = _engine_packing(order, nvars)
    head = 1 + order.is_local()
    return packing(pk.size, pk.forms[:head] + pk.forms[head:][::-1])


def dropped_weighted_row(order, nvars):
    """A broken engine packing: a local order without its weighted row."""
    pk = _engine_packing(order, nvars)
    return packing(pk.size, pk.forms[:1] + pk.forms[2:]) if order.is_local() else pk


@pytest.mark.parametrize("broken", [reversed_partial_sums, dropped_weighted_row])
def test_order_packing_property_catches_a_broken_order_field(broken):
    @FIRST_FAILURE
    @given(order_cases())
    def check(case):
        order_packing_agrees(broken, case)

    with pytest.raises(AssertionError):
        check()


# -- the divisor memo -----------------------------------------------------------------


@st.composite
def growth_scripts(draw):
    """A number of entries and a script of appended leads and queried terms.

    Terms come from a small set, so one term is asked again after leads
    were appended: a miss must be rescanned, a hit kept.
    """
    n = draw(st.integers(1, 3))
    term = st.tuples(st.integers(0, 1), st.lists(st.integers(0, 3), min_size=n, max_size=n))
    asked = draw(st.lists(term, min_size=1, max_size=4))
    steps = st.one_of(
        st.tuples(st.just("append"), term), st.tuples(st.just("query"), st.sampled_from(asked))
    )
    return n, draw(st.lists(steps, max_size=30))


def memo_answers_as_a_scan(make, script):
    """Run ``script`` on a memo built by ``make(leads, pk)``; every answer
    must be the first dividing lead a fresh scan finds."""
    n, steps = script
    pk = packing(n)
    leads = []
    first = make(leads, pk)
    for step, (comp, expo) in steps:
        term = pk.pack_term((comp, tuple(expo)))
        if step == "append":
            leads.append(term)
        else:
            assert first(term) == next(_divisors(leads, term, pk), None)


@PROPERTY
@given(growth_scripts())
def test_divisor_memo_answers_as_a_fresh_scan(script):
    memo_answers_as_a_scan(_first_divisor, script)


def memo_that_keeps_misses(leads, pk):
    """A broken memo: its first answer for a term, a miss included, is kept for good."""
    answers = {}

    def first(term):
        if term not in answers:
            answers[term] = next(_divisors(leads, term, pk), None)
        return answers[term]

    return first


def test_divisor_memo_property_catches_a_memo_that_keeps_misses():
    @FIRST_FAILURE
    @given(growth_scripts())
    def check(script):
        memo_answers_as_a_scan(memo_that_keeps_misses, script)

    with pytest.raises(AssertionError):
        check()


# -- the overflow guard -------------------------------------------------------------


V1 = ("x",)
V2 = ("x", "y")


def test_an_entry_one_past_the_field_raises():
    assert issubclass(ExponentOverflow, ValueError)
    with pytest.raises(ExponentOverflow, match="does not fit"):
        standard_basis([parse_poly(f"x^{ENTRY_MAX + 1}", V1)], DEGREVLEX)
    with pytest.raises(ExponentOverflow, match="does not fit"):
        standard_basis([parse_poly(f"x^{ENTRY_MAX + 1}+y", V2)], NEGDEGREVLEX)


def test_the_largest_entry_that_fits_completes():
    for order in (DEGREVLEX, NEGDEGREVLEX):
        sb = standard_basis([parse_poly(f"x^{ENTRY_MAX}", V1)], order)
        assert sb.leading_terms == ((0, (ENTRY_MAX,)),)
        assert staircase(sb).dimension == ENTRY_MAX
    # a local order keeps a slack entry in front: x^max + y homogenizes to
    # s^(max - 1) * y + x^max, and every entry still fits
    sb = standard_basis([parse_poly(f"x^{ENTRY_MAX}+y", V2)], NEGDEGREVLEX)
    assert sb.leading_terms == ((0, (0, 1)),)


def test_a_shifted_tail_past_the_cut_is_skipped_before_it_overflows():
    # x + y^max has lead x and tail y^max; the residue row of x*y shifts that
    # tail to y^(max + 1), which does not fit.  That term lies past the cut of
    # the staircase {1, y, y^2}, so it is zero and the table skips it by its
    # degree before forming it: x*y lies in the ideal, whose y^3 makes x one
    # of its elements.  So do x^2 and x*y^2, and a local normal form, which
    # reads the same table, keeps only the y of x*y + x^2 + y.
    sb = standard_basis([parse_poly(f"x+y^{ENTRY_MAX}", V2), parse_poly("y^3", V2)], NEGDEGREVLEX)
    stair = staircase(sb)
    assert [e for _, e in stair.standard_monomials] == [(0, 0), (0, 1), (0, 2)]
    for expo in [(1, 1), (1, 0), (2, 0), (1, 2)]:
        assert stair.residue({(0, expo): 1}) == {}
    assert stair.residue({(0, (0, 2)): 1}) == {2: 1}
    assert normal_form(parse_poly("x*y+x^2+y", V2), sb).to_polys() == [parse_poly("y", V2)]


def test_a_shift_past_the_field_raises_before_it_wraps():
    # the S-vector of x^max and x + x^2 (lead x in a local order) shifts the
    # tail x^2 by x^(max - 1): the entry max + 1 must not wrap into the guard
    gens = [parse_poly(f"x^{ENTRY_MAX}", V1), parse_poly("x+x^2", V1)]
    with pytest.raises(ExponentOverflow, match="does not fit"):
        standard_basis(gens, NEGDEGREVLEX)
    with pytest.raises(ExponentOverflow, match="does not fit"):
        syzygies(gens, NEGDEGREVLEX)
    # one step lower, the same computation fits
    gens = [parse_poly(f"x^{ENTRY_MAX - 1}", V1), parse_poly("x+x^2", V1)]
    assert staircase(standard_basis(gens, NEGDEGREVLEX)).dimension == 1
    assert syzygies(gens, NEGDEGREVLEX)

