"""Property tests for the engine's packed exponents, against exponent tuples.

Every packed operation is checked against the plain tuple operation it
stands for: shift, quotient, divisibility (through ``_divisors``), lcm,
degree and the order of packed ints against lex tuple order.  The divisor
memo of a completion (``_first_divisor``) must answer as a fresh scan of
the leads at every step while they grow.  The overflow
guard gets tests of its own: an entry one past the field raises
``ExponentOverflow``, a ValueError, and the largest entry that fits still
completes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germcalc import (
    DEGREVLEX,
    NEGDEGREVLEX,
    ExponentOverflow,
    parse_poly,
    staircase,
    standard_basis,
    syzygies,
)
from germcalc.groebner import _divisors
from germcalc.packed import ENTRY_MAX, _first_divisor, packing

PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)

# small entries, and entries next to the largest a field holds
entry = st.one_of(st.integers(0, 6), st.integers(ENTRY_MAX - 6, ENTRY_MAX))


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
    assert list(_divisors([(0, pa)], (0, pb), pk.guard)) == ([0] if divides else [])
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
    leads = draw(st.lists(st.tuples(st.integers(0, 2), expo), min_size=1, max_size=12))
    # terms drawn as multiples of a pool lead, or freely
    if draw(st.booleans()):
        comp, base = draw(st.sampled_from(leads))
        step = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        return leads, (comp, tuple(min(x + d, ENTRY_MAX) for x, d in zip(base, step)))
    return leads, (draw(st.integers(0, 2)), draw(expo))


@PROPERTY
@given(pools_and_terms())
def test_lookup_finds_what_a_linear_scan_finds(case):
    leads, (comp, expo) = case
    pk = packing(len(expo))
    packed_leads = [(lcomp, pk.pack(lexpo)) for lcomp, lexpo in leads]
    scan = [
        k for k, (lcomp, lexpo) in enumerate(leads)
        if lcomp == comp and all(x <= y for x, y in zip(lexpo, expo))
    ]
    assert list(_divisors(packed_leads, (comp, pk.pack(expo)), pk.guard)) == scan


@PROPERTY
@given(st.lists(st.lists(entry, min_size=3, max_size=3).map(tuple), min_size=1, max_size=6))
def test_top_is_the_entrywise_maximum(exponents):
    pk = packing(3)
    terms = {(0, pk.pack(e)): 1 for e in exponents}
    assert pk.unpack(pk.top(terms)) == tuple(map(max, zip(*exponents)))


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
    """Run ``script`` on a memo built by ``make(leads, guard)``; every answer
    must be the first dividing lead a fresh scan finds."""
    n, steps = script
    pk = packing(n)
    leads = []
    first = make(leads, pk.guard)
    for step, (comp, expo) in steps:
        term = (comp, pk.pack(tuple(expo)))
        if step == "append":
            leads.append(term)
        else:
            assert first(term) == next(_divisors(leads, term, pk.guard), None)


@PROPERTY
@given(growth_scripts())
def test_divisor_memo_answers_as_a_fresh_scan(script):
    memo_answers_as_a_scan(_first_divisor, script)


def memo_that_keeps_misses(leads, guard):
    """A broken memo: its first answer for a term, a miss included, is kept for good."""
    answers = {}

    def first(term):
        if term not in answers:
            answers[term] = next(_divisors(leads, term, guard), None)
        return answers[term]

    return first


def test_divisor_memo_property_catches_a_memo_that_keeps_misses():
    @PROPERTY
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


def test_the_residue_table_guard_fires_on_a_shifted_tail():
    # x + y^max has lead x and tail y^max; the residue row of x*y shifts that
    # tail to y^(max + 1), which does not fit.  That term lies past the cut of
    # the staircase {1, y, y^2}, so its row would be zero, but the guard
    # checks the shift before it looks the term up.
    sb = standard_basis([parse_poly(f"x+y^{ENTRY_MAX}", V2), parse_poly("y^3", V2)], NEGDEGREVLEX)
    stair = staircase(sb)
    assert [e for _, e in stair.standard_monomials] == [(0, 0), (0, 1), (0, 2)]
    with pytest.raises(ExponentOverflow, match="does not fit"):
        stair.residue({(0, (1, 1)): 1})


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

