"""Property tests for the lead mask that prefilters the engine's divisor lookup."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from germcalc.groebner import _MASK_CAP, _divides, _divisors, _mask, _reducer

PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)

exponent = st.integers(0, _MASK_CAP + 3)


@st.composite
def exponent_pairs(draw):
    n = draw(st.integers(1, 5))
    a = tuple(draw(st.lists(exponent, min_size=n, max_size=n)))
    step = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    # half the pairs divide by construction, the others are drawn freely
    if draw(st.booleans()):
        return a, tuple(x + d for x, d in zip(a, step))
    return a, tuple(draw(st.lists(exponent, min_size=n, max_size=n)))


@PROPERTY
@given(exponent_pairs())
def test_mask_passes_every_divisor(pair):
    a, b = pair
    passes = not _mask(a) & ~_mask(b)
    if _divides(a, b):
        assert passes
    # the test is exact up to the cap in every entry
    assert passes == all(min(x, _MASK_CAP) <= min(y, _MASK_CAP) for x, y in zip(a, b))


@st.composite
def pools_and_terms(draw):
    n = draw(st.integers(1, 4))
    expo = st.lists(exponent, min_size=n, max_size=n).map(tuple)
    leads = draw(st.lists(st.tuples(st.integers(0, 2), expo), min_size=1, max_size=12))
    pool = [_reducer(lead, {lead: Fraction(1)}) for lead in leads]
    # terms drawn as multiples of a pool lead, or freely
    if draw(st.booleans()):
        comp, base = draw(st.sampled_from(leads))
        step = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        return pool, (comp, tuple(x + d for x, d in zip(base, step)))
    return pool, (draw(st.integers(0, 2)), draw(expo))


@PROPERTY
@given(pools_and_terms())
def test_lookup_finds_what_a_linear_scan_finds(case):
    pool, (comp, expo) = case
    scan = [
        k for k, red in enumerate(pool)
        if red.lead[0] == comp and all(x <= y for x, y in zip(red.lead[1], expo))
    ]
    assert list(_divisors(pool, (comp, expo))) == scan
