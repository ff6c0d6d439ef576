"""The engine's fraction-free integer rows.

Property tests: the integer reduction and the integer S-vector equal their
exact scale times a rational reference built from monic rows apart from
the engine (``conftest``); so do the reduction and S-vector of Schreyer
rows, whose bookkeeping part rides apart from the real one, against the
joined rows.  Inside the engine a scale is made of ints: a reduction's is
num / den with a positive den, an S-vector's one int.  Exactness guard: every coefficient the engine
hands out is a ``Fraction``, never a float from dividing one integer by
another.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germcalc import (
    DEGREVLEX,
    NEGDEGREVLEX,
    VectorPoly,
    normal_form,
    parse_poly,
    spoly,
    staircase,
    standard_basis,
    syzygies,
)
from germcalc.groebner import _nf_global, _spoly_terms
from germcalc.packed import _engine_packing, _first_divisor, _primitive, _reducer
from conftest import (
    CATALOG,
    cached_poly,
    engine_key,
    engine_pool,
    full_division,
    monic_row,
    monic_spoly,
)

PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)

# the engine's orders: a global one on plain terms, a local one on
# slack-padded terms, whose first entry is the slack
ORDERS = {"degrevlex": DEGREVLEX, "homogenized": NEGDEGREVLEX}


def key_and_packing(label, size):
    """The tuple key and the engine's packing of an order on terms with ``size`` entries."""
    order = ORDERS[label]
    return engine_key(order), _engine_packing(order, size - order.is_local())


@st.composite
def reduction_cases(draw):
    """A key, a term map with integer coefficients, and a pool of rational term maps."""
    nvars = draw(st.integers(1, 3))
    ncomp = draw(st.integers(1, 2))
    term = st.tuples(
        st.integers(0, ncomp - 1), st.lists(st.integers(0, 3), min_size=nvars, max_size=nvars).map(tuple)
    )
    small = st.integers(-6, 6).filter(bool)
    h = draw(st.dictionaries(term, small, min_size=1, max_size=10))
    rational = st.builds(Fraction, small, st.integers(1, 4))
    pool = draw(st.lists(st.dictionaries(term, rational, min_size=1, max_size=4), min_size=1, max_size=4))
    return draw(st.sampled_from(sorted(ORDERS))), h, pool


@PROPERTY
@given(reduction_cases())
def test_integer_rows_are_their_scale_times_the_rational_ones(case):
    label, h, seeds = case
    key, pk = key_and_packing(label, len(next(iter(h))[1]))
    rows = [monic_row(t, key) for t in seeds]
    pool = engine_pool(seeds, key, pk)
    assert all(type(c) is int for red in pool for c in red.terms.values())
    assert not any(red.book for red in pool)
    # the full division of h by the pool
    first = _first_divisor([red.lead for red in pool], pk)
    remainder, num, den = _nf_global(pk.pack_terms(h), pool, first, pk)
    assert type(num) is int and type(den) is int and num and den > 0
    assert all(type(c) is int for c in remainder.values())
    expected = full_division(h, rows, key)
    assert pk.unpack_terms(remainder) == {t: Fraction(num, den) * c for t, c in expected.items()}
    # the S-vector of every pair whose leads share a component
    for i in range(len(pool)):
        for j in range(len(pool)):
            if pool[i].lead >> pk.cshift == pool[j].lead >> pk.cshift:
                lcm = pk.lift(pk.lcm(pool[i].lead, pool[j].lead))
                s, book, scale = _spoly_terms(pool[i], pool[j], lcm, pk.guard)
                assert type(scale) is int and scale and not book
                expected = monic_spoly(rows[i], rows[j])
                assert pk.unpack_terms(s) == {t: scale * c for t, c in expected.items()}


@st.composite
def schreyer_cases(draw):
    """A split, a key, a Schreyer-shaped integer row and a pool of rational Schreyer rows.

    Components below the split are real, the others bookkeeping; every pool
    row has a real term.
    """
    nvars = draw(st.integers(1, 3))
    split = draw(st.integers(1, 2))
    expo = st.lists(st.integers(0, 3), min_size=nvars, max_size=nvars).map(tuple)
    term = st.tuples(st.integers(0, split + 2), expo)
    small = st.integers(-6, 6).filter(bool)
    rational = st.builds(Fraction, small, st.integers(1, 4))
    h = draw(st.dictionaries(term, small, min_size=1, max_size=10))
    pool = [
        {**draw(st.dictionaries(term, rational, max_size=6)),
         (draw(st.integers(0, split - 1)), draw(expo)): draw(rational)}
        for _ in range(draw(st.integers(1, 4)))
    ]
    return split, draw(st.sampled_from(sorted(ORDERS))), h, pool


@PROPERTY
@given(schreyer_cases())
def test_split_reduction_is_the_division_of_the_joined_row(case):
    # the engine reduces the real part alone and carries the bookkeeping
    # part in the remainder; the reference divides the joined row, with the
    # bookkeeping terms below every real one
    split, label, h, seeds = case
    key, pk = key_and_packing(label, len(next(iter(h))[1]))

    def joined_key(term):
        return (term[0] < split, key(term))

    rows = [monic_row(t, joined_key) for t in seeds]
    packed_key = pk.keyed(key)
    primitive = [_primitive(pk.pack_terms(t))[0] for t in seeds]
    cut = split << pk.cshift  # the first packed term of component split
    pool = [_reducer(max(t for t in row if t < cut), row, pk, cut) for row in primitive]
    assert [red.lead for red in pool] == [
        max((t for t in row if t >> pk.cshift < split), key=packed_key) for row in primitive
    ]
    assert all(red.lead >> pk.cshift < split for red in pool)
    assert all(t >> pk.cshift < split for red in pool for t in red.terms)
    assert all(t >> pk.cshift >= split for red in pool for t in red.book)
    real = {t: c for t, c in pk.pack_terms(h).items() if t >> pk.cshift < split}
    book = {t: c for t, c in pk.pack_terms(h).items() if t >> pk.cshift >= split}
    first = _first_divisor([red.lead for red in pool], pk)
    remainder, num, den = _nf_global(real, pool, first, pk, book)
    assert type(num) is int and type(den) is int and num and den > 0
    expected = full_division(h, rows, joined_key)
    assert pk.unpack_terms(remainder) == {t: Fraction(num, den) * c for t, c in expected.items()}
    # the S-vector of every pair whose leads share a component, both parts
    for i in range(len(pool)):
        for j in range(len(pool)):
            if pool[i].lead >> pk.cshift == pool[j].lead >> pk.cshift:
                lcm = pk.lift(pk.lcm(pool[i].lead, pool[j].lead))
                s, book, scale = _spoly_terms(pool[i], pool[j], lcm, pk.guard)
                assert type(scale) is int and scale
                s.update(book)
                expected = monic_spoly(rows[i], rows[j])
                assert pk.unpack_terms(s) == {t: scale * c for t, c in expected.items()}


# -- exactness guard -------------------------------------------------------------


def jacobian(f):
    return [f.partial_derivative(v) for v in f.ring]


def assert_exact(terms, what):
    bad = {t: c for t, c in terms.items() if type(c) is not Fraction}
    assert not bad, (what, bad)


def probes(ring, ncomp):
    """A few term maps with rational coefficients, from degree 0 to 5."""
    n = len(ring)
    out = []
    for d in range(6):
        expo = tuple((d + i) % 3 for i in range(n))
        out.append({(c, expo): Fraction(d + 1, c + 2) for c in range(ncomp)}
                   | {(0, (0,) * n): Fraction(-1, 3)})
    return [VectorPoly(ring, ncomp, t) for t in out]


def exactness_cases():
    """(label, generators): the Tjurina ideals of the catalog and one ICIS module."""
    for germ in CATALOG:
        f = cached_poly(germ.text, germ.vars)
        yield germ.name, [VectorPoly.from_poly(g) for g in [f] + jacobian(f)]
    v3 = ("x", "y", "z")
    eqs = [parse_poly("x^4+y^4+2*z^2", v3), parse_poly("2*z-x*y", v3)]
    zero = parse_poly("0", v3)
    gens = [VectorPoly.from_polys([g.partial_derivative(v) for g in eqs]) for v in v3]
    gens += [VectorPoly.from_polys([g, zero]) for g in eqs]
    gens += [VectorPoly.from_polys([zero, g]) for g in eqs]
    yield "icis", gens


def test_every_output_coefficient_is_a_fraction():
    # VectorPoly refuses a float coefficient, so a float reaching a
    # generator, a syzygy, an S-vector or a normal form raises TypeError;
    # residues are plain dicts and are checked here term by term
    for label, gens in exactness_cases():
        local = standard_basis(gens, NEGDEGREVLEX)
        stair = staircase(local)
        glob = standard_basis(gens, DEGREVLEX)
        for g in local.generators + glob.generators:
            assert_exact(g.terms, (label, "generator"))
        for s in syzygies(gens, NEGDEGREVLEX):
            assert_exact(s.terms, (label, "syzygy"))
        for a, b in zip(gens, gens[1:]):
            for order in (DEGREVLEX, NEGDEGREVLEX):
                lead = [max(v.terms, key=order.module_key)[0] for v in (a, b)]
                if lead[0] == lead[1]:
                    assert_exact(spoly(a, b, order.module_key).terms, (label, "spoly"))
        for p in probes(local.ring, local.ncomp):
            assert_exact(normal_form(p, glob).terms, (label, "global normal form"))
            assert_exact(normal_form(p, local).terms, (label, "local normal form"))
            if stair.finite:
                assert_exact(stair.residue(p.terms), (label, "residue"))


def test_vector_refuses_a_float_coefficient():
    with pytest.raises(TypeError, match="inexact"):
        VectorPoly(("x",), 1, {(0, (1,)): 0.5})
