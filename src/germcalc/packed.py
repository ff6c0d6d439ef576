"""Packed exponents and the integer rows on them: the working representation
of the standard-basis engine (``germcalc.groebner``).

Exponent entry k of an exponent with ``size`` entries sits in the field of
``FIELD`` bits at offset ``FIELD * (size - 1 - k)``, the first entry most
significant, so packed ints compare like lex tuples (Monagan and Pearce,
"Sparse polynomial division using a heap", JSC 2011).  The top bit of
every field is a guard and is 0 in a packed exponent; entries go up to
``ENTRY_MAX``.  Then, for packed a and b:

* a shift is ``a + b``; no bit carries into the next field, so
  ``(a + b) & guard`` is nonzero exactly when an entry overflows;
* a quotient is ``b - a`` when a divides b;
* a divides b exactly when ``((b | guard) - a) & guard == guard``: with the
  guard bits set, no field borrows, and a field's guard bit survives
  exactly when its entry of a is at most that of b;
* the lcm takes a's field wherever that guard bit survives ``(a | guard) - b``.

The field width is fixed here; an entry that does not fit raises
``ExponentOverflow``, a ValueError, before it is packed or shifted.

A packing may put order fields above the exponent fields (``forms``), so
that the packed ints compare as a term order does (Bachmann and
Schoenemann, "Monomial representations for Groebner bases computations",
ISSAC 1998).  Each order field holds a nonnegative integer linear form of
the exponent, the first form most significant, and is wide enough for the
form of any exponent whose entries fit; it has no guard bit.  The forms
are linear, so a shift is still one addition, and monotone, so a divisor's
forms never exceed the multiple's: the guard test above, on the exponent
guards alone, stays exact (a borrow runs upward only, never into an
exponent field), and so does the overflow test of a shift, which then
fires on exactly the inputs it fires on without order fields.  ``lcm``,
``top`` and ``degree`` read the exponent fields alone (``low``); ``lift``
puts the order fields onto the component and exponent fields of x.

A packed term is one int, ``component << cshift | packed exponent``: the
component sits just above the last order field, at bit ``cshift``.  It is
the most significant part, so the ints compare position-over-term (the
higher component is greater), a lead is still a plain ``max`` and a shift
is still one addition.  One mask test decides divisibility, component
included: lead divides term exactly when ``((term | guard) - lead) & gmask
== guard``, with ``gmask = guard | -(1 << cshift)``.  It is exact for three
reasons.  The exponent guards stop every borrow inside the exponent fields,
so the guards alone decide the exponents.  A lead whose exponent divides
has no larger order field, the forms being monotone, so nothing borrows
into the component bits, which then hold the difference of the components.
A negative difference has infinitely many high one bits, so it fails the
test.  Components therefore need no width limit, and there is no new
overflow case.

A row is a term map from packed terms to integers.  The row helpers below
(a reducer with its lead data, the divisor lookup and its memo, the shifted
subtraction and integer combinations of rows, one elimination step, content
removal, primitive rows) are private to the package and live here, apart
from the engine's algorithms.  (component, exponent tuple) pairs exist only
at the boundary: ``pack_term``, ``pack_terms``, ``unpack_term``,
``unpack_terms`` and ``keyed``.

The reducer of a Schreyer row keeps its bookkeeping part, the terms in
components >= the split, as a second integer row (``book``, empty for
every other row).  No lead lies there and every such term sorts below
every real one, so a reduction never scans it: it rides in the remainder,
which each step (``_eliminate``) scales and subtracts from.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import mul
from typing import Callable, Iterable, Iterator, Sequence

from .orders import MonomialOrder
from .poly import Exponent, ModTerm, Terms

PackedTerm = int  # component << cshift | packed exponent
Row = dict[PackedTerm, int]  # an integer row: the working representation of the completion
PackedTerms = dict[PackedTerm, Fraction]  # a rational term map on packed terms

FIELD = 16  # bits per exponent entry, the top one a guard bit
ENTRY_MAX = (1 << (FIELD - 1)) - 1  # the largest entry a field holds
_PAIR_MOD = (1 << (2 * FIELD)) - 1


class ExponentOverflow(ValueError):
    """An exponent entry that does not fit a packed field."""

    def __init__(self):
        super().__init__(f"exponent entry above {ENTRY_MAX} does not fit a packed field")


@dataclass(frozen=True, slots=True)
class Packing:
    """Packed exponents with ``size`` entries, under order fields of ``forms``,
    and packed terms with the component above them; build one with
    ``packing(size, forms)``."""

    size: int
    guard: int  # the guard bit of every exponent field
    pairs: int  # the low field of each pair of exponent fields, for the degree
    low: int  # every exponent field
    forms: tuple[tuple[int, ...], ...]  # the order forms, most significant first
    units: tuple[int, ...]  # the packed unit exponents: packing is linear
    cshift: int  # the offset of the component, just above the last order field
    gmask: int  # guard | -(1 << cshift): what the divisor test compares

    def pack(self, expo: Exponent) -> int:
        if max(expo, default=0) > ENTRY_MAX:
            raise ExponentOverflow()
        return sum(map(mul, expo, self.units))

    def unpack(self, x: int) -> Exponent:
        """The exponent fields of a packed exponent or term."""
        return tuple(x >> (FIELD * k) & ENTRY_MAX for k in range(self.size - 1, -1, -1))

    def pack_term(self, term: ModTerm) -> PackedTerm:
        return term[0] << self.cshift | self.pack(term[1])

    def unpack_term(self, t: PackedTerm) -> ModTerm:
        return t >> self.cshift, self.unpack(t)

    def lift(self, x: int) -> int:
        """The packed term whose component and exponent fields are those of x."""
        return x >> self.cshift << self.cshift | sum(map(mul, self.unpack(x), self.units))

    def pack_terms(self, terms: dict) -> dict:
        """A term map on (component, exponent tuple) keys, on packed terms."""
        return {self.pack_term(t): c for t, c in terms.items()}

    def unpack_terms(self, terms: dict) -> dict:
        return {self.unpack_term(t): c for t, c in terms.items()}

    def keyed(self, key: Callable) -> Callable:
        """``key`` of (component, exponent tuple) terms, on packed terms."""
        unpack_term = self.unpack_term
        return lambda t: key(unpack_term(t))

    def lcm(self, a: int, b: int) -> int:
        """The per-field maximum of exponent parts: a's field wherever a's entry
        is >= b's; every other bit is b's."""
        g = self.guard
        ge = ((a | g) - b) & g
        return b ^ ((a ^ b) & (ge - (ge >> (FIELD - 1))))

    def top(self, terms: Iterable[PackedTerm]) -> int:
        """The per-field maximum over the exponent parts of packed terms."""
        top, low = 0, self.low
        for t in terms:
            top = self.lcm(top, t & low)
        return top

    def degree(self, x: int) -> int:
        """The sum of the entries of an exponent part: adjacent fields added
        pairwise, then the pair sums added by one remainder (2^(2 * FIELD) = 1
        modulo _PAIR_MOD), exact for fewer than 2^(FIELD + 1) entries."""
        p = self.pairs
        return ((x & p) + (x >> FIELD & p)) % _PAIR_MOD


@cache
def packing(size: int, forms: tuple[tuple[int, ...], ...] = ()) -> Packing:
    guard = sum(1 << (FIELD * k + FIELD - 1) for k in range(size))
    pairs = sum(((1 << FIELD) - 1) << (2 * FIELD * k) for k in range((size + 1) // 2))
    units = [1 << FIELD * k for k in range(size - 1, -1, -1)]
    offset = FIELD * size
    for form in reversed(forms):
        units = [u | c << offset for u, c in zip(units, form)]
        offset += (sum(form) * ENTRY_MAX).bit_length()
    low = (1 << FIELD * size) - 1
    return Packing(size, guard, pairs, low, forms, tuple(units), offset, guard | -1 << offset)


def _engine_packing(order: MonomialOrder, nvars: int) -> Packing:
    """The packing whose ints compare as the engine's order on ``nvars``
    variables, with the slack entry of a local order in front.

    Both orders start with the total degree and end with revlex, which at
    equal total degree prefers the smaller last entry, then the smaller one
    before it, and so on: that is the larger partial sum e_1 + ... + e_k
    for k = size - 1 down to 1.  A local order puts W * total - w . rest
    between them, W the largest of its weights w (all 1 for negdegrevlex):
    at equal total it is larger exactly when the (weighted) degree of the
    rest is smaller, and with the total and the other sums it fixes e_1, so
    its revlex needs no k = 1.
    """
    pad = int(order.is_local())
    size = nvars + pad
    forms = tuple((1,) * k + (0,) * (size - k) for k in range(size - 1, pad, -1))
    if pad:
        w = order.weights or (1,) * nvars
        top = max(w, default=1)
        forms = ((top, *(top - x for x in w)), *forms)
    return packing(size, ((1,) * size, *forms))


# -- integer rows on packed terms -------------------------------------------------


def _sub_scaled(target: Row, source: Row, top: int, shift: int, factor: int, guard: int):
    """target -= factor * x^shift * source, in place.

    ``top`` is the per-field maximum of the exponents of source; if a
    shifted entry would not fit its field, ExponentOverflow comes before
    any term moves.
    """
    if (top + shift) & guard:
        raise ExponentOverflow()
    for key, coeff in source.items():
        key += shift
        new = target.get(key, 0) - factor * coeff
        if new:
            target[key] = new
        else:
            target.pop(key, None)


def _combination(rows: Sequence[Row], tops: Sequence[int], weights: Row, pk: Packing) -> Row:
    """sum of c * x^m * rows[slot] over the terms c x^m in component slot of ``weights``.

    ``tops[slot]`` is the per-field maximum of the exponents of rows[slot]
    (``Packing.top``); ExponentOverflow when a product does not fit.  The
    syzygy check and the tangency check each test this row for emptiness.
    """
    total: Row = {}
    for w, c in weights.items():
        slot = w >> pk.cshift
        _sub_scaled(total, rows[slot], tops[slot], w - (slot << pk.cshift), -c, pk.guard)
    return total


@dataclass(frozen=True, slots=True)
class _Reducer:
    """A frozen reducer: an integer row with its cached lead data.

    ``terms`` and ``book`` are the real and the bookkeeping part of a
    primitive integer row on packed terms and ``coeff`` its integer lead
    coefficient; it stands for the monic row / coeff, and no reduction or
    S-vector depends on its scale.  ``top`` and ``book_top`` are the
    per-field maxima of the exponents of the parts: x^m times a part fits
    the fields exactly when its top + m sets no guard bit.
    """

    lead: PackedTerm
    coeff: int
    terms: Row
    top: int
    book: Row
    book_top: int


def _reducer(lead: PackedTerm, row: Row, pk: Packing, cut: int | None = None) -> _Reducer:
    """The reducer of a primitive integer row with lead ``lead``; with ``cut``,
    the packed term ``split << cshift``, its terms in components >= split
    are the bookkeeping part."""
    book: Row = {}
    if cut is not None:
        book = {t: c for t, c in row.items() if t >= cut}
        row = {t: c for t, c in row.items() if t < cut}
    return _Reducer(lead, row[lead], row, pk.top(row), book, pk.top(book))


def _divisors(leads: Sequence[PackedTerm], term: PackedTerm, pk: Packing) -> Iterator[int]:
    """Indices, in order, of the leads that divide ``term``, components included.

    One mask test per lead (see the module docstring): with the guard bits
    set in the term, no field borrows when a dividing lead is subtracted, so
    every guard bit stays and the component bits cancel.
    """
    guard, gmask = pk.guard, pk.gmask
    term |= guard
    for k, lead in enumerate(leads):
        if (term - lead) & gmask == guard:
            yield k


def _first_divisor(leads: list[PackedTerm], pk: Packing) -> Callable[[PackedTerm], int | None]:
    """The lookup ``next(_divisors(leads, term, pk), None)``, memoized per term.

    ``leads`` may grow, by appends only, between lookups.  A hit then stays
    the first dividing lead for good, since no lead ever appears before it.
    A miss is stored as the complement ``~n`` of the number n of leads it
    scanned (so every miss is negative), and the next lookup of that term
    scans only the leads appended since, in a plain loop.
    """
    guard, gmask = pk.guard, pk.gmask
    memo: dict[PackedTerm, int] = {}

    def first(term: PackedTerm) -> int | None:
        seen = memo.get(term, -1)
        if seen >= 0:
            return seen
        top = term | guard
        for k in range(~seen, len(leads)):
            if (top - leads[k]) & gmask == guard:
                memo[term] = k
                return k
        memo[term] = ~len(leads)
        return None

    return first


def _eliminate(h: Row, lt: PackedTerm, red: _Reducer, rest: Row, guard: int) -> int:
    """In place, h <- (d/g) h - (c/g) x^m red.terms and
    rest <- (d/g) rest - (c/g) x^m red.book; return d/g.

    c = h[lt], d = red.coeff, g = gcd(c, d) takes the sign of d, and x^m
    times the lead of red is lt, which cancels.
    """
    c, d = h[lt], red.coeff
    g = gcd(c, d)
    if d < 0:
        g = -g
    d //= g
    if d != 1:
        for t in h:
            h[t] *= d
        for t in rest:
            rest[t] *= d
    shift, factor = lt - red.lead, c // g
    _sub_scaled(h, red.terms, red.top, shift, factor, guard)
    if red.book:
        _sub_scaled(rest, red.book, red.book_top, shift, factor, guard)
    return d


def _remove_content(h: Row, rest: Row) -> int:
    """Divide ``h`` and ``rest`` by the gcd of all their coefficients, in place; return it."""
    g = gcd(*h.values(), *rest.values()) or 1
    if g != 1:
        for t in h:
            h[t] //= g
        for t in rest:
            rest[t] //= g
    return g


def _primitive(terms: Terms | Row) -> tuple[Row, Fraction]:
    """The primitive integer row of ``terms`` and its scale: row = scale * terms.

    Denominators are cleared by their lcm and the content (the gcd of the
    numerators) is divided out, so the scale is positive.
    """
    den = lcm(*(c.denominator for c in terms.values()))
    row = {t: c.numerator * (den // c.denominator) for t, c in terms.items()}
    g = gcd(*row.values()) or 1
    if g != 1:
        row = {t: c // g for t, c in row.items()}
    return row, Fraction(den, g)


def _rational(row: Row, scale: Fraction) -> PackedTerms:
    """The rational term map row / scale."""
    return {t: c / scale for t, c in row.items()}
