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
puts the order fields onto an exponent part.

A row is a term map from (component, packed exponent) to an integer.  The
row helpers below (a reducer with its lead data, the divisor lookup and its
memo, the shifted subtraction and integer combinations of rows, one
elimination step, content removal, primitive rows) are private to the
package and live here, apart from the engine's algorithms.

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
from itertools import islice
from math import gcd, lcm
from operator import mul
from typing import Callable, Iterable, Iterator, Sequence

from .orders import MonomialOrder
from .poly import Exponent, Terms

PackedTerm = tuple[int, int]  # (component, packed exponent)
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
    """Packed exponents with ``size`` entries, under order fields of ``forms``;
    build one with ``packing(size, forms)``."""

    size: int
    guard: int  # the guard bit of every exponent field
    pairs: int  # the low field of each pair of exponent fields, for the degree
    low: int  # every exponent field
    forms: tuple[tuple[int, ...], ...]  # the order forms, most significant first
    units: tuple[int, ...]  # the packed unit exponents: packing is linear

    def pack(self, expo: Exponent) -> int:
        if max(expo, default=0) > ENTRY_MAX:
            raise ExponentOverflow()
        return sum(map(mul, expo, self.units))

    def unpack(self, x: int) -> Exponent:
        return tuple(x >> (FIELD * k) & ENTRY_MAX for k in range(self.size - 1, -1, -1))

    def lift(self, x: int) -> int:
        """The packed exponent whose exponent fields are those of x."""
        return sum(map(mul, self.unpack(x), self.units))

    def pack_terms(self, terms: dict) -> dict:
        """A term map on (component, exponent tuple) keys, on packed keys."""
        return {(comp, self.pack(e)): c for (comp, e), c in terms.items()}

    def unpack_terms(self, terms: dict) -> dict:
        return {(comp, self.unpack(e)): c for (comp, e), c in terms.items()}

    def keyed(self, key: Callable) -> Callable:
        """``key`` of (component, exponent tuple) terms, on packed terms."""
        unpack = self.unpack
        return lambda term: key((term[0], unpack(term[1])))

    def lcm(self, a: int, b: int) -> int:
        """The per-field maximum of exponent parts: a's field wherever a's entry is >= b's."""
        g = self.guard
        ge = ((a | g) - b) & g
        return b ^ ((a ^ b) & (ge - (ge >> (FIELD - 1))))

    def top(self, terms: Iterable[PackedTerm]) -> int:
        """The per-field maximum over the exponent parts of (component, packed) terms."""
        t, low = 0, self.low
        for _, e in terms:
            t = self.lcm(t, e & low)
        return t

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
    return Packing(size, guard, pairs, (1 << FIELD * size) - 1, forms, tuple(units))


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
    for (comp, expo), coeff in source.items():
        key = (comp, expo + shift)
        new = target.get(key, 0) - factor * coeff
        if new:
            target[key] = new
        else:
            target.pop(key, None)


def _combination(rows: Sequence[Row], tops: Sequence[int], weights: Row, guard: int) -> Row:
    """sum of c * x^m * rows[slot] over the terms c x^m at (slot, m) of ``weights``.

    ``tops[slot]`` is the per-field maximum of the exponents of rows[slot]
    (``Packing.top``); ExponentOverflow when a product does not fit.  The
    syzygy check and the tangency check each test this row for emptiness.
    """
    total: Row = {}
    for (slot, shift), c in weights.items():
        _sub_scaled(total, rows[slot], tops[slot], shift, -c, guard)
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


def _reducer(lead: PackedTerm, row: Row, pk: Packing, split: int | None = None) -> _Reducer:
    """The reducer of a primitive integer row with lead ``lead``; with
    ``split``, its terms in components >= split are the bookkeeping part."""
    book: Row = {}
    if split is not None:
        book = {t: c for t, c in row.items() if t[0] >= split}
        row = {t: c for t, c in row.items() if t[0] < split}
    return _Reducer(lead, row[lead], row, pk.top(row), book, pk.top(book))


def _divisors(
    leads: Sequence[PackedTerm], term: PackedTerm, guard: int, start: int = 0
) -> Iterator[int]:
    """Indices, in order, of the leads from index ``start`` on that divide ``term``.

    One mask test per lead: with the guard bits set in the term, no field
    borrows when a dividing lead is subtracted, so every guard bit stays.
    """
    comp, expo = term
    expo |= guard
    for k, (lcomp, lexpo) in enumerate(islice(leads, start, None), start):
        if (expo - lexpo) & guard == guard and lcomp == comp:
            yield k


def _first_divisor(leads: list[PackedTerm], guard: int) -> Callable[[PackedTerm], int | None]:
    """The lookup ``next(_divisors(leads, term, guard), None)``, memoized per term.

    ``leads`` may grow, by appends only, between lookups.  A hit then stays
    the first dividing lead for good, since no lead ever appears before it.
    A miss is stored as the complement ``~n`` of the number n of leads it
    scanned (so every miss is negative), and the next lookup of that term
    scans only the leads appended since.
    """
    memo: dict[PackedTerm, int] = {}

    def first(term: PackedTerm) -> int | None:
        k = memo.get(term, -1)
        if k >= 0:
            return k
        k = next(_divisors(leads, term, guard, ~k), None)
        memo[term] = ~len(leads) if k is None else k
        return k

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
    shift, factor = lt[1] - red.lead[1], c // g
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
