"""Standard bases for ideals and submodules, in global and local settings.

Elements of a free module O^k are held as ``VectorPoly`` (``germcalc.poly``):
a term map from (component, exponent tuple) to a nonzero rational.  Ideals are the k = 1
case.  The machinery is shared:

* inside the engine every term is one packed int (``germcalc.packed``):
  a guarded field per exponent entry, so a shift is one addition,
  divisibility one mask test and an lcm a few bit operations (Monagan and
  Pearce, JSC 2011), under order fields and with the component on top, so
  that the ints compare as the engine's order and each lead is a plain
  ``max`` (Bachmann and Schoenemann, ISSAC 1998); the one divisor mask
  compares the components too.  (component, exponent tuple) pairs exist
  only at the public boundary.  An entry that would not fit its field raises
  ``ExponentOverflow`` (a ValueError) before any arithmetic;
* reductions and S-vectors work on primitive integer rows, fraction-free
  (``_primitive``, ``_eliminate``; Bareiss's one-step integer-preserving
  elimination, with the content removed every few steps as SINGULAR does);
  each returns the exact rational scale lambda, as ints, by which its row
  differs from the one the monic rational computation gives, and monic
  rationals come back only at the exits: ``standard_basis`` divides each
  generator by its lead once, after the certificate; ``syzygies``,
  ``spoly`` and ``normal_form`` divide by lambda, a ``Fraction`` only
  there and in a relation.  A scale changes no support, so every lead,
  pair, criterion and zero test is that of the rational computation;
* a global ``normal_form`` is the ordinary division algorithm (full
  reduction); a local one reads the residue off the staircase (below);
* one completion loop, ``_std_engine``, serves standard bases and
  syzygies: Buchberger's loop under the normal pair-selection strategy
  (smallest lcm degree first, ties by the packed lcm, then by the pair's
  indices, in a heap of keys computed once per pair), with Gebauer and
  Moeller's pair update (``_walk_pairs``);
* both reach the loop through ``_engine_input``, the one place where the
  completion tells local from global orders: it picks the packing, and
  for local orderings it degree-homogenizes the input under the induced
  global order (Lazard's method), which keeps tails division-reduced
  throughout; the slack entry is dropped afterwards;
* a divisor search scans leads in order with one mask test per lead
  (``_divisors``); the pair walk (``_walk_pairs``) forms and reduces
  every S-vector of a completion and of its certificate through the one
  memo it keeps on its own leads list (``_first_divisor``), and a global
  ``normal_form`` builds one on its pool: the leads only grow, so a
  term's first dividing lead is found once, and a miss is rescanned only
  over the leads appended since;
* pairs are dropped as each element joins (Gebauer and Moeller, JSC
  1988): pending pairs by criterion B, the element's new pairs by
  criteria F and M, then coprime pairs by the product criterion, which
  applies only when every seed term lies in component 0, decided from
  the data in ``_walk_pairs``, the pair walk of the engine and the
  certificate alike (the bookkeeping terms of Schreyer rows lie outside
  it);
* every completed basis is re-verified from its final generator set
  alone (``_verify_complete``): each pair that the update keeps must
  have an S-vector of normal form zero, otherwise RuntimeError.

The staircase of a completed basis detects finite codimension exactly via
the pure-power criterion and enumerates the standard monomials.

Syzygies are collected the Schreyer way: the generators are embedded with
bookkeeping components under an elimination order and completed by the
same engine on the same reducers, whose bookkeeping part
(``_Reducer.book``, empty for a standard basis) holds no lead and is never
compared: each reduction step carries it along in the remainder
(``_eliminate``).  A remainder whose real part died is a relation, one
syzygy in input coordinates.  It stays the packed integer row it is,
with its scale, through ``_relations``, whose whole-row unpack is the one
place where a relation is normalized: the primitive integer row on
(slot, exponent) keys with a positive scale.  ``syzygies`` drops repeats
on those integer keys (``_distinct``), re-checks each distinct relation
exactly on its integer row and divides only the ones it returns by their
scales; ``modular`` unpacks the cofactor slot of each relation and the
whole row only of the few it keeps, and ``derivation_module`` treats its
fields as ``syzygies`` treats relations.

A finite staircase of a local ordering is the one model of its quotient.
For these degree-compatible orderings every term of (weighted) degree
beyond the staircase lies in the ideal, so the quotient map is linear on
the finitely many terms below that cut (the FGLM view of a
zero-dimensional quotient).  The staircase keeps that map as a memo of
residue rows, filled on demand: ``Staircase.residue`` computes the row of
a term it has not seen, and every row that row rests on, once, and reads
a row it has seen in one lookup.  ``quotient_coordinates`` is the checked
entry point on polynomials and vectors, and a local ``normal_form`` is the
residue written back over the standard monomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import gcd, inf
from operator import add, sub
from typing import Callable, Iterable, Sequence

from .orders import MonomialOrder
from .packed import (
    PackedTerm,
    PackedTerms,
    Packing,
    Row,
    _combination,
    _divisors,
    _eliminate,
    _engine_packing,
    _first_divisor,
    _primitive,
    _rational,
    _Reducer,
    _reducer,
    _remove_content,
    _sub_scaled,
    packing,
)
from .poly import ModTerm, Polynomial, Terms, VectorPoly


_ZERO = Fraction(0)
_ONE = Fraction(1)


_CONTENT_EVERY = 8  # reduction steps between two content removals


def _nf_global(
    h: Row,
    pool: Sequence[_Reducer],
    first: Callable[[PackedTerm], int | None],
    pk: Packing,
    book: Row | None = None,
) -> tuple[Row, int, int]:
    """Full division remainder, fraction-free, and its scale num / den.

    No remaining term is divisible by a pool lead.  ``first`` is the
    divisor lookup of the pool's leads (``_first_divisor``, one per pool):
    each step reduces by the first pool row whose lead divides.  The
    remainder is num / den times the one the rational division by the
    monic pool rows leaves: num is the product of the positive factors d/g
    of the steps (``_eliminate``), den of the contents removed
    (``_remove_content``), both ints.  For a Schreyer row, ``book`` is its
    bookkeeping part (taken over, not copied): it starts the remainder,
    takes the bookkeeping parts of the pool rows and is never scanned, and
    the remainder returned holds both parts.
    """
    guard = pk.guard
    h = dict(h)
    remainder: Row = {} if book is None else book
    num, den, steps = 1, 1, 0
    while h:
        lt = max(h)
        k = first(lt)
        if k is None:
            remainder[lt] = h.pop(lt)
            continue
        num *= _eliminate(h, lt, pool[k], remainder, guard)
        steps += 1
        if not steps % _CONTENT_EVERY:
            den *= _remove_content(h, remainder)
    return remainder, num, den


def _spoly_terms(f: _Reducer, g: _Reducer, lcm: int, guard: int) -> tuple[Row, Row, int]:
    """Fraction-free S-vector, as its real and bookkeeping parts, and its integer
    scale; ``lcm`` is the packed term of the lcm of the two leads.

    The row (c_g/e) x^a f - (c_f/e) x^b g, with e = gcd(c_f, c_g), is
    c_f c_g / e times x^a f / c_f - x^b g / c_g, the S-vector of the monic rows.
    """
    e = gcd(f.coeff, g.coeff)
    a, b = lcm - f.lead, lcm - g.lead
    out: Row = {}
    book: Row = {}
    _sub_scaled(out, f.terms, f.top, a, -(g.coeff // e), guard)
    _sub_scaled(out, g.terms, g.top, b, f.coeff // e, guard)
    if f.book:
        _sub_scaled(book, f.book, f.book_top, a, -(g.coeff // e), guard)
    if g.book:
        _sub_scaled(book, g.book, g.book_top, b, f.coeff // e, guard)
    return out, book, f.coeff // e * g.coeff


def spoly(f: VectorPoly, g: VectorPoly, keyfn: Callable[[ModTerm], object]) -> VectorPoly:
    """S-vector; the leading components must agree."""
    pk = packing(len(f.ring))
    key = pk.keyed(keyfn)
    rows = [_primitive(pk.pack_terms(v.terms))[0] for v in (f, g)]
    rf, rg = (_reducer(max(row, key=key), row, pk) for row in rows)
    if rf.lead >> pk.cshift != rg.lead >> pk.cshift:
        raise ValueError("S-vector needs matching leading components")
    s, _, scale = _spoly_terms(rf, rg, pk.lcm(rf.lead, rg.lead), pk.guard)
    return VectorPoly(f.ring, f.ncomp, pk.unpack_terms(_rational(s, Fraction(scale))))


PairKey = tuple[int, int, int, int]  # (degree of the lcm, packed lcm, i, j)


def _criterion_b(
    pending: list[PairKey], leads: Sequence[PackedTerm], t: int, pk: Packing
) -> list[PairKey]:
    """The pending pairs that Gebauer and Moeller's criterion B keeps as element t joins.

    It drops a pair (i, j) of t's component when lead t divides its lcm m
    and neither lcm(i, t) nor lcm(j, t) equals m: both are then proper
    divisors of m.  ``leads`` hold the component and exponent fields of the
    leads; a pair key holds the exponent fields of its lcm.
    """
    cshift, guard, lcm = pk.cshift, pk.guard, pk.lcm
    comp, lt = leads[t] >> cshift, leads[t] & pk.low
    return [
        key
        for key in pending
        if ((key[1] | guard) - lt) & guard != guard
        or leads[key[2]] >> cshift != comp
        or lcm(leads[key[2]], lt) == key[1]
        or lcm(leads[key[3]], lt) == key[1]
    ]


def _new_pairs(leads: Sequence[PackedTerm], t: int, ideal: bool, pk: Packing) -> list[PairKey]:
    """Keys of the pairs (i, t), i < t in t's component, that criteria F and M keep.

    Of the pairs with one lcm only the first i is kept (criterion F), and
    an lcm that another of them properly divides is dropped (criterion M).
    Only then, when ``ideal``, the product criterion drops every lcm of a
    coprime pair, with each pair that shares it: a coprime pair still
    blocks its equal and multiple lcms first (Becker and Weispfenning's
    UPDATE).  ``leads`` are as for ``_criterion_b``; with ``ideal`` every
    component is 0.
    """
    cshift, guard, lcm = pk.cshift, pk.guard, pk.lcm
    comp, lt = leads[t] >> cshift, leads[t] & pk.low
    first: dict[int, int] = {}  # each lcm, with the first i that has it
    coprime: set[int] = set()
    for i in range(t):
        le = leads[i]
        if le >> cshift == comp:
            m = lcm(le, lt)
            first.setdefault(m, i)
            if ideal and m == le + lt:
                coprime.add(m)
    # a proper divisor has a smaller degree, so it is visited first, and an
    # lcm is blocked exactly when a kept or coprime one divides it
    minimal: list[int] = []
    out: list[PairKey] = []
    for degree, m in sorted((pk.degree(m), m) for m in first):
        top = m | guard
        for low in minimal:
            if (top - low) & guard == guard:
                break
        else:
            minimal.append(m)
            if m not in coprime:
                out.append((degree, m, first[m], t))
    return out


def _walk_pairs(
    basis: list[_Reducer],
    judge: Callable[[int, int, Row, int, int, int], _Reducer | None],
    pk: Packing,
):
    """Reduce the S-vector of every pair of ``basis`` that no criterion drops,
    and hand each remainder to ``judge``.

    The elements join one at a time, first the given ones, then each new
    one, by Gebauer and Moeller's pair update ("On an installation of
    Buchberger's algorithm", JSC 1988): a joining element first drops the
    pending pairs it covers (``_criterion_b``), then adds those of its own
    pairs that criteria F and M and the product criterion keep
    (``_new_pairs``).  The product criterion applies only when every term
    of the starting set lies in component 0, as decided here from the data
    (a lead is its row's largest term, so it has the largest component):
    modules and Schreyer rows, whose bookkeeping part lies outside
    component 0, need their coprime pairs.  Pending pairs pop smallest key
    first (lcm degree, packed lcm, i, j).  Each popped pair's S-vector
    (``_spoly_terms``, at the lifted lcm) is reduced by ``_nf_global``, its
    bookkeeping part carried along, and ``judge(i, j, remainder, num, den,
    s)`` gets the remainder with the integer scales num / den of the
    reduction and s of the S-vector; it returns the reducer of a remainder
    that joins ``basis``, or None.  Pairs read the leads' exponent fields.
    The walk owns the leads list and its divisor memo (``_first_divisor``)
    on the lifted leads: both only grow, in step with ``basis``, which is
    what the memo needs.

    Soundness.  Say S(i, j), with lcm m, has a representation when it is
    sum a_l g_l over the final elements with every lead of a_l g_l below m.
    A pair handed to ``judge`` has one when ``judge`` accepts it: its
    remainder is zero, an element that joined or (in the Schreyer walk) a
    relation, with lead below m.  A coprime pair of an ideal has one
    (Buchberger's first criterion).  If lead k divides m and S(i, k) and
    S(k, j) have representations, so does S(i, j): it is a monomial
    combination of the two whose multipliers keep every lead below m (the
    chain criterion).  Every dropped pair has one by induction on (degree
    of m, larger index, dropped by F):

    * B dropped (i, j) as t joined: lcm(i, t) and lcm(j, t) properly divide
      m, so have smaller degrees; chain through t;
    * M dropped (i, t) for (k, t), whose lcm properly divides m: (k, t) has
      a smaller degree, and lcm(i, k) divides m while k, i < t; chain
      through k;
    * F dropped (i, t) for (k, t), with the same lcm m: (k, t) was not
      dropped by F, and (i, k) is as for M; chain through k.

    Every pair of final elements in one component was formed when the
    later one joined, so every pair has a representation: the
    standard-basis property (Buchberger's criterion).
    """
    ideal = not any(r.book or r.lead >> pk.cshift for r in basis)
    guard, comps = pk.guard, -1 << pk.cshift
    keep = pk.low | comps  # the component and exponent fields
    leads = [r.lead for r in basis]
    first = _first_divisor(leads, pk)
    exponents = [lead & keep for lead in leads]
    pending: list[PairKey] = []

    def join(t: int):
        kept = _criterion_b(pending, exponents, t, pk)
        if len(kept) < len(pending):
            heapify(kept)
            pending[:] = kept
        for key in _new_pairs(exponents, t, ideal, pk):
            heappush(pending, key)

    for t in range(len(basis)):
        join(t)
    while pending:
        _, lcm, i, j = heappop(pending)
        lcm = pk.lift(lcm | exponents[i] & comps)
        s, book, scale = _spoly_terms(basis[i], basis[j], lcm, guard)
        new = judge(i, j, *_nf_global(s, basis, first, pk, book), scale)
        if new is not None:
            basis.append(new)
            leads.append(new.lead)
            exponents.append(new.lead & keep)
            join(len(basis) - 1)


def _std_engine(
    seeds: Sequence[PackedTerms], pk: Packing, split: int | None = None
) -> tuple[list[_Reducer], list[tuple[Row, Fraction]]]:
    """Buchberger completion under Gebauer and Moeller's pair update (``_walk_pairs``).

    ``seeds`` are on ``pk``, whose order fields decide the order
    (``_engine_input``), so each lead is the plain ``max`` of a row's
    packed terms.  Returns the completed basis, as primitive
    integer rows, and the relations.  The walk forms and reduces every
    S-vector; the engine only judges each remainder.

    Soundness: the walk ends, since each joining lead lies outside the
    monomial submodule of the earlier ones (Dickson's lemma), and then the
    basis is a standard basis by the argument of ``_walk_pairs`` (Gebauer
    and Moeller, JSC 1988).

    With ``split``, the seeds are Schreyer rows: their terms in components
    >= ``split``, the packed terms from ``split << cshift`` up, are the
    bookkeeping part (``_Reducer.book``), never compared.  A remainder
    with a real term joins the basis, its content removed; a nonzero one
    without is a relation, which reduces nothing and forms no pairs.  It is
    returned as it came, an integer row on packed terms with its scale, the
    one ``Fraction`` s * num / den of the judge (``_walk_pairs``): row /
    scale is the remainder of the monic rational rows, and ``_relations``
    divides it out.  Plain seeds have no bookkeeping part, so no relations.
    """
    relations: list[tuple[Row, Fraction]] = []
    cut = None if split is None else split << pk.cshift

    def reducer(row: Row) -> _Reducer:
        real = row if cut is None else [t for t in row if t < cut]
        return _reducer(max(real), row, pk, cut)

    def judge(i: int, j: int, h: Row, num: int, den: int, s: int) -> _Reducer | None:
        if not h:
            return None
        if cut is None or min(h) < cut:
            _remove_content(h, {})
            return reducer(h)
        relations.append((h, Fraction(s * num, den)))
        return None

    basis = [reducer(_primitive(t)[0]) for t in seeds]
    _walk_pairs(basis, judge, pk)
    return basis, relations


def _minimal(leads: Sequence[PackedTerm], pk: Packing, order: MonomialOrder) -> list[int]:
    """Indices of the leads that no other kept lead divides, sorted by key.

    Leads are visited by (weighted) degree first, then by key: a proper
    divisor has a strictly smaller degree, so it is visited first under a
    local order too, where it sorts above its multiples.  Of equal leads
    the first is kept.
    """
    key = pk.keyed(order.module_key)

    def visit(i: int):
        return order.degree(pk.unpack(leads[i])), key(leads[i])

    kept: list[int] = []
    kept_leads: list[PackedTerm] = []
    for i in sorted(range(len(leads)), key=visit):
        if next(_divisors(kept_leads, leads[i], pk), None) is None:
            kept.append(i)
            kept_leads.append(leads[i])
    return sorted(kept, key=lambda i: key(leads[i]))


def _verify_complete(basis: Sequence[_Reducer], pk: Packing):
    """Re-check the Buchberger criterion on the completed generator set.

    The elements join ``_walk_pairs`` one at a time, in order, under the
    same Gebauer-Moeller update as the completion, with a divisor memo of
    their own, and the judge raises RuntimeError on any S-vector whose
    remainder is nonzero.  Then no element joins, and by the soundness
    argument of ``_walk_pairs`` (Gebauer and Moeller, JSC 1988) every pair
    has a representation below its lcm, which is the standard-basis
    property; a minimal subset with the same leading terms inherits it.

    The skip rule itself is not re-checked: the certificate walks the pairs
    with the same ``_walk_pairs`` as the engine, so a fault in that rule
    would pass it.  The all-pairs differential tests (with negative tests
    on broken copies of criteria B and F) and the test-local reference walk
    of the rule catch such a fault.
    """

    def judge(i: int, j: int, h: Row, *_) -> None:
        if h:
            raise RuntimeError(
                f"completion check failed: S-vector of generators {i},{j} has nonzero normal form"
            )

    _walk_pairs(list(basis), judge, pk)


@dataclass(frozen=True)
class StandardBasis:
    """Completed basis: every S-vector has normal form zero."""

    generators: tuple[VectorPoly, ...]
    order: MonomialOrder
    leading_terms: tuple[ModTerm, ...]

    @property
    def ring(self) -> tuple[str, ...]:
        return self.generators[0].ring

    @property
    def ncomp(self) -> int:
        return self.generators[0].ncomp

    def to_dict(self) -> dict:
        """Debug serialization matching schema/report.json (standard_basis)."""
        return {
            "order": self.order.kind,
            **({"order_weights": list(self.order.weights)} if self.order.weights else {}),
            "variables": list(self.ring),
            "components": self.ncomp,
            "generators": [[str(p) for p in g.to_polys()] for g in self.generators],
            "leading_terms": [[comp, list(expo)] for comp, expo in self.leading_terms],
        }


def _as_vectors(gens: Iterable[VectorPoly | Polynomial]) -> list[VectorPoly]:
    vecs = [VectorPoly.from_poly(g) if isinstance(g, Polynomial) else g for g in gens]
    if not vecs:
        raise ValueError("empty generator list")
    ring, ncomp = vecs[0].ring, vecs[0].ncomp
    for v in vecs:
        if v.ring != ring or v.ncomp != ncomp:
            raise ValueError("generators must share ring and component count")
    return vecs


def _homogenize_terms(terms: Terms) -> Terms:
    """Pad every exponent with a leading slack entry making degrees equal."""
    top = max(sum(e) for _, e in terms)
    return {(comp, (top - sum(e),) + e): c for (comp, e), c in terms.items()}


def _engine_input(
    vecs: Sequence[VectorPoly], order: MonomialOrder
) -> tuple[list[PackedTerms], Packing, int]:
    """Packed seeds, packing and number of slack entries for completing ``vecs``.

    The one place where the completion tells local from global orders.  A
    global order gets the inputs as given; a local order gets their
    degree-homogenizations (Lazard's method), ordered by component, then
    total degree, then the local order on the rest.  Reduction then needs
    no local units, which sidesteps the tail blow-up Mora's intermediate
    pool can suffer on position-over-term module orders.  The slack entry
    is the first, so it takes the most significant exponent field.  The
    packing's order fields decide the order (``_engine_packing``).
    ValueError when a weighted order has not one weight per ring variable.
    """
    nvars = len(vecs[0].ring)
    if order.weights is not None and len(order.weights) != nvars:
        raise ValueError(f"{len(order.weights)} order weights for a ring of {nvars} variables")
    pk = _engine_packing(order, nvars)
    pad = pk.size - nvars
    terms = [_homogenize_terms(v.terms) if pad else v.terms for v in vecs]
    return [pk.pack_terms(t) for t in terms], pk, pad


def standard_basis(
    gens: Iterable[VectorPoly | Polynomial], order: MonomialOrder, verify: bool = True
) -> StandardBasis:
    """Complete the generators to a standard (Groebner) basis.

    One path for every order: the seeds and packing from ``_engine_input``
    (which homogenizes for a local order) are completed, the completion is
    certified and minimalized on its leads (``_minimal``), and the kept
    integer rows are made monic rational ones, slack entries dropped.  Output is
    deterministic for a fixed input: fixed selection strategy, monic
    generators sorted by leading term.  With ``verify`` (the default) the
    Buchberger criterion is re-checked on the final set.

    Dropping the order fields and the slack entry masks off the most
    significant fields, and it keeps every lead: a completed row of a local
    order is homogeneous, so its terms in one component differ only in the
    dehomogenized part the local order compares.
    """
    vecs = [v for v in _as_vectors(gens) if not v.is_zero()]
    if not vecs:
        raise ValueError("all generators are zero")
    ring, ncomp = vecs[0].ring, vecs[0].ncomp
    seeds, pk, _ = _engine_input(vecs, order)
    completed, _ = _std_engine(seeds, pk)
    if verify:
        _verify_complete(completed, pk)
    out = packing(len(ring))
    cshift, low = pk.cshift, out.low  # low: every exponent field but the slack entry's
    leads = [r.lead >> cshift << out.cshift | r.lead & low for r in completed]
    kept = _minimal(leads, out, order)
    monic = [
        {(t >> cshift, out.unpack(t)): Fraction(c, r.coeff) for t, c in r.terms.items()}
        for r in (completed[i] for i in kept)
    ]
    return StandardBasis(
        generators=tuple(VectorPoly(ring, ncomp, terms) for terms in monic),
        order=order,
        leading_terms=tuple(out.unpack_term(leads[i]) for i in kept),
    )


def normal_form(p: VectorPoly | Polynomial, basis: StandardBasis) -> VectorPoly:
    """Fully reduced remainder (global) or residue representative (local).

    Under a local order the result is sum_j r_j x^(b_j) over the standard
    monomials b_j, where r is ``staircase(basis).residue(p)``: p minus it
    lies in the submodule over the local ring, and standard monomials are
    independent modulo it.  Either way the result is zero exactly when p
    lies in the ideal/submodule, and it is its own normal form.  ValueError
    for a local order whose staircase is infinite.
    """
    v = VectorPoly.from_poly(p) if isinstance(p, Polynomial) else p
    if v.ring != basis.ring or v.ncomp != basis.ncomp:
        raise ValueError("ring or component mismatch with basis")
    if basis.order.is_local():
        stair = staircase(basis)
        terms = {stair.standard_monomials[j]: a for j, a in stair.residue(v.terms).items()}
        return VectorPoly(v.ring, v.ncomp, terms)
    pk = _engine_packing(basis.order, len(v.ring))
    row, scale = _primitive(pk.pack_terms(v.terms))
    pool = [
        _reducer(pk.pack_term(lead), _primitive(pk.pack_terms(g.terms))[0], pk)
        for g, lead in zip(basis.generators, basis.leading_terms)
    ]
    first = _first_divisor([r.lead for r in pool], pk)
    h, num, den = _nf_global(row, pool, first, pk)
    return VectorPoly(v.ring, v.ncomp, pk.unpack_terms(_rational(h, scale * Fraction(num, den))))


@dataclass(frozen=True)
class Staircase:
    """Monomials outside the leading submodule of ``basis``, when finitely many."""

    standard_monomials: tuple[ModTerm, ...]
    finite: bool
    basis: StandardBasis

    @property
    def dimension(self) -> int | float:
        """The number of standard monomials; math.inf when not finite."""
        return len(self.standard_monomials) if self.finite else inf

    @cached_property
    def cut(self) -> int:
        """One past the largest (weighted) degree of a standard monomial; if the
        staircase is finite and of a local order, every term of degree ``cut``
        or more is in the submodule."""
        degree = self.basis.order.degree
        return 1 + max((degree(e) for _, e in self.standard_monomials), default=-1)

    @cached_property
    def _memo(self) -> tuple[dict[ModTerm, dict[int, Fraction]], Callable]:
        """The residue rows filled so far, keyed by term, and the fill of a missing row.

        A row holds the nonzero residue coordinates of its term by
        standard-monomial index.  The rows start as the unit vectors of the
        standard monomials.  ``fill`` returns the row of a term the rows
        lack, filling every row it reaches.  A term past the cut lies in the
        submodule: its row is zero and not kept.  Any other term is minus
        the shifted tail of the first generator (monic) whose lead divides
        it, a tail term past the cut being zero and skipped by its degree.
        Each shifted tail term is smaller than the term, so the rows reached
        are finitely many; an explicit stack fills each once all its inputs
        exist.  ``fill`` raises ValueError for a term of the wrong arity, a
        component out of range or a negative exponent.

        ValueError for an infinite staircase or a global order, and for a
        generator (of a hand-built basis) with a tail term above its lead:
        the descent from a term to the shifted tail of its lead would not end.
        """
        if not self.finite:
            raise ValueError("quotient is not finite dimensional")
        basis, cut = self.basis, self.cut
        if not basis.order.is_local():
            raise ValueError("residues need a local degree-compatible order")
        degree, key, pk = basis.order.degree, basis.order.module_key, packing(len(basis.ring))
        leads, reducers = [], []
        for g, lead in zip(basis.generators, basis.leading_terms):
            tail = [(t, degree(t[1]), -a) for t, a in g.terms.items() if t != lead]
            if any(key(t) > key(lead) for t, _, _ in tail):
                raise ValueError(f"tail term above the lead of {g}")
            leads.append(pk.pack_term(lead))
            reducers.append((lead[1], degree(lead[1]), tail))
        rows = {term: {j: _ONE} for j, term in enumerate(self.standard_monomials)}

        def fill(term: ModTerm) -> dict[int, Fraction]:
            comp, expo = term
            if len(expo) != pk.size or not 0 <= comp < basis.ncomp or min(expo) < 0:
                raise ValueError(f"{term} is not a term of O^{basis.ncomp} over {basis.ring}")
            if degree(expo) >= cut:
                return {}
            stack: list[tuple[ModTerm, list | None]] = [(term, None)]
            while stack:
                (c, e), inputs = stack.pop()
                if inputs is None:
                    if (c, e) in rows:
                        continue
                    k = next(_divisors(leads, pk.pack_term((c, e)), pk))
                    lead, lead_degree, tail = reducers[k]
                    shift = tuple(map(sub, e, lead))
                    # a tail term of degree d lands below the cut exactly when d < room
                    room = cut - degree(e) + lead_degree
                    inputs = [
                        ((s, tuple(map(add, x, shift))), a) for (s, x), d, a in tail if d < room
                    ]
                    missing = [(s, None) for s, _ in inputs if s not in rows]
                    if missing:
                        stack += [((c, e), inputs), *missing]
                        continue
                row: dict[int, Fraction] = {}
                for s, a in inputs:
                    for j, b in rows[s].items():
                        row[j] = row.get(j, _ZERO) + a * b
                rows[c, e] = {j: b for j, b in row.items() if b}
            return rows[term]

        return rows, fill

    def residue(self, terms: Terms) -> dict[int, Fraction]:
        """Nonzero coordinates of the residue of a term map, by standard-monomial index.

        The row of a term is one lookup once filled (``_memo``).  A term past
        the cut lies in the submodule and contributes nothing.  ValueError
        for an infinite staircase or a global order, and for a malformed term.
        """
        rows, fill = self._memo
        out: dict[int, Fraction] = {}
        for term, c in terms.items():
            row = rows.get(term)
            if row is None:
                row = fill(term)
            for j, a in row.items():
                out[j] = out.get(j, _ZERO) + c * a
        return {j: a for j, a in out.items() if a}

    def coordinates(self, terms: Terms) -> list[Fraction]:
        """Coordinates over the standard monomials of the residue of a term map."""
        out = [_ZERO] * len(self.standard_monomials)
        for j, a in self.residue(terms).items():
            out[j] = a
        return out


def staircase(basis: StandardBasis) -> Staircase:
    """Quotient staircase; finiteness decided by the pure-power criterion.

    Standard monomials are closed under division, so they grow from 1 one
    variable at a time: each m found is extended by x_i, x_i^2, ... up to the
    first non-standard one.  Each extension fits, below a pure-power lead.
    """
    nvars = len(basis.ring)
    if not all(
        any(c == comp and not any(e[:i] + e[i + 1 :]) for c, e in basis.leading_terms)
        for comp in range(basis.ncomp)
        for i in range(nvars)
    ):
        return Staircase((), False, basis)
    pk = packing(nvars)
    leads = [pk.pack_term(t) for t in basis.leading_terms]

    def standard(term: PackedTerm) -> bool:
        return next(_divisors(leads, term, pk), None) is None

    found: list[ModTerm] = []
    for comp in range(basis.ncomp):
        one = comp << pk.cshift
        stair = [one] if standard(one) else []
        for unit in pk.units:
            for x in stair[:]:
                x += unit
                while standard(x):
                    stair.append(x)
                    x += unit
        found += [pk.unpack_term(x) for x in stair]
    found.sort(key=lambda t: (sum(t[1]), t[0], t[1]))
    return Staircase(tuple(found), True, basis)


def _relations(vecs: Sequence[VectorPoly], order: MonomialOrder) -> tuple[list, Callable]:
    """The relations of the one Schreyer walk of ``syzygies``, unchecked, and their unpack.

    Each relation, possibly repeated, is the engine's nonzero integer row
    on packed terms with its scale lambda, of either sign: the relation is
    row / lambda.  ``unpack(relation, i)`` gives slot i of the row alone,
    keyed by exponent tuple, a nonzero multiple of that slot.
    ``unpack(relation)`` is the one place where a relation is normalized:
    it gives the primitive integer row keyed (slot i, exponent tuple), its
    bookkeeping component r + i made slot i and its slack entry dropped,
    with the positive scale by which it is a multiple of the relation
    (``packed._primitive``'s convention), so that two relations are equal
    exactly when their rows and scales are.  Nothing is unpacked here:
    ``syzygies`` unpacks every relation whole, and
    ``modular._cofactor_generators`` the cofactor slot of each and the
    whole relation only of the few it keeps.

    Dropping the slack entry sends no two terms of a relation to one key,
    so nothing merges or cancels: give component r + i the degree of the
    homogenized seed i, and every seed is homogeneous; S-vectors and
    reduction steps subtract homogeneous multiples of homogeneous rows of
    one degree, so every row of the engine is homogeneous too.  Within one
    slot, then, all terms of a relation have the same total degree, and two
    exponents of equal total degree that agree after the slack entry agree
    in it as well.  A global order has no slack entry.
    """
    if any(v.is_zero() for v in vecs):
        raise ValueError("zero generator has no meaningful syzygies")
    r = vecs[0].ncomp
    seeds, pk, pad = _engine_input(vecs, order)
    # the packed exponent 0 is the constant term
    extended = [{**terms, (r + i) << pk.cshift: _ONE} for i, terms in enumerate(seeds)]
    _, relations = _std_engine(extended, pk, r)

    def unpack(relation: tuple[Row, Fraction], slot: int | None = None):
        row, scale = relation
        if slot is not None:
            return {pk.unpack(t)[pad:]: c for t, c in row.items() if t >> pk.cshift == r + slot}
        g = gcd(*row.values()) if scale > 0 else -gcd(*row.values())
        terms = {((t >> pk.cshift) - r, pk.unpack(t)[pad:]): c // g for t, c in row.items()}
        return terms, scale / g

    return relations, unpack


def _distinct(fields: Iterable[tuple[dict, Fraction]]) -> list[tuple[dict, Fraction]]:
    """The (primitive integer row, positive scale) pairs without repeats, the first kept, in order.

    Each pair stands for the rational map row / scale, and both parts are
    unique to it, so two pairs are one map exactly when they are equal.
    """
    seen: dict = {}
    for row, scale in fields:
        seen.setdefault((frozenset(row.items()), scale), (row, scale))
    return list(seen.values())


def syzygies(gens: Sequence[VectorPoly | Polynomial], order: MonomialOrder) -> list[VectorPoly]:
    """Generators of the syzygy module of the ordered tuple ``gens``.

    Schreyer collection: the generators g_1..g_k in O^r are embedded as
    g_i + e_(r+i) in O^(r+k) under an elimination order where real terms
    dominate.  ``_std_engine`` completes these seeds with split r, so every
    remainder whose real part vanishes comes back as a relation; its
    bookkeeping part is one syzygy.  No lead is a bookkeeping term and every
    bookkeeping term sorts below every real one, so the order among them
    never matters: the engine holds them apart (``_Reducer.book``) and
    never compares them.  The engine drops pairs by Gebauer and Moeller's
    criteria B, F and M (``_walk_pairs``); the product criterion stays
    off, since the seeds have terms outside component 0.

    Soundness: let B be the completed basis and R the relations.  Each pair
    of B that is not dropped reduces to zero, to a new element of B, or to
    an element of R, so it has a standard representation with respect to
    B and R; by the induction of ``_walk_pairs`` (Gebauer and Moeller, JSC
    1988) so does every dropped pair.  Leads of B are real and leads of R bookkeeping, so no
    pair mixes them, and B together with a standard basis of the submodule
    generated by R is a standard basis of the submodule generated by the
    seeds.  Under the elimination order, its part with bookkeeping leads
    generates the elements without real terms, which are the syzygies; that
    part lies in the submodule generated by R, so R generates the syzygies.

    The seeds and the packing come from ``_engine_input``, as for
    ``standard_basis``: for a local target order the collection runs on the
    degree-homogenized inputs under the induced global order; setting the
    slack variable to 1 turns any homogeneous relation into a relation of
    the original generators, and every polynomial relation arises that way.
    Relations are nonzero (``_relations``), but two homogeneous ones can
    dehomogenize to the same vector: repeats are dropped on the integer
    rows and scales of ``_relations``, the first kept (``_distinct``).
    Each distinct relation is verified exactly against the inputs, as an
    integer row, and only then divided by its scale into a ``VectorPoly``.
    """
    vecs = _as_vectors(gens)
    relations, unpack = _relations(vecs, order)
    distinct = _distinct(map(unpack, relations))
    _check_syzygies(vecs, [row for row, _ in distinct])
    ring, k = vecs[0].ring, len(vecs)
    return [VectorPoly(ring, k, {t: c / scale for t, c in row.items()}) for row, scale in distinct]


def _check_syzygies(vecs: Sequence[VectorPoly], syzs: Iterable[dict[ModTerm, Fraction | int]]):
    """Raise unless sum_i s_i * vecs[i] is exactly zero for every term map s in syzs.

    Each s is keyed (slot i, exponent tuple), and may be any nonzero
    multiple of the syzygy, such as its primitive integer row.  The sum
    runs over integer rows: vecs[i] is row_i / scale_i for its primitive
    row, so the sum vanishes exactly when sum_i t_i * row_i does, where t
    is s with slot i divided by scale_i, made primitive.
    """
    pk = packing(len(vecs[0].ring))
    rows, scales = zip(*(_primitive(pk.pack_terms(v.terms)) for v in vecs))
    tops = [pk.top(row) for row in rows]
    for syz in syzs:
        weights, _ = _primitive({pk.pack_term(t): c / scales[t[0]] for t, c in syz.items()})
        if _combination(rows, tops, weights, pk):
            raise RuntimeError("syzygy verification failed")


def quotient_coordinates(
    p: VectorPoly | Polynomial, basis: StandardBasis, stair: Staircase
) -> list[Fraction]:
    """Coordinates of the residue class of p over the standard monomials of ``stair``.

    ``stair`` must be the staircase of ``basis``, a finite one of a local
    degree-compatible order; otherwise ValueError.
    """
    v = VectorPoly.from_poly(p) if isinstance(p, Polynomial) else p
    if v.ring != basis.ring or v.ncomp != basis.ncomp:
        raise ValueError("ring or component mismatch with basis")
    if stair.basis != basis:
        raise ValueError("staircase of another basis")
    return stair.coordinates(v.terms)
