"""Standard bases for ideals and submodules, in global and local settings.

Elements of a free module O^k are held as ``VectorPoly`` (``germcalc.poly``):
a term map from (component, exponent tuple) to a nonzero rational.  Ideals are the k = 1
case.  The machinery is shared:

* inside the engine every exponent is one packed int (``germcalc.packed``):
  each entry has a fixed-width field whose top bit is a guard, the first
  entry in the most significant field, so ints compare like lex tuples, a
  shift is one addition, a quotient one subtraction, divisibility one mask
  test and an lcm a few bit operations (Monagan and Pearce, JSC 2011).
  Exponent tuples exist only at the public boundary: packed on the way
  in, unpacked for bases, relations, normal forms and residue tables on
  the way out.  An entry that would not fit its field raises
  ``ExponentOverflow`` (a ValueError) before any arithmetic, so nothing
  wraps into a guard bit;
* reductions and S-vectors work on primitive integer rows, fraction-free
  (``_primitive``, ``_eliminate``; Bareiss's one-step integer-preserving
  elimination, with the content removed every few steps as SINGULAR does);
  each returns the exact rational scale lambda by which its row differs
  from the one the monic rational computation gives, and monic rationals
  come back only at the exits: ``standard_basis`` divides each generator
  by its lead once, after the certificate; relations, ``spoly`` and
  ``normal_form`` divide by lambda.  A scale changes no support, so every
  lead, pair, criterion and zero test is that of the rational computation;
* global orderings use the ordinary division algorithm (full reduction);
  local orderings use Mora's weak normal form with the ecart-minimizing
  reduction strategy, allowing intermediate results as reducers;
* one completion loop, ``_std_engine``, serves standard bases and
  syzygies: Buchberger's loop under the normal pair-selection strategy
  (smallest lcm degree first, ties by the packed lcm, then by the pair's
  indices, in a heap of keys computed once per pair), with the product
  criterion and the chain criterion; it, ``_verify_complete`` and
  ``normal_form`` memoize each term's order key, computed from the
  unpacked term, for the length of a call;
* both reach the loop through ``_engine_input``, the one place where the
  completion tells local from global orders: for local orderings it
  degree-homogenizes the input and keys it by the induced global order
  (Lazard's method), which keeps tails division-reduced throughout; the
  slack entry is dropped afterwards;
* every divisor search in a pool goes through ``_divisors``, a scan of
  the pool's leads in order with one mask test per lead;
* the product criterion applies only when every seed term lies in
  component 0, decided from the data in ``_walk_pairs``, the pair walk
  of the engine and the certificate alike (the bookkeeping terms of
  Schreyer rows lie outside it); the chain criterion looks for a dividing
  lead among the walked partners both elements of a pair share;
* every completed basis is re-verified from its final generator set
  alone (``_verify_complete``): each pair that neither criterion covers
  must have an S-vector of normal form zero, otherwise RuntimeError.

The staircase of a completed basis detects finite codimension exactly via
the pure-power criterion and enumerates the standard monomials.

Syzygies are collected the Schreyer way: the generators are embedded with
bookkeeping components under an elimination order and completed by the
same engine on the same reducers, whose bookkeeping part
(``_Reducer.book``, empty for a standard basis) holds no lead and is never
keyed: each reduction step carries it along in the remainder
(``_eliminate``).  A remainder whose real part died is a relation, one
syzygy in input coordinates: ``_relations`` yields them, ``syzygies``
wraps, deduplicates and re-checks them exactly on integer rows, and
``modular`` reads the few it keeps.

A finite staircase of a local ordering is the one model of its quotient.
For these degree-compatible orderings every term of (weighted) degree
beyond the staircase lies in the ideal, so the quotient map is linear on
the finitely many terms below that cut: the staircase writes it down once,
on first use, term by term from the smallest up, and ``Staircase.residue``
and ``Staircase.coordinates`` are a sparse lookup in it (the FGLM view of
a zero-dimensional quotient).  ``quotient_coordinates`` is the checked
entry point on polynomials and vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from heapq import heappop, heappush
from itertools import product
from math import gcd, inf
from typing import Callable, Iterable, Iterator, Sequence

from .orders import MonomialOrder
from .packed import (
    FIELD,
    ExponentOverflow,
    PackedTerm,
    PackedTerms,
    Packing,
    Row,
    _divisors,
    _eliminate,
    _primitive,
    _rational,
    _Reducer,
    _reducer,
    _remove_content,
    _sub_scaled,
    packing,
)
from .poly import Exponent, ModTerm, Polynomial, Terms, VectorPoly


_ZERO = Fraction(0)
_ONE = Fraction(1)


KeyFn = Callable[[ModTerm], object]


_CONTENT_EVERY = 8  # reduction steps between two content removals


def _nf_global(
    h: Row, pool: Sequence[_Reducer], keyfn: KeyFn, pk: Packing, book: Row | None = None
) -> tuple[Row, Fraction]:
    """Full division remainder, fraction-free, and its scale.

    No remaining term is divisible by a pool lead.  The remainder is scale
    times the one the rational division by the monic pool rows leaves: each
    step scales by d/g (``_eliminate``) and each content removal divides.
    For a Schreyer row, ``book`` is its bookkeeping part (taken over, not
    copied): it starts the remainder, takes the bookkeeping parts of the
    pool rows and is never scanned, and the remainder returned holds both
    parts.
    """
    guard, leads = pk.guard, [r.lead for r in pool]
    h = dict(h)
    remainder: Row = {} if book is None else book
    scale, mult, steps = _ONE, 1, 0
    while h:
        lt = max(h, key=keyfn)
        k = next(_divisors(leads, lt, guard), None)
        if k is None:
            remainder[lt] = h.pop(lt)
            continue
        mult *= _eliminate(h, lt, pool[k], remainder, guard)
        steps += 1
        if not steps % _CONTENT_EVERY:
            scale *= Fraction(mult, _remove_content(h, remainder))
            mult = 1
    return remainder, scale * mult


def _ecart(terms: Row, lead: PackedTerm, degree: Callable[[int], int]) -> int:
    return max(degree(e) for _, e in terms) - degree(lead[1])


def _nf_mora(h: Row, pool: Sequence[_Reducer], keyfn: KeyFn, pk: Packing) -> tuple[Row, Fraction]:
    """Mora weak normal form for local orderings, fraction-free, and its scale.

    Reduces the leading term only, choosing the first divisor of minimal
    ecart (largest total degree minus the degree of the lead); when every
    divisor has larger ecart than the current remainder, the remainder joins
    the pool (the implicit local unit, and the reason the loop terminates).
    An ecart is computed only when compared: a pool row's once, on first
    use, the remainder's (never negative) only against a positive one.  The
    scale is as in ``_nf_global``.
    """
    guard, degree = pk.guard, pk.degree
    pool, leads = list(pool), [r.lead for r in pool]
    ecart = cache(lambda k: _ecart(pool[k].terms, pool[k].lead, degree))
    h = dict(h)
    scale, steps = _ONE, 0
    while h:
        lt = max(h, key=keyfn)
        k = min(_divisors(leads, lt, guard), key=ecart, default=None)
        if k is None:
            break
        red = pool[k]
        if ecart(k) > 0 and ecart(k) > _ecart(h, lt, degree):
            pool.append(_reducer(lt, _primitive(h)[0], pk))
            leads.append(lt)
        scale *= _eliminate(h, lt, red, {}, guard)
        steps += 1
        if not steps % _CONTENT_EVERY:
            scale /= _remove_content(h, {})
    return h, scale


def _spoly_terms(f: _Reducer, g: _Reducer, lcm: int, guard: int) -> tuple[Row, Row, Fraction]:
    """Fraction-free S-vector, as its real and bookkeeping parts, and its scale;
    ``lcm`` is that of the two lead exponents.

    The row (c_g/e) x^a f - (c_f/e) x^b g, with e = gcd(c_f, c_g), is
    c_f c_g / e times x^a f / c_f - x^b g / c_g, the S-vector of the monic rows.
    """
    e = gcd(f.coeff, g.coeff)
    a, b = lcm - f.lead[1], lcm - g.lead[1]
    out: Row = {}
    book: Row = {}
    _sub_scaled(out, f.terms, f.top, a, -(g.coeff // e), guard)
    _sub_scaled(out, g.terms, g.top, b, f.coeff // e, guard)
    _sub_scaled(book, f.book, f.book_top, a, -(g.coeff // e), guard)
    _sub_scaled(book, g.book, g.book_top, b, f.coeff // e, guard)
    return out, book, Fraction(f.coeff // e * g.coeff)


def spoly(f: VectorPoly, g: VectorPoly, keyfn: KeyFn) -> VectorPoly:
    """S-vector; the leading components must agree."""
    pk = packing(len(f.ring))
    key = pk.keyed(keyfn)
    rows = [_primitive(pk.pack_terms(v.terms))[0] for v in (f, g)]
    rf, rg = (_reducer(max(row, key=key), row, pk) for row in rows)
    if rf.lead[0] != rg.lead[0]:
        raise ValueError("S-vector needs matching leading components")
    s, _, scale = _spoly_terms(rf, rg, pk.lcm(rf.lead[1], rg.lead[1]), pk.guard)
    return VectorPoly(f.ring, f.ncomp, pk.unpack_terms(_rational(s, scale)))


PairKey = tuple[int, int, int, int]  # (degree of the lcm, packed lcm, i, j)


def _pair_key(leads: Sequence[PackedTerm], i: int, j: int, pk: Packing) -> PairKey:
    """Selection key of the pair (i, j): smallest lcm degree, then lcm, then indices.

    The packed lcm compares like its exponent tuple.  The indices make
    every key unique, so a heap of keys pops pairs in one fixed order.
    """
    lcm = pk.lcm(leads[i][1], leads[j][1])
    return (pk.degree(lcm), lcm, i, j)


def _chain_covered(
    leads: Sequence[PackedTerm], lcm: int, partners_i: set[int], partners_j: set[int], guard: int
) -> bool:
    """Does the lead of a walked partner of both i and j divide lcm(i, j)?

    This is Buchberger's chain criterion over walked pairs: some k with
    lead k dividing the lcm and both (i, k) and (j, k) walked.  Pairs form
    only within a component, so every common partner shares it, and the
    pair (i, j) is not walked yet, so neither i nor j is a common partner.
    """
    lcm |= guard
    for k in partners_i & partners_j:
        if (lcm - leads[k][1]) & guard == guard:
            return True
    return False


def _walk_pairs(basis: Sequence[_Reducer], reduce: Callable[[int, int, int], bool], pk: Packing):
    """Reduce the S-vector of every pair of ``basis`` that no criterion covers.

    Pairs pop smallest key first.  A pair is skipped when its leads are
    coprime and every term of the starting set lies in component 0 (the
    product criterion, decided here from the data: modules and Schreyer
    rows, whose bookkeeping part lies outside component 0, need their
    coprime pairs), or when another lead of the same component divides its
    lcm and both pairs through it were walked before (the chain criterion,
    ``_chain_covered``: each element keeps the set of partners it was walked
    with).  Every other pair (i, j) goes to ``reduce(i, j, lcm)``, which
    returns True when it appended a new element to ``basis``; its pairs
    join the walk.
    """
    guard = pk.guard
    leads = [r.lead for r in basis]
    ideal = not any(r.book or any(comp for comp, _ in r.terms) for r in basis)
    pending: list[PairKey] = []

    def add_pairs(j: int):
        for i in range(j):
            if leads[i][0] == leads[j][0]:
                heappush(pending, _pair_key(leads, i, j, pk))

    for j in range(len(basis)):
        add_pairs(j)

    walked: list[set[int]] = [set() for _ in basis]
    while pending:
        _, lcm, i, j = heappop(pending)
        coprime = ideal and lcm == leads[i][1] + leads[j][1]
        if not coprime and not _chain_covered(leads, lcm, walked[i], walked[j], guard):
            if reduce(i, j, lcm):
                leads.append(basis[-1].lead)
                walked.append(set())
                add_pairs(len(basis) - 1)
        walked[i].add(j)
        walked[j].add(i)


def _std_engine(
    seeds: Sequence[PackedTerms], keyfn: KeyFn, pk: Packing, split: int | None = None
) -> tuple[list[_Reducer], list[Terms]]:
    """Buchberger completion with deterministic pair selection.

    ``seeds`` and ``keyfn`` are on packed terms.  Returns the completed
    basis, as primitive integer rows, and the relations.  Each term's key is
    computed once per call: ``keyfn`` is memoized here, for the call only.

    With ``split``, the seeds are Schreyer rows: their terms in components
    >= ``split`` are the bookkeeping part (``_Reducer.book``), never keyed.
    A remainder with a real term joins the basis; a nonzero one without is
    a relation, returned divided by its scale (so, the remainder of the
    monic rational rows) with exponent tuples, which reduces nothing and
    forms no pairs.  Plain seeds have no bookkeeping part, so no relations.
    """
    keyfn = cache(keyfn)
    guard = pk.guard
    relations: list[Terms] = []

    def reducer(row: Row) -> _Reducer:
        real = row if split is None else [t for t in row if t[0] < split]
        return _reducer(max(real, key=keyfn), row, pk, split)

    basis = [reducer(_primitive(t)[0]) for t in seeds if t]
    if not basis:
        raise ValueError("empty generator list")

    def reduce(i: int, j: int, lcm: int) -> bool:
        s, book, s_scale = _spoly_terms(basis[i], basis[j], lcm, guard)
        h, h_scale = _nf_global(s, basis, keyfn, pk, book)
        if not h:
            return False
        if split is None or any(comp < split for comp, _ in h):
            basis.append(reducer(_primitive(h)[0]))
            return True
        relations.append(pk.unpack_terms(_rational(h, s_scale * h_scale)))
        return False

    _walk_pairs(basis, reduce, pk)
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
        return order.degree(pk.unpack(leads[i][1])), key(leads[i])

    kept: list[int] = []
    kept_leads: list[PackedTerm] = []
    for i in sorted(range(len(leads)), key=visit):
        if next(_divisors(kept_leads, leads[i], pk.guard), None) is None:
            kept.append(i)
            kept_leads.append(leads[i])
    return sorted(kept, key=lambda i: key(leads[i]))


def _verify_complete(basis: Sequence[_Reducer], keyfn: KeyFn, pk: Packing):
    """Re-check the Buchberger criterion on the completed generator set.

    The pairs of the final set are walked by ``_walk_pairs``, under the
    same two criteria as the completion, and every S-vector it reduces
    must vanish.

    Soundness, by induction along the walk (Buchberger's second criterion
    applied sequentially, Cox-Little-O'Shea section 2.9): a pair that
    reduces to zero, or has coprime leads, has a representation
    sum a_l g_l with every a_l lead(g_l) below its lcm; if lead(g_k) divides
    lcm(i, j), then S(i, j) is a monomial combination of S(i, k) and S(j, k)
    whose multipliers carry their representations below lcm(i, j).  So
    every pair has such a representation, which is the standard-basis
    property; a minimal subset with the same leading terms inherits it.

    The skip rule itself is not re-checked: the certificate walks the pairs
    with the same ``_walk_pairs`` as the engine, so a fault in that rule
    would pass it.  The all-pairs differential tests and the test-local
    reference walk of the old pairwise rule catch such a fault.
    """
    keyfn = cache(keyfn)  # one key per term for this check, as in the engine

    def reduce(i: int, j: int, lcm: int) -> bool:
        if _nf_global(_spoly_terms(basis[i], basis[j], lcm, pk.guard)[0], basis, keyfn, pk)[0]:
            raise RuntimeError(
                f"completion check failed: S-vector of generators {i},{j} has nonzero normal form"
            )
        return False

    _walk_pairs(basis, reduce, pk)


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
) -> tuple[list[PackedTerms], KeyFn, Packing, int]:
    """Packed seeds, packed term key, packing and number of slack entries for completing ``vecs``.

    The one place where the completion tells local from global orders.  A
    global order gets the inputs as given, under its own key; a local order
    gets their degree-homogenizations (Lazard's method), keyed by component,
    then total degree, then the local order on the rest.  Reduction then
    needs no local units, which sidesteps the tail blow-up Mora's
    intermediate pool can suffer on position-over-term module orders.
    The slack entry is the first, so it takes the most significant field.
    """
    nvars = len(vecs[0].ring)
    if order.is_global():
        pk = packing(nvars)
        return [pk.pack_terms(v.terms) for v in vecs], pk.keyed(order.module_key), pk, 0
    skey = order.sort_key

    def key(term: ModTerm):
        comp, ext = term
        return (comp, sum(ext), skey(ext[1:]))

    pk = packing(nvars + 1)
    return [pk.pack_terms(_homogenize_terms(v.terms)) for v in vecs], pk.keyed(key), pk, 1


def standard_basis(
    gens: Iterable[VectorPoly | Polynomial], order: MonomialOrder, verify: bool = True
) -> StandardBasis:
    """Complete the generators to a standard (Groebner) basis.

    One path for every order: the seeds and key from ``_engine_input``
    (which homogenizes for a local order) are completed, the completion is
    certified and minimalized on its leads (``_minimal``), and the kept
    integer rows are made monic rational ones, slack entries dropped.  Output is
    deterministic for a fixed input: fixed selection strategy, monic
    generators sorted by leading term.  With ``verify`` (the default) the
    Buchberger criterion is re-checked on the final set.

    Dropping the slack entry masks off the most significant field, and it
    keeps every lead: a completed row of a local order is homogeneous, so
    its terms in one component differ only in the dehomogenized part the
    local order compares.
    """
    vecs = [v for v in _as_vectors(gens) if not v.is_zero()]
    if not vecs:
        raise ValueError("all generators are zero")
    ring, ncomp = vecs[0].ring, vecs[0].ncomp
    seeds, engine_key, pk, _ = _engine_input(vecs, order)
    completed, _ = _std_engine(seeds, engine_key, pk)
    if verify:
        _verify_complete(completed, engine_key, pk)
    out = packing(len(ring))
    low = (1 << (FIELD * out.size)) - 1  # every field but the slack entry's
    leads = [(comp, e & low) for comp, e in (r.lead for r in completed)]
    kept = _minimal(leads, out, order)
    monic = [
        {(comp, out.unpack(e & low)): Fraction(c, r.coeff) for (comp, e), c in r.terms.items()}
        for r in (completed[i] for i in kept)
    ]
    return StandardBasis(
        generators=tuple(VectorPoly(ring, ncomp, terms) for terms in monic),
        order=order,
        leading_terms=tuple((leads[i][0], out.unpack(leads[i][1])) for i in kept),
    )


def _pool(basis: StandardBasis, pk: Packing) -> list[_Reducer]:
    return [
        _reducer((lead[0], pk.pack(lead[1])), _primitive(pk.pack_terms(g.terms))[0], pk)
        for g, lead in zip(basis.generators, basis.leading_terms)
    ]


def normal_form(p: VectorPoly | Polynomial, basis: StandardBasis) -> VectorPoly:
    """Fully reduced remainder (global) or Mora weak normal form (local).

    Zero exactly when p lies in the ideal/submodule (over the local ring
    for local orderings).
    """
    v = VectorPoly.from_poly(p) if isinstance(p, Polynomial) else p
    if v.ring != basis.ring or v.ncomp != basis.ncomp:
        raise ValueError("ring or component mismatch with basis")
    pk = packing(len(v.ring))
    row, scale = _primitive(pk.pack_terms(v.terms))
    nf = _nf_mora if basis.order.is_local() else _nf_global
    h, h_scale = nf(row, _pool(basis, pk), cache(pk.keyed(basis.order.module_key)), pk)
    return VectorPoly(v.ring, v.ncomp, pk.unpack_terms(_rational(h, scale * h_scale)))


@dataclass(frozen=True)
class Staircase:
    """Monomials outside the leading submodule of ``basis``, when finitely many."""

    standard_monomials: tuple[ModTerm, ...]
    finite: bool
    dimension: int | float  # math.inf when not finite
    basis: StandardBasis

    def monomials_of_component(self, comp: int) -> list[Exponent]:
        return [e for c, e in self.standard_monomials if c == comp]

    @cached_property
    def _rows(self) -> dict[ModTerm, dict[int, Fraction]]:
        """Residue coordinates of every term below the cut, by standard-monomial index.

        Rows are filled smallest term first: a standard term maps to its
        unit vector, any other term to minus the shifted tail of the first
        generator whose lead divides it, over that lead's coefficient.  The
        fill runs on packed terms; the table it returns is keyed by exponent
        tuples.
        """
        if not self.finite:
            raise ValueError("quotient is not finite dimensional")
        basis, order = self.basis, self.basis.order
        if not order.is_local():
            raise ValueError("residues need a local degree-compatible order")
        cut = 1 + max((order.degree(e) for _, e in self.standard_monomials), default=-1)
        below = [e for e in product(range(cut), repeat=len(basis.ring)) if order.degree(e) < cut]
        terms = sorted(((c, e) for c in range(basis.ncomp) for e in below), key=order.module_key)
        pk = packing(len(basis.ring))
        positions = {(c, pk.pack(e)): i for i, (c, e) in enumerate(self.standard_monomials)}
        pool, guard = _pool(basis, pk), pk.guard
        leads = [r.lead for r in pool]
        rows: dict[PackedTerm, dict[int, Fraction]] = {}
        for comp, expo in terms:
            term = (comp, pk.pack(expo))
            if term in positions:
                rows[term] = {positions[term]: _ONE}
                continue
            red = pool[next(_divisors(leads, term, guard))]
            shift = term[1] - red.lead[1]
            if (red.top + shift) & guard:
                raise ExponentOverflow()
            row: dict[int, Fraction] = {}
            for (tcomp, texpo), c in red.terms.items():
                if (tcomp, texpo) == red.lead:
                    continue
                # each tail term is smaller than the lead: its row is known,
                # or it lies beyond the cut and is zero
                factor = Fraction(-c, red.coeff)
                for j, a in rows.get((tcomp, texpo + shift), {}).items():
                    row[j] = row.get(j, _ZERO) + factor * a
            rows[term] = {j: a for j, a in row.items() if a}
        return pk.unpack_terms(rows)

    def residue(self, terms: Terms) -> dict[int, Fraction]:
        """Nonzero coordinates of the residue of a term map, by standard-monomial index.

        A term past the cut lies in the submodule and contributes nothing.
        ValueError for an infinite staircase or a global order.
        """
        rows = self._rows
        out: dict[int, Fraction] = {}
        for term, c in terms.items():
            for j, a in rows.get(term, {}).items():
                out[j] = out.get(j, _ZERO) + c * a
        return {j: a for j, a in out.items() if a}

    def coordinates(self, terms: Terms) -> list[Fraction]:
        """Coordinates over the standard monomials of the residue of a term map."""
        out = [_ZERO] * len(self.standard_monomials)
        for j, a in self.residue(terms).items():
            out[j] = a
        return out


def staircase(basis: StandardBasis) -> Staircase:
    """Quotient staircase; finiteness decided by the pure-power criterion."""
    nvars = len(basis.ring)
    pk = packing(nvars)
    leads = [(comp, pk.pack(e)) for comp, e in basis.leading_terms]
    found: list[ModTerm] = []
    for comp in range(basis.ncomp):
        bounds = []
        for i in range(nvars):
            pure = [
                e[i]
                for c, e in basis.leading_terms
                if c == comp and all(e[j] == 0 for j in range(nvars) if j != i)
            ]
            if not pure:
                return Staircase((), False, inf, basis)
            bounds.append(min(pure))
        for expo in product(*(range(b) for b in bounds)):
            if next(_divisors(leads, (comp, pk.pack(expo)), pk.guard), None) is None:
                found.append((comp, expo))
    found.sort(key=lambda t: (sum(t[1]), t[0], t[1]))
    return Staircase(tuple(found), True, len(found), basis)


def _relations(vecs: Sequence[VectorPoly], order: MonomialOrder) -> Iterator[Terms]:
    """The relations of the one Schreyer walk of ``syzygies``, unchecked.

    Each is a term map on (input slot, exponent), possibly zero or repeated:
    ``syzygies`` wraps, deduplicates and checks them, and
    ``modular._cofactor_generators`` reads the few it keeps and checks those.
    """
    if any(v.is_zero() for v in vecs):
        raise ValueError("zero generator has no meaningful syzygies")
    r = vecs[0].ncomp
    seeds, key, pk, pad = _engine_input(vecs, order)
    # the packed exponent 0 is the constant term
    extended = [{**terms, (r + i, 0): _ONE} for i, terms in enumerate(seeds)]
    _, relations = _std_engine(extended, key, pk, r)
    for h in relations:
        merged: Terms = {}
        for (comp, e), c in h.items():
            term = (comp - r, e[pad:])
            new = merged.get(term, _ZERO) + c
            if new:
                merged[term] = new
            else:
                merged.pop(term, None)
        yield merged


def syzygies(gens: Sequence[VectorPoly | Polynomial], order: MonomialOrder) -> list[VectorPoly]:
    """Generators of the syzygy module of the ordered tuple ``gens``.

    Schreyer collection: the generators g_1..g_k in O^r are embedded as
    g_i + e_(r+i) in O^(r+k) under an elimination order where real terms
    dominate.  ``_std_engine`` completes these seeds with split r, so every
    remainder whose real part vanishes comes back as a relation; its
    bookkeeping part is one syzygy.  No lead is a bookkeeping term and every
    bookkeeping term sorts below every real one, so the order among them
    never matters: the engine holds them apart (``_Reducer.book``) and
    never keys them.  The engine skips pairs by the chain criterion over
    pairs already walked; the product criterion stays off, since the seeds
    have terms outside component 0.

    Soundness: let B be the completed basis and R the relations.  Each pair
    of B that is not skipped reduces to zero, to a new element of B, or to
    an element of R, so it has a standard representation with respect to
    B and R; by the same induction as in ``_verify_complete`` so does every
    skipped pair.  Leads of B are real and leads of R bookkeeping, so no
    pair mixes them, and B together with a standard basis of the submodule
    generated by R is a standard basis of the submodule generated by the
    seeds.  Under the elimination order, its part with bookkeeping leads
    generates the elements without real terms, which are the syzygies; that
    part lies in the submodule generated by R, so R generates the syzygies.

    The seeds and the term key come from ``_engine_input``, as for
    ``standard_basis``: for a local target order the collection runs on the
    degree-homogenized inputs under the induced global order; setting the
    slack variable to 1 turns any homogeneous relation into a relation of
    the original generators, and every polynomial relation arises that way.
    Each returned vector is verified exactly against the inputs.
    """
    vecs = _as_vectors(gens)
    out = [VectorPoly(vecs[0].ring, len(vecs), h) for h in _relations(vecs, order)]
    out = [syz for syz in dict.fromkeys(out) if not syz.is_zero()]
    _check_syzygies(vecs, out)
    return out


def _check_syzygies(vecs: Sequence[VectorPoly], syzs: Iterable[VectorPoly]):
    """Raise unless sum_i s_i * vecs[i] is exactly zero for every s in syzs.

    The sum runs over integer rows: vecs[i] is row_i / scale_i for its
    primitive row, so the sum vanishes exactly when sum_i t_i * row_i does,
    where t is s with slot i divided by scale_i, made primitive.
    """
    pk = packing(len(vecs[0].ring))
    rows, scales = zip(*(_primitive(pk.pack_terms(v.terms)) for v in vecs))
    tops = [pk.top(row) for row in rows]
    for syz in syzs:
        weights, _ = _primitive(
            {(slot, pk.pack(e)): c / scales[slot] for (slot, e), c in syz.terms.items()}
        )
        total: Row = {}
        for (slot, expo), c in weights.items():
            _sub_scaled(total, rows[slot], tops[slot], expo, -c, pk.guard)
        if total:
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
