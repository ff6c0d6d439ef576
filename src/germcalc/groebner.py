"""Standard bases for ideals and submodules, in global and local settings.

Elements of a free module O^k are held as ``VectorPoly``: a term map from
(component, exponent tuple) to a nonzero rational.  Ideals are the k = 1
case.  The machinery is shared:

* global orderings use the ordinary division algorithm (full reduction);
* local orderings use Mora's weak normal form with the ecart-minimizing
  reduction strategy, allowing intermediate results as reducers, for
  normal-form queries;
* basis completion is Buchberger's loop under the normal pair-selection
  strategy (smallest lcm degree first, ties by the lcm exponent tuple,
  then by the pair's indices), with the product criterion (ideals only)
  and the chain criterion; pending pairs sit in a heap of these keys,
  each computed once when its pair is formed; for local orderings the
  completion runs on the degree-homogenized input under the induced
  global order (Lazard's method) and is dehomogenized afterwards, which
  keeps tails division-reduced throughout;
* every completed basis is re-verified from its final generator set
  alone (``_verify_complete``): each pair that neither the product
  criterion nor the chain criterion over pairs already checked covers
  must have an S-vector of normal form zero, otherwise RuntimeError.

The staircase of a completed basis detects finite codimension exactly via
the pure-power criterion and enumerates the standard monomials.

Syzygies are collected the Schreyer way: the generators are embedded with
bookkeeping components, only pairs with leading term in the real block are
completed (no pair criteria there, since even a pair that reduces to zero
contributes its relation), and a reduction whose real part dies yields a
syzygy in input coordinates.  Every returned syzygy is re-checked exactly
against the inputs.

``quotient_coordinates`` produces the unique representative of a residue
class supported on the standard monomials.  For the degree-compatible local
orderings every term of (weighted) degree beyond the staircase lies in the
ideal, so the quotient map is linear on the finitely many terms below that
cut: a ``ResidueTable`` writes it down once, term by term from the smallest
up, and coordinates are a sparse lookup in it (the FGLM view of a
zero-dimensional quotient).  Global orderings use full reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import product
from math import inf
from typing import Callable, Iterable, Sequence

from .orders import MonomialOrder
from .poly import Exponent, Polynomial

ModTerm = tuple[int, Exponent]  # (component, monomial)
Terms = dict[ModTerm, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class VectorPoly:
    """Element of a free module O^ncomp over a shared polynomial ring."""

    __slots__ = ("ring", "ncomp", "terms")

    def __init__(self, ring: tuple[str, ...], ncomp: int, terms=None):
        clean: Terms = {}
        if terms:
            for (comp, expo), coeff in terms.items():
                if coeff == 0:
                    continue
                if not 0 <= comp < ncomp:
                    raise ValueError(f"component {comp} out of range for O^{ncomp}")
                clean[(comp, tuple(expo))] = Fraction(coeff)
        object.__setattr__(self, "ring", tuple(ring))
        object.__setattr__(self, "ncomp", ncomp)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("VectorPoly is immutable")

    @classmethod
    def from_polys(cls, polys: Sequence[Polynomial]) -> VectorPoly:
        ring = polys[0].ring
        terms: Terms = {}
        for comp, p in enumerate(polys):
            if p.ring != ring:
                raise ValueError("components from different rings")
            for expo, coeff in p.iter_terms():
                terms[(comp, expo)] = coeff
        return cls(ring, len(polys), terms)

    @classmethod
    def from_poly(cls, p: Polynomial) -> VectorPoly:
        return cls.from_polys([p])

    def component(self, i: int) -> Polynomial:
        return Polynomial(self.ring, {e: c for (comp, e), c in self.terms.items() if comp == i})

    def to_polys(self) -> list[Polynomial]:
        return [self.component(i) for i in range(self.ncomp)]

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, VectorPoly):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.ncomp == other.ncomp
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, self.ncomp, frozenset(self.terms.items())))

    def scale(self, c) -> VectorPoly:
        c = Fraction(c)
        return VectorPoly(self.ring, self.ncomp, {k: c * v for k, v in self.terms.items()})

    def __str__(self) -> str:
        return "(" + ", ".join(str(p) for p in self.to_polys()) + ")"

    def __repr__(self) -> str:
        return f"VectorPoly{self}"


KeyFn = Callable[[ModTerm], object]


# -- raw term-map helpers (the working representation inside reductions) ----


def _shift(expo: Exponent, by: Exponent) -> Exponent:
    return tuple(a + b for a, b in zip(expo, by))


def _divides(a: Exponent, b: Exponent) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _quotient(b: Exponent, a: Exponent) -> Exponent:
    return tuple(y - x for x, y in zip(a, b))


def _sub_scaled(target: Terms, source: Terms, shift: Exponent, factor: Fraction):
    """target -= factor * x^shift * source, in place."""
    for (comp, expo), coeff in source.items():
        key = (comp, _shift(expo, shift))
        new = target.get(key, _ZERO) - factor * coeff
        if new:
            target[key] = new
        else:
            target.pop(key, None)


def _real_max_degree(terms: Terms, split: int) -> int:
    degs = [sum(e) for c, e in terms if c < split]
    return max(degs) if degs else 0


@dataclass(frozen=True)
class _Reducer:
    """A frozen reducer with its cached lead data."""

    lead: ModTerm
    coeff: Fraction
    ecart: int
    terms: Terms


def _make_reducer(terms: Terms, keyfn: KeyFn, split: int) -> _Reducer:
    lead = max(terms, key=keyfn)
    return _Reducer(
        lead=lead,
        coeff=terms[lead],
        ecart=_real_max_degree(terms, split) - sum(lead[1]),
        terms=terms,
    )


def _nf_global(h: Terms, pool: Sequence[_Reducer], keyfn: KeyFn) -> Terms:
    """Full division remainder: no remaining term divisible by a pool lead."""
    h = dict(h)
    remainder: Terms = {}
    while h:
        lt = max(h, key=keyfn)
        c = h[lt]
        hit = None
        for red in pool:
            if red.lead[0] == lt[0] and _divides(red.lead[1], lt[1]):
                hit = red
                break
        if hit is None:
            remainder[lt] = c
            del h[lt]
        else:
            _sub_scaled(h, hit.terms, _quotient(lt[1], hit.lead[1]), c / hit.coeff)
    return remainder


def _nf_mora(h: Terms, pool: Sequence[_Reducer], keyfn: KeyFn, split: int) -> Terms:
    """Mora weak normal form for local orderings.

    Reduces the leading term only, choosing a divisor of minimal ecart;
    when every divisor has larger ecart than the current remainder, the
    remainder joins the reducer pool (the implicit local unit, and the
    reason the loop terminates).
    """
    pool = list(pool)
    h = dict(h)
    while h:
        lt = max(h, key=keyfn)
        c = h[lt]
        best = None
        for red in pool:
            if red.lead[0] == lt[0] and _divides(red.lead[1], lt[1]):
                if best is None or red.ecart < best.ecart:
                    best = red
        if best is None:
            return h
        if best.ecart > _real_max_degree(h, split) - sum(lt[1]):
            pool.append(_make_reducer(dict(h), keyfn, split))
        _sub_scaled(h, best.terms, _quotient(lt[1], best.lead[1]), c / best.coeff)
    return h


def _spoly_terms(f: _Reducer, g: _Reducer) -> Terms:
    lcm = tuple(max(a, b) for a, b in zip(f.lead[1], g.lead[1]))
    out: Terms = {}
    _sub_scaled(out, f.terms, _quotient(lcm, f.lead[1]), -1 / f.coeff)
    _sub_scaled(out, g.terms, _quotient(lcm, g.lead[1]), _ONE / g.coeff)
    return out


def spoly(f: VectorPoly, g: VectorPoly, keyfn: KeyFn) -> VectorPoly:
    """S-vector; the leading components must agree."""
    rf = _make_reducer(dict(f.terms), keyfn, f.ncomp)
    rg = _make_reducer(dict(g.terms), keyfn, g.ncomp)
    if rf.lead[0] != rg.lead[0]:
        raise ValueError("S-vector needs matching leading components")
    return VectorPoly(f.ring, f.ncomp, _spoly_terms(rf, rg))


def _monic_terms(terms: Terms, keyfn: KeyFn) -> Terms:
    lead = max(terms, key=keyfn)
    c = terms[lead]
    if c == 1:
        return dict(terms)
    return {k: v / c for k, v in terms.items()}


PairKey = tuple[int, Exponent, int, int]  # (degree of the lcm, lcm, i, j)


def _pair_key(leads: Sequence[ModTerm], i: int, j: int) -> PairKey:
    """Selection key of the pair (i, j): smallest lcm degree, then lcm, then indices.

    The indices make every key unique, so a heap of keys pops pairs in one
    fixed order.
    """
    lcm = tuple(max(a, b) for a, b in zip(leads[i][1], leads[j][1]))
    return (sum(lcm), lcm, i, j)


def _chain_covered(
    leads: Sequence[ModTerm], i: int, j: int, lcm: Exponent, walked: set[tuple[int, int]]
) -> bool:
    """Does another lead of the same component divide lcm, with both pairs through it walked?"""
    comp = leads[i][0]
    for k, (kcomp, kexpo) in enumerate(leads):
        if k in (i, j) or kcomp != comp or not _divides(kexpo, lcm):
            continue
        if (min(i, k), max(i, k)) in walked and (min(j, k), max(j, k)) in walked:
            return True
    return False


def _std_engine(seeds: Sequence[Terms], keyfn: KeyFn, split: int) -> list[_Reducer]:
    """Buchberger completion with deterministic pair selection."""
    basis = [_make_reducer(_monic_terms(t, keyfn), keyfn, split) for t in seeds if t]
    if not basis:
        raise ValueError("empty generator list")
    leads = [r.lead for r in basis]
    ncomp = split  # product criterion only applies to honest ideals

    pending: list[PairKey] = []

    def add_pairs(j: int):
        for i in range(j):
            if leads[i][0] == leads[j][0]:
                heappush(pending, _pair_key(leads, i, j))

    for j in range(len(basis)):
        add_pairs(j)

    done: set[tuple[int, int]] = set()
    while pending:
        _, lcm, i, j = heappop(pending)
        coprime = ncomp == 1 and lcm == _shift(leads[i][1], leads[j][1])
        if not coprime and not _chain_covered(leads, i, j, lcm, done):
            h = _nf_global(_spoly_terms(basis[i], basis[j]), basis, keyfn)
            if h:
                basis.append(_make_reducer(_monic_terms(h, keyfn), keyfn, split))
                leads.append(basis[-1].lead)
                add_pairs(len(basis) - 1)
        done.add((i, j))
    return basis


def _minimalize(basis: list[_Reducer], keyfn: KeyFn) -> list[_Reducer]:
    """Drop generators whose lead is divisible by another kept lead."""
    order = sorted(range(len(basis)), key=lambda i: keyfn(basis[i].lead))
    kept: list[_Reducer] = []
    for i in order:
        lt = basis[i].lead
        if any(r.lead[0] == lt[0] and _divides(r.lead[1], lt[1]) for r in kept):
            continue
        kept.append(basis[i])
    return kept


def _verify_complete(basis: Sequence[_Reducer], keyfn: KeyFn):
    """Re-check the Buchberger criterion on the completed generator set.

    The pairs of the final set are walked smallest lcm first.  A pair is
    left out when its leads are coprime and every generator lies in
    component 0 (the product criterion, which fails for modules), or when a
    third lead of the same component divides its lcm and both pairs through
    that lead were walked before it (the chain criterion).  Every other
    S-vector is reduced against the full set and must vanish.

    Soundness, by induction along the walk (Buchberger's second criterion
    applied sequentially, Cox-Little-O'Shea section 2.9): a pair that
    reduces to zero, or has coprime leads, has a representation
    sum a_l g_l with every a_l lead(g_l) below its lcm; if lead(g_k) divides
    lcm(i, j), then S(i, j) is a monomial combination of S(i, k) and S(j, k)
    whose multipliers carry their representations below lcm(i, j).  So
    every pair has such a representation, which is the standard-basis
    property; a minimal subset with the same leading terms inherits it.
    """
    leads = [r.lead for r in basis]
    ideal = all(comp == 0 for r in basis for comp, _ in r.terms)
    pairs = sorted(
        _pair_key(leads, i, j)
        for j in range(len(basis))
        for i in range(j)
        if leads[i][0] == leads[j][0]
    )
    walked: set[tuple[int, int]] = set()
    for _, lcm, i, j in pairs:
        coprime = ideal and lcm == _shift(leads[i][1], leads[j][1])
        if not coprime and not _chain_covered(leads, i, j, lcm, walked):
            if _nf_global(_spoly_terms(basis[i], basis[j]), basis, keyfn):
                raise RuntimeError(
                    f"completion check failed: S-vector of generators {i},{j} "
                    "has nonzero normal form"
                )
        walked.add((i, j))


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


def _local_completion(seeds: list[Terms], order: MonomialOrder, split: int, verify: bool):
    """Standard basis for a local order by Lazard homogenization.

    Each generator is made degree-homogeneous with an extra variable (so
    reduction never needs local unit multiples), a global Buchberger basis
    is computed under degree-then-local-order comparison, and setting the
    extra variable to 1 yields a standard basis for the local order.  This
    sidesteps the tail blow-up Mora's intermediate pool can suffer on
    position-over-term module orders.
    """
    loc_key = order.sort_key

    def hkey(term: ModTerm):
        comp, ext = term
        return (comp, sum(ext), loc_key(ext[1:]))

    hseeds = [_homogenize_terms(terms) for terms in seeds]
    completed = _std_engine(hseeds, hkey, split)
    if verify:
        _verify_complete(completed, hkey)
    out: list[_Reducer] = []
    for r in completed:
        dehom = {(comp, ext[1:]): c for (comp, ext), c in r.terms.items()}
        out.append(_make_reducer(dehom, order.module_key, split))
    return out


def standard_basis(
    gens: Iterable[VectorPoly | Polynomial], order: MonomialOrder, verify: bool = True
) -> StandardBasis:
    """Complete the generators to a standard (Groebner) basis.

    Output is deterministic for a fixed input: fixed selection strategy,
    monic generators sorted by leading term.  With ``verify`` (the default)
    the Buchberger criterion is re-checked on the final set.
    """
    vecs = [v for v in _as_vectors(gens) if not v.is_zero()]
    if not vecs:
        raise ValueError("all generators are zero")
    ring, ncomp = vecs[0].ring, vecs[0].ncomp
    keyfn = order.module_key
    seeds = [dict(v.terms) for v in vecs]
    if order.is_local():
        completed = _local_completion(seeds, order, ncomp, verify)
    else:
        completed = _std_engine(seeds, keyfn, ncomp)
        if verify:
            _verify_complete(completed, keyfn)
    basis = _minimalize(completed, keyfn)
    return StandardBasis(
        generators=tuple(VectorPoly(ring, ncomp, r.terms) for r in basis),
        order=order,
        leading_terms=tuple(r.lead for r in basis),
    )


def normal_form(p: VectorPoly | Polynomial, basis: StandardBasis) -> VectorPoly:
    """Fully reduced remainder (global) or Mora weak normal form (local).

    Zero exactly when p lies in the ideal/submodule (over the local ring
    for local orderings).
    """
    v = VectorPoly.from_poly(p) if isinstance(p, Polynomial) else p
    if v.ring != basis.ring or v.ncomp != basis.ncomp:
        raise ValueError("ring or component mismatch with basis")
    keyfn = basis.order.module_key
    pool = [_make_reducer(dict(g.terms), keyfn, v.ncomp) for g in basis.generators]
    if basis.order.is_local():
        out = _nf_mora(v.terms, pool, keyfn, v.ncomp)
    else:
        out = _nf_global(v.terms, pool, keyfn)
    return VectorPoly(v.ring, v.ncomp, out)


@dataclass(frozen=True)
class Staircase:
    """Monomials outside the leading submodule, when finitely many."""

    standard_monomials: tuple[ModTerm, ...]
    finite: bool
    dimension: int | float  # math.inf when not finite

    def monomials_of_component(self, comp: int) -> list[Exponent]:
        return [e for c, e in self.standard_monomials if c == comp]


def staircase(basis: StandardBasis) -> Staircase:
    """Quotient staircase; finiteness decided by the pure-power criterion."""
    nvars = len(basis.ring)
    per_comp: dict[int, list[Exponent]] = {c: [] for c in range(basis.ncomp)}
    for comp, expo in basis.leading_terms:
        per_comp[comp].append(expo)
    bounds: dict[int, list[int]] = {}
    for comp in range(basis.ncomp):
        comp_bounds = []
        for i in range(nvars):
            pure = [
                e[i]
                for e in per_comp[comp]
                if all(e[j] == 0 for j in range(nvars) if j != i)
            ]
            if not pure:
                return Staircase((), False, inf)
            comp_bounds.append(min(pure))
        bounds[comp] = comp_bounds
    found: list[ModTerm] = []
    for comp in range(basis.ncomp):
        stack: list[list[int]] = [[]]
        while stack:
            prefix = stack.pop()
            if len(prefix) == nvars:
                expo = tuple(prefix)
                if not any(_divides(lead, expo) for lead in per_comp[comp]):
                    found.append((comp, expo))
                continue
            i = len(prefix)
            for e in range(bounds[comp][i]):
                stack.append(prefix + [e])
    found.sort(key=lambda t: (sum(t[1]), t[0], t[1]))
    return Staircase(tuple(found), True, len(found))


def _homogenize_terms(terms: Terms) -> Terms:
    """Pad every exponent with a leading slack entry making degrees equal."""
    top = max(sum(e) for _, e in terms)
    return {(comp, (top - sum(e),) + e): c for (comp, e), c in terms.items()}


def syzygies(gens: Sequence[VectorPoly | Polynomial], order: MonomialOrder) -> list[VectorPoly]:
    """Generators of the syzygy module of the ordered tuple ``gens``.

    Schreyer collection: the generators g_1..g_k in O^r are embedded as
    g_i + e_(r+i) in O^(r+k) under an order where real terms dominate and
    bookkeeping terms compare through the leads they multiply.  Only pairs
    leading in the real block are formed, without pair-skipping criteria
    (a pair whose S-vector dies still contributes its relation); whenever a
    reduction's real part vanishes, its bookkeeping part is one syzygy.

    For a local target order the collection itself runs on the
    degree-homogenized inputs under the induced global order; setting the
    slack variable to 1 turns any homogeneous relation into a relation of
    the original generators, and every polynomial relation arises that way.
    Each returned vector is verified exactly against the inputs.
    """
    vecs = _as_vectors(gens)
    for v in vecs:
        if v.is_zero():
            raise ValueError("zero generator has no meaningful syzygies")
    ring, r = vecs[0].ring, vecs[0].ncomp
    k = len(vecs)
    local = order.is_local()
    skey = order.sort_key

    if local:
        def scalar_key(ext: Exponent):
            return (sum(ext), skey(ext[1:]))

        seeds = [_homogenize_terms(dict(v.terms)) for v in vecs]
        pad = 1
    else:
        scalar_key = skey
        seeds = [dict(v.terms) for v in vecs]
        pad = 0

    zero_expo = (0,) * (len(ring) + pad)
    input_leads = [
        max(terms, key=lambda t: (t[0], scalar_key(t[1]))) for terms in seeds
    ]

    def elim_key(term: ModTerm):
        comp, expo = term
        if comp < r:
            return (1, comp, scalar_key(expo))
        lead_c, lead_e = input_leads[comp - r]
        return (0, lead_c, scalar_key(_shift(expo, lead_e)), -comp)

    basis: list[_Reducer] = []
    for i, terms in enumerate(seeds):
        extended = dict(terms)
        extended[(r + i, zero_expo)] = _ONE
        basis.append(_make_reducer(_monic_terms(extended, elim_key), elim_key, r))
    collected: list[Terms] = []

    leads = [b.lead for b in basis]
    pending = [
        _pair_key(leads, i, j) for j in range(k) for i in range(j) if leads[i][0] == leads[j][0]
    ]
    heapify(pending)
    while pending:
        _, _, i, j = heappop(pending)
        h = _nf_global_real(_spoly_terms(basis[i], basis[j]), basis, elim_key, r)
        if not h:
            continue
        lead = max(h, key=elim_key)
        if lead[0] >= r:
            collected.append(h)
            continue
        basis.append(_make_reducer(_monic_terms(h, elim_key), elim_key, r))
        leads.append(basis[-1].lead)
        jn = len(basis) - 1
        for i2 in range(jn):
            if leads[i2][0] == lead[0]:
                heappush(pending, _pair_key(leads, i2, jn))

    out: list[VectorPoly] = []
    for h in collected:
        merged: Terms = {}
        for (comp, e), c in h.items():
            key = (comp - r, e[pad:])
            new = merged.get(key, _ZERO) + c
            if new:
                merged[key] = new
            else:
                merged.pop(key, None)
        syz = VectorPoly(ring, k, merged)
        if not syz.is_zero() and syz not in out:
            out.append(syz)
    _check_syzygies(vecs, out)
    return out


def _check_syzygies(vecs: Sequence[VectorPoly], syzs: Iterable[VectorPoly]):
    """Raise unless sum_i s_i * vecs[i] is exactly zero for every s in syzs."""
    for syz in syzs:
        total: Terms = {}
        for (slot, expo), c in syz.terms.items():
            _sub_scaled(total, vecs[slot].terms, expo, -c)
        if any(v != 0 for v in total.values()):
            raise RuntimeError("syzygy verification failed")


def _nf_global_real(h: Terms, pool: Sequence[_Reducer], keyfn: KeyFn, split: int) -> Terms:
    """Global-order reduction that stops once the lead leaves the real block."""
    h = dict(h)
    while h:
        lt = max(h, key=keyfn)
        if lt[0] >= split:
            return h
        c = h[lt]
        hit = None
        for red in pool:
            if red.lead[0] == lt[0] and _divides(red.lead[1], lt[1]):
                hit = red
                break
        if hit is None:
            # irreducible real lead: caller promotes h to a new basis element
            return h
        _sub_scaled(h, hit.terms, _quotient(lt[1], hit.lead[1]), c / hit.coeff)
    return h


class ResidueTable:
    """Residue coordinates of every term below the cut of a finite local quotient.

    ``basis`` is a standard basis for a local order with finite ``stair``.
    Rows are filled smallest term first: a standard term maps to its unit
    vector, any other term to minus the shifted tail of the first generator
    whose lead divides it, over that lead's coefficient.
    """

    def __init__(self, basis: StandardBasis, stair: Staircase):
        deg = basis.order.degree
        keyfn = basis.order.module_key
        cut = 1 + max((deg(e) for _, e in stair.standard_monomials), default=-1)
        below = [e for e in product(range(cut), repeat=len(basis.ring)) if deg(e) < cut]
        terms = sorted(((c, e) for c in range(basis.ncomp) for e in below), key=keyfn)
        positions = {t: i for i, t in enumerate(stair.standard_monomials)}
        pool = [_make_reducer(dict(g.terms), keyfn, basis.ncomp) for g in basis.generators]
        rows: dict[ModTerm, dict[int, Fraction]] = {}
        for comp, expo in terms:
            if (comp, expo) in positions:
                rows[(comp, expo)] = {positions[(comp, expo)]: _ONE}
                continue
            red = next(r for r in pool if r.lead[0] == comp and _divides(r.lead[1], expo))
            shift = _quotient(expo, red.lead[1])
            row: dict[int, Fraction] = {}
            for (tcomp, texpo), c in red.terms.items():
                if (tcomp, texpo) == red.lead:
                    continue
                # each tail term is smaller than the lead: its row is known,
                # or it lies beyond the cut and is zero
                factor = -c / red.coeff
                for j, a in rows.get((tcomp, _shift(texpo, shift)), {}).items():
                    row[j] = row.get(j, _ZERO) + factor * a
            rows[(comp, expo)] = {j: a for j, a in row.items() if a}
        self.size = len(positions)
        self.rows = rows

    def residue(self, terms: Terms) -> dict[int, Fraction]:
        """Nonzero coordinates of the residue of a term map, by standard-monomial index.

        A term past the cut lies in the ideal and contributes nothing.
        """
        out: dict[int, Fraction] = {}
        for term, c in terms.items():
            for j, a in self.rows.get(term, {}).items():
                out[j] = out.get(j, _ZERO) + c * a
        return {j: a for j, a in out.items() if a}

    def coordinates(self, terms: Terms) -> list[Fraction]:
        """Coordinates over the standard monomials of the residue of a term map."""
        out = [_ZERO] * self.size
        for j, a in self.residue(terms).items():
            out[j] = a
        return out


def quotient_coordinates(
    p: VectorPoly | Polynomial, basis: StandardBasis, stair: Staircase
) -> list[Fraction]:
    """Coordinates of the residue class of p over the standard monomials.

    For a global ordering this is the fully reduced normal form.  For the
    degree-compatible local orderings it is a lookup in the ``ResidueTable``
    of the quotient, built for this call.
    """
    v = VectorPoly.from_poly(p) if isinstance(p, Polynomial) else p
    if v.ring != basis.ring or v.ncomp != basis.ncomp:
        raise ValueError("ring or component mismatch with basis")
    if not stair.finite:
        raise ValueError("quotient is not finite dimensional")
    if basis.order.is_global():
        keyfn = basis.order.module_key
        pool = [_make_reducer(dict(g.terms), keyfn, v.ncomp) for g in basis.generators]
        positions = {t: i for i, t in enumerate(stair.standard_monomials)}
        coords = [_ZERO] * len(positions)
        for term, coeff in _nf_global(v.terms, pool, keyfn).items():
            coords[positions[term]] = coeff
        return coords
    return ResidueTable(basis, stair).coordinates(v.terms)
