"""Shared germ catalog for the test suite.

Expected integer values were fixed ahead of time by an independent
truncated-linear-algebra computation (and, for the quasi-homogeneous
entries, by the closed forms they satisfy); the engine must reproduce
them exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from itertools import product
from operator import add
from typing import Callable, Sequence

import pytest

from germcalc import GermInput, Polynomial, VectorPoly, linalg, parse_poly
from germcalc.groebner import _CONTENT_EVERY, _ONE, StandardBasis, staircase, standard_basis
from germcalc.orders import NEGDEGREVLEX
from germcalc.packed import (
    PackedTerm,
    Packing,
    Row,
    _divisors,
    _eliminate,
    _primitive,
    _rational,
    _Reducer,
    _reducer,
    _remove_content,
    packing,
)

V2 = ("x", "y")
V3 = ("x", "y", "z")


@dataclass(frozen=True)
class CatalogGerm:
    name: str
    text: str
    vars: tuple[str, ...]
    mu: int
    tau: int
    quasi_homogeneous: bool
    modular_dim: int


# modular_dim values for the non weighted-homogeneous entries are recorded
# regression values (first-order data), not literature assertions
CATALOG = [
    CatalogGerm("t333_l0", "x^3+y^3+z^3", V3, 8, 8, True, 1),
    CatalogGerm("t333_l1", "x^3+y^3+z^3+x*y*z", V3, 8, 8, True, 1),
    CatalogGerm("t333_l5", "x^3+y^3+z^3+5*x*y*z", V3, 8, 8, True, 1),
    CatalogGerm("t442_l1", "x^4+y^4+z^2+x*y*z", V3, 9, 9, True, 1),
    CatalogGerm("t442_l2", "x^4+y^4+z^2+2*x*y*z", V3, 9, 9, True, 1),
    CatalogGerm("t632_l1", "x^6+y^3+z^2+x*y*z", V3, 10, 10, True, 1),
    CatalogGerm("t632_l2", "x^6+y^3+z^2+2*x*y*z", V3, 10, 10, True, 1),
    CatalogGerm("a1", "x^2+y^2+z^2", V3, 1, 1, True, 0),
    CatalogGerm("a2", "x^3+y^2+z^2", V3, 2, 2, True, 0),
    CatalogGerm("a3", "x^4+y^2+z^2", V3, 3, 3, True, 0),
    CatalogGerm("a4", "x^5+y^2+z^2", V3, 4, 4, True, 0),
    CatalogGerm("a5", "x^6+y^2+z^2", V3, 5, 5, True, 0),
    CatalogGerm("d4", "x^2*y+y^3+z^2", V3, 4, 4, True, 0),
    CatalogGerm("e6", "x^3+y^4+z^2", V3, 6, 6, True, 0),
    CatalogGerm("t433", "x^4+y^3+z^3+x*y*z", V3, 9, 8, False, 3),
    CatalogGerm("t642", "x^6+y^4+z^2+x*y*z", V3, 11, 10, False, 2),
    CatalogGerm("fermat_3_2", "x^3+y^3", V2, 4, 4, True, 0),
    CatalogGerm("fermat_4_3", "x^4+y^4+z^4", V3, 27, 27, True, 6),
    CatalogGerm("martin_t1", "x^4-x^2*y^2+y^4+y^5", V2, 9, 9, False, 1),
    CatalogGerm("martin_t14", "x^4-x^2*y^2+1/4*y^4+y^5", V2, 11, 10, False, 2),
    CatalogGerm("martin_t0", "x^4-x^2*y^2+y^5", V2, 10, 9, False, 2),
]

CATALOG_BY_NAME = {g.name: g for g in CATALOG}


@lru_cache(maxsize=None)
def cached_poly(text: str, vars: tuple[str, ...]):
    return parse_poly(text, vars)


@lru_cache(maxsize=None)
def cached_tjurina(text: str, vars: tuple[str, ...]):
    from germcalc import tjurina_number

    return tjurina_number(GermInput((cached_poly(text, vars),)))


@lru_cache(maxsize=None)
def cached_modular(text: str, vars: tuple[str, ...]):
    from germcalc import modular_tangent_space

    return modular_tangent_space(cached_poly(text, vars))


@lru_cache(maxsize=None)
def cached_derivations(text: str, vars: tuple[str, ...]):
    from germcalc import derivation_module

    return tuple(derivation_module(cached_poly(text, vars)))


def dense_rref(rows):
    """Reference RREF: the plain dense column sweep, apart from ``germcalc.linalg``.

    Pivots on the first nonzero entry in row order, column by column, and
    clears each pivot column in every other row.
    """
    m = [[Fraction(v) for v in row] for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def dense_kernel(rows, ncols):
    """Reference kernel basis read off ``dense_rref``, one vector per free column."""
    red, pivots = dense_rref(rows)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][free]
        basis.append(v)
    return basis


@pytest.fixture(scope="session")
def catalog():
    return CATALOG


# -- rational division references, apart from the engine's integer rows --------
#
# A monic row is a pair (lead, terms): a rational term map whose coefficient
# at ``lead`` is 1.  These helpers share no code with ``germcalc.groebner``,
# so a fault in the engine's integer arithmetic cannot corrupt both the
# engine and the reference it is checked against.


def monic_row(terms, keyfn, lead=None):
    """The monic row of a term map; the lead defaults to the largest term under ``keyfn``."""
    lead = max(terms, key=keyfn) if lead is None else lead
    c = Fraction(terms[lead])
    return lead, {t: Fraction(v) / c for t, v in terms.items()}


def sub_multiple(h, terms, shift, factor):
    """h -= factor * x^shift * terms over the rationals, in place."""
    for (comp, expo), c in terms.items():
        key = (comp, tuple(a + b for a, b in zip(expo, shift)))
        new = h.get(key, 0) - factor * c
        if new:
            h[key] = new
        else:
            h.pop(key, None)


def monic_spoly(f, g):
    """S-vector x^a f - x^b g of two monic rows whose leads share a component."""
    (_, fe), (_, ge) = f[0], g[0]
    lcm = tuple(max(a, b) for a, b in zip(fe, ge))
    out = {}
    sub_multiple(out, f[1], tuple(m - a for a, m in zip(fe, lcm)), -1)
    sub_multiple(out, g[1], tuple(m - b for b, m in zip(ge, lcm)), 1)
    return out


def first_divisor(pool, term):
    """The first monic row whose lead divides ``term``, by a plain scan (no mask)."""
    comp, expo = term
    for row in pool:
        lcomp, lexpo = row[0]
        if lcomp == comp and all(a <= b for a, b in zip(lexpo, expo)):
            return row
    return None


def top_reduce(h, pool, keyfn, stop=lambda term: False):
    """Top reduction by ``first_divisor`` until h dies, its lead is stuck, or ``stop(lead)``."""
    h = {t: Fraction(c) for t, c in h.items()}
    while h:
        lt = max(h, key=keyfn)
        hit = None if stop(lt) else first_divisor(pool, lt)
        if hit is None:
            break
        (_, le), terms = hit
        sub_multiple(h, terms, tuple(b - a for a, b in zip(le, lt[1])), h[lt])
    return h


def full_division(h, pool, keyfn):
    """Remainder of the full division algorithm: stuck leads are set aside."""
    rest = {}
    while h := top_reduce(h, pool, keyfn):
        lt = max(h, key=keyfn)
        rest[lt] = h.pop(lt)
    return rest


def pair_key(leads, i, j):
    """Selection key of a pair on tuple leads: lcm degree, lcm tuple, then the indices."""
    lcm = tuple(max(a, b) for a, b in zip(leads[i][1], leads[j][1]))
    return (sum(lcm), lcm, i, j)


def reference_walk(seeds, keyfn, split):
    """The lead pairs Buchberger's loop reduces, in order, under Gebauer and Moeller's update.

    A test-local copy of the engine's walk on exponent tuples and monic
    rational rows, written after Becker and Weispfenning's UPDATE
    (Groebner Bases, Springer 1993) with its choices fixed.  The
    elements join one at a time, the seeds first.  When t joins, its
    candidate pairs (i, t), i < t in t's component, are visited from the
    largest i down: one is kept when its leads are coprime (every seed term
    in component 0), or when no other candidate still unvisited or kept has
    an lcm dividing its own; so of equal lcms the smallest i stays.  Then
    the coprime ones go.  A pending pair (i, j) goes when lead t divides
    its lcm m and neither lcm(i, t) nor lcm(j, t) equals m.  Pending pairs
    are reduced smallest ``pair_key`` first.  A nonzero remainder whose
    lead lies below component ``split`` joins; one at or above it is set
    aside, as the engine sets aside a relation.
    """
    basis = [monic_row(t, keyfn) for t in seeds if t]
    ideal = all(comp == 0 for _, terms in basis for comp, _ in terms)
    leads = []
    pending = set()

    def lcm(i, j):
        return tuple(max(a, b) for a, b in zip(leads[i][1], leads[j][1]))

    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    def coprime(i, t):
        return ideal and all(min(a, b) == 0 for a, b in zip(leads[i][1], leads[t][1]))

    def join(lead_t):
        leads.append(lead_t)
        t = len(leads) - 1
        comp, lead = lead_t
        unvisited = [i for i in range(t) if leads[i][0] == comp]
        kept = []
        while unvisited:
            i = unvisited.pop()
            if coprime(i, t) or not any(divides(lcm(k, t), lcm(i, t)) for k in unvisited + kept):
                kept.append(i)
        for i, j in list(pending):
            m = lcm(i, j)
            if leads[i][0] == comp and divides(lead, m) and m not in (lcm(i, t), lcm(j, t)):
                pending.remove((i, j))
        pending.update((i, t) for i in kept if not coprime(i, t))

    for lead_t, _ in basis:
        join(lead_t)
    reduced = []
    while pending:
        i, j = min(pending, key=lambda pair: pair_key(leads, *pair))
        pending.remove((i, j))
        reduced.append((leads[i], leads[j]))
        h = full_division(monic_spoly(basis[i], basis[j]), basis, keyfn)
        if h and max(h, key=keyfn)[0] < split:
            basis.append(monic_row(h, keyfn))
            join(basis[-1][0])
    return reduced


# -- the engine's packed exponents, for tests that drive its internals ------------


def engine_key(order):
    """The engine's term order as a tuple key, apart from its packing.

    A global order is its own module key.  A local order is completed on
    slack-padded terms (Lazard's method): component, then total degree,
    then the local order on the exponent after the slack entry.
    """
    if order.is_global():
        return order.module_key

    def key(term):
        comp, ext = term
        return (comp, sum(ext), order.sort_key(ext[1:]))

    return key


def engine_pool(term_maps, keyfn, pk):
    """The engine's reducers of tuple term maps on the packing ``pk``.

    Each lead is the plain ``max`` of the packed terms, as in the engine,
    and must be the largest term under the tuple key ``keyfn``.
    """
    from germcalc.packed import _primitive, _reducer

    rows = [_primitive(pk.pack_terms(t))[0] for t in term_maps]
    pool = [_reducer(max(row), row, pk) for row in rows]
    key = pk.keyed(keyfn)
    assert [red.lead for red in pool] == [max(row, key=key) for row in rows]
    return pool


def unpacked_lead(red, pk):
    return red.lead[0], pk.unpack(red.lead[1])


# -- Mora's weak normal form, the reference for local membership -------------
#
# The tangent-cone algorithm (Greuel and Pfister, A Singular Introduction to
# Commutative Algebra, 1.7), on the engine's integer rows.  The library
# reads a local normal form off the staircase's residue table instead, and
# refuses an infinite staircase; this decides membership in any submodule
# of a local order, for example a syzygy module, and is the independent
# answer the residue table is checked against.  It can stall on a minimal
# local basis (the Jacobian basis of x^7+y^5+z^4+x^2*y*z+x*y^3*z^2), so
# keep it to small inputs.


def _ecart(terms: Row, lead: PackedTerm, degree: Callable[[int], int]) -> int:
    return max(degree(e) for _, e in terms) - degree(lead[1])


def _nf_mora(
    h: Row, pool: Sequence[_Reducer], keyfn: Callable[[PackedTerm], object], pk: Packing
) -> tuple[Row, Fraction]:
    """Mora weak normal form for local orderings, fraction-free, and its scale.

    Reduces the leading term only, choosing the first divisor of minimal
    ecart (largest total degree minus the degree of the lead); when every
    divisor has larger ecart than the current remainder, the remainder joins
    the pool (the implicit local unit, and the reason the loop terminates).
    An ecart is computed only when compared: a pool row's once, on first
    use, the remainder's (never negative) only against a positive one.  The
    scale is as in ``germcalc.groebner._nf_global``.
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


def mora_normal_form(p, sb):
    """Mora weak normal form of p against a standard basis of a local order.

    Zero exactly when p lies in the ideal/submodule over the local ring.
    """
    v = VectorPoly.from_poly(p) if isinstance(p, Polynomial) else p
    assert sb.order.is_local() and (v.ring, v.ncomp) == (sb.ring, sb.ncomp)
    pk = packing(len(v.ring))
    row, scale = _primitive(pk.pack_terms(v.terms))
    pool = [
        _reducer((lead[0], pk.pack(lead[1])), _primitive(pk.pack_terms(g.terms))[0], pk)
        for g, lead in zip(sb.generators, sb.leading_terms)
    ]
    h, h_scale = _nf_mora(row, pool, cache(pk.keyed(sb.order.module_key)), pk)
    return VectorPoly(v.ring, v.ncomp, pk.unpack_terms(_rational(h, scale * h_scale)))


# -- the Tjurina algebra by its own completion ----------------------------------
#
# The library reads the Tjurina algebra off the Milnor algebra (the echelon
# of the residues [x^b f]); this completes (f, df) as the library once did,
# certificate included, and is the independent answer it is checked against.


def tjurina_reference(f):
    """Staircase of the completed local standard basis of (f, df)."""
    return staircase(
        standard_basis([f] + [f.partial_derivative(v) for v in f.ring], NEGDEGREVLEX)
    )


def tjurina_echelon_reference(f, milnor):
    """Staircase of (f) + J from the finite Milnor staircase of J, by the loop
    over every Milnor monomial: each residue [x^b f] goes into one echelon
    whose column 0 is the largest Milnor monomial in the local order, each
    pivot row joins the Milnor generators in column order, and the staircase
    is grown afresh from the leads (``staircase``)."""
    sb, monomials = milnor.basis, [e for _, e in milnor.standard_monomials]
    ordered = sorted(monomials, key=sb.order.sort_key, reverse=True)
    column = {e: c for c, e in enumerate(ordered)}
    pivots = {}
    for b in monomials:
        shifted = {(0, tuple(map(add, e, b))): c for e, c in f.terms.items()}
        residue = milnor.residue(shifted)
        linalg._insert(pivots, {column[monomials[j]]: a for j, a in residue.items()})
    rows = sorted(pivots.items())
    leads = tuple((0, ordered[p]) for p, _ in rows)
    extra = tuple(
        VectorPoly(f.ring, 1, {lead: 1, **{(0, ordered[k]): t for k, t in tail.items()}})
        for lead, (_, tail) in zip(leads, rows)
    )
    return staircase(StandardBasis(sb.generators + extra, sb.order, sb.leading_terms + leads))


def residue_table(stair):
    """The residue of every term below the cut, each asked of ``Staircase.residue``
    on its own: the whole table, whichever rows the staircase fills on demand.
    The terms are those of the cube range(cut)^n whose degree is below the cut."""
    sb, order = stair.basis, stair.basis.order
    cut = 1 + max((order.degree(e) for _, e in stair.standard_monomials), default=-1)
    below = [e for e in product(range(cut), repeat=len(sb.ring)) if order.degree(e) < cut]
    return {(c, e): stair.residue({(c, e): 1}) for c in range(sb.ncomp) for e in below}
