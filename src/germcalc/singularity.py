"""Invariants of a singular germ at the origin.

Hypersurface germs {f = 0}: Milnor number (local Jacobian algebra), Tjurina
number with the monomial basis of the Tjurina algebra, quasi-homogeneous
weight detection, and weight grading.  Complete intersections (k >= 2
equations) get the Tjurina number of the quotient of O^k by the Jacobian
columns and the equation multiples.

Each germ's Milnor and Tjurina algebras are built once: ``milnor_algebra``
and ``tjurina_algebra`` each keep the last one asked for.
``GradedT1.weight_data`` holds the weights found with the Tjurina algebra,
and ``GradedT1.stair`` its staircase, which holds the standard basis, reads
residue coordinates off its own residue rows (each filled once, when a
residue first reaches it) and gives the monomial basis and tau.

A germ runs one completion, that of the Milnor algebra M = O/J, J = (df).
The Tjurina algebra T1 = O/(f, J) is M/[f]M, and [f]M is spanned by the
residues [x^b f], so T1 is read off M's residues by linear algebra (the
FGLM view of a zero-dimensional quotient: Faugere, Gianni, Lazard and
Mora, JSC 1993).  ``_tjurina_staircase`` forms only the residues that
can add to the span, by a multiplication closure, and reads T1's
staircase off the pivots.

The closure.  Exponents b leave a heap in increasing DEGREVLEX order, a
global order, so every divisor of b leaves before it.  Call b dead when
[x^b f] lies in the span of the [x^c f] with c before b, live otherwise.
If b is dead, [x^b f] = sum l_c [x^c f], and multiplying by x^a in M
gives [x^(b+a) f] = sum l_c [x^(c+a) f], each c + a before b + a since a
monomial order is multiplicative: the multiples of a dead exponent are
dead, and the live set is closed under division.  So the walk forms
[x^b f], and puts it into one echelon (``linalg._insert``), only when
every parent b - e_i is live; b is live when its residue is independent
of the echelon, and then its children join the heap.  By induction in
the order, the echelon spans all earlier [x^c f] when b leaves: a c
that was formed is in it, and one that was not has a dead parent or was
never pushed, so it is dead and its residue lies in the span before it.
The live residues therefore span [f]M, and the reduced row echelon form
of a span is unique, so the pivots and all that is read off them are
those of the residues of every Milnor monomial.  The walk ends: a term
whose degree reaches the cut of M's staircase lies in J, so
``_shifted_residue`` drops it before forming its key, and [x^b f] = 0, a
dead b, once deg b reaches the cut.  Each child joins the heap once,
from the first of its live parents to leave it.
Only [f] reads the terms of f; any other [x^b f] is the residue of
x_i sum r_j m_j, r the kept residue of the live parent b - e_i, i the
first nonzero entry of b: if x^(b - e_i) f - sum r_j m_j lies in J, so
does x_i times it.

The staircase.  With the columns in decreasing local order, the pivots
are exactly the leading monomials of (f) + J that are standard for J: an
element g of (f) + J whose lead x^a lies outside L(J) differs from its
residue r by an element of J, and if r had another lead, so would g
minus r, outside L(J).  So the Milnor generators and one monic element
per pivot form a standard basis of (f) + J, and T1's standard monomials
are M's minus the pivot leads, read off with no regrowth of the
staircase; its residues and monomial basis are those the completion of
(f, df) would give.  With no pivot, [f] = 0 and T1 is M, table and all.
The Milnor basis carries the certificate, and the echelon is exact
arithmetic.

Non-isolated singularities are reported with ``math.inf``, never with a
degree cutoff: finiteness detection is the exact pure-power criterion of
the staircase.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from heapq import heappop, heappush
from math import gcd, inf, lcm
from operator import add, sub

from . import linalg
from .groebner import StandardBasis, Staircase, VectorPoly, staircase, standard_basis
from .orders import DEGREVLEX, NEGDEGREVLEX
from .poly import Exponent, Polynomial

INFINITE = inf  # marker for non-isolated singularities


class NonIsolatedError(ValueError):
    """Raised when an operation needs a finite Tjurina algebra."""


@dataclass(frozen=True)
class GermInput:
    """One or more equations cutting out a germ based at the origin."""

    equations: tuple[Polynomial, ...]

    def __post_init__(self):
        if not self.equations:
            raise ValueError("a germ needs at least one equation")
        ring = self.equations[0].ring
        for f in self.equations:
            if f.ring != ring:
                raise ValueError("equations from different rings")
            if f.constant_term() != 0:
                raise ValueError("equation does not vanish at the origin")

    @property
    def ring(self) -> tuple[str, ...]:
        return self.equations[0].ring

    @property
    def k(self) -> int:
        return len(self.equations)


@dataclass(frozen=True)
class WeightData:
    """Positive primitive integer weights w and degree d with gcd(w, d) = 1."""

    weights: tuple[int, ...]
    degree: int

    def monomial_weight(self, expo: Exponent) -> int:
        return sum(w * e for w, e in zip(self.weights, expo))


@dataclass(frozen=True)
class GradedT1:
    """Monomial basis of the Tjurina algebra, with weights when graded.

    Only the grading (``weight_data``, None when not graded) and the
    staircase are stored; the ring, the basis and its weights are read off.
    """

    weight_data: WeightData | None
    stair: Staircase

    @property
    def ring(self) -> tuple[str, ...]:
        return self.stair.basis.ring

    @cached_property
    def weights(self) -> tuple[int, ...] | None:
        """The weight of each basis monomial, in order; None when not graded."""
        w = self.weight_data
        return None if w is None else tuple(w.monomial_weight(e) for e in self.monomials)

    @property
    def monomials(self) -> tuple[Exponent, ...]:
        return tuple(e for _, e in self.stair.standard_monomials)

    @property
    def tau(self) -> int:
        return self.stair.dimension

    def is_graded(self) -> bool:
        return self.weight_data is not None

    def coordinates(self, p: Polynomial) -> list[Fraction]:
        """Coordinates of the residue class of p over ``monomials``."""
        if p.ring != self.ring:
            raise ValueError("polynomial from a different ring")
        return self.stair.coordinates({(0, e): c for e, c in p.terms.items()})


def _jacobian(f: Polynomial) -> list[Polynomial]:
    return [f.partial_derivative(v) for v in f.ring]


def _hypersurface(germ: GermInput) -> Polynomial:
    """The one equation of a hypersurface germ; ValueError unless there is one, nonzero."""
    if germ.k != 1:
        raise ValueError(f"a hypersurface germ has one equation, not {germ.k}; see icis_tjurina")
    f = germ.equations[0]
    if f.is_zero():
        raise ValueError("zero polynomial does not define a germ")
    return f


def milnor_number(germ: GermInput) -> int | float:
    """dim of the local Jacobian algebra O/(df); inf when non-isolated."""
    return milnor_algebra(_hypersurface(germ)).dimension


@lru_cache(maxsize=1)
def milnor_algebra(f: Polynomial) -> Staircase:
    """Staircase of the Jacobian standard basis of f, kept for the last f (one germ at a time)."""
    return staircase(standard_basis(_jacobian(f), NEGDEGREVLEX))


def tjurina_number(germ: GermInput) -> tuple[int | float, GradedT1 | None]:
    """dim of O/(f, df) plus the graded monomial basis of the quotient.

    Returns (inf, None) for a non-isolated singularity.  When the germ is
    quasi-homogeneous in the given coordinates, each basis monomial carries
    its weight.  The quotient is read off the Milnor algebra M
    (``milnor_algebra``), with no completion of its own: mu is finite
    exactly when tau is, and T1's staircase is M's minus the pivots of
    [f]M (``_tjurina_staircase``), M's itself when [f] = 0.  The weights
    only grade it.
    """
    f = _hypersurface(germ)
    milnor = milnor_algebra(f)
    if not milnor.finite:
        return INFINITE, None
    st = _tjurina_staircase(f, milnor)
    return st.dimension, GradedT1(weight_data=find_weights(f), stair=st)


def _shifted_residue(
    stair: Staircase, h: dict[Exponent, Fraction | int], b: Exponent
) -> dict[int, Fraction]:
    """Residue coordinates of x^b h in the quotient of ``stair``, by standard-monomial index.

    A term of x^b h whose degree reaches ``stair.cut`` lies in the submodule,
    so it is dropped before its key is formed.
    """
    degree = stair.basis.order.degree
    room = stair.cut - degree(b)
    return stair.residue({(0, tuple(map(add, e, b))): c for e, c in h.items() if degree(e) < room})


def _tjurina_staircase(f: Polynomial, milnor: Staircase) -> Staircase:
    """Staircase of (f) + J from the finite Milnor staircase of J.

    The multiplication closure of the module docstring: exponents b leave a
    heap in increasing DEGREVLEX order, starting at 0, and [x^b f] is formed
    only when every parent b - e_i is live, [f] from f's terms and any
    other as x_i times the kept residue of b - e_i.  It goes into one echelon
    (``linalg._insert``) whose column 0 is the largest Milnor monomial in
    the local order; b is live when it adds a pivot, and then its children
    b + e_i that have not yet joined the heap join it.  Each pivot row is
    monic at its lead, with its tail on smaller non-pivot monomials, and
    joins the Milnor generators in column order; by the pivot claim the
    result is a standard basis of (f) + J, whose standard monomials are M's
    minus the pivot leads, in M's order.  With no pivot ([f] = 0) it is
    ``milnor`` itself.
    """
    sb, monomials = milnor.basis, [e for _, e in milnor.standard_monomials]
    ordered = sorted(monomials, key=sb.order.sort_key, reverse=True)  # column 0 the largest
    column = {e: c for c, e in enumerate(ordered)}
    zero = (0,) * len(f.ring)
    units = [zero[:i] + (1,) + zero[i + 1 :] for i in range(len(zero))]
    heap, pushed, live, pivots = [(DEGREVLEX.sort_key(zero), zero)], {zero}, {}, {}
    while heap:
        _, b = heappop(heap)
        if any(e and tuple(map(sub, b, u)) not in live for e, u in zip(b, units)):
            continue  # a dead parent: [x^b f] lies in the span already
        u = next((u for e, u in zip(b, units) if e), None)  # e_i, i the first nonzero entry of b
        h = live[tuple(map(sub, b, u))] if u else f.terms  # [x^b f] = x_i [x^(b - e_i) f]
        residue = {monomials[j]: a for j, a in _shifted_residue(milnor, h, u or zero).items()}
        if linalg._insert(pivots, {column[e]: a for e, a in residue.items()}):
            live[b] = residue
            for child in {tuple(map(add, b, u)) for u in units} - pushed:
                pushed.add(child)
                heappush(heap, (DEGREVLEX.sort_key(child), child))
    if not pivots:
        return milnor
    rows = sorted(pivots.items())  # column order
    leads = tuple((0, ordered[p]) for p, _ in rows)
    extra = tuple(
        VectorPoly(f.ring, 1, {lead: 1, **{(0, ordered[k]): t for k, t in tail.items()}})
        for lead, (_, tail) in zip(leads, rows)
    )
    basis = StandardBasis(sb.generators + extra, sb.order, sb.leading_terms + leads)
    kept = tuple(t for t in milnor.standard_monomials if column[t[1]] not in pivots)
    return Staircase(kept, True, basis)


@lru_cache(maxsize=1)
def tjurina_algebra(f: Polynomial) -> tuple[int | float, GradedT1 | None]:
    """``tjurina_number`` of the hypersurface f, kept for the last f (one germ at a time)."""
    return tjurina_number(GermInput((f,)))


def find_weights(f: Polynomial) -> WeightData | None:
    """Positive integer weights making every term of f the same degree.

    Solves w . alpha - d = 0 over the support of f: the kernel of the rows
    (alpha, -1) over (w, d) (``linalg.kernel_basis``), one vector per free
    column.  When d is free, one vector has d = 1 and the others d = 0, so
    w is the w-part of the first plus half the w-parts of the others: free
    weights pinned at d/2, normalized to d = 1.  When d is a pivot, every
    solution has d = 0 and there is none.  The solution is re-checked on
    every exponent, then scaled to a primitive integer vector with
    gcd(w, d) = 1.  Returns None when that one solution has a weight <= 0.
    With free weights this can miss a positive solution that needs other
    values: x*y^2+z^2 gives None, though weights (2, 1, 2) of degree 4 fit.
    """
    if f.is_zero():
        raise ValueError("zero polynomial has no weights")
    exponents = sorted(f.terms)
    nvars = len(f.ring)
    kernel = linalg.kernel_basis([list(expo) + [-1] for expo in exponents], nvars + 1)
    scaled = [v for v in kernel if v[nvars]]
    if not scaled:
        return None  # inconsistent: the support forces d = 0
    free = [v for v in kernel if not v[nvars]]
    solution = [w + Fraction(sum(v[i] for v in free), 2) for i, w in enumerate(scaled[0][:nvars])]
    for expo in exponents:
        if sum(w * e for w, e in zip(solution, expo)) != 1:
            return None
    if any(w <= 0 for w in solution):
        return None
    scale = lcm(*(w.denominator for w in solution))
    ints = [int(w * scale) for w in solution] + [scale]
    g = gcd(*ints)
    return WeightData(weights=tuple(v // g for v in ints[:-1]), degree=scale // g)


def graded_piece(t1: GradedT1, wdata: WeightData, target_weight: int) -> list[Exponent]:
    """Basis monomials of the Tjurina algebra of exactly the target weight.

    ``wdata`` must be the grading the algebra was built with,
    ``t1.weight_data``; any other weights raise ValueError.
    """
    if not t1.is_graded():
        raise ValueError("Tjurina algebra is not graded (no weights found)")
    if wdata != t1.weight_data:
        raise ValueError(f"weights {wdata} are not the grading {t1.weight_data} of the algebra")
    return [e for e, w in zip(t1.monomials, t1.weights) if w == target_weight]


def icis_tjurina(germ: GermInput) -> int | float:
    """Tjurina number of a complete intersection germ (k equations).

    dim of O^k modulo the submodule spanned by the Jacobian columns
    (df_1/dx_j, ..., df_k/dx_j) and by f_i e_l; reduces to the hypersurface
    Tjurina number at k = 1.  inf when the singularity is not isolated.
    """
    k, ring = germ.k, germ.ring
    if k > len(ring):
        raise ValueError("more equations than variables")
    gens = [
        VectorPoly.from_polys([f.partial_derivative(var) for f in germ.equations]) for var in ring
    ]
    zero = Polynomial.zero(ring)
    for f in germ.equations:
        for slot in range(k):
            parts = [zero] * k
            parts[slot] = f
            gens.append(VectorPoly.from_polys(parts))
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("degenerate input: all generators vanish")
    sb = standard_basis(gens, NEGDEGREVLEX)
    return staircase(sb).dimension
