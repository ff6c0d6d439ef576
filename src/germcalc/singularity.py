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
residues [x^b f] over the Milnor monomials x^b, so T1 is read off M's
residues by linear algebra (the FGLM view of a zero-dimensional
quotient: Faugere, Gianni, Lazard and Mora, JSC 1993).  With the columns in
decreasing local order, the pivots of those residues are exactly the
leading monomials of (f) + J that are standard for J: an element g of
(f) + J whose lead x^a lies outside L(J) differs from its residue r by an
element of J, and if r had another lead, so would g minus r, outside L(J).
So the Milnor generators and one monic element per pivot form a standard
basis of (f) + J (``_tjurina_staircase``), with the staircase, the
residues and the monomial basis the completion of (f, df) would give; the
Milnor basis carries the certificate, and the echelon is exact arithmetic.

Non-isolated singularities are reported with ``math.inf``, never with a
degree cutoff: finiteness detection is the exact pure-power criterion of
the staircase.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, inf, lcm
from operator import add

from . import linalg
from .groebner import StandardBasis, Staircase, VectorPoly, staircase, standard_basis
from .orders import NEGDEGREVLEX
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
    exactly when tau is; with weights, f lies in the Jacobian ideal (Euler's
    identity), so T1 is M itself; otherwise its standard basis extends M's
    by the pivots of [f]M (``_tjurina_staircase``).
    """
    f = _hypersurface(germ)
    milnor = milnor_algebra(f)
    if not milnor.finite:
        return INFINITE, None
    wdata = find_weights(f)
    st = milnor if wdata is not None else _tjurina_staircase(f, milnor)
    return st.dimension, GradedT1(weight_data=wdata, stair=st)


def _shifted_residue(
    stair: Staircase, h: dict[Exponent, Fraction | int], b: Exponent
) -> dict[int, Fraction]:
    """Residue coordinates of x^b h in the quotient of ``stair``, by standard-monomial index."""
    return stair.residue({(0, tuple(map(add, e, b))): c for e, c in h.items()})


def _tjurina_staircase(f: Polynomial, milnor: Staircase) -> Staircase:
    """Staircase of (f) + J from the finite Milnor staircase of J.

    The residues [x^b f] over the Milnor monomials go into one echelon
    (``linalg._insert``) whose column 0 is the largest Milnor monomial in the
    local order, so each pivot row is monic at its lead and its tail lies on
    smaller non-pivot monomials.  Each pivot row x^(a_p) + sum_k t_k x^(a_k)
    joins the Milnor generators; by the pivot claim of the module docstring
    the result is a standard basis of (f) + J.
    """
    sb, monomials = milnor.basis, [e for _, e in milnor.standard_monomials]
    ordered = sorted(monomials, key=sb.order.sort_key, reverse=True)  # column 0 the largest
    column = {e: c for c, e in enumerate(ordered)}
    pivots: dict[int, dict[int, Fraction]] = {}
    for b in monomials:
        residue = _shifted_residue(milnor, f.terms, b)
        linalg._insert(pivots, {column[monomials[j]]: a for j, a in residue.items()})
    leads = tuple((0, ordered[p]) for p in pivots)
    extra = tuple(
        VectorPoly(f.ring, 1, {lead: 1, **{(0, ordered[k]): t for k, t in tail.items()}})
        for lead, tail in zip(leads, pivots.values())
    )
    return staircase(StandardBasis(sb.generators + extra, sb.order, sb.leading_terms + leads))


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
