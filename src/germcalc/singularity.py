"""Invariants of a singular germ at the origin.

Hypersurface germs {f = 0}: Milnor number (local Jacobian algebra), Tjurina
number with the monomial basis of the Tjurina algebra, quasi-homogeneous
weight detection, and weight grading.  Complete intersections (k >= 2
equations) get the Tjurina number of the quotient of O^k by the Jacobian
columns and the equation multiples.

Non-isolated singularities are reported with ``math.inf``, never with a
degree cutoff: finiteness detection is the exact pure-power criterion of
the staircase.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, inf
from typing import Mapping

from . import linalg
from .groebner import (
    ResidueTable,
    StandardBasis,
    Staircase,
    VectorPoly,
    staircase,
    standard_basis,
)
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
    """Monomial basis of the Tjurina algebra, with weights when graded."""

    ring: tuple[str, ...]
    monomials: tuple[Exponent, ...]
    weights: tuple[int, ...] | None
    tau: int
    basis: StandardBasis
    stair: Staircase

    def is_graded(self) -> bool:
        return self.weights is not None

    @cached_property
    def _residues(self) -> ResidueTable:
        """The residue table of the algebra, built on first use."""
        return ResidueTable(self.basis, self.stair)

    def residue(self, terms: Mapping[Exponent, Fraction]) -> dict[int, Fraction]:
        """Nonzero coordinates of the residue of a term map, by index in ``monomials``."""
        return self._residues.residue({(0, e): c for e, c in terms.items()})

    def coordinates(self, p: Polynomial) -> list[Fraction]:
        """Coordinates of the residue class of p over ``monomials``."""
        if p.ring != self.ring:
            raise ValueError("polynomial from a different ring")
        return self._residues.coordinates({(0, e): c for e, c in p.terms.items()})


def _jacobian(f: Polynomial) -> list[Polynomial]:
    return [f.partial_derivative(v) for v in f.ring]


def _local_dimension(gens: list[Polynomial]) -> tuple[int | float, StandardBasis, Staircase]:
    nonzero = [g for g in gens if not g.is_zero()]
    if not nonzero:
        raise ValueError("all generators vanish identically")
    sb = standard_basis(nonzero, NEGDEGREVLEX)
    st = staircase(sb)
    return st.dimension, sb, st


def milnor_number(germ: GermInput) -> int | float:
    """dim of the local Jacobian algebra O/(df); inf when non-isolated."""
    if germ.k != 1:
        raise ValueError("Milnor number is computed for hypersurface germs only")
    f = germ.equations[0]
    if f.is_zero():
        raise ValueError("zero polynomial does not define a germ")
    dim, _, _ = _local_dimension(_jacobian(f))
    return dim


def tjurina_number(germ: GermInput) -> tuple[int | float, GradedT1 | None]:
    """dim of O/(f, df) plus the graded monomial basis of the quotient.

    Returns (inf, None) for a non-isolated singularity.  When the germ is
    quasi-homogeneous in the given coordinates, each basis monomial carries
    its weight.
    """
    if germ.k != 1:
        raise ValueError("use icis_tjurina for complete intersections")
    f = germ.equations[0]
    if f.is_zero():
        raise ValueError("zero polynomial does not define a germ")
    dim, sb, st = _local_dimension([f] + _jacobian(f))
    if not st.finite:
        return INFINITE, None
    monos = tuple(e for _, e in st.standard_monomials)
    wdata = find_weights(f)
    weights = tuple(wdata.monomial_weight(e) for e in monos) if wdata else None
    return dim, GradedT1(
        ring=f.ring, monomials=monos, weights=weights, tau=int(dim), basis=sb, stair=st
    )


def find_weights(f: Polynomial) -> WeightData | None:
    """Positive integer weights making every term of f the same degree.

    Solves w . alpha = d over the support of f, normalized to d = 1 and then
    scaled to a primitive integer vector with gcd(w, d) = 1.  Free directions
    (rank-deficient support) are pinned at d/2 before the positivity check.
    Returns None when no positive solution exists in these coordinates.
    """
    if f.is_zero():
        raise ValueError("zero polynomial has no weights")
    exponents = sorted(f.terms)
    nvars = len(f.ring)
    one = Fraction(1)
    rows = [[Fraction(e) for e in expo] + [one] for expo in exponents]
    reduced, pivots = linalg.rref(rows)
    if nvars in pivots:
        return None  # inconsistent: some combination forces d = 0
    solution = [Fraction(1, 2)] * nvars  # free variables pinned at d/2
    for r, col in enumerate(pivots):
        acc = reduced[r][nvars]
        for c in range(col + 1, nvars):
            if c not in pivots:
                acc -= reduced[r][c] * Fraction(1, 2)
        solution[col] = acc
    for expo in exponents:
        if sum(w * e for w, e in zip(solution, expo)) != 1:
            return None
    if any(w <= 0 for w in solution):
        return None
    scale = 1
    for w in solution:
        scale = scale * w.denominator // gcd(scale, w.denominator)
    ints = [int(w * scale) for w in solution] + [scale]
    g = 0
    for v in ints:
        g = gcd(g, v)
    ints = [v // g for v in ints]
    return WeightData(weights=tuple(ints[:-1]), degree=ints[-1])


def graded_piece(t1: GradedT1, wdata: WeightData, target_weight: int) -> list[Exponent]:
    """Basis monomials of the Tjurina algebra of exactly the target weight."""
    if not t1.is_graded():
        raise ValueError("Tjurina algebra is not graded (no weights found)")
    return [
        e
        for e in t1.monomials
        if wdata.monomial_weight(e) == target_weight
    ]


def icis_tjurina(germ: GermInput) -> int | float:
    """Tjurina number of a complete intersection germ (k equations).

    dim of O^k modulo the submodule spanned by the Jacobian columns
    (df_1/dx_j, ..., df_k/dx_j) and by f_i e_l; reduces to the hypersurface
    Tjurina number at k = 1.  inf when the singularity is not isolated.
    """
    k, ring = germ.k, germ.ring
    if k > len(ring):
        raise ValueError("more equations than variables")
    gens: list[VectorPoly] = []
    for var in ring:
        column = [f.partial_derivative(var) for f in germ.equations]
        if any(not p.is_zero() for p in column):
            gens.append(VectorPoly.from_polys(column))
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
