"""Brute-force local quotient dimension by truncated linear algebra.

Independent cross-check for the standard-basis pipeline: the dimension of
O/(g_1, ..., g_k) at the origin equals the codimension of the span of all
truncated multiples m * g_i inside the space of polynomials of total degree
below a bound D, provided every monomial of degree >= D already lies in the
ideal (for a zero-dimensional ideal, D = 1 + the largest degree of a
monomial outside the leading ideal always works).

Both this count and the projective T1 count of ``modular`` (degree-m forms
modulo the z_i df/dz_j) are one count, ``codimension``: the dimension of a
span of monomials modulo some polynomials, each cut to those monomials.

This module deliberately knows nothing about standard bases; it only
multiplies, truncates and row-reduces.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import product

from . import linalg
from .poly import Exponent, Polynomial


def monomials_below(nvars: int, bound: int) -> list[Exponent]:
    """All exponent tuples of total degree strictly below the bound, in lexicographic order."""
    return [e for e in product(range(bound), repeat=nvars) if sum(e) < bound]


def codimension(polys: Iterable[Polynomial], monos: list[Exponent]) -> int:
    """dim of the span of ``monos`` modulo the polys, each cut to those monomials."""
    index = {m: i for i, m in enumerate(monos)}
    rows = [{index[e]: c for e, c in p.iter_terms() if e in index} for p in polys]
    return len(monos) - linalg.rank(rows, len(monos))


def truncated_quotient_dimension(gens: list[Polynomial], degree_bound: int) -> int:
    """dim of O/(gens) modulo all monomials of degree >= degree_bound."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("need at least one nonzero generator")
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise ValueError("generators from different rings")
    nvars = len(ring)
    multiples = (
        g * Polynomial.monomial(ring, m)
        for g in gens
        for m in monomials_below(nvars, degree_bound - g.order_at_origin())
    )
    return codimension(multiples, monomials_below(nvars, degree_bound))
