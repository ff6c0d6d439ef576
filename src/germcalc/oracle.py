"""Brute-force local quotient dimension by truncated linear algebra.

Independent cross-check for the standard-basis pipeline: the dimension of
O/(g_1, ..., g_k) at the origin equals the codimension of the span of all
truncated multiples m * g_i inside the space of polynomials of total degree
below a bound D, provided every monomial of degree >= D already lies in the
ideal (for a zero-dimensional ideal, D = 1 + the largest degree of a
monomial outside the leading ideal always works).

This module deliberately knows nothing about standard bases; it only
multiplies, truncates and row-reduces.
"""

from __future__ import annotations

from . import linalg
from .poly import Exponent, Polynomial


def monomials_below(nvars: int, bound: int) -> list[Exponent]:
    """All exponent tuples of total degree strictly below the bound."""
    out: list[Exponent] = []

    def rec(prefix: list[int], remaining: int, k: int):
        if k == nvars:
            out.append(tuple(prefix))
            return
        for e in range(remaining + 1):
            prefix.append(e)
            rec(prefix, remaining - e, k + 1)
            prefix.pop()

    if bound > 0:
        rec([], bound - 1, 0)
    return out


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
    monos = monomials_below(nvars, degree_bound)
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for g in gens:
        room = degree_bound - g.order_at_origin()
        for m in monomials_below(nvars, max(room, 0)):
            row = {}
            for expo, coeff in g.iter_terms():
                shifted = tuple(a + b for a, b in zip(expo, m))
                if sum(shifted) < degree_bound:
                    row[index[shifted]] = coeff
            rows.append(row)
    return len(monos) - linalg.rank(rows, len(monos))
