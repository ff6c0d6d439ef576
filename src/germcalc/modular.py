"""First-order modular data of an isolated hypersurface germ.

``derivation_module`` returns generators of the vector fields tangent to
{f = 0} (each v = sum a_i d_i with v(f) = h f, the cofactor h recorded),
obtained from the syzygies of (df_1, ..., df_n, f) plus the Hamiltonian
pairs and, for quasi-homogeneous f, the Euler field.

Every tangent field acts on the Tjurina algebra by the twisted action
v.[g] = [v(g) - h g]; the common kernel of these endomorphisms over all
module generators is the Zariski tangent space of the maximal modular
stratum, returned with an explicit kernel basis in T1 coordinates.  Since
the action is O-linear in v, module generators suffice.

The action matrices are read off the residue table of the Tjurina algebra
(the FGLM view of the quotient): the column of v on a basis monomial x^b is
the term map sum_i b_i a_i x^(b - e_i), minus h_v x^b for the twisted
action, and its residue is a table lookup in which terms past the cut
vanish.  Most rows of these matrices are zero, and most tangent fields act
as zero on T1; the kernel is computed from the nonzero rows only, which
span the same row space as the full stack and so give the same reduced row
echelon form, kernel basis and dimension.

For homogeneous f the module also computes the first-order deformation
count of the projective hypersurface (degree-m forms modulo the span of
z_i df/dz_j) and compares it with the weight-m graded piece of the cone
germ's Tjurina algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb
from operator import add

from . import linalg
from .groebner import syzygies
from .orders import NEGDEGREVLEX
from .poly import Exponent, Polynomial
from .singularity import (
    GermInput,
    GradedT1,
    NonIsolatedError,
    find_weights,
    milnor_number,
    tjurina_number,
)

_ZERO = Fraction(0)


@dataclass(frozen=True)
class Derivation:
    """Vector field sum a_i d_i tangent to the germ, with v(f) = cofactor * f."""

    coefficients: tuple[Polynomial, ...]
    cofactor: Polynomial

    def apply(self, p: Polynomial) -> Polynomial:
        ring = self.cofactor.ring
        out = Polynomial.zero(ring)
        for a, var in zip(self.coefficients, ring):
            if not a.is_zero():
                out = out + a * p.partial_derivative(var)
        return out


def tangent_derivation(f: Polynomial, coefficients, cofactor: Polynomial) -> Derivation:
    """Build a Derivation, checking the tangency identity exactly."""
    v = Derivation(tuple(coefficients), cofactor)
    if len(v.coefficients) != len(f.ring):
        raise ValueError("one coefficient per ring variable required")
    if not (v.apply(f) - cofactor * f).is_zero():
        raise ValueError("not tangent: sum a_i df/dx_i differs from cofactor * f")
    return v


@dataclass(frozen=True)
class ActionMatrix:
    """Matrix of the twisted action of one derivation on the T1 basis."""

    entries: tuple[tuple[Fraction, ...], ...]  # rows; column j is v.[g_j]
    basis: GradedT1

    def rows(self) -> list[list[Fraction]]:
        return [list(r) for r in self.entries]


@dataclass(frozen=True)
class ModularTangent:
    """Kernel of all twisted actions: tangent space of the modular stratum."""

    dimension: int
    kernel_basis: tuple[tuple[Fraction, ...], ...]
    t1: GradedT1
    convention_sensitive: bool  # True if dropping the cofactor twist changes the dim


def derivation_module(f: Polynomial) -> list[Derivation]:
    """Module generators of all derivations tangent to {f = 0}.

    Requires an isolated singularity.  The syzygies of the nonzero entries
    of (df, f), plus the coordinate field d_i (cofactor 0) for each partial
    d_i f that vanishes identically, are augmented with every Hamiltonian
    pair (d_j f) d_i - (d_i f) d_j (cofactor 0) and, when weights exist,
    the Euler field sum w_i x_i d_i (cofactor d).
    """
    _, t1 = tjurina_number(GermInput((f,)))
    if t1 is None:
        raise NonIsolatedError("derivation module needs an isolated singularity")
    ring = f.ring
    n = len(ring)
    partials = [f.partial_derivative(v) for v in ring]
    entries = partials + [f]
    nonzero = [i for i, p in enumerate(entries) if not p.is_zero()]
    zero = Polynomial.zero(ring)
    out: list[Derivation] = []
    for s in syzygies([entries[i] for i in nonzero], NEGDEGREVLEX):
        parts = [zero] * (n + 1)
        for i, part in zip(nonzero, s.to_polys()):
            parts[i] = part
        out.append(tangent_derivation(f, parts[:n], -parts[n]))
    for i in range(n):
        if partials[i].is_zero():
            unit = [Polynomial.constant(ring, int(j == i)) for j in range(n)]
            out.append(tangent_derivation(f, unit, zero))
    for i in range(n):
        for j in range(i + 1, n):
            if partials[i].is_zero() and partials[j].is_zero():
                continue
            coeffs = [zero] * n
            coeffs[i] = partials[j]
            coeffs[j] = -partials[i]
            out.append(tangent_derivation(f, coeffs, zero))
    wdata = find_weights(f)
    if wdata is not None:
        euler = [
            Polynomial.variable(ring, v).scale(w) for v, w in zip(ring, wdata.weights)
        ]
        out.append(tangent_derivation(f, euler, Polynomial.constant(ring, wdata.degree)))
    unique: list[Derivation] = []
    for d in out:
        if d not in unique:
            unique.append(d)
    return unique


SparseRows = dict[int, dict[int, Fraction]]  # row index -> {column index: nonzero entry}


def _action_rows(v: Derivation, t1: GradedT1) -> tuple[SparseRows, SparseRows]:
    """Nonzero rows of the twisted and of the untwisted action of v on the T1 basis.

    Column j belongs to the basis monomial x^b.  Its untwisted entries are the
    residue of the term map v(x^b) = sum_i sum b_i c x^(a + b - e_i), the
    inner sum over the terms c x^a of the coefficient a_i of v; the twisted
    column subtracts the residue of h_v x^b.  Both residues are lookups in
    the residue table of ``t1``, where a term past the cut has residue zero,
    so no polynomial is formed.  Only rows with a nonzero entry are kept: a
    zero row adds nothing to the row space, so the kernel is unchanged.
    """
    fields = [(i, tuple(a.terms.items())) for i, a in enumerate(v.coefficients) if a.terms]
    cofactor = tuple(v.cofactor.terms.items())
    twisted: SparseRows = {}
    untwisted: SparseRows = {}
    for j, b in enumerate(t1.monomials):
        image: dict[Exponent, Fraction] = {}
        for i, terms in fields:
            bi = b[i]
            if not bi:
                continue
            shift = b[:i] + (bi - 1,) + b[i + 1 :]
            for a, c in terms:
                e = tuple(map(add, a, shift))
                image[e] = image.get(e, _ZERO) + bi * c
        plain = t1.residue(image)
        twist = dict(plain)
        for k, c in t1.residue({tuple(map(add, g, b)): c for g, c in cofactor}).items():
            twist[k] = twist.get(k, _ZERO) - c
        for k, a in plain.items():
            untwisted.setdefault(k, {})[j] = a
        for k, a in twist.items():
            if a:
                twisted.setdefault(k, {})[j] = a
    return twisted, untwisted


def _dense(row: dict[int, Fraction], ncols: int) -> list[Fraction]:
    return [row.get(j, _ZERO) for j in range(ncols)]


def action_matrix(v: Derivation, t1: GradedT1, f: Polynomial) -> ActionMatrix:
    """Matrix of [g] -> [v(g) - h_v g] on the Tjurina algebra basis."""
    if t1.ring != f.ring:
        raise ValueError("basis and polynomial from different rings")
    rows, _ = _action_rows(v, t1)
    entries = tuple(tuple(_dense(rows.get(k, {}), t1.tau)) for k in range(t1.tau))
    return ActionMatrix(entries=entries, basis=t1)


def _untwisted_matrix(v: Derivation, t1: GradedT1) -> list[list[Fraction]]:
    _, rows = _action_rows(v, t1)
    return [_dense(rows.get(k, {}), t1.tau) for k in range(t1.tau)]


def modular_tangent_space(f: Polynomial) -> ModularTangent:
    """Common kernel of the twisted actions of all tangent-field generators.

    The kernel is computed in T1 coordinates (for a miniversal deformation
    the Kodaira-Spencer identification of the base tangent space with T1 is
    the identity).  ``convention_sensitive`` reports whether the untwisted
    action (no cofactor correction) would give a different dimension.  Only
    the nonzero rows of each action are stacked: zero rows leave the row
    space, hence the reduced row echelon form and the kernel, unchanged.
    """
    tau, t1 = tjurina_number(GermInput((f,)))
    if t1 is None:
        raise NonIsolatedError("modular tangent space needs an isolated singularity")
    gens = derivation_module(f)
    stacked: list[list[Fraction]] = []
    stacked_untwisted: list[list[Fraction]] = []
    for v in gens:
        twisted, untwisted = _action_rows(v, t1)
        stacked.extend(_dense(row, t1.tau) for row in twisted.values())
        stacked_untwisted.extend(_dense(row, t1.tau) for row in untwisted.values())
    kernel = linalg.kernel_basis(stacked, ncols=t1.tau)
    alt_dim = len(linalg.kernel_basis(stacked_untwisted, ncols=t1.tau))
    return ModularTangent(
        dimension=len(kernel),
        kernel_basis=tuple(tuple(v) for v in kernel),
        t1=t1,
        convention_sensitive=alt_dim != len(kernel),
    )


def homogeneous_degree(f: Polynomial) -> int:
    """Common total degree of all terms; ValueError if not homogeneous."""
    if f.is_zero():
        raise ValueError("zero polynomial is not homogeneous of a degree")
    degrees = {sum(e) for e in f.terms}
    if len(degrees) != 1:
        raise ValueError("polynomial is not homogeneous")
    return degrees.pop()


def projective_t1_dimension(f: Polynomial) -> int:
    """First-order deformations of the smooth projective hypersurface V(f).

    dim of degree-m forms modulo the linear span of the z_i df/dz_j.  The
    affine cone must have an isolated singularity at the origin (V(f)
    smooth), which is checked exactly.
    """
    m = homogeneous_degree(f)
    if milnor_number(GermInput((f,))) == float("inf"):
        raise ValueError("projective hypersurface V(f) is singular")
    ring = f.ring
    monos = [e for e in product(range(m + 1), repeat=len(ring)) if sum(e) == m]
    index = {e: i for i, e in enumerate(monos)}
    rows = []
    for zi in ring:
        for zj in ring:
            p = Polynomial.variable(ring, zi) * f.partial_derivative(zj)
            if p.is_zero():
                continue
            row = [Fraction(0)] * len(monos)
            for expo, coeff in p.iter_terms():
                row[index[expo]] = coeff
            rows.append(row)
    return len(monos) - (linalg.rank(rows) if rows else 0)


def projective_closed_form(nvars: int, m: int) -> int:
    """comb(m + n, n) - (n + 1)^2 with n the projective dimension nvars - 1."""
    n = nvars - 1
    return comb(m + n, n) - (n + 1) ** 2


def embedding_check(f: Polynomial, t1: GradedT1) -> bool:
    """Does the projective T1 dimension match the weight-m piece of the cone?

    Both sides are computed independently: a rank computation on degree-m
    forms versus the graded slice of the local Tjurina algebra at weights
    (1, ..., 1), where the weight of a monomial is its total degree.
    Requires at least four variables.
    """
    m = homogeneous_degree(f)
    if len(f.ring) < 4:
        raise ValueError("projective comparison needs at least 4 variables")
    if t1.ring != f.ring:
        raise ValueError("basis and polynomial from different rings")
    piece = [e for e in t1.monomials if sum(e) == m]
    return projective_t1_dimension(f) == len(piece)
