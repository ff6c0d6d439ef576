"""First-order modular data of an isolated hypersurface germ.

``derivation_module`` returns generators of the vector fields tangent to
{f = 0} (each v = sum a_i d_i with v(f) = h f, the cofactor h recorded),
obtained from the syzygies of (df_1, ..., df_n, f) plus the Hamiltonian
pairs and, for quasi-homogeneous f, the Euler field of the weights kept on
the germ's Tjurina algebra (``GradedT1.weight_data``).

Every tangent field acts on the Tjurina algebra T1 = O/(f, J) by the
twisted action v.[g] = [v(g) - h g]; the common kernel of these
endomorphisms is the Zariski tangent space of the maximal modular stratum,
returned with an explicit kernel basis in T1 coordinates.  The kernel needs
only a few fields.  The action is O-linear in v, a field with cofactor 0 is
a Koszul combination of Hamiltonian pairs (the partials of an isolated
singularity form a regular sequence) and maps O into J, and f d_i has
cofactor d_i f and maps O into (f).  So a field whose cofactor lies in
J + (h_1, ..., h_k) acts, twisted or not, as an O-combination of the fields
with cofactors h_1, ..., h_k, and fields whose cofactor classes generate
(J : f)/J = Ann_M([f]) in the Milnor algebra M = O/J give the whole kernel;
that ideal has dimension tau (K. Saito, "Theory of logarithmic differential
forms and logarithmic vector fields", 1980).  ``modular_tangent_space``
uses the Euler field alone when f is quasi-homogeneous (its cofactor is the
unit d).  Otherwise it reads only the cofactor slot of each relation of one
Schreyer walk of (df, f) (``groebner._relations``, the walk behind
``syzygies``), as the integer row the walk gives, and keeps, lowest
cofactor degree first, each relation whose cofactor residue in M
(``milnor_algebra``) lies outside the span of the kept ones, until that
span has dimension tau; no scale changes a span, and the shifts of a kept
cofactor stop once it is full.  RuntimeError if the span stays below tau,
since a kernel from too few fields would come out too large.  Only the
kept relations are divided by their scales and become fields, and each
goes through both checks: the tangency identity (``tangent_derivation``,
on integer rows) and the exact syzygy check.  The kernel is a subspace and
its reduced row echelon basis is unique, so it is the kernel of the full
stack of generators, and so is the untwisted one.

The action matrices are read off the staircase of the Tjurina algebra: the
column of v on a basis monomial x^b is the term map sum_i b_i a_i x^(b - e_i),
minus h_v x^b for the twisted action, and its residue (``Staircase.residue``)
is a lookup in the staircase's table, in which terms past the cut vanish;
such terms are dropped before they are formed (``_action_rows``).
``modular_tangent_space`` lets each field act as its primitive integer row:
a positive multiple of a field scales its rows by the same factor, so the
row spaces and kernels are those of the field.  ``action_matrix`` acts with
the field as given, so its entries are exact.  Only the nonzero rows go, as
sparse ``{column: entry}`` maps over tau columns, into ``linalg``: the
twisted rows into ``kernel_basis``, the untwisted ones into ``rank``, whose
codimension tau - rank is the untwisted kernel's dimension.

For homogeneous f the module also computes the first-order deformation
count of the projective hypersurface (degree-m forms modulo the span of
z_i df/dz_j) and compares it with the weight-m graded piece of the cone
germ's Tjurina algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb
from operator import add

from . import linalg
from .groebner import ModTerm, _check_syzygies, _relations, syzygies
from .orders import NEGDEGREVLEX
from .packed import Row, _combination, _primitive, packing
from .poly import Exponent, Polynomial, VectorPoly
from .singularity import (
    GermInput,
    GradedT1,
    NonIsolatedError,
    WeightData,
    milnor_algebra,
    milnor_number,
    tjurina_algebra,
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
    """Build a Derivation, checking the tangency identity exactly.

    The identity is decided on integer rows (``_tangency_defect``).
    ValueError when the parts are not all over the ring of f, and
    ``ExponentOverflow`` (a ValueError) when an exponent of a product does
    not fit a packed field.
    """
    return _tangent_field(f, coefficients, cofactor)[0]


def _tangent_field(
    f: Polynomial, coefficients, cofactor: Polynomial
) -> tuple[Derivation, dict[ModTerm, int]]:
    """``tangent_derivation``, with the primitive integer row of the field
    (``_field_terms``) that the check ran on.

    ValueError unless the field has one coefficient per variable of f, its
    coefficients and cofactor are all over the ring of f, and it is tangent.
    """
    v = Derivation(tuple(coefficients), cofactor)
    if len(v.coefficients) != len(f.ring):
        raise ValueError("one coefficient per ring variable required")
    if any(p.ring != f.ring for p in (*v.coefficients, cofactor)):
        raise ValueError("coefficients, cofactor and polynomial from different rings")
    row, _ = _primitive(_field_terms(v))
    if _tangency_defect(f, row):
        raise ValueError("not tangent: sum a_i df/dx_i differs from cofactor * f")
    return v, row


def _field_terms(v: Derivation) -> dict[ModTerm, Fraction]:
    """The field as one term map on (slot, exponent): a_i in slot i, the cofactor in slot n."""
    parts = (*v.coefficients, v.cofactor)
    return {(i, e): c for i, p in enumerate(parts) for e, c in p.terms.items()}


def _tangency_defect(f: Polynomial, field: dict[ModTerm, int]) -> Row:
    """sum_i a_i df/dx_i - h f times a positive integer, as an integer row on packed terms.

    ``field`` is an integer row of the field (``_field_terms``).  f is made
    primitive and its partials are read off that row, so the identity is
    the syzygy (a_1, ..., a_n, h) of (df/dx_1, ..., df/dx_n, -f), checked
    as ``groebner._check_syzygies`` checks one (``packed._combination``);
    the row is empty exactly when the field is tangent.
    """
    pk = packing(len(f.ring))
    f_row, _ = _primitive(f.terms)
    parts = [
        {(0, pk.pack(e) - unit): e[i] * c for e, c in f_row.items() if e[i]}
        for i, unit in enumerate(pk.units)
    ]
    parts.append({(0, pk.pack(e)): -c for e, c in f_row.items()})
    weights = {(i, pk.pack(e)): c for (i, e), c in field.items()}
    return _combination(parts, [pk.top(part) for part in parts], weights, pk.guard)


@dataclass(frozen=True)
class ActionMatrix:
    """Matrix of the twisted action of one derivation on the T1 basis."""

    entries: tuple[tuple[Fraction, ...], ...]  # rows; column j is v.[g_j]
    basis: GradedT1

    def rows(self) -> list[list[Fraction]]:
        return [list(r) for r in self.entries]


@dataclass(frozen=True)
class ModularTangent:
    """Kernel of all twisted actions (tangent space of the modular stratum), kept as its basis."""

    kernel_basis: tuple[tuple[Fraction, ...], ...]
    t1: GradedT1
    convention_sensitive: bool  # True if dropping the cofactor twist changes the dim

    @property
    def dimension(self) -> int:
        return len(self.kernel_basis)


def _isolated_t1(f: Polynomial, what: str) -> GradedT1:
    """The Tjurina algebra of f; NonIsolatedError naming ``what`` when it is infinite."""
    _, t1 = tjurina_algebra(f)
    if t1 is None:
        raise NonIsolatedError(f"{what} needs an isolated singularity")
    return t1


def _euler(f: Polynomial, wdata: WeightData) -> tuple[list[Polynomial], Polynomial]:
    """Coefficients and cofactor of the Euler field sum w_i x_i d_i, cofactor d."""
    ring = f.ring
    coefficients = [Polynomial.variable(ring, v).scale(w) for v, w in zip(ring, wdata.weights)]
    return coefficients, Polynomial.constant(ring, wdata.degree)


def _schreyer_input(entries: list[Polynomial]) -> tuple[list[int], list[VectorPoly]]:
    """Indices and vectors of the nonzero entries of (df_1, ..., df_n, f)."""
    nonzero = [i for i, p in enumerate(entries) if not p.is_zero()]
    return nonzero, [VectorPoly.from_poly(entries[i]) for i in nonzero]


def _field(ring, nonzero: list[int], syz: VectorPoly) -> tuple[list[Polynomial], Polynomial]:
    """Coefficients and cofactor of the field of a syzygy of the entries at ``nonzero``."""
    parts = [Polynomial.zero(ring)] * (len(ring) + 1)
    for i, part in zip(nonzero, syz.to_polys()):
        parts[i] = part
    return parts[:-1], -parts[-1]


def derivation_module(f: Polynomial) -> list[Derivation]:
    """Module generators of all derivations tangent to {f = 0}.

    Requires an isolated singularity.  The syzygies of the nonzero entries
    of (df, f), plus the coordinate field d_i (cofactor 0) for each partial
    d_i f that vanishes identically, are augmented with every Hamiltonian
    pair (d_j f) d_i - (d_i f) d_j (cofactor 0) and, when weights exist,
    the Euler field sum w_i x_i d_i (cofactor d).  Each is checked for
    tangency (``tangent_derivation``); repeats are dropped, the first kept.
    """
    wdata = _isolated_t1(f, "derivation module").weight_data
    ring = f.ring
    n = len(ring)
    partials = [f.partial_derivative(v) for v in ring]
    nonzero, vecs = _schreyer_input(partials + [f])
    zero = Polynomial.zero(ring)
    fields = [_field(ring, nonzero, s) for s in syzygies(vecs, NEGDEGREVLEX)]
    for i in range(n):
        if partials[i].is_zero():
            fields.append(([Polynomial.constant(ring, int(j == i)) for j in range(n)], zero))
    for i in range(n):
        for j in range(i + 1, n):
            if partials[i].is_zero() and partials[j].is_zero():
                continue
            coeffs = [zero] * n
            coeffs[i] = partials[j]
            coeffs[j] = -partials[i]
            fields.append((coeffs, zero))
    if wdata is not None:
        fields.append(_euler(f, wdata))
    return list(dict.fromkeys(tangent_derivation(f, a, h) for a, h in fields))


def _cofactor_generators(
    f: Polynomial, t1: GradedT1
) -> list[tuple[Derivation, dict[ModTerm, int]]]:
    """Tangent fields whose cofactor classes generate Ann_M([f]) = (J : f)/J,
    each with its primitive integer row (``_tangent_field``).

    For quasi-homogeneous f, the Euler field alone: its cofactor is the unit
    d.  Otherwise the relations of one Schreyer walk of the nonzero entries
    of (df, f) (``groebner._relations``) with a nonzero cofactor h, lowest
    total degree of h first; only the cofactor slot of each is read, as the
    integer row the walk gives, a nonzero multiple of h.  The span holds the
    residues in the Milnor algebra M of x^b h_k, over the Milnor basis
    monomials x^b and the cofactors h_k kept so far, so it is the ideal they
    generate in M; no scale changes it.  A relation is kept when the residue
    of its h lies outside the span; the shifts and the walk stop once the
    span has dimension tau, which makes it all of Ann_M([f]), and
    RuntimeError if the relations run out first.  Only kept relations are
    divided by their scales and become fields, each checked twice: the
    tangency identity (``_tangent_field``) and the exact syzygy check.
    """
    if t1.weight_data is not None:
        return [_tangent_field(f, *_euler(f, t1.weight_data))]
    ring, tau = f.ring, t1.tau
    milnor = milnor_algebra(f)
    shifts = [e for _, e in milnor.standard_monomials if any(e)]
    one = (0,) * len(ring)

    def residue(h: dict[Exponent, int], b: Exponent) -> dict[int, Fraction]:
        return milnor.residue({(0, tuple(map(add, e, b))): c for e, c in h.items()})

    nonzero, vecs = _schreyer_input([f.partial_derivative(v) for v in ring] + [f])
    last = len(nonzero) - 1  # the slot of f
    candidates = []
    for row, scale in _relations(vecs, NEGDEGREVLEX):
        h = {e: c for (slot, e), c in row.items() if slot == last}
        if h:
            candidates.append((h, row, scale))
    candidates.sort(key=lambda c: min(map(sum, c[0])))
    span: dict[int, dict[int, Fraction]] = {}
    kept: list[tuple[Derivation, dict[ModTerm, int]]] = []
    relations: list[VectorPoly] = []
    for h, row, scale in candidates:
        if len(span) == tau:
            break
        if linalg._insert(span, residue(h, one)):
            relations.append(VectorPoly(ring, len(nonzero), {t: c / scale for t, c in row.items()}))
            kept.append(_tangent_field(f, *_field(ring, nonzero, relations[-1])))
            for b in shifts:
                if len(span) == tau:
                    break
                linalg._insert(span, residue(h, b))
    if len(span) < tau:
        raise RuntimeError(
            f"cofactor fields span {len(span)} of the {tau} dimensions of Ann_M([f])"
        )
    _check_syzygies(vecs, relations)
    return kept


SparseRows = dict[int, dict[int, Fraction]]  # row index -> {column index: nonzero entry}


def _action_rows(
    field: dict[ModTerm, Fraction | int], t1: GradedT1
) -> tuple[SparseRows, SparseRows]:
    """Nonzero rows of the twisted and of the untwisted action of a field on the T1 basis.

    ``field`` is a term map of the field (``_field_terms``), rational, or an
    integer row that is a positive multiple of it, whose rows are the same
    multiple.  Column j belongs to the basis monomial x^b.  Its untwisted
    entries are the residue of the term map v(x^b) = sum_i sum b_i c
    x^(a + b - e_i), the inner sum over the terms c x^a of the coefficient
    a_i of v; the twisted column subtracts the residue of h_v x^b.  Both
    term maps are keyed by module terms (0, exponent) and read off
    ``t1.stair.residue``.  A term past the cut of the staircase has residue
    zero, so a term of a_i with deg(a + b - e_i) >= cut, or of h_v with
    deg(a + b) >= cut, is dropped before its key is formed, deg being the
    degree of the staircase's order.  Only rows with a nonzero entry are
    kept: a zero row adds nothing to the row space, so the kernel is
    unchanged.
    """
    stair = t1.stair
    degree, cut, n = stair.basis.order.degree, stair.cut, len(t1.ring)
    parts: list[list] = [[] for _ in range(n + 1)]  # (degree, exponent, coefficient) by slot
    for (i, a), c in field.items():
        parts[i].append((degree(a), a, c))
    for part in parts:
        part.sort()

    def image(i: int, b: Exponent) -> dict[ModTerm, Fraction | int]:
        """x^b times the terms of slot i that land below the cut."""
        room, out = cut - degree(b), {}
        for d, a, c in parts[i]:
            if d >= room:
                break
            out[(0, tuple(map(add, a, b)))] = c
        return out

    residue = stair.residue
    twisted: SparseRows = {}
    untwisted: SparseRows = {}
    for j, b in enumerate(t1.monomials):
        applied: dict[ModTerm, Fraction | int] = {}
        for i, bi in enumerate(b):
            if bi:
                for e, c in image(i, b[:i] + (bi - 1,) + b[i + 1 :]).items():
                    applied[e] = applied.get(e, 0) + bi * c
        plain = residue(applied)
        twist = dict(plain)
        for k, c in residue(image(n, b)).items():
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
    """Matrix of [g] -> [v(g) - h_v g] on the Tjurina algebra basis.

    ValueError when ``t1`` and f, or the field and f, are over different
    rings, when the field has not one coefficient per variable, or when it
    is not tangent to f (``_tangent_field``): the twisted action is defined
    on T1 only for tangent fields.
    """
    if t1.ring != f.ring:
        raise ValueError("basis and polynomial from different rings")
    _tangent_field(f, v.coefficients, v.cofactor)
    rows, _ = _action_rows(_field_terms(v), t1)
    entries = tuple(tuple(_dense(rows.get(k, {}), t1.tau)) for k in range(t1.tau))
    return ActionMatrix(entries=entries, basis=t1)


def modular_tangent_space(f: Polynomial) -> ModularTangent:
    """Common kernel of the twisted actions of all tangent fields.

    The kernel is computed in T1 coordinates (for a miniversal deformation
    the Kodaira-Spencer identification of the base tangent space with T1 is
    the identity).  ``convention_sensitive`` reports whether the untwisted
    action (no cofactor correction) would give a different dimension, read
    as tau minus the rank of the untwisted rows, with no kernel built.  Only
    the fields of ``_cofactor_generators`` act, the Euler field alone for a
    quasi-homogeneous germ: every other tangent field acts, twisted or not,
    as an O-combination of theirs (Saito 1980; see the module docstring), so
    both kernels and their unique reduced row echelon bases are those of the
    whole derivation module.  Each field acts as the primitive integer row
    its tangency check ran on, a positive multiple of it, whose rows span
    what the field's rows span.
    """
    t1 = _isolated_t1(f, "modular tangent space")
    stacked: list[dict[int, Fraction]] = []
    stacked_untwisted: list[dict[int, Fraction]] = []
    for _, row in _cofactor_generators(f, t1):
        twisted, untwisted = _action_rows(row, t1)
        stacked.extend(twisted.values())
        stacked_untwisted.extend(untwisted.values())
    kernel = linalg.kernel_basis(stacked, t1.tau)
    alt_dim = t1.tau - linalg.rank(stacked_untwisted, t1.tau)
    return ModularTangent(
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


@lru_cache(maxsize=1)
def projective_t1_dimension(f: Polynomial) -> int:
    """First-order deformations of the smooth projective hypersurface V(f).

    dim of degree-m forms modulo the linear span of the z_i df/dz_j.  The
    affine cone must have an isolated singularity at the origin (V(f)
    smooth), which is checked exactly.  Kept for the last f asked for, so
    ``germcalc projective`` and its ``embedding_check`` rank the forms once.
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
            rows.append({index[e]: c for e, c in p.iter_terms()})
    return len(monos) - linalg.rank(rows, len(monos))


def projective_closed_form(nvars: int, m: int) -> int:
    """comb(m + n, n) - (n + 1)^2 with n the projective dimension nvars - 1."""
    n = nvars - 1
    return comb(m + n, n) - (n + 1) ** 2


def embedding_check(f: Polynomial, t1: GradedT1) -> bool:
    """Does the projective T1 dimension match the weight-m piece of the cone?

    Both sides are computed independently: a rank computation on degree-m
    forms versus the graded slice of the local Tjurina algebra at weights
    (1, ..., 1), where the weight of a monomial is its total degree.
    Requires at least four variables, and ``t1`` must be the Tjurina algebra
    of f (``tjurina_algebra``, cached, so the comparison costs nothing after
    ``germcalc projective`` computed it); otherwise ValueError.
    """
    m = homogeneous_degree(f)
    if len(f.ring) < 4:
        raise ValueError("projective comparison needs at least 4 variables")
    if t1.ring != f.ring:
        raise ValueError("basis and polynomial from different rings")
    if t1 != tjurina_algebra(f)[1]:
        raise ValueError("basis is not the Tjurina algebra of the polynomial")
    piece = [e for e in t1.monomials if sum(e) == m]
    return projective_t1_dimension(f) == len(piece)
