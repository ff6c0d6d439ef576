"""The Tjurina algebra read off the Milnor algebra equals the one its own completion gives.

``tjurina_number`` builds T1's standard basis from the Milnor algebra's
residue table (the echelon of the residues [x^b f]); ``tjurina_reference``
(``conftest``) completes (f, df) with its certificate.  Both must give the
same tau, the same standard monomials and the same residue table, on the
catalog, on the germs of the ``std-ideal`` and ``modular`` benchmark ladders
(``perfbench/workloads.py``), on x^a+y^b+z^c+x^2*y*z+x*y^3*z^2 at (7,6,5)
and (8,7,5), on the example-9 fiber and on the non-isolated x^2*y.  An
echelon pivoted at the wrong end, or one that loses a pivot row, fails.

The multiplication closure of ``_tjurina_staircase`` must give the same
pivot rows, staircase and residue table as the loop over every Milnor
monomial (``tjurina_echelon_reference``, ``conftest``), without growing the
staircase again, on the same germs and (9,8,6).  A closure that expands
only the x-children, or pops in the local order, changes tau there; one
that drops the parent check stays exact, and only the count of residues
formed shows it.  Each residue past [f] is x_i times its parent's, so
the closure fills few Milnor rows, and a count bounds them.  A shifted
residue asks ``Staircase.residue`` for no term past the cut.
"""

from fractions import Fraction
from operator import add

import pytest

from germcalc import GermInput, linalg, parse_poly, singularity, tjurina_number
from germcalc.groebner import Staircase
from germcalc.singularity import milnor_algebra
from conftest import CATALOG, V2, V3, residue_table, tjurina_echelon_reference, tjurina_reference

V4 = ("x", "y", "z", "w")

LADDERS = [
    # std-ideal
    ("mu35", "x^7+y^5+z^4+x^2*y*z+x*y^3*z^2", V3),
    ("mu34", "x^6+y^5+z^4+x^2*y*z+x*y^2*z^2", V3),
    ("mu33", "x^5+y^5+z^4+x*y^2*z+x^2*y*z^2", V3),
    ("t864", "x^8+y^6+z^4+x*y*z", V3),
    ("quintic4", "x^5+y^5+z^5+w^5+x*y*z*w", V4),
    ("quartic4", "x^4+y^4+z^4+w^4+x^2*y*z", V4),
    ("curve33", "x^9+y^7+x^3*y^3+x^5*y^2", V2),
    # modular
    ("t543", "x^5+y^4+z^3+x*y*z", V3),
    ("quartic-t", "x^4+y^4+z^4+x^2*y^2+x*y*z", V3),
    ("t555", "x^5+y^5+z^5+x*y*z", V3),
    ("mu34-qh", "x^6+y^5+z^4+x^2*y*z", V3),
    ("quintic3", "x^5+y^5+z^5+x^2*y^2*z", V3),
    # the family x^a+y^b+z^c+x^2*y*z+x*y^3*z^2, the example-9 fiber, non-isolated
    ("a7b6c5", "x^7+y^6+z^5+x^2*y*z+x*y^3*z^2", V3),
    ("a8b7c5", "x^8+y^7+z^5+x^2*y*z+x*y^3*z^2", V3),
    ("example9-fiber", "x^6+y^4+z^2+x*y*z+8*y^3", V3),
    ("non-isolated", "x^2*y", V2),
]
GERMS = [(g.name, g.text, g.vars) for g in CATALOG] + LADDERS


def assert_matches_reference(f):
    tau, t1 = tjurina_number(GermInput((f,)))
    ref = tjurina_reference(f)
    assert tau == ref.dimension
    if t1 is None:
        assert not ref.finite
        return
    assert t1.stair.standard_monomials == ref.standard_monomials
    assert residue_table(t1.stair) == residue_table(ref)


@pytest.mark.parametrize("name, text, vars", GERMS, ids=[g[0] for g in GERMS])
def test_tjurina_algebra_matches_its_own_completion(name, text, vars):
    assert_matches_reference(parse_poly(text, vars))


CLOSURE_GERMS = [g for g in GERMS if g[0] != "non-isolated"] + [
    ("a9b8c6", "x^9+y^8+z^6+x^2*y*z+x*y^3*z^2", V3),
]


def _regrow(basis):
    raise AssertionError("T1's staircase was grown again from its leads")


@pytest.mark.parametrize("name, text, vars", CLOSURE_GERMS, ids=[g[0] for g in CLOSURE_GERMS])
def test_the_closure_gives_the_echelon_of_every_milnor_monomial(monkeypatch, name, text, vars):
    f = parse_poly(text, vars)
    milnor = milnor_algebra(f)
    ref = tjurina_echelon_reference(f, milnor)
    monkeypatch.setattr(singularity, "staircase", _regrow)
    stair = singularity._tjurina_staircase(f, milnor)
    assert stair.basis == ref.basis  # the same pivot rows, in column order
    assert stair.standard_monomials == ref.standard_monomials
    assert residue_table(stair) == residue_table(ref)
    if stair.basis == milnor.basis:  # [f] = 0 in M: no pivot
        assert stair is milnor


@pytest.mark.parametrize("name, bound", [("mu35", 6), ("quintic4", 40), ("curve33", 6)])
def test_the_closure_forms_a_residue_only_where_every_parent_is_live(monkeypatch, name, bound):
    # dropping the parent check leaves the span, and so every output, as it
    # was; only the number of residues formed shows it (10, 68 and 8 here).
    # A residue is formed for the exponent b last popped off the heap.
    _, text, vars = next(g for g in LADDERS if g[0] == name)
    f = parse_poly(text, vars)
    milnor = milnor_algebra(f)
    popped, formed = [], []
    heappop, shifted_residue = singularity.heappop, singularity._shifted_residue

    def popping(heap):
        popped.append(heappop(heap)[1])
        return None, popped[-1]

    def counted(stair, h, b):
        formed.append(popped[-1])
        return shifted_residue(stair, h, b)

    monkeypatch.setattr(singularity, "heappop", popping)
    monkeypatch.setattr(singularity, "_shifted_residue", counted)
    singularity._tjurina_staircase(f, milnor)
    assert len(formed) == len(set(formed)) <= bound


@pytest.mark.parametrize("name, bound", [("mu35", 12), ("quintic4", 54), ("curve33", 16)])
def test_the_closure_fills_only_the_milnor_rows_of_a_parent_times_x_i(name, bound):
    # [x^b f] is x_i times the stored residue of its parent b - e_i, so the
    # closure asks the Milnor table for x_i m_j, not for every term of x^b f
    # (35, 208 and 45 rows filled here when each residue was formed afresh)
    _, text, vars = next(g for g in LADDERS if g[0] == name)
    f = parse_poly(text, vars)
    milnor = milnor_algebra.__wrapped__(f)  # a fresh table, no row filled yet
    singularity._tjurina_staircase(f, milnor)
    rows, _ = milnor._memo
    assert len(rows) - len(milnor.standard_monomials) <= bound


def test_a_shifted_residue_asks_for_no_term_past_the_cut(monkeypatch):
    # a term of x^b f whose degree reaches the cut lies in J: it is dropped
    # before its key is formed, and the residue is the one of every term
    f = parse_poly("x^5+y^5+z^5+w^5+x*y*z*w", V4)
    milnor = milnor_algebra(f)
    residue, asked = Staircase.residue, []

    def spied(stair, terms):
        asked.extend(terms)
        return residue(stair, terms)

    monkeypatch.setattr(Staircase, "residue", spied)
    for _, b in milnor.standard_monomials:
        whole = {(0, tuple(map(add, e, b))): c for e, c in f.terms.items()}
        assert singularity._shifted_residue(milnor, f.terms, b) == residue(milnor, whole)
    assert max(sum(e) for _, e in asked) == milnor.cut - 1


def _insert_at_the_wrong_end(pivots, row):
    """``linalg._insert``, but each row pivots at its largest column: its smallest monomial."""
    for c in [c for c in row if c in pivots]:
        linalg._subtract(row, row.pop(c), pivots[c])
    if not row:
        return False
    p = max(row)
    inv = Fraction(1) / row.pop(p)
    tail = {k: v * inv for k, v in row.items()}
    for q in pivots.values():
        if p in q:
            linalg._subtract(q, q.pop(p), tail)
    pivots[p] = tail
    return True


def test_an_echelon_pivoted_at_the_wrong_end_is_refused(monkeypatch):
    # each pivot row then has tail terms above its lead, so the residue
    # table of the hand-built basis cannot be filled smallest term first
    f = parse_poly("x^7+y^6+z^5+x^2*y*z+x*y^3*z^2", V3)
    milnor = milnor_algebra(f)
    monkeypatch.setattr(linalg, "_insert", _insert_at_the_wrong_end)
    stair = singularity._tjurina_staircase(f, milnor)
    with pytest.raises(ValueError, match="tail term above the lead of "):
        stair.residue({})


def test_an_echelon_that_loses_a_pivot_row_fails_the_reference(monkeypatch):
    # without the row of [f] itself the residues span only m[f]M, a proper
    # subspace of [f]M (Nakayama), so tau comes out too large
    f = parse_poly("x^4+y^3+z^3+x*y*z", V3)
    shifted_residue = singularity._shifted_residue

    def without_f(stair, h, b):
        return {} if not any(b) else shifted_residue(stair, h, b)

    monkeypatch.setattr(singularity, "_shifted_residue", without_f)
    with pytest.raises(AssertionError):
        assert_matches_reference(f)
