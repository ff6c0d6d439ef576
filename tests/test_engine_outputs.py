"""The engine's outputs against those it gave before the Gebauer-Moeller pair update.

``data/engine_outputs.json`` was written by this module (``python
tests/test_engine_outputs.py``) at commit 6479908, whose pair walk tested
Buchberger's chain criterion at pop time, over the partners both elements
of a pair had been walked with.  Changing which pairs are reduced may
change the generators the engine returns, but not what they describe: the
leading terms of a minimal standard basis, the staircase and its dimension
are unique, and the syzygies must generate the same module.  The cases are
the Tjurina and Milnor ideals of the catalog under NEGDEGREVLEX and
DEGREVLEX, one ICIS module, and the Schreyer seeds (df, f) of t433.
"""

import json
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest

from germcalc import (
    DEGREVLEX,
    NEGDEGREVLEX,
    VectorPoly,
    normal_form,
    parse_poly,
    staircase,
    standard_basis,
    syzygies,
)

from conftest import CATALOG, cached_poly, mora_normal_form

RECORDED = Path(__file__).resolve().parent / "data" / "engine_outputs.json"
ORDERS = {"negdegrevlex": NEGDEGREVLEX, "degrevlex": DEGREVLEX}
V3 = ("x", "y", "z")


def jacobian(f):
    return [f.partial_derivative(v) for v in f.ring]


def icis_generators():
    eqs = [parse_poly("x^4+y^4+2*z^2", V3), parse_poly("2*z-x*y", V3)]
    zero = parse_poly("0", V3)
    gens = [VectorPoly.from_polys([g.partial_derivative(v) for g in eqs]) for v in V3]
    gens += [VectorPoly.from_polys([g, zero]) for g in eqs]
    gens += [VectorPoly.from_polys([zero, g]) for g in eqs]
    return gens


def basis_cases():
    """(label, generators, order) of every standard basis compared."""
    for germ in CATALOG:
        f = cached_poly(germ.text, germ.vars)
        for name, order in ORDERS.items():
            yield f"{germ.name}-tjurina-{name}", [f] + jacobian(f), order
            yield f"{germ.name}-milnor-{name}", jacobian(f), order
    yield "icis-negdegrevlex", icis_generators(), NEGDEGREVLEX


def schreyer_seeds():
    f = cached_poly("x^4+y^3+z^3+x*y*z", V3)
    return jacobian(f) + [f]


def basis_outputs(gens, order):
    sb = standard_basis(gens, order)
    st = staircase(sb)
    return {
        "leading_terms": [[c, list(e)] for c, e in sb.leading_terms],
        "finite": st.finite,
        "dimension": st.dimension if st.finite else None,
        "standard_monomials": [[c, list(e)] for c, e in st.standard_monomials],
    }


def vector_terms(v):
    return sorted([c, list(e), str(a)] for (c, e), a in v.terms.items())


def syzygy_outputs(order):
    return [vector_terms(s) for s in syzygies(schreyer_seeds(), order)]


@cache
def recorded():
    return json.loads(RECORDED.read_text())


@pytest.mark.parametrize(
    "gens,order,label", [pytest.param(g, o, lab, id=lab) for lab, g, o in basis_cases()]
)
def test_leading_terms_and_staircase_are_unchanged(gens, order, label):
    assert basis_outputs(gens, order) == recorded()["bases"][label]


@pytest.mark.parametrize("name", sorted(ORDERS))
def test_schreyer_syzygies_generate_the_recorded_module(name):
    order = ORDERS[name]
    ring, k = V3, len(schreyer_seeds())
    before = [
        VectorPoly(ring, k, {(c, tuple(e)): Fraction(a) for c, e, a in terms})
        for terms in recorded()["syzygies"][name]
    ]
    after = syzygies(schreyer_seeds(), order)
    # mutual reduction: each set lies in the module the other generates
    # a syzygy module has infinite codimension: a local order needs Mora
    nf = mora_normal_form if order.is_local() else normal_form
    for gens, others in ((after, before), (before, after)):
        sb = standard_basis(gens, order)
        assert all(nf(s, sb).is_zero() for s in others)


def one_case_a_line(table):
    lines = [f" {json.dumps(key)}: {json.dumps(value)}" for key, value in table.items()]
    return "{\n" + ",\n".join(lines) + "\n}"


if __name__ == "__main__":
    bases = {label: basis_outputs(g, o) for label, g, o in basis_cases()}
    syzs = {name: syzygy_outputs(o) for name, o in ORDERS.items()}
    RECORDED.write_text(
        f'{{"bases": {one_case_a_line(bases)},\n"syzygies": {one_case_a_line(syzs)}}}\n'
    )
