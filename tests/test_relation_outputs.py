"""Relations, tangent fields, modular data and weights against recorded outputs.

``data/relation_outputs.json`` was written by this module (``python
tests/test_relation_outputs.py``) at commit 0986377, where the engine made
each relation rational and ``_relations`` merged its terms once more after
dropping the slack entry, and where ``find_weights`` solved its system
through a reduced row echelon form and back-substitution.  Those outputs
must not change, term for term and in order: ``syzygies`` of the Schreyer
seeds (df, f) of every catalog germ under NEGDEGREVLEX and DEGREVLEX and of
the ICIS module; the fields ``_cofactor_generators`` keeps, on the catalog
germs that are not quasi-homogeneous and on the germs of the ``modular``
benchmark ladder (``perfbench/workloads.py``); and ``derivation_module``,
``modular_tangent_space`` and ``find_weights`` on all of these germs.
``_cofactor_generators`` returns primitive integer rows, and its table holds
them as sorted (slot, exponent, integer) entries; it was converted once
from the recorded rational fields (each made primitive, its scale dropped),
and is regenerated from the code like the others.
"""

import json
from functools import cache
from pathlib import Path

import pytest

from germcalc import (
    DEGREVLEX,
    NEGDEGREVLEX,
    derivation_module,
    find_weights,
    modular_tangent_space,
    syzygies,
)
from germcalc.modular import _cofactor_generators
from germcalc.singularity import tjurina_algebra

from conftest import CATALOG, V3, cached_poly
from test_engine_outputs import icis_generators, jacobian, one_case_a_line, vector_terms

RECORDED = Path(__file__).resolve().parent / "data" / "relation_outputs.json"
ORDERS = {"negdegrevlex": NEGDEGREVLEX, "degrevlex": DEGREVLEX}

# the germs of the ``modular`` benchmark ladder, unscaled
LADDER = {
    "t543": "x^5+y^4+z^3+x*y*z",
    "quartic-t": "x^4+y^4+z^4+x^2*y^2+x*y*z",
    "t555": "x^5+y^5+z^5+x*y*z",
    "y642-fiber": "x^6+y^4+z^2+x*y*z+8*y^3",
    "mu34-qh": "x^6+y^5+z^4+x^2*y*z",
    "quintic3": "x^5+y^5+z^5+x^2*y^2*z",
}
GERMS = {g.name: (g.text, g.vars) for g in CATALOG} | {n: (t, V3) for n, t in LADDER.items()}
COFACTOR_GERMS = [g.name for g in CATALOG if not g.quasi_homogeneous] + list(LADDER)


def syzygy_cases():
    """(label, generators, order) of every syzygy computation compared."""
    for germ in CATALOG:
        f = cached_poly(germ.text, germ.vars)
        for name, order in ORDERS.items():
            yield f"{germ.name}-{name}", jacobian(f) + [f], order
    yield "icis-negdegrevlex", icis_generators(), NEGDEGREVLEX


def poly_terms(p):
    return sorted([list(e), str(c)] for e, c in p.terms.items())


def field_outputs(v):
    coefficients = [poly_terms(a) for a in v.coefficients]
    return {"coefficients": coefficients, "cofactor": poly_terms(v.cofactor)}


def germ(name):
    return cached_poly(*GERMS[name])


def syzygy_outputs(gens, order):
    return [vector_terms(s) for s in syzygies(gens, order)]


def cofactor_outputs(name):
    """The kept fields' integer rows: a_i in slot i, the cofactor in slot n."""
    f = germ(name)
    rows = _cofactor_generators(f, tjurina_algebra(f)[1])
    return [sorted([s, list(e), c] for (s, e), c in row.items()) for row in rows]


def derivation_outputs(name):
    return [field_outputs(v) for v in derivation_module(germ(name))]


def modular_outputs(name):
    mt = modular_tangent_space(germ(name))
    return {
        "dimension": mt.dimension,
        "kernel_basis": [[str(c) for c in v] for v in mt.kernel_basis],
        "convention_sensitive": mt.convention_sensitive,
    }


def weight_outputs(name):
    wdata = find_weights(germ(name))
    return None if wdata is None else [list(wdata.weights), wdata.degree]


@cache
def recorded():
    return json.loads(RECORDED.read_text())


@pytest.mark.parametrize(
    "gens,order,label", [pytest.param(g, o, lab, id=lab) for lab, g, o in syzygy_cases()]
)
def test_syzygies_are_the_recorded_ones_in_order(gens, order, label):
    assert syzygy_outputs(gens, order) == recorded()["syzygies"][label]


@pytest.mark.parametrize("name", COFACTOR_GERMS)
def test_kept_cofactor_fields_are_the_recorded_ones(name):
    assert cofactor_outputs(name) == recorded()["cofactor_fields"][name]


@pytest.mark.parametrize("name", list(GERMS))
def test_derivations_modular_data_and_weights_are_the_recorded_ones(name):
    assert derivation_outputs(name) == recorded()["derivations"][name]
    assert modular_outputs(name) == recorded()["modular"][name]
    assert weight_outputs(name) == recorded()["weights"][name]


if __name__ == "__main__":
    tables = {
        "syzygies": {label: syzygy_outputs(g, o) for label, g, o in syzygy_cases()},
        "cofactor_fields": {name: cofactor_outputs(name) for name in COFACTOR_GERMS},
        "derivations": {name: derivation_outputs(name) for name in GERMS},
        "modular": {name: modular_outputs(name) for name in GERMS},
        "weights": {name: weight_outputs(name) for name in GERMS},
    }
    body = ",\n".join(f"{json.dumps(k)}: {one_case_a_line(t)}" for k, t in tables.items())
    RECORDED.write_text("{" + body + "}\n")
