"""The engine's Gebauer-Moeller pair update reduces exactly the pairs of the reference rule.

The engine (``groebner._walk_pairs``) drops pairs as each element joins:
pending pairs by criterion B, new pairs by criteria F and M and, for
ideals, the product criterion.  The reference (``conftest.reference_walk``)
is a test-local copy of that rule after Becker and Weispfenning's UPDATE,
on exponent tuples and monic rational rows, sharing no code with the
engine.  The engine and its certificate must reduce the same pairs, in the
same order, as the reference; the pairs the engine reduces are recorded
where it forms their S-vectors (``_spoly_terms``).
"""

from math import inf

import pytest

from germcalc import NEGDEGREVLEX, VectorPoly, parse_poly, standard_basis, syzygies
from germcalc import groebner
from conftest import CATALOG, cached_poly, engine_key, reference_walk


def jacobian(f):
    return [f.partial_derivative(v) for v in f.ring]


def icis_generators():
    v3 = ("x", "y", "z")
    eqs = [parse_poly("x^4+y^4+2*z^2", v3), parse_poly("2*z-x*y", v3)]
    zero = parse_poly("0", v3)
    gens = [VectorPoly.from_polys([g.partial_derivative(v) for g in eqs]) for v in v3]
    gens += [VectorPoly.from_polys([g, zero]) for g in eqs]
    gens += [VectorPoly.from_polys([zero, g]) for g in eqs]
    return gens


def cases():
    """(label, run, certified): the Tjurina ideals of the catalog, one ICIS
    module and one Schreyer seed set, each as the public call that completes it."""
    for germ in CATALOG:
        f = cached_poly(germ.text, germ.vars)
        yield germ.name, lambda f=f: standard_basis([f] + jacobian(f), NEGDEGREVLEX), True
    yield "icis", lambda: standard_basis(icis_generators(), NEGDEGREVLEX), True
    f = cached_poly("x^4+y^3+z^3+x*y*z", ("x", "y", "z"))
    yield "schreyer_t433", lambda: syzygies(jacobian(f) + [f], NEGDEGREVLEX), False


def record(monkeypatch, run):
    """Run ``run``; return its engine calls, each as (arguments, lead pairs reduced,
    completed basis), and the lead pairs its certificate reduced."""
    pairs, engines = [], []
    real_spoly, real_engine = groebner._spoly_terms, groebner._std_engine

    def spoly_terms(f, g, lcm, guard):
        pairs.append((f.lead, g.lead))
        return real_spoly(f, g, lcm, guard)

    def std_engine(*args):
        start = len(pairs)
        out = real_engine(*args)
        engines.append((args, pairs[start:], out[0]))
        del pairs[start:]
        return out

    monkeypatch.setattr(groebner, "_spoly_terms", spoly_terms)
    monkeypatch.setattr(groebner, "_std_engine", std_engine)
    run()
    return engines, pairs


def unpacked(pairs, pk):
    return [tuple(map(pk.unpack_term, pair)) for pair in pairs]


@pytest.mark.parametrize(
    "run,certified", [pytest.param(r, c, id=label) for label, r, c in cases()]
)
def test_engine_and_certificate_walk_the_pairs_of_the_pairwise_rule(monkeypatch, run, certified):
    engines, certificate = record(monkeypatch, run)
    assert len(engines) == 1
    (seeds, pk, *schreyer), walked, completed = engines[0]
    assert walked
    # a Schreyer walk splits off the bookkeeping components, which the engine
    # never compares; for the reference they sort below every real term.
    # Every case completes under NEGDEGREVLEX, so the reference orders by the
    # test-local tuple key of that order on slack-padded terms.
    split = schreyer[0] if schreyer else inf
    keyfn = engine_key(NEGDEGREVLEX)

    def key(term):
        return (term[0] < split, keyfn(term))

    assert unpacked(walked, pk) == reference_walk([pk.unpack_terms(s) for s in seeds], key, split)
    # the certificate walks the completed set, to which nothing new is added
    rows = [pk.unpack_terms(r.terms) for r in completed]
    assert unpacked(certificate, pk) == (reference_walk(rows, key, split) if certified else [])
