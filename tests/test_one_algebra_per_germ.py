"""Each germ's Milnor and Tjurina algebras, weights and projective T1 rank are computed once.

The counting tests wrap ``standard_basis``, ``find_weights``, the
Schreyer relation walk ``groebner._relations`` (behind ``syzygies`` and
the modular path alike) and ``linalg.rank`` under every name where a
germcalc module looks them up, so a call from any module is seen; the
caches of ``milnor_algebra``, ``tjurina_algebra`` and
``projective_t1_dimension`` are cleared first so every count starts from
nothing.
The cache tests check that no cached algebra leaks from one germ into
another.
"""

import importlib
import pkgutil

import pytest

import germcalc
from germcalc import (
    GermInput,
    NonIsolatedError,
    catalog,
    derivation_module,
    find_weights,
    modular_tangent_space,
    parse_poly,
    scan,
    tjurina_number,
)
from germcalc.cli import invariants_report, main
from germcalc.modular import projective_t1_dimension
from germcalc.singularity import milnor_algebra, milnor_number, tjurina_algebra
from conftest import CATALOG, cached_poly, cached_tjurina

V2 = ("x", "y")
V3 = ("x", "y", "z")


@pytest.fixture
def calls(monkeypatch):
    """First arguments of every standard_basis, find_weights, relation walk and rank, by name."""
    namespaces = [germcalc] + [
        importlib.import_module(f"germcalc.{m.name}") for m in pkgutil.iter_modules(germcalc.__path__)
    ]
    seen: dict[str, list] = {"standard_basis": [], "find_weights": [], "_relations": [], "rank": []}
    for name, log in seen.items():
        original = next(getattr(ns, name) for ns in namespaces if hasattr(ns, name))

        def counted(*args, _fn=original, _log=log, **kwargs):
            _log.append(args[0])
            return _fn(*args, **kwargs)

        for ns in namespaces:
            if getattr(ns, name, None) is original:
                monkeypatch.setattr(ns, name, counted)
    for cached in (milnor_algebra, tjurina_algebra, projective_t1_dimension):
        cached.cache_clear()
    yield seen
    for cached in (milnor_algebra, tjurina_algebra, projective_t1_dimension):
        cached.cache_clear()


@pytest.mark.parametrize(
    "text, vars",
    [("x^4+y^3+z^3+x*y*z", V3), ("x^3+y^3+z^3+x*y*z", V3), ("x^2*y", V2)],
    ids=["t433", "t333_l1", "non_isolated"],
)
def test_invariants_report_builds_one_algebra_per_germ(calls, text, vars):
    invariants_report(parse_poly(text, vars))
    assert len(calls["standard_basis"]) == 1  # mu; tau is read off the Milnor algebra
    assert len(calls["find_weights"]) == 1


@pytest.mark.parametrize(
    "text, vars, pivots",
    [("x^3+y^3+z^3+x*y*z", V3, None), ("x^6+y^2+z^2", V3, None), ("x^4+y^3+z^3+x*y*z", V3, 1)],
    ids=["t333_l1", "a5", "t433"],
)
def test_tjurina_algebra_is_read_off_the_milnor_algebra(calls, text, vars, pivots):
    # a quasi-homogeneous germ's T1 is its Milnor algebra, table and all;
    # any other germ's basis extends the Milnor basis by one element per pivot
    f = parse_poly(text, vars)
    _, t1 = tjurina_algebra(f)
    milnor = milnor_algebra(f)
    if pivots is None:
        assert t1.stair is milnor
    else:
        gens = t1.stair.basis.generators
        assert gens[: len(milnor.basis.generators)] == milnor.basis.generators
        assert len(gens) == len(milnor.basis.generators) + pivots
    assert len(calls["standard_basis"]) == 1


def test_each_scan_row_builds_one_algebra(calls):
    report = scan(catalog("tpqr:3,3,3"), [{"lambda": v} for v in (0, 1, -3)])
    assert [row.non_isolated for row in report.rows] == [False, False, True]
    assert [row.modular_dim for row in report.rows] == [1, 1, None]
    assert len(calls["standard_basis"]) == 3
    assert len(calls["find_weights"]) == len(set(calls["find_weights"])) == 3


def test_each_non_quasi_homogeneous_scan_row_builds_one_algebra(calls):
    # the modular stage of these rows reads the Milnor algebra that mu built
    report = scan(catalog("tpqr:4,3,3"), [{"lambda": v} for v in (1, 2)])
    assert [(row.mu, row.tau, row.weights_found) for row in report.rows] == [(9, 8, False)] * 2
    assert len(calls["standard_basis"]) == 2
    assert len(calls["_relations"]) == 2


@pytest.mark.parametrize(
    "text, vars, walks, bases",
    [("x^3+y^3+z^3+x*y*z", V3, 0, 1), ("x^6+y^2+z^2", V3, 0, 1), ("x^4+y^3+z^3+x*y*z", V3, 1, 1)],
    ids=["t333_l1", "a5", "t433"],
)
def test_bare_modular_tangent_space_needs_syzygies_only_without_weights(
    calls, text, vars, walks, bases
):
    # a quasi-homogeneous germ uses its Euler field alone; any other germ
    # needs one relation walk; T1 of either is read off the Milnor algebra
    modular_tangent_space(parse_poly(text, vars))
    assert len(calls["_relations"]) == walks
    assert len(calls["standard_basis"]) == bases


def test_projective_command_ranks_the_forms_once(calls, capsys):
    # the dimension it prints and its embedding check read one rank
    argv = ["projective", "--poly", "x^4+y^4+z^4+w^4", "--vars", "x,y,z,w"]
    assert main(argv) == 0
    assert capsys.readouterr().out.endswith("weight-4 piece of the cone: equal\n")
    assert len(calls["rank"]) == 1
    assert len(calls["standard_basis"]) == 1  # mu; tau is read off the Milnor algebra


def test_back_to_back_germs_get_their_own_milnor_algebra():
    germs = [
        (parse_poly("x^4+y^3+z^3+x*y*z", V3), 9),
        (parse_poly("x^3+y^3+z^3", V3), 8),
        (parse_poly("u^4+v^3+w^3+u*v*w", ("u", "v", "w")), 9),  # the first one's terms, other ring
    ]
    milnor_algebra.cache_clear()
    for f, mu in germs + germs[::-1]:
        assert milnor_number(GermInput((f,))) == mu
        assert milnor_algebra(f).basis.ring == f.ring


def _modular_fields(f):
    mt = modular_tangent_space(f)
    return mt.dimension, mt.kernel_basis, mt.convention_sensitive, mt.t1.monomials


def test_interleaved_germs_give_fresh_results():
    polys = [
        parse_poly("x^4+y^3+z^3+x*y*z", V3),
        parse_poly("x^3+y^3+z^3+x*y*z", V3),
        parse_poly("x^3+y^2", V2),
        parse_poly("u^3+v^2", ("u", "v")),  # same terms as the one before, other ring
    ]
    fresh = {}
    for f in polys:
        tjurina_algebra.cache_clear()
        fresh[f] = (derivation_module(f), _modular_fields(f))
    for f in polys + polys[::-1] + polys:
        tau, t1 = tjurina_algebra(f)
        direct_tau, direct_t1 = tjurina_number(GermInput((f,)))
        assert (tau, t1.ring, t1.monomials, t1.weights, t1.weight_data) == (
            direct_tau, f.ring, direct_t1.monomials, direct_t1.weights, direct_t1.weight_data
        )
        assert derivation_module(f) == fresh[f][0]
        assert _modular_fields(f) == fresh[f][1]


def test_non_isolated_error_from_both_entry_points_even_after_a_cached_germ():
    isolated, bad = parse_poly("x^3+y^2", V2), parse_poly("x^2*y", V2)
    for warm in (False, True):
        tjurina_algebra.cache_clear()
        for entry_point in (derivation_module, modular_tangent_space):
            if warm:
                modular_tangent_space(isolated)
            with pytest.raises(NonIsolatedError, match="needs an isolated singularity"):
                entry_point(bad)
    assert tjurina_algebra(bad) == tjurina_number(GermInput((bad,))) == (float("inf"), None)


@pytest.mark.parametrize("entry", CATALOG, ids=lambda g: g.name)
def test_weight_data_is_what_find_weights_gives(entry):
    tau, t1 = cached_tjurina(entry.text, entry.vars)
    f = cached_poly(entry.text, entry.vars)
    wdata = find_weights(f)
    assert t1.weight_data == wdata
    assert t1.stair.dimension == tau
    assert t1.ring == f.ring
    assert (wdata is not None) == entry.quasi_homogeneous
    if wdata is not None:
        assert t1.weights == tuple(wdata.monomial_weight(e) for e in t1.monomials)
