"""Oracle: invariance under an invertible linear change of coordinates.

An invertible linear map A of C^3 fixes the origin, so f and f o A are
right-equivalent germs: mu, tau and the dimension of the maximal modular
stratum's tangent space agree, and so does ``convention_sensitive``: A
carries the tangent fields of f to those of f o A, each cofactor h to h o A,
and induces an isomorphism of Tjurina algebras that intertwines both the
twisted and the untwisted actions.
The change mixes the support of f, so a quasi-homogeneous catalog germ
usually loses its diagonal weights: the germ itself takes the Euler branch of
``_cofactor_generators`` and its changed copy the Schreyer branch, and the
test compares the two.  The expected mu, tau and modular dimension are the
catalog's, fixed ahead of time; ``convention_sensitive`` is the original
germ's.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from germcalc import GermInput, Polynomial, milnor_number, modular_tangent_space
from germcalc.singularity import find_weights, tjurina_algebra

from conftest import CATALOG, CATALOG_BY_NAME, V3, cached_modular, cached_poly

ORACLE = settings(derandomize=True, database=None, max_examples=30, deadline=None)

GERMS = [g for g in CATALOG if g.vars == V3 and g.tau <= 10]
OFF_DIAGONAL = [(i, j) for i in range(3) for j in range(3) if i != j]


def det3(a) -> int:
    return (
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    )


matrices = (
    st.lists(st.lists(st.sampled_from([-1, 0, 1, 2]), min_size=3, max_size=3), min_size=3, max_size=3)
    .filter(lambda a: sum(1 for i, j in OFF_DIAGONAL if a[i][j]) >= 2)
    .filter(det3)
)


def changed(f: Polynomial, a) -> Polynomial:
    """f o A: each x_i replaced by the linear form sum_j a_ij x_j."""
    forms = [
        Polynomial(V3, {tuple(int(k == j) for k in range(3)): c for j, c in enumerate(row) if c})
        for row in a
    ]
    out = Polynomial.zero(V3)
    for e, c in f.iter_terms():
        term = Polynomial.constant(V3, c)
        for form, k in zip(forms, e):
            term = term * form**k
        out = out + term
    return out


def assert_invariant(entry, a):
    g = changed(cached_poly(entry.text, entry.vars), a)
    expected = cached_modular(entry.text, entry.vars)
    tau, _ = tjurina_algebra(g)
    mt = modular_tangent_space(g)
    assert (milnor_number(GermInput((g,))), tau, mt.dimension, mt.convention_sensitive) == (
        entry.mu, entry.tau, entry.modular_dim, expected.convention_sensitive
    )
    return g


@ORACLE
@given(st.sampled_from(GERMS), matrices)
def test_mu_tau_and_the_modular_stratum_survive_a_linear_change(entry, a):
    assert_invariant(entry, a)


def test_a_changed_quasi_homogeneous_germ_takes_the_schreyer_branch():
    # x^4+y^4+z^2+x*y*z with x -> x+y, z -> z+x: (9, 9, 1) through the Euler
    # field before the change, through the Schreyer walk after it
    entry = CATALOG_BY_NAME["t442_l1"]
    g = assert_invariant(entry, [[1, 1, 0], [0, 1, 0], [1, 0, 1]])
    assert find_weights(cached_poly(entry.text, entry.vars)) is not None
    assert find_weights(g) is None
