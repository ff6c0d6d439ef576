"""Closed-formula oracle: Brieskorn-Pham germs times a unit.

f = x^a + k*y^b + z^c (2 <= a, b, c <= 6, k != 0) is weighted homogeneous
with an isolated singularity, so mu(f) = (a-1)(b-1)(c-1) (Milnor and Orlik,
"Isolated singularities defined by weighted homogeneous polynomials",
Topology 1970) and tau(f) = mu(f) (K. Saito, "Quasihomogene isolierte
Singularitaeten von Hyperflaechen", Invent. Math. 1971).  Both are contact
invariants, so a unit u = u0 + l(x, y, z), u0 != 0 and l a nonzero linear
form, leaves them: mu(u f) = tau(u f) = (a-1)(b-1)(c-1).  The product
has no positive weights (it holds x^a and x_i x^a for each variable x_i of
l), so every example completes the Milnor algebra of a germ with no grading, runs
the Tjurina echelon and fills its residue rows on demand.  The formula is
computed without the engine.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from germcalc import GermInput, Polynomial, milnor_number, tjurina_number
from germcalc.singularity import find_weights

V3 = ("x", "y", "z")
ORACLE = settings(derandomize=True, database=None, max_examples=30, deadline=None)

nonzero = st.integers(-4, 4).filter(bool)
exponent = st.integers(2, 6)
variable = st.sampled_from([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
linear_form = st.dictionaries(variable, nonzero, min_size=1)


@ORACLE
@given(exponent, exponent, exponent, nonzero, nonzero, linear_form)
def test_mu_and_tau_of_a_unit_times_a_brieskorn_pham_germ(a, b, c, k, u0, l):
    f = Polynomial(V3, {(a, 0, 0): 1, (0, b, 0): k, (0, 0, c): 1})
    g = Polynomial(V3, {(0, 0, 0): u0, **l}) * f
    assert find_weights(g) is None
    germ = GermInput((g,))
    expected = (a - 1) * (b - 1) * (c - 1)
    assert milnor_number(germ) == expected
    assert tjurina_number(germ)[0] == expected
