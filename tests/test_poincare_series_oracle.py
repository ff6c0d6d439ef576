"""Closed-form oracle: every output of a quasi-homogeneous germ from its Poincaré series.

Let f be quasi-homogeneous with an isolated singularity, of weights w and
degree d.  Then f lies in J = (df) (Euler), so T1 = M and tau = mu (Saito,
Invent. Math. 1971).  The weights of any monomial basis of M are the
exponents of the Poincaré polynomial

    P(t) = prod_i (1 - t^(d - w_i)) / (1 - t^(w_i)),

counted with their coefficients, and mu = P(1) (Milnor and Orlik, Topology
1970).  The Euler field E = sum w_i x_i d_i has E(f) = d f, so on a
monomial basis its twisted action is diagonal, E.[x^b] = (wt(b) - d) [x^b]:
the modular tangent space is spanned by the basis vectors of weight d, its
dimension is the coefficient of t^d, and the untwisted kernel is the
weight-0 piece, span([1]), so ``convention_sensitive`` holds exactly when
that coefficient is not 1.  P is expanded as one power series, with no
engine call; a factor (1 - t^(d - w)) / (1 - t^w) is a polynomial only when
w divides d, so the quotient cannot be taken factor by factor.
"""

from collections import Counter

import pytest

from germcalc import GermInput, linalg, milnor_number, modular, parse_poly, tjurina_number
from germcalc.modular import ModularTangent, modular_tangent_space
from germcalc.singularity import WeightData

from conftest import V2, V3

V4 = ("x", "y", "z", "w")

# (f, variables, weights, degree, the coefficient of t^d of P, worked by hand)
GERMS = [
    ("x^5+y^5+z^5+x^2*y^2*z", V3, (1, 1, 1), 5, 12),
    ("x^4+y^4+z^4+w^4+x^2*y*z", V4, (1, 1, 1, 1), 4, 19),
    ("x^3+y^7", V2, (7, 3), 21, 0),
    ("x^2*y+y^5+z^3", V3, (6, 3, 5), 15, 0),
    ("x^4+y^5+z^6", V3, (15, 12, 10), 60, 1),
    ("x^3+y^3+z^3", V3, (1, 1, 1), 3, 1),
    ("x^5+y^5", V2, (1, 1), 5, 2),
    ("x^2*y+y^4", V2, (3, 2), 8, 0),
    ("x^3+x*y^3", V2, (3, 2), 9, 0),
    ("x^3+y^4+z^5", V3, (20, 15, 12), 60, 0),
    ("x^3*y+y^3*z+z^3*x", V3, (1, 1, 1), 4, 6),
    ("x^3+y^3+z^3+w^3", V4, (1, 1, 1, 1), 3, 4),
    ("x^2*y+y^3+z^4", V3, (4, 4, 3), 12, 0),
]
IDS = [g[0] for g in GERMS]


def poincare(weights, d) -> dict[int, int]:
    """The nonzero coefficients of P(t), by exponent, from one power series."""
    top = sum(d - 2 * w for w in weights)  # deg P; the series is checked past it
    series = [0] * (2 * top + d + 1)
    series[0] = 1
    for w in weights:  # times 1 - t^(d - w)
        for k in range(len(series) - 1, d - w - 1, -1):
            series[k] -= series[k - d + w]
    for w in weights:  # divided by 1 - t^w: the sum of t^(kw)
        for k in range(w, len(series)):
            series[k] += series[k - w]
    assert not any(series[top + 1 :]), "P is not a polynomial: the weights do not fit"
    return {k: c for k, c in enumerate(series) if c}


def assert_matches_poincare(text, vars, weights, d, tangent=modular_tangent_space):
    f = parse_poly(text, vars)
    p = poincare(weights, d)
    mu = sum(p.values())
    tau, t1 = tjurina_number(GermInput((f,)))
    assert milnor_number(GermInput((f,))) == tau == mu
    assert t1.weight_data == WeightData(weights, d)
    assert Counter(t1.weights) == p
    mt = tangent(f)
    units = {tuple(int(k == j) for k in range(tau)) for j, w in enumerate(t1.weights) if w == d}
    assert set(mt.kernel_basis) == units
    assert mt.dimension == p.get(d, 0)
    assert mt.convention_sensitive == (p.get(d, 0) != 1)


@pytest.mark.parametrize("text, vars, weights, d, expected", GERMS, ids=IDS)
def test_a_quasi_homogeneous_germ_matches_its_poincare_series(text, vars, weights, d, expected):
    assert poincare(weights, d).get(d, 0) == expected
    assert_matches_poincare(text, vars, weights, d)


def test_the_series_is_one_power_series_not_a_product_of_polynomial_factors():
    # x^2*y+y^5+z^3: w = (6, 3, 5), d = 15; 6 does not divide 15, so
    # (1 - t^9) / (1 - t^6) is no polynomial, yet P is: the D6 part gives
    # (1 + t^3 + t^6)(1 + t^6), z^3 gives 1 + t^5, and mu = 6 * 2
    p = poincare((6, 3, 5), 15)
    assert sum(p.values()) == 12
    assert p == {0: 1, 3: 1, 5: 1, 6: 2, 8: 1, 9: 1, 11: 2, 12: 1, 14: 1, 17: 1}


def untwisted_tangent_space(f) -> ModularTangent:
    """``modular_tangent_space``, but reporting the kernel of the untwisted actions."""
    t1 = modular._isolated_t1(f, "modular tangent space")
    stacked = []
    for row in modular._cofactor_generators(f, t1):
        _, untwisted = modular._action_rows(row, t1)
        stacked.extend(untwisted.values())
    kernel = linalg.kernel_basis(stacked, t1.tau)
    return ModularTangent(tuple(tuple(v) for v in kernel), t1, False)


def test_a_tangent_space_without_the_twist_fails_the_oracle():
    text, vars, weights, d, _ = GERMS[0]
    f = parse_poly(text, vars)
    assert untwisted_tangent_space(f).dimension == 1  # span([1]), not the 12 of weight d
    with pytest.raises(AssertionError):
        assert_matches_poincare(text, vars, weights, d, tangent=untwisted_tangent_space)
