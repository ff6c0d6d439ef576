"""Exact linear algebra helpers."""

import random
from fractions import Fraction

import pytest

from germcalc import linalg
from conftest import dense_kernel, dense_rref

F = Fraction


def identity(n):
    return [[F(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    """The product of two square matrices, apart from ``linalg.mat_mul``."""
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), F(0)) for j in range(len(b))]
            for i in range(len(a))]


def char_poly(a):
    """Characteristic polynomial coefficients [c_0, ..., c_{n-1}, 1]: the
    test-local oracle for ``is_nilpotent``.

    Faddeev-LeVerrier recursion; exact over the rationals.
    """
    n = len(a)
    coeffs = [F(0)] * n + [F(1)]
    m = identity(n)
    for k in range(1, n + 1):
        m = mat_mul(a, m)
        c = -sum((m[i][i] for i in range(n)), F(0)) / k
        coeffs[n - k] = c
        for i in range(n):
            m[i][i] += c
    return coeffs


def test_rank_and_kernel():
    m = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
    assert dense_rref(m)[1] == [0, 1]
    assert linalg.rank(m, 3) == 2
    assert linalg.kernel_basis(m, 3) == dense_kernel(m, 3) == [[F(-1), F(-1), F(1)]]


def test_kernel_basis_annihilates():
    m = [[F(1), F(2), F(3)], [F(0), F(1), F(1)]]
    for v in linalg.kernel_basis(m, 3):
        for row in m:
            assert sum(a * b for a, b in zip(row, v)) == 0
    assert len(linalg.kernel_basis(m, 3)) == 1


def test_kernel_of_empty_matrix_is_everything():
    basis = linalg.kernel_basis([], 3)
    assert len(basis) == 3
    assert linalg.rank([], 3) == 0


@pytest.mark.parametrize(
    "rows, ncols",
    [
        ([[1, 0, 1]], 2),  # too long
        ([[0, 0, 1]], 2),
        ([[1, 1], [1]], 2),  # ragged
        ([[1]], 3),  # too short
        ([[1, 0], [0, 1], [1]], 2),  # checked also after the last pivot
        ([{2: 1}], 2),  # sparse column past the end
        ([{-1: 1}], 2),
    ],
    ids=["long", "long-zero-lead", "ragged", "short", "after-full-rank",
         "sparse-past-end", "sparse-negative"],
)
def test_kernel_basis_rejects_rows_that_do_not_fit(rows, ncols):
    with pytest.raises(ValueError):
        linalg.kernel_basis(rows, ncols)
    with pytest.raises(ValueError):
        linalg.rank(rows, ncols)


def test_char_poly_of_diagonal():
    a = [[F(2), F(0)], [F(0), F(3)]]
    # (t-2)(t-3) = t^2 - 5t + 6
    assert char_poly(a) == [F(6), F(-5), F(1)]


def test_nilpotency_detection():
    nil = [[F(0), F(1)], [F(0), F(0)]]
    assert linalg.is_nilpotent(nil)
    assert not linalg.is_nilpotent([[F(1), F(0)], [F(0), F(0)]])


def _jordan_block(n):
    return [[F(int(j == i + 1)) for j in range(n)] for i in range(n)]


def _by_char_poly(a):
    return all(c == 0 for c in char_poly(a)[:-1])


@pytest.mark.parametrize("n", range(1, 10))
def test_jordan_block_is_nilpotent_of_index_n(n):
    # J^(n-1) != 0, so stopping one squaring short of n misses it
    block = _jordan_block(n)
    assert linalg.is_nilpotent(block)
    assert _by_char_poly(block)


@pytest.mark.parametrize("n", range(1, 10))
def test_cyclic_shift_is_not_nilpotent(n):
    shift = [[F(int(j == (i + 1) % n)) for j in range(n)] for i in range(n)]
    assert not linalg.is_nilpotent(shift)
    assert not _by_char_poly(shift)


def test_nilpotency_agrees_with_char_poly():
    rng = random.Random(5)
    cases = [[], [[F(0)]], [[F(3)]]]
    for n in range(2, 7):
        # u v^T with v . u = 0 squares to zero without being triangular
        u = [F(rng.randint(-3, 3)) for _ in range(n - 1)] + [F(1)]
        v = [F(rng.randint(1, 3)) for _ in range(n - 1)]
        v.append(-sum(a * b for a, b in zip(u, v)))
        cases.append([[a * b for b in v] for a in u])
        cases.append([[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)])
    verdicts = [linalg.is_nilpotent(a) for a in cases]
    assert verdicts == [_by_char_poly(a) for a in cases]
    assert verdicts.count(True) >= 7 and verdicts.count(False) >= 2


def test_deterministic_pivoting():
    # pivots are the leading columns whatever the row order: the kernel is
    # spanned by the vector of the last column, the one free column
    m = [[F(0), F(1), F(2)], [F(1), F(0), F(3)]]
    assert linalg.kernel_basis(m, 3) == linalg.kernel_basis(m[::-1], 3) == dense_kernel(m, 3)
    assert linalg.kernel_basis(m, 3) == [[F(-3), F(-2), F(1)]]
    assert dense_rref(m)[1] == [0, 1]
