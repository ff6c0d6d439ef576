"""Property tests for the sparse incremental echelon form behind rank and kernels.

Each matrix is checked against the dense column sweep kept in the tests
(``conftest.dense_rref``), so the library's elimination is never its own
reference.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from germcalc import linalg
from conftest import dense_kernel, dense_rref

PROPERTY = settings(derandomize=True, database=None, max_examples=150, deadline=None)

entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3])  # small integers, mostly zero


@st.composite
def matrices(draw):
    """(ncols, dense rows): zero rows and repeated rows drawn on purpose."""
    ncols = draw(st.integers(1, 10))
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "repeat"]))
        if kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "zero":
            rows.append([0] * ncols)
        else:
            rows.append(draw(st.lists(entry, min_size=ncols, max_size=ncols)))
    return ncols, rows


def _sparse(row):
    return {c: Fraction(v) for c, v in enumerate(row) if v}


@st.composite
def mixed(draw):
    """A matrix with each row given dense or as a sparse {column: value} map."""
    ncols, rows = draw(matrices())
    flags = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    return ncols, rows, [_sparse(r) if sparse else r for r, sparse in zip(rows, flags)]


@PROPERTY
@given(matrices())
def test_rank_and_free_columns_match_the_dense_sweep(case):
    ncols, rows = case
    _, pivots = dense_rref(rows)
    assert linalg.rank(rows, ncols) == len(pivots)
    kernel = linalg.kernel_basis(rows, ncols)
    # a kernel vector's last nonzero entry is the 1 at its free column
    free = [max(c for c, a in enumerate(v) if a) for v in kernel]
    assert free == [c for c in range(ncols) if c not in pivots]
    assert kernel == dense_kernel(rows, ncols)


@PROPERTY
@given(mixed())
def test_kernel_of_dense_and_sparse_rows_matches_the_dense_sweep(case):
    ncols, rows, given_rows = case
    kernel = linalg.kernel_basis(given_rows, ncols)
    assert kernel == dense_kernel(rows, ncols)
    assert linalg.rank(given_rows, ncols) == len(dense_rref(rows)[1]) == ncols - len(kernel)
    for v in kernel:
        assert all(sum(a * b for a, b in zip(r, v)) == 0 for r in rows)


@PROPERTY
@given(mixed(), st.randoms(use_true_random=False))
def test_kernel_ignores_row_order(case, rng):
    ncols, _, given_rows = case
    shuffled = list(given_rows)
    rng.shuffle(shuffled)
    assert linalg.kernel_basis(shuffled, ncols) == linalg.kernel_basis(given_rows, ncols)


@PROPERTY
@given(mixed(), st.data())
def test_kernel_ignores_appended_combinations(case, data):
    ncols, rows, given_rows = case
    extra = []
    for _ in range(data.draw(st.integers(1, 4))):
        weights = data.draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
        extra.append([sum((w * r[c] for w, r in zip(weights, rows)), Fraction(0))
                      for c in range(ncols)])
    base = linalg.kernel_basis(given_rows, ncols)
    assert linalg.kernel_basis(given_rows + extra, ncols) == base
    assert linalg.kernel_basis(extra + given_rows, ncols) == base
