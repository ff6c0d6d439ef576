"""Exact linear algebra over the rationals.

Row reduction is one sparse incremental echelon form, ``_echelon``: rows
come in one at a time, dense lists or sparse ``{column: value}`` maps, and
each is reduced against the pivot rows kept so far, which stay fully
reduced (a 1 at the pivot, 0 at every other pivot column).  ``rank`` and
``kernel_basis`` both read from it and are always given the width
``ncols``, against which every row, dense or sparse, is checked.
``_insert``, the one step, lets a caller grow a span row by row.  The
reduced row echelon form of a row space is unique, so the result does not
depend on the order in which rows arrive; pivots are the leading columns,
so ranks and kernel bases are reproducible.  Dense matrices are lists of
equal-length lists of ``Fraction``.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction

Matrix = list[list[Fraction]]
Row = Sequence | Mapping[int, Fraction]  # dense list, or sparse {column: value}

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _sparse(row: Row, ncols: int) -> dict[int, Fraction]:
    """The nonzero entries of ``row``; ValueError if it does not fit ``ncols`` columns."""
    if isinstance(row, Mapping):
        if any(not 0 <= c < ncols for c in row):
            raise ValueError(f"sparse row has a column outside range({ncols})")
        return {c: Fraction(v) for c, v in row.items() if v}
    if len(row) != ncols:
        raise ValueError(f"row of length {len(row)} in a matrix of {ncols} columns")
    return {c: Fraction(v) for c, v in enumerate(row) if v}


def _echelon(rows: Iterable[Row], ncols: int) -> dict[int, dict[int, Fraction]]:
    """Pivot column -> the rest of its row in the reduced row echelon form.

    The rows go one at a time into ``_insert``.  Every row is checked
    against ``ncols``, also after the last column has become a pivot and
    the reduction stops.
    """
    rows = [_sparse(row, ncols) for row in rows]
    pivots: dict[int, dict[int, Fraction]] = {}
    for r in rows:
        if len(pivots) == ncols:
            break
        _insert(pivots, r)
    return pivots


def _insert(pivots: dict[int, dict[int, Fraction]], row: dict[int, Fraction]) -> bool:
    """Reduce the sparse ``row`` in place and add it to ``pivots``; False if it vanishes.

    Each pivot row has a 1 at its pivot, left out of the stored tail, and 0
    at every other pivot column, so the row is reduced in one pass:
    subtract the pivot row at each of its pivot-column entries.  A row that
    vanishes adds nothing; any other row is normalized at its smallest
    column, the new pivot, which is then back-substituted out of the earlier
    pivot rows.  That keeps every tail on non-pivot columns right of its
    pivot.
    """
    for c in [c for c in row if c in pivots]:
        _subtract(row, row.pop(c), pivots[c])
    if not row:
        return False
    p = min(row)
    inv = _ONE / row.pop(p)
    tail = {k: v * inv for k, v in row.items()}
    for q in pivots.values():
        if p in q:
            _subtract(q, q.pop(p), tail)
    pivots[p] = tail
    return True


def _subtract(target: dict[int, Fraction], a: Fraction, source: dict[int, Fraction]):
    """target -= a * source, dropping the entries that cancel."""
    for k, v in source.items():
        x = target.get(k, _ZERO) - a * v
        if x:
            target[k] = x
        else:
            del target[k]


def rank(rows: Iterable[Row], ncols: int) -> int:
    """Dimension of the span of the rows, each dense or sparse over ``ncols`` columns."""
    return len(_echelon(rows, ncols))


def kernel_basis(rows: Iterable[Row], ncols: int) -> list[list[Fraction]]:
    """Basis of the right kernel {v : A v = 0}, one vector per free column.

    Rows may be dense lists of length ``ncols`` or sparse ``{column: value}``
    maps; ValueError if a row does not fit.
    """
    pivots = _echelon(rows, ncols)
    basis = {c: [_ZERO] * ncols for c in range(ncols) if c not in pivots}
    for c, v in basis.items():
        v[c] = _ONE
    for p, tail in pivots.items():
        for k, v in tail.items():
            basis[k][p] = -v
    return list(basis.values())


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    inner = len(b)
    return [
        [sum((row[k] * b[k][j] for k in range(inner)), _ZERO) for j in range(len(b[0]))]
        for row in a
    ]


def is_nilpotent(a: Matrix) -> bool:
    """True iff A^n = 0 for n = len(a), found by squaring A until the exponent reaches n."""
    power, exponent = a, 1
    while exponent < len(a):
        power, exponent = mat_mul(power, power), 2 * exponent
    return not any(any(row) for row in power)
