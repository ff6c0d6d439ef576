"""Dense exact linear algebra over the rationals.

Matrices are lists of equal-length lists of ``Fraction``.  Pivoting is
deterministic (first nonzero entry in row order), so reduced forms, ranks
and kernel bases are reproducible.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[Fraction]]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form (copy) and the list of pivot columns."""
    m = [list(map(Fraction, row)) for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = _ONE / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows: Matrix) -> int:
    return len(rref(rows)[1])


def kernel_basis(rows: Matrix, ncols: int | None = None) -> list[list[Fraction]]:
    """Basis of the right kernel {v : A v = 0}, one vector per free column."""
    if ncols is None:
        if not rows:
            raise ValueError("empty matrix needs an explicit column count")
        ncols = len(rows[0])
    if not rows:
        return [[_ONE if i == j else _ZERO for i in range(ncols)] for j in range(ncols)]
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [_ZERO] * ncols
        v[free] = _ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][free]
        basis.append(v)
    return basis


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        return []
    inner = len(b)
    return [
        [sum((row[k] * b[k][j] for k in range(inner)), _ZERO) for j in range(len(b[0]))]
        for row in a
    ]


def identity(n: int) -> Matrix:
    return [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]


def char_poly(a: Matrix) -> list[Fraction]:
    """Characteristic polynomial coefficients [c_0, ..., c_{n-1}, 1].

    Faddeev-LeVerrier recursion; exact over the rationals.
    """
    n = len(a)
    coeffs = [_ZERO] * n + [_ONE]
    m = identity(n)
    c = _ONE
    for k in range(1, n + 1):
        m = mat_mul(a, m)
        c = -sum((m[i][i] for i in range(n)), _ZERO) / k
        coeffs[n - k] = c
        for i in range(n):
            m[i][i] += c
    return coeffs


def is_nilpotent(a: Matrix) -> bool:
    """True iff A^n = 0 for n = len(a), found by squaring A until the exponent reaches n."""
    power, exponent = a, 1
    while exponent < len(a):
        power, exponent = mat_mul(power, power), 2 * exponent
    return not any(any(row) for row in power)
