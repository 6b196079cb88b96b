"""Exact elimination over one field: reduced echelon forms, kernels, solves, determinants.

A rational matrix (`int` and `Fraction` entries) has each row scaled to
integers by the lcm of its denominators and is eliminated fraction-free
(Bareiss, `_bareiss`); its reduced echelon form is read off by exact
integer back substitution (`_back_substitute`), so no `Fraction` is made
before the answer, and no field module is loaded.  A matrix with any
other entry type, in practice `cyclotomic.CycloNum`, goes through one
Gauss-Jordan elimination (`rref`), which touches entries only by *, -,
`Fraction(1) / p` and truth tests.  `kernel_basis`, `solve` and
`determinant` read their answers off that one elimination (`_eliminate`).

No routine takes a matrix inverse.  The matrix products and the Hermitian
forms are in `linalg`, which imports this module only where a
non-diagonal form's determinant is asked for; the fusion algebras, the
R-matrix solve and the eigenspace kernels of `hermitian` import it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .linalg import _field, _int_vectors, _zero_one


def rref(rows):
    """Reduced row echelon form by Gauss-Jordan elimination.

    Returns (rows, pivots, scale): the reduced rows as lists, the pivot
    column of each leading row, and the product of the pivots times the
    sign of the row swaps, which is the determinant of a nonsingular square
    input.  Entries are touched only by *, -, Fraction(1) / p and truth
    tests, so Fraction and field entries keep their type and int input
    stays exact.
    """
    rows = [list(r) for r in rows]
    n_rows, n_cols = len(rows), len(rows[0]) if rows else 0
    pivots: list[int] = []
    scale = Fraction(1)
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        pivot = next((i for i in range(r, n_rows) if rows[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            scale = -scale
        p = rows[r][c]
        scale = scale * p
        inv = Fraction(1) / p
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots, scale


def _bareiss(rows):
    """Fraction-free row echelon form of integer rows (Bareiss, Math. Comp. 22, 1968).

    Each step multiplies the rows below the pivot by it, subtracts their
    multiple of the pivot row and divides by the previous pivot.  The
    division is exact, since every entry stays a minor of the input: after
    the row swaps, the last pivot is the determinant of the pivot columns
    of the first rank rows.  Returns (rows, pivots, sign of the swaps).
    """
    rows = [list(r) for r in rows]
    n_rows, n_cols = len(rows), len(rows[0]) if rows else 0
    pivots: list[int] = []
    sign, prev, r = 1, 1, 0
    for c in range(n_cols):
        if r == n_rows:
            break
        pivot = next((i for i in range(r, n_rows) if rows[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            sign = -sign
        top = rows[r]
        p, tail = top[c], top[c + 1:]
        for row in rows[r + 1:]:
            f = row[c]
            row[c:] = [0] + [(p * x - f * y) // prev for x, y in zip(row[c + 1:], tail)]
        prev = p
        pivots.append(c)
        r += 1
    return rows, pivots, sign


def _back_substitute(rows, pivots, c) -> list[Fraction]:
    """Entries R[i][c], i < rank, of the reduced echelon form of Bareiss rows.

    They solve the triangular system on the pivot columns with right side
    column c.  By Cramer's rule, d times the solution is integral for d the
    last pivot, so each step divides exactly.
    """
    r = len(pivots)
    if not r:
        return []
    d = rows[r - 1][pivots[-1]]
    xs = [0] * r  # d times the solution
    for i in range(r - 1, -1, -1):
        row = rows[i]
        acc = d * row[c] - sum(row[pivots[j]] * xs[j] for j in range(i + 1, r))
        xs[i] = acc // row[pivots[i]]
    return [Fraction(x, d) for x in xs]


def _eliminate(a):
    """(pivots, column, det): the pivot columns of the reduced echelon form R of a,
    column(c) = [R[i][c] for i < rank], and the signed product of the pivots.

    Rational input has each row scaled to integers by the lcm of its
    denominators and goes through `_bareiss`; any other through `rref`.
    """
    if _field(x for row in a for x in row) is not None:
        rows, pivots, scale = rref(a)
        return pivots, lambda c: [row[c] for row in rows[:len(pivots)]], scale
    int_rows = _int_vectors(a)
    rows, pivots, sign = _bareiss([r for r, _ in int_rows])
    last = rows[len(pivots) - 1][pivots[-1]] if pivots else 1
    return (pivots, lambda c: _back_substitute(rows, pivots, c),
            Fraction(sign * last, math.prod(den for _, den in int_rows)))


def kernel_basis(a) -> list[tuple]:
    """Exact right-kernel basis, one vector per free column of the RREF."""
    pivots, column, _ = _eliminate(a)
    zero, one = _zero_one(a)
    n_cols = len(a[0]) if a else 0
    basis = []
    for fc in range(n_cols):
        if fc in pivots:
            continue
        vec = [zero] * n_cols
        vec[fc] = one
        for pc, x in zip(pivots, column(fc)):
            vec[pc] = -x
        basis.append(tuple(vec))
    return basis


def solve(a, b) -> list:
    """The unique x with a x = b, where a may have more rows than columns.

    Raises ArithmeticError when the system is underdetermined or inconsistent.
    """
    n = len(a[0])
    pivots, column, _ = _eliminate([list(row) + [bi] for row, bi in zip(a, b)])
    if pivots[:n] != list(range(n)):
        raise ArithmeticError("underdetermined system")
    if len(pivots) > n:
        raise ArithmeticError("inconsistent system")
    return column(n)


def determinant(a):
    """det(a) as the signed product of the pivots, zero for a singular matrix."""
    pivots, _, det = _eliminate(a)
    return det if len(pivots) == len(a) else _zero_one(a)[0]
