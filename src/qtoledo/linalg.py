"""Exact linear algebra over one field: Q or a field whose entry type supplies its own kernel.

A matrix is a tuple of rows whose entries lie in one field.  Rational
entries (`int`, `Fraction`) are handled here, with no field module loaded:
products, matrix-vector products, linear combinations and Gram matrices
put each row and column over one common denominator and sum each product
of a row and a column as ints (`_products`), one `Fraction` per output
entry; `solve`, `determinant` and `kernel_basis` scale each row to integers
and eliminate fraction-free (Bareiss).

A matrix with any other entry type, in practice `cyclotomic.CycloNum`, is
handed to that type, which must supply:

- `rational(value)`, the field element of an int or a Fraction;
- `x.conjugate()`, the complex conjugate of an entry;
- `products(rows, cols)`, the sums of products of each row with each
  column (rows and columns may mix its entries with ints and Fractions),
  as a list of lists of its entries;
- the field operations +, -, *, ==, truth as "nonzero", and division of
  `Fraction(1)` by a nonzero entry.

Such matrices go through one Gauss-Jordan elimination (`rref`).  No routine
takes a matrix inverse.  `as_matrix` and `identity` make `CycloNum`
entries, importing `cyclotomic` when called.

`HermMatrix` is a square matrix checked to be Hermitian, with the embedding
that sends its entries into C, and `IsometryWithForm` a matrix checked to
preserve one.  The signatures and invariants of these forms are in
`hermitian`; the torus representations of `torus` need only this module.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from ._record import Record
from .embedding import Embedding

Matrix = tuple[tuple, ...]  # entries in one field: int and Fraction, or a field's entry type

_RATIONAL = (int, Fraction)


# -- matrix helpers over one field -------------------------------------------

def _field(entries):
    """The type of the first entry that is not an int or a Fraction, or None if there is none."""
    return next((type(x) for x in entries if not isinstance(x, _RATIONAL)), None)


def _zero_one(rows):
    """Zero and one of the field the entries live in."""
    field = _field(x for row in rows for x in row)
    if field is None:
        return Fraction(0), Fraction(1)
    return field.rational(0), field.rational(1)


def as_matrix(rows) -> Matrix:
    """The rows as a tuple of tuples of CycloNums, each rational entry made one."""
    from .cyclotomic import CycloNum

    out = []
    for row in rows:
        out.append(tuple(x if isinstance(x, CycloNum) else CycloNum.rational(x) for x in row))
    width = {len(r) for r in out}
    if len(width) != 1:
        raise ValueError("ragged matrix")
    return tuple(out)


def diagonal(values) -> Matrix:
    """The square matrix with the given diagonal and zeros elsewhere."""
    values = tuple(values)
    zero, _ = _zero_one((values,))
    n = len(values)
    return tuple(tuple(values[i] if i == j else zero for j in range(n)) for i in range(n))


def identity(n: int) -> Matrix:
    """The n x n identity, with CycloNum entries."""
    from .cyclotomic import CycloNum

    return diagonal((CycloNum.rational(1),) * n)


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a: Matrix, c) -> Matrix:
    return tuple(tuple(x * c for x in row) for row in a)


def _int_vectors(vecs):
    """Rational vectors as (integer numerators, common denominator)."""
    out = []
    for v in vecs:
        den = math.lcm(*(x.denominator for x in v))
        out.append(([x.numerator * (den // x.denominator) for x in v], den))
    return out


def _products(rows, cols) -> list[list]:
    """[[sum_k row[k] col[k] for col in cols] for row in rows], summed as ints.

    Rational rows and columns are put over one denominator each, and each
    sum is one sum of int products over the product of the two
    denominators: one Fraction per sum.  Any other entry type computes the
    sums itself (its `products`).
    """
    field = _field(x for v in (*rows, *cols) for x in v)
    if field is not None:
        return field.products(rows, cols)
    b = _int_vectors(cols)
    return [[Fraction(sum(map(operator.mul, r, c)), row_den * col_den) for c, col_den in b]
            for r, row_den in _int_vectors(rows)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return tuple(map(tuple, _products(a, tuple(zip(*b)))))


def mat_vec(a: Matrix, v) -> tuple:
    return tuple(row[0] for row in _products(a, (v,)))


def lin_combs(coeff_rows, mats) -> list[Matrix]:
    """[sum_k row[k] * mats[k] for row in coeff_rows], as one product."""
    shape = mats[0]
    cols = [[m[i][j] for m in mats] for i, row in enumerate(shape) for j in range(len(row))]
    out = []
    for sums in _products(coeff_rows, cols):
        it = iter(sums)
        out.append(tuple(tuple(next(it) for _ in row) for row in shape))
    return out


def lin_comb(coeffs, mats) -> Matrix:
    """The sum of c * m over paired coefficients and matrices (at least one matrix)."""
    return lin_combs([coeffs], mats)[0]


def _conj(x):
    """The complex conjugate; rational entries are their own conjugates."""
    return x if isinstance(x, _RATIONAL) else x.conjugate()


def conj_transpose(a: Matrix) -> Matrix:
    return tuple(tuple(_conj(x) for x in col) for col in zip(*a))


def gram(h: Matrix, vs, ws) -> Matrix:
    """V^* h W for the matrices V and W whose columns are the vectors vs and ws."""
    hw = _products(h, ws)
    v_star = [[_conj(x) for x in v] for v in vs]
    return tuple(map(tuple, _products(v_star, tuple(zip(*hw)))))


def diagonal_entries(m: Matrix):
    """The diagonal of m when every entry off it is zero, else None."""
    if any(x for i, row in enumerate(m) for j, x in enumerate(row) if i != j):
        return None
    return tuple(row[i] for i, row in enumerate(m))


def scale_rows(values, m: Matrix) -> Matrix:
    """diag(values) * m."""
    return tuple(tuple(v * x for x in row) for v, row in zip(values, m))


def _common_value(values):
    """The value every entry equals, else None."""
    return values[0] if all(x == values[0] for x in values) else None


def is_scalar(m: Matrix):
    """The scalar c when m = c * identity, else None."""
    d = diagonal_entries(m)
    return None if d is None else _common_value(d)


# -- one exact elimination over Q or another field ------------------------------

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


# -- Hermitian forms and their isometries ------------------------------------

class HermMatrix(Record):
    """Square matrix over a cyclotomic field, Hermitian for zeta -> 1/zeta."""

    entries: Matrix
    embedding: Embedding

    def __post_init__(self):
        m = as_matrix(self.entries)
        object.__setattr__(self, "entries", m)
        if any(len(row) != len(m) for row in m):
            raise ValueError("matrix is not square")
        mh = conj_transpose(m)
        if m != mh:
            # the mismatches are symmetric, so the first one in row order has i <= j
            i, j = next((i, j) for i, row in enumerate(m) for j, x in enumerate(row)
                        if x != mh[i][j])
            raise ValueError(f"matrix is not Hermitian at ({i},{j})")

    @property
    def dim(self) -> int:
        return len(self.entries)


class IsometryWithForm(Record):
    """A matrix U with U^dagger h U = h for an invertible Hermitian form h of its size (checked)."""

    matrix: Matrix
    form: HermMatrix

    def __post_init__(self):
        u = as_matrix(self.matrix)
        object.__setattr__(self, "matrix", u)
        h = self.form.entries
        if len(u) != len(h) or len(u[0]) != len(h):
            raise ValueError(f"matrix is {len(u)}x{len(u[0])}, the form {len(h)}x{len(h)}")
        norms = diagonal_entries(h)
        if not (all(norms) if norms is not None else determinant(h)):
            raise ValueError("form is singular")
        hu = mat_mul(h, u) if norms is None else scale_rows(norms, u)
        if mat_mul(conj_transpose(u), hu) != h:
            raise ValueError("matrix does not preserve the form")

    @property
    def dim(self) -> int:
        return len(self.matrix)

    @property
    def embedding(self) -> Embedding:
        return self.form.embedding
