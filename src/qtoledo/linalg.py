"""Exact matrix arithmetic over one field: Q or a field whose entry type supplies its own kernel.

A matrix is a tuple of rows whose entries lie in one field.  Rational
entries (`int`, `Fraction`) are handled here, with no field module loaded:
products, matrix-vector products, linear combinations and Gram matrices
put each row and column over one common denominator and sum each product
of a row and a column as ints (`_products`), one `Fraction` per output
entry.

A matrix with any other entry type, in practice `cyclotomic.CycloNum`, is
handed to that type, which must supply:

- `rational(value)`, the field element of an int or a Fraction;
- `x.conjugate()`, the complex conjugate of an entry;
- `products(rows, cols)`, the sums of products of each row with each
  column (rows and columns may mix its entries with ints and Fractions),
  as a list of lists of its entries;
- the field operations +, -, *, ==, truth as "nonzero", and division of
  `Fraction(1)` by a nonzero entry.

Elimination (`solve`, `determinant`, `kernel_basis`) is in `elimination`,
built on `_field`, `_int_vectors` and `_zero_one` here.  `as_matrix` and
`identity` make `CycloNum` entries, importing `cyclotomic` when called.

`HermMatrix` is a square matrix checked to be Hermitian, with the embedding
that sends its entries into C, and `IsometryWithForm` a matrix checked to
preserve one; both refuse an entry outside the embedding's field.  Only a
non-diagonal form loads `elimination`, for its determinant.  The
signatures and invariants of these forms are in `hermitian`; the torus
representations of `torus` need only this module.
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


# -- Hermitian forms and their isometries ------------------------------------

def _check_field(m: Matrix, emb: Embedding):
    """Refuse an entry of an order that does not divide the embedding's."""
    order = next((x.order for row in m for x in row if emb.order % x.order), None)
    if order is not None:
        raise ValueError(f"entry of order {order} is not in Q(zeta_{emb.order}), the field of the embedding")


class HermMatrix(Record):
    """Square matrix over a cyclotomic field, Hermitian for zeta -> 1/zeta."""

    entries: Matrix
    embedding: Embedding

    def __post_init__(self):
        m = as_matrix(self.entries)
        object.__setattr__(self, "entries", m)
        _check_field(m, self.embedding)
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
        _check_field(u, self.form.embedding)
        h = self.form.entries
        if len(u) != len(h) or len(u[0]) != len(h):
            raise ValueError(f"matrix is {len(u)}x{len(u[0])}, the form {len(h)}x{len(h)}")
        norms = diagonal_entries(h)
        if norms is None:
            from .elimination import determinant

            if not determinant(h):
                raise ValueError("form is singular")
        elif not all(norms):
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
