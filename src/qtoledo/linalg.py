"""Exact linear algebra over one field: Q or a cyclotomic field Q(zeta_N).

A matrix is a tuple of rows whose entries are `Fraction` or `CycloNum`
values of one field.  Products, matrix-vector products, linear combinations
and Gram matrices share one integer kernel (`_products`): each row and
column is put over one common denominator, each entry is lifted to the one
field order N and packed into a single int by Kronecker substitution, and
each sum of products is one sum of int products, unpacked and reduced mod
Phi_N once.  So one `Fraction` or `CycloNum` is made per output entry, not
per scalar product.  Rational systems (`solve`, `determinant`,
`kernel_basis`) are scaled row by row to integers and eliminated
fraction-free (Bareiss); cyclotomic ones go through one Gauss-Jordan
elimination (`rref`), which now serves only `kernel_basis` (the Meyer
kernel of `hermitian`) and the generic `solve` and `determinant`.  No
routine takes a matrix inverse.

`HermMatrix` is a square matrix checked to be Hermitian, with the embedding
that sends its entries into C, and `IsometryWithForm` a matrix checked to
preserve one.  The signatures and invariants of these forms are in
`hermitian`; the torus representations of `qrep` need only this module.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache

from ._record import Record
from .cyclotomic import (
    CycloNum,
    Embedding,
    _from_ints,
    _map_powers,
    _reduce,
    conjugate,
    euler_phi,
)

Matrix = tuple[tuple, ...]  # entries in one field: Fraction or CycloNum


# -- matrix helpers over one field -------------------------------------------

def _zero_one(rows):
    """Zero and one of the field the entries live in."""
    if any(isinstance(x, CycloNum) for row in rows for x in row):
        return CycloNum.rational(0), CycloNum.rational(1)
    return Fraction(0), Fraction(1)


def _field_order(*mats) -> int:
    """The lcm of the orders of the CycloNum entries of the matrices."""
    return math.lcm(*(x.order for m in mats for row in m for x in row))


def as_matrix(rows) -> Matrix:
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


def _cyclo_vectors(vecs, order: int):
    """Each vector as (terms, denominator, largest numerator, nonzero, cyclo), all at `order`.

    A term is (numerators, factor to the common denominator), or None for a
    zero entry; a rational entry has the one numerator.  `nonzero` and
    `cyclo` are the bitmasks of the nonzero entries and of the CycloNums of
    order above 1.
    """
    out = []
    for v in vecs:
        terms, nonzero, cyclo = [], 0, 0
        for k, x in enumerate(v):
            if not x:
                terms.append(None)
                continue
            nonzero |= 1 << k
            if not isinstance(x, CycloNum):  # a Fraction or an int
                terms.append(((x.numerator,), x.denominator))
                continue
            if x.order > 1:
                cyclo |= 1 << k
            nums = x.nums if x.order in (1, order) else _map_powers(x.nums, order, order // x.order)
            terms.append((nums, x.den))
        den = math.lcm(*(t[1] for t in terms if t))
        terms = [t and (t[0], den // t[1]) for t in terms]
        top = max((max(map(abs, t[0])) * t[1] for t in terms if t), default=0)
        out.append((terms, den, top, nonzero, cyclo))
    return out


@lru_cache(maxsize=None)
def _bias(order: int, width: int) -> tuple[int, tuple[int, ...]]:
    """2^(width-1) in each of 2 phi(order) - 1 digits in base 2^width, and those digits mod Phi_order."""
    length, half = 2 * euler_phi(order) - 1, 1 << (width - 1)
    return sum(half << (i * width) for i in range(length)), tuple(_reduce(order, [half] * length))


def _pack(terms, width: int) -> list[int]:
    """Each term's numerators, times its factor, as the signed digits of one int in base 2^width."""
    out = []
    for t in terms:
        u = 0
        if t is not None:
            nums, scale = t
            for c in reversed(nums):
                u = (u << width) + c
            u *= scale
        out.append(u)
    return out


def _products(rows, cols) -> list[list]:
    """[[sum_k row[k] col[k] for col in cols] for row in rows], summed as ints.

    All entries lie in Q(zeta_N), N the lcm of the orders of the nonzero
    CycloNum entries.  Each row and each column is put over one denominator,
    and each entry is lifted to order N and packed into one int by Kronecker
    substitution: its phi(N) numerators are the digits in base 2^k (a
    rational entry is just its numerator).  Every sum of products is then
    one sum of int products.  The width k bounds each coefficient of such a
    sum by len(row) * phi(N) * max|a| * max|b|, plus a sign bit; each sum is
    unpacked once into its 2 phi(N) - 1 digits, biased by 2^(k-1) to make
    them nonnegative, and reduced mod Phi_N once.

    The sums are Fractions, or CycloNums if any entry is one.  A CycloNum
    sum has order N if some product in it has a nonzero factor of order
    above 1, and order 1 otherwise.
    """
    entries = [x for v in (*rows, *cols) for x in v]
    if not any(isinstance(x, CycloNum) for x in entries):
        b = _int_vectors(cols)
        return [[Fraction(sum(map(operator.mul, r, c)), row_den * col_den) for c, col_den in b]
                for r, row_den in _int_vectors(rows)]
    order = math.lcm(*(x.order for x in entries if isinstance(x, CycloNum) and x))
    a, b = _cyclo_vectors(rows, order), _cyclo_vectors(cols, order)
    top_a, top_b = (max((t[2] for t in vecs), default=0) for vecs in (a, b))
    phi = euler_phi(order)
    width = (max(map(len, rows), default=0) * phi * top_a * top_b).bit_length() + 1
    bias, bias_reduced = _bias(order, width)
    mask, shifts = (1 << width) - 1, range(0, (2 * phi - 1) * width, width)
    packed_cols = [_pack(t[0], width) for t in b]
    out = []
    for terms, row_den, _, row_nonzero, row_cyclo in a:
        packed = _pack(terms, width)
        out_row = []
        for (_, col_den, _, col_nonzero, col_cyclo), packed_col in zip(b, packed_cols):
            s = sum(map(operator.mul, packed, packed_col))
            if row_cyclo & col_nonzero or col_cyclo & row_nonzero:
                s += bias
                nums = map(operator.sub, _reduce(order, [s >> k & mask for k in shifts]), bias_reduced)
                out_row.append(_from_ints(order, tuple(nums), row_den * col_den))
            else:  # a rational sum: its packed value is its numerator
                out_row.append(_from_ints(1, (s,), row_den * col_den))
        out.append(out_row)
    return out


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
    return conjugate(x) if isinstance(x, CycloNum) else x


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


# -- one exact elimination over Fraction or CycloNum ---------------------------

def rref(rows):
    """Reduced row echelon form by Gauss-Jordan elimination.

    Returns (rows, pivots, scale): the reduced rows as lists, the pivot
    column of each leading row, and the product of the pivots times the
    sign of the row swaps, which is the determinant of a nonsingular square
    input.  Entries are touched only by *, -, Fraction(1) / p and truth
    tests, so Fraction and CycloNum entries keep their type and int input
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
    denominators and goes through `_bareiss`; cyclotomic input through `rref`.
    """
    if any(isinstance(x, CycloNum) for row in a for x in row):
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
