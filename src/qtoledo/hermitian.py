"""Exact linear algebra and signatures of Hermitian matrices over cyclotomic fields.

Contains the linear algebra used everywhere downstream.  A matrix holds
`Fraction` or `CycloNum` entries of one field.  Products, matrix-vector
products, linear combinations and Gram matrices share one integer kernel
(`_products`): each row and column is put over one common denominator,
each entry is lifted to the one field order N and packed into a single int
by Kronecker substitution, and each sum of products is one sum of int
products, unpacked and reduced mod Phi_N once.  So one `Fraction` or
`CycloNum` is made per output entry, not per scalar product.  Rational
systems (`solve`, `determinant`, `kernel_basis`) are scaled row by row to
integers and eliminated fraction-free (Bareiss); cyclotomic ones go through
one Gauss-Jordan elimination (`rref`).  No routine takes a matrix inverse.
On these rest signatures by Hermitian congruence (Sylvester's law of
inertia: one certified sign per pivot); the Meyer cocycle of a pair of
isometries, as the signature of one form on one kernel; eigenvalue
splitting of finite-order isometries into exact roots of unity, with
multiplicities from the traces of their powers and eigenspaces from
spectral projectors; and the rational G-function that corrects the Meyer
cocycle into a Toledo invariant.
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
    sign_real,
)

Matrix = tuple[tuple, ...]  # entries in one field: Fraction or CycloNum

#: eigen_split looks for a scalar power U^k up to k = SCALAR_POWER_FACTOR * base_order**2
SCALAR_POWER_FACTOR = 24


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


# -- Hermitian matrices and signatures --------------------------------------

class Signature(Record):
    positive: int
    negative: int
    zero: int

    def __iter__(self):
        return iter((self.positive, self.negative, self.zero))

    @property
    def index(self) -> int:
        return self.positive - self.negative


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


def signature(h: HermMatrix) -> Signature:
    """Exact signature by Hermitian congruence (Sylvester's law of inertia).

    A nonzero diagonal entry p is a pivot: its certified sign is counted and
    the matrix passes to the Schur complement of p.  When the whole diagonal
    is zero but some h_ab is not, adding h_ab times row b to row a and
    conj(h_ab) times column b to column a makes the diagonal entry
    2 h_ab conj(h_ab), which is nonzero.  When every entry left is zero, the
    number of rows left is the dimension of the kernel.
    """
    rows = [list(row) for row in h.entries]
    signs = []
    while rows:
        k = next((i for i, row in enumerate(rows) if row[i]), None)
        if k is None:
            pair = next(((a, b) for a, row in enumerate(rows) for b, x in enumerate(row) if x), None)
            if pair is None:
                break
            k, b = pair
            c = rows[k][b]
            rows[k] = [x + c * y for x, y in zip(rows[k], rows[b])]
            c_bar = conjugate(c)
            for row in rows:
                row[k] = row[k] + c_bar * row[b]
        pivot = rows.pop(k)
        p = pivot.pop(k)
        signs.append(sign_real(p, h.embedding))
        p_inv = p.inverse()
        for row in rows:
            f = row.pop(k) * p_inv
            if f:
                row[:] = [x - f * y if y else x for x, y in zip(row, pivot)]
    return Signature(signs.count(1), signs.count(-1), len(rows))


# -- isometries --------------------------------------------------------------

class IsometryWithForm(Record):
    """A matrix U with U^dagger h U = h for an invertible Hermitian form h."""

    matrix: Matrix
    form: HermMatrix

    def __post_init__(self):
        u = as_matrix(self.matrix)
        object.__setattr__(self, "matrix", u)
        h = self.form.entries
        norms = diagonal_entries(h)
        hu = mat_mul(h, u) if norms is None else scale_rows(norms, u)
        if mat_mul(conj_transpose(u), hu) != h:
            raise ValueError("matrix does not preserve the form")

    @property
    def dim(self) -> int:
        return len(self.matrix)

    @property
    def embedding(self) -> Embedding:
        return self.form.embedding


def _i_unit(order: int, exponent: int) -> CycloNum:
    """The fourth root of unity whose image under the embedding is +i."""
    if order % 4:
        raise ValueError("order must be divisible by 4")
    if exponent % 4 == 1:
        return CycloNum.zeta(order, order // 4)
    return CycloNum.zeta(order, 3 * (order // 4))


def _root_of_unity_order(c: CycloNum, bound: int) -> int | None:
    acc = c
    for k in range(1, bound + 1):
        if acc == 1:
            return k
        acc = acc * c
    return None


# -- Meyer cocycle -----------------------------------------------------------

def meyer_cocycle(a: IsometryWithForm, b: IsometryWithForm, ab: Matrix | None = None) -> int:
    """Signature of the pair-of-pants twisted intersection form.

    This is the form h(u+v, (1-B)v') / i on the kernel of the n x 2n matrix
    [(1-A) | (AB-A)].  That matrix is A [(A^-1-1) | (B-1)], the matrix of
    Meyer's definition, so both have one kernel and no inverse is taken.
    The kernel has dimension at least n.  A caller that already holds the
    product AB passes it as `ab`.
    """
    if a.form != b.form:
        raise ValueError("isometries must share one form")
    h = a.form.entries
    n = len(h)
    one = identity(n)
    amat, bmat = a.matrix, b.matrix
    if ab is None:
        ab = mat_mul(amat, bmat)
    left = mat_sub(one, amat)   # A (A^-1 - 1)
    right = mat_sub(ab, amat)   # A (B - 1)
    kernel = kernel_basis(tuple(l + r for l, r in zip(left, right)))
    order = math.lcm(4, a.embedding.order, _field_order(h, kernel))
    big = a.embedding.extend(order)
    i_inv = _i_unit(order, big.exponent).inverse()
    one_minus_b = mat_sub(one, bmat)
    # the form h(u + v, (1 - B) v') / i, its second (conjugated) argument indexing rows
    ws = [mat_vec(one_minus_b, k[n:]) for k in kernel]
    sums = [tuple(x + y for x, y in zip(k[:n], k[n:])) for k in kernel]
    return signature(HermMatrix(mat_scale(gram(h, ws, sums), i_inv), big)).index


# -- eigenvalue splitting and the G-function ---------------------------------

def _least_scalar_power(u: Matrix, diag, bound: int):
    """(m, c, powers): the least m <= bound with U^m = c I, and U^0, ..., U^(m-1).

    A diagonal U (diag its diagonal, else None) is powered entrywise and
    keeps only U^0.
    """
    powers = [identity(len(u))]
    power = u if diag is None else diag
    for m in range(1, bound + 1):
        scalar = is_scalar(power) if diag is None else _common_value(power)
        if scalar is not None:
            return m, scalar, powers
        if diag is None:
            powers.append(power)
            power = mat_mul(power, u)
        else:
            power = tuple(x * y for x, y in zip(power, diag))
    raise ArithmeticError(f"no scalar power of the isometry up to {bound}")


def _trace_multiplicities(powers, coeffs, m: int) -> list[int]:
    """mult(lambda) per eigenvalue candidate, from m mult(lambda) = sum_k lambda^-k tr(U^k).

    powers holds U^0, ..., U^(m-1), where U^m = c I, and coeffs one row
    (lambda^-k for k < m) per root lambda of x^m - c.  The sums are one
    matrix-vector product.
    """
    zero = CycloNum.rational(0)
    traces = [sum((row[i] for i, row in enumerate(p)), zero) for p in powers]
    out = []
    for s in mat_vec(coeffs, traces):
        if not s.is_rational() or s.den != 1 or s.nums[0] % m or s.nums[0] < 0:
            raise ArithmeticError(f"trace sum {s} is not a nonnegative multiple of {m}")
        out.append(s.nums[0] // m)
    return out


def _eigenspace_basis(proj: Matrix, mult: int) -> list[tuple]:
    """The pivot columns of a projector whose rank the traces give as mult.

    For mult > 1 the pivots of rref certify that rank.  For mult = 1 the
    basis is the first nonzero column, with no elimination, and only a zero
    projector is refused: its rank is not checked.
    """
    if mult == 1:
        basis = [col for col in zip(*proj) if any(col)][:1]
    else:
        _, pivots, _ = rref(proj)
        basis = [tuple(row[p] for row in proj) for p in pivots]
    if len(basis) != mult:
        raise ArithmeticError(f"eigenspace projector has rank {len(basis)}, "
                              f"but the traces give multiplicity {mult}")
    return basis


def eigen_split(u: IsometryWithForm):
    """Exact eigenvalues (roots of unity) with eigenspace signatures.

    Finds the least m with U^m = c I (keeping U^0, ..., U^(m-1)) and the
    order of c as a root of unity, so U has order F = m * order(c) and is
    diagonalizable.  Its eigenvalues are among the lambda_j = zeta_F^j with
    lambda_j^m = c, taken in order of j.  Multiplicities come first: x^m - c
    has distinct roots, so m mult(lambda) = sum_k lambda^-k tr(U^k) over
    k < m, from the traces of the kept powers, and a lambda whose sum is
    zero is skipped.  Otherwise the eigenspace of lambda is the column
    space of the spectral projector Pi = (1/m) sum_k lambda^-k U^k (the
    identity on it and zero on the other eigenspaces).  The basis is the
    pivot columns of m Pi, and for multiplicity above 1 their number must
    equal the multiplicity; for multiplicity 1 it is the first nonzero
    column, which is the first pivot column, so no elimination is needed
    and the rank is not checked.  The multiplicities add up to n by the
    same trace identity, so the check that the eigenspaces fill all n
    dimensions guards only a diagonal U, whose eigenspaces are read off
    its diagonal.  Each eigenspace gets the signature
    of the form on it, which must be nondegenerate.
    Returns a list of (eigenvalue, turn_fraction, Signature).
    """
    n = u.dim
    base_order = _field_order(u.matrix)
    power_bound = SCALAR_POWER_FACTOR * base_order * base_order
    diag = diagonal_entries(u.matrix)
    m, scalar, powers = _least_scalar_power(u.matrix, diag, power_bound)
    c_order = _root_of_unity_order(scalar, 2 * base_order * m)
    if c_order is None:
        raise ArithmeticError("scalar power is not a root of unity")
    full_order = m * c_order  # U^full_order = 1
    field_order = math.lcm(base_order, full_order, u.embedding.order)
    emb = u.embedding.extend(field_order)
    h = u.form.entries
    scalar = scalar.lift(field_order)
    step = field_order // full_order
    js = [j for j in range(full_order) if CycloNum.zeta(field_order, j * step) ** m == scalar]
    if diag is None:
        coeffs = [[CycloNum.zeta(field_order, -j * step * k) for k in range(m)] for j in js]
        mults = _trace_multiplicities(powers, coeffs, m)
        hits = [idx for idx, mult in enumerate(mults) if mult]
        projs = dict(zip(hits, lin_combs([coeffs[idx] for idx in hits], powers)))
    else:
        diag = [x.lift(field_order) for x in diag]
    out = []
    total = 0
    k_exp = emb.exponent
    for idx, j in enumerate(js):
        lam = CycloNum.zeta(field_order, j * step)
        if diag is not None:
            index = [a for a, x in enumerate(diag) if x == lam]
            restricted = tuple(tuple(h[a][b] for b in index) for a in index)
        elif mults[idx]:
            # m * Pi has the pivot columns of Pi, times m
            basis = _eigenspace_basis(projs[idx], mults[idx])
            restricted = gram(h, basis, basis)
        else:
            continue
        if not restricted:
            continue
        sig = signature(HermMatrix(restricted, emb))
        if sig.zero:
            raise ArithmeticError("degenerate form on an eigenspace")
        turn = Fraction((j * k_exp) % full_order, full_order)
        out.append((lam, turn, sig))
        total += len(restricted)
    if total != n:  # only a diagonal U can fail here; the traces add up to n
        raise ArithmeticError("isometry is not diagonalizable over the cyclotomic closure")
    return out


def angle_defect(turn: Fraction) -> Fraction:
    """f(alpha) = 1 - alpha/pi for alpha = 2*pi*turn in (0, 2*pi), f(0) = 0."""
    t = turn % 1
    if t == 0:
        return Fraction(0)
    return 1 - 2 * t


def g_function(u: IsometryWithForm) -> Fraction:
    """G(U) = sum over eigenvalues of (p - q) * f(angle); exact rational."""
    total = Fraction(0)
    for _lam, turn, sig in eigen_split(u):
        total += (sig.positive - sig.negative) * angle_defect(turn)
    return total


# -- triangle-group Toledo invariants ----------------------------------------

def toledo_triangle_pu11(turn_a: Fraction, turn_b: Fraction, turn_c: Fraction) -> Fraction:
    """Toledo invariant of a PU(1,1) triangle representation from its angles.

    Angles are given as fractions of a full turn in (-1/2, 1/2), all nonzero
    and of one sign; the value is sign - (sum of turns).
    """
    turns = (Fraction(turn_a), Fraction(turn_b), Fraction(turn_c))
    for t in turns:
        if not (Fraction(-1, 2) < t < Fraction(1, 2)) or t == 0:
            raise ValueError(f"angle {t} turns outside the open interval or zero")
    eps = 1 if turns[0] > 0 else -1
    if any((t > 0) != (eps > 0) for t in turns):
        raise ValueError("angles of mixed sign: triangle hypotheses fail")
    return eps - (turns[0] + turns[1] + turns[2])


def toledo_triangle_meyer(a: IsometryWithForm, b: IsometryWithForm) -> Fraction:
    """Toledo pairing with the triangle-group fundamental class.

    tau(A, B) = (mu(A,B) - G(A) - G(B) + G(AB)) / 2.  The G-coboundary is
    oriented so that tau vanishes identically on U(1), which pins the sign.
    """
    ab = IsometryWithForm(mat_mul(a.matrix, b.matrix), a.form)
    mu = meyer_cocycle(a, b, ab.matrix)
    return Fraction(mu - g_function(a) - g_function(b) + g_function(ab), 2)
