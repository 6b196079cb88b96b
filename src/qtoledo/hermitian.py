"""Signatures of Hermitian forms over cyclotomic fields and the invariants built on them.

These rest on the exact matrix core of `linalg`: signatures by Hermitian
congruence (Sylvester's law of inertia: one certified sign per pivot); the
Meyer cocycle of a pair of isometries, as the signature of one form on one
kernel; eigenvalue splitting of finite-order isometries into exact roots of
unity, with multiplicities from the traces of their powers and eigenspaces
from spectral projectors; the rational G-function that corrects the Meyer
cocycle into a Toledo invariant; and the Toledo invariants of triangle-group
representations.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._record import Record
from .cyclotomic import CycloNum, conjugate, sign_real
from .linalg import (
    HermMatrix,
    IsometryWithForm,
    Matrix,
    _common_value,
    _field_order,
    diagonal_entries,
    gram,
    identity,
    is_scalar,
    kernel_basis,
    lin_combs,
    mat_mul,
    mat_scale,
    mat_sub,
    mat_vec,
    rref,
)

#: eigen_split looks for a scalar power U^k up to k = SCALAR_POWER_FACTOR * base_order**2
SCALAR_POWER_FACTOR = 24


# -- signatures -------------------------------------------------------------

class Signature(Record):
    positive: int
    negative: int
    zero: int

    def __iter__(self):
        return iter((self.positive, self.negative, self.zero))

    @property
    def index(self) -> int:
        return self.positive - self.negative


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


# -- roots of unity ---------------------------------------------------------

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
