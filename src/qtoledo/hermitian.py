"""Signatures of Hermitian forms over cyclotomic fields and the invariants built on them.

These rest on the exact matrix core of `linalg`: signatures by Hermitian
congruence (Sylvester's law of inertia: one certified sign per pivot); the
Meyer cocycle of a pair of isometries, as the signature of one form on one
kernel; eigenvalue splitting of finite-order isometries into exact roots of
unity, with multiplicities from the traces of their powers and eigenspaces
from spectral projectors; the rational G-function that corrects the Meyer
cocycle into a Toledo invariant; and the Toledo invariants of triangle-group
representations.

Each invariant is computed in two passes.  The exact pass works in
Q(zeta_N) and depends on the matrices, the form and the order of the
embedding only: the congruence pivots of a form (`_congruence`), the
powers, multiplicities, eigenspace bases and eigenspace pivots of an
isometry (`_eigen_data`), and the Meyer kernel and the pivots of its form,
divided by one fixed fourth root of unity (`_meyer_data`).  The sign pass
reads that data at an embedding zeta -> exp(2 pi i k / N): the certified
sign of each pivot (`_inertia`), the turn fraction (j k mod F) / F of each
eigenvalue, and whether the fixed fourth root is +i or -i (`_i_sign`).
The Galois conjugate representations of one level share the exact pass,
so `qrep` keeps it once per (level, color) and runs only the sign pass per
embedding (`_toledo_data`, `_read_toledo`).
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._record import Record
from .cyclotomic import CycloNum, Embedding, _root_exponent, conjugate, sign_real
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


def _congruence(h: Matrix) -> tuple[list, int]:
    """(pivots, zero): the pivots of a Hermitian congruence of h and its kernel dimension.

    A nonzero diagonal entry p is a pivot, and the matrix passes to the
    Schur complement of p.  When the whole diagonal is zero but some h_ab is
    not, adding h_ab times row b to row a and conj(h_ab) times column b to
    column a makes the diagonal entry 2 h_ab conj(h_ab), which is nonzero.
    When every entry left is zero, the number of rows left is the dimension
    of the kernel.  Every step is exact, so the pivots are the same at every
    embedding; each is real (fixed by zeta -> 1/zeta) and nonzero.
    """
    rows = [list(row) for row in h]
    pivots = []
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
        pivots.append(p)
        if not rows:
            break
        p_inv = p.inverse()
        for row in rows:
            f = row.pop(k) * p_inv
            if f:
                row[:] = [x - f * y if y else x for x, y in zip(row, pivot)]
    return pivots, len(rows)


def _inertia(pivots, zero: int, emb: Embedding) -> Signature:
    """The signature of a congruence (_congruence) at an embedding: one certified sign per pivot."""
    signs = [sign_real(p, emb) for p in pivots]
    return Signature(signs.count(1), signs.count(-1), zero)


def signature(h: HermMatrix) -> Signature:
    """Exact signature by Hermitian congruence (Sylvester's law of inertia).

    The congruence (_congruence) is exact and does not depend on the
    embedding; only the certified sign of each of its pivots is read at
    h.embedding (_inertia).
    """
    return _inertia(*_congruence(h.entries), h.embedding)


# -- roots of unity ---------------------------------------------------------

def _i_sign(exponent: int) -> int:
    """+1 if zeta^(order/4) is +i under zeta -> exp(2 pi i exponent / order), -1 if it is -i."""
    return 1 if exponent % 4 == 1 else -1


def _i_unit(order: int, exponent: int) -> CycloNum:
    """The fourth root of unity whose image under the embedding is +i."""
    if order % 4:
        raise ValueError("order must be divisible by 4")
    return CycloNum.zeta(order, (order // 4) * (2 - _i_sign(exponent)))


def _root_of_unity_order(c: CycloNum, bound: int) -> int | None:
    """The order of c as a root of unity, or None if c is none or its order exceeds bound.

    c = zeta_N^m is read off the power table; otherwise c = -zeta_N^m =
    zeta_2N^(2m + N), which is not a power of zeta_N when N is odd.
    """
    n, m = c.order, _root_exponent(c)
    if m is None:
        m = _root_exponent(-c)
        if m is None:
            return None
        n, m = 2 * n, 2 * m + n
    order = n // math.gcd(m, n)
    return order if order <= bound else None


# -- Meyer cocycle -----------------------------------------------------------

def _meyer_data(amat: Matrix, bmat: Matrix, ab: Matrix, h: Matrix, emb_order: int):
    """The exact part of meyer_cocycle: (order, pivots, zero), the same at every embedding.

    The form is divided by the fixed fourth root of unity
    zeta^(order/4) = _i_unit(order, 1), which is +i or -i at an embedding
    (_i_sign); pivots and zero are its congruence (_congruence).
    """
    n = len(h)
    one = identity(n)
    left = mat_sub(one, amat)   # A (A^-1 - 1)
    right = mat_sub(ab, amat)   # A (B - 1)
    kernel = kernel_basis(tuple(l + r for l, r in zip(left, right)))
    order = math.lcm(4, emb_order, _field_order(h, kernel))
    one_minus_b = mat_sub(one, bmat)
    # the form h(u + v, (1 - B) v') / i, its second (conjugated) argument indexing rows
    ws = [mat_vec(one_minus_b, k[n:]) for k in kernel]
    sums = [tuple(x + y for x, y in zip(k[:n], k[n:])) for k in kernel]
    i_inv = _i_unit(order, 1).inverse()
    return (order, *_congruence(mat_scale(gram(h, ws, sums), i_inv)))


def _read_meyer(data, emb: Embedding) -> int:
    """The Meyer cocycle at an embedding, from the exact data of _meyer_data."""
    order, pivots, zero = data
    big = emb.extend(order)
    return _i_sign(big.exponent) * _inertia(pivots, zero, big).index


def meyer_cocycle(a: IsometryWithForm, b: IsometryWithForm, ab: Matrix | None = None) -> int:
    """Signature of the pair-of-pants twisted intersection form.

    This is the form h(u+v, (1-B)v') / i on the kernel of the n x 2n matrix
    [(1-A) | (AB-A)].  That matrix is A [(A^-1-1) | (B-1)], the matrix of
    Meyer's definition, so both have one kernel and no inverse is taken.
    The kernel has dimension at least n.  A caller that already holds the
    product AB passes it as `ab`.  The kernel and the congruence of the
    form are exact (_meyer_data); only the signs of its pivots and of i are
    read at the embedding (_read_meyer).
    """
    if a.form != b.form:
        raise ValueError("isometries must share one form")
    if ab is None:
        ab = mat_mul(a.matrix, b.matrix)
    data = _meyer_data(a.matrix, b.matrix, ab, a.form.entries, a.embedding.order)
    return _read_meyer(data, a.embedding)


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


def _eigen_data(u: Matrix, h: Matrix, emb_order: int):
    """The exact part of eigen_split: (full_order, field_order, spaces), the same at every embedding.

    U has order F = full_order and its eigenvalues live in
    Q(zeta_field_order); spaces holds (lambda, j, pivots) per eigenspace,
    with lambda = zeta_F^j and pivots the congruence pivots of the form on
    the eigenspace.  The method is eigen_split's.
    """
    n = len(u)
    base_order = _field_order(u)
    power_bound = SCALAR_POWER_FACTOR * base_order * base_order
    diag = diagonal_entries(u)
    m, scalar, powers = _least_scalar_power(u, diag, power_bound)
    c_order = _root_of_unity_order(scalar, 2 * base_order * m)
    if c_order is None:
        raise ArithmeticError("scalar power is not a root of unity")
    full_order = m * c_order  # U^full_order = 1
    field_order = math.lcm(base_order, full_order, emb_order)
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
    spaces = []
    total = 0
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
        pivots, zero = _congruence(restricted)
        if zero:
            raise ArithmeticError("degenerate form on an eigenspace")
        spaces.append((lam, j, pivots))
        total += len(restricted)
    if total != n:  # only a diagonal U can fail here; the traces add up to n
        raise ArithmeticError("isometry is not diagonalizable over the cyclotomic closure")
    return full_order, field_order, spaces


def _read_eigen(data, emb: Embedding):
    """eigen_split at an embedding, from the exact data of _eigen_data."""
    full_order, field_order, spaces = data
    emb = emb.extend(field_order)
    k_exp = emb.exponent
    return [(lam, Fraction((j * k_exp) % full_order, full_order), _inertia(pivots, 0, emb))
            for lam, j, pivots in spaces]


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
    its diagonal.  The form on each eigenspace is reduced by congruence,
    and must be nondegenerate.

    All of that is exact and depends only on the matrix, the form and the
    order of the embedding (_eigen_data).  At the embedding zeta ->
    exp(2 pi i k / N) only two things are read (_read_eigen): the turn
    fraction (j k mod F) / F of each eigenvalue and the certified signs of
    the congruence pivots, which give each eigenspace's signature.
    Returns a list of (eigenvalue, turn_fraction, Signature).
    """
    return _read_eigen(_eigen_data(u.matrix, u.form.entries, u.embedding.order), u.embedding)


def angle_defect(turn: Fraction) -> Fraction:
    """f(alpha) = 1 - alpha/pi for alpha = 2*pi*turn in (0, 2*pi), f(0) = 0."""
    t = turn % 1
    if t == 0:
        return Fraction(0)
    return 1 - 2 * t


def _g_sum(split) -> Fraction:
    """sum over eigenvalues of (p - q) * f(angle), for the output of eigen_split."""
    total = Fraction(0)
    for _lam, turn, sig in split:
        total += (sig.positive - sig.negative) * angle_defect(turn)
    return total


def g_function(u: IsometryWithForm) -> Fraction:
    """G(U) = sum over eigenvalues of (p - q) * f(angle); exact rational."""
    return _g_sum(eigen_split(u))


# -- triangle-group Toledo invariants ----------------------------------------

def toledo_triangle_pu11(turn_a: Fraction, turn_b: Fraction, turn_c: Fraction) -> Fraction:
    """Toledo invariant of a PU(1,1) triangle representation from its rotation numbers.

    Each turn is taken mod 1, as a rotation number t in [0, 1): an elliptic
    element turning by 2 pi t about its fixed point.  Three elliptics with
    product 1 turn about the vertices of a geodesic triangle.  If the
    triangle is positively oriented its interior angles are pi t, so the
    sum s of the turns is at most 1 and tau = 1 - s, its area over pi.  If
    it is negatively oriented its angles are pi (1 - t), so s >= 2 and tau
    is minus that area, 2 - s.  No triple with 1 < s < 2 has product 1
    (Jankins-Neumann, Math. Ann. 271, 1985), and a zero turn is no
    elliptic; both raise ValueError.
    """
    turns = [Fraction(t) % 1 for t in (turn_a, turn_b, turn_c)]
    if not all(turns):
        raise ValueError(f"zero turn among the rotation numbers {turns}")
    s = sum(turns)
    if s <= 1:
        return 1 - s
    if s >= 2:
        return 2 - s
    raise ValueError(f"rotation numbers sum to {s}, strictly between 1 and 2: no triangle")


def _toledo_data(a: Matrix, b: Matrix, h: Matrix, emb_order: int):
    """The exact part of toledo_triangle_meyer for isometries A, B of the form h.

    The Meyer data of (A, B) and the eigen-data of A, B and AB; none of it
    depends on the embedding, only on its order.
    """
    ab = mat_mul(a, b)
    return (_meyer_data(a, b, ab, h, emb_order),
            *(_eigen_data(u, h, emb_order) for u in (a, b, ab)))


def _read_toledo(data, emb: Embedding) -> Fraction:
    """toledo_triangle_meyer at an embedding, from the exact data of _toledo_data."""
    meyer, *eigen = data
    g_a, g_b, g_ab = (_g_sum(_read_eigen(d, emb)) for d in eigen)
    return Fraction(_read_meyer(meyer, emb) - g_a - g_b + g_ab, 2)


def toledo_triangle_meyer(a: IsometryWithForm, b: IsometryWithForm) -> Fraction:
    """Toledo pairing with the triangle-group fundamental class.

    tau(A, B) = (mu(A,B) - G(A) - G(B) + G(AB)) / 2.  The G-coboundary is
    oriented so that tau vanishes identically on U(1), which pins the sign.
    AB preserves the form because A and B do.
    """
    if a.form != b.form:
        raise ValueError("isometries must share one form")
    return _read_toledo(_toledo_data(a.matrix, b.matrix, a.form.entries, a.embedding.order),
                        a.embedding)
