"""Signatures of Hermitian forms over cyclotomic fields and the invariants built on them.

These rest on the exact matrix core of `linalg`.  Every signature here is
one Hermitian congruence (Sylvester's law of inertia: one certified sign
per pivot): of a form; of the Meyer form of a pair of isometries, on one
kernel; and of the form on each eigenspace of a finite-order isometry,
whose eigenvalues are exact roots of unity with multiplicities from the
traces of its powers.  On them rest the rational G-function that corrects
the Meyer cocycle into a Toledo invariant, and the Toledo invariants of
triangle-group representations.

Each invariant is computed in two passes.  The exact pass works in
Q(zeta_N) and depends on the matrices, the form and the order of the
embedding only: the congruence pivots of a form (`_congruence`); the
powers and multiplicities of an isometry, and the congruence pivots of h Pi
for each spectral projector Pi, which is the form on that eigenspace
(`_eigen_data`); and the Meyer kernel and the congruence pivots of its form
divided by zeta_M - 1/zeta_M (`_meyer_data`).  The sign pass reads that
data at an embedding zeta -> exp(2 pi i k / N): the certified sign of each
pivot (`_inertia`), the turn fraction (j k mod F) / F of each eigenvalue,
and the sign of sin(2 pi k / M), since zeta_M - 1/zeta_M is 2 i sin(2 pi k / M)
there.  The Galois conjugate representations of one level share the exact
pass, so `qrep` keeps it once per (level, color) and runs only the sign
pass per embedding (`_toledo_data`, `_read_toledo`).
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._record import Record
from .cyclotomic import CycloNum, Embedding, _root_exponent, conjugate, sign_real, sin_turn_sign
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
    scale_rows,
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

    The form G is divided by d = zeta_M - 1/zeta_M, for M = order the lcm of
    the embedding's order and the field order of h and the kernel, or 4 when
    that lcm is at most 2 (where d would be 0).  conj(d) = -d, so G/d is
    Hermitian as G/i is; pivots and zero are its congruence (_congruence).
    """
    n = len(h)
    one = identity(n)
    left = mat_sub(one, amat)   # A (A^-1 - 1)
    right = mat_sub(ab, amat)   # A (B - 1)
    kernel = kernel_basis(tuple(l + r for l, r in zip(left, right)))
    order = math.lcm(emb_order, _field_order(h, kernel))
    if order <= 2:
        order = 4
    one_minus_b = mat_sub(one, bmat)
    # the form h(u + v, (1 - B) v') / d, its second (conjugated) argument indexing rows
    ws = [mat_vec(one_minus_b, k[n:]) for k in kernel]
    sums = [tuple(x + y for x, y in zip(k[:n], k[n:])) for k in kernel]
    d_inv = (CycloNum.zeta(order) - CycloNum.zeta(order, -1)).inverse()
    return (order, *_congruence(mat_scale(gram(h, ws, sums), d_inv)))


def _read_meyer(data, emb: Embedding) -> int:
    """The Meyer cocycle at an embedding, from the exact data of _meyer_data.

    At zeta_M -> exp(2 pi i k / M), d = zeta_M - 1/zeta_M is i times
    2 sin(2 pi k / M), which is nonzero because k is a unit and M > 2; so
    the index of G/i is that sine's sign times the index of G/d.
    """
    order, pivots, zero = data
    big = emb.extend(order)
    return sin_turn_sign(big.exponent, order) * _inertia(pivots, zero, big).index


def meyer_cocycle(a: IsometryWithForm, b: IsometryWithForm) -> int:
    """Signature of the pair-of-pants twisted intersection form.

    This is the form h(u+v, (1-B)v') / i on the kernel of the n x 2n matrix
    [(1-A) | (AB-A)].  That matrix is A [(A^-1-1) | (B-1)], the matrix of
    Meyer's definition, so both have one kernel and no inverse is taken.
    The kernel has dimension at least n.  The kernel and the congruence of
    the form divided by zeta_M - 1/zeta_M, which stays in the field of the
    data, are exact (_meyer_data); only the signs of its pivots and of one
    sine are read at the embedding (_read_meyer).
    """
    if a.form != b.form:
        raise ValueError("isometries must share one form")
    data = _meyer_data(a.matrix, b.matrix, mat_mul(a.matrix, b.matrix),
                       a.form.entries, a.embedding.order)
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


def _eigen_data(u: Matrix, h: Matrix, emb_order: int):
    """The exact part of eigen_split: (full_order, field_order, spaces), the same at every embedding.

    U has order F = full_order and its eigenvalues live in
    Q(zeta_field_order); spaces holds (lambda, j, pivots) per eigenspace,
    with lambda = zeta_F^j and pivots the congruence pivots of the form on
    the eigenspace: of h (m Pi) for a spectral projector Pi, or of h
    restricted to a diagonal U's eigenspace.  The method is eigen_split's.
    """
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
    roots = [(j, CycloNum.zeta(field_order, j * step)) for j in range(full_order)]
    roots = [(j, lam) for j, lam in roots if lam ** m == scalar]
    if diag is None:
        coeffs = [[CycloNum.zeta(field_order, -j * step * k) for k in range(m)] for j, _ in roots]
        mults = _trace_multiplicities(powers, coeffs, m)
        hits = [idx for idx, mult in enumerate(mults) if mult]
        norms = diagonal_entries(h)
        # h (m Pi) is Hermitian: m times the form on the eigenspace, and zero on the others
        forms = [mat_mul(h, p) if norms is None else scale_rows(norms, p)
                 for p in lin_combs([coeffs[idx] for idx in hits], powers)]
    else:
        diag = [x.lift(field_order) for x in diag]
        indices = [[a for a, x in enumerate(diag) if x == lam] for _, lam in roots]
        mults = [len(index) for index in indices]
        hits = [idx for idx, mult in enumerate(mults) if mult]
        forms = [tuple(tuple(h[a][b] for b in indices[idx]) for a in indices[idx]) for idx in hits]
    spaces = []
    for idx, form in zip(hits, forms):
        pivots, zero = _congruence(form)
        if len(form) - zero != mults[idx]:
            raise ArithmeticError("degenerate form on an eigenspace" if diag is not None else
                                  f"eigenspace projector has rank {len(form) - zero}, "
                                  f"but the traces give multiplicity {mults[idx]}")
        j, lam = roots[idx]
        spaces.append((lam, j, pivots))
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
    zero is skipped.  The multiplicities add up to n by the same identity.
    The spectral projector Pi = (1/m) sum_k lambda^-k U^k is the identity
    on the eigenspace of lambda and zero on the others, which are
    h-orthogonal to it.  U is an isometry of h, so Pi is self-adjoint for h
    and h Pi is Hermitian: it is the form on the eigenspace, extended by
    zero.  So the congruence of h (m Pi) gives the eigenspace's pivots
    directly, with no basis chosen, and its rank n - zero must equal
    mult(lambda); that certifies both the rank of Pi and that the form on
    the eigenspace is nondegenerate.  A diagonal U has its eigenspaces read
    off its diagonal, and the form restricted to each must be
    nondegenerate.

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
