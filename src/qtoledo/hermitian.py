"""Exact signatures of Hermitian matrices over cyclotomic fields.

Contains the linear algebra used everywhere downstream: characteristic
polynomials by the Faddeev-LeVerrier recursion, signature counting by
Descartes' rule (valid because Hermitian spectra are real), the Meyer
cocycle of a pair of isometries, eigenvalue splitting of finite-order
isometries into exact roots of unity, and the rational G-function that
corrects the Meyer cocycle into a Toledo invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import CycloNum, Embedding, conjugate, sign_real

Matrix = tuple[tuple[CycloNum, ...], ...]

#: default bound for the scalar-power search in eigen_split
SCALAR_POWER_FACTOR = 24


# -- matrix helpers over CycloNum ------------------------------------------

def as_matrix(rows) -> Matrix:
    out = []
    for row in rows:
        out.append(tuple(x if isinstance(x, CycloNum) else CycloNum.rational(x) for x in row))
    width = {len(r) for r in out}
    if len(width) != 1:
        raise ValueError("ragged matrix")
    return tuple(out)


def identity(n: int) -> Matrix:
    one, zero = CycloNum.rational(1), CycloNum.rational(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a: Matrix, c) -> Matrix:
    return tuple(tuple(x * c for x in row) for row in a)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k, m = len(a), len(b), len(b[0])
    bt = list(zip(*b))
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            s = CycloNum.rational(0)
            for t in range(k):
                if not a[i][t].is_zero() and not bt[j][t].is_zero():
                    s = s + a[i][t] * bt[j][t]
            row.append(s)
        out.append(tuple(row))
    return tuple(out)


def mat_vec(a: Matrix, v) -> tuple[CycloNum, ...]:
    return tuple(sum((a[i][j] * v[j] for j in range(len(v))), CycloNum.rational(0)) for i in range(len(a)))


def conj_transpose(a: Matrix) -> Matrix:
    return tuple(tuple(conjugate(a[j][i]) for j in range(len(a))) for i in range(len(a[0])))


def mat_pow(a: Matrix, n: int) -> Matrix:
    result = identity(len(a))
    base = a
    while n:
        if n & 1:
            result = mat_mul(result, base)
        n >>= 1
        if n:
            base = mat_mul(base, base)
    return result


def mat_inv(a: Matrix) -> Matrix:
    """Gauss-Jordan inverse; raises ZeroDivisionError on singular input."""
    n = len(a)
    aug = [list(row) + list(identity(n)[i]) for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if not aug[r][col].is_zero()), None)
        if pivot is None:
            raise ZeroDivisionError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col].inverse()
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and not aug[r][col].is_zero():
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def mat_trace(a: Matrix) -> CycloNum:
    return sum((a[i][i] for i in range(len(a))), CycloNum.rational(0))


def kernel_basis(a: Matrix) -> list[tuple[CycloNum, ...]]:
    """Exact right-kernel basis via reduced row echelon form."""
    rows = [list(r) for r in a]
    n_rows, n_cols = len(rows), len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if not rows[i][c].is_zero()), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n_rows):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [CycloNum.rational(0)] * n_cols
        vec[fc] = CycloNum.rational(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -rows[i][fc]
        basis.append(tuple(vec))
    return basis


def charpoly(a: Matrix) -> list[CycloNum]:
    """Coefficients [c0, ..., cn] of det(xI - A), via Faddeev-LeVerrier."""
    n = len(a)
    coeffs = [CycloNum.rational(0)] * (n + 1)
    coeffs[n] = CycloNum.rational(1)
    m = identity(n)
    for k in range(1, n + 1):
        am = mat_mul(a, m)
        c = mat_trace(am) * Fraction(-1, k)
        coeffs[n - k] = c
        m = mat_add(am, mat_scale(identity(n), c))
    return coeffs


def determinant(a: Matrix) -> CycloNum:
    c0 = charpoly(a)[0]
    return c0 if len(a) % 2 == 0 else -c0


# -- Hermitian matrices and signatures --------------------------------------

@dataclass(frozen=True)
class Signature:
    positive: int
    negative: int
    zero: int

    def __iter__(self):
        return iter((self.positive, self.negative, self.zero))

    @property
    def index(self) -> int:
        return self.positive - self.negative


@dataclass(frozen=True)
class HermMatrix:
    """Square matrix over a cyclotomic field, Hermitian for zeta -> 1/zeta."""

    entries: Matrix
    embedding: Embedding

    def __post_init__(self):
        m = as_matrix(self.entries)
        object.__setattr__(self, "entries", m)
        n = len(m)
        for i in range(n):
            for j in range(i, n):
                if not (m[i][j] - conjugate(m[j][i])).is_zero():
                    raise ValueError(f"matrix is not Hermitian at ({i},{j})")

    @property
    def dim(self) -> int:
        return len(self.entries)


def _descartes_positive_roots(signs: list[int]) -> int:
    # number of positive roots of a real-rooted polynomial = sign variations
    nonzero = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nonzero, nonzero[1:]) if a * b < 0)


def signature(h: HermMatrix) -> Signature:
    """Exact signature from the characteristic polynomial.

    All roots are real, so Descartes' rule counts positive and negative
    eigenvalues exactly; the zero count is the x-adic valuation.
    """
    coeffs = charpoly(h.entries)
    for c in coeffs:
        if not c.is_conjugation_fixed():
            raise ArithmeticError("characteristic polynomial not real: input not Hermitian?")
    zero = 0
    while zero < len(coeffs) - 1 and coeffs[zero].is_zero():
        zero += 1
    signs = [sign_real(c, h.embedding) for c in coeffs[zero:]]
    pos = _descartes_positive_roots(signs)
    neg = _descartes_positive_roots([s if (i % 2 == 0) else -s for i, s in enumerate(signs)])
    return Signature(pos, neg, zero)


def form_signature(gram: Matrix, emb: Embedding) -> Signature:
    return signature(HermMatrix(gram, emb))


# -- isometries --------------------------------------------------------------

@dataclass(frozen=True)
class IsometryWithForm:
    """A matrix U with U^dagger h U = h for an invertible Hermitian form h."""

    matrix: Matrix
    form: HermMatrix

    def __post_init__(self):
        u = as_matrix(self.matrix)
        object.__setattr__(self, "matrix", u)
        h = self.form.entries
        lhs = mat_mul(conj_transpose(u), mat_mul(h, u))
        for i in range(len(h)):
            for j in range(len(h)):
                if not (lhs[i][j] - h[i][j]).is_zero():
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


def _is_scalar(m: Matrix) -> CycloNum | None:
    d = m[0][0]
    n = len(m)
    for i in range(n):
        for j in range(n):
            target = d if i == j else CycloNum.rational(0)
            if not (m[i][j] - target).is_zero():
                return None
    return d


def _root_of_unity_order(c: CycloNum, bound: int) -> int | None:
    acc = c
    for k in range(1, bound + 1):
        if acc == 1:
            return k
        acc = acc * c
    return None


# -- Meyer cocycle -----------------------------------------------------------

def meyer_cocycle(a: IsometryWithForm, b: IsometryWithForm) -> int:
    """Signature of the pair-of-pants twisted intersection form.

    With C = (AB)^-1 and 1-A invertible this is the signature of the
    Hermitian matrix h * (1-B^-1)(1-A)^-1(1-C^-1) / i; otherwise the form
    h(u+v, (1-B)v') / i on the kernel {(u,v): (A^-1-1)u + (B-1)v = 0}.
    """
    if a.form is not b.form and a.form.entries != b.form.entries:
        raise ValueError("isometries must share one form")
    h = a.form.entries
    emb = a.embedding
    n = len(h)
    one = identity(n)
    amat, bmat = a.matrix, b.matrix
    try:
        inv_1a = mat_inv(mat_sub(one, amat))
    except ZeroDivisionError:
        return _meyer_kernel_form(amat, bmat, h, emb)
    c_inv = mat_mul(amat, bmat)  # C = (AB)^-1, so 1 - C^-1 = 1 - AB
    s = mat_mul(mat_sub(one, mat_inv(bmat)), mat_mul(inv_1a, mat_sub(one, c_inv)))
    return _skew_form_signature(h, s, emb)


def _skew_form_signature(h: Matrix, s: Matrix, emb: Embedding) -> int:
    """Signature of the Hermitian matrix h*s/i (h*s must be skew-Hermitian)."""
    order = math.lcm(emb.order, 4)
    for row in s:
        for x in row:
            order = math.lcm(order, x.order)
    for row in h:
        for x in row:
            order = math.lcm(order, x.order)
    big = emb.extend(order)
    i_unit = _i_unit(order, big.exponent)
    w = mat_scale(mat_mul(h, s), i_unit.inverse())
    return signature(HermMatrix(w, big)).index


def _meyer_kernel_form(amat: Matrix, bmat: Matrix, h: Matrix, emb: Embedding) -> int:
    n = len(h)
    one = identity(n)
    left = mat_sub(mat_inv(amat), one)   # (A^-1 - 1)
    right = mat_sub(bmat, one)           # (B - 1)
    stacked = tuple(tuple(left[i]) + tuple(right[i]) for i in range(n))
    kernel = kernel_basis(stacked)
    if not kernel:
        return 0
    order = math.lcm(4, emb.order, *[x.order for row in h for x in row],
                     *[x.order for vec in kernel for x in vec])
    big = emb.extend(order)
    i_inv = _i_unit(order, big.exponent).inverse()
    one_minus_b = mat_sub(one, bmat)
    gram = []
    for kb in kernel:  # row index: second (conjugated) argument of the form
        row = []
        vb = kb[n:]
        wb = mat_vec(one_minus_b, vb)
        for ka in kernel:
            ua, va = ka[:n], ka[n:]
            s = CycloNum.rational(0)
            for i in range(n):
                for j in range(n):
                    s = s + conjugate(wb[i]) * h[i][j] * (ua[j] + va[j])
            row.append(s * i_inv)
        gram.append(tuple(row))
    return signature(HermMatrix(tuple(gram), big)).index


def meyer_u1_sign(alpha_turn: Fraction, beta_turn: Fraction) -> int:
    """Closed U(1) formula sign(sin((a+b)/2) sin(a/2) sin(b/2)), angles in turns."""
    def s(t: Fraction) -> int:
        # sign of sin(pi*t), period 2 in t
        r = t % 2
        if r == 0 or r == 1:
            return 0
        return 1 if r < 1 else -1

    return s(alpha_turn + beta_turn) * s(alpha_turn) * s(beta_turn)


# -- eigenvalue splitting and the G-function ---------------------------------

def eigen_split(u: IsometryWithForm, power_bound: int | None = None):
    """Exact eigenvalues (roots of unity) with eigenspace signatures.

    Searches for the least N with U^N scalar, identifies the scalar as a
    root of unity, then splits eigenspaces in the enlarged cyclotomic field.
    The characteristic polynomial is computed once at the base order of U,
    and a candidate root of unity lambda gets a kernel solve only when
    Horner's rule gives charpoly(lambda) = 0; every other candidate has an
    empty eigenspace, so the filter changes neither the result nor its order.
    Returns a list of (eigenvalue, turn_fraction, Signature).
    """
    n = u.dim
    base_order = 1
    for row in u.matrix:
        for x in row:
            base_order = math.lcm(base_order, x.order)
    if power_bound is None:
        power_bound = SCALAR_POWER_FACTOR * base_order * base_order
    power = u.matrix
    scalar = None
    scalar_power = None
    for k in range(1, power_bound + 1):
        scalar = _is_scalar(power)
        if scalar is not None:
            scalar_power = k
            break
        power = mat_mul(power, u.matrix)
    if scalar is None:
        raise ArithmeticError(f"no scalar power of the isometry up to {power_bound}")
    c_order = _root_of_unity_order(scalar, 2 * base_order * scalar_power)
    if c_order is None:
        raise ArithmeticError("scalar power is not a root of unity")
    full_order = scalar_power * c_order  # U^full_order = 1
    field_order = math.lcm(base_order, full_order, u.embedding.order)
    emb = u.embedding.extend(field_order)
    mat = tuple(tuple(x.lift(field_order) for x in row) for row in u.matrix)
    h = tuple(tuple(x.lift(field_order) for x in row) for row in u.form.entries)
    poly = [c.lift(field_order) for c in charpoly(u.matrix)]
    out = []
    total = 0
    k_exp = emb.exponent
    for j in range(full_order):
        lam = CycloNum.zeta(field_order, (j * (field_order // full_order)) % field_order)
        value = poly[n]
        for c in reversed(poly[:n]):
            value = value * lam + c
        if not value.is_zero():
            continue
        shifted = mat_sub(mat, mat_scale(identity(n), lam))
        basis = kernel_basis(shifted)
        if not basis:
            continue
        gram = []
        for vb in basis:
            row = []
            for va in basis:
                s = CycloNum.rational(0)
                for p in range(n):
                    for q in range(n):
                        s = s + conjugate(vb[p]) * h[p][q] * va[q]
                row.append(s)
            gram.append(tuple(row))
        sig = signature(HermMatrix(tuple(gram), emb))
        if sig.zero:
            raise ArithmeticError("degenerate form on an eigenspace")
        turn = Fraction((j * k_exp) % full_order, full_order)
        out.append((lam, turn, sig))
        total += len(basis)
    if total != n:
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
    mu = meyer_cocycle(a, b)
    return Fraction(mu - g_function(a) - g_function(b) + g_function(ab), 2)
