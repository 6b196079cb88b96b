"""Small-surface SO3 quantum representation data.

Builds the four-punctured-sphere angle data and the punctured-torus
representation (curve operators C, twists T = Q(C), and the invariant
Hermitian form), then evaluates the degree-2 invariants tau_{0,4} and
tau_{1,1}.  tau_{0,4} comes from the hyperbolic-triangle angle formula,
tau_{1,1} from the Meyer signature plus G-function corrections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import CycloNum, Embedding, conjugate, quantum_int, quantum_int_sign, sign_real
from .fusion import FrobeniusAlgebra, so3_algebra
from .hermitian import (
    HermMatrix,
    IsometryWithForm,
    Matrix,
    as_matrix,
    charpoly,
    g_function,
    identity,
    mat_inv,
    mat_mul,
    mat_pow,
    mat_scale,
    mat_sub,
    signature,
    toledo_triangle_pu11,
    _skew_form_signature,
)


def _rank(level: int) -> int:
    return (level - 1) // 2


def _check_color(level: int, i: int):
    if not 0 <= i <= _rank(level) - 1:
        raise ValueError(f"color index {i} out of range for level {level}")


def _turn_of_power(m: int, emb: Embedding) -> Fraction:
    """Angle of q^m as a fraction of a turn in (-1/2, 1/2]."""
    n = emb.order
    res = (m * emb.exponent) % n
    if 2 * res > n:
        res -= n
    return Fraction(res, n)


@dataclass(frozen=True)
class FourPointData:
    """Gluing data of the sphere with colors (w, w, e_i, e_i)."""

    level: int
    embedding: Embedding
    color: int
    f_norms: tuple[CycloNum, CycloNum]      # curve between the two pairs, colors 0 and 2
    f_twists: tuple[CycloNum, CycloNum]
    g_norm_signs: tuple[int, int]           # curve pairing w with e_i, colors 2r-2-2i, 2r-2i
    g_twists: tuple[CycloNum, CycloNum]

    def __post_init__(self):
        for x in self.f_norms:
            if not x.is_conjugation_fixed():
                raise ValueError("norms must be conjugation fixed")
        for t in self.f_twists + self.g_twists:
            if not (t ** self.level == 1):
                raise ValueError("twist eigenvalues must be level-th roots of unity")


def four_point_data(level: int, emb: Embedding, i: int) -> FourPointData:
    _check_color(level, i)
    r = _rank(level)
    q = CycloNum.zeta(level)
    two = quantum_int(2, q)
    three = quantum_int(3, q)
    f0 = -two * quantum_int(2 * i + 1, q)
    f1 = -(quantum_int(2 * i + 2, q) * quantum_int(2 * i + 1, q)) / \
        (quantum_int(2 * i, q) * two * three * three) if i > 0 else CycloNum.rational(0)
    g_signs = (
        -quantum_int_sign(2 * i + 2, emb),
        -quantum_int_sign(2 * i, emb),
    )
    return FourPointData(
        level, emb, i,
        (f0, f1),
        (CycloNum.rational(1), q ** 4),
        g_signs,
        (q ** (2 * (r - i - 1) * (r - i)), q ** (2 * (r - i) * (r - i + 1))),
    )


def four_point_toledo(level: int, emb: Embedding, i: int, j: int) -> Fraction:
    """tau_{0,4}(w, w, e_i, e_j) with w the top color e_{r-1}.

    Zero off the diagonal and when the form is definite; otherwise the
    triangle-group angle formula, with the result certified to lie in
    (-1, 1) with denominator dividing the level.
    """
    _check_color(level, i)
    _check_color(level, j)
    if i != j:
        return Fraction(0)
    if i == 0:
        return Fraction(0)  # one-dimensional block, unitary
    r = _rank(level)
    s_lo = quantum_int_sign(2 * i, emb)
    s_hi = quantum_int_sign(2 * i + 2, emb)
    if s_lo * s_hi > 0:
        return Fraction(0)  # definite form
    theta_alpha = _turn_of_power(4 * (r - i) * s_lo, emb)
    s_gamma = quantum_int_sign(2, emb) * quantum_int_sign(2 * i + 1, emb)
    theta_gamma = _turn_of_power(-4 * s_gamma, emb)
    value = toledo_triangle_pu11(theta_alpha, theta_alpha, theta_gamma)
    if not (-1 < value < 1) or (value * level).denominator != 1:
        raise ArithmeticError(f"tau_04 = {value} violates the (1/level)-integrality certificate")
    return value


# -- punctured torus -----------------------------------------------------------


@dataclass(frozen=True)
class PuncturedTorusRep:
    """Basis, form, curve operators, and twists on the one-holed torus."""

    level: int
    embedding: Embedding
    color: int
    window: tuple[int, ...]          # gluing colors 2j indexed by j
    norms: tuple[CycloNum, ...]
    c_gamma: Matrix
    c_delta: Matrix
    t_gamma: Matrix
    t_delta: Matrix

    @property
    def dim(self) -> int:
        return len(self.window)

    @property
    def form(self) -> HermMatrix:
        zero = CycloNum.rational(0)
        n = self.dim
        return HermMatrix(
            tuple(tuple(self.norms[a] if a == b else zero for b in range(n)) for a in range(n)),
            self.embedding,
        )

    def form_signature(self):
        sig_pos = sum(1 for x in self.norms if sign_real(x, self.embedding) > 0)
        sig_neg = sum(1 for x in self.norms if sign_real(x, self.embedding) < 0)
        return sig_pos, sig_neg


def _u_value(m: int, i: int, q: CycloNum, level: int) -> CycloNum:
    # u_m = [i+m+1][m-i] / ([m][m+1]); zero whenever the numerator vanishes
    if (m - i) % level == 0 or (i + m + 1) % level == 0:
        return CycloNum.rational(0)
    num = quantum_int(i + m + 1, q) * quantum_int(m - i, q)
    den = quantum_int(m, q) * quantum_int(m + 1, q)
    return num / den


def punctured_torus_rep(level: int, emb: Embedding, i: int,
                        algebra: FrobeniusAlgebra | None = None) -> PuncturedTorusRep:
    """Construct the torus representation with boundary color e_i.

    The form is fixed up to positive scale by self-adjointness of the
    tridiagonal curve operator; its base sign comes from the gluing-norm
    pattern and is cross-validated against tr_V(e_i) downstream.
    """
    _check_color(level, i)
    r = _rank(level)
    window = tuple(j for j in range(r) if i <= 2 * j < 2 * r - i)
    if len(window) != r - i:
        raise ArithmeticError("admissibility window has unexpected size")
    if algebra is None:
        algebra = so3_algebra(level, emb)
    q = CycloNum.zeta(level)
    n = len(window)
    zero = CycloNum.rational(0)

    c_values = [q ** (4 * j + 2) + 1 + q ** (-(4 * j + 2)) for j in window]
    # twist orientation: the left-handed convention makes the (2,3,7) line
    # carry Toledo invariant -1/42, the orbifold Euler characteristic
    twist_values = [q ** (-2 * j * (j + 1)) for j in window]
    pos = {j: a for a, j in enumerate(window)}

    rows = [[zero] * n for _ in range(n)]
    for a, j in enumerate(window):
        diag = _u_value(2 * j + 1, i, q, level) + _u_value(2 * j, i, q, level) - 1
        rows[a][a] = diag
        if j + 1 in pos:
            rows[pos[j + 1]][a] = CycloNum.rational(1)
        low = _u_value(2 * j, i, q, level) * _u_value(2 * j - 1, i, q, level)
        if j - 1 in pos:
            rows[pos[j - 1]][a] = low
        elif not low.is_zero():
            raise ArithmeticError("subdiagonal does not vanish at the window edge")
    c_delta = tuple(tuple(row) for row in rows)
    c_gamma = tuple(
        tuple(c_values[a] if a == b else zero for b in range(n)) for a in range(n)
    )

    # distinct eigenvalues make the twist a polynomial in the curve operator
    for a in range(n):
        for b in range(a + 1, n):
            if c_values[a] == c_values[b]:
                raise ArithmeticError("curve-operator eigenvalues collide")
    t_delta = _lagrange_apply(c_delta, c_values, twist_values)
    t_gamma = tuple(
        tuple(twist_values[a] if a == b else zero for b in range(n)) for a in range(n)
    )

    # norms: base sign from the gluing pattern, then the self-adjointness ratio
    j_min = window[0]
    base = algebra.omega03[j_min][j_min][i] * quantum_int_sign(2 * j_min + 1, emb)
    if base == 0:
        raise ArithmeticError("degenerate base norm")
    norms = [CycloNum.rational(base)]
    for a in range(1, n):
        j = window[a - 1]
        ratio = _u_value(2 * j + 2, i, q, level) * _u_value(2 * j + 1, i, q, level)
        norms.append(norms[-1] * ratio)

    rep = PuncturedTorusRep(level, emb, i, window, tuple(norms),
                            c_gamma, c_delta, t_gamma, t_delta)
    _validate_rep(rep)
    return rep


def _lagrange_apply(m: Matrix, points: list[CycloNum], values: list[CycloNum]) -> Matrix:
    """Q(m) for the interpolation polynomial through (points[k], values[k])."""
    n = len(m)
    out = tuple(tuple(CycloNum.rational(0) for _ in range(n)) for _ in range(n))
    for k, (x_k, y_k) in enumerate(zip(points, values)):
        term = identity(n)
        denom = CycloNum.rational(1)
        for l, x_l in enumerate(points):
            if l == k:
                continue
            term = mat_mul(term, mat_sub(m, mat_scale(identity(n), x_l)))
            denom = denom * (x_k - x_l)
        weight = y_k * denom.inverse()
        out = tuple(
            tuple(out[a][b] + term[a][b] * weight for b in range(n))
            for a in range(n)
        )
    return out


def _validate_rep(rep: PuncturedTorusRep):
    n = rep.dim
    h = rep.form.entries
    emb = rep.embedding

    def assert_self_adjoint(mat):
        prod = mat_mul(h, mat)
        for a in range(n):
            for b in range(n):
                if not (prod[a][b] - conjugate(prod[b][a])).is_zero():
                    raise ArithmeticError("curve operator is not self-adjoint for the form")

    def assert_isometry(mat):
        IsometryWithForm(mat, rep.form)

    assert_self_adjoint(rep.c_delta)
    assert_isometry(rep.t_gamma)
    assert_isometry(rep.t_delta)

    # C_delta and C_gamma have one characteristic polynomial
    pa, pb = charpoly(rep.c_delta), charpoly(rep.c_gamma)
    for x, y in zip(pa, pb):
        if not (x - y).is_zero():
            raise ArithmeticError("curve operators have different spectra")

    # triangle-group relations hold projectively
    for word in (rep.t_gamma, rep.t_delta):
        if not _is_scalar_matrix(mat_pow(word, rep.level)):
            raise ArithmeticError("twist does not have the right projective order")
    td_tg = mat_mul(rep.t_gamma, rep.t_delta)
    cube = mat_mul(td_tg, mat_mul(td_tg, td_tg))
    if not _is_scalar_matrix(cube):
        raise ArithmeticError("(T_gamma T_delta)^3 is not scalar")
    half = mat_mul(td_tg, rep.t_gamma)
    if not _is_scalar_matrix(mat_mul(half, half)):
        raise ArithmeticError("(T_gamma T_delta T_gamma)^2 is not scalar")


def _is_scalar_matrix(m: Matrix) -> bool:
    d = m[0][0]
    for a in range(len(m)):
        for b in range(len(m)):
            target = d if a == b else CycloNum.rational(0)
            if not (m[a][b] - target).is_zero():
                return False
    return True


def tau_11(level: int, emb: Embedding, i: int,
           algebra: FrobeniusAlgebra | None = None) -> Fraction:
    """tau_{1,1}(e_i): Meyer signature of the twist pair plus G-corrections.

    Vanishes for i = 0 (the block is unitary definite there).  The
    G-coboundary signs are oriented as in toledo_triangle_meyer, the
    orientation that makes the U(1) case vanish identically.
    """
    if i == 0:
        return Fraction(0)
    rep = punctured_torus_rep(level, emb, i, algebra)
    n = rep.dim
    one = identity(n)
    form = rep.form
    tg = rep.t_gamma
    tdtg = mat_mul(rep.t_delta, tg)        # the second triangle generator
    tgtdtg = mat_mul(tg, tdtg)             # their product
    try:
        inv = mat_inv(mat_sub(one, tg))
    except ZeroDivisionError:
        raise ArithmeticError("1 - T_gamma is singular; the displayed formula does not apply")
    s = mat_mul(mat_sub(one, mat_inv(tdtg)), mat_mul(inv, mat_sub(one, tgtdtg)))
    sig = _skew_form_signature(form.entries, s, emb)
    g_tg = g_function(IsometryWithForm(tg, form))
    g_tdtg = g_function(IsometryWithForm(tdtg, form))
    g_tgtdtg = g_function(IsometryWithForm(tgtdtg, form))
    return Fraction(sig, 2) - Fraction(g_tg + g_tdtg - g_tgtdtg, 2)


def pivot_tau04_table(level: int, emb: Embedding) -> dict[tuple[int, int], Fraction]:
    r = _rank(level)
    return {(i, j): four_point_toledo(level, emb, i, j) for i in range(r) for j in range(r)}


def tau11_table(level: int, emb: Embedding,
                algebra: FrobeniusAlgebra | None = None) -> list[Fraction]:
    r = _rank(level)
    return [tau_11(level, emb, i, algebra) for i in range(r)]
