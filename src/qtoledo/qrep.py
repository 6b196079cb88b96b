"""Small-surface SO3 quantum representation data.

Builds the four-punctured-sphere angle data and the punctured-torus
representation (curve operators C, twists T = Q(C), and the invariant
Hermitian form), then evaluates the degree-2 invariants tau_{0,4} and
tau_{1,1}.  tau_{0,4} comes from the hyperbolic-triangle angle formula,
tau_{1,1} from the Meyer signature plus G-function corrections.

The torus representation is built and certified from its structure.  C_gamma
and T_gamma are diagonal; C_delta is tridiagonal with a unit subdiagonal, so
its left eigenvector for the eigenvalue c is given by the division-free
recurrence u_0 = 1, u_{a+1} = (c - d_a) u_a - low_a u_{a-1}, and
T_delta = L^-1 diag(t) L in that eigenbasis.  The certificates are:
self-adjointness of C_delta and the two twists preserving the form; equal
spectra, because the recurrence closes at each of the n distinct
eigenvalues of C_gamma; L T_delta = diag(t) L and L L^-1 = I, which with
equal t_k^level make both twists of projective order level; and the
projective relations (T_gamma T_delta)^3 and (T_gamma T_delta T_gamma)^2.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .cyclotomic import CycloNum, Embedding, conjugate, quantum_int, quantum_int_sign
from .fusion import check_so3_level, so3_structure_sign
from .hermitian import (
    HermMatrix,
    IsometryWithForm,
    Matrix,
    conj_transpose,
    diagonal,
    identity,
    is_scalar,
    mat_mul,
    scale_rows,
    toledo_triangle_meyer,
    toledo_triangle_pu11,
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


class FourPointData(Record):
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
    check_so3_level(level, emb)
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
    check_so3_level(level, emb)
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


class PuncturedTorusRep(Record):
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
        return HermMatrix(diagonal(self.norms), self.embedding)


def _u_value(m: int, i: int, q: CycloNum, level: int) -> CycloNum:
    # u_m = [i+m+1][m-i] / ([m][m+1]); zero whenever the numerator vanishes
    if (m - i) % level == 0 or (i + m + 1) % level == 0:
        return CycloNum.rational(0)
    num = quantum_int(i + m + 1, q) * quantum_int(m - i, q)
    den = quantum_int(m, q) * quantum_int(m + 1, q)
    return num / den


def punctured_torus_rep(level: int, emb: Embedding, i: int) -> PuncturedTorusRep:
    """Construct the torus representation with boundary color e_i.

    The form is fixed up to positive scale by self-adjointness of the
    tridiagonal curve operator.  Its base sign, on the lowest gluing color
    2j, is the fusion structure sign fusion.so3_structure_sign(emb, j, j, i)
    times the sign of [2j+1]; the tests check the resulting signature
    against tr_V(e_i) of the fusion algebra.

    T_delta is the interpolation polynomial of C_delta through the pairs
    (c_k, t_k) of curve eigenvalues and twists, written in the left
    eigenbasis of C_delta: T_delta = L^-1 diag(t) L.  C_delta is tridiagonal
    with a unit subdiagonal, so the eigenvector u for c_k comes from the
    recurrence u_0 = 1, u_{a+1} = (c_k - d_a) u_a - low_a u_{a-1} (d the
    diagonal, low the superdiagonal) with no division, and
    L^-1 = h^-1 L^* diag(1/s_k) with s_k = u_k h^-1 u_k^*, because the
    eigenvectors of a self-adjoint operator are orthogonal for the form h.
    That takes n scalar inverses and no matrix inverse.

    The result is certified before it is returned (_validate_rep):

    - C_delta is self-adjoint for the form, and T_gamma, T_delta preserve it;
    - C_gamma = diag(c) and T_gamma = diag(t) are diagonal, and C_delta is
      tridiagonal with a unit subdiagonal;
    - C_delta and C_gamma have one spectrum: the recurrence, one step past
      the end, gives det(c_k - C_delta), and it vanishes at each of the n
      distinct c_k;
    - one product shows L T_delta = diag(t) L and another L L^-1 = I, so
      T_delta = L^-1 diag(t) L; both twists then have scalar level-th
      powers because every t_k^level is the same, checked entrywise;
    - (T_gamma T_delta)^3 and (T_gamma T_delta T_gamma)^2 are scalar.
    """
    check_so3_level(level, emb)
    _check_color(level, i)
    r = _rank(level)
    window = tuple(j for j in range(r) if i <= 2 * j < 2 * r - i)
    if len(window) != r - i:
        raise ArithmeticError("admissibility window has unexpected size")
    q = CycloNum.zeta(level)
    n = len(window)
    zero = CycloNum.rational(0)
    u = {m: _u_value(m, i, q, level) for m in range(2 * window[0] - 1, 2 * window[-1] + 2)}

    c_values = [q ** (4 * j + 2) + 1 + q ** (-(4 * j + 2)) for j in window]
    # twist orientation: the left-handed convention makes the (2,3,7) line
    # carry Toledo invariant -1/42, the orbifold Euler characteristic
    twist_values = [q ** (-2 * j * (j + 1)) for j in window]
    pos = {j: a for a, j in enumerate(window)}

    rows = [[zero] * n for _ in range(n)]
    for a, j in enumerate(window):
        diag = u[2 * j + 1] + u[2 * j] - 1
        rows[a][a] = diag
        if j + 1 in pos:
            rows[pos[j + 1]][a] = CycloNum.rational(1)
        low = u[2 * j] * u[2 * j - 1]
        if j - 1 in pos:
            rows[pos[j - 1]][a] = low
        elif not low.is_zero():
            raise ArithmeticError("subdiagonal does not vanish at the window edge")
    c_delta = tuple(tuple(row) for row in rows)
    c_gamma = diagonal(c_values)
    t_gamma = diagonal(twist_values)

    # norms: base sign from the gluing pattern, then the self-adjointness ratio
    j_min = window[0]
    base = so3_structure_sign(emb, j_min, j_min, i) * quantum_int_sign(2 * j_min + 1, emb)
    if base == 0:
        raise ArithmeticError("degenerate base norm")
    norms = [CycloNum.rational(base)]
    for j in window[:-1]:
        norms.append(norms[-1] * u[2 * j + 2] * u[2 * j + 1])

    left, right = _eigenbasis(c_delta, c_values, norms)
    t_delta = mat_mul(right, scale_rows(twist_values, left))

    rep = PuncturedTorusRep(level, emb, i, window, tuple(norms),
                            c_gamma, c_delta, t_gamma, t_delta)
    _validate_rep(rep)
    return rep


def _eigenbasis(c_delta: Matrix, points, norms) -> tuple[Matrix, Matrix]:
    """(L, L^-1) for the left eigenvectors of C_delta at the distinct points.

    Row k of L is the u with u C_delta = c_k u and u_0 = 1, from the
    recurrence of punctured_torus_rep's docstring.  Its value one step past
    the end is det(c_k - C_delta), so it closes (gives 0) at every c_k
    exactly when C_delta has the n distinct eigenvalues c_k; otherwise this
    raises.  L^-1 is read off the form h = diag(norms).
    """
    n = len(c_delta)
    for a in range(n):
        for b in range(a + 1, n):
            if points[a] == points[b]:
                raise ArithmeticError("curve-operator eigenvalues collide")
    left = []
    for c in points:
        u = [CycloNum.rational(1)]
        for a in range(n):
            nxt = (c - c_delta[a][a]) * u[a]
            if a:
                nxt = nxt - c_delta[a - 1][a] * u[a - 1]
            u.append(nxt)
        if u.pop():
            raise ArithmeticError("curve operators have different spectra")
        left.append(tuple(u))
    inv_norms = [x.inverse() for x in norms]
    columns = []
    for u in left:
        v = [conjugate(x) * w for x, w in zip(u, inv_norms)]  # h^-1 u^*
        inv_s = sum((x * y for x, y in zip(u, v)), CycloNum.rational(0)).inverse()
        columns.append([x * inv_s for x in v])
    return tuple(left), tuple(zip(*columns))


def _validate_rep(rep: PuncturedTorusRep):
    """Certify the representation (see punctured_torus_rep for the relations).

    Raises ArithmeticError, or ValueError from IsometryWithForm, naming the
    first relation that fails.
    """
    form = rep.form
    prod = mat_mul(form.entries, rep.c_delta)
    if prod != conj_transpose(prod):
        raise ArithmeticError("curve operator is not self-adjoint for the form")
    IsometryWithForm(rep.t_gamma, form)
    IsometryWithForm(rep.t_delta, form)

    points = [row[a] for a, row in enumerate(rep.c_gamma)]
    twists = [row[a] for a, row in enumerate(rep.t_gamma)]
    if rep.c_gamma != diagonal(points) or rep.t_gamma != diagonal(twists):
        raise ArithmeticError("gamma operators are not diagonal")
    c_delta = rep.c_delta
    off_band = [x for a, row in enumerate(c_delta) for b, x in enumerate(row) if abs(a - b) > 1]
    if any(off_band) or any(c_delta[a + 1][a] != 1 for a in range(rep.dim - 1)):
        raise ArithmeticError("curve operator is not tridiagonal with unit subdiagonal")
    left, right = _eigenbasis(c_delta, points, rep.norms)
    if mat_mul(left, rep.t_delta) != scale_rows(twists, left):
        raise ArithmeticError("twist is not the interpolation of the curve operator")
    if mat_mul(left, right) != identity(rep.dim):
        raise ArithmeticError("eigenvector matrix is not inverted through the form")

    # triangle-group relations hold projectively
    powers = [t ** rep.level for t in twists]
    if any(p != powers[0] for p in powers):
        raise ArithmeticError("twist does not have the right projective order")
    td_tg = mat_mul(rep.t_gamma, rep.t_delta)
    cube = mat_mul(td_tg, mat_mul(td_tg, td_tg))
    if is_scalar(cube) is None:
        raise ArithmeticError("(T_gamma T_delta)^3 is not scalar")
    half = mat_mul(td_tg, rep.t_gamma)
    if is_scalar(mat_mul(half, half)) is None:
        raise ArithmeticError("(T_gamma T_delta T_gamma)^2 is not scalar")


def tau_11(level: int, emb: Embedding, i: int) -> Fraction:
    """tau_{1,1}(e_i): the triangle-group Toledo pairing of T_gamma and T_delta T_gamma.

    That is the Meyer signature of the twist pair plus G-corrections (see
    toledo_triangle_meyer).  Vanishes for i = 0 (the block is unitary
    definite there).
    """
    check_so3_level(level, emb)
    if i == 0:
        return Fraction(0)
    rep = punctured_torus_rep(level, emb, i)
    form = rep.form
    return toledo_triangle_meyer(IsometryWithForm(rep.t_gamma, form),
                                 IsometryWithForm(mat_mul(rep.t_delta, rep.t_gamma), form))


def pivot_tau04_table(level: int, emb: Embedding) -> dict[tuple[int, int], Fraction]:
    r = _rank(level)
    return {(i, j): four_point_toledo(level, emb, i, j) for i in range(r) for j in range(r)}


def tau11_table(level: int, emb: Embedding) -> list[Fraction]:
    r = _rank(level)
    return [tau_11(level, emb, i) for i in range(r)]
