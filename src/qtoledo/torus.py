"""The punctured-torus representation in exact arithmetic, built once per (level, color).

C_gamma and T_gamma are diagonal; C_delta is tridiagonal with a unit
subdiagonal, so its left eigenvector for the eigenvalue c is given by the
division-free recurrence u_0 = 1, u_{a+1} = (c - d_a) u_a - low_a u_{a-1},
and T_delta = L^-1 diag(t) L in that eigenbasis.  The certificates are:
self-adjointness of C_delta and the two twists preserving the form; equal
spectra, because the recurrence closes at each of the n distinct
eigenvalues of C_gamma; L T_delta = diag(t) L and L L^-1 = I, which with
equal t_k^level make both twists of projective order level; and the
projective relations (T_gamma T_delta)^3 and (T_gamma T_delta T_gamma)^2.

The representations at the embeddings of one level are Galois conjugates
in Q(zeta_level), so all of this is exact per (level, color) and is cached
by those two numbers (`_torus_exact`), and so is the exact part of
tau_{1,1}: the eigen-data of T_gamma, T_delta T_gamma and their product and
the Meyer kernel with its congruence pivots (`_tau11_exact`).  At an
embedding, `punctured_torus_rep` only signs the form, by the residue sign
`embedding._form_sign`; the tau_{1,1} read off the exact part there is
`qrep`'s, which imports this module only on an indefinite block of three
or more colors.

The module imports `embedding`, `cyclotomic` and `linalg`, and no
elimination: the representation needs no solve, kernel or determinant.
`_tau11_exact` imports its `hermitian` routine inside the function, so
building a representation loads no `hermitian`.
"""

from __future__ import annotations

from functools import lru_cache

from ._record import Record
from .cyclotomic import CycloNum, conjugate, quantum_int
from .embedding import Embedding, _check_color, _form_sign, _window, check_so3_level
from .linalg import (
    HermMatrix,
    IsometryWithForm,
    Matrix,
    conj_transpose,
    diagonal,
    identity,
    is_scalar,
    mat_mul,
    scale_rows,
)


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


def punctured_torus_rep(level: int, emb: Embedding, i: int) -> PuncturedTorusRep:
    """Construct the torus representation with boundary color e_i.

    The form is fixed up to scale by self-adjointness of the tridiagonal
    curve operator.  Its base sign, on the lowest gluing color 2j, is the
    SO3 structure sign embedding.so3_structure_sign(emb, j, j, i) times
    the sign of [2j+1] (embedding._form_sign); the tests check the
    resulting signature against tr_V(e_i) of the fusion algebra.

    Only that sign depends on the embedding.  Everything else, the curve
    operators, the twists and the form up to its sign, is exact in
    Q(zeta_level) and is built and certified once per (level, i)
    (_torus_exact); a global sign of the form changes none of the
    certificates.
    """
    check_so3_level(level, emb)
    _check_color(level, i)
    rep = _torus_exact(level, i)
    norms = rep.norms if _form_sign(emb, rep.window, i) > 0 else tuple(-x for x in rep.norms)
    return PuncturedTorusRep(level, emb, i, rep.window, norms,
                             rep.c_gamma, rep.c_delta, rep.t_gamma, rep.t_delta)


def _u_value(m: int, i: int, q: CycloNum, level: int) -> CycloNum:
    # u_m = [i+m+1][m-i] / ([m][m+1]); zero whenever the numerator vanishes,
    # and 1 of Q(zeta_level) with no inverse when it equals the denominator
    # (every nonzero u of color 0)
    if (m - i) % level == 0 or (i + m + 1) % level == 0:
        return CycloNum.rational(0)
    num = quantum_int(i + m + 1, q) * quantum_int(m - i, q)
    den = quantum_int(m, q) * quantum_int(m + 1, q)
    return CycloNum.zeta(level, 0) if num == den else num / den


@lru_cache(maxsize=None)
def _torus_exact(level: int, i: int) -> PuncturedTorusRep:
    """The certified torus representation with first norm 1, at the embedding with exponent 1.

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

    - C_gamma = diag(c) and T_gamma = diag(t) are diagonal, so products
      with them and with the diagonal form are row and column scalings;
    - C_delta is self-adjoint for the form, T_gamma and T_delta preserve
      it, and C_delta is tridiagonal with a unit subdiagonal;
    - C_delta and C_gamma have one spectrum: the recurrence, one step past
      the end, gives det(c_k - C_delta), and it vanishes at each of the n
      distinct c_k;
    - one product shows L T_delta = diag(t) L and another L L^-1 = I, so
      T_delta = L^-1 diag(t) L; both twists then have scalar level-th
      powers because every t_k^level is the same, checked entrywise;
    - (T_gamma T_delta)^3 and (T_gamma T_delta T_gamma)^2 are scalar.
    """
    window = _window(level, i)
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

    # norms: the self-adjointness ratio from the first norm 1
    norms = [CycloNum.rational(1)]
    for j in window[:-1]:
        norms.append(norms[-1] * u[2 * j + 2] * u[2 * j + 1])

    left, right = _eigenbasis(c_delta, c_values, norms)
    t_delta = mat_mul(right, scale_rows(twist_values, left))

    rep = PuncturedTorusRep(level, Embedding(level, 1), i, window, tuple(norms),
                            c_gamma, c_delta, t_gamma, t_delta)
    _validate_rep(rep, (left, right))
    return rep


def _eigenbasis(c_delta: Matrix, points, norms) -> tuple[Matrix, Matrix]:
    """(L, L^-1) for the left eigenvectors of C_delta at the distinct points.

    Row k of L is the u with u C_delta = c_k u and u_0 = 1, from the
    recurrence of _torus_exact's docstring.  Its value one step past
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


def _validate_rep(rep: PuncturedTorusRep, eigenbasis=None):
    """Certify the representation (see _torus_exact for the relations).

    eigenbasis is the (L, L^-1) that _eigenbasis returns for C_delta, the
    diagonal of C_gamma and the norms, if the caller has built it; building
    it runs the spectrum certificate.  Otherwise it is built here.

    Raises ArithmeticError, or ValueError from IsometryWithForm, naming the
    first relation that fails.
    """
    points = [row[a] for a, row in enumerate(rep.c_gamma)]
    twists = [row[a] for a, row in enumerate(rep.t_gamma)]
    if rep.c_gamma != diagonal(points) or rep.t_gamma != diagonal(twists):
        raise ArithmeticError("gamma operators are not diagonal")
    form = rep.form
    prod = scale_rows(rep.norms, rep.c_delta)
    if prod != conj_transpose(prod):
        raise ArithmeticError("curve operator is not self-adjoint for the form")
    IsometryWithForm(rep.t_gamma, form)
    IsometryWithForm(rep.t_delta, form)

    c_delta = rep.c_delta
    off_band = [x for a, row in enumerate(c_delta) for b, x in enumerate(row) if abs(a - b) > 1]
    if any(off_band) or any(c_delta[a + 1][a] != 1 for a in range(rep.dim - 1)):
        raise ArithmeticError("curve operator is not tridiagonal with unit subdiagonal")
    left, right = eigenbasis or _eigenbasis(c_delta, points, rep.norms)
    if mat_mul(left, rep.t_delta) != scale_rows(twists, left):
        raise ArithmeticError("twist is not the interpolation of the curve operator")
    if mat_mul(left, right) != identity(rep.dim):
        raise ArithmeticError("eigenvector matrix is not inverted through the form")

    # triangle-group relations hold projectively; T_gamma scales rows or columns
    powers = [t ** rep.level for t in twists]
    if any(p != powers[0] for p in powers):
        raise ArithmeticError("twist does not have the right projective order")
    td_tg = scale_rows(twists, rep.t_delta)
    cube = mat_mul(td_tg, mat_mul(td_tg, td_tg))
    if is_scalar(cube) is None:
        raise ArithmeticError("(T_gamma T_delta)^3 is not scalar")
    half = tuple(tuple(x * t for x, t in zip(row, twists)) for row in td_tg)
    if is_scalar(mat_mul(half, half)) is None:
        raise ArithmeticError("(T_gamma T_delta T_gamma)^2 is not scalar")


@lru_cache(maxsize=None)
def _tau11_exact(level: int, i: int):
    """The exact data of toledo_triangle_meyer(T_gamma, T_delta T_gamma) for the form with first norm 1.

    The Meyer kernel and the congruence pivots of its form, and the
    eigen-data of T_gamma, T_delta T_gamma and their product (see
    hermitian._toledo_data); the same at every embedding of the level.
    """
    from .hermitian import _toledo_data

    rep = _torus_exact(level, i)
    tg = rep.t_gamma
    return _toledo_data(tg, mat_mul(rep.t_delta, tg), rep.form.entries, level)
