"""Reference computations that the tests check the package against.

None of these is reached by a computation, CLI command or golden table of
the package; each is an independent route to a value the package computes
another way: floating-point images of cyclotomic numbers; matrix products,
matrix-vector products, linear combinations and Gram matrices with one
CycloNum or Fraction operation per scalar product (the entry loop that the
package's packed integer products replace); kernels, solutions and
determinants read off `rref` (the package eliminates rational input by
Bareiss instead); characteristic polynomials by the Faddeev-LeVerrier
recursion and signatures from them by Descartes' rule; matrix inverses by
Gauss-Jordan elimination on [A | 1]; the signature of a skew-Hermitian
product h*s/i, which gives the closed pair-of-pants form of the Meyer
cocycle (the package takes it on a kernel, with no inverse); the
per-embedding route of tau_{1,1}, which builds the torus representation at
one embedding and takes each pivot's sign, each turn and the unit i there
as it goes, with a basis of each eigenspace from the pivot columns of its
spectral projector and the Meyer form divided by i (the package shares one
exact pass among the embeddings of a level and reads only signs per
embedding, takes each eigenspace's form as h times its projector, and
divides the Meyer form by zeta - 1/zeta), with the order of a root of
unity by repeated multiplication (the package reads it off the power
table); tau_{0,4} as the Toledo invariant of the rigid 2x2 four-point
representation (the package reads it off three rotation numbers with the
triangle formula); the sine formula for Verlinde dimensions; the closed
U(1) Meyer cocycle; the level-5 recursions of the TFT values; the signature of a torus representation's
diagonal form; TFT values and degree-2 classes from `Fraction` vector
products (the package reads them off scaled integer products and per-genus
trace forms); tau_{0,4} from R_1 term by term for each quadruple (the
package contracts one bilinear form T(v1, v2) per pair); the nodal-count
polynomials of the Euler characteristics by `Fraction` polynomial sums and
products (the package sums integers over one denominator); associativity
of a fusion algebra by the O(r^5) loop over every triple (the package
checks r commutators with the tridiagonal M_1); R_1's traceless part
in floating point from the eigenbasis of the pivot multiplication (the
package solves one exact system on the symmetric matrices); and the
reduction and intersection pairing of degree-2 classes with one
hand-written branch per moduli space (the package reads one relation table
per space in one loop).
"""

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import mpmath

from qtoledo.cyclotomic import CycloNum, Embedding, conjugate, sign_real
from qtoledo.elimination import rref
from qtoledo.embedding import quantum_int_sign, so3_structure_sign
from qtoledo.eulerchi import harer_zagier
from qtoledo.fusion import apply_scaled, scaled_matrix, so3_algebra, unitary_partner
from qtoledo.hermitian import (
    SCALAR_POWER_FACTOR,
    Signature,
    _field_order,
    _least_scalar_power,
    _read_eigen,
    _read_toledo,
    _toledo_data,
    _trace_multiplicities,
    angle_defect,
    signature,
)
from qtoledo.linalg import (
    HermMatrix,
    IsometryWithForm,
    _conj,
    _zero_one,
    diagonal,
    diagonal_entries,
    mat_add,
    mat_scale,
)
from qtoledo.mgnclasses import (
    DELTA_IRR,
    DELTA_SEP,
    KAPPA1T,
    LAMBDA1,
    POINT,
    PSI,
    PSI_TOTAL,
    H2Class,
    canonical_separating_label,
    separating_labels,
)
from qtoledo.torus import PuncturedTorusRep, _eigenbasis, _u_value, _validate_rep


def embed_complex(a: CycloNum, emb: Embedding) -> complex:
    """Floating-point image of a under the embedding."""
    if emb.order != a.order:
        lcm = math.lcm(a.order, emb.order)
        a = a.lift(lcm)
        emb = emb.extend(lcm)
    k = emb.exponent if emb.order > 1 else 0
    z = complex(math.cos(2 * math.pi * k / a.order), math.sin(2 * math.pi * k / a.order)) if a.order > 1 else 1.0
    total, power, den = 0j, 1 + 0j, a.den
    for c in a.nums:
        total += (c / den) * power
        power *= z
    return total


# -- the entry loop: one field operation per scalar product --------------------------


def _dot(u, v, zero):
    s = zero
    for x, y in zip(u, v):
        if x and y:
            s = s + x * y
    return s


def mat_mul(a, b):
    zero, _ = _zero_one((*a, *b))
    bt = tuple(zip(*b))
    return tuple(tuple(_dot(row, col, zero) for col in bt) for row in a)


def mat_vec(a, v) -> tuple:
    zero, _ = _zero_one((*a, v))
    return tuple(_dot(row, v, zero) for row in a)


def lin_comb(coeffs, mats):
    """The sum of c * m over paired coefficients and matrices (at least one matrix)."""
    zero, _ = _zero_one((coeffs, *mats[0]))
    out = tuple(tuple(zero for _ in row) for row in mats[0])
    for c, m in zip(coeffs, mats):
        if c:
            out = mat_add(out, mat_scale(m, c))
    return out


def gram(h, vs, ws):
    """V^* h W for the matrices V and W whose columns are the vectors vs and ws."""
    v_star = tuple(tuple(_conj(x) for x in v) for v in vs)
    return mat_mul(v_star, mat_mul(h, tuple(zip(*ws))))


# -- kernels, solutions and determinants read off rref ---------------------------------


def rref_kernel_basis(a) -> list[tuple]:
    """Right-kernel basis, one vector per free column of the RREF."""
    rows, pivots, _ = rref(a)
    zero, one = _zero_one(a)
    n_cols = len(a[0]) if a else 0
    basis = []
    for fc in range(n_cols):
        if fc in pivots:
            continue
        vec = [zero] * n_cols
        vec[fc] = one
        for i, pc in enumerate(pivots):
            vec[pc] = -rows[i][fc]
        basis.append(tuple(vec))
    return basis


def rref_solve(a, b) -> list:
    """The unique x with a x = b; the same ArithmeticError messages as the package."""
    n = len(a[0])
    rows, pivots, _ = rref([list(row) + [bi] for row, bi in zip(a, b)])
    if pivots[:n] != list(range(n)):
        raise ArithmeticError("underdetermined system")
    if len(pivots) > n:
        raise ArithmeticError("inconsistent system")
    return [row[n] for row in rows[:n]]


def rref_determinant(a):
    """det(a) as the signed product of the pivots."""
    rows, pivots, scale = rref(a)
    if len(pivots) < len(a):
        return rows[-1][-1]  # the last row of a singular matrix reduces to zero
    return scale


# -- characteristic polynomials and signatures from them ---------------------------


def mat_trace(a):
    zero, _ = _zero_one(a)
    return sum((row[i] for i, row in enumerate(a)), zero)


def charpoly(a) -> list:
    """Coefficients [c0, ..., cn] of det(xI - A), via Faddeev-LeVerrier."""
    n = len(a)
    zero, one = _zero_one(a)
    coeffs = [zero] * n + [one]
    am = a  # A M_k, starting from M_1 = I
    for k in range(1, n + 1):
        c = mat_trace(am) * Fraction(-1, k)
        coeffs[n - k] = c
        if k < n:
            am = mat_mul(a, mat_add(am, diagonal((c,) * n)))
    return coeffs


def _descartes_positive_roots(signs: list[int]) -> int:
    # number of positive roots of a real-rooted polynomial = sign variations
    nonzero = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nonzero, nonzero[1:]) if a * b < 0)


def descartes_signature(h: HermMatrix) -> Signature:
    """The signature from the characteristic polynomial.

    All roots are real, so Descartes' rule counts positive and negative
    eigenvalues exactly; the zero count is the x-adic valuation.
    """
    coeffs = charpoly(h.entries)
    if not all(c.is_conjugation_fixed() for c in coeffs):
        raise ArithmeticError("characteristic polynomial not real")
    zero = 0
    while zero < len(coeffs) - 1 and coeffs[zero].is_zero():
        zero += 1
    signs = [sign_real(c, h.embedding) for c in coeffs[zero:]]
    pos = _descartes_positive_roots(signs)
    neg = _descartes_positive_roots([s if (i % 2 == 0) else -s for i, s in enumerate(signs)])
    return Signature(pos, neg, zero)


# -- eigenspace bases and the unit i ----------------------------------------------


def _eigenspace_basis(proj, mult: int) -> list[tuple]:
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


def _i_unit(order: int, exponent: int) -> CycloNum:
    """The fourth root of unity that zeta -> exp(2 pi i exponent / order) sends to +i."""
    if order % 4:
        raise ValueError("order must be divisible by 4")
    return CycloNum.zeta(order, (order // 4) * (1 if exponent % 4 == 1 else 3))


# -- inverses and the closed Meyer form ---------------------------------------------


def mat_inv(a):
    """Gauss-Jordan inverse; raises ZeroDivisionError on singular input."""
    n = len(a)
    zero, one = _zero_one(a)
    rows, pivots, _ = rref([list(row) + [one if i == j else zero for j in range(n)]
                            for i, row in enumerate(a)])
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return tuple(tuple(row[n:]) for row in rows)


def skew_form_signature(h, s, emb: Embedding) -> int:
    """Signature of the Hermitian matrix h*s/i (h*s must be skew-Hermitian).

    With C = (AB)^-1 and 1-A invertible, s = (1-B^-1)(1-A)^-1(1-C^-1) gives
    the Meyer cocycle mu(A, B) in closed form.
    """
    order = math.lcm(emb.order, 4, _field_order(s, h))
    big = emb.extend(order)
    w = mat_scale(mat_mul(h, s), _i_unit(order, big.exponent).inverse())
    return signature(HermMatrix(w, big)).index


# -- closed formulas ----------------------------------------------------------------


def verlinde_dimension(level: int, genus: int) -> Fraction:
    """Dimension of the level-l SO3 theory in genus g, with a sine-formula check."""
    if level < 5 or level % 2 == 0:
        raise ValueError("the closed sine formula is stated for odd level >= 5")
    algebra = so3_algebra(level, Embedding(level, (level - 1) // 2))
    value = algebra.tft_value(genus, [])
    closed = (level / 4.0) ** (genus - 1) * sum(
        math.sin(2 * m * math.pi / level) ** (2 - 2 * genus) for m in range(1, (level - 1) // 2 + 1)
    )
    if abs(float(value) - closed) > 1e-9 * max(1.0, abs(closed)):
        raise ArithmeticError(f"trace and sine formulas disagree: {float(value)} vs {closed}")
    return value


def meyer_u1_sign(alpha_turn: Fraction, beta_turn: Fraction) -> int:
    """Closed U(1) formula sign(sin((a+b)/2) sin(a/2) sin(b/2)), angles in turns."""
    def s(t: Fraction) -> int:
        # sign of sin(pi*t), period 2 in t
        r = t % 2
        if r == 0 or r == 1:
            return 0
        return 1 if r < 1 else -1

    return s(alpha_turn + beta_turn) * s(alpha_turn) * s(beta_turn)


def level5_sigma_recursion_checks(g_max: int = 4, n_max: int = 6) -> dict:
    """The d and sigma recursions behind the presentation coefficients."""
    emb = Embedding(5, 1)
    v = so3_algebra(5, emb)
    u = unitary_partner(v)
    failures = []
    for g in range(1, g_max + 1):
        for n in range(n_max + 1):
            t = [1] * n
            if v.tft_value(g, t + [1]) != v.tft_value(g, t) - 3 * v.tft_value(g - 1, t):
                failures.append(("sigma", g, n))
            d_irr = u.tft_value(g - 1, t + [1, 1])
            if d_irr + u.tft_value(g - 1, t) != u.tft_value(g, t):
                failures.append(("d", g, n))
    return {"failures": failures, "passed": not failures}


def form_signature(rep) -> tuple[int, int]:
    """(p, q) of the diagonal form of a PuncturedTorusRep, one sign per norm."""
    signs = [sign_real(x, rep.embedding) for x in rep.norms]
    return signs.count(1), signs.count(-1)


# -- the per-embedding route of tau_{1,1} ---------------------------------------------


def root_order_by_powers(c: CycloNum, bound: int):
    """The least k <= bound with c^k = 1, by repeated multiplication, else None."""
    acc = c
    for k in range(1, bound + 1):
        if acc == 1:
            return k
        acc = acc * c
    return None


def embedding_signature(h: HermMatrix) -> Signature:
    """Hermitian congruence taking the certified sign of each pivot as it is found."""
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
            for row in rows:
                row[k] = row[k] + _conj(c) * row[b]
        pivot = rows.pop(k)
        p = pivot.pop(k)
        signs.append(sign_real(p, h.embedding))
        p_inv = p.inverse()
        for row in rows:
            f = row.pop(k) * p_inv
            row[:] = [x - f * y for x, y in zip(row, pivot)]
    return Signature(signs.count(1), signs.count(-1), len(rows))


def embedding_eigen_split(u: IsometryWithForm):
    """eigen_split with the turns and signatures taken at u's embedding as each eigenspace is found."""
    n = u.dim
    base_order = _field_order(u.matrix)
    diag = diagonal_entries(u.matrix)
    m, scalar, powers = _least_scalar_power(u.matrix, diag,
                                            SCALAR_POWER_FACTOR * base_order * base_order)
    c_order = root_order_by_powers(scalar, 2 * base_order * m)
    if c_order is None:
        raise ArithmeticError("scalar power is not a root of unity")
    full_order = m * c_order
    field_order = math.lcm(base_order, full_order, u.embedding.order)
    emb = u.embedding.extend(field_order)
    h = u.form.entries
    scalar = scalar.lift(field_order)
    step = field_order // full_order
    out, total = [], 0
    for j in range(full_order):
        lam = CycloNum.zeta(field_order, j * step)
        if lam ** m != scalar:
            continue
        if diag is not None:
            index = [a for a, x in enumerate(diag) if x.lift(field_order) == lam]
            restricted = tuple(tuple(h[a][b] for b in index) for a in index)
        else:
            coeffs = [CycloNum.zeta(field_order, -j * step * k) for k in range(m)]
            mult = _trace_multiplicities(powers, [coeffs], m)[0]
            if not mult:
                continue
            basis = _eigenspace_basis(lin_comb(coeffs, powers), mult)
            restricted = gram(h, basis, basis)
        if not restricted:
            continue
        sig = embedding_signature(HermMatrix(restricted, emb))
        if sig.zero:
            raise ArithmeticError("degenerate form on an eigenspace")
        out.append((lam, Fraction((j * emb.exponent) % full_order, full_order), sig))
        total += len(restricted)
    if total != n:
        raise ArithmeticError("isometry is not diagonalizable over the cyclotomic closure")
    return out


def embedding_meyer_cocycle(a: IsometryWithForm, b: IsometryWithForm) -> int:
    """meyer_cocycle with the form divided by the unit that is +i at a's embedding."""
    h = a.form.entries
    n = len(h)
    one = diagonal([CycloNum.rational(1)] * n)
    ab = mat_mul(a.matrix, b.matrix)
    left = mat_add(one, mat_scale(a.matrix, -1))
    right = mat_add(ab, mat_scale(a.matrix, -1))
    kernel = rref_kernel_basis(tuple(l + r for l, r in zip(left, right)))
    order = math.lcm(4, a.embedding.order, _field_order(h, kernel))
    big = a.embedding.extend(order)
    one_minus_b = mat_add(one, mat_scale(b.matrix, -1))
    ws = [mat_vec(one_minus_b, k[n:]) for k in kernel]
    sums = [tuple(x + y for x, y in zip(k[:n], k[n:])) for k in kernel]
    form = mat_scale(gram(h, ws, sums), _i_unit(order, big.exponent).inverse())
    return embedding_signature(HermMatrix(form, big)).index


def embedding_g_function(u: IsometryWithForm) -> Fraction:
    return sum(((sig.positive - sig.negative) * angle_defect(turn)
                for _, turn, sig in embedding_eigen_split(u)), Fraction(0))


def embedding_torus_rep(level: int, emb: Embedding, i: int):
    """The punctured-torus representation with its form's sign taken at the embedding.

    Curve operators, twists and norms are built as in the package, but
    from the first norm's sign at emb, and certified at emb.
    """
    r = (level - 1) // 2
    window = tuple(j for j in range(r) if i <= 2 * j < 2 * r - i)
    q = CycloNum.zeta(level)
    n = len(window)
    u = {m: _u_value(m, i, q, level) for m in range(2 * window[0] - 1, 2 * window[-1] + 2)}
    c_values = [q ** (4 * j + 2) + 1 + q ** (-(4 * j + 2)) for j in window]
    twists = [q ** (-2 * j * (j + 1)) for j in window]
    rows = [[CycloNum.rational(0)] * n for _ in range(n)]
    for a, j in enumerate(window):
        rows[a][a] = u[2 * j + 1] + u[2 * j] - 1
        if a + 1 < n:
            rows[a + 1][a] = CycloNum.rational(1)
        if a:
            rows[a - 1][a] = u[2 * j] * u[2 * j - 1]
    c_delta = tuple(tuple(row) for row in rows)
    j_min = window[0]
    base = so3_structure_sign(emb, j_min, j_min, i) * quantum_int_sign(2 * j_min + 1, emb)
    norms = [CycloNum.rational(base)]
    for j in window[:-1]:
        norms.append(norms[-1] * u[2 * j + 2] * u[2 * j + 1])
    left, right = _eigenbasis(c_delta, c_values, norms)
    t_delta = mat_mul(right, mat_mul(diagonal(twists), left))
    rep = PuncturedTorusRep(level, emb, i, window, tuple(norms), diagonal(c_values), c_delta,
                            diagonal(twists), t_delta)
    _validate_rep(rep)
    return rep


def embedding_tau11_table(level: int, emb: Embedding) -> list:
    """tau_{1,1}(e_i) for every color, each built and evaluated at the embedding alone."""
    out = [Fraction(0)]
    for i in range(1, (level - 1) // 2):
        rep = embedding_torus_rep(level, emb, i)
        a = IsometryWithForm(rep.t_gamma, rep.form)
        b = IsometryWithForm(mat_mul(rep.t_delta, rep.t_gamma), rep.form)
        ab = IsometryWithForm(mat_mul(a.matrix, b.matrix), rep.form)
        mu = embedding_meyer_cocycle(a, b)
        g = embedding_g_function(a) + embedding_g_function(b) - embedding_g_function(ab)
        out.append(Fraction(mu - g, 2))
    return out


# -- tau_{0,4} from the rigid four-point representation ----------------------------------


@lru_cache(maxsize=None)
def rigid_four_point_rep(level: int, i: int):
    """The 2x2 four-point representation of (w, w, e_i, e_i), for 1 <= i < r, at q = zeta_level.

    With the twist mu_c = q^(c(c+2)/2) of the even color c, and w the color
    2r - 2: in the basis of the channels (w,w)|(e_i,e_i) the twist of the
    curve f between the pairs is A = diag(mu_0, mu_2).  The curves g and h
    that pair w with e_i both have the channels g0 = 2r-2-2i and g1 = 2r-2i,
    and the lantern relation T_f T_g T_h = s, with s = mu_w^2 mu_2i^2 the
    product of the boundary twists, gives tr(A T_g) = s tr(T_h^-1).  So
    B = T_g = [[a, 1], [beta, d]] with a + d = mu_g0 + mu_g1,
    mu_0 a + mu_2 d = s (1/mu_g0 + 1/mu_g1) and beta = a d - mu_g0 mu_g1.
    A 2x2 triple with scalar product and known eigenvalues is rigid (Katz,
    Rigid Local Systems, Ann. Math. Studies 139, 1996), so this is the
    representation up to conjugacy.  Its form, up to a global sign, is
    H = diag(1, -1/(det B conj(beta))).

    Certified here: det A det B = s^2 / (mu_g0 mu_g1), beta != 0, and B
    preserves H.  Returns (mu_g0, mu_g1, H_22 and the exact data of
    toledo_triangle_meyer(A, B) for H), none of which depends on the
    embedding.
    """
    r = (level - 1) // 2
    q = CycloNum.zeta(level)

    def mu(c):
        return q ** (c * (c + 2) // 2)

    mu_g0, mu_g1 = mu(2 * r - 2 - 2 * i), mu(2 * r - 2 * i)
    s = mu(2 * r - 2) ** 2 * mu(2 * i) ** 2
    d = (s * (mu_g0.inverse() + mu_g1.inverse()) - mu(0) * (mu_g0 + mu_g1)) / (mu(2) - mu(0))
    a = mu_g0 + mu_g1 - d
    beta = a * d - mu_g0 * mu_g1
    assert beta, (level, i)
    det_b = a * d - beta
    assert mu(0) * mu(2) * det_b == s * s / (mu_g0 * mu_g1), (level, i)
    t_f = diagonal([mu(0), mu(2)])
    t_g = ((a, CycloNum.rational(1)), (beta, d))
    h22 = -(det_b * conjugate(beta)).inverse()
    form = HermMatrix(diagonal([CycloNum.rational(1), h22]), Embedding(level, 1))
    IsometryWithForm(t_g, form)
    return mu_g0, mu_g1, h22, _toledo_data(t_f, t_g, form.entries, level)


def rigid_four_point_toledo(level: int, emb: Embedding, i: int) -> Fraction:
    """tau_{0,4}(w, w, e_i, e_i) as the Toledo invariant of rigid_four_point_rep, certified.

    The form is eps H, with eps the sign of the f-channel-0 norm -[2][2i+1]
    at the embedding, and tau is toledo_triangle_meyer(A, B) for it: eps
    times its value for H, because negating the form negates the Meyer
    cocycle and every eigenspace signature.  Certified at the embedding:
    eps H_22 has the sign of the f-channel-2 norm -[2i+2][2i+1]/([2i][2][3]^2);
    the mu_g0 and mu_g1 eigenspaces of B have the signs of -[2i+2] and
    -[2i]; |tau| < 1 and level tau is an integer.  Zero for i = 0, where
    the block is one-dimensional.
    """
    if i == 0:
        return Fraction(0)
    mu_g0, mu_g1, h22, data = rigid_four_point_rep(level, i)

    def sign(n):
        return quantum_int_sign(n, emb)

    eps = -sign(2) * sign(2 * i + 1)
    assert eps * sign_real(h22, emb) == -sign(2 * i + 2) * sign(2 * i + 1) * sign(2 * i) * sign(2)
    signs = [(lam == mu_g0, lam == mu_g1, eps * (sig.positive - sig.negative))
             for lam, _turn, sig in _read_eigen(data[2], emb)]
    assert sorted(signs) == [(False, True, -sign(2 * i)), (True, False, -sign(2 * i + 2))], \
        (level, emb, i)
    tau = eps * _read_toledo(data, emb)
    assert abs(tau) < 1 and (tau * level).denominator == 1, (level, emb, i, tau)
    return tau


# -- associativity and R_1 in closed form ------------------------------------------------


def associativity_defect(eps, omega03):
    """The first (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k), else None: the O(r^5) loop.

    The structure constants are e_i e_j = sum_k omega03[i][j][k] eps_k e_k.
    """
    r = len(eps)
    c = [[[omega03[i][j][k] * eps[k] for k in range(r)] for j in range(r)] for i in range(r)]
    for i, j, k in itertools.product(range(r), repeat=3):
        for l in range(r):
            if sum(c[i][j][m] * c[m][k][l] for m in range(r)) != \
               sum(c[j][k][m] * c[i][m][l] for m in range(r)):
                return i, j, k
    return None


def _mpf(x):
    x = Fraction(x)
    return mpmath.mpf(x.numerator) / x.denominator


def r1_perp_closed_form(v, tau04: dict):
    """R_1's traceless part in floating point, from M_w's eigenbasis (mpmath, 40 digits).

    With M_w = P diag(lambda) P^-1 of simple spectrum, every M_v is diagonal
    in that basis, so a traceless part X has zero diagonal there, and
    [[X, M_w], M_w] has the entries X_ab (lambda_a - lambda_b)^2 off it,
    while the correction M_(D(X) e_0) is diagonal.  So X_ab = A_ab /
    (lambda_a - lambda_b)^2 for the tau_{0,4} target A in that basis.
    """
    r = v.rank
    with mpmath.workdps(40):
        lam, p = mpmath.eig(mpmath.matrix([[_mpf(x) for x in row] for row in v.mult_matrix(r - 1)]))
        target = mpmath.matrix([[_mpf(tau04.get((j, i), 0)) * v.eps[i] for j in range(r)]
                                for i in range(r)])
        a = mpmath.inverse(p) * target * p
        x = mpmath.matrix(r, r)
        for i, j in itertools.permutations(range(r), 2):
            x[i, j] = a[i, j] / (lam[i] - lam[j]) ** 2
        return p * x * mpmath.inverse(p)


# -- degree-2 classes and Euler characteristics on Fractions --------------------------


def tau_from_r1_04(v, r1, v1, v2, v3, v4) -> Fraction:
    """The degree-2 four-point invariant, term by term, one quadruple per call."""
    m = scaled_matrix(r1.matrix if hasattr(r1, "matrix") else r1)
    mul, eta = v.multiply_scaled, v.eta_scaled
    x = [v.scaled(c) for c in (v1, v2, v3, v4)]
    pair = {(a, b): mul(x[a], x[b]) for a, b in itertools.combinations(range(4), 2)}
    # the product of the three colors other than the i-th, for i = 0, 1, 2, 3
    rest = (mul(pair[1, 2], x[3]), mul(pair[0, 2], x[3]), mul(pair[0, 1], x[3]), mul(pair[0, 1], x[2]))
    total = sum(eta(apply_scaled(m, x[i]), rest[i]) for i in range(4))
    total -= eta(mul(pair[0, 1], pair[2, 3]), apply_scaled(m, v.scaled(0)))
    for ab, cd in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))):
        total -= eta(apply_scaled(m, pair[ab]), pair[cd])
    return total


def tft_value(v, genus: int, colors) -> Fraction:
    """tr(v_1 ... v_n alpha^{1-g}) from Fraction vector products."""
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    prod = v.basis(0)
    for c in colors:
        prod = v.multiply(prod, c)
    if genus == 0:
        prod = v.multiply(prod, v.alpha)
    for _ in range(genus - 1):
        prod = v.multiply(prod, v.omega_element)
    return v.trace(prod)


def degree2_class(r1, g: int, n: int, colors) -> H2Class:
    """The Toledo class tau_{g,n}(colors), one Fraction TFT value per term of the gluing formula."""
    v = r1.algebra
    if 2 * g - 2 + n <= 0:
        raise ValueError("unstable moduli space")
    colors = [v.as_vector(c) for c in colors]
    if len(colors) != n:
        raise ValueError("need one color per marked point")
    coeffs: dict = {}
    kappa_term = tft_value(v, g, colors + [mat_vec(r1.matrix, v.basis(0))])
    coeffs[(KAPPA1T,)] = -kappa_term
    for i in range(n):
        replaced = colors[:i] + [mat_vec(r1.matrix, colors[i])] + colors[i + 1:]
        coeffs[(PSI, i + 1)] = tft_value(v, g, replaced) - kappa_term
    r = v.rank
    # R eta^{-1} as a symmetric 2-tensor
    rt = [[r1.matrix[i][j] * v.eps[j] for j in range(r)] for i in range(r)]
    if g >= 1:
        total = Fraction(0)
        for mu in range(r):
            for nu in range(r):
                if rt[mu][nu]:
                    total += rt[mu][nu] * tft_value(v, g - 1, colors + [mu, nu])
        coeffs[(DELTA_IRR,)] = -total
    for label in separating_labels(g, n):
        _tag, g1, subset = label
        rest = tuple(p for p in range(1, n + 1) if p not in subset)
        total = Fraction(0)
        for mu in range(r):
            left = tft_value(v, g1, [colors[p - 1] for p in subset] + [mu])
            for nu in range(r):
                if rt[mu][nu] and left:
                    right = tft_value(v, g - g1, [colors[p - 1] for p in rest] + [nu])
                    total += rt[mu][nu] * left * right
        coeffs[label] = -total
    return H2Class(g, n, coeffs)


def _poly_add(a: list, b: list) -> list:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    return out


def _poly_mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


@lru_cache(maxsize=None)
def chi_bar_coeffs(g: int, n: int) -> tuple:
    """chi_bar(g, n), low degree first, by the boundary recursion on Fraction polynomials."""
    integrand = [Fraction(0)]
    if g >= 1:
        integrand = _poly_add(integrand, list(chi_bar_coeffs(g - 1, n + 2)))
    for g1 in range(g + 1):
        for n1 in range(n + 1):
            g2, n2 = g - g1, n - n1
            if 2 * g1 - 2 + n1 + 1 <= 0 or 2 * g2 - 2 + n2 + 1 <= 0:
                continue
            prod = _poly_mul(list(chi_bar_coeffs(g1, n1 + 1)), list(chi_bar_coeffs(g2, n2 + 1)))
            integrand = _poly_add(integrand, [math.comb(n, n1) * c for c in prod])
    return (harer_zagier(g, n),) + tuple(Fraction(c, 2 * (k + 1)) for k, c in enumerate(integrand))


# -- H^2(M_{g,n}) relations, one hand-written branch per space ---------------------------


def _symmetric_coefficient(cls: H2Class, labels: list, what: str) -> Fraction:
    vals = {cls.coeffs.get(label, Fraction(0)) for label in labels}
    if len(vals) > 1:
        raise ValueError(f"reduction needs symmetric {what} coefficients")
    return vals.pop() if vals else Fraction(0)


def reduce_class(cls: H2Class) -> H2Class:
    """Reduced coordinates on the six supported (g, n), each space's relations written out.

    `point` is read on (0,4) only; elsewhere this reference drops it.
    """
    g, n = cls.g, cls.n
    if (g, n) not in {(0, 4), (0, 5), (1, 1), (1, 2), (1, 3), (2, 1)}:
        raise ValueError(f"no relation table for moduli ({g},{n})")
    c = cls.in_kappa_tilde_basis()
    kt = c.coefficient(KAPPA1T)
    lt = c.coefficient(LAMBDA1)
    pt = c.coefficient(PSI_TOTAL)

    if (g, n) == (0, 4):
        # every psi_i, kappa_1 and boundary class integrates to one;
        # kappa_tilde to 1 - 4 = -3 and lambda_1 to zero
        total = c.coefficient(POINT) + kt * (-3)
        for label, v in c.coeffs.items():
            if label[0] in (PSI, DELTA_SEP):
                total += v
        total += 4 * pt
        return H2Class(0, 4, {(POINT,): total})

    if (g, n) == (1, 1):
        # kappa_1 = psi, so kappa_tilde = 0; delta_irr = 12 psi; lambda_1 = psi
        val = (c.coefficient(PSI, 1) + pt
               + c.coefficient(DELTA_IRR) * 12
               + lt)
        return H2Class(1, 1, {(PSI, 1): val})

    if (g, n) == (0, 5):
        # kappa_1 = delta/2 and delta = (2/3) psi, hence kappa_tilde = -(2/3) psi,
        # each boundary divisor is psi/15, and lambda_1 = (kappa_tilde + delta)/12 = 0
        p = _symmetric_coefficient(c, [(PSI, i) for i in range(1, 6)], "psi")
        d = _symmetric_coefficient(c, separating_labels(0, 5), "boundary")
        total = p + pt + kt * Fraction(-2, 3) + 10 * d * Fraction(1, 15)
        return H2Class(0, 5, {(PSI_TOTAL,): total})

    if (g, n) == (1, 2):
        tail = canonical_separating_label(1, 2, 1, ())
        out = {(DELTA_IRR,): c.coefficient(DELTA_IRR), tail: c.coeffs.get(tail, Fraction(0))}
        for i in (1, 2):
            p = c.coefficient(PSI, i)  # psi_i = delta_irr/12 + delta_{1,0}
            out[(DELTA_IRR,)] += p * Fraction(1, 12)
            out[tail] += p
        out[(DELTA_IRR,)] += pt * Fraction(1, 12)
        out[tail] += pt
        out[tail] += -kt  # kappa_tilde = -delta_{1,0}
        out[(DELTA_IRR,)] += lt * Fraction(1, 12)  # lambda_1 = delta_irr/12
        return H2Class(1, 2, out)

    if (g, n) == (1, 3):
        tail = canonical_separating_label(1, 3, 1, ())
        one_point = [canonical_separating_label(1, 3, 1, (i,)) for i in (1, 2, 3)]
        two_point = [canonical_separating_label(1, 3, 0, pair)
                     for pair in ((1, 2), (1, 3), (2, 3))]
        p = _symmetric_coefficient(c, [(PSI, i) for i in (1, 2, 3)], "psi")
        d1 = _symmetric_coefficient(c, one_point, "delta_{1,{i}}")
        d0 = _symmetric_coefficient(c, two_point, "delta_{0,{i,j}}")
        psi_content = p + pt  # multiple of the psi sum carried by the class
        out = {(DELTA_IRR,): c.coefficient(DELTA_IRR), tail: c.coeffs.get(tail, Fraction(0))}
        for lab in one_point:
            out[lab] = d1
        for lab in two_point:
            out[lab] = d0
        # sum(psi) = delta_irr/4 + 3 delta_{1,0} + 2 sum(delta_{1,{i}})
        out[(DELTA_IRR,)] += psi_content * Fraction(1, 4)
        out[tail] += psi_content * 3
        for lab in one_point:
            out[lab] += psi_content * 2
        # kappa_tilde = -delta_{1,0} - sum(delta_{1,{i}})
        out[tail] += -kt
        for lab in one_point:
            out[lab] += -kt
        # lambda_1 = (kappa_tilde + delta)/12 = (delta_irr + sum(delta_0))/12
        out[(DELTA_IRR,)] += lt * Fraction(1, 12)
        for lab in two_point:
            out[lab] += lt * Fraction(1, 12)
        return H2Class(1, 3, out)

    # (2, 1): kappa_tilde = delta_irr/5 + (7/5) delta_{1,0}
    tail = canonical_separating_label(2, 1, 1, ())
    out = {
        (PSI, 1): c.coefficient(PSI, 1) + pt,
        (DELTA_IRR,): c.coefficient(DELTA_IRR) + kt * Fraction(1, 5) + lt * Fraction(1, 10),
        tail: c.coeffs.get(tail, Fraction(0)) + kt * Fraction(7, 5) + lt * Fraction(1, 5),
    }
    return H2Class(2, 1, out)


def intersect(c1: H2Class, c2: H2Class) -> Fraction:
    """Intersection number on (0,5) and (1,2), each pairing written out."""
    c1._same_space(c2)
    g, n = c1.g, c1.n
    if (g, n) == (0, 5):
        a = reduce_class(c1).coefficient(PSI_TOTAL)
        b = reduce_class(c2).coefficient(PSI_TOTAL)
        return a * b * 45  # psi_i . psi_j = 2 - delta_ij off 1 on: 5 + 2*20
    if (g, n) == (1, 2):
        r1, r2 = reduce_class(c1), reduce_class(c2)
        tail = canonical_separating_label(1, 2, 1, ())
        pairing = {
            ((DELTA_IRR,), (DELTA_IRR,)): Fraction(0),
            ((DELTA_IRR,), tail): Fraction(1, 2),
            (tail, (DELTA_IRR,)): Fraction(1, 2),
            (tail, tail): Fraction(-1, 24),
        }
        total = Fraction(0)
        for ka, va in r1.coeffs.items():
            for kb, vb in r2.coeffs.items():
                total += va * vb * pairing[(ka, kb)]
        return total
    raise ValueError(f"no intersection table for moduli ({g},{n})")
