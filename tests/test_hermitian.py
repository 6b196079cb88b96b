import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import oracles
from oracles import (
    _i_unit,
    charpoly,
    descartes_signature,
    embed_complex,
    mat_inv,
    meyer_u1_sign,
    root_order_by_powers,
    skew_form_signature,
)

from qtoledo import hermitian
from qtoledo.cyclotomic import (
    CycloNum,
    Embedding,
    conjugate,
    euler_phi,
    quantum_int,
    sign_real,
    sin_turn_sign,
)
from qtoledo.hermitian import (
    Signature,
    eigen_split,
    g_function,
    meyer_cocycle,
    signature,
    toledo_triangle_meyer,
    toledo_triangle_pu11,
)
from qtoledo.linalg import (
    HermMatrix,
    IsometryWithForm,
    as_matrix,
    conj_transpose,
    gram,
    identity,
    mat_mul,
    mat_scale,
    mat_sub,
)

EMB5 = Embedding(5, 1)
Q5 = CycloNum.zeta(5)


def diag(*values):
    vals = [v if isinstance(v, CycloNum) else CycloNum.rational(v) for v in values]
    zero = CycloNum.rational(0)
    return tuple(tuple(vals[i] if i == j else zero for j in range(len(vals))) for i in range(len(vals)))


def test_signature_identity():
    h = HermMatrix(identity(3), Embedding(1, 0))
    assert tuple(signature(h)) == (3, 0, 0)
    assert signature(h) == Signature(3, 0, 0) != (3, 0, 0)
    assert repr(Signature(1, 0, 0)) == "Signature(positive=1, negative=0, zero=0)"


def test_signature_quantum_diagonal():
    # [3] < 0 under q -> exp(2 pi i/5), so diag(1, -[3]) is positive definite
    h = HermMatrix(diag(1, -quantum_int(3, Q5)), EMB5)
    assert tuple(signature(h)) == (2, 0, 0)


def test_signature_zero_block():
    h = HermMatrix(diag(2, 0, -1, 0), Embedding(1, 0))
    assert tuple(signature(h)) == (1, 1, 2)
    # zero diagonals: the pair step must add h_ab (not its conjugate) times
    # row b to row a, or h_01 = zeta_8 would leave 0 on the diagonal
    z8 = CycloNum.zeta(8)
    h = HermMatrix(as_matrix([[0, z8], [z8.inverse(), 0]]), Embedding(8, 1))
    assert tuple(signature(h)) == (1, 1, 0)
    # rank 2, the last two rows proportional: eigenvalues +-sqrt(|a|^2 + |b|^2) and 0
    a, b = Q5, 1 + Q5 ** 2
    zero = CycloNum.rational(0)
    h = HermMatrix(((zero, a, b), (conjugate(a), zero, zero), (conjugate(b), zero, zero)), EMB5)
    assert tuple(signature(h)) == (1, 1, 1)


@st.composite
def _hermitian_zero_diagonal_or_singular(draw):
    """A HermMatrix over Q(zeta_N), N in {5, 7, 8, 12}, often with a zero diagonal or singular."""
    order = draw(st.sampled_from((5, 7, 8, 12)))
    phi = euler_phi(order)
    n = draw(st.integers(1, 5))

    def entry():
        coeffs = [0] * phi
        for j in draw(st.lists(st.integers(0, phi - 1), max_size=2)):
            coeffs[j] = draw(st.integers(-3, 3))
        return CycloNum(order, coeffs)

    m = [[CycloNum.rational(0)] * n for _ in range(n)]
    zero_diagonal = draw(st.booleans())
    for i in range(n):
        if not zero_diagonal:
            x = entry()
            m[i][i] = x + conjugate(x)
        for j in range(i + 1, n):
            m[i][j] = entry()
            m[j][i] = conjugate(m[i][j])
    if n > 2 and draw(st.booleans()):
        # C^* m C for C the identity with column k replaced by c e_a + e_b: singular
        k, a, b = (draw(st.integers(0, n - 1)) for _ in range(3))
        if k != a and k != b:
            c = entry()
            cols = [[CycloNum.rational(int(i == j)) for i in range(n)] for j in range(n)]
            cols[k] = [c * x + y for x, y in zip(cols[a], cols[b])]
            m = gram(as_matrix(m), cols, cols)
    k = draw(st.sampled_from([k for k in range(1, order) if math.gcd(k, order) == 1]))
    return HermMatrix(m, Embedding(order, k))


@settings(max_examples=80, deadline=None)
@given(_hermitian_zero_diagonal_or_singular())
def test_signature_matches_the_descartes_oracle(h):
    assert signature(h) == descartes_signature(h)


def _random_rational_hermitian(rng, n):
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
        for j in range(i + 1, n):
            v = Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
            m[i][j] = v
            m[j][i] = v
    return as_matrix(m)


def test_signature_against_eigenvalue_oracle():
    rng = random.Random(7)
    for _ in range(120):
        n = rng.randrange(2, 7)
        m = _random_rational_hermitian(rng, n)
        sig = signature(HermMatrix(m, Embedding(1, 0)))
        eigs = np.linalg.eigvalsh(np.array([[float(x.coeffs[0]) for x in row] for row in m]))
        pos = int(np.sum(eigs > 1e-8))
        neg = int(np.sum(eigs < -1e-8))
        assert (sig.positive, sig.negative) == (pos, neg)
        flipped = signature(HermMatrix(mat_scale(m, -1), Embedding(1, 0)))
        assert (flipped.positive, flipped.negative, flipped.zero) == (sig.negative, sig.positive, sig.zero)


def test_signature_cyclotomic_vs_oracle():
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randrange(2, 4)
        entries = [[None] * n for _ in range(n)]
        for i in range(n):
            c = quantum_int(rng.randrange(1, 5), Q5)
            entries[i][i] = c * rng.randrange(-2, 3)
            for j in range(i + 1, n):
                v = Q5 ** rng.randrange(5) * rng.randrange(-2, 3)
                entries[i][j] = v
                entries[j][i] = conjugate(v)
        h = HermMatrix(as_matrix(entries), EMB5)
        sig = signature(h)
        numeric = np.array([[embed_complex(x, EMB5) for x in row] for row in h.entries])
        eigs = np.linalg.eigvalsh(numeric)
        assert (sig.positive, sig.negative) == (int(np.sum(eigs > 1e-8)), int(np.sum(eigs < -1e-8)))


def test_rejects_non_hermitian():
    with pytest.raises(ValueError):
        HermMatrix(as_matrix([[0, 1], [2, 0]]), Embedding(1, 0))


def test_non_hermitian_error_names_the_first_entry():
    cases = (
        ([[0, 1], [2, 0]], "(0,1)"),
        ([[1, 0, 0], [0, 1, 5], [0, 0, 1]], "(1,2)"),
        ([[1, 0, 0], [0, 1, 0], [7, 0, 1]], "(0,2)"),
        ([[Q5, 0], [0, 1]], "(0,0)"),
    )
    for rows, where in cases:
        with pytest.raises(ValueError) as err:
            HermMatrix(as_matrix(rows), EMB5)
        assert str(err.value) == f"matrix is not Hermitian at {where}"


def test_rejects_non_square():
    for rows in ([[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1], [0, 0]]):
        with pytest.raises(ValueError, match="^matrix is not square$"):
            HermMatrix(as_matrix(rows), Embedding(1, 0))
    # ragged rows and the empty matrix are refused by as_matrix
    for rows in ([[1, 0], [0]], [[1, 0], [0, 1, 0]], []):
        with pytest.raises(ValueError, match="^ragged matrix$"):
            HermMatrix(rows, Embedding(1, 0))


def test_isometry_refuses_a_matrix_that_moves_the_form():
    form = HermMatrix(diag(1, -1), Embedding(1, 0))
    with pytest.raises(ValueError, match="^matrix does not preserve the form$"):
        IsometryWithForm(as_matrix([[0, 1], [1, 0]]), form)
    swap_signs = IsometryWithForm(form=form, matrix=diag(-1, 1))
    assert swap_signs == IsometryWithForm(diag(-1, 1), form)
    # a record equals only a record of its own class, even with equal fields
    assert IsometryWithForm(form.entries, form) != form
    with pytest.raises(AttributeError):
        swap_signs.form = HermMatrix(diag(1, 1), Embedding(1, 0))
    with pytest.raises(AttributeError):
        del form.entries
    assert form.dim == 2


@pytest.mark.parametrize("rows, shape", [
    ([[1, 0], [0, 1], [0, 0]], "3x2"),
    ([[1, 0, 0], [0, 1, 0]], "2x3"),
    ([[1]], "1x1"),
])
def test_isometry_refuses_a_matrix_of_another_size_than_the_form(rows, shape):
    # the row scaling by the form's norms zips rows away, so the size is checked first
    form = HermMatrix(diag(1, 1), Embedding(1, 0))
    with pytest.raises(ValueError, match=f"^matrix is {shape}, the form 2x2$"):
        IsometryWithForm(as_matrix(rows), form)


# -- Meyer cocycle -----------------------------------------------------------


def u1(power, order=30):
    z = CycloNum.zeta(order, power % order)
    form = HermMatrix(identity(1), Embedding(order, 1))
    return IsometryWithForm(as_matrix([[z]]), form)


# 2: rational entries, where zeta - 1/zeta is 0 and the form is divided in Q(zeta_4);
# 5 and 7: odd orders, where the form stays in Q(zeta_N)
@pytest.mark.parametrize("order", [2, 5, 7, 30])
def test_meyer_u1_closed_formula_all_pairs(order):
    for a in range(order):
        for b in range(order):
            got = meyer_cocycle(u1(a, order), u1(b, order))
            want = meyer_u1_sign(Fraction(a, order), Fraction(b, order))
            assert got == want, (a, b)


@pytest.mark.parametrize("order", [3, 4, 5, 6, 7, 12, 30])
def test_the_meyer_divisor_is_i_times_a_real_of_the_sine_sign(order):
    # zeta - 1/zeta is 2 i sin(2 pi k / M) at zeta -> exp(2 pi i k / M): the
    # Meyer form divided by it has the index of the form divided by i, times
    # the sign of that sine
    d = CycloNum.zeta(order) - CycloNum.zeta(order, -1)
    big_order = math.lcm(4, order)
    for k in range(1, order):
        if math.gcd(k, order) != 1:
            continue
        big = Embedding(order, k).extend(big_order)
        ratio = d * _i_unit(big_order, big.exponent).inverse()
        assert conjugate(ratio) == ratio
        assert sign_real(ratio, big) == sin_turn_sign(k, order) != 0


def test_meyer_identity_pair_vanishes():
    assert meyer_cocycle(u1(0), u1(0)) == 0


def test_meyer_center_scales_by_signature():
    # mu(e^{ia} Id, e^{ib} Id) = (p - q) mu(e^{ia}, e^{ib}) on a (2,1) form
    order = 12
    form = HermMatrix(diag(1, 1, -1), Embedding(order, 1))
    for a in range(order):
        for b in range(order):
            za = CycloNum.zeta(order, a)
            zb = CycloNum.zeta(order, b)
            big = meyer_cocycle(
                IsometryWithForm(diag(za, za, za), form),
                IsometryWithForm(diag(zb, zb, zb), form),
            )
            small = meyer_cocycle(u1(a, order), u1(b, order))
            assert big == small


def test_meyer_refuses_forms_under_different_embeddings():
    # one matrix diag(1, -1) under two embeddings of Q(zeta_12) is two forms
    z = CycloNum.zeta(12)
    a = IsometryWithForm(diag(z, z ** 3), HermMatrix(diag(1, -1), Embedding(12, 5)))
    b = IsometryWithForm(diag(z ** 2, z ** 5), HermMatrix(diag(1, -1), Embedding(12, 1)))
    for x, y in ((a, b), (b, a)):
        with pytest.raises(ValueError, match="isometries must share one form"):
            meyer_cocycle(x, y)


def _rand_isometries(rng, count):
    """Random words in U(1,1) generators sharing the form diag(1, -1)."""
    order = 12
    form = HermMatrix(diag(1, -1), Embedding(order, 5))
    boost = as_matrix([[Fraction(5, 4), Fraction(3, 4)], [Fraction(3, 4), Fraction(5, 4)]])
    out = []
    for _ in range(count):
        m = identity(2)
        for _ in range(rng.randrange(1, 4)):
            if rng.random() < 0.6:
                m = mat_mul(m, diag(CycloNum.zeta(order, rng.randrange(order)),
                                    CycloNum.zeta(order, rng.randrange(order))))
            else:
                m = mat_mul(m, boost)
        out.append(IsometryWithForm(m, form))
    return out


def test_meyer_cocycle_identity():
    rng = random.Random(11)
    for _ in range(40):
        a, b, c = _rand_isometries(rng, 3)
        ab = IsometryWithForm(mat_mul(a.matrix, b.matrix), a.form)
        bc = IsometryWithForm(mat_mul(b.matrix, c.matrix), a.form)
        pairs = ((b, c), (ab, c), (a, bc), (a, b))
        mus = [meyer_cocycle(x, y) for x, y in pairs]
        assert mus == [oracles.embedding_meyer_cocycle(x, y) for x, y in pairs]
        assert mus[0] - mus[1] + mus[2] - mus[3] == 0


def test_meyer_block_additivity():
    rng = random.Random(12)
    for _ in range(20):
        (a1, b1), (a2, b2) = _rand_isometries(rng, 2), _rand_isometries(rng, 2)
        form = HermMatrix(diag(1, -1, 1, -1), Embedding(12, 5))

        def block(x, y):
            zero = CycloNum.rational(0)
            rows = []
            for i in range(2):
                rows.append(tuple(x.matrix[i]) + (zero, zero))
            for i in range(2):
                rows.append((zero, zero) + tuple(y.matrix[i]))
            return IsometryWithForm(tuple(rows), form)

        assert meyer_cocycle(block(a1, a2), block(b1, b2)) == \
            meyer_cocycle(a1, b1) + meyer_cocycle(a2, b2)


def test_meyer_matrix_variants_agree():
    # the two displayed closed forms for the pair-of-pants matrix
    rng = random.Random(13)
    checked = 0
    for _ in range(60):
        a, b = _rand_isometries(rng, 2)
        one = identity(2)
        try:
            inv1 = mat_inv(mat_sub(mat_inv(a.matrix), one))
        except ZeroDivisionError:
            continue
        h = a.form.entries
        emb = a.form.embedding
        s1 = mat_mul(mat_sub(mat_inv(b.matrix), one),
                     mat_mul(inv1, mat_sub(b.matrix, mat_inv(a.matrix))))
        cmat = mat_inv(mat_mul(a.matrix, b.matrix))
        try:
            inv3 = mat_inv(mat_sub(mat_mul(cmat, b.matrix), one))
        except ZeroDivisionError:
            continue
        s3 = mat_mul(mat_sub(b.matrix, one), mat_mul(inv3, mat_sub(cmat, one)))
        assert skew_form_signature(h, s1, emb) == skew_form_signature(h, s3, emb) == meyer_cocycle(a, b)
        checked += 1
    assert checked > 20


# -- eigen splitting and G ----------------------------------------------------


@pytest.mark.parametrize("order", [5, 12, 33, 66])
def test_root_of_unity_order_matches_repeated_multiplication(order):
    # -zeta_N^j is no power of zeta_N for odd N; a bound below the order gives None
    for j in range(order):
        for c in (CycloNum.zeta(order, j), -CycloNum.zeta(order, j)):
            want = root_order_by_powers(c, 2 * order)
            assert want is not None
            for bound in (want - 1, want, 2 * order):
                assert hermitian._root_of_unity_order(c, bound) == root_order_by_powers(c, bound)


def test_root_of_unity_order_refuses_a_non_root():
    for c in (CycloNum.rational(2), 1 + CycloNum.zeta(5), CycloNum.rational(0)):
        assert hermitian._root_of_unity_order(c, 100) is None is root_order_by_powers(c, 100)
    assert hermitian._root_of_unity_order(CycloNum.rational(-1), 1) is None


def test_eigen_split_diagonal():
    form = HermMatrix(diag(1, -1), EMB5)
    u = IsometryWithForm(diag(1, Q5 ** 4), form)
    split = eigen_split(u)
    assert len(split) == 2
    data = [(lam, tuple(sig)) for lam, _t, sig in split]
    assert any(lam == 1 and sig == (1, 0, 0) for lam, sig in data)
    assert any(lam == Q5 ** 4 and sig == (0, 1, 0) for lam, sig in data)
    assert sum(sig.positive + sig.negative for _l, _t, sig in split) == 2


def test_eigen_split_scalar():
    form = HermMatrix(diag(1, -1), EMB5)
    u = IsometryWithForm(diag(Q5, Q5), form)
    split = eigen_split(u)
    assert len(split) == 1
    (_lam, turn, sig) = split[0]
    assert tuple(sig) == (1, 1, 0)
    assert turn == Fraction(1, 5)


CONJUGATED_DIAGONALS = [(5, 1), (7, 2), (8, 3), (12, 4), (12, 5)]


def conjugated_diagonal(order, seed):
    """(U, h, exps, signs): U = P D P^-1 and h = P^-* h_D P^-1 for random P.

    D = diag(zeta^e for e in exps) and h_D = diag(signs); two eigenvalues
    repeat, one of them on an indefinite eigenspace.
    """
    rng = random.Random(seed)
    z = CycloNum.zeta(order)
    exps = [rng.randrange(order) for _ in range(3)]
    exps += [exps[0], exps[1]]
    signs = [1, rng.choice((-2, 1)), rng.choice((-1, 3)), -1, 2]
    n = len(exps)
    while True:
        p = tuple(tuple(z ** rng.randrange(order) * rng.randrange(-1, 2) + rng.randrange(-2, 3)
                        for _ in range(n)) for _ in range(n))
        try:
            p_inv = mat_inv(p)
            break
        except ZeroDivisionError:
            continue
    u = mat_mul(p, mat_mul(diag(*(z ** e for e in exps)), p_inv))
    h = mat_mul(conj_transpose(p_inv), mat_mul(diag(*signs), p_inv))
    return u, h, exps, signs, rng


@pytest.mark.parametrize("order,seed", CONJUGATED_DIAGONALS)
def test_eigen_split_of_a_conjugated_diagonal(order, seed):
    # U = sum lambda P_lambda with the projectors P_lambda = P E_lambda P^-1,
    # and the split must give D's eigenvalues, their multiplicities and the
    # signs of h_D on each
    u, h, exps, signs, rng = conjugated_diagonal(order, seed)
    z = CycloNum.zeta(order)
    k = rng.choice([k for k in range(1, order) if math.gcd(k, order) == 1])
    iso = IsometryWithForm(u, HermMatrix(h, Embedding(order, k)))
    split = eigen_split(iso)
    assert split == oracles.embedding_eigen_split(iso)
    want = {}
    for e, s in zip(exps, signs):
        pos, neg = want.get(e, (0, 0))
        want[e] = (pos + (s > 0), neg + (s < 0))
    got = {}
    for lam, turn, sig in split:
        e = next(e for e in want if lam == z ** e)
        assert turn == Fraction(e * k % order, order)
        assert sig.zero == 0
        got[e] = (sig.positive, sig.negative)
    assert got == want


def recorded_multiplicities(monkeypatch):
    """Record what eigen_split reads off the traces: (candidate coefficient rows, multiplicities)."""
    calls = []
    original = hermitian._trace_multiplicities

    def recording(powers, coeffs, m):
        mults = original(powers, coeffs, m)
        calls.append((coeffs, mults))
        return mults

    monkeypatch.setattr(hermitian, "_trace_multiplicities", recording)
    return calls


@pytest.mark.parametrize("order,seed", CONJUGATED_DIAGONALS)
def test_trace_multiplicities_are_the_eigenspace_dimensions(order, seed, monkeypatch):
    u, h, exps, _signs, _rng = conjugated_diagonal(order, seed)
    calls = recorded_multiplicities(monkeypatch)
    split = eigen_split(IsometryWithForm(u, HermMatrix(h, Embedding(order, 1))))
    (coeffs, mults), = calls
    # each candidate's coefficient row starts lambda^0, lambda^-1: read lambda off it
    lams = [row[1].inverse() if len(row) > 1 else None for row in coeffs]
    assert sum(mults) == len(exps)
    for lam, _turn, sig in split:
        mult = mults[next(i for i, x in enumerate(lams) if x == lam)]
        assert mult == sig.positive + sig.negative
        assert mult == sum(1 for e in exps if CycloNum.zeta(order) ** e == lam)
    assert len(split) == sum(1 for m in mults if m)


@pytest.mark.parametrize("order,seed", CONJUGATED_DIAGONALS[:3])
def test_a_multiplicity_the_projector_rank_refutes_raises(order, seed, monkeypatch):
    # move one unit of multiplicity between two eigenvalues: the projector of
    # the first then has a rank other than the multiplicity claimed for it
    u, h, _exps, _signs, _rng = conjugated_diagonal(order, seed)
    original = hermitian._trace_multiplicities

    def shifted(powers, coeffs, m):
        mults = original(powers, coeffs, m)
        i = next(i for i, x in enumerate(mults) if x)
        j = next(j for j, x in enumerate(mults) if x and j != i)
        mults[i] += 1
        mults[j] -= 1
        return mults

    monkeypatch.setattr(hermitian, "_trace_multiplicities", shifted)
    with pytest.raises(ArithmeticError, match="^eigenspace projector has rank [0-9]+, but the "
                                              "traces give multiplicity [0-9]+$"):
        eigen_split(IsometryWithForm(u, HermMatrix(h, Embedding(order, 1))))


def test_a_form_degenerate_on_an_eigenspace_raises():
    # both forms are singular, so IsometryWithForm refuses them: a diagonal
    # form by a zero norm, any other by its determinant
    diagonal_form = HermMatrix(diag(1, 0), EMB5)
    ones = HermMatrix(as_matrix([[1, 1], [1, 1]]), EMB5)
    swap = as_matrix([[0, 1], [1, 0]])
    for u, form in ((diag(1, -1), diagonal_form), (swap, ones)):
        with pytest.raises(ValueError, match="^form is singular$"):
            IsometryWithForm(u, form)
    # eigen_split's exact part still checks each eigenspace. Diagonal U: the
    # form restricted to the -1 eigenspace is 0
    with pytest.raises(ArithmeticError, match="^degenerate form on an eigenspace$"):
        hermitian._eigen_data(diag(1, -1), diagonal_form.entries, 5)
    # the swap preserves the all-ones form, which is 0 on its -1 eigenspace:
    # h Pi then has rank 0 where the traces give multiplicity 1
    with pytest.raises(ArithmeticError, match="^eigenspace projector has rank 0, but the "
                                              "traces give multiplicity 1$"):
        hermitian._eigen_data(swap, ones.entries, 5)


def test_g_function_values():
    form1 = HermMatrix(identity(1), EMB5)
    assert g_function(IsometryWithForm(identity(1), form1)) == 0
    assert g_function(IsometryWithForm(diag(Q5), form1)) == Fraction(3, 5)


def test_g_function_inverse_antisymmetry():
    rng = random.Random(14)
    for _ in range(15):
        order = rng.choice([5, 8, 12])
        form = HermMatrix(diag(1, -1), Embedding(order, 1))
        u = IsometryWithForm(diag(CycloNum.zeta(order, rng.randrange(1, order)),
                                  CycloNum.zeta(order, rng.randrange(1, order))), form)
        uinv = IsometryWithForm(mat_inv(u.matrix), form)
        gu = g_function(u)
        assert g_function(uinv) == -gu
        orders = [order]
        assert (gu * order).denominator == 1  # denominator divides the eigenvalue order


# -- triangle Toledo invariants ----------------------------------------------


def test_toledo_triangle_angle_formula():
    fifth = Fraction(1, 5)
    assert toledo_triangle_pu11(-fifth, -fifth, -fifth) == Fraction(-2, 5)
    third = Fraction(1, 3)
    assert toledo_triangle_pu11(third, third, third) == 0
    seventh = Fraction(1, 7)
    assert toledo_triangle_pu11(seventh, seventh, seventh) == Fraction(4, 7)


def test_toledo_triangle_rejects_bad_angles():
    # a right angle is an angle like any other: the (2,5,5) triangle
    assert toledo_triangle_pu11(Fraction(1, 2), Fraction(1, 5), Fraction(1, 5)) == Fraction(1, 10)
    # rotation numbers 1/5, 4/5, 1/5 sum to 6/5: no triangle in either orientation
    with pytest.raises(ValueError, match="6/5"):
        toledo_triangle_pu11(Fraction(1, 5), Fraction(-1, 5), Fraction(1, 5))
    with pytest.raises(ValueError):
        toledo_triangle_pu11(Fraction(0), Fraction(1, 5), Fraction(1, 5))


def _triangle_555_model():
    """Exact U(1,1) model of the (5,5,5) triangle group at q = exp(2 pi i/5).

    Twist eigenvalues (1, q^4) on a form of signature (1, 1); the relative
    position of the two eigenbases is pinned by the four-holed-sphere boundary
    relation, which forces trace(AB) = q + q^2.
    """
    q = Q5
    two = quantum_int(2, q)
    h0 = two * two
    h1 = -(two ** -3)
    form = HermMatrix(diag(h0, h1), EMB5)
    a = IsometryWithForm(diag(1, q ** 4), form)
    phi = -(q ** 2) - q ** 3
    g0 = (CycloNum.rational(1), phi ** -3)
    nu = g0[0] * h0 * g0[0] + g0[1] * h1 * g0[1]  # real vector, no conjugation needed
    proj = tuple(
        tuple(g0[i] * g0[j] * (h1 if j else h0) * nu.inverse() for j in range(2))
        for i in range(2)
    )
    bmat = tuple(
        tuple((q ** 4) * identity(2)[i][j] + (1 - q ** 4) * proj[i][j] for j in range(2))
        for i in range(2)
    )
    b = IsometryWithForm(bmat, form)
    return a, b, form


def test_triangle_555_meyer_matches_angle_formula():
    a, b, form = _triangle_555_model()
    assert tuple(signature(form)) == (1, 1, 0)
    fifth = Fraction(1, 5)
    assert toledo_triangle_meyer(a, b) == Fraction(-2, 5) == toledo_triangle_pu11(-fifth, -fifth, -fifth)


def test_triangle_identity_pair():
    form = HermMatrix(diag(1, -1), EMB5)
    e = IsometryWithForm(identity(2), form)
    assert toledo_triangle_meyer(e, e) == 0


def test_triangle_conjugation_invariance():
    a, b, form = _triangle_555_model()
    q = Q5
    phi = -(q ** 2) - q ** 3
    g = as_matrix([[phi, phi ** 3], [phi ** -2, phi]])
    iso = IsometryWithForm(g, form)  # membership check happens here
    ginv = mat_inv(g)
    a2 = IsometryWithForm(mat_mul(g, mat_mul(a.matrix, ginv)), form)
    b2 = IsometryWithForm(mat_mul(g, mat_mul(b.matrix, ginv)), form)
    assert toledo_triangle_meyer(a2, b2) == toledo_triangle_meyer(a, b)


def test_charpoly_simple():
    m = as_matrix([[2, 1], [1, 2]])
    coeffs = charpoly(m)
    assert [c.rational_value() for c in coeffs] == [Fraction(3), Fraction(-4), Fraction(1)]
