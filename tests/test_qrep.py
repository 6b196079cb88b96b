import math
from fractions import Fraction

import pytest

from qtoledo.cyclotomic import CycloNum, Embedding, quantum_int, sign_real
from qtoledo.fusion import so3_algebra
from qtoledo.hermitian import (
    HermMatrix,
    IsometryWithForm,
    charpoly,
    conj_transpose,
    eigen_split,
    identity,
    kernel_basis,
    mat_mul,
    mat_scale,
    mat_sub,
    signature,
    toledo_triangle_meyer,
)
from qtoledo.qrep import (
    four_point_data,
    four_point_toledo,
    pivot_tau04_table,
    punctured_torus_rep,
    tau_11,
    tau11_table,
)

F = Fraction


def test_four_point_toledo_level5():
    assert four_point_toledo(5, Embedding(5, 1), 1, 1) == F(-2, 5)
    assert four_point_toledo(5, Embedding(5, 1), 0, 1) == 0
    assert four_point_toledo(5, Embedding(5, 2), 1, 1) == 0  # unitary


def test_four_point_toledo_level7_tables():
    q1 = pivot_tau04_table(7, Embedding(7, 1))
    assert q1[(1, 1)] == F(2, 7)      # omega_{0,4}(e1,e1,e2,e2)
    assert q1[(2, 2)] == 0            # omega_{0,4}(e2,e2,e2,e2)
    assert q1[(1, 2)] == q1[(2, 1)] == 0
    q2 = pivot_tau04_table(7, Embedding(7, 2))
    assert q2[(1, 1)] == F(-2, 7)
    assert q2[(2, 2)] == F(4, 7)
    q3 = pivot_tau04_table(7, Embedding(7, 3))
    assert all(v == 0 for v in q3.values())


def test_four_point_values_are_level_integral():
    # mixed-sign angle configurations (possible from level 9 on) are outside
    # the triangle analysis and must fail loudly rather than return a value
    for level in (5, 7, 9, 11, 13):
        for k in range(1, (level - 1) // 2 + 1):
            if math.gcd(k, level) != 1:
                continue
            emb = Embedding(level, k)
            for i in range((level - 1) // 2):
                try:
                    v = four_point_toledo(level, emb, i, i)
                except ValueError:
                    assert level > 7
                    continue
                assert abs(v) < 1 and (v * level).denominator == 1


def test_four_point_norm_data():
    d = four_point_data(7, Embedding(7, 1), 1)
    q = CycloNum.zeta(7)
    assert d.f_norms[0] == -quantum_int(2, q) * quantum_int(3, q)
    assert d.f_twists == (CycloNum.rational(1), q ** 4)
    assert d.g_twists[0] == q ** (2 * 1 * 2) and d.g_twists[1] == q ** (2 * 2 * 3)
    # definite iff [2i][2i+2] > 0, mirrored by the g-norm signs
    assert d.g_norm_signs[0] * d.g_norm_signs[1] < 0


def test_torus_rep_dimensions_and_window():
    emb = Embedding(7, 1)
    for i, dim in ((0, 3), (1, 2), (2, 1)):
        rep = punctured_torus_rep(7, emb, i)
        assert rep.dim == dim
    assert punctured_torus_rep(5, Embedding(5, 1), 1).dim == 1


def test_torus_rep_color0_is_definite():
    for level, k in ((5, 1), (7, 1), (7, 2), (9, 1), (11, 3)):
        if math.gcd(k, level) != 1:
            continue
        rep = punctured_torus_rep(level, Embedding(level, k), 0)
        p, n = rep.form_signature()
        assert n == 0 and p == rep.dim


def test_torus_rep_signature_matches_trace():
    for level in (5, 7, 9, 11, 13):
        for k in range(1, (level - 1) // 2 + 1):
            if math.gcd(k, level) != 1:
                continue
            emb = Embedding(level, k)
            v = so3_algebra(level, emb)
            for i in range((level - 1) // 2):
                rep = punctured_torus_rep(level, emb, i, v)
                p, n = rep.form_signature()
                tr = v.trace(v.basis(i))
                if tr != 0:
                    assert p - n == tr, (level, k, i)


def test_torus_spectra_and_relations_are_validated():
    # construction itself asserts: C_delta/C_gamma same charpoly, twists are
    # form isometries, and the (2, 3, level) relations hold projectively
    rep = punctured_torus_rep(11, Embedding(11, 2), 1)
    pa = charpoly(rep.c_delta)
    pb = charpoly(rep.c_gamma)
    assert all((x - y).is_zero() for x, y in zip(pa, pb))


def test_tau11_level5_vanishes():
    assert tau_11(5, Embedding(5, 1), 1) == 0
    assert tau_11(5, Embedding(5, 1), 0) == 0
    assert tau_11(5, Embedding(5, 2), 1) == 0


def test_tau11_level7_table():
    assert tau11_table(7, Embedding(7, 1)) == [0, F(-1, 42), 0]
    assert tau11_table(7, Embedding(7, 2)) == [0, 0, 0]
    assert tau11_table(7, Embedding(7, 3)) == [0, 0, 0]


def test_tau11_matches_triangle_meyer():
    # the assembled display equals the generic triangle-group pairing
    for level, k, i in ((7, 1, 1), (7, 2, 1), (11, 1, 3)):
        rep = punctured_torus_rep(level, Embedding(level, k), i)
        a = IsometryWithForm(rep.t_gamma, rep.form)
        b = IsometryWithForm(mat_mul(rep.t_delta, rep.t_gamma), rep.form)
        assert tau_11(level, Embedding(level, k), i) == toledo_triangle_meyer(a, b)


def test_tau11_scale_invariance():
    # scaling the form by a positive constant leaves tau unchanged
    rep = punctured_torus_rep(7, Embedding(7, 1), 1)
    scaled = rep.__class__(
        rep.level, rep.embedding, rep.color, rep.window,
        tuple(x * 3 for x in rep.norms),
        rep.c_gamma, rep.c_delta, rep.t_gamma, rep.t_delta,
    )
    a = IsometryWithForm(scaled.t_gamma, scaled.form)
    b = IsometryWithForm(mat_mul(scaled.t_delta, scaled.t_gamma), scaled.form)
    assert toledo_triangle_meyer(a, b) == F(-1, 42)


def test_color_out_of_range():
    with pytest.raises(ValueError):
        four_point_toledo(7, Embedding(7, 1), 3, 3)
    with pytest.raises(ValueError):
        punctured_torus_rep(7, Embedding(7, 1), 3)


def _eigen_scan(u: IsometryWithForm):
    """eigen_split without its characteristic-polynomial filter.

    Every root of unity of the order of U gets a kernel solve; nonempty
    kernels yield (eigenvalue, turn, signature of the form on the kernel).
    """
    n = u.dim
    base = math.lcm(*[x.order for row in u.matrix for x in row])
    power, order = u.matrix, 1
    while power != identity(n):
        power, order = mat_mul(power, u.matrix), order + 1
    field = math.lcm(base, order, u.embedding.order)
    emb = u.embedding.extend(field)
    mat = tuple(tuple(x.lift(field) for x in row) for row in u.matrix)
    out = []
    for j in range(order):
        lam = CycloNum.zeta(field, j * (field // order))
        basis = kernel_basis(mat_sub(mat, mat_scale(identity(n), lam)))
        if basis:
            vecs = tuple(tuple((x,) for x in v) for v in basis)
            gram = tuple(tuple(mat_mul(conj_transpose(vb), mat_mul(u.form.entries, va))[0][0]
                               for va in vecs) for vb in vecs)
            turn = F((j * emb.exponent) % order, order)
            out.append((lam, turn, signature(HermMatrix(gram, emb))))
    return out


@pytest.mark.parametrize("level,k", [(5, 1), (5, 2), (7, 1), (7, 3), (9, 1), (9, 4),
                                     (11, 1), (11, 3)])
def test_eigen_split_filter_matches_full_scan(level, k):
    # skipping the candidates with charpoly(lambda) != 0 loses no eigenvalue
    emb = Embedding(level, k)
    for i in range(1, (level - 1) // 2):
        rep = punctured_torus_rep(level, emb, i)
        tg = rep.t_gamma
        tdtg = mat_mul(rep.t_delta, tg)
        for word in (tg, tdtg, mat_mul(tg, tdtg)):
            u = IsometryWithForm(word, rep.form)
            got, want = eigen_split(u), _eigen_scan(u)
            assert [(lam.order, lam.nums, turn, sig) for lam, turn, sig in got] == \
                [(lam.order, lam.nums, turn, sig) for lam, turn, sig in want], (level, k, i)
