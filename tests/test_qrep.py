import math
from fractions import Fraction

import pytest
from oracles import (
    charpoly,
    form_signature,
    mat_inv,
    rigid_four_point_toledo,
    skew_form_signature,
)

from qtoledo.cyclotomic import CycloNum, Embedding, sign_real
from qtoledo.elimination import kernel_basis
from qtoledo.embedding import _window
from qtoledo.fusion import so3_algebra
from qtoledo.hermitian import eigen_split, g_function, signature, toledo_triangle_meyer
from qtoledo.linalg import (
    HermMatrix,
    IsometryWithForm,
    conj_transpose,
    diagonal,
    identity,
    lin_comb,
    mat_mul,
    mat_scale,
    mat_sub,
)
from qtoledo.qrep import (
    _norm_signs,
    _two_color_toledo,
    four_point_toledo,
    pivot_tau04_table,
    tau_11,
    tau11_table,
)
from qtoledo.torus import PuncturedTorusRep, _validate_rep, punctured_torus_rep

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
    # every embedding answers, obtuse (formerly "mixed-sign") triangles
    # included, and the complex-conjugate embedding negates the value
    for level in (5, 7, 9, 11, 13):
        for k in range(1, level):
            if math.gcd(k, level) != 1:
                continue
            emb, conj = Embedding(level, k), Embedding(level, level - k)
            for i in range((level - 1) // 2):
                v = four_point_toledo(level, emb, i, i)
                assert abs(v) < 1 and (v * level).denominator == 1
                assert four_point_toledo(level, conj, i, i) == -v, (level, k, i)


def test_four_point_toledo_equals_the_rigid_representation():
    # trust gate: the rotation-number formula against the Toledo invariant of
    # the rigid 2x2 four-point representation, on every diagonal entry
    for level in range(5, 16, 2):
        for k in range(1, level):
            if math.gcd(k, level) != 1:
                continue
            emb = Embedding(level, k)
            for i in range((level - 1) // 2):
                assert four_point_toledo(level, emb, i, i) == rigid_four_point_toledo(level, emb, i), \
                    (level, k, i)


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
        p, n = form_signature(rep)
        assert n == 0 and p == rep.dim


def test_norm_signs_from_residues_equal_the_certified_signs():
    # _norm_signs decides definiteness for tau_11 without building the form
    for level in range(5, 22, 2):
        for k in range(1, level):
            if math.gcd(k, level) != 1:
                continue
            emb = Embedding(level, k)
            for i in range((level - 1) // 2):
                norms = punctured_torus_rep(level, emb, i).norms
                assert _norm_signs(level, emb, i) == tuple(sign_real(x, emb) for x in norms), (level, k, i)


def test_torus_rep_signature_matches_trace():
    for level in (5, 7, 9, 11, 13):
        for k in range(1, (level - 1) // 2 + 1):
            if math.gcd(k, level) != 1:
                continue
            emb = Embedding(level, k)
            v = so3_algebra(level, emb)
            for i in range((level - 1) // 2):
                rep = punctured_torus_rep(level, emb, i)
                p, n = form_signature(rep)
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
    # tau_11 equals the displayed formula: the signature of
    # h (1 - (T_d T_g)^-1) (1 - T_g)^-1 (1 - T_g T_d T_g) / i minus G-terms,
    # the closed form of the Meyer cocycle that the package takes on a kernel
    cases = [(7, 1, 1), (7, 2, 1), (11, 1, 3)]
    cases += [(9, 2, i) for i in range(1, 4)] + [(13, 2, i) for i in range(1, 6)]
    for level, k, i in cases:
        emb = Embedding(level, k)
        rep = punctured_torus_rep(level, emb, i)
        form = rep.form
        one = identity(rep.dim)
        tg = rep.t_gamma
        tdtg = mat_mul(rep.t_delta, tg)
        tgtdtg = mat_mul(tg, tdtg)
        s = mat_mul(mat_sub(one, mat_inv(tdtg)),
                    mat_mul(mat_inv(mat_sub(one, tg)), mat_sub(one, tgtdtg)))
        sig = skew_form_signature(form.entries, s, emb)
        g_terms = (g_function(IsometryWithForm(tg, form))
                   + g_function(IsometryWithForm(tdtg, form))
                   - g_function(IsometryWithForm(tgtdtg, form)))
        assert tau_11(level, emb, i) == F(sig, 2) - g_terms / 2


def _two_color_blocks(levels):
    """(level, k, i) of every indefinite torus form on two gluing colors at these levels."""
    for level in levels:
        i = (level - 1) // 2 - 2  # the color whose window has two gluing colors
        for k in range(1, level):
            if i < 0 or math.gcd(k, level) != 1:
                continue
            if len(set(_norm_signs(level, Embedding(level, k), i))) == 2:
                yield level, k, i


def test_two_color_tau11_is_the_exact_routes_value():
    # the (2, 3, m) triangle area equals the Meyer route's exact pass read at the embedding
    from qtoledo import hermitian, torus

    blocks = list(_two_color_blocks(range(5, 46, 2)))
    assert len(blocks) == 136
    for level, k, i in blocks:
        emb = Embedding(level, k)
        signs = _norm_signs(level, emb, i)
        exact = signs[0] * hermitian._read_toledo(torus._tau11_exact(level, i), emb)
        assert _two_color_toledo(level, emb, _window(level, i)[0], signs[0]) == exact, (level, k, i)
        assert tau_11(level, emb, i) == exact, (level, k, i)


def test_two_color_tau11_builds_nothing_exact(monkeypatch):
    from qtoledo import hermitian, torus

    def refuse(*args):
        raise AssertionError("an exact pass ran for a two-color block")

    for module, name in ((torus, "_torus_exact"), (torus, "_tau11_exact"), (hermitian, "_toledo_data")):
        monkeypatch.setattr(module, name, refuse)
    assert tau_11(7, Embedding(7, 1), 1) == F(-1, 42)   # the (2, 3, 7) line
    assert tau_11(9, Embedding(9, 1), 2) == F(-1, 18)


def _no_triangle(*turns):
    raise ValueError("no triangle")


@pytest.mark.parametrize("triangle", [
    _no_triangle,
    lambda *turns: F(0),
    lambda a, b, c: F(1) if b == F(1, 3) else _no_triangle(),
    lambda a, b, c: F(1, 1000) if b == F(1, 3) else _no_triangle(),
], ids=["no-triangle", "two-triangles", "out-of-range", "not-integral"])
def test_a_failed_triangle_certificate_falls_back_to_the_exact_pass(monkeypatch, triangle):
    from qtoledo import qrep, torus

    monkeypatch.setattr(qrep, "toledo_triangle_pu11", triangle)
    torus._tau11_exact.cache_clear()
    for level, k, i, value in ((7, 1, 1, F(-1, 42)), (9, 1, 2, F(-1, 18))):
        emb = Embedding(level, k)
        assert _two_color_toledo(level, emb, _window(level, i)[0], _norm_signs(level, emb, i)[0]) is None
        assert tau_11(level, emb, i) == value
    assert torus._tau11_exact.cache_info().misses == 2


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
    """eigen_split by brute force, an oracle for its spectral projectors.

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
    # the projector split (read off the diagonal for T_gamma) equals the kernel scan
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


def test_eigen_split_multiplicities_reproduce_the_power_traces():
    # sum over eigenvalues of dim(eigenspace) * lambda^m = tr U^m for m = 1 .. #eigenvalues,
    # a Vandermonde system that fixes every multiplicity; one embedding of each
    # conjugate pair
    for level, k in ((5, 1), (5, 2), (7, 1), (7, 2), (7, 3), (9, 1), (9, 2), (9, 4),
                     (11, 1), (11, 2), (11, 3), (11, 4), (11, 5)):
        emb = Embedding(level, k)
        for i in range((level - 1) // 2):
            rep = punctured_torus_rep(level, emb, i)
            tg = rep.t_gamma
            tdtg = mat_mul(rep.t_delta, tg)
            for word in (tg, tdtg, mat_mul(tg, tdtg)):
                split = eigen_split(IsometryWithForm(word, rep.form))
                power = word
                for m in range(1, len(split) + 1):
                    total = sum((lam ** m * (sig.positive + sig.negative) for lam, _, sig in split),
                                CycloNum.rational(0))
                    assert total == sum(power[a][a] for a in range(len(word))), (emb, i, m)
                    power = mat_mul(power, word)


def test_torus_path_builds_no_fusion_algebra(monkeypatch):
    # the base sign of the form comes from cyclotomic.so3_structure_sign alone
    import qtoledo.fusion
    import qtoledo.qrep

    def refuse(*args):
        raise AssertionError("so3_algebra was built")

    for module in (qtoledo.fusion, qtoledo.qrep):
        monkeypatch.setattr(module, "so3_algebra", refuse, raising=False)
    assert form_signature(punctured_torus_rep(7, Embedding(7, 1), 1)) == (1, 1)
    assert tau_11(7, Embedding(7, 1), 1) == F(-1, 42)
    assert tau11_table(7, Embedding(7, 2)) == [0, 0, 0]


@pytest.mark.parametrize("call", [
    lambda level, emb: so3_algebra(level, emb),
    lambda level, emb: punctured_torus_rep(level, emb, 1),
    lambda level, emb: four_point_toledo(level, emb, 1, 1),
    lambda level, emb: tau_11(level, emb, 0),
], ids=["so3_algebra", "punctured_torus_rep", "four_point_toledo", "tau_11"])
def test_level_and_embedding_are_checked(call):
    for level, emb, message in ((8, Embedding(8, 1), "level must be an odd integer >= 3"),
                                (7, Embedding(5, 1), "embedding must have the same order as the level"),
                                (7, Embedding(21, 1), "embedding must have the same order as the level")):
        with pytest.raises(ValueError) as err:
            call(level, emb)
        assert str(err.value) == message


def _lagrange_oracle(m, points, values):
    """Q(m) for the interpolation polynomial through (points[k], values[k]), densely.

    The sum over k of values[k] * prod_{l != k} (m - points[l]) / (points[k] - points[l]),
    every product formed as a full matrix product.
    """
    n = len(m)
    terms, weights = [], []
    for k, (x_k, y_k) in enumerate(zip(points, values)):
        term = identity(n)
        denom = CycloNum.rational(1)
        for l, x_l in enumerate(points):
            if l != k:
                term = mat_mul(term, mat_sub(m, diagonal((x_l,) * n)))
                denom = denom * (x_k - x_l)
        terms.append(term)
        weights.append(y_k * denom.inverse())
    return lin_comb(weights, terms)


def _diagonal_of(m):
    return [row[a] for a, row in enumerate(m)]


def _exact(m):
    """The entries with their field orders, so equal means written identically."""
    return [[(x.order, x.nums, x.den) for x in row] for row in m]


@pytest.mark.parametrize("level", [5, 7, 9, 11, 13])
def test_t_delta_is_the_lagrange_interpolation(level):
    # the eigenbasis construction gives the dense interpolation polynomial
    # Q(C_delta), Q(c_k) = t_k, entry for entry and field order for field order
    for k in range(1, level):
        if math.gcd(k, level) != 1:
            continue
        for i in range((level - 1) // 2):
            rep = punctured_torus_rep(level, Embedding(level, k), i)
            want = _lagrange_oracle(rep.c_delta, _diagonal_of(rep.c_gamma),
                                    _diagonal_of(rep.t_gamma))
            assert _exact(rep.t_delta) == _exact(want), (level, k, i)


def _corrupt(m, a, b, x):
    return tuple(tuple(x if (r, c) == (a, b) else y for c, y in enumerate(row))
                 for r, row in enumerate(m))


def _refusal(rep, **changes):
    with pytest.raises((ArithmeticError, ValueError)) as err:
        _validate_rep(PuncturedTorusRep(**{**vars(rep), **changes}))
    return type(err.value), str(err.value)


def test_validate_rep_refuses_each_broken_relation():
    rep = punctured_torus_rep(11, Embedding(11, 2), 2)
    assert rep.dim == 3
    _validate_rep(rep)
    z = CycloNum.zeta(11)
    c, t, h = rep.c_delta, rep.t_delta, rep.norms
    points, twists = _diagonal_of(rep.c_gamma), _diagonal_of(rep.t_gamma)

    # one entry of T_delta, of C_delta, one norm
    assert _refusal(rep, t_delta=_corrupt(t, 0, 1, t[0][1] + 1)) == \
        (ValueError, "matrix does not preserve the form")
    assert _refusal(rep, c_delta=_corrupt(c, 1, 1, c[1][1] + 1)) == \
        (ArithmeticError, "curve operators have different spectra")
    assert _refusal(rep, norms=(h[0], 2 * h[1], h[2])) == \
        (ArithmeticError, "curve operator is not self-adjoint for the form")

    # an isometry that is not the interpolation of C_delta
    assert _refusal(rep, t_delta=mat_scale(t, z)) == \
        (ArithmeticError, "twist is not the interpolation of the curve operator")
    # the eigenvalues and twists paired differently
    assert _refusal(rep, c_gamma=diagonal([points[1], points[0], points[2]])) == \
        (ArithmeticError, "twist is not the interpolation of the curve operator")
    # structure: an off-diagonal C_gamma, a self-adjoint C_delta outside the band
    assert _refusal(rep, c_gamma=_corrupt(rep.c_gamma, 0, 1, CycloNum.rational(1))) == \
        (ArithmeticError, "gamma operators are not diagonal")
    wide = _corrupt(_corrupt(c, 0, 2, h[0].inverse()), 2, 0, h[2].inverse())
    assert _refusal(rep, c_delta=wide) == \
        (ArithmeticError, "curve operator is not tridiagonal with unit subdiagonal")

    # consistent twists of the wrong order and of the wrong relations
    for new, message in (([-twists[0]] + twists[1:], "twist does not have the right projective order"),
                         ([x * x for x in twists], "(T_gamma T_delta)^3 is not scalar")):
        assert _refusal(rep, t_gamma=diagonal(new), t_delta=_lagrange_oracle(c, points, new)) == \
            (ArithmeticError, message)
