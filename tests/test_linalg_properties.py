"""Property tests for the linear algebra in qtoledo.hermitian.

`rref`, the routines that eliminate (kernel_basis, solve, determinant: by
Bareiss on rational input, by `rref` otherwise), the inverse `mat_inv` of
tests/oracles.py, which the package no longer has, and the matrix helpers
(mat_mul, mat_vec, diagonal, lin_comb, gram) run over Fraction and over
CycloNum entries.
Random matrices come from Hypothesis, over Q and over Q(zeta_N) for N = 1,
11 and 66, with a planted dependent row half of the time so that singular
inputs are common.  sympy is the oracle over Q; over Q(zeta_N) the
determinant is checked against the independent Faddeev-LeVerrier
characteristic polynomial of tests/oracles.py, and the helpers against sums
written out here.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import charpoly, mat_inv, mat_trace

from qtoledo import hermitian
from qtoledo.cyclotomic import CycloNum, Embedding, conjugate, euler_phi
from qtoledo.hermitian import (
    HermMatrix,
    as_matrix,
    conj_transpose,
    determinant,
    diagonal,
    gram,
    is_scalar,
    kernel_basis,
    lin_comb,
    mat_mul,
    rref,
    signature,
    solve,
)

SETTINGS = settings(max_examples=60, deadline=None)
FIELDS = ("Q", 1, 11, 66)

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=5)


@st.composite
def cyclo_entries(draw, order):
    # sparse, small coefficients: zero often, a monomial often
    phi = euler_phi(order)
    coeffs = [0] * phi
    for j in draw(st.lists(st.integers(0, phi - 1), max_size=2)):
        coeffs[j] = draw(st.integers(-3, 3))
    return CycloNum(order, coeffs)


def entries(field):
    return rationals if field == "Q" else cyclo_entries(field)


@st.composite
def matrices(draw, field, rows, cols):
    entry = entries(field)
    m = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and draw(st.booleans()):
        # plant a dependent row: row_k = c * row_a + row_b
        k, a, b = (draw(st.integers(0, rows - 1)) for _ in range(3))
        if k != a and k != b:
            c = draw(entry)
            m[k] = [c * x + y for x, y in zip(m[a], m[b])]
    return m


@st.composite
def square(draw, fields=FIELDS, max_n=4):
    field = draw(st.sampled_from(fields))
    n = draw(st.integers(1, max_n))
    return field, draw(matrices(field, n, n))


@st.composite
def rectangular(draw, fields=FIELDS):
    field = draw(st.sampled_from(fields))
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    return field, draw(matrices(field, rows, cols))


def mat_vec(a, v):
    out = []
    for row in a:
        acc = row[0] * v[0]
        for x, y in zip(row[1:], v[1:]):
            acc = acc + x * y
        out.append(acc)
    return out


def entry_type(field):
    return Fraction if field == "Q" else CycloNum


def to_sympy(m):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m])


# -- kernels and rank ------------------------------------------------------------


@SETTINGS
@given(rectangular())
def test_kernel_is_annihilated_and_rank_plus_nullity_is_width(case):
    field, a = case
    _rows, pivots, _scale = rref(a)
    kernel = kernel_basis(a)
    assert len(pivots) + len(kernel) == len(a[0])
    for vec in kernel:
        assert len(vec) == len(a[0])
        assert all(type(x) is entry_type(field) for x in vec)
        assert all(x == 0 for x in mat_vec(a, vec))
    if kernel:
        # the kernel vectors are independent
        assert len(rref(kernel)[1]) == len(kernel)
    if field == "Q":
        assert len(pivots) == to_sympy(a).rank()


# -- inverses and determinants ---------------------------------------------------


@SETTINGS
@given(square())
def test_inverse_or_zero_division(case):
    field, a = case
    n = len(a)
    if determinant(a) == 0:
        with pytest.raises(ZeroDivisionError):
            mat_inv(a)
        return
    inv = mat_inv(a)
    assert all(type(x) is entry_type(field) for row in inv for x in row)
    for i in range(n):
        for j in range(n):
            acc = inv[i][0] * a[0][j]
            for t in range(1, n):
                acc = acc + inv[i][t] * a[t][j]
            assert acc == (1 if i == j else 0)


@SETTINGS
@given(square(fields=("Q",), max_n=5))
def test_determinant_and_charpoly_against_sympy(case):
    _field, a = case
    det = determinant(a)
    assert type(det) is Fraction
    expected = to_sympy(a).det()
    assert det == Fraction(int(expected.p), int(expected.q))
    x = sympy.Symbol("x")
    coeffs = to_sympy(a).charpoly(x).all_coeffs()[::-1]
    got = [c.rational_value() for c in charpoly(as_matrix(a))]
    assert got == [Fraction(int(c.p), int(c.q)) for c in coeffs]


@SETTINGS
@given(square(fields=(1, 11, 66)))
def test_cyclotomic_determinant_matches_charpoly(case):
    _field, a = case
    det = determinant(a)
    assert type(det) is CycloNum
    c0 = charpoly(as_matrix(a))[0]
    assert det == (c0 if len(a) % 2 == 0 else -c0)


# -- overdetermined solves -------------------------------------------------------


@st.composite
def systems(draw):
    """(field, a, x) with a of full column rank and at least as many rows."""
    field = draw(st.sampled_from(FIELDS))
    cols = draw(st.integers(1, 4))
    rows = draw(st.integers(cols, 6))
    a = draw(matrices(field, rows, cols))
    x = [draw(entries(field)) for _ in range(cols)]
    return field, a, x


@SETTINGS
@given(systems())
def test_solve_recovers_the_solution_or_refuses(case):
    field, a, x = case
    n = len(a[0])
    b = mat_vec(a, x)
    rank = len(rref(a)[1])
    if rank < n:
        with pytest.raises(ArithmeticError, match="^underdetermined system$"):
            solve(a, b)
        return
    got = solve(a, b)
    assert all(type(v) is entry_type(field) for v in got)
    assert got == x
    if rank < len(a):
        # leave the column space along a left-kernel direction y: y^T b' != 0
        y = kernel_basis([list(col) for col in zip(*a)])[0]
        j = next(i for i, v in enumerate(y) if v != 0)
        bad = list(b)
        bad[j] = bad[j] + 1
        with pytest.raises(ArithmeticError, match="^inconsistent system$"):
            solve(a, bad)


# -- types -----------------------------------------------------------------------


@SETTINGS
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_int_input_stays_exact(a):
    rows, _pivots, scale = rref(a)
    det = determinant(a)
    outputs = [x for row in rows for x in row] + [scale, det]
    outputs += [x for vec in kernel_basis(a) for x in vec]
    if det != 0:
        outputs += [x for row in mat_inv(a) for x in row]
        outputs += solve(a, [1] * len(a))
    assert all(isinstance(x, (int, Fraction)) for x in outputs)
    assert det == to_sympy([[Fraction(x) for x in row] for row in a]).det()


@SETTINGS
@given(st.sampled_from(FIELDS[1:]).flatmap(cyclo_entries))
def test_cyclonum_truth_value_is_nonzero(a):
    assert bool(a) is (not a.is_zero())
    assert bool(a) is (a != 0)
    assert not CycloNum(a.order, [0] * euler_phi(a.order))


# -- the matrix helpers ----------------------------------------------------------


def conj(x):
    return conjugate(x) if isinstance(x, CycloNum) else x


def explicit_gram(h, vs, ws):
    """(v^* h w) for v in vs and w in ws, as a double sum over the entries of h."""
    n = len(h)
    out = []
    for v in vs:
        row = []
        for w in ws:
            acc = Fraction(0)
            for p in range(n):
                for q in range(n):
                    acc = conj(v[p]) * h[p][q] * w[q] + acc
            row.append(acc)
        out.append(row)
    return out


@st.composite
def square_pairs(draw):
    """(field, a, b, v, c) with a, b square of one size, v a vector, c a scalar."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 4))
    a, b = draw(matrices(field, n, n)), draw(matrices(field, n, n))
    return field, a, b, [draw(entries(field)) for _ in range(n)], draw(entries(field))


@SETTINGS
@given(square_pairs())
def test_matrix_helpers_keep_the_entry_type_and_match_explicit_sums(case):
    field, a, b, v, c = case
    n = len(a)
    kind = entry_type(field)
    ab = mat_mul(a, b)
    assert [list(row) for row in ab] == [
        [sum((a[i][t] * b[t][j] for t in range(n)), Fraction(0)) for j in range(n)]
        for i in range(n)]
    av = hermitian.mat_vec(a, v)
    assert list(av) == mat_vec(a, v)
    tr = mat_trace(a)
    assert tr == sum((a[i][i] for i in range(n)), Fraction(0))
    comb = lin_comb([c, 2, 0], [a, b, a])
    assert [list(row) for row in comb] == [
        [c * a[i][j] + 2 * b[i][j] for j in range(n)] for i in range(n)]
    d = diagonal(v)
    assert [list(row) for row in d] == [[v[i] if i == j else 0 for j in range(n)] for i in range(n)]
    assert is_scalar(diagonal([c] * n)) == c
    bumped = [list(row) for row in diagonal([c] * n)]
    bumped[0][-1] += 1
    assert is_scalar(bumped) == (c + 1 if n == 1 else None)
    assert is_scalar(a) == (a[0][0] if all(
        a[i][j] == (a[0][0] if i == j else 0) for i in range(n) for j in range(n)) else None)
    g = gram(a, b, [v])
    assert [list(row) for row in g] == explicit_gram(a, b, [v])
    outputs = [x for m in (ab, comb, d, g, conj_transpose(a)) for row in m for x in row]
    outputs += list(av) + [tr] + charpoly(a)
    assert all(type(x) is kind for x in outputs)


@SETTINGS
@given(square(fields=("Q",), max_n=5))
def test_rational_charpoly_matches_the_cyclotomic_route(case):
    _field, a = case
    got = charpoly(a)
    assert all(type(x) is Fraction for x in got)
    assert got == [c.rational_value() for c in charpoly(as_matrix(a))]


def field_embedding(field):
    return Embedding(1, 0) if field == "Q" else Embedding(field, 1)


@st.composite
def congruent_pairs(draw):
    """(field, h, p): h = C^* D C Hermitian with D rational diagonal, p square."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 3))
    signs = [draw(st.integers(-1, 1)) for _ in range(n)]
    d = [[Fraction(signs[i] * draw(st.integers(1, 3))) if i == j else Fraction(0)
          for j in range(n)] for i in range(n)]
    c = draw(matrices(field, n, n))
    h = explicit_gram(d, list(zip(*c)), list(zip(*c)))
    return field, signs, c, h, draw(matrices(field, n, n))


@SETTINGS
@given(congruent_pairs())
def test_signature_is_invariant_under_congruence(case):
    field, signs, c, h, p = case
    emb = field_embedding(field)
    sig = signature(HermMatrix(as_matrix(h), emb))
    if determinant(c) != 0:
        # Sylvester's law of inertia: h is congruent to the diagonal D
        assert tuple(sig) == (signs.count(1), signs.count(-1), signs.count(0))
    if determinant(p) != 0:
        php = gram(h, list(zip(*p)), list(zip(*p)))
        assert signature(HermMatrix(as_matrix(php), emb)) == sig
