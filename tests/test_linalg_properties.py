"""Property tests for the exact elimination core in qtoledo.hermitian.

`rref` and the routines built on it (kernel_basis, mat_inv, solve,
determinant) run over Fraction and over CycloNum entries.  Random matrices
come from Hypothesis, over Q and over Q(zeta_N) for N = 1, 11 and 66, with
a planted dependent row half of the time so that singular inputs are common.
sympy is the oracle over Q; over Q(zeta_N) the determinant is checked
against the independent Faddeev-LeVerrier characteristic polynomial.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from qtoledo.cyclotomic import CycloNum, euler_phi
from qtoledo.hermitian import (
    as_matrix,
    charpoly,
    determinant,
    kernel_basis,
    mat_inv,
    rref,
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
