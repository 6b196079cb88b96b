"""The packed integer products and the Bareiss elimination of qtoledo.hermitian.

`mat_mul`, `mat_vec`, `gram` and `lin_comb` sum their scalar products as
Kronecker-packed integers; tests/oracles.py keeps the entry loop they
replace, with one CycloNum or Fraction operation per product.  Both must
give the same entries, of the same type.  A CycloNum product has order 1
where the loop's has, and otherwise the one order N of its factors, also
where the loop's lies in a proper subfield.  Entries mix plain rationals, order-1 CycloNums and CycloNums of
order N or of a divisor of N, for N in {1, 5, 8, 12, 66}, with numerators up
to 2^40 of either sign (so packed digits borrow) over denominators whose
lcm is large.  Rational `solve`, `determinant` and `kernel_basis` eliminate
by Bareiss; the oracle reads the same answers off `rref`.
"""

import math
from fractions import Fraction

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtoledo import hermitian
from qtoledo.cyclotomic import CycloNum, euler_phi

SETTINGS = settings(max_examples=80, deadline=None)

# each order with its divisors strictly between 1 and itself, so that a sum
# can lie in a proper subfield
ORDERS = {1: (), 5: (), 8: (2, 4), 12: (3, 4, 6), 66: (6, 11, 22)}

numerators = st.one_of(st.integers(-3, 3), st.integers(-(2 ** 40), 2 ** 40))
denominators = st.sampled_from([1, 1, 1, 2, 3, 7, 2 ** 31 - 1, 1000003, 999999937])


def exact(x):
    """An entry as its type and, for a CycloNum, its order, numerators and denominator."""
    if isinstance(x, CycloNum):
        return "CycloNum", x.order, x.nums, x.den
    return type(x).__name__, x


def exact_rows(m):
    return [[exact(x) for x in row] for row in m]


def field_order(*mats):
    """The lcm of the orders of the nonzero CycloNum entries."""
    return math.lcm(*(x.order for m in mats for row in m for x in row if isinstance(x, CycloNum) and x))


def lifted(m, order):
    """The loop's entries with each CycloNum of order above 1 lifted to `order`."""
    return [[x.lift(order) if isinstance(x, CycloNum) and x.order > 1 else x for x in row] for row in m]


@st.composite
def entries(draw, field, kinds=("zero", "int", "fraction", "rational", "cyclo", "subfield")):
    """One entry: field "Q" gives ints and Fractions, an order N also CycloNums."""
    if field == "Q":
        kinds = ("zero", "int", "fraction")
    kind = draw(st.sampled_from(kinds))
    if kind == "zero" and field == "Q":
        return Fraction(0)
    if kind in ("zero", "cyclo zero"):
        zeros = [CycloNum.rational(0), CycloNum(field, [0] * euler_phi(field))]
        return draw(st.sampled_from(zeros if kind == "cyclo zero" else [Fraction(0), *zeros]))
    if kind == "int":
        return draw(numerators)
    if kind == "fraction":
        return Fraction(draw(numerators), draw(denominators))
    if kind == "rational":
        return CycloNum.rational(Fraction(draw(numerators), draw(denominators)))
    order = field
    if kind == "subfield" and ORDERS[field]:
        order = draw(st.sampled_from(ORDERS[field]))
    phi = euler_phi(order)
    coeffs = [0] * phi
    for j in draw(st.lists(st.integers(0, phi - 1), min_size=1, max_size=phi)):
        coeffs[j] = Fraction(draw(numerators), draw(denominators))
    return CycloNum(order, coeffs)


@st.composite
def matrices(draw, field, rows, cols, kinds=None):
    entry = entries(field) if kinds is None else entries(field, kinds)
    m = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    zero = Fraction(0) if field == "Q" else CycloNum.rational(0)
    blank = draw(st.sampled_from(["none", "none", "row", "column", "all"]))
    for i in range(rows):
        for j in range(cols):
            if blank == "all" or (blank == "row" and i == 0) or (blank == "column" and j == 0):
                m[i][j] = zero
    return tuple(tuple(row) for row in m)


fields = st.sampled_from(["Q", *ORDERS])
sizes = st.integers(0, 4)


@st.composite
def products(draw):
    field = draw(fields)
    m, k, p = draw(sizes), draw(st.integers(1, 4)), draw(sizes)
    return draw(matrices(field, m, k)), draw(matrices(field, k, p))


@SETTINGS
@given(products())
def test_mat_mul_matches_the_entry_loop(case):
    a, b = case
    want = lifted(oracles.mat_mul(a, b), field_order(a, b))
    assert exact_rows(hermitian.mat_mul(a, b)) == exact_rows(want)


@SETTINGS
@given(products())
def test_mat_vec_matches_the_entry_loop(case):
    a, b = case
    v = tuple(row[0] for row in b) if b[0] else tuple(Fraction(1) for _ in b)
    got, want = hermitian.mat_vec(a, v), lifted([oracles.mat_vec(a, v)], field_order(a, [v]))[0]
    assert [exact(x) for x in got] == [exact(x) for x in want]


@st.composite
def gram_cases(draw):
    field = draw(fields)
    n = draw(st.integers(1, 4))
    h = draw(matrices(field, n, n))
    vs = draw(matrices(field, draw(sizes), n))
    ws = draw(matrices(field, draw(sizes), n))
    return h, vs, ws


@SETTINGS
@given(gram_cases())
def test_gram_matches_the_entry_loop(case):
    # two products, each at the order of its own factors: every CycloNum
    # entry has order 1 where the loop's has, else a multiple of the loop's
    h, vs, ws = case
    got, want = hermitian.gram(h, vs, ws), oracles.gram(h, vs, ws)
    assert [[(type(x), x) for x in row] for row in got] == [[(type(x), x) for x in row] for row in want]
    top = field_order(h, vs, ws)
    for x, y in zip((x for row in got for x in row), (y for row in want for y in row)):
        if isinstance(x, CycloNum):
            assert (x.order == 1) == (y.order == 1) and x.order % y.order == 0 == top % x.order


@st.composite
def combinations(draw):
    """Coefficients and matrices of one kind: all rational, or all CycloNum but int coefficients."""
    field = draw(fields)
    kinds = ("cyclo zero", "rational", "cyclo", "subfield")
    m, p, count = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    mats = [draw(matrices(field, m, p, kinds)) for _ in range(count)]
    coeffs = [draw(st.one_of(entries(field, kinds), st.integers(-2, 2))) for _ in range(count)]
    return coeffs, mats


@SETTINGS
@given(combinations())
def test_lin_comb_matches_the_entry_loop(case):
    # the values and types agree; a CycloNum sum that cancels may carry
    # another order, since the loop also lifts entries that are zero
    coeffs, mats = case
    got, want = hermitian.lin_comb(coeffs, mats), oracles.lin_comb(coeffs, mats)
    assert [[(type(x), x) for x in row] for row in got] == [[(type(x), x) for x in row] for row in want]
    assert hermitian.lin_combs([coeffs, coeffs[::-1]], mats) == [
        want, oracles.lin_comb(coeffs[::-1], mats)]


@pytest.mark.parametrize("order", [5, 12, 66])
def test_packing_width_holds_at_its_bound(order):
    # every numerator of each entry is the largest one, so the coefficient of
    # x^(phi-1) in each sum is exactly +-inner * phi * top_a * top_b, the bound
    # the width is built from, and a width one bit short fails; the bounds met
    # have bit lengths of every residue mod 8, so that holds as well for a
    # width rounded up to whole bytes
    phi = euler_phi(order)
    residues = set()
    for inner in (1, 2, 3):
        for t in range(1, 22):
            for top_a, top_b in ((2 ** t - 1, 1), (2 ** t, 3), (2 ** t - 1, 2 ** t - 1)):
                a = ((CycloNum(order, [top_a] * phi),) * inner, (CycloNum(order, [-top_a] * phi),) * inner)
                b = tuple((CycloNum(order, [top_b] * phi),) for _ in range(inner))
                assert exact_rows(hermitian.mat_mul(a, b)) == exact_rows(oracles.mat_mul(a, b))
                residues.add((inner * phi * top_a * top_b).bit_length() % 8)
    assert residues == set(range(8))


# -- Bareiss against rref on rational input -------------------------------------


@st.composite
def rational_matrices(draw, rows, cols):
    m = [list(row) for row in draw(matrices("Q", rows, cols))]
    if rows > 1 and draw(st.booleans()):
        # plant a dependent row: row_k = c * row_a + row_b
        k, i, j = (draw(st.integers(0, rows - 1)) for _ in range(3))
        if k not in (i, j):
            c = draw(entries("Q"))
            m[k] = [c * x + y for x, y in zip(m[i], m[j])]
    return m


@SETTINGS
@given(st.integers(1, 6).flatmap(lambda r: st.integers(1, 6).flatmap(
    lambda c: rational_matrices(r, c))))
def test_kernel_basis_matches_rref(a):
    got = hermitian.kernel_basis(a)
    assert [[exact(x) for x in v] for v in got] == [[exact(x) for x in v]
                                                   for v in oracles.rref_kernel_basis(a)]


@SETTINGS
@given(st.integers(1, 6).flatmap(lambda n: rational_matrices(n, n)))
def test_determinant_matches_rref(a):
    assert exact(hermitian.determinant(a)) == exact(Fraction(oracles.rref_determinant(a)))


def outcome(f, *args):
    try:
        return [exact(x) for x in f(*args)]
    except ArithmeticError as err:
        return str(err)


@st.composite
def rational_systems(draw):
    cols = draw(st.integers(1, 4))
    a = draw(rational_matrices(draw(st.integers(1, 6)), cols))
    if draw(st.booleans()):
        x = [draw(entries("Q")) for _ in range(cols)]
        b = [sum((p * q for p, q in zip(row, x)), Fraction(0)) for row in a]
    else:
        b = [draw(entries("Q")) for _ in a]
    return a, b


@SETTINGS
@given(rational_systems())
def test_solve_matches_rref(case):
    a, b = case
    got = outcome(hermitian.solve, a, b)
    assert got == outcome(oracles.rref_solve, a, b)
    assert isinstance(got, list) or got in ("underdetermined system", "inconsistent system")


def test_solve_keeps_its_messages():
    with pytest.raises(ArithmeticError, match="^underdetermined system$"):
        hermitian.solve([[1, 2], [2, 4]], [1, 2])
    with pytest.raises(ArithmeticError, match="^inconsistent system$"):
        hermitian.solve([[1], [2]], [1, 3])
