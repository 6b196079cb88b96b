import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import associativity_defect, charpoly, tft_value, verlinde_dimension

from qtoledo.cyclotomic import Embedding
from qtoledo.fusion import (
    FrobeniusAlgebra,
    gluing_checks,
    signature_table,
    so3_algebra,
    su2_algebra,
    unitary_partner,
)

F = Fraction


def test_level5_fibonacci_algebra():
    # q -> exp(2 pi i/5): Q[t]/(t^2 + t + 1) with eta(t,t) = -1, alpha = (1-t)/3
    v = so3_algebra(5, Embedding(5, 1))
    assert v.rank == 2
    assert v.eps == (1, -1)
    assert v.multiply(1, 1) == (F(-1), F(-1))  # t^2 = -1 - t
    assert v.alpha == (F(1, 3), F(-1, 3))
    assert v.omega_element == (F(2), F(1))     # (2 + t) inverts (1 - t)/3


def test_level5_unitary_algebra():
    v = so3_algebra(5, Embedding(5, 2))
    assert v.eps == (1, 1)
    assert v.multiply(1, 1) == (F(1), F(1))    # golden ratio: t^2 = 1 + t
    assert v.alpha == (F(3, 5), F(-1, 5))


def test_level7_case1_algebra():
    v = so3_algebra(7, Embedding(7, 1))
    assert v.eps == (1, 1, -1)
    assert v.multiply(1, 1) == (F(1), F(1), F(1))      # e1^2 = e0 + e1 + e2
    assert v.multiply(1, 2) == (F(0), F(-1), F(-1))    # e1 e2 = -e1 - e2
    # (9 + 3t - 2t^2)/23 with t^2 = e0 + e1 + e2
    assert v.alpha == (F(7, 23), F(1, 23), F(-2, 23))


def test_level7_case2_algebra():
    v = so3_algebra(7, Embedding(7, 2))
    assert v.eps == (1, -1, 1)
    assert v.multiply(1, 1) == (F(-1), F(-1), F(1))    # s^2 = -e0 - e1 + e2
    assert v.multiply(1, 2) == (F(0), F(-1), F(-1))
    # (19 + 9s + 8s^2)/23 with s^2 = -e0 - e1 + e2
    assert v.alpha == (F(11, 23), F(1, 23), F(8, 23))


def test_level7_case3_algebra():
    v = so3_algebra(7, Embedding(7, 3))
    assert v.eps == (1, 1, 1)
    assert v.multiply(1, 1) == (F(1), F(1), F(1))
    assert v.multiply(1, 2) == (F(0), F(1), F(1))      # e1 e2 = e1 + e2
    assert v.alpha == (F(3, 7), F(-1, 7), F(0))        # (3 - t)/7


def test_unitary_so3_alpha_closed_form():
    # alpha = -(zeta - 1/zeta)^2 / l under e1 -> zeta^2 + 1 + zeta^-2
    from qtoledo.cyclotomic import CycloNum

    for level in (5, 7, 11):
        v = so3_algebra(level, Embedding(level, (level - 1) // 2))
        z = CycloNum.zeta(level)
        e1_image = z ** 2 + 1 + z ** -2
        # check the identification is a ring map: charpoly of M_{e1} kills it
        acc = CycloNum.rational(0)
        m1 = v.mult_matrix(1)
        from qtoledo.linalg import as_matrix

        coeffs = charpoly(as_matrix([[c for c in row] for row in m1]))
        val = CycloNum.rational(0)
        power = CycloNum.rational(1)
        for c in coeffs:
            val = val + c * power
            power = power * e1_image
        assert val.is_zero()
        alpha_img = CycloNum.rational(0)
        power = CycloNum.rational(1)
        # alpha in the power basis of e1
        alpha_poly = _in_powers_of_e1(v, v.alpha)
        for c in alpha_poly:
            alpha_img = alpha_img + c * power
            power = power * e1_image
        closed = -((z - z.inverse()) ** 2) * Fraction(1, level)
        assert alpha_img == closed


def _in_powers_of_e1(v: FrobeniusAlgebra, vec):
    """Coordinates of vec in the basis 1, e1, e1^2, ..."""
    from qtoledo.elimination import solve

    powers = [v.basis(0)]
    for _ in range(v.rank - 1):
        powers.append(v.multiply(powers[-1], 1))
    cols = tuple(zip(*powers))
    return solve([list(c) for c in cols], list(vec))


def test_su2_standard_root_signs():
    for r in (2, 3, 5, 8):
        v = su2_algebra(r, Embedding(4 * r, 1))
        assert v.eps == tuple((-1) ** i for i in range(r - 1))
        for i in range(v.rank):
            for j in range(v.rank):
                for k in range(v.rank):
                    w = v.omega03[i][j][k]
                    if w:
                        assert w == (-1) ** ((i + j + k) // 2)


def test_su2_tridiagonal_product():
    v = su2_algebra(6, Embedding(24, 7))
    for i in range(1, v.rank - 1):
        prod = v.multiply(1, i)
        expected_upper = prod[i + 1]
        assert expected_upper == 1
        assert prod[i - 1] == F(v.eps[i], v.eps[i - 1])


def test_rank_one_su2():
    v = su2_algebra(2, Embedding(8, 1))
    assert v.rank == 1
    for g in range(4):
        assert v.tft_value(g, [0] * 3) == 1


def test_semisimplicity():
    import math
    for level in (5, 7, 9, 11, 13):
        for k in range(1, (level - 1) // 2 + 1):
            if math.gcd(k, level) != 1:
                continue
            v = so3_algebra(level, Embedding(level, k))
            assert v.semisimple_witness() != 0
    # brute-force 4x4 Gram determinant for level 9, exponent 1
    v = so3_algebra(9, Embedding(9, 1))
    gram = v.gram()
    det = _det4(gram)
    assert det == v.semisimple_witness() != 0


def _det4(m):
    import itertools

    n = len(m)
    total = F(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        # count inversions
        inv = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        sign = -1 if inv % 2 else 1
        prod = F(1)
        for i in range(n):
            prod *= m[i][perm[i]]
        total += sign * prod
    return total


def test_alpha_defining_property():
    for level, k in ((5, 1), (7, 1), (7, 2), (7, 3), (9, 2)):
        v = so3_algebra(level, Embedding(level, k))
        for i in range(v.rank):
            assert v.trace(v.multiply(v.alpha, i)) == v.counit(v.basis(i))
        assert v.multiply(v.alpha, v.omega_element) == v.basis(0)
        # the cached alpha and omega are not fields: equality, hash and repr skip them
        fresh = so3_algebra(level, Embedding(level, k))
        assert v == fresh and hash(v) == hash(fresh) and repr(v) == repr(fresh)
        assert "_alpha" not in repr(v)


def test_tft_values():
    v5 = so3_algebra(5, Embedding(5, 1))
    assert v5.tft_value(0, [1, 1, 1]) == 1
    assert v5.tft_value(0, [1] * 6) == 1
    assert v5.tft_value(0, [0, 0, 0]) == 1
    v7 = so3_algebra(7, Embedding(7, 1))
    assert v7.tft_value(1, [0]) == 3
    # permutation invariance and integrality on mixed colors
    assert v7.tft_value(2, [1, 2, 1]) == v7.tft_value(2, [1, 1, 2])


def test_signature_table_fibonacci():
    v = so3_algebra(5, Embedding(5, 1))
    table = signature_table(v, 3, 6)
    expect = {
        (0, 0): (1, 0), (0, 1): (0, 0), (0, 2): (0, 1), (0, 3): (1, 0),
        (0, 4): (1, 1), (0, 5): (1, 2), (0, 6): (3, 2),
        (1, 0): (2, 0), (1, 1): (0, 1), (1, 2): (1, 2), (1, 3): (3, 1),
        (1, 4): (3, 4), (1, 5): (5, 6), (1, 6): (10, 8),
        (2, 0): (4, 1), (2, 1): (1, 4), (2, 2): (5, 5), (2, 3): (9, 6),
        (2, 4): (11, 14), (2, 5): (20, 20), (2, 6): (34, 31),
        (3, 0): (9, 6), (3, 1): (7, 13), (3, 2): (19, 16), (3, 3): (29, 26),
        (3, 4): (42, 48), (3, 5): (74, 71), (3, 6): (119, 116),
    }
    for g in range(4):
        for n in range(7):
            cell = table[g][n]
            assert (cell["p"], cell["q"]) == expect[(g, n)], (g, n)


def test_unitary_sigma_equals_dimension():
    v = so3_algebra(7, Embedding(7, 3))
    partner = unitary_partner(v)
    for g in range(3):
        for colors in ([], [1], [1, 2], [2, 2, 1]):
            assert v.tft_value(g, colors) == partner.tft_value(g, colors)


def test_verlinde_dimensions():
    assert verlinde_dimension(5, 0) == 1
    assert verlinde_dimension(5, 1) == 2
    assert verlinde_dimension(5, 2) == 5
    assert verlinde_dimension(7, 2) == 14


def test_gluing_checks_pass():
    for level, k in ((5, 1), (7, 1), (7, 2)):
        report = gluing_checks(so3_algebra(level, Embedding(level, k)), samples=60, seed=3)
        assert report["passed"], report["failures"][:2]


def test_level5_sigma_recursions():
    # sigma_{g,n+1} = sigma_{g,n} - 3 sigma_{g-1,n} and d_irr + d_{g-1} = d_g
    v = so3_algebra(5, Embedding(5, 1))
    u = unitary_partner(v)
    for g in range(1, 5):
        for n in range(7):
            assert v.tft_value(g, [1] * (n + 1)) == \
                v.tft_value(g, [1] * n) - 3 * v.tft_value(g - 1, [1] * n)
            d_irr = u.tft_value(g - 1, [1] * n + [1, 1])
            assert d_irr + u.tft_value(g - 1, [1] * n) == u.tft_value(g, [1] * n)


def test_multilinear_colors():
    v = so3_algebra(7, Embedding(7, 1))
    mixed = [F(1, 2), F(0), F(3)]
    direct = v.tft_value(1, [mixed, 1])
    expanded = F(1, 2) * v.tft_value(1, [0, 1]) + 3 * v.tft_value(1, [2, 1])
    assert direct == expanded


def test_bad_inputs():
    with pytest.raises(ValueError):
        so3_algebra(4, Embedding(4, 1))
    with pytest.raises(ValueError):
        su2_algebra(1, Embedding(4, 1))
    with pytest.raises(ValueError):
        so3_algebra(7, Embedding(5, 1))
    v = so3_algebra(7, Embedding(7, 1))
    with pytest.raises(ValueError, match="genus must be nonnegative"):
        v.tft_value(-1, [1])
    with pytest.raises(ValueError, match="genus must be nonnegative"):
        v.tft_scaled(-1, v.scaled(1))


def _tables(eps, omega):
    """FrobeniusAlgebra straight from its tables; the constructor runs the structural checks."""
    rank = len(eps)
    return FrobeniusAlgebra("so3", 2 * rank + 1, Embedding(2 * rank + 1, 1), rank, tuple(eps),
                            tuple(tuple(tuple(row) for row in m) for m in omega))


def _flip_orbit(omega, triple):
    """omega with the sign of every permutation of one index triple flipped."""
    out = [[list(row) for row in m] for m in omega]
    for i, j, k in set(itertools.permutations(triple)):
        out[i][j][k] = -out[i][j][k]
    return out


def _relabel(v, perm):
    """The tables of v in the basis e'_a = e_perm[a]."""
    r = range(v.rank)
    return ([v.eps[perm[a]] for a in r],
            [[[v.omega03[perm[a]][perm[b]][perm[c]] for c in r] for b in r] for a in r])


def test_tables_pass_the_structural_checks():
    # unitary Fibonacci: t^2 = 1 + t
    assert _tables([1, 1], [[[1, 0], [0, 1]], [[0, 1], [1, 1]]]).multiply(1, 1) == (F(1), F(1))
    v = so3_algebra(7, Embedding(7, 3))
    assert _tables(v.eps, v.omega03).gram() == v.gram()


@pytest.mark.parametrize("eps, omega, message", [
    ([-1, 1], [[[-1, 0], [0, 1]], [[0, 1], [1, 1]]], "unit sign must be +1"),
    ([1, 1], [[[1, 0], [0, -1]], [[0, 1], [1, 1]]], "omega03(0,j,k) must reproduce eta"),
    ([1, 1], [[[1, 0], [0, 1]], [[0, 1], [-1, 1]]], "omega03 is not fully symmetric"),
    # eta weights that are not signs: e_0 e_1 = 4 e_1
    ([1, 2], [[[1, 0], [0, 2]], [[0, 2], [2, 0]]], "unit law fails"),
    (so3_algebra(7, Embedding(7, 3)).eps, _flip_orbit(so3_algebra(7, Embedding(7, 3)).omega03, (1, 1, 1)),
     "multiplication by e_2 does not commute with multiplication by e_1"),
    # e_1 <-> e_2 at level 9: e_1 e_1 reaches e_3
    (*_relabel(so3_algebra(9, Embedding(9, 4)), [0, 2, 1, 3]), "multiplication by e_1 is not tridiagonal"),
    # group algebra of Z/2 x Z/2: e_1 swaps e_0 <-> e_1 and e_2 <-> e_3, so (1, 2) is zero
    ([1] * 4, [[[int(i ^ j ^ k == 0) for k in range(4)] for j in range(4)] for i in range(4)],
     "multiplication by e_1 is not tridiagonal-nonzero"),
])
def test_structural_checks_refuse_one_defect(eps, omega, message):
    with pytest.raises(ValueError) as err:
        _tables(eps, omega)
    assert str(err.value) == message


def _orbit_changes(omega):
    """omega with one orbit of index triples changed: a nonzero value negated, a zero set to +1 or -1."""
    for triple in itertools.combinations_with_replacement(range(len(omega)), 3):
        i, j, k = triple
        value = omega[i][j][k]
        for new in (-value,) if value else (1, -1):
            out = [[list(row) for row in m] for m in omega]
            for a, b, c in set(itertools.permutations(triple)):
                out[a][b][c] = new
            yield triple, out


@pytest.mark.parametrize("level, k, changes", [(9, 2, 29), (11, 3, 52), (13, 2, 85)])
def test_every_one_orbit_change_is_refused_by_the_checks_and_the_loop(level, k, changes):
    # the commutation certificate refuses what the O(r^5) associativity loop
    # refuses; orbits through 0 are refused earlier, by the eta check
    v = so3_algebra(level, Embedding(level, k))
    seen = 0
    for triple, omega in _orbit_changes(v.omega03):
        seen += 1
        assert associativity_defect(v.eps, omega) is not None, triple
        with pytest.raises(ValueError):
            _tables(v.eps, omega)
    assert seen == changes


def _sine_ratio_sign(m: int, k: int, n: int) -> int:
    """Sign of [m] = sin(2 pi k m/n) / sin(2 pi k/n), in floating point."""
    ratio = math.sin(2 * math.pi * k * m / n) / math.sin(2 * math.pi * k / n)
    assert abs(ratio) > 1e-6
    return 1 if ratio > 0 else -1


def test_eta_signs_match_float_sine_ratios():
    # independent oracle for the exact residue signs, at every embedding
    for level in range(3, 22, 2):
        for k in range(1, level):
            if math.gcd(k, level) == 1:
                v = so3_algebra(level, Embedding(level, k))
                assert v.eps == tuple(_sine_ratio_sign(2 * i + 1, k, level) for i in range(v.rank))
                assert v.rank < 2 or v.omega03[1][1][1] == 1
    for r in range(2, 11):
        for k in range(1, 4 * r):
            if math.gcd(k, 4 * r) == 1:
                # quantum integers at q = A^2 with A = exp(2 pi i k/4r)
                v = su2_algebra(r, Embedding(4 * r, k))
                assert v.eps == tuple((-1) ** i * _sine_ratio_sign(i + 1, 2 * k, 4 * r)
                                      for i in range(v.rank))


# -- the integer kernel against a plain Fraction triple loop -------------------

KERNEL_ALGEBRAS = (
    [("so3", level, k) for level in range(3, 14, 2) for k in range(1, level) if math.gcd(k, level) == 1]
    + [("su2", r, k) for r in range(2, 7) for k in range(1, 4 * r) if math.gcd(k, 4 * r) == 1]
)


@functools.lru_cache(maxsize=None)
def _kernel_algebra(family, n, k):
    if family == "so3":
        return so3_algebra(n, Embedding(n, k))
    return su2_algebra(n, Embedding(4 * n, k))


def test_the_associativity_loop_accepts_every_built_algebra():
    # the constructor certifies associativity by commutation with M_1; the
    # O(r^5) loop agrees on every so3 and su2 algebra the kernel tests draw
    for family, n, k in KERNEL_ALGEBRAS:
        v = _kernel_algebra(family, n, k)
        assert associativity_defect(v.eps, v.omega03) is None, (family, n, k)


@st.composite
def algebra_and_vectors(draw, count):
    v = _kernel_algebra(*draw(st.sampled_from(KERNEL_ALGEBRAS)))
    coeff = st.fractions(min_value=-20, max_value=20, max_denominator=30)
    return v, [tuple(draw(st.lists(coeff, min_size=v.rank, max_size=v.rank))) for _ in range(count)]


def _plain_multiply(v, u, w):
    """u w from the defining tables: e_i e_j = sum_k omega03(i, j, k) eps_k e_k."""
    r = range(v.rank)
    out = [F(0)] * v.rank
    for i in r:
        for j in r:
            for k in r:
                out[k] += u[i] * w[j] * v.omega03[i][j][k] * v.eps[k]
    return tuple(out)


@settings(max_examples=80, deadline=None)
@given(algebra_and_vectors(2))
def test_kernel_matches_a_plain_fraction_loop(case):
    v, (u, w) = case
    assert v.multiply(u, w) == _plain_multiply(v, u, w)
    assert v.eta(u, w) == sum((u[i] * w[i] * v.eps[i] for i in range(v.rank)), F(0))
    # the trace of multiplication by u, read off the diagonal of its matrix
    assert v.trace(u) == sum((_plain_multiply(v, u, v.basis(j))[j] for j in range(v.rank)), F(0))
    assert all(type(c) is Fraction for c in v.multiply(u, w))


@settings(max_examples=60, deadline=None)
@given(algebra_and_vectors(3), st.integers(0, 3), st.lists(st.integers(0, 2), max_size=3))
def test_tft_value_matches_fraction_products(case, genus, extra):
    # scaled products and the cached genus-g trace form against Fraction vector products
    v, vectors = case
    colors = vectors + [c % v.rank for c in extra]
    got = v.tft_value(genus, colors)
    assert got == tft_value(v, genus, colors) and type(got) is Fraction


def test_out_of_range_colors_are_refused():
    v = so3_algebra(5, Embedding(5, 1))
    for bad in (2, -1, 9):
        with pytest.raises(ValueError, match=f"color {bad} is out of range for an algebra of rank 2"):
            v.basis(bad)
        with pytest.raises(ValueError, match=f"color {bad} is out of range"):
            v.tft_value(0, [1, 1, bad])
    for bad in ((F(1),), (F(1), F(0), F(0))):
        with pytest.raises(ValueError, match=f"vector of length {len(bad)} for an algebra of rank 2"):
            v.as_vector(bad)
        with pytest.raises(ValueError, match="vector of length"):
            v.multiply(bad, 1)
    vec = (F(1, 2), F(3))
    assert v.as_vector(vec) is vec
    assert v.as_vector([1, F(1, 2)]) == (F(1), F(1, 2))
