from fractions import Fraction

import pytest
from oracles import chi_bar_coeffs

from qtoledo.eulerchi import ChiPoly, bernoulli, chi_bar, chi_twisted, harer_zagier

F = Fraction


def test_bernoulli():
    assert [bernoulli(k) for k in range(7)] == \
        [F(1), F(-1, 2), F(1, 6), F(0), F(-1, 30), F(0), F(1, 42)]


def test_harer_zagier():
    assert harer_zagier(1, 1) == F(-1, 12)
    assert harer_zagier(0, 5) == 2
    assert harer_zagier(0, 4) == -1
    assert harer_zagier(2, 0) == F(-1, 240)
    assert harer_zagier(1, 2) == F(1, 12)
    with pytest.raises(ValueError):
        harer_zagier(1, 0)


def test_chi_bar_anchors():
    assert chi_bar(0, 4).coeffs == (F(-1), F(3))
    assert chi_bar(0, 5).coeffs == (F(2), F(-10), F(15))
    assert chi_bar(1, 1).coeffs == (F(-1, 12), F(1, 2))


def test_chi_bar_specializations():
    # kappa = 1 gives the untwisted compactification
    assert chi_bar(0, 4)(1) == 2          # the projective line
    assert chi_bar(1, 1)(1) == F(5, 12)   # orbifold count with the elliptic involution
    assert chi_bar(0, 5)(1) == 7          # degree-five del Pezzo surface
    assert chi_bar(0, 6)(1) == 34
    assert chi_bar(2, 0)(1) == F(119, 1440)
    # constant term is the open space
    for g, n in ((0, 4), (1, 1), (1, 2), (2, 0), (2, 3)):
        assert chi_bar(g, n)(0) == harer_zagier(g, n)


def test_chi_bar_degrees():
    for g in range(3):
        for n in range(6):
            if 2 * g - 2 + n <= 0:
                continue
            assert chi_bar(g, n).degree == 3 * g - 3 + n, (g, n)


def test_chi_twisted():
    assert chi_twisted(0, 5, 5) == F(3, 5)
    for level in range(1, 11):
        assert chi_twisted(1, 1, level) == F(1, 2 * level) - F(1, 12)
    assert chi_twisted(1, 1, 5) == F(1, 60)
    assert chi_twisted(0, 4, 1) == 2


def test_chi_poly_validation():
    with pytest.raises(ValueError):
        ChiPoly(0, 4, (F(0), F(3)))  # wrong constant term
    with pytest.raises(ValueError):
        ChiPoly(0, 4, (F(-1), F(3), F(1), F(1)))  # degree too large
    with pytest.raises(ValueError):
        chi_twisted(0, 4, 0)


def test_polynomial_str():
    assert str(chi_bar(0, 5)) == "2 + -10*kappa + 15*kappa^2"


def test_chi_bar_matches_the_fraction_polynomial_recursion():
    # integer sums over one denominator against Fraction polynomial sums and products
    for g in range(4):
        for n in range(8):
            if 2 * g - 2 + n <= 0:
                continue
            want = list(chi_bar_coeffs(g, n))
            while len(want) > 1 and want[-1] == 0:
                want.pop()
            got = chi_bar(g, n).coeffs
            assert got == tuple(want), (g, n)
            assert all(type(c) is Fraction for c in got)
