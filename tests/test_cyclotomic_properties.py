"""Property tests for the integer-numerator CycloNum arithmetic.

Random elements come from Hypothesis; sympy serves as an independent
oracle for products and inverses (reduction mod Phi_N in Q[x]), and mpmath
for certified signs.
"""

import math
from fractions import Fraction

import mpmath
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from qtoledo.cyclotomic import (
    CycloNum,
    Embedding,
    conjugate,
    cyclo_from_json,
    cyclo_to_json,
    euler_phi,
    galois,
    sign_real,
)
from qtoledo.embedding import frac_to_json


def units(n):
    """The exponents k in 1..n coprime to n: the Galois group of Q(zeta_n)."""
    return [k for k in range(1, n + 1) if math.gcd(k, n) == 1]


ORDERS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 15, 20, 22, 33, 66)
SETTINGS = settings(max_examples=60, deadline=None)

coefficients = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)


@st.composite
def elements(draw, orders=ORDERS, nonzero=False):
    order = draw(st.sampled_from(orders))
    phi = euler_phi(order)
    if draw(st.booleans()):
        # sparse: a few nonzero terms, often a monomial (root of unity times a scalar)
        coeffs = [0] * phi
        for j in draw(st.lists(st.integers(0, phi - 1), min_size=1, max_size=3)):
            coeffs[j] = draw(coefficients)
    else:
        coeffs = draw(st.lists(coefficients, min_size=phi, max_size=phi))
    a = CycloNum(order, coeffs)
    if nonzero and a.is_zero():
        a = a + 1
    return a


def assert_lowest_terms(a: CycloNum):
    assert len(a.nums) == euler_phi(a.order)
    assert all(type(c) is int for c in a.nums)
    assert a.den > 0
    assert math.gcd(a.den, *a.nums) == 1
    if a.is_zero():
        assert a.den == 1


# -- field axioms, mixed orders included ---------------------------------------


@SETTINGS
@given(elements(), elements(), elements())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + 0 == a and a * 1 == a
    assert (a - a).is_zero() and a + (-a) == 0
    assert (a * 0).is_zero()
    for x in (a + b, a - b, a * b, -a, a * c + b):
        assert_lowest_terms(x)


@SETTINGS
@given(elements(nonzero=True), elements())
def test_inverse_and_division(a, b):
    inv = a.inverse()
    assert_lowest_terms(inv)
    assert a * inv == 1
    assert inv.inverse() == a
    assert (b / a) * a == b
    assert a ** -2 == inv * inv


@SETTINGS
@given(elements(), elements())
def test_mixed_orders_lift(a, b):
    n = math.lcm(a.order, b.order)
    la, lb = a.lift(n), b.lift(n)
    assert_lowest_terms(la)
    assert la == a and lb == b
    assert (a * b).order == n
    assert (a * b).nums == (la * lb).nums and (a * b).den == (la * lb).den
    assert (a + b).nums == (la + lb).nums and (a + b).den == (la + lb).den


@SETTINGS
@given(st.fractions(min_value=-50, max_value=50, max_denominator=30))
def test_rationals(v):
    a = CycloNum.rational(v)
    assert_lowest_terms(a)
    assert a.rational_value() == v and a == v and a.coeffs == (v,)
    assert a.lift(12) == v and a.lift(12).is_rational()


# -- Galois action ---------------------------------------------------------------


@SETTINGS
@given(st.sampled_from(ORDERS).flatmap(lambda n: st.tuples(
    elements((n,)), elements((n,)), st.sampled_from(units(n)),
    st.sampled_from(units(n)))))
def test_galois_is_a_ring_homomorphism(data):
    a, b, k, l = data
    assert galois(a + b, k) == galois(a, k) + galois(b, k)
    assert galois(a * b, k) == galois(a, k) * galois(b, k)
    assert galois(galois(a, l), k) == galois(a, k * l % a.order)
    assert_lowest_terms(galois(a, k))
    assert conjugate(conjugate(a)) == a
    assert (a * conjugate(a)).is_conjugation_fixed()


# -- encoding --------------------------------------------------------------------


@SETTINGS
@given(elements())
def test_json_round_trip(a):
    data = cyclo_to_json(a)
    back = cyclo_from_json(data)
    assert back.order == a.order and back.nums == a.nums and back.den == a.den
    assert all(Fraction(s) == c for s, c in zip(data["coeffs"], a.coeffs))


@SETTINGS
@given(elements(orders=(1, 5, 12, 13, 66)), st.sampled_from((1, -1, 3 ** 60, -(7 ** 45))),
       st.integers(1, 2 ** 80))
def test_json_coefficients_are_the_fractions_in_lowest_terms(a, scale, den):
    # zero, negative and large numerators over large denominators: the strings
    # read off the integer normal form equal frac_to_json of each coefficient
    for b in (a, a * Fraction(scale, den), CycloNum.rational(0).lift(a.order)):
        assert cyclo_to_json(b)["coeffs"] == [frac_to_json(c) for c in b.coeffs]


@SETTINGS
@given(elements())
def test_coeffs_are_the_fractions_of_the_normal_form(a):
    assert a.coeffs == tuple(Fraction(c, a.den) for c in a.nums)
    assert CycloNum(a.order, a.coeffs).nums == a.nums


# -- sympy oracle ----------------------------------------------------------------

X = sympy.Symbol("x")
ORACLE_SETTINGS = settings(max_examples=25, deadline=None)


def to_sympy(a: CycloNum):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(a.coeffs)],
                      X, domain="QQ")


def from_sympy(order: int, p) -> tuple[Fraction, ...]:
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())]
    coeffs += [Fraction(0)] * (euler_phi(order) - len(coeffs))
    return tuple(coeffs)


def modulus(order: int):
    return sympy.Poly(sympy.cyclotomic_poly(order, X), X, domain="QQ")


@ORACLE_SETTINGS
@given(st.sampled_from(ORDERS[2:]).flatmap(lambda n: st.tuples(elements((n,)), elements((n,)))))
def test_products_against_sympy(pair):
    a, b = pair
    expected = from_sympy(a.order, sympy.rem(to_sympy(a) * to_sympy(b), modulus(a.order)))
    assert (a * b).coeffs == expected


@ORACLE_SETTINGS
@given(elements(ORDERS[2:], nonzero=True))
def test_inverses_against_sympy(a):
    expected = from_sympy(a.order, sympy.invert(to_sympy(a), modulus(a.order)))
    assert a.inverse().coeffs == expected


# -- mpmath oracle -----------------------------------------------------------------


@ORACLE_SETTINGS
@given(elements(ORDERS[2:]), st.data())
def test_sign_real_against_mpmath(a, data):
    # a real element a + 1/a, less a dyadic rational up to 2^-100 below its
    # image, so that some signs need more than 64 bits
    n = a.order
    k = data.draw(st.sampled_from(units(n)))
    real = a + conjugate(a)
    with mpmath.workprec(400):
        image = sum(mpmath.mpf(c) * mpmath.cos(2 * mpmath.pi * (j * k % n) / n)
                    for j, c in enumerate(real.nums)) / real.den
        shift = data.draw(st.sampled_from((0, 30, 70, 100)))
        approx = Fraction(int(mpmath.floor(image * 2 ** shift)), 2 ** shift)
        real = real - approx
        image -= mpmath.mpf(approx.numerator) / approx.denominator
        got = sign_real(real, Embedding(n, k))
        if real.is_zero():
            assert got == 0
        else:
            assert abs(image) > mpmath.mpf(2) ** -300
            assert got == (1 if image > 0 else -1)
