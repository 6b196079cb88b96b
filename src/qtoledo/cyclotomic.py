"""Exact arithmetic in cyclotomic fields Q(zeta_N).

An element is stored in the power basis of Q[x]/Phi_N(x) as a tuple of
integer numerators over one positive common denominator, in lowest terms
(gcd(den, *nums) == 1).  That normal form is unique, so equality within
one field is a tuple comparison, and every ring operation runs in plain
int arithmetic: products by Kronecker substitution (both operands packed
into one Python int) followed by reduction with the sparse rows
x^m mod Phi_N, inverses by an integer extended Euclid on (Phi_N, a).
Mixed-order arithmetic lifts both operands to Q(zeta_lcm).  A power of a
root of unity zeta^j and a quantum integer at q = zeta^j are read from the
table of rows x^m mod Phi_N, with no multiplication.

Real elements (fixed by zeta -> 1/zeta) get a certified sign under a chosen
complex embedding zeta -> exp(2 pi i k / N), in integer arithmetic only.
Zero and rational elements are decided exactly.  Otherwise the sign comes
from integer bounds lo_j <= 2^b cos(2 pi j k / N) <= hi_j, taken only for
the j of nonzero coefficients, each cached per (j k mod N, N, b) and built
in fixed point: pi from Machin's formula, the cosine from its Taylor series
after folding the angle into [0, pi/2], every step rounded outward.  The
image of the element then lies in one integer interval dot product; its
precision b doubles from 64 bits up to MAX_SIGN_BITS until the interval
excludes zero.

The signs of quantum integers are read off exact residues instead, and so
are the SO3 fusion structure signs (`so3_structure_sign`) that both the
fusion algebras and the torus representations start from.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from ._record import Record

#: hard cap for the precision of a certified sign, in bits
MAX_SIGN_BITS = 16384


def _poly_divmod_int(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    # exact division of integer polynomials, used only where it is known exact
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for k in range(len(num) - len(den), -1, -1):
        c, r = divmod(num[len(den) - 1 + k], den[-1])
        if r:
            raise ArithmeticError("non-exact polynomial division")
        q[k] = c
        for j, d in enumerate(den):
            num[j + k] -= c * d
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return q, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, low degree first."""
    if n < 1:
        raise ValueError("order must be positive")
    if n == 1:
        return (-1, 1)
    poly = [0] * n + [1]
    poly[0] = -1  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _poly_divmod_int(poly, list(cyclotomic_polynomial(d)))
            if rem != [0]:
                raise ArithmeticError("cyclotomic recursion failed")
    return tuple(poly)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple[tuple[int, ...], ...]:
    """x^m mod Phi_n for m = 0, ..., n-1, as integer coefficient rows."""
    phi = euler_phi(n)
    mod = cyclotomic_polynomial(n)
    rows = []
    cur = [0] * phi
    cur[0] = 1
    for _ in range(n):
        rows.append(tuple(cur))
        shifted = [0] + cur[: phi - 1]
        lead = cur[phi - 1]
        if lead:
            # x^phi = -(mod[0] + ... + mod[phi-1] x^{phi-1}), Phi is monic
            for j in range(phi):
                shifted[j] -= lead * mod[j]
        cur = shifted
    return tuple(rows)


@lru_cache(maxsize=None)
def _root_index(n: int) -> dict[tuple[int, ...], int]:
    """The exponent m of zeta_n^m, keyed by the row x^m mod Phi_n."""
    return {row: m for m, row in enumerate(_power_table(n))}


def _root_exponent(a: "CycloNum") -> int | None:
    """m with a = zeta^m in Q(zeta_order), or None if a is no such power."""
    return _root_index(a.order).get(a.nums) if a.den == 1 else None


@lru_cache(maxsize=None)
def _sparse_power_table(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The rows of _power_table(n) as (index, coefficient) pairs of nonzeros."""
    return tuple(tuple((k, c) for k, c in enumerate(row) if c) for row in _power_table(n))


def _reduce(n: int, prod: list[int]) -> list[int]:
    """prod (a polynomial of degree < 2 phi(n)) reduced mod Phi_n, in place.

    Each term c x^m of degree m >= phi(n) is replaced by c (x^m mod Phi_n),
    read from the sparse power table.
    """
    phi = euler_phi(n)
    table = _sparse_power_table(n)
    for m in range(phi, len(prod)):
        c = prod[m]
        if c:
            for k, p in table[m % n]:
                prod[k] += c * p
    del prod[phi:]
    return prod


def _poly_mul_int(a, b) -> list[int]:
    """The product of two nonzero integer polynomials, by Kronecker substitution.

    Both are evaluated at 2^k, with k wide enough that every product
    coefficient fits in k - 1 bits plus a sign; one int multiply then gives
    the product, read back as signed base-2^k digits.
    """
    k = (max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))).bit_length() + 2
    pa = 0
    for c in reversed(a):
        pa = (pa << k) + c
    pb = 0
    for c in reversed(b):
        pb = (pb << k) + c
    v = pa * pb
    mask, half, full = (1 << k) - 1, 1 << (k - 1), 1 << k
    out = []
    for _ in range(len(a) + len(b) - 1):
        d = v & mask
        v >>= k
        if d >= half:
            d -= full
            v += 1
        out.append(d)
    return out


def _trim_int(p) -> list[int]:
    out = list(p)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _inverse_int(n: int, a) -> tuple[list[int], int]:
    """Integers s, g with s*a = g mod Phi_n and g != 0, for a != 0.

    The extended Euclidean algorithm on (Phi_n, a) by pseudo-division: each
    elimination step scales the dividend by lc/gcd(lc, c) instead of
    dividing, and every remainder is freed of the integer content it shares
    with its cofactor, so no rational number ever appears.  The invariant
    r = s*a mod Phi_n holds for every (r, s) pair.
    """
    r0, s0 = list(cyclotomic_polynomial(n)), [0]
    r1, s1 = _trim_int(a), [1]
    while len(r1) > 1:
        lc, width = r1[-1], len(r1)
        r, s = r0, s0
        while len(r) >= width:
            c = r[-1]
            shift = len(r) - width
            g = math.gcd(lc, c)
            u, v = lc // g, c // g
            r = [u * x for x in r] if u != 1 else list(r)
            s = [u * x for x in s] if u != 1 else list(s)
            for j, y in enumerate(r1, shift):
                r[j] -= v * y
            if len(s) < shift + len(s1):
                s.extend([0] * (shift + len(s1) - len(s)))
            for j, y in enumerate(s1, shift):
                s[j] -= v * y
            r.pop()  # the leading term is now eliminated
        r, s = _trim_int(r), _trim_int(s)
        g = math.gcd(*r, *s)
        if g > 1:
            r, s = [x // g for x in r], [x // g for x in s]
        r0, s0, r1, s1 = r1, s1, r, s
    if not r1[0]:
        raise ArithmeticError("element not invertible (Phi_N should be irreducible)")
    return s1, r1[0]


class CycloNum:
    """An element of Q(zeta_N): nums[j]/den is the coefficient of zeta_N^j.

    Stored in lowest terms: den > 0, gcd(den, *nums) == 1, and zero is
    (0, ..., 0)/1.  The constructor accepts ints and Fractions; `coeffs`
    gives the coefficients back as Fractions.
    """

    __slots__ = ("order", "nums", "den")

    def __init__(self, order: int, coeffs):
        phi = euler_phi(order)
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != phi:
            raise ValueError(f"need {phi} coefficients for order {order}, got {len(coeffs)}")
        den = math.lcm(*(c.denominator for c in coeffs))
        _init(self, order, tuple(c.numerator * (den // c.denominator) for c in coeffs), den)

    def __setattr__(self, *args):
        raise AttributeError("CycloNum is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(c, den) for c in self.nums)

    # -- constructors -------------------------------------------------

    @staticmethod
    def rational(value) -> "CycloNum":
        if type(value) is int:
            return _from_ints(1, (value,), 1)
        value = Fraction(value)
        return _from_ints(1, (value.numerator,), value.denominator)

    @staticmethod
    def zeta(order: int, power: int = 1) -> "CycloNum":
        return _from_ints(order, _power_table(order)[power % order], 1)

    # -- order management ---------------------------------------------

    def lift(self, order: int) -> "CycloNum":
        """Rewrite in Q(zeta_order); requires self.order | order."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError("can only lift to a multiple of the current order")
        return _from_ints(order, _map_powers(self.nums, order, order // self.order), self.den)

    @staticmethod
    def unify(a: "CycloNum", b: "CycloNum") -> tuple["CycloNum", "CycloNum"]:
        if a.order == b.order:
            return a, b
        n = math.lcm(a.order, b.order)
        return a.lift(n), b.lift(n)

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "CycloNum":
        a, b = CycloNum.unify(self, _coerce(other))
        da, db = a.den, b.den
        if da == db:
            nums = tuple(x + y for x, y in zip(a.nums, b.nums))
        else:
            g = math.gcd(da, db)
            fa, fb = db // g, da // g
            nums = tuple(x * fa + y * fb for x, y in zip(a.nums, b.nums))
            da *= fa
        return _from_ints(a.order, nums, da)

    __radd__ = __add__

    def __neg__(self) -> "CycloNum":
        return _from_ints(self.order, tuple(-c for c in self.nums), self.den)

    def __sub__(self, other) -> "CycloNum":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "CycloNum":
        return _coerce(other) - self

    def __mul__(self, other) -> "CycloNum":
        other = _coerce(other)
        if self.order == 1 or other.order == 1:
            # scaling by a rational needs no reduction
            if self.order == 1:
                self, other = other, self
            c = other.nums[0]
            return _from_ints(self.order, tuple(c * x for x in self.nums), self.den * other.den)
        a, b = CycloNum.unify(self, other)
        n, phi = a.order, len(a.nums)
        an, bn = _trim_int(a.nums), _trim_int(b.nums)
        if not (an[-1] and bn[-1]):
            return _from_ints(n, (0,) * phi, 1)
        prod = _reduce(n, _poly_mul_int(an, bn))
        return _from_ints(n, tuple(prod) + (0,) * (phi - len(prod)), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycloNum":
        """Field inverse via an integer extended Euclid mod Phi_N."""
        nums, n = self.nums, self.order
        support = [j for j, c in enumerate(nums) if c]
        if not support:
            raise ZeroDivisionError("inversion of zero cyclotomic element")
        if len(support) == 1:
            # (c/den) zeta^j has inverse (den/c) zeta^-j
            j = support[0]
            return _from_ints(n, tuple(self.den * x for x in _power_table(n)[-j % n]), nums[j])
        s, g = _inverse_int(n, nums)  # deg s < phi(n), as in any extended Euclid
        s += [0] * (len(nums) - len(s))
        return _from_ints(n, tuple(self.den * x for x in s), g)

    def __truediv__(self, other) -> "CycloNum":
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other) -> "CycloNum":
        return _coerce(other) * self.inverse()

    def __pow__(self, n: int) -> "CycloNum":
        if n == 0:
            return CycloNum.rational(1)
        m = _root_exponent(self)
        if m is not None:
            return CycloNum.zeta(self.order, m * n)
        if n < 0:
            return self.inverse() ** (-n)
        result = CycloNum.rational(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, CycloNum):
            a, b = CycloNum.unify(self, other)
            return a.den == b.den and a.nums == b.nums
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            return (self.den == other.denominator and self.nums[0] == other.numerator
                    and not any(self.nums[1:]))
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        terms = [f"{c}*z{self.order}^{j}" for j, c in enumerate(self.coeffs) if c]
        return " + ".join(terms) if terms else "0"

    # -- predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __bool__(self) -> bool:
        return any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self.nums[0], self.den)

    def is_conjugation_fixed(self) -> bool:
        return conjugate(self) == self


_set_order = CycloNum.order.__set__
_set_nums = CycloNum.nums.__set__
_set_den = CycloNum.den.__set__


def _init(obj: CycloNum, order: int, nums: tuple[int, ...], den: int):
    # bring integer numerators over a nonzero denominator to lowest terms
    g = math.gcd(den, *nums)
    if den < 0:
        g = -g
    if g != 1:
        nums = tuple(c // g for c in nums)
        den //= g
    _set_order(obj, order)
    _set_nums(obj, nums)
    _set_den(obj, den)


def _from_ints(order: int, nums: tuple[int, ...], den: int) -> CycloNum:
    """A CycloNum from integer numerators over a nonzero denominator."""
    obj = object.__new__(CycloNum)
    _init(obj, order, nums, den)
    return obj


def _map_powers(nums, order: int, step: int) -> tuple[int, ...]:
    """Numerators of sum nums[j] zeta^(j*step) in the power basis of Q(zeta_order)."""
    table = _sparse_power_table(order)
    out = [0] * euler_phi(order)
    for j, c in enumerate(nums):
        if c:
            for k, p in table[(j * step) % order]:
                out[k] += c * p
    return tuple(out)


def _coerce(value) -> CycloNum:
    if isinstance(value, CycloNum):
        return value
    if isinstance(value, (int, Fraction)):
        return CycloNum.rational(value)
    raise TypeError(f"cannot coerce {type(value)!r} into a cyclotomic number")


# -- Galois action -------------------------------------------------------

def galois(a: CycloNum, k: int) -> CycloNum:
    """Apply zeta -> zeta^k; k must be coprime to the order."""
    n = a.order
    if math.gcd(k, n) != 1:
        raise ValueError(f"exponent {k} is not coprime to the order {n}")
    return _from_ints(n, _map_powers(a.nums, n, k), a.den)


def conjugate(a: CycloNum) -> CycloNum:
    """The involution zeta -> 1/zeta (complex conjugation in any embedding)."""
    return galois(a, a.order - 1) if a.order > 1 else a


# -- quantum integers -----------------------------------------------------

def quantum_int(n: int, q: CycloNum) -> CycloNum:
    """[n] = (q^n - q^-n)/(q - q^-1) = q^(n-1) + q^(n-3) + ... + q^(1-n).

    For q = zeta^m the n terms are rows of the power table, summed as
    integers; otherwise the telescoped sum is multiplied out.  [1] is the
    rational 1, like q^0.
    """
    if n == 0:
        return CycloNum.rational(0)
    if n < 0:
        return -quantum_int(-n, q)
    if n == 1:
        return CycloNum.rational(1)
    m = _root_exponent(q)
    if m is not None:
        order, rows = q.order, _power_table(q.order)
        terms = (rows[m * (n - 1 - 2 * k) % order] for k in range(n))
        return _from_ints(order, tuple(map(sum, zip(*terms))), 1)
    total = CycloNum.rational(0)
    power = q ** (n - 1)
    qinv2 = (q * q).inverse()
    for _ in range(n):
        total = total + power
        power = power * qinv2
    return total


# -- embeddings and certified signs ---------------------------------------

class Embedding(Record):
    """zeta_order -> exp(2*pi*i*exponent/order)."""

    order: int
    exponent: int

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be positive")
        given = self.exponent
        object.__setattr__(self, "exponent", given % self.order if self.order > 1 else 0)
        k = self.exponent if self.order > 1 else 1
        if math.gcd(k if k else self.order, self.order) != 1:
            raise ValueError(f"exponent {given} not coprime to {self.order}")

    def extend(self, order: int) -> "Embedding":
        """An embedding of Q(zeta_order) restricting to this one (order multiple)."""
        if order % self.order:
            raise ValueError("extension order must be a multiple")
        if order == self.order:
            return self
        k = self.exponent if self.order > 1 else 1
        while math.gcd(k, order) != 1:
            k += self.order
        return Embedding(order, k)


def _atan_inv_fixed(n: int, w: int) -> tuple[int, int]:
    """(t, e) with |t - 2^w atan(1/n)| <= e, for an integer n >= 2.

    atan(1/n) = sum_i (-1)^i / ((2i+1) n^(2i+1)).  Nested floor divisions of
    positive integers compose, so term i is floor(2^w / ((2i+1) n^(2i+1))),
    less than 1 below its true value.  Summing stops at the first zero
    power; the alternating, decreasing tail from there is less than 1.  So
    e is the number of terms taken plus one.
    """
    power, n2 = (1 << w) // n, n * n
    total = i = 0
    while power:
        term = power // (2 * i + 1)
        total += -term if i & 1 else term
        power //= n2
        i += 1
    return total, i + 1


@lru_cache(maxsize=None)
def _pi_fixed(w: int) -> tuple[int, int]:
    """(p, e) with |p - 2^w pi| <= e, by Machin's pi = 16 atan(1/5) - 4 atan(1/239)."""
    a, ea = _atan_inv_fixed(5, w)
    b, eb = _atan_inv_fixed(239, w)
    return 16 * a - 4 * b, 16 * ea + 4 * eb


@lru_cache(maxsize=None)
def _cos_fixed(m: int, n: int, bits: int) -> tuple[int, int]:
    """Integers lo <= 2^bits cos(2 pi m / n) <= hi, with hi - lo at most 3.

    The angle is folded into x = pi a / c in [0, pi/2] (cos is even, has
    period 2 pi and cos(pi - x) = -cos x); cos 0 = 1 and cos(pi/2) = 0 are
    exact.  Otherwise every quantity is carried as an integer interval at
    scale 2^w, w = bits + guard, whose lower end is rounded down and upper
    end up:

    - y = x / 2^r from the bounds p -+ e on 2^w pi (_pi_fixed), and y^2;
    - the Taylor terms y^(2i) / (2i)!, each the previous one times
      y^2 / ((2i-1) 2i), summed with the lower or upper end of each term as
      its sign asks.  Summing stops once a term's upper end is at most 1;
      the terms decrease (y^2 < 12), so the tail after it is smaller than
      that term and widens the interval by 1 on each side;
    - r doublings cos 2y = 2 cos^2 y - 1, increasing on the positive cosines
      of angles below pi/2; each at most quadruples the width.

    The r = isqrt(bits) / 2 halvings cut the number of Taylor terms several
    times over at high precision; the guard bits absorb the 4^r growth and
    the roundings, so the result, rounded outward to 2^bits, is at most 3
    wide.
    """
    m %= n
    a, c = 2 * min(m, n - m), n  # cos(2 pi m / n) = cos(pi a / c), a / c in [0, 1]
    sign = 1
    if 2 * a > c:
        a, sign = c - a, -1
    if a == 0:
        return sign << bits, sign << bits
    if 2 * a == c:
        return 0, 0
    r = math.isqrt(bits) // 2
    guard = bits.bit_length() + 2 * r + 24
    w = bits + guard
    p, e = _pi_fixed(w)
    y_lo, y_hi = (p - e) * a // (c << r), -(-(p + e) * a // (c << r))
    y2_lo, y2_hi = y_lo * y_lo >> w, -(-y_hi * y_hi >> w)
    one = 1 << w
    t_lo = t_hi = lo = hi = one
    i = 0
    while t_hi > 1:
        i += 1
        d = (2 * i - 1) * 2 * i
        t_lo, t_hi = (t_lo * y2_lo >> w) // d, -((-t_hi * y2_hi >> w) // d)
        if i & 1:
            lo, hi = lo - t_hi, hi - t_lo
        else:
            lo, hi = lo + t_lo, hi + t_hi
    lo, hi = lo - 1, hi + 1
    for _ in range(r):
        lo = max(lo, 0)  # the cosine is positive
        lo, hi = (lo * lo >> (w - 1)) - one, -(-hi * hi >> (w - 1)) - one
    lo, hi = lo >> guard, -(-hi >> guard)
    return (lo, hi) if sign > 0 else (-hi, -lo)


def _real_bounds(a: CycloNum, k: int, bits: int) -> tuple[int, int]:
    """Integers lo <= 2^bits * den * a <= hi for a real a under zeta -> exp(2 pi i k / order).

    The image of a real element is its real part, sum_j nums[j] cos(2 pi j k
    / order) / den: one integer interval dot product with the bounds of
    _cos_fixed, taken only at the nonzero coefficients.
    """
    n = a.order
    lo = hi = 0
    for j, c in enumerate(a.nums):
        if c:
            c_lo, c_hi = _cos_fixed(j * k % n, n, bits)
            if c > 0:
                lo, hi = lo + c * c_lo, hi + c * c_hi
            else:
                lo, hi = lo + c * c_hi, hi + c * c_lo
    return lo, hi


def sign_real(a: CycloNum, emb: Embedding) -> int:
    """Certified sign of a real cyclotomic number under the embedding.

    Exact zero and rational tests first; otherwise integer bounds on the
    image (_real_bounds) at 64 bits, doubling the precision up to
    MAX_SIGN_BITS until they exclude zero, so a nonzero answer is a proof.
    """
    if not a.is_conjugation_fixed():
        raise ValueError("sign_real requires a conjugation-fixed element")
    if a.is_zero():
        return 0
    if a.is_rational():
        v = a.nums[0]
        return (v > 0) - (v < 0)
    if emb.order != a.order:
        lcm = math.lcm(a.order, emb.order)
        a = a.lift(lcm)
        emb = emb.extend(lcm)
    bits = 64
    while bits <= MAX_SIGN_BITS:
        lo, hi = _real_bounds(a, emb.exponent, bits)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        bits *= 2
    raise ArithmeticError("sign undecided at maximal precision (nonzero was certified exactly)")


def sin_turn_sign(numerator: int, denominator: int) -> int:
    """Exact sign of sin(2*pi*numerator/denominator)."""
    r = numerator % denominator
    if r == 0 or 2 * r == denominator:
        return 0
    return 1 if 2 * r < denominator else -1


def quantum_int_sign(n: int, emb: Embedding) -> int:
    """Sign of [n] at q = exp(2*pi*i*k/N), by exact residue arithmetic."""
    k, big_n = emb.exponent, emb.order
    return sin_turn_sign(n * k, big_n) * sin_turn_sign(k, big_n)


# -- SO3 structure signs ---------------------------------------------------

@lru_cache(maxsize=None)
def _qfact_signs(emb: Embedding) -> tuple[int, ...]:
    """The signs of the quantum factorials [n]! for 0 <= n <= order; the last is 0, since [order] = 0."""
    signs = [1]
    for m in range(1, emb.order + 1):
        signs.append(signs[-1] * quantum_int_sign(m, emb))
    return tuple(signs)


def _qfact_sign(n: int, emb: Embedding) -> int:
    """Sign of [n]! at the embedding: 1 for n <= 0 (the empty product), 0 from n = order on."""
    signs = _qfact_signs(emb)
    return signs[min(max(n, 0), emb.order)]


def _triple_sign(x: int, y: int, z: int, emb: Embedding) -> int:
    """Sign of the triple-point invariant of three colors, 0 if inadmissible."""
    if (x + y + z) % 2:
        return 0
    a, b, c = (y + z - x) // 2, (x + z - y) // 2, (x + y - z) // 2
    if min(a, b, c) < 0:
        return 0
    sign = (-1) ** (a + b + c)
    num = _qfact_sign(a + b + c + 1, emb) * _qfact_sign(a, emb) * _qfact_sign(b, emb) * _qfact_sign(c, emb)
    if num == 0:
        return 0
    den = _qfact_sign(x, emb) * _qfact_sign(y, emb) * _qfact_sign(z, emb)
    if den == 0:
        raise ArithmeticError("vanishing quantum factorial for an in-range color")
    return sign * num * den


def check_so3_level(level: int, emb: Embedding):
    """Refuse a level that is not an odd integer >= 3, or an embedding of another order."""
    if level < 3 or level % 2 == 0:
        raise ValueError("level must be an odd integer >= 3")
    if emb.order != level:
        raise ValueError("embedding must have the same order as the level")


def so3_structure_sign(emb: Embedding, i: int, j: int, k: int) -> int:
    """omega03(e_i, e_j, e_k) of the SO3 algebra at q = zeta_level^k (colors 2i, 2j, 2k).

    The triple-point sign is fixed only up to the gauge e_i -> (-1)^i e_i;
    the gauge is chosen so that omega03(e_1, e_1, e_1) is +1, that is, a
    triple of odd index sum is multiplied by the raw (1,1,1) sign.
    """
    return _triple_sign(2 * i, 2 * j, 2 * k, emb) * _triple_sign(2, 2, 2, emb) ** ((i + j + k) % 2)


# -- JSON encoding ---------------------------------------------------------

def frac_to_json(x) -> str:
    """An exact rational (Fraction or int) as the string "p/q"."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def cyclo_to_json(a: CycloNum) -> dict:
    return {"order": a.order, "coeffs": [frac_to_json(c) for c in a.coeffs]}


def cyclo_from_json(data: dict) -> CycloNum:
    return CycloNum(int(data["order"]), [Fraction(s) for s in data["coeffs"]])
