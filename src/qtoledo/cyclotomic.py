"""Exact arithmetic in cyclotomic fields Q(zeta_N).

An element is stored in the power basis of Q[x]/Phi_N(x) as a tuple of
integer numerators over one positive common denominator, in lowest terms
(gcd(den, *nums) == 1).  That normal form is unique, so equality within
one field is a tuple comparison, and every ring operation runs in plain
int arithmetic: products by Kronecker substitution (both operands packed
into one Python int) followed by reduction with the sparse rows
x^m mod Phi_N, inverses by an integer extended Euclid on (Phi_N, a).
Mixed-order arithmetic lifts both operands to Q(zeta_lcm).  Real elements
(fixed by zeta -> 1/zeta) get a certified sign under a chosen complex
embedding: an exact zero test first, then adaptive-precision interval
evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath

#: hard cap for adaptive interval refinement, in bits
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


def galois_group_exponents(n: int) -> list[int]:
    return [k for k in range(1, n + 1) if math.gcd(k, n) == 1]


def galois_orbit(a: CycloNum) -> list[CycloNum]:
    """Distinct Galois conjugates of a (one per coset of its stabilizer)."""
    seen: list[CycloNum] = []
    for k in galois_group_exponents(a.order):
        img = galois(a, k)
        if not any(img == s for s in seen):
            seen.append(img)
    return seen


def trace_to_Q(a: CycloNum, fixing_exponents=None) -> Fraction:
    """Trace of a over Q relative to the subfield it generates.

    By default the subfield is Q(a) itself, so the result is the sum of the
    distinct conjugates of a.  Passing `fixing_exponents` (the Galois
    exponents fixing a larger reference subfield K with a in K) computes
    tr_{K/Q}(a) instead; a must be fixed by every listed exponent.
    """
    n = a.order
    if fixing_exponents is None:
        total = CycloNum.rational(0)
        for conj in galois_orbit(a):
            total = total + conj
        return total.rational_value()
    fix = {k % n for k in fixing_exponents}
    for k in fix:
        if galois(a, k) != a:
            raise ValueError("element does not lie in the requested subfield")
    # sum over coset representatives of the fixing subgroup
    units = galois_group_exponents(n)
    if len(units) % len(fix):
        raise ValueError("fixing exponents do not form a subgroup of the right size")
    reps, covered = [], set()
    for k in units:
        if k not in covered:
            reps.append(k)
            covered.update((k * h) % n for h in fix)
    total = CycloNum.rational(0)
    for k in reps:
        total = total + galois(a, k)
    return total.rational_value()


# -- quantum integers -----------------------------------------------------

def quantum_int(n: int, q: CycloNum) -> CycloNum:
    """[n] = (q^n - q^-n)/(q - q^-1), computed by the telescoped sum."""
    if n == 0:
        return CycloNum.rational(0)
    if n < 0:
        return -quantum_int(-n, q)
    total = CycloNum.rational(0)
    power = q ** (n - 1)
    qinv2 = (q * q).inverse()
    for _ in range(n):
        total = total + power
        power = power * qinv2
    return total


def quantum_factorial(n: int, q: CycloNum) -> CycloNum:
    total = CycloNum.rational(1)
    for m in range(1, n + 1):
        total = total * quantum_int(m, q)
    return total


# -- embeddings and certified signs ---------------------------------------

@dataclass(frozen=True)
class Embedding:
    """zeta_order -> exp(2*pi*i*exponent/order)."""

    order: int
    exponent: int

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be positive")
        object.__setattr__(self, "exponent", self.exponent % self.order if self.order > 1 else 0)
        k = self.exponent if self.order > 1 else 1
        if math.gcd(k if k else self.order, self.order) != 1:
            raise ValueError(f"exponent {self.exponent} not coprime to {self.order}")

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

    def compose_galois(self, k: int) -> "Embedding":
        return Embedding(self.order, (self.exponent * k) % self.order)


def embed_complex(a: CycloNum, emb: Embedding) -> complex:
    """Floating-point image of a under the embedding (for oracles only)."""
    if emb.order != a.order:
        lcm = math.lcm(a.order, emb.order)
        a = a.lift(lcm)
        emb = emb.extend(lcm)
    k = emb.exponent if emb.order > 1 else 0
    z = complex(math.cos(2 * math.pi * k / a.order), math.sin(2 * math.pi * k / a.order)) if a.order > 1 else 1.0
    total, power, den = 0j, 1 + 0j, a.den
    for c in a.nums:
        total += (c / den) * power
        power *= z
    return total


def _interval_real(a: CycloNum, emb: Embedding, bits: int):
    iv = mpmath.iv
    old = iv.prec
    try:
        iv.prec = bits
        n = a.order
        k = emb.exponent if n > 1 else 0
        total = iv.mpf(0)
        two_pi = 2 * iv.pi
        for j, c in enumerate(a.nums):
            if c:
                angle = two_pi * iv.mpf(j * k % n) / n
                total += iv.mpf(c) * iv.cos(angle)
        return total / a.den
    finally:
        iv.prec = old


def sign_real(a: CycloNum, emb: Embedding) -> int:
    """Certified sign of a real cyclotomic number under the embedding.

    Exact zero test first; otherwise interval arithmetic with doubling
    precision, so a nonzero answer is a proof.
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
        box = _interval_real(a, emb, bits)
        if box > 0:
            return 1
        if box < 0:
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


# -- JSON encoding ---------------------------------------------------------

def cyclo_to_json(a: CycloNum) -> dict:
    return {"order": a.order, "coeffs": [f"{c.numerator}/{c.denominator}" for c in a.coeffs]}


def cyclo_from_json(data: dict) -> CycloNum:
    return CycloNum(int(data["order"]), [Fraction(s) for s in data["coeffs"]])
