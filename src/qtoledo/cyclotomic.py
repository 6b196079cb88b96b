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

`CycloNum` is also the entry type that `linalg` hands its cyclotomic
matrices to: besides the field operations it supplies `rational`,
`conjugate` and `products`, the sums of products of whole rows and columns
as one packed int sum each, reduced mod Phi_N once.

Real elements (fixed by zeta -> 1/zeta) get a certified sign under a chosen
complex embedding zeta -> exp(2 pi i k / N), in integer arithmetic only
(`sign_real`).  Zero and rational elements are decided exactly here;
otherwise the sign comes from integer bounds on the image at a doubling
precision of up to MAX_SIGN_BITS bits, which `realbounds` computes and
`sign_real` imports only then.  So a computation whose signs are all
rational, such as building a torus representation, compiles no cosine.

`Embedding` and the signs read off exact residues (of quantum integers and
of the SO3 structure constants) live in the field-free `embedding` module;
`Embedding` is imported here, so `cyclotomic.Embedding` is that class.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache

from .embedding import Embedding

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

    # -- what linalg asks of a non-rational entry type ------------------

    def conjugate(self) -> "CycloNum":
        """The complex conjugate, zeta -> 1/zeta (the module function `conjugate`)."""
        return conjugate(self)

    @staticmethod
    def products(rows, cols) -> list[list]:
        """[[sum_k row[k] col[k] for col in cols] for row in rows], summed as ints.

        The entries are CycloNums, ints and Fractions, and all lie in
        Q(zeta_N), N the lcm of the orders of the nonzero CycloNums.  Each
        row and each column is put over one denominator, and each entry is
        lifted to order N and packed into one int by Kronecker substitution:
        its phi(N) numerators are the digits in base 2^k (a rational entry
        is just its numerator).  Every sum of products is then one sum of
        int products.  The width k bounds each coefficient of such a sum by
        len(row) * phi(N) * max|a| * max|b|, plus a sign bit; each sum is
        unpacked once into its 2 phi(N) - 1 digits, biased by 2^(k-1) to
        make them nonnegative, and reduced mod Phi_N once.

        Every sum is a CycloNum, of order N if some product in it has a
        nonzero factor of order above 1, and of order 1 otherwise.
        """
        order = math.lcm(*(x.order for v in (*rows, *cols) for x in v
                           if isinstance(x, CycloNum) and x))
        a, b = _cyclo_vectors(rows, order), _cyclo_vectors(cols, order)
        top_a, top_b = (max((t[2] for t in vecs), default=0) for vecs in (a, b))
        phi = euler_phi(order)
        width = (max(map(len, rows), default=0) * phi * top_a * top_b).bit_length() + 1
        bias, bias_reduced = _bias(order, width)
        mask, shifts = (1 << width) - 1, range(0, (2 * phi - 1) * width, width)
        packed_cols = [_pack(t[0], width) for t in b]
        out = []
        for terms, row_den, _, row_nonzero, row_cyclo in a:
            packed = _pack(terms, width)
            out_row = []
            for (_, col_den, _, col_nonzero, col_cyclo), packed_col in zip(b, packed_cols):
                s = sum(map(operator.mul, packed, packed_col))
                if row_cyclo & col_nonzero or col_cyclo & row_nonzero:
                    s += bias
                    nums = map(operator.sub, _reduce(order, [s >> k & mask for k in shifts]),
                               bias_reduced)
                    out_row.append(_from_ints(order, tuple(nums), row_den * col_den))
                else:  # a rational sum: its packed value is its numerator
                    out_row.append(_from_ints(1, (s,), row_den * col_den))
            out.append(out_row)
        return out


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


# -- the packed kernel of CycloNum.products ----------------------------------

def _cyclo_vectors(vecs, order: int):
    """Each vector as (terms, denominator, largest numerator, nonzero, cyclo), all at `order`.

    A term is (numerators, factor to the common denominator), or None for a
    zero entry; a rational entry has the one numerator.  `nonzero` and
    `cyclo` are the bitmasks of the nonzero entries and of the CycloNums of
    order above 1.
    """
    out = []
    for v in vecs:
        terms, nonzero, cyclo = [], 0, 0
        for k, x in enumerate(v):
            if not x:
                terms.append(None)
                continue
            nonzero |= 1 << k
            if not isinstance(x, CycloNum):  # a Fraction or an int
                terms.append(((x.numerator,), x.denominator))
                continue
            if x.order > 1:
                cyclo |= 1 << k
            nums = x.nums if x.order in (1, order) else _map_powers(x.nums, order, order // x.order)
            terms.append((nums, x.den))
        den = math.lcm(*(t[1] for t in terms if t))
        terms = [t and (t[0], den // t[1]) for t in terms]
        top = max((max(map(abs, t[0])) * t[1] for t in terms if t), default=0)
        out.append((terms, den, top, nonzero, cyclo))
    return out


@lru_cache(maxsize=None)
def _bias(order: int, width: int) -> tuple[int, tuple[int, ...]]:
    """2^(width-1) in each of 2 phi(order) - 1 digits in base 2^width, and those digits mod Phi_order."""
    length, half = 2 * euler_phi(order) - 1, 1 << (width - 1)
    return sum(half << (i * width) for i in range(length)), tuple(_reduce(order, [half] * length))


def _pack(terms, width: int) -> list[int]:
    """Each term's numerators, times its factor, as the signed digits of one int in base 2^width."""
    out = []
    for t in terms:
        u = 0
        if t is not None:
            nums, scale = t
            for c in reversed(nums):
                u = (u << width) + c
            u *= scale
        out.append(u)
    return out


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


# -- certified signs -------------------------------------------------------

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
    from .realbounds import _real_bounds

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


# -- JSON encoding ---------------------------------------------------------

def cyclo_to_json(a: CycloNum) -> dict:
    """The order and the coefficients as "p/q" strings in lowest terms (embedding.frac_to_json)."""
    den = a.den
    gcds = [math.gcd(c, den) for c in a.nums]
    return {"order": a.order, "coeffs": [f"{c // g}/{den // g}" for c, g in zip(a.nums, gcds)]}


def cyclo_from_json(data: dict) -> CycloNum:
    return CycloNum(int(data["order"]), [Fraction(s) for s in data["coeffs"]])
