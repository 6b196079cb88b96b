"""Complex embeddings of Q(zeta_N) and the signs read off them from integer residues.

An `Embedding` sends zeta_N to exp(2 pi i k / N).  At such an embedding the
quantum integer [n] = sin(2 pi n k / N) / sin(2 pi k / N) has the sign of a
product of two sines of rational turns, and each sine's sign is read off
the residue of its turn mod 1 (`sin_turn_sign`, `quantum_int_sign`).  So
are the signs of the quantum factorials and of the triple-point invariants
built from them, and with them the SO3 fusion structure signs
(`so3_structure_sign`) that both the fusion algebras and the torus
representations start from.  The torus's gluing window and the sign of its
form's first norm (`_window`, `_form_sign`) are read here too, so `qrep`
and `torus` share them without importing each other.

No field arithmetic is done here: a computation that needs only these
signs, such as a solve whose blocks are all definite, loads no cyclotomic
field.  Every layer writes its exact rationals by `frac_to_json`, and tests
a moduli space M_{g,n} by the one stability rule 2g - 2 + n > 0
(`_is_stable`), refusing a bad (g, n) by `_check_moduli`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from ._record import Record


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


def _is_stable(g: int, n: int) -> bool:
    """Whether (g, n) has 2g - 2 + n > 0, the stability of the moduli space M_{g,n}."""
    return 2 * g - 2 + n > 0


def _check_moduli(g: int, n: int):
    """Refuse a negative genus or point count, and an unstable (g, n)."""
    if g < 0 or n < 0:
        raise ValueError(f"genus and number of points must be nonnegative, got ({g},{n})")
    if not _is_stable(g, n):
        raise ValueError(f"unstable moduli space ({g},{n})")


def so3_structure_sign(emb: Embedding, i: int, j: int, k: int) -> int:
    """omega03(e_i, e_j, e_k) of the SO3 algebra at q = zeta_level^k (colors 2i, 2j, 2k).

    The triple-point sign is fixed only up to the gauge e_i -> (-1)^i e_i;
    the gauge is chosen so that omega03(e_1, e_1, e_1) is +1, that is, a
    triple of odd index sum is multiplied by the raw (1,1,1) sign.
    """
    return _triple_sign(2 * i, 2 * j, 2 * k, emb) * _triple_sign(2, 2, 2, emb) ** ((i + j + k) % 2)


# -- the one-holed torus with boundary color e_i ---------------------------

def _rank(level: int) -> int:
    return (level - 1) // 2


def _check_color(level: int, i: int):
    if not 0 <= i <= _rank(level) - 1:
        raise ValueError(f"color index {i} out of range for level {level}")


def _window(level: int, i: int) -> tuple[int, ...]:
    """The gluing colors 2j of the torus with boundary color e_i, indexed by j."""
    r = _rank(level)
    window = tuple(j for j in range(r) if i <= 2 * j < 2 * r - i)
    if len(window) != r - i:
        raise ArithmeticError("admissibility window has unexpected size")
    return window


def _form_sign(emb: Embedding, window, i: int) -> int:
    """The sign of the first norm of the torus form at the embedding."""
    j_min = window[0]
    base = so3_structure_sign(emb, j_min, j_min, i) * quantum_int_sign(2 * j_min + 1, emb)
    if base == 0:
        raise ArithmeticError("degenerate base norm")
    return base


# -- JSON encoding ---------------------------------------------------------

def frac_to_json(x) -> str:
    """An exact rational (Fraction or int) as the string "p/q"."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"
