"""Orbifold Euler characteristics of moduli of curves and their twists.

The nodal-count polynomial chi_bar(g, n) in kappa evaluates at kappa = 1/l
to the Euler characteristic of the level-l twisted compactification.  The
boundary recursion integrates the once-cut strata; its symmetry
normalization (one half of the ordered-subset sum, for both the
nonseparating term and the separating products) is calibrated by three
independent anchors and frozen in the tests: chi_bar(0,4) = -1 + 3 kappa,
chi_bar(0,5) = 2 - 10 kappa + 15 kappa^2, and chi(1,1 at level l)
= 1/(2l) - 1/12.

The recursion sums in integers: the polynomials of every cut's sides are
put over one common denominator, the integrand is summed from their integer
numerators, and one ``Fraction`` is made per output coefficient.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from ._record import Record
from .embedding import _check_moduli, _is_stable


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n (B_1 = -1/2 convention)."""
    if n == 0:
        return Fraction(1)
    total = Fraction(0)
    for k in range(n):
        total += math.comb(n + 1, k) * bernoulli(k)
    return -total / (n + 1)


def harer_zagier(g: int, n: int) -> Fraction:
    """Orbifold Euler characteristic of the open moduli space M_{g,n}."""
    _check_moduli(g, n)
    if g == 0:
        return Fraction((-1) ** (n - 3) * math.factorial(n - 3))
    return ((-1) ** n * (2 * g - 1) * bernoulli(2 * g) / math.factorial(2 * g)
            * math.factorial(2 * g + n - 3))


class ChiPoly(Record):
    """chi_bar(g, n) as a polynomial in the node-weight kappa."""

    g: int
    n: int
    coeffs: tuple[Fraction, ...]  # low degree first

    def __post_init__(self):
        coeffs = tuple(Fraction(c) for c in self.coeffs)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)
        if self.degree > 3 * self.g - 3 + self.n:
            raise ValueError("degree exceeds the boundary depth")
        if coeffs[0] != harer_zagier(self.g, self.n):
            raise ValueError("constant term must be the open Euler characteristic")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, kappa) -> Fraction:
        kappa = Fraction(kappa)
        total = Fraction(0)
        for c in reversed(self.coeffs):
            total = total * kappa + c
        return total

    def __str__(self) -> str:
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0 and len(self.coeffs) > 1:
                continue
            unit = "" if k == 0 else ("*kappa" if k == 1 else f"*kappa^{k}")
            parts.append(f"{c}{unit}")
        return " + ".join(parts) if parts else "0"


@lru_cache(maxsize=None)
def _chi_bar_coeffs(g: int, n: int) -> tuple[Fraction, ...]:
    _check_moduli(g, n)
    # the once-cut strata, each a weight and the chi_bar of its two sides;
    # the nonseparating cut has the constant 1 on its second side
    cuts = [(1, _chi_bar_coeffs(g - 1, n + 2), (Fraction(1),))] if g >= 1 else []
    for g1 in range(g + 1):
        g2 = g - g1
        for n1 in range(n + 1):
            n2 = n - n1
            if _is_stable(g1, n1 + 1) and _is_stable(g2, n2 + 1):  # each side carries the node
                cuts.append((math.comb(n, n1), _chi_bar_coeffs(g1, n1 + 1), _chi_bar_coeffs(g2, n2 + 1)))
    # every side over one denominator, so the integrand sums over den^2 in integers
    den = math.lcm(*[c.denominator for _w, a, b in cuts for c in a + b])
    integrand = [0] * max([1] + [len(a) + len(b) - 1 for _w, a, b in cuts])
    for weight, a, b in cuts:
        bn = [c.numerator * (den // c.denominator) for c in b]
        for i, x in enumerate(a):
            if x:
                x = weight * x.numerator * (den // x.denominator)
                for j, y in enumerate(bn):
                    integrand[i + j] += x * y
    # halve the ordered edge count, then integrate from zero
    den *= den
    return (harer_zagier(g, n),) + tuple(Fraction(c, 2 * (k + 1) * den) for k, c in enumerate(integrand))


def chi_bar(g: int, n: int) -> ChiPoly:
    """The nodal-count polynomial of the compactified moduli space."""
    return ChiPoly(g, n, _chi_bar_coeffs(g, n))


def chi_twisted(g: int, n: int, level: int) -> Fraction:
    """Euler characteristic of the level-twisted compactification."""
    if level < 1:
        raise ValueError("level must be positive")
    return chi_bar(g, n)(Fraction(1, level))
