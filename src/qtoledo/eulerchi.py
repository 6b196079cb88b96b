"""Orbifold Euler characteristics of moduli of curves and their twists.

The nodal-count polynomial chi_bar(g, n) in kappa evaluates at kappa = 1/l
to the Euler characteristic of the level-l twisted compactification.  The
boundary recursion integrates the once-cut strata; its symmetry
normalization (one half of the ordered-subset sum, for both the
nonseparating term and the separating products) is calibrated by three
independent anchors and frozen in the tests: chi_bar(0,4) = -1 + 3 kappa,
chi_bar(0,5) = 2 - 10 kappa + 15 kappa^2, and chi(1,1 at level l)
= 1/(2l) - 1/12.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from ._record import Record


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n (B_1 = -1/2 convention)."""
    if n == 0:
        return Fraction(1)
    total = Fraction(0)
    for k in range(n):
        total += math.comb(n + 1, k) * bernoulli(k)
    return -total / (n + 1)


def _check_moduli(g: int, n: int):
    """Refuse a negative genus or point count, and an unstable (g, n)."""
    if g < 0 or n < 0:
        raise ValueError(f"genus and number of points must be nonnegative, got ({g},{n})")
    if 2 * g - 2 + n <= 0:
        raise ValueError(f"unstable moduli space ({g},{n})")


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


def _poly_add(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    return out


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


@lru_cache(maxsize=None)
def _chi_bar_coeffs(g: int, n: int) -> tuple[Fraction, ...]:
    _check_moduli(g, n)
    integrand: list[Fraction] = [Fraction(0)]
    if g >= 1 and 2 * (g - 1) - 2 + n + 2 > 0:
        integrand = _poly_add(integrand, list(_chi_bar_coeffs(g - 1, n + 2)))
    for g1 in range(g + 1):
        g2 = g - g1
        for n1 in range(n + 1):
            n2 = n - n1
            if 2 * g1 - 2 + n1 + 1 <= 0 or 2 * g2 - 2 + n2 + 1 <= 0:
                continue
            weight = Fraction(math.comb(n, n1))
            prod = _poly_mul(list(_chi_bar_coeffs(g1, n1 + 1)),
                             list(_chi_bar_coeffs(g2, n2 + 1)))
            integrand = _poly_add(integrand, [weight * c for c in prod])
    # halve the ordered edge count, then integrate from zero
    poly = [harer_zagier(g, n)]
    poly += [Fraction(c, 2 * (k + 1)) for k, c in enumerate(integrand)]
    return tuple(poly)


def chi_bar(g: int, n: int) -> ChiPoly:
    """The nodal-count polynomial of the compactified moduli space."""
    return ChiPoly(g, n, _chi_bar_coeffs(g, n))


def chi_twisted(g: int, n: int, level: int) -> Fraction:
    """Euler characteristic of the level-twisted compactification."""
    if level < 1:
        raise ValueError("level must be positive")
    return chi_bar(g, n)(Fraction(1, level))
