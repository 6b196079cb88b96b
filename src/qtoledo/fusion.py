"""Rational fusion Frobenius algebras of the SU2/SO3 families.

The algebra attached to a root of unity has structure constants that are
signs of products of quantum integers, so construction runs on exact
integer residue arithmetic (`embedding.so3_structure_sign` and the
triple-point signs beside it), with no field arithmetic.  Once built,
everything downstream (traces, signatures, gluing checks) is plain
rational linear algebra.

Vectors are tuples of ``Fraction`` at the API.  Inside, products, the form
and the trace run on an integer kernel: an operand is put over one common
denominator (``FrobeniusAlgebra.scaled``), its integer numerators are
contracted against the integer structure constants, and a ``Fraction`` is
made only per output coefficient.

TFT values have one route, ``FrobeniusAlgebra.tft_scaled``: it takes the
scaled product of the colors and applies the genus-g trace form
x -> tr(x alpha^(1-g)), an integer covector computed once per genus.
``tft_value`` multiplies its colors and calls it; callers that reuse
partial products of colors (``rmatrix.degree2_class``) call it directly.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._record import Record
from .embedding import (
    Embedding,
    _is_stable,
    _triple_sign,
    check_so3_level,
    quantum_int_sign,
    so3_structure_sign,
)
from .elimination import determinant, solve

Vector = tuple[Fraction, ...]
# A vector as (numerators, denominator): coefficient k is numerators[k] / denominator.
Scaled = tuple[list[int], int]
# A matrix as (rows of numerators, denominator), likewise.
ScaledMatrix = tuple[list[list[int]], int]


def unscaled(a: Scaled) -> Vector:
    """The tuple of Fractions a stands for."""
    nums, den = a
    return tuple(Fraction(x, den) for x in nums)


def scaled_matrix(matrix) -> ScaledMatrix:
    """A rational matrix as integer numerators over one common denominator."""
    den = math.lcm(*[x.denominator for row in matrix for x in row])
    return [[x.numerator * (den // x.denominator) for x in row] for row in matrix], den


def apply_scaled(m: ScaledMatrix, a: Scaled) -> Scaled:
    """The matrix m times the column vector a."""
    (rows, md), (nums, ad) = m, a
    return [sum(x * y for x, y in zip(row, nums)) for row in rows], md * ad


class FrobeniusAlgebra(Record):
    """Fusion Frobenius algebra over Q with diagonal form eta = diag(eps)."""

    family: str                       # "so3" | "su2"
    level: int                        # odd l for so3, 4r for su2
    embedding: Embedding
    rank: int
    eps: tuple[int, ...]
    omega03: tuple[tuple[tuple[int, ...], ...], ...]
    colors: tuple[int, ...]           # underlying color labels

    # caches filled on first use; unannotated, so not fields
    _alpha = None
    _omega_el = None

    def __post_init__(self):
        r = self.rank
        if self.eps[0] != 1:
            raise ValueError("unit sign must be +1")
        if any(self.omega03[0][i][j] != (self.eps[i] if i == j else 0) for i in range(r) for j in range(r)):
            raise ValueError("omega03(0,j,k) must reproduce eta")
        # integer structure constants: e_i e_j = sum_k mult[i][j][k] e_k
        mult = tuple(
            tuple(tuple(self.omega03[i][j][k] * self.eps[k] for k in range(r)) for j in range(r))
            for i in range(r)
        )
        object.__setattr__(self, "_mult", mult)
        trace_vec = tuple(sum(mult[i][j][j] for j in range(r)) for i in range(r))
        object.__setattr__(self, "_trace_vec", trace_vec)
        # genus -> the coefficients of x -> tr(x alpha^(1-g)), filled by tft_scaled
        object.__setattr__(self, "_tft_forms", {})
        self._check_axioms()

    # -- structural checks -------------------------------------------------

    def _check_axioms(self):
        """Certify commutativity (omega03 fully symmetric), the unit law and associativity.

        M_1 must be tridiagonal with a nonzero off-diagonal: then M_1^k e_0
        is a nonzero multiple of e_k plus lower terms, so e_0 is a cyclic
        vector of M_1, and a matrix commuting with M_1 is fixed by its value
        at e_0.  If [M_1, M_i] = 0 for every i, then M_i M_j and M_(e_i e_j)
        commute with M_1 and send e_0 to e_i e_j, so they are equal: that is
        associativity, from r commutators of three terms per entry.
        """
        r, c, w = self.rank, self._mult, self.omega03
        if any(w[i][j][k] != w[j][i][k] or w[i][j][k] != w[i][k][j]
               for i in range(r) for j in range(r) for k in range(r)):
            raise ValueError("omega03 is not fully symmetric")
        if any(c[0][i][k] != (i == k) for i in range(r) for k in range(r)):
            raise ValueError("unit law fails")
        if r == 1:  # Q e_0, associative by the unit law
            return
        # e_1 e_j = sum_i c[1][j][i] e_i: the matrix of e_1 must be tridiagonal, off-diagonal nonzero
        for i in range(r):
            for j in range(r):
                if abs(i - j) == 1 and c[1][j][i] == 0:
                    raise ValueError("multiplication by e_1 is not tridiagonal-nonzero")
                if abs(i - j) > 1 and c[1][j][i] != 0:
                    raise ValueError("multiplication by e_1 is not tridiagonal")
        near = [range(max(a - 1, 0), min(a + 2, r)) for a in range(r)]
        for i, ci in enumerate(c):
            # (M_1 M_i)[k][j] = sum_m c[1][m][k] c[i][j][m], (M_i M_1)[k][j] = sum_m c[i][m][k] c[1][j][m]
            if any(sum(c[1][m][k] * ci[j][m] for m in near[k]) != sum(ci[m][k] * c[1][j][m] for m in near[j])
                   for j in range(r) for k in range(r)):
                raise ValueError(f"multiplication by e_{i} does not commute with multiplication by e_1")

    def basis(self, i: int) -> Vector:
        return unscaled(self.scaled(i))

    def as_vector(self, v) -> Vector:
        """A color index as its basis vector; a vector as a tuple of Fractions of length rank."""
        if isinstance(v, int):
            return self.basis(v)
        if not (isinstance(v, tuple) and all(isinstance(c, Fraction) for c in v)):
            v = tuple(Fraction(c) for c in v)
        if len(v) != self.rank:
            raise ValueError(f"vector of length {len(v)} for an algebra of rank {self.rank}")
        return v

    # -- the integer kernel ---------------------------------------------------

    def scaled(self, v) -> Scaled:
        """A color index or vector as integer numerators over one common denominator."""
        if isinstance(v, int):
            if not 0 <= v < self.rank:
                raise ValueError(f"color {v} is out of range for an algebra of rank {self.rank}")
            nums = [0] * self.rank
            nums[v] = 1
            return nums, 1
        v = self.as_vector(v)
        den = math.lcm(*[c.denominator for c in v])
        return [c.numerator * (den // c.denominator) for c in v], den

    def multiply_scaled(self, a: Scaled, b: Scaled) -> Scaled:
        """The product a b, contracted against the integer structure constants."""
        (an, ad), (bn, bd) = a, b
        out = [0] * self.rank
        for i, x in enumerate(an):
            if x:
                row = self._mult[i]
                for j, y in enumerate(bn):
                    if y:
                        xy = x * y
                        for k, c in enumerate(row[j]):
                            if c:
                                out[k] += xy * c
        return out, ad * bd

    def eta_scaled(self, a: Scaled, b: Scaled) -> Fraction:
        """The form eta(a, b)."""
        (an, ad), (bn, bd) = a, b
        return Fraction(sum(x * y * e for x, y, e in zip(an, bn, self.eps)), ad * bd)

    def trace_scaled(self, a: Scaled) -> Fraction:
        """The trace of multiplication by a."""
        nums, den = a
        return Fraction(sum(x * t for x, t in zip(nums, self._trace_vec)), den)

    # -- basic algebra -------------------------------------------------------

    def multiply(self, u, v) -> Vector:
        return unscaled(self.multiply_scaled(self.scaled(u), self.scaled(v)))

    def mult_matrix(self, v) -> tuple[Vector, ...]:
        """Matrix of multiplication by v, columns indexed by the basis."""
        a = self.scaled(v)
        cols = [unscaled(self.multiply_scaled(a, self.scaled(j))) for j in range(self.rank)]
        return tuple(tuple(cols[j][i] for j in range(self.rank)) for i in range(self.rank))

    def eta(self, u, v) -> Fraction:
        return self.eta_scaled(self.scaled(u), self.scaled(v))

    def counit(self, v) -> Fraction:
        return self.eta(v, 0)

    def trace(self, v) -> Fraction:
        return self.trace_scaled(self.scaled(v))

    def gram(self) -> tuple[Vector, ...]:
        r = self.rank
        return tuple(tuple(self.trace(self.multiply(i, j)) for j in range(r)) for i in range(r))

    # -- semi-simplicity and the Frobenius element --------------------------

    def semisimple_witness(self) -> Fraction:
        return determinant(self.gram())

    @property
    def alpha(self) -> Vector:
        """The element with counit(x) = trace(alpha x) for all x."""
        if self._alpha is None:
            rhs = [Fraction(1)] + [Fraction(0)] * (self.rank - 1)
            sol = solve(self.gram(), rhs)
            object.__setattr__(self, "_alpha", tuple(sol))
        return self._alpha

    @property
    def omega_element(self) -> Vector:
        """Omega = alpha^{-1}, the handle element."""
        if self._omega_el is None:
            rhs = [Fraction(1)] + [Fraction(0)] * (self.rank - 1)
            sol = solve(self.mult_matrix(self.alpha), rhs)
            object.__setattr__(self, "_omega_el", tuple(sol))
        return self._omega_el

    # -- TFT values ----------------------------------------------------------

    def tft_value(self, genus: int, colors) -> Fraction:
        """sigma_{g,n}(colors) = tr(v_1 ... v_n alpha^{1-g}), multilinear."""
        prod = self.scaled(0)
        for c in colors:
            prod = self.multiply_scaled(prod, self.scaled(c))
        return self.tft_scaled(genus, prod)

    def tft_scaled(self, genus: int, prod: Scaled) -> Fraction:
        """tr(prod alpha^{1-g}): the TFT value of genus g at the product of its colors.

        The value is linear in prod.  Its coefficients tr(e_k alpha^{1-g})
        are integers over one denominator, formed once per genus from
        alpha (genus 0) or the handle element Omega = alpha^{-1}.
        """
        if genus < 0:
            raise ValueError("genus must be nonnegative")
        form = self._tft_forms.get(genus)
        if form is None:
            if genus == 0:
                weight = self.scaled(self.alpha)
            else:
                weight, omega = self.scaled(0), self.scaled(self.omega_element)
                for _ in range(genus - 1):
                    weight = self.multiply_scaled(weight, omega)
            tv = self._trace_vec
            form = ([sum(x * t for x, t in zip(self.multiply_scaled(self.scaled(k), weight)[0], tv))
                     for k in range(self.rank)], weight[1])
            self._tft_forms[genus] = form
        (nums, den), (coeffs, form_den) = prod, form
        return Fraction(sum(x * c for x, c in zip(nums, coeffs) if x), den * form_den)


# -- construction ------------------------------------------------------------


def so3_algebra(level: int, emb: Embedding) -> FrobeniusAlgebra:
    """SO3 fusion algebra at an odd level; basis e_i is the color 2i.

    eps_i is the sign of the quantum integer [2i+1] and omega03 is
    so3_structure_sign, gauge-fixed so that omega03(1,1,1) is +1; both are
    exact residue computations at q = zeta_level^k.
    """
    check_so3_level(level, emb)
    r = (level - 1) // 2
    eps = tuple(quantum_int_sign(2 * i + 1, emb) for i in range(r))
    omega = tuple(
        tuple(tuple(so3_structure_sign(emb, i, j, k) for k in range(r)) for j in range(r))
        for i in range(r)
    )
    return FrobeniusAlgebra("so3", level, emb, r, eps, omega, tuple(2 * i for i in range(r)))


def su2_algebra(r: int, emb: Embedding) -> FrobeniusAlgebra:
    """SU2 fusion algebra for A a primitive 4r-th root of unity; rank r-1.

    The signs are those of quantum integers at q = A^2: with A = zeta_4r^k,
    sin(2*pi*2km/4r) = sin(2*pi*km/2r), so they are quantum_int_sign at the
    order-2r embedding with the same exponent.
    """
    if r < 2:
        raise ValueError("r must be at least 2")
    if emb.order != 4 * r:
        raise ValueError("embedding must have order 4r")
    q_emb = Embedding(2 * r, emb.exponent)
    rank = r - 1
    eps = tuple((-1) ** i * quantum_int_sign(i + 1, q_emb) for i in range(rank))
    omega = tuple(
        tuple(tuple(_triple_sign(i, j, k, q_emb) for k in range(rank)) for j in range(rank))
        for i in range(rank)
    )
    return FrobeniusAlgebra("su2", 4 * r, emb, rank, eps, omega, tuple(range(rank)))


def unitary_partner(algebra: FrobeniusAlgebra) -> FrobeniusAlgebra:
    """The embedding of the same family/level making all eta signs +1."""
    if algebra.family == "so3":
        level = algebra.level
        partner = so3_algebra(level, Embedding(level, (level - 1) // 2))
    else:
        r = algebra.level // 4
        partner = su2_algebra(r, Embedding(4 * r, 1))
    if any(e != 1 for e in partner.eps):
        raise ArithmeticError("no unitary embedding found for this family/level")
    return partner


# -- reports ------------------------------------------------------------------


def signature_table(algebra: FrobeniusAlgebra, g_max: int, n_max: int):
    """Grid of (p, q) data with all marked points in the nontrivial color e_1.

    Unstable (g, n) cells still carry the trace-formula value; they are
    flagged so callers can mark them.
    """
    if algebra.rank < 2:
        raise ValueError("signature table needs a nontrivial color")
    partner = unitary_partner(algebra)
    rows = []
    for g in range(g_max + 1):
        row = []
        for n in range(n_max + 1):
            sig = algebra.tft_value(g, [1] * n)
            dim = partner.tft_value(g, [1] * n)
            if (dim + sig) % 2 or (dim - sig) % 2 or dim < abs(sig):
                raise ArithmeticError(f"inconsistent (d, sigma) = ({dim}, {sig}) at {(g, n)}")
            row.append({
                "g": g, "n": n,
                "p": (dim + sig) // 2, "q": (dim - sig) // 2,
                "dim": dim, "signature": sig,
                "stable": _is_stable(g, n),
            })
        rows.append(row)
    return rows


def gluing_checks(algebra: FrobeniusAlgebra, samples: int = 100, seed: int = 0) -> dict:
    """Randomized check of the gluing and unit identities of the TFT values."""
    import random  # only this check draws samples; other calls skip the import

    rng = random.Random(seed)
    r = algebra.rank
    failures = []
    for _ in range(samples):
        g = rng.randrange(0, 4)
        n = rng.randrange(0, 5)
        colors = [rng.randrange(r) for _ in range(n)]
        lhs = algebra.tft_value(g + 1, colors)
        rhs = sum(
            algebra.eps[m] * algebra.tft_value(g, colors + [m, m])
            for m in range(r)
        )
        if lhs != rhs:
            failures.append(("nonseparating", g, colors, lhs, rhs))
        unit_lhs = algebra.tft_value(g, colors + [0])
        unit_rhs = algebra.tft_value(g, colors)
        if unit_lhs != unit_rhs:
            failures.append(("unit", g, colors, unit_lhs, unit_rhs))
        g1, g2 = rng.randrange(0, 3), rng.randrange(0, 3)
        n1 = rng.randrange(0, 3)
        c1 = [rng.randrange(r) for _ in range(n1)]
        c2 = [rng.randrange(r) for _ in range(rng.randrange(0, 3))]
        sep_lhs = algebra.tft_value(g1 + g2, c1 + c2)
        sep_rhs = sum(
            algebra.eps[m] * algebra.tft_value(g1, c1 + [m]) * algebra.tft_value(g2, c2 + [m])
            for m in range(r)
        )
        if sep_lhs != sep_rhs:
            failures.append(("separating", (g1, g2), (c1, c2), sep_lhs, sep_rhs))
    return {"samples": samples, "failures": failures, "passed": not failures}
