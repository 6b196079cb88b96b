"""Reference computations that the tests check the package against.

None of these is reached by a computation, CLI command or golden table of
the package; each is an independent route to a value the package computes
another way: floating-point images of cyclotomic numbers; matrix products,
matrix-vector products, linear combinations and Gram matrices with one
CycloNum or Fraction operation per scalar product (the entry loop that the
package's packed integer products replace); kernels, solutions and
determinants read off `rref` (the package eliminates rational input by
Bareiss instead); characteristic polynomials by the Faddeev-LeVerrier
recursion and signatures from them by Descartes' rule; matrix inverses by
Gauss-Jordan elimination on [A | 1]; the signature of a skew-Hermitian
product h*s/i, which gives the closed pair-of-pants form of the Meyer
cocycle (the package takes it on a kernel, with no inverse); the sine
formula for Verlinde dimensions; the closed U(1) Meyer cocycle; the level-5
recursions of the TFT values; the signature of a torus representation's
diagonal form; TFT values and degree-2 classes from `Fraction` vector
products (the package reads them off scaled integer products and per-genus
trace forms); and the nodal-count polynomials of the Euler characteristics
by `Fraction` polynomial sums and products (the package sums integers over
one denominator).
"""

import math
from fractions import Fraction
from functools import lru_cache

from qtoledo.cyclotomic import CycloNum, Embedding, sign_real
from qtoledo.eulerchi import harer_zagier
from qtoledo.fusion import so3_algebra, unitary_partner
from qtoledo.hermitian import (
    HermMatrix,
    Signature,
    _conj,
    _field_order,
    _i_unit,
    _zero_one,
    diagonal,
    mat_add,
    mat_scale,
    rref,
    signature,
)
from qtoledo.mgnclasses import DELTA_IRR, KAPPA1T, PSI, H2Class, separating_labels


def embed_complex(a: CycloNum, emb: Embedding) -> complex:
    """Floating-point image of a under the embedding."""
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


# -- the entry loop: one field operation per scalar product --------------------------


def _dot(u, v, zero):
    s = zero
    for x, y in zip(u, v):
        if x and y:
            s = s + x * y
    return s


def mat_mul(a, b):
    zero, _ = _zero_one((*a, *b))
    bt = tuple(zip(*b))
    return tuple(tuple(_dot(row, col, zero) for col in bt) for row in a)


def mat_vec(a, v) -> tuple:
    zero, _ = _zero_one((*a, v))
    return tuple(_dot(row, v, zero) for row in a)


def lin_comb(coeffs, mats):
    """The sum of c * m over paired coefficients and matrices (at least one matrix)."""
    zero, _ = _zero_one((coeffs, *mats[0]))
    out = tuple(tuple(zero for _ in row) for row in mats[0])
    for c, m in zip(coeffs, mats):
        if c:
            out = mat_add(out, mat_scale(m, c))
    return out


def gram(h, vs, ws):
    """V^* h W for the matrices V and W whose columns are the vectors vs and ws."""
    v_star = tuple(tuple(_conj(x) for x in v) for v in vs)
    return mat_mul(v_star, mat_mul(h, tuple(zip(*ws))))


# -- kernels, solutions and determinants read off rref ---------------------------------


def rref_kernel_basis(a) -> list[tuple]:
    """Right-kernel basis, one vector per free column of the RREF."""
    rows, pivots, _ = rref(a)
    zero, one = _zero_one(a)
    n_cols = len(a[0]) if a else 0
    basis = []
    for fc in range(n_cols):
        if fc in pivots:
            continue
        vec = [zero] * n_cols
        vec[fc] = one
        for i, pc in enumerate(pivots):
            vec[pc] = -rows[i][fc]
        basis.append(tuple(vec))
    return basis


def rref_solve(a, b) -> list:
    """The unique x with a x = b; the same ArithmeticError messages as the package."""
    n = len(a[0])
    rows, pivots, _ = rref([list(row) + [bi] for row, bi in zip(a, b)])
    if pivots[:n] != list(range(n)):
        raise ArithmeticError("underdetermined system")
    if len(pivots) > n:
        raise ArithmeticError("inconsistent system")
    return [row[n] for row in rows[:n]]


def rref_determinant(a):
    """det(a) as the signed product of the pivots."""
    rows, pivots, scale = rref(a)
    if len(pivots) < len(a):
        return rows[-1][-1]  # the last row of a singular matrix reduces to zero
    return scale


# -- characteristic polynomials and signatures from them ---------------------------


def mat_trace(a):
    zero, _ = _zero_one(a)
    return sum((row[i] for i, row in enumerate(a)), zero)


def charpoly(a) -> list:
    """Coefficients [c0, ..., cn] of det(xI - A), via Faddeev-LeVerrier."""
    n = len(a)
    zero, one = _zero_one(a)
    coeffs = [zero] * n + [one]
    am = a  # A M_k, starting from M_1 = I
    for k in range(1, n + 1):
        c = mat_trace(am) * Fraction(-1, k)
        coeffs[n - k] = c
        if k < n:
            am = mat_mul(a, mat_add(am, diagonal((c,) * n)))
    return coeffs


def _descartes_positive_roots(signs: list[int]) -> int:
    # number of positive roots of a real-rooted polynomial = sign variations
    nonzero = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nonzero, nonzero[1:]) if a * b < 0)


def descartes_signature(h: HermMatrix) -> Signature:
    """The signature from the characteristic polynomial.

    All roots are real, so Descartes' rule counts positive and negative
    eigenvalues exactly; the zero count is the x-adic valuation.
    """
    coeffs = charpoly(h.entries)
    if not all(c.is_conjugation_fixed() for c in coeffs):
        raise ArithmeticError("characteristic polynomial not real")
    zero = 0
    while zero < len(coeffs) - 1 and coeffs[zero].is_zero():
        zero += 1
    signs = [sign_real(c, h.embedding) for c in coeffs[zero:]]
    pos = _descartes_positive_roots(signs)
    neg = _descartes_positive_roots([s if (i % 2 == 0) else -s for i, s in enumerate(signs)])
    return Signature(pos, neg, zero)


# -- inverses and the closed Meyer form ---------------------------------------------


def mat_inv(a):
    """Gauss-Jordan inverse; raises ZeroDivisionError on singular input."""
    n = len(a)
    zero, one = _zero_one(a)
    rows, pivots, _ = rref([list(row) + [one if i == j else zero for j in range(n)]
                            for i, row in enumerate(a)])
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return tuple(tuple(row[n:]) for row in rows)


def skew_form_signature(h, s, emb: Embedding) -> int:
    """Signature of the Hermitian matrix h*s/i (h*s must be skew-Hermitian).

    With C = (AB)^-1 and 1-A invertible, s = (1-B^-1)(1-A)^-1(1-C^-1) gives
    the Meyer cocycle mu(A, B) in closed form.
    """
    order = math.lcm(emb.order, 4, _field_order(s, h))
    big = emb.extend(order)
    w = mat_scale(mat_mul(h, s), _i_unit(order, big.exponent).inverse())
    return signature(HermMatrix(w, big)).index


# -- closed formulas ----------------------------------------------------------------


def verlinde_dimension(level: int, genus: int) -> Fraction:
    """Dimension of the level-l SO3 theory in genus g, with a sine-formula check."""
    if level < 5 or level % 2 == 0:
        raise ValueError("the closed sine formula is stated for odd level >= 5")
    algebra = so3_algebra(level, Embedding(level, (level - 1) // 2))
    value = algebra.tft_value(genus, [])
    closed = (level / 4.0) ** (genus - 1) * sum(
        math.sin(2 * m * math.pi / level) ** (2 - 2 * genus) for m in range(1, (level - 1) // 2 + 1)
    )
    if abs(float(value) - closed) > 1e-9 * max(1.0, abs(closed)):
        raise ArithmeticError(f"trace and sine formulas disagree: {float(value)} vs {closed}")
    return value


def meyer_u1_sign(alpha_turn: Fraction, beta_turn: Fraction) -> int:
    """Closed U(1) formula sign(sin((a+b)/2) sin(a/2) sin(b/2)), angles in turns."""
    def s(t: Fraction) -> int:
        # sign of sin(pi*t), period 2 in t
        r = t % 2
        if r == 0 or r == 1:
            return 0
        return 1 if r < 1 else -1

    return s(alpha_turn + beta_turn) * s(alpha_turn) * s(beta_turn)


def level5_sigma_recursion_checks(g_max: int = 4, n_max: int = 6) -> dict:
    """The d and sigma recursions behind the presentation coefficients."""
    emb = Embedding(5, 1)
    v = so3_algebra(5, emb)
    u = unitary_partner(v)
    failures = []
    for g in range(1, g_max + 1):
        for n in range(n_max + 1):
            t = [1] * n
            if v.tft_value(g, t + [1]) != v.tft_value(g, t) - 3 * v.tft_value(g - 1, t):
                failures.append(("sigma", g, n))
            d_irr = u.tft_value(g - 1, t + [1, 1])
            if d_irr + u.tft_value(g - 1, t) != u.tft_value(g, t):
                failures.append(("d", g, n))
    return {"failures": failures, "passed": not failures}


def form_signature(rep) -> tuple[int, int]:
    """(p, q) of the diagonal form of a PuncturedTorusRep, one sign per norm."""
    signs = [sign_real(x, rep.embedding) for x in rep.norms]
    return signs.count(1), signs.count(-1)


# -- degree-2 classes and Euler characteristics on Fractions --------------------------


def tft_value(v, genus: int, colors) -> Fraction:
    """tr(v_1 ... v_n alpha^{1-g}) from Fraction vector products."""
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    prod = v.basis(0)
    for c in colors:
        prod = v.multiply(prod, c)
    if genus == 0:
        prod = v.multiply(prod, v.alpha)
    for _ in range(genus - 1):
        prod = v.multiply(prod, v.omega_element)
    return v.trace(prod)


def degree2_class(r1, g: int, n: int, colors) -> H2Class:
    """The Toledo class tau_{g,n}(colors), one Fraction TFT value per term of the gluing formula."""
    v = r1.algebra
    if 2 * g - 2 + n <= 0:
        raise ValueError("unstable moduli space")
    colors = [v.as_vector(c) for c in colors]
    if len(colors) != n:
        raise ValueError("need one color per marked point")
    coeffs: dict = {}
    kappa_term = tft_value(v, g, colors + [mat_vec(r1.matrix, v.basis(0))])
    coeffs[(KAPPA1T,)] = -kappa_term
    for i in range(n):
        replaced = colors[:i] + [mat_vec(r1.matrix, colors[i])] + colors[i + 1:]
        coeffs[(PSI, i + 1)] = tft_value(v, g, replaced) - kappa_term
    r = v.rank
    # R eta^{-1} as a symmetric 2-tensor
    rt = [[r1.matrix[i][j] * v.eps[j] for j in range(r)] for i in range(r)]
    if g >= 1:
        total = Fraction(0)
        for mu in range(r):
            for nu in range(r):
                if rt[mu][nu]:
                    total += rt[mu][nu] * tft_value(v, g - 1, colors + [mu, nu])
        coeffs[(DELTA_IRR,)] = -total
    for label in separating_labels(g, n):
        _tag, g1, subset = label
        rest = tuple(p for p in range(1, n + 1) if p not in subset)
        total = Fraction(0)
        for mu in range(r):
            left = tft_value(v, g1, [colors[p - 1] for p in subset] + [mu])
            for nu in range(r):
                if rt[mu][nu] and left:
                    right = tft_value(v, g - g1, [colors[p - 1] for p in rest] + [nu])
                    total += rt[mu][nu] * left * right
        coeffs[label] = -total
    return H2Class(g, n, coeffs)


def _poly_add(a: list, b: list) -> list:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    return out


def _poly_mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


@lru_cache(maxsize=None)
def chi_bar_coeffs(g: int, n: int) -> tuple:
    """chi_bar(g, n), low degree first, by the boundary recursion on Fraction polynomials."""
    integrand = [Fraction(0)]
    if g >= 1:
        integrand = _poly_add(integrand, list(chi_bar_coeffs(g - 1, n + 2)))
    for g1 in range(g + 1):
        for n1 in range(n + 1):
            g2, n2 = g - g1, n - n1
            if 2 * g1 - 2 + n1 + 1 <= 0 or 2 * g2 - 2 + n2 + 1 <= 0:
                continue
            prod = _poly_mul(list(chi_bar_coeffs(g1, n1 + 1)), list(chi_bar_coeffs(g2, n2 + 1)))
            integrand = _poly_add(integrand, [math.comb(n, n1) * c for c in prod])
    return (harer_zagier(g, n),) + tuple(Fraction(c, 2 * (k + 1)) for k, c in enumerate(integrand))
